"""Relation patterns + linking/canonicalization goldens."""

from spacy_crfsuite_ray.core.linking import (
    block_keys,
    link_mentions,
    normalize_surface,
)
from spacy_crfsuite_ray.core.relations import extract_relations
from spacy_crfsuite_ray.functions import hashing

from conftest import hamming64


def ent(text, value, type_):
    start = text.index(value)
    return {
        "start": start, "end": start + len(value),
        "value": value, "entity": type_, "confidence": 0.9,
    }


def test_president_of_pattern():
    text = "Alice Smith, president of Acme Corp, spoke."
    ents = [ent(text, "Alice Smith", "PER"), ent(text, "Acme Corp", "ORG")]
    (t,) = extract_relations(text, ents, url="u1")
    assert (t["subj"], t["pred"], t["obj"]) == ("Alice Smith", "president_of", "Acme Corp")
    assert (t["subj_type"], t["obj_type"], t["url"]) == ("PER", "ORG", "u1")


def test_born_in_and_acquired():
    text = "Bob was born in Paris. Acme acquired Initech."
    ents = [
        ent(text, "Bob", "PER"), ent(text, "Paris", "LOC"),
        ent(text, "Acme", "ORG"), ent(text, "Initech", "ORG"),
    ]
    triples = extract_relations(text, ents)
    preds = {(t["subj"], t["pred"], t["obj"]) for t in triples}
    assert ("Bob", "born_in", "Paris") in preds
    assert ("Acme", "acquired", "Initech") in preds


def test_no_pattern_no_triple_and_gap_limit():
    text = "Alice " + ("x " * 50) + "acquired Acme"
    ents = [ent(text, "Alice", "PER"), ent(text, "Acme", "ORG")]
    assert extract_relations(text, ents) == []


def test_normalize_and_block_keys_stable():
    assert normalize_surface("  Acme,  Corp. ") == "acme corp"
    assert block_keys("Acme Corp") == block_keys("acme corp!")
    # near-identical strings share at least one band key
    shared = set(block_keys("acme corporation")) & set(block_keys("acme corporatian"))
    assert shared


def test_link_mentions_clusters_near_duplicates():
    mentions = [
        ("Acme Corp", "ORG"), ("Acme Corp", "ORG"), ("Acme Corp.", "ORG"),
        ("acme corp", "ORG"), ("Zeta Ltd", "ORG"),
        ("Acme Corp", "PER"),  # different type → independent cluster
    ]
    mapping = link_mentions(mentions)
    canon = mapping[("Acme Corp", "ORG")]
    assert mapping[("Acme Corp.", "ORG")] == canon
    assert mapping[("acme corp", "ORG")] == canon
    assert mapping[("Zeta Ltd", "ORG")] != canon
    assert mapping[("Acme Corp", "PER")] == "acme corp"


def test_deterministic_ids():
    assert hashing.node_id("acme corp", "ORG") == hashing.node_id("acme corp", "ORG")
    assert len(hashing.node_id("a", "T")) == 16
    assert hashing.edge_id("a", "p", "b") != hashing.edge_id("b", "p", "a")


def test_edge_key_batch_ids_per_row():
    """Edge ids are computed once per unique (subj_id, pred, obj_id) and
    gathered back: every row's id must still be its own edge_id, across
    chunks and repeated keys, with the other columns passed through."""
    import pyarrow as pa

    from spacy_crfsuite_ray.stages.graph import edge_key_batch

    rows = [("s1", "works_for", "o1", "u1", 0.9),
            ("s1", "works_for", "o1", "u2", 0.8),
            ("s2", "born_in", "o1", "u1", 0.7),
            ("s1", "born_in", "o1", "u3", 0.6),
            ("s1", "works_for", "o1", "u4", 0.5),
            ("s2", "born_in", "o1", "u5", 0.4)]
    names = ["subj_id", "pred", "obj_id", "url", "confidence"]

    def table(part):
        return pa.table({n: [r[i] for r in part] for i, n in enumerate(names)})

    batch = pa.concat_tables([table(rows[:2]), table(rows[2:5]),
                              table(rows[5:])])
    assert batch.column("subj_id").num_chunks == 3
    out = edge_key_batch(batch)
    assert out.column_names == ["edge_id", *names]
    assert out.column("edge_id").to_pylist() == [
        hashing.edge_id(s, p, o) for s, p, o, _, _ in rows]
    for n in names:
        assert out.column(n).to_pylist() == batch.column(n).to_pylist()

    empty = edge_key_batch(batch.schema.empty_table())
    assert empty.num_rows == 0
    assert empty.schema == pa.schema(
        [("edge_id", pa.string())] + list(zip(names, [pa.string()] * 4
                                              + [pa.float64()])))


def test_minhash_similarity_monotonic():
    a = hashing.minhash_signature(hashing.char_shingles("the quick brown fox jumps"))
    b = hashing.minhash_signature(hashing.char_shingles("the quick brown fox jumped"))
    c = hashing.minhash_signature(hashing.char_shingles("completely different words"))
    sim_ab = (a == b).mean()
    sim_ac = (a == c).mean()
    assert sim_ab > sim_ac


def test_simhash_hamming():
    a = hashing.simhash64("the quick brown fox".split())
    b = hashing.simhash64("the quick brown foxes".split())
    c = hashing.simhash64("entirely unrelated content here".split())
    assert hamming64(a, b) < hamming64(a, c)


def _reference_union(batch):
    """The union table row by row from Python dicts: the tagged rows, then
    ``extract_relations`` per sentence, then the surface counts."""
    import pyarrow as pa

    from spacy_crfsuite_ray.stages.link import entity_surface_counts_batch
    from spacy_crfsuite_ray.stages.relations import DERIVED_SCHEMA

    rows = batch.to_pylist()
    out = [{"kind": "e", **r} for r in rows]
    for r in rows:
        out += [{**t, "kind": "t"} for t in
                extract_relations(r["sent"], r["entities"], url=r["url"])]
    out += [{"kind": "s", **s}
            for s in entity_surface_counts_batch(batch).to_pylist()]
    return pa.Table.from_pylist(out, schema=DERIVED_SCHEMA)


def test_derive_union_matches_per_row_reference():
    """``derive_union_batch`` derives triples from Arrow arrays; it must
    give exactly the per-sentence reference on crafted edge cases, whole,
    multi-chunk and sliced."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from spacy_crfsuite_ray.stages.relations import derive_union_batch
    from spacy_crfsuite_ray.stages.tag import ENTITY_TYPE

    def span(text, value, type_, conf=0.9, at=0):
        start = text.index(value, at)
        return {"start": start, "end": start + len(value), "value": value,
                "entity": type_, "confidence": conf}

    sents = []

    def add(text, *ents):
        sents.append((text, [span(text, *e) for e in ents]))

    # listed out of order; "was founded by" must win over "founded"
    add("Acme Corp was founded by Alice Smith in Paris.",
        ("Paris", "LOC"), ("Alice Smith", "PER", 0.7), ("Acme Corp", "ORG"))
    # equal (start, end): the stable order keeps the later-listed ORG next
    # to Berlin, so the triple's subject type is ORG
    add("Bob visited Berlin.", ("Bob", "PER", 0.8), ("Berlin", "LOC", 0.7),
        ("Bob", "ORG", 0.6))
    add("No entities here.")
    # nested and partial overlaps: their empty gaps give no triple
    add("Globex Corporation acquired Initech.",
        ("Globex Corporation", "ORG"), ("Corporation", "ORG", 0.5),
        ("Initech", "ORG"))
    add("Umbrella Health Group moved to Chicago.", ("Umbrella Health", "ORG"),
        ("Health Group", "ORG", 0.95), ("Chicago", "LOC", 0.96))
    for width in (60, 61):  # the gap limit is inclusive
        gap = " works at".ljust(width)
        add("Carol" + gap + "Hooli.", ("Carol", "PER"), ("Hooli", "ORG"))
    # code-point offsets: non-ASCII before and inside the gap
    add("🎉 Grüße: Zoë Müller — visited — Köln café, then Zoë married Ana.",
        ("Zoë Müller", "PER"), ("Köln", "LOC", 0.4), ("Zoë", "PER", 0.9, 30),
        ("Ana", "PER"))
    add("Dave is the capital of nothing.", ("Dave", "PER"))
    # pairs never cross rows: Frank's sentence holds " married" up to
    # Grace's offset in the next one
    add("Frank married.", ("Frank", "PER"))
    add("Meanwhile, so Grace left.", ("Grace", "PER"))
    # equal starts order by end; the earlier pattern in the list wins over
    # the one found first in the gap
    add("Hooli Labs visited and then acquired Pied Piper.",
        ("Hooli Labs", "ORG"), ("Hooli", "ORG", 0.3), ("Pied Piper", "ORG"))
    add("Erin, the CEO of Soylent, partnered with Wonka.",
        ("Wonka", "ORG"), ("Soylent", "ORG"), ("Erin", "PER"))

    def table(part, lo):
        return pa.table({
            "url": [f"u{lo + i // 2}" for i in range(len(part))],
            "sent_idx": pa.array(range(lo, lo + len(part)), pa.int32()),
            "base": pa.array([0] * len(part), pa.int32()),
            "sent": [s for s, _ in part],
            "entities": pa.array([e for _, e in part], pa.list_(ENTITY_TYPE)),
        })

    batch = pa.concat_tables([table(sents[:4], 0), table(sents[4:], 4)])
    assert batch.column("entities").num_chunks == 2

    def check(b):
        got, want = derive_union_batch(b), _reference_union(b)
        assert got.schema == want.schema
        assert got.equals(want)
        return got

    union = check(batch)
    triples = union.filter(pc.equal(union.column("kind"), "t"))
    assert [(t["subj"], t["pred"], t["obj"], t["subj_type"], t["confidence"])
            for t in triples.to_pylist()] == [
        ("Acme Corp", "founded_by", "Alice Smith", "ORG", 0.7),
        ("Bob", "visited", "Berlin", "ORG", 0.6),
        ("Corporation", "acquired", "Initech", "ORG", 0.5),
        ("Health Group", "moved_to", "Chicago", "ORG", 0.95),
        ("Carol", "works_at", "Hooli", "PER", 0.9),
        ("Zoë Müller", "visited", "Köln", "PER", 0.4),
        ("Zoë", "married", "Ana", "PER", 0.9),
        ("Hooli Labs", "acquired", "Pied Piper", "ORG", 0.9),
        ("Erin", "ceo_of", "Soylent", "PER", 0.9),
        ("Soylent", "partnered_with", "Wonka", "ORG", 0.9),
    ]
    # long enough that an unstable sort would reorder the equal spans
    check(pa.concat_tables([batch] * 40))
    for lo in range(batch.num_rows):
        for n in (1, 3, 5):
            check(batch.slice(lo, n))

    bare = check(table([(s, []) for s, _ in sents], 0))
    assert set(bare.column("kind").to_pylist()) == {"e"}
