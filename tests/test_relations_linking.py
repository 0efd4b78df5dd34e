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
