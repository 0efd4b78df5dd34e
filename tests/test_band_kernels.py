"""Band-keyed kernels against per-group Python references, and the linker's
two phase-2 paths on crafted surfaces.

Each kernel (``resolve_blocks``, ``_minhash_pairs``, ``_simhash_pairs``)
runs on the collected table in its driver twin and on every sorted block in
its distributed twin, so the twin-equality tests compare the kernel with
itself. These tests check each kernel against an independent per-key
reference instead. Both phase-2 linkers and the sequential oracle run the
same kernel, so ``_reference_mapping`` here is the driver linker's only
independent reference."""

import itertools
import random
import string
from collections import Counter, defaultdict

import pyarrow as pa
import pytest

from spacy_crfsuite_ray.core import linking
from spacy_crfsuite_ray.core.linking import (
    block_keys,
    mapping_from_surfaces,
    resolve_block,
)
from spacy_crfsuite_ray.ops.dedup import _minhash_pairs, _simhash_pairs
from spacy_crfsuite_ray.stages.link import explode_band_keys, resolve_blocks

from conftest import hamming64

_BAND_SCHEMA = pa.schema([("type", pa.string()), ("band", pa.string()),
                          ("norm", pa.string()), ("cnt", pa.int64())])


def _band_table(rows):
    return pa.Table.from_pylist(
        [dict(zip(_BAND_SCHEMA.names, r)) for r in rows], schema=_BAND_SCHEMA)


def _min_merge(rows):
    """(type, norm, canonical) rows -> {(type, norm): smallest canonical}."""
    out = {}
    for t, n, c in rows:
        out[(t, n)] = min(out.get((t, n), c), c)
    return out


def _reference_resolve(rows):
    """Per-(type, band) ``resolve_block`` over every group, then the min."""
    groups = defaultdict(list)
    for t, band, norm, cnt in rows:
        groups[(t, band)].append((norm, cnt))
    return _min_merge((t, n, c) for (t, _), surfaces in groups.items()
                      for n, c in resolve_block(surfaces).items())


def _kernel_resolve(rows):
    got = resolve_blocks(_band_table(rows))
    assert got.schema.names == ["type", "norm", "canonical"]
    return _min_merge(zip(*(got.column(c).to_pylist() for c in got.schema.names)))


_LINK_CASES = {
    "singletons_only": [("ORG", "b1", "acme", 3), ("ORG", "b2", "zeta", 1),
                        ("PER", "b3", "bob", 2)],
    "one_key": [("ORG", "b", "acme corp", 5), ("ORG", "b", "acme corpo", 1),
                ("ORG", "b", "zeta ltd", 9)],
    "two_types_one_band": [("ORG", "b", "acme corp", 5),
                           ("PER", "b", "acme corpo", 9),
                           ("ORG", "b", "acme corpo", 1),
                           ("PER", "b", "acme corp", 1)],
    "unsorted": [("ORG", "b2", "acme corpo", 1), ("ORG", "b1", "acme corp", 5),
                 ("PER", "b1", "acme corp", 2), ("ORG", "b2", "acme corp", 5),
                 ("ORG", "b1", "acme corpo", 1), ("ORG", "b3", "acme corpo", 1)],
    "empty": [],
}


@pytest.mark.parametrize("case", sorted(_LINK_CASES))
def test_resolve_blocks_matches_per_block_reference(case):
    rows = _LINK_CASES[case]
    assert _kernel_resolve(rows) == _reference_resolve(rows)


def test_resolve_blocks_on_real_band_rows():
    """Band rows as the join path builds them, shuffled."""
    rng = random.Random(7)
    names = ["acme corp", "acme corpo", "acme corporation", "zeta ltd",
             "zeta limited", "globex", "globex inc", "initech"]
    surf = pa.table({"type": ["ORG"] * len(names) + ["PER"] * 3,
                     "norm": names + names[:3],
                     "cnt": [rng.randint(1, 50) for _ in range(len(names) + 3)]})
    rows = list(zip(*(explode_band_keys(surf).column(c).to_pylist()
                      for c in _BAND_SCHEMA.names)))
    rng.shuffle(rows)
    assert _kernel_resolve(rows) == _reference_resolve(rows)


def _pair_table(rows, cols):
    return pa.table({c: pa.array(v, pa.int64()) for c, v in zip(cols, zip(*rows))}
                    if rows else {c: pa.array([], pa.int64()) for c in cols})


_PAIR_CASES = {
    "singletons_only": [(1, 10, 0), (2, 11, 0), (3, 12, 0)],
    "one_key": [(5, 13, 0b1), (5, 11, 0b11), (5, 12, 0b111), (5, 11, 0b11),
                (5, 10, 0b1111)],
    "unsorted": [(9, 4, 0), (2, 3, 0b1), (9, 1, 0b1), (2, 1, 0b11111),
                 (7, 2, 0), (9, 3, 0b11), (2, 4, 0b10)],
    "empty": [],
}


@pytest.mark.parametrize("case", sorted(_PAIR_CASES))
def test_minhash_pairs_match_all_pairs_per_key(case):
    rows = _PAIR_CASES[case]
    by_key = defaultdict(set)
    for band, doc, _ in rows:
        by_key[band].add(doc)
    want = {p for ids in by_key.values()
            for p in itertools.combinations(sorted(ids), 2)}
    got = _minhash_pairs(_pair_table([r[:2] for r in rows], ["band", "doc_id"]))
    pairs = list(zip(got.column("a").to_pylist(), got.column("b").to_pylist()))
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == want


@pytest.mark.parametrize("case", sorted(_PAIR_CASES))
def test_simhash_pairs_match_brute_force_hamming_per_key(case):
    rows = _PAIR_CASES[case]
    by_key = defaultdict(dict)
    for band, doc, h in rows:
        by_key[band][doc] = h
    want = {}
    for docs in by_key.values():
        for a, b in itertools.combinations(sorted(docs), 2):
            d = hamming64(docs[a], docs[b])
            if d <= 2:
                want[(a, b)] = d
    got = _simhash_pairs(
        _pair_table(rows, ["band", "doc_id", "simhash"]), 2).to_pylist()
    assert len(got) == len(want)
    assert {(r["a"], r["b"]): r["hamming"] for r in got} == want


def _both_paths(surfaces):
    """{(type, norm): canonical} from the driver linker and the join path
    (the band rows split over three input blocks)."""
    import ray.data as rd

    from spacy_crfsuite_ray.pipelines.kg import build_canonical_mapping_ds

    driver = mapping_from_surfaces(surfaces)
    tbl = pa.table({"type": [s[0] for s in surfaces],
                    "norm": [s[1] for s in surfaces],
                    "cnt": pa.array([s[2] for s in surfaces], pa.int64())})
    n = tbl.num_rows
    ds = rd.from_arrow([tbl.slice(0, n // 3), tbl.slice(n // 3, n // 3),
                        tbl.slice(2 * (n // 3))])
    got = build_canonical_mapping_ds(ds, 2).to_pandas()
    return driver, dict(zip(zip(got["type"], got["norm"]), got["canonical"]))


def test_linker_chains_flatten_one_step_on_both_paths(ray_session):
    """Chains of three or more surfaces: both paths look each canonical up
    once in the merged, unflattened mapping, whatever the block order."""
    counts = {"globefcrporation": 45, "globexcrporation": 2,
              "globefcroration": 50, "globex crporation": 12,
              "ccmehfldings": 1, "ccmehofldings": 39, "ccmeholdings": 35,
              "ccme holdings": 18, "ccmehfldibngs": 23}
    surfaces = [("ORG", n, c) for n, c in counts.items()]
    driver, join = _both_paths(surfaces)
    assert driver == join
    rows = list(zip(*(explode_band_keys(pa.table({
        "type": ["ORG"] * len(counts), "norm": list(counts),
        "cnt": list(counts.values())})).column(c).to_pylist()
        for c in _BAND_SCHEMA.names)))
    merged = _reference_resolve(rows)
    assert driver == {k: merged.get(("ORG", c), c) for k, c in merged.items()}
    assert driver[("ORG", "globexcrporation")] == "globefcrporation"


def test_one_surface_blocks_still_cap(ray_session):
    """A surface alone in one of its blocks is its own canonical there, so
    the min merge caps it at itself: the rare variant "zeta corp" keeps
    itself although its shared blocks map it to the frequent "zeta corpo".
    The other way round the shared blocks' canonical sorts first and wins."""
    driver, join = _both_paths([("ORG", "zeta corpo", 100), ("ORG", "zeta corp", 1)])
    assert driver == join == {("ORG", "zeta corpo"): "zeta corpo",
                              ("ORG", "zeta corp"): "zeta corp"}
    driver, join = _both_paths([("ORG", "zeta corpo", 1), ("ORG", "zeta corp", 100)])
    assert driver == join == {("ORG", "zeta corpo"): "zeta corp",
                              ("ORG", "zeta corp"): "zeta corp"}


def _reference_mapping(surfaces):
    """The driver linker in plain Python: counts summed per (type, norm),
    every surface in each of its ``block_keys`` blocks, per-block
    ``resolve_block`` and the min, then each canonical looked up once in
    the merged mapping."""
    counts = Counter()
    for t, n, c in surfaces:
        counts[(t, n)] += c
    merged = _reference_resolve((t, key, n, c) for (t, n), c in counts.items()
                                for key in block_keys(n))
    return {(t, n): merged.get((t, c), c) for (t, n), c in merged.items()}


def _seeded_surfaces(n, seed=17):
    """n ORG/PER surfaces: random two-word names, every third with an
    " inc" variant of the same type."""
    rng, out = random.Random(seed), {}
    word = lambda: "".join(rng.choices(string.ascii_lowercase,
                                       k=rng.randint(4, 9)))
    for i in itertools.count():
        if len(out) >= n:
            break
        t, name = rng.choice(["ORG", "PER"]), f"{word()} {word()}"
        out[(t, name)] = rng.randint(1, 100)
        if i % 3 == 0:
            out[(t, name + " inc")] = rng.randint(1, 100)
    return [(t, name, c) for (t, name), c in out.items()]


_DRIVER_CASES = {
    "types_share_names": [("ORG", "acme corp", 5), ("PER", "acme corp", 1),
                          ("ORG", "acme corpo", 2), ("PER", "acme corpo", 9),
                          ("LOC", "acme corp", 3), ("LOC", "zeta", 1)],
    "empty_norm": [("ORG", "", 3), ("ORG", "a", 1), ("ORG", "acme", 2),
                   ("PER", "", 1)],
    # summed, "acme corp" (2 + 3) outweighs "acme corpo" (4)
    "repeated_rows": [("ORG", "acme corp", 2), ("ORG", "acme corpo", 4),
                      ("ORG", "acme corp", 3)],
    "empty": [],
    "seeded_2000": _seeded_surfaces(2000),
}


@pytest.mark.parametrize("case", sorted(_DRIVER_CASES))
def test_driver_linker_matches_reference(case):
    surfaces = _DRIVER_CASES[case]
    assert mapping_from_surfaces(surfaces) == _reference_mapping(surfaces)


def test_driver_linker_resolves_only_multi_surface_blocks(monkeypatch):
    """A one-surface block only caps its surface at itself, so the linker
    hands ``resolve_block`` (called through ``core.linking`` by both paths'
    kernel) no block with fewer than two surfaces."""
    sizes = []

    def counted(surfaces):
        surfaces = list(surfaces)
        sizes.append(len({s for s, _ in surfaces}))
        return resolve_block(surfaces)

    monkeypatch.setattr(linking, "resolve_block", counted)
    names = ["acme corp", "acme corpo", "acme corporation", "zeta ltd",
             "zeta limited", "globex", "globex inc", "initech"]
    surfaces = [("ORG", n, i + 1) for i, n in enumerate(names)]
    surfaces += [("PER", n, 2) for n in names[:3]]
    assert mapping_from_surfaces(surfaces) == _reference_mapping(surfaces)
    assert sizes and min(sizes) >= 2
