"""Entity linking / canonicalization.

Blocking + within-block resolution (SURVEY.md §2.7): mentions that could
corefer share at least one block key (minhash band over char shingles), and
resolution inside a block is pure and deterministic. Both phase-2 paths run
one kernel: ``explode_band_keys``, ``resolve_blocks``, the smallest
canonical per surface and ``flatten_one_step``; the driver path on one
in-memory table (``link_surfaces``), the join path on each block of the band
rows sorted by (type, band). The independent plain-Python reference is in
``tests/test_band_kernels.py``.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, Iterable, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import char_shingles, jaccard, minhash_bands, minhash_signature
from ..functions.tables import multi_row_runs

_NORM_RE = re.compile(r"[^\w\s]")
_WS_RE = re.compile(r"\s+")

LINK_NUM_PERM = 32
LINK_BANDS = 8
LINK_JACCARD = 0.55

_SURF_SCHEMA = pa.schema(
    [("type", pa.string()), ("norm", pa.string()), ("cnt", pa.int64())]
)
_MAPPING_SCHEMA = pa.schema(
    [("type", pa.string()), ("norm", pa.string()), ("canonical", pa.string())]
)
# the mapping's columns as the right side of the one-step chain flatten
CHAIN_TARGETS = ["type", "r_norm", "r_canonical"]


def normalize_surface(value: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return _WS_RE.sub(" ", _NORM_RE.sub("", value.lower())).strip()


def block_keys(value: str) -> List[str]:
    """LSH band keys for a mention surface — the groupby key domain.
    Identical normalized surfaces always share all keys."""
    norm = normalize_surface(value)
    sig = minhash_signature(char_shingles(norm, 3), num_perm=LINK_NUM_PERM)
    return minhash_bands(sig, bands=LINK_BANDS)


def resolve_block(surfaces: Iterable[Tuple[str, int]]) -> Dict[str, str]:
    """Within one block: cluster surfaces by shingle-Jaccard (single-link over
    the sorted surface list) and map each to a canonical form.

    surfaces: (normalized_surface, count) pairs. Deterministic: input is
    sorted, cluster representative = highest count then longest then lexical.
    Returns {surface: canonical}.
    """
    items = sorted(set(surfaces))
    names = sorted({s for s, _ in items})
    shingle_sets = {s: set(char_shingles(s, 3)) for s in names}
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra

    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if jaccard(shingle_sets[a], shingle_sets[b]) >= LINK_JACCARD:
                union(a, b)

    counts = Counter()
    for s, c in items:
        counts[s] += c
    clusters: Dict[str, List[str]] = {}
    for s in names:
        clusters.setdefault(find(s), []).append(s)
    mapping: Dict[str, str] = {}
    for members in clusters.values():
        rep = max(members, key=lambda s: (counts[s], len(s), [-ord(c) for c in s]))
        for s in members:
            mapping[s] = rep
    return mapping


def explode_band_keys(batch: pa.Table) -> pa.Table:
    """(type, norm, cnt) → one row per (type, band_key, norm, cnt).
    ``block_keys`` runs once per surface (the input is already unique
    surfaces); the row expansion is a vectorized repeat + take."""
    keys = [block_keys(n) for n in batch.column("norm").to_pylist()]
    idx = np.repeat(np.arange(len(keys)), [len(k) for k in keys])
    return batch.select(_SURF_SCHEMA.names).take(idx).add_column(
        1, "band", pa.array([k for ks in keys for k in ks], pa.string()))


def resolve_blocks(tbl: pa.Table) -> pa.Table:
    """(type, band, norm, cnt) rows -> (type, norm, canonical) rows:
    ``resolve_block`` on every (type, band) run of two or more rows. A row
    alone in its block maps to itself: all a one-surface block does is cap
    that surface's canonical at itself in the per-surface min merge."""
    if tbl.num_rows == 0:
        return _MAPPING_SCHEMA.empty_table()
    type_, norm, cnt = (tbl.column(c).to_numpy(zero_copy_only=False)
                        for c in ("type", "norm", "cnt"))
    single, out = np.ones(tbl.num_rows, dtype=bool), []
    for idx in multi_row_runs(tbl, ["type", "band"]):
        single[idx] = False
        out += [(type_[idx[0]], s, c) for s, c in resolve_block(
            zip(norm[idx].tolist(), cnt[idx].tolist())).items()]
    runs = list(zip(*out)) or [(), (), ()]
    return pa.table([pa.array([*a[single], *b], pa.string()) for a, b in
                     zip((type_, norm, norm), runs)], schema=_MAPPING_SCHEMA)


def flatten_one_step(joined: pa.Table) -> pa.Table:
    """Rows of the merged mapping left-joined with itself renamed to
    ``CHAIN_TARGETS`` on (type, canonical) = (type, r_norm) -> the
    (type, norm, canonical) mapping with each canonical looked up once in
    the merged mapping, so chains (a->b->c) flatten one step whatever the
    block order."""
    return pa.table(
        {
            "type": joined.column("type"),
            "norm": joined.column("norm"),
            "canonical": pc.coalesce(
                joined.column("r_canonical"), joined.column("canonical")
            ),
        }
    )


def link_surfaces(surf: pa.Table) -> pa.Table:
    """Unique (type, norm, cnt) surfaces -> one (type, norm, canonical)
    row per surface, on one in-memory table: the band rows, ``resolve_blocks``
    over all of them, the smallest canonical per surface, then the
    one-step flatten. The join path runs the same kernel and flatten on
    Ray Data blocks (``pipelines/kg.py:build_canonical_mapping_ds``)."""
    m = (
        resolve_blocks(explode_band_keys(surf))
        .group_by(["type", "norm"])
        .aggregate([("canonical", "min")])
        .rename_columns(_MAPPING_SCHEMA.names)
    )
    return flatten_one_step(m.join(
        m.rename_columns(CHAIN_TARGETS), ["type", "canonical"],
        ["type", "r_norm"], join_type="left outer",
    ))


def mapping_dict(mapping: pa.Table) -> Dict[Tuple[str, str], str]:
    """(type, norm, canonical) rows -> {(type, norm): canonical}."""
    # to_numpy builds Python values ~10x faster than to_pylist
    type_, norm, canon = (mapping.column(c).to_numpy().tolist()
                          for c in _MAPPING_SCHEMA.names)
    return dict(zip(zip(type_, norm), canon))


def mapping_from_surfaces(
    surfaces: Iterable[Tuple[str, str, int]]
) -> Dict[Tuple[str, str], str]:
    """(type, norm, cnt) rows → {(type, norm): canonical}: the counts summed
    per (type, norm), then ``link_surfaces``. A surface keeps the smallest
    canonical any of its band-key blocks gives it; chains flatten one step.
    Tested against the independent reference in
    ``tests/test_band_kernels.py``."""
    surf = (
        pa.table(list(zip(*surfaces)) or [(), (), ()], schema=_SURF_SCHEMA)
        .group_by(["type", "norm"])
        .aggregate([("cnt", "sum")])
        .rename_columns(_SURF_SCHEMA.names)
    )
    return mapping_dict(link_surfaces(surf))


def link_mentions(mentions: Iterable[Tuple[str, str]]) -> Dict[Tuple[str, str], str]:
    """Sequential oracle for the distributed linker: (value, type) mentions →
    {(value, type): canonical_normalized_surface}. Blocking per type."""
    counter: Counter = Counter()
    originals: Dict[Tuple[str, str], List[str]] = {}
    for value, type_ in mentions:
        norm = normalize_surface(value)
        counter[(type_, norm)] += 1
        originals.setdefault((type_, norm), []).append(value)
    mapping = mapping_from_surfaces(
        (t, n, c) for (t, n), c in counter.items()
    )
    out: Dict[Tuple[str, str], str] = {}
    for (type_, norm), origs in originals.items():
        for orig in origs:
            out[(orig, type_)] = mapping[(type_, norm)]
    return out
