"""Entity linking: distributed blocking + canonicalization.

The shuffle design (SURVEY.md §2.7): mention surfaces are pre-aggregated to
unique (type, norm) rows with counts INSIDE map_batches (combiner) before any
shuffle, so the all-to-all exchange moves unique surfaces — not raw mentions.
Blocks are minhash band keys over char shingles (+ the surface type). The
join path sorts the band rows by (type, band) and runs ``resolve_blocks`` on
each sorted block: the same pure ``resolve_block`` the sequential oracle
uses, called once per multi-surface block, so Ray and oracle agree exactly.
Hot blocks are bounded: a block is keyed by a minhash band, so its size is
the number of near-duplicate surfaces, not the number of mentions.

The final surface→canonical mapping is small relative to the corpus (unique
normalized surfaces). Phase 2 (``pipelines/kg.py:run_phase2``) takes one of
two paths. On the driver path the mapping is built on the driver
(``core/linking.py:mapping_from_surfaces``) and canonicalization is an
in-process (type, norm) lookup. On the join path nothing is collected: the
mapping stays a Dataset built from the sorted band blocks, the per-surface
min and the chain flatten (a mapping self-join), and canonicalization is a
(type, norm)-hash join of the mapping against triples and surfaces
(``pipelines/kg.py:build_canonical_mapping_ds`` /
``canonicalize_triples_joined``). Both paths normalize with
``normalize_surface`` and id nodes with ``functions/hashing.py:node_id``;
their outputs are byte-equal by test (tests/test_large_paths.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.linking import block_keys, normalize_surface, resolve_block
from ..functions.hashing import short_sha1
from ..functions.tables import map_unique, multi_row_runs


_SURF_SCHEMA = pa.schema(
    [("type", pa.string()), ("norm", pa.string()), ("cnt", pa.int64())]
)


def _surface_counts(type_col, value_col) -> pa.Table:
    """Vectorized combiner core: normalize per UNIQUE value (dictionary
    encode), then ONE Arrow hash group_by — no Python Counter per row."""
    if len(value_col) == 0:
        return _SURF_SCHEMA.empty_table()
    t = pa.table({"type": type_col, "norm": normalized_col(value_col)})
    return (
        t.group_by(["type", "norm"])
        .aggregate([("norm", "count")])
        .rename_columns(["type", "norm", "cnt"])
    )


def entity_surface_counts_batch(batch: pa.Table) -> pa.Table:
    """Combiner straight from tagged sentences: entities list column →
    unique (type, norm, cnt) — skips materializing one row per mention."""
    import pyarrow.compute as pc

    ents = batch.column("entities")
    if isinstance(ents, pa.ChunkedArray):
        ents = ents.combine_chunks()
    flat = pc.list_flatten(ents)
    if len(flat) == 0:
        return _SURF_SCHEMA.empty_table()
    return _surface_counts(
        pc.struct_field(flat, "entity"), pc.struct_field(flat, "value")
    )


def explode_band_keys(batch: pa.Table) -> pa.Table:
    """(type, norm, cnt) → one row per (type, band_key, norm, cnt).
    ``block_keys`` runs once per surface (the input is already unique
    surfaces); the row expansion is a vectorized repeat + take."""
    import numpy as np
    import pyarrow.compute as pc

    norms = batch.column("norm").to_pylist()
    keys = [block_keys(n) for n in norms]
    counts = np.array([len(k) for k in keys], dtype=np.int64)
    idx = pa.array(np.repeat(np.arange(len(norms), dtype=np.int64), counts))
    return pa.table(
        {
            "type": pc.take(batch.column("type"), idx),
            "band": pa.array(
                [k for ks in keys for k in ks], type=pa.string()
            ),
            "norm": pc.take(batch.column("norm"), idx),
            "cnt": pc.take(batch.column("cnt"), idx),
        }
    )


_MAPPING_SCHEMA = pa.schema(
    [("type", pa.string()), ("norm", pa.string()), ("canonical", pa.string())]
)


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


def normalized_col(value_col) -> pa.Array:
    """normalize_surface per UNIQUE value (surfaces repeat heavily)."""
    return map_unique(value_col, normalize_surface)


def node_ids_col(canon_col, type_col) -> pa.Array:
    """Deterministic surrogate ids (``node_id``), sha1 once per UNIQUE
    (canonical, type)."""
    import pyarrow.compute as pc

    return map_unique(pc.binary_join_element_wise(
        pc.cast(canon_col, pa.string()), pc.cast(type_col, pa.string()), "|"
    ), short_sha1)
