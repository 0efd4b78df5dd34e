"""Entity linking: the phase-1 surface combiner and the column helpers
both phase-2 paths share.

The shuffle design (SURVEY.md §2.7): mention surfaces are pre-aggregated to
unique (type, norm) rows with counts INSIDE map_batches (combiner) before any
shuffle, so the all-to-all exchange moves unique surfaces — not raw mentions.
Blocks are minhash band keys over char shingles (+ the surface type). The
band kernel (``explode_band_keys``, ``resolve_blocks``: ``resolve_block``
once per multi-surface (type, band) run) lives with the linker in
``core/linking.py`` and is re-exported here. Both phase-2 paths run it, so
they agree by construction: the driver path on one in-memory table of
unique surfaces (``core/linking.py:link_surfaces``), the join path on each
block of the band rows sorted by (type, band). Hot blocks are bounded: a
block is keyed by a minhash band, so its size is the number of
near-duplicate surfaces, not the number of mentions.

The final surface→canonical mapping is small relative to the corpus (unique
normalized surfaces). Phase 2 (``pipelines/kg.py:run_phase2``) takes one of
two paths. On the driver path the mapping is one Arrow table on the driver:
it is written as the mapping artifact, joined with the surfaces for the
nodes, and canonicalization is an in-process (type, norm) lookup. On the
join path nothing is collected: the mapping stays a Dataset built from the
sorted band blocks, the per-surface min and the chain flatten (a mapping
self-join), and canonicalization is a (type, norm)-hash join of the mapping
against triples and surfaces (``pipelines/kg.py:build_canonical_mapping_ds``
/ ``canonicalize_triples_joined``). Both paths normalize with
``normalize_surface`` and id nodes with ``functions/hashing.py:node_id``;
their outputs are byte-equal by test (tests/test_large_paths.py).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..core.linking import _SURF_SCHEMA, normalize_surface
# the band kernel lives with the linker; it stays importable from here
from ..core.linking import explode_band_keys, resolve_blocks  # noqa: F401
from ..functions.hashing import short_sha1
from ..functions.tables import map_unique


def _surface_counts(type_col, value_col) -> pa.Table:
    """Vectorized combiner core: normalize per UNIQUE value (dictionary
    encode), then ONE Arrow hash group_by — no Python Counter per row."""
    if len(value_col) == 0:
        return _SURF_SCHEMA.empty_table()
    t = pa.table({"type": type_col, "norm": normalized_col(value_col)})
    return (
        t.group_by(["type", "norm"])
        .aggregate([("norm", "count")])
        .rename_columns(_SURF_SCHEMA.names)
    )


def entity_surface_counts_batch(batch: pa.Table) -> pa.Table:
    """Combiner straight from tagged sentences: entities list column →
    unique (type, norm, cnt) — skips materializing one row per mention."""
    ents = batch.column("entities")
    if isinstance(ents, pa.ChunkedArray):
        ents = ents.combine_chunks()
    flat = pc.list_flatten(ents)
    if len(flat) == 0:
        return _SURF_SCHEMA.empty_table()
    return _surface_counts(
        pc.struct_field(flat, "entity"), pc.struct_field(flat, "value")
    )


def normalized_col(value_col) -> pa.Array:
    """normalize_surface per UNIQUE value (surfaces repeat heavily)."""
    return map_unique(value_col, normalize_surface)


def node_ids_col(canon_col, type_col) -> pa.Array:
    """Deterministic surrogate ids (``node_id``), sha1 once per UNIQUE
    (canonical, type)."""
    return map_unique(pc.binary_join_element_wise(
        pc.cast(canon_col, pa.string()), pc.cast(type_col, pa.string()), "|"
    ), short_sha1)
