"""Entity linking: distributed blocking + canonicalization.

The shuffle design (SURVEY.md §2.7): mention surfaces are pre-aggregated to
unique (type, norm) rows with counts INSIDE map_batches (combiner) before any
groupby, so the all-to-all exchange moves unique surfaces — not raw mentions.
Blocks are minhash band keys over char shingles (+ the surface type); the
per-block resolution is the same pure ``resolve_block`` the sequential oracle
uses, so Ray and oracle agree exactly. Hot blocks are bounded: a block is
keyed by a minhash band, so its size is the number of near-duplicate surfaces,
not the number of mentions.

The final surface→canonical mapping is small relative to the corpus (unique
normalized surfaces). Phase 2 (``pipelines/kg.py:run_phase2``) takes one of
two paths. On the driver path the mapping is built on the driver and
BROADCAST via ``ray.put``; ``ApplyCanonicalToTriples`` reads it once per
worker process, never re-shipped per batch. On the join path nothing is collected: the mapping stays a
Dataset built by the banded groupby below, the chain flatten runs as a
mapping self-join, and canonicalization is a (type, norm)-hash join of the
mapping against triples and surfaces (``pipelines/kg.py:
build_canonical_mapping_ds`` / ``canonicalize_triples_joined``) — byte-equal
to the driver path by test (tests/test_large_paths.py).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..core.linking import block_keys, normalize_surface, resolve_block
from ..functions.hashing import node_id


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


def resolve_block_group(group: pd.DataFrame) -> pd.DataFrame:
    """map_groups fn for groupby(type, band): resolve one block."""
    surfaces = list(zip(group["norm"], group["cnt"]))
    mapping = resolve_block(surfaces)
    return pd.DataFrame(
        {
            "type": group["type"].iloc[0],
            "norm": list(mapping.keys()),
            "canonical": list(mapping.values()),
        }
    )


def _encode_unique(col):
    """Dictionary-encode a (possibly chunked) string column; returns
    (unique_values_list, indices) for resolve-unique-then-gather patterns."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    return enc.dictionary.to_pylist(), enc.indices


def normalized_col(value_col) -> pa.Array:
    """normalize_surface per UNIQUE value (surfaces repeat heavily), expanded
    back with a vectorized take — the join-path twin of the broadcast
    stage's dictionary-encoded resolve."""
    import pyarrow.compute as pc

    uniq, idx = _encode_unique(value_col)
    norms = pa.array([normalize_surface(v) for v in uniq], pa.string())
    return pc.take(norms, idx)


def node_ids_col(canon_col, type_col) -> pa.Array:
    """Deterministic surrogate ids, sha1 once per UNIQUE (canonical, type)."""
    import pyarrow.compute as pc

    comb = pc.binary_join_element_wise(
        pc.cast(canon_col, pa.string()), pc.cast(type_col, pa.string()), "\x1f"
    )
    uniq, idx = _encode_unique(comb)
    ids = []
    for s in uniq:
        c, t = s.rsplit("\x1f", 1)
        ids.append(node_id(c, t))
    return pc.take(pa.array(ids, pa.string()), idx)


class ApplyCanonicalToTriples:
    """Driver-path canonicalize stage: rewrites subj/obj to canonical
    surfaces + surrogate ids against the broadcast mapping. It runs in Ray
    tasks (``pipelines/kg.py:make_canonical_apply`` memoizes it in the
    task's UDF), and ``get_broadcast`` memoizes the mapping per worker
    process, so the mapping is deserialized once per worker.

    The rewrite is dictionary-encoded: surfaces repeat heavily, so each
    batch resolves only its UNIQUE (value, type) pairs in Python and expands
    them back with a vectorized ``take`` — the per-row cost is an int32
    gather, not a dict probe + sha1."""

    def __init__(self, mapping_ref):
        from ..functions.broadcast import get_broadcast

        self.mapping = get_broadcast(mapping_ref)  # {(type, norm): canonical}
        # surfaces repeat heavily — memoize (value, type) → (canon, node_id)
        self._memo: dict = {}

    def _resolve(self, value: str, type_: str):
        key = (value, type_)
        hit = self._memo.get(key)
        if hit is None:
            canon = self.mapping.get((type_, normalize_surface(value)),
                                     normalize_surface(value))
            hit = (canon, node_id(canon, type_))
            if len(self._memo) < 1_000_000:  # bounded per-worker cache
                self._memo[key] = hit
        return hit

    def _resolve_arrays(self, value_col, type_col):
        """Resolve per UNIQUE (value, type): dictionary-encode the combined
        key, resolve each dictionary entry once, gather with take."""
        import pyarrow.compute as pc

        # \x1f never appears in type labels, so rsplit-once is unambiguous
        comb = pc.binary_join_element_wise(
            pc.cast(value_col, pa.string()), pc.cast(type_col, pa.string()),
            "\x1f",
        )
        enc = comb.combine_chunks().dictionary_encode() \
            if isinstance(comb, pa.ChunkedArray) else comb.dictionary_encode()
        canon, ids = [], []
        for s in enc.dictionary.to_pylist():
            v, t = s.rsplit("\x1f", 1)
            c, i = self._resolve(v, t)
            canon.append(c)
            ids.append(i)
        idx = enc.indices
        return (
            pc.take(pa.array(canon, pa.string()), idx),
            pc.take(pa.array(ids, pa.string()), idx),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        subj_c, subj_ids = self._resolve_arrays(
            batch.column("subj"), batch.column("subj_type")
        )
        obj_c, obj_ids = self._resolve_arrays(
            batch.column("obj"), batch.column("obj_type")
        )
        batch = batch.append_column("subj_canonical", subj_c)
        batch = batch.append_column("obj_canonical", obj_c)
        batch = batch.append_column("subj_id", subj_ids)
        batch = batch.append_column("obj_id", obj_ids)
        return batch