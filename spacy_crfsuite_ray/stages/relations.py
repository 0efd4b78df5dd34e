"""Relation extraction + mention explosion — stateless map_batches tasks,
vectorized over each batch's Arrow columns."""

from __future__ import annotations

from typing import Any, Dict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.relations import MAX_GAP_CHARS, gap_predicate
from .tag import ENTITY_TYPE

MENTION_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("value", pa.string()),
        ("type", pa.string()),
        ("confidence", pa.float64()),
    ]
)


DERIVED_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),  # "e"=tagged sentence, "t"=triple, "s"=surface
        ("url", pa.string()),
        ("sent_idx", pa.int32()),
        ("base", pa.int32()),
        ("sent", pa.string()),
        ("entities", pa.list_(ENTITY_TYPE)),
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("subj_type", pa.string()),
        ("obj_type", pa.string()),
        ("confidence", pa.float64()),
        ("type", pa.string()),
        ("norm", pa.string()),
        ("cnt", pa.int64()),
    ]
)


def _union_part(kind: str, n: int, cols: Dict[str, Any]) -> pa.Table:
    """``n`` union rows of ``kind``: ``cols``, and nulls in every other
    ``DERIVED_SCHEMA`` column."""
    cols = {"kind": pa.array([kind] * n, pa.string()), **cols}
    return pa.table(
        [cols[f.name] if f.name in cols else pa.nulls(n, f.type)
         for f in DERIVED_SCHEMA],
        names=DERIVED_SCHEMA.names,
    ).cast(DERIVED_SCHEMA)


def triples_batch(batch: pa.Table) -> pa.Table:
    """The ``kind=t`` union rows of a tagged batch:
    ``core/relations.py:extract_relations`` over every row, in row order,
    computed on the flattened entity arrays. Each sentence's entities
    are ordered by a stable (row, start, end) sort — ``sorted`` by (start,
    end) per row — and consecutive entities of one row form the adjacent
    pairs. Gap width is ``start[b] - end[a]`` in code points (Python slice
    offsets), so only pairs with a gap of 1..``MAX_GAP_CHARS`` chars are
    sliced out of their sentence (an overlap's gap is empty and matches no
    pattern). Each gap runs the ordered pattern list, so the first
    pattern still wins."""
    ents = batch.column("entities")
    if isinstance(ents, pa.ChunkedArray):
        ents = ents.combine_chunks()
    flat = pc.list_flatten(ents)
    row = pc.list_parent_indices(ents).to_numpy()
    start = pc.struct_field(flat, "start").to_numpy().astype(np.int64)
    end = pc.struct_field(flat, "end").to_numpy().astype(np.int64)
    order = np.lexsort((end, start, row))
    a, b = order[:-1], order[1:]
    width = start[b] - end[a]
    keep = (row[a] == row[b]) & (width > 0) & (width <= MAX_GAP_CHARS)
    a, b = a[keep], b[keep]
    texts = batch.column("sent").take(row[a]).to_numpy(zero_copy_only=False)
    hits, preds = [], []
    for k, (text, lo, hi) in enumerate(zip(texts, end[a].tolist(),
                                            start[b].tolist())):
        pred = gap_predicate(text[lo:hi])
        if pred is not None:
            hits.append(k)
            preds.append(pred)
    a, b = a[hits], b[hits]
    value = pc.struct_field(flat, "value")
    label = pc.struct_field(flat, "entity")
    conf = pc.struct_field(flat, "confidence")
    return _union_part("t", len(hits), {
        "url": batch.column("url").take(row[a]),
        "subj": value.take(a),
        "pred": pa.array(preds, pa.string()),
        "obj": value.take(b),
        "subj_type": label.take(a),
        "obj_type": label.take(b),
        "confidence": pc.min_element_wise(conf.take(a), conf.take(b)),
    })


def derive_union_batch(batch: pa.Table) -> pa.Table:
    """Tagged sentences → ONE kind-tagged union table holding the tagged
    rows ("e"), the relation triples ("t", ``triples_batch``) and the
    per-batch surface-count combiner output ("s", stages/link.py). All
    three are Arrow passes over the batch's columns. One derivation, one
    write; consumers read back with parquet filter pushdown on ``kind``."""
    from ..stages.link import entity_surface_counts_batch

    surf = entity_surface_counts_batch(batch)
    return pa.concat_tables([
        _union_part("e", batch.num_rows, {
            k: batch.column(k) for k in ("url", "sent_idx", "base", "sent",
                                         "entities")}),
        triples_batch(batch),
        _union_part("s", surf.num_rows, {
            k: surf.column(k) for k in ("type", "norm", "cnt")}),
    ])


def mentions_batch(batch: pa.Table) -> pa.Table:
    """(url, entities) → one row per entity mention. Fully vectorized —
    the list<struct> column flattens with Arrow kernels (list_flatten +
    struct_field, exactly like link.entity_surface_counts_batch) and the
    url repeats via list_parent_indices + take; no Python ever touches a
    mention dict."""
    ents = batch.column("entities")
    if isinstance(ents, pa.ChunkedArray):
        ents = ents.combine_chunks()
    flat = pc.list_flatten(ents)
    if len(flat) == 0:
        return MENTION_SCHEMA.empty_table()
    urls = batch.column("url").take(pc.list_parent_indices(ents))
    return pa.table(
        {
            "url": pc.cast(urls, pa.string()),
            "value": pc.cast(pc.struct_field(flat, "value"), pa.string()),
            "type": pc.cast(pc.struct_field(flat, "entity"), pa.string()),
            "confidence": pc.cast(
                pc.struct_field(flat, "confidence"), pa.float64()
            ),
        }
    ).cast(MENTION_SCHEMA)
