"""Relation extraction + mention explosion — stateless map_batches tasks."""

from __future__ import annotations

import pyarrow as pa

from ..core.relations import extract_relations
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


def derive_union_batch(batch: pa.Table) -> pa.Table:
    """Tagged sentences → ONE kind-tagged union table holding the tagged
    rows ("e"), the relation triples ("t") and the per-batch surface-count
    combiner output ("s"). Relations stay a per-sentence pass (pattern
    matching over entity spans); surface counts are the vectorized Arrow
    combiner (stages/link.py). One derivation, one write; consumers read
    back with parquet filter pushdown on ``kind``."""
    from ..stages.link import entity_surface_counts_batch

    n = batch.num_rows
    nul = {f.name: pa.nulls(n, f.type) for f in DERIVED_SCHEMA}
    ent_tbl = pa.table(
        {
            "kind": pa.array(["e"] * n, pa.string()),
            "url": batch.column("url"),
            "sent_idx": batch.column("sent_idx"),
            "base": batch.column("base"),
            "sent": batch.column("sent"),
            "entities": batch.column("entities").cast(
                DERIVED_SCHEMA.field("entities").type
            ),
            **{k: nul[k] for k in ("subj", "pred", "obj", "subj_type",
                                   "obj_type", "confidence", "type", "norm",
                                   "cnt")},
        }
    ).select([f.name for f in DERIVED_SCHEMA]).cast(DERIVED_SCHEMA)

    triple_rows = []
    for url, sent, ents in zip(
        batch.column("url").to_pylist(),
        batch.column("sent").to_pylist(),
        batch.column("entities").to_pylist(),
    ):
        if not ents:
            continue
        for t in extract_relations(sent, ents, url=url):
            triple_rows.append({**t, "kind": "t"})
    parts = [ent_tbl]
    if triple_rows:
        parts.append(pa.Table.from_pylist(triple_rows, schema=DERIVED_SCHEMA))
    surf = entity_surface_counts_batch(batch)
    m = surf.num_rows
    if m:
        nul_m = {f.name: pa.nulls(m, f.type) for f in DERIVED_SCHEMA}
        parts.append(
            pa.table(
                {
                    "kind": pa.array(["s"] * m, pa.string()),
                    "type": surf.column("type"),
                    "norm": surf.column("norm"),
                    "cnt": surf.column("cnt"),
                    **{k: nul_m[k] for k in
                       ("url", "sent_idx", "base", "sent", "entities", "subj",
                        "pred", "obj", "subj_type", "obj_type", "confidence")},
                }
            ).select([f.name for f in DERIVED_SCHEMA]).cast(DERIVED_SCHEMA)
        )
    return pa.concat_tables(parts)


def mentions_batch(batch: pa.Table) -> pa.Table:
    """(url, entities) → one row per entity mention. Fully vectorized —
    the list<struct> column flattens with Arrow kernels (list_flatten +
    struct_field, exactly like link.entity_surface_counts_batch) and the
    url repeats via list_parent_indices + take; no Python ever touches a
    mention dict."""
    import pyarrow.compute as pc

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
