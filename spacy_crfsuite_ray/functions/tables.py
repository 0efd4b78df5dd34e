"""Small Arrow-table utilities shared by the distributed operators."""

from __future__ import annotations

from typing import Callable, Iterator, List

import numpy as np
import pyarrow as pa


def stable_rename(names: List[str]):
    """``map_batches`` fn: rename post-groupby aggregate columns to stable
    output names. (Ray passes the 0-column empty blocks of a shuffle
    partition that got no keys through without calling it.)"""

    def fn(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(names)

    return fn


def map_unique(col, fn: Callable[[str], str]) -> pa.Array:
    """``fn`` once per UNIQUE value of a string column (values repeat
    heavily), expanded back to every row with a vectorized take."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    # to_numpy builds the Python strings ~10x faster than to_pylist
    uniq = enc.dictionary.to_numpy(zero_copy_only=False).tolist()
    return pc.take(pa.array([fn(v) for v in uniq], pa.string()), enc.indices)


def multi_row_runs(tbl: pa.Table, keys: List[str]) -> Iterator[np.ndarray]:
    """Row indices of each run of two or more rows of ``tbl`` that share
    all ``keys`` values, runs in key order, rows in input order."""
    import pyarrow.compute as pc

    if tbl.num_rows < 2:
        return
    order = pc.sort_indices(tbl, [(k, "ascending") for k in keys]).to_numpy()
    change = np.zeros(tbl.num_rows - 1, dtype=bool)
    for k in keys:
        col = tbl.column(k).take(order)
        change |= pc.not_equal(col[1:], col[:-1]).to_numpy()
    bounds = np.concatenate([[0], np.flatnonzero(change) + 1, [tbl.num_rows]])
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s >= 2:
            yield order[s:e]


def map_key_blocks(ds, keys: List[str], fn: Callable[[pa.Table], pa.Table]):
    """``fn`` on each whole block of ``ds`` sorted by ``keys``. The sort's
    reduce emits one block per range partition, so a block holds all rows
    of each key it holds: the rule Ray Data's own ``map_groups`` relies on
    under the default sort shuffle (``repartition(keys=...)`` raises under
    it). The distributed twin of a kernel over ``multi_row_runs``."""
    return ds.sort(keys).map_batches(fn, batch_format="pyarrow",
                                     batch_size=None)


def drop_empty_blocks(ds):
    """``ds`` materialized without its empty blocks. A hash join sends an
    input's schema to all partitions with the first block it shuffles, but
    not if that block is empty (as a groupby's keyless partitions are), and
    a partition with rows on one side only then fails (Ray Data 2.49)."""
    import ray.data as rd

    ds = ds.materialize()
    refs = [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]
    return rd.from_arrow_refs(refs) if refs else ds


def read_parquet_nometa(paths, *, columns=None, **kw):
    """``ray.data.read_parquet`` with the writer's schema metadata stripped.

    The driver-generated fixtures carry a ``pandas`` schema-metadata blob;
    a ``pa.Schema`` holding that dict is UNHASHABLE, so every schema-dedup
    attempt inside Ray's read-split and shuffle paths logs "Failed to hash
    the schemas" — noise that would bury real problems at 100x block
    counts. Passing an explicit metadata-free schema (one footer read on
    the driver — free) fixes the read stage itself; downstream stages all
    construct fresh metadata-less tables. Files that are already clean skip
    the override entirely."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    first = paths[0] if isinstance(paths, (list, tuple)) else paths
    schema = None
    try:
        if os.path.isdir(first):
            cands = sorted(
                f for f in os.listdir(first) if f.endswith(".parquet")
            )
            first = os.path.join(first, cands[0]) if cands else None
        if first:
            schema = pq.read_schema(first)
            if schema.metadata:
                schema = schema.remove_metadata()
                if columns is not None:
                    schema = pa.schema([schema.field(c) for c in columns])
            else:
                schema = None  # already clean — no need to constrain
    except Exception:
        schema = None
    if schema is not None:
        kw["schema"] = schema
    return rd.read_parquet(paths, columns=columns, **kw)


def read_documents(sf_dir: str, columns=None):
    """The documents-table reader shared by the text / dedup / clean op
    families — ONE copy of the path convention (was three drifting
    module-local `_docs` helpers)."""
    return read_parquet_nometa(f"{sf_dir}/documents.parquet", columns=columns)


def collect_table(ds, empty_schema: "pa.Schema | None" = None) -> pa.Table:
    """Collect a (small, pre-reduced) Dataset to one driver table. A stream
    whose blocks are ALL empty yields ZERO batches from iter_batches, and
    ``pa.concat_tables([])`` raises — pass ``empty_schema`` to get a typed
    empty table instead (callers that structurally cannot produce an empty
    stream may omit it). Shared by ops.dedup and ops.relational so the
    all-empty-stream semantics cannot drift between them."""
    tables = [
        b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    if not tables:
        if empty_schema is not None:
            return empty_schema.empty_table()
        raise ValueError(
            "empty stream collected without an empty_schema fallback"
        )
    return pa.concat_tables(tables)
