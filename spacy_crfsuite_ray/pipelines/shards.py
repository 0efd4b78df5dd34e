"""The sharded-manifest runner shared by the resumable pipelines (KG phase 1,
scrub, export; SURVEY.md §3.4 checkpoint/resume).

Input files are grouped into shards, each keyed by a pid. One output dir
holds ``shard=<pid>/`` partitions and ``_manifest/<pid>.json`` lineage
records (``stages.graph``). A shard is skipped when its manifest validates
against the shard's exact input refs (path|size|mtime) and the pipeline's
layout key; shard dirs outside the live pid set are pruned. Every shard that
must run is a branch of ONE streaming execution: each branch is tagged with
a constant ``shard`` column, the branches are unioned and written once with
hive partitioning. This removes the per-shard read planning and stream
ramp-up/tail that a serial shard loop pays, while keeping one manifest per
shard for resume.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from typing import Callable, Dict, List, Optional, Sequence

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..stages.graph import input_ref_entries, manifest_valid, write_manifest

# Block-size target of the sharded write's execution. Until one task of an
# operator has finished, Ray Data budgets each task's object-store output at
# 2 x target_max_block_size: at Ray's 128 MiB default, a store budget below
# N x 256 MiB starts fewer than N fused map->write tasks and holds the rest
# until one ends. Each of these tasks outputs one small write-metadata block,
# and the largest block in flight inside one (the union rows of a 2,000-page
# phase-1 block) is about 4.2 MB: 8 MiB admits every task from the start and
# splits no block. Object-store admission itself stays on.
_WRITE_TARGET_MAX_BLOCK_SIZE = 8 * 1024 * 1024


def _shard_groups(files: List[str], shards: int) -> List[List[str]]:
    shards = max(1, min(shards, len(files)))
    return [files[i::shards] for i in range(shards)]


def _stable_shard_groups(
    files: List[str], files_per_shard: int
) -> List[tuple]:
    """Incremental-ingest sharding: files sorted by name, chunked at a FIXED
    size, each shard keyed by a NAME hash of its file basenames. Appending
    input files that sort after the existing ones (numbered/date-partitioned
    crawls) leaves every full chunk's pid unchanged, so only the new/changed
    chunks re-run — the append-only ingest pattern at 100 TB. An in-place
    rewrite of an existing file keeps the pid but still re-runs its shard:
    manifests validate against size+mtime input refs (graph.py
    input_ref_entries)."""
    files = sorted(files)
    out = []
    for i in range(0, len(files), files_per_shard):
        group = files[i:i + files_per_shard]
        pid = hashlib.sha1(
            "|".join(os.path.basename(f) for f in group).encode("utf-8")
        ).hexdigest()[:12]
        out.append((pid, group))
    return out


def _walk_parquet(root: str) -> List[str]:
    out = []
    for dirpath, _dirs, names in os.walk(root):
        for n in sorted(names):
            if n.endswith(".parquet"):
                out.append(os.path.join(dirpath, n))
    return sorted(out)


def _with_shard(batch: pa.Table, pid: str) -> pa.Table:
    """Constant ``shard`` partition column for one branch."""
    return batch.append_column(
        "shard", pa.array([pid] * batch.num_rows, pa.string())
    )


def run_sharded(
    files: List[str],
    out_dir: str,
    layout: str,
    branch_fn: Callable[[List[str]], "rd.Dataset"],
    partition_cols: Sequence[str] = ("shard",),
    shards: int = 1,
    files_per_shard: Optional[int] = None,
    empty_schema: Optional[pa.Schema] = None,
    key: Optional[str] = None,
) -> Dict:
    """Run ``branch_fn(group)`` for every shard whose manifest does not
    validate, write all of them in one execution partitioned on
    ``partition_cols`` (``shard`` first), and record one manifest per shard
    carrying ``layout``. ``files_per_shard`` selects the stable name-hash
    chunks, otherwise the files round-robin into ``shards`` groups.
    ``branch_fn`` is called only for shards that run.
    A shard whose branch emits no rows gets an ``empty_schema`` file, when
    given, so downstream reads stay schema-stable. ``key`` names the run
    parameters the output depends on beyond its inputs (e.g. language and
    model); when given it is recorded and must match for a shard to skip."""
    # validated before anything is pruned: a bad value must not wipe output
    if files_per_shard is not None:
        if files_per_shard < 1:
            raise ValueError(f"files_per_shard must be >= 1, got {files_per_shard}")
        groups = _stable_shard_groups(files, files_per_shard)
    elif shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    else:
        groups = [(f"{i:05d}", g)
                  for i, g in enumerate(_shard_groups(files, shards))]
    os.makedirs(out_dir, exist_ok=True)
    # prune every shard dir not in the live pid set — stale shards from a
    # previous run with more shards, a changed incremental chunk, or a
    # sharding-mode switch would otherwise leak into downstream reads
    live = {pid for pid, _ in groups}
    for name in os.listdir(out_dir):
        suffix = name.split("=", 1)[1] if name.startswith("shard=") else ""
        if suffix and suffix not in live:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
            stale = os.path.join(out_dir, "_manifest", f"{suffix}.json")
            if os.path.exists(stale):
                os.remove(stale)
    refs = {pid: input_ref_entries(group) for pid, group in groups}
    # skip only when the manifest covers EXACTLY this input group (paths +
    # sizes + mtimes), layout and key — a different sharding, an in-place
    # input rewrite, an older layout or other run parameters must re-run,
    # never mix old and new output
    to_run = [
        (pid, group) for pid, group in groups
        if not manifest_valid(out_dir, pid, input_refs=refs[pid],
                              layout=layout, key=key)
    ]
    stats = {"shards_run": len(to_run),
             "shards_skipped": len(groups) - len(to_run)}
    if not to_run:
        return stats

    t0 = time.time()
    branches = []
    for pid, group in to_run:
        shutil.rmtree(os.path.join(out_dir, f"shard={pid}"),
                      ignore_errors=True)  # stale partial output
        branches.append(branch_fn(group).map_batches(
            _with_shard, batch_format="pyarrow", fn_kwargs={"pid": pid}
        ))
    all_ds = branches[0] if len(branches) == 1 else branches[0].union(
        *branches[1:]
    )
    # the written Dataset's own context: Ray copied the global one when the
    # branch was read, so the process-wide DataContext keeps its value
    all_ds.context.target_max_block_size = _WRITE_TARGET_MAX_BLOCK_SIZE
    all_ds.write_parquet(out_dir, partition_cols=list(partition_cols))
    wall = time.time() - t0
    for pid, _group in to_run:
        shard_dir = os.path.join(out_dir, f"shard={pid}")
        rows = sum(
            pq.read_metadata(f).num_rows for f in _walk_parquet(shard_dir)
        )
        if empty_schema is not None and not os.path.isdir(shard_dir):
            os.makedirs(shard_dir)
            pq.write_table(empty_schema.empty_table(),
                           os.path.join(shard_dir, "empty-0.parquet"))
        write_manifest(out_dir, pid, input_refs=refs[pid], rows_out=rows,
                       wall_s=wall,
                       extra={"layout": layout, "key": key,
                              "batched_with": len(to_run)})
    return stats


def output_stats(out_dir: str) -> Dict:
    """Row and file counts over every parquet file under ``out_dir``."""
    out_files = _walk_parquet(out_dir)
    return {"rows": sum(pq.read_metadata(f).num_rows for f in out_files),
            "files": len(out_files), "out_dir": out_dir}
