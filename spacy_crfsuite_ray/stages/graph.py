"""Graph materialization: nodes/edges with deterministic surrogate ids,
partitioned Parquet output with per-partition lineage + metrics manifests.

Exact dedup is a groupby on the content-hash id (SURVEY.md §2.8): because ids
are deterministic, re-runs are byte-stable and dedup is order-independent.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Optional

import pandas as pd
import pyarrow as pa

from ..functions.hashing import short_sha1
from ..functions.tables import map_unique


def edge_ids_col(subj_id, pred, obj_id) -> pa.Array:
    """Edge ids (``edge_id``), sha1 once per UNIQUE (subj_id, pred, obj_id):
    edge keys repeat heavily (unique edges ≪ triples)."""
    import pyarrow.compute as pc

    return map_unique(
        pc.binary_join_element_wise(subj_id, pred, obj_id, "|"), short_sha1
    )


def edge_key_batch(batch: pa.Table) -> pa.Table:
    """canonical triples → (edge_id, subj_id, pred, obj_id, url, confidence)."""
    return pa.table(
        {
            "edge_id": edge_ids_col(batch.column("subj_id"),
                                    batch.column("pred"),
                                    batch.column("obj_id")),
            "subj_id": batch.column("subj_id"),
            "pred": batch.column("pred"),
            "obj_id": batch.column("obj_id"),
            "url": batch.column("url"),
            "confidence": batch.column("confidence"),
        }
    )


def edge_observation_combiner(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: dedupe (edge..., url) observations before the
    shuffle so the exchange carries one row per (edge, url) per batch.
    NEVER a Python loop per group — pyarrow's hash group_by does the work."""
    return (
        batch.group_by(["edge_id", "subj_id", "pred", "obj_id", "url"])
        .aggregate([("confidence", "max")])
        .rename_columns(
            ["edge_id", "subj_id", "pred", "obj_id", "url", "confidence"]
        )
    )


# ---------------------------------------------------------------- manifests


def input_ref_entries(paths: List[str]) -> List[str]:
    """Lineage refs that invalidate on an IN-PLACE rewrite of an input file:
    ``path|size|mtime_ns``. Shard pids stay name-keyed (stable across appends,
    pipelines/shards.py:_stable_shard_groups) but a manifest recorded against
    these refs fails validation when any input's bytes change, so the shard
    re-runs instead of silently reusing stale output."""
    out = []
    for p in paths:
        st = os.stat(p)
        out.append(f"{p}|{st.st_size}|{st.st_mtime_ns}")
    return out


def write_manifest(
    out_dir: str,
    partition_id: str,
    input_refs: List[str],
    rows_out: int,
    wall_s: float,
    extra: Optional[Dict] = None,
) -> str:
    """Per-partition lineage + metrics record. A partition whose manifest
    exists and validates is SKIPPED on resume (see pipelines/shards.py)."""
    manifest_dir = os.path.join(out_dir, "_manifest")
    os.makedirs(manifest_dir, exist_ok=True)
    files = []
    part_dir = os.path.join(out_dir, f"shard={partition_id}")
    if os.path.isdir(part_dir):
        def _entry(name):
            path = os.path.join(part_dir, name)
            # cheap integrity token: size + sha1 of the first 1MB (a full
            # hash would serialize all output bytes through the driver)
            with open(path, "rb") as f:
                digest = hashlib.sha1(f.read(1 << 20)).hexdigest()
            return {"file": name, "bytes": os.path.getsize(path),
                    "sha1": digest}

        from concurrent.futures import ThreadPoolExecutor

        names = []
        for dirpath, _dirs, fnames in os.walk(part_dir):
            for n in sorted(fnames):
                if n.endswith(".parquet"):
                    names.append(
                        os.path.relpath(os.path.join(dirpath, n), part_dir)
                    )
        with ThreadPoolExecutor(8) as pool:
            files = list(pool.map(_entry, sorted(names)))
    record = {
        "partition_id": partition_id,
        "input_refs": input_refs,
        "rows_out": rows_out,
        "bytes": sum(f["bytes"] for f in files),
        "files": files,
        "wall_s": wall_s,
        "written_at": time.time(),
        **(extra or {}),
    }
    path = os.path.join(manifest_dir, f"{partition_id}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1)
    os.replace(tmp, path)
    return path


def manifest_valid(out_dir: str, partition_id: str,
                   input_refs: Optional[List[str]] = None,
                   layout: Optional[str] = None,
                   key: Optional[str] = None) -> bool:
    """True iff the manifest exists, every listed file is present with the
    recorded size, and (when given) the recorded input_refs, layout tag and
    run key match — a resume with re-partitioned inputs, an older on-disk
    layout or other run parameters must not reuse stale shard output."""
    path = os.path.join(out_dir, "_manifest", f"{partition_id}.json")
    if not os.path.exists(path):
        return False
    try:
        with open(path) as f:
            record = json.load(f)
    except (json.JSONDecodeError, OSError):
        return False
    if input_refs is not None and record.get("input_refs") != list(input_refs):
        return False
    if layout is not None and record.get("layout") != layout:
        return False
    if key is not None and record.get("key") != key:
        return False
    part_dir = os.path.join(out_dir, f"shard={partition_id}")
    for entry in record.get("files", []):
        fp = os.path.join(part_dir, entry["file"])
        if not os.path.exists(fp) or os.path.getsize(fp) != entry["bytes"]:
            return False
        if "sha1" in entry:  # verify the recorded first-1MB digest (cheap)
            try:
                with open(fp, "rb") as f:
                    if hashlib.sha1(f.read(1 << 20)).hexdigest() != entry["sha1"]:
                        return False
            except OSError:
                return False
    return True


def read_manifests(out_dir: str) -> List[Dict]:
    manifest_dir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(manifest_dir):
        return []
    out = []
    for name in sorted(os.listdir(manifest_dir)):
        if name.endswith(".json"):
            with open(os.path.join(manifest_dir, name)) as f:
                out.append(json.load(f))
    return out
