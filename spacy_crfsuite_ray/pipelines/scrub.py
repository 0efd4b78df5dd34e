"""Resumable document-scrub pipeline: the map-only scrub pass
(``ops.clean.scrub_batch``) run through the shared sharded-manifest runner
(``pipelines.shards.run_sharded``), so a failed or restarted run skips every
finished shard.

Layout: ``out_dir/shard=<pid>/*.parquet`` + ``out_dir/_manifest/<pid>.json``.
A manifest records the shard's exact input refs (path|size|mtime) and output
file sizes/digests; resume re-runs a shard when its inputs changed in place,
when the sharding changed, or when any output file is missing/corrupt —
and prunes shard dirs that are no longer in the live pid set.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import ray.data as rd

from ..ops.clean import scrub_batch
from .shards import _walk_parquet, output_stats, run_sharded

# bump to invalidate manifests written by an older on-disk layout
SCRUB_LAYOUT_VERSION = "scrub-shard-v1"


def scrub_input_files(input_path: str) -> List[str]:
    """A single parquet file, or every ``*.parquet`` under a directory."""
    if os.path.isdir(input_path):
        return _walk_parquet(input_path)
    return [input_path]


def run_scrub_pipeline(
    input_path: str,
    out_dir: str,
    shards: int = 1,
    files_per_shard: Optional[int] = None,
) -> Dict:
    """Scrub → partitioned parquet with per-shard manifests + resume.

    ``files_per_shard`` switches to INCREMENTAL sharding (fixed-size
    name-sorted chunks keyed by a basename hash — appends re-run only the
    new chunks); otherwise the input files round-robin into ``shards``
    groups."""
    files = scrub_input_files(input_path)
    if not files:
        raise ValueError(f"run_scrub_pipeline: no parquet under {input_path}")
    stats = run_sharded(
        files, out_dir, SCRUB_LAYOUT_VERSION,
        lambda group: rd.read_parquet(group).map_batches(
            scrub_batch, batch_format="pyarrow"),
        shards=shards, files_per_shard=files_per_shard,
    )
    return {**stats, **output_stats(out_dir)}
