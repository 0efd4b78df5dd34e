"""Resumable training-data EXPORT pipeline — the composed product step the
individual ops feed: token-budget quality selection → scrub (line-dedupe +
PII redaction) → fixed-size k-word chunk explode → shard-partitioned
parquet with per-shard lineage manifests (``pipelines.shards.run_sharded``,
shared with the KG and scrub pipelines).

Reference scope: talmago/spacy_crfsuite ships no corpus tooling (it trains
from curated CoNLL/markdown gold, `spacy_crfsuite/train.py:1-40`); this is
the step that turns a raw web corpus into training units under a token
budget.

Scale notes. The selection RULE is global, so it runs once over all input
files (`ops.text.token_budget_select` — bounded score histogram + tie-group
prefix scan, no global sort) and the selected (doc_id) set is broadcast to
the map phase. That set is bounded by construction — at most
``budget_tokens`` docs (every selected doc carries >= 1 token, and
zero-token docs never win a budgeted slot over the boundary) — so the
broadcast is the budget knob itself, not the corpus. Everything after the
rule is a map-only branch per shard (filter → scrub → chunk), exactly the
scrub pipeline's shape. RESUME: each shard manifest records its own input
refs, and the GLOBAL selection digest (all input refs + budget + chunk
size) is folded into the layout version — a change to ANY input file or
knob invalidates every shard, because the global rule changed; a plain
restart skips every finished shard.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..ops.clean import scrub_batch
from ..ops.dedup import CHUNK_WORDS, _chunk_text_rows
from ..ops.text import TOKEN_BUDGET_DEFAULT, token_budget_select
from ..stages.graph import input_ref_entries
from .scrub import scrub_input_files
from .shards import output_stats, run_sharded

EXPORT_LAYOUT_VERSION = "export-shard-v1"

CHUNK_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("chunk_idx", pa.int64()),
        ("text", pa.string()),
    ]
)


def _global_digest(files: List[str], budget_tokens: int,
                   chunk_words: int) -> str:
    """Digest of every input ref + the selection/chunk knobs: the layout
    key that makes per-shard manifests sensitive to GLOBAL rule changes."""
    h = hashlib.md5()
    for e in input_ref_entries(files):
        h.update(str(e).encode())
    h.update(f"|{budget_tokens}|{chunk_words}".encode())
    return h.hexdigest()[:16]


def _export_branch(group: List[str], kept_ref, chunk_words: int):
    """One shard's map-only branch: filter to selected docs (broadcast id
    set) → scrub → k-word chunk explode."""

    def keep(batch: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        ids = get_broadcast(kept_ref)
        import numpy as np

        mask = np.fromiter(
            (int(i) in ids for i in batch.column("doc_id").to_pylist()),
            dtype=bool, count=batch.num_rows,
        )
        return batch.filter(pa.array(mask))

    def explode(batch: pa.Table) -> pa.Table:
        rows = _chunk_text_rows(batch, chunk_words)
        if rows is None:
            return CHUNK_SCHEMA.empty_table()
        doc_of, cidx, chunk_text = rows
        return pa.table(
            {
                "doc_id": pc.cast(
                    batch.column("doc_id").take(
                        pa.array(doc_of, pa.int64())
                    ),
                    pa.int64(),
                ),
                "chunk_idx": pa.array(cidx, pa.int64()),
                "text": chunk_text,
            }
        )

    return (
        rd.read_parquet(group)
        .map_batches(keep, batch_format="pyarrow")
        .map_batches(scrub_batch, batch_format="pyarrow")
        .map_batches(explode, batch_format="pyarrow")
    )


def run_export_pipeline(
    input_path: str,
    out_dir: str,
    budget_tokens: int = TOKEN_BUDGET_DEFAULT,
    chunk_words: int = CHUNK_WORDS,
    shards: int = 1,
    files_per_shard: Optional[int] = None,
) -> Dict:
    """Select → scrub → chunk → partitioned parquet with manifests/resume."""
    files = scrub_input_files(input_path)
    if not files:
        raise ValueError(f"run_export_pipeline: no parquet under {input_path}")
    layout = f"{EXPORT_LAYOUT_VERSION}|{_global_digest(files, budget_tokens, chunk_words)}"
    selection: Dict = {}

    def branch(group: List[str]) -> "rd.Dataset":
        if not selection:
            # global selection rule — once, over ALL inputs, and only when a
            # shard must run (the rule depends on every file, which is why
            # the digest sits in the layout key)
            selected = token_budget_select(
                "", budget_tokens,
                _reader=lambda cols: rd.read_parquet(files, columns=cols),
            )
            kept_ids = set()
            for b in selected.iter_batches(batch_format="pyarrow",
                                           batch_size=None):
                kept_ids.update(
                    int(i) for i in
                    (b if isinstance(b, pa.Table)
                     else pa.Table.from_batches([b])).column("doc_id")
                    .to_pylist()
                )
            selection["selected_docs"] = len(kept_ids)
            selection["ref"] = ray.put(kept_ids)
        return _export_branch(group, selection["ref"], chunk_words)

    # a shard whose docs are all unselected still gets a schema-stable
    # empty file, so the shard dir and its manifest have an output target
    stats = run_sharded(files, out_dir, layout, branch, shards=shards,
                        files_per_shard=files_per_shard,
                        empty_schema=CHUNK_SCHEMA)
    stats.update(budget_tokens=budget_tokens, chunk_words=chunk_words)
    if selection:
        stats["selected_docs"] = selection["selected_docs"]
    return {**stats, **output_stats(out_dir)}
