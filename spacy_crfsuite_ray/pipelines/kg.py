"""The flagship KG-construction pipeline (SURVEY.md §3.4 lifecycle).

Two phases, checkpointed between them:

Phase 1 (per input shard, resumable): pages parquet → extract_text →
  lang filter → sentence explode → CRF tag (fast batched path, per-worker
  model singleton) → derive union-output rows for triples ("t") and
  batch-combined surface counts ("s") alongside the tagged sentences ("e"),
  written by the shared sharded-manifest runner (``pipelines/shards.py``)
  with one manifest per shard; consumers read back per ``kind`` partition.
  Tagging dominates cost, so this output is the checkpoint: on resume,
  manifested shards are skipped.

Phase 2 (global, cheap by construction): every input is ALREADY reduced —
  surface counts are unique (type, norm) rows, raw triples are ~2 orders of
  magnitude smaller than sentences. linking (minhash-band groupby over unique
  surfaces → broadcast mapping) → canonical triples → nodes/edges with
  deterministic content-hash ids → partitioned parquet + manifests.

Scale notes: the only all-to-all exchanges are the (type, norm) surface
groupby (over UNIQUE surfaces, pre-aggregated per batch in phase 1), the
band-key groupby (unique surfaces × 8 bands), and the node/edge dedup
groupbys (over already-combined keys). Raw sentence/mention traffic never
shuffles, and phase 2's volume is independent of page count except for the
triples themselves.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..stages.extract import explode_sentences, extract_text_batch, filter_lang
from ..stages.graph import (
    edge_key_batch,
    edge_observation_combiner,
    manifest_valid,
    read_manifests,
    write_manifest,
)
from ..stages.link import (
    ApplyCanonicalToTriples,
    explode_band_keys,
    flatten_chains,
    resolve_block_group,
)
from ..stages.relations import derive_union_batch
from ..stages.tag import tag_batch
from ..state.model import ensure_default_model
from ..functions.hashing import node_id as _node_id
from ..functions.tables import stable_rename
from .shards import run_sharded
# the sharding helpers stay importable from here for the benchmark and tests
from .shards import _shard_groups, _stable_shard_groups, _walk_parquet  # noqa: F401

TAG_BATCH_SIZE = 128  # input pages per UDF call (stage is fused with extract)
# Read/task granularity. Each phase-1 task writes one file per kind, and every
# downstream read pays driver-side planning PER FILE — so blocks are sized for
# ~10 tasks/cpu load balance, not maximal fan-out.
PAGES_PER_BLOCK = 2000

# On-disk layout tag recorded in every phase-1 manifest; bumping it invalidates
# manifests written by older layouts so resume can never silently mix them.
LAYOUT_VERSION = "kind-partitioned-v2"


def run_phase1(
    page_files: List[str],
    out_dir: str,
    shards: int = 1,
    model_path: Optional[str] = None,
    lang: str = "en",
    files_per_shard: Optional[int] = None,
) -> Dict:
    """pages → one kind-tagged union output per shard (tagged sentences +
    raw triples + surface-count combiner rows), all shards that must run in
    ONE streaming execution (``pipelines.shards.run_sharded``).

    ``files_per_shard`` switches to INCREMENTAL sharding: shards are fixed-
    size chunks of the name-sorted input keyed by a content hash, so
    appending new input files re-runs only the new/changed chunks
    (``shards`` is ignored in that mode)."""
    if not page_files:
        raise ValueError("run_phase1: no input page files")
    model_path = model_path or ensure_default_model()
    tagged_dir = os.path.join(out_dir, "tagged")

    def branch(group: List[str]) -> "rd.Dataset":
        total_rows = sum(pq.read_metadata(f).num_rows for f in group)
        ds = rd.read_parquet(
            group, columns=["url", "html", "lang"],
            override_num_blocks=max(len(group), total_rows // PAGES_PER_BLOCK),
        )
        ds = ds.map_batches(extract_text_batch, batch_format="pyarrow")
        ds = ds.map_batches(
            lambda b: filter_lang(b, lang), batch_format="pyarrow"
        )
        ds = ds.map_batches(explode_sentences, batch_format="pyarrow")
        # task-based tagging with a per-worker model singleton
        # (stages/tag.py tag_batch) — warm task workers, no actor spawn
        ds = ds.map_batches(
            tag_batch,
            batch_format="pyarrow",
            batch_size=TAG_BATCH_SIZE,
            fn_kwargs={"model_path": model_path},
        )
        return ds.map_batches(derive_union_batch, batch_format="pyarrow")

    # hive-partition by (shard, kind): consumers prune whole files
    # (entities vs triples vs surface counts) per shard instead of
    # row-filtering mixed files
    stats = run_sharded(page_files, tagged_dir, LAYOUT_VERSION, branch,
                        partition_cols=("shard", "kind"), shards=shards,
                        files_per_shard=files_per_shard)
    stats["tagged_dir"] = tagged_dir
    return stats


def _phase1_refs(out_dir: str) -> List[str]:
    """Phase 2's input refs: ``pid|digest`` per tagged shard manifest, the
    digest over that shard's input refs and layout. Adding, pruning or
    re-inputting a shard changes them, so phase 2 re-runs even when called
    on its own; a shard rebuilt from the same inputs keeps them, because
    its output is a function of those inputs."""
    refs = []
    for m in read_manifests(os.path.join(out_dir, "tagged")):
        key = json.dumps([m.get("input_refs"), m.get("layout")])
        refs.append(f"{m['partition_id']}|"
                    f"{hashlib.sha1(key.encode()).hexdigest()[:16]}")
    return refs


def _kind_files(out_dir: str, kind: str) -> List[str]:
    """Partition-pruned file list: only shard=*/kind=<kind>/ files."""
    root = os.path.join(out_dir, "tagged")
    files = []
    for shard in sorted(os.listdir(root)):
        if shard.startswith("shard="):
            d = os.path.join(root, shard, f"kind={kind}")
            if os.path.isdir(d):
                files.extend(
                    os.path.join(d, f) for f in sorted(os.listdir(d))
                    if f.endswith(".parquet")
                )
    return files


# Below this many surface-count rows, phase 2's linking/nodes run on the
# driver (they fit trivially); above it, the distributed banded-groupby path
# runs. Both produce identical mappings (tests/test_pipeline.py).
DRIVER_MERGE_MAX_ROWS = int(os.environ.get("SCR_DRIVER_MERGE_MAX_ROWS", 5_000_000))
# Above this many UNIQUE surfaces the surface->canonical mapping is never
# collected or broadcast: it stays a Dataset, the chain flatten runs as a
# mapping self-join, and canonicalization is a (type, norm) hash-join against
# triples and surfaces. Nothing in phase 2 then grows with corpus vocabulary
# on the driver or in worker heaps. Join path == broadcast path byte-for-byte
# (tests/test_large_paths.py).
MAPPING_BROADCAST_MAX_ROWS = int(
    os.environ.get("SCR_MAPPING_BROADCAST_MAX_ROWS", 5_000_000)
)


def _mapping_ds_raw(surf: "rd.Dataset") -> "rd.Dataset":
    """unique surfaces -> per-(type, norm) min-canonical mapping rows via the
    banded-LSH shuffle (shared by the broadcast and join flatten paths)."""
    return (
        surf.map_batches(explode_band_keys, batch_format="pyarrow")
        .groupby(["type", "band"])
        .map_groups(resolve_block_group, batch_format="pandas")
        .groupby(["type", "norm"])
        .min("canonical")  # first-wins-over-sorted-blocks, vectorized
        .map_batches(
            stable_rename(["type", "norm", "canonical"], [pa.string()] * 3),
            batch_format="pyarrow",
        )
    )


def build_canonical_mapping(surf: "rd.Dataset"):
    """unique surfaces -> {(type, norm): canonical} via the banded-LSH
    shuffle + driver-side chain flattening (the broadcast path, used below
    ``MAPPING_BROADCAST_MAX_ROWS`` unique surfaces)."""
    return flatten_chains(_mapping_ds_raw(surf).to_pandas())


def build_canonical_mapping_ds(
    surf: "rd.Dataset", num_partitions: int
) -> "rd.Dataset":
    """Distributed twin of ``build_canonical_mapping``: the one-step chain
    flatten (a->b->c) runs as a mapping SELF-JOIN on (type, canonical) =
    (type, norm) instead of a driver dict — no vocabulary-sized collect or
    broadcast anywhere. Returns a materialized (type, norm, canonical)
    Dataset keyed for the downstream canonicalization joins."""
    m = _mapping_ds_raw(surf).materialize()
    right = m.map_batches(
        lambda b: pa.table(
            {
                "type": b.column("type"),
                "r_norm": b.column("norm"),
                "r_canonical": b.column("canonical"),
            }
        ),
        batch_format="pyarrow",
    )
    j = m.join(
        right, join_type="left_outer", num_partitions=num_partitions,
        on=("type", "canonical"), right_on=("type", "r_norm"),
    )

    def flat(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "type": b.column("type"),
                "norm": b.column("norm"),
                "canonical": pc.coalesce(
                    b.column("r_canonical"), b.column("canonical")
                ),
            }
        )

    return j.map_batches(flat, batch_format="pyarrow").materialize()


def make_canonical_apply(mapping_ref):
    """Task-based canonical rewrite (no actor spawn — the broadcast mapping
    is fetched from the object store once per worker and memoized)."""
    cache: dict = {}

    def apply(batch: pa.Table) -> pa.Table:
        from ..stages.link import ApplyCanonicalToTriples

        stage = cache.get("stage")
        if stage is None:
            stage = ApplyCanonicalToTriples(mapping_ref)
            cache["stage"] = stage
        return stage(batch)

    return apply


def canonicalize_triples_joined(
    triples_ds: "rd.Dataset", mapping_ds: "rd.Dataset", num_partitions: int
) -> "rd.Dataset":
    """At-scale canonical rewrite: hash-join the (type, norm, canonical)
    mapping Dataset against the triples on each side (subj, obj) — the same
    co-partitioned pattern as ops/dedup.py ``_verify_pairs_joined``. A
    surface missing from the mapping falls back to its normalized form,
    exactly like the broadcast stage (stages/link.py). Output columns match
    the broadcast path's order."""
    from ..stages.link import node_ids_col, normalized_col

    def add_norms(b: pa.Table) -> pa.Table:
        b = b.append_column("norm_subj", normalized_col(b.column("subj")))
        return b.append_column("norm_obj", normalized_col(b.column("obj")))

    t = triples_ds.map_batches(add_norms, batch_format="pyarrow")
    m_subj = mapping_ds.map_batches(
        lambda b: pa.table(
            {"subj_type": b.column("type"), "norm_subj": b.column("norm"),
             "s_canonical": b.column("canonical")}
        ),
        batch_format="pyarrow",
    )
    t = t.join(
        m_subj, join_type="left_outer", num_partitions=num_partitions,
        on=("subj_type", "norm_subj"),
    )
    m_obj = mapping_ds.map_batches(
        lambda b: pa.table(
            {"obj_type": b.column("type"), "norm_obj": b.column("norm"),
             "o_canonical": b.column("canonical")}
        ),
        batch_format="pyarrow",
    )
    t = t.join(
        m_obj, join_type="left_outer", num_partitions=num_partitions,
        on=("obj_type", "norm_obj"),
    )

    def finish(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        subj_c = pc.coalesce(b.column("s_canonical"), b.column("norm_subj"))
        obj_c = pc.coalesce(b.column("o_canonical"), b.column("norm_obj"))
        return pa.table(
            {
                "subj": b.column("subj"),
                "pred": b.column("pred"),
                "obj": b.column("obj"),
                "subj_type": b.column("subj_type"),
                "obj_type": b.column("obj_type"),
                "url": b.column("url"),
                "confidence": b.column("confidence"),
                "subj_canonical": subj_c,
                "obj_canonical": obj_c,
                "subj_id": node_ids_col(subj_c, b.column("subj_type")),
                "obj_id": node_ids_col(obj_c, b.column("obj_type")),
            }
        )

    return t.map_batches(finish, batch_format="pyarrow")


def run_phase2(out_dir: str, force: bool = False) -> Dict:
    """raw triples + surface counts -> linking -> canonical triples,
    nodes, edges. Idempotent: valid manifests short-circuit."""
    dirs = {
        name: os.path.join(out_dir, name)
        for name in ("triples", "edges", "nodes", "mapping")
    }
    refs = _phase1_refs(out_dir)
    if not force and all(manifest_valid(d, "all", input_refs=refs)
                         for d in dirs.values()):
        return {
            "triples_dir": dirs["triples"],
            "edges_dir": dirs["edges"],
            "nodes_dir": dirs["nodes"],
            "skipped": True,
        }
    for d in dirs.values():
        shutil.rmtree(os.path.join(d, "shard=all"), ignore_errors=True)
    t0 = time.time()

    # --- surfaces -> canonical mapping. Surface counts are pre-aggregated per
    # batch in phase 1 ("s" rows of the union output), so their total volume
    # ~ unique surfaces x batches; below DRIVER_MERGE_MAX_ROWS the merge +
    # linking runs on the driver (no Ray executions); above it the
    # distributed banded path runs, and above MAPPING_BROADCAST_MAX_ROWS the
    # mapping additionally stays a Dataset end-to-end (join path).
    surf_files = _kind_files(out_dir, "s")
    triple_files = _kind_files(out_dir, "t")
    surf_cols = ["type", "norm", "cnt"]
    # Partition pruning makes the decision cheap: metadata row counts of the
    # kind=s files alone.
    surf_rows = sum(pq.read_metadata(f).num_rows for f in surf_files)
    small = surf_rows <= DRIVER_MERGE_MAX_ROWS
    surf_tbl = None
    surf_ds = None
    mapping = None
    mapping_ds = None
    if small and surf_files:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(8) as pool:  # pq reads release the GIL
            surf_parts = list(pool.map(
                lambda f: pq.read_table(f, columns=surf_cols), surf_files
            ))
        surf_tbl = (
            pa.concat_tables(surf_parts)
            .group_by(["type", "norm"])
            .aggregate([("cnt", "sum")])
            .rename_columns(["type", "norm", "cnt"])
        )
    if surf_tbl is None and small:  # no mentions at all (e.g. lang filter)
        surf_tbl = pa.table(
            {"type": pa.array([], pa.string()),
             "norm": pa.array([], pa.string()),
             "cnt": pa.array([], pa.int64())}
        )
    if small:
        from ..core.linking import mapping_from_surfaces

        mapping = mapping_from_surfaces(
            zip(
                surf_tbl.column("type").to_pylist(),
                surf_tbl.column("norm").to_pylist(),
                surf_tbl.column("cnt").to_pylist(),
            )
        )
    else:
        surf_ds = (
            rd.read_parquet(surf_files, columns=surf_cols)
            .groupby(["type", "norm"])
            .sum("cnt")
            .map_batches(
                stable_rename(["type", "norm", "cnt"],
                              [pa.string(), pa.string(), pa.int64()]),
                batch_format="pyarrow",
            )
        ).materialize()
        n_unique = surf_ds.count()
        if n_unique <= MAPPING_BROADCAST_MAX_ROWS:
            mapping = build_canonical_mapping(surf_ds)
        else:
            from ..functions.cluster import join_partitions

            mapping_parts = join_partitions(rows=n_unique)
            mapping_ds = build_canonical_mapping_ds(surf_ds, mapping_parts)
    use_join = mapping_ds is not None
    mapping_ref = ray.put(mapping) if not use_join else None

    # --- mapping artifact: the surface→canonical linking table, written as
    # partitioned parquet lineage output (unique surfaces — small relative
    # to the corpus). Downstream audits and the kg_nodes SQL oracle
    # recompute n_mentions from the tagged checkpoint through this table.
    tm = time.time()
    mapping_shard = os.path.join(dirs["mapping"], "shard=all")
    if use_join:
        mapping_ds.write_parquet(mapping_shard)
        n_mapping = -1
    else:
        items = sorted(mapping.items())
        mtbl = pa.table(
            {
                "type": pa.array([k[0] for k, _ in items], pa.string()),
                "norm": pa.array([k[1] for k, _ in items], pa.string()),
                "canonical": pa.array([v for _, v in items], pa.string()),
            }
        )
        os.makedirs(mapping_shard, exist_ok=True)
        pq.write_table(mtbl, os.path.join(mapping_shard, "part-0.parquet"))
        n_mapping = mtbl.num_rows
    write_manifest(dirs["mapping"], "all", input_refs=refs,
                   rows_out=n_mapping, wall_s=time.time() - tm)

    # --- canonical triples. Broadcast path: task-based rewrite against the
    # object-store mapping. Join path: mapping Dataset hash-joined on
    # (type, norm). Below the driver-merge threshold the rewritten dataset is
    # MATERIALIZED once and feeds both the parquet write and the edges pass
    # from the object store (no disk round-trip); above it, it streams
    # straight to parquet and edges re-read the written shard.
    triples_shard = os.path.join(dirs["triples"], "shard=all")
    t_rows = sum(pq.read_metadata(f).num_rows for f in triple_files)
    if triple_files:
        raw_triples = rd.read_parquet(
            triple_files,
            columns=["subj", "pred", "obj", "subj_type", "obj_type", "url",
                     "confidence"],
        )
        if use_join:
            from ..functions.cluster import join_partitions

            ct = canonicalize_triples_joined(
                raw_triples, mapping_ds,
                join_partitions(rows=max(t_rows, 1)),
            )
        else:
            ct = raw_triples.map_batches(
                make_canonical_apply(mapping_ref), batch_format="pyarrow"
            )
        if t_rows <= DRIVER_MERGE_MAX_ROWS:
            import threading

            ct = ct.materialize()

            # the edges/nodes passes read the MATERIALIZED dataset, not the
            # parquet — so the triples write proceeds on a side thread and
            # joins before its manifest is recorded (see below). The thread
            # captures any write failure so the join RE-RAISES it — a
            # manifest must never be recorded over a failed/partial write.
            class _WriteThread(threading.Thread):
                def run(self):
                    self.error = None
                    try:
                        ct.write_parquet(triples_shard)
                    except BaseException as exc:  # re-raised at join
                        self.error = exc

                def join_checked(self):
                    self.join()
                    if self.error is not None:
                        raise self.error

            triples_write = _WriteThread()
            triples_write.start()
            canonical_triples = ct
        else:
            triples_write = None
            ct.write_parquet(triples_shard)
            canonical_triples = rd.read_parquet(triples_shard)
    else:  # no relations found anywhere: still emit a schema-stable output
        os.makedirs(triples_shard, exist_ok=True)
        empty = pa.Table.from_pylist([], schema=pa.schema(
            [(c, pa.string()) for c in
             ("subj", "pred", "obj", "subj_type", "obj_type", "url")]
            + [("confidence", pa.float64()),
               ("subj_canonical", pa.string()), ("obj_canonical", pa.string()),
               ("subj_id", pa.string()), ("obj_id", pa.string())]
        ))
        pq.write_table(empty, os.path.join(triples_shard, "part-0.parquet"))
        canonical_triples = rd.read_parquet(triples_shard)
        triples_write = None
    n_triples = canonical_triples.count() if triple_files else 0

    def _finish_triples():
        """Join the overlapped write (if any) and record the manifest —
        called after the edges pass so the write streams concurrently.
        A failed write re-raises here, BEFORE the manifest exists."""
        if triples_write is not None:
            triples_write.join_checked()
        write_manifest(dirs["triples"], "all", input_refs=refs,
                       rows_out=n_triples,
                       wall_s=time.time() - t0)

    if triples_write is None:
        _finish_triples()
        edges_needs_finish = False
    else:
        edges_needs_finish = True

    # --- edges pass. Runs under try/finally: the overlapped triples write
    # (if any) must ALWAYS be joined — an edges failure must not leave the
    # write thread orphaned mid-flight or lose its error silently; only
    # SECONDARY errors from the join are suppressed while a primary edges
    # error propagates.
    edges_err = None
    try:
        _edges_pass(canonical_triples, dirs, n_triples, refs)
    except BaseException as exc:
        edges_err = exc
        raise
    finally:
        if edges_needs_finish:
            if edges_err is None:
                _finish_triples()
            else:
                try:
                    _finish_triples()
                except BaseException:
                    pass

    # --- nodes: from unique surfaces + mapping (no second mention pass)
    t2 = time.time()
    if small:
        from collections import Counter

        node_counts: Counter = Counter()
        for type_, norm, cnt in zip(
            surf_tbl.column("type").to_pylist(),
            surf_tbl.column("norm").to_pylist(),
            surf_tbl.column("cnt").to_pylist(),
        ):
            canon = mapping.get((type_, norm), norm)
            node_counts[(_node_id(canon, type_), canon, type_)] += cnt
        nodes_tbl = pa.table(
            {
                "node_id": pa.array([k[0] for k in node_counts], pa.string()),
                "canonical": pa.array([k[1] for k in node_counts], pa.string()),
                "type": pa.array([k[2] for k in node_counts], pa.string()),
                "n_mentions": pa.array(list(node_counts.values()), pa.int64()),
            }
        )
        nodes_shard = os.path.join(dirs["nodes"], "shard=all")
        os.makedirs(nodes_shard, exist_ok=True)
        pq.write_table(nodes_tbl, os.path.join(nodes_shard, "part-0.parquet"))
    else:
        if use_join:
            from ..functions.cluster import join_partitions
            from ..stages.link import node_ids_col

            m_nodes = mapping_ds.map_batches(
                lambda b: pa.table(
                    {"type": b.column("type"), "norm": b.column("norm"),
                     "m_canonical": b.column("canonical")}
                ),
                batch_format="pyarrow",
            )
            joined = surf_ds.join(
                m_nodes, join_type="left_outer",
                num_partitions=join_partitions(rows=n_unique),
                on=("type", "norm"),
            )

            def node_rows(batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                canon = pc.coalesce(
                    batch.column("m_canonical"), batch.column("norm")
                )
                return pa.table(
                    {
                        "node_id": node_ids_col(canon, batch.column("type")),
                        "canonical": canon,
                        "type": batch.column("type"),
                        "cnt": batch.column("cnt"),
                    }
                )

            node_src = joined
        else:
            def node_rows(batch: pa.Table) -> pa.Table:
                ids, canons, types, cnts = [], [], [], []
                for type_, norm, cnt in zip(
                    batch.column("type").to_pylist(),
                    batch.column("norm").to_pylist(),
                    batch.column("cnt").to_pylist(),
                ):
                    canon = mapping.get((type_, norm), norm)
                    ids.append(_node_id(canon, type_))
                    canons.append(canon)
                    types.append(type_)
                    cnts.append(cnt)
                return pa.table(
                    {
                        "node_id": pa.array(ids, pa.string()),
                        "canonical": pa.array(canons, pa.string()),
                        "type": pa.array(types, pa.string()),
                        "cnt": pa.array(cnts, pa.int64()),
                    }
                )

            node_src = surf_ds

        nodes = (
            node_src.map_batches(node_rows, batch_format="pyarrow")
            .groupby(["node_id", "canonical", "type"])
            .sum("cnt")
            .map_batches(
                stable_rename(["node_id", "canonical", "type", "n_mentions"],
                              [pa.string()] * 3 + [pa.int64()]),
                batch_format="pyarrow",
            )
        )
        nodes.write_parquet(os.path.join(dirs["nodes"], "shard=all"))
    write_manifest(dirs["nodes"], "all", input_refs=refs,
                   rows_out=-1, wall_s=time.time() - t2)

    return {
        "triples_dir": dirs["triples"],
        "edges_dir": dirs["edges"],
        "nodes_dir": dirs["nodes"],
        "n_unique_surfaces": (surf_tbl.num_rows if small else surf_ds.count()),
    }


def _edges_pass(canonical_triples: "rd.Dataset", dirs: Dict,
                n_triples: int, refs: List[str]) -> None:
    """Edges: map side runs distributed (edge-id derivation); the final
    dedup/count is ONE driver-side pyarrow group_by with count_distinct
    below the threshold (observations ~ triples — tens of MB), else the
    distributed combiner + two-stage groupby. (Measured: a per-batch
    (edge, url) dedup combiner removes ~0 rows on this workload — one URL
    rarely repeats an edge — so the small path skips it entirely.)"""
    t1 = time.time()
    obs = canonical_triples.select_columns(
        ["subj_id", "pred", "obj_id", "url", "confidence"]
    ).map_batches(edge_key_batch, batch_format="pyarrow")

    if n_triples <= DRIVER_MERGE_MAX_ROWS:
        # batch_size=None yields whole blocks: the default 4096-row
        # re-batching cost 7.2 s on this pull (4.1M rows) vs 0.18 s for
        # block-sized batches — it was the single biggest serial-tail item
        # in the scaling measurement
        obs_parts = [
            b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
            for b in obs.iter_batches(batch_format="pyarrow", batch_size=None)
        ]
        if not obs_parts:  # no triples at all -> schema-stable empty obs
            obs_parts = [pa.Table.from_pylist([], schema=pa.schema(
                [("edge_id", pa.string()), ("subj_id", pa.string()),
                 ("pred", pa.string()), ("obj_id", pa.string()),
                 ("url", pa.string()), ("confidence", pa.float64())]
            ))]
        obs_tbl = pa.concat_tables(obs_parts)
        edges_tbl = (
            obs_tbl.group_by(["edge_id", "subj_id", "pred", "obj_id"])
            .aggregate([("url", "count_distinct"), ("confidence", "max")])
            .rename_columns(
                ["edge_id", "subj_id", "pred", "obj_id", "n_sources",
                 "confidence"]
            )
        )
        edges_shard = os.path.join(dirs["edges"], "shard=all")
        os.makedirs(edges_shard, exist_ok=True)
        pq.write_table(edges_tbl, os.path.join(edges_shard, "part-0.parquet"))
    else:
        from ray.data.aggregate import Max, Sum

        obs = obs.map_batches(edge_observation_combiner,
                              batch_format="pyarrow")

        def partial_edge_counts(batch: pa.Table) -> pa.Table:
            return (
                batch.group_by(["edge_id", "subj_id", "pred", "obj_id"])
                .aggregate([("url", "count"), ("confidence", "max")])
                .rename_columns(
                    ["edge_id", "subj_id", "pred", "obj_id", "n_partial",
                     "confidence"]
                )
            )

        edges = (
            obs.groupby(["edge_id", "subj_id", "pred", "obj_id", "url"])
            .max("confidence")
            .map_batches(
                stable_rename(
                    ["edge_id", "subj_id", "pred", "obj_id", "url",
                     "confidence"],
                    [pa.string()] * 5 + [pa.float64()],
                ),
                batch_format="pyarrow",
            )
            .map_batches(partial_edge_counts, batch_format="pyarrow")
            .groupby(["edge_id", "subj_id", "pred", "obj_id"])
            .aggregate(Sum("n_partial"), Max("confidence"))
            .map_batches(
                stable_rename(
                    ["edge_id", "subj_id", "pred", "obj_id", "n_sources",
                     "confidence"],
                    [pa.string()] * 4 + [pa.int64(), pa.float64()],
                ),
                batch_format="pyarrow",
            )
        )
        edges.write_parquet(os.path.join(dirs["edges"], "shard=all"))
    write_manifest(dirs["edges"], "all", input_refs=refs,
                   rows_out=-1, wall_s=time.time() - t1)


def run_kg_pipeline(
    page_files: List[str],
    out_dir: str,
    shards: int = 1,
    model_path: Optional[str] = None,
    files_per_shard: Optional[int] = None,
) -> Dict:
    s1 = run_phase1(page_files, out_dir, shards=shards, model_path=model_path,
                    files_per_shard=files_per_shard)
    # any phase-1 work invalidates phase 2's output; a changed shard set
    # (e.g. pruned shards) is caught by the phase-2 manifests' input refs
    s2 = run_phase2(out_dir, force=s1["shards_run"] > 0)
    return {**s1, **s2}
