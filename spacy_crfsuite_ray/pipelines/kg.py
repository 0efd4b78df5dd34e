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
  magnitude smaller than sentences. linking → canonical triples →
  nodes/edges with deterministic content-hash ids → partitioned parquet +
  manifests. One decision from parquet footer row counts picks one of two
  paths (``DRIVER_MERGE_MAX_ROWS``). Both link with one kernel
  (``core/linking.py``: band rows, ``resolve_blocks``, per-surface min,
  one-step chain flatten). The driver path runs in-process with no Ray
  execution: the kernel on one Arrow table of the unique surfaces, that
  table written as the mapping and joined with the surfaces for the
  nodes, then one canonicalize → triples → edges pass over the raw triple
  files. The join path keeps the mapping a Dataset (the kernel per block
  of unique surfaces sorted by minhash band, then (type, norm)
  hash-joins). Each phase-2 manifest records which path ran.

Scale notes: on the join path the only all-to-all exchanges are the
(type, norm) surface groupby (over UNIQUE surfaces, pre-aggregated per batch
in phase 1), the band-key sort (unique surfaces × 8 bands), the
(type, norm) mapping hash-joins, and the node/edge dedup groupbys (over
already-combined keys). Raw sentence/mention traffic never shuffles, and
phase 2's volume is independent of page count except for the triples
themselves.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import time
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..core.linking import (
    CHAIN_TARGETS,
    explode_band_keys,
    flatten_one_step,
    link_surfaces,
    mapping_dict,
    normalize_surface,
    resolve_blocks,
)
from ..stages.extract import explode_sentences, extract_text_batch, filter_lang
from ..stages.graph import (
    edge_ids_col,
    edge_key_batch,
    edge_observation_combiner,
    manifest_valid,
    read_manifests,
    write_manifest,
)
from ..stages.link import _SURF_SCHEMA, node_ids_col, normalized_col
from ..stages.relations import derive_union_batch
from ..stages.tag import tag_batch
from ..state.model import ensure_default_model, model_digest
from ..functions.hashing import node_id as _node_id
from ..functions.tables import (
    drop_empty_blocks,
    map_key_blocks,
    map_unique,
    stable_rename,
)
from .shards import run_sharded
# the sharding helpers stay importable from here for the benchmark and tests
from .shards import _shard_groups, _stable_shard_groups, _walk_parquet  # noqa: F401

# Read/task granularity: one block, and so one fused phase-1 task, per
# PAGES_PER_BLOCK pages (at least one per file). Each task writes one file per
# kind, and every downstream read pays driver-side planning PER FILE — so
# blocks are large, not maximal fan-out: 8,000 pages make 4 blocks, one task
# per CPU at 4 CPUs. The tag stage takes each block whole, so a tag call sees
# at most about PAGES_PER_BLOCK pages of sentences. Ray Data fuses the read
# into the map->write task only when each file is one block: a file of more
# than PAGES_PER_BLOCK pages makes more blocks than files, and Ray then plans
# ReadParquet->SplitBlocks plus a separate, unfused map operator. The page
# writer's own files hold PAGES_PER_BLOCK pages each.
PAGES_PER_BLOCK = 2000

# On-disk layout tag recorded in every phase-1 manifest; bumping it invalidates
# manifests written by older layouts so resume can never silently mix them.
LAYOUT_VERSION = "kind-partitioned-v2"


def phase1_branch(group: List[str], model_path: str,
                  lang: str = "en") -> "rd.Dataset":
    """One shard's phase-1 Dataset: its page files read as blocks of about
    ``PAGES_PER_BLOCK`` pages, then extract -> lang filter -> sentence
    explode -> tag -> derive, each stage called once per block. No stage
    asks for a batch size, so Ray Data fuses the read and every stage into
    one task per block."""
    total_rows = sum(pq.read_metadata(f).num_rows for f in group)
    ds = rd.read_parquet(
        group, columns=["url", "html", "lang"],
        override_num_blocks=max(len(group), total_rows // PAGES_PER_BLOCK),
    )
    ds = ds.map_batches(extract_text_batch, batch_format="pyarrow")
    ds = ds.map_batches(lambda b: filter_lang(b, lang), batch_format="pyarrow")
    ds = ds.map_batches(explode_sentences, batch_format="pyarrow")
    # task-based tagging: each warm task worker loads the model once
    # (state/model.py load_extractor cache) — no actor spawn
    ds = ds.map_batches(tag_batch, batch_format="pyarrow",
                        fn_kwargs={"model_path": model_path})
    return ds.map_batches(derive_union_batch, batch_format="pyarrow")


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

    # hive-partition by (shard, kind): consumers prune whole files
    # (entities vs triples vs surface counts) per shard instead of
    # row-filtering mixed files. The tags depend on the language filter and
    # the model as much as on the pages: both are in the manifest key, so
    # changing either re-runs the shard.
    branch = functools.partial(phase1_branch, model_path=model_path, lang=lang)
    stats = run_sharded(page_files, tagged_dir, LAYOUT_VERSION, branch,
                        partition_cols=("shard", "kind"), shards=shards,
                        files_per_shard=files_per_shard,
                        key=f"{lang}|{model_digest(model_path)}")
    stats["tagged_dir"] = tagged_dir
    return stats


def _phase1_refs(out_dir: str) -> List[str]:
    """Phase 2's input refs: ``pid|digest`` per tagged shard manifest, the
    digest over that shard's input refs, layout and key (language + model).
    Adding, pruning, re-inputting or re-tagging a shard changes them, so
    phase 2 re-runs even when called on its own; a shard rebuilt from the
    same inputs and key keeps them, because its output is a function of
    those."""
    refs = []
    for m in read_manifests(os.path.join(out_dir, "tagged")):
        key = json.dumps([m.get("input_refs"), m.get("layout"), m.get("key")])
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


# Phase 2 picks one of two paths, once, from parquet footer row counts. When
# both the surface-count rows and the raw triples number at most this many,
# the driver path runs in-process with no Ray execution: linking and nodes
# on the driver, canonicalization a (type, norm) lookup in the mapping one
# triple file at a time, the edge dedup one driver group_by. Above it the
# join path runs: nothing is collected, linking runs on band-sorted blocks,
# canonicalization and nodes are (type, norm) hash-joins against the mapping
# Dataset, and edges are distributed groupbys, so no step grows with the
# corpus on the driver or in worker heaps. The two paths' outputs are
# byte-equal (tests/test_large_paths.py).
DRIVER_MERGE_MAX_ROWS = 5_000_000

_SURF_COLS = ["type", "norm", "cnt"]
_TRIPLE_COLS = ["subj", "pred", "obj", "subj_type", "obj_type", "url",
                "confidence"]
CANONICAL_TRIPLES_SCHEMA = pa.schema(
    [(c, pa.string()) for c in _TRIPLE_COLS[:-1]]
    + [("confidence", pa.float64()),
       ("subj_canonical", pa.string()), ("obj_canonical", pa.string()),
       ("subj_id", pa.string()), ("obj_id", pa.string())]
)


def build_canonical_mapping_ds(
    surf: "rd.Dataset", num_partitions: int
) -> "rd.Dataset":
    """unique surfaces -> per-(type, norm) min-canonical mapping rows: the
    driver path's ``core/linking.py:link_surfaces`` on Ray Data. The band
    rows sorted by (type, band), ``resolve_blocks`` on each sorted block,
    the smallest canonical per surface, then ``flatten_one_step`` over a
    mapping SELF-JOIN on (type, canonical) = (type, norm) — no
    vocabulary-sized collect or broadcast anywhere. Returns a materialized
    (type, norm, canonical) Dataset keyed for the downstream
    canonicalization joins."""
    bands = surf.map_batches(explode_band_keys, batch_format="pyarrow")
    m = (
        map_key_blocks(bands, ["type", "band"], resolve_blocks)
        .groupby(["type", "norm"])
        .min("canonical")  # smallest canonical over the surface's blocks
        .map_batches(
            stable_rename(["type", "norm", "canonical"]),
            batch_format="pyarrow",
        )
    )
    m = drop_empty_blocks(m)
    right = m.map_batches(stable_rename(CHAIN_TARGETS), batch_format="pyarrow")
    j = m.join(
        right, join_type="left_outer", num_partitions=num_partitions,
        on=("type", "canonical"), right_on=("type", "r_norm"),
    )
    return drop_empty_blocks(
        j.map_batches(flatten_one_step, batch_format="pyarrow"))


def canonicalize_triples_joined(
    triples_ds: "rd.Dataset", mapping_ds: "rd.Dataset", num_partitions: int
) -> "rd.Dataset":
    """At-scale canonical rewrite: hash-join the (type, norm, canonical)
    mapping Dataset against the triples on each side (subj, obj) — the same
    co-partitioned pattern as ops/dedup.py ``_verify_pairs_joined``. A
    surface missing from the mapping falls back to its normalized form,
    exactly like the driver path's lookup (``_canonicalize_file``)."""

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
        subj_c = pc.coalesce(b.column("s_canonical"), b.column("norm_subj"))
        obj_c = pc.coalesce(b.column("o_canonical"), b.column("norm_obj"))
        return _canonical_triples(
            b, subj_c, obj_c, node_ids_col(subj_c, b.column("subj_type")),
            node_ids_col(obj_c, b.column("obj_type")),
        )

    return t.map_batches(finish, batch_format="pyarrow")


def _canonical_triples(raw: pa.Table, subj_c, obj_c, subj_id,
                       obj_id) -> pa.Table:
    """Raw triples + their canonical subj/obj surfaces and node ids ->
    canonical triples (``CANONICAL_TRIPLES_SCHEMA``). The one column
    assembly both phase-2 paths write."""
    return pa.table(
        [*(raw.column(c) for c in _TRIPLE_COLS), subj_c, obj_c, subj_id,
         obj_id],
        schema=CANONICAL_TRIPLES_SCHEMA,
    )


def _canonicalize_file(path: str, canonical_of, node_id_of) -> pa.Table:
    """Driver-path rewrite of one raw triple file: each side's UNIQUE
    (type, value) keys map to their canonical surface and node id."""
    raw = pq.read_table(path, columns=_TRIPLE_COLS)

    def side(type_col, value_col):
        keys = pc.binary_join_element_wise(type_col, value_col, "\x1f")
        return map_unique(keys, canonical_of), map_unique(keys, node_id_of)

    subj_c, subj_id = side(raw.column("subj_type"), raw.column("subj"))
    obj_c, obj_id = side(raw.column("obj_type"), raw.column("obj"))
    return _canonical_triples(raw, subj_c, obj_c, subj_id, obj_id)


_OBS_COLS = ["subj_id", "pred", "obj_id", "url", "confidence"]


def _write_edges(obs: List[pa.Table], edges_dir: str) -> int:
    """Edges from in-hand (subj_id, pred, obj_id, url, confidence)
    observations (none: a schema-stable empty file): ONE pyarrow group_by
    (distinct urls, max confidence), then an edge id per grouped edge,
    written as one file. Returns the edges written."""
    empty = CANONICAL_TRIPLES_SCHEMA.empty_table().select(_OBS_COLS)
    grouped = (
        pa.concat_tables([empty, *obs])
        .group_by(["subj_id", "pred", "obj_id"])
        .aggregate([("url", "count_distinct"), ("confidence", "max")])
    )
    edges_tbl = pa.table(
        [edge_ids_col(*grouped.columns[:3]), *grouped.columns],
        names=["edge_id", "subj_id", "pred", "obj_id", "n_sources",
               "confidence"],
    )
    edges_shard = os.path.join(edges_dir, "shard=all")
    os.makedirs(edges_shard, exist_ok=True)
    pq.write_table(edges_tbl, os.path.join(edges_shard, "part-0.parquet"))
    return edges_tbl.num_rows


def _written_rows(shard_dir: str) -> int:
    """Rows in the parquet files a write just left in ``shard_dir``, from
    their footers (no Ray execution)."""
    return sum(pq.read_metadata(os.path.join(shard_dir, f)).num_rows
               for f in os.listdir(shard_dir) if f.endswith(".parquet"))


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

    # The one path decision. Surface counts are pre-aggregated per batch in
    # phase 1 ("s" rows of the union output), so their volume ~ unique
    # surfaces x batches; partition pruning makes both counts cheap footer
    # reads of the kind=s and kind=t files alone.
    surf_files = _kind_files(out_dir, "s")
    triple_files = _kind_files(out_dir, "t")
    surf_rows = sum(pq.read_metadata(f).num_rows for f in surf_files)
    t_rows = sum(pq.read_metadata(f).num_rows for f in triple_files)
    small = surf_rows <= DRIVER_MERGE_MAX_ROWS and t_rows <= DRIVER_MERGE_MAX_ROWS
    path = "driver" if small else "join"

    def manifest(name: str, rows_out: int, since: float) -> None:
        write_manifest(dirs[name], "all", input_refs=refs, rows_out=rows_out,
                       wall_s=time.time() - since, extra={"path": path})

    phase2 = _phase2_driver if small else _phase2_join
    n_unique = phase2(surf_files, triple_files, t_rows, dirs, manifest)
    return {
        "triples_dir": dirs["triples"],
        "edges_dir": dirs["edges"],
        "nodes_dir": dirs["nodes"],
        "n_unique_surfaces": n_unique,
    }


_NODE_MAPPING_COLS = ["type", "norm", "m_canonical"]
_NODE_KEYS = ["node_id", "canonical", "type"]
_NODE_COLS = [*_NODE_KEYS, "n_mentions"]


def _node_rows(batch: pa.Table) -> pa.Table:
    """Unique surfaces ⋈ mapping (renamed ``_NODE_MAPPING_COLS``) rows ->
    (node_id, canonical, type, cnt) rows for the per-node count sum; a
    surface missing from the mapping is its own canonical."""
    canon = pc.coalesce(batch.column("m_canonical"), batch.column("norm"))
    return pa.table(
        {
            "node_id": node_ids_col(canon, batch.column("type")),
            "canonical": canon,
            "type": batch.column("type"),
            "cnt": batch.column("cnt"),
        }
    )


def _phase2_driver(surf_files: List[str], triple_files: List[str],
                   t_rows: int, dirs: Dict, manifest) -> int:
    """Phase 2 in this process, no Ray execution: the join path's linking
    kernel on one in-memory table of the unique surfaces
    (``core/linking.py:link_surfaces``), written as the mapping; nodes as
    surfaces ⋈ mapping on (type, norm), ``_node_rows`` and one group_by;
    then one pass over the raw triple files that canonicalizes each file
    against the mapping, appends it to the triples file and keeps its edge
    observations; the edges are one group_by over those, hashed once per
    edge. Driver memory is one triple file, the observations and one cached
    canonical surface and node id per unique raw surface. Canonicalization
    maps triples 1:1, so the triples manifest records ``t_rows``. Returns
    the number of unique surfaces."""
    from concurrent.futures import ThreadPoolExecutor

    t0 = time.time()
    with ThreadPoolExecutor(8) as pool:  # pq reads release the GIL
        surf_parts = list(pool.map(
            lambda f: pq.read_table(f, columns=_SURF_COLS), surf_files
        ))
    # no surface files at all (e.g. lang filter): the empty table links to
    # an empty mapping and no nodes
    surf_tbl = (
        pa.concat_tables([_SURF_SCHEMA.empty_table(), *surf_parts])
        .group_by(["type", "norm"])
        .aggregate([("cnt", "sum")])
        .rename_columns(_SURF_COLS)
    )
    mtbl = link_surfaces(surf_tbl).sort_by(
        [("type", "ascending"), ("norm", "ascending")])

    # --- mapping artifact: the surface→canonical linking table, written as
    # partitioned parquet lineage output (unique surfaces — small relative
    # to the corpus). Downstream audits and the kg_nodes SQL oracle
    # recompute n_mentions from the tagged checkpoint through this table.
    tm = time.time()
    mapping_shard = os.path.join(dirs["mapping"], "shard=all")
    os.makedirs(mapping_shard, exist_ok=True)
    pq.write_table(mtbl, os.path.join(mapping_shard, "part-0.parquet"))
    manifest("mapping", mtbl.num_rows, tm)

    # --- canonical triples, one raw triple file at a time; each unique
    # (type, value) surface resolves once per run, and with no triple files
    # the writer still leaves the schema-stable empty file
    mapping = mapping_dict(mtbl)

    @functools.cache
    def canonical_of(key: str) -> str:  # "type\x1fvalue"
        type_, value = key.split("\x1f", 1)
        norm = normalize_surface(value)
        return mapping.get((type_, norm), norm)

    @functools.cache
    def node_id_of(key: str) -> str:
        return _node_id(canonical_of(key), key.split("\x1f", 1)[0])

    triples_shard = os.path.join(dirs["triples"], "shard=all")
    os.makedirs(triples_shard, exist_ok=True)
    obs = []
    with pq.ParquetWriter(os.path.join(triples_shard, "part-0.parquet"),
                          CANONICAL_TRIPLES_SCHEMA) as writer:
        for f in triple_files:
            ct = _canonicalize_file(f, canonical_of, node_id_of)
            writer.write_table(ct)
            obs.append(ct.select(_OBS_COLS))
    manifest("triples", t_rows, t0)

    t1 = time.time()
    manifest("edges", _write_edges(obs, dirs["edges"]), t1)

    # --- nodes: unique surfaces ⋈ mapping (no second mention pass)
    t2 = time.time()
    joined = surf_tbl.join(mtbl.rename_columns(_NODE_MAPPING_COLS),
                           ["type", "norm"], join_type="left outer")
    nodes_tbl = (
        _node_rows(joined)
        .group_by(_NODE_KEYS)
        .aggregate([("cnt", "sum")])
        .rename_columns(_NODE_COLS)
    )
    nodes_shard = os.path.join(dirs["nodes"], "shard=all")
    os.makedirs(nodes_shard, exist_ok=True)
    pq.write_table(nodes_tbl, os.path.join(nodes_shard, "part-0.parquet"))
    manifest("nodes", nodes_tbl.num_rows, t2)
    return surf_tbl.num_rows


def _phase2_join(surf_files: List[str], triple_files: List[str],
                 t_rows: int, dirs: Dict, manifest) -> int:
    """Phase 2 with nothing collected or broadcast: the mapping stays a
    Dataset and every step is a Ray shuffle or hash-join. Returns the number
    of unique surfaces."""
    from ..functions.cluster import join_partitions

    t0 = time.time()
    surf_ds = (
        rd.read_parquet(surf_files, columns=_SURF_COLS)
        .groupby(["type", "norm"])
        .sum("cnt")
        .map_batches(
            stable_rename(_SURF_COLS),
            batch_format="pyarrow",
        )
    ).materialize()
    n_unique = surf_ds.count()
    mapping_ds = build_canonical_mapping_ds(
        surf_ds, join_partitions(rows=n_unique)
    )
    tm = time.time()
    mapping_ds.write_parquet(os.path.join(dirs["mapping"], "shard=all"))
    manifest("mapping", n_unique, tm)  # one mapping row per unique surface

    # --- canonical triples: streamed straight to parquet; edges re-read it
    triples_shard = os.path.join(dirs["triples"], "shard=all")
    if t_rows:
        canonicalize_triples_joined(
            rd.read_parquet(triple_files, columns=_TRIPLE_COLS), mapping_ds,
            join_partitions(rows=t_rows),
        ).write_parquet(triples_shard)
    else:  # Ray writes no file for an empty Dataset
        os.makedirs(triples_shard, exist_ok=True)
        pq.write_table(CANONICAL_TRIPLES_SCHEMA.empty_table(),
                       os.path.join(triples_shard, "part-0.parquet"))
    manifest("triples", t_rows, t0)

    t1 = time.time()
    n_edges = (_edges_pass(rd.read_parquet(triples_shard), dirs["edges"])
               if t_rows else _write_edges([], dirs["edges"]))
    manifest("edges", n_edges, t1)

    # --- nodes: unique surfaces ⋈ mapping on (type, norm)
    t2 = time.time()
    m_nodes = mapping_ds.map_batches(stable_rename(_NODE_MAPPING_COLS),
                                     batch_format="pyarrow")
    joined = surf_ds.join(
        m_nodes, join_type="left_outer",
        num_partitions=join_partitions(rows=n_unique),
        on=("type", "norm"),
    )
    nodes_shard = os.path.join(dirs["nodes"], "shard=all")
    (
        joined.map_batches(_node_rows, batch_format="pyarrow")
        .groupby(_NODE_KEYS)
        .sum("cnt")
        .map_batches(stable_rename(_NODE_COLS), batch_format="pyarrow")
    ).write_parquet(nodes_shard)
    manifest("nodes", _written_rows(nodes_shard), t2)
    return n_unique


def _edges_pass(canonical_triples: "rd.Dataset", edges_dir: str) -> int:
    """Join-path edges: distributed edge-id derivation, a per-batch
    (edge, url) combiner, then a two-stage groupby. Returns the number of
    edges written."""
    from ray.data.aggregate import Max, Sum

    obs = canonical_triples.select_columns(
        ["subj_id", "pred", "obj_id", "url", "confidence"]
    ).map_batches(edge_key_batch, batch_format="pyarrow").map_batches(
        edge_observation_combiner, batch_format="pyarrow")

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
                ["edge_id", "subj_id", "pred", "obj_id", "url", "confidence"]
            ),
            batch_format="pyarrow",
        )
        .map_batches(partial_edge_counts, batch_format="pyarrow")
        .groupby(["edge_id", "subj_id", "pred", "obj_id"])
        .aggregate(Sum("n_partial"), Max("confidence"))
        .map_batches(
            stable_rename(["edge_id", "subj_id", "pred", "obj_id",
                           "n_sources", "confidence"]),
            batch_format="pyarrow",
        )
    )
    edges_shard = os.path.join(edges_dir, "shard=all")
    edges.write_parquet(edges_shard)
    return _written_rows(edges_shard)


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
