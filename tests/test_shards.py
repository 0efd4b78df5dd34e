"""The shared sharded-manifest runner (pipelines/shards.py) as the kg, scrub
and export pipelines drive it: phase-2 staleness after a shard-set change,
phase-1 re-runs when the language or the model changes, rejection of bad
sharding values, the export's empty-shard output, task admission of the
sharded write, phase 1's read fused into its map operator, and the CLI's Ray
session ownership."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from spacy_crfsuite_ray.sources.pages import generate_pages, page_files


def _sorted_rows(table_dir, cols):
    t = pq.read_table(os.path.join(table_dir, "shard=all"))
    return t.to_pandas()[cols].sort_values(cols).reset_index(drop=True)


def _graph(out):
    return (
        _sorted_rows(os.path.join(out, "triples"),
                     ["subj_id", "pred", "obj_id", "url"]),
        _sorted_rows(os.path.join(out, "nodes"),
                     ["node_id", "canonical", "type", "n_mentions"]),
        _sorted_rows(os.path.join(out, "edges"),
                     ["edge_id", "subj_id", "pred", "obj_id", "n_sources",
                      "confidence"]),
    )


def test_phase2_reruns_when_a_shard_is_pruned(ray_session, tmp_path):
    """Re-running over fewer files prunes a phase-1 shard without running
    any; phase 2 must still rebuild and equal a fresh build of those files."""
    from spacy_crfsuite_ray.pipelines.kg import run_kg_pipeline, run_phase2

    pages_dir, _ = generate_pages(36, str(tmp_path / "p"), rows_per_file=12)
    files = sorted(page_files(pages_dir))
    assert len(files) == 3
    out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")

    run_kg_pipeline(files, out, files_per_shard=1)
    three = _graph(out)
    res = run_kg_pipeline(files[:2], out, files_per_shard=1)
    assert res["shards_run"] == 0 and res["shards_skipped"] == 2
    assert res.get("skipped") is not True
    run_kg_pipeline(files[:2], fresh, files_per_shard=1)

    got, want = _graph(out), _graph(fresh)
    assert len(three[0]) > len(want[0])  # the pruned shard held triples
    for g, w in zip(got, want):
        assert g.equals(w)
    assert run_phase2(out).get("skipped") is True  # now up to date


def _rows(out, kind):
    from spacy_crfsuite_ray.pipelines.kg import _kind_files

    return sum(pq.read_metadata(f).num_rows for f in _kind_files(out, kind))


def test_phase1_lang_change_reruns_the_shard(ray_session, tmp_path):
    """The language filter is part of a shard's key: resuming with another
    ``lang`` re-tags (here: keeps no sentence) and phase 2 follows; resuming
    with the same ``lang`` skips."""
    from spacy_crfsuite_ray.pipelines.kg import run_phase1, run_phase2

    pages_dir, _ = generate_pages(20, str(tmp_path / "p"), rows_per_file=20)
    files = page_files(pages_dir)
    out = str(tmp_path / "out")
    run_phase1(files, out)
    assert _rows(out, "e") > 0
    run_phase2(out)

    res = run_phase1(files, out, lang="zz")
    assert res["shards_run"] == 1 and res["shards_skipped"] == 0
    assert _rows(out, "e") == 0
    assert run_phase2(out).get("skipped") is not True
    res = run_phase1(files, out, lang="zz")
    assert res["shards_run"] == 0 and res["shards_skipped"] == 1
    assert run_phase2(out).get("skipped") is True


def test_phase1_model_change_reruns_the_shards(ray_session, tmp_path):
    """The model file's content digest is part of a shard's key: building
    with another model re-runs every shard and phase 2."""
    from spacy_crfsuite_ray.core.crf import LinearChainCRF
    from spacy_crfsuite_ray.pipelines.kg import run_kg_pipeline
    from spacy_crfsuite_ray.state.model import ensure_default_model

    pages_dir, _ = generate_pages(24, str(tmp_path / "p"), rows_per_file=8)
    files = page_files(pages_dir)
    out = str(tmp_path / "out")
    first = run_kg_pipeline(files, out, files_per_shard=1)
    assert first["shards_run"] == 3
    assert run_kg_pipeline(files, out, files_per_shard=1)["skipped"] is True

    other = LinearChainCRF.load(ensure_default_model())
    other.W = other.W * 1.5
    other_path = str(tmp_path / "other.npz")
    other.save(other_path)
    res = run_kg_pipeline(files, out, model_path=other_path, files_per_shard=1)
    assert res["shards_run"] == 3 and res["shards_skipped"] == 0
    assert res.get("skipped") is not True
    res = run_kg_pipeline(files, out, model_path=other_path, files_per_shard=1)
    assert res["shards_run"] == 0 and res["skipped"] is True


def _write_docs(in_dir, n_files):
    in_dir.mkdir()
    for i in range(n_files):
        pq.write_table(pa.table({
            "doc_id": pa.array([i * 10 + 1, i * 10 + 2], pa.int64()),
            "text": pa.array([f"keep\nkeep {i}", f"mail bob{i}@example.com"]),
        }), str(in_dir / f"part{i}.parquet"))


def _shard_state(out):
    return (sorted(n for n in os.listdir(out) if n.startswith("shard=")),
            sorted(os.listdir(os.path.join(out, "_manifest"))))


@pytest.mark.parametrize("bad", [{"files_per_shard": 0},
                                 {"files_per_shard": -1},
                                 {"shards": 0}])
def test_bad_sharding_value_raises_before_pruning(ray_session, tmp_path, bad):
    from spacy_crfsuite_ray.pipelines.scrub import run_scrub_pipeline

    in_dir = tmp_path / "docs"
    _write_docs(in_dir, 2)
    out = str(tmp_path / "out")
    run_scrub_pipeline(str(in_dir), out, files_per_shard=1)
    before = _shard_state(out)
    assert len(before[0]) == 2 and len(before[1]) == 2

    with pytest.raises(ValueError, match=next(iter(bad))):
        run_scrub_pipeline(str(in_dir), out, **bad)
    assert _shard_state(out) == before
    res = run_scrub_pipeline(str(in_dir), out, files_per_shard=1)
    assert res["shards_run"] == 0 and res["shards_skipped"] == 2


def test_export_shard_with_no_selected_docs(ray_session, tmp_path):
    """A shard whose docs the budget rejects still gets a schema-stable
    empty file and a manifest, so the next run skips it."""
    from spacy_crfsuite_ray.pipelines.export import (
        CHUNK_SCHEMA,
        run_export_pipeline,
    )

    good = " ".join(
        ["the cat and the dog have fun with that bee to be of"] * 4
    )  # 52 tokens of high-quality text
    junk = " ".join(["111"] * 48)  # 48 tokens, low quality
    in_dir = tmp_path / "docs"
    in_dir.mkdir()
    for i, texts in enumerate([[good, good], [junk, junk]]):
        pq.write_table(pa.table({
            "doc_id": pa.array([i * 10 + 1, i * 10 + 2], pa.int64()),
            "text": pa.array(texts),
        }), str(in_dir / f"part{i}.parquet"))
    out = str(tmp_path / "exported")

    res = run_export_pipeline(str(in_dir), out, budget_tokens=110,
                              chunk_words=8, shards=2)
    assert res["shards_run"] == 2 and res["selected_docs"] == 2
    junk_dir = os.path.join(out, "shard=00001")
    assert os.listdir(junk_dir) == ["empty-0.parquet"]
    empty = pq.read_table(os.path.join(junk_dir, "empty-0.parquet"))
    assert empty.num_rows == 0 and empty.schema.equals(CHUNK_SCHEMA)

    res2 = run_export_pipeline(str(in_dir), out, budget_tokens=110,
                               chunk_words=8, shards=2)
    assert res2["shards_run"] == 0 and res2["shards_skipped"] == 2
    assert res2["rows"] == res["rows"]


def test_sharded_write_starts_every_task_at_once(ray_session, tmp_path):
    """Under an object-store budget below 2 x 128 MiB per task, Ray Data's
    pre-sample output estimate at the default block-size target admits one
    map->write task and holds the rest until it ends. The write's own
    target lets all four one-block tasks start together, and the global
    DataContext keeps its value. The branch reads its files on the driver, so the map->write
    operator is the only one Ray budgets: a ReadParquet operator would
    hold CPU reservations of its own while its outputs are pending."""
    import ray.data as rd
    from ray.data import DataContext
    from ray.data._internal.execution.interfaces import ExecutionResources

    from spacy_crfsuite_ray.pipelines.shards import run_sharded

    def slow_batch(batch):
        """Sleeps, then stamps the batch with its own start and end."""
        import time

        start = time.time()
        time.sleep(1.5)
        n = batch.num_rows
        return batch.append_column(
            "t_start", pa.array([start] * n)).append_column(
            "t_end", pa.array([time.time()] * n))

    files = []
    for i in range(4):
        files.append(str(tmp_path / f"part{i}.parquet"))
        pq.write_table(pa.table({"doc_id": pa.array([i], pa.int64())}),
                       files[-1])
    ctx = DataContext.get_current()
    limits, block_size = (ctx.execution_options.resource_limits,
                          ctx.target_max_block_size)
    ctx.execution_options.resource_limits = ExecutionResources.for_limits(
        object_store_memory=256 * 1024 * 1024)
    try:
        out = str(tmp_path / "out")
        res = run_sharded(
            files, out, "v1",
            lambda group: rd.from_arrow(
                [pq.read_table(f) for f in group]).map_batches(
                slow_batch, batch_format="pyarrow"))
        assert res["shards_run"] == 1
    finally:
        ctx.execution_options.resource_limits = limits
    assert DataContext.get_current().target_max_block_size == block_size
    got = pq.read_table(os.path.join(out, "shard=00000"))
    assert sorted(got.column("doc_id").to_pylist()) == [0, 1, 2, 3]
    starts, ends = got.column("t_start").to_pylist(), got.column("t_end").to_pylist()
    assert max(starts) < min(ends), (starts, ends)


def test_phase1_plans_one_fused_read_to_derive_operator(ray_session, tmp_path):
    """Page files of at most PAGES_PER_BLOCK pages each: Ray Data plans the
    phase-1 branch as ONE operator from ReadParquet through
    derive_union_batch, so a block's read runs inside its map task. A stage
    asking for a batch size (min rows per bundled input) would leave
    ReadParquet as an operator of its own."""
    from ray.data._internal.logical.optimizers import get_execution_plan

    from spacy_crfsuite_ray.pipelines.kg import PAGES_PER_BLOCK, phase1_branch
    from spacy_crfsuite_ray.state.model import ensure_default_model

    pages_dir, _ = generate_pages(60, str(tmp_path / "p"), rows_per_file=20)
    files = page_files(pages_dir)
    assert all(pq.read_metadata(f).num_rows <= PAGES_PER_BLOCK for f in files)
    ds = phase1_branch(files, model_path=ensure_default_model())
    ops, op = [], get_execution_plan(ds._logical_plan).dag
    while op.input_dependencies:
        ops.append(op.name)
        op = op.input_dependencies[0]
    assert len(ops) == 1, ops
    assert ops[0].startswith("ReadParquet->MapBatches(extract_text_batch)"), ops
    assert ops[0].endswith("MapBatches(derive_union_batch)"), ops


def test_cli_kg_keeps_a_ray_session_it_did_not_start(ray_session, tmp_path):
    import ray

    from spacy_crfsuite_ray.cli import main

    pages_dir, _ = generate_pages(20, str(tmp_path / "p"), rows_per_file=10)
    assert main(["kg", pages_dir, str(tmp_path / "out")]) == 0
    assert ray.is_initialized()
