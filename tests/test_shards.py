"""The shared sharded-manifest runner (pipelines/shards.py) as the kg, scrub
and export pipelines drive it: phase-2 staleness after a shard-set change,
rejection of bad sharding values, the export's empty-shard output, and the
CLI's Ray session ownership."""

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


def test_cli_kg_keeps_a_ray_session_it_did_not_start(ray_session, tmp_path):
    import ray

    from spacy_crfsuite_ray.cli import main

    pages_dir, _ = generate_pages(20, str(tmp_path / "p"), rows_per_file=10)
    assert main(["kg", pages_dir, str(tmp_path / "out")]) == 0
    assert ray.is_initialized()
