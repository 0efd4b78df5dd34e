"""End-to-end Ray pipeline vs sequential oracle (FIXTURES.md F6/F7)."""

import os
import shutil

import pyarrow.parquet as pq
import pytest

from spacy_crfsuite_ray.core.html import extract_text
from spacy_crfsuite_ray.sources.pages import generate_pages, page_files


@pytest.fixture(scope="module")
def fixture_pages(ray_session, tmp_path_factory):
    base = str(tmp_path_factory.mktemp("kgfix"))
    pages_dir, gold_path = generate_pages(60, base, rows_per_file=20)
    return pages_dir, gold_path, base


@pytest.fixture(scope="module")
def pipeline_out(fixture_pages):
    from spacy_crfsuite_ray.pipelines.kg import run_kg_pipeline

    pages_dir, gold_path, base = fixture_pages
    out = os.path.join(base, "out")
    res = run_kg_pipeline(page_files(pages_dir), out, shards=2)
    return res, out


def test_pages_fixture_schema_and_determinism(fixture_pages):
    pages_dir, _, _ = fixture_pages
    t = pq.read_table(page_files(pages_dir)[0])
    assert t.schema.names == ["url", "warc_ts", "html", "text", "lang"]
    from spacy_crfsuite_ray.sources.pages import _page_rows

    assert _page_rows(7)["url"] == _page_rows(7)["url"]
    assert _page_rows(7)["html"] == _page_rows(7)["html"]


def test_extracted_text_byte_identical_per_url(fixture_pages):
    """The north_rule per-row invariant: extractor(html) == stored text."""
    pages_dir, _, _ = fixture_pages
    for f in page_files(pages_dir):
        t = pq.read_table(f, columns=["html", "text"])
        for html, text in zip(t.column("html").to_pylist(),
                              t.column("text").to_pylist()):
            assert extract_text(html) == text


def test_ray_matches_oracle_exactly(fixture_pages, pipeline_out):
    from spacy_crfsuite_ray.pipelines.oracle import run_oracle, triple_prf

    pages_dir, gold_path, _ = fixture_pages
    res, out = pipeline_out
    ray_triples = pq.read_table(
        os.path.join(res["triples_dir"], "shard=all")
    ).to_pylist()
    oracle = run_oracle(page_files(pages_dir))
    prf = triple_prf(ray_triples, oracle["triples"],
                     keys=("subj_canonical", "pred", "obj_canonical"))
    assert prf["precision"] == 1.0 and prf["recall"] == 1.0

    ray_edges = pq.read_table(os.path.join(res["edges_dir"], "shard=all"))
    ray_nodes = pq.read_table(os.path.join(res["nodes_dir"], "shard=all"))
    assert ray_edges.num_rows == len(oracle["edges"])
    assert ray_nodes.num_rows == len(oracle["nodes"])
    # node rows identical (set-wise — Ray block order is nondeterministic)
    ray_node_set = {
        (r["node_id"], r["canonical"], r["type"], r["n_mentions"])
        for r in ray_nodes.to_pylist()
    }
    oracle_node_set = {
        (n["node_id"], n["canonical"], n["type"], n["n_mentions"])
        for n in oracle["nodes"]
    }
    assert ray_node_set == oracle_node_set


def test_triples_meet_gold_pr_gate(fixture_pages, pipeline_out):
    from spacy_crfsuite_ray.pipelines.oracle import triple_prf

    _, gold_path, _ = fixture_pages
    res, _ = pipeline_out
    ray_triples = pq.read_table(
        os.path.join(res["triples_dir"], "shard=all")
    ).to_pylist()
    gold = pq.read_table(gold_path).to_pylist()
    prf = triple_prf(ray_triples, gold)
    assert prf["precision"] >= 0.95
    assert prf["recall"] >= 0.95


def test_manifests_written_and_resume_skips(fixture_pages, pipeline_out):
    from spacy_crfsuite_ray.pipelines.kg import run_phase1
    from spacy_crfsuite_ray.stages.graph import manifest_valid, read_manifests

    pages_dir, _, _ = fixture_pages
    res, out = pipeline_out
    tagged_dir = os.path.join(out, "tagged")
    manifests = read_manifests(tagged_dir)
    assert len(manifests) == 2
    for m in manifests:
        assert m["rows_out"] > 0
        assert m["input_refs"]
        assert m["files"]
        assert manifest_valid(tagged_dir, m["partition_id"])
    # resume: all shards skipped
    stats = run_phase1(page_files(pages_dir), out, shards=2)
    assert stats == {"shards_run": 0, "shards_skipped": 2,
                     "tagged_dir": tagged_dir}
    # corrupt one shard → only it re-runs
    from spacy_crfsuite_ray.pipelines.kg import _walk_parquet

    shard_dir = os.path.join(tagged_dir, "shard=00000")
    victim = _walk_parquet(shard_dir)[0]
    os.remove(victim)
    assert not manifest_valid(tagged_dir, "00000")
    shutil.rmtree(shard_dir)
    stats = run_phase1(page_files(pages_dir), out, shards=2)
    assert stats["shards_run"] == 1 and stats["shards_skipped"] == 1


def test_phase2_idempotent_skip(fixture_pages, pipeline_out):
    from spacy_crfsuite_ray.pipelines.kg import run_phase2

    _, out = pipeline_out
    res = run_phase2(out)
    assert res.get("skipped") is True  # valid manifests short-circuit


def test_lang_filter_drops_non_english(fixture_pages, pipeline_out):
    res, out = pipeline_out
    from spacy_crfsuite_ray.pipelines.kg import _kind_files

    urls = set()
    for f in _kind_files(out, "e"):
        t = pq.read_table(f, columns=["url"])
        urls.update(t.column("url").to_pylist())
    pages_dir, _, _ = fixture_pages
    non_en = set()
    for f in page_files(pages_dir):
        t = pq.read_table(f, columns=["url", "lang"])
        non_en.update(
            u for u, l in zip(t.column("url").to_pylist(),
                              t.column("lang").to_pylist()) if l != "en"
        )
    assert not (urls & non_en)


def test_pipeline_with_everything_filtered(ray_session, tmp_path):
    """A run whose lang filter drops every page must still produce valid,
    empty, schema-stable outputs (not crash)."""
    from spacy_crfsuite_ray.pipelines.kg import run_kg_pipeline
    from spacy_crfsuite_ray.sources.pages import generate_pages, page_files

    pages_dir, _ = generate_pages(20, str(tmp_path / "p"), rows_per_file=10)
    out = str(tmp_path / "out")
    res = run_kg_pipeline(page_files(pages_dir), out, shards=1)
    # now re-run into a fresh dir with a filter that drops everything
    out2 = str(tmp_path / "out2")
    from spacy_crfsuite_ray.pipelines.kg import run_phase1, run_phase2

    run_phase1(page_files(pages_dir), out2, shards=1, lang="zz")
    res2 = run_phase2(out2)
    t = pq.read_table(os.path.join(res2["triples_dir"], "shard=all"))
    assert t.num_rows == 0
    assert "subj_id" in t.column_names


def test_phase2_driver_path_without_triples(ray_session, tmp_path):
    """Surface counts but no raw triple files: the driver path still writes
    the schema-stable canonical triples and edges files (0 rows) and the
    nodes, and every manifest records the driver path."""
    import pyarrow as pa

    from spacy_crfsuite_ray.pipelines.kg import run_phase2
    from spacy_crfsuite_ray.stages.graph import read_manifests

    surf_dir = tmp_path / "tagged" / "shard=00000" / "kind=s"
    surf_dir.mkdir(parents=True)
    pq.write_table(
        pa.table({"type": ["ORG", "ORG", "PER"],
                  "norm": ["acme corp", "acme corp.", "alice smith"],
                  "cnt": pa.array([3, 1, 2], pa.int64())}),
        str(surf_dir / "part-0.parquet"),
    )
    res = run_phase2(str(tmp_path))

    triples = pq.read_table(os.path.join(res["triples_dir"], "shard=all"))
    assert triples.num_rows == 0
    assert triples.column_names == [
        "subj", "pred", "obj", "subj_type", "obj_type", "url", "confidence",
        "subj_canonical", "obj_canonical", "subj_id", "obj_id"]
    edges = pq.read_table(os.path.join(res["edges_dir"], "shard=all"))
    assert edges.num_rows == 0
    assert edges.column_names == ["edge_id", "subj_id", "pred", "obj_id",
                                  "n_sources", "confidence"]
    nodes = pq.read_table(os.path.join(res["nodes_dir"], "shard=all"))
    assert nodes.num_rows > 0

    manifests = {d: read_manifests(str(tmp_path / d))
                 for d in ("mapping", "triples", "edges", "nodes")}
    for d, [m] in manifests.items():
        assert m["path"] == "driver", d
    assert manifests["triples"][0]["rows_out"] == 0
    assert manifests["edges"][0]["rows_out"] == 0


def test_incremental_ingest_stable_shards(ray_session, tmp_path):
    """files_per_shard mode: appending input files (sorting after the
    existing ones) re-runs ONLY the new chunks, and the incremental result
    equals a fresh full run."""
    import pyarrow.parquet as pq

    from spacy_crfsuite_ray.pipelines.kg import run_kg_pipeline
    from spacy_crfsuite_ray.sources.pages import generate_pages, page_files

    base = str(tmp_path / "pages")
    pages_dir, _ = generate_pages(60, base, rows_per_file=15)
    files = sorted(page_files(pages_dir))  # 4 files
    out_inc = str(tmp_path / "out_inc")
    out_full = str(tmp_path / "out_full")

    # initial ingest: first 2 files → 1 shard of 2
    s1 = run_kg_pipeline(files[:2], out_inc, files_per_shard=2)
    assert s1["shards_run"] == 1 and s1["shards_skipped"] == 0

    # append the remaining files → old chunk skipped, one new chunk runs
    s2 = run_kg_pipeline(files, out_inc, files_per_shard=2)
    assert s2["shards_run"] == 1 and s2["shards_skipped"] == 1

    # idempotent re-run: everything skipped
    s3 = run_kg_pipeline(files, out_inc, files_per_shard=2)
    assert s3["shards_run"] == 0 and s3["shards_skipped"] == 2
    assert s3.get("skipped") is True

    # equality with a fresh full run
    run_kg_pipeline(files, out_full, files_per_shard=2)

    def triples(out):
        t = pq.read_table(os.path.join(out, "triples", "shard=all"))
        cols = ["subj_id", "pred", "obj_id", "url"]
        return t.to_pandas()[cols].sort_values(cols).reset_index(drop=True)

    assert triples(out_inc).equals(triples(out_full))
