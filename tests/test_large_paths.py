"""The distributed (at-scale) code paths must produce EXACTLY what the
driver-side small paths produce — forced via the row thresholds."""

import os

import pyarrow.parquet as pq
import pytest

from spacy_crfsuite_ray.sources.pages import generate_pages, page_files


@pytest.fixture(scope="module")
def pages(ray_session, tmp_path_factory):
    base = str(tmp_path_factory.mktemp("lp"))
    pages_dir, _ = generate_pages(50, base, rows_per_file=25)
    return page_files(pages_dir), base


def _read_sorted(path, cols):
    df = pq.read_table(os.path.join(path, "shard=all")).to_pandas()
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_phase2_distributed_equals_driver(pages, monkeypatch, tmp_path_factory):
    """With the gate at 0 phase 2 takes the join path (the mapping never
    leaves the cluster); it must be byte-identical to the driver path on
    every output table, and every phase-2 manifest records its path."""
    from spacy_crfsuite_ray.pipelines import kg
    from spacy_crfsuite_ray.stages.graph import read_manifests

    files, base = pages
    out_small = os.path.join(base, "out_small")
    out_large = os.path.join(base, "out_large")

    kg.run_phase1(files, out_small, shards=2)
    kg.run_phase1(files, out_large, shards=2)

    kg.run_phase2(out_small)
    monkeypatch.setattr(kg, "DRIVER_MERGE_MAX_ROWS", 0)
    kg.run_phase2(out_large)

    for out, path in ((out_small, "driver"), (out_large, "join")):
        for d in ("mapping", "triples", "edges", "nodes"):
            [m] = read_manifests(os.path.join(out, d))
            assert m["path"] == path
    # both paths record one mapping row per unique surface
    rows = [read_manifests(os.path.join(out, "mapping"))[0]["rows_out"]
            for out in (out_small, out_large)]
    assert rows[0] == rows[1] > 0

    t_cols = ["subj", "pred", "obj", "subj_canonical", "obj_canonical",
              "subj_id", "obj_id", "url"]
    a = _read_sorted(os.path.join(out_small, "triples"), t_cols)
    b = _read_sorted(os.path.join(out_large, "triples"), t_cols)
    assert a.equals(b)
    assert len(a) > 0

    n_cols = ["node_id", "canonical", "type", "n_mentions"]
    a = _read_sorted(os.path.join(out_small, "nodes"), n_cols)
    b = _read_sorted(os.path.join(out_large, "nodes"), n_cols)
    assert a.equals(b)
    n_nodes = len(a)

    e_cols = ["edge_id", "subj_id", "pred", "obj_id", "n_sources"]
    a = _read_sorted(os.path.join(out_small, "edges"), e_cols)
    b = _read_sorted(os.path.join(out_large, "edges"), e_cols)
    assert a.equals(b)

    # both paths record the real edge and node counts in their manifests
    for d, n in (("edges", len(a)), ("nodes", n_nodes)):
        rows = [read_manifests(os.path.join(out, d))[0]["rows_out"]
                for out in (out_small, out_large)]
        assert rows[0] == rows[1] == n > 0


def test_pairgen_distributed_equals_driver(ray_session, monkeypatch):
    from spacy_crfsuite_ray.ops import dedup

    sf = "/root/testdata/sf0.001"

    def pairs_df(fn):
        df = fn(sf).to_pandas()
        cols = [c for c in ("a", "b") if c in df.columns]
        return df[cols].sort_values(cols).reset_index(drop=True)

    small_min = pairs_df(dedup.minhash_dedup_pairs)
    small_sim = pairs_df(dedup.simhash_dedup_pairs)

    monkeypatch.setattr(dedup, "PAIRGEN_DRIVER_MAX_ROWS", 0)
    large_min = pairs_df(dedup.minhash_dedup_pairs)
    large_sim = pairs_df(dedup.simhash_dedup_pairs)

    assert small_min.equals(large_min)
    assert small_sim.equals(large_sim)


def test_minhash_join_verify_equals_broadcast(ray_session, monkeypatch):
    """The distributed candidates ⋈ shingles verification must produce the
    SAME pairs AND jaccard values as the broadcast-dict probe."""
    from spacy_crfsuite_ray.ops import dedup

    sf = "/root/testdata/sf0.001"
    cols = ["a", "b", "jaccard"]

    def run():
        df = dedup.minhash_dedup_pairs(sf).to_pandas()
        return df[cols].sort_values(cols).reset_index(drop=True)

    broadcast = run()
    monkeypatch.setattr(dedup, "VERIFY_BROADCAST_MAX_DOCS", 0)
    joined = run()
    assert broadcast.equals(joined)
    assert len(broadcast) > 0  # the fixture plants near-dups


def test_embedding_lsh_precision_and_recall(ray_session, monkeypatch):
    """The bucketed LSH path emits ONLY true pairs (exact in-bucket cosine →
    precision 1.0) and recovers nearly all pairs the exact path finds."""
    from spacy_crfsuite_ray.ops import dedup

    sf = "/root/testdata/sf0.001"

    def pairs(fn):
        df = fn(sf).to_pandas()
        return set(zip(df["a"], df["b"]))

    exact = pairs(dedup.embedding_dup_pairs)
    monkeypatch.setattr(dedup, "EMB_ALLPAIRS_MAX_ROWS", 0)
    lsh = pairs(dedup.embedding_dup_pairs)
    assert lsh <= exact  # precision 1.0 (exact verification inside buckets)
    assert len(lsh) / len(exact) >= 0.9  # measured ≥0.95 at defaults


def test_phase1_reruns_on_inplace_input_rewrite(ray_session, tmp_path_factory):
    """Shard pids are name-keyed, but manifests record size+mtime input refs:
    rewriting an input file in place must re-run its shard, not silently
    reuse stale output."""
    import shutil as _shutil

    from spacy_crfsuite_ray.pipelines import kg
    from spacy_crfsuite_ray.sources.pages import generate_pages, page_files

    base = str(tmp_path_factory.mktemp("rw"))
    pages_dir, _ = generate_pages(24, base, rows_per_file=12)
    files = page_files(pages_dir)
    out = os.path.join(base, "out")

    s1 = kg.run_phase1(files, out, files_per_shard=1)
    assert s1["shards_run"] == len(files)
    s2 = kg.run_phase1(files, out, files_per_shard=1)
    assert s2["shards_run"] == 0 and s2["shards_skipped"] == len(files)

    # rewrite one file in place (same name, same content, new mtime)
    tmp_copy = files[0] + ".copy"
    _shutil.copyfile(files[0], tmp_copy)
    os.replace(tmp_copy, files[0])

    s3 = kg.run_phase1(files, out, files_per_shard=1)
    assert s3["shards_run"] == 1 and s3["shards_skipped"] == len(files) - 1


def test_embedding_lsh_joined_equals_bucket(ray_session, monkeypatch):
    """Above EMB_LSH_SHUFFLE_VECTORS_MAX_ROWS the LSH path shuffles only
    (bk, vec_id) and verifies candidates via a vectors hash-join. Forced
    here, it must emit exactly the in-bucket-verified pairs."""
    from spacy_crfsuite_ray.ops import dedup

    sf = "/root/testdata/sf0.001"

    def pairs(forced):
        if forced:
            monkeypatch.setattr(dedup, "EMB_LSH_SHUFFLE_VECTORS_MAX_ROWS", 0)
        df = dedup.embedding_dup_pairs_lsh(sf).to_pandas()
        return set(zip(df["a"], df["b"]))

    bucket = pairs(False)
    joined = pairs(True)
    assert bucket == joined
    assert len(bucket) > 0


def test_dup_clusters_propagate_equals_union_find(ray_session, monkeypatch):
    """Distributed min-label propagation must produce byte-identical
    components to the driver union-find, including on chain-shaped
    components (A~B~C without A~C) where transitivity matters."""
    import pyarrow as pa

    from spacy_crfsuite_ray.ops import dedup

    sf = "/root/testdata/sf0.001"
    pairs = dedup.ngram_jaccard_pairs(sf)
    assert pairs.num_rows > 0  # the fixture plants near-dups

    def run():
        df = dedup.clusters_from_pairs(pairs).to_pandas()
        return (df.sort_values("doc_id").reset_index(drop=True))

    driver = run()
    monkeypatch.setattr(dedup, "DUP_CLUSTERS_DRIVER_MAX_PAIRS", 0)
    propagated = run()
    assert driver.equals(propagated)

    # synthetic 4-chain + isolated pair: transitive closure, min labels
    chain = pa.table({"a": pa.array([1, 2, 3, 10], pa.int64()),
                      "b": pa.array([2, 3, 4, 11], pa.int64()),
                      "jac_c6": pa.array([0] * 4, pa.int64())})
    out = dedup.clusters_from_pairs(chain).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2, 3, 4, 10, 11]
    assert out["cluster_id"].tolist() == [1, 1, 1, 1, 10, 10]
    assert out["cluster_size"].tolist() == [4, 4, 4, 4, 2, 2]


def test_orders_upsert_joined_equals_broadcast(ray_session, monkeypatch):
    """The left_anti + inner join MERGE twin must produce the same merged
    rows as the broadcast-changelog probe."""
    from spacy_crfsuite_ray.ops import relational

    sf = "/root/testdata/sf0.001"
    cols = ["o_orderkey", "price_c2", "op"]

    def run():
        df = relational.orders_upsert(sf).to_pandas()
        return df[cols].sort_values(cols).reset_index(drop=True)

    broadcast = run()
    monkeypatch.setattr(relational, "UPSERT_BROADCAST_MAX_DELTA", 0)
    joined = run()
    assert broadcast.equals(joined)
    assert (broadcast["op"] == "U").any() and (broadcast["op"] == "K").any()


def test_event_quantiles_distributed_equals_driver(ray_session, monkeypatch):
    from spacy_crfsuite_ray.ops import relational

    sf = "/root/testdata/sf0.001"
    driver = relational.event_value_quantiles(sf)
    monkeypatch.setattr(
        relational, "EVENT_QUANTILE_DRIVER_MAX_ROWS", -1
    )
    assert relational.event_value_quantiles(sf).equals(driver)


def test_dup_span_joined_equals_broadcast(ray_session, monkeypatch):
    """The hash-join + doc_id-groupby interval-union twin must be
    byte-identical to the broadcast pc.is_in probe, zero-coverage rows
    included."""
    from spacy_crfsuite_ray.ops import dedup

    sf = "/root/testdata/sf0.001"
    cols = ["doc_id", "n_words", "covered_words", "coverage_c6"]

    def run():
        df = dedup.dup_span_coverage(sf).to_pandas()
        return df[cols].sort_values(cols).reset_index(drop=True)

    broadcast = run()
    monkeypatch.setattr(dedup, "DUP_SPAN_BROADCAST_MAX_SHINGLES", 0)
    joined = run()
    assert broadcast.equals(joined)
    assert len(broadcast) == 500


def test_event_asof_joined_equals_broadcast(ray_session, monkeypatch):
    """The union + user-groupby asof twin must produce the SAME matches as
    the broadcast composite-searchsorted probe (tie rules included)."""
    from spacy_crfsuite_ray.ops import relational

    sf = "/root/testdata/sf0.001"
    cols = ["event_id", "o_orderkey"]

    def run():
        df = relational.event_asof_order(sf).to_pandas()
        return df[cols].sort_values(cols).reset_index(drop=True)

    broadcast = run()
    monkeypatch.setattr(relational, "ASOF_BROADCAST_MAX_ORDERS", 0)
    joined = run()
    assert broadcast.equals(joined)
    assert len(broadcast) == 1000


def test_first_shipment_distributed_equals_driver(ray_session, monkeypatch):
    """The distributed Min aggregate must equal the driver-merged argmin
    (same byte-lex encoding on both paths)."""
    from spacy_crfsuite_ray.ops import relational

    sf = "/root/testdata/sf0.001"
    cols = ["l_orderkey", "l_linenumber", "l_partkey", "l_shipdate",
            "price_c2"]

    def run():
        df = relational.first_shipment(sf).to_pandas()
        return df[cols].sort_values(cols).reset_index(drop=True)

    driver = run()
    monkeypatch.setattr(relational, "FIRST_SHIPMENT_DRIVER_MAX_ROWS", 0)
    dist = run()
    assert driver.equals(dist)
    assert len(driver) > 0
