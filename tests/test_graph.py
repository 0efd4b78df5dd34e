"""Graph analytics over the constructed KG: fixed-point PageRank twins,
degree stats, and the written-edges SQL oracle."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def _edges(a, b):
    return pa.table({"src": pa.array(a, pa.string()),
                     "dst": pa.array(b, pa.string())})


def test_pagerank_fixed_point_properties(ray_session):
    from spacy_crfsuite_ray.ops import graph

    # 3-node cycle: perfect symmetry → identical ranks
    t = graph.pagerank_from_edges(_edges(["a", "b", "c"], ["b", "c", "a"]))
    assert len(set(t.column("rank_c12").to_pylist())) == 1

    # star a->x, b->x, c->x (x dangling): x must outrank the leaves, and the
    # total mass stays within integer floor loss of PR_SCALE
    t = graph.pagerank_from_edges(_edges(["a", "b", "c"], ["x", "x", "x"]))
    df = t.to_pandas().set_index("node_id")["rank_c12"]
    assert df["x"] > df["a"] == df["b"] == df["c"]
    total = int(df.sum())
    assert 0 <= graph.PR_SCALE - total < graph.PR_SCALE // 100

    # empty edge list: schema-stable empty result
    empty = graph.pagerank_from_edges(_edges([], []))
    assert empty.num_rows == 0
    assert empty.column_names == ["node_id", "rank_c12"]


def test_pagerank_distributed_equals_driver(ray_session, monkeypatch):
    """The Dataset join/groupby twin must be BYTE-identical to the numpy
    twin — guaranteed by the all-int64 fixed-point arithmetic."""
    import __ray_entry__ as E
    from spacy_crfsuite_ray.ops import graph

    edges = E._kg_edge_src_dst(SF)
    assert edges.num_rows > 100
    driver = graph.pagerank_from_edges(edges)
    monkeypatch.setattr(graph, "PAGERANK_DRIVER_MAX_EDGES", 0)
    dist = graph.pagerank_from_edges(edges)
    assert driver.equals(dist)

    # also on a graph with dangling nodes and a hub
    small = _edges(["a", "b", "c", "d", "a"], ["x", "x", "x", "a", "b"])
    small_dist = graph.pagerank_from_edges(small)   # gate still 0
    monkeypatch.setattr(graph, "PAGERANK_DRIVER_MAX_EDGES", 10**9)
    small_driver = graph.pagerank_from_edges(small)
    assert small_driver.equals(small_dist)


def test_pagerank_distributed_without_sinks_equals_driver(ray_session,
                                                          monkeypatch):
    """A 3-node cycle has no sinks, so the distributed twin's dangling sum
    runs over an empty selection; it must read as 0 mass, not fail."""
    from spacy_crfsuite_ray.ops import graph

    cycle = _edges(["a", "b", "c"], ["b", "c", "a"])
    driver = graph.pagerank_from_edges(cycle, iters=2)
    monkeypatch.setattr(graph, "PAGERANK_DRIVER_MAX_EDGES", 0)
    assert graph.pagerank_from_edges(cycle, iters=2).equals(driver)


def test_degree_stats(ray_session):
    from spacy_crfsuite_ray.ops import graph

    t = graph.degree_stats_from_edges(
        _edges(["a", "a", "b"], ["b", "c", "c"])
    ).to_pandas()
    out = t[t["kind"] == "out"].set_index("degree")["n_nodes"].to_dict()
    ind = t[t["kind"] == "in"].set_index("degree")["n_nodes"].to_dict()
    assert out == {1: 1, 2: 1}          # a:2, b:1
    assert ind == {1: 1, 2: 1}          # b:1, c:2


def test_kg_degree_stats_matches_written_edges_oracle(ray_session):
    import __ray_entry__ as E

    got = E.queries()["kg_degree_stats"](SF).to_pandas()
    sql = E._degree_stats_oracle(SF)
    want = duckdb.connect().execute(sql).fetchdf()
    cols = ["kind", "degree", "n_nodes"]
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    want["degree"] = want["degree"].astype(np.int64)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_kg_cooccurrence_matches_tagged_oracle(ray_session):
    import __ray_entry__ as E

    got = E.queries()["kg_cooccurrence"](SF).to_pandas()
    want = duckdb.connect().execute(E._cooccurrence_oracle(SF)).fetchdf()
    cols = ["a", "b", "n_pages"]
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert (got["n_pages"] >= 2).any()  # real co-mention evidence exists


def test_cooccurrence_joined_equals_driver(ray_session, monkeypatch):
    """The self-join distributed twin must match the vectorized driver
    twin exactly."""
    import __ray_entry__ as E
    from spacy_crfsuite_ray.ops import graph

    cols = ["a", "b", "n_pages"]

    def run():
        df = E.queries()["kg_cooccurrence"](SF).to_pandas()
        return df[cols].sort_values(cols).reset_index(drop=True)

    driver = run()
    monkeypatch.setattr(graph, "COOC_DRIVER_MAX_ROWS", -1)
    joined = run()
    assert driver.equals(joined)
    assert len(driver) > 0


def test_triangle_count_known_graph(ray_session):
    """K4 has 4 triangles; duplicate / reverse / self edges collapse."""
    import pyarrow as pa

    from spacy_crfsuite_ray.ops.graph import triangle_count_from_edges

    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "d"), ("b", "a"), ("a", "a"), ("c", "d")]
    tbl = pa.table({"src": pa.array([p[0] for p in pairs], pa.string()),
                    "dst": pa.array([p[1] for p in pairs], pa.string())})
    assert triangle_count_from_edges(tbl).to_pydict() == {"n_triangles": [4]}
    empty = pa.table({"src": pa.array([], pa.string()),
                      "dst": pa.array([], pa.string())})
    assert triangle_count_from_edges(empty).to_pydict() == {
        "n_triangles": [0]
    }


def test_triangle_distributed_equals_driver(ray_session, monkeypatch):
    """Forced past the gate, the oriented-wedge join pipeline must count
    exactly what the driver forward algorithm counts (both orient by
    (degree, node), so each triangle is counted once at the same vertex)."""
    import numpy as np
    import pyarrow as pa

    from spacy_crfsuite_ray.ops import graph

    rng = np.random.default_rng(7)
    e = rng.integers(0, 60, size=(600, 2))
    tbl = pa.table(
        {"src": pa.array([f"n{a}" for a, _ in e], pa.string()),
         "dst": pa.array([f"n{b}" for _, b in e], pa.string())}
    )
    driver = graph.triangle_count_from_edges(tbl).to_pydict()
    monkeypatch.setattr(graph, "TRIANGLES_DRIVER_MAX_EDGES", 0)
    dist = graph.triangle_count_from_edges(tbl).to_pydict()
    assert driver == dist
    assert driver["n_triangles"][0] > 0
