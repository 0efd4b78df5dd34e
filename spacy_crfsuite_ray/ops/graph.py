"""Graph analytics over the constructed knowledge graph.

PageRank here is defined in FIXED-POINT INTEGER arithmetic (scaled by
``PR_SCALE``): every per-edge contribution is an int64 floor division and
every combine is an int64 sum, so the result is bit-identical no matter how
Ray's shuffle orders the additions — the same order-independence trick as
``ops.ann.embedding_centroids``. That makes the distributed pipeline and the
driver numpy twin comparable with ``==``, not a tolerance.

Reference parity: spacy_crfsuite (crf_extractor.py) stops at entity
extraction; graph analytics over the assembled KG is part of the
kg-construction brief this engine targets, not the reference library.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PR_SCALE = 10**12          # ranks are int64 multiples of 1/PR_SCALE
PR_DAMP_NUM, PR_DAMP_DEN = 85, 100   # damping 0.85 as an exact rational
PR_ITERS = 10

# Below this many edges the whole graph fits one driver numpy pass (a KG's
# edge list is aggregated output, orders of magnitude smaller than the page
# corpus); above it the iterative Dataset join/groupby twin runs.
PAGERANK_DRIVER_MAX_EDGES = 2_000_000

# Rows each map task after a shuffle takes at least. A shuffle partition
# that gets no keys emits an empty block without a schema, and Ray never
# calls a UDF on an empty block, so no UDF can give it one; bundling the
# input to this many rows merges such blocks into their neighbours' tasks
# (whose batcher drops them), so each round carries one schema and logs no
# schema-drift warning.
_MIN_TASK_ROWS = 1 << 16


def _pr_step_driver(r, src, dst, outdeg, n, base):
    """One fixed-point PageRank step over dense-coded edges (driver twin)."""
    contrib = r[src] // outdeg[src]
    in_sum = np.zeros(n, dtype=np.int64)
    np.add.at(in_sum, dst, contrib)
    dangling = int(r[outdeg == 0].sum())
    share = dangling // n
    return base + (PR_DAMP_NUM * (in_sum + share)) // PR_DAMP_DEN


def _pagerank_driver(nodes: np.ndarray, src: np.ndarray,
                     dst: np.ndarray, iters: int) -> np.ndarray:
    n = len(nodes)
    code = {v: i for i, v in enumerate(nodes.tolist())}
    s = np.array([code[v] for v in src.tolist()], dtype=np.int64)
    d = np.array([code[v] for v in dst.tolist()], dtype=np.int64)
    outdeg = np.zeros(n, dtype=np.int64)
    np.add.at(outdeg, s, 1)
    base = (PR_SCALE // n) * (PR_DAMP_DEN - PR_DAMP_NUM) // PR_DAMP_DEN
    r = np.full(n, PR_SCALE // n, dtype=np.int64)
    for _ in range(iters):
        r = _pr_step_driver(r, s, d, outdeg, n, base)
    return r


def _endpoint_zero_batch(batch: pa.Table) -> pa.Table:
    """Batch-local distinct edge endpoints, tagged outdeg 0 (union seed so
    pure sinks appear in the node table)."""
    nodes = pa.concat_tables(
        [pa.table({"node": pc.cast(batch.column("src"), pa.string())}),
         pa.table({"node": pc.cast(batch.column("dst"), pa.string())})]
    ).group_by("node").aggregate([])
    return nodes.append_column(
        "outdeg", pa.array(np.zeros(nodes.num_rows, np.int64))
    )


def _outdeg_partial_batch(batch: pa.Table) -> pa.Table:
    """Batch-local (src, count) combiner for the distributed outdeg."""
    t = pa.table(
        {"node": pc.cast(batch.column("src"), pa.string()),
         "outdeg": pa.array(np.ones(batch.num_rows, np.int64))}
    )
    return t.group_by("node").aggregate([("outdeg", "sum")]) \
        .rename_columns(["node", "outdeg"])


def _pagerank_distributed(edges, iters: int):
    """Iterative Dataset twin over a (src, dst) edge DATASET. The (node,
    outdeg) table is built once by per-batch combiners + one groupby, so
    nothing graph-sized lands on the driver; the rank rows carry outdeg.
    One round is one execution with one join and one groupby: edges ⋈
    ranks on src (every src has outdeg > 0, so no filter is needed) gives
    (dst, r // outdeg, 0), unioned with each node's own (node, 0, outdeg)
    row (keeps sinks and nodes without in-edges, and carries outdeg on);
    the groupby sums c and outdeg and the fused rebase makes the new
    ranks. Driver traffic per round is ONE scalar, the dangling mass.
    Identical int64 ops → byte-identical to the numpy driver twin
    (equality-tested). Returns a (node, outdeg, r) Dataset."""
    from ray.data.aggregate import Sum

    from ..functions.cluster import join_partitions
    from ..functions.tables import stable_rename

    edges = edges.materialize()
    parts = join_partitions(rows=edges.count())
    node_deg = (
        edges.map_batches(_outdeg_partial_batch, batch_format="pyarrow")
        .union(edges.map_batches(_endpoint_zero_batch,
                                 batch_format="pyarrow"))
        .groupby("node")
        .sum("outdeg")
        .map_batches(
            stable_rename(["node", "outdeg"]),
            batch_format="pyarrow", batch_size=_MIN_TASK_ROWS,
        )
        .materialize()
    )
    n = node_deg.count()
    base = (PR_SCALE // n) * (PR_DAMP_DEN - PR_DAMP_NUM) // PR_DAMP_DEN
    init_r = PR_SCALE // n
    ranks = node_deg.map_batches(
        lambda t: t.append_column(
            "r", pa.array(np.full(t.num_rows, init_r, np.int64))),
        batch_format="pyarrow",
    )
    out_schema = pa.schema([("node", pa.string()), ("outdeg", pa.int64()),
                            ("r", pa.int64())])

    def contrib(batch: pa.Table) -> pa.Table:
        r = np.asarray(batch.column("r"), dtype=np.int64)
        deg = np.asarray(batch.column("outdeg"), dtype=np.int64)
        return pa.table(
            {"node": batch.column("dst"),
             "c": pa.array(r // deg, pa.int64()),
             "outdeg": pa.array(np.zeros(batch.num_rows, np.int64))}
        )

    def own_row(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": batch.column("node"),
             "c": pa.array(np.zeros(batch.num_rows, np.int64)),
             "outdeg": batch.column("outdeg")}
        )

    for _ in range(iters):
        # dangling mass: one scalar to the driver per round (None: no sinks)
        share = int(ranks.filter(expr="outdeg == 0").sum("r") or 0) // n

        def rebase(batch: pa.Table, share=share) -> pa.Table:
            s = np.asarray(batch.column("sum(c)"), dtype=np.int64)
            newr = base + (PR_DAMP_NUM * (s + share)) // PR_DAMP_DEN
            return pa.table([batch.column("node"), batch.column("sum(outdeg)"),
                             pa.array(newr, pa.int64())], schema=out_schema)

        ranks = (
            edges.join(ranks, join_type="inner", num_partitions=parts,
                       on=("src",), right_on=("node",))
            .map_batches(contrib, batch_format="pyarrow",
                         batch_size=_MIN_TASK_ROWS)
            .union(ranks.map_batches(own_row, batch_format="pyarrow"))
            .groupby("node", num_partitions=parts)
            .aggregate(Sum("c"), Sum("outdeg"))
            .map_batches(rebase, batch_format="pyarrow",
                         batch_size=_MIN_TASK_ROWS)
            .materialize()
        )
    return ranks


def _is_dataset(obj) -> bool:
    import ray.data as rd

    return isinstance(obj, rd.Dataset)


def pagerank_from_edges(edges, iters: int = PR_ITERS):
    """(node_id, rank_c12) over a directed (src, dst) edge table OR
    Dataset. Node set = all edge endpoints; dangling (sink) mass
    redistributes uniformly. Threshold-gated driver/distributed twins,
    byte-identical by the fixed-point construction (equality-tested).

    Scale contract: pass a DATASET (e.g. `rd.read_parquet(edges_dir)`) for
    big graphs — above the gate the edge list never lands on the driver
    (nodes/outdeg are built distributedly) and the result comes back as a
    (node_id, rank_c12) Dataset. pa.Table input keeps the fast driver path
    and table output for KG-sized (aggregated) edge lists."""
    from ..functions.tables import collect_table

    as_dataset = _is_dataset(edges)
    if as_dataset:
        # pin the blocks BEFORE the gating count — count() executes the
        # whole read pipeline, and an unpinned Dataset would re-execute it
        # from scratch inside the distributed twin (one redundant full
        # scan of the edge list)
        edges = edges.materialize()
    n_edges = edges.count() if as_dataset else edges.num_rows
    if n_edges == 0:
        return pa.table({"node_id": pa.array([], pa.string()),
                         "rank_c12": pa.array([], pa.int64())})

    if n_edges > PAGERANK_DRIVER_MAX_EDGES:
        import ray.data as rd

        ds = edges if as_dataset else rd.from_arrow(edges)
        ranks = _pagerank_distributed(ds, iters).map_batches(
            lambda t: pa.table({"node_id": t.column("node"),
                                "rank_c12": t.column("r")}),
            batch_format="pyarrow",
        )
        if as_dataset:
            return ranks
        out = collect_table(ranks)
        return out.take(
            pc.sort_indices(out, sort_keys=[("node_id", "ascending")])
        )

    edges_tbl = edges if not as_dataset else collect_table(
        edges, empty_schema=pa.schema([("src", pa.string()),
                                       ("dst", pa.string())])
    )
    src = np.asarray(edges_tbl.column("src"))
    dst = np.asarray(edges_tbl.column("dst"))
    nodes = np.unique(np.concatenate([src, dst]))
    r = _pagerank_driver(nodes, src, dst, iters)
    return pa.table({"node_id": pa.array(nodes.tolist(), pa.string()),
                     "rank_c12": pa.array(r, pa.int64())})


def _degree_stats_dataset(edges) -> pa.Table:
    """Distributed twin of degree_stats_from_edges over an edge DATASET:
    per batch a (node, 1) count combiner, one groupby finishing the degree
    per node, a second per-batch combiner + tiny groupby folding the degree
    HISTOGRAM (bounded by distinct degree values, not node count — safe to
    return as a driver table). The edge list never lands on the driver."""
    from ..functions.cluster import join_partitions
    from ..functions.tables import collect_table, stable_rename

    edges = edges.materialize()
    parts = join_partitions(cap=2, rows=edges.count())
    out = []
    for kind, col in (("out", "src"), ("in", "dst")):
        def deg_partial(batch: pa.Table, col=col) -> pa.Table:
            t = pa.table(
                {"node": pc.cast(batch.column(col), pa.string()),
                 "n": pa.array(np.ones(batch.num_rows, np.int64))}
            )
            return t.group_by("node").aggregate([("n", "sum")]) \
                .rename_columns(["node", "n"])

        def hist_partial(batch: pa.Table) -> pa.Table:
            if batch.num_columns == 0:
                return pa.schema([("degree", pa.int64()),
                                  ("m", pa.int64())]).empty_table()
            t = pa.table(
                {"degree": batch.column("degree"),
                 "m": pa.array(np.ones(batch.num_rows, np.int64))}
            )
            return t.group_by("degree").aggregate([("m", "sum")]) \
                .rename_columns(["degree", "m"])

        hist = collect_table(
            edges.map_batches(deg_partial, batch_format="pyarrow")
            .groupby("node")
            .sum("n")
            .map_batches(
                stable_rename(["node", "degree"]),
                batch_format="pyarrow",
            )
            .map_batches(hist_partial, batch_format="pyarrow")
            .repartition(parts)
            .groupby("degree")
            .sum("m")
            .map_batches(
                stable_rename(["degree", "n_nodes"]),
                batch_format="pyarrow",
            ),
            empty_schema=pa.schema([("degree", pa.int64()),
                                    ("n_nodes", pa.int64())]),
        )
        out.append(
            hist.append_column(
                "kind", pa.array([kind] * hist.num_rows, pa.string())
            )
        )
    res = pa.concat_tables(out)
    order = pc.sort_indices(
        res, sort_keys=[("kind", "ascending"), ("degree", "ascending")]
    )
    return res.take(order).select(["kind", "degree", "n_nodes"])


def degree_stats_from_edges(tbl) -> pa.Table:
    """Degree distribution of a directed graph: per (degree kind, degree)
    node counts — the quick structural health check (hub detection,
    disconnected fraction) run after every KG build. Accepts a pa.Table
    (two tiny driver groupbys — the KG-sized fast path) or a Dataset (fully
    distributed; only the tiny histogram reaches the driver)."""
    if _is_dataset(tbl):
        return _degree_stats_dataset(tbl)
    out = []
    for kind, col in (("out", "src"), ("in", "dst")):
        deg = (
            pa.table({"node": tbl.column(col)})
            .group_by("node").aggregate([([], "count_all")])
        )
        hist = (
            pa.table({"degree": deg.column("count_all")})
            .group_by("degree").aggregate([([], "count_all")])
            .rename_columns(["degree", "n_nodes"])
        )
        out.append(
            hist.append_column(
                "kind", pa.array([kind] * hist.num_rows, pa.string())
            )
        )
    res = pa.concat_tables(out)
    order = pc.sort_indices(
        res, sort_keys=[("kind", "ascending"), ("degree", "ascending")]
    )
    return res.take(order).select(["kind", "degree", "n_nodes"])


# Below this many tagged-sentence rows the pair computation runs on the
# driver over the combiner-shrunk (url, key) stream (all numpy/Arrow — the
# distributed twin's two shuffles + join cost ~12s of fixed overhead on data
# this small); above it the self-join path runs. Twins equality-tested.
COOC_DRIVER_MAX_ROWS = 2_000_000


def _cooc_keys(batch: pa.Table) -> pa.Table:
    """Mention rows → batch-local distinct (url, "type:value") pairs."""
    if batch.num_rows == 0:
        return pa.schema(
            [("url", pa.string()), ("k", pa.string())]
        ).empty_table()
    k = pc.binary_join_element_wise(
        pc.cast(batch.column("type"), pa.string()),
        pc.cast(batch.column("value"), pa.string()),
        ":",
    )
    return (
        pa.table({"url": batch.column("url"), "k": k})
        .group_by(["url", "k"]).aggregate([])
    )


def _cooc_result(a: np.ndarray, b: np.ndarray, n: np.ndarray) -> pa.Table:
    return pa.table(
        {"a": pa.array(a, pa.string()), "b": pa.array(b, pa.string()),
         "n_pages": pa.array(n, pa.int64())}
    )


def _cooc_driver(keyed) -> pa.Table:
    """Vectorized driver twin: global distinct via np.unique over (url
    rank, key rank), runs grouped by page, and per-run-LENGTH batched
    triu pair explosion (one broadcasted gather per distinct mention-set
    size — no per-page Python loop)."""
    parts = list(
        keyed.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    tbl = pa.concat_tables(parts) if parts else pa.schema(
        [("url", pa.string()), ("k", pa.string())]
    ).empty_table()
    if tbl.num_rows == 0:
        return _cooc_result(*(np.array([], dtype=object),) * 2,
                            np.array([], dtype=np.int64))
    urls = np.asarray(tbl.column("url"))
    ks = np.asarray(tbl.column("k"))
    uniq_u, ur = np.unique(urls, return_inverse=True)
    uniq_k, kr = np.unique(ks, return_inverse=True)
    # global distinct (url, key)
    codes = ur.astype(np.int64) * len(uniq_k) + kr
    codes = np.unique(codes)
    ur, kr = codes // len(uniq_k), codes % len(uniq_k)
    # codes are sorted → runs are contiguous and k-ranks ascend within a run
    starts = np.concatenate([[0], np.nonzero(np.diff(ur))[0] + 1])
    lens = np.diff(np.concatenate([starts, [len(ur)]]))
    pair_a, pair_b = [], []
    for m in np.unique(lens):
        if m < 2:
            continue
        s0 = starts[lens == m]
        ai, bi = np.triu_indices(int(m), k=1)
        pair_a.append(kr[(s0[:, None] + ai[None, :])].ravel())
        pair_b.append(kr[(s0[:, None] + bi[None, :])].ravel())
    if not pair_a:
        return _cooc_result(*(np.array([], dtype=object),) * 2,
                            np.array([], dtype=np.int64))
    pa_, pb_ = np.concatenate(pair_a), np.concatenate(pair_b)
    pcodes, counts = np.unique(
        pa_ * len(uniq_k) + pb_, return_counts=True
    )
    return _cooc_result(
        uniq_k[pcodes // len(uniq_k)], uniq_k[pcodes % len(uniq_k)],
        counts.astype(np.int64),
    )


def _cooc_joined(keyed, rows_hint: int | None):
    """At-scale twin: one groupby finishes the global (url, key) distinct,
    pairs explode as a hash SELF-JOIN on url (bounded: per-page mention
    sets are tiny), a per-batch pair-count combiner feeds the final (a, b)
    groupby — no Python ever touches a row."""
    from ray.data.aggregate import Count

    from ..functions.cluster import coalesce_small, join_partitions
    from ..functions.tables import stable_rename

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("a", pa.string()), ("b", pa.string()),
                 ("n", pa.int64())]
            ).empty_table()
        t = batch.append_column(
            "n", pa.array(np.ones(batch.num_rows, dtype=np.int64))
        )
        return t.group_by(["a", "b"]).aggregate(
            [("n", "sum")]
        ).rename_columns(["a", "b", "n"])

    # rows_hint counts tagged SENTENCES; the keyed stream holds several
    # mention keys per sentence and shuffles strings, so scale the estimate
    # up (x8) before row-based partition sizing
    parts = join_partitions(
        cap=32, rows=(rows_hint * 8 if rows_hint else None)
    )
    m = (
        keyed.repartition(parts)
        .groupby(["url", "k"])
        .aggregate(Count())
        .map_batches(
            lambda t: (pa.schema([("url", pa.string()),
                                  ("k", pa.string())]).empty_table()
                       if t.num_columns == 0
                       else t.select(["url", "k"])),
            batch_format="pyarrow",
        )
        .materialize()
    )
    j = m.join(m, join_type="inner", num_partitions=parts, on=("url",),
               left_suffix="_a", right_suffix="_b")

    def ordered(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch.column("k_a"), batch.column("k_b"))
        sub = batch.filter(keep)
        return pa.table({"a": sub.column("k_a"), "b": sub.column("k_b")})

    return (
        coalesce_small(
            j.map_batches(ordered, batch_format="pyarrow")
            .map_batches(partial, batch_format="pyarrow"),
            cap=2,
        )
        .groupby(["a", "b"])
        .sum("n")
        .map_batches(
            stable_rename(["a", "b", "n_pages"]),
            batch_format="pyarrow",
        )
    )


def cooccurrence_from_mentions(ds, rows_hint: int | None = None):
    """Entity co-occurrence (KG edge weighting): for every unordered pair of
    distinct entity mentions ("type:value") on the same page, the number of
    pages where they co-occur — the standard evidence-weighted
    KG-enrichment edge, computed without an all-pairs pass. Threshold-gated
    driver/distributed twins (equality-tested); raw sentence text never
    enters this pipeline."""
    keyed = ds.map_batches(_cooc_keys, batch_format="pyarrow")
    if rows_hint is not None and rows_hint <= COOC_DRIVER_MAX_ROWS:
        return _cooc_driver(keyed)
    return _cooc_joined(keyed, rows_hint)


# ------------------------------------------------------------- triangles
# Driver gate is lower than PageRank's: the driver twin enumerates wedges
# (~m^1.5 work), not linear passes.
TRIANGLES_DRIVER_MAX_EDGES = 500_000


def _tri_canon_batch(batch: pa.Table) -> pa.Table:
    """(src, dst) → canonical undirected simple edges: self-loops dropped,
    endpoints ordered u < v (byte order — node ids are ASCII hex, so Arrow,
    numpy and DuckDB's binary collation all agree)."""
    s = pc.cast(batch.column("src"), pa.string())
    d = pc.cast(batch.column("dst"), pa.string())
    keep = pc.invert(pc.equal(s, d))
    s = s.filter(keep)
    d = d.filter(keep)
    lt = pc.less(s, d)
    return pa.table(
        {"u": pc.if_else(lt, s, d), "v": pc.if_else(lt, d, s)}
    ).group_by(["u", "v"]).aggregate([])


def _triangles_driver(u: np.ndarray, v: np.ndarray) -> int:
    """Forward algorithm: orient every edge from the (degree, node)-smaller
    endpoint, then for each low vertex emit its oriented-neighbor pairs
    (wedges) and count the ones that are edges. Wedge work is bounded by
    m^1.5 regardless of hub skew — the same orientation the distributed
    twin uses, so both count each triangle exactly once at its
    lowest-ordered vertex."""
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    ui, vi = inv[: len(u)], inv[len(u):]
    n_nodes = len(nodes)
    deg = np.bincount(np.concatenate([ui, vi]), minlength=n_nodes)
    # relabel every node by its (deg, node) rank — nodes from np.unique are
    # sorted, so (deg, index) is exactly the distributed twin's
    # (deg, node-string) order, and in rank space plain integer comparison
    # IS the orientation (wedge pairs and closing edges can't disagree)
    by_order = np.lexsort((np.arange(n_nodes), deg))
    rank = np.empty(n_nodes, np.int64)
    rank[by_order] = np.arange(n_nodes)
    ru, rv = rank[ui], rank[vi]
    a = np.minimum(ru, rv)
    b = np.maximum(ru, rv)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    starts = np.searchsorted(a, np.arange(n_nodes))
    ends = np.searchsorted(a, np.arange(n_nodes), side="right")
    n = np.int64(n_nodes)
    edge_keys = a * n + b  # sorted ascending by construction
    total = 0
    for x in range(n_nodes):
        nb = np.sort(b[starts[x]:ends[x]])
        if len(nb) < 2:
            continue
        lo = np.repeat(nb, np.arange(len(nb) - 1, -1, -1))
        hi = np.concatenate([nb[i + 1:] for i in range(len(nb))])
        keys = lo * n + hi
        pos = np.searchsorted(edge_keys, keys)
        pos_c = np.minimum(pos, len(edge_keys) - 1)
        total += int(
            ((pos < len(edge_keys)) & (edge_keys[pos_c] == keys)).sum()
        )
    return total


def _triangles_distributed(canon) -> int:
    """Distributed twin over a canonical (u, v) edge Dataset: degree
    groupby, two hash-joins to orient every edge low→high by (deg, node),
    a self-join on the low vertex to emit wedges (filtered to the same
    (deg, node) order so each wedge appears once), and a closing
    inner-join against the oriented edges. All shuffles are hash-joins on
    node keys; per-vertex wedge fan-out is bounded by the orientation
    (≤ sqrt(2m) oriented out-degree), the standard hub-skew mitigation."""
    from ray.data.aggregate import Sum

    from ..functions.cluster import join_partitions
    from ..functions.tables import stable_rename

    canon = canon.materialize()
    parts = join_partitions(rows=canon.count())

    def endpoint_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "node": pa.concat_arrays(
                    [batch.column("u").combine_chunks(),
                     batch.column("v").combine_chunks()]
                ),
                "n": pa.array(np.ones(2 * batch.num_rows, np.int64)),
            }
        )
        return t.group_by("node").aggregate([("n", "sum")]) \
            .rename_columns(["node", "n"])

    deg = (
        canon.map_batches(endpoint_partial, batch_format="pyarrow")
        .groupby("node")
        .sum("n")
        .map_batches(
            stable_rename(["node", "deg"]),
            batch_format="pyarrow",
        )
    )
    deg_u = deg.map_batches(
        lambda t: t.rename_columns(["u", "deg_u"]), batch_format="pyarrow"
    )
    deg_v = deg.map_batches(
        lambda t: t.rename_columns(["v", "deg_v"]), batch_format="pyarrow"
    )
    j = canon.join(deg_u, join_type="inner", num_partitions=parts,
                   on=("u",)).join(
        deg_v, join_type="inner", num_partitions=parts, on=("v",)
    )

    def orient(batch: pa.Table) -> pa.Table:
        du = pc.cast(batch.column("deg_u"), pa.int64())
        dv = pc.cast(batch.column("deg_v"), pa.int64())
        u = batch.column("u")
        v = batch.column("v")
        u_first = pc.or_(
            pc.less(du, dv),
            pc.and_(pc.equal(du, dv), pc.less(u, v)),
        )
        return pa.table(
            {
                "a": pc.if_else(u_first, u, v),
                "b": pc.if_else(u_first, v, u),
                "deg_b": pc.if_else(u_first, dv, du),
            }
        )

    oriented = j.map_batches(orient, batch_format="pyarrow").materialize()
    o1 = oriented.map_batches(
        lambda t: t.rename_columns(["a", "b", "deg_b"]),
        batch_format="pyarrow",
    )
    o2 = oriented.map_batches(
        lambda t: t.rename_columns(["a", "c", "deg_c"]),
        batch_format="pyarrow",
    )

    def wedge_filter(batch: pa.Table) -> pa.Table:
        db = pc.cast(batch.column("deg_b"), pa.int64())
        dc = pc.cast(batch.column("deg_c"), pa.int64())
        b = batch.column("b")
        c = batch.column("c")
        keep = pc.or_(
            pc.less(db, dc), pc.and_(pc.equal(db, dc), pc.less(b, c))
        )
        sub = batch.filter(keep)
        return pa.table({"b": sub.column("b"), "c": sub.column("c")})

    wedges = o1.join(
        o2, join_type="inner", num_partitions=parts, on=("a",)
    ).map_batches(wedge_filter, batch_format="pyarrow")
    closing = oriented.map_batches(
        lambda t: pa.table({"b": t.column("a"), "c": t.column("b")}),
        batch_format="pyarrow",
    )
    closed = wedges.join(
        closing, join_type="inner", num_partitions=parts, on=("b", "c")
    )
    return int(closed.count())


def triangle_count_from_edges(edges) -> pa.Table:
    """Total triangle count of the undirected simple graph under a
    directed (src, dst) edge table OR Dataset (duplicate edges, reverse
    edges and self-loops collapse first). Threshold-gated driver /
    distributed twins using the SAME (degree, node) edge orientation, so
    both count each triangle exactly once (equality-tested)."""
    import ray.data as rd

    from ..functions.tables import collect_table

    as_dataset = isinstance(edges, rd.Dataset)
    if as_dataset:
        # pin before the gating count — see pagerank_from_edges
        edges = edges.materialize()
    n_edges = edges.count() if as_dataset else edges.num_rows
    if n_edges == 0:
        return pa.table({"n_triangles": pa.array([0], pa.int64())})
    if n_edges > TRIANGLES_DRIVER_MAX_EDGES:
        ds = edges if as_dataset else rd.from_arrow(edges)
        canon = ds.map_batches(_tri_canon_batch, batch_format="pyarrow") \
            .groupby(["u", "v"]).count().drop_columns(["count()"]) \
            .materialize()
        if canon.count() == 0:
            # every edge collapsed in canonicalization (all self-loops):
            # the joins would raise on the schema-less empty stream where
            # the driver twin returns 0
            return pa.table({"n_triangles": pa.array([0], pa.int64())})
        total = _triangles_distributed(canon)
        return pa.table({"n_triangles": pa.array([total], pa.int64())})
    tbl = edges if not as_dataset else collect_table(
        edges, empty_schema=pa.schema([("src", pa.string()),
                                       ("dst", pa.string())])
    )
    canon = _tri_canon_batch(tbl)
    total = _triangles_driver(
        np.asarray(canon.column("u"), dtype=object),
        np.asarray(canon.column("v"), dtype=object),
    )
    return pa.table({"n_triangles": pa.array([total], pa.int64())})
