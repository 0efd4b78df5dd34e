"""Similarity search over the ``embeddings`` table (list<float> column).

- ``ann_topk``: exact brute-force cosine top-k — numpy matmul per batch
  against a broadcast query matrix (the baseline; SQL-oracled).
- ``ann_lsh``: random-hyperplane LSH bucketed variant — the scale path:
  candidates come from shared buckets only, so work per query is bounded by
  bucket size, not corpus size. Recall vs brute force is asserted in tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..functions.tables import read_parquet_nometa

DEFAULT_K = 5
DEFAULT_N_QUERIES = 8
LSH_PLANES = 12
LSH_SEED = 7


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return mat / norms[:, None]


def _query_matrix(sf_dir: str, n_queries: int) -> Tuple[np.ndarray, np.ndarray]:
    """Query vectors only — the read carries a row filter so the driver
    never loads the full corpus matrix."""
    table = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_queries)],
    )
    ids = np.asarray(table.column("vec_id").to_pylist(), dtype=np.int64)
    mat = np.asarray(table.column("embedding").to_pylist(), dtype=np.float64)
    return ids, _normalize(mat)


def _corpus_meta(sf_dir: str, sample_rows: int = 0):
    """(row count, dim, bounded UNIFORM sample) from parquet metadata + a
    bounded read. The sample is spread over evenly-spaced row groups with a
    stride inside each — a leading-prefix sample would bias k-means
    centroids badly when the file is written clustered/sorted; this stays
    unbiased under any row ordering while the driver reads only a bounded
    number of row groups."""
    path = f"{sf_dir}/embeddings.parquet"
    n_rows = pq.read_metadata(path).num_rows
    pf = pq.ParquetFile(path)
    if not sample_rows:
        first = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
        arr = np.asarray(first.column(0).to_pylist(), dtype=np.float64)
        return n_rows, arr.shape[1], arr
    n_rg = pf.metadata.num_row_groups
    g_idx = np.unique(np.linspace(0, n_rg - 1, min(n_rg, 8)).astype(int))
    per_g = -(-sample_rows // len(g_idx))
    chunks = []
    for g in g_idx:
        tbl = pf.read_row_group(int(g), columns=["embedding"])
        arr = np.asarray(tbl.column(0).to_pylist(), dtype=np.float64)
        stride = max(1, len(arr) // per_g)
        chunks.append(arr[::stride][:per_g])
    sample = np.concatenate(chunks)[:sample_rows]
    return n_rows, sample.shape[1], sample


class _BruteForceTopK:
    """Actor stage: per batch, cosine of batch vectors vs the broadcast query
    matrix; emits the batch-local top-k candidates per query (combiner), so
    the final groupby only merges k rows per (query, batch)."""

    def __init__(self, query_ref, k: int):
        import ray

        self.qids, self.qmat = ray.get(query_ref)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        vecs = _normalize(
            np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        )
        sims = self.qmat @ vecs.T  # (n_queries, batch)
        out_q, out_n, out_c = [], [], []
        for qi, qid in enumerate(self.qids):
            row = sims[qi]
            order = np.lexsort((vids, -row))  # cosine desc, vec_id asc
            taken = 0
            for j in order:
                if vids[j] == qid:
                    continue  # exclude self
                out_q.append(int(qid))
                out_n.append(int(vids[j]))
                out_c.append(float(row[j]))
                taken += 1
                if taken >= self.k:
                    break
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cosine": pa.array(out_c, pa.float64()),
            }
        )


def _final_topk(k: int):
    def top(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["cosine", "neighbor_id"], ascending=[False, True]
        ).head(k)
        return g[["query_id", "neighbor_id"]]

    return top


def ann_topk(
    sf_dir: str, k: int = DEFAULT_K, n_queries: int = DEFAULT_N_QUERIES
) -> "rd.Dataset":
    """Exact top-k cosine neighbors for query vectors (vec_id < n_queries),
    excluding self. Output: (query_id, neighbor_id)."""
    import ray

    query_ref = ray.put(_query_matrix(sf_dir, n_queries))
    return (
        read_parquet_nometa(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .map_batches(
            _BruteForceTopK,
            batch_format="pyarrow",
            fn_constructor_kwargs={"query_ref": query_ref, "k": k},
            concurrency=(1, 8),
        )
        # combiner leaves k rows per (query, batch): coalesce before the
        # tiny per-query groupby (functions.cluster.coalesce_small rationale)
        .repartition(2)
        .groupby("query_id")
        .map_groups(_final_topk(k), batch_format="pandas")
    )


def _n_planes(n_vectors: int) -> int:
    """Scale bucket count to the corpus: ~n/8 vectors per bucket on average
    keeps probes cheap without starving recall on small corpora."""
    return max(2, min(LSH_PLANES, int(np.log2(max(2, n_vectors / 8)))))


def _bucket_of(vecs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (vecs @ planes.T) > 0
    return (bits * (1 << np.arange(planes.shape[0]))).sum(axis=1)


LSH_TABLES = 4


def ann_lsh(
    sf_dir: str, k: int = DEFAULT_K, n_queries: int = DEFAULT_N_QUERIES,
    n_tables: int = LSH_TABLES,
) -> "rd.Dataset":
    """Multi-table hyperplane-LSH ANN: corpus vectors get one bucket key per
    table; each query probes its bucket (+1-bit flips) in every table and
    candidates are unioned — the standard recall/cost dial. Cosines are only
    computed for candidates, so per-query work is bounded by bucket sizes,
    not corpus size. Approximate — tests assert recall vs brute force."""
    import ray

    qids, qmat = _query_matrix(sf_dir, n_queries)
    n_rows, dim, _ = _corpus_meta(sf_dir)  # metadata only, no full load
    n_planes = _n_planes(n_rows)
    rng = np.random.RandomState(LSH_SEED)
    tables = [rng.normal(size=(n_planes, dim))
              for _ in range(n_tables)]
    # multi-probe target (table, bucket) → query ids
    probe: dict = {}
    for ti, planes in enumerate(tables):
        qbuckets = _bucket_of(qmat, planes)
        for qid, qb in zip(qids, qbuckets):
            targets = {int(qb)} | {int(qb) ^ (1 << i) for i in range(n_planes)}
            for t in targets:
                probe.setdefault((ti, t), []).append(int(qid))
    probe_ref = ray.put((probe, {int(q): v for q, v in zip(qids, qmat)}))

    class Probe:
        def __init__(self, ref):
            self.probe, self.queries = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            vids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
            vecs = _normalize(
                np.asarray(batch.column("embedding").to_pylist(),
                           dtype=np.float64)
            )
            buckets = [_bucket_of(vecs, planes) for planes in tables]
            out_q, out_n, out_c = [], [], []
            for i in range(len(vids)):
                cands = set()
                for ti in range(len(tables)):
                    cands.update(self.probe.get((ti, int(buckets[ti][i])), ()))
                for qid in cands:
                    if vids[i] == qid:
                        continue
                    out_q.append(qid)
                    out_n.append(int(vids[i]))
                    out_c.append(float(self.queries[qid] @ vecs[i]))
            return pa.table(
                {
                    "query_id": pa.array(out_q, pa.int64()),
                    "neighbor_id": pa.array(out_n, pa.int64()),
                    "cosine": pa.array(out_c, pa.float64()),
                }
            )

    return (
        read_parquet_nometa(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .map_batches(
            Probe,
            batch_format="pyarrow",
            fn_constructor_kwargs={"ref": probe_ref},
            concurrency=(1, 8),
        )
        # combiner leaves k rows per (query, batch): coalesce before the
        # tiny per-query groupby (functions.cluster.coalesce_small rationale)
        .repartition(2)
        .groupby("query_id")
        .map_groups(
            lambda g: g.sort_values(["cosine", "neighbor_id"],
                                    ascending=[False, True]).head(k)
            .assign(cosine=lambda d: d["cosine"].round(6)),
            batch_format="pandas",
        )
    )


# ----------------------------------------------------------------------- IVF

IVF_SEED = 13
IVF_ITERS = 8


def _kmeans(mat: np.ndarray, k: int, seed: int = IVF_SEED,
            iters: int = IVF_ITERS) -> np.ndarray:
    """Deterministic spherical k-means (fixed seed/iterations) for the IVF
    coarse quantizer. Runs on a bounded SAMPLE at scale — centroids are a
    tiny model, not a per-row artifact."""
    rng = np.random.RandomState(seed)
    cent = mat[rng.choice(len(mat), size=min(k, len(mat)), replace=False)]
    cent = _normalize(cent.astype(np.float64))
    for _ in range(iters):
        assign = np.argmax(mat @ cent.T, axis=1)
        for j in range(len(cent)):
            members = mat[assign == j]
            if len(members):
                cent[j] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


def ann_ivf(
    sf_dir: str, k: int = DEFAULT_K, n_queries: int = DEFAULT_N_QUERIES,
    n_lists: int | None = None, n_probe: int = 4,
    train_sample: int = 100_000,
) -> "rd.Dataset":
    """IVF (inverted-file) ANN — the classic scale path alongside LSH:

    1. TRAIN: deterministic spherical k-means on a bounded sample →
       ``n_lists`` centroids (a tiny broadcast model).
    2. ASSIGN+SCORE (one distributed pass): each batch assigns its vectors
       to their nearest centroid; a vector is scored ONLY against queries
       probing that centroid (each query probes its ``n_probe`` closest
       lists), with a batch-local top-k combiner.
    3. Final per-query top-k merge (tiny groupby).

    Per-query work is bounded by probed-list sizes, not corpus size.
    Approximate — recall vs brute force asserted in tests."""
    import ray

    qids, qmat = _query_matrix(sf_dir, n_queries)
    # bounded sample read: driver cost is O(train_sample), not corpus size
    n_rows, _dim, sample = _corpus_meta(sf_dir, sample_rows=train_sample)
    sample = _normalize(sample)
    if n_lists is None:
        n_lists = max(2, int(np.sqrt(n_rows / 4)))
    cent = _kmeans(sample, n_lists)
    # query → probed lists
    probes = np.argsort(-(qmat @ cent.T), axis=1)[:, :n_probe]
    probe_of_list: dict = {}
    for qi, qid in enumerate(qids):
        for li in probes[qi]:
            probe_of_list.setdefault(int(li), []).append(int(qid))
    ref = ray.put((cent, probe_of_list,
                   {int(q): v for q, v in zip(qids, qmat)}, k))

    class Score:
        def __init__(self, ref):
            self.cent, self.probe_of_list, self.queries, self.k = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            vids = np.asarray(batch.column("vec_id").to_pylist(),
                              dtype=np.int64)
            vecs = _normalize(
                np.asarray(batch.column("embedding").to_pylist(),
                           dtype=np.float64)
            )
            assign = np.argmax(vecs @ self.cent.T, axis=1)
            out_q, out_n, out_c = [], [], []
            for qid_list_key in set(assign.tolist()):
                qids_here = self.probe_of_list.get(int(qid_list_key))
                if not qids_here:
                    continue
                rows = np.nonzero(assign == qid_list_key)[0]
                sub = vecs[rows]
                sub_ids = vids[rows]
                for qid in qids_here:
                    sims = sub @ self.queries[qid]
                    order = np.lexsort((sub_ids, -sims))[:self.k + 1]
                    for j in order:
                        if sub_ids[j] == qid:
                            continue
                        out_q.append(qid)
                        out_n.append(int(sub_ids[j]))
                        out_c.append(float(sims[j]))
            return pa.table(
                {
                    "query_id": pa.array(out_q, pa.int64()),
                    "neighbor_id": pa.array(out_n, pa.int64()),
                    "cosine": pa.array(out_c, pa.float64()),
                }
            )

    return (
        read_parquet_nometa(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .map_batches(
            Score,
            batch_format="pyarrow",
            fn_constructor_kwargs={"ref": ref},
            concurrency=(1, 8),
        )
        # combiner leaves k rows per (query, batch): coalesce before the
        # tiny per-query groupby (functions.cluster.coalesce_small rationale)
        .repartition(2)
        .groupby("query_id")
        .map_groups(_final_topk(k), batch_format="pandas")
    )


# ----------------------------------------------------------- vector aggregate

def embedding_centroids(sf_dir: str) -> "rd.Dataset":
    """Per-label centroid accumulators over the embedding column — the
    vector-aggregate primitive behind k-means / class-prototype stages.

    Elements are integer-scaled FIRST (floor(f64(x)*1e6 + 0.5) as int64,
    float32→float64 being exact) so the per-(label, dim) sums are exact
    integers: order-independent across blocks, overflow-free (1e6-scaled
    unit floats × petascale row counts stay far under 2^63), and hashable
    against the SQL oracle bit for bit — a float centroid mean would be
    non-associative under Ray's block order. Combiner: one (label, dim)
    partial sum row per batch crosses the shuffle, never a vector row;
    callers divide sum_c6 / n_vecs for the actual centroid."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        labels = np.asarray(batch.column("label").to_pylist(), dtype=np.int64)
        mat = np.asarray(batch.column("embedding").to_pylist(),
                         dtype=np.float64)
        scaled = np.floor(mat * 1_000_000.0 + 0.5).astype(np.int64)
        dim = scaled.shape[1] if scaled.ndim == 2 else 0
        uniq = np.unique(labels)
        out_l, out_d, out_s, out_n = [], [], [], []
        for lab in uniq:
            sel = labels == lab
            sums = scaled[sel].sum(axis=0)
            n = int(sel.sum())
            out_l.extend([int(lab)] * dim)
            out_d.extend(range(dim))
            out_s.extend(int(v) for v in sums)
            out_n.extend([n] * dim)
        return pa.table(
            {
                "label": pa.array(out_l, pa.int64()),
                "dim": pa.array(out_d, pa.int64()),
                "s": pa.array(out_s, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    ds = (
        read_parquet_nometa(
            f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "dim"])
        .aggregate(Sum("s"), Sum("n"))
    )
    return ds.map_batches(
        lambda b: b.rename_columns(["label", "dim", "sum_c6", "n_vecs"]),
        batch_format="pyarrow",
    )


# -------------------------------------------------- in-band recall reporting

# Corpus row count up to which the approximate queries compute their exact
# brute-force twin in-band and stamp the measured recall into the result
# (floor(recall*1e6+0.5) as recall_c6) — the driver's correctness record
# then shows HOW approximate the answer was, not just that it ran. Above
# the threshold the column is -1 and recall evidence comes from the
# sampled repo tests. 1000 keeps the sf0.01 correctness run (500 vecs)
# exact while the sf0.1 bench corpus (2000 vecs) measures the approximate
# path's own cost, twin-free.
RECALL_REPORT_MAX_ROWS = 1_000


def _table_of(ds) -> pa.Table:
    return pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    )


def _with_exact_recall(approx_ds, sf_dir: str, k: int,
                       n_queries: int) -> pa.Table:
    """Append an in-band exact-recall column to a (tiny, top-k) approximate
    ANN result. The exact twin runs the distributed brute-force scan — cost
    is one extra corpus pass, which is why it is threshold-gated."""
    tbl = _table_of(approx_ds)
    n_rows = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    if n_rows <= RECALL_REPORT_MAX_ROWS:
        ex = _table_of(ann_topk(sf_dir, k=k, n_queries=n_queries))
        exact_pairs = set(zip(ex.column("query_id").to_pylist(),
                              ex.column("neighbor_id").to_pylist()))
        got = set(zip(tbl.column("query_id").to_pylist(),
                      tbl.column("neighbor_id").to_pylist()))
        recall = len(exact_pairs & got) / max(1, len(exact_pairs))
        c6 = int(np.floor(recall * 1_000_000.0 + 0.5))
    else:
        c6 = -1
    return tbl.append_column(
        "recall_c6", pa.array([c6] * tbl.num_rows, pa.int64())
    )


def ann_lsh_checked(sf_dir: str) -> pa.Table:
    """ann_lsh + in-band exact recall (the driver-facing query entry)."""
    return _with_exact_recall(
        ann_lsh(sf_dir), sf_dir, DEFAULT_K, DEFAULT_N_QUERIES
    )


def ann_ivf_checked(sf_dir: str) -> pa.Table:
    """ann_ivf + in-band exact recall (the driver-facing query entry)."""
    return _with_exact_recall(
        ann_ivf(sf_dir), sf_dir, DEFAULT_K, DEFAULT_N_QUERIES
    )


def _query_matrix_labeled(sf_dir: str, n_queries: int):
    """(ids, normalized matrix, labels) for the filtered search queries."""
    table = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", n_queries)],
    )
    ids = np.asarray(table.column("vec_id").to_pylist(), dtype=np.int64)
    mat = np.asarray(table.column("embedding").to_pylist(), dtype=np.float64)
    labels = np.asarray(table.column("label").to_pylist(), dtype=np.int64)
    return ids, _normalize(mat), labels


class _FilteredBruteForceTopK:
    """Metadata-FILTERED exact search (the pgvector/Qdrant 'filtered ANN'
    shape): each query only scores corpus vectors sharing its label. Same
    combiner contract as _BruteForceTopK — k rows per (query, batch) —
    and the predicate is applied INSIDE the scan, so non-matching vectors
    never produce candidate rows at all."""

    def __init__(self, query_ref, k: int):
        import ray

        self.qids, self.qmat, self.qlabels = ray.get(query_ref)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        labels = np.asarray(batch.column("label").to_pylist(),
                            dtype=np.int64)
        vecs = _normalize(
            np.asarray(batch.column("embedding").to_pylist(),
                       dtype=np.float64)
        )
        sims = self.qmat @ vecs.T
        out_q, out_n, out_c = [], [], []
        for qi, qid in enumerate(self.qids):
            valid = np.nonzero(
                (labels == self.qlabels[qi]) & (vids != qid)
            )[0]
            if len(valid) == 0:
                continue
            row = sims[qi][valid]
            order = valid[np.lexsort((vids[valid], -row))][: self.k]
            for j in order:
                out_q.append(int(qid))
                out_n.append(int(vids[j]))
                out_c.append(float(sims[qi][j]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cosine": pa.array(out_c, pa.float64()),
            }
        )


def ann_topk_filtered(
    sf_dir: str, k: int = DEFAULT_K, n_queries: int = DEFAULT_N_QUERIES
) -> "rd.Dataset":
    """Exact top-k cosine neighbors under a metadata predicate: neighbors
    must share the query's ``label`` (and exclude self). Output:
    (query_id, neighbor_id)."""
    import ray

    query_ref = ray.put(_query_matrix_labeled(sf_dir, n_queries))
    return (
        read_parquet_nometa(
            f"{sf_dir}/embeddings.parquet",
            columns=["vec_id", "embedding", "label"],
        )
        .map_batches(
            _FilteredBruteForceTopK,
            batch_format="pyarrow",
            fn_constructor_kwargs={"query_ref": query_ref, "k": k},
            concurrency=(1, 8),
        )
        .repartition(2)
        .groupby("query_id")
        .map_groups(_final_topk(k), batch_format="pandas")
    )


# ------------------------------------------------------- hybrid retrieval
# Reciprocal-rank fusion (RRF, Cormack et al.) of the two retrieval legs
# this repo already serves: the keyword leg (ops.text.keyword_search,
# log-free idf over RE2 tf counts) and a vector leg (cosine to a fixed
# query vector — the embedding of vec_id 0). Each leg is a distributed
# top-K_LEG combiner scan; the FUSION is driver-side over two ≤ K_LEG-row
# lists — bounded by construction, which is the honest shape (at 100 TB
# the legs still emit k rows each; fusing them is never the scale
# problem). rrf = 1/(60+rank_kw) + 1/(60+rank_vec) in that fixed order
# (exact IEEE divisions), absent legs contribute 0 and report rank 0,
# ranked on the c9-scaled integer so float ties cannot reorder engines.
HYBRID_LEG_K = 50
HYBRID_TOPK = 20
RRF_K = 60


def hybrid_search(sf_dir: str, k: int = HYBRID_TOPK,
                  leg_k: int = HYBRID_LEG_K) -> "rd.Dataset":
    """Hybrid keyword+vector retrieval via reciprocal-rank fusion.
    Output: (doc_id, rank_kw, rank_vec, rrf_c9), best first; rank 0 means
    the doc is absent from that leg's top-``leg_k``."""
    import ray

    from ..functions.tables import collect_table
    from ..ops.text import keyword_search

    # --- keyword leg: distributed top-k scan, ≤ leg_k rows collected
    kw = collect_table(
        keyword_search(sf_dir, k=leg_k).map_batches(
            lambda b: b.select(["doc_id", "score_c6"]),
            batch_format="pyarrow",
        ),
        pa.schema([("doc_id", pa.int64()), ("score_c6", pa.int64())]),
    )
    kw_ids = np.asarray(kw.column("doc_id"), dtype=np.int64)
    kw_sc = np.asarray(kw.column("score_c6"), dtype=np.int64)
    o = np.lexsort((kw_ids, -kw_sc))
    rank_kw = {int(kw_ids[i]): r + 1 for r, i in enumerate(o)}

    # --- vector leg: cosine to the query vector, per-batch top-k combiner
    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "=", 0)],
    )
    qvec = _normalize(np.asarray(qt.column("embedding").to_pylist(),
                                 dtype=np.float64))[0]
    qref = ray.put(qvec)

    def vec_partial(batch: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        qv = get_broadcast(qref)
        vids = np.asarray(batch.column("vec_id").to_pylist(),
                          dtype=np.int64)
        vecs = _normalize(np.asarray(
            batch.column("embedding").to_pylist(), dtype=np.float64
        ))
        cos = vecs @ qv
        c6 = np.floor(cos * 1_000_000.0 + 0.5).astype(np.int64)
        keep = vids != 0  # exclude the query vector itself
        vids, c6 = vids[keep], c6[keep]
        top = np.lexsort((vids, -c6))[:leg_k]
        return pa.table(
            {
                "vec_id": pa.array(vids[top], pa.int64()),
                "cos_c6": pa.array(c6[top], pa.int64()),
            }
        )

    vs = collect_table(
        read_parquet_nometa(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ).map_batches(vec_partial, batch_format="pyarrow"),
        pa.schema([("vec_id", pa.int64()), ("cos_c6", pa.int64())]),
    )
    v_ids = np.asarray(vs.column("vec_id"), dtype=np.int64)
    v_c6 = np.asarray(vs.column("cos_c6"), dtype=np.int64)
    ov = np.lexsort((v_ids, -v_c6))[:leg_k]
    rank_vec = {int(v_ids[i]): r + 1 for r, i in enumerate(ov)}

    # --- fusion over the two bounded lists (kw term first, then vec)
    rows = []
    for d in sorted(set(rank_kw) | set(rank_vec)):
        rk = rank_kw.get(d, 0)
        rv = rank_vec.get(d, 0)
        rrf = (1.0 / (RRF_K + rk) if rk else 0.0) \
            + (1.0 / (RRF_K + rv) if rv else 0.0)
        rows.append((d, rk, rv,
                     int(np.floor(rrf * 1_000_000_000.0 + 0.5))))
    rows.sort(key=lambda r: (-r[3], r[0]))
    rows = rows[:k]
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "rank_kw": pa.array([r[1] for r in rows], pa.int64()),
                "rank_vec": pa.array([r[2] for r in rows], pa.int64()),
                "rrf_c9": pa.array([r[3] for r in rows], pa.int64()),
            }
        )
    )
