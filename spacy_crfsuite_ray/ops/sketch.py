"""Mergeable sketches — the approximate aggregates a 100 TB pipeline uses
where exact answers need an unbounded shuffle:

- HyperLogLog distinct count: per-batch register arrays merged by
  element-wise max — ONE small vector per batch moves, never the keys.
- Log-binned quantile histogram: per-batch counts over fixed log-spaced
  bins merged by addition — bounded relative error set by bin width.
- Frequent items (heavy hitters): two-pass local-threshold candidate
  generation + broadcast exact recount — EXACT above the support
  threshold with zero shuffle (SQL-oracled, not just stamped).

All are combiner-shaped (map_batches partials → tiny driver merge) and
deterministic: the same input produces the same sketch regardless of batch
boundaries or ordering. Accuracy is asserted against exact answers in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..functions.tables import read_parquet_nometa

HLL_P = 12  # 4096 registers → ~1.6% standard error


def _hash64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit hashes of int64 values: the splitmix64
    finalizer (Steele et al., public domain), fully vectorized in numpy —
    no per-value Python. The register LAYOUT, not the hash function, is
    the sketch's contract (the in-band exact twin measures the resulting
    error, asserted <3% in tests); round 3 hashed per value through
    hashlib, the one Python loop left in a sketch combiner."""
    z = values.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hll_registers(values: np.ndarray, p: int = HLL_P) -> np.ndarray:
    """HyperLogLog register array (uint8[2^p]) for a batch of int64 keys."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(values) == 0:
        return regs
    hv = _hash64(np.unique(values))
    idx = (hv >> np.uint64(64 - p)).astype(np.int64)
    rest = hv << np.uint64(p)  # remaining 64-p bits, left-aligned in 64
    # rank = leading zeros of the 64-bit-aligned remainder + 1, capped at
    # 65-p; for rest>0, leading zeros = 63 - floor(log2(rest))
    ranks = np.minimum(
        65 - p,
        64 - np.floor(np.log2(
            np.maximum(rest, 1).astype(np.float64))).astype(np.int64),
    ).clip(1)
    ranks[rest == 0] = 65 - p
    np.maximum.at(regs, idx, ranks.astype(np.uint8))
    return regs


# The in-band exact twins are VERIFICATION records, not part of the sketch:
# above this many rows they are skipped (stamped -1 / null) so the
# approximate query never costs more than the exact query it replaces.
# All fixture scales stay far below the gate, so the driver record keeps
# its measured error there.
SKETCH_EXACT_TWIN_MAX_ROWS = 50_000_000

# Below this many input rows the exact twin merges per-batch unique int64
# arrays on the driver (≤ rows × 8 bytes pulled — 40 MB at the gate)
# instead of an all-to-all groupby for one scalar; above it, the
# distributed groupby twin runs. Equality of the two paths is tested.
DISTINCT_DRIVER_MAX_ROWS = 5_000_000


def _merge_regs(merged: np.ndarray, batch: pa.Table) -> np.ndarray:
    """Element-wise max-merge of the serialized register blobs in a batch —
    the ONE copy of the merge used by both distinct_hll gate branches (the
    fused==grouped equality test only covers one side of the gate at a
    time, so the merge must not be able to drift between them)."""
    for blob in batch.column("regs").to_pylist():
        merged = np.maximum(merged, np.frombuffer(blob, dtype=np.uint8))
    return merged


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimate with small-range (linear counting) correction."""
    m = float(len(regs))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def distinct_hll(sf_dir: str, table: str = "lineitem",
                 column: str = "l_orderkey") -> pa.Table:
    """Approximate distinct count of an int column: per-batch HLL registers
    (one 4KB row per batch crosses the wire), driver-side max-merge +
    estimate. Exact twin: count(DISTINCT col) — tests assert <3% error."""

    import pyarrow.parquet as pq

    src = read_parquet_nometa(f"{sf_dir}/{table}.parquet", columns=[column])
    n_rows = pq.read_metadata(f"{sf_dir}/{table}.parquet").num_rows
    merged = np.zeros(1 << HLL_P, dtype=np.uint8)

    # self-reported exact twin (kg_oracle_prf-style in-band verification):
    # it rides along below SKETCH_EXACT_TWIN_MAX_ROWS so the driver record
    # shows the sketch's error, and is skipped (stamped -1) above it so the
    # sketch never costs more than the exact query it replaces. Below
    # DISTINCT_DRIVER_MAX_ROWS the twin FUSES into the sketch scan: one
    # pass emits (registers, batch-unique keys) and the driver merges both
    # — no second scan, no all-to-all shuffle for one scalar. Above it, the
    # twin is its own scan + distributed groupby. Path equality is tested.
    if n_rows <= DISTINCT_DRIVER_MAX_ROWS:
        def fused(batch: pa.Table) -> pa.Table:
            vals = np.unique(np.asarray(
                batch.column(column).combine_chunks(), dtype=np.int64
            ))
            uniq = pa.ListArray.from_arrays(
                pa.array([0, len(vals)], pa.int32()),
                pa.array(vals, pa.int64()),
            )
            return pa.table(
                {"regs": pa.array([hll_registers(vals).tobytes()],
                                  pa.binary()),
                 "uniq": uniq}
            )

        parts = []
        for b in src.map_batches(fused, batch_format="pyarrow") \
                .iter_batches(batch_format="pyarrow", batch_size=None):
            merged = _merge_regs(merged, b)
            flat = b.column("uniq").combine_chunks().flatten()
            parts.append(np.asarray(flat, dtype=np.int64))
        approx = int(round(hll_estimate(merged)))
        exact = int(np.unique(np.concatenate(parts)).size) if parts else 0
        rel_err = abs(approx - exact) / max(exact, 1)
        rel_c6, within = int(round(rel_err * 1_000_000)), rel_err <= 0.03
    else:
        def partial(batch: pa.Table) -> pa.Table:
            vals = np.asarray(
                batch.column(column).combine_chunks(), dtype=np.int64
            )
            return pa.table(
                {"regs": pa.array([hll_registers(vals).tobytes()],
                                  pa.binary())}
            )

        ds = src.map_batches(partial, batch_format="pyarrow")
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            merged = _merge_regs(merged, b)
        approx = int(round(hll_estimate(merged)))

        if n_rows <= SKETCH_EXACT_TWIN_MAX_ROWS:
            def uniq_rows(batch: pa.Table) -> pa.Table:
                vals = np.unique(np.asarray(
                    batch.column(column).combine_chunks(), dtype=np.int64
                ))
                return pa.table({column: pa.array(vals, pa.int64())})

            exact = src.map_batches(uniq_rows, batch_format="pyarrow") \
                .groupby(column).count().count()
            rel_err = abs(approx - exact) / max(exact, 1)
            rel_c6 = int(round(rel_err * 1_000_000))
            within = rel_err <= 0.03
        else:
            exact, rel_c6, within = -1, -1, None
    return pa.table(
        {
            "column": pa.array([f"{table}.{column}"], pa.string()),
            "approx_distinct": pa.array([approx], pa.int64()),
            "exact_distinct": pa.array([int(exact)], pa.int64()),
            "rel_err_c6": pa.array([rel_c6], pa.int64()),
            "within_3pct": pa.array([within], pa.bool_()),
        }
    )


QUANTILE_BINS_PER_DECADE = 200  # ~1.16% relative bin width


def _bin_of(x: np.ndarray) -> np.ndarray:
    return np.floor(
        np.log10(np.maximum(x, 1e-12)) * QUANTILE_BINS_PER_DECADE
    ).astype(np.int64)


def quantile_sketch(sf_dir: str, table: str = "orders",
                    column: str = "o_totalprice",
                    quantiles=(0.5, 0.9, 0.99)) -> pa.Table:
    """Approximate quantiles of a positive numeric column via a log-binned
    histogram: per-batch (bin, count) partials (combiner), tiny groupby-sum,
    driver-side cumulative walk. Relative error bounded by the bin width
    (~1.2%); deterministic regardless of batching. Tests assert the bound
    against exact quantiles."""

    def partial(batch: pa.Table) -> pa.Table:
        x = np.asarray(
            batch.column(column).combine_chunks(), dtype=np.float64
        )
        bins, counts = np.unique(_bin_of(x), return_counts=True)
        return pa.table(
            {
                "bin": pa.array(bins, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    from ..functions.cluster import coalesce_small

    ds = (
        coalesce_small(
            read_parquet_nometa(f"{sf_dir}/{table}.parquet", columns=[column])
            .map_batches(partial, batch_format="pyarrow")
        )
        .groupby("bin")
        .sum("n")
    )
    hist = ds.to_pandas().rename(columns={"sum(n)": "n"}) \
        .sort_values("bin").reset_index(drop=True)
    if hist.empty:  # empty input: schema-stable empty result
        return pa.table({"quantile": pa.array([], pa.float64()),
                         "approx_value": pa.array([], pa.float64())})
    total = int(hist["n"].sum())
    cum = hist["n"].cumsum()
    qs, vals = [], []
    for q in quantiles:
        target = q * total
        row = int(np.searchsorted(cum.to_numpy(), target, side="left"))
        row = min(row, len(hist) - 1)
        # bin midpoint in value space
        b = int(hist["bin"].iloc[row])
        lo = 10 ** (b / QUANTILE_BINS_PER_DECADE)
        hi = 10 ** ((b + 1) / QUANTILE_BINS_PER_DECADE)
        qs.append(q)
        vals.append(round(float(np.sqrt(lo * hi)), 6))

    # self-reported exact twin: exact quantiles of the single pruned column
    # (driver numpy — the in-band verification record, like kg_oracle_prf;
    # the sketch itself never needs it). Gated by footer row count so the
    # unbounded driver pull only happens at verification scales.
    import pyarrow.parquet as pq

    if pq.read_metadata(
        f"{sf_dir}/{table}.parquet"
    ).num_rows <= SKETCH_EXACT_TWIN_MAX_ROWS:
        x = np.asarray(
            pq.read_table(f"{sf_dir}/{table}.parquet", columns=[column])
            .column(column).to_pylist(), dtype=np.float64,
        )
        exact_vals = [float(np.quantile(x, q)) for q in quantiles]
        rel = [abs(v - e) / max(abs(e), 1e-12)
               for v, e in zip(vals, exact_vals)]
    else:
        exact_vals = [-1.0] * len(vals)
        rel = [-1.0] * len(vals)
    bound = 10 ** (1.0 / QUANTILE_BINS_PER_DECADE) - 1  # half-bin + slack
    return pa.table(
        {
            "quantile": pa.array(qs, pa.float64()),
            "approx_value": pa.array(vals, pa.float64()),
            "exact_value": pa.array(
                [round(e, 6) for e in exact_vals], pa.float64()
            ),
            "rel_err_c6": pa.array(
                [-1 if r < 0 else int(round(r * 1_000_000)) for r in rel],
                pa.int64()
            ),
            "within_bin_bound": pa.array(
                [None if r < 0 else r <= bound for r in rel], pa.bool_()
            ),
        }
    )


HEAVY_HITTER_PHI = 0.008  # support threshold as a fraction of total rows


def heavy_hitters(sf_dir: str, table: str = "events",
                  column: str = "user_id",
                  phi: float = HEAVY_HITTER_PHI) -> pa.Table:
    """EXACT frequent items above a support threshold, without a full
    groupby — the classic two-pass local-threshold algorithm (the exact
    variant of Misra-Gries/SpaceSaving candidate generation):

    Pass 1: each batch emits keys with LOCAL count >= phi * batch_rows. By
    pigeonhole, any key with GLOBAL count >= phi * n exceeds the local
    threshold in at least one batch, so the union is a guaranteed
    superset, at most 1/phi keys per batch. A distributed groupby dedupes
    that stream BEFORE the driver collect, so the driver holds O(distinct
    candidates) rows, not O(blocks / phi) — at an adversarial distribution
    the raw stream grows with block count.
    Pass 2: the candidate set is broadcast once and every batch emits
    exact candidate counts (is_in probe + numpy fold); a distributed
    groupby-sum folds the (candidate, n) partials so the driver again
    collects only distinct candidates. Keys failing the global threshold
    are dropped. The only shuffles are the two bounded candidate streams —
    raw rows never leave their batch.
    """
    import ray

    from ..functions.broadcast import get_broadcast
    from ..functions.tables import stable_rename

    src = read_parquet_nometa(f"{sf_dir}/{table}.parquet", columns=[column])
    import pyarrow.parquet as pq

    n_rows = pq.read_metadata(f"{sf_dir}/{table}.parquet").num_rows
    threshold = int(np.ceil(phi * n_rows))

    def local_candidates(batch: pa.Table) -> pa.Table:
        vals = np.asarray(
            batch.column(column).combine_chunks(), dtype=np.int64
        )
        keys, counts = np.unique(vals, return_counts=True)
        local_min = int(np.ceil(phi * len(vals)))
        return pa.table(
            {column: pa.array(keys[counts >= max(local_min, 1)], pa.int64())}
        )

    from ..functions.tables import collect_table

    cand_tbl = collect_table(
        src.map_batches(local_candidates, batch_format="pyarrow")
        .groupby(column)
        .count()
        .map_batches(
            stable_rename([column, "n_blocks"]),
            batch_format="pyarrow",
        ),
        empty_schema=pa.schema([(column, pa.int64()),
                                ("n_blocks", pa.int64())]),
    )
    cands = np.unique(np.asarray(cand_tbl.column(column), dtype=np.int64))
    if len(cands) == 0:
        return pa.table({column: pa.array([], pa.int64()),
                         "n_rows": pa.array([], pa.int64())})
    ref = ray.put(cands)

    def exact_counts(batch: pa.Table) -> pa.Table:
        cand = get_broadcast(ref)
        vals = np.asarray(
            batch.column(column).combine_chunks(), dtype=np.int64
        )
        hit = vals[np.isin(vals, cand)]
        keys, counts = np.unique(hit, return_counts=True)
        return pa.table(
            {column: pa.array(keys, pa.int64()),
             "n": pa.array(counts, pa.int64())}
        )

    folded = collect_table(
        src.map_batches(exact_counts, batch_format="pyarrow")
        .groupby(column)
        .sum("n")
        .map_batches(
            stable_rename([column, "n_sum"]),
            batch_format="pyarrow",
        ),
        empty_schema=pa.schema([(column, pa.int64()), ("n_sum", pa.int64())]),
    )
    keys = np.asarray(folded.column(column), dtype=np.int64)
    totals = np.asarray(folded.column("n_sum"), dtype=np.int64)
    keep = totals >= threshold
    return pa.table(
        {column: pa.array(keys[keep], pa.int64()),
         "n_rows": pa.array(totals[keep], pa.int64())}
    )


def heavy_hitters_sql(table: str = "events", column: str = "user_id",
                      phi: float = HEAVY_HITTER_PHI) -> str:
    """DuckDB mirror of heavy_hitters: plain GROUP BY + HAVING against the
    same ceil(phi * n) threshold."""
    return f"""
        SELECT {column}, count(*) AS n_rows
        FROM {table} GROUP BY {column}
        HAVING count(*) >= (
            SELECT CAST(ceil({phi} * count(*)) AS BIGINT) FROM {table})
    """
