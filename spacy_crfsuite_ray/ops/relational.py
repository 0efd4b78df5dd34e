"""Relational showcase operators over the TPC-H-ish tables — the engine's
generic groupby/join/sort/window primitives with clean SQL oracles.

Patterns demonstrated (SURVEY.md §2.6-2.8 Ray mappings):
- pre-aggregated groupby (combine inside map_batches, then a tiny shuffle)
- broadcast hash join (small side via ray.put, probe inside map_batches)
- global top-k via sort + limit
- tumbling-window time aggregate (truncate-to-window key + groupby)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..functions.tables import read_parquet_nometa

# `.repartition(_small_parts_cap(cap=2))` before a final low-cardinality
# groupby is functions.cluster.coalesce_small's block coalesce (see its
# docstring): the stream is already shrunk by a per-batch combiner, so this
# bounds sort-shuffle reduce fan-out (task overhead) and stops empty reduce
# partitions from emitting schema-less blocks (executor schema-drift noise).
from ..functions.cluster import join_partitions as _small_parts_cap


from ..functions.tables import collect_table as _collect_or_empty


def _to_scaled_int(col, scale: int):
    """floor(x*scale + 0.5) as int64 — exact, order-independent summation;
    mirrored verbatim in the DuckDB oracles."""
    return pc.cast(
        pc.floor(pc.add(pc.multiply(col, float(scale)), 0.5)), pa.int64()
    )


def lineitem_agg(sf_dir: str) -> "rd.Dataset":
    """TPC-H Q1-style: per (l_returnflag, l_linestatus) sums/avg/count.
    Partial aggregation inside map_batches; the shuffle moves a handful of
    rows per batch."""

    def partial(batch: pa.Table) -> pa.Table:
        # integer-cents arithmetic (floor(x*scale + 0.5)) so partial sums are
        # EXACT and independent of accumulation order — the SQL oracle uses
        # the identical per-row expression
        disc_price = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty": _to_scaled_int(batch.column("l_quantity"), 100),
                "revenue": _to_scaled_int(disc_price, 10000),
                "disc": _to_scaled_int(batch.column("l_discount"), 100),
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return (
            t.group_by(["l_returnflag", "l_linestatus"])
            .aggregate([("qty", "sum"), ("revenue", "sum"), ("disc", "sum"),
                        ("one", "sum")])
            .rename_columns(
                ["l_returnflag", "l_linestatus", "qty", "revenue", "disc", "one"]
            )
        )

    ds = (
        read_parquet_nometa(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_returnflag", "l_linestatus", "l_quantity",
                     "l_extendedprice", "l_discount"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby(["l_returnflag", "l_linestatus"])
        .sum(["qty", "revenue", "disc", "one"])
    )

    def final(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(
            ["l_returnflag", "l_linestatus", "qty", "revenue", "disc", "n"]
        )
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty_c2": batch.column("qty"),
                "sum_revenue_c4": batch.column("revenue"),
                "sum_disc_c2": batch.column("disc"),
                "n_rows": batch.column("n"),
            }
        )

    return ds.map_batches(final, batch_format="pyarrow")


def segment_revenue(sf_dir: str) -> "rd.Dataset":
    """orders ⋈ customer via BROADCAST hash join (customer is the small side,
    shipped once with ray.put, probed per batch — no shuffle join)."""
    import ray

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    seg_of = dict(
        zip(cust.column("c_custkey").to_pylist(),
            cust.column("c_mktsegment").to_pylist())
    )
    seg_ref = ray.put(seg_of)

    class Probe:
        def __init__(self, ref):
            self.seg_of = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            segs = [
                self.seg_of.get(k)
                for k in batch.column("o_custkey").to_pylist()
            ]
            t = pa.table(
                {
                    "c_mktsegment": pa.array(segs, pa.string()),
                    "price": _to_scaled_int(batch.column("o_totalprice"), 100),
                    "one": pa.array(
                        np.ones(batch.num_rows, dtype=np.int64)
                    ),
                }
            )
            return (
                t.group_by("c_mktsegment")
                .aggregate([("price", "sum"), ("one", "sum")])
                .rename_columns(["c_mktsegment", "price", "one"])
            )

    ds = (
        read_parquet_nometa(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
        )
        .map_batches(
            Probe,
            batch_format="pyarrow",
            fn_constructor_kwargs={"ref": seg_ref},
            concurrency=(1, 8),
        )
        .repartition(_small_parts_cap(cap=2))
        .groupby("c_mktsegment")
        .sum(["price", "one"])
    )

    def final(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(["c_mktsegment", "price", "n"])
        return pa.table(
            {
                "c_mktsegment": batch.column("c_mktsegment"),
                "revenue_c2": batch.column("price"),
                "n_orders": batch.column("n"),
            }
        )

    return ds.map_batches(final, batch_format="pyarrow")


def top_parts(sf_dir: str, k: int = 10) -> "rd.Dataset":
    """Global top-k by retail price (sort desc + limit; tie-break p_partkey)."""
    return (
        read_parquet_nometa(
            f"{sf_dir}/part.parquet", columns=["p_partkey", "p_retailprice"]
        )
        .sort(["p_retailprice", "p_partkey"], descending=[True, False])
        .limit(k)
    )


def user_sessions(sf_dir: str, gap_minutes: int = 30) -> "rd.Dataset":
    """Gap-based sessionization (streaming-window semantics): a new session
    starts when a user's inter-event gap exceeds ``gap_minutes``. Events are
    hash-partitioned by user via groupby; per-user ordering happens inside
    the group (deterministic tie-break on event_id)."""
    gap = np.timedelta64(gap_minutes * 60, "s")

    def sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["ts", "event_id"])
        ts = g["ts"].to_numpy()
        new_session = np.ones(len(ts), dtype=bool)
        if len(ts) > 1:
            new_session[1:] = (ts[1:] - ts[:-1]) > gap
        return pd.DataFrame(
            {
                "user_id": [int(g["user_id"].iloc[0])],
                "n_sessions": [int(new_session.sum())],
                "n_events": [len(g)],
            }
        )

    return (
        read_parquet_nometa(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
        )
        .groupby("user_id")
        .map_groups(sessions, batch_format="pandas")
    )


def top_orders_per_segment(sf_dir: str, k: int = 3) -> "rd.Dataset":
    """Per-group top-k (window-rank): the k highest-value orders in each
    market segment. Broadcast-join the segment, then rank inside the
    segment group."""
    import ray

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    seg_of = dict(
        zip(cust.column("c_custkey").to_pylist(),
            cust.column("c_mktsegment").to_pylist())
    )
    seg_ref = ray.put(seg_of)

    def attach(batch: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        segs = get_broadcast(seg_ref)  # deserialized once per worker
        col = [segs.get(kk) for kk in batch.column("o_custkey").to_pylist()]
        return pa.table(
            {
                "c_mktsegment": pa.array(col, pa.string()),
                "o_orderkey": batch.column("o_orderkey"),
                "o_totalprice": batch.column("o_totalprice"),
            }
        )

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["o_totalprice", "o_orderkey"],
                              ascending=[False, True]).head(k)
        return g[["c_mktsegment", "o_orderkey", "o_totalprice"]]

    def topk_partial(batch: pd.DataFrame) -> pd.DataFrame:
        # batch-local top-k per segment (combiner): the shuffle carries at
        # most k rows per (batch, segment), never a row per order
        return (
            batch.sort_values(["o_totalprice", "o_orderkey"],
                              ascending=[False, True])
            .groupby("c_mktsegment", sort=False)
            .head(k)
        )

    return (
        read_parquet_nometa(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderkey", "o_totalprice"],
        )
        .map_batches(attach, batch_format="pyarrow")
        .map_batches(topk_partial, batch_format="pandas")
        .repartition(_small_parts_cap(cap=2))
        .groupby("c_mktsegment")
        .map_groups(topk, batch_format="pandas")
    )


def _join_parts(*paths: str) -> int:
    """Hash-join partition count, scaled to the inputs' total row count
    (parquet footer metadata) and bounded by cluster CPUs — see
    functions.cluster.join_partitions."""
    from ..functions.cluster import join_partitions

    rows = sum(pq.read_metadata(p).num_rows for p in paths) if paths else None
    return join_partitions(rows=rows)


def priority_semijoin(sf_dir: str, min_discount: float = 0.06) -> "rd.Dataset":
    """Distributed SEMI-join (TPC-H Q4 shape): orders having ≥1 lineitem at
    or above ``min_discount``, counted per o_orderpriority. The qualifying
    lineitem side is column-pruned and filtered BEFORE the shuffle; the semi
    join itself is Ray's hash-shuffle join (no broadcast of an
    SF-proportional key set)."""

    def qualifying(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch.column("l_discount"), min_discount)
        return batch.filter(keep).select(["l_orderkey"])

    li = read_parquet_nometa(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_discount"]
    ).map_batches(qualifying, batch_format="pyarrow")
    orders = read_parquet_nometa(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    def partial_count(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by("o_orderpriority").aggregate(
            [("n", "sum")]
        ).rename_columns(["o_orderpriority", "n"])

    joined = orders.join(
        li, join_type="left_semi",
        num_partitions=_join_parts(f"{sf_dir}/orders.parquet",
                                   f"{sf_dir}/lineitem.parquet"),
        on=("o_orderkey",), right_on=("l_orderkey",),
    )
    # combiner-first: count per priority inside each join-output block, so
    # the final 5-group groupby shuffles one row per (block, priority) —
    # never a row per order
    ds = (
        joined.map_batches(partial_count, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby("o_orderpriority")
        .sum("n")
    )
    from ..functions.tables import stable_rename

    return ds.map_batches(
        stable_rename(["o_orderpriority", "n_orders"]),
        batch_format="pyarrow",
    )


def customers_no_orders(sf_dir: str,
                        min_totalprice: float = 300000.0) -> "rd.Dataset":
    """Distributed ANTI-join (TPC-H Q22 shape): customers with NO order
    above ``min_totalprice``, counted per market segment. The orders side
    is filtered before the shuffle."""
    cust = read_parquet_nometa(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    orders = read_parquet_nometa(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        lambda b: b.filter(
            pc.greater(b.column("o_totalprice"), min_totalprice)
        ).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    def partial_count(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "c_mktsegment": batch.column("c_mktsegment"),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by("c_mktsegment").aggregate(
            [("n", "sum")]
        ).rename_columns(["c_mktsegment", "n"])

    ds = (
        cust.join(
            orders, join_type="left_anti",
            num_partitions=_join_parts(f"{sf_dir}/customer.parquet",
                                       f"{sf_dir}/orders.parquet"),
            on=("c_custkey",), right_on=("o_custkey",),
        )
        .map_batches(partial_count, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby("c_mktsegment")
        .sum("n")
    )
    from ..functions.tables import stable_rename

    return ds.map_batches(
        stable_rename(["c_mktsegment", "n_customers"]),
        batch_format="pyarrow",
    )


SHIPPING_CUTOFF = "1998-06-01"


def shipping_priority(sf_dir: str, k: int = 10,
                      segment: str = "BUILDING") -> "rd.Dataset":
    """TPC-H Q3 shape: 3-table pipeline — semi-join orders against the
    filtered customer segment, combiner-aggregate lineitem revenue per order
    BEFORE the join shuffle, inner-join, final groupby + global top-k.
    Revenue is integer-scaled (c4) for exact oracle equality."""
    import numpy as np

    cutoff = pa.scalar(np.datetime64(SHIPPING_CUTOFF, "us"))

    cust = read_parquet_nometa(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda b: b.filter(
            pc.equal(b.column("c_mktsegment"), segment)
        ).select(["c_custkey"]),
        batch_format="pyarrow",
    )
    orders = read_parquet_nometa(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey",
                                             "o_orderdate"]
    ).map_batches(
        lambda b: b.filter(
            pc.less(b.column("o_orderdate"), cutoff)
        ).select(["o_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    ).join(
        cust, join_type="left_semi",
        num_partitions=_join_parts(f"{sf_dir}/orders.parquet",
                                   f"{sf_dir}/customer.parquet"),
        on=("o_custkey",), right_on=("c_custkey",),
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch.column("l_shipdate"), cutoff))
        rev = _to_scaled_int(
            pc.multiply(
                batch.column("l_extendedprice"),
                pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
            ),
            10000,
        )
        t = pa.table({"l_orderkey": batch.column("l_orderkey"), "rev": rev})
        return t.group_by("l_orderkey").aggregate(
            [("rev", "sum")]
        ).rename_columns(["l_orderkey", "rev"])

    li = read_parquet_nometa(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(li_partial, batch_format="pyarrow")

    joined = li.join(
        orders.select_columns(["o_orderkey"]), join_type="inner",
        num_partitions=_join_parts(f"{sf_dir}/lineitem.parquet",
                                   f"{sf_dir}/orders.parquet"),
        on=("l_orderkey",), right_on=("o_orderkey",),
    )
    ds = joined.groupby("l_orderkey").sum("rev")
    return (
        ds.map_batches(
            lambda b: pa.table(
                {
                    "o_orderkey": b.column("l_orderkey"),
                    "revenue_c4": b.column("sum(rev)"),
                }
            ),
            batch_format="pyarrow",
        )
        .sort(["revenue_c4", "o_orderkey"], descending=[True, False])
        .limit(k)
    )


# Orders-side row count under which the asof build side broadcasts as three
# sorted numpy arrays and the probe is ONE batch-local searchsorted per event
# batch (zero shuffle on either side). Above it — or when the composite key
# would overflow int64 — the union + user-groupby twin runs (equality-tested
# in tests/test_large_paths.py).
ASOF_BROADCAST_MAX_ORDERS = 2_000_000


def event_asof_order(sf_dir: str) -> "rd.Dataset":
    """Distributed AS-OF join (custom operator — Ray Data has no asof):
    for each event, the same user's most recent order at or before the
    event time (ties: latest o_orderdate, then highest o_orderkey; events
    with no prior order drop out — inner asof).

    Shape: the build side (orders) is the small side of every real asof —
    below ``ASOF_BROADCAST_MAX_ORDERS`` it broadcasts once as arrays sorted
    by (custkey, orderdate, orderkey) plus a dense rank of the distinct
    order timestamps, and every event batch resolves its matches with ONE
    vectorized ``np.searchsorted`` on the composite key
    ``custkey * (n_distinct_ts + 1) + ts_rank`` — no shuffle at all, events
    stream column-pruned. Ties collapse to the highest orderkey for free:
    tied orders share a composite value and ``side='right'`` lands after
    the last of them in (…, orderkey) sort order. Above the gate (or if
    the composite would overflow int64) the union-both-sides + ONE
    salted-user-keyed groupby twin runs (events split across salts, the
    user's orders replicated to each salt), so even a pathological user's
    group is bounded by events/n_salts + their orders."""
    import ray

    from ..functions.broadcast import get_broadcast

    n_orders = pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    if n_orders > ASOF_BROADCAST_MAX_ORDERS:
        return _event_asof_joined(sf_dir)

    od = _collect_or_empty(
        read_parquet_nometa(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderdate", "o_orderkey"],
        ),
        empty_schema=pa.schema(
            [("o_custkey", pa.int64()), ("o_orderdate", pa.timestamp("us")),
             ("o_orderkey", pa.int64())]
        ),
    )
    cust = pc.cast(od.column("o_custkey"), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    ts = pc.cast(
        pc.cast(od.column("o_orderdate"), pa.timestamp("us")), pa.int64()
    ).to_numpy(zero_copy_only=False)
    okey = pc.cast(od.column("o_orderkey"), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    order = np.lexsort((okey, ts, cust))
    cust, ts, okey = cust[order], ts[order], okey[order]
    uniq_ts = np.unique(ts)
    stride = len(uniq_ts) + 1
    if len(cust) and int(cust.max()) >= (2**62) // stride:
        return _event_asof_joined(sf_dir)  # composite key would overflow
    comp = cust * stride + (np.searchsorted(uniq_ts, ts, side="right"))
    ref = ray.put({"comp": comp, "cust": cust, "okey": okey,
                   "uniq_ts": uniq_ts, "stride": stride})

    out_schema = pa.schema(
        [("event_id", pa.int64()), ("o_orderkey", pa.int64())]
    )

    def probe(batch: pa.Table) -> pa.Table:
        b = get_broadcast(ref)
        if batch.num_rows == 0 or len(b["comp"]) == 0:
            return out_schema.empty_table()
        users = pc.cast(batch.column("user_id"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        t_us = pc.cast(
            pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        rank = np.searchsorted(b["uniq_ts"], t_us, side="right")
        pos = np.searchsorted(
            b["comp"], users * b["stride"] + rank, side="right"
        ) - 1
        keep = (pos >= 0) & (b["cust"][np.maximum(pos, 0)] == users)
        return pa.table(
            {"event_id": pc.cast(batch.column("event_id"), pa.int64())
             .filter(pa.array(keep)),
             "o_orderkey": pa.array(b["okey"][pos[keep]], pa.int64())}
        )

    return read_parquet_nometa(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    ).map_batches(probe, batch_format="pyarrow")


ASOF_JOIN_SALTS = 8


def _event_asof_joined(
    sf_dir: str, n_salts: int = ASOF_JOIN_SALTS
) -> "rd.Dataset":
    """At-scale twin: both sides tagged, UNIONed, hash-partitioned by the
    key in ONE shuffle (groupby), matched inside the group with a sort +
    vectorized searchsorted. Byte-identical to the broadcast probe (same
    tie rules).

    Skew safety (VERDICT r4 #6): the group key is SALTED — each event row
    takes (k, salt = row_position % n_salts) while each order row is
    replicated to ALL n_salts salts, so every salt bucket holds 1/n_salts
    of a pathological user's events plus that user's full (small) order
    set. An asof match only needs the probe row and the whole build side
    of its key, so the salt changes nothing semantically (equality-tested
    against the broadcast probe on a 10x-skewed user); the bound on a
    worker becomes max_user_events / n_salts + max_user_orders instead of
    max_user_events. Cost: order rows x n_salts through the shuffle — the
    build side is the small side of every real asof."""

    def ev_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "k": batch.column("user_id"),
                "salt": pa.array(
                    np.arange(n, dtype=np.int64) % n_salts
                ),
                "ts": pc.cast(batch.column("ts"), pa.timestamp("us")),
                "side": pa.array(np.zeros(n, dtype=np.int8)),
                "event_id": batch.column("event_id"),
                "o_orderkey": pa.nulls(n, pa.int64()),
            }
        )

    def od_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        idx = pa.array(np.repeat(np.arange(n), n_salts), pa.int64())
        return pa.table(
            {
                "k": batch.column("o_custkey").take(idx),
                "salt": pa.array(
                    np.tile(np.arange(n_salts, dtype=np.int64), n)
                ),
                "ts": pc.cast(
                    batch.column("o_orderdate").take(idx),
                    pa.timestamp("us"),
                ),
                "side": pa.array(np.ones(n * n_salts, dtype=np.int8)),
                "event_id": pa.nulls(n * n_salts, pa.int64()),
                "o_orderkey": batch.column("o_orderkey").take(idx),
            }
        )

    events = read_parquet_nometa(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    ).map_batches(ev_rows, batch_format="pyarrow")
    orders = read_parquet_nometa(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_orderkey"],
    ).map_batches(od_rows, batch_format="pyarrow")

    def asof(group: pd.DataFrame) -> pd.DataFrame:
        ev = group[group["side"] == 0]
        od = group[group["side"] == 1].sort_values(["ts", "o_orderkey"])
        if ev.empty or od.empty:
            return pd.DataFrame({"event_id": [], "o_orderkey": []}).astype(
                {"event_id": "int64", "o_orderkey": "int64"}
            )
        idx = np.searchsorted(
            od["ts"].to_numpy(), ev["ts"].to_numpy(), side="right"
        ) - 1
        keep = idx >= 0
        return pd.DataFrame(
            {
                "event_id": ev["event_id"].to_numpy()[keep].astype(np.int64),
                "o_orderkey": od["o_orderkey"].to_numpy()[idx[keep]]
                .astype(np.int64),
            }
        )

    return events.union(orders).groupby(["k", "salt"]).map_groups(
        asof, batch_format="pandas"
    )


def events_daily(sf_dir: str) -> "rd.Dataset":
    """Tumbling 1-day window per event_type: count + sum(value)."""

    def day_key(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch.column("ts"), unit="day")
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "day": day,
                "value": _to_scaled_int(batch.column("value"), 10000),
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return (
            t.group_by(["event_type", "day"])
            .aggregate([("value", "sum"), ("one", "sum")])
            .rename_columns(["event_type", "day", "value", "one"])
        )

    ds = (
        read_parquet_nometa(
            f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
        )
        .map_batches(day_key, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby(["event_type", "day"])
        .sum(["value", "one"])
    )

    def final(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(["event_type", "day", "value", "n"])
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                # floor_temporal yields timestamp[s]; emit [us] to match the
                # oracle's date_trunc dtype exactly (driver hashes dtypes too)
                "day": pc.cast(batch.column("day"), pa.timestamp("us")),
                "sum_value_c4": batch.column("value"),
                "n_events": batch.column("n"),
            }
        )

    return ds.map_batches(final, batch_format="pyarrow")


def revenue_by_region(sf_dir: str) -> "rd.Dataset":
    """Snowflake dimension-chain broadcast join (TPC-H Q5 shape): lineitem
    facts → supplier → nation → region, revenue per region. The three
    dimension tables are pre-joined into ONE suppkey→region dict on the
    driver (they are tiny and get smaller as the chain walks up), shipped
    once via ray.put, probed per batch with a groupby combiner — the fact
    table never shuffles."""
    import ray

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"])
    reg = pq.read_table(f"{sf_dir}/region.parquet",
                        columns=["r_regionkey", "r_name"])
    region_of_nation = dict(zip(
        nat.column("n_nationkey").to_pylist(),
        nat.column("n_regionkey").to_pylist(),
    ))
    name_of_region = dict(zip(
        reg.column("r_regionkey").to_pylist(),
        reg.column("r_name").to_pylist(),
    ))
    region_of_supp = {
        s: name_of_region[region_of_nation[n]]
        for s, n in zip(sup.column("s_suppkey").to_pylist(),
                        sup.column("s_nationkey").to_pylist())
    }
    ref = ray.put(region_of_supp)

    def probe(batch: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        regions = get_broadcast(ref)
        rev = _to_scaled_int(
            pc.multiply(
                batch.column("l_extendedprice"),
                pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
            ),
            10000,
        )
        t = pa.table(
            {
                "r_name": pa.array(
                    [regions.get(s)
                     for s in batch.column("l_suppkey").to_pylist()],
                    pa.string(),
                ),
                "rev": rev,
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by("r_name").aggregate(
            [("rev", "sum"), ("one", "sum")]
        ).rename_columns(["r_name", "rev", "one"])

    ds = (
        read_parquet_nometa(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_suppkey", "l_extendedprice", "l_discount"],
        )
        .map_batches(probe, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby("r_name")
        .sum(["rev", "one"])
    )
    return ds.map_batches(
        lambda b: pa.table(
            {
                "r_name": b.column("r_name"),
                "revenue_c4": b.column("sum(rev)"),
                "n_items": b.column("sum(one)"),
            }
        ),
        batch_format="pyarrow",
    )


def user_value_sliding_sum(sf_dir: str, window: int = 3) -> "rd.Dataset":
    """SLIDING-window aggregate per key: for each user's event stream ordered
    by (ts, event_id), the sum of the last ``window`` event values
    (integer-scaled c4 for exactness). One hash shuffle on user_id; in-group
    vectorized cumsum-difference. Mirrors SQL
    ``SUM(...) OVER (PARTITION BY user ORDER BY ts, event_id
    ROWS window-1 PRECEDING)``."""

    def scale(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts": batch.column("ts"),
                "event_id": batch.column("event_id"),
                "v": _to_scaled_int(batch.column("value"), 10000),
            }
        )

    def sliding(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["ts", "event_id"])
        v = g["v"].to_numpy()
        c = np.concatenate([[0], np.cumsum(v)])
        lo = np.maximum(0, np.arange(len(v)) - (window - 1))
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "sliding_sum_c4": (c[1:] - c[lo]).astype(np.int64),
            }
        )

    return (
        read_parquet_nometa(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "ts", "event_id", "value"],
        )
        .map_batches(scale, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(sliding, batch_format="pandas")
    )


def event_props_stats(sf_dir: str) -> "rd.Dataset":
    """Semi-structured (JSON string) column extraction, fully vectorized:
    pull the integer ``k`` field out of ``events.props`` with an Arrow RE2
    kernel (no per-row json.loads), combiner-aggregate per event_type.
    The oracle uses the identical RE2 pattern via regexp_extract."""

    def partial(batch: pa.Table) -> pa.Table:
        ks = pc.struct_field(
            pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)'), "k"
        )
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "k": pc.cast(ks, pa.int64()),
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by("event_type").aggregate(
            [("k", "sum"), ("one", "sum")]
        ).rename_columns(["event_type", "k", "one"])

    ds = (
        read_parquet_nometa(f"{sf_dir}/events.parquet",
                        columns=["event_type", "props"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby("event_type")
        .sum(["k", "one"])
    )
    from ..functions.tables import stable_rename

    return ds.map_batches(
        stable_rename(["event_type", "sum_k", "n_events"]),
        batch_format="pyarrow",
    )

def purchase_attribution(sf_dir: str, window_minutes: int = 30) -> "rd.Dataset":
    """Distributed RANGE join (custom operator — Ray Data has no interval
    join): for each *purchase* event, count + sum(value) of the same user's
    click/view touches in the half-open attribution window
    ``[purchase_ts - window_minutes, purchase_ts)`` (purchases with no
    in-window touches drop out — inner range join).

    Shape (same as the as-of join): both sides column-pruned, tagged,
    UNIONed, hash-partitioned by the user key in ONE shuffle, matched
    inside the group with sort + two vectorized searchsorteds + a
    cumsum-difference for the windowed sum. Partitioning assumption: one
    user's rows fit in a worker; salt the key for pathological users."""
    win_us = np.int64(window_minutes) * 60_000_000

    def rows(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        is_p = pc.equal(et, "purchase")
        is_t = pc.is_in(et, value_set=pa.array(["click", "view"]))
        keep = pc.or_(is_p, is_t)
        b = batch.filter(keep)
        side = pc.cast(
            pc.equal(b.column("event_type"), "purchase"), pa.int8()
        )
        return pa.table(
            {
                "k": b.column("user_id"),
                "ts": pc.cast(b.column("ts"), pa.timestamp("us")),
                "side": side,
                "value_c4": _to_scaled_int(b.column("value"), 10000),
                "event_id": b.column("event_id"),
            }
        )

    events = read_parquet_nometa(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value", "event_id"],
    ).map_batches(rows, batch_format="pyarrow")

    empty = pd.DataFrame(
        {"purchase_id": [], "n_touches": [], "touch_value_c4": []}
    ).astype({"purchase_id": "int64", "n_touches": "int64",
              "touch_value_c4": "int64"})

    def ranged(group: pd.DataFrame) -> pd.DataFrame:
        touches = group[group["side"] == 0].sort_values("ts")
        buys = group[group["side"] == 1]
        if touches.empty or buys.empty:
            return empty
        t_ts = touches["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        b_ts = buys["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        csum = np.concatenate(
            [[0], np.cumsum(touches["value_c4"].to_numpy().astype(np.int64))]
        )
        lo = np.searchsorted(t_ts, b_ts - win_us, side="left")
        hi = np.searchsorted(t_ts, b_ts, side="left")
        n = hi - lo
        keep = n > 0
        return pd.DataFrame(
            {
                "purchase_id": buys["event_id"].to_numpy()[keep]
                .astype(np.int64),
                "n_touches": n[keep].astype(np.int64),
                "touch_value_c4": (csum[hi] - csum[lo])[keep]
                .astype(np.int64),
            }
        )

    return events.groupby("k").map_groups(ranged, batch_format="pandas")


def urgent_revenue_bloom(sf_dir: str,
                         priority: str = "1-URGENT") -> "rd.Dataset":
    """Bloom-filtered SEMI-join: revenue of lineitems whose order has the
    given priority, per l_returnflag. The scale pattern for joining a huge
    fact table against a selective key set:

    1. the qualifying order keys build a packed Bloom filter (~2 bytes/key,
       25-50x smaller than a broadcast hash set) shipped once via ray.put;
    2. lineitem batches are pre-filtered by vectorized Bloom probes — the
       overwhelming non-matching majority never enters the shuffle;
    3. only the survivors (matches + the filter's few false positives) pay
       the exact hash semi-join, which removes the false positives.

    Result is EXACT (bloom has no false negatives; the semi-join has no
    false positives) — SQL-oracled."""
    import ray

    from ..functions.hashing import bloom_build, bloom_contains

    keys_tbl = pq.read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"],
        filters=[("o_orderpriority", "=", priority)],
    )
    keys = np.asarray(keys_tbl.column("o_orderkey"), dtype=np.int64)
    bits, m = bloom_build(keys)
    bloom_ref = ray.put((bits, m))

    def prefilter(batch: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        b_bits, b_m = get_broadcast(bloom_ref)
        ok = bloom_contains(
            b_bits, b_m,
            np.asarray(batch.column("l_orderkey"), dtype=np.int64),
        )
        kept = batch.filter(pa.array(ok))
        return pa.table(
            {
                "l_orderkey": kept.column("l_orderkey"),
                "l_returnflag": kept.column("l_returnflag"),
                "revenue_c4": _to_scaled_int(
                    pc.multiply(
                        kept.column("l_extendedprice"),
                        pc.subtract(1.0, kept.column("l_discount")),
                    ),
                    10000,
                ),
            }
        )

    li = read_parquet_nometa(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"],
    ).map_batches(prefilter, batch_format="pyarrow")
    orders = read_parquet_nometa(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(
        lambda b: b.filter(
            pc.equal(b.column("o_orderpriority"), priority)
        ).select(["o_orderkey"]),
        batch_format="pyarrow",
    )
    def partial_sum(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "rev": batch.column("revenue_c4"),
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by("l_returnflag").aggregate(
            [("rev", "sum"), ("one", "sum")]
        ).rename_columns(["l_returnflag", "rev", "one"])

    ds = (
        li.join(
            orders, join_type="left_semi",
            num_partitions=_join_parts(f"{sf_dir}/orders.parquet"),
            on=("l_orderkey",), right_on=("o_orderkey",),
        )
        .map_batches(partial_sum, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby("l_returnflag")
        .sum(["rev", "one"])
    )
    from ..functions.tables import stable_rename

    return ds.map_batches(
        stable_rename(["l_returnflag", "revenue_c4", "n_items"]),
        batch_format="pyarrow",
    )


# Lineitem row count under which the per-block argmin partials (≤ 40 B per
# order per block) collect to the driver for the final Arrow group_by —
# ~50 MB of partials at the gate. Above it the distributed Min runs.
FIRST_SHIPMENT_DRIVER_MAX_ROWS = 5_000_000


def first_shipment(sf_dir: str) -> "rd.Dataset":
    """Distributed ARGMIN: for every order, the lineitem row that ships
    first — the select-the-whole-row-at-the-group-minimum pattern, which no
    plain column aggregate expresses. Total order per group:
    (l_shipdate, l_linenumber, l_partkey, price_c2) — fully deterministic
    even when the data carries duplicate (orderkey, linenumber) rows.

    Shape: fully vectorized, zero per-group UDF. Each row is encoded as ONE
    fixed-width big-endian byte string — ordering fields first, payload
    after — so byte-lexicographic order == row order, and the whole argmin
    is a single Ray `Min` aggregate over the binary column (Arrow's min
    kernel compares bytes lexicographically). Packing several int64s into
    bytes instead of bit-packing one int64 means no field-width budget and
    no cross-row 'tearing' on ties: the winner is one atomic value. The
    map-side combine leaves at most one (int64, 32B) row per order per
    block on the shuffle, and decode is a numpy byte-view reshape.

    Below ``FIRST_SHIPMENT_DRIVER_MAX_ROWS`` input rows the per-block
    partials (≤ 40 B per order per block) collect to the driver and ONE
    Arrow group_by finishes the argmin — the 147k-group distributed
    aggregate costs more than it saves at bench scales (measured 11.3 s →
    ~2 s at sf0.1). Above the gate the Ray Min aggregate runs
    (equality-tested in tests/test_large_paths.py)."""

    def encode(batch: pa.Table) -> pa.Table:
        us = pc.cast(
            pc.cast(batch.column("l_shipdate"), pa.timestamp("us")),
            pa.int64(),
        ).to_numpy()
        ln = pc.cast(batch.column("l_linenumber"), pa.int64()).to_numpy()
        part = pc.cast(batch.column("l_partkey"), pa.int64()).to_numpy()
        price = _to_scaled_int(
            batch.column("l_extendedprice"), 100
        ).to_numpy()
        if (
            (us < 0).any() or (ln < 0).any()
            or (part < 0).any() or (price < 0).any()
        ):
            raise ValueError(
                "first_shipment byte-lex argmin requires non-negative "
                "fields (unsigned big-endian encoding)"
            )
        n = len(us)
        buf = np.empty((n, 32), np.uint8)
        for i, col in enumerate((us, ln, part, price)):
            buf[:, i * 8:(i + 1) * 8] = (
                col.astype(">u8").view(np.uint8).reshape(n, 8)
            )
        offsets = pa.py_buffer(
            np.arange(0, (n + 1) * 32, 32, dtype=np.int32)
        )
        key = pa.Array.from_buffers(
            pa.binary(), n, [None, offsets, pa.py_buffer(buf)]
        )
        # map-side combine: one row per order per block reaches the shuffle
        # (lineitem is orderkey-clustered, so this cuts shuffle rows by the
        # avg lineitems-per-order factor)
        return (
            pa.table({"l_orderkey": batch.column("l_orderkey"), "key": key})
            .group_by("l_orderkey")
            .aggregate([("key", "min")])
            .rename_columns(["l_orderkey", "key"])
        )

    def decode(batch: pa.Table) -> pa.Table:
        raw = b"".join(batch.column("min(key)").to_pylist())
        m = (
            np.frombuffer(raw, np.uint8)
            .reshape(-1, 32)
            .copy()
            .view(">u8")
            .astype(np.int64)
        )
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "l_linenumber": pa.array(m[:, 1], pa.int64()),
                "l_partkey": pa.array(m[:, 2], pa.int64()),
                "l_shipdate": pa.array(m[:, 0], pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "price_c2": pa.array(m[:, 3], pa.int64()),
            }
        )

    from ray.data.aggregate import Min

    partials = read_parquet_nometa(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_partkey", "l_shipdate",
                 "l_extendedprice"],
    ).map_batches(encode, batch_format="pyarrow")
    n_rows = pq.read_metadata(f"{sf_dir}/lineitem.parquet").num_rows
    if n_rows <= FIRST_SHIPMENT_DRIVER_MAX_ROWS:
        tbl = _collect_or_empty(
            partials,
            empty_schema=pa.schema(
                [("l_orderkey", pa.int64()), ("key", pa.binary())]
            ),
        )
        final = (
            tbl.group_by("l_orderkey")
            .aggregate([("key", "min")])
            .rename_columns(["l_orderkey", "min(key)"])
        )
        return rd.from_arrow(decode(final))
    return (
        partials.groupby("l_orderkey")
        .aggregate(Min("key"))
        .map_batches(decode, batch_format="pyarrow")
    )


def event_lag_delta(sf_dir: str) -> "rd.Dataset":
    """LAG window function: for every event, microseconds since the same
    user's PREVIOUS event in (ts, event_id) order; -1 for the user's first
    event. One hash shuffle on user_id; in-group ordering + delta is a
    vectorized int64 diff (timestamps viewed as epoch-microseconds).
    Mirrors SQL ``epoch_us(ts) - LAG(epoch_us(ts)) OVER (PARTITION BY
    user_id ORDER BY ts, event_id)``. Partitioning assumption: one user's
    event stream fits in a worker (salt the key for pathological users)."""

    def lag(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["ts", "event_id"])
        us = g["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        delta = np.empty(len(us), dtype=np.int64)
        delta[0] = -1
        if len(us) > 1:
            delta[1:] = us[1:] - us[:-1]
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "prev_gap_us": delta,
            }
        )

    return (
        read_parquet_nometa(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
        )
        .groupby("user_id")
        .map_groups(lag, batch_format="pandas")
    )


_PRIORITY_COLS = [
    ("1-URGENT", "p1_urgent"),
    ("2-HIGH", "p2_high"),
    ("3-MEDIUM", "p3_medium"),
    ("4-NOT SPECIFIED", "p4_not_specified"),
    ("5-LOW", "p5_low"),
]


def order_priority_pivot(sf_dir: str) -> "rd.Dataset":
    """PIVOT (conditional aggregation): orders counted per market segment x
    order priority, one wide row per segment. The segment is attached via a
    broadcast hash join (customer side `ray.put` once, probed per batch);
    the pivot itself is a per-batch indicator-column partial aggregate, so
    the shuffle moves at most one wide row per (batch, segment) — never a
    row per order. Mirrors SQL ``SUM(CASE WHEN o_orderpriority = ... THEN 1
    ELSE 0 END)`` per segment."""
    import ray

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    seg_of = dict(
        zip(cust.column("c_custkey").to_pylist(),
            cust.column("c_mktsegment").to_pylist())
    )
    seg_ref = ray.put(seg_of)
    names = [n for _, n in _PRIORITY_COLS]

    def partial(batch: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        segs = get_broadcast(seg_ref)
        seg = pa.array(
            [segs.get(k) for k in batch.column("o_custkey").to_pylist()],
            pa.string(),
        )
        # inner-join semantics: an o_custkey missing from customer must be
        # DROPPED (the oracle's join drops it), not grouped under a null
        # segment — broadcast-lookup misses are filtered before the pivot
        if seg.null_count:
            keep = pc.is_valid(seg)
            seg = seg.filter(keep)
            batch = batch.filter(keep)
        prio = batch.column("o_orderpriority")
        cols = {"c_mktsegment": seg}
        for value, name in _PRIORITY_COLS:
            cols[name] = pc.cast(pc.equal(prio, value), pa.int64())
        t = pa.table(cols)
        return t.group_by("c_mktsegment").aggregate(
            [(n, "sum") for n in names]
        ).rename_columns(["c_mktsegment"] + names)

    ds = (
        read_parquet_nometa(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderpriority"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby("c_mktsegment")
        .sum(names)
    )
    from ..functions.tables import stable_rename

    return ds.map_batches(
        stable_rename(["c_mktsegment"] + names),
        batch_format="pyarrow",
    )


def distinct_users_by_type(sf_dir: str) -> "rd.Dataset":
    """Exact distributed COUNT(DISTINCT): unique users per event type.
    Stage 1 dedups (event_type, user_id) pairs inside each batch (an Arrow
    group_by — cheap, no shuffle) so the wire carries at most one row per
    pair per batch; stage 2's groupby on BOTH keys completes the global
    dedup; stage 3 is a tiny count per type. This is the
    combiner-before-shuffle shape COUNT(DISTINCT) needs at 100 TB — a
    naive groupby(event_type) would ship every event row to one reducer."""

    def pair_dedup(batch: pa.Table) -> pa.Table:
        return (
            batch.select(["event_type", "user_id"])
            .group_by(["event_type", "user_id"])
            .aggregate([])
        )

    def partial_count(batch: pa.Table) -> pa.Table:
        # per-batch count combiner over the globally-distinct pairs: the
        # coalesce below must only ever see (blocks x types) tiny rows, not
        # one row per distinct user (billions at scale)
        if batch.num_columns == 0:
            return pa.schema(
                [("event_type", pa.string()), ("n", pa.int64())]
            ).empty_table()
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by("event_type").aggregate(
            [("n", "sum")]
        ).rename_columns(["event_type", "n"])

    ds = (
        read_parquet_nometa(
            f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
        )
        .map_batches(pair_dedup, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .count()
        .map_batches(partial_count, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby("event_type")
        .sum("n")
    )
    from ..functions.tables import stable_rename

    return ds.map_batches(
        stable_rename(["event_type", "n_users"]),
        batch_format="pyarrow",
    )


# Below this many event rows the histogram merge runs on the driver (the
# per-batch combiner output is collected and folded with one Arrow group_by
# -- no shuffle); above it the distributed (event_type, v_c2) groupby runs.
# Twins equality-tested.
EVENT_QUANTILE_DRIVER_MAX_ROWS = 20_000_000

# Same gate for order_priority_rank's (priority, cents) histogram merge.
RANK_HIST_DRIVER_MAX_ROWS = 20_000_000


def event_value_quantiles(sf_dir: str) -> pa.Table:
    """EXACT per-group quantiles (p50/p90 of event value per event_type)
    without ever co-locating a group: the distributed shape is a histogram
    — values are 2-decimal fixed point, so a per-batch (event_type, v_c2)
    count combiner + one tiny groupby yields the full distribution (types x
    distinct cents, bounded regardless of row count), and the quantile is
    read off the cumulative counts on the driver. This is how exact
    percentiles survive 100 TB: the shuffle moves histogram rows, never
    events, and no map_groups ever holds a whole group.

    percentile_disc semantics (both engines): the FIRST value whose
    cumulative count reaches ceil(q * n) — an actual data element, no
    interpolation, no float summation order."""

    def partial(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("value"), dtype=np.float64)
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "v_c2": pa.array(
                    np.floor(v * 100.0 + 0.5).astype(np.int64)
                ),
                "n": pa.array(np.ones(len(v), dtype=np.int64)),
            }
        )
        return (
            t.group_by(["event_type", "v_c2"]).aggregate([("n", "sum")])
            .rename_columns(["event_type", "v_c2", "n"])
        )

    ds = read_parquet_nometa(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    ).map_batches(partial, batch_format="pyarrow")
    n_events = pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
    if n_events <= EVENT_QUANTILE_DRIVER_MAX_ROWS:
        # driver twin: the per-batch partials are already histograms; one
        # Arrow group_by merges them — no shuffle. Values are near-unique
        # within a fixture-sized batch, so the combiner barely shrinks the
        # stream and the distributed groupby would move ~a row per event
        # for multi-second fixed shuffle cost (measured 12.1s -> 1.4s).
        hist_schema = pa.schema(
            [("event_type", pa.string()), ("v_c2", pa.int64()),
             ("n", pa.int64())]
        )
        tbl = (
            _collect_or_empty(ds, hist_schema)
            .group_by(["event_type", "v_c2"]).aggregate([("n", "sum")])
            .rename_columns(["event_type", "v_c2", "sum(n)"])
        )
    else:
        # the histogram can track input size while values are near-unique,
        # so size the pre-groupby coalesce from the input row count (it
        # shrinks again once the value DOMAIN saturates) — a fixed 2-part
        # cap would squeeze a corpus-sized stream through two workers
        hist = (
            ds.repartition(_small_parts_cap(rows=n_events))
            .groupby(["event_type", "v_c2"])
            .sum("n")
        )
        tbl = _collect_or_empty(
            hist,
            pa.schema([("event_type", pa.string()), ("v_c2", pa.int64()),
                       ("sum(n)", pa.int64())]),
        )
    types = tbl.column("event_type").to_pylist()
    vals = np.asarray(tbl.column("v_c2"), dtype=np.int64)
    cnts = np.asarray(tbl.column("sum(n)"), dtype=np.int64)
    out_t, out_p50, out_p90 = [], [], []
    for ty in sorted(set(types)):
        m = np.array([t == ty for t in types])
        v, c = vals[m], cnts[m]
        o = np.argsort(v)
        v, c = v[o], c[o]
        cum = np.cumsum(c)
        n = int(cum[-1])
        picks = []
        for q in (0.5, 0.9):
            rank = int(np.ceil(q * n))
            picks.append(int(v[np.searchsorted(cum, rank)]))
        out_t.append(ty)
        out_p50.append(picks[0])
        out_p90.append(picks[1])
    return pa.table(
        {
            "event_type": pa.array(out_t, pa.string()),
            "p50_c2": pa.array(out_p50, pa.int64()),
            "p90_c2": pa.array(out_p90, pa.int64()),
        }
    )


# ------------------------------------------------------------ CDC MERGE/upsert

# Below this many delta rows the changelog broadcasts (ray.put once, binary-
# searched per batch); above it the kept/updated split runs as left_anti +
# inner hash-joins. A CDC delta is normally orders of magnitude smaller than
# the base table, so the broadcast path is the common case.
UPSERT_BROADCAST_MAX_DELTA = 5_000_000


def _orders_delta(sf_dir: str) -> "rd.Dataset":
    """Deterministic derived changelog over orders (stands in for a real
    CDC feed): UPDATE (+10.00 on the total) for keys % 7 == 0, DELETE for
    keys % 31 == 0 — delete wins when both apply."""

    def mk(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("o_orderkey"), dtype=np.int64)
        price = np.asarray(batch.column("o_totalprice"), dtype=np.float64)
        upd, dele = k % 7 == 0, k % 31 == 0
        m = upd | dele
        newp = np.floor((price[m] + 10.0) * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": pa.array(k[m], pa.int64()),
                "op": pa.array(
                    np.where(dele[m], "D", "U").tolist(), pa.string()
                ),
                "new_price_c2": pa.array(newp, pa.int64()),
            }
        )

    return read_parquet_nometa(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    ).map_batches(mk, batch_format="pyarrow")


def orders_upsert(sf_dir: str) -> "rd.Dataset":
    """Distributed MERGE: apply a changelog (updates + deletes) to the
    orders base in one streaming pass. Output = every surviving key with
    its merged price and an op marker ('U' updated, 'K' kept); deleted
    keys are gone. Broadcast/join twins are equality-tested
    (test_large_paths.py)."""
    import ray

    from ..functions.broadcast import get_broadcast

    delta = _orders_delta(sf_dir)
    base = read_parquet_nometa(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    # gate on a free footer-metadata row estimate (keys are ~uniform, so the
    # delta is ~(1/7 + 1/31) of the base) instead of executing the delta
    # pipeline just to count it
    n_base = pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    if n_base // 7 + n_base // 31 > UPSERT_BROADCAST_MAX_DELTA:
        return _orders_upsert_joined(base, delta, sf_dir)

    dt = _collect_or_empty(
        delta,
        pa.schema([("o_orderkey", pa.int64()), ("op", pa.string()),
                   ("new_price_c2", pa.int64())]),
    )
    keys = np.asarray(dt.column("o_orderkey"), dtype=np.int64)
    order = np.argsort(keys)
    keys = keys[order]
    is_del = np.asarray(
        pc.equal(dt.column("op"), "D").combine_chunks()
    )[order]
    newp = np.asarray(dt.column("new_price_c2"), dtype=np.int64)[order]
    ref = ray.put((keys, is_del, newp))

    def probe(batch: pa.Table) -> pa.Table:
        dkeys, ddel, dnew = get_broadcast(ref)
        k = np.asarray(batch.column("o_orderkey"), dtype=np.int64)
        price_c2 = np.floor(
            np.asarray(batch.column("o_totalprice"), np.float64) * 100.0
            + 0.5
        ).astype(np.int64)
        if len(dkeys) == 0:
            # empty changelog with a non-empty base: every base row is kept
            # verbatim (ddel/dnew are zero-length, so the fancy-indexing
            # below would raise — guard the whole probe, not just `hit`)
            return pa.table(
                {
                    "o_orderkey": pa.array(k, pa.int64()),
                    "price_c2": pa.array(price_c2, pa.int64()),
                    "op": pa.array(["K"] * len(k), pa.string()),
                }
            )
        pos = np.searchsorted(dkeys, k)
        pos_c = np.minimum(pos, len(dkeys) - 1)
        hit = (pos < len(dkeys)) & (dkeys[pos_c] == k)
        upd = hit & ~ddel[pos_c]
        keep = ~(hit & ddel[pos_c])
        merged = np.where(upd, dnew[pos_c], price_c2)
        return pa.table(
            {
                "o_orderkey": pa.array(k[keep], pa.int64()),
                "price_c2": pa.array(merged[keep], pa.int64()),
                "op": pa.array(
                    np.where(upd[keep], "U", "K").tolist(), pa.string()
                ),
            }
        )

    return base.map_batches(probe, batch_format="pyarrow")


def _orders_upsert_joined(base, delta, sf_dir: str) -> "rd.Dataset":
    """At-scale twin: kept = base LEFT ANTI delta; updated = base INNER
    delta minus deletes. Byte-identical to the broadcast path by test."""
    parts = _join_parts(f"{sf_dir}/orders.parquet")

    def as_kept(batch: pa.Table) -> pa.Table:
        price_c2 = np.floor(
            np.asarray(batch.column("o_totalprice"), np.float64) * 100.0
            + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": pc.cast(batch.column("o_orderkey"),
                                      pa.int64()),
                "price_c2": pa.array(price_c2, pa.int64()),
                "op": pa.array(["K"] * batch.num_rows, pa.string()),
            }
        )

    kept = base.join(
        delta, join_type="left_anti", num_partitions=parts,
        on=("o_orderkey",),
    ).map_batches(as_kept, batch_format="pyarrow")

    def as_updated(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.not_equal(batch.column("op"), "D"))
        return pa.table(
            {
                "o_orderkey": pc.cast(sub.column("o_orderkey"), pa.int64()),
                "price_c2": pc.cast(sub.column("new_price_c2"), pa.int64()),
                "op": pa.array(["U"] * sub.num_rows, pa.string()),
            }
        )

    updated = base.join(
        delta, join_type="inner", num_partitions=parts, on=("o_orderkey",),
    ).map_batches(as_updated, batch_format="pyarrow")
    return kept.union(updated)


def revenue_running_total(sf_dir: str) -> pa.Table:
    """Cumulative revenue by order date (unbounded-preceding window SUM).
    The distributed part is a per-batch (day, cents) combiner + one tiny
    groupby (days are bounded regardless of row count — ~2.5k for 7 years);
    the cumulative scan runs over that small sorted day table on the
    driver. Integer cents keep the running sum exact and order-free."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                # day key stays a TIMESTAMP (like events_daily) so the
                # driver's value-hash agrees with the SQL date_trunc
                "d": pc.floor_temporal(batch.column("o_orderdate"),
                                       unit="day"),
                "c": _to_scaled_int(batch.column("o_totalprice"), 100),
            }
        )
        return t.group_by("d").aggregate([("c", "sum")]).rename_columns(
            ["d", "c"]
        )

    from ..functions.tables import stable_rename

    daily = (
        read_parquet_nometa(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_totalprice"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby("d")
        .sum("c")
        .map_batches(
            stable_rename(["d", "c"]),
            batch_format="pyarrow",
        )
    )
    tbl = _collect_or_empty(
        daily,
        pa.schema([("d", pa.timestamp("us")), ("c", pa.int64())]),
    )
    order = pc.sort_indices(tbl, sort_keys=[("d", "ascending")])
    tbl = tbl.take(order)
    cum = np.cumsum(np.asarray(tbl.column("c"), dtype=np.int64))
    return pa.table(
        {
            "o_orderdate": tbl.column("d"),
            "day_revenue_c2": tbl.column("c"),
            "cum_revenue_c2": pa.array(cum, pa.int64()),
        }
    )


def order_priority_rank(sf_dir: str) -> "rd.Dataset":
    """RANK() within each order-priority class by total price (descending;
    SQL-tie semantics: equal prices share the min rank), emitting one row
    per order — a full-table window, not an aggregate.

    Scale shape (the event_value_quantiles histogram pattern, NOT a
    per-class map_groups): RANK over a value column only needs the VALUE
    HISTOGRAM, never row co-location. Stage 1 is a per-batch
    (priority, cents)→count combiner, so the shuffle moves at most one row
    per distinct (class, price) per batch; stage 2 is a tiny groupby over
    the histogram (bounded by the price DOMAIN — cents values × 5 classes —
    not by row count); the merged histogram is broadcast once and every
    batch computes ``rank = 1 + #(strictly greater in class)`` with a
    vectorized searchsorted. No worker ever holds a whole priority class
    (at 100× data a class is ~20% of the fact table — the round-3
    map_groups version pinned that in ONE pandas group)."""
    import ray

    from ..functions.broadcast import get_broadcast
    from ..functions.tables import stable_rename

    src = f"{sf_dir}/orders.parquet"

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "p": batch.column("o_orderpriority"),
                "c": _to_scaled_int(batch.column("o_totalprice"), 100),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by(["p", "c"]).aggregate([("n", "sum")]) \
            .rename_columns(["p", "c", "n"])

    hist_schema = pa.schema(
        [("p", pa.string()), ("c", pa.int64()), ("n", pa.int64())]
    )
    partials = read_parquet_nometa(
        src, columns=["o_orderpriority", "o_totalprice"]
    ).map_batches(partial, batch_format="pyarrow")
    if pq.read_metadata(src).num_rows <= RANK_HIST_DRIVER_MAX_ROWS:
        # near-unique prices make the histogram ~as long as the input at
        # fixture scale, and a Ray sort-shuffle over 150k groups costs ~12s
        # of pure overhead — so below the gate the per-batch partials merge
        # in ONE driver pyarrow group_by (the standard driver-merge twin);
        # above it the distributed groupby runs (the histogram is bounded
        # by the price DOMAIN × classes, not row count, so it stops
        # tracking input size exactly when the input gets big)
        hist = (
            _collect_or_empty(partials, hist_schema)
            .group_by(["p", "c"])
            .aggregate([("n", "sum")])
            .rename_columns(["p", "c", "n"])
        )
    else:
        # near-unique prices make the histogram track input size, so size
        # the pre-groupby coalesce from the order count (ADVICE r4: a
        # fixed 2-part cap squeezed a corpus-sized stream through two
        # workers); once the cents DOMAIN saturates the stream shrinks and
        # join_partitions' row scaling shrinks with it
        hist = _collect_or_empty(
            partials.repartition(
                _small_parts_cap(rows=pq.read_metadata(src).num_rows)
            )
            .groupby(["p", "c"])
            .sum("n")
            .map_batches(
                stable_rename(["p", "c", "n"]),
                batch_format="pyarrow",
            ),
            hist_schema,
        )
    # per class: ascending unique cents + suffix-sum of counts, so that
    # rank(v) = 1 + (# rows with cents > v) = 1 + suffix[searchsorted_right].
    # The class column dictionary-encodes in Arrow C (the histogram can be
    # millions of rows when prices are near-unique — a Python membership
    # loop here cost 17s at sf0.1, the entire regression)
    lut: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    henc = hist.column("p").combine_chunks().dictionary_encode()
    hp_idx = np.asarray(henc.indices, dtype=np.int64) \
        if hist.num_rows else np.empty(0, np.int64)
    hc = np.asarray(hist.column("c"), dtype=np.int64)
    hn = np.asarray(hist.column("n"), dtype=np.int64)
    for i, p in enumerate(henc.dictionary.to_pylist()):
        m = hp_idx == i
        order = np.argsort(hc[m], kind="stable")
        vals = hc[m][order]
        cnts = hn[m][order]
        suffix = np.zeros(len(vals) + 1, dtype=np.int64)
        suffix[:-1] = np.cumsum(cnts[::-1])[::-1]
        lut[p] = (vals, suffix)
    ref = ray.put(lut)

    def rank_batch(batch: pa.Table) -> pa.Table:
        table = get_broadcast(ref)
        enc = batch.column("o_orderpriority").combine_chunks() \
            .dictionary_encode()
        idx = np.asarray(enc.indices, dtype=np.int64)
        cents = np.floor(
            np.asarray(batch.column("o_totalprice"), np.float64) * 100.0
            + 0.5
        ).astype(np.int64)
        rank = np.empty(len(cents), dtype=np.int64)
        for i, p in enumerate(enc.dictionary.to_pylist()):  # ≤5 classes
            m = idx == i
            vals, suffix = table[p]
            rank[m] = 1 + suffix[
                np.searchsorted(vals, cents[m], side="right")
            ]
        return pa.table(
            {
                "o_orderkey": pc.cast(batch.column("o_orderkey"),
                                      pa.int64()),
                "o_orderpriority": batch.column("o_orderpriority"),
                "price_rank": pa.array(rank, pa.int64()),
            }
        )

    return read_parquet_nometa(
        src, columns=["o_orderkey", "o_orderpriority", "o_totalprice"]
    ).map_batches(rank_batch, batch_format="pyarrow")


def _order_priority_rank_groups(sf_dir: str) -> "rd.Dataset":
    """Equality twin of order_priority_rank: the per-class map_groups
    formulation (co-locates each priority class — kept ONLY as the test
    reference; the histogram path above is the production shape)."""

    def ranks(group: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            group["o_totalprice"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        desc = np.sort(cents)[::-1]
        # rank = 1 + number of rows strictly greater (ties share min rank)
        rank = len(cents) - np.searchsorted(
            desc[::-1], cents, side="right"
        ) + 1
        return pd.DataFrame(
            {
                "o_orderkey": group["o_orderkey"].astype(np.int64),
                "o_orderpriority": group["o_orderpriority"],
                "price_rank": rank.astype(np.int64),
            }
        )

    return (
        read_parquet_nometa(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
        )
        .groupby("o_orderpriority")
        .map_groups(ranks, batch_format="pandas")
    )


def lineitem_corr(sf_dir: str) -> "rd.Dataset":
    """Pearson correlation between quantity and extended price per return
    flag, as a distributed MOMENTS aggregate: per-batch combiner sums the
    exact integer moments (n, Σq, Σp, Σq², Σqp, Σp²) so the shuffle moves a
    handful of rows per batch and the sums are order-independent; the final
    corr is one double expression over those exact int64s, identical
    op-for-op to the oracle (both engines evaluate the same IEEE tree over
    the same integers, so the c6 rounding hashes equal).

    Price is rounded to WHOLE DOLLARS before squaring so Σp² stays inside
    int64 headroom: p ≤ ~1.1e5, p² ≤ 1.2e10, × ~6e8 rows per flag at the
    100 TB target ≈ 7e18 < 2^63. Cents would overflow three orders of
    magnitude earlier — dollars keep the moments exact at target scale.
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        q = _to_scaled_int(batch.column("l_quantity"), 1)
        p = _to_scaled_int(batch.column("l_extendedprice"), 1)
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "sum_q": q,
                "sum_p": p,
                "sum_qq": pc.multiply(q, q),
                "sum_qp": pc.multiply(q, p),
                "sum_pp": pc.multiply(p, p),
            }
        )
        return (
            t.group_by("l_returnflag")
            .aggregate([("n", "sum"), ("sum_q", "sum"), ("sum_p", "sum"),
                        ("sum_qq", "sum"), ("sum_qp", "sum"),
                        ("sum_pp", "sum")])
            .rename_columns(["l_returnflag", "n", "sum_q", "sum_p",
                             "sum_qq", "sum_qp", "sum_pp"])
        )

    names = ["n", "sum_q", "sum_p", "sum_qq", "sum_qp", "sum_pp"]

    def final(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0:
            return pa.schema(
                [("l_returnflag", pa.string())]
                + [(c, pa.int64()) for c in names]
                + [("corr_c6", pa.int64())]
            ).empty_table()
        batch = batch.rename_columns(["l_returnflag"] + names)
        n = np.asarray(batch.column("n"), np.float64)
        sq = np.asarray(batch.column("sum_q"), np.float64)
        sp = np.asarray(batch.column("sum_p"), np.float64)
        sqq = np.asarray(batch.column("sum_qq"), np.float64)
        sqp = np.asarray(batch.column("sum_qp"), np.float64)
        spp = np.asarray(batch.column("sum_pp"), np.float64)
        # same association order as the oracle: (n*sxy - sx*sy) /
        # (sqrt(n*sxx - sx*sx) * sqrt(n*syy - sy*sy)); IEEE ops over
        # identical doubles are bitwise-deterministic across engines.
        # The radicands are clamped at 0 on BOTH sides: past 2^53 the
        # independently-rounded products can make a near-zero variance
        # term slightly negative, where numpy would yield NaN but DuckDB
        # sqrt() hard-errors — the clamp keeps the engines identical
        denom = np.sqrt(np.maximum(n * sqq - sq * sq, 0.0)) \
            * np.sqrt(np.maximum(n * spp - sp * sp, 0.0))
        num = n * sqp - sq * sp
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(denom == 0.0, 0.0, num / denom)
        c6 = np.floor(corr * 1000000.0 + 0.5).astype(np.int64)
        return batch.append_column("corr_c6", pa.array(c6, pa.int64()))

    return (
        read_parquet_nometa(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_returnflag", "l_quantity", "l_extendedprice"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby("l_returnflag")
        .aggregate(*[Sum(c) for c in names])
        .map_batches(final, batch_format="pyarrow")
    )


def lineitem_corr_sql() -> str:
    """DuckDB mirror of lineitem_corr: identical integer moments and the
    identical double expression tree (NOT the built-in corr(), whose
    internal accumulation order differs)."""
    return """
        WITH s AS (
            SELECT l_returnflag,
                   CAST(floor(l_quantity * 1.0 + 0.5) AS BIGINT) AS q,
                   CAST(floor(l_extendedprice * 1.0 + 0.5) AS BIGINT) AS p
            FROM lineitem),
        m AS (
            SELECT l_returnflag,
                   count(*) AS n,
                   CAST(sum(q) AS BIGINT) AS sum_q,
                   CAST(sum(p) AS BIGINT) AS sum_p,
                   CAST(sum(q * q) AS BIGINT) AS sum_qq,
                   CAST(sum(q * p) AS BIGINT) AS sum_qp,
                   CAST(sum(p * p) AS BIGINT) AS sum_pp
            FROM s GROUP BY l_returnflag),
        f AS (
            SELECT *,
                   sqrt(greatest(CAST(n AS DOUBLE) * sum_qq
                                 - CAST(sum_q AS DOUBLE) * sum_q, 0.0))
                   * sqrt(greatest(CAST(n AS DOUBLE) * sum_pp
                                   - CAST(sum_p AS DOUBLE) * sum_p, 0.0))
                       AS denom,
                   CAST(n AS DOUBLE) * sum_qp
                   - CAST(sum_q AS DOUBLE) * sum_p AS num
            FROM m)
        SELECT l_returnflag, n, sum_q, sum_p, sum_qq, sum_qp, sum_pp,
               CAST(floor(CASE WHEN denom = 0.0 THEN 0.0
                               ELSE num / denom END * 1000000.0 + 0.5)
                    AS BIGINT) AS corr_c6
        FROM f
    """


# Below this many combined input rows (parquet footers — free) the outer
# joins run on the driver: the pre-reduced sides are collected and joined
# with ONE Arrow join kernel, avoiding the hash-shuffle join's ~4s
# aggregator-actor startup that dominates fixture-scale readings. Above it
# the distributed Dataset join runs. Path equality is tested.
OUTER_JOIN_DRIVER_MAX_ROWS = 2_000_000


def _order_profile_partial(batch: pa.Table) -> pa.Table:
    t = pa.table(
        {
            "o_custkey": batch.column("o_custkey"),
            "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            "spent_c2": _to_scaled_int(batch.column("o_totalprice"), 100),
        }
    )
    return (
        t.group_by("o_custkey")
        .aggregate([("n", "sum"), ("spent_c2", "sum")])
        .rename_columns(["o_custkey", "n", "spent_c2"])
    )


def _order_profile_fill(batch: pa.Table) -> pa.Table:
    zero = pa.scalar(0, pa.int64())
    return pa.table(
        {
            "c_custkey": batch.column("c_custkey"),
            "c_mktsegment": batch.column("c_mktsegment"),
            "n_orders": pc.fill_null(batch.column("n"), zero),
            "spent_c2": pc.fill_null(batch.column("spent_c2"), zero),
        }
    )


def customer_order_profile(sf_dir: str):
    """LEFT OUTER join enrichment: every customer with their order count and
    lifetime spend, ZERO-filled for customers who never ordered (the rows an
    inner join silently drops and the anti join keeps exclusively —
    completing the join-family coverage). The orders side is pre-reduced to
    one row per customer (per-batch combiner, then a keyed groupby) BEFORE
    the join, so the shuffle joins |customers| rows against at most
    |customers| aggregate rows — never raw orders. Below
    OUTER_JOIN_DRIVER_MAX_ROWS the pre-reduced sides collect to the driver
    and ONE Arrow join kernel replaces the shuffle join (equality-tested
    against the distributed path)."""
    agg_schema = pa.schema([("o_custkey", pa.int64()), ("n", pa.int64()),
                            ("spent_c2", pa.int64())])
    partials = read_parquet_nometa(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(_order_profile_partial, batch_format="pyarrow")
    n_rows = (pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
              + pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows)

    if n_rows <= OUTER_JOIN_DRIVER_MAX_ROWS:
        agg = (
            _collect_or_empty(partials, agg_schema)
            .group_by("o_custkey")
            .aggregate([("n", "sum"), ("spent_c2", "sum")])
            .rename_columns(["o_custkey", "n", "spent_c2"])
        )
        cust = pq.read_table(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_mktsegment"],
        )
        joined = cust.join(
            agg, keys="c_custkey", right_keys="o_custkey",
            join_type="left outer",
        )
        return _order_profile_fill(joined)

    from ..functions.tables import stable_rename

    agg = (
        partials
        .groupby("o_custkey")
        .sum(["n", "spent_c2"])
        .map_batches(
            stable_rename(["o_custkey", "n", "spent_c2"]),
            batch_format="pyarrow",
        )
    )
    cust = read_parquet_nometa(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    return cust.join(
        agg, join_type="left_outer",
        num_partitions=_join_parts(f"{sf_dir}/customer.parquet"),
        on=("c_custkey",), right_on=("o_custkey",),
    ).map_batches(_order_profile_fill, batch_format="pyarrow")


def customer_order_profile_sql() -> str:
    """DuckDB mirror of customer_order_profile (LEFT JOIN + COALESCE)."""
    return """
        WITH agg AS (
            SELECT o_custkey,
                   count(*) AS n,
                   CAST(sum(CAST(floor(o_totalprice * 100.0 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS spent_c2
            FROM orders GROUP BY o_custkey)
        SELECT c.c_custkey, c.c_mktsegment,
               COALESCE(agg.n, 0) AS n_orders,
               COALESCE(agg.spent_c2, 0) AS spent_c2
        FROM customer c LEFT JOIN agg ON agg.o_custkey = c.c_custkey
    """


BIG_ORDER_MIN_TOTALPRICE = 300000.0


def _ledger_ev_partial(batch: pa.Table) -> pa.Table:
    t = pa.table(
        {
            "user_id": batch.column("user_id"),
            "n_events": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            "ev_value_c2": _to_scaled_int(batch.column("value"), 100),
        }
    )
    return (
        t.group_by("user_id")
        .aggregate([("n_events", "sum"), ("ev_value_c2", "sum")])
        .rename_columns(["user_id", "n_events", "ev_value_c2"])
    )


def _ledger_ord_partial(min_totalprice: float):
    def fn(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater(batch.column("o_totalprice"), min_totalprice)
        )
        t = pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "n_big_orders": pa.array(
                    np.ones(batch.num_rows, dtype=np.int64)
                ),
                "big_spend_c2": _to_scaled_int(
                    batch.column("o_totalprice"), 100
                ),
            }
        )
        return (
            t.group_by("o_custkey")
            .aggregate([("n_big_orders", "sum"), ("big_spend_c2", "sum")])
            .rename_columns(["o_custkey", "n_big_orders", "big_spend_c2"])
        )

    return fn


def _ledger_finish(batch: pa.Table) -> pa.Table:
    # both the Ray shuffle join and the Arrow driver join coalesce the key
    # into the LEFT `user_id` column — no right key column in the output
    zero = pa.scalar(0, pa.int64())
    return pa.table(
        {
            "user_key": batch.column("user_id"),
            "n_events": pc.fill_null(batch.column("n_events"), zero),
            "ev_value_c2": pc.fill_null(batch.column("ev_value_c2"), zero),
            "n_big_orders": pc.fill_null(
                batch.column("n_big_orders"), zero
            ),
            "big_spend_c2": pc.fill_null(
                batch.column("big_spend_c2"), zero
            ),
        }
    )


def user_activity_ledger(
    sf_dir: str, min_totalprice: float = BIG_ORDER_MIN_TOTALPRICE
):
    """FULL OUTER join of two pre-reduced aggregates that only partially
    overlap: per-user event activity vs per-customer BIG-order spend
    (orders above ``min_totalprice``). Event-only users (active but never a
    big order) and order-only customers (big spenders with no tracked
    events) both survive with zero-fill — the rows every other join type
    drops from one side. Both sides are reduced to one row per key before
    the join; raw events/orders never enter the shuffle join. Below
    OUTER_JOIN_DRIVER_MAX_ROWS the two pre-reduced sides collect to the
    driver and ONE Arrow full-outer join replaces the shuffle join
    (equality-tested against the distributed path)."""
    ev_partials = read_parquet_nometa(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    ).map_batches(_ledger_ev_partial, batch_format="pyarrow")
    ord_partials = read_parquet_nometa(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        _ledger_ord_partial(min_totalprice), batch_format="pyarrow"
    )
    n_rows = (pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
              + pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows)

    if n_rows <= OUTER_JOIN_DRIVER_MAX_ROWS:
        ev = (
            _collect_or_empty(
                ev_partials,
                pa.schema([("user_id", pa.int64()),
                           ("n_events", pa.int64()),
                           ("ev_value_c2", pa.int64())]),
            )
            .group_by("user_id")
            .aggregate([("n_events", "sum"), ("ev_value_c2", "sum")])
            .rename_columns(["user_id", "n_events", "ev_value_c2"])
        )
        orders = (
            _collect_or_empty(
                ord_partials,
                pa.schema([("o_custkey", pa.int64()),
                           ("n_big_orders", pa.int64()),
                           ("big_spend_c2", pa.int64())]),
            )
            .group_by("o_custkey")
            .aggregate([("n_big_orders", "sum"), ("big_spend_c2", "sum")])
            .rename_columns(["o_custkey", "n_big_orders", "big_spend_c2"])
        )
        joined = ev.join(
            orders, keys="user_id", right_keys="o_custkey",
            join_type="full outer",
        )
        return _ledger_finish(joined)

    from ..functions.tables import stable_rename

    ev = (
        ev_partials
        .groupby("user_id")
        .sum(["n_events", "ev_value_c2"])
        .map_batches(
            stable_rename(["user_id", "n_events", "ev_value_c2"]),
            batch_format="pyarrow",
        )
    )
    orders = (
        ord_partials
        .groupby("o_custkey")
        .sum(["n_big_orders", "big_spend_c2"])
        .map_batches(
            stable_rename(["o_custkey", "n_big_orders", "big_spend_c2"]),
            batch_format="pyarrow",
        )
    )
    return ev.join(
        orders, join_type="full_outer",
        num_partitions=_join_parts(f"{sf_dir}/events.parquet"),
        on=("user_id",), right_on=("o_custkey",),
    ).map_batches(_ledger_finish, batch_format="pyarrow")


def user_activity_ledger_sql() -> str:
    """DuckDB mirror of user_activity_ledger (FULL OUTER + COALESCE)."""
    return f"""
        WITH ev AS (
            SELECT user_id,
                   count(*) AS n_events,
                   CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS ev_value_c2
            FROM events GROUP BY user_id),
        big AS (
            SELECT o_custkey,
                   count(*) AS n_big_orders,
                   CAST(sum(CAST(floor(o_totalprice * 100.0 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS big_spend_c2
            FROM orders
            WHERE o_totalprice > {BIG_ORDER_MIN_TOTALPRICE}
            GROUP BY o_custkey)
        SELECT COALESCE(ev.user_id, big.o_custkey) AS user_key,
               COALESCE(ev.n_events, 0) AS n_events,
               COALESCE(ev.ev_value_c2, 0) AS ev_value_c2,
               COALESCE(big.n_big_orders, 0) AS n_big_orders,
               COALESCE(big.big_spend_c2, 0) AS big_spend_c2
        FROM ev FULL OUTER JOIN big ON big.o_custkey = ev.user_id
    """


# missing-stage sentinel for the funnel combiner: int64 max keeps Arrow/Ray
# Min aggregates null-free and vectorized; decoded back to "never" at the end
_FUNNEL_NEVER = np.iinfo(np.int64).max
FUNNEL_STAGES = ("view", "click", "purchase")


def event_funnel(sf_dir: str) -> pa.Table:
    """Ordered funnel analysis (product-analytics staple): how many users
    completed view -> click -> purchase IN ORDER, judged by each stage's
    FIRST timestamp (strict < between consecutive stages). Shape: per-batch
    (user, min-ts-per-stage) combiner -> one user-keyed groupby of 3-column
    rows (never raw events) -> per-block stage counts -> 3-int driver fold.
    Missing stages ride as an int64-max sentinel so the whole chain stays
    null-free and vectorized."""

    def partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64())
        et = batch.column("event_type")
        cols = {"user_id": batch.column("user_id")}
        for stage in FUNNEL_STAGES:
            cols[f"t_{stage}"] = pc.if_else(
                pc.equal(et, stage), ts, pa.scalar(_FUNNEL_NEVER, pa.int64())
            )
        t = pa.table(cols)
        return (
            t.group_by("user_id")
            .aggregate([(f"t_{s}", "min") for s in FUNNEL_STAGES])
            .rename_columns(["user_id"] + [f"t_{s}" for s in FUNNEL_STAGES])
        )

    from ..functions.tables import stable_rename

    per_user = (
        read_parquet_nometa(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "event_type", "ts"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .min([f"t_{s}" for s in FUNNEL_STAGES])
        .map_batches(
            stable_rename(["user_id"] + [f"t_{s}" for s in FUNNEL_STAGES]),
            batch_format="pyarrow",
        )
    )

    def counts(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("s1", pa.int64()), ("s2", pa.int64()), ("s3", pa.int64())]
            ).empty_table()
        tv = np.asarray(batch.column("t_view"), np.int64)
        tc = np.asarray(batch.column("t_click"), np.int64)
        tp = np.asarray(batch.column("t_purchase"), np.int64)
        s1 = tv != _FUNNEL_NEVER
        s2 = s1 & (tc != _FUNNEL_NEVER) & (tv < tc)
        s3 = s2 & (tp != _FUNNEL_NEVER) & (tc < tp)
        return pa.table(
            {"s1": pa.array([int(s1.sum())], pa.int64()),
             "s2": pa.array([int(s2.sum())], pa.int64()),
             "s3": pa.array([int(s3.sum())], pa.int64())}
        )

    folded = _collect_or_empty(
        per_user.map_batches(counts, batch_format="pyarrow"),
        pa.schema([("s1", pa.int64()), ("s2", pa.int64()),
                   ("s3", pa.int64())]),
    )
    totals = [
        int(pc.sum(folded.column(c)).as_py() or 0) for c in ["s1", "s2", "s3"]
    ]
    return pa.table(
        {
            "stage": pa.array(
                ["view", "view>click", "view>click>purchase"], pa.string()
            ),
            "n_users": pa.array(totals, pa.int64()),
        }
    )


def event_funnel_sql() -> str:
    """DuckDB mirror of event_funnel: first-timestamp-per-stage with strict
    < ordering between consecutive stages (NULL-propagating CASEs match the
    sentinel logic). COALESCE on the stage sums matters: over an EMPTY
    events table sum() is NULL but the engine's fold emits 0 — both sides
    must agree on the zero."""
    return """
        WITH f AS (
            SELECT user_id,
                   min(CASE WHEN event_type = 'view' THEN ts END) AS tv,
                   min(CASE WHEN event_type = 'click' THEN ts END) AS tc,
                   min(CASE WHEN event_type = 'purchase' THEN ts END) AS tp
            FROM events GROUP BY user_id),
        s AS (
            SELECT CASE WHEN tv IS NOT NULL THEN 1 ELSE 0 END AS s1,
                   CASE WHEN tv IS NOT NULL AND tv < tc
                        THEN 1 ELSE 0 END AS s2,
                   CASE WHEN tv IS NOT NULL AND tv < tc AND tc < tp
                        THEN 1 ELSE 0 END AS s3
            FROM f)
        SELECT 'view' AS stage,
               CAST(COALESCE(sum(s1), 0) AS BIGINT) AS n_users FROM s
        UNION ALL
        SELECT 'view>click', CAST(COALESCE(sum(s2), 0) AS BIGINT) FROM s
        UNION ALL
        SELECT 'view>click>purchase',
               CAST(COALESCE(sum(s3), 0) AS BIGINT) FROM s
    """


_US_PER_DAY = 86_400_000_000


def user_retention(sf_dir: str):
    """Cohort retention matrix (growth-analytics staple): users bucketed by
    the week of their FIRST event; for each (cohort_week, week_offset),
    how many of that cohort were active offset weeks later. Shape: distinct
    (user, week) activity via a per-batch dedup combiner + one keyed
    groupby; the cohort side derives from the SAME deduped stream
    (materialized once — bounded by users x weeks, far below raw events);
    then a pre-reduced inner hash join on user and a (cohort, offset)
    count combiner into a tiny groupby. Raw events never shuffle.

    Weeks are epoch-microseconds // us_per_day // 7 — integer division on
    positives, identical in Arrow (trunc) and DuckDB (// floor)."""

    def week_rows(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64())
        week = pc.divide(pc.divide(us, _US_PER_DAY), 7)
        return (
            pa.table({"user_id": batch.column("user_id"), "week": week})
            .group_by(["user_id", "week"])
            .aggregate([])
        )

    from ..functions.tables import stable_rename

    week_partials = read_parquet_nometa(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    ).map_batches(week_rows, batch_format="pyarrow")

    if (pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
            <= OUTER_JOIN_DRIVER_MAX_ROWS):
        # driver twin: the per-batch dedup already shrank the stream to
        # distinct (user, week) per batch — finishing with three Arrow
        # kernels beats FOUR fixed-cost distributed exchanges (distinct
        # groupby, min groupby, hash join, count groupby) on tiny data
        # (measured 11.5 s -> ~0.5 s at sf0.1). Equality tested.
        act = _collect_or_empty(
            week_partials,
            pa.schema([("user_id", pa.int64()), ("week", pa.int64())]),
        ).group_by(["user_id", "week"]).aggregate([])
        cohort = (
            act.group_by("user_id").aggregate([("week", "min")])
            .rename_columns(["user_id", "cohort_week"])
        )
        joined = act.join(cohort, keys="user_id", join_type="inner")
        off = pc.subtract(
            joined.column("week"), joined.column("cohort_week")
        )
        return (
            pa.table(
                {"cohort_week": joined.column("cohort_week"),
                 "week_offset": off,
                 "n_users": pa.array(
                     np.ones(joined.num_rows, dtype=np.int64))}
            )
            .group_by(["cohort_week", "week_offset"])
            .aggregate([("n_users", "sum")])
            .rename_columns(["cohort_week", "week_offset", "n_users"])
        )

    activity = (
        week_partials
        .groupby(["user_id", "week"])
        .count()
        .map_batches(
            stable_rename(["user_id", "week", "n"]),
            batch_format="pyarrow",
        )
        .drop_columns(["n"])
        .materialize()  # consumed twice; bounded by distinct (user, week)
    )
    cohort = activity.groupby("user_id").min("week").map_batches(
        stable_rename(["user_id", "cohort_week"]),
        batch_format="pyarrow",
    )

    def offsets(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "cohort_week": batch.column("cohort_week"),
                "week_offset": pc.subtract(
                    batch.column("week"), batch.column("cohort_week")
                ),
                "n_users": pa.array(
                    np.ones(batch.num_rows, dtype=np.int64)
                ),
            }
        )
        return (
            t.group_by(["cohort_week", "week_offset"])
            .aggregate([("n_users", "sum")])
            .rename_columns(["cohort_week", "week_offset", "n_users"])
        )

    return (
        activity.join(
            cohort, join_type="inner",
            num_partitions=_join_parts(f"{sf_dir}/events.parquet"),
            on=("user_id",),
        )
        .map_batches(offsets, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=2))
        .groupby(["cohort_week", "week_offset"])
        .sum("n_users")
        .map_batches(
            stable_rename(["cohort_week", "week_offset", "n_users"]),
            batch_format="pyarrow",
        )
    )


def user_retention_sql() -> str:
    """DuckDB mirror of user_retention: same integer week arithmetic,
    distinct activity, min-week cohort, offset counts."""
    return f"""
        WITH a AS (
            SELECT DISTINCT user_id,
                   CAST(epoch_us(ts) AS BIGINT) // {_US_PER_DAY} // 7
                       AS week
            FROM events),
        c AS (SELECT user_id, min(week) AS cohort_week
              FROM a GROUP BY user_id)
        SELECT c.cohort_week,
               a.week - c.cohort_week AS week_offset,
               count(*) AS n_users
        FROM a JOIN c USING (user_id)
        GROUP BY c.cohort_week, week_offset
    """
