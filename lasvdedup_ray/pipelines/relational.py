"""Relational operator coverage over the driver's TPC-H-ish tables.

Each query here is a Ray-Data-first pipeline with an exactly-matching ANSI
SQL oracle in ``__ray_entry__.oracle_sql`` (same column names, same
quantization, deterministic tie-breaks).  They exercise the engine surface
SURVEY §2 maps: pruned parquet reads, vectorized batch transforms, partial
pre-aggregation before groupby shuffles, broadcast joins for small sides,
hash joins, sorts, top-k, and windowed (tumbling) aggregates.

Float determinism: float aggregates are QUANTIZED to int64 (``*_e4`` =
value * 10^4 rounded) in BOTH the Ray pipeline and the SQL oracle.  Rounded
doubles from two engines can differ in the last bit (different summation
orders + different round() kernels), which flips row ordering and value
hashes; integer quantization makes the comparison exact.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum
from ..stages.exchange import cluster_cpus, hash_exchange, worker_get
from ..sources.readers import read_parquet_clean

# ---- size-gated join planning ---------------------------------------------
# A dimension side is BROADCAST (ray.put once, worker-cached lookup, no
# shuffle of the fact table) only while its on-disk parquet size fits this
# budget; beyond it the plan switches to a distributed hash join — a
# fact-sized table must never become driver state (VERDICT r1 #1).
BROADCAST_BUDGET_BYTES = 64 * (1 << 20)

def _fits_broadcast(*paths: str, budget: int) -> bool:
    try:
        return sum(os.path.getsize(p) for p in paths) <= budget
    except OSError:
        return False


def _join_partitions(requested: int = 32) -> int:
    """Clamp hash-join partition count to the cluster CPU count: Ray's
    hash-shuffle join spawns aggregator actors per partition and DEADLOCKS
    when they exceed available CPUs (observed on Ray 2.49 local mode)."""
    return max(2, min(requested, cluster_cpus()))


def quantize(t: pa.Table, cols, scale: int = 10_000, suffix: str = "_e4") -> pa.Table:
    """Replace float columns with int64 ``round(value * scale)`` columns
    named ``<col><suffix>`` (rounding half away from zero, = DuckDB round)."""
    for c in cols:
        i = t.schema.get_field_index(c)
        q = pc.round(
            pc.multiply(pc.cast(t[c], pa.float64()), pa.scalar(float(scale))),
            ndigits=0,
            round_mode="half_towards_infinity",
        )
        t = t.remove_column(i)
        t = t.add_column(i, c + suffix, pc.cast(q, pa.int64()))
    return t


def q1_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1 shape: filtered scan -> grouped aggregate.
    Columns pruned at the read; revenue derived vectorized per batch.

    The aggregate is a map-side COMBINER (Arrow group_by per batch — at
    most 6 partial rows leave each block) + one tiny grouped-sum exchange;
    source rows never cross a shuffle and no Ray Aggregate operator runs
    (its schemaless empty reduce partitions diverge downstream bundle
    schemas when groups < partitions)."""
    from ..stages.exchange import grouped_sum_exchange

    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_shipdate",
        ],
    )
    cutoff = pa.scalar(pd.Timestamp("1998-09-02"), pa.timestamp("us"))
    KEYS = ["l_returnflag", "l_linestatus"]
    SUMS = ["sum_qty", "sum_base_price", "sum_disc_price"]

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
        disc_price = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        g = (
            t.append_column("disc_price", disc_price)
            .select(KEYS + ["l_quantity", "l_extendedprice", "disc_price"])
            .group_by(KEYS)
            .aggregate(
                [
                    ("l_quantity", "sum"),
                    ("l_extendedprice", "sum"),
                    ("disc_price", "sum"),
                    ([], "count_all"),
                ]
            )
        )
        return pa.table(
            {
                "l_returnflag": g["l_returnflag"],
                "l_linestatus": g["l_linestatus"],
                "sum_qty": g["l_quantity_sum"],
                "sum_base_price": g["l_extendedprice_sum"],
                "sum_disc_price": g["disc_price_sum"],
                "count_order": g["count_all"],
            }
        )

    agg = grouped_sum_exchange(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=KEYS,
        sum_cols=SUMS,
        count_col="count_order",
    )

    def finish(t: pa.Table) -> pa.Table:
        avg = pc.divide(
            pc.cast(t["sum_qty"], pa.float64()),
            pc.cast(t["count_order"], pa.float64()),
        )
        t = t.append_column("avg_qty", avg)
        return quantize(t, SUMS + ["avg_qty"])

    return agg.map_batches(finish, batch_format="pyarrow").sort(KEYS)


def q3_top_orders(
    sf_dir: str, broadcast_budget: int = BROADCAST_BUDGET_BYTES
) -> ray.data.Dataset:
    """Join + aggregate + deterministic top-10 (revenue DESC, o_orderkey ASC).

    Size-gated plan: ``orders`` is broadcast (dict via ray.put, worker-
    cached) while its parquet fits ``broadcast_budget``; beyond that it is
    fact-sized and the plan switches to a distributed hash join of the
    (already per-order pre-aggregated) revenue against ``orders``."""
    li = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def part_rev(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})

    rev_by_order = (
        li.map_batches(part_rev, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("rev", alias_name="revenue"))
    )
    opath = f"{sf_dir}/orders.parquet"
    ocols = ["o_orderkey", "o_orderdate", "o_orderpriority"]

    if _fits_broadcast(opath, budget=broadcast_budget):
        import pyarrow.parquet as pq

        ot = pq.read_table(opath, columns=ocols)
        omap = {
            int(k): (int(d) // 1_000_000, p)
            for k, d, p in zip(
                ot["o_orderkey"].to_pylist(),
                ot["o_orderdate"].cast(pa.int64()).to_pylist(),
                ot["o_orderpriority"].to_pylist(),
            )
        }
        oref = ray.put(omap)

        def attach_order(t: pa.Table) -> pa.Table:
            om = worker_get(oref, "q3.orders")
            keys = t["l_orderkey"].to_pylist()
            hits = [om.get(int(k)) for k in keys]
            mask = pa.array([h is not None for h in hits])
            out = pa.table(
                {
                    "o_orderkey": t["l_orderkey"],
                    "revenue": t["revenue"],
                    "o_orderdate_s": pa.array(
                        [h[0] if h else 0 for h in hits], pa.int64()
                    ),
                    "o_orderpriority": pa.array(
                        [h[1] if h else "" for h in hits], pa.string()
                    ),
                }
            ).filter(mask)
            return quantize(out, ["revenue"])

        out = rev_by_order.map_batches(attach_order, batch_format="pyarrow")
    else:
        orders_ds = read_parquet_clean(opath, columns=ocols)
        j = rev_by_order.join(
            orders_ds,
            join_type="inner",
            num_partitions=_join_partitions(),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        )

        def finish(t: pa.Table) -> pa.Table:
            out = pa.table(
                {
                    "o_orderkey": t["l_orderkey"],
                    "revenue": t["revenue"],
                    "o_orderdate_s": pc.divide(
                        pc.cast(t["o_orderdate"], pa.int64()), 1_000_000
                    ),
                    "o_orderpriority": t["o_orderpriority"],
                }
            )
            return quantize(out, ["revenue"])

        out = j.map_batches(finish, batch_format="pyarrow")
    return out.sort(["revenue_e4", "o_orderkey"], descending=[True, False]).limit(10)


def q5_nation_revenue(
    sf_dir: str, broadcast_budget: int = BROADCAST_BUDGET_BYTES
) -> ray.data.Dataset:
    """Revenue by nation.  While orders+customer fit the broadcast budget,
    all three dimension hops (orderkey -> custkey -> nationkey -> name) are
    many-to-one LOOKUPS via broadcast numpy arrays (ray.put once, worker-
    cached) with a per-batch combiner — the only shuffle is the 25-row
    final groupby.  Beyond the budget (fact-sized sides must not become
    driver state) the plan is: per-order pre-aggregate -> hash join orders
    -> per-customer aggregate -> hash join customer -> per-nation
    aggregate, with only nation (25 rows) broadcast."""
    import pyarrow.parquet as pq

    opath = f"{sf_dir}/orders.parquet"
    cpath = f"{sf_dir}/customer.parquet"
    nation_t = pq.read_table(f"{sf_dir}/nation.parquet")
    li = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    if _fits_broadcast(opath, cpath, budget=broadcast_budget):
        orders_t = pq.read_table(opath, columns=["o_orderkey", "o_custkey"])
        cust_t = pq.read_table(cpath, columns=["c_custkey", "c_nationkey"])
        # dense lookup arrays indexed by key (keys are small positive ints)
        ok = np.asarray(orders_t["o_orderkey"], dtype=np.int64)
        oc = np.asarray(orders_t["o_custkey"], dtype=np.int64)
        order2cust = np.full(ok.max() + 1, -1, dtype=np.int64)
        order2cust[ok] = oc
        ck = np.asarray(cust_t["c_custkey"], dtype=np.int64)
        cn = np.asarray(cust_t["c_nationkey"], dtype=np.int64)
        cust2nat = np.full(ck.max() + 1, -1, dtype=np.int64)
        cust2nat[ck] = cn
        nk = np.asarray(nation_t["n_nationkey"], dtype=np.int64)
        names = nation_t["n_name"].to_pylist()
        nat_names = [""] * (int(nk.max()) + 1)
        for k, nm in zip(nk, names):
            nat_names[int(k)] = nm
        ref = ray.put((order2cust, cust2nat, nat_names))

        def partial(t: pa.Table) -> pa.Table:
            o2c, c2n, nn = worker_get(ref, "q5.maps")
            okeys = t["l_orderkey"].to_numpy(zero_copy_only=False)
            rev = (
                t["l_extendedprice"].to_numpy(zero_copy_only=False)
                * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False))
            )
            nat = c2n[o2c[okeys]]  # inner-join semantics: -1 = missing
            ok_mask = nat >= 0
            sums = np.bincount(nat[ok_mask], weights=rev[ok_mask], minlength=len(nn))
            hit = np.flatnonzero(sums != 0)
            return pa.table(
                {
                    "n_name": pa.array([nn[i] for i in hit], pa.string()),
                    "prev": pa.array(sums[hit], pa.float64()),
                }
            )

        nat_partials = li.map_batches(partial, batch_format="pyarrow")
    else:
        # distributed plan: shrink the fact first (per-order pre-aggregate),
        # then two hash joins with an aggregate between them (the aggregate
        # both shrinks the next join's input and heals block schemas)
        def part_rev(t: pa.Table) -> pa.Table:
            rev = pc.multiply(
                t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
            )
            return pa.table({"l_orderkey": t["l_orderkey"], "prev": rev})

        rev_by_order = (
            li.map_batches(part_rev, batch_format="pyarrow")
            .groupby("l_orderkey")
            .aggregate(Sum("prev", alias_name="prev"))
        )
        orders_ds = read_parquet_clean(opath, columns=["o_orderkey", "o_custkey"])
        cust_ds = read_parquet_clean(cpath, columns=["c_custkey", "c_nationkey"])
        rev_by_cust = (
            rev_by_order.join(
                orders_ds,
                join_type="inner",
                num_partitions=_join_partitions(),
                on=("l_orderkey",),
                right_on=("o_orderkey",),
            )
            .groupby("o_custkey")
            .aggregate(Sum("prev", alias_name="prev"))
        )
        rev_by_nat = (
            rev_by_cust.join(
                cust_ds,
                join_type="inner",
                num_partitions=_join_partitions(),
                on=("o_custkey",),
                right_on=("c_custkey",),
            )
            .groupby("c_nationkey")
            .aggregate(Sum("prev", alias_name="prev"))
        )
        nmap = dict(
            zip(
                (int(x) for x in nation_t["n_nationkey"].to_pylist()),
                nation_t["n_name"].to_pylist(),
            )
        )
        nref = ray.put(nmap)

        def attach_name(t: pa.Table) -> pa.Table:
            nn = worker_get(nref, "q5.nations")
            keys = [int(k) for k in t["c_nationkey"].to_pylist()]
            return pa.table(
                {
                    "n_name": pa.array([nn[k] for k in keys], pa.string()),
                    "prev": t["prev"],
                }
            )

        nat_partials = rev_by_nat.map_batches(attach_name, batch_format="pyarrow")

    # both plans emit tiny (n_name, prev) partials — one grouped-sum
    # exchange replaces the 25-group Ray Aggregate (see q1 docstring)
    from ..stages.exchange import grouped_sum_exchange

    agg = grouped_sum_exchange(nat_partials, keys=["n_name"], sum_cols=["prev"])

    def finish(t: pa.Table) -> pa.Table:
        t = t.rename_columns(["n_name", "revenue"])
        return quantize(t, ["revenue"])

    return agg.map_batches(finish, batch_format="pyarrow").sort("n_name")


def events_by_type(sf_dir: str) -> ray.data.Dataset:
    """Partial pre-aggregation inside map_batches, then a tiny groupby —
    the combiner pattern for scale (SURVEY §4)."""
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("event_type").aggregate([("value", "sum"), ("value", "count")])
        return pa.table(
            {
                "event_type": g["event_type"],
                "psum": g["value_sum"],
                "pcount": g["value_count"],
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("psum", alias_name="sum_value"), Sum("pcount", alias_name="n_events"))
    )
    return agg.map_batches(
        lambda t: quantize(
            t.append_column(
                "avg_value", pc.divide(t["sum_value"], pc.cast(t["n_events"], pa.float64()))
            ),
            ["sum_value", "avg_value"],
        ),
        batch_format="pyarrow",
    ).sort("event_type")


def events_hourly(sf_dir: str) -> ray.data.Dataset:
    """Tumbling 1h window per event_type: epoch-floor key + groupby
    (streaming-shaped workload as a batch window aggregate).  Window start
    is emitted as integer epoch-seconds for engine-exact comparison."""
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def win(t: pa.Table) -> pa.Table:
        epoch = pc.cast(t["ts"], pa.int64())  # microseconds
        hour_s = pc.multiply(pc.divide(epoch, 3_600_000_000), 3600)
        return pa.table(
            {
                "event_type": t["event_type"],
                "window_start_s": hour_s,
                "value": t["value"],
            }
        )

    agg = (
        ds.map_batches(win, batch_format="pyarrow")
        .groupby(["event_type", "window_start_s"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
    )
    return agg.map_batches(
        lambda t: quantize(t, ["sum_value"]), batch_format="pyarrow"
    ).sort(["event_type", "window_start_s"])


def top_users_by_value(sf_dir: str) -> ray.data.Dataset:
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    agg = ds.groupby("user_id").aggregate(
        Sum("value", alias_name="total_value"), Count(alias_name="n_events")
    )
    out = agg.map_batches(lambda t: quantize(t, ["total_value"]), batch_format="pyarrow")
    return out.sort(["total_value_e4", "user_id"], descending=[True, False]).limit(20)


def brand_revenue(sf_dir: str) -> ray.data.Dataset:
    """Fact-to-dimension broadcast join: part (small) shipped once via
    ray.put as a sorted-key numpy array + dictionary-encoded brand column,
    probed per batch with a vectorized ``np.searchsorted`` — no shuffle of
    lineitem and no per-row Python loop (VERDICT r3 #5)."""
    part = (
        read_parquet_clean(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])
        .sort("p_partkey")
        .to_pandas()
    )
    keys_sorted = part["p_partkey"].to_numpy(dtype=np.int64)
    brand_arr = pa.array(part["p_brand"], pa.string())
    ref = ray.put((keys_sorted, brand_arr))

    li = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )

    def to_brand(t: pa.Table) -> pa.Table:
        ks, brands = worker_get(ref, "brand_revenue.brands")
        keys = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        if len(ks) == 0:
            # empty dimension table: inner join drops every fact row.
            # Guard BEFORE indexing ks — numpy & does not short-circuit,
            # so ks[pos_c] on an empty ks would raise (ADVICE r4).
            return pa.table(
                {"p_brand": pa.array([], pa.string()), "rev": pa.array([], pa.float64())}
            )
        pos = np.searchsorted(ks, keys)
        pos_c = np.minimum(pos, len(ks) - 1)
        valid = ks[pos_c] == keys
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        # inner-join semantics: drop fact rows with no matching part key
        sel = pa.array(valid)
        return pa.table(
            {
                "p_brand": brands.take(pa.array(pos_c[valid], pa.int64())),
                "rev": rev.filter(sel),
            }
        )

    agg = (
        li.map_batches(to_brand, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(Sum("rev", alias_name="revenue"), Count(alias_name="n_items"))
    )
    return agg.map_batches(
        lambda t: quantize(t, ["revenue"]), batch_format="pyarrow"
    ).sort("p_brand")


SESSION_GAP_S = 1800  # 30 min


SESSION_PARTITIONS = 64


def user_sessions(sf_dir: str) -> ray.data.Dataset:
    """Gap-based sessionization (streaming-shaped workload as a batch
    window op): a >30 min gap starts a new session.  Execution shape:
    ONE hash-partition shuffle on ``user_id % P`` and a fully vectorized
    within-partition pass — lexsort by (user, ts), numpy diff for session
    boundaries, bincount for per-user/per-session sizes.  (A per-user Ray
    ``groupby.map_groups`` is one Python call + one pandas conversion per
    user — the many-tiny-groups landmine, VERDICT r1 #6.)  Ordering is
    established inside the partition sort; no global order is relied on."""
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def add_pkey(t: pa.Table) -> pa.Table:
        pk = pc.cast(
            pc.bit_wise_and(t["user_id"], pa.scalar(SESSION_PARTITIONS - 1)), pa.int32()
        )
        return t.append_column("pkey", pk)

    def sessions_partition(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_sessions": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "max_session_events": pa.array([], pa.int64()),
                }
            )
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts_s = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(
            np.int64
        ) // 1_000_000
        order = np.lexsort((ts_s, uid))
        uid, ts_s = uid[order], ts_s[order]
        n = len(uid)
        user_start = np.ones(n, dtype=bool)
        user_start[1:] = uid[1:] != uid[:-1]
        new_session = user_start.copy()
        new_session[1:] |= (ts_s[1:] - ts_s[:-1]) > SESSION_GAP_S
        # per-user aggregates via run-length structure
        starts = np.flatnonzero(user_start)
        n_events = np.diff(np.append(starts, n))
        sess_cum = np.cumsum(new_session)  # global session ids (1-based)
        n_sessions = np.empty(len(starts), dtype=np.int64)
        ends = np.append(starts[1:], n) - 1
        n_sessions = sess_cum[ends] - sess_cum[starts] + 1
        # per-session sizes -> per-user max: sessions are contiguous runs
        sess_sizes = np.bincount(sess_cum - 1)
        sess_user = np.repeat(np.arange(len(starts)), n_sessions)
        max_per_user = np.zeros(len(starts), dtype=np.int64)
        np.maximum.at(max_per_user, sess_user, sess_sizes)
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "n_sessions": pa.array(n_sessions, pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
                "max_session_events": pa.array(max_per_user, pa.int64()),
            }
        )

    return hash_exchange(
        ds.map_batches(add_pkey, batch_format="pyarrow"),
        "pkey",
        SESSION_PARTITIONS,
        lambda t: sessions_partition(t.drop_columns(["pkey"])),
    ).sort("user_id")


def supplier_balance_stats(sf_dir: str) -> ray.data.Dataset:
    """Min/Max/Mean aggregate over a dimension table grouped by nation."""
    ds = read_parquet_clean(
        f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"]
    )
    agg = ds.groupby("s_nationkey").aggregate(
        Min("s_acctbal", alias_name="min_bal"),
        Max("s_acctbal", alias_name="max_bal"),
        Mean("s_acctbal", alias_name="avg_bal"),
        Count(alias_name="n_suppliers"),
    )
    out = agg.map_batches(
        lambda t: quantize(t, ["min_bal", "max_bal", "avg_bal"]), batch_format="pyarrow"
    )
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("s_nationkey"),
            "s_nationkey",
            pc.cast(t["s_nationkey"], pa.int64()),
        ),
        batch_format="pyarrow",
    ).sort("s_nationkey")


TOPK_PER_GROUP = 3
TOPK_PARTITIONS = 64


def top_orders_per_cust(sf_dir: str) -> ray.data.Dataset:
    """Per-group top-k WITHOUT a global sort: each customer's 3 highest-
    value orders (ties broken by o_orderkey).  Execution shape: a per-batch
    partial top-k (lexsort + run-length rank, keeps <= k rows per customer
    per batch) shrinks the shuffle to O(k * customers), then ONE hash
    shuffle on ``o_custkey % P`` and the same vectorized pass per
    partition emits the final ranks.  Per-group ``map_groups`` would be a
    Python call per customer — the many-tiny-groups landmine."""
    ds = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def _topk(t: pa.Table, k: int, with_rank: bool) -> pa.Table:
        cust = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        okey = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        price = t["o_totalprice"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((okey, -price, cust))
        cs, ks, ps = cust[order], okey[order], price[order]
        n = len(cs)
        starts = np.ones(n, dtype=bool)
        if n > 1:
            starts[1:] = cs[1:] != cs[:-1]
        run_id = np.cumsum(starts) - 1
        rank = np.arange(n) - np.flatnonzero(starts)[run_id]
        keep = rank < k
        cols = {
            "o_custkey": pa.array(cs[keep], pa.int64()),
            "o_orderkey": pa.array(ks[keep], pa.int64()),
            "o_totalprice": pa.array(ps[keep], pa.float64()),
        }
        if with_rank:
            cols["rnk"] = pa.array(rank[keep] + 1, pa.int64())
        return pa.table(cols)

    def partial(t: pa.Table) -> pa.Table:
        out = _topk(t, TOPK_PER_GROUP, with_rank=False)
        pk = pc.cast(
            pc.bit_wise_and(out["o_custkey"], pa.scalar(TOPK_PARTITIONS - 1)),
            pa.int32(),
        )
        return out.append_column("pkey", pk)

    def final(t: pa.Table) -> pa.Table:
        out = _topk(t.drop_columns(["pkey"]), TOPK_PER_GROUP, with_rank=True)
        out = quantize(out, ["o_totalprice"], scale=10_000, suffix="_e4")
        return out.rename_columns(
            ["o_custkey", "o_orderkey", "total_e4", "rnk"]
        )

    return hash_exchange(
        ds.map_batches(partial, batch_format="pyarrow"),
        "pkey",
        TOPK_PARTITIONS,
        final,
    ).sort(["o_custkey", "rnk"])


ANTI_PARTITIONS = 64


def customers_without_orders(sf_dir: str) -> ray.data.Dataset:
    """Exact distributed ANTI JOIN (customer minus orders.o_custkey) with
    one slim key shuffle: both sides project to their key column, the
    orders side pre-dedups per batch, rows are tagged and co-partitioned
    by ``key % P``, and each partition emits left keys absent from the
    right via a vectorized ``np.isin``.  No bloom false-positive risk, no
    driver-side key set — exact at any scale."""
    cust = read_parquet_clean(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    orders = read_parquet_clean(f"{sf_dir}/orders.parquet", columns=["o_custkey"])

    def tag(col: str, kind: int):
        def fn(t: pa.Table) -> pa.Table:
            k = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
            if kind == 1:
                k = np.unique(k)  # per-batch dedup shrinks the shuffle
            return pa.table(
                {
                    "key": pa.array(k, pa.int64()),
                    "kind": pa.array(np.full(len(k), kind, np.int8), pa.int8()),
                    "pkey": pa.array(
                        (k & (ANTI_PARTITIONS - 1)).astype(np.int32), pa.int32()
                    ),
                }
            )

        return fn

    tagged = cust.map_batches(tag("c_custkey", 0), batch_format="pyarrow").union(
        orders.map_batches(tag("o_custkey", 1), batch_format="pyarrow")
    )

    def anti(t: pa.Table) -> pa.Table:
        k = t["key"].to_numpy(zero_copy_only=False)
        kind = t["kind"].to_numpy(zero_copy_only=False)
        left = k[kind == 0]
        right = k[kind == 1]
        out = left[~np.isin(left, right)]
        return pa.table({"c_custkey": pa.array(np.sort(out), pa.int64())})

    out = hash_exchange(
        tagged,
        "pkey",
        ANTI_PARTITIONS,
        lambda t: anti(t.drop_columns(["pkey"])),
    ).materialize()  # final slim key column only (8 B/row)
    # all-blocks-empty results are schemaless in Ray 2.49 (map_groups and
    # to_pandas drop the schema of 0-row outputs); return the typed empty
    # Arrow table directly so consumers still see the column
    if out.count() == 0:
        return pa.table({"c_custkey": pa.array([], pa.int64())})
    return out.sort("c_custkey")


QUANTILE_QS = (0.5, 0.9, 0.99)
QUANTILE_DRIVER_CAP = 65536
QUANTILE_BINS = 4096
QUANTILE_MAX_PASSES = 6


def order_price_quantiles(sf_dir: str, qs=QUANTILE_QS):
    """EXACT distributed quantiles (DuckDB ``quantile_disc`` semantics:
    the element at 1-based rank ceil(q*n)) without a global sort:
    iterative histogram refinement.  Pass 0 finds (n, min, max); each
    subsequent pass histograms the current [lo, hi] candidate range into
    fixed bins (one streaming count per pass, O(bins) driver state),
    narrows to the bin containing the target rank, and finishes by
    collecting only that bin's values (<= QUANTILE_DRIVER_CAP) for an
    exact driver-side selection.  Each pass first shrinks the range to the
    smallest and largest value it holds, so a slice of ties is zero-width;
    it holds only the answer and is emitted without collecting it.  A
    range still above the cap after ``QUANTILE_MAX_PASSES`` refinements
    raises instead of collecting an unbounded slice."""
    path = f"{sf_dir}/orders.parquet"

    def scan():
        return read_parquet_clean(path, columns=["o_totalprice"])

    stats = scan().aggregate(
        Count(alias_name="n"),
        Min("o_totalprice", alias_name="lo"),
        Max("o_totalprice", alias_name="hi"),
    )
    n, glo, ghi = int(stats["n"]), float(stats["lo"]), float(stats["hi"])
    results = []
    for q in qs:
        rank = max(1, int(np.ceil(q * n)))  # 1-based target rank
        lo, hi, below = glo, ghi, 0  # `below` = ranks strictly left of lo
        for passes in range(QUANTILE_MAX_PASSES + 1):
            # shrink [lo, hi] to the values it holds: the same slice, so
            # `below` is unchanged, and a slice of ties becomes zero-width
            in_cnt, lo, hi = _range_stats(scan(), lo, hi)
            if lo == hi:
                # every value left in the candidate slice equals the answer
                results.append((q, lo))
                break
            # direct collection once the candidate slice is small enough
            if in_cnt <= QUANTILE_DRIVER_CAP:
                vals = _range_values(scan(), lo, hi)
                vals.sort()
                results.append((q, float(vals[rank - below - 1])))
                break
            if passes == QUANTILE_MAX_PASSES:
                raise RuntimeError(
                    f"order_price_quantiles: {in_cnt} candidate values in "
                    f"[{lo!r}, {hi!r}] for q={q} after {QUANTILE_MAX_PASSES} "
                    f"refinement passes, above the {QUANTILE_DRIVER_CAP}-value "
                    "driver cap"
                )
            edges = np.linspace(lo, hi, QUANTILE_BINS + 1)
            counts = _histogram_pass(scan(), edges)
            cum = np.cumsum(counts)
            b = int(np.searchsorted(cum, rank - below))
            below += int(cum[b - 1]) if b > 0 else 0
            lo, hi = float(edges[b]), float(edges[b + 1])
    t = pa.table(
        {
            "q_pct": pa.array([int(round(q * 100)) for q, _ in results], pa.int64()),
            "price": pa.array([v for _, v in results], pa.float64()),
        }
    )
    return quantize(t, ["price"], scale=10_000, suffix="_e4")


def _range_stats(ds: ray.data.Dataset, lo: float, hi: float) -> tuple:
    """(count, min, max) of the values in [lo, hi]; the range must hold at
    least one value."""

    def stats(t: pa.Table) -> pa.Table:
        v = t["o_totalprice"].to_numpy(zero_copy_only=False)
        v = v[(v >= lo) & (v <= hi)]
        return pa.table(
            {
                "c": pa.array([v.size], pa.int64()),
                "lo": pa.array([v.min() if v.size else hi], pa.float64()),
                "hi": pa.array([v.max() if v.size else lo], pa.float64()),
            }
        )

    out = ds.map_batches(stats, batch_format="pyarrow").aggregate(
        Sum("c", alias_name="c"), Min("lo", alias_name="lo"), Max("hi", alias_name="hi")
    )
    return int(out["c"]), float(out["lo"]), float(out["hi"])


def _range_values(ds: ray.data.Dataset, lo: float, hi: float) -> np.ndarray:
    def grab(t: pa.Table) -> pa.Table:
        v = t["o_totalprice"].to_numpy(zero_copy_only=False)
        return pa.table({"v": pa.array(v[(v >= lo) & (v <= hi)], pa.float64())})

    rows = ds.map_batches(grab, batch_format="pyarrow").take_all()
    return np.array([r["v"] for r in rows], dtype=np.float64)


def _histogram_pass(ds: ray.data.Dataset, edges: np.ndarray) -> np.ndarray:
    nb = len(edges) - 1
    eref = ray.put(edges)

    def hist(t: pa.Table) -> pa.Table:
        e = ray.get(eref)
        v = t["o_totalprice"].to_numpy(zero_copy_only=False)
        v = v[(v >= e[0]) & (v <= e[-1])]
        idx = np.clip(np.searchsorted(e, v, side="right") - 1, 0, nb - 1)
        return pa.table(
            {
                "bin": pa.array(np.arange(nb), pa.int64()),
                "cnt": pa.array(np.bincount(idx, minlength=nb).astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )
    counts = np.zeros(nb, dtype=np.int64)
    for r in rows:
        counts[r["bin"]] = r["cnt"]
    return counts


# ---------------------------------------------------------------------------
# Exact COUNT(DISTINCT) at scale: the two-level distinct pattern.
DISTINCT_PARTITIONS = 64


def distinct_users_daily(sf_dir: str) -> ray.data.Dataset:
    """Distinct active users per (event_type, day): exact COUNT(DISTINCT)
    with the scalable two-level plan — each batch first collapses to its
    LOCAL distinct (event_type, day, user) triples (cutting shuffle volume
    by the in-batch duplication factor), triples are hash-partitioned by
    user_id (every copy of a triple lands in exactly one partition, so
    per-partition distinct counts sum globally), and one vectorized
    np.unique pass per partition emits (event_type, day, partial_count)
    rows into a tiny final groupby.  No global distinct shuffle of raw
    events, no driver-side set."""
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "user_id"]
    )

    def local_distinct(t: pa.Table) -> pa.Table:
        epoch = pc.cast(t["ts"], pa.int64())  # microseconds
        day_s = pc.multiply(pc.divide(epoch, 86_400_000_000), 86400)
        tbl = pa.table(
            {
                "event_type": t["event_type"],
                "day_s": day_s,
                "user_id": t["user_id"],
            }
        )
        tbl = tbl.group_by(["event_type", "day_s", "user_id"]).aggregate([])
        uid = tbl["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return tbl.append_column(
            "pkey",
            pa.array((uid % DISTINCT_PARTITIONS).astype(np.int32), pa.int32()),
        )

    PARTIAL = pa.schema(
        [("event_type", pa.string()), ("day_s", pa.int64()), ("part_n", pa.int64())]
    )

    def count_partition(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "user_id" not in g.column_names:
            return PARTIAL.empty_table()
        # one distinct pass over the partition's triples, then count per
        # (event_type, day) — all arrow/numpy, no per-group Python
        tbl = g.group_by(["event_type", "day_s", "user_id"]).aggregate([])
        counted = tbl.group_by(["event_type", "day_s"]).aggregate(
            [("user_id", "count")]
        )
        return pa.table(
            {
                "event_type": counted["event_type"],
                "day_s": counted["day_s"],
                "part_n": pc.cast(counted["user_id_count"], pa.int64()),
            },
            schema=PARTIAL,
        )

    agg = (
        hash_exchange(
            ds.map_batches(local_distinct, batch_format="pyarrow"),
            "pkey",
            DISTINCT_PARTITIONS,
            lambda t: count_partition(
                t.drop_columns(["pkey"]) if "pkey" in t.column_names else t
            ),
        )
        .groupby(["event_type", "day_s"])
        .aggregate(Sum("part_n", alias_name="distinct_users"))
    )
    return agg.sort(["event_type", "day_s"])


# ---------------------------------------------------------------------------
# Streaming dedup (debounce): repeated (user, event_type) events arriving
# within DEBOUNCE_GAP_S of the PREVIOUS event are suppressed — only the
# first event of each burst survives.  Gap constant is query semantics,
# mirrored in the SQL oracle.
DEBOUNCE_GAP_S = 60


def event_debounce(sf_dir: str) -> ray.data.Dataset:
    """Windowed streaming dedup as a batch op: ONE hash-partition shuffle
    on user_id, then a fully vectorized within-partition pass (lexsort by
    (user, type, ts, event_id), numpy diff for burst boundaries).  An
    event survives iff it starts a burst: first of its (user, type) key or
    arriving more than DEBOUNCE_GAP_S after the immediately preceding
    event of that key.  Same execution shape as ``user_sessions`` —
    per-key ordering is established inside the partition, no global
    sort."""
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type", "ts"]
    )

    def add_pkey(t: pa.Table) -> pa.Table:
        pk = pc.cast(
            pc.bit_wise_and(t["user_id"], pa.scalar(SESSION_PARTITIONS - 1)), pa.int32()
        )
        return t.append_column("pkey", pk)

    OUT = pa.schema(
        [
            ("user_id", pa.int64()),
            ("event_type", pa.string()),
            ("ts_s", pa.int64()),
            ("event_id", pa.int64()),
        ]
    )

    def debounce_partition(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return OUT.empty_table()
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ety = np.asarray(t["event_type"].to_pylist(), dtype=object)
        ts_s = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(
            np.int64
        ) // 1_000_000
        order = np.lexsort((eid, ts_s, ety, uid))
        uid, eid, ety, ts_s = uid[order], eid[order], ety[order], ts_s[order]
        n = len(uid)
        first = np.ones(n, dtype=bool)
        first[1:] = (uid[1:] != uid[:-1]) | (ety[1:] != ety[:-1])
        keep = first.copy()
        keep[1:] |= (ts_s[1:] - ts_s[:-1]) > DEBOUNCE_GAP_S
        keep[0] = True
        return pa.table(
            {
                "user_id": pa.array(uid[keep], pa.int64()),
                "event_type": pa.array(list(ety[keep]), pa.string()),
                "ts_s": pa.array(ts_s[keep], pa.int64()),
                "event_id": pa.array(eid[keep], pa.int64()),
            },
            schema=OUT,
        )

    return (
        hash_exchange(
            ds.map_batches(add_pkey, batch_format="pyarrow"),
            "pkey",
            SESSION_PARTITIONS,
            lambda t: debounce_partition(
                t.drop_columns(["pkey"]) if "pkey" in t.column_names else t
            ),
        )
        .sort(["user_id", "event_type", "ts_s", "event_id"])
    )


# ---- funnel analysis --------------------------------------------------------
FUNNEL_STAGES = ("signup", "view", "click", "purchase")
FUNNEL_PARTITIONS = 64


def event_funnel(sf_dir: str) -> ray.data.Dataset:
    """Ordered funnel: how many users completed each prefix of
    ``FUNNEL_STAGES`` with STRICTLY increasing timestamps (stage k+1 must
    occur after the user's earliest valid stage-k time — the standard
    product-analytics funnel).

    Scale shape: ONE hash-partition shuffle on ``user_id % P`` over a
    3-column pruned read, a fully vectorized within-partition pass (lexsort
    + np.minimum.at per stage — no per-user Python), then each partition
    emits exactly ``len(FUNNEL_STAGES)`` partial-count rows, so the final
    exchange carries P x stages slim rows.  Mirrored in SQL as a chain of
    min-ts joins (``oracle_sql``)."""
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )

    stage_arr = pa.array(FUNNEL_STAGES, pa.string())

    def add_pkey(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"], value_set=stage_arr))
        pk = pc.cast(
            pc.bit_wise_and(t["user_id"], pa.scalar(FUNNEL_PARTITIONS - 1)),
            pa.int32(),
        )
        return t.append_column("pkey", pk)

    def funnel_partition(t: pa.Table) -> pa.Table:
        stages = np.arange(1, len(FUNNEL_STAGES) + 1, dtype=np.int64)
        if t.num_rows == 0:
            counts = np.zeros(len(FUNNEL_STAGES), np.int64)
        else:
            uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            ts = (
                t["ts"]
                .to_numpy(zero_copy_only=False)
                .astype("datetime64[us]")
                .astype(np.int64)
            )
            ety = t["event_type"].to_numpy(zero_copy_only=False)
            users, uidx = np.unique(uid, return_inverse=True)
            cur = np.full(len(users), -np.inf)
            counts = np.zeros(len(FUNNEL_STAGES), np.int64)
            for k, stage in enumerate(FUNNEL_STAGES):
                nxt = np.full(len(users), np.inf)
                m = (ety == stage) & (ts > cur[uidx])
                np.minimum.at(nxt, uidx[m], ts[m])
                cur = nxt
                counts[k] = int(np.isfinite(cur).sum())
        return pa.table(
            {
                "stage": pa.array(stages, pa.int64()),
                "n_users": pa.array(counts, pa.int64()),
            }
        )

    # seed every stage with a zero-count row so the output shape is
    # corpus-independent — with NO funnel-stage events at all the partition
    # pass emits zero groups, but the SQL oracle's UNION ALL of scalar
    # subqueries always returns len(FUNNEL_STAGES) rows (ADVICE r3)
    seed = ray.data.from_arrow(
        pa.table(
            {
                "stage": pa.array(
                    np.arange(1, len(FUNNEL_STAGES) + 1, dtype=np.int64), pa.int64()
                ),
                "n_users": pa.array(np.zeros(len(FUNNEL_STAGES), np.int64), pa.int64()),
            }
        )
    )
    agg = (
        hash_exchange(
            ds.map_batches(add_pkey, batch_format="pyarrow"),
            "pkey",
            FUNNEL_PARTITIONS,
            lambda t: funnel_partition(t.drop_columns(["pkey"])),
        )
        .union(seed)
        .groupby("stage")
        .aggregate(Sum("n_users", alias_name="n_users"))
    )

    def name_stages(t: pa.Table) -> pa.Table:
        st = t["stage"].to_numpy(zero_copy_only=False).astype(np.int64)
        names = np.array(FUNNEL_STAGES)[st - 1]
        return pa.table(
            {
                "stage": t["stage"],
                "event_type": pa.array(list(names), pa.string()),
                "n_users": t["n_users"],
            }
        )

    return agg.map_batches(name_stages, batch_format="pyarrow").sort("stage")


# ---- HyperLogLog distinct sketch -------------------------------------------
HLL_P = 6  # 2^6 = 64 registers per key
HLL_M = 1 << HLL_P


def hll_distinct_users(sf_dir: str) -> ray.data.Dataset:
    """HyperLogLog register table: per event_type, the 64-register HLL
    sketch of distinct user_ids (splitmix64 hash; register = low
    ``HLL_P`` bits, rho = leading-zero rank of the remaining 58-bit
    window).  Emitting the REGISTERS (exact integers) rather than the
    float estimate keeps the SQL-oracle comparison drift-free; the
    estimator itself (and its accuracy vs exact distinct) is pinned in
    ``tests/test_relational_plans.py`` via :func:`hll_estimate`.

    Scale shape: the canonical mergeable-sketch plan — each batch folds
    its rows into at most ``types x 64`` (event_type, register, rho)
    partials, the only exchange is a groupby-max over those slim rows, and
    register tables merge by elementwise max (associative, so this extends
    to incremental / multi-day corpora for free)."""
    from ..functions.hashing import splitmix64

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "register": pa.array([], pa.int64()),
                    "rho": pa.array([], pa.int64()),
                }
            )
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        z = splitmix64(uid.copy())
        reg = (z & np.uint64(HLL_M - 1)).astype(np.int64)
        w = z >> np.uint64(HLL_P)
        # vectorized bit_length of the 58-bit window
        bl = np.zeros(len(w), np.int64)
        v = w.copy()
        for s in (32, 16, 8, 4, 2, 1):
            m = (v >> np.uint64(s)) > 0
            bl[m] += s
            v[m] >>= np.uint64(s)
        bl += (v > 0).astype(np.int64)
        rho = (64 - HLL_P + 1) - bl
        ety_codes, ety_inv = np.unique(
            t["event_type"].to_numpy(zero_copy_only=False), return_inverse=True
        )
        key = ety_inv * HLL_M + reg
        mx = np.full(len(ety_codes) * HLL_M, -1, np.int64)
        np.maximum.at(mx, key, rho)
        hit = np.flatnonzero(mx >= 0)
        return pa.table(
            {
                "event_type": pa.array(
                    list(ety_codes[hit // HLL_M]), pa.string()
                ),
                "register": pa.array(hit % HLL_M, pa.int64()),
                "rho": pa.array(mx[hit], pa.int64()),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["event_type", "register"])
        .aggregate(Max("rho", alias_name="rho"))
        .sort(["event_type", "register"])
    )


def hll_estimate(registers: np.ndarray) -> float:
    """Standard HLL estimator (Flajolet et al. 2007) over one key's dense
    register vector (0 = empty register), with the small-range
    linear-counting correction."""
    m = HLL_M
    alpha = 0.709 if m == 64 else 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / float(np.sum(np.exp2(-registers.astype(np.float64))))
    zeros = int(np.sum(registers == 0))
    if e <= 2.5 * m and zeros:
        return m * float(np.log(m / zeros))
    return e


# ---- cohort retention -------------------------------------------------------
RETENTION_PARTITIONS = 64


def cohort_retention(sf_dir: str) -> ray.data.Dataset:
    """Cohort retention triangle: users grouped by first-seen UTC day
    (cohort), counting distinct users active at each day offset from their
    cohort day.  Day boundaries use integer floor of epoch microseconds
    (mirrors ``distinct_users_daily``'s ``day_s`` convention).

    Scale shape: ONE hash-partition shuffle on ``user_id % P`` of a
    2-column pruned read; each partition computes per-user first day +
    distinct (user, day) pairs fully vectorized and emits only
    (cohort_day_s, day_offset, partial count) rows — bounded by distinct
    cells, not events — then a small groupby-sum."""
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def add_pkey(t: pa.Table) -> pa.Table:
        pk = pc.cast(
            pc.bit_wise_and(t["user_id"], pa.scalar(RETENTION_PARTITIONS - 1)),
            pa.int32(),
        )
        return t.append_column("pkey", pk)

    def retention_partition(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "cohort_day_s": pa.array([], pa.int64()),
                    "day_offset": pa.array([], pa.int64()),
                    "n_users": pa.array([], pa.int64()),
                }
            )
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = (
            t["ts"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
            // 86_400_000_000
        )
        # distinct (user, day) pairs
        pairs = np.unique(np.stack([uid, day], axis=1), axis=0)
        puid, pday = pairs[:, 0], pairs[:, 1]
        users, uidx = np.unique(puid, return_inverse=True)
        fday = np.full(len(users), np.iinfo(np.int64).max)
        np.minimum.at(fday, uidx, pday)
        cohort = fday[uidx]
        offset = pday - cohort
        cells, counts = np.unique(
            np.stack([cohort, offset], axis=1), axis=0, return_counts=True
        )
        return pa.table(
            {
                "cohort_day_s": pa.array(cells[:, 0] * 86_400, pa.int64()),
                "day_offset": pa.array(cells[:, 1], pa.int64()),
                "n_users": pa.array(counts, pa.int64()),
            }
        )

    return (
        hash_exchange(
            ds.map_batches(add_pkey, batch_format="pyarrow"),
            "pkey",
            RETENTION_PARTITIONS,
            lambda t: retention_partition(t.drop_columns(["pkey"])),
        )
        .groupby(["cohort_day_s", "day_offset"])
        .aggregate(Sum("n_users", alias_name="n_users"))
        .sort(["cohort_day_s", "day_offset"])
    )


def props_value_stats(sf_dir: str) -> ray.data.Dataset:
    """Schema-on-read over the semi-structured ``props`` JSON column:
    extract the integer ``k`` field and aggregate per event_type
    (count / min / max / e6-quantized mean — the 'parse a JSON blob lake
    without a schema migration' op).

    Scale shape: extraction is one vectorized RE2 pass per batch
    (``pc.extract_regex`` — no per-row json.loads), rows fold to per-batch
    per-type moment partials, and the only exchange carries types x 4
    numbers.  Rows whose props lack an integer ``k`` are skipped (mirrored
    by the SQL oracle's regexp filter)."""
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )

    def partials(t: pa.Table) -> pa.Table:
        ext = pc.extract_regex(t["props"], r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ext, "k"), pa.int64())
        tmp = pa.table({"event_type": t["event_type"], "k": k}).filter(
            pc.is_valid(k)
        )
        g = tmp.group_by("event_type").aggregate(
            [("k", "count"), ("k", "min"), ("k", "max"), ("k", "sum")]
        )
        return pa.table(
            {
                "event_type": g["event_type"],
                "n": pc.cast(g["k_count"], pa.int64()),
                "k_min": pc.cast(g["k_min"], pa.int64()),
                "k_max": pc.cast(g["k_max"], pa.int64()),
                "k_sum": pc.cast(g["k_sum"], pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Min("k_min", alias_name="k_min"),
            Max("k_max", alias_name="k_max"),
            Sum("k_sum", alias_name="k_sum"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["k_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        out = pa.table(
            {
                "event_type": t["event_type"],
                "n": t["n"],
                "k_min": t["k_min"],
                "k_max": t["k_max"],
                "k_mean": pa.array(s / n, pa.float64()),
            }
        )
        return quantize(out, ["k_mean"], scale=1_000_000, suffix="_e6")

    return agg.map_batches(finish, batch_format="pyarrow").sort("event_type")
