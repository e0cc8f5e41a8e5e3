"""hash_exchange (stages/exchange.py): the raw-Ray pkey co-location used
in place of sort-based groupby(pkey).map_groups across the flagship.

Contract under test: every row with the same pkey reaches exactly ONE
reduce call, reducers see whole groups (possibly several pkeys' rows
never mix — one reduce per pkey), and results match the groupby path."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from lasvdedup_ray.stages.exchange import (
    block_tables,
    byte_runs,
    concat_blocks,
    dataset_from_blocks,
    dataset_from_tables,
    hash_exchange,
    map_blocks,
)


def _mk(n_rows: int, n_parts: int, n_blocks: int = 5) -> rd.Dataset:
    t = pa.table(
        {
            "pkey": pa.array((np.arange(n_rows) * 7919) % n_parts, pa.int32()),
            "v": pa.array(np.arange(n_rows), pa.int64()),
        }
    )
    return rd.from_arrow(t).repartition(n_blocks)


def _make_summarize():
    """Factory returning a fully self-contained closure: cloudpickle ships
    closures (and their imports-inside) by value, while test-module-level
    functions pickle by reference and Ray workers cannot import tests."""

    def _summarize(g):
        import numpy as _np
        import pyarrow as _pa

        if g.num_rows == 0:
            return _pa.table(
                {
                    "pkey": _pa.array([], _pa.int32()),
                    "n": _pa.array([], _pa.int64()),
                    "vsum": _pa.array([], _pa.int64()),
                }
            )
        pk = g["pkey"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        keys = _np.unique(pk)
        return _pa.table(
            {
                "pkey": _pa.array(keys, _pa.int32()),
                "n": _pa.array([int((pk == k).sum()) for k in keys], _pa.int64()),
                "vsum": _pa.array([int(v[pk == k].sum()) for k in keys], _pa.int64()),
            }
        )

    return _summarize


@pytest.mark.parametrize("n_parts", [1, 8, 12])  # incl. non-power-of-two
def test_matches_groupby(ray_session, n_parts):
    ds = _mk(1000, n_parts)
    summarize = _make_summarize()
    ours = hash_exchange(ds, "pkey", n_parts, summarize).to_pandas()
    ref = (
        ds.groupby("pkey")
        .map_groups(summarize, batch_format="pyarrow")
        .to_pandas()
    )
    ours = ours.sort_values("pkey").reset_index(drop=True)
    ref = ref.sort_values("pkey").reset_index(drop=True)
    assert ours.equals(ref)


def test_one_reduce_call_per_pkey(ray_session):
    """Each pkey's rows arrive complete in a single reduce invocation."""
    n_parts = 6
    ds = _mk(600, n_parts)

    def whole_group(g):
        import numpy as _np
        import pyarrow as _pa

        pk = g["pkey"].to_numpy(zero_copy_only=False)
        # every pkey present must be complete: 600 rows spread over
        # (i*7919)%6 — count per key is exactly 100
        keys, counts = _np.unique(pk, return_counts=True)
        assert all(c == 100 for c in counts), (keys, counts)
        return _pa.table({"n_keys": _pa.array([len(keys)], _pa.int64())})

    out = hash_exchange(ds, "pkey", n_parts, whole_group).to_pandas()
    assert int(out["n_keys"].sum()) == n_parts


def test_empty_upstream_blocks(ray_session):
    """Partitions with no rows are skipped entirely; an all-empty upstream
    with empty_schema yields a typed empty result."""
    t = pa.table(
        {
            "pkey": pa.array([0, 0, 0], pa.int32()),
            "v": pa.array([1, 2, 3], pa.int64()),
        }
    )
    ds = rd.from_arrow(t)

    def fn(g):
        import pyarrow as _pa

        assert g.schema.names == ["pkey", "v"]
        return _pa.table({"n": _pa.array([g.num_rows], _pa.int64())})

    out = hash_exchange(ds, "pkey", 4, fn).to_pandas()
    # empty partitions are SKIPPED (groupby semantics: a reduce fn is never
    # invoked on an empty group)
    assert sorted(out["n"]) == [3]


def test_all_empty_with_schema(ray_session):
    t = pa.table(
        {"pkey": pa.array([], pa.int32()), "v": pa.array([], pa.int64())}
    )
    ds = rd.from_arrow(t)
    out_schema = pa.schema([("n", pa.int64())])

    def fn(g):
        raise AssertionError("must never be called on empty partitions")

    out = hash_exchange(ds, "pkey", 4, fn, empty_schema=out_schema)
    # NOTE: to_pandas drops 0-row schemas in Ray 2.49; assert on the
    # dataset schema + count instead
    assert out.count() == 0
    assert out.schema().names == ["n"]


def test_out_of_range_pkey_raises(ray_session):
    # groupby(pkey) grouped any key value; hash_exchange's contract is
    # pkey in [0, P) — a key outside that range must FAIL LOUDLY rather
    # than silently dropping the row from every partition slice
    t = pa.table(
        {
            "pkey": pa.array([0, 1, 7], pa.int32()),  # 7 >= P=4
            "v": pa.array([1, 2, 3], pa.int64()),
        }
    )
    ds = rd.from_arrow(t)

    def fn(g):
        return g

    with pytest.raises(Exception, match="pkey out of range"):
        hash_exchange(ds, "pkey", 4, fn).materialize()


@pytest.mark.parametrize("num_partitions", [1, 128, 1 << 16, (1 << 16) + 1])
def test_pkey_order_equals_int64_stable_argsort(num_partitions):
    """The split's radix sort of uint16 pkeys gives the int64 stable
    argsort's permutation on random, all-equal and descending keys."""
    from lasvdedup_ray.stages.exchange import _pkey_order

    rng = np.random.default_rng(5)
    n = 30_000
    for pk in (
        rng.integers(0, num_partitions, n),
        np.full(n, num_partitions - 1),
        np.arange(n)[::-1] % num_partitions,
    ):
        pk = pk.astype(np.int64)
        np.testing.assert_array_equal(
            _pkey_order(pk, num_partitions), np.argsort(pk, kind="stable")
        )
    for bad in (-1, num_partitions):
        with pytest.raises(ValueError, match="pkey out of range"):
            _pkey_order(np.array([0, bad], np.int64), num_partitions)


def test_grouped_sum_exchange_matches_groupby(ray_session):
    from lasvdedup_ray.stages.exchange import grouped_sum_exchange

    rng = np.random.default_rng(5)
    n = 4000
    t = pa.table(
        {
            "k1": pa.array(rng.choice(["a", "b", "c"], n).tolist(), pa.string()),
            "k2": pa.array(rng.choice(["x", "y"], n).tolist(), pa.string()),
            "v": pa.array(rng.standard_normal(n), pa.float64()),
            "cnt": pa.array(np.ones(n, np.int64), pa.int64()),
        }
    )
    ds = rd.from_arrow(t).repartition(7)
    # map-side combiner, then the exchange
    def combine(b):
        import pyarrow as _pa

        g = b.group_by(["k1", "k2"]).aggregate([("v", "sum"), ("cnt", "sum")])
        return _pa.table(
            {"k1": g["k1"], "k2": g["k2"], "v": g["v_sum"], "cnt": g["cnt_sum"]}
        )

    out = (
        grouped_sum_exchange(
            ds.map_batches(combine, batch_format="pyarrow"),
            keys=["k1", "k2"],
            sum_cols=["v"],
            count_col="cnt",
        )
        .to_pandas()
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    ref = (
        t.to_pandas()
        .groupby(["k1", "k2"], as_index=False)
        .agg(v=("v", "sum"), cnt=("cnt", "sum"))
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    assert out["cnt"].tolist() == ref["cnt"].tolist()
    assert np.allclose(out["v"].to_numpy(), ref["v"].to_numpy())


def test_grouped_sum_exchange_empty_input(ray_session):
    from lasvdedup_ray.stages.exchange import grouped_sum_exchange

    t = pa.table(
        {"k": pa.array([], pa.string()), "v": pa.array([], pa.float64())}
    )
    schema = pa.schema([("k", pa.string()), ("v", pa.float64())])
    out = grouped_sum_exchange(
        rd.from_arrow(t), keys=["k"], sum_cols=["v"], empty_schema=schema
    )
    assert out.count() == 0
    assert out.schema().names == ["k", "v"]


def test_missing_pkey_column_raises(ray_session):
    # a NON-empty block without the pkey column must fail loudly: its rows
    # would otherwise reach no reducer and silently vanish
    t = pa.table({"v": pa.array([1, 2, 3], pa.int64())})
    ds = rd.from_arrow(t)

    def fn(g):
        return g

    with pytest.raises(Exception, match="missing pkey column"):
        hash_exchange(ds, "pkey", 4, fn).materialize()


def test_grouped_sum_exchange_null_keys(ray_session):
    """Null group-key values form their own group (parity with the Ray
    groupby().aggregate() this path replaces) instead of crashing the
    key-hash join."""
    from lasvdedup_ray.stages.exchange import grouped_sum_exchange

    t = pa.table(
        {
            "k": pa.array(["a", None, "a", None, "b"], pa.string()),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0], pa.float64()),
        }
    )
    out = (
        grouped_sum_exchange(rd.from_arrow(t), keys=["k"], sum_cols=["v"])
        .to_pandas()
        .sort_values("k", na_position="last")
        .reset_index(drop=True)
    )
    assert len(out) == 3
    assert out["v"].tolist()[:2] == [4.0, 5.0]  # a=4, b=5
    assert out["v"].iloc[2] == 6.0 and out["k"].isna().iloc[2]


@pytest.fixture
def submitted(monkeypatch):
    """Counter of the Ray task names this process submits."""
    import collections

    import ray.remote_function as rf

    names = collections.Counter()
    submit = rf.RemoteFunction._remote

    def counting(self, *args, **kwargs):
        names[self._function.__name__] += 1
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(rf.RemoteFunction, "_remote", counting)
    return names


def test_upstream_executes_once(ray_session, tmp_path):
    """A lazy upstream runs once: no ``limit(1)`` re-run to learn its
    schema (``to_arrow_refs`` did one)."""
    marks = str(tmp_path)

    def mark(t):
        import os
        import uuid

        open(os.path.join(marks, uuid.uuid4().hex), "w").close()
        return t

    ds = _mk(400, 4, n_blocks=4).materialize().map_batches(
        mark, batch_format="pyarrow", batch_size=None
    )
    out = hash_exchange(ds, "pkey", 4, _make_summarize())
    assert int(out.to_pandas()["n"].sum()) == 400
    assert len(list(tmp_path.iterdir())) == 4  # one call per upstream block


def test_no_metadata_tasks_and_empty_blocks_skipped(ray_session, submitted):
    """Known-empty upstream blocks get no split task, and the result's block
    metadata comes back with the reduce tasks: no per-block
    ``get_table_block_metadata_schema`` task (``from_arrow_refs`` ran one)."""
    full = pa.table({"pkey": pa.array([0, 1, 2], pa.int32()), "v": pa.array([1, 2, 3], pa.int64())})
    ds = rd.from_arrow([full, full.slice(0, 0), full, full.slice(0, 0)])
    submitted.clear()
    out = hash_exchange(ds, "pkey", 4, _make_summarize())
    assert submitted["_split_by_pkey"] == 2
    assert submitted["_reduce_partition"] == 4  # one per pkey run
    assert out.count() == 3  # one summary row per live pkey
    assert sorted(out.to_pandas()["n"]) == [2, 2, 2]
    assert submitted["get_table_block_metadata_schema"] == 0


def test_block_tables_reads_materialized_blocks_by_ref(
    ray_session, executions, executor_starts
):
    """``block_tables`` yields the non-empty blocks of a materialized dataset
    in block order without starting an executor; a block whose metadata
    says zero rows is never read (here its ref is not even a table)."""
    import ray
    from ray.data.block import BlockMetadataWithSchema

    a = pa.table({"id": ["x", "y"], "wide": ["p" * 100, "q" * 100]})
    b = pa.table({"id": ["z"], "wide": ["r" * 100]})
    empty = a.slice(0, 0)
    ds = dataset_from_blocks(
        [ray.put(a), ray.put("not a block"), ray.put(b)],
        [BlockMetadataWithSchema.from_block(t) for t in (a, empty, b)],
    )
    assert [t.to_pydict() for t in block_tables(ds)] == [a.to_pydict(), b.to_pydict()]
    projected = list(block_tables(ds, ["id"]))
    assert [t.column_names for t in projected] == [["id"], ["id"]]
    assert pa.concat_tables(projected)["id"].to_pylist() == ["x", "y", "z"]
    assert executor_starts == []
    mat = rd.range(100, override_num_blocks=4).map_batches(lambda t: t).materialize()
    executions.clear()
    executor_starts.clear()
    assert sum(t.num_rows for t in block_tables(mat, ["id"])) == 100
    assert executions == []
    assert executor_starts == []


def test_block_tables_runs_lazy_input_once(ray_session, executions):
    ds = rd.range(50, override_num_blocks=5).map_batches(lambda t: t)
    assert sum(t.num_rows for t in block_tables(ds)) == 50
    assert len(executions) == 1


def _rows(ds) -> list:
    """Every row of ``ds`` as a sorted list of tuples."""
    tables = list(block_tables(ds))
    if not tables:
        return []
    t = pa.concat_tables(tables)
    return sorted(zip(*[t[c].to_pylist() for c in t.column_names]))


def _make_keep_even():
    def keep_even(t):
        import pyarrow.compute as _pc

        return t.filter(_pc.equal(_pc.bit_wise_and(t["v"], 1), 0))

    return keep_even


def test_map_blocks_on_materialized_input(
    ray_session, executions, executor_starts, submitted
):
    """No executor starts, one raw task runs per non-empty input block,
    and the known-empty outputs are dropped from the result."""
    odd = pa.table({"pkey": pa.array([0, 0], pa.int32()), "v": pa.array([1, 3], pa.int64())})
    mixed = pa.table({"pkey": pa.array([0, 1], pa.int32()), "v": pa.array([2, 5], pa.int64())})
    ds = rd.from_arrow([odd, mixed, odd.slice(0, 0), mixed]).materialize()
    executions.clear()
    executor_starts.clear()
    submitted.clear()
    out = map_blocks(ds, _make_keep_even())
    assert executions == []
    assert submitted["_map_block"] == 3
    metas = [m for b in out.iter_internal_ref_bundles() for _, m in b.blocks]
    assert [m.num_rows for m in metas] == [1, 1]
    assert _rows(out) == [(0, 2), (0, 2)]
    assert executor_starts == []


def test_map_blocks_projects_cols(ray_session):
    """``cols`` projects each block inside its task: ``fn`` sees only them."""
    ds = rd.from_arrow(
        [pa.table({"id": ["a", "b"], "wide": ["p", "q"], "n": [1, 2]})] * 2
    ).materialize()

    def seen(t):
        import pyarrow as _pa

        return _pa.table({"cols": [",".join(t.column_names)] * t.num_rows})

    assert {r[0] for r in _rows(map_blocks(ds, seen, cols=["n", "id"]))} == {"n,id"}
    assert {r[0] for r in _rows(map_blocks(ds, seen))} == {"id,wide,n"}


def test_map_blocks_equals_map_batches(ray_session):
    ds = _mk(1000, 8, n_blocks=6).materialize()
    keep_even = _make_keep_even()
    got = map_blocks(ds, keep_even)
    want = ds.map_batches(keep_even, batch_format="pyarrow")
    assert _rows(got) == _rows(want.materialize())
    assert len(_rows(got)) == 500


def test_map_blocks_runs_lazy_input_once(ray_session, executions):
    out = map_blocks(_mk(200, 4, n_blocks=4), _make_keep_even())
    assert len(executions) == 1
    assert len(_rows(out)) == 100


def test_concat_blocks_keeps_every_row(ray_session, executions, executor_starts):
    a = _mk(300, 4, n_blocks=3).materialize()
    b = rd.from_arrow(
        pa.table({"pkey": pa.array([1], pa.int32()), "v": pa.array([-1], pa.int64())})
    ).materialize()
    none = dataset_from_blocks([], [])
    executions.clear()
    executor_starts.clear()
    out = concat_blocks(a, none, b, a)
    assert executions == []
    assert _rows(out) == sorted(_rows(a) * 2 + _rows(b))
    assert out.count() == 601
    assert _rows(concat_blocks(none)) == []
    assert executor_starts == []


def test_reading_block_task_outputs_starts_no_executor(ray_session, executor_starts):
    """``materialize``, ``count`` and ``to_arrow_refs`` on a ``map_blocks``
    and on a ``hash_exchange`` output hand back the tasks' blocks without
    starting an executor, also after ``materialize``; so does a
    ``dataset_from_tables`` dataset."""
    import ray

    ds = _mk(400, 4, n_blocks=4).materialize()
    t = pa.table({"pkey": pa.array([3, 1], pa.int32()), "v": pa.array([7, 8], pa.int64())})
    outs = [
        map_blocks(ds, _make_keep_even()),
        hash_exchange(ds, "pkey", 4, _make_summarize()),
        dataset_from_tables([t, t.slice(0, 0), t]),
    ]
    executor_starts.clear()
    for out, rows in zip(outs, (200, 4, 4)):
        for read in (out, out.materialize()):
            assert read.count() == rows
            tables = ray.get(read.to_arrow_refs())
            assert sum(b.num_rows for b in tables) == rows
    assert executor_starts == []
    assert _rows(outs[2]) == [(1, 8), (1, 8), (3, 7), (3, 7)]


class _CountsPickles:
    """A callable whose pickles are counted in this (the driver) process.
    It unpickles as ``functools.partial(fn)``, so workers never import it."""

    pickles = 0

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, t):
        return self.fn(t)

    def __reduce__(self):
        import functools

        type(self).pickles += 1
        return (functools.partial, (self.fn,))


def test_functions_are_pickled_once(ray_session):
    """``hash_exchange`` ships its reducer once per call, not once per live
    partition, and ``map_blocks`` its function once, not once per block."""
    ds = _mk(1000, 8).materialize()
    _CountsPickles.pickles = 0
    out = hash_exchange(ds, "pkey", 8, _CountsPickles(_make_summarize()))
    assert out.count() == 8
    assert _CountsPickles.pickles == 1
    _CountsPickles.pickles = 0
    out = map_blocks(ds, _CountsPickles(_make_keep_even()))
    assert len(_rows(out)) == 500
    assert _CountsPickles.pickles == 1


def _make_three_chunks():
    """A map/reduce fn returning its input as a 3-chunk table."""

    def three_chunks(t):
        import pyarrow as _pa

        n = t.num_rows
        return _pa.concat_tables([t.slice(0, 1), t.slice(1, 1), t.slice(2, n - 2)])

    return three_chunks


def _chunks_per_column(ds) -> set:
    import ray

    refs = [ref for b in ds.iter_internal_ref_bundles() for ref, _ in b.blocks]
    return {c.num_chunks for t in ray.get(refs) for c in t.columns}


def test_stored_blocks_are_one_chunk(ray_session):
    """``map_blocks`` and ``hash_exchange`` store what their fn returns as
    one chunk per column, and so does ``dataset_from_tables``: Ray pickles a
    table one chunk at a time, so a many-chunk block costs more to store."""
    ds = _mk(400, 4, n_blocks=4).materialize()
    three = _make_three_chunks()
    assert three(pa.table({"v": list(range(5))})).column("v").num_chunks == 3
    mapped = map_blocks(ds, three)
    reduced = hash_exchange(ds, "pkey", 4, three)
    t = pa.table({"pkey": pa.array([0, 1, 2, 3], pa.int32()), "v": [5, 6, 7, 8]})
    built = dataset_from_tables([three(t), t])
    for out, rows in ((mapped, 400), (reduced, 400), (built, 8)):
        assert out.count() == rows
        assert _chunks_per_column(out) == {1}


def _make_marking_identity(marks: str):
    """An identity reduce fn that leaves one marker file per call, named
    after the call's pkey."""

    def mark(g):
        import os
        import uuid

        (pkey,) = set(g["pkey"].to_pylist())
        open(os.path.join(marks, f"{pkey}-{uuid.uuid4().hex}"), "w").close()
        return g

    return mark


def test_small_partitions_share_reduce_tasks(ray_session, submitted, tmp_path):
    """16 small live partitions on 4 CPUs run in at most 4 reduce tasks; the
    reduce fn still runs once per live partition, and the result's rows come
    in the order of reducing each partition on its own, in pkey order."""
    ds = _mk(320, 16, n_blocks=4).materialize()
    submitted.clear()
    out = hash_exchange(ds, "pkey", 16, _make_marking_identity(str(tmp_path)))
    assert 1 <= submitted["_reduce_partition"] <= 4
    called = sorted(int(f.name.split("-")[0]) for f in tmp_path.iterdir())
    assert called == list(range(16))
    src = pa.concat_tables(block_tables(ds))
    want = pa.concat_tables(
        [src.filter(pc.equal(src["pkey"], p)) for p in range(16)]
    )
    assert pa.concat_tables(block_tables(out)).equals(want)


def test_large_partitions_get_one_reduce_task_each(ray_session, submitted, tmp_path):
    """Equal partitions that each hold more than ``_REDUCE_BYTES`` keep one
    reduce task per live partition."""
    from lasvdedup_ray.stages.exchange import _REDUCE_BYTES

    n, width = 320, 16 << 10  # 80 rows x 16 KiB = 1.25 MiB per partition
    t = pa.table(
        {
            "pkey": pa.array(np.arange(n) % 4, pa.int32()),
            "blob": pa.array([b"x" * width] * n, pa.binary()),
        }
    )
    assert t.nbytes // 4 > _REDUCE_BYTES
    ds = dataset_from_tables([t.slice(0, n // 2), t.slice(n // 2)])
    submitted.clear()
    out = hash_exchange(ds, "pkey", 4, _make_marking_identity(str(tmp_path)))
    assert out.count() == n
    assert submitted["_reduce_partition"] == 4
    assert len(list(tmp_path.iterdir())) == 4


def _split_returns(task_returns) -> list:
    """``num_returns`` of each ``_split_by_pkey`` task submitted."""
    return [n for name, n in task_returns if name.endswith("._split_by_pkey")]


def _pkeys_per_block(ds) -> list:
    return [sorted(set(t["pkey"].to_pylist())) for t in block_tables(ds)]


@pytest.mark.parametrize("cpus, k", [(3, 3), (1, 1), (32, 16)])
def test_reduce_runs_are_consecutive_pkeys(ray_session, task_returns, monkeypatch, cpus, k):
    """A small exchange runs ``k = min(P, rows, cluster CPUs)`` reduce
    tasks; run g holds the pkeys ``[g*P//k, (g+1)*P//k)``, every split task
    stores exactly k objects, and the rows come in the order of reducing
    each pkey on its own, in pkey order (k = 1 included: Ray hands back one
    ref, not a tuple)."""
    from lasvdedup_ray.stages import exchange

    monkeypatch.setattr(exchange, "cluster_cpus", lambda: cpus)
    def identity(g):
        return g

    ds = _mk(320, 16, n_blocks=4).materialize()
    task_returns.clear()
    out = hash_exchange(ds, "pkey", 16, identity)
    assert _split_returns(task_returns) == [k] * 4
    runs = [list(range(g * 16 // k, (g + 1) * 16 // k)) for g in range(k)]
    assert _pkeys_per_block(out) == runs
    src = pa.concat_tables(block_tables(ds))
    want = pa.concat_tables([src.filter(pc.equal(src["pkey"], p)) for p in range(16)])
    assert pa.concat_tables(block_tables(out)).equals(want)


def test_fewer_rows_than_cpus(ray_session, task_returns):
    """A 3-row exchange runs no more tasks than rows: k = 3 on 4 CPUs."""
    ds = dataset_from_tables([pa.table({"pkey": pa.array([0, 7, 15], pa.int32()), "v": [1, 2, 3]})])
    task_returns.clear()
    out = hash_exchange(ds, "pkey", 16, _make_summarize())
    assert _split_returns(task_returns) == [3]
    assert sum(name.endswith("._reduce_partition") for name, _ in task_returns) == 3
    assert _pkeys_per_block(out) == [[0], [7], [15]]


def test_one_driver_get_per_exchange(ray_session, monkeypatch):
    """The reduce tasks are submitted on the split refs: one ``hash_exchange``
    call waits on the driver once, for the reduce tasks' metadata (Ray
    Data's own stats-actor calls aside)."""
    import sys

    import ray

    from lasvdedup_ray.stages import exchange

    ds = _mk(1000, 8).materialize()
    gets = []
    real_get = ray.get

    def get(*args, **kwargs):
        gets.append(sys._getframe(1).f_code.co_filename)
        return real_get(*args, **kwargs)

    monkeypatch.setattr(ray, "get", get)
    out = hash_exchange(ds, "pkey", 8, _make_summarize())
    assert gets.count(exchange.__file__) == 1, gets
    monkeypatch.undo()
    assert int(out.to_pandas()["n"].sum()) == 1000


def test_fn_never_called_on_empty_pkey(ray_session, tmp_path):
    """Of 16 pkeys only 3 hold rows: the reduce fn runs once for each of
    them and never on an empty pkey, though every run of pkeys gets a
    task."""
    t = pa.table({"pkey": pa.array([9, 0, 5, 9, 0], pa.int32()), "v": range(5)})
    out = hash_exchange(
        dataset_from_tables([t, t]), "pkey", 16, _make_marking_identity(str(tmp_path))
    )
    assert sorted(int(f.name.split("-")[0]) for f in tmp_path.iterdir()) == [0, 5, 9]
    assert out.count() == 10
    assert _pkeys_per_block(out) == [[0], [5], [9]]


def test_unknown_upstream_metadata_keeps_every_row(ray_session, monkeypatch):
    """Blocks whose metadata leaves rows or bytes unknown still reach the
    split: an unknown count reads as P rows, an unknown size as
    ``_REDUCE_BYTES``.  (A ``RefBundle`` needs the size, so the unknowns
    are put in where ``hash_exchange`` reads the metadata.)"""
    from ray.data.block import BlockMetadata, BlockMetadataWithSchema

    from lasvdedup_ray.stages import exchange

    ds = dataset_from_tables(
        [
            pa.table({"pkey": pa.array(np.arange(i, i + 40) % 8, pa.int32()), "v": np.arange(40)})
            for i in range(3)
        ]
    )
    blocks = exchange._live_blocks(ds)
    # block 0: rows unknown; block 1: bytes unknown; block 2: both
    known = [(None, blocks[0][1].size_bytes), (40, None), (None, None)]
    unknown = [
        (ref, BlockMetadataWithSchema(BlockMetadata(rows, size, None, []), schema=meta.schema))
        for (ref, meta), (rows, size) in zip(blocks, known)
    ]
    monkeypatch.setattr(exchange, "_live_blocks", lambda _ds: unknown)
    got = hash_exchange(ds, "pkey", 8, _make_summarize()).to_pandas()
    assert int(got["n"].sum()) == 120
    assert sorted(got["pkey"]) == list(range(8))


def test_all_outputs_empty_returns_one_typed_block(ray_session):
    """When the fn runs but every output is empty, the result is one typed
    empty block of a task that called the fn, not a schemaless one."""

    def drop_all(g):
        return g.slice(0, 0)

    out = hash_exchange(_mk(200, 8).materialize(), "pkey", 8, drop_all)
    metas = [m for b in out.iter_internal_ref_bundles() for _, m in b.blocks]
    assert len(metas) == 1 and metas[0].num_rows == 0
    assert out.schema().names == ["pkey", "v"]


@pytest.mark.parametrize(
    "sizes, target, runs",
    [
        ([100] * 8, 1000, [8]),  # under one target: one run
        ([100] * 8, 200, [2, 2, 2, 2]),  # ceil(800 / 200) = 4 equal runs
        ([100] * 3, 50, [1, 1, 1]),  # never more runs than items
        ([1000, 10, 10, 10], 300, [1, 3]),  # a heavy item forms its own run
        ([None, None, 100], 100, [1, 1, 1]),  # an unknown size counts as target
        ([0, 0], 100, [2]),
        ([], 100, []),
    ],
)
def test_byte_runs(sizes, target, runs):
    """Consecutive runs of about ``target`` bytes, every item once, in
    order."""
    items = list(range(len(sizes)))
    got = byte_runs(items, sizes, target)
    assert [len(r) for r in got] == runs
    assert [i for r in got for i in r] == items
