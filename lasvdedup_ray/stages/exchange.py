"""Raw-Ray hash exchange: co-locate rows by a small integer partition key
without a sort barrier.

Ray Data's ``groupby(key).map_groups`` runs a sort-based shuffle: a
sampling pass over every block, a SortMap wave, and a SortReduce wave —
measured ~10-20 s of CPU-count-independent wall time per barrier on the
flagship (the dominant term in the 8->32 scaling gap once the per-pair
compare was fixed).  For keys that are ALREADY a hash residue in
``[0, num_partitions)`` (the engine's ``pkey`` columns), none of that
machinery is needed: this helper splits each upstream block into
``num_partitions`` sub-tables (one task per block, ``num_returns=P+1``;
the extra return is a ``(2, P)`` vector of rows and estimated bytes per
partition) and runs one reduce wave over the NON-EMPTY partitions — two
scheduling waves, no sampling pass, no sort.  Partitions with zero rows
are skipped entirely, matching ``groupby`` semantics (a reduce fn is never
invoked on an empty group), so reducers need no empty-input guard.

Partitioning assumption (document per SURVEY): every row with the same
``pkey`` value lands in exactly ONE reduce call — identical to the
``groupby(pkey).map_groups`` contract — because pkey p goes to reduce p
verbatim.  Reducers that only need co-location (the LSH pair emitter
sorts its partition internally; per-user session folds see every row of
their users) are drop-in.

On a multi-node cluster this is exactly a hash shuffle (what Ray's
``ShuffleStrategy.HASH_SHUFFLE`` runs internally); the Dataset-API
version (``repartition(keys=...)``) is not used because the strategy flag
is consulted at execution time from a context shared across the whole
lineage, and flipping it would silently re-plan every other groupby in
the same execution (measured: aggregator-actor deadlock at 8 CPUs).

The counts sync costs one driver round-trip of tiny int vectors but adds
no critical-path time: every reduce already waits on every split (each
needs its sliver of every block).

Partition count: every flagship exchange takes ``exchange_partitions()``
hash partitions, 4 per cluster CPU.  The count fixes the hash space, not
the reduce tasks (below).  A fixed count does not follow the cluster: 64
partitions on a 4-CPU box cost more in per-sliver tasks and objects than
the work they spread.

Reduce tasks: the driver cuts the live partitions, in pkey order, into at
most ``k = max(cluster CPUs, total bytes / _REDUCE_BYTES)`` runs of about
equal bytes (never more than the live partitions), one reduce task each.
An exchange holding less than ``_REDUCE_BYTES`` per CPU thus runs one
reduce wave of at most one task per CPU; a larger one about ``total /
_REDUCE_BYTES`` tasks, at most one per live partition.  A cut by byte
units can join a partition below the mean to its neighbour, so an exchange
of ~1 MiB partitions runs a few tasks fewer than its live partitions
(20,000 files at 3 Ray CPUs: 14 tasks for 16 band partitions of ~1.1 MiB,
12 for 12 classify partitions of ~1.3 MiB).  A task still calls the
reduce fn once per partition, on that partition's rows alone, and returns
the outputs concatenated in partition order: rows and their order are
those of one task per partition, only block boundaries move.

Why pack: each task and each result block has a fixed cost of scheduling
and storing whatever it holds, and every later ``map_blocks`` wave runs
one task per block.  On 1,000-1,500-file jobs at 3 Ray CPUs (0.6-1.2 MiB
per exchange) one task per live partition made 28 reduce tasks and 12
result blocks per job; packed, 6 and 3, and a job submits 35 fewer tasks
in all.  The price is straggling: with one task per CPU a skewed task is
the straggler of the only wave, where 4 partitions per CPU let the
scheduler rebalance around it (FP-Hadoop, VLDB 2015).  ``_REDUCE_BYTES``
bounds that price: packing to one wave happens only below 1 MiB per CPU,
about 0.15 s of reduce CPU at the rate of the flagship's band and
classify reducers (20,000 ~5 KB files, 3 Ray CPUs).  Measured with the
32-CPU partitioning (P = 128) on 3 Ray CPUs at those 20,000 files, each
of the two exchanges held 15-18 MiB, ~0.5 MiB per CPU, so ran 32 tasks
where tasks of one partition each ran 121-123: reduce execute CPU
5.1-5.5 s -> 4.8-5.8 s, storing 0.33-0.40 s -> 0.15-0.19 s, longest task
66-76 ms -> 149-174 ms, 89 fewer downstream ``map_blocks`` tasks (3 runs
each).  What that does to wall time on 32 real CPUs, where the one
wave's longest task sets the pace, has not been measured.

Scale note: object count is ``num_blocks x num_partitions`` slivers plus
one result block per reduce task; at 600k files on 32 CPUs (75 blocks x
128 partitions) that is 9,600 plasma objects of ~75 KB — far below Ray's
practical limits.  At 10^9-row scale, feed this from coarser blocks
(fewer, larger) rather than raising P past a few per CPU.

One chunk per column: Ray 2.49 pickles a ``pa.Table`` one column chunk at
a time, in Python (``ray/_private/arrow_serialization.py``: each chunk of
each column becomes its own ``PicklableArrayPayload``), so storing a table
costs per chunk, not per byte.  Reducers that concatenate one small table
per group (the classify reducer once built one per multi-member cluster)
returned 17-35 chunks per column on 1,000-1,500-file jobs; on a 4-vCPU VM a driver
``ray.put`` of one such 146-row, 11-column block took 28.8 ms with 35
chunks per column and 2.1 ms combined first (median of 60).  Every table
this module stores — ``_map_block`` and ``_reduce_partition`` outputs and
``dataset_from_tables`` inputs — goes through ``_one_chunk`` first; with
the packing above, the reduce tasks of one 1,500-file job spent 0.01 s
storing outputs, against 0.30 s before (Ray timeline).

Block metadata: the upstream's block refs and metadata come straight from
``iter_internal_ref_bundles`` (``to_arrow_refs`` would re-run a lazy
upstream under ``limit(1)`` just to learn its schema), so split tasks start
as upstream blocks land and known-empty blocks get none.  Each reduce task
returns its block's metadata alongside the block, and the result dataset is
built from it directly (``dataset_from_blocks``) — no per-block metadata
task wave as in ``ray.data.from_arrow_refs``.

Computed snapshot: every dataset ``dataset_from_blocks`` builds records its
blocks as the plan's computed output, so reading it
(``iter_internal_ref_bundles``, ``materialize``, ``count``,
``to_arrow_refs``) hands back the refs without a Ray Data executor.  A
dataset without that snapshot -- ``ray.data.from_arrow``, or a plan that
never ran -- starts a ``StreamingExecutor`` on every read, even when its DAG
is only the input buffer: each start exports topology metadata, registers
with Ray's stats actor and shuts down (on a 4-vCPU VM at 3 Ray CPUs, 50
reads of a 12-block dataset took ~0.9 s of wall time without the snapshot,
~0.01 s with it).  Tables built
on the driver enter through ``dataset_from_tables``.

Reading by ref: ``block_tables`` hands a dataset's non-empty blocks to the
driver by their refs, the way ``hash_exchange`` reads its upstream, instead
of running a Ray Data read (``iter_batches``, ``limit(n).to_pandas()``)
whose fixed cost is ~150 ms of CPU per call no matter how few rows it
moves.  When only narrow columns of wide blocks are needed it projects
inside one raw task per block, so the wide columns never reach the driver.

Mapping and concatenating by ref: ``map_blocks`` is ``map_batches`` as one
raw task per non-empty block (the function ships once through ``ray.put``,
``cols`` projects inside the task, and each task returns its block's
metadata, so the result is built with ``dataset_from_blocks`` and
known-empty outputs are dropped).  ``concat_blocks`` is ``union`` as a
concatenation of block-ref lists.  On an input with a computed snapshot
(theirs, ``hash_exchange``'s, or a ``materialize()`` result) neither starts
an executor, so a chain of them between exchanges runs as raw tasks only,
and its output is again a snapshot any consumer reads by ref.
``hash_exchange`` likewise ships its reduce function once per call, not
pickled into each of its reduce tasks.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions.hashing import id_hash64


def cluster_cpus() -> int:
    """CPUs of the connected Ray cluster (8 before ``ray.init``)."""
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except ray.exceptions.RaySystemError:
        return 8


def exchange_partitions() -> int:
    """Reduce partitions of a flagship hash exchange: 4 per cluster CPU."""
    return 4 * max(1, cluster_cpus())


# per-worker-process broadcast values: call-site slot -> (ref, value)
_WORKER_BROADCAST: dict = {}


def worker_get(ref, slot: str, build: Optional[Callable] = None):
    """``ray.get(ref)`` once per worker process, keyed by ref, for side data
    that many tasks read.  ``slot`` names the call site and holds one ref:
    interleaved tasks of different call sites on one worker do not evict
    each other's value, and a new ref at the same site frees the old one.
    ``build`` runs once on the fetched value (e.g. a dict over Arrow
    arrays)."""
    hit = _WORKER_BROADCAST.get(slot)
    if hit is None or hit[0] != ref:
        value = ray.get(ref)
        hit = _WORKER_BROADCAST[slot] = (ref, value if build is None else build(value))
    return hit[1]


def string_pkey(column, num_partitions: int) -> pa.Array:
    """int32 ``pkey`` in ``[0, num_partitions)`` for a string column: a
    vectorized 64-bit hash of each value, so equal values share a
    partition."""
    pk = id_hash64(column) % np.uint64(num_partitions)
    return pa.array(pk.astype(np.int32), pa.int32())


def dataset_from_blocks(refs: list, metas: list) -> ray.data.Dataset:
    """A materialized dataset of blocks whose ``BlockMetadataWithSchema`` is
    already known: the ``FromArrow`` plan of ``ray.data.from_arrow_refs``
    without its one metadata task per block, with the blocks recorded as
    the plan's computed output.  Reading it (``iter_internal_ref_bundles``,
    ``materialize``, ``count``, ``to_arrow_refs``) hands back these refs
    and starts no Ray Data executor; a dataset without that snapshot starts
    one on every read, even over an input-only DAG."""
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    stats = DatasetStats(metadata={"FromArrow": metas}, parent=None)
    plan = ExecutionPlan(stats, DataContext.get_current().copy())
    op = FromArrow(refs, metas)
    ds = MaterializedDataset(plan, LogicalPlan(op, plan._context))
    plan._snapshot_bundle = RefBundle(
        list(zip(refs, metas)), owns_blocks=False, schema=op.infer_schema()
    )
    plan._snapshot_operator = op
    plan._snapshot_stats = stats
    # fails loudly if a Ray upgrade renames the snapshot fields
    assert plan.has_computed_output()
    return ds


def _one_chunk(table):
    """``table`` with one chunk per column, so Ray stores it as one payload
    per column rather than one per chunk (module docstring).  A string
    column past 2 GiB cannot be one chunk and is stored as it is."""
    if isinstance(table, pa.Table) and any(c.num_chunks > 1 for c in table.columns):
        try:
            return table.combine_chunks()
        except pa.ArrowInvalid:
            return table
    return table


def dataset_from_tables(tables: Sequence[pa.Table]) -> ray.data.Dataset:
    """``ray.data.from_arrow(tables)`` as ``dataset_from_blocks``: the
    driver puts each table (as one chunk per column) and computes its
    metadata itself, so no metadata task runs and reading the result starts
    no executor."""
    from ray.data.block import BlockMetadataWithSchema

    tables = [_one_chunk(t) for t in tables]
    return dataset_from_blocks(
        [ray.put(t) for t in tables],
        [BlockMetadataWithSchema.from_block(t) for t in tables],
    )


def _live_blocks(ds: ray.data.Dataset) -> list:
    """``(ref, BlockMetadataWithSchema)`` of the blocks of ``ds`` whose
    metadata does not say zero rows (an unknown count is kept: dropping it
    could lose rows), from ``iter_internal_ref_bundles``: on a dataset
    that ``dataset_from_blocks`` built these are its recorded blocks, and
    no executor starts."""
    from ray.data.block import BlockMetadataWithSchema

    return [
        (
            ref,
            meta
            if isinstance(meta, BlockMetadataWithSchema)
            else BlockMetadataWithSchema(meta, schema=bundle.schema),
        )
        for bundle in ds.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows != 0
    ]


def _block_refs(ds: ray.data.Dataset) -> list:
    return [ref for ref, _ in _live_blocks(ds)]


def concat_blocks(*dss: ray.data.Dataset) -> ray.data.Dataset:
    """``dss[0].union(*dss[1:])`` as a concatenation of the inputs'
    non-empty block refs: block refs move, bytes don't, and on inputs with
    a computed snapshot no executor starts (a lazy input runs once)."""
    refs, metas = [], []
    for ds in dss:
        for ref, meta in _live_blocks(ds):
            refs.append(ref)
            metas.append(meta)
    return dataset_from_blocks(refs, metas)


def _arrow(block) -> pa.Table:
    if isinstance(block, pa.Table):
        return block
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


def block_tables(
    ds: ray.data.Dataset, cols: Optional[Sequence[str]] = None
) -> Iterator[pa.Table]:
    """The non-empty blocks of ``ds`` as Arrow tables, in block order, read
    by ref: the refs and metadata come from ``iter_internal_ref_bundles``,
    so on a dataset with a computed snapshot no executor starts (a lazy one
    runs once, as any consumer would run it).  Blocks whose metadata
    says zero rows are skipped unread.  ``cols``: project to these columns
    inside one raw task per block (all tasks are submitted before the first
    table is yielded), so the other columns never reach the driver.
    Tables are fetched one at a time: a caller that stops early holds no
    more than the blocks it consumed."""
    refs = _block_refs(ds)
    if cols is not None:
        refs = [_map_block.remote(None, ref, list(cols))[0] for ref in refs]
    for ref in refs:
        table = _arrow(ray.get(ref))
        if table.num_rows:
            yield table


@ray.remote(num_returns=2)
def _map_block(fn, block, cols):
    """``fn`` of one block (projected to ``cols`` first; no ``fn``: the
    projection) plus the result's ``BlockMetadataWithSchema``."""
    from ray.data.block import BlockExecStats, BlockMetadataWithSchema

    stats = BlockExecStats.builder()
    block = _arrow(block)
    # a schemaless empty block (Ray Data's normalized empty map output) has
    # none of ``cols``; it carries no rows, so it projects to itself
    if cols is not None and block.num_rows:
        block = block.select(cols)
    out = _one_chunk(block if fn is None else fn(block))
    return out, BlockMetadataWithSchema.from_block(out, stats=stats.build())


def map_blocks(
    ds: ray.data.Dataset,
    fn: Optional[Callable[[pa.Table], pa.Table]],
    cols: Optional[Sequence[str]] = None,
) -> ray.data.Dataset:
    """``ds.map_batches(fn, batch_format="pyarrow")`` with one batch per
    block, as one raw task per non-empty block of ``ds``: no executor
    starts on a ``ds`` with a computed snapshot (a lazy one runs once).
    ``fn`` ships once through ``ray.put``; ``cols`` projects each block
    inside its task, so the other columns never leave the object store
    (``fn=None``: the projection alone).  Returns a ``dataset_from_blocks``
    dataset of the non-empty outputs, in block order; it waits for every
    task, since the outputs' metadata build it."""
    blocks = _block_refs(ds)
    if not blocks:
        return dataset_from_blocks([], [])
    fn_ref = ray.put(fn)
    cols = None if cols is None else list(cols)
    out = [_map_block.remote(fn_ref, ref, cols) for ref in blocks]
    metas = ray.get([meta for _, meta in out])
    kept = [(block, meta) for (block, _), meta in zip(out, metas) if meta.num_rows != 0]
    return dataset_from_blocks([b for b, _ in kept], [m for _, m in kept])


@ray.remote
def _split_by_pkey(block, pkey_col: str, num_partitions: int):
    """One upstream block -> ``num_partitions`` sub-tables plus a ``(2, P)``
    int64 vector: rows per partition, and its estimated bytes (rows x the
    block's mean bytes per row), from which the driver sizes the reduce
    tasks (num_returns = P + 1)."""
    block = _arrow(block)
    stats = np.zeros((2, num_partitions), dtype=np.int64)
    if pkey_col not in block.column_names and block.num_rows > 0:
        # loud failure, matching the out-of-range check below: a NON-empty
        # block without the pkey column would otherwise reach no reducer
        # and its rows would silently vanish from the result
        raise ValueError(
            f"hash_exchange: non-empty block is missing pkey column "
            f"{pkey_col!r} (columns: {block.column_names})"
        )
    if block.num_rows == 0:
        # Ray Data normalizes empty map outputs to SCHEMALESS 0-row blocks
        # (no columns at all); they carry no rows for any partition
        out = [block] * num_partitions
        out.append(stats)
        return tuple(out) if num_partitions > 0 else (stats,)
    pk = block[pkey_col].to_numpy(zero_copy_only=False).astype(np.int64)
    # one stable gather + P zero-copy slices instead of P full-table filter
    # scans (the filter loop cost O(P * rows) per block — measured ~6 s of
    # split-wave wall at 600k files with P=128); stable argsort preserves
    # upstream row order within each partition, keeping the documented
    # "row order = upstream block order" reducer contract
    order = np.argsort(pk, kind="stable")
    sorted_block = block.take(pa.array(order, pa.int64()))
    pk_sorted = pk[order]
    # loud failure instead of silent row loss: groupby(pkey) (which this
    # replaces) grouped ANY key value; here a key outside
    # [0, num_partitions) would fall outside every slice below
    if pk_sorted[0] < 0 or pk_sorted[-1] >= num_partitions:
        raise ValueError(
            f"hash_exchange pkey out of range [0, {num_partitions}): "
            f"min={pk_sorted[0]}, max={pk_sorted[-1]}"
        )
    bounds = np.searchsorted(pk_sorted, np.arange(num_partitions + 1, dtype=np.int64))
    stats[0] = np.diff(bounds)
    stats[1] = stats[0] * (block.nbytes // block.num_rows)
    out = [
        sorted_block.slice(int(bounds[p]), int(stats[0, p]))
        for p in range(num_partitions)
    ]
    out.append(stats)
    return tuple(out)


@ray.remote(num_returns=2)
def _reduce_partition(fn, n_blocks: int, *subs: pa.Table):
    """``fn`` of each partition whose ``n_blocks`` slivers ``subs`` holds
    (one run of ``n_blocks`` per partition, in partition order), the
    outputs concatenated in that order, plus the block's
    ``BlockMetadataWithSchema``."""
    from ray.data.block import BlockExecStats, BlockMetadataWithSchema

    stats = BlockExecStats.builder()
    outs = []
    for i in range(0, len(subs), n_blocks):
        slivers = subs[i : i + n_blocks]
        tables = [s for s in slivers if s.num_rows]
        outs.append(_arrow(fn(pa.concat_tables(tables) if tables else slivers[0])))
    # an empty output may be typed differently (or schemaless); it adds no
    # rows, so it is left out unless every output is empty
    out = _one_chunk(
        pa.concat_tables(
            [o for o in outs if o.num_rows] or outs[:1], promote_options="permissive"
        )
    )
    return out, BlockMetadataWithSchema.from_block(out, stats=stats.build())


# bytes per hash_exchange reduce task once an exchange holds more than this
# per cluster CPU; below, it runs one task per CPU (module docstring)
_REDUCE_BYTES = 1 << 20


def _reduce_groups(nbytes: np.ndarray, live: list) -> list:
    """``live`` cut into at most ``k = min(len(live), max(cluster CPUs,
    total / _REDUCE_BYTES))`` consecutive runs of about equal bytes, one per
    reduce task (a partition larger than ``total / k`` leaves fewer runs)."""
    held = nbytes[live]
    total = max(1, int(held.sum()))
    k = min(len(live), max(cluster_cpus(), -(-total // _REDUCE_BYTES)))
    # a partition's run: the bytes before it, in units of total / k
    run = (np.cumsum(held) - held) * k // total
    cuts = np.flatnonzero(np.diff(run)) + 1
    return [g.tolist() for g in np.split(np.asarray(live), cuts)]


def hash_exchange(
    ds: ray.data.Dataset,
    pkey_col: str,
    num_partitions: int,
    reduce_fn: Callable[[pa.Table], pa.Table],
    empty_schema: Optional[pa.Schema] = None,
) -> ray.data.Dataset:
    """``groupby(pkey).map_groups(reduce_fn)`` for an integer pkey in
    ``[0, num_partitions)``, as a two-wave raw-Ray exchange (no sort
    barrier).  ``reduce_fn`` receives ONE non-empty Arrow table holding
    every row of its pkey (row order = upstream block order, not sorted —
    reducers that need an order must sort internally, as the LSH emitter
    already does); it is never called on an empty partition.  The result
    holds the outputs in pkey order, several consecutive pkeys' outputs per
    block: the split's byte counts size each reduce task (``_reduce_groups``),
    at most one per cluster CPU below ``_REDUCE_BYTES`` per CPU, about
    ``total / _REDUCE_BYTES`` above it.
    ``empty_schema``: schema of the typed empty RESULT returned when the
    upstream has no rows at all (None -> a zero-block dataset, matching
    groupby's schemaless-empty behavior)."""
    split = _split_by_pkey.options(num_returns=num_partitions + 1)
    parts_lists = [
        split.remote(ref, pkey_col, num_partitions) for ref in _block_refs(ds)
    ]
    if parts_lists:
        rows, nbytes = np.sum(
            ray.get([row[num_partitions] for row in parts_lists]), axis=0
        )
        live = [p for p in range(num_partitions) if rows[p] > 0]
    else:
        live = []
    if not live:
        if empty_schema is not None:
            return dataset_from_tables([empty_schema.empty_table()])
        return dataset_from_blocks([], [])
    # one pickle of the reducer per call, not one per reduce task
    fn_ref = ray.put(reduce_fn)
    n_blocks = len(parts_lists)
    reduced = [
        _reduce_partition.remote(
            fn_ref, n_blocks, *[row[p] for p in group for row in parts_lists]
        )
        for group in _reduce_groups(nbytes, live)
    ]
    return dataset_from_blocks(
        [block for block, _ in reduced], ray.get([meta for _, meta in reduced])
    )


def grouped_sum_exchange(
    ds: ray.data.Dataset,
    keys: list,
    sum_cols: list,
    count_col: Optional[str] = None,
    num_partitions: int = 8,
    empty_schema: Optional[pa.Schema] = None,
) -> ray.data.Dataset:
    """Final reduce of per-batch PARTIAL sums: one small hash exchange on a
    key-derived pkey, Arrow ``group_by`` inside each partition.

    Why not ``groupby(keys).aggregate(Sum(...))``: Ray's sort-based
    Aggregate emits one block per reduce partition INCLUDING schemaless
    zero-row blocks when distinct groups < partitions — those bundles
    diverge every downstream operator's tracked schema (the "RefBundle
    with a different schema" warning on every tiny grouped aggregate) and
    defeat bundle-schema dedup.  This path only ever emits typed non-empty
    bundles, and it presumes the caller already combined map-side, so the
    rows crossing the exchange are O(groups per block), not source rows.

    ``ds`` blocks must hold partial rows: ``keys`` + float/int ``sum_cols``
    (+ an int ``count_col`` of partial row counts).  The per-row Python
    key hash below is fine precisely because inputs are post-combiner
    (a handful of rows per block).
    """
    import zlib

    def add_pkey(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("pkey", pa.array([], pa.int32()))
        # null keys map to a sentinel so they co-locate in one partition
        # (Arrow's in-partition group_by then groups them as their own
        # group, matching the Ray groupby semantics this path replaces)
        parts = [t[k].cast(pa.string()).to_pylist() for k in keys]
        h = np.fromiter(
            (
                zlib.crc32(
                    "\x1f".join("\x00<null>" if v is None else v for v in vs).encode()
                )
                for vs in zip(*parts)
            ),
            dtype=np.uint32,
            count=t.num_rows,
        )
        return t.append_column(
            "pkey", pa.array((h % num_partitions).astype(np.int32), pa.int32())
        )

    def reduce_fn(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["pkey"])
        aggs = [(c, "sum") for c in sum_cols]
        if count_col:
            aggs.append((count_col, "sum"))
        g = t.group_by(keys).aggregate(aggs)
        cols = {k: g[k] for k in keys}
        for c in sum_cols:
            cols[c] = g[c + "_sum"]
        if count_col:
            cols[count_col] = g[count_col + "_sum"]
        return pa.table(cols)

    return hash_exchange(
        ds.map_batches(add_pkey, batch_format="pyarrow"),
        "pkey",
        num_partitions,
        reduce_fn,
        empty_schema=empty_schema,
    )
