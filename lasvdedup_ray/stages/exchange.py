"""Raw-Ray hash exchange: co-locate rows by a small integer partition key
without a sort barrier.

Ray Data's ``groupby(key).map_groups`` runs a sort-based shuffle: a
sampling pass over every block, a SortMap wave, and a SortReduce wave —
measured ~10-20 s of CPU-count-independent wall time per barrier on the
flagship (the dominant term in the 8->32 scaling gap once the per-pair
compare was fixed).  For keys that are ALREADY a hash residue in
``[0, num_partitions)`` (the engine's ``pkey`` columns), none of that
machinery is needed: this helper cuts the pkeys into ``k`` runs of
consecutive values before it reads a row, splits each upstream block into
``k`` sub-tables sorted by pkey (one task per block, ``num_returns=k``) and
submits one reduce task per run straight on the split refs -- two
scheduling waves, no sampling pass, no sort, no driver sync between them.
A pkey with zero rows is skipped, matching ``groupby`` semantics (a reduce
fn is never invoked on an empty group), so reducers need no empty-input
guard.

Partitioning assumption (document per SURVEY): every row with the same
``pkey`` value lands in exactly ONE reduce call — identical to the
``groupby(pkey).map_groups`` contract — because each pkey belongs to one
run and its reduce task calls the fn once per pkey.  Reducers that only
need co-location (the LSH pair emitter sorts its partition internally;
per-user session folds see every row of their users) are drop-in.

On a multi-node cluster this is exactly a hash shuffle (what Ray's
``ShuffleStrategy.HASH_SHUFFLE`` runs internally); the Dataset-API
version (``repartition(keys=...)``) is not used because the strategy flag
is consulted at execution time from a context shared across the whole
lineage, and flipping it would silently re-plan every other groupby in
the same execution (measured: aggregator-actor deadlock at 8 CPUs).

Partition count: every flagship exchange takes ``exchange_partitions()``
hash partitions, 4 per cluster CPU.  The count fixes the hash space, not
the reduce tasks (below).  A fixed count does not follow the cluster: 64
partitions on a 4-CPU box cost more in per-sliver tasks and objects than
the work they spread.

Reduce tasks: ``k = min(P, rows, max(cluster CPUs, bytes /
_REDUCE_BYTES))``, with rows and bytes summed from the upstream blocks'
metadata (an unknown count reads as P rows, an unknown size as
``_REDUCE_BYTES``); run g holds the pkeys ``[g*P//k, (g+1)*P//k)``.  An
exchange under ``_REDUCE_BYTES`` per CPU thus runs one wave of one task
per CPU, a larger one about one task per ``_REDUCE_BYTES``.  Output rows
and their order are those of one reduce call per pkey in pkey order; only
block boundaries move.  Deciding the cut up front keeps a split task at k
stored objects, not P + 1 (P sub-tables plus counts for a cut made after
the split): at P = 128 those cost a 20,000-file job 8.7-9.2 s of
storing, more than all its reduce work.

The price of few tasks is straggling: a fixed pkey-range cut does not
isolate a heavy partition, and with one task per CPU a skewed task is the
straggler of the only wave.  If one ever sets the pace, the answer is
FP-Hadoop's intermediate reduce (VLDB 2015), not more partitions.

Scale note: object count is ``num_blocks x k`` slivers plus one result
block per reduce task; at 600k files on 32 CPUs (75 blocks, k <= 128)
that is at most 9,600 plasma objects — far below Ray's practical limits.
At 10^9-row scale, feed this from coarser blocks (fewer, larger) rather
than raising P past a few per CPU.

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
the reduce cut above, the reduce tasks of one 1,500-file job spent 0.01 s
storing outputs, against 0.30 s before (Ray timeline).

Block metadata: the upstream's block refs and metadata come straight from
``iter_internal_ref_bundles`` (``to_arrow_refs`` would re-run a lazy
upstream under ``limit(1)`` just to learn its schema), they size the
reduce cut, and known-empty blocks get no split task.  Each reduce task
returns its block's metadata alongside the block; reading those is an
exchange's one driver ``ray.get``, and the result dataset is built from
them directly (``dataset_from_blocks``) — no per-block metadata task wave
as in ``ray.data.from_arrow_refs``.

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


def byte_runs(items: Sequence, sizes: Sequence[Optional[int]], target: int) -> list:
    """``items`` cut into runs of consecutive items of about ``target``
    bytes each: ``k = min(len(items), max(1, ceil(total / target)))`` runs
    of about equal bytes (an unknown size counts as ``target``), each item
    in the run its byte midpoint falls in.  An item larger than a run's
    share forms its own run, so fewer than ``k`` runs may come back."""
    if not items:
        return []
    b = np.array([target if s is None else s for s in sizes], dtype=np.float64)
    total = b.sum()
    k = min(len(items), max(1, int(-(-total // target))))
    if k == 1:
        return [list(items)]
    run = np.minimum(((np.cumsum(b) - b / 2) * k / total).astype(np.int64), k - 1)
    starts = np.flatnonzero(np.r_[True, run[1:] != run[:-1]])
    return [list(items[a:z]) for a, z in zip(starts, np.r_[starts[1:], len(items)])]


def _pkey_order(pk: np.ndarray, num_partitions: int) -> np.ndarray:
    """Stable argsort of a block's int64 pkeys, which must lie in
    ``[0, num_partitions)``: a key outside would fall outside every reduce
    run, so it fails loudly instead of losing its row (groupby(pkey), which
    the exchange replaced, grouped any key value).  Up to 2^16 partitions
    the keys are sorted as uint16, where numpy's stable sort is a radix
    sort: the same order, 5-10x faster than the int64 merge sort."""
    lo, hi = int(pk.min()), int(pk.max())
    if lo < 0 or hi >= num_partitions:
        raise ValueError(
            f"hash_exchange pkey out of range [0, {num_partitions}): min={lo}, max={hi}"
        )
    keys = pk.astype(np.uint16) if num_partitions <= 1 << 16 else pk
    return np.argsort(keys, kind="stable")


@ray.remote
def _split_by_pkey(block, pkey_col: str, num_partitions: int, bounds: list):
    """One upstream block -> one sub-table per reduce run, each sorted by
    pkey: run g holds the pkeys ``[bounds[g], bounds[g + 1])``
    (num_returns = ``len(bounds) - 1``)."""
    block = _arrow(block)
    k = len(bounds) - 1
    if block.num_rows == 0:
        # Ray Data normalizes empty map outputs to SCHEMALESS 0-row blocks
        # (no columns at all); they carry no rows for any run
        out = [block] * k
    elif pkey_col not in block.column_names:
        # loud failure, matching the out-of-range check below: a NON-empty
        # block without the pkey column would otherwise reach no reducer
        # and its rows would silently vanish from the result
        raise ValueError(
            f"hash_exchange: non-empty block is missing pkey column "
            f"{pkey_col!r} (columns: {block.column_names})"
        )
    else:
        pk = block[pkey_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # one stable gather + k zero-copy slices instead of k full-table
        # filter scans (the filter loop cost O(P * rows) per block —
        # measured ~6 s of split-wave wall at 600k files with P=128); the
        # stable sort keeps upstream row order within each pkey, the
        # documented "row order = upstream block order" reducer contract
        order = _pkey_order(pk, num_partitions)
        pk_sorted = pk[order]
        sorted_block = block.take(pa.array(order, pa.int64()))
        cuts = np.searchsorted(pk_sorted, bounds)
        out = [sorted_block.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
    # one return is stored as the value itself, not as a 1-tuple
    return out[0] if k == 1 else tuple(out)


@ray.remote(num_returns=2)
def _reduce_partition(fn, pkey_col: str, lo: int, hi: int, *slivers):
    """``fn`` of each non-empty pkey in ``[lo, hi)``, on that pkey's runs of
    the pkey-sorted ``slivers`` concatenated in block order, the outputs
    concatenated in pkey order, plus the block's
    ``BlockMetadataWithSchema``.  No rows: a zero-column empty block, and
    ``fn`` is never called."""
    from ray.data.block import BlockExecStats, BlockMetadataWithSchema

    stats = BlockExecStats.builder()
    slivers = [s for s in slivers if s.num_rows]
    keys = np.arange(lo, hi + 1)
    cuts = [np.searchsorted(s[pkey_col].to_numpy(), keys) for s in slivers]
    outs = []
    for i in range(hi - lo):
        runs = [
            s.slice(c[i], c[i + 1] - c[i]) for s, c in zip(slivers, cuts) if c[i + 1] > c[i]
        ]
        if runs:
            outs.append(_arrow(fn(pa.concat_tables(runs))))
    # an empty output may be typed differently (or schemaless); it adds no
    # rows, so it is left out unless every output is empty
    out = _one_chunk(
        pa.concat_tables(
            [o for o in outs if o.num_rows] or outs[:1], promote_options="permissive"
        )
        if outs
        else pa.table({})
    )
    return out, BlockMetadataWithSchema.from_block(out, stats=stats.build())


# bytes per hash_exchange reduce task once an exchange holds more than this
# per cluster CPU; below, it runs one task per CPU (module docstring)
_REDUCE_BYTES = 1 << 20


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
    already does); it is never called on an empty pkey.  The result holds
    the non-empty outputs in pkey order, those of a run of consecutive
    pkeys per block (module docstring: reduce tasks).
    ``empty_schema``: schema of the typed empty RESULT returned when the
    upstream has no rows at all (None -> a zero-block dataset, matching
    groupby's schemaless-empty behavior)."""
    blocks = _live_blocks(ds)
    rows = sum(num_partitions if m.num_rows is None else m.num_rows for _, m in blocks)
    nbytes = sum(_REDUCE_BYTES if m.size_bytes is None else m.size_bytes for _, m in blocks)
    k = min(num_partitions, rows, max(cluster_cpus(), -(-nbytes // _REDUCE_BYTES)))
    reduced = []
    if k > 0:
        bounds = [g * num_partitions // k for g in range(k + 1)]
        split = _split_by_pkey.options(num_returns=k)
        slivers = [split.remote(ref, pkey_col, num_partitions, bounds) for ref, _ in blocks]
        if k == 1:
            slivers = [[s] for s in slivers]
        # one pickle of the reducer per call, not one per reduce task
        fn_ref = ray.put(reduce_fn)
        reduced = [
            _reduce_partition.remote(
                fn_ref, pkey_col, bounds[g], bounds[g + 1], *[s[g] for s in slivers]
            )
            for g in range(k)
        ]
    metas = ray.get([meta for _, meta in reduced])
    outs = [(block, meta) for (block, _), meta in zip(reduced, metas)]
    # no output rows: one typed empty output of a task that called the fn
    kept = [o for o in outs if o[1].num_rows] or [o for o in outs if o[1].schema][:1]
    if not kept and empty_schema is not None:
        return dataset_from_tables([empty_schema.empty_table()])
    return dataset_from_blocks([b for b, _ in kept], [m for _, m in kept])


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
