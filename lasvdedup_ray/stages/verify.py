"""Exact-Jaccard re-verification of borderline candidate pairs.

MinHash estimates have sigma ≈ sqrt(J(1-J)/num_perms) ≈ 0.035 at the
J = 1-tau boundary with 128 perms — enough to flip pairs across the
reference's inclusive ``<=`` threshold (``sequence_grouping.py:53``).  To
hold dup-pair recall >= 0.99 *at* the boundary, pairs whose estimated
distance lies within ``exact_margin_low`` / ``exact_margin_high`` of tau
are re-checked with the exact shingle-set Jaccard.

Execution shape (fully distributed — no driver-size degradation):
- the sure set (est <= tau - margin_low) passes through a filter of one
  raw task per pair block (``map_blocks``);
- the borderline set (est > tau - margin_low; the high side tau +
  margin_high was already enforced at LSH emission) is tiny by
  construction.  It is probed without a task or a Ray Data execution
  (``_probe``: the materialized pair blocks are read by ref and filtered
  on the driver until the set is known to fit ``border_driver_cap`` or
  known to exceed it), and its contents are attached by the same two
  helpers ``attach_pair_contents`` uses.  Below the cap, ``_attach_driver``
  gathers them with one raw filter task per content block and attaches
  them with an Arrow take; the checked set is sliced into at most 64
  blocks on the driver and checked by one raw task per slice, and the
  result is the sure set's block refs followed by the checked ones
  (``concat_blocks``) — no Ray Data execution on this path.  Above the
  cap, ``_attach_distributed`` pre-filters the content table with a
  fixed-size bloom bitmap over endpoint-id hashes (bounded driver memory;
  a false positive only ships one extra content row) and attaches it by a
  distributed double hash join — boundary pairs are exact-checked at
  EVERY scale.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..config import LSHConfig, SignatureConfig
from ..functions.hashing import bloom_build, bloom_probe, id_hash64, shingle_hashes
from .exchange import (
    block_tables,
    cluster_cpus,
    concat_blocks,
    dataset_from_tables,
    map_blocks,
)
from .lsh import PAIR_SCHEMA

logger = logging.getLogger(__name__)

# below this many borderline pairs, attach contents on the driver (bounded:
# ~100 MB of pair rows + contents; one broadcast filter pass beats two
# content-join shuffles); above it, go fully distributed (bloom + joins)
BORDER_DRIVER_CAP = 100_000


def _normalize(s: str, cfg: SignatureConfig) -> bytes:
    if cfg.lowercase:
        s = s.lower()
    if cfg.collapse_ws:
        s = " ".join(s.split())
    return s.encode("utf-8")


def exact_jaccard_for_pairs(contents_a, contents_b, cfg: SignatureConfig) -> np.ndarray:
    """Exact Jaccard over normalized k-shingle hash sets, one value per pair."""
    out = np.empty(len(contents_a), dtype=np.float64)
    for i, (ca, cb) in enumerate(zip(contents_a, contents_b)):
        ha = shingle_hashes(_normalize(ca, cfg), cfg.k)
        hb = shingle_hashes(_normalize(cb, cfg), cfg.k)
        inter = np.intersect1d(ha, hb, assume_unique=True).shape[0]
        union = ha.shape[0] + hb.shape[0] - inter
        out[i] = inter / union if union else 1.0
    return out


def _make_check_batch(sig_cfg: SignatureConfig, tau: float):
    def check_batch(t: pa.Table) -> pa.Table:
        ia = t["id_a"].to_pylist()
        ib = t["id_b"].to_pylist()
        ja = exact_jaccard_for_pairs(
            t["content_a"].to_pylist(), t["content_b"].to_pylist(), sig_cfg
        )
        d_exact = 1.0 - ja
        keep = d_exact <= tau  # inclusive boundary (sequence_grouping.py:53)
        return pa.table(
            {
                "id_a": pa.array([x for x, k in zip(ia, keep) if k], pa.string()),
                "id_b": pa.array([x for x, k in zip(ib, keep) if k], pa.string()),
                "est_distance": pa.array(d_exact[keep], pa.float64()),
            },
            schema=PAIR_SCHEMA,
        )

    return check_batch


def _rows_with_ids(content: ray.data.Dataset, id_col: str, needed: pa.Array, cols) -> list:
    """The rows of ``content`` whose ``id_col`` is in ``needed``, as Arrow
    tables: one raw filter task per content block (projected to ``cols``
    inside it), read back by ref."""
    id_ref = ray.put(needed)

    def grab(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[id_col], value_set=ray.get(id_ref)))

    return list(block_tables(map_blocks(content, grab, cols=cols)))


def _probe(pairs: ray.data.Dataset, cap: int, keep=None):
    """``(tables, rows)``: the blocks of the materialized ``pairs``, read by
    ref and filtered by ``keep`` on the driver one at a time, until more
    than ``cap`` rows are seen — no task, no Ray Data execution.  When the
    set fits the cap (the common case) this IS the collect."""
    parts, n = [], 0
    for t in block_tables(pairs):
        if keep is not None:
            t = keep(t)
        parts.append(t)
        n += t.num_rows
        if n > cap:
            break
    return parts, n


def _attach_driver(pairs: pa.Table, content: ray.data.Dataset, id_col: str, cols) -> pa.Table:
    """``pairs`` (id_a, id_b, ...) plus ``{c}_a`` / ``{c}_b`` for each of
    ``cols``: the endpoints' rows are gathered by one raw filter task per
    content block and attached by an Arrow take (types preserved).  A pair
    with an endpoint absent from ``content`` is DROPPED — the same
    semantics as ``_attach_distributed``'s inner joins."""
    ends = [pairs[c].combine_chunks() for c in ("id_a", "id_b")]
    found = _rows_with_ids(
        content, id_col, pc.unique(pa.concat_arrays(ends)), [id_col, *cols]
    )
    sub = (
        pa.concat_tables(found, promote_options="permissive")
        if found
        else pa.table({c: pa.nulls(0) for c in [id_col, *cols]})
    )
    keys = pc.cast(sub[id_col], ends[0].type)
    idx = [pc.index_in(e, value_set=keys) for e in ends]
    ok = pc.and_(pc.is_valid(idx[0]), pc.is_valid(idx[1]))
    pairs = pairs.filter(ok)
    for side, ix in zip("ab", idx):
        ix = ix.filter(ok)
        for c in cols:
            pairs = pairs.append_column(f"{c}_{side}", sub[c].take(ix))
    return pairs


def _attach_distributed(
    pairs: ray.data.Dataset,
    n_pairs: int,
    content: ray.data.Dataset,
    id_col: str,
    cols,
    num_partitions: int,
) -> ray.data.Dataset:
    """``_attach_driver`` for pair sets past the driver cap: a fixed-size
    bloom bitmap over the endpoint-id hashes of ``pairs`` (``n_pairs``
    rows; built streaming, bounded driver memory) pre-filters ``content``
    in one raw task per block — a false positive ships one extra row, a
    miss is impossible — and two distributed hash joins attach it."""
    bitmap = bloom_build(
        (
            id_hash64(b.column(c))
            for b in block_tables(pairs)
            for c in ("id_a", "id_b")
        ),
        2 * n_pairs,
    )
    bloom_ref = ray.put(bitmap)

    def grab_bloom(t: pa.Table) -> pa.Table:
        ok = bloom_probe(ray.get(bloom_ref), id_hash64(t[id_col]))
        return t.filter(pa.array(ok))

    sub_ds = map_blocks(content, grab_bloom, cols=[id_col, *cols])

    # each side PRE-renamed so no map_batches sits between the joins (a
    # zero-block post-map partition is schemaless and crashes Arrow's join)
    def side(s: str) -> ray.data.Dataset:
        return sub_ds.map_batches(
            lambda t: pa.table(
                {f"id_{s}": t[id_col], **{f"{c}_{s}": t[c] for c in cols}}
            ),
            batch_format="pyarrow",
        ).materialize()

    # Ray's hash-shuffle join spawns aggregator actors per partition and
    # deadlocks when they exceed available CPUs (Ray 2.49 local mode)
    num_partitions = max(2, min(num_partitions, cluster_cpus()))
    # repartition between the joins: directly chained hash joins crash in
    # Ray 2.49 (the second join's aggregator builds zero-shard partitions
    # as 0-column tables); repartition coalesces blocks and restores a
    # uniform schema.  It only moves the pair rows + the ``_a`` side.
    return (
        pairs.join(side("a"), join_type="inner", num_partitions=num_partitions, on=("id_a",))
        .repartition(num_partitions)
        .join(side("b"), join_type="inner", num_partitions=num_partitions, on=("id_b",))
    )


def attach_pair_contents(
    pairs: ray.data.Dataset,
    content: ray.data.Dataset,
    *,
    id_col: str = "id",
    num_partitions: int = 32,
    driver_cap: int = BORDER_DRIVER_CAP,
) -> Optional[ray.data.Dataset]:
    """Attach both endpoints' content to a pair dataset (id_a, id_b, ...).

    Returns None when ``pairs`` is empty.  Up to ``driver_cap`` pairs the
    contents are attached on the driver (``_attach_driver``); above it by
    a bloom pre-filter and two distributed hash joins
    (``_attach_distributed``) — the same two helpers as the borderline
    exact-verify.  The content payload column(s) come back with ``_a`` /
    ``_b`` suffixes; a pair with an endpoint absent from ``content`` is
    dropped on both paths."""
    pairs = pairs.materialize()
    parts, n = _probe(pairs, driver_cap)
    if n == 0:
        return None
    cols = [c for c in content.schema().names if c != id_col]
    if n <= driver_cap:
        pairs_t = pa.concat_tables(parts, promote_options="permissive")
        return dataset_from_tables([_attach_driver(pairs_t, content, id_col, cols)])
    # the probe stopped at cap+1 rows; bloom sizing needs the true count
    # (metadata-only on the materialized pairs)
    return _attach_distributed(pairs, pairs.count(), content, id_col, cols, num_partitions)


def verify_pairs(
    pairs: ray.data.Dataset,
    content_by_id: ray.data.Dataset,
    sig_cfg: SignatureConfig,
    lsh_cfg: Optional[LSHConfig] = None,
    tau: float = 0.2,
    num_partitions: int = 32,
    border_driver_cap: int = BORDER_DRIVER_CAP,
) -> ray.data.Dataset:
    """Split candidate pairs into sure / borderline; exact-verify the
    borderline slice.  Returns the verified edge list (id_a, id_b,
    est_distance) with d <= tau (inclusive boundary)."""
    lsh_cfg = lsh_cfg or LSHConfig()
    # pairs feed two consumers (sure + borderline); read once, by ref, with
    # zero-row blocks (selective in-bucket filters leave many) dropped so
    # neither pass schedules a task for them.  Block refs move, bytes don't.
    pairs = concat_blocks(pairs)
    if pairs.num_blocks() == 0:
        return dataset_from_tables([PAIR_SCHEMA.empty_table()])

    if not lsh_cfg.exact_verify:
        return map_blocks(pairs, lambda t: t.filter(pc.less_equal(t["est_distance"], tau)))
    low = tau - lsh_cfg.exact_margin_low
    sure = map_blocks(pairs, lambda t: t.filter(pc.less_equal(t["est_distance"], low)))

    def border_of(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["est_distance"], low))

    border_parts, n_border = _probe(pairs, border_driver_cap, border_of)
    if n_border == 0:
        return sure

    check_batch = _make_check_batch(sig_cfg, tau)
    if n_border > border_driver_cap:
        # the probe stopped at cap+1 rows; bloom sizing needs the true
        # border count (only paid when the border set is genuinely big)
        border = map_blocks(pairs, border_of)
        joined = _attach_distributed(
            border, border.count(), content_by_id, "id", ["content"], num_partitions
        )
        return concat_blocks(
            sure, joined.map_batches(check_batch, batch_format="pyarrow", batch_size=1024)
        )

    # few borderline pairs: attach contents on the driver (bounded by the
    # cap; distributed joins would add two shuffles of latency)
    border_t = _attach_driver(
        pa.concat_tables(border_parts, promote_options="permissive")
        .select(["id_a", "id_b", "est_distance"])
        .sort_by([("id_a", "ascending"), ("id_b", "ascending")]),
        content_by_id,
        "id",
        ["content"],
    )
    # split into blocks on the driver so the exact checks parallelize
    # (one block = one serial task) without an all-to-all repartition
    n_blocks = max(1, min(64, border_t.num_rows // 512))
    step = -(-border_t.num_rows // n_blocks)
    slices = [border_t.slice(i * step, step) for i in range(n_blocks)]
    checked = map_blocks(dataset_from_tables(slices), check_batch)
    return concat_blocks(sure, checked)
