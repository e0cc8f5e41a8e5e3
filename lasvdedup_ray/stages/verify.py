"""Exact-Jaccard re-verification of borderline candidate pairs.

MinHash estimates have sigma ≈ sqrt(J(1-J)/num_perms) ≈ 0.035 at the
J = 1-tau boundary with 128 perms — enough to flip pairs across the
reference's inclusive ``<=`` threshold (``sequence_grouping.py:53``).  To
hold dup-pair recall >= 0.99 *at* the boundary, pairs whose estimated
distance lies within ``exact_margin`` of tau are re-checked with the exact
shingle-set Jaccard.

Execution shape (fully distributed — no driver-size degradation):
- the sure set (est <= tau - margin_low) passes through a filter of one
  raw task per pair block (``map_blocks``);
- the borderline set (est > tau - margin_low; the high side tau +
  margin_high was already enforced at LSH emission) is tiny by
  construction.  It is probed without a Ray Data execution: the pairs are
  materialized, so their blocks are read by ref (``block_tables``) and
  filtered on the driver one block at a time until the set is known to fit
  ``border_driver_cap`` or known to exceed it.  Below the cap its contents
  are gathered by one raw filter task per content block (projected to
  ``(id, content)`` inside the task) and attached on the driver; the
  checked set is sliced into blocks on the driver and checked by one raw
  task per slice, and the result is the sure set's block refs followed by
  the checked ones (``concat_blocks``) — no Ray Data execution on this
  path.  Above the cap, a FIXED-SIZE bloom bitmap over endpoint-id hashes
  pre-filters the content table (bounded driver memory; a false positive
  only ships one extra content row), and the exact check runs behind a
  distributed double hash join — boundary pairs are exact-checked at EVERY
  scale.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.block import BlockMetadataWithSchema

from ..config import LSHConfig, SignatureConfig
from ..functions.hashing import shingle_hashes, splitmix64
from .exchange import (
    block_tables,
    cluster_cpus,
    concat_blocks,
    dataset_from_blocks,
    map_blocks,
)
from .lsh import PAIR_SCHEMA

logger = logging.getLogger(__name__)

# below this many borderline pairs, attach contents on the driver (bounded:
# ~100 MB of pair rows + contents; one broadcast filter pass beats two
# content-join shuffles); above it, go fully distributed (bloom + joins)
BORDER_DRIVER_CAP = 100_000
_BLOOM_BITS_PER_KEY = 16
_BLOOM_MAX_BITS = 1 << 31


def _normalize(s: str, cfg: SignatureConfig) -> bytes:
    if cfg.lowercase:
        s = s.lower()
    if cfg.collapse_ws:
        s = " ".join(s.split())
    return s.encode("utf-8")


def _id_hash64(ids) -> np.ndarray:
    """Vectorized, process-stable 64-bit hash of an id string array
    (pandas' cython siphash with its fixed default key)."""
    return pd.util.hash_array(np.asarray(ids, dtype=object), categorize=False)


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


def _rows_with_ids(content: ray.data.Dataset, id_col: str, needed, cols=None) -> list:
    """The rows of ``content`` whose ``id_col`` is in ``needed``, as Arrow
    tables: one raw filter task per content block (projected to ``cols``
    inside it), read back by ref."""
    id_ref = ray.put(pa.array(sorted(needed)))

    def grab(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[id_col], value_set=ray.get(id_ref)))

    return list(block_tables(map_blocks(content, grab, cols=cols)))


def attach_pair_contents(
    pairs: ray.data.Dataset,
    content: ray.data.Dataset,
    *,
    id_col: str = "id",
    num_partitions: int = 32,
    driver_cap: int = BORDER_DRIVER_CAP,
) -> Optional[ray.data.Dataset]:
    """Attach both endpoints' content to a pair dataset (id_a, id_b, ...).

    Returns None when ``pairs`` is empty.  Below ``driver_cap`` pairs the
    contents are attached on the driver (one broadcast filter pass,
    bounded); above it, a fixed-size bloom bitmap over endpoint-id hashes
    pre-filters ``content`` and two distributed hash joins attach it — the
    same scale shape as the borderline exact-verify.  The content payload
    column(s) come back with ``_a`` / ``_b`` suffixes."""
    pairs = pairs.materialize()
    # probe by ref (the verify_pairs pattern): the materialized blocks are
    # read one at a time until the cap is disproven — when the pair set
    # fits the driver cap (the common case) this collect IS the only scan,
    # and no Ray Data execution starts
    parts, n = [], 0
    for t in block_tables(pairs):
        parts.append(t)
        n += t.num_rows
        if n > driver_cap:
            break
    if n == 0:
        return None
    value_cols = [c for c in content.schema().names if c != id_col]
    num_partitions = max(2, min(num_partitions, cluster_cpus()))

    if n <= driver_cap:
        pdf = pa.concat_tables(parts, promote_options="permissive").to_pandas()
        found = _rows_with_ids(content, id_col, set(pdf["id_a"]) | set(pdf["id_b"]))
        sub = (
            pa.concat_tables(found, promote_options="permissive").to_pandas()
            if found
            else pd.DataFrame(columns=[id_col] + value_cols)
        )
        # a pair with an endpoint absent from the content table is DROPPED —
        # the same semantics as the distributed path's inner joins below
        # (ADVICE r2: the driver path used to raise a bare KeyError here,
        # flipping behavior at driver_cap)
        present = set(sub[id_col])
        keep = pdf["id_a"].isin(present) & pdf["id_b"].isin(present)
        pdf = pdf[keep]
        maps = {c: dict(zip(sub[id_col], sub[c])) for c in value_cols}
        cols = {c: pdf[c].to_numpy() for c in pdf.columns}
        out = pa.table(
            {
                **{c: pa.array(cols[c]) for c in pdf.columns},
                **{
                    f"{c}_a": pa.array([maps[c][x] for x in pdf["id_a"]])
                    for c in value_cols
                },
                **{
                    f"{c}_b": pa.array([maps[c][x] for x in pdf["id_b"]])
                    for c in value_cols
                },
            }
        )
        return ray.data.from_arrow(out)

    # bloom over endpoint-id hashes (bounded driver memory, no misses);
    # the probe stopped at cap+1 rows — bloom sizing needs the true count
    # (metadata-only on the materialized pairs)
    n = pairs.count()
    bits = 1 << min(
        int(2 * n * _BLOOM_BITS_PER_KEY - 1).bit_length(),
        _BLOOM_MAX_BITS.bit_length() - 1,
    )
    bmask = np.uint64(bits - 1)
    bitmap = np.zeros(bits >> 6, dtype=np.uint64)
    for b in block_tables(pairs):
        for col in ("id_a", "id_b"):
            h = _id_hash64(b.column(col).to_pylist())
            for probe in (h & bmask, splitmix64(h) & bmask):
                np.bitwise_or.at(
                    bitmap, probe >> np.uint64(6), np.uint64(1) << (probe & np.uint64(63))
                )
    bloom_ref = ray.put((bitmap, bmask))

    def grab_bloom(t: pa.Table) -> pa.Table:
        bm, mask = ray.get(bloom_ref)
        h = _id_hash64(t[id_col].to_pylist())
        ok = np.ones(len(h), dtype=bool)
        for probe in (h & mask, splitmix64(h) & mask):
            word = bm[probe >> np.uint64(6)]
            ok &= (word >> (probe & np.uint64(63))) & np.uint64(1) != 0
        return t.filter(pa.array(ok))

    sub_ds = content.map_batches(grab_bloom, batch_format="pyarrow").materialize()
    # repartition between chained joins: Ray 2.49 builds zero-shard join
    # partitions as 0-column tables otherwise
    return (
        pairs.join(
            sub_ds,
            join_type="inner",
            num_partitions=num_partitions,
            on=("id_a",),
            right_on=(id_col,),
            left_suffix="_l1",
            right_suffix="_a",
        )
        .repartition(num_partitions)
        .join(
            sub_ds,
            join_type="inner",
            num_partitions=num_partitions,
            on=("id_b",),
            right_on=(id_col,),
            left_suffix="_a",
            right_suffix="_b",
        )
    )


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
    from .._phaselog import mark as _mark
    from ..state.unionfind import drop_empty_blocks

    lsh_cfg = lsh_cfg or LSHConfig()
    # pairs feed two consumers (sure + borderline); read once, by ref, with
    # zero-row blocks (selective in-bucket filters leave many) dropped so
    # neither pass schedules a task for them.  Block refs move, bytes don't.
    pairs = drop_empty_blocks(pairs)
    _mark("verify:pairs_materialize")
    if pairs is None:
        return ray.data.from_arrow(PAIR_SCHEMA.empty_table())

    if not lsh_cfg.exact_verify:
        return map_blocks(pairs, lambda t: t.filter(pc.less_equal(t["est_distance"], tau)))
    low = tau - lsh_cfg.exact_margin_low
    sure = map_blocks(pairs, lambda t: t.filter(pc.less_equal(t["est_distance"], low)))
    # border probe: the compacted pairs are materialized, so their blocks
    # are read by ref and filtered on the driver, one block at a time, until
    # the cap is disproven — no Ray Data execution, no filter re-run.  When
    # the border set fits the cap (the common case at default margins) this
    # IS the collect.
    border_parts, n_border = [], 0
    for t in block_tables(pairs):
        part = t.filter(pc.greater(t["est_distance"], low))
        border_parts.append(part)
        n_border += part.num_rows
        if n_border > border_driver_cap:
            break
    _mark("verify:border_probe")
    if n_border == 0:
        return sure

    check_batch = _make_check_batch(sig_cfg, tau)

    if n_border <= border_driver_cap:
        # few borderline pairs: attach contents on the driver (bounded by
        # the cap; distributed joins would add two shuffles of latency)
        border_t = (
            pa.concat_tables(border_parts, promote_options="permissive")
            .select(["id_a", "id_b", "est_distance"])
            .sort_by([("id_a", "ascending"), ("id_b", "ascending")])
        )
        needed = set(border_t["id_a"].to_pylist()) | set(border_t["id_b"].to_pylist())
        content_map = {}
        for t in _rows_with_ids(content_by_id, "id", needed, cols=["id", "content"]):
            content_map.update(zip(t["id"].to_pylist(), t["content"].to_pylist()))
        _mark("verify:border_content_fetch")
        for side in ("a", "b"):
            ids = border_t[f"id_{side}"].to_pylist()
            border_t = border_t.append_column(
                f"content_{side}",
                pa.array([content_map[x] for x in ids], pa.large_string()),
            )
        # split into blocks on the driver so the exact checks parallelize
        # (one block = one serial task) without an all-to-all repartition
        n_blocks = max(1, min(64, n_border // 512))
        step = -(-n_border // n_blocks)
        slices = [border_t.slice(i * step, step) for i in range(n_blocks)]
        checked = map_blocks(
            dataset_from_blocks(
                [ray.put(t) for t in slices],
                [BlockMetadataWithSchema.from_block(t) for t in slices],
            ),
            check_batch,
        )
        return concat_blocks(sure, checked)

    # ---- fully distributed path (any scale, bounded driver memory) --------
    # the probe above stopped at cap+1 rows; this path needs the true border
    # count for bloom sizing (only paid when the border set is genuinely big)
    border = map_blocks(pairs, lambda t: t.filter(pc.greater(t["est_distance"], low)))
    n_border = border.count()
    # 1. fixed-size bloom bitmap over borderline endpoint-id hashes, built
    #    streaming one batch at a time (driver holds the bitmap + a batch)
    bits = 1 << min(
        int(2 * n_border * _BLOOM_BITS_PER_KEY - 1).bit_length(),
        _BLOOM_MAX_BITS.bit_length() - 1,
    )
    bmask = np.uint64(bits - 1)
    bitmap = np.zeros(bits >> 6, dtype=np.uint64)
    for b in block_tables(border):
        for col in ("id_a", "id_b"):
            h = _id_hash64(b.column(col).to_pylist())
            for probe in (h & bmask, splitmix64(h) & bmask):
                np.bitwise_or.at(
                    bitmap, probe >> np.uint64(6), np.uint64(1) << (probe & np.uint64(63))
                )
    bloom_ref = ray.put((bitmap, bmask))

    # 2. distributed content pre-filter: only (probably-)needed rows enter
    #    the join shuffles; a false positive ships one extra row, a miss is
    #    impossible, so no boundary pair escapes the exact check
    def grab_bloom(t: pa.Table) -> pa.Table:
        bm, mask = ray.get(bloom_ref)
        h = _id_hash64(t["id"].to_pylist())
        ok = np.ones(len(h), dtype=bool)
        for probe in (h & mask, splitmix64(h) & mask):
            word = bm[probe >> np.uint64(6)]
            ok &= (word >> (probe & np.uint64(63))) & np.uint64(1) != 0
        return t.filter(pa.array(ok))

    # Ray's hash-shuffle join spawns aggregator actors per partition and
    # deadlocks when they exceed available CPUs (Ray 2.49 local mode)
    num_partitions = max(2, min(num_partitions, cluster_cpus()))

    sub_ds = map_blocks(content_by_id, grab_bloom, cols=["id", "content"])
    # both sides PRE-renamed so no map_batches sits between the joins (a
    # zero-block post-map partition is schemaless and crashes Arrow's join)
    content_a_ds = sub_ds.map_batches(
        lambda t: pa.table({"id_a": t["id"], "content_a": t["content"]}),
        batch_format="pyarrow",
    ).materialize()
    content_b_ds = sub_ds.map_batches(
        lambda t: pa.table({"id_b": t["id"], "content_b": t["content"]}),
        batch_format="pyarrow",
    ).materialize()
    # repartition between the joins: directly chained hash joins crash in
    # Ray 2.49 (the second join's aggregator builds zero-shard partitions
    # as 0-column tables); repartition coalesces blocks and restores a
    # uniform schema.  It only moves the (small) borderline pair rows +
    # content_a — not the corpus.
    j = (
        border.join(
            content_a_ds, join_type="inner", num_partitions=num_partitions, on=("id_a",)
        )
        .repartition(num_partitions)
        .join(content_b_ds, join_type="inner", num_partitions=num_partitions, on=("id_b",))
    )
    checked_ds = j.map_batches(check_batch, batch_format="pyarrow", batch_size=1024)
    return concat_blocks(sure, checked_ds)
