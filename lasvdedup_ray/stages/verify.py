"""Exact-Jaccard re-verification of borderline candidate pairs.

MinHash estimates have sigma ≈ sqrt(J(1-J)/num_perms) ≈ 0.035 at the
J = 1-tau boundary with 128 perms — enough to flip pairs across the
reference's inclusive ``<=`` threshold (``sequence_grouping.py:53``).  To
hold dup-pair recall >= 0.99 *at* the boundary, pairs whose estimated
distance lies within ``exact_margin_low`` / ``exact_margin_high`` of tau
are re-checked with the exact Jaccard of the shingle sets the MinHash
sketches (``exact_jaccard``: the sign stage's own normalization and
shingle kernels, each distinct endpoint shingled once per task).

Execution shape (no Ray Data execution at any size):
- the sure set (est <= tau - margin_low) passes through a filter of one
  raw task per pair block (``map_blocks``);
- the borderline set (est > tau - margin_low; the high side tau +
  margin_high was already enforced at LSH emission) is read in chunks of
  at most ``_BORDER_CHUNK`` pairs (``_chunks``: the materialized pair
  blocks are read by ref and filtered on the driver), so driver memory is
  bounded by one chunk whatever the border size.  For each chunk,
  ``_attach_driver`` gathers the endpoints' content with one raw filter
  task per content block and attaches it with an Arrow take; the chunk is
  sliced into at most 64 blocks on the driver and checked by one raw task
  per slice, which keeps its pairs with an Arrow mask.  The result is the
  sure set's block refs followed by the checked ones (``concat_blocks``).
  ``attach_pair_contents`` uses the same chunked gather.
"""

from __future__ import annotations

import logging
from typing import Iterator, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..config import LSHConfig, SignatureConfig
from ..functions.hashing import shingle_hashes_batch
from ..functions.text import normalized_bytes
from .exchange import block_tables, concat_blocks, dataset_from_tables, map_blocks
from .lsh import PAIR_SCHEMA

logger = logging.getLogger(__name__)

# pairs gathered, attached and checked per driver chunk: the driver holds
# the content of at most 2 x this many endpoints at a time, at any size
_BORDER_CHUNK = 100_000


def exact_jaccard(t: pa.Table, cfg: SignatureConfig) -> np.ndarray:
    """Exact Jaccard of each pair of ``t`` (``id_a``, ``id_b``,
    ``content_a``, ``content_b``) over the shingle sets the MinHash
    estimates: the sign stage's normalization (``normalized_bytes``) and
    its k-shingle hashes, unsampled (``shingle_hashes_batch``).  Each
    distinct endpoint id is shingled once, so a document in many pairs (a
    cluster hub) costs one shingling, not one per pair."""
    n = t.num_rows
    if n == 0:
        return np.zeros(0)
    ids = pa.concat_arrays([t[c].combine_chunks() for c in ("id_a", "id_b")])
    docs = pc.unique(ids)
    code = pc.index_in(ids, value_set=docs).to_numpy()
    content = pa.concat_arrays([t[c].combine_chunks() for c in ("content_a", "content_b")])
    buf, starts, ends = normalized_bytes(
        content.take(pc.index_in(docs, value_set=ids)), cfg.lowercase, cfg.collapse_ws
    )
    hashes, offsets, counts = shingle_hashes_batch(buf, starts, ends, cfg.k)
    a, b = code[:n], code[n:]
    # each doc's hashes are one sorted run of unique values, so a pair's
    # intersection is the hashes of its shorter run found in the longer
    # one: one searchsorted per distinct longer-run doc, over the shorter
    # runs of all its pairs
    short = counts[a] <= counts[b]
    q, r = np.where(short, a, b), np.where(short, b, a)
    by_r = np.argsort(r, kind="stable")
    firsts = np.flatnonzero(np.r_[True, r[by_r][1:] != r[by_r][:-1]])
    inter = np.zeros(n, np.int64)
    for pairs in np.split(by_r, firsts[1:]):
        d = r[pairs[0]]
        run = hashes[offsets[d] : offsets[d] + counts[d]]
        lens = counts[q[pairs]]
        at = np.repeat(offsets[q[pairs]] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        needle = hashes[at]
        hit = run[np.minimum(np.searchsorted(run, needle), run.size - 1)] == needle
        inter[pairs] = np.bincount(np.repeat(np.arange(pairs.size), lens)[hit], minlength=pairs.size)
    return inter / (counts[a] + counts[b] - inter)


def _rows_with_ids(content: ray.data.Dataset, id_col: str, needed: pa.Array, cols) -> list:
    """The rows of ``content`` whose ``id_col`` is in ``needed``, as Arrow
    tables: one raw filter task per content block (projected to ``cols``
    inside it), read back by ref."""
    id_ref = ray.put(needed)

    def grab(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[id_col], value_set=ray.get(id_ref)))

    return list(block_tables(map_blocks(content, grab, cols=cols)))


def _chunks(pairs: ray.data.Dataset, keep=None) -> Iterator[pa.Table]:
    """The rows of ``pairs`` (filtered by ``keep``) as tables of at most
    ``_BORDER_CHUNK`` rows: its blocks are read by ref one at a time and
    cut or merged on the driver — no task on a materialized ``pairs``, and
    the driver holds at most one chunk plus one block."""
    parts, n = [], 0
    for t in block_tables(pairs):
        if keep is not None:
            t = keep(t)
        while t.num_rows:
            part = t.slice(0, _BORDER_CHUNK - n)
            parts.append(part)
            n += part.num_rows
            t = t.slice(part.num_rows)
            if n == _BORDER_CHUNK:
                yield pa.concat_tables(parts, promote_options="permissive")
                parts, n = [], 0
    if n:
        yield pa.concat_tables(parts, promote_options="permissive")


def _attach_driver(pairs: pa.Table, content: ray.data.Dataset, id_col: str, cols) -> pa.Table:
    """``pairs`` (id_a, id_b, ...) plus ``{c}_a`` / ``{c}_b`` for each of
    ``cols``: the endpoints' rows are gathered by one raw filter task per
    content block and attached by an Arrow take (types preserved).  A pair
    with an endpoint absent from ``content`` is DROPPED (inner-join
    semantics)."""
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


def attach_pair_contents(
    pairs: ray.data.Dataset,
    content: ray.data.Dataset,
    *,
    id_col: str = "id",
) -> Optional[ray.data.Dataset]:
    """Attach both endpoints' content to a pair dataset (id_a, id_b, ...).

    Returns None when ``pairs`` is empty.  The pairs are read in chunks of
    at most ``_BORDER_CHUNK`` rows and each chunk's contents are attached
    on the driver (``_attach_driver``) and put in the object store before
    the next chunk is read — the same gather as the borderline
    exact-verify.  The content payload column(s) come back with ``_a`` /
    ``_b`` suffixes; a pair with an endpoint absent from ``content`` is
    dropped."""
    cols = [c for c in content.schema().names if c != id_col]
    attached = [
        dataset_from_tables([_attach_driver(t, content, id_col, cols)])
        for t in _chunks(pairs)
    ]
    if not attached:
        return None
    out = concat_blocks(*attached)
    # every pair dropped: keep one empty block so the result has a schema
    return out if out.num_blocks() else attached[0]


def verify_pairs(
    pairs: ray.data.Dataset,
    content_by_id: ray.data.Dataset,
    sig_cfg: SignatureConfig,
    lsh_cfg: Optional[LSHConfig] = None,
    tau: float = 0.2,
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

    def check(t: pa.Table) -> pa.Table:
        d = 1.0 - exact_jaccard(t, sig_cfg)
        keep = pa.array(d <= tau)  # inclusive boundary (sequence_grouping.py:53)
        return pa.table([t["id_a"], t["id_b"], d], schema=PAIR_SCHEMA).filter(keep)

    checked = []
    for border in _chunks(pairs, border_of):
        border = _attach_driver(
            border.select(["id_a", "id_b", "est_distance"]).sort_by(
                [("id_a", "ascending"), ("id_b", "ascending")]
            ),
            content_by_id,
            "id",
            ["content"],
        )
        # split into blocks on the driver so the exact checks parallelize
        # (one block = one serial task) without an all-to-all repartition
        n_blocks = max(1, min(64, border.num_rows // 512))
        step = -(-border.num_rows // n_blocks)
        slices = [border.slice(i * step, step) for i in range(n_blocks)]
        checked.append(map_blocks(dataset_from_tables(slices), check))
    return concat_blocks(sure, *checked) if checked else sure
