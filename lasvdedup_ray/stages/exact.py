"""Exact-duplicate collapse: one representative per distinct sha256.

Exact dups are distance-0 pairs in the reference's model (below any
threshold ⇒ same cluster, ``sequence_grouping.py:51-53``).  The flagship
collapses them after signing, at the slim level (ids + signatures, no
content): only one row per distinct content enters LSH, and the other
members link to it by zero-distance star edges.  The rep choice is
min(id): any member works because identical content ⇒ identical
signature; final ranking happens in the classification stage over the
whole cluster.  Rows are keyed by the 32-byte ``sha256`` digest, and every
plan builds its reps and edges with one kernel, ``min_id_stars``.

``sha_collapse`` picks one of two plans by input size; both give the same
reps and edges (``tests/test_path_equivalence.py``).  Both read the job's
one slim projection ``meta`` (id, lang, n_chars, n_lines, sha256,
minhash, simhash; no content):

- at most ``_DRIVER_ROWS`` input rows: ``exact_collapse_driver`` reads the
  blocks of ``meta`` by ref, runs the kernel once and takes the reps'
  (id, minhash, simhash) rows on the driver; no task runs.  Sending every
  job through the exchange cost +32% ``run_cpu_s`` on the 1000-file
  ``mixed_5kb`` benchmark (median of 6 alternating pairs).  Nothing is
  checkpointed: a resume redoes the collapse from ``signed``.
- above it: ``exact_collapse``, a ``hash_exchange`` on ``pkey`` = the
  digest's first 8 bytes mod P, each partition one kernel call.  Its
  output is pinned as ``reps``, so a resume reads it back without the
  exchange.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .lsh import PAIR_SCHEMA

# inputs of at most this many rows collapse on the driver (module
# docstring).  It bounds DRIVER RAM: the driver reads the slim rows by ref
# (~600 B a row with ``minhash``, ~90 MB at the bound, object-store views,
# not copies) and copies out only the sorted (id, sha256) keys and the
# reps' (id, minhash, simhash) rows; there is no second full copy.
_DRIVER_ROWS = 150_000


def min_id_stars(keys, ids) -> Tuple[np.ndarray, pa.Table]:
    """``(rep_rows, edges)`` of rows grouped by ``keys``: the row index of
    each distinct key's min id, in key order, and the zero-distance star
    edges in PAIR_SCHEMA from that id to every other id of its key.  Ids
    compare as UTF-8 bytes, which is Python ``str`` order."""
    order = pc.sort_indices(
        pa.table({"key": keys, "id": ids}),
        sort_keys=[("key", "ascending"), ("id", "ascending")],
    )
    keys, ids = pc.take(keys, order), pc.take(ids, order)
    first = np.ones(len(order), dtype=bool)
    if len(order) > 1:
        first[1:] = np.asarray(pc.not_equal(keys[1:], keys[:-1]))
    starts = np.flatnonzero(first)
    members = np.flatnonzero(~first)
    hubs = starts[np.cumsum(first)[members] - 1]
    edges = pa.table(
        {
            "id_a": pc.take(ids, hubs),
            "id_b": pc.take(ids, members),
            "est_distance": np.zeros(len(members)),
        },
        schema=PAIR_SCHEMA,
    )
    return order.to_numpy()[starts], edges


def collapses_on_driver(n_rows: int) -> bool:
    """Whether an input of ``n_rows`` rows takes the driver plan, which
    pins no ``reps`` stage."""
    return n_rows <= _DRIVER_ROWS


def sha_collapse(meta: ray.data.Dataset, ck) -> Tuple[ray.data.Dataset, ray.data.Dataset]:
    """``(reps_slim, edges)`` of the job's slim projection ``meta``: the
    (id, minhash, simhash) rows of each distinct sha256's min id, and the
    zero-distance star edges (PAIR_SCHEMA) that link every other row to
    it.  The plan follows the row count (module docstring); ``ck``, the
    job's ``StageCheckpointer``, pins the exchange plan's output."""
    from .exchange import dataset_from_tables

    if collapses_on_driver(meta.count()):
        reps, edges = exact_collapse_driver(meta)
        step = -(-reps.num_rows // meta.num_blocks())  # as many blocks as meta
        slices = [reps.slice(i, step) for i in range(0, reps.num_rows, step)]
        return dataset_from_tables(slices), dataset_from_tables([edges])
    # a builder, not a dataset: the exchange starts when it is built, so a
    # resume that reads "reps" back skips it
    fused = ck.pin(lambda: exact_collapse(meta), "reps")
    return fused_reps(fused), fused_edges(fused)


def _sha_exchange(ds: ray.data.Dataset, reduce_fn, cols=None) -> ray.data.Dataset:
    """Hash exchange on ``sha256``: every row of one digest reaches one
    ``reduce_fn`` call.  ``cols``: the columns of ``ds`` that enter the
    exchange (projected inside the pkey tasks; None keeps all)."""
    from .exchange import exchange_partitions, hash_exchange, map_blocks

    num_partitions = exchange_partitions()

    def add_pkey(t: pa.Table) -> pa.Table:
        # a digest is uniform already: its first 8 bytes are the hash
        d = pc.cast(t["sha256"], pa.binary(32)).combine_chunks()
        head = np.frombuffer(d.buffers()[1], np.uint64, 4 * len(d), 32 * d.offset)[::4]
        pk = (head % np.uint64(num_partitions)).astype(np.int32)
        return t.append_column("pkey", pa.array(pk))

    return hash_exchange(
        map_blocks(ds, add_pkey, cols=cols),
        "pkey",
        num_partitions,
        reduce_fn,
    )


def exact_collapse(signed: ray.data.Dataset) -> ray.data.Dataset:
    """ONE sha shuffle producing both the per-sha representative rows
    (``kind`` 0: id, minhash, simhash) and the rep--member star edges
    (``kind`` 1: id_a, id_b).  ``signed`` may carry content: only the four
    slim columns enter the exchange.  Callers filter the (materialized)
    fused output by ``kind``."""

    def emit_fused(g: pa.Table) -> pa.Table:
        rep_rows, edges = min_id_stars(g["sha256"], g["id"])
        reps = g.select(["id", "minhash", "simhash"]).take(rep_rows)
        kinds = [(reps, 0), (edges.select(["id_a", "id_b"]), 1)]
        # each part lacks the other's columns: concat fills them with nulls
        return pa.concat_tables(
            [t.append_column("kind", pa.array(np.full(t.num_rows, k, np.int8))) for t, k in kinds],
            promote_options="default",
        )

    return _sha_exchange(
        signed, emit_fused, cols=["id", "sha256", "minhash", "simhash"]
    )


def fused_reps(fused: ray.data.Dataset) -> ray.data.Dataset:
    """kind=0 slice of ``exact_collapse`` output -> (id, minhash, simhash),
    one raw task per block."""
    from .exchange import map_blocks

    return map_blocks(
        fused,
        lambda t: t.filter(pc.equal(t["kind"], 0)).select(["id", "minhash", "simhash"]),
    )


def fused_edges(fused: ray.data.Dataset) -> ray.data.Dataset:
    """kind=1 slice of ``exact_collapse`` output -> zero-distance star
    edges in PAIR_SCHEMA, one raw task per block."""
    from .exchange import map_blocks

    def to_pairs(t: pa.Table) -> pa.Table:
        e = t.filter(pc.equal(t["kind"], 1)).select(["id_a", "id_b"])
        return e.append_column("est_distance", pa.array(np.zeros(e.num_rows)))

    return map_blocks(fused, to_pairs)


def exact_collapse_driver(meta: ray.data.Dataset):
    """Driver plan of the sha collapse (module docstring): ``(reps,
    edges)``, the Arrow table of each distinct sha256's min-id (id,
    minhash, simhash) row in digest order and the star edges in
    PAIR_SCHEMA, as ``exact_collapse`` gives them.  The blocks of ``meta``
    (at least one row) are read by ref (``block_tables``): no task and no
    Ray Data execution runs."""
    from .exchange import block_tables

    t = pa.concat_tables(list(block_tables(meta)))
    rep_rows, edges = min_id_stars(t["sha256"], t["id"])
    return t.select(["id", "minhash", "simhash"]).take(rep_rows).combine_chunks(), edges
