"""Exact-duplicate collapse: one representative per distinct sha256.

Exact dups are distance-0 pairs in the reference's model (below any
threshold ⇒ same cluster, ``sequence_grouping.py:51-53``).  The flagship
collapses them after signing, at the slim level (ids + signatures, no
content): only one row per distinct content enters LSH, and the other
members link to it by zero-distance star edges.  The rep choice is
min(id): any member works because identical content ⇒ identical
signature; final ranking happens in the classification stage over the
whole cluster.

Two plans give the same reps and edges: ``exact_collapse`` (a
``hash_exchange`` on ``pkey = hash(sha_hex) % P``, each partition one
vectorized call: sort by (sha, id), first-occurrence mask) and, for small
inputs, ``exact_collapse_driver`` (one lexsort on the driver).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .lsh import PAIR_SCHEMA


def _sha_exchange(ds: ray.data.Dataset, reduce_fn, cols=None) -> ray.data.Dataset:
    """Hash exchange on ``sha_hex``: every row of one sha reaches one
    ``reduce_fn`` call.  ``cols``: the columns of ``ds`` that enter the
    exchange (projected inside the pkey tasks; None keeps all)."""
    from .exchange import exchange_partitions, hash_exchange, map_blocks, string_pkey

    num_partitions = exchange_partitions()

    def add_pkey(t: pa.Table) -> pa.Table:
        return t.append_column("pkey", string_pkey(t["sha_hex"], num_partitions))

    return hash_exchange(
        map_blocks(ds, add_pkey, cols=cols),
        "pkey",
        num_partitions,
        reduce_fn,
    )


def _sha_sort(g: pa.Table):
    sha = np.asarray(g.column("sha_hex").to_pylist(), dtype=object)
    ids = np.asarray(g.column("id").to_pylist(), dtype=object)
    order = np.lexsort((ids, sha))
    first = np.ones(len(order), dtype=bool)
    sha_sorted = sha[order]
    first[1:] = sha_sorted[1:] != sha_sorted[:-1]
    return order, first


FUSED_SCHEMA = pa.schema(
    [
        ("kind", pa.int8()),  # 0 = representative row, 1 = star edge row
        ("id", pa.string()),
        ("sha_hex", pa.string()),
        ("minhash", pa.large_binary()),
        ("simhash", pa.uint64()),
        ("id_a", pa.string()),
        ("id_b", pa.string()),
    ]
)


def exact_collapse(signed: ray.data.Dataset) -> ray.data.Dataset:
    """ONE sha shuffle producing both the per-sha representative rows
    (kind=0: id, sha_hex, minhash, simhash) and the rep--member star edges
    (kind=1: id_a, id_b).  ``signed`` may carry content: only the four
    slim columns enter the exchange.  Callers filter the
    (materialized) fused output by ``kind``."""

    def emit_fused(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return FUSED_SCHEMA.empty_table()
        g = g.drop_columns(["pkey"])
        order, first = _sha_sort(g)
        take = pa.array(order[first], pa.int64())
        reps = g.take(take)
        n_reps = reps.num_rows
        ids = np.asarray(g.column("id").to_pylist(), dtype=object)[order]
        group_idx = np.cumsum(first) - 1
        rep_positions = np.flatnonzero(first)
        reps_for_row = ids[rep_positions[group_idx]]
        members_mask = ~first
        n_edges = int(members_mask.sum())
        rep_part = pa.table(
            {
                "kind": pa.array(np.zeros(n_reps, dtype=np.int8), pa.int8()),
                "id": pc.cast(reps["id"], pa.string()),
                "sha_hex": pc.cast(reps["sha_hex"], pa.string()),
                "minhash": pc.cast(reps["minhash"], pa.large_binary()),
                "simhash": pc.cast(reps["simhash"], pa.uint64()),
                "id_a": pa.nulls(n_reps, pa.string()),
                "id_b": pa.nulls(n_reps, pa.string()),
            },
            schema=FUSED_SCHEMA,
        )
        if n_edges == 0:
            return rep_part
        edge_part = pa.table(
            {
                "kind": pa.array(np.ones(n_edges, dtype=np.int8), pa.int8()),
                "id": pa.nulls(n_edges, pa.string()),
                "sha_hex": pa.nulls(n_edges, pa.string()),
                "minhash": pa.nulls(n_edges, pa.large_binary()),
                "simhash": pa.nulls(n_edges, pa.uint64()),
                "id_a": pa.array(list(reps_for_row[members_mask]), pa.string()),
                "id_b": pa.array(list(ids[members_mask]), pa.string()),
            },
            schema=FUSED_SCHEMA,
        )
        return pa.concat_tables([rep_part, edge_part])

    return _sha_exchange(
        signed, emit_fused, cols=["id", "sha_hex", "minhash", "simhash"]
    )


def fused_reps(fused: ray.data.Dataset) -> ray.data.Dataset:
    """kind=0 slice of ``exact_collapse`` output -> (id, sha_hex, minhash,
    simhash), one raw task per block."""
    from .exchange import map_blocks

    return map_blocks(
        fused,
        lambda t: t.filter(pc.equal(t["kind"], 0)).select(
            ["id", "sha_hex", "minhash", "simhash"]
        ),
    )


def fused_edges(fused: ray.data.Dataset) -> ray.data.Dataset:
    """kind=1 slice of ``exact_collapse`` output -> zero-distance star
    edges in PAIR_SCHEMA, one raw task per block."""
    from .exchange import map_blocks

    def to_pairs(t: pa.Table) -> pa.Table:
        e = t.filter(pc.equal(t["kind"], 1))
        return pa.table(
            {
                "id_a": pc.cast(e["id_a"], pa.string()),
                "id_b": pc.cast(e["id_b"], pa.string()),
                "est_distance": pa.array(
                    np.zeros(e.num_rows, dtype=np.float64), pa.float64()
                ),
            },
            schema=PAIR_SCHEMA,
        )

    return map_blocks(fused, to_pairs)


def exact_collapse_driver(signed_slim: ray.data.Dataset):
    """Driver-side sha collapse for small inputs (gated by
    ``ExecutionConfig.exact_driver_cap``): streams only (id, sha_hex) to the
    driver, lexsorts once, and returns

        (rep_ids, edges_table)

    where ``rep_ids`` is the min(id)-per-distinct-sha id array (object
    dtype, in sha-sorted order) and ``edges_table`` is the rep--member
    zero-distance star edge list in PAIR_SCHEMA — the exact output the
    ``exact_collapse`` exchange produces, without its exchange tasks.  The caller
    filters the signed dataset by id membership to recover the rep rows.
    The (id, sha_hex) columns are read by ref (``block_tables``): on the
    pinned signed dataset no Ray Data execution starts, and content stays
    in the object store."""
    from .exchange import block_tables

    id_parts, sha_parts = [], []
    for b in block_tables(signed_slim, ["id", "sha_hex"]):
        id_parts.append(np.asarray(b.column("id").to_pylist(), dtype=object))
        sha_parts.append(np.asarray(b.column("sha_hex").to_pylist(), dtype=object))
    if not id_parts:
        return np.empty(0, dtype=object), PAIR_SCHEMA.empty_table()
    ids = np.concatenate(id_parts)
    sha = np.concatenate(sha_parts)
    order = np.lexsort((ids, sha))
    ids, sha = ids[order], sha[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = sha[1:] != sha[:-1]
    rep_ids = ids[first]
    group_idx = np.cumsum(first) - 1
    reps_for_row = rep_ids[group_idx]
    members = ~first
    n_edges = int(members.sum())
    edges = pa.table(
        {
            "id_a": pa.array(list(reps_for_row[members]), pa.string()),
            "id_b": pa.array(list(ids[members]), pa.string()),
            "est_distance": pa.array(np.zeros(n_edges), pa.float64()),
        },
        schema=PAIR_SCHEMA,
    )
    return rep_ids, edges
