"""Rank-table (metadata side table) attachment with the reference's 3-stage
fuzzy key resolution.

Reference: ``lasvdedup/utils/sequence_grouping.py:55-78`` (get_contig_data),
pinned by ``tests/utils/test_sequence_grouping.py:176-244``:

1. exact key match;
2. ``name.replace('_R_', '').split('.', 1)[0]`` (reverse-complement marker
   strip + first-dot suffix strip);
3. a table key that equals ``name`` truncated at a dot boundary
   (``'seq3.part1.extra'`` resolves to key ``'seq3.part1'``);
4. miss: hard ``ValueError`` in the reference.

Divergences (documented): stage 3 resolves ties by LONGEST matching prefix
(the reference returns the first hit in dict iteration order, which is not
reproducible under distributed execution), and the miss policy is
configurable — ``"error"`` (reference behavior) or ``"rank_last"`` (miss
rows get null metadata and sort last in ranking).

Execution shape: the rank table is a metadata side table — while it has
at most ``_BROADCAST_ROWS`` rows it is broadcast (ray.put once, probed per
batch like the reference's dict).  Beyond it the resolution becomes a
distributed candidate-key explode (every name contributes its exact key,
its base key, and its dot-boundary prefixes — a handful of slim rows each)
joined against the rank table, keeping the best (lowest-stage, then
longest-prefix) hit per name.  No per-probe table scans in either path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .exchange import cluster_cpus, worker_get

# rank tables of up to this many rows are broadcast (module docstring)
_BROADCAST_ROWS = 1_000_000

def canonical_base(name: str) -> str:
    """Stage-2 key: ``_R_`` marker strip + first-dot suffix strip
    (sequence_grouping.py:68)."""
    return name.replace("_R_", "").split(".", 1)[0]


def candidate_keys(name: str):
    """All (key, priority) lookup candidates for a name, best first.

    priority 0 = exact, 1 = base, 2+k = dot-prefix cut at the k-th dot
    from the right (longer prefix = better)."""
    out = [(name, 0)]
    base = canonical_base(name)
    if base != name:
        out.append((base, 1))
    # dot-boundary prefixes, longest first (stage 3)
    parts = name.split(".")
    pri = 2
    for i in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:i])
        if prefix and prefix != name and prefix != base:
            out.append((prefix, pri))
            pri += 1
    return out


def attach_rank_table(
    meta: ray.data.Dataset,
    rank_table: ray.data.Dataset,
    *,
    id_col: str = "id",
    miss_policy: str = "rank_last",
    num_partitions: int = 8,
) -> ray.data.Dataset:
    """Left-attach rank-table value columns to ``meta`` by fuzzy-resolved
    key.  ``miss_policy``: "error" raises on any unresolved id (reference
    sequence_grouping.py:78); "rank_last" leaves value columns null."""
    if miss_policy not in ("error", "rank_last"):
        raise ValueError(f"unknown miss_policy {miss_policy!r}")
    rank_table = rank_table.materialize()
    rank_schema = rank_table.schema().base_schema
    value_cols = [c for c in rank_table.schema().names if c != id_col]
    value_types = [rank_schema.field(c).type for c in value_cols]
    n_rank = rank_table.count()

    if n_rank <= _BROADCAST_ROWS:
        rdf = rank_table.to_pandas()
        table = {
            str(k): tuple(vals)
            for k, *vals in zip(rdf[id_col], *(rdf[c] for c in value_cols))
        }
        ref = ray.put(table)

        def resolve(t: pa.Table) -> pa.Table:
            tab = worker_get(ref, "ranktab.table")
            names = [str(x) for x in t[id_col].to_pylist()]
            resolved = []
            misses = []
            for nm in names:
                hit = None
                for key, _pri in candidate_keys(nm):
                    hit = tab.get(key)
                    if hit is not None:
                        break
                if hit is None:
                    misses.append(nm)
                    hit = (None,) * len(value_cols)
                resolved.append(hit)
            if misses and miss_policy == "error":
                raise ValueError(
                    f"rank-table data not found for {len(misses)} ids, e.g. "
                    f"{misses[:5]} (reference: hard error, "
                    f"sequence_grouping.py:78)"
                )
            out = t
            for j, c in enumerate(value_cols):
                out = out.append_column(
                    c, pa.array([r[j] for r in resolved], type=value_types[j])
                )
            return out

        return meta.map_batches(resolve, batch_format="pyarrow")

    # ---- distributed path: candidate-key explode + join -------------------
    num_partitions = max(2, min(num_partitions, cluster_cpus()))

    def explode(t: pa.Table) -> pa.Table:
        ids, keys, pris = [], [], []
        for nm in (str(x) for x in t[id_col].to_pylist()):
            for key, pri in candidate_keys(nm):
                ids.append(nm)
                keys.append(key)
                pris.append(pri)
        return pa.table(
            {
                "__name": pa.array(ids, pa.string()),
                "__ckey": pa.array(keys, pa.string()),
                "__pri": pa.array(pris, pa.int32()),
            }
        )

    cands = meta.select_columns([id_col]).map_batches(explode, batch_format="pyarrow")
    hits = cands.join(
        rank_table,
        join_type="inner",
        num_partitions=num_partitions,
        on=("__ckey",),
        right_on=(id_col,),
    )

    # best (min priority) hit per name — vectorized per hash partition
    from .exchange import exchange_partitions, hash_exchange, string_pkey

    n_parts = exchange_partitions()

    def add_pkey(t: pa.Table) -> pa.Table:
        return t.append_column("__pkey", string_pkey(t["__name"], n_parts))

    def best_per_name(g: pa.Table) -> pa.Table:
        names = np.asarray(g["__name"].to_pylist(), dtype=object)
        pri = g["__pri"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pri, names))
        names_s = names[order]
        first = np.ones(len(names_s), dtype=bool)
        first[1:] = names_s[1:] != names_s[:-1]
        take = pa.array(order[first], pa.int64())
        return g.take(take).select(["__name"] + value_cols)

    best = hash_exchange(
        hits.map_batches(add_pkey, batch_format="pyarrow"),
        "__pkey",
        n_parts,
        best_per_name,
        empty_schema=pa.schema(
            [("__name", pa.string())] + list(zip(value_cols, value_types))
        ),
    )

    joined = meta.join(
        best,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=(id_col,),
        right_on=("__name",),
    )
    if miss_policy == "error":
        n_meta = meta.count()
        n_hit = best.count()
        if n_hit < n_meta:
            raise ValueError(
                f"rank-table data not found for {n_meta - n_hit} ids "
                f"(reference: hard error, sequence_grouping.py:78)"
            )
    return joined
