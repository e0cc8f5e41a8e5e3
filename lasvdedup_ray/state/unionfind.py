"""Connected components over the verified edge list.

Semantics conformance target: the reference's single-linkage transitive
closure ``cluster_sequences`` (``lasvdedup/utils/sequence_grouping.py:89-118``
— connected components of the <=-threshold graph, boundary d==tau joins,
pinned by ``tests/utils/test_sequence_grouping.py:247-327``).

Two execution paths:

- **Integer-code components on the driver** (up to ``_DSU_EDGES``
  edges): edges are already the *verified near-dup* pairs — a tiny
  fraction of corpus rows — so their materialized blocks stream to the
  driver by ref; ``label_components`` encodes the ids as sorted integer
  codes and runs min-label hooking plus pointer jumping in numpy.  Exact.
- **Distributed min-label propagation** (the scale path): alternate
  (1) neighbor-min rounds — join edge endpoints to current labels,
  ``groupby(node).min(label)`` — with (2) pointer-jumping rounds
  (``label = label[label]``, halving chain depth), until a round changes
  nothing.  Only (id, label) pairs shuffle; converges in O(log d) rounds
  with jumping (cf. large-star/small-star, Kiveris et al., SoCC 2014).

Cluster labels are the lexicographic-minimum member id — value-based and
deterministic regardless of Ray block order (the reference relies on dict
insertion order, ``sequence_grouping.py:99-101``; we pin a total order
instead, per SURVEY §7 "determinism without row order").
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Min


# round budget of the distributed label propagation (pointer jumping
# converges in O(log diameter) rounds)
MAX_LABEL_ROUNDS = 50

# edge lists of up to this many edges cluster on the driver
# (``label_components``); longer ones by distributed label propagation
_DSU_EDGES = 2_000_000


def strict_project(ds: ray.data.Dataset, cols: List[str]) -> ray.data.Dataset:
    """``select_columns`` that also projects EMPTY blocks.

    Ray 2.49's Project operator passes zero-row blocks through with their
    original (wider) schema, yielding mixed-schema bundles downstream —
    harmless for iter_batches but a crash hazard for Arrow joins and the
    source of "RefBundle with a different schema" warnings.  A map_batches
    projection runs on every block, empty or not."""

    def proj(t: pa.Table) -> pa.Table:
        return t.select(cols)

    return ds.map_batches(proj, batch_format="pyarrow")


def label_components(id_a: pa.Array, id_b: pa.Array) -> pa.Table:
    """``(id, cluster_id)`` for every node of the edges ``id_a[i] - id_b[i]``,
    the label being the smallest id of its component.

    The ids are encoded as integer codes in sorted order (Arrow sorts
    strings by UTF-8 bytes, which is ``str`` order), so the smallest code
    of a component is its smallest id.  Each round hooks every root onto
    the smallest root adjacent to its tree (``np.minimum.at``), then jumps
    pointers until every node points at a root; it stops once both ends of
    every edge share a root.  A label only ever points at a smaller or
    equal code, so the trees stay acyclic, and the component minimum is
    the one node no hook moves."""
    ends = pa.concat_arrays([id_a, id_b])
    ids = pc.unique(ends)
    ids = ids.take(pc.array_sort_indices(ids))
    codes = pc.index_in(ends, value_set=ids).to_numpy()
    u, v = codes[: len(id_a)], codes[len(id_a) :]
    label = np.arange(len(ids))
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return pa.table({"id": ids, "cluster_id": ids.take(label)})
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def components_driver(edges: ray.data.Dataset) -> pa.Table:
    """``label_components`` of an edge dataset's ``(id_a, id_b)``.  The
    blocks are read by ref (``block_tables``): on the materialized,
    compacted edges ``assign_clusters`` passes, no Ray Data execution
    starts."""
    from ..stages.exchange import block_tables

    t = pa.concat_tables(
        [b.select(["id_a", "id_b"]) for b in block_tables(edges)]
        or [pa.table({c: pa.array([], pa.string()) for c in ("id_a", "id_b")})],
        promote_options="permissive",
    )
    return label_components(t["id_a"].combine_chunks(), t["id_b"].combine_chunks())


def components_distributed(
    edges: ray.data.Dataset,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Min-label propagation entirely in Ray Data; returns (id, cluster_id)
    for every node that appears in an edge.

    Each round: labels of both endpoints flow across edges (two hash joins),
    then ``groupby(id).min(label)``; a pointer-jumping self-join follows.
    Terminates when a neighbor round leaves every label unchanged, or
    after ``MAX_LABEL_ROUNDS`` rounds.
    """
    e = strict_project(edges, ["id_a", "id_b"]).materialize()
    # symmetric edge view: (src, dst)
    sym = e.map_batches(
        lambda t: pa.table(
            {
                "src": pa.chunked_array([t["id_a"].combine_chunks(), t["id_b"].combine_chunks()]),
                "dst": pa.chunked_array([t["id_b"].combine_chunks(), t["id_a"].combine_chunks()]),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    from ray.data.aggregate import Count

    nodes = (
        sym.select_columns(["src"])
        .groupby("src")
        .aggregate(Count(alias_name="_c"))  # distinct src values
        .select_columns(["src"])
        .map_batches(
            lambda t: pa.table({"id": t["src"], "label": t["src"]}),
            batch_format="pyarrow",
        )
        .materialize()
    )
    labels = nodes

    for _ in range(MAX_LABEL_ROUNDS):
        # neighbor-min: label(dst) candidates for src
        nb = sym.join(
            labels.map_batches(
                lambda t: pa.table({"dst": t["id"], "nlabel": t["label"]}),
                batch_format="pyarrow",
            ),
            join_type="inner",
            num_partitions=num_partitions,
            on=("dst",),
        ).map_batches(
            lambda t: pa.table({"id": t["src"], "label": t["nlabel"]}),
            batch_format="pyarrow",
        )
        cand = nb.union(labels.select_columns(["id", "label"]))
        new_labels = (
            cand.groupby("id").aggregate(Min("label", alias_name="label")).materialize()
        )
        # convergence: any label changed?
        joined = new_labels.join(
            labels.map_batches(
                lambda t: pa.table({"id": t["id"], "old": t["label"]}),
                batch_format="pyarrow",
            ),
            join_type="inner",
            num_partitions=num_partitions,
            on=("id",),
        )
        changed = joined.map_batches(
            lambda t: pa.table(
                {"c": pa.array([pc.sum(pc.cast(pc.not_equal(t["label"], t["old"]), pa.int64())).as_py() or 0], pa.int64())}
            ),
            batch_format="pyarrow",
        ).sum("c")
        labels = new_labels
        if not changed:
            break
        # pointer jumping: label <- label[label]
        lab_as_node = labels.map_batches(
            lambda t: pa.table({"lid": t["id"], "llabel": t["label"]}),
            batch_format="pyarrow",
        )
        jumped = labels.join(
            lab_as_node,
            join_type="left_outer",
            num_partitions=num_partitions,
            on=("label",),
            right_on=("lid",),
        ).map_batches(
            lambda t: pa.table(
                {
                    "id": t["id"],
                    "label": pc.coalesce(t["llabel"], t["label"]),
                }
            ),
            batch_format="pyarrow",
        )
        labels = jumped.materialize()

    return labels.map_batches(
        lambda t: pa.table({"id": t["id"], "cluster_id": t["label"]}),
        batch_format="pyarrow",
    )


def assign_clusters(
    nodes: ray.data.Dataset,
    edges: ray.data.Dataset,
    num_partitions: int = 32,
    then: Callable[[pa.Table], pa.Table] = lambda t: t,
) -> ray.data.Dataset:
    """Attach ``cluster_id`` (string, = min member id) to every node row.
    Nodes untouched by any edge become singleton clusters (cluster_id = id).
    On the driver path the labels attach in one raw task per node block
    (``map_blocks``, an Arrow ``index_in`` + ``take``): no Ray Data
    execution starts on materialized inputs.  ``then`` runs on each labelled
    block in its task on either path (the flagship adds classify's pkey)."""
    from ..stages.exchange import concat_blocks, map_blocks

    edges = concat_blocks(edges.materialize())
    n_edges = edges.count()
    if n_edges <= _DSU_EDGES:
        # an Arrow table travels out-of-band through plasma (zero-copy)
        ref = ray.put(components_driver(edges))

        def attach(t: pa.Table) -> pa.Table:
            labels = ray.get(ref)
            ix = pc.index_in(t["id"], value_set=labels["id"])
            return then(
                t.append_column("cluster_id", pc.coalesce(labels["cluster_id"].take(ix), t["id"]))
            )

        return map_blocks(nodes, attach)

    labels = components_distributed(edges, num_partitions).materialize()
    joined = nodes.join(
        labels,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=("id",),
    )
    return joined.map_batches(
        lambda t: then(t.set_column(
            t.schema.get_field_index("cluster_id"),
            "cluster_id",
            pc.coalesce(t["cluster_id"], t["id"]),
        )),
        batch_format="pyarrow",
    )
