"""Connected components: DSU semantics (single-linkage conformance target,
``sequence_grouping.py:89-118`` / ``test_sequence_grouping.py:247-327``)
and driver-vs-distributed parity."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from lasvdedup_ray.state.unionfind import (
    DSU,
    assign_clusters,
    components_distributed,
    components_driver,
)


def edges_ds(pairs):
    return ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array([p[0] for p in pairs], pa.string()),
                "id_b": pa.array([p[1] for p in pairs], pa.string()),
                "est_distance": pa.array([0.1] * len(pairs), pa.float64()),
            }
        )
    )


def nodes_ds(ids):
    return ray.data.from_arrow(pa.table({"id": pa.array(ids, pa.string())}))


def test_dsu_basic_components():
    # F3 fixture: A-B, B-C, D-E -> {A,B,C}, {D,E}
    dsu = DSU()
    for a, b in [("A", "B"), ("B", "C"), ("D", "E")]:
        dsu.union(a, b)
    labels = dsu.labels()
    assert labels["A"] == labels["B"] == labels["C"] == "A"
    assert labels["D"] == labels["E"] == "D"


def test_dsu_transitive_chain():
    # A~B~C with A!~C still one component (single-linkage closure)
    dsu = DSU()
    dsu.union("A", "B")
    dsu.union("B", "C")
    assert len(set(dsu.labels().values())) == 1


def test_components_driver_matches_dsu():
    labels = components_driver(edges_ds([("A", "B"), ("B", "C"), ("D", "E")]))
    assert labels["C"] == "A" and labels["E"] == "D"


def test_assign_clusters_singletons():
    nodes = nodes_ds(["A", "B", "C", "Z"])
    out = assign_clusters(nodes, edges_ds([("A", "B")])).to_pandas()
    m = dict(zip(out["id"], out["cluster_id"]))
    assert m["A"] == m["B"] == "A"
    assert m["C"] == "C" and m["Z"] == "Z"


def test_distributed_matches_driver_on_random_graph():
    rng = np.random.default_rng(11)
    n = 200
    ids = [f"n{i:03d}" for i in range(n)]
    pairs = []
    for _ in range(150):
        i, j = rng.choice(n, 2, replace=False)
        pairs.append((ids[int(i)], ids[int(j)]))
    # long chain to exercise pointer jumping
    pairs += [(f"c{i:03d}", f"c{i + 1:03d}") for i in range(40)]
    e = edges_ds(pairs)
    driver = components_driver(e)
    dist = components_distributed(e, num_partitions=4).to_pandas()
    dist_map = dict(zip(dist["id"], dist["cluster_id"]))
    assert dist_map == driver


def test_assign_clusters_forced_distributed(monkeypatch):
    from lasvdedup_ray.state import unionfind

    monkeypatch.setattr(unionfind, "_DSU_EDGES", 0)
    nodes = nodes_ds(["A", "B", "C", "D", "E", "F"])
    e = edges_ds([("A", "B"), ("B", "C"), ("E", "F")])
    out = assign_clusters(nodes, e, num_partitions=2).to_pandas()
    m = dict(zip(out["id"], out["cluster_id"]))
    assert m["A"] == m["B"] == m["C"] == "A"
    assert m["E"] == m["F"] == "E"
    assert m["D"] == "D"
