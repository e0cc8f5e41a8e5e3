"""Connected components: the DSU oracle's semantics (single-linkage
conformance target, ``sequence_grouping.py:89-118`` /
``test_sequence_grouping.py:247-327``), the integer-code components against
it, and driver-vs-distributed parity."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from dsu import DSU
from lasvdedup_ray.state.unionfind import (
    assign_clusters,
    components_distributed,
    components_driver,
    label_components,
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


def as_dict(labels: pa.Table) -> dict:
    return dict(zip(labels["id"].to_pylist(), labels["cluster_id"].to_pylist()))


def dsu_labels(pairs) -> dict:
    dsu = DSU()
    for a, b in pairs:
        dsu.union(a, b)
    return dsu.labels()


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
    pairs = [("A", "B"), ("B", "C"), ("D", "E")]
    labels = as_dict(components_driver(edges_ds(pairs)))
    assert labels["C"] == "A" and labels["E"] == "D"
    assert labels == dsu_labels(pairs)


@pytest.mark.parametrize("seed", range(8))
def test_label_components_matches_dsu_on_random_graphs(seed):
    """Random multigraphs (self-loops, repeated edges, non-ASCII ids) of
    every density from a forest of pairs to one giant component."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    ids = [f"n{int(rng.integers(10**6))}\u00e9{i}" for i in range(n)]
    m = int(rng.integers(1, 2 * n))
    pairs = [(ids[int(i)], ids[int(j)]) for i, j in rng.integers(0, n, (m, 2))]
    a, b = (pa.array([p[k] for p in pairs], pa.string()) for k in (0, 1))
    assert as_dict(label_components(a, b)) == dsu_labels(pairs)


def test_label_components_random_order_path():
    """A 200,000-node path whose ids and edges are both in random order:
    hooking merges a few trees per round, so this needs many rounds."""
    rng = np.random.default_rng(5)
    n = 200_000
    ids = np.array([f"p{i:06d}" for i in rng.permutation(n)], dtype=str)
    order = rng.permutation(n - 1)
    a, b = ids[:-1][order], ids[1:][order]
    labels = as_dict(label_components(pa.array(a), pa.array(b)))
    assert labels == dsu_labels(zip(a.tolist(), b.tolist()))
    assert set(labels.values()) == {"p000000"}


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
    driver = as_dict(components_driver(e))
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
