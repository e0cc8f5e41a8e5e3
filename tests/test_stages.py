"""Ray stage tests: prepare, exact dedup, signer actor pool, LSH candidates."""

import hashlib

import numpy as np
import pyarrow as pa
import ray.data

from lasvdedup_ray.config import LSHConfig, SignatureConfig
from lasvdedup_ray.sources.corpus import SOURCE_SCHEMA
from lasvdedup_ray.stages.exact import exact_collapse, fused_edges, fused_reps
from lasvdedup_ray.stages.lsh import band_stats, candidate_pairs
from lasvdedup_ray.stages.prepare import prepare_batch
from lasvdedup_ray.stages.signatures import MinHashSigner, add_signatures


def small_table():
    rows = [
        ("o/r", "a.py", "c1" * 20, "py", "def foo():\n    return 1\n"),
        ("o/r", "b.py", "c2" * 20, "py", "def foo():\n    return 1\n"),  # exact dup of a
        ("o/s", "c.py", "c3" * 20, "js", "completely different content here\n"),
    ]
    return pa.table(
        {
            "repo": pa.array([r[0] for r in rows]),
            "path": pa.array([r[1] for r in rows]),
            "commit": pa.array([r[2] for r in rows]),
            "lang": pa.array([r[3] for r in rows]),
            "content": pa.array([r[4] for r in rows], pa.large_string()),
        },
        schema=SOURCE_SCHEMA,
    )


def test_prepare_batch_fields():
    t = prepare_batch(small_table())
    ids = t["id"].to_pylist()
    assert ids[0] == "o/r:a.py@" + "c1" * 20
    # sha256 parity with hashlib
    expect = hashlib.sha256("def foo():\n    return 1\n".encode()).hexdigest()
    assert t["sha256"].to_pylist()[0] == bytes.fromhex(expect)
    assert t["n_chars"].to_pylist()[0] == len("def foo():\n    return 1\n")
    assert t["n_lines"].to_pylist()[0] == 3  # two \n => 3 lines


def test_exact_dedup_roundtrip():
    ds = add_signatures(ray.data.from_arrow(small_table()))
    fused = exact_collapse(ds).materialize()
    reps = fused_reps(fused).to_pandas()
    assert len(reps) == 2  # a/b collapse
    edges = fused_edges(fused).to_pandas()
    assert len(edges) == 1
    assert edges.iloc[0]["est_distance"] == 0.0
    a, b = edges.iloc[0]["id_a"], edges.iloc[0]["id_b"]
    assert a < b and a.startswith("o/r:a.py") and b.startswith("o/r:b.py")


def test_signer_actor_smoke():
    # actor __init__ exceptions surface late — smoke the class directly
    signer = MinHashSigner(SignatureConfig())
    out = signer(prepare_batch(small_table()))
    assert "minhash" in out.schema.names and "simhash" in out.schema.names
    blobs = out["minhash"].to_pylist()
    assert len(blobs[0]) == 128 * 4
    assert blobs[0] == blobs[1]  # identical content => identical signature
    assert blobs[0] != blobs[2]


def test_candidate_pairs_finds_near_dups():
    base = "x = 1\n" + "\n".join(f"line_{i} = compute({i})" for i in range(60))
    near = base.replace("compute(3)", "compute(99)")
    far = "\n".join(f"entirely_other_{i}" for i in range(60))
    t = pa.table(
        {
            "repo": pa.array(["o/r"] * 3),
            "path": pa.array(["a.py", "b.py", "c.py"]),
            "commit": pa.array(["c1" * 20, "c2" * 20, "c3" * 20]),
            "lang": pa.array(["py"] * 3),
            "content": pa.array([base, near, far], pa.large_string()),
        },
        schema=SOURCE_SCHEMA,
    )
    cfg = SignatureConfig()
    signed = add_signatures(ray.data.from_arrow(t), cfg)
    pairs = candidate_pairs(
        signed.select_columns(["id", "minhash", "simhash"]), cfg, LSHConfig(), tau=0.3
    ).to_pandas()
    assert len(pairs) == 1
    assert pairs.iloc[0]["id_a"].startswith("o/r:a.py")
    assert pairs.iloc[0]["id_b"].startswith("o/r:b.py")
    assert pairs.iloc[0]["est_distance"] <= 0.3


def test_band_cap_keeps_connectivity():
    # 12 identical docs with cap=4: capped bucket must still connect all
    # members through chain links (simhash-order neighbors)
    n = 12
    t = pa.table(
        {
            "repo": pa.array(["o/r"] * n),
            "path": pa.array([f"f{i}.py" for i in range(n)]),
            "commit": pa.array([f"{i:02d}" * 20 for i in range(n)]),
            "lang": pa.array(["py"] * n),
            "content": pa.array(["shared identical content " * 10] * n, pa.large_string()),
        },
        schema=SOURCE_SCHEMA,
    )
    cfg = SignatureConfig()
    lsh = LSHConfig(band_cap=4, cap_neighbors=2)
    signed = add_signatures(ray.data.from_arrow(t), cfg)
    pairs = candidate_pairs(
        signed.select_columns(["id", "minhash", "simhash"]), cfg, lsh, tau=0.2
    ).to_pandas()
    from dsu import DSU

    dsu = DSU()
    for _, r in pairs.iterrows():
        dsu.union(r["id_a"], r["id_b"])
    assert len(set(dsu.labels().values())) == 1  # all connected


def test_band_stats_reports_drops():
    n = 10
    t = pa.table(
        {
            "repo": pa.array(["o/r"] * n),
            "path": pa.array([f"f{i}.py" for i in range(n)]),
            "commit": pa.array([f"{i:02d}" * 20 for i in range(n)]),
            "lang": pa.array(["py"] * n),
            "content": pa.array(["same content " * 20] * n, pa.large_string()),
        },
        schema=SOURCE_SCHEMA,
    )
    cfg = SignatureConfig()
    signed = add_signatures(ray.data.from_arrow(t), cfg)
    stats = band_stats(
        signed.select_columns(["id", "minhash", "simhash"]), cfg, LSHConfig(band_cap=4, cap_neighbors=2)
    ).to_pandas()
    big = stats[stats["bucket_size"] == n]
    assert len(big) == cfg.bands  # all docs identical => every band one bucket
    assert (big["pairs_dropped"] > 0).all()
    assert (big["pairs_full"] == n * (n - 1) // 2).all()
