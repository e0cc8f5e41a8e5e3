"""Benchmark inputs, built in a child process of the benchmark driver.

``python3 perfbench/corpora.py '<request json>'`` runs the machine probe,
makes sure the seeded corpus of the request exists in the cache, and prints
one JSON object: ``{"dir": ..., "gen_s": ..., "probe": {...}}``.

It runs in its own process so that neither the corpus generation nor the
probe's page-touch buffer counts in the driver's peak RSS.

A corpus directory holds the Parquet shards the pipeline reads
(``part-*.parquet``), the planted-group truth (``truth.parquet``) and the
recall oracle (``oracle_pairs.parquet``): every planted same-group pair whose
exact shingle Jaccard distance is within the pipeline's candidate tau.  The
cache key is the full ``CorpusSpec`` (seed included), the shard count, the
oracle's version and every pipeline default the oracle reads (candidate tau
and the signature config's shingling), so two specs never share a directory
and a changed default never reuses a stale oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache", "corpus")
KEEP_CORPORA = 12  # newest cache entries kept; older ones are deleted
ORACLE_VERSION = 1


def oracle_inputs() -> dict:
    """The pipeline defaults ``oracle_pairs`` depends on."""
    from dataclasses import asdict

    from lasvdedup_ray.config import PipelineConfig
    from lasvdedup_ray.pipelines.dedup import candidate_tau

    config = PipelineConfig()
    return {"tau": candidate_tau(config), "signature": asdict(config.signature)}


def cache_key(spec: dict, shards: int, oracle: dict) -> str:
    blob = json.dumps(
        {"spec": spec, "shards": shards, "oracle": ORACLE_VERSION, "oracle_inputs": oracle},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _shingles(text: str, k: int, lowercase: bool, collapse_ws: bool) -> set:
    """Exact k-gram set of the normalized text, without the engine's hashing
    (the oracle must not share the code it checks)."""
    if lowercase:
        text = text.lower()
    if collapse_ws:
        text = " ".join(text.split())
    data = text.encode("utf-8")
    if len(data) < k:
        return {data}
    return {data[i : i + k] for i in range(len(data) - k + 1)}


def oracle_pairs(corpus, truth, config):
    """Planted same-group pairs with exact Jaccard distance <= candidate tau."""
    import pyarrow as pa

    from lasvdedup_ray.pipelines.dedup import candidate_tau

    sig = config.signature
    tau = candidate_tau(config)
    ids = truth["id"].to_pylist()
    groups = truth["truth_group"].to_pylist()
    contents = corpus["content"].to_pylist()
    members: dict = {}
    for row, g in enumerate(groups):
        if g >= 0:
            members.setdefault(g, []).append(row)
    shingles: dict = {}

    def sh(row):
        if row not in shingles:
            shingles[row] = _shingles(contents[row], sig.k, sig.lowercase, sig.collapse_ws)
        return shingles[row]

    out_a, out_b = [], []
    for rows in members.values():
        for i, ra in enumerate(rows):
            for rb in rows[i + 1 :]:
                a, b = sh(ra), sh(rb)
                inter = len(a & b)
                dist = 1.0 - inter / (len(a) + len(b) - inter)
                if dist <= tau:
                    out_a.append(ids[ra])
                    out_b.append(ids[rb])
    return pa.table({"id_a": pa.array(out_a, pa.string()), "id_b": pa.array(out_b, pa.string())})


def build(out_dir: str, spec_fields: dict, shards: int) -> None:
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lasvdedup_ray.config import PipelineConfig
    from lasvdedup_ray.sources.corpus import CorpusSpec, write_corpus

    write_corpus(out_dir, CorpusSpec(**spec_fields), shards=shards)
    corpus = pa.concat_tables(
        pq.read_table(p) for p in sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))
    )
    truth = pq.read_table(os.path.join(out_dir, "truth.parquet"))
    pq.write_table(
        oracle_pairs(corpus, truth, PipelineConfig()),
        os.path.join(out_dir, "oracle_pairs.parquet"),
    )


def ensure(spec_fields: dict, shards: int) -> tuple:
    """(corpus dir, seconds spent generating; 0.0 on a cache hit)."""
    from dataclasses import asdict

    from lasvdedup_ray.sources.corpus import CorpusSpec

    # keyed by every field, defaults included, so a changed default misses
    key = cache_key(asdict(CorpusSpec(**spec_fields)), shards, oracle_inputs())
    final = os.path.join(CACHE, key)
    if os.path.exists(os.path.join(final, "_DONE")):
        os.utime(final)  # mark as recently used for pruning
        return final, 0.0
    t0 = time.perf_counter()
    tmp = f"{final}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    build(tmp, spec_fields, shards)
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    gen_s = time.perf_counter() - t0
    _prune(keep=final)
    return final, gen_s


def _prune(keep: str) -> None:
    entries = [
        os.path.join(CACHE, d)
        for d in os.listdir(CACHE)
        if os.path.exists(os.path.join(CACHE, d, "_DONE"))
    ]
    entries.sort(key=os.path.getmtime, reverse=True)
    for d in entries[KEEP_CORPORA:]:
        if d != keep:
            shutil.rmtree(d, ignore_errors=True)


def machine_probe() -> dict:
    """CPU count, single-core signing rate and fresh-page touch rate, so a
    figure can be read against the machine that produced it."""
    import mmap

    import numpy as np
    import pyarrow as pa

    from lasvdedup_ray.config import SignatureConfig
    from lasvdedup_ray.stages.signatures import MinHashSigner

    rng = np.random.default_rng(7)
    words = [f"w{i:03d}" for i in range(512)]
    docs = [" ".join(rng.choice(words, size=600).tolist()) for _ in range(256)]
    table = pa.table({"content": pa.array(docs)})
    signer = MinHashSigner(SignatureConfig())
    signer(table.slice(0, 8))
    t0 = time.perf_counter()
    signer(table)
    sign_s = time.perf_counter() - t0
    mb = sum(len(d) for d in docs) / 1e6

    # an anonymous mapping, so every page is faulted in fresh
    n = 64 << 20
    raw = mmap.mmap(-1, n)
    buf = np.frombuffer(raw, dtype=np.uint8)
    t0 = time.perf_counter()
    buf[::4096] = 1
    touch_s = time.perf_counter() - t0
    del buf
    raw.close()
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "sign_1core_mb_per_s": round(mb / sign_s, 3),
        "fresh_touch_gb_per_s": round(n / touch_s / 1e9, 3),
    }


def main(argv) -> int:
    req = json.loads(argv[0])
    sys.path.insert(0, ROOT)
    os.makedirs(CACHE, exist_ok=True)
    out_dir, gen_s = ensure(req["spec"], req["shards"])
    print(json.dumps({"dir": out_dir, "gen_s": gen_s, "probe": machine_probe()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
