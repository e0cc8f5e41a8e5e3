"""Benchmark harness — prints ONE JSON line.

Headline: the flagship MinHash/LSH dedup pipeline over a deterministic
synthetic source-code corpus sized to the scale factor (sf * 200k files),
reported as wall seconds + files/sec.  Also times representative pipelines
from queries() over $GRAFT_SF_DIR tables.

  python bench.py               # one run at $RAY_GRAFT_CPUS (default 32)
  python bench.py --scaling     # fresh processes at N/4 and N CPUs (N =
                                # os.cpu_count()), reports both + scaling
                                # efficiency
  python bench.py --ceiling     # the same CPU pair on pure numpy work
  python bench.py --kernels
                                # single-process kernel microbenchmarks on
                                # the seeded mixed_5kb corpus and a 200k-
                                # edge dedup-shaped graph (no Ray)

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import lasvdedup_ray  # noqa: F401  (sets NUMPY_MADVISE_HUGEPAGE before ray.init)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
FILES_PER_SF = 200_000
CORPUS_CACHE = "/tmp/raydedup_bench_corpus"


def sf_from_dir(d: str) -> float:
    base = os.path.basename(d.rstrip("/"))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.1


# ~5 KB files with the default dup mix: the bench corpus and, at 1,000
# files, perfbench's ``mixed_5kb`` (the ``--kernels`` corpus)
MIXED_5KB_SPEC = dict(tokens_per_doc=600, mutation_rate=0.015, chain_step_rate=0.03)


def ensure_corpus(n_files: int) -> str:
    from lasvdedup_ray.sources.corpus import CorpusSpec, write_corpus

    # bench corpus: ~5 KB files (realistic source-file size; the tiny
    # default test files under-weight per-file compute vs fixed overhead)
    # with near-dup mutation rates that mirror real dup clusters (mostly
    # close to exact)
    spec = CorpusSpec(n_files=n_files, seed=42, **MIXED_5KB_SPEC)
    out = f"{CORPUS_CACHE}_{n_files}_v2"
    marker = os.path.join(out, "_DONE")
    if not os.path.exists(marker):
        write_corpus(out, spec, shards=max(8, n_files // 4000))
        open(marker, "w").write("ok")
    return out


def machine_probe() -> dict:
    """Cheap (~2 s) hardware calibration embedded in every bench JSON so
    numbers from different rounds are comparable across VM hosts.  Round 3
    found the sandbox VM's memory system varying by >30x between sessions
    (first-touch page faults 0.7 s .. 42 s per 400 MB on identical code),
    so a wall-clock number without its machine context is meaningless.

    - sign_1core_files_per_sec: the flagship's signing kernel, single
      thread, driver process (CPU + small-alloc speed)
    - fresh_touch_gbps: first write to newly mmapped pages (page-fault
      service rate — the dimension that degrades on lazily-restored VMs)
    - warm_gbps: in-place stream over already-faulted memory (DRAM bw)
    """
    import numpy as np

    from lasvdedup_ray.config import SignatureConfig
    from lasvdedup_ray.stages.signatures import MinHashSigner

    import pyarrow as pa

    rng = np.random.default_rng(7)
    words = ["w%03d" % i for i in range(512)]
    docs = [
        " ".join(rng.choice(words, size=120).tolist()) for _ in range(256)
    ]
    t = pa.table({"content": pa.array(docs)})
    signer = MinHashSigner(SignatureConfig())
    signer(t.slice(0, 8))  # warm imports/JIT paths
    t0 = time.time()
    signer(t)
    sign_rate = 256 / (time.time() - t0)

    # raw anonymous mmap, NOT np.empty: the engine raises glibc's malloc
    # mmap threshold (lasvdedup_ray/_alloc.py), which would silently turn a
    # malloc'd probe buffer into reused heap pages and stop measuring the
    # page-fault service rate this probe exists to track across rounds
    import mmap as _mmap

    n = 200 * 1024 * 1024
    raw = _mmap.mmap(-1, n)
    buf = np.frombuffer(raw, dtype=np.uint8)
    t0 = time.time()
    buf[::4096] = 1  # fault every page
    fresh = n / (time.time() - t0) / 1e9
    t0 = time.time()
    buf[::64] = 2  # touch every cache line, pages already resident
    warm = (n / 64 * 64) / (time.time() - t0) / 1e9
    del buf
    raw.close()
    return {
        "sign_1core_files_per_sec": round(sign_rate, 1),
        "fresh_touch_gbps": round(fresh, 2),
        "warm_gbps": round(warm, 2),
    }


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False

    from lasvdedup_ray.config import PipelineConfig
    from lasvdedup_ray.pipelines import ann, relational, textops
    from lasvdedup_ray.pipelines.dedup import dedup_pipeline
    from lasvdedup_ray.pipelines.docdedup import minhash_dedup_docs

    sf = sf_from_dir(SF_DIR)
    n_files = int(
        os.environ.get("GRAFT_BENCH_FILES", max(2000, int(FILES_PER_SF * sf)))
    )
    corpus_dir = ensure_corpus(n_files)
    corpus_paths = [
        os.path.join(corpus_dir, f)
        for f in sorted(os.listdir(corpus_dir))
        if f.startswith("part-")
    ]

    # warm the page cache + worker pool so we measure steady-state compute
    # and shuffle, not first disk reads or Python-worker cold starts.
    # NOTE: .count() on parquet is metadata-only — a map forces full decode.
    import pyarrow as _pa

    def _touch(t):
        return _pa.table({"n": _pa.array([t.num_rows])})

    from lasvdedup_ray.sources.readers import read_parquet_clean

    rd.read_parquet(corpus_paths).map_batches(_touch, batch_format="pyarrow").count()
    # clean read: the testdata footers carry pandas-metadata dicts that
    # defeat Ray's schema dedup (the "Failed to hash the schemas" warning)
    read_parquet_clean(f"{SF_DIR}/lineitem.parquet").map_batches(
        _touch, batch_format="pyarrow"
    ).count()
    rd.range(NUM_CPUS * 4, override_num_blocks=NUM_CPUS * 4).map_batches(
        lambda b: (__import__("numpy"), __import__("pyarrow"), b)[-1],
        batch_size=1,
        num_cpus=1,
    ).count()

    queries = {}

    # headline: flagship dedup over the synthetic source-code corpus
    t0 = time.time()
    cfg = PipelineConfig()
    res = dedup_pipeline(
        rd.read_parquet(corpus_paths), cfg, num_partitions=max(8, NUM_CPUS)
    )
    n_out = res.count()
    headline_sec = time.time() - t0
    assert n_out == n_files, (n_out, n_files)
    queries["dedup_corpus"] = round(headline_sec, 3)

    def timed(name, fn):
        t = time.time()
        out = fn(SF_DIR)
        out.count()
        queries[name] = round(time.time() - t, 3)

    if not os.environ.get("GRAFT_BENCH_HEADLINE_ONLY"):
        timed("minhash_dedup_docs", minhash_dedup_docs)
        timed("q1_pricing_summary", relational.q1_pricing_summary)
        timed("q5_nation_revenue", relational.q5_nation_revenue)
        timed("events_hourly", relational.events_hourly)
        timed("doc_stats", textops.doc_stats)
        timed("simhash_near_pairs", textops.simhash_near_pairs)
        timed("embedding_topk", ann.embedding_topk)
        from lasvdedup_ray.pipelines import curation, windows

        timed("quality_classifier_docs", curation.quality_classifier_docs)
        timed("pack_sequences", curation.pack_sequences)
        timed("bm25_topk", textops.bm25_topk)
        timed("purchase_click_window_join", windows.purchase_click_window_join)
        timed("hll_distinct_users", relational.hll_distinct_users)
        timed("dsir_weights", curation.dsir_weights)
        timed("lm_perplexity_docs", curation.lm_perplexity_docs)
        timed("knn_graph_embeddings", ann.knn_graph_embeddings)

    result = {
        "metric": "flagship dedup wall time (synthetic source-code corpus)",
        "value": round(headline_sec, 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "corpus_files": n_files,
        "files_per_sec": round(n_files / headline_sec, 1),
        "machine": machine_probe(),
    }
    ray.shutdown()
    return result


# ``--kernels`` runs on perfbench's ``mixed_5kb`` corpus at its seed 21;
# its non-ASCII rows append one line to every 10th file, so a tenth of the
# rows take the normalizer's ``utf8_lower`` side
KERNEL_FILES = 1000
KERNEL_SEED = 21
KERNEL_REPS = 9
NONASCII_LINE = "\n// Straße İstanbul ΣΑΣ café 😀\n"
NONASCII_EVERY = 10
KERNEL_EDGES = 200_000
# hash partitions of the pair emitter's band rows: the band exchange's P on
# a 3-CPU cluster (12 partitions, rounded up to a power of two)
PAIR_EMIT_PARTITIONS = 16


def dedup_graph(n_edges: int, seed: int):
    """``(id_a, id_b)`` string arrays of a dedup-shaped edge list: clusters
    of 2 + geometric(0.45) members, each a star from its first member
    (the sha collapse's star edges, ~80% of the edges) plus chords between
    two random members of a cluster (near-duplicate pairs), over row-id-
    shaped ids in random order."""
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(seed)
    sizes = 1 + rng.geometric(0.45, n_edges)
    sizes = sizes[: int(np.searchsorted(np.cumsum(sizes - 1), int(n_edges * 0.8)))]
    first = np.cumsum(sizes) - sizes
    cid = np.repeat(np.arange(sizes.size), sizes)
    n = cid.size
    member = np.arange(n)
    star = member != first[cid]
    c = cid[rng.integers(0, n, n_edges - int(star.sum()))]
    a = np.concatenate([first[cid[star]], first[c] + rng.integers(0, sizes[c])])
    b = np.concatenate([member[star], first[c] + rng.integers(0, sizes[c])])
    hexes = rng.integers(0, 1 << 62, n)
    ids = np.array(
        [f"org{i % 97}/repo{i % 1009}:src/m{i}.py@{h:016x}" for i, h in enumerate(hexes)]
    )[rng.permutation(n)]
    return pa.array(ids[a]), pa.array(ids[b])


def border_pairs(signed, truth, num_perms: int, tau: float):
    """The planted near-duplicate pairs of ``signed`` (rows of one truth
    group, distinct sha256) whose MinHash distance lies in verify's border
    band ``(tau - exact_margin_low, tau + exact_margin_high]``, as the
    ``(id_a, id_b, content_a, content_b)`` table the border check reads."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from lasvdedup_ray.config import LSHConfig
    from lasvdedup_ray.stages.signatures import sig_matrix_from_column

    lsh = LSHConfig()
    group = pc.take(truth["truth_group"], pc.index_in(signed["id"], value_set=truth["id"]))
    group = group.to_numpy(zero_copy_only=False)
    sigs = sig_matrix_from_column(signed["minhash"], num_perms)
    sha = signed["sha256"].to_numpy(zero_copy_only=False)
    rows_a, rows_b = [], []
    for g in np.unique(group[group >= 0]):
        rows = np.flatnonzero(group == g)
        iu, ju = np.triu_indices(rows.size, k=1)
        ra, rb = rows[iu], rows[ju]
        d = 1.0 - (sigs[ra] == sigs[rb]).mean(axis=1)
        keep = (d > tau - lsh.exact_margin_low) & (d <= tau + lsh.exact_margin_high)
        keep &= sha[ra] != sha[rb]
        rows_a.append(ra[keep])
        rows_b.append(rb[keep])
    ra, rb = np.concatenate(rows_a), np.concatenate(rows_b)
    return pa.table(
        {
            "id_a": signed["id"].take(ra),
            "id_b": signed["id"].take(rb),
            "content_a": signed["content"].take(ra),
            "content_b": signed["content"].take(rb),
        }
    )


def band_rows(signed, cfg, num_partitions: int):
    """The inline band rows (``id`` + ``sig16`` payload) the LSH band
    exchange carries for ``signed``, built in this process: exact
    duplicates collapse to their min-id row first, as the flagship's sha
    collapse does, the hot/capped bucket sets come from the driver
    derivation and reach the band-row emitter through its per-process
    broadcast slot, so no Ray call runs."""
    from lasvdedup_ray.config import LSHConfig
    from lasvdedup_ray.stages import exchange, lsh
    from lasvdedup_ray.stages.exact import min_id_stars

    signed = signed.take(min_id_stars(signed["sha256"], signed["id"])[0])
    hot = lsh._derive_hot_sets(
        lsh._sig16(signed["minhash"], cfg.num_perms), cfg, LSHConfig().band_cap
    )
    exchange._WORKER_BROADCAST["lsh.hot_sets"] = ("kernel", hot)
    return lsh._make_band_row_emitter(cfg, num_partitions, "kernel", inline=True)(signed)


def run_kernels() -> dict:
    """Single-process microbenchmarks of the per-row kernels: each sign
    sub-step, the whole ``sign_table`` and the exchange split, on the
    seeded ``mixed_5kb`` corpus; normalize and ``sign_table`` also on the
    same corpus with non-ASCII rows mixed in; the LSH pair emitter on that
    corpus's ``PAIR_EMIT_PARTITIONS``-partition band rows (``band_rows``),
    called once per pkey and once over every row; the border check on its
    border pairs (``border_pairs``) and the driver's connected
    components on a ``KERNEL_EDGES``-edge ``dedup_graph``.  Each kernel
    runs once to warm up, then ``KERNEL_REPS`` times; it reports the median
    CPU seconds of one run (``time.process_time``, this process only) and
    its rate per CPU-second: MB of content (normalize, prepare,
    ``sign_table``), MB of normalized text (shingle), rows, pairs or
    edges."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from lasvdedup_ray.config import LSHConfig, SignatureConfig
    from lasvdedup_ray.functions.hashing import (
        id_hash64,
        oph_signatures,
        shingle_hashes_batch,
        simhash_from_sigs,
    )
    from lasvdedup_ray.functions.text import normalized_bytes
    from lasvdedup_ray.sources.corpus import CorpusSpec, generate_corpus
    from lasvdedup_ray.stages.exchange import _pkey_order
    from lasvdedup_ray.stages.lsh import make_partition_pair_emitter
    from lasvdedup_ray.stages.prepare import prepare_batch
    from lasvdedup_ray.stages.signatures import sign_table
    from lasvdedup_ray.stages.verify import exact_jaccard
    from lasvdedup_ray.state.unionfind import label_components

    cfg = SignatureConfig()
    spec = CorpusSpec(n_files=KERNEL_FILES, seed=KERNEL_SEED, **MIXED_5KB_SPEC)
    table, truth = generate_corpus(spec)
    content = table["content"].to_pylist()
    for i in range(0, len(content), NONASCII_EVERY):
        content[i] += NONASCII_LINE
    mixed = table.set_column(
        table.schema.get_field_index("content"), "content", pa.array(content, table["content"].type)
    )

    def mb(t):
        return pc.sum(pc.binary_length(t["content"])).as_py() / 1e6

    content_mb = mb(table)
    buf, starts, ends = normalized_bytes(table["content"])
    hashes, offsets, counts = shingle_hashes_batch(buf, starts, ends, cfg.k, cfg.sample_mod)
    sigs = oph_signatures(hashes, offsets, counts, cfg.num_perms)
    signed = sign_table(table, cfg)
    # the exchange split of the signed rows over 128 partitions (a 32-CPU
    # cluster's exchange_partitions()): stable pkey order + one gather
    pkey = (id_hash64(signed["id"]) % np.uint64(128)).astype(np.int64)

    def split():
        signed.take(pa.array(_pkey_order(pkey, 128), pa.int64()))

    # the pair emitter as the band exchange's reducer, at the flagship's
    # emission threshold: once per pkey (one call per hash partition) and
    # once over every row (one call per reduce task); same pair multiset
    bands = band_rows(signed, cfg, PAIR_EMIT_PARTITIONS)
    by_pkey = [bands.filter(pc.equal(bands["pkey"], p)) for p in range(PAIR_EMIT_PARTITIONS)]
    emit = make_partition_pair_emitter(cfg, LSHConfig(), 0.2 + LSHConfig().exact_margin_high)

    def pair_multiset(tables):
        t = pa.concat_tables(tables)
        return sorted(zip(t["id_a"].to_pylist(), t["id_b"].to_pylist()))

    assert pair_multiset([emit(g) for g in by_pkey]) == pair_multiset([emit(bands)])

    border = border_pairs(signed, truth, cfg.num_perms, 0.2)
    edge_a, edge_b = dedup_graph(KERNEL_EDGES, KERNEL_SEED)

    n = table.num_rows
    kernels = {
        "normalize": (lambda: normalized_bytes(table["content"]), "MB", content_mb),
        "normalize_nonascii": (lambda: normalized_bytes(mixed["content"]), "MB", mb(mixed)),
        "shingle": (
            lambda: shingle_hashes_batch(buf, starts, ends, cfg.k, cfg.sample_mod),
            "MB",
            buf.shape[0] / 1e6,
        ),
        "oph": (lambda: oph_signatures(hashes, offsets, counts, cfg.num_perms), "rows", n),
        "simhash": (lambda: simhash_from_sigs(sigs), "rows", n),
        "prepare": (lambda: prepare_batch(table), "MB", content_mb),
        "sign_table": (lambda: sign_table(table, cfg), "MB", content_mb),
        "sign_table_nonascii": (lambda: sign_table(mixed, cfg), "MB", mb(mixed)),
        "split": (split, "rows", n),
        "pair_emit_per_pkey": (lambda: [emit(g) for g in by_pkey], "rows", bands.num_rows),
        "pair_emit": (lambda: emit(bands), "rows", bands.num_rows),
        "border_check": (lambda: exact_jaccard(border, cfg), "pairs", border.num_rows),
        "components": (lambda: label_components(edge_a, edge_b), "edges", KERNEL_EDGES),
    }
    out = {}
    for name, (fn, unit, size) in kernels.items():
        fn()
        secs = []
        for _ in range(KERNEL_REPS):
            t0 = time.process_time()
            fn()
            secs.append(time.process_time() - t0)
        cpu_s = sorted(secs)[KERNEL_REPS // 2]
        out[name] = {"cpu_s": round(cpu_s, 5), f"{unit}_per_cpu_s": round(size / cpu_s, 1)}
    return {
        "metric": "per-row kernel rates (one process, median CPU seconds)",
        "corpus": dict(
            MIXED_5KB_SPEC, n_files=KERNEL_FILES, seed=KERNEL_SEED, content_mb=round(content_mb, 3)
        ),
        "reps": KERNEL_REPS,
        "kernels": out,
    }


def cpu_pair() -> tuple:
    """``(N // 4, N)`` for the box's ``os.cpu_count()`` N: the two CPU
    counts ``--scaling`` and ``--ceiling`` compare."""
    n = os.cpu_count() or 1
    return max(1, n // 4), n


def run_ceiling() -> dict:
    """Machine scaling ceiling: fixed pure-numpy work (matmul chain), no
    shuffle, no I/O, fresh processes at the ``cpu_pair()`` CPU counts.
    The efficiency of THIS job bounds the efficiency any pipeline can reach
    on the box — at 8 -> 32 vCPUs on the round-5 VM it measured ~0.70-0.72
    (32 vCPUs share memory channels/turbo that 8 vCPUs get exclusively),
    which calibrates the >= 0.8 bar for single-box evidence."""
    body = r"""
import sys, time, json
import ray
ncpu = int(sys.argv[1])
ray.init(address="local", num_cpus=ncpu, include_dashboard=False, logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
import numpy as np
def work(b):
    rng = np.random.default_rng(int(b["id"][0]))
    x = rng.standard_normal((600, 600))
    for _ in range(12):
        x = x @ x.T
        x /= np.abs(x).max()
    return {"id": b["id"], "s": np.array([float(x.sum())])}
ds = rd.range(256, override_num_blocks=256).map_batches(lambda b: {"id": b["id"]}, batch_size=1)
ds.map_batches(work, batch_size=1, num_cpus=1).count()
t0 = time.time()
ds.map_batches(work, batch_size=1, num_cpus=1).count()
print(json.dumps({"sec": round(time.time()-t0, 2)}))
ray.shutdown()
"""

    def run(ncpu: int) -> float:
        out = subprocess.run(
            [sys.executable, "-c", body, str(ncpu)],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])["sec"]

    lo_cpus, hi_cpus = cpu_pair()
    t_hi = run(hi_cpus)
    t_lo = run(lo_cpus)
    return {
        "metric": f"pure-compute scaling ceiling (no shuffle, {lo_cpus} -> {hi_cpus} CPUs)",
        "value": round((t_lo / t_hi) / (hi_cpus / lo_cpus), 3),
        "unit": "efficiency",
        "cpus_lo": lo_cpus,
        "cpus_hi": hi_cpus,
        "sec_lo": t_lo,
        "sec_hi": t_hi,
    }


def run_scaling() -> dict:
    # scaling evidence needs a compute-dominated input: the fixed per-stage
    # scheduling latency (~5-10 s regardless of CPU count) would swamp the
    # sf-sized corpus, so the same job runs on a 15x larger deterministic
    # corpus at both parallelism levels (same input both runs)
    sf = sf_from_dir(SF_DIR)
    scaling_files = int(os.environ.get("GRAFT_SCALING_FILES", int(6_000_000 * sf)))

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_FILES=str(scaling_files),
            GRAFT_BENCH_HEADLINE_ONLY="1",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # this box has very high run-to-run variance (measured up to 3x on an
    # identical in-session job): take the MIN over repeats per level — the
    # unbiased estimator of the machine's actual capability under
    # one-sided system noise
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "2"))
    lo_cpus, hi_cpus = cpu_pair()
    run(lo_cpus if scaling_files <= 50_000 else hi_cpus)  # untimed warm-up: build the corpus cache
    runs_lo = [run(lo_cpus) for _ in range(repeats)]
    runs_hi = [run(hi_cpus) for _ in range(repeats)]
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi_cpus / lo_cpus)
    return {
        "metric": f"dedup scaling efficiency ({lo_cpus} -> {hi_cpus} CPUs, fresh processes)",
        "value": round(eff, 3),
        "machine": machine_probe(),
        "unit": "efficiency",
        "cpus_lo": lo_cpus,
        "cpus_hi": hi_cpus,
        "sec_lo": t_lo,
        "sec_hi": t_hi,
        "sec_lo_all": [r["value"] for r in runs_lo],
        "sec_hi_all": [r["value"] for r in runs_hi],
        "files_per_sec_lo": r_lo["files_per_sec"],
        "files_per_sec_hi": r_hi["files_per_sec"],
        "queries_lo": r_lo["queries"],
        "queries_hi": r_hi["queries"],
        "sf": r_lo["sf"],
        "corpus_files": r_lo["corpus_files"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--ceiling" in sys.argv:
        print(json.dumps(run_ceiling()))
    elif "--kernels" in sys.argv:
        print(json.dumps(run_kernels()))
    else:
        print(json.dumps(run_bench()))
