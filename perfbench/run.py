"""Closed-loop benchmark of the flagship dedup pipeline.

    python3 perfbench/run.py --workload mixed_5kb --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One job at a time, each starting when the previous one has finished:
``read_parquet_clean`` -> ``dedup_pipeline`` -> the result pulled to the
driver.  The corpus is generated from ``--seed`` with ``CorpusSpec`` +
``write_corpus`` in a child process (``corpora.py``); the pipeline only sees
the Parquet files.  Ray runs in this process with ``num_cpus`` = the CPUs
this process may use, less one for the driver (see ``cpus``).

Every job is checked: one output row per input row, unique ids, recall of
the planted near-duplicate pairs >= ``MIN_RECALL``, and the same digest of
sorted ``(id, cluster_id, classification)`` as every other job of the
invocation.  Once per invocation, outside the timed jobs, the kept rows of
``attach_content`` + ``survivors`` must match their sha256.  A job that
raises or fails a check counts in ``failed``.

Timings are CPU seconds: the busy time of every CPU of the machine over
the job, from ``/proc/stat`` (user + nice + system + irq + softirq), which
covers the driver, the Ray daemons and every worker and actor process,
short-lived ones included, and whatever else runs on the machine, so
nothing else should run beside the benchmark.  Time the hypervisor gave to
other guests (steal) is not in it.  On a 4-vCPU VM of a shared host, steal
swung between under 1% and ~40% of the machine within minutes; the median
wall time of one job moved 2.4x with it, its CPU time 1.4x, so only the CPU
time stays within the bounds from run to run.  Wall times are in
the context line.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

- ``run_cpu_s``: median CPU seconds of the timed jobs (on the checkpointed
  workload, of its fresh-checkpoint write jobs); ``files_per_cpu_s`` =
  input files / ``run_cpu_s``.
- ``resume_cpu_s``: median CPU seconds of the resume jobs.  A workload
  without a checkpoint dir has nothing to resume from, so re-running it is
  a full run and ``resume_cpu_s`` equals ``run_cpu_s``.
- ``setup_s``: CPU seconds of ``ray.init`` plus the untimed warm-up job (a
  cold job on fresh workers, which reads the corpus).  It is measured once
  per invocation: a second Ray session per run would not fit the run
  budget.  Corpus generation is left out, because the corpus is cached
  across runs; the context line reports it as ``corpus_gen_s``.
- ``driver_rss_peak_mb``: peak RSS of this process up to the end of the
  timed jobs.
- ``oracle_edge_recall``: the lowest recall any job reached.

Failed jobs are ``failed`` out of ``attempted`` in the result line, and
``ops_failed_frac`` in the context line; it is no metric because it is 0
whenever the program is correct.  Failed jobs are left out of the timings
unless every job failed.

``--trace 1`` adds one traced iteration after the untraced ones and reports
the per-layer metrics instead (see ``layertrace.py``).  The line before the
result line carries the context: machine probe, corpus generation time,
the wall-time counterparts of the timings, the share of the machine's CPU
time stolen during the timed jobs, every job with its wall and CPU
seconds, ``ops_failed_frac`` and any layer entry the package no longer has.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, suppress
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".cache", "work")

MIN_RECALL = 0.99
CLK_TCK = os.sysconf("SC_CLK_TCK")
OBJECT_STORE_BYTES = 512 << 20  # small inputs; leave the host's memory to others
RAY_TMP = os.path.join(HERE, ".ray")
# Ray's socket paths are its temp dir + up to 64 characters, and must stay
# under 108 bytes
RAY_TMP_MAX_LEN = 43


@dataclass(frozen=True)
class Workload:
    spec: dict  # CorpusSpec fields except the seed
    checkpoint: bool = False  # one iteration = a fresh checkpointed run + its resume


# Sizes keep one invocation under a minute on a 4-CPU box.  A third workload of
# ~50 KB files, where verify's exact border re-check dominates, was left out:
# its candidates are the tail of the MinHash estimate around tau, so its run
# time moved 1.6x between seeds and no size kept the spread across seeds
# within the bound.
WORKLOADS = {
    # ~5 KB files in the default CorpusSpec mix, no checkpoint: the driver
    # sha collapse runs and every layer does work.
    "mixed_5kb": Workload(
        spec=dict(n_files=1000, tokens_per_doc=600, mutation_rate=0.015, chain_step_rate=0.03),
    ),
    # 40-token dup-heavy files with a checkpoint dir: the sha collapse goes
    # through hash_exchange (as every input above exact_driver_cap does), and
    # write and resume use the checkpoint layer in opposite directions.  The
    # 450 files sharing the boilerplate header fill one LSH band bucket past
    # LSHConfig.band_cap (256), so the capped-bucket path runs; 300 such
    # files do not reach the cap with 40-token bodies.
    "tiny_dupheavy": Workload(
        spec=dict(n_files=1500, tokens_per_doc=40, exact_dup_frac=0.4, near_dup_frac=0.25, boilerplate_frac=0.3),
        checkpoint=True,
    ),
}
SHARDS = 4


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def cpus() -> int:
    """Ray's CPU count: the CPUs this process may use, less one for the
    driver itself (it runs the driver-side sha collapse and union-find and
    schedules every task).  On a 4-CPU box, jobs of the checkpointed workload
    varied by about 15% within one session with all four CPUs given to Ray,
    and by about 6% with three.  Never fewer than two: with one, the Ray
    Data join of the sha256 check waited forever for a CPU."""
    return max(2, len(os.sched_getaffinity(0)) - 1)


def machine_cpu_s() -> tuple:
    """(busy, stolen) CPU seconds of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return (user + nice + system + irq + softirq) / CLK_TCK, steal / CLK_TCK


def prepare_inputs(spec: dict, shards: int) -> dict:
    """Corpus dir, generation time and machine probe, from a child process."""
    req = json.dumps({"spec": spec, "shards": shards})
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "corpora.py"), req],
        stdout=subprocess.PIPE,
        timeout=150,
        check=True,
    )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def start_ray(ncpu: int) -> None:
    import ray
    import ray.data

    tmp = RAY_TMP
    if len(tmp) > RAY_TMP_MAX_LEN:
        log(f"{tmp} is too long for Ray's socket paths; Ray uses its default temp dir")
        tmp = None
    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=tmp,
    )
    ray.data.DataContext.get_current().enable_progress_bars = False


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has exited."""
    import ray
    import psutil  # ships inside ray's thirdparty_files

    procs = psutil.Process().children(recursive=True)
    ray.shutdown()
    _, alive = psutil.wait_procs(procs, timeout=10)
    for proc in alive:
        with suppress(psutil.NoSuchProcess):
            proc.kill()
    psutil.wait_procs(alive, timeout=5)
    # Ray names the session dir after the driver's pid; drop this run's logs
    for session in glob.glob(os.path.join(RAY_TMP, f"session_*_{os.getpid()}")):
        shutil.rmtree(session, ignore_errors=True)


class Checker:
    """Correctness checks every job's output must pass."""

    def __init__(self, n_rows: int, oracle) -> None:
        self.n_rows = n_rows
        self.pairs = list(zip(oracle["id_a"].to_pylist(), oracle["id_b"].to_pylist()))
        self.digest = None

    def recall(self, out) -> float:
        if not self.pairs:
            return 1.0
        cluster = dict(zip(out["id"].to_pylist(), out["cluster_id"].to_pylist()))
        hit = sum(1 for a, b in self.pairs if a in cluster and cluster.get(a) == cluster.get(b))
        return hit / len(self.pairs)

    def check(self, out) -> tuple:
        """(recall, list of failed checks)."""
        import pyarrow.compute as pc

        problems = []
        if out.num_rows != self.n_rows:
            problems.append(f"{out.num_rows} output rows for {self.n_rows} input rows")
        if pc.count_distinct(out["id"]).as_py() != out.num_rows:
            problems.append("duplicate ids in the output")
        recall = self.recall(out)
        if recall < MIN_RECALL:
            problems.append(f"oracle_edge_recall {recall:.5f} < {MIN_RECALL}")
        rows = out.select(["id", "cluster_id", "classification"]).sort_by("id")
        h = hashlib.sha256()
        for col in rows.columns:
            h.update("\x1f".join(col.to_pylist()).encode())
            h.update(b"\x1e")
        digest = h.hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("output digest differs from the first job's")
        return recall, problems


class Bench:
    """One invocation: a corpus, a Ray session and the jobs run on it."""

    def __init__(self, workload: Workload, inputs: dict, ncpu: int) -> None:
        import pyarrow.parquet as pq

        self.wl = workload
        self.ncpu = ncpu
        corpus = inputs["dir"]
        self.files = sorted(
            os.path.join(corpus, f) for f in os.listdir(corpus) if f.startswith("part-")
        )
        self.n_files = sum(pq.read_metadata(f).num_rows for f in self.files)
        self.checker = Checker(self.n_files, pq.read_table(os.path.join(corpus, "oracle_pairs.parquet")))
        self.ckpt = os.path.join(WORK, f"ckpt-{os.getpid()}") if workload.checkpoint else None
        self.ops: list = []  # {"kind", "phase", "s", "cpu_s", "steal_s", "ok"}
        self.phase = "warmup"  # warmup | timed | check | traced
        self.recalls: list = []
        self.last_out = None

    def job(self, kind: str, tracer=None) -> None:
        """One pipeline run; ``kind`` is run, write (fresh checkpoint) or resume."""
        import pyarrow as pa
        import ray

        from lasvdedup_ray.config import PipelineConfig
        from lasvdedup_ray.pipelines import dedup
        from lasvdedup_ray.sources import readers

        if kind == "write":
            shutil.rmtree(self.ckpt, ignore_errors=True)
        config = PipelineConfig(checkpoint_dir=self.ckpt)
        cpu0, steal0 = machine_cpu_s()
        t0 = time.perf_counter()
        try:
            with tracer.op(kind) if tracer else nullcontext():
                ds = readers.read_parquet_clean(self.files)
                res = dedup.dedup_pipeline(ds, config, num_partitions=self.ncpu)
                tables = [t for t in ray.get(res.to_arrow_refs()) if t.num_rows]
            seconds = time.perf_counter() - t0
            cpu1, steal1 = machine_cpu_s()
            out = pa.concat_tables(tables)
            recall, problems = self.checker.check(out)
        except Exception:
            log(f"{kind} job raised:\n{traceback.format_exc()}")
            cpu1, steal1 = machine_cpu_s()
            self.ops.append(
                {
                    "kind": kind,
                    "phase": self.phase,
                    "s": time.perf_counter() - t0,
                    "cpu_s": cpu1 - cpu0,
                    "steal_s": steal1 - steal0,
                    "ok": False,
                }
            )
            return
        for p in problems:
            log(f"{kind} job failed a check: {p}")
        self.recalls.append(recall)
        self.last_out = out
        self.ops.append(
            {
                "kind": kind,
                "phase": self.phase,
                "s": seconds,
                "cpu_s": cpu1 - cpu0,
                "steal_s": steal1 - steal0,
                "ok": not problems,
            }
        )

    def iteration(self, tracer=None) -> None:
        if self.wl.checkpoint:
            self.job("write", tracer)
            self.job("resume", tracer)
        else:
            self.job("run", tracer)

    def invariant_check(self) -> None:
        """Kept rows of attach_content + survivors keep their sha256."""
        import ray
        import ray.data

        from lasvdedup_ray.pipelines.dedup import attach_content, survivors
        from lasvdedup_ray.sources.readers import read_parquet_clean
        from lasvdedup_ray.stages.prepare import prepare

        ok = False
        try:
            out = self.last_out
            expect = sum(1 for c in out["classification"].to_pylist() if c in ("keep", "distinct"))
            kept = survivors(
                attach_content(
                    ray.data.from_arrow(out),
                    prepare(read_parquet_clean(self.files)),
                    num_partitions=self.ncpu,
                )
            )
            n = bad = 0
            for t in ray.get(kept.materialize().to_arrow_refs()):
                for content, sha in zip(t["content"].to_pylist(), t["sha256"].to_pylist()):
                    n += 1
                    bad += hashlib.sha256(content.encode()).digest() != sha
            ok = n == expect and bad == 0
            if not ok:
                log(f"sha256 invariant: {n} kept rows (expected {expect}), {bad} mismatched")
        except Exception:
            log(f"sha256 invariant check raised:\n{traceback.format_exc()}")
        self.ops.append(
            {
                "kind": "sha256_invariant",
                "phase": self.phase,
                "s": None,
                "cpu_s": None,
                "steal_s": None,
                "ok": ok,
            }
        )

    def timed(self, kind: str) -> list:
        """The timed jobs of ``kind`` that passed; all of them if none did."""
        timed = [o for o in self.ops if o["kind"] == kind and o["phase"] == "timed"]
        return [o for o in timed if o["ok"]] or timed

    def median(self, kind: str, field: str) -> float:
        return statistics.median(o[field] for o in self.timed(kind))


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> tuple:
    """(context, result) of one invocation."""
    wl = WORKLOADS[name]
    spec = dict(wl.spec, seed=seed)
    spec["n_files"] = max(24, round(spec["n_files"] * scale))
    inputs = prepare_inputs(spec, SHARDS)
    ncpu = cpus()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    bench = Bench(wl, inputs, ncpu)
    run_kind = "write" if wl.checkpoint else "run"

    try:
        cpu0, _ = machine_cpu_s()
        t0 = time.perf_counter()
        start_ray(ncpu)
        bench.job(run_kind)  # untimed warm-up
        setup_s = time.perf_counter() - t0
        setup_cpu_s = machine_cpu_s()[0] - cpu0
        bench.phase = "timed"
        deadline = time.perf_counter() + seconds
        while True:
            bench.iteration()
            if time.perf_counter() >= deadline:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        resume_kind = "resume" if wl.checkpoint else run_kind
        run_s, run_cpu_s = bench.median(run_kind, "s"), bench.median(run_kind, "cpu_s")
        resume_s, resume_cpu_s = bench.median(resume_kind, "s"), bench.median(resume_kind, "cpu_s")
        timed = [o for o in bench.ops if o["phase"] == "timed"]
        machine_s = sum(o["s"] for o in timed) * os.cpu_count()
        steal_frac = sum(o["steal_s"] for o in timed) / machine_s
        bench.phase = "check"
        bench.invariant_check()

        absent: list = []
        metrics = {
            "run_cpu_s": run_cpu_s,
            "files_per_cpu_s": bench.n_files / run_cpu_s,
            "resume_cpu_s": resume_cpu_s,
            "setup_s": setup_cpu_s,
            "driver_rss_peak_mb": rss_mb,
            "oracle_edge_recall": min(bench.recalls) if bench.recalls else 0.0,
        }
        if trace:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
            bench.phase = "traced"
            try:
                bench.iteration(tracer)
            finally:
                tracer.uninstall()
            absent = tracer.absent
            for note in tracer.notes:
                log(f"trace counter skipped:\n{note}")
            metrics = tracer.summary(run_s + (resume_s if wl.checkpoint else 0.0))
    finally:
        stop_ray()
        if bench.ckpt:
            shutil.rmtree(bench.ckpt, ignore_errors=True)

    failed = sum(1 for o in bench.ops if not o["ok"])
    context = {
        "workload": name,
        "seed": seed,
        "files": bench.n_files,
        "num_cpus": ncpu,
        "probe": inputs["probe"],
        "corpus_gen_s": inputs["gen_s"],
        "wall": {
            "run_s": run_s,
            "files_per_s": bench.n_files / run_s,
            "resume_s": resume_s,
            "setup_s": setup_s,
        },
        "steal_frac": steal_frac,
        "jobs": bench.ops,
        "ops_failed_frac": failed / len(bench.ops),
        "layers_absent": absent,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": metrics,
    }
    return context, result


def with_units(metrics: dict, declared: list) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale", type=float, default=1.0, help="corpus size factor (tests use a toy size)"
    )
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; one result line per workload, then
    a combined line with the metrics prefixed by workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=900)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"{name} exited with {proc.returncode}")
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still unwinds, so its Ray processes are shut down
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, ROOT)
    try:
        import lasvdedup_ray  # noqa: F401
    except ImportError as exc:
        log(f"cannot import the pipeline package from {ROOT}: {exc}")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    os.makedirs(WORK, exist_ok=True)
    context, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    result["metrics"] = with_units(result["metrics"], declared)
    print(json.dumps({"context": context}), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
