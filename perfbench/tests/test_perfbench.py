"""Tests of the benchmark itself (not of the pipeline).

    python3 -m pytest perfbench/tests -q

The end-to-end cases run ``run.py`` at a toy corpus size in a subprocess,
each with its own Ray session; they take a few minutes in total.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, ROOT]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DECLARED = json.load(f)

TOY = ["--seed", "3", "--seconds", "1", "--scale", "0.03"]


def _lines(proc) -> list:
    return [json.loads(line) for line in proc.stdout.decode().splitlines() if line.startswith("{")]


def _run(args, code=None):
    cmd = [sys.executable, os.path.join(BENCH, "run.py")] + args
    if code is not None:
        cmd = [sys.executable, "-c", code] + args
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    assert proc.returncode == 0
    *_, context, result = _lines(proc)
    return context["context"], result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_toy_run_reports_every_metric_with_its_unit(workload, trace):
    context, result = _run(["--workload", workload, "--trace", str(trace)] + TOY)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert context["ops_failed_frac"] == 0.0
    assert context["layers_absent"] == []
    jobs = [j for j in context["jobs"] if j["s"] is not None]
    assert all(j["cpu_s"] > 0 and j["steal_s"] >= 0 for j in jobs)
    assert set(context["wall"]) == {"run_s", "files_per_s", "resume_s", "setup_s"}
    assert set(context["probe"]) == {"cpus", "sign_1core_mb_per_s", "fresh_touch_gb_per_s"}


DROP_ONE_ROW = """
import sys
sys.path.insert(0, {bench!r})
sys.path.insert(0, {root!r})
import lasvdedup_ray.pipelines.dedup as dedup
import lasvdedup_ray.stages.classify as classify
import run

real = classify.classify_clusters

def dropping(*args, **kwargs):
    out = real(*args, **kwargs).materialize()
    n = out.count()
    return out.limit(n - 1)

classify.classify_clusters = dropping
dedup.classify_clusters = dropping
sys.exit(run.main(sys.argv[1:]))
""".format(bench=BENCH, root=ROOT)


def test_planted_fault_is_reported_as_failed_not_as_fast():
    context, result = _run(["--workload", "mixed_5kb", "--trace", "0"] + TOY, code=DROP_ONE_ROW)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert context["ops_failed_frac"] > 0
    assert all(not j["ok"] for j in context["jobs"] if j["kind"] == "run")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed_5kb"] + TOY + ["--trace", "0"],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        timeout=120,
    )
    assert proc.returncode != 0
    assert not _lines(proc)


def test_missing_entry_is_an_absent_layer(monkeypatch):
    import layertrace

    import lasvdedup_ray.state.unionfind as uf

    entries = layertrace.ENTRIES + [
        ("unionfind", "lasvdedup_ray.state.unionfind", "removed_engine", "_hook_lsh"),
        ("exact", "lasvdedup_ray.stages.no_such_module", "f", "_hook_lsh"),
    ]
    monkeypatch.setattr(layertrace, "ENTRIES", entries)
    original = uf.assign_clusters
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert uf.assign_clusters is not original
    finally:
        tracer.uninstall()
    assert uf.assign_clusters is original
    assert tracer.absent == [
        "lasvdedup_ray.state.unionfind.removed_engine",
        "lasvdedup_ray.stages.no_such_module.f",
    ]


def test_self_time_excludes_nested_spans_and_bookkeeping():
    import layertrace

    tracer = layertrace.Tracer()
    with tracer.op("run"):
        with tracer.span("classify", "classify_clusters"):
            with tracer.span("exchange", "hash_exchange"):
                pass
            with tracer.bookkeeping():
                pass
    # fixed clock: rewrite the recorded intervals
    root, classify, exchange = tracer.spans
    root.update(start=0.0, end=10.0)
    classify.update(start=1.0, end=9.0, bookkeeping=0.5)
    exchange.update(start=2.0, end=5.0)
    tracer.bookkeeping_s = 0.5
    assert tracer.self_times() == [2.0, 4.5, 3.0]
    summary = tracer.summary(untraced_s=8.0)
    assert summary["classify.s"] == 4.5
    assert summary["exchange.s"] == 3.0
    assert summary["trace.overhead_frac"] == pytest.approx(0.25)
    assert summary["trace.coverage"] == pytest.approx(7.5 / 9.5)


def test_cache_key_follows_the_oracle_inputs():
    import corpora

    spec = {"n_files": 10, "seed": 1}
    inputs = corpora.oracle_inputs()
    assert set(inputs) == {"tau", "signature"}
    assert corpora.cache_key(spec, 4, inputs) == corpora.cache_key(spec, 4, dict(inputs))
    changed = dict(inputs, tau=inputs["tau"] + 0.01)
    assert corpora.cache_key(spec, 4, changed) != corpora.cache_key(spec, 4, inputs)
    shingles = dict(inputs, signature=dict(inputs["signature"], k=inputs["signature"]["k"] + 1))
    assert corpora.cache_key(spec, 4, shingles) != corpora.cache_key(spec, 4, inputs)
