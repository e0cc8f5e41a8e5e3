"""Ray Data executions of one flagship job.

Each execution costs a fixed ~150 ms of CPU however few rows it moves, so
after sign the flagship runs raw tasks over block refs only (``map_blocks``,
``concat_blocks``, ``hash_exchange``), reads each checkpointed stage from
Parquet once, and never builds a stage its checkpoint already holds.  A
block-ref dataset carries its blocks as a computed snapshot
(``dataset_from_blocks``), so reading it starts no executor either; without
the snapshot every read would start one over an input-only DAG.  These
tests pin every executor start (``executor_starts`` fixture, conftest.py):
after sign a job starts none beyond its checkpoint's Parquet writes and
reads.  They also pin the executions with an operator besides the input
buffer (``executions``), the Ray tasks submitted (``tasks``), the
executions that read each stage's Parquet (``parquet_reads``), and that a
resume runs no sha exchange and no more ``map_blocks`` tasks than its
write."""

import os

import pyarrow as pa
import pytest
import ray

from lasvdedup_ray.config import ExecutionConfig, PipelineConfig
from lasvdedup_ray.pipelines import dedup
from lasvdedup_ray.sources.corpus import CorpusSpec, write_corpus
from lasvdedup_ray.sources.readers import read_parquet_clean
from lasvdedup_ray.stages import exact
from lasvdedup_ray.stages.exchange import cluster_cpus


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    d = write_corpus(
        str(tmp_path_factory.mktemp("exec_corpus")), CorpusSpec(n_files=300, seed=23)
    )
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.startswith("part-"))


def _job(files, config) -> pa.Table:
    """One job as the benchmark runs it: read, dedup, pull the result."""
    res = dedup.dedup_pipeline(read_parquet_clean(files), config, num_partitions=4)
    out = pa.concat_tables([t for t in ray.get(res.to_arrow_refs()) if t.num_rows])
    return out.select(["id", "cluster_id", "classification"]).sort_by("id")


# Ray tasks one job of each kind submitted on this corpus at 4 CPUs when
# these bounds were set; a job may not submit more.  The exchange pair is
# the sha-exchange collapse (``exact_driver_cap=0``), the driver pair the
# default driver collapse of this 300-row corpus.
TASKS_RUN, TASKS_WRITE, TASKS_RESUME = 28, 54, 30
TASKS_DRIVER_WRITE, TASKS_DRIVER_RESUME = 29, 27


def _map_block_tasks(tasks) -> int:
    """``map_blocks`` tasks among the submitted ones: one per block per
    wave, so a resume that read a stage back in more blocks than the write
    produced submits more."""
    return sum(name.endswith("._map_block") for name in tasks)


def _reduce_tasks(tasks) -> int:
    """``hash_exchange`` reduce tasks among the submitted ones."""
    return sum(name.endswith("._reduce_partition") for name in tasks)


def test_job_without_checkpoint(
    ray_session, corpus_files, executions, executor_starts, tasks
):
    """Read + sign is the only execution a job needs, and the only executor
    it starts, reading the result by ``to_arrow_refs`` included."""
    _job(corpus_files, PipelineConfig())
    assert len(executions) <= 2, executions
    assert len(executor_starts) == 1, executor_starts
    assert len(tasks) <= TASKS_RUN, tasks


def _stage_reads(parquet_reads, ckpt) -> dict:
    """Executions that read each pinned stage's Parquet directory."""
    return {
        stage: sum(os.path.join(ckpt, stage) in paths for paths in parquet_reads)
        for stage in ("signed", "reps")
    }


def test_resume_skips_sha_exchange(
    ray_session,
    corpus_files,
    executions,
    executor_starts,
    parquet_reads,
    tasks,
    monkeypatch,
    tmp_path,
):
    """With the sha collapse forced through the exchange
    (``exact_driver_cap=0``), the checkpointed write runs at most 4
    executions and hands its stages on without reading them back; it starts
    3 executors (read + sign, one Parquet write per stage).  The resume
    reads ``reps`` back without building the sha exchange, reads each
    stage's Parquet in one execution, runs at most 3 executions, starts 2
    executors (the two Parquet reads), submits no more ``map_blocks`` tasks
    than the write (a stage is read back in no more blocks than it was
    written from), and returns the write's output."""
    calls = []
    for name in ("exact_collapse", "_sha_exchange"):
        real = getattr(exact, name)
        monkeypatch.setattr(
            exact, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k)
        )
    ckpt = str(tmp_path / "ckpt")
    config = PipelineConfig(checkpoint_dir=ckpt, execution=ExecutionConfig(exact_driver_cap=0))
    written = _job(corpus_files, config)
    assert calls == ["exact_collapse", "_sha_exchange"]
    assert len(executions) <= 4, executions
    assert len(executor_starts) == 3, executor_starts
    assert _stage_reads(parquet_reads, ckpt) == {"signed": 0, "reps": 0}, parquet_reads
    assert len(tasks) <= TASKS_WRITE, tasks
    written_maps = _map_block_tasks(tasks)
    calls.clear()
    executions.clear()
    executor_starts.clear()
    parquet_reads.clear()
    tasks.clear()
    resumed = _job(corpus_files, config)
    assert calls == []
    assert len(executions) <= 3, executions
    assert len(executor_starts) == 2, executor_starts
    assert len(tasks) <= TASKS_RESUME, tasks
    assert _map_block_tasks(tasks) <= written_maps, tasks
    assert _stage_reads(parquet_reads, ckpt) == {"signed": 1, "reps": 1}, parquet_reads
    assert resumed.equals(written)


def test_driver_collapse_resume(
    ray_session,
    corpus_files,
    executions,
    executor_starts,
    parquet_reads,
    tasks,
    monkeypatch,
    tmp_path,
):
    """Below ``exact_driver_cap`` (the default at this size) a checkpointed
    job collapses exact dups on the driver and pins ``signed`` only: the
    write runs at most 2 executions and starts 2 executors (read + sign,
    the Parquet write), reads no stage back and writes no ``reps``; the
    resume starts one executor, which reads ``signed``, redoes the driver
    collapse from it, submits no more ``map_blocks`` tasks than the write,
    and returns the write's output.  Each job's two exchanges (LSH bands,
    classify) are small, so each runs at most one reduce task per CPU."""
    calls = []
    for name in ("exact_collapse", "exact_collapse_driver"):
        real = getattr(exact, name)
        monkeypatch.setattr(
            exact, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k)
        )
    ckpt = str(tmp_path / "ckpt")
    config = PipelineConfig(checkpoint_dir=ckpt)
    written = _job(corpus_files, config)
    assert calls == ["exact_collapse_driver"]
    assert not os.path.exists(os.path.join(ckpt, "reps"))
    assert len(executions) <= 2, executions
    assert len(executor_starts) == 2, executor_starts
    assert _stage_reads(parquet_reads, ckpt) == {"signed": 0, "reps": 0}, parquet_reads
    assert len(tasks) <= TASKS_DRIVER_WRITE, tasks
    assert _reduce_tasks(tasks) <= 2 * cluster_cpus(), tasks
    written_maps = _map_block_tasks(tasks)
    calls.clear()
    executions.clear()
    executor_starts.clear()
    parquet_reads.clear()
    tasks.clear()
    resumed = _job(corpus_files, config)
    assert calls == ["exact_collapse_driver"]
    assert len(executions) <= 1, executions
    assert len(executor_starts) == 1, executor_starts
    assert len(tasks) <= TASKS_DRIVER_RESUME, tasks
    assert _reduce_tasks(tasks) <= 2 * cluster_cpus(), tasks
    assert _map_block_tasks(tasks) <= written_maps, tasks
    assert _stage_reads(parquet_reads, ckpt) == {"signed": 1, "reps": 0}, parquet_reads
    assert resumed.equals(written)
