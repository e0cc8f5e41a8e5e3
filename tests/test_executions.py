"""Ray Data executions of one flagship job.

Each execution costs a fixed ~150 ms of CPU however few rows it moves, so
the flagship reads, prepares and signs its input in raw tasks that run the
datasource's read tasks themselves (``add_signatures``), runs raw tasks
over block refs after sign (``map_blocks``, ``concat_blocks``,
``hash_exchange``), writes and reads each checkpointed stage's Parquet with
raw tasks (a stage is read once per job), and never builds a stage its
checkpoint already holds.  A block-ref dataset carries its blocks as a
computed snapshot (``dataset_from_blocks``), so reading it starts no
executor either; without the snapshot every read would start one over an
input-only DAG.  These tests pin every executor start (``executor_starts``
fixture, conftest.py): a job, its checkpointed write and its resume start
none.  They also pin the executions with an operator besides the input
buffer (``executions``), the Ray tasks submitted (``tasks``), the Parquet
files each raw checkpoint read task reads (``parquet_reads``), the objects
the exchanges' split tasks store (``task_returns``), and that a resume runs
no sha exchange and no more ``map_blocks`` tasks than its write."""

import glob
import os
from collections import Counter

import pyarrow as pa
import pytest
import ray

from lasvdedup_ray.config import PipelineConfig
from lasvdedup_ray.pipelines import dedup
from lasvdedup_ray.sources.corpus import CorpusSpec, write_corpus
from lasvdedup_ray.sources.readers import read_parquet_clean
from lasvdedup_ray.stages import exact


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
# the sha-exchange collapse (``exact._DRIVER_ROWS = 0``), the driver pair the
# default driver collapse of this 300-row corpus.
TASKS_RUN, TASKS_WRITE, TASKS_RESUME = 9, 15, 12
TASKS_DRIVER_WRITE, TASKS_DRIVER_RESUME = 10, 9
# ``map_blocks`` tasks per job of the driver plan, likewise: after sign
# only the slim projection, verify's content gather and border check and
# the label attach run as map waves; the sha collapse, the signature
# store, the band rows and the sure pairs are built on the driver, and
# classify's pkey rides in the label attach.
MAP_BLOCKS_DRIVER = 4
# Objects the exchanges' split tasks stored per job, likewise: each split
# task stores one per reduce task of its exchange, and every exchange of
# this corpus fits one reduce task, so none runs a split wave.
OBJECTS_WRITE, OBJECTS_RESUME = 0, 0
OBJECTS_DRIVER_WRITE, OBJECTS_DRIVER_RESUME = 0, 0


def _map_block_tasks(tasks) -> int:
    """``map_blocks`` tasks among the submitted ones: one per block per
    wave, so a resume that read a stage back in more blocks than the write
    produced submits more."""
    return sum(name.endswith("._map_block") for name in tasks)


def _split_objects(task_returns) -> int:
    """Objects the ``hash_exchange`` split tasks store: one per reduce task
    of their exchange, from each submission's ``num_returns``."""
    return sum(n for name, n in task_returns if name.endswith("._split_by_pkey"))


def _reduce_tasks(tasks) -> int:
    """``hash_exchange`` reduce tasks among the submitted ones."""
    return sum(name.endswith("._reduce_partition") for name in tasks)


def test_job_without_checkpoint(
    ray_session, corpus_files, executions, executor_starts, tasks
):
    """A job starts no Ray Data executor, from the read through to reading
    the result by ``to_arrow_refs``."""
    _job(corpus_files, PipelineConfig())
    assert executions == [], executions
    assert executor_starts == [], executor_starts
    assert len(tasks) <= TASKS_RUN, tasks
    assert _map_block_tasks(tasks) <= MAP_BLOCKS_DRIVER, tasks


def test_lazy_input_runs_once(ray_session, corpus_files, executor_starts):
    """An input whose plan has a map stage runs once, at the top of the
    job, not once each for its schema, its count and sign; the job returns
    what a job over the bare read returns."""
    expect = _job(corpus_files, PipelineConfig())
    assert executor_starts == [], executor_starts
    ds = read_parquet_clean(corpus_files).map_batches(lambda t: t, batch_format="pyarrow")
    res = dedup.dedup_pipeline(ds, PipelineConfig(), num_partitions=4)
    out = pa.concat_tables([t for t in ray.get(res.to_arrow_refs()) if t.num_rows])
    assert len(executor_starts) == 1, executor_starts
    assert out.select(["id", "cluster_id", "classification"]).sort_by("id").equals(expect)


def _files_read(parquet_reads) -> Counter:
    """Raw read tasks that read each Parquet file."""
    return Counter(path for paths in parquet_reads for path in paths)


def _stage_files(ckpt, *stages) -> Counter:
    """Every Parquet file of these pinned stages, once each."""
    return Counter(
        path for stage in stages for path in glob.glob(os.path.join(ckpt, stage, "*.parquet"))
    )


def test_resume_skips_sha_exchange(
    ray_session,
    corpus_files,
    executions,
    executor_starts,
    parquet_reads,
    tasks,
    task_returns,
    monkeypatch,
    tmp_path,
):
    """With the sha collapse forced through the exchange
    (``exact._DRIVER_ROWS = 0``), the checkpointed write starts no executor,
    writes its stages with raw tasks and hands them on without reading them
    back.  The resume reads ``reps``
    back without building the sha exchange, reads every file of each stage
    in exactly one raw task, starts no executor, submits no more
    ``map_blocks`` tasks than the write (a stage is read back in no more
    blocks than it was written from), and returns the write's output."""
    calls = []
    for name in ("exact_collapse", "_sha_exchange"):
        real = getattr(exact, name)
        monkeypatch.setattr(
            exact, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k)
        )
    monkeypatch.setattr(exact, "_DRIVER_ROWS", 0)
    ckpt = str(tmp_path / "ckpt")
    config = PipelineConfig(checkpoint_dir=ckpt)
    written = _job(corpus_files, config)
    assert calls == ["exact_collapse", "_sha_exchange"]
    assert executions == [], executions
    assert executor_starts == [], executor_starts
    assert parquet_reads == []
    assert len(tasks) <= TASKS_WRITE, tasks
    assert _split_objects(task_returns) <= OBJECTS_WRITE, task_returns
    written_maps = _map_block_tasks(tasks)
    calls.clear()
    executions.clear()
    executor_starts.clear()
    parquet_reads.clear()
    tasks.clear()
    task_returns.clear()
    resumed = _job(corpus_files, config)
    assert calls == []
    assert executions == []
    assert executor_starts == []
    assert len(tasks) <= TASKS_RESUME, tasks
    assert _split_objects(task_returns) <= OBJECTS_RESUME, task_returns
    assert _map_block_tasks(tasks) <= written_maps, tasks
    files = _stage_files(ckpt, "signed", "reps")
    assert _stage_files(ckpt, "signed") and _stage_files(ckpt, "reps")
    assert _files_read(parquet_reads) == files, parquet_reads
    assert resumed.equals(written)


def test_driver_collapse_resume(
    ray_session,
    corpus_files,
    executions,
    executor_starts,
    parquet_reads,
    tasks,
    task_returns,
    monkeypatch,
    tmp_path,
):
    """At or below ``exact._DRIVER_ROWS`` rows (as at this size) a checkpointed
    job collapses exact dups on the driver and pins ``signed`` only: the
    write starts no executor, reads no stage back and writes no ``reps``; the resume starts no executor,
    reads every file of ``signed`` in exactly one raw task, redoes the
    driver collapse from it, submits no more ``map_blocks`` tasks than the
    write, and returns the write's output.  Each job's two exchanges (LSH bands,
    classify) are under ``_REDUCE_BYTES``, so each runs one reduce task."""
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
    assert executions == [], executions
    assert executor_starts == [], executor_starts
    assert parquet_reads == []
    assert len(tasks) <= TASKS_DRIVER_WRITE, tasks
    assert _split_objects(task_returns) <= OBJECTS_DRIVER_WRITE, task_returns
    assert _reduce_tasks(tasks) == 2, tasks
    written_maps = _map_block_tasks(tasks)
    assert written_maps <= MAP_BLOCKS_DRIVER, tasks
    calls.clear()
    executions.clear()
    executor_starts.clear()
    parquet_reads.clear()
    tasks.clear()
    task_returns.clear()
    resumed = _job(corpus_files, config)
    assert calls == ["exact_collapse_driver"]
    assert executions == []
    assert executor_starts == []
    assert len(tasks) <= TASKS_DRIVER_RESUME, tasks
    assert _split_objects(task_returns) <= OBJECTS_DRIVER_RESUME, task_returns
    assert _reduce_tasks(tasks) == 2, tasks
    assert _map_block_tasks(tasks) <= written_maps, tasks
    assert _stage_files(ckpt, "signed")
    assert _files_read(parquet_reads) == _stage_files(ckpt, "signed"), parquet_reads
    assert resumed.equals(written)
