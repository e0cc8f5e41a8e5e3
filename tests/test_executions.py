"""Ray Data executions of one flagship job.

Each execution costs a fixed ~150 ms of CPU however few rows it moves, so
the flagship reads blocks already in the object store by ref and never
builds a stage its checkpoint already holds.  These tests pin the number of
executions with an operator besides the input buffer (``executions``
fixture, conftest.py), and that a resume runs no sha exchange."""

import os

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


def test_job_without_checkpoint(ray_session, corpus_files, executions):
    _job(corpus_files, PipelineConfig())
    assert len(executions) <= 6, executions


def test_resume_skips_sha_exchange(ray_session, corpus_files, executions, monkeypatch, tmp_path):
    """The checkpointed resume reads ``reps`` back without building the sha
    exchange, runs at most 5 executions, and returns the write's output."""
    calls = []
    for name in ("exact_collapse", "_sha_exchange"):
        real = getattr(exact, name)
        monkeypatch.setattr(
            exact, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k)
        )
    config = PipelineConfig(checkpoint_dir=str(tmp_path / "ckpt"))
    written = _job(corpus_files, config)
    assert calls == ["exact_collapse", "_sha_exchange"]
    assert len(executions) <= 8, executions
    calls.clear()
    executions.clear()
    resumed = _job(corpus_files, config)
    assert calls == []
    assert len(executions) <= 5, executions
    assert resumed.equals(written)
