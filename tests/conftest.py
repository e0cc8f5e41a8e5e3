"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import pytest
import ray
import ray.data


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_tables():
    """Deterministic synthetic corpus + ground truth (small, shared)."""
    from lasvdedup_ray.sources.corpus import CorpusSpec, generate_corpus

    return generate_corpus(CorpusSpec(n_files=400, seed=42))


def _ops(op):
    yield op
    for dep in op.input_dependencies:
        yield from _ops(dep)


def _on_execute(monkeypatch, record):
    """Call ``record(ops)`` with the physical operators of every Ray Data
    execution started while the fixture is active."""
    from ray.data._internal.execution import streaming_executor as se

    execute = se.StreamingExecutor.execute

    def watched(self, dag, *args, **kwargs):
        record(list(_ops(dag)))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(se.StreamingExecutor, "execute", watched)


@pytest.fixture
def executor_starts(monkeypatch):
    """Operator names of every Ray Data ``StreamingExecutor`` started during
    the test (one list per start), input-only DAGs included: reading a
    dataset without a computed snapshot starts one even when it only hands
    back blocks that already exist."""
    started = []
    _on_execute(monkeypatch, lambda ops: started.append([op.name for op in ops]))
    return started


@pytest.fixture
def executions(monkeypatch):
    """Operator names of every Ray Data execution started during the test
    whose DAG has an operator besides ``InputDataBuffer`` (one list per
    execution).  Executors over an input-only DAG are not listed here;
    ``executor_starts`` counts them."""
    from ray.data._internal.execution.operators.input_data_buffer import (
        InputDataBuffer,
    )

    started = []

    def record(ops):
        names = [op.name for op in ops if not isinstance(op, InputDataBuffer)]
        if names:
            started.append(names)

    _on_execute(monkeypatch, record)
    return started


@pytest.fixture
def tasks(monkeypatch):
    """Function names of every Ray task submitted during the test
    (``RemoteFunction._remote`` calls: Ray Data's tasks and the raw
    ``map_blocks`` / ``hash_exchange`` tasks alike)."""
    from ray.remote_function import RemoteFunction

    submitted = []
    remote = RemoteFunction._remote

    def counted(self, *args, **kwargs):
        submitted.append(self._function_name)
        return remote(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counted)
    return submitted


@pytest.fixture
def task_returns(monkeypatch):
    """``(function name, num_returns)`` of every Ray task submitted during
    the test: the objects each task stores."""
    from ray.remote_function import RemoteFunction

    submitted = []
    remote = RemoteFunction._remote

    def counted(self, *args, **kwargs):
        submitted.append((self._function_name, kwargs.get("num_returns", 1)))
        return remote(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counted)
    return submitted


@pytest.fixture
def parquet_reads(monkeypatch):
    """The Parquet files each raw checkpoint read task reads
    (``StageCheckpointer.pin`` on a completed stage), one list per task
    submitted during the test."""
    from ray.remote_function import RemoteFunction

    reads = []
    remote = RemoteFunction._remote

    def counted(self, args=None, *rest, **kwargs):
        if self._function_name.endswith("._read_parts"):
            reads.append(list(args[0]))
        return remote(self, args, *rest, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counted)
    return reads
