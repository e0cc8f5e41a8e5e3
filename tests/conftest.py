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


@pytest.fixture
def executions(monkeypatch):
    """Operator names of every Ray Data execution started during the test
    whose DAG has an operator besides ``InputDataBuffer`` (one list per
    execution).  Reading a materialized dataset's blocks starts none."""
    from ray.data._internal.execution import streaming_executor as se
    from ray.data._internal.execution.operators.input_data_buffer import (
        InputDataBuffer,
    )

    started = []
    execute = se.StreamingExecutor.execute

    def ops(op):
        yield op
        for dep in op.input_dependencies:
            yield from ops(dep)

    def counting(self, dag, *args, **kwargs):
        names = [op.name for op in ops(dag) if not isinstance(op, InputDataBuffer)]
        if names:
            started.append(names)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(se.StreamingExecutor, "execute", counting)
    return started
