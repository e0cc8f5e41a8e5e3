"""Checkpoint/resume: per-stage Parquet + manifest (Snakemake-equivalent
skip semantics, SURVEY §4)."""

import json
import os

import pyarrow as pa
import pytest
import ray.data

from lasvdedup_ray.config import PipelineConfig
from lasvdedup_ray.pipelines.dedup import dedup_pipeline
from lasvdedup_ray.sources.corpus import CorpusSpec, generate_corpus
from lasvdedup_ray.stages import exact
from lasvdedup_ray.state.checkpoint import StageCheckpointer


def test_pin_writes_and_reuses(tmp_path):
    ck = StageCheckpointer(str(tmp_path))
    t = pa.table({"x": [1, 2, 3]})
    out1 = ck.pin(ray.data.from_arrow(t), "stage_a").to_pandas()
    assert ck.is_done("stage_a")
    assert os.path.isdir(tmp_path / "stage_a")
    # second pin with DIFFERENT data must return the checkpointed result
    # (resume-skip semantics, like Snakemake's outputs-exist rule skip)
    t2 = pa.table({"x": [9, 9, 9, 9]})
    out2 = ck.pin(ray.data.from_arrow(t2), "stage_a").to_pandas()
    assert sorted(out2["x"]) == sorted(out1["x"])


def test_manifest_atomic(tmp_path):
    ck = StageCheckpointer(str(tmp_path))
    ck.pin(ray.data.from_arrow(pa.table({"x": [1]})), "s1")
    ck.pin(ray.data.from_arrow(pa.table({"x": [2]})), "s2")
    m = json.load(open(tmp_path / "manifest.json"))
    assert m["s1"]["done"] and m["s2"]["done"]


def test_pipeline_resume_identical(tmp_path):
    corpus, _ = generate_corpus(CorpusSpec(n_files=120, seed=9))
    cfg = PipelineConfig(checkpoint_dir=str(tmp_path / "ckpt"))
    a = (
        dedup_pipeline(ray.data.from_arrow(corpus), cfg, num_partitions=4)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    # resume: stages are read back from parquet, result identical
    b = (
        dedup_pipeline(ray.data.from_arrow(corpus), cfg, num_partitions=4)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    for col in ["id", "cluster_id", "classification", "decision_category", "rank"]:
        assert (a[col] == b[col]).all(), col
    manifest = json.load(open(tmp_path / "ckpt" / "manifest.json"))
    assert manifest.get("signed", {}).get("done")


def test_fingerprint_invalidates_on_change(tmp_path):
    """ADVICE r1: a checkpoint pinned under a different (input, config)
    fingerprint must be recomputed, not silently reused."""
    t1 = pa.table({"x": [1, 2, 3]})
    ck1 = StageCheckpointer(str(tmp_path), fingerprint="aaa")
    out1 = ck1.pin(ray.data.from_arrow(t1), "stage").to_pandas()
    assert sorted(out1["x"]) == [1, 2, 3]
    # same fingerprint -> reuse (different data ignored)
    out2 = StageCheckpointer(str(tmp_path), fingerprint="aaa").pin(
        ray.data.from_arrow(pa.table({"x": [9]})), "stage"
    ).to_pandas()
    assert sorted(out2["x"]) == [1, 2, 3]
    # different fingerprint -> recompute
    out3 = StageCheckpointer(str(tmp_path), fingerprint="bbb").pin(
        ray.data.from_arrow(pa.table({"x": [7, 8]})), "stage"
    ).to_pandas()
    assert sorted(out3["x"]) == [7, 8]


def test_pipeline_fingerprint_recomputes_on_new_input(tmp_path):
    """Reusing a checkpoint_dir with different input data must yield the
    NEW input's results (round-1 bug: stale 'signed' parquet returned)."""
    corpus1, _ = generate_corpus(CorpusSpec(n_files=60, seed=1))
    corpus2, _ = generate_corpus(CorpusSpec(n_files=80, seed=2))
    cfg = PipelineConfig(checkpoint_dir=str(tmp_path / "ck"))
    a = dedup_pipeline(ray.data.from_arrow(corpus1), cfg, num_partitions=4).count()
    b = dedup_pipeline(ray.data.from_arrow(corpus2), cfg, num_partitions=4).count()
    assert a == corpus1.num_rows
    assert b == corpus2.num_rows  # not the stale corpus1 stages


def test_in_memory_input_of_same_shape_recomputes(tmp_path, monkeypatch):
    """Two in-memory tables with the same row count and columns but
    different content share a checkpoint dir: the second job recomputes
    ``signed`` (an in-memory input has no files, so its fingerprint digests
    its rows) and returns what a fresh run of its own input returns; a
    third job over the same table resumes."""
    from lasvdedup_ray.pipelines import dedup

    first, _ = generate_corpus(CorpusSpec(n_files=60, seed=1))
    second, _ = generate_corpus(CorpusSpec(n_files=60, seed=2))
    assert first.num_rows == second.num_rows and first.schema == second.schema
    assert not first.equals(second)
    signs = []
    real = dedup.add_signatures
    monkeypatch.setattr(dedup, "add_signatures", lambda *a, **k: signs.append(1) or real(*a, **k))

    def run(table, config):
        out = dedup_pipeline(ray.data.from_arrow(table), config, num_partitions=4).to_pandas()
        return out[["id", "cluster_id", "classification"]].sort_values("id").reset_index(drop=True)

    cfg = PipelineConfig(checkpoint_dir=str(tmp_path / "ck"))
    run(first, cfg)
    resumed = run(second, cfg)
    assert len(signs) == 2
    assert resumed.equals(run(second, PipelineConfig()))
    signs.clear()
    assert run(second, cfg).equals(resumed) and signs == []


def test_force_recomputes_pinned_stage(tmp_path):
    """--force (reference pipeline.py:26,74): a completed checkpoint is
    ignored and overwritten instead of reused."""
    ck = StageCheckpointer(str(tmp_path))
    ck.pin(ray.data.from_arrow(pa.table({"x": [1, 2, 3]})), "stage_a")
    forced = StageCheckpointer(str(tmp_path), force=True)
    assert not forced.is_done("stage_a")
    assert forced.status("stage_a") == "forced"
    out = forced.pin(ray.data.from_arrow(pa.table({"x": [9, 9]})), "stage_a").to_pandas()
    assert sorted(out["x"]) == [9, 9]  # recomputed, not the cached [1,2,3]
    # and the overwrite is durable: a fresh non-force checkpointer reads it
    again = StageCheckpointer(str(tmp_path)).pin(
        ray.data.from_arrow(pa.table({"x": [0]})), "stage_a"
    ).to_pandas()
    assert sorted(again["x"]) == [9, 9]


def test_plan_stages_dry_run(tmp_path, monkeypatch):
    """Dry-run plan: stage list + per-stage checkpoint status, nothing
    executed (reference run_pipeline dry_run, pipeline.py:9-83)."""
    from lasvdedup_ray.pipelines.dedup import plan_stages

    corpus, _ = generate_corpus(CorpusSpec(n_files=60, seed=3))
    # exact._DRIVER_ROWS=0: the sha collapse goes through the exchange and
    # pins ``reps`` (below the gate it runs on the driver, unpinned)
    monkeypatch.setattr(exact, "_DRIVER_ROWS", 0)
    cfg = PipelineConfig(checkpoint_dir=str(tmp_path / "ck"))
    plan = plan_stages(ray.data.from_arrow(corpus), cfg)
    stages = [p["stage"] for p in plan]
    assert stages == ["signed", "reps", "candidates", "verify", "cluster", "classify"]
    assert all(p["checkpoint"] == "missing" for p in plan[:2])
    # nothing was executed or written by the dry run
    assert not os.path.exists(tmp_path / "ck" / "manifest.json")
    # after a real run the plan reports the pinned stages as cached
    dedup_pipeline(ray.data.from_arrow(corpus), cfg, num_partitions=4).count()
    plan2 = plan_stages(ray.data.from_arrow(corpus), cfg)
    assert all(p["checkpoint"] == "cached" for p in plan2[:2])


def test_resume_recomputes_after_input_file_edited_in_place(tmp_path):
    """An input file rewritten in place with the same row count changes its
    size/mtime, hence the fingerprint: the resume recomputes ``signed``
    instead of serving the old content's stage."""
    import hashlib

    import pyarrow.parquet as pq

    from lasvdedup_ray.sources.corpus import write_corpus
    from lasvdedup_ray.sources.readers import read_parquet_clean

    write_corpus(str(tmp_path / "corpus"), CorpusSpec(n_files=80, seed=4))
    files = sorted(str(p) for p in (tmp_path / "corpus").glob("part-*.parquet"))
    cfg = PipelineConfig(checkpoint_dir=str(tmp_path / "ck"))

    def run():
        res = dedup_pipeline(read_parquet_clean(files), cfg, num_partitions=4)
        return res.to_pandas().set_index("id")

    run()
    manifest = tmp_path / "ck" / "manifest.json"
    fp_before = json.load(open(manifest))["signed"]["fingerprint"]

    t = pq.read_table(files[0])
    new_content = "edited in place: " + t["content"][0].as_py()
    content = pa.array([new_content] + t["content"].to_pylist()[1:], t.schema.field("content").type)
    pq.write_table(t.set_column(t.schema.get_field_index("content"), "content", content), files[0])
    edited_id = f"{t['repo'][0]}:{t['path'][0]}@{t['commit'][0]}"

    out = run()
    assert json.load(open(manifest))["signed"]["fingerprint"] != fp_before
    assert out.loc[edited_id, "sha256"] == hashlib.sha256(new_content.encode()).digest()
    assert len(out) == 80


def test_pin_reads_stage_written_by_ray_data(tmp_path):
    """A stage directory written by ``Dataset.write_parquet`` (Ray Data's
    file names, as earlier versions pinned stages) reads back through
    ``pin`` with the same rows in the same order, without a Ray Data
    execution."""
    tables = [pa.table({"x": list(range(i * 10, i * 10 + 10)), "s": ["a"] * 10}) for i in range(3)]
    ray.data.from_arrow(tables).write_parquet(str(tmp_path / "stage"))
    ck = StageCheckpointer(str(tmp_path))
    ck._mark_done("stage")
    out = ck.pin(ray.data.from_arrow(pa.table({"x": [-1], "s": ["z"]})), "stage")
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert got.equals(pa.concat_tables(tables))


def test_empty_input_writes_and_resumes(tmp_path):
    """A zero-row input pins an empty ``signed`` stage (its directory
    exists), and the resume reads it back: both runs return 0 rows."""
    import pyarrow.parquet as pq

    from lasvdedup_ray.sources.corpus import SOURCE_SCHEMA
    from lasvdedup_ray.sources.readers import read_parquet_clean

    src = str(tmp_path / "empty.parquet")
    pq.write_table(SOURCE_SCHEMA.empty_table(), src)
    cfg = PipelineConfig(checkpoint_dir=str(tmp_path / "ck"))
    for _ in range(2):
        assert dedup_pipeline(read_parquet_clean([src]), cfg, num_partitions=4).count() == 0
        assert os.path.isdir(tmp_path / "ck" / "signed")


@pytest.mark.parametrize("stage", ["signed", "reps"])
def test_resume_recomputes_deleted_stage(tmp_path, stage, monkeypatch):
    """A stage whose directory is gone between a write and a resume is
    recomputed, not read back as an empty stage: the dry-run plan reports
    it ``missing`` and the resume returns the write's result."""
    import shutil

    from lasvdedup_ray.pipelines.dedup import plan_stages

    corpus, _ = generate_corpus(CorpusSpec(n_files=120, seed=5))
    # exact._DRIVER_ROWS=0 pins ``reps`` (the sha exchange collapse)
    monkeypatch.setattr(exact, "_DRIVER_ROWS", 0)
    cfg = PipelineConfig(checkpoint_dir=str(tmp_path / "ck"))

    def run():
        out = dedup_pipeline(ray.data.from_arrow(corpus), cfg, num_partitions=4)
        return out.to_pandas().sort_values("id").reset_index(drop=True)

    written = run()
    shutil.rmtree(tmp_path / "ck" / stage)
    plan = {p["stage"]: p["checkpoint"] for p in plan_stages(ray.data.from_arrow(corpus), cfg)}
    assert plan[stage] == "missing"
    resumed = run()
    assert len(resumed) == corpus.num_rows
    for col in ["id", "cluster_id", "classification"]:
        assert (resumed[col] == written[col]).all(), col
    plan = {p["stage"]: p["checkpoint"] for p in plan_stages(ray.data.from_arrow(corpus), cfg)}
    assert plan[stage] == "cached"


def test_deleted_part_file_recomputes_and_old_entries_trusted(tmp_path):
    """A listed part file that is gone makes the stage ``missing``; a
    manifest entry without a file list (written before the list existed)
    keeps being read as it is."""
    ck = StageCheckpointer(str(tmp_path))
    ck.pin(ray.data.from_arrow([pa.table({"x": [1, 2]}), pa.table({"x": [3]})]), "s")
    parts = sorted((tmp_path / "s").glob("*.parquet"))
    assert json.load(open(tmp_path / "manifest.json"))["s"]["files"] == [p.name for p in parts]
    parts[0].unlink()
    assert ck.status("s") == "missing" and not ck.is_done("s")
    out = ck.pin(ray.data.from_arrow(pa.table({"x": [7]})), "s").to_pandas()
    assert sorted(out["x"]) == [7]
    assert ck.status("s") == "cached"
    m = json.load(open(tmp_path / "manifest.json"))
    del m["s"]["files"]
    json.dump(m, open(tmp_path / "manifest.json", "w"))
    assert ck.status("s") == "cached"
