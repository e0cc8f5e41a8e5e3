"""Per-stage Parquet checkpoints + manifest — the resume mechanism.

Mirrors the reference's Snakemake semantics (a rule is skipped when its
outputs exist, ``lasvdedup/Snakefile:15-126``): each pinned stage writes a
Parquet directory under ``checkpoint_dir`` atomically (write to a temp dir,
rename) and records completion, with its part files, in ``manifest.json``;
a re-run reads the completed stage instead of recomputing it, unless its
directory or a recorded file is gone (a missing output reruns its rule).

``pin`` returns the stage MATERIALIZED, so its consumers read its blocks by
ref and none of them re-runs a Ray Data execution: a cached stage is read
from Parquet once per job, and a stage computed in this job is written from
the object store and handed on from there, not read back.  Without a
checkpoint_dir the stage is only materialized.

Both Parquet edges of ``pin`` are raw Ray tasks, not Ray Data executions
(each of which costs ~100-150 ms of CPU however few rows it moves; see
``stages/exchange.py``): the write is one task per block of the stage,
each writing ``part-{block:05d}.parquet``, and the read is one task per
run of consecutive files (sorted by name), as many runs as ``read`` gives
blocks, each returning one block and its metadata.  So neither edge starts
a Ray Data executor, and a directory written by ``Dataset.write_parquet``
reads back the same way.  The write creates the stage directory even when
the stage has no rows, so an empty stage resumes as an empty stage.
``read`` stays a lazy Ray Data read for a caller that streams a stage once.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
from typing import Callable, Optional, Union

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..sources.readers import _strip_schema_meta, read_parquet_clean, size_derived_blocks
from ..stages.exchange import _arrow, _block_refs, _one_chunk, dataset_from_blocks


@ray.remote
def _write_part(block, path: str) -> None:
    """One block of a stage as one Parquet file."""
    pq.write_table(_arrow(block), path)


@ray.remote(num_returns=2)
def _read_parts(paths: list):
    """Consecutive Parquet files of a stage as one block (one chunk per
    column, schema metadata stripped) plus its ``BlockMetadataWithSchema``."""
    from ray.data.block import BlockExecStats, BlockMetadataWithSchema

    stats = BlockExecStats.builder()
    table = _one_chunk(
        pa.concat_tables([_strip_schema_meta(pq.read_table(p)) for p in paths])
    )
    return table, BlockMetadataWithSchema.from_block(table, stats=stats.build())


def write_blocks(ds: ray.data.Dataset, path: str) -> None:
    """One raw task per non-empty block of ``ds``, each writing
    ``part-{block:05d}.parquet`` into the directory ``path``, which is
    created even when there is none; no Ray Data executor starts on a
    ``ds`` with a computed snapshot."""
    os.makedirs(path, exist_ok=True)
    ray.get(
        [
            _write_part.remote(ref, os.path.join(path, f"part-{i:05d}.parquet"))
            for i, ref in enumerate(_block_refs(ds))
        ]
    )


class StageCheckpointer:
    def __init__(
        self,
        checkpoint_dir: Optional[str] = None,
        fingerprint: Optional[str] = None,
        force: bool = False,
    ):
        """``fingerprint`` identifies the (input, config) pair: a stage
        pinned under a different fingerprint is RECOMPUTED, not reused
        (ADVICE r1: name-only keys silently served stale stages after the
        input or thresholds changed — Snakemake, the stated model,
        invalidates on input change).  ``force`` (the reference's
        ``--force``/``forceall``, pipeline.py:26,74) ignores every
        completed manifest entry: all stages recompute and overwrite."""
        self.dir = checkpoint_dir
        self.fp = fingerprint
        self.force = force
        if self.dir:
            os.makedirs(self.dir, exist_ok=True)
        self._manifest_path = os.path.join(self.dir, "manifest.json") if self.dir else None

    def _manifest(self) -> dict:
        if self._manifest_path and os.path.exists(self._manifest_path):
            with open(self._manifest_path) as f:
                return json.load(f)
        return {}

    def _mark_done(self, name: str) -> None:
        """Record the stage as done, with the names of its part files."""
        m = self._manifest()
        files = [os.path.basename(f) for f in self._files(name)]
        m[name] = {"done": True, "fingerprint": self.fp, "files": files}
        tmp = f"{self._manifest_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(m, f)
        os.replace(tmp, self._manifest_path)  # atomic

    def _lost(self, name: str, entry: dict) -> bool:
        """The stage's directory, or a part file its entry lists, is gone
        (an entry without a file list predates the list and is trusted)."""
        if "files" not in entry:
            return False
        stage = os.path.join(self.dir, name)
        return not os.path.isdir(stage) or not all(
            os.path.exists(os.path.join(stage, f)) for f in entry["files"]
        )

    def status(self, name: str) -> str:
        """Dry-run probe: "cached" (reusable), "stale" (fingerprint
        mismatch -> recompute), "forced" (force re-run), or "missing" (never
        completed, or its files are gone: Snakemake reruns a rule whose
        output is missing)."""
        entry = self._manifest().get(name, {})
        if not entry.get("done") or self._lost(name, entry):
            return "missing"
        if self.force:
            return "forced"
        if self.fp is not None and entry.get("fingerprint") != self.fp:
            return "stale"
        return "cached"

    def is_done(self, name: str) -> bool:
        import logging

        status = self.status(name)
        entry = self._manifest().get(name, {})
        if status == "stale":
            logging.getLogger(__name__).warning(
                "checkpoint stage %r was pinned under fingerprint %s but the "
                "current run is %s (input or config changed): recomputing",
                name,
                entry.get("fingerprint"),
                self.fp,
            )
        elif status == "missing" and entry.get("done"):
            logging.getLogger(__name__).warning(
                "checkpoint stage %r is in the manifest but its directory or "
                "a part file is gone: recomputing",
                name,
            )
        return status == "cached"

    def _files(self, name: str) -> list:
        """The stage's Parquet files, sorted by name (write order)."""
        return sorted(glob.glob(os.path.join(self.dir, name, "*.parquet")))

    def _n_blocks(self, name: str, n_files: int) -> int:
        """Blocks a stage reads back as: at most one per Parquet file the
        write produced (fewer where the reader's size-derived count is
        lower), so a resume runs no wave on more blocks than the write."""
        return min(n_files, size_derived_blocks(os.path.join(self.dir, name)) or n_files)

    def read(self, name: str) -> ray.data.Dataset:
        """A completed stage as a lazy Parquet read, for a caller that
        consumes it once and streams it (``pin`` holds the whole stage in
        the object store).  A file is never split across blocks."""
        n_blocks = self._n_blocks(name, len(self._files(name)))
        return read_parquet_clean(
            os.path.join(self.dir, name), override_num_blocks=max(1, n_blocks)
        )

    def _load(self, name: str) -> ray.data.Dataset:
        """A completed stage read back into the object store by raw tasks:
        its files cut into ``_n_blocks`` runs of consecutive files, one
        task and one block per run."""
        files = self._files(name)
        if not files:
            return dataset_from_blocks([], [])
        runs = np.array_split(np.array(files, dtype=object), self._n_blocks(name, len(files)))
        out = [_read_parts.remote(list(run)) for run in runs]
        return dataset_from_blocks([b for b, _ in out], ray.get([m for _, m in out]))

    def pin(
        self,
        ds: Union[ray.data.Dataset, Callable[[], ray.data.Dataset]],
        name: str,
    ) -> ray.data.Dataset:
        """Execute a stage once; returns it as a materialized dataset.

        ``ds`` is the stage's dataset, or a zero-argument builder that
        returns it.  A builder is called only when the stage is not cached,
        so a stage whose construction already runs work (an eager hash
        exchange) costs nothing on a resume.

        checkpoint_dir set: materialize, write-then-rename Parquet +
        manifest entry, and return the materialized stage (no read-back);
        on resume, read the completed stage once (Snakemake-equivalent
        skip).  checkpoint_dir unset: materialize into the object store.
        Both Parquet edges are raw tasks (module docstring).
        """
        build = ds if callable(ds) else (lambda: ds)
        if not self.dir:
            return build().materialize()
        final = os.path.join(self.dir, name)
        if self.is_done(name):
            return self._load(name)
        stage = build().materialize()
        # per-process tmp suffix: two concurrent builders of the same stage
        # (e.g. two ingest jobs racing on a shared index) must not rmtree
        # each other's in-progress writes; each writes its own tmp and the
        # first atomic rename wins
        tmp = f"{final}.tmp.{os.getpid()}"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        write_blocks(stage, tmp)
        if os.path.exists(final):
            shutil.rmtree(final)
        try:
            os.replace(tmp, final)
        except OSError:
            # a concurrent builder completed between the rmtree and the
            # rename; its result is equivalent (same manifest fingerprint
            # gates this path) — keep it, drop ours
            shutil.rmtree(tmp, ignore_errors=True)
        self._mark_done(name)
        return stage
