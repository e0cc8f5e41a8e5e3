"""Outside-in per-layer trace of the flagship dedup pipeline.

The tracer wraps the public entry function of each layer, looked up by
module and name, and times every call as a span.  Nothing inside
``lasvdedup_ray`` changes: the wrappers are installed for one traced run and
removed after it.  A wrapped layer's output is materialized inside its span,
so the work it deferred is charged to it rather than to whichever layer
first consumes the lazy dataset.

- An entry a later version of the package no longer has (for example
  ``exact_collapse_driver``) is listed in ``absent`` and its layer reports
  zeros; the run goes on.
- Spans carry their parent, and a layer's self time excludes its child
  spans, so a ``hash_exchange`` called from classify is charged to the
  exchange layer, not twice.  The exchange span includes the reduce
  function its caller passes in (for classify, the decision tree), because
  that function runs inside the exchange's reduce tasks.
- ``hash_exchange`` gets its input materialized before its span opens, so
  upstream map work stays with the calling layer.
- The signing output is pinned by ``StageCheckpointer.pin``; on a resumed
  run the pin reads the stage back and the signing never runs.  The
  signing output is therefore materialized (under the signatures layer) by
  the pin wrapper, and only when the pin is about to compute it.
- Every figure is a total over the traced iteration: one job, or on the
  checkpointed workload a write job and its resume.  ``exchange.skew`` is
  the largest max/median rows per live partition over the exchange calls.
- Counters are computed between spans from already-materialized blocks.
  That bookkeeping time is subtracted from the span it happens in and from
  the traced total, and is part of ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

PACKAGE = "lasvdedup_ray"

# (layer, module, qualified name, hook).  The hook is the Tracer method that
# builds the wrapper and decides what the wrapper counts.
ENTRIES = [
    ("sources", "lasvdedup_ray.sources.readers", "read_parquet_clean", "_hook_sources"),
    ("signatures", "lasvdedup_ray.stages.prepare", "prepare", "_hook_sign"),
    ("signatures", "lasvdedup_ray.stages.signatures", "add_signatures", "_hook_sign"),
    ("exact", "lasvdedup_ray.stages.exact", "exact_collapse_driver", "_hook_exact_driver"),
    ("exact", "lasvdedup_ray.stages.exact", "exact_collapse", "_hook_exact_exchange"),
    ("lsh", "lasvdedup_ray.stages.lsh", "candidate_pairs", "_hook_lsh"),
    ("lsh", "lasvdedup_ray.stages.lsh", "_derive_hot_sets", "_hook_hot_sets"),
    ("verify", "lasvdedup_ray.stages.verify", "verify_pairs", "_hook_verify"),
    ("unionfind", "lasvdedup_ray.state.unionfind", "assign_clusters", "_hook_unionfind"),
    ("unionfind", "lasvdedup_ray.state.unionfind", "components_distributed", "_hook_uf_distributed"),
    ("classify", "lasvdedup_ray.stages.classify", "classify_clusters", "_hook_classify"),
    ("exchange", "lasvdedup_ray.stages.exchange", "hash_exchange", "_hook_exchange"),
    ("checkpoint", "lasvdedup_ray.state.checkpoint", "StageCheckpointer.pin", "_hook_pin"),
]

ROOT_LAYER = "run"


def _resolve(module: str, qualname: str):
    """(owner, attribute, function) or None when the entry does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None)
    return None if fn is None else (owner, parts[-1], fn)


def _blocks(ds):
    import ray

    return [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]


def _column_mb(ds, column: str) -> float:
    return sum(t[column].nbytes for t in _blocks(ds) if column in t.column_names) / 1e6


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


class Tracer:
    """Spans and counters of one traced run; ``install`` patches the layer
    entries, ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self.absent: list = []
        self.notes: list = []
        self.bookkeeping_s = 0.0
        self._stack: list = []
        self._patches: list = []
        self._deferred: dict = {}

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        for layer, module, qualname, hook in ENTRIES:
            target = _resolve(module, qualname)
            if target is None:
                self.absent.append(f"{module}.{qualname}")
                continue
            owner, attr, fn = target
            wrapper = functools.wraps(fn)(getattr(self, hook)(layer, fn))
            sites = [(owner, attr)]
            if inspect.ismodule(owner):
                # `from .x import f` bound f in other modules too
                for name, mod in list(sys.modules.items()):
                    if mod is None or not name.startswith(PACKAGE) or mod is owner:
                        continue
                    sites += [(mod, k) for k, v in list(vars(mod).items()) if v is fn]
            for site, name in sites:
                self._patches.append((site, name, fn))
                setattr(site, name, wrapper)

    def uninstall(self) -> None:
        for site, name, fn in reversed(self._patches):
            setattr(site, name, fn)
        self._patches.clear()

    # -- spans ------------------------------------------------------------
    @contextmanager
    def span(self, layer: str, name: str, parent=None, kind: str = ""):
        if parent is None and self._stack:
            parent = self._stack[-1]
        rec = {
            "layer": layer,
            "name": name,
            "kind": kind,
            "parent": parent,
            "start": time.perf_counter(),
            "end": None,
            "bookkeeping": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """Root span of one pipeline run."""
        try:
            with self.span(ROOT_LAYER, name):
                yield
        finally:
            self._deferred.clear()

    @contextmanager
    def bookkeeping(self):
        """Counter work: excluded from self times and from the traced total.
        A counter that cannot be computed (say, a later output format) is
        recorded in ``notes`` instead of failing the run."""
        t0 = time.perf_counter()
        try:
            yield
        except Exception:
            self.notes.append(traceback.format_exc(limit=2))
        finally:
            dt = time.perf_counter() - t0
            self.bookkeeping_s += dt
            if self._stack:
                self.spans[self._stack[-1]]["bookkeeping"] += dt

    def _add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _max(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    # -- hooks ------------------------------------------------------------
    def _hook_sources(self, layer, fn):
        def wrapper(*args, **kwargs):
            if not self._stack or self.spans[self._stack[-1]]["layer"] != ROOT_LAYER:
                # a layer reading its own files (a checkpoint stage) keeps the time
                return fn(*args, **kwargs)
            with self.span(layer, fn.__name__):
                out = fn(*args, **kwargs).materialize()
                with self.bookkeeping():
                    self._add("sources.rows", out.count())
                    self._add("sources.content_mb", _column_mb(out, "content"))
            return out

        return wrapper

    def _hook_sign(self, layer, fn):
        # lazy output; materialized by the pin wrapper when the pin computes it
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            with self.span(layer, fn.__name__):
                out = fn(*args, **kwargs)
            self._deferred[id(out)] = (out, layer, fn.__name__, parent)
            return out

        return wrapper

    def _settle(self, ds):
        entry = self._deferred.pop(id(ds), None)
        if entry is None:
            return ds
        _, layer, name, parent = entry
        with self.span(layer, f"{name}:materialize", parent=parent):
            ds = ds.materialize()
            with self.bookkeeping():
                self._add("sign.content_mb", _column_mb(ds, "content"))
        return ds

    def _hook_exact_driver(self, layer, fn):
        def wrapper(*args, **kwargs):
            with self.span(layer, fn.__name__):
                rep_ids, edges = fn(*args, **kwargs)
            with self.bookkeeping():
                self._add("exact.reps", len(rep_ids))
                self._add("exact.edges", edges.num_rows)
            return rep_ids, edges

        return wrapper

    def _hook_exact_exchange(self, layer, fn):
        def wrapper(*args, **kwargs):
            import pyarrow.compute as pc

            with self.span(layer, fn.__name__):
                out = fn(*args, **kwargs).materialize()
                with self.bookkeeping():
                    self._max("exact.via_exchange", 1)
                    for t in _blocks(out):
                        self._add("exact.reps", pc.sum(pc.equal(t["kind"], 0)).as_py() or 0)
                        self._add("exact.edges", pc.sum(pc.equal(t["kind"], 1)).as_py() or 0)
            return out

        return wrapper

    def _hook_lsh(self, layer, fn):
        def wrapper(*args, **kwargs):
            with self.span(layer, fn.__name__):
                out = fn(*args, **kwargs).materialize()
                with self.bookkeeping():
                    self._add("lsh.candidates", out.count())
            return out

        return wrapper

    def _hook_hot_sets(self, layer, fn):
        # a counter only: its time is part of the enclosing candidate_pairs
        # span.  Inputs above LSHConfig.hot_driver_cap find their capped
        # buckets inside a hash_exchange instead, and are not counted.
        def wrapper(*args, **kwargs):
            hot, capped = fn(*args, **kwargs)
            with self.bookkeeping():
                self._add("lsh.capped_buckets", len(capped))
            return hot, capped

        return wrapper

    def _hook_verify(self, layer, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            import pyarrow.compute as pc

            with self.span(layer, fn.__name__):
                out = fn(*args, **kwargs).materialize()
                with self.bookkeeping():
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    pairs, lsh_cfg = bound.arguments["pairs"], bound.arguments["lsh_cfg"]
                    if lsh_cfg is None:
                        from lasvdedup_ray.config import LSHConfig

                        lsh_cfg = LSHConfig()
                    self._add("verify.edges", out.count())
                    self._add("verify.candidates_in", pairs.count())
                    if lsh_cfg.exact_verify:
                        low = bound.arguments["tau"] - lsh_cfg.exact_margin_low
                        for t in _blocks(pairs):
                            n = pc.sum(pc.greater(t["est_distance"], low)).as_py()
                            self._add("verify.border_pairs", n or 0)
            return out

        return wrapper

    def _hook_unionfind(self, layer, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            import pyarrow as pa
            import pyarrow.compute as pc

            bound = sig.bind(*args, **kwargs)
            with self.span(layer, fn.__name__):
                edges = bound.arguments["edges"].materialize()
                bound.arguments["edges"] = edges
                out = fn(*bound.args, **bound.kwargs).materialize()
                with self.bookkeeping():
                    self._add("unionfind.edges_in", edges.count())
                    ids = [t["cluster_id"] for t in _blocks(out)]
                    if ids:
                        self._add(
                            "unionfind.clusters",
                            pc.count_distinct(pa.chunked_array(ids)).as_py(),
                        )
            return out

        return wrapper

    def _hook_uf_distributed(self, layer, fn):
        # a flag only: its time is part of the enclosing assign_clusters span
        def wrapper(*args, **kwargs):
            self._max("unionfind.distributed", 1)
            return fn(*args, **kwargs)

        return wrapper

    def _hook_classify(self, layer, fn):
        def wrapper(*args, **kwargs):
            with self.span(layer, fn.__name__):
                out = fn(*args, **kwargs).materialize()
                with self.bookkeeping():
                    for t in _blocks(out):
                        for row in t["classification"].value_counts().to_pylist():
                            self._add(f"classify.{row['values']}", row["counts"])
            return out

        return wrapper

    def _hook_exchange(self, layer, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            import numpy as np

            bound = sig.bind(*args, **kwargs)
            src = bound.arguments["ds"].materialize()  # the caller's work
            bound.arguments["ds"] = src
            with self.bookkeeping():
                key, n_parts = bound.arguments["pkey_col"], bound.arguments["num_partitions"]
                rows = np.zeros(n_parts, dtype=np.int64)
                for t in _blocks(src):
                    pk = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
                    rows += np.bincount(pk, minlength=n_parts)[:n_parts]
                live = rows[rows > 0]
                self._add("exchange.calls", 1)
                self._add("exchange.rows", int(rows.sum()))
                if len(live):
                    self._max("exchange.skew", float(live.max() / statistics.median(live.tolist())))
            with self.span(layer, fn.__name__):
                out = fn(*bound.args, **bound.kwargs).materialize()
            return out

        return wrapper

    def _hook_pin(self, layer, fn):
        def wrapper(ck, ds, name, *args, **kwargs):
            ckdir = getattr(ck, "dir", None)
            reading = bool(ckdir) and ck.is_done(name)
            if not reading:
                ds = self._settle(ds)
            kind = "read" if reading else ("write" if ckdir else "memory")
            with self.span(layer, f"{fn.__name__}:{name}", kind=kind):
                out = fn(ck, ds, name, *args, **kwargs).materialize()
                if kind == "write":
                    with self.bookkeeping():
                        self._add("checkpoint.bytes_written", _dir_bytes(os.path.join(ckdir, name)))
            return out

        return wrapper

    # -- summary ----------------------------------------------------------
    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [
            s["end"] - s["start"] - child[i] - s["bookkeeping"]
            for i, s in enumerate(self.spans)
        ]

    def summary(self, untraced_s: float) -> dict:
        """Per-layer metrics over every op traced, given the untraced wall
        time of the same ops."""
        selfs = self.self_times()
        by_layer: dict = {}
        for s, t in zip(self.spans, selfs):
            key = (s["layer"], s["kind"]) if s["layer"] == "checkpoint" else s["layer"]
            by_layer[key] = by_layer.get(key, 0.0) + t
        wall = sum(s["end"] - s["start"] for s in self.spans if s["layer"] == ROOT_LAYER)
        program = wall - self.bookkeeping_s
        layered = sum(t for s, t in zip(self.spans, selfs) if s["layer"] != ROOT_LAYER)
        c = self.counts
        sign_s = by_layer.get("signatures", 0.0)
        return {
            "sources.read_s": by_layer.get("sources", 0.0),
            "sources.rows": c.get("sources.rows", 0),
            "sources.content_mb": c.get("sources.content_mb", 0.0),
            "sign.s": sign_s,
            "sign.mb_per_s": c.get("sign.content_mb", 0.0) / sign_s if sign_s else 0.0,
            "exact.s": by_layer.get("exact", 0.0),
            "exact.reps": c.get("exact.reps", 0),
            "exact.edges": c.get("exact.edges", 0),
            "exact.via_exchange": c.get("exact.via_exchange", 0),
            "lsh.s": by_layer.get("lsh", 0.0),
            "lsh.candidates": c.get("lsh.candidates", 0),
            "lsh.capped_buckets": c.get("lsh.capped_buckets", 0),
            "verify.s": by_layer.get("verify", 0.0),
            "verify.border_pairs": c.get("verify.border_pairs", 0),
            "verify.edges": c.get("verify.edges", 0),
            "verify.yield": (
                c["verify.edges"] / c["verify.candidates_in"]
                if c.get("verify.candidates_in")
                else 0.0
            ),
            "unionfind.s": by_layer.get("unionfind", 0.0),
            "unionfind.edges_in": c.get("unionfind.edges_in", 0),
            "unionfind.clusters": c.get("unionfind.clusters", 0),
            "unionfind.distributed": c.get("unionfind.distributed", 0),
            "classify.s": by_layer.get("classify", 0.0),
            "classify.keep": c.get("classify.keep", 0),
            "classify.duplicate": c.get("classify.duplicate", 0),
            "classify.distinct": c.get("classify.distinct", 0),
            "exchange.calls": c.get("exchange.calls", 0),
            "exchange.rows": c.get("exchange.rows", 0),
            "exchange.s": by_layer.get("exchange", 0.0),
            "exchange.skew": c.get("exchange.skew", 0.0),
            "checkpoint.write_s": by_layer.get(("checkpoint", "write"), 0.0),
            "checkpoint.read_s": by_layer.get(("checkpoint", "read"), 0.0),
            "checkpoint.bytes_written": c.get("checkpoint.bytes_written", 0),
            "trace.overhead_frac": wall / untraced_s - 1.0,
            "trace.coverage": layered / program if program > 0 else 0.0,
        }
