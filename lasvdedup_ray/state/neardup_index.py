"""Persistent n-gram shingle index for INCREMENTAL near-dup probes.

``incremental_neardup_docs`` answers "which incoming docs near-match the
corpus" by rebuilding the whole pair pipeline per call.  At ingest scale
the corpus side is fixed across batches, so a 100 TB pipeline builds the
corpus index ONCE and probes each incoming batch against it.  This module
is that operational shape:

- ``NearDupIndex.build(docs)`` shingles the corpus (the same 64-bit
  k-codepoint shingle hashes as ``ngram_jaccard_pairs``), drops
  boilerplate buckets whose document frequency exceeds ``df_cap``, and
  persists two partitioned-Parquet stages through ``StageCheckpointer``
  (write-then-rename + manifest): ``postings`` (bucket, shingle, doc_id)
  and ``sizes`` (doc_id, kept set size).  A second ``build`` under the
  same fingerprint is a manifest hit — the scan is SKIPPED entirely.
- ``NearDupIndex.probe(batch)`` shingles only the incoming batch, hash-
  co-partitions it with the persisted postings on the shingle bucket (one
  slim exchange of int64 rows; neither side's text moves), counts
  intersections per (incoming, index) pair inside each partition, and
  emits incoming docs whose Jaccard vs some index doc clears the
  threshold.

Probe semantics (mirrored verbatim by the SQL oracle in
``__ray_entry__._incremental_index_sql``): the df cap is evaluated over
the INDEX corpus only (incoming shingles are probes, never capped);
``|B|`` is the index doc's KEPT shingle count, ``|A|`` is the incoming
doc's full distinct shingle count; jaccard = inter / (|A| + |B| - inter).

Scale notes: postings are bucketed by ``shingle % n_buckets`` so a probe
shuffles both sides on the SAME key — on a cluster the index partitions
are re-read per batch but never rebuilt; per-pair intersection counts are
pre-aggregated inside the partition before the tiny (pair -> count)
groupby; the per-index-doc size table joins in distributed (no driver
dict) below a broadcast gate identical to ``ngram_jaccard_pairs``'s.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count

from .checkpoint import StageCheckpointer

# shared shingling constants/helpers — the index MUST shingle identically
# to the one-shot pair pipeline or probes would drift from the oracle
from ..pipelines.textops import (
    NGRAM_DF_CAP,
    NGRAM_PARTITIONS,
    NGRAM_SIZE_BCAST_CAP,
    SHINGLE_K,
    _doc_shingles,
)

# Incoming batches at or below this many shingle rows broadcast as two
# sorted int64/uint64 vectors (~16 B/row -> <=32 MB in the object store)
# so the probe streams over the postings with ZERO index-side shuffle;
# above it, both sides co-partition on the persisted bucket key.
PROBE_BCAST_CAP = 2_000_000


class NearDupIndex:
    def __init__(
        self,
        index_dir: str,
        k: int = SHINGLE_K,
        n_buckets: int = NGRAM_PARTITIONS,
        df_cap: int = NGRAM_DF_CAP,
        corpus_fingerprint: Optional[str] = None,
    ):
        """``corpus_fingerprint`` names the corpus snapshot the index was
        built from (e.g. a path + row count); building under a changed
        fingerprint recomputes instead of silently serving a stale index
        (the checkpoint machinery's Snakemake invalidation rule)."""
        self.k = k
        self.n_buckets = n_buckets
        self.df_cap = df_cap
        fp = f"k={k}|buckets={n_buckets}|df_cap={df_cap}|corpus={corpus_fingerprint}"
        self._ck = StageCheckpointer(index_dir, fingerprint=fp)

    # ---- build ----------------------------------------------------------

    def is_built(self) -> bool:
        return self._ck.is_done("postings") and self._ck.is_done("sizes")

    def build(self, docs: ray.data.Dataset) -> bool:
        """Persist the corpus index; returns True if it actually scanned
        the corpus, False on a manifest hit (the skip path a second ingest
        batch takes)."""
        if self.is_built():
            return False
        k, n_buckets, df_cap = self.k, self.n_buckets, self.df_cap

        def shingle(t: pa.Table) -> pa.Table:
            s = _doc_shingles(t, k)
            h = s["shingle"].to_numpy(zero_copy_only=False).astype(np.uint64)
            bucket = (h % np.uint64(n_buckets)).astype(np.int32)
            return s.append_column("bucket", pa.array(bucket, pa.int32()))

        POST_SCHEMA = pa.schema(
            [
                ("doc_id", pa.int64()),
                ("shingle", pa.uint64()),
                ("bucket", pa.int32()),
            ]
        )

        def drop_overcap(g: pa.Table) -> pa.Table:
            # every posting of a shingle lands in ONE bucket, so the
            # per-bucket run length IS the global document frequency —
            # the boilerplate cap applies with no extra exchange
            if g.num_rows == 0:
                return POST_SCHEMA.empty_table()
            sh = g["shingle"].to_numpy(zero_copy_only=False).astype(np.uint64)
            order = np.argsort(sh, kind="stable")
            sh_s = sh[order]
            boundary = np.ones(len(sh_s), dtype=bool)
            boundary[1:] = sh_s[1:] != sh_s[:-1]
            run_sizes = np.diff(
                np.append(np.flatnonzero(boundary), len(sh_s))
            )
            keep = np.repeat(run_sizes <= df_cap, run_sizes)
            sel = order[keep]
            return pa.table(
                {
                    "doc_id": g["doc_id"].take(pa.array(sel)),
                    "shingle": g["shingle"].take(pa.array(sel)),
                    "bucket": g["bucket"].take(pa.array(sel)),
                },
                schema=POST_SCHEMA,
            )

        postings = (
            docs.map_batches(shingle, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(drop_overcap, batch_format="pyarrow")
        )
        postings = self._ck.pin(postings, "postings")
        sizes = postings.groupby("doc_id").aggregate(
            Count(alias_name="set_size")
        )
        self._ck.pin(sizes, "sizes")
        return True

    # ---- probe ----------------------------------------------------------

    def probe(
        self, batch: ray.data.Dataset, threshold: float = 0.5
    ) -> ray.data.Dataset:
        """(doc_id, n_partners) for incoming docs whose n-gram Jaccard vs
        at least one index doc clears ``threshold``.  Only the incoming
        batch is shingled; the persisted postings are read, never rebuilt."""
        if not self.is_built():
            raise ValueError("NearDupIndex.probe before build (or stale index)")
        k, n_buckets = self.k, self.n_buckets
        # each read once, streamed: the index side is never held whole
        postings = self._ck.read("postings")
        sizes = self._ck.read("sizes")

        def shingle_in(t: pa.Table) -> pa.Table:
            s = _doc_shingles(t, k)
            h = s["shingle"].to_numpy(zero_copy_only=False).astype(np.uint64)
            bucket = (h % np.uint64(n_buckets)).astype(np.int32)
            return pa.table(
                {
                    "in_id": s["doc_id"],
                    "shingle": s["shingle"],
                    "bucket": pa.array(bucket, pa.int32()),
                }
            )

        incoming = batch.map_batches(
            shingle_in, batch_format="pyarrow"
        ).materialize()  # consumed twice (|A| sizes + join); slim int rows

        # |A|: incoming per-doc distinct shingle counts (uncapped —
        # incoming shingles are probes, the df cap is an index property).
        # One driver pass over the already-materialized slim rows — no
        # extra Ray execution; O(batch docs), an ingest batch not the corpus
        sid_parts, cnt_parts = [], []
        probe_sh_parts, probe_id_parts = [], []
        n_in_rows = 0
        for b in incoming.iter_batches(batch_size=1 << 16, batch_format="pyarrow"):
            if b.num_rows:
                ids_b = b["in_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                u, c = np.unique(ids_b, return_counts=True)
                sid_parts.append(u)
                cnt_parts.append(c.astype(np.int64))
                n_in_rows += b.num_rows
                if n_in_rows <= PROBE_BCAST_CAP:
                    probe_sh_parts.append(
                        b["shingle"].to_numpy(zero_copy_only=False).astype(np.uint64)
                    )
                    probe_id_parts.append(ids_b)
        if sid_parts:
            sid_all = np.concatenate(sid_parts)
            cnt_all = np.concatenate(cnt_parts)
            in_ids_w, inv = np.unique(sid_all, return_inverse=True)
            in_sz_w = np.bincount(inv, weights=cnt_all.astype(np.float64)).astype(
                np.int64
            )
        else:
            in_ids_w = np.empty(0, np.int64)
            in_sz_w = np.empty(0, np.int64)
        in_ref = ray.put((in_ids_w, in_sz_w))

        # co-locate postings + probes per shingle; count equal-shingle hits
        # per (in_id, doc_id) pair inside the partition (pre-aggregation)
        PAIR_SCHEMA = pa.schema(
            [("in_id", pa.int64()), ("doc_id", pa.int64()), ("inter", pa.int64())]
        )

        def intersect(g: pa.Table) -> pa.Table:
            # one partition = many whole shingle buckets of BOTH sides;
            # rows tagged by origin: index rows have in_id == -1
            if g.num_rows == 0:
                return PAIR_SCHEMA.empty_table()
            sh = g["shingle"].to_numpy(zero_copy_only=False).astype(np.uint64)
            iid = g["in_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            did = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.argsort(sh, kind="stable")
            sh, iid, did = sh[order], iid[order], did[order]
            boundary = np.ones(len(sh), dtype=bool)
            boundary[1:] = sh[1:] != sh[:-1]
            starts = np.flatnonzero(boundary)
            sizes_run = np.diff(np.append(starts, len(sh)))
            # visit only runs containing BOTH a probe and an index row
            is_probe = (iid >= 0).astype(np.int64)
            run_id = np.cumsum(boundary) - 1
            n_probe = np.bincount(run_id, weights=is_probe).astype(np.int64)
            mixed = (n_probe > 0) & (n_probe < sizes_run)
            pair_a, pair_b = [], []
            for s0, sz in zip(starts[mixed], sizes_run[mixed]):
                seg_in = iid[s0 : s0 + sz]
                seg_doc = did[s0 : s0 + sz]
                probes = seg_in[seg_in >= 0]
                idx_docs = seg_doc[seg_in < 0]
                pair_a.append(np.repeat(probes, idx_docs.size))
                pair_b.append(np.tile(idx_docs, probes.size))
            if not pair_a:
                return PAIR_SCHEMA.empty_table()
            ab = np.stack(
                [np.concatenate(pair_a), np.concatenate(pair_b)], axis=1
            )
            rec = ab.view([("a", np.int64), ("b", np.int64)]).ravel()
            uniq, counts = np.unique(rec, return_counts=True)
            return pa.table(
                {
                    "in_id": pa.array(uniq["a"], pa.int64()),
                    "doc_id": pa.array(uniq["b"], pa.int64()),
                    "inter": pa.array(counts.astype(np.int64), pa.int64()),
                },
                schema=PAIR_SCHEMA,
            )

        if n_in_rows <= PROBE_BCAST_CAP:
            # the operational fast path: the incoming batch's shingles
            # broadcast ONCE (two sorted int64/uint64 vectors) and the
            # INDEX SIDE NEVER SHUFFLES — each postings partition streams
            # through a vectorized searchsorted probe, emitting only
            # pre-aggregated (in_id, doc_id, inter) partials
            sh_all = (
                np.concatenate(probe_sh_parts)
                if probe_sh_parts
                else np.empty(0, np.uint64)
            )
            id_all = (
                np.concatenate(probe_id_parts)
                if probe_id_parts
                else np.empty(0, np.int64)
            )
            order = np.argsort(sh_all, kind="stable")
            probe_ref = ray.put((sh_all[order], id_all[order]))

            def hit_partials(t: pa.Table) -> pa.Table:
                if t.num_rows == 0:
                    return PAIR_SCHEMA.empty_table()
                sh_w, id_w = ray.get(probe_ref)
                sh = t["shingle"].to_numpy(zero_copy_only=False).astype(np.uint64)
                doc = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                lo = np.searchsorted(sh_w, sh, "left")
                hi = np.searchsorted(sh_w, sh, "right")
                cnt = hi - lo
                m = cnt > 0
                if not m.any():
                    return PAIR_SCHEMA.empty_table()
                cm, lom, docm = cnt[m], lo[m], doc[m]
                total = int(cm.sum())
                rep = np.repeat(np.arange(len(cm)), cm)
                within = np.arange(total) - np.repeat(np.cumsum(cm) - cm, cm)
                ab = np.stack([id_w[lom[rep] + within], docm[rep]], axis=1)
                rec = ab.view([("a", np.int64), ("b", np.int64)]).ravel()
                uniq, counts = np.unique(rec, return_counts=True)
                return pa.table(
                    {
                        "in_id": pa.array(uniq["a"], pa.int64()),
                        "doc_id": pa.array(uniq["b"], pa.int64()),
                        "inter": pa.array(counts.astype(np.int64), pa.int64()),
                    },
                    schema=PAIR_SCHEMA,
                )

            pair_partials = postings.map_batches(
                hit_partials, batch_format="pyarrow"
            )
        else:
            # huge incoming batch: co-partition both sides on the shingle
            # bucket (the index's on-disk partitioning key) and intersect
            # within the partition
            tagged_index = postings.map_batches(
                lambda t: pa.table(
                    {
                        "in_id": pa.array(
                            np.full(t.num_rows, -1, np.int64), pa.int64()
                        ),
                        "shingle": t["shingle"],
                        "bucket": t["bucket"],
                        "doc_id": t["doc_id"],
                    }
                ),
                batch_format="pyarrow",
            )
            tagged_in = incoming.map_batches(
                lambda t: pa.table(
                    {
                        "in_id": t["in_id"],
                        "shingle": t["shingle"],
                        "bucket": t["bucket"],
                        "doc_id": pa.array(
                            np.full(t.num_rows, -1, np.int64), pa.int64()
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
            pair_partials = (
                tagged_index.union(tagged_in)
                .groupby("bucket")
                .map_groups(
                    lambda t: intersect(t.drop_columns(["bucket"])),
                    batch_format="pyarrow",
                )
            )

        # ONE more exchange keyed by the incoming doc finishes everything:
        # all partials of an in_id co-locate, so merging the per-bucket
        # pair counts, the jaccard test AND the partner count happen in a
        # single vectorized pass — no separate pair-aggregate + doc-count
        # shuffles (each Ray all-to-all costs seconds of fixed overhead)
        OUT = pa.schema([("doc_id", pa.int64()), ("n_partners", pa.int64())])

        def add_ppk(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "in_id" not in t.column_names:
                return pa.table(
                    {
                        "in_id": pa.array([], pa.int64()),
                        "doc_id": pa.array([], pa.int64()),
                        "inter": pa.array([], pa.int64()),
                        "sz_b": pa.array([], pa.int64()),
                        "ppk": pa.array([], pa.int32()),
                    }
                )
            ids = t["in_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            if "sz_b" not in t.column_names:
                t = t.append_column(
                    "sz_b", pa.array(np.full(t.num_rows, -1, np.int64), pa.int64())
                )
            return t.append_column(
                "ppk",
                pa.array((ids % n_buckets).astype(np.int32), pa.int32()),
            )

        def finish(g: pa.Table, idx_ref) -> pa.Table:
            if g.num_rows == 0 or "inter" not in g.column_names:
                return OUT.empty_table()
            a_ids, a_sz = ray.get(in_ref)
            ai = g["in_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            bi = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            v = g["inter"].to_numpy(zero_copy_only=False).astype(np.int64)
            rec = (
                np.stack([ai, bi], axis=1)
                .view([("a", np.int64), ("b", np.int64)])
                .ravel()
            )
            uniq, inv = np.unique(rec, return_inverse=True)
            inter_sum = np.bincount(inv, weights=v.astype(np.float64)).astype(
                np.int64
            )
            ua, ub = uniq["a"], uniq["b"]
            sz_a = a_sz[np.searchsorted(a_ids, ua)].astype(np.float64)
            if idx_ref is not None:  # broadcast |B| lookup
                b_ids, b_sz = ray.get(idx_ref)
                sz_b = b_sz[np.searchsorted(b_ids, ub)].astype(np.float64)
            else:  # |B| rode the join as a sz_b column (constant per pair)
                szb_rows = g["sz_b"].to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
                sz_b_u = np.zeros(len(uniq), np.int64)
                sz_b_u[inv] = szb_rows
                sz_b = sz_b_u.astype(np.float64)
            jac = inter_sum / (sz_a + sz_b - inter_sum)
            du, dc = np.unique(ua[jac >= threshold], return_counts=True)
            return pa.table(
                {
                    "doc_id": pa.array(du, pa.int64()),
                    "n_partners": pa.array(dc.astype(np.int64), pa.int64()),
                },
                schema=OUT,
            )

        # |B| (index kept sizes): broadcast two-int64-vector lookup below
        # the gate (count() is parquet metadata only), distributed join
        # above it — no O(corpus) driver structure on the scale path
        if sizes.count() <= NGRAM_SIZE_BCAST_CAP:
            sz_t = sizes.take_all()
            idx_ids_w = np.array(sorted(r["doc_id"] for r in sz_t), np.int64)
            by = {r["doc_id"]: r["set_size"] for r in sz_t}
            idx_sz_w = np.array([by[i] for i in idx_ids_w], np.int64)
            idx_ref = ray.put((idx_ids_w, idx_sz_w))
            keyed = pair_partials.map_batches(add_ppk, batch_format="pyarrow")
        else:
            from ..pipelines.relational import _join_partitions

            idx_ref = None
            keyed = pair_partials.join(
                sizes.rename_columns({"doc_id": "bid", "set_size": "sz_b"}),
                join_type="inner",
                left_on=("doc_id",),
                right_on=("bid",),
                num_partitions=_join_partitions(),
            ).map_batches(add_ppk, batch_format="pyarrow")

        def norm(t: pa.Table) -> pa.Table:
            # map_groups tasks that received zero groups emit schemaless
            # empty blocks; pin every block to OUT so the downstream sort
            # sees one schema (no mixed-RefBundle warnings / re-inference)
            return OUT.empty_table() if t.num_rows == 0 else t.cast(OUT)

        from ..stages.exchange import hash_exchange

        return (
            hash_exchange(
                keyed,
                "ppk",
                n_buckets,
                lambda t: finish(t.drop_columns(["ppk"]), idx_ref),
                empty_schema=OUT,
            )
            .map_batches(norm, batch_format="pyarrow")
            .sort("doc_id")
        )


def corpus_fingerprint_of(path: str, n_rows: int) -> str:
    """Stable corpus snapshot id for the index fingerprint.

    Folds file size + mtime into the hash: a regenerated corpus at the
    same path with the same row count (the common case — fixed per-SF
    sizing) must NOT serve a stale index from the shared cache dir.
    """
    stat_sig = []
    try:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                for f in sorted(files):
                    st = os.stat(os.path.join(root, f))
                    stat_sig.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
        else:
            st = os.stat(path)
            stat_sig.append(f"{st.st_size}:{st.st_mtime_ns}")
    except OSError:
        pass  # unstatable (remote FS): fall back to path|n_rows only
    payload = f"{path}|{n_rows}|{';'.join(stat_sig)}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
