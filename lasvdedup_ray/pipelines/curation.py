"""Training-data curation operators over the ``documents`` table.

These are the LLM-data-pipeline operations a web-scale curation run needs
beyond dedup/similarity: PII redaction, repetition (boilerplate) quality
metrics, deterministic stratified sampling, domain mixing weights and
fixed-token-budget sequence packing.  Every operator is a streaming Ray
Data plan over Arrow batches; each has a DuckDB SQL oracle in
``__ray_entry__.py`` built from the SAME regex / hash / budget constants
so the two sides cannot drift.

Reference parity note: the reference pipeline (Joon-Klaps/lasvdedup)
curates a biological corpus with threshold predicates and per-group
keep-best selection (``lasvdedup/utils/sequence_grouping.py``); these
operators are the text-corpus analogs of that curation layer, expressed
Ray-Data-first.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..functions.hashing import sha256_bytes, sha256_column, splitmix64
from ..functions.text import TOKEN_REGEX
from ..stages.exchange import worker_get
from .relational import quantize
from ..sources.readers import read_parquet_clean

# ---------------------------------------------------------------------------
# PII redaction.  RE2 patterns shared verbatim with the SQL oracle
# (pyarrow.compute and DuckDB both run RE2, so match semantics agree).
# Counts are taken on the ORIGINAL text; redaction is sequential
# email -> ipv4 -> phone.  DuckDB standard strings do not process
# backslashes, so the same pattern text drops into the SQL unchanged.
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_PHONE_RE = r"\b\d{3}[-. ]\d{3}[-. ]\d{4}\b"
PII_REPLACEMENTS = (
    (PII_EMAIL_RE, "<EMAIL>"),
    (PII_IPV4_RE, "<IP>"),
    (PII_PHONE_RE, "<PHONE>"),
)


def pii_redact_docs(sf_dir: str) -> ray.data.Dataset:
    """Count and redact emails / IPv4 addresses / phone numbers per
    document.  One RE2 pass per pattern for the counts, one per pattern
    for the substitution — all vectorized; the redacted text never leaves
    the batch (only its sha256 does), so content does not ride a shuffle."""
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def redact(t: pa.Table) -> pa.Table:
        text = t["text"]
        counts = {
            "n_emails": pc.cast(pc.count_substring_regex(text, PII_EMAIL_RE), pa.int64()),
            "n_ips": pc.cast(pc.count_substring_regex(text, PII_IPV4_RE), pa.int64()),
            "n_phones": pc.cast(pc.count_substring_regex(text, PII_PHONE_RE), pa.int64()),
        }
        red = text
        for pat, repl in PII_REPLACEMENTS:
            red = pc.replace_substring_regex(red, pat, repl)
        sha = [
            d.hex() for d in sha256_column(red)
        ]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                **counts,
                "n_chars_redacted": pc.cast(pc.utf8_length(red), pa.int64()),
                "redacted_sha": pa.array(sha, pa.string()),
            }
        )

    return ds.map_batches(redact, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# Repetition (Gopher-style) quality metrics.


def repetition_stats_docs(sf_dir: str) -> ray.data.Dataset:
    """Per-document duplicate-line repetition metrics (the Gopher
    repetition filters' line family): fraction of lines that are
    duplicates of another line, fraction of line characters inside
    duplicate occurrences, and fraction of tokens that repeat an earlier
    token.  Fully vectorized: split -> flatten with parent indices ->
    64-bit hashes -> lexsort first-occurrence scan -> bincount per doc.
    No Python loop over rows, lines or tokens."""
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def _uniq_per_doc(flat: pa.Array, parent: np.ndarray, ndoc: int):
        """(#values, #distinct values, total chars, distinct chars) per doc."""
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        h = pd.util.hash_array(np.asarray(flat, dtype=object))
        order = np.lexsort((h, parent))
        ps, hs, ls = parent[order], h[order], lens[order]
        first = np.ones(len(ps), dtype=bool)
        if len(ps) > 1:
            first[1:] = (ps[1:] != ps[:-1]) | (hs[1:] != hs[:-1])
        n_all = np.bincount(parent, minlength=ndoc).astype(np.int64)
        n_uniq = np.bincount(ps[first], minlength=ndoc).astype(np.int64)
        tot_chars = np.bincount(parent, weights=lens, minlength=ndoc).astype(np.int64)
        uniq_chars = np.bincount(ps[first], weights=ls[first], minlength=ndoc).astype(np.int64)
        return n_all, n_uniq, tot_chars, uniq_chars

    def stats(t: pa.Table) -> pa.Table:
        ndoc = len(t)
        lines = pc.split_pattern(t["text"], "\n")
        n_lines, n_uline, lchars, ulchars = _uniq_per_doc(
            pc.list_flatten(lines),
            pc.list_parent_indices(lines).to_numpy(zero_copy_only=False),
            ndoc,
        )
        # tokens = TOKEN_REGEX matches == split on the complement class,
        # dropping boundary empties (same token stream as the SQL oracle's
        # regexp_extract_all(text, TOKEN_RE))
        toks = pc.split_pattern_regex(t["text"], "[^A-Za-z0-9_]+")
        tflat = pc.list_flatten(toks)
        tparent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        nonempty = pc.greater(pc.utf8_length(tflat), 0)
        tflat = pc.array_filter(tflat, nonempty)
        tparent = tparent[nonempty.to_numpy(zero_copy_only=False)]
        n_tok, n_utok, _, _ = _uniq_per_doc(tflat, tparent, ndoc)
        out = pa.table(
            {
                "doc_id": t["doc_id"],
                "n_lines": pa.array(n_lines, pa.int64()),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "dup_line_frac": pa.array(
                    (n_lines - n_uline) / np.maximum(n_lines, 1), pa.float64()
                ),
                "dup_char_frac": pa.array(
                    (lchars - ulchars) / np.maximum(lchars, 1), pa.float64()
                ),
                "dup_token_frac": pa.array(
                    (n_tok - n_utok) / np.maximum(n_tok, 1), pa.float64()
                ),
            }
        )
        return quantize(
            out,
            ["dup_line_frac", "dup_char_frac", "dup_token_frac"],
            scale=1_000_000,
            suffix="_e6",
        )

    return ds.map_batches(stats, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# Deterministic stratified sampling.  Rates are keep-percentages per
# language; the keep decision is splitmix64(doc_id) % 100 < rate, so any
# engine (and any rerun, at any parallelism) selects the same rows.
SAMPLE_RATES = {"en": 25, "de": 50, "fr": 50, "es": 50, "it": 50}
SAMPLE_DEFAULT_RATE = 100


def hash_sample_stratified(sf_dir: str) -> ray.data.Dataset:
    """Seeded hash-based downsampling stratified by language (downweight
    the dominant languages, keep the tail).  Embarrassingly parallel: the
    keep mask is a pure function of (doc_id, lang) — no shuffle, no RNG
    state, resumable by construction."""
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def sample(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = (splitmix64(ids) % np.uint64(100)).astype(np.int64)
        rates = np.array(
            [SAMPLE_RATES.get(lg, SAMPLE_DEFAULT_RATE) for lg in t["lang"].to_pylist()],
            dtype=np.int64,
        )
        keep = bucket < rates
        return pa.table(
            {
                "doc_id": pc.array_filter(t["doc_id"], pa.array(keep)),
                "lang": pc.array_filter(t["lang"], pa.array(keep)),
            }
        )

    return ds.map_batches(sample, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# Domain mixing weights.
MIX_WEIGHT_ALPHA = 0.5  # temperature exponent: weight ∝ tokens^alpha


def domain_mix_weights(sf_dir: str):
    """Per-source mixing weights for training-corpus composition:
    ``weight ∝ total_tokens^0.5`` (temperature sampling, normalized).
    The per-batch partial aggregate collapses each batch to one row per
    source BEFORE the groupby, so the shuffle moves O(sources) rows per
    block, not O(rows).  The normalization runs on the driver over the
    final per-source table (a handful of rows).  The alpha power is
    computed as ``floor(sqrt(tokens) * 1000)`` so both engines divide the
    same exact integers (no float ulp drift across engines)."""
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.count_substring_regex(t["text"], TOKEN_REGEX)
        df = pd.DataFrame(
            {
                "source": t["source"].to_pylist(),
                "tok": toks.to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        g = df.groupby("source", sort=False).agg(
            n_docs=("tok", "size"), total_tokens=("tok", "sum")
        )
        return pa.table(
            {
                "source": pa.array(g.index, pa.string()),
                "n_docs": pa.array(g["n_docs"].to_numpy(), pa.int64()),
                "total_tokens": pa.array(g["total_tokens"].to_numpy(), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_tokens", alias_name="total_tokens"),
        )
    )
    small = agg.sort("source").take_all()  # O(distinct sources) rows only
    src = [r["source"] for r in small]
    n_docs = np.array([r["n_docs"] for r in small], dtype=np.int64)
    toks = np.array([r["total_tokens"] for r in small], dtype=np.int64)
    s = np.floor(np.sqrt(toks.astype(np.float64)) * 1000.0).astype(np.int64)
    denom = int(s.sum()) if len(s) else 1
    w = np.floor(s.astype(np.float64) * 1_000_000.0 / denom + 0.5).astype(np.int64)
    return pa.table(
        {
            "source": pa.array(src, pa.string()),
            "n_docs": pa.array(n_docs, pa.int64()),
            "total_tokens": pa.array(toks, pa.int64()),
            "weight_e6": pa.array(w, pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Sequence packing.
PACK_TOKEN_BUDGET = 2048  # tokens per packed training sequence
PACK_CHUNK = 4096  # docs per scan chunk (dense doc_id assumption documented)


def pack_sequences(sf_dir: str) -> ray.data.Dataset:
    """Pack documents (in doc_id order) into contiguous fixed-token-budget
    training sequences: ``seq_id = running_token_start // BUDGET``.  This
    is a distributed ordered prefix-sum (scan): chunk partial sums ->
    driver prefix over O(n_docs / PACK_CHUNK) chunk rows -> broadcast
    offsets -> per-chunk vectorized cumsum.  Content is projected away
    after tokenization, so only (doc_id, tok) ride the shuffle."""
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def tokenize(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], TOKEN_REGEX), pa.int64())
        chunk = pc.divide(t["doc_id"], pa.scalar(PACK_CHUNK, pa.int64()))
        return pa.table({"doc_id": t["doc_id"], "tok": toks, "chunk": chunk})

    # slim (doc_id, tok, chunk) — materialized once so the two passes below
    # don't re-tokenize; 24 bytes/doc, safe to pin even at 1e10 docs.
    slim = ds.map_batches(tokenize, batch_format="pyarrow").materialize()

    chunk_rows = (
        slim.groupby("chunk")
        .aggregate(Sum("tok", alias_name="chunk_tok"))
        .sort("chunk")
        .take_all()  # O(n_docs / PACK_CHUNK) rows on the driver
    )
    n_chunks = (max(r["chunk"] for r in chunk_rows) + 1) if chunk_rows else 0
    sums = np.zeros(n_chunks, dtype=np.int64)
    for r in chunk_rows:
        sums[r["chunk"]] = r["chunk_tok"]
    offsets = np.concatenate(([0], np.cumsum(sums)[:-1])) if n_chunks else sums
    offsets_ref = ray.put(offsets)

    def assign(g: pa.Table) -> pa.Table:
        # emit PER-SEQUENCE partials, not per-doc rows: within a chunk the
        # seq ids are a sorted run, so a run-length reduce collapses the
        # chunk to O(chunk_tokens / BUDGET) rows before the merge shuffle
        off = ray.get(offsets_ref)
        doc = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tok = g["tok"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(doc, kind="stable")
        doc, tok = doc[order], tok[order]
        start = int(off[int(g["chunk"][0].as_py())]) + np.cumsum(tok) - tok
        seq = start // PACK_TOKEN_BUDGET
        starts = np.ones(len(seq), dtype=bool)
        starts[1:] = seq[1:] != seq[:-1]
        idx = np.flatnonzero(starts)
        ends = np.append(idx[1:], len(seq))
        csum = np.concatenate(([0], np.cumsum(tok)))
        return pa.table(
            {
                "seq_id": pa.array(seq[idx], pa.int64()),
                "n_docs": pa.array(ends - idx, pa.int64()),
                "sum_tokens": pa.array(csum[ends] - csum[idx], pa.int64()),
                "first_doc": pa.array(doc[idx], pa.int64()),
                "last_doc": pa.array(doc[ends - 1], pa.int64()),
            }
        )

    partials = slim.groupby("chunk").map_groups(assign, batch_format="pyarrow")
    # merge shuffle over O(n_sequences) partial rows (boundary sequences
    # split across two chunks contribute two partials)
    return (
        partials.groupby("seq_id")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_tokens", alias_name="sum_tokens"),
            Min("first_doc", alias_name="first_doc"),
            Max("last_doc", alias_name="last_doc"),
        )
        .sort("seq_id")
    )


# ---------------------------------------------------------------------------
# Model-based quality scoring.  A fixed logistic model over the quality
# signals — the execution shape of batched model inference: the "model"
# (weight vector) is loaded ONCE per actor in __init__, batches stream
# through __call__ as numpy matmuls.  With a real learned model only
# __init__ changes.  z is accumulated left-to-right so the SQL oracle's
# ((b + t1) + t2) + ... float evaluation order is reproduced exactly.
QC_WEIGHTS = (
    ("bias", -2.0),
    ("alpha_ratio", 4.0),
    ("digit_ratio", -3.0),
    ("punct_ratio", 1.5),
    ("ws_ratio", -1.0),
    ("log_tokens", 0.35),
)
QC_KEEP_THRESHOLD = 0.5


class QualityClassifier:
    """Stateful map_batches callable (actor pool): weights in __init__,
    vectorized scoring per batch in __call__."""

    def __init__(self):
        from ..functions.text import quality_metrics

        self._metrics = quality_metrics
        self._w = dict(QC_WEIGHTS)

    def __call__(self, t: pa.Table) -> pa.Table:
        m = self._metrics(t["text"])
        w = self._w
        feats = {
            "alpha_ratio": m["alpha_ratio"].to_numpy(zero_copy_only=False),
            "digit_ratio": m["digit_ratio"].to_numpy(zero_copy_only=False),
            "punct_ratio": m["punct_ratio"].to_numpy(zero_copy_only=False),
            "ws_ratio": m["ws_ratio"].to_numpy(zero_copy_only=False),
            "log_tokens": np.log(
                1.0 + m["n_tokens"].to_numpy(zero_copy_only=False).astype(np.float64)
            ),
        }
        z = np.full(len(t), w["bias"], dtype=np.float64)
        for name, _ in QC_WEIGHTS[1:]:
            z = z + w[name] * feats[name]
        score = 1.0 / (1.0 + np.exp(-z))
        out = pa.table(
            {
                "doc_id": t["doc_id"],
                "quality_score": pa.array(score, pa.float64()),
                "keep": pa.array(
                    (score >= QC_KEEP_THRESHOLD).astype(np.int64), pa.int64()
                ),
            }
        )
        return quantize(out, ["quality_score"], scale=1_000_000, suffix="_e6")


def quality_classifier_docs(sf_dir: str) -> ray.data.Dataset:
    """Batched logistic quality scoring via an actor pool (model load once
    per actor, vectorized inference per batch)."""
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(
        QualityClassifier,
        batch_format="pyarrow",
        batch_size=2048,
        concurrency=(1, 8),
    ).sort("doc_id")


# ---------------------------------------------------------------------------
# Deterministic shuffle-shard export: the final stage of a training-data
# pipeline.  Every (rerun, parallelism, cluster size) produces the SAME
# shard assignment and within-shard order, because both are pure functions
# of doc_id — no random_shuffle all-to-all, no RNG state.  At 100 TB this
# is one slim hash shuffle of (doc_id, hkey) rows; shard directories are
# the resumable output unit.
SHUFFLE_SEED = 0x5EED_C0FFEE  # pre-mix additive seed (mirrored in the SQL oracle)
SHUFFLE_SHARDS = 16


def shuffle_export_docs(
    sf_dir: str, n_shards: int = SHUFFLE_SHARDS
) -> ray.data.Dataset:
    """(doc_id, shard, pos): deterministic seeded global shuffle of the
    corpus into ``n_shards`` shards — shard = splitmix64(doc_id + seed) %
    n_shards, pos = 1-based rank within the shard by (hkey, doc_id)."""
    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def keyed(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = splitmix64(ids + np.uint64(SHUFFLE_SEED))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "shard": pa.array((h % np.uint64(n_shards)).astype(np.int64), pa.int64()),
                "hkey": pa.array(h, pa.uint64()),
            }
        )

    OUT = pa.schema(
        [("doc_id", pa.int64()), ("shard", pa.int64()), ("pos", pa.int64())]
    )

    def positions(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "hkey" not in g.column_names:
            return OUT.empty_table()
        h = g["hkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        d = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((d, h))
        pos = np.empty(len(h), dtype=np.int64)
        pos[order] = np.arange(1, len(h) + 1)
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "shard": g["shard"],
                "pos": pa.array(pos, pa.int64()),
            },
            schema=OUT,
        )

    return (
        ds.map_batches(keyed, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(positions, batch_format="pyarrow")
        .sort(["shard", "pos"])
    )


def shuffle_export_write(sf_dir: str, out_dir: str, n_shards: int = SHUFFLE_SHARDS) -> None:
    """Write the shuffled corpus as shard-partitioned Parquet (one
    directory per shard — the resumable unit; a failed run skips finished
    shard dirs).  Joins the shuffle order back to the full rows by doc_id."""
    order = shuffle_export_docs(sf_dir, n_shards)
    full = read_parquet_clean(f"{sf_dir}/documents.parquet")
    from .relational import _join_partitions

    joined = order.join(
        full, join_type="inner", num_partitions=_join_partitions(), on=("doc_id",)
    )
    joined.write_parquet(out_dir, partition_cols=["shard"])


# ---------------------------------------------------------------------------
# DSIR importance weights (Data Selection via Importance Resampling,
# arXiv:2302.03169): score every document by the log-likelihood ratio of a
# hashed-n-gram multinomial fit on a TARGET slice vs the RAW corpus.  The
# feature space is FIXED at DSIR_BUCKETS hashed buckets, so the learned
# model is O(m) regardless of corpus size — the stats reduce and the
# broadcast are scale-safe by construction (unlike a vocabulary model).
#
# Features = unigrams + bigrams of lower(text).split(' ') (the bm25/vocab
# tokenization), hashed with the engine's rolling-polynomial + splitmix64
# chain (functions/hashing.py) mod m.  Per-bucket log-ratios are quantized
# to int64 e6 ONCE, and each document's weight is the INTEGER sum of its
# features' quantized scores — order-independent on both engines (the
# repo's quantize-before-sum convention), so the SQL oracle hash-matches.
DSIR_BUCKETS = 1024
DSIR_ALPHA = 1.0  # add-one smoothing per hashed bucket
DSIR_TARGET_LANG = "en"


def _hashed_token_stream(t: pa.Table):
    """Shared DSIR/LM prologue — one flatten + one length-grouped poly-hash
    pass, no Python loop over tokens.  Returns

        (uni_raw, parent, big_raw, left_idx)

    where ``uni_raw`` is the raw polynomial hash of every token of
    lower(text).split(' '), ``parent`` its doc index, ``big_raw`` the raw
    hash of every in-doc adjacent bigram "w1 w2" (via the concat identity
    H(w1+' ') = H(w1)*MULT + 32 — pair strings never materialize), and
    ``left_idx`` each bigram's left-token index into ``uni_raw``."""
    from ..functions.hashing import _POLY_MULT, poly_concat, token_poly_hashes

    low = pc.utf8_lower(t["text"])
    if isinstance(low, pa.ChunkedArray):
        low = low.combine_chunks()
    toks = pc.split_pattern(low, " ")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    raw = token_poly_hashes(flat)
    clen = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(raw) > 1:
        same = parent[:-1] == parent[1:]
        left_idx = np.nonzero(same)[0]
        left = raw[left_idx] * _POLY_MULT + np.uint64(32)
        big = poly_concat(left, raw[left_idx + 1], clen[left_idx + 1])
    else:
        big = np.zeros(0, np.uint64)
        left_idx = np.zeros(0, np.int64)
    return raw, parent, big, left_idx


def _dsir_features(t: pa.Table):
    """(bucket ids, parent doc indices) of all unigram+bigram features of a
    batch."""
    from ..functions.hashing import splitmix64

    raw, parent, big, left_idx = _hashed_token_stream(t)
    buckets = (
        np.concatenate([splitmix64(raw.copy()), splitmix64(big)])
        % np.uint64(DSIR_BUCKETS)
    ).astype(np.int64)
    return buckets, np.concatenate([parent, parent[left_idx]])


def dsir_weights(sf_dir: str) -> ray.data.Dataset:
    """Two-pass DSIR: (1) per-batch partial bucket counts (combiner rows
    <= m per block) -> one tiny grouped-sum exchange -> O(m) driver fold ->
    broadcast of the m int64 quantized log-ratios; (2) scoring scan whose
    per-doc weight is a bincount integer sum.  Documents are read twice —
    DSIR is inherently two-pass — but content never crosses a shuffle."""
    from ..stages.exchange import grouped_sum_exchange

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    m = DSIR_BUCKETS

    def partials(t: pa.Table) -> pa.Table:
        buckets, parent = _dsir_features(t)
        # NULL lang is not the target (SQL: NULL = 'x' is not true)
        tgt_doc = (
            pc.equal(t["lang"], DSIR_TARGET_LANG).fill_null(False).to_numpy(zero_copy_only=False)
        )
        cr = np.bincount(buckets, minlength=m)
        ct = np.bincount(buckets[tgt_doc[parent]], minlength=m)
        nz = np.nonzero(cr)[0]
        return pa.table(
            {
                "b": pa.array(nz, pa.int64()),
                "ct": pa.array(ct[nz], pa.int64()),
                "cr": pa.array(cr[nz], pa.int64()),
            }
        )

    stats = grouped_sum_exchange(
        ds.map_batches(partials, batch_format="pyarrow"),
        keys=["b"],
        sum_cols=["ct", "cr"],
        num_partitions=4,
        empty_schema=pa.schema(
            [("b", pa.int64()), ("ct", pa.int64()), ("cr", pa.int64())]
        ),
    ).take_all()  # <= m rows at ANY corpus scale
    ct = np.zeros(m, np.float64)
    cr = np.zeros(m, np.float64)
    for r in stats:
        ct[r["b"]] = r["ct"]
        cr[r["b"]] = r["cr"]
    nt, nr = ct.sum(), cr.sum()
    mfl = float(m)
    # identical left-to-right float expression as the SQL oracle
    lr = np.log(ct + DSIR_ALPHA) - np.log(nt + mfl) - np.log(cr + DSIR_ALPHA) + np.log(nr + mfl)
    from ..functions.hashing import quantize_half_away

    lr_e6 = quantize_half_away(lr, 1e6)
    ref = ray.put(lr_e6)

    def score(t: pa.Table) -> pa.Table:
        lrv = worker_get(ref, "dsir_weights.logratio")
        buckets, parent = _dsir_features(t)
        nd = len(t)
        # int64 scores as float64 bincount weights: |sum| < 2^53, exact
        w = np.bincount(parent, weights=lrv[buckets].astype(np.float64), minlength=nd)
        nf = np.bincount(parent, minlength=nd)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_feats": pa.array(nf.astype(np.int64), pa.int64()),
                "dsir_logratio_e6": pa.array(w.astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# Hashed bigram-LM quality scoring (the CCNet perplexity-filter shape,
# arXiv:1911.00359): fit a bigram language model on the target-language
# slice, score EVERY document by its total bigram log-probability.  Like
# DSIR above, contexts and bigrams live in a FIXED m-bucket hashed space,
# so the model is O(m) and the broadcast scale-safe; each bucket's two log
# terms (ln(c_pair + 1) and ln(c_ctx + m)) are e6-quantized once, and a
# document's score is the integer sum of (q_pair - q_ctx) over its bigrams
# — order-independent, hash-exact vs the SQL oracle.
LM_BUCKETS = 1024
LM_TRAIN_LANG = "en"


def _lm_buckets(t: pa.Table):
    """Per-batch (ctx_bucket, pair_bucket, parent doc index) for every
    adjacent token pair, plus (uni_bucket, parent) for every token —
    the training statistics and scoring features of the hashed bigram LM."""
    from ..functions.hashing import splitmix64

    raw, parent, big, left_idx = _hashed_token_stream(t)
    uni_b = (splitmix64(raw.copy()) % np.uint64(LM_BUCKETS)).astype(np.int64)
    pair_b = (splitmix64(big) % np.uint64(LM_BUCKETS)).astype(np.int64)
    return uni_b, parent, uni_b[left_idx], pair_b, parent[left_idx]


def lm_perplexity_docs(sf_dir: str) -> ray.data.Dataset:
    """Two-pass hashed bigram LM: (1) training-slice bucket counts via
    per-batch combiners + one tiny grouped-sum exchange (O(m) driver fold,
    m-sized broadcast); (2) scoring scan — per-doc integer bincount sum of
    quantized bigram log-probs.  Content never crosses a shuffle."""
    from ..stages.exchange import grouped_sum_exchange

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    m = LM_BUCKETS

    def partials(t: pa.Table) -> pa.Table:
        uni_b, parent, ctx_b, pair_b, bparent = _lm_buckets(t)
        # NULL lang is not training text (SQL: NULL = 'x' is not true)
        train = pc.equal(t["lang"], LM_TRAIN_LANG).fill_null(False).to_numpy(zero_copy_only=False)
        c_ctx = np.bincount(uni_b[train[parent]], minlength=m)
        c_pair = np.bincount(pair_b[train[bparent]], minlength=m)
        nz = np.nonzero(c_ctx + c_pair)[0]
        return pa.table(
            {
                "b": pa.array(nz, pa.int64()),
                "c_ctx": pa.array(c_ctx[nz], pa.int64()),
                "c_pair": pa.array(c_pair[nz], pa.int64()),
            }
        )

    stats = grouped_sum_exchange(
        ds.map_batches(partials, batch_format="pyarrow"),
        keys=["b"],
        sum_cols=["c_ctx", "c_pair"],
        num_partitions=4,
        empty_schema=pa.schema(
            [("b", pa.int64()), ("c_ctx", pa.int64()), ("c_pair", pa.int64())]
        ),
    ).take_all()  # <= m rows at ANY corpus scale
    c_ctx = np.zeros(m, np.float64)
    c_pair = np.zeros(m, np.float64)
    for r in stats:
        c_ctx[r["b"]] = r["c_ctx"]
        c_pair[r["b"]] = r["c_pair"]

    from ..functions.hashing import quantize_half_away

    # p(w|v) = (c_pair[b(v w)] + 1) / (c_ctx[b(v)] + m): the two log terms,
    # quantized separately so scores are integer sums (SQL mirrors both)
    q_pair = quantize_half_away(np.log(c_pair + 1.0), 1e6)
    q_ctx = quantize_half_away(np.log(c_ctx + float(m)), 1e6)
    ref = ray.put((q_pair, q_ctx))

    def score(t: pa.Table) -> pa.Table:
        qp, qc = worker_get(ref, "lm_perplexity_docs.model")
        _, _, ctx_b, pair_b, bparent = _lm_buckets(t)
        nd = len(t)
        vals = (qp[pair_b] - qc[ctx_b]).astype(np.float64)  # |sum| < 2^53
        s = np.bincount(bparent, weights=vals, minlength=nd)
        nb = np.bincount(bparent, minlength=nd)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_bigrams": pa.array(nb.astype(np.int64), pa.int64()),
                "lm_logprob_e6": pa.array(s.astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow").sort("doc_id")
