"""Text normalization + analysis kernels (numpy / pyarrow vectorized).

Normalization here is the analog of the reference's gap-stripping before
shingle-comparison (``lasvdedup/utils/io_utils.py:139`` strips ``-`` before
writing; our normalization feeds *shingling only* — stored content stays
byte-identical so the sha256 invariant holds).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import U64, shingle_hashes, splitmix64

# word-ish tokens: identifiers/numbers — the cheap whitespace-ish tokenizer
TOKEN_REGEX = r"[A-Za-z0-9_]+"
_TOKEN_RE = re.compile(TOKEN_REGEX)
PUNCT_REGEX = r"[.,;:!?]"
# GPT-2-style BPE pre-tokenizer pattern (contraction suffixes, space-glued
# letter/digit/symbol runs, whitespace runs), restricted to RE2 syntax (no
# lookahead) and ASCII classes — both pyarrow's count_substring_regex and
# DuckDB's regexp_extract_all run RE2, so the SQL oracle counts the SAME
# matches
BPE_TOKEN_REGEX = r"'(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"


def bpe_token_counts(col: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """BPE-ish token count per string — one vectorized RE2 pass."""
    return pc.count_substring_regex(col, BPE_TOKEN_REGEX)

# tiny per-language stopword lexicons for the n-gram/stopword language-ID
# heuristic (public common-word lists)
STOPWORDS: Dict[str, frozenset] = {
    "en": frozenset("the and of to a in is it you that he was for on are with as at be this".split()),
    "de": frozenset("der die und in den von zu das mit sich des auf ist im dem nicht ein".split()),
    "fr": frozenset("le de la et les des en un du une est que pour dans ce il au pas sur".split()),
    "es": frozenset("de la que el en y a los se del las un por con no una su para es".split()),
    "it": frozenset("di e il la che in a per un è del con non le si da come dei al".split()),
}


def _string_bytes(arr: pa.Array) -> Tuple[np.ndarray, np.ndarray]:
    """(uint8 view of the bytes ``arr``'s rows span, int64 row offsets into
    it) of a string/large_string array, zero-copy from its Arrow buffers."""
    bufs = arr.buffers()
    wide = pa.types.is_large_string(arr.type)
    offs = np.frombuffer(bufs[1], dtype=np.int64 if wide else np.int32)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    if bufs[2] is None:  # every row empty: no values buffer allocated
        return np.empty(0, np.uint8), offs - offs[0]
    return np.frombuffer(bufs[2], dtype=np.uint8)[offs[0] : offs[-1]], offs - offs[0]


def normalized_bytes(
    col: pa.Array | pa.ChunkedArray, lowercase: bool = True, collapse_ws: bool = True
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(buf, starts, ends)``: the rows of a string/large_string column,
    normalized for shingling only, as one uint8 buffer and each row's byte
    range in it.  Stored content is never changed (sha256 invariant).

    Same bytes as Arrow's ``utf8_lower`` followed by replacing each
    ``[ \\t\\r\\n\\f\\v]+`` run with one space, in a few numpy passes over the
    values buffer:

    - lowercase: the rows that hold a byte >= 0x80 run ``utf8_lower``
      first, because Unicode case mapping can change a character's byte
      length (``İ``); then 32 is added to every ``A``-``Z`` byte, which
      ``utf8_lower`` left none of in its rows (no pass when every row took
      ``utf8_lower``);
    - collapse: a byte of {9-13, 32} that follows another one in the same
      row is dropped, and the first byte of each run becomes a space.
      Those bytes never occur inside a multi-byte UTF-8 sequence, so the
      byte mask matches the regex exactly.

    Nulls become empty rows (Arrow lets a null slot span bytes).  Sliced
    and chunked input is read from its own offsets.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    if len(col) == 0:
        empty = np.zeros(0, np.int64)
        return np.empty(0, np.uint8), empty, empty
    if col.null_count:
        col = col.fill_null("")
    buf, offs = _string_bytes(col)
    if lowercase and buf.shape[0]:
        n = int(np.searchsorted(offs[:-1], buf.shape[0]))  # rows past n are empty
        high = np.zeros(len(col), dtype=bool)
        high[:n] = np.maximum.reduceat(buf, offs[:n]) >= 0x80
        if high.any():
            mask = pa.array(high)
            col = pc.replace_with_mask(col, mask, pc.utf8_lower(col.filter(mask)))
            buf, offs = _string_bytes(col)
            lowercase = not high.all()  # else no A-Z byte is left
    if not (lowercase or collapse_ws):
        return buf, offs[:-1], offs[1:]
    dropped = np.zeros(0, np.intp)
    if collapse_ws and buf.shape[0] > 1:
        ws = ((buf - np.uint8(9)) < 5) | (buf == 32)
        run = ws[1:] & ws[:-1]  # run[i]: byte i + 1 continues a whitespace run
        # a row's first byte starts a run of its own, never continues one
        inner = offs[1:-1]
        run[inner[(inner > 0) & (inner < buf.shape[0])] - 1] = False
        dropped = np.flatnonzero(run) + 1
    if dropped.shape[0]:
        keep = np.empty(buf.shape[0], dtype=bool)
        keep[0] = True
        np.logical_not(run, out=keep[1:])
        buf = buf[keep]
        offs = offs - np.searchsorted(dropped, offs)
    else:
        buf = buf.copy()
    if collapse_ws:  # each run's first byte becomes its one space
        np.copyto(buf, np.uint8(32), where=(buf - np.uint8(9)) < 5)
    if lowercase:
        buf |= ((buf - np.uint8(65)) < 26).view(np.uint8) << 5  # 'A'..'Z'
    return buf, offs[:-1], offs[1:]


def token_counts(col: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """Number of TOKEN_REGEX tokens per string (pyarrow count_substring_regex)."""
    return pc.count_substring_regex(col, TOKEN_REGEX)


def line_counts(col: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """Line count = newline count + 1 (empty string -> 1)."""
    return pc.add(pc.count_substring(col, "\n"), 1)


def quality_metrics(col: pa.Array | pa.ChunkedArray) -> Dict[str, pa.Array]:
    """Length / punctuation / alpha / token quality signals, all pyarrow
    kernels (no Python per-row work).  Ratios are 0.0 for empty strings."""
    n_chars = pc.utf8_length(col)
    denom = pc.max_element_wise(n_chars, 1)
    n_alpha = pc.count_substring_regex(col, r"[A-Za-z]")
    n_digit = pc.count_substring_regex(col, r"[0-9]")
    n_punct = pc.count_substring_regex(col, PUNCT_REGEX)
    n_tokens = pc.count_substring_regex(col, TOKEN_REGEX)
    n_ws = pc.count_substring_regex(col, r"[ \t\r\n]")
    f64 = pa.float64()
    denom_f = pc.cast(denom, f64)
    return {
        "n_chars": pc.cast(n_chars, pa.int64()),
        "n_tokens": pc.cast(n_tokens, pa.int64()),
        "alpha_ratio": pc.divide(pc.cast(n_alpha, f64), denom_f),
        "digit_ratio": pc.divide(pc.cast(n_digit, f64), denom_f),
        "punct_ratio": pc.divide(pc.cast(n_punct, f64), denom_f),
        "ws_ratio": pc.divide(pc.cast(n_ws, f64), denom_f),
        "mean_token_len": pc.divide(
            pc.cast(pc.count_substring_regex(col, r"[A-Za-z0-9_]"), f64),
            pc.cast(pc.max_element_wise(n_tokens, 1), f64),
        ),
    }


def stopword_ratio(texts: Sequence[Optional[str]], lang: str = "en") -> np.ndarray:
    """Fraction of tokens that are stopwords of ``lang``.  Token iteration in
    Python — use inside an actor-pool stage on modest batches."""
    sw = STOPWORDS[lang]
    out = np.zeros(len(texts), dtype=np.float64)
    for i, t in enumerate(texts):
        if not t:
            continue
        toks = _TOKEN_RE.findall(t.lower())
        if toks:
            out[i] = sum(1 for w in toks if w in sw) / len(toks)
    return out


def language_id(texts: Sequence[Optional[str]]) -> List[str]:
    """Heuristic language ID: argmax stopword-hit rate across lexicons;
    'und' (undetermined) when nothing matches."""
    langs = list(STOPWORDS)
    out: List[str] = []
    for t in texts:
        if not t:
            out.append("und")
            continue
        toks = _TOKEN_RE.findall(t.lower())
        if not toks:
            out.append("und")
            continue
        best, best_hits = "und", 0
        for lg in langs:
            sw = STOPWORDS[lg]
            hits = sum(1 for w in toks if w in sw)
            if hits > best_hits:
                best, best_hits = lg, hits
        out.append(best)
    return out


def extract_group_key(
    col: pa.Array | pa.ChunkedArray, pattern: str
) -> pa.Array | pa.ChunkedArray:
    """Regex group-key extraction — the reference's sample-id extractor
    (``lasvdedup/utils/sequence_grouping.py:29-37``: ``pattern.search(name)
    .group(0)`` per tip, counting non-matches) as a vectorized pyarrow
    kernel.  Returns the first match per value; null where no match (the
    reference logs-and-skips those)."""
    wrapped = pattern if "(?P<" in pattern else f"(?P<key>{pattern})"
    st = pc.extract_regex(col, wrapped)
    field = st.type[0].name if isinstance(st, pa.Array) else st.chunk(0).type[0].name
    return pc.struct_field(st, field)


def winnow_fingerprints(data: bytes, k: int = 8, window: int = 16) -> np.ndarray:
    """Winnowing document fingerprints (Schleimer et al., SIGMOD 2003):
    the minimum shingle hash in each sliding window of ``window`` k-gram
    hashes, deduplicated.  Vectorized with sliding_window_view."""
    n = len(data)
    if n < k:
        return shingle_hashes(data, k)
    arr = np.frombuffer(data, dtype=np.uint8)
    win = np.lib.stride_tricks.sliding_window_view(arr, k).astype(U64)
    pows = U64(1099511628211) ** np.arange(k - 1, -1, -1, dtype=U64)
    raw = splitmix64((win * pows).sum(axis=1, dtype=U64))
    if raw.shape[0] <= window:
        return np.unique(np.array([raw.min()], dtype=U64))
    wv = np.lib.stride_tricks.sliding_window_view(raw, window)
    return np.unique(wv.min(axis=1))
