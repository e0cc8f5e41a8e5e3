"""Vectorized hashing kernels (pure numpy, no Ray dependency).

These are the hot-path primitives: everything operates on whole batches /
arrays, never per-Python-row.  Replaces the reference's pairwise alignment
distance oracle (``lasvdedup/utils/distance_matrix.py:10-20``) with content
hashing + shingle hashing that scales linearly in corpus size.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Iterable, List, Sequence, Tuple

import numpy as np

# The simhash kernels view uint64 arrays as bytes and unpack with
# bitorder='little', and the shingler's sample filter reads each hash's low
# byte as byte 0 of its uint64; on a big-endian host they would silently
# produce wrong fingerprints and keep a different shingle sample rather than
# fail (ADVICE r3) — refuse to import instead.
if sys.byteorder != "little":  # pragma: no cover - no big-endian CI host
    raise ImportError(
        "lasvdedup_ray.functions.hashing assumes a little-endian host: the "
        "uint64 byte-view + unpackbits(bitorder='little') simhash kernels "
        "and the low-byte shingle sample filter would silently mis-hash on "
        "big-endian platforms"
    )

U64 = np.uint64
_POLY_MULT = U64(1099511628211)        # FNV-ish odd multiplier for rolling hash
_MIX_M1 = U64(0xBF58476D1CE4E5B9)      # splitmix64 constants (public domain)
_MIX_M2 = U64(0x94D049BB133111EB)
_GOLDEN = U64(0x9E3779B97F4A7C15)      # splitmix64's additive step
_BAND_MULT = U64(0x9E3779B97F4A7C15)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — decorrelates structured polynomial hashes."""
    x = (x + _GOLDEN).astype(U64, copy=False)
    return _mix64(x, np.empty_like(x))


def _mix64(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The xor-shift-multiply rounds of :func:`splitmix64` (everything after
    the ``_GOLDEN`` add), computed in ``x`` itself with one ``scratch``
    array of its shape: no temporary is allocated."""
    for shift, mult in ((30, _MIX_M1), (27, _MIX_M2), (31, None)):
        np.right_shift(x, U64(shift), out=scratch)
        x ^= scratch
        if mult is not None:
            x *= mult
    return x


def bloom_build(
    key_chunks: Iterable[np.ndarray],
    n_keys: int,
    bits_per_key: int = 16,
    max_bits: int = 1 << 31,
) -> np.ndarray:
    """Two-probe bloom bitmap (uint64 words) over the uint64 keys of
    ``key_chunks``, built one chunk at a time.  Size: the power of two at
    or above ``n_keys * bits_per_key`` bits, capped at ``max_bits`` (a
    256 MiB bitmap by default) and floored at one word.  Probes are ``key`` and ``splitmix64(key)``, each
    masked to the bitmap size (``bloom_probe``)."""
    bits = 1 << min(
        int(n_keys * bits_per_key - 1).bit_length(), int(max_bits).bit_length() - 1
    )
    bitmap = np.zeros(max(1, bits >> 6), dtype=U64)
    mask = U64(bitmap.shape[0] * 64 - 1)
    for keys in key_chunks:
        for probe in (keys & mask, splitmix64(keys) & mask):
            np.bitwise_or.at(bitmap, probe >> U64(6), U64(1) << (probe & U64(63)))
    return bitmap


def bloom_probe(bitmap: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Bool mask: ``keys`` possibly in the ``bloom_build`` bitmap (no false
    negatives)."""
    mask = U64(bitmap.shape[0] * 64 - 1)
    ok = np.ones(keys.shape[0], dtype=bool)
    for probe in (keys & mask, splitmix64(keys) & mask):
        ok &= (bitmap[probe >> U64(6)] >> (probe & U64(63))) & U64(1) != 0
    return ok


def id_hash64(ids) -> np.ndarray:
    """Vectorized, process-stable uint64 hash of each id string (pandas'
    cython siphash with its fixed default key).  ``ids``: a sequence of
    str or an Arrow string array."""
    import pandas as pd

    return pd.util.hash_array(np.asarray(ids, dtype=object), categorize=False)


def sha256_bytes(values: Iterable[bytes]) -> List[bytes]:
    """sha256 digest per value.  hashlib releases the GIL-heavy work to C;
    the Python loop is unavoidable (no vectorized sha256 kernel in pyarrow)
    but is cheap relative to the digest itself."""
    d = hashlib.sha256
    return [d(v).digest() for v in values]


def sha256_column(col) -> List[bytes]:
    """sha256 digest per row of a string/large_string (or binary) column,
    hashed directly from the Arrow values buffer via memoryview slices —
    the utf-8 bytes already sit contiguously in the buffer, so no per-row
    Python string materialization or re-encode happens (VERDICT r3 #7;
    same zero-copy pattern as ``shingle_hashes_batch``).  Equal digests to
    ``sha256_bytes(s.encode() for s in col.to_pylist())``.

    Nulls are REJECTED: a null row's offsets are start==end, which would
    silently digest like the empty string and make every null an exact
    duplicate of "" in the dedup chains (ADVICE r4) — callers must drop or
    fill nulls first, matching the to_pylist path which raised on None."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        out: List[bytes] = []
        for ch in col.chunks:
            out.extend(sha256_column(ch))
        return out
    n = len(col)
    if n == 0:
        return []
    if col.null_count:
        raise ValueError(
            "sha256_column: column has null rows; nulls would hash like the "
            "empty string and silently collide with '' — drop/fill them first"
        )
    d = hashlib.sha256
    bufs = col.buffers()
    if bufs[2] is None:  # all rows empty: no values buffer allocated
        return [d(b"").digest()] * n
    wide = pa.types.is_large_string(col.type) or pa.types.is_large_binary(col.type)
    offs = np.frombuffer(bufs[1], dtype=np.int64 if wide else np.int32)[
        col.offset : col.offset + n + 1
    ]
    mv = memoryview(bufs[2])
    lo = offs[:-1].tolist()
    hi = offs[1:].tolist()
    return [d(mv[s:e]).digest() for s, e in zip(lo, hi)]


def _utf8_codepoints(data: np.ndarray, offs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(codepoints, row offsets into them) of a valid UTF-8 values buffer
    and its byte offsets; pure-ASCII input comes back unchanged.  Decoded
    vectorized: every non-continuation byte starts a codepoint whose width
    its high bits give."""
    if not (data >= 0x80).any():
        return data, offs
    lead = (data & 0xC0) != 0x80
    pos = np.flatnonzero(lead)
    b = data[pos].astype(np.uint32)
    width = 1 + (b >= 0xC0) + (b >= 0xE0) + (b >= 0xF0)
    # lead-byte payload: 7 bits of an ASCII byte, 5/4/3 of a 2/3/4-byte lead
    cp = np.where(width == 1, b, b & (np.uint32(0x7F) >> width.astype(np.uint32)))
    for k in (1, 2, 3):
        more = width > k
        cp[more] = (cp[more] << np.uint32(6)) | (data[pos[more] + k] & np.uint32(0x3F))
    before = np.concatenate([[0], np.cumsum(lead)])  # codepoints before each byte
    return cp, before[offs]


def token_poly_hashes(flat) -> np.ndarray:
    """Raw (un-finalized) rolling-polynomial hash per row of a string /
    large_string array: ``z = sum(cp_j * MULT^(L-1-j)) mod 2^64`` over the
    row's L Unicode codepoints; the empty string hashes to 0.  Finalize
    with :func:`splitmix64` before bucketing.

    Codepoints, not UTF-8 bytes, because the SQL oracle mirror computes the
    same sum from ``ord(substr(...))`` per character (as the shingle chain
    of ``textops._doc_shingles`` does); on ASCII the two are identical.
    Binary arrays hash their bytes.

    Vectorized by grouping rows by length (one ``(n_L, L)`` gather +
    matmul-style reduce per distinct length — word tokens have only a
    handful of distinct lengths), reading straight from the Arrow values
    buffer like :func:`sha256_column` — no per-row Python strings.
    Nulls are rejected for the same reason as :func:`sha256_column`.
    """
    import pyarrow as pa

    if isinstance(flat, pa.ChunkedArray):
        parts = [token_poly_hashes(ch) for ch in flat.chunks]
        return np.concatenate(parts) if parts else np.zeros(0, U64)
    n = len(flat)
    if n == 0:
        return np.zeros(0, U64)
    if flat.null_count:
        raise ValueError("token_poly_hashes: null rows are not hashable")
    bufs = flat.buffers()
    wide = pa.types.is_large_string(flat.type) or pa.types.is_large_binary(flat.type)
    offs = np.frombuffer(bufs[1], dtype=np.int64 if wide else np.int32)[
        flat.offset : flat.offset + n + 1
    ].astype(np.int64, copy=False)
    out = np.zeros(n, U64)
    if bufs[2] is None:  # all rows empty
        return out
    data = np.frombuffer(bufs[2], dtype=np.uint8)[: offs[-1]]
    if pa.types.is_string(flat.type) or pa.types.is_large_string(flat.type):
        data, offs = _utf8_codepoints(data, offs)
    starts = offs[:-1]
    lens = offs[1:] - offs[:-1]
    for L in np.unique(lens):
        if L == 0:
            continue
        idx = np.nonzero(lens == L)[0]
        mat = data[starts[idx][:, None] + np.arange(L)].astype(U64)
        pows = _POLY_MULT ** np.arange(L - 1, -1, -1, dtype=U64)
        out[idx] = (mat * pows).sum(axis=1, dtype=U64)
    return out


def quantize_half_away(x: np.ndarray, scale: float = 1e6) -> np.ndarray:
    """int64 ``round(x * scale)`` rounding half AWAY from zero — DuckDB's
    ``round()`` semantics (np.round is half-to-even), the convention every
    SQL-oracled float comparison in this repo quantizes under.  One shared
    kernel so the engine/oracle rounding rule has a single source of
    truth."""
    s = np.asarray(x, np.float64) * scale
    return np.where(s >= 0, np.floor(s + 0.5), np.ceil(s - 0.5)).astype(np.int64)


def poly_concat(h_left: np.ndarray, h_right: np.ndarray, right_len: np.ndarray) -> np.ndarray:
    """``token_poly_hashes`` of the concatenation left||right, from the
    parts' raw hashes: ``H(a||b) = H(a) * MULT^len(b) + H(b)  (mod 2^64)``.
    ``right_len`` is the RIGHT part's length in hashed units: codepoints
    for strings."""
    maxl = int(right_len.max()) if len(right_len) else 0
    ptab = _POLY_MULT ** np.arange(maxl + 1, dtype=U64)
    return h_left * ptab[right_len] + h_right


def shingle_hashes(data: bytes, k: int) -> np.ndarray:
    """Unique 64-bit hashes of all character k-grams of ``data``.

    Vectorized rolling polynomial hash over a sliding byte window, finalized
    with splitmix64.  Documents shorter than ``k`` hash their whole content
    as a single shingle (so empty/short docs still compare equal to their
    exact copies).
    """
    n = len(data)
    if n < k:
        h = np.frombuffer(hashlib.blake2b(data, digest_size=8).digest(), dtype=U64)
        return splitmix64(h.copy())
    arr = np.frombuffer(data, dtype=np.uint8)
    win = np.lib.stride_tricks.sliding_window_view(arr, k).astype(U64)
    pows = _POLY_MULT ** np.arange(k - 1, -1, -1, dtype=U64)  # wraparound mod 2^64
    raw = (win * pows).sum(axis=1, dtype=U64)
    return np.unique(splitmix64(raw))


# Text bytes per rolling-hash slice.  The shingler holds two uint64 arrays
# per slice byte (the rolling-hash accumulator and splitmix64's scratch) and
# runs ~k + 7 in-place passes over them, so a slice whose arrays stay in the
# core's L2 cache runs those passes at cache speed: on the 4.98 MB
# ``mixed_5kb`` corpus (k = 5, one process on a 4-vCPU Xeon VM) the
# shingler took 0.080-0.084 s at 128 KB slices (best of 9 CPU-seconds, two
# sweeps), 0.082-0.102 s at 32-256 KB and 0.127-0.130 s at 2 MB.  Small
# slices also keep every allocation far under glibc's 32 MB dynamic mmap
# threshold, so the arrays are served from the reused heap instead of being
# mmap'd and faulted in on each call (~93% sys time at 32 workers with
# 100 MB temporaries, measured at 600k files).  Shingles never span
# documents, so cutting along document boundaries is bit-identical to a
# single pass.
_SHINGLE_SLICE_BYTES = 128 << 10


def shingle_hashes_batch(
    buf: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    k: int,
    sample_mod: int = 1,
    slice_bytes: int = _SHINGLE_SLICE_BYTES,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-doc unique k-gram hashes for a WHOLE batch, computed over the
    batch's concatenated utf-8 byte buffer (``functions.text.normalized_bytes``).
    Per-document output is bit-identical to ``shingle_hashes(doc_bytes, k)``
    + the ``sample_mod`` low-bits filter, but the rolling polynomial runs
    in place over bounded slices of the buffer: no per-doc Python strings
    and no (n, k) window matrix.

    ``buf``: uint8 view of the concatenated docs; ``starts``/``ends``:
    ascending per-doc byte ranges.  Returns ``(hash_concat, offsets,
    counts)`` in ``oph_signatures`` layout.
    """
    n_docs = int(starts.shape[0])
    if n_docs == 0:
        return np.empty(0, U64), np.empty(0, np.intp), np.empty(0, np.int64)
    # Group docs into slices of <= slice_bytes text (an oversized doc gets
    # its own slice), run the kernel per slice, stitch the outputs.
    cuts = [0]
    while cuts[-1] < n_docs:
        d0 = cuts[-1]
        limit = int(starts[d0]) + slice_bytes
        cuts.append(max(d0 + 1, int(np.searchsorted(ends, limit, "right"))))
    parts = [
        _shingle_hashes_slice(
            buf[int(starts[d0]) : int(ends[d1 - 1])],
            starts[d0:d1] - starts[d0],
            ends[d0:d1] - starts[d0],
            k,
            sample_mod,
        )
        for d0, d1 in zip(cuts[:-1], cuts[1:])
    ]
    counts = np.concatenate([c for _, c in parts])
    offsets = np.zeros(n_docs, dtype=np.intp)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.concatenate([h for h, _ in parts]), offsets, counts


def _shingle_hashes_slice(
    buf: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    k: int,
    sample_mod: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(hashes, counts)`` of the docs (at least one) of one contiguous
    slice; see the driver above."""
    n_win = buf.shape[0] - k + 1
    if n_win > 0:
        # rolling polynomial by Horner's rule, in place: after step j,
        # raw[i] = sum_{t<=j} buf[i+t] * MULT^(j-t) (mod 2^64)
        raw = buf[:n_win].astype(U64)
        for j in range(1, k):
            raw *= _POLY_MULT
            raw += buf[j : j + n_win]
        raw += _GOLDEN
        _mix64(raw, np.empty_like(raw))
    else:
        raw = np.empty(0, U64)
    mod_mask = sample_mod - 1
    if sample_mod > 1 and n_win > 0:
        # the low-bits sample filter commutes with np.unique (both are
        # value-based), so filtering FIRST cuts the per-doc sort volume by
        # ~sample_mod; a mask under 256 reads only each hash's low byte
        # (byte 0 on the little-endian hosts this module imports on)
        low = raw.view(np.uint8)[::8] if mod_mask < 256 else raw
        keep_idx = np.flatnonzero((low & low.dtype.type(mod_mask)) == 0)
        kept = raw[keep_idx]
        lo = np.searchsorted(keep_idx, starts).tolist()
        hi = np.searchsorted(keep_idx, ends - (k - 1)).tolist()
    else:
        kept = raw
        lo = starts.tolist()
        hi = (ends - (k - 1)).tolist()
    # each doc's hashes, sorted: a doc shorter than k hashes its whole
    # content as one shingle; a doc none of whose shingles passed the
    # filter keeps its full set (the per-doc kernel's empty-sample fallback)
    parts: List[np.ndarray] = []
    mv = memoryview(buf)
    for s, e, a, b in zip(starts.tolist(), ends.tolist(), lo, hi):
        if e - s < k:
            blake = hashlib.blake2b(mv[s:e], digest_size=8).digest()
            parts.append(splitmix64(np.frombuffer(blake, dtype=U64)))
        else:
            parts.append(np.sort(kept[a:b] if b > a else raw[s : e - k + 1]))
    # one vectorized unique over every doc's sorted run
    vals = np.concatenate(parts)
    bounds = np.zeros(len(parts), dtype=np.intp)
    np.cumsum(np.fromiter(map(len, parts), np.intp, len(parts))[:-1], out=bounds[1:])
    first = np.empty(vals.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(vals[1:], vals[:-1], out=first[1:])
    first[bounds] = True
    return vals[first], np.add.reduceat(first, bounds, dtype=np.int64)


OPH_EMPTY = np.uint32(0xFFFFFFFF)


def oph_signatures(
    hash_concat: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    num_bins: int = 128,
) -> np.ndarray:
    """Densified one-permutation MinHash (Shrivastava & Li, ICML 2014;
    rotation densification) — O(total_shingles) instead of
    O(total_shingles * num_perms), the scale-path default signer.

    Each shingle hash is routed to one of ``num_bins`` bins by its top bits;
    the signature slot is the minimum mid-32-bit value in the bin; empty
    bins are filled by circular rotation from occupied bins.  Estimator
    quality matches 128 independent permutations when shingle count >>
    num_bins (measured mean |err| ≈ 0.023 vs 0.020 classic at 128 bins).
    """
    n_docs = offsets.shape[0]
    out = np.full((n_docs, num_bins), OPH_EMPTY, dtype=np.uint32)
    if hash_concat.shape[0] == 0:
        out.fill(0)
        return out
    shift_bins = np.uint64(64 - int(num_bins).bit_length() + 1)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
    bins = (hash_concat >> shift_bins).astype(np.int64) % num_bins
    vals = ((hash_concat >> U64(25)) & U64(0xFFFFFFFF)).astype(np.uint32)
    key = doc_idx * num_bins + bins
    # per-(doc, bin) minimum via unbuffered scatter-min: identical result
    # to the previous lexsort+first-of-run pass, ~17x faster (no
    # O(n log n) sort over total_shingles)
    np.minimum.at(out.reshape(-1), key, vals)
    # rotation densification: forward-fill empty bins circularly
    for shift in (1, 2, 4, 8, 16, 32, 64):
        m = out == OPH_EMPTY
        if not m.any():
            break
        out = np.where(m, np.roll(out, shift, axis=1), out)
    return out


def simhash_from_sigs(signatures: np.ndarray) -> np.ndarray:
    """64-bit SimHash computed from the MinHash signature slots (a
    deterministic shingle sample): majority bit over splitmix64 of each
    slot.  O(num_perms) per doc; used for band-skew ordering and quadrant
    bucketing where sample-level fidelity suffices."""
    n = signatures.shape[0]
    if n == 0:
        return np.empty(0, dtype=U64)
    h = splitmix64(signatures.astype(U64))
    # byte-view + unpackbits: (n, perms, 64) uint8 instead of an int32 shift
    # matrix — 4x less memory traffic.  On little-endian hardware byte j//8
    # unpacked LSB-first puts bit j of the word at column j exactly.
    bits = np.unpackbits(h.view(np.uint8).reshape(n, h.shape[1], 8), axis=-1, bitorder="little")
    sums = bits.sum(axis=1, dtype=np.int32)  # (n, 64) bit j at column j
    majority = (2 * sums) > signatures.shape[1]
    shifts = np.arange(64, dtype=U64)
    weights = (U64(1) << shifts).astype(U64)
    return (majority.astype(U64) * weights[None, :]).sum(axis=1, dtype=U64)


def simhash_values(
    hash_concat: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """64-bit SimHash per document from its shingle hashes.

    Bit j of the result is 1 iff more than half the doc's shingle hashes
    have bit j set.  Vectorized via a (total, 64) bit matrix reduced with
    ``np.add.reduceat``.
    """
    n_docs = offsets.shape[0]
    if hash_concat.shape[0] == 0:
        return np.zeros(n_docs, dtype=U64)
    bits = np.unpackbits(
        hash_concat.view(np.uint8).reshape(-1, 8), axis=-1, bitorder="little"
    ).astype(np.int32)  # (total, 64), bit j at column j (little-endian host)
    sums = np.add.reduceat(bits, offsets, axis=0)  # (n_docs, 64)
    majority = (2 * sums) > counts[:, None]
    shifts = np.arange(64, dtype=U64)
    weights = (U64(1) << shifts).astype(U64)
    return (majority.astype(U64) * weights[None, :]).sum(axis=1, dtype=U64)


def band_hashes(signatures: np.ndarray, bands: int, rows: int) -> np.ndarray:
    """LSH band hashes: (n_docs, bands) uint64.

    Each band's ``rows`` uint32 signature slots are folded with a
    multiply-xor chain then splitmix64-finalized, so equal band hashes imply
    (w.h.p.) equal band slots.
    """
    n = signatures.shape[0]
    sig = signatures.reshape(n, bands, rows).astype(U64)
    h = np.zeros((n, bands), dtype=U64)
    for j in range(rows):
        h = h * _BAND_MULT + sig[:, :, j]
    return splitmix64(h ^ U64(rows))


def estimated_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """Fraction of equal signature slots — unbiased Jaccard estimate.
    Accepts (..., num_perms) arrays; broadcasts."""
    return (sig_a == sig_b).mean(axis=-1)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distance between uint64 SimHash values (vectorized
    popcount via byte-view + unpackbits)."""
    x = np.bitwise_xor(a, b)
    bytes_view = x.astype(U64).view(np.uint8).reshape(*x.shape, 8)
    return np.unpackbits(bytes_view, axis=-1).sum(axis=-1).astype(np.int64)
