"""MinHash + SimHash signature stage: stateless ``map_batches`` tasks.

Replaces the reference's global distance oracle (midpoint-rooted tree +
dense n x n matrix, ``lasvdedup/utils/determine_duplicates.py:111-114``,
``distance_matrix.py:10-20``) with per-row sketches computed streaming:
``ds.map_batches(MinHashSigner(cfg), batch_format="pyarrow")``.  The
densified one-permutation signer is O(shingles) per document and holds no
per-worker state, so it runs as plain tasks (no actor-pool startup).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa
import ray.data

from ..config import SignatureConfig
from ..functions.hashing import (
    oph_signatures,
    shingle_hashes_batch,
    simhash_from_sigs,
)
from ..functions.text import normalize_for_shingling


def _string_array_bytes(
    arr: pa.Array,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(uint8 data buffer, per-row byte starts, per-row byte ends) of an
    Arrow string/large_string array — zero-copy views into Arrow memory.
    Nulls become empty ranges."""
    if arr.null_count:
        arr = arr.fill_null("")
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    data = (
        np.frombuffer(bufs[2], dtype=np.uint8)
        if bufs[2] is not None
        else np.empty(0, np.uint8)
    )
    return data, offs[:-1], offs[1:]


class MinHashSigner:
    """Batch function for ``map_batches``: pyarrow normalization +
    vectorized densified OPH signatures.  Appends ``minhash``
    (large_binary, num_perms*4 bytes), ``simhash`` (uint64) and
    ``n_shingles`` (int64).
    """

    def __init__(self, cfg: Optional[SignatureConfig] = None):
        self.cfg = cfg or SignatureConfig()

    def __call__(self, t: pa.Table) -> pa.Table:
        cfg = self.cfg
        norm = normalize_for_shingling(t["content"], cfg.lowercase, cfg.collapse_ws)
        if isinstance(norm, pa.ChunkedArray):
            norm = norm.combine_chunks()
        # zero-copy: shingle straight off the Arrow utf-8 data buffer
        # (no per-row Python strings, no encode round-trip)
        buf, starts, ends = _string_array_bytes(norm)
        hashes, offsets, counts = shingle_hashes_batch(
            buf, starts, ends, cfg.k, sample_mod=cfg.sample_mod
        )
        sigs = oph_signatures(hashes, offsets, counts, cfg.num_perms)
        sims = simhash_from_sigs(sigs)
        # one flat copy + an offsets buffer instead of n per-row bytes
        # objects: large_binary built directly from the (n, num_perms)
        # uint32 matrix's contiguous memory
        row_bytes = sigs.shape[1] * sigs.dtype.itemsize
        blob_offs = np.arange(sigs.shape[0] + 1, dtype=np.int64) * row_bytes
        t = t.append_column(
            "minhash",
            pa.Array.from_buffers(
                pa.large_binary(),
                sigs.shape[0],
                [None, pa.py_buffer(blob_offs.tobytes()), pa.py_buffer(np.ascontiguousarray(sigs).tobytes())],
            ),
        )
        t = t.append_column("simhash", pa.array(sims, pa.uint64()))
        t = t.append_column("n_shingles", pa.array(counts, pa.int64()))
        return t


def add_signatures(
    ds: ray.data.Dataset,
    cfg: Optional[SignatureConfig] = None,
    batch_size: int = 1024,
) -> ray.data.Dataset:
    """Signature stage as stateless ``map_batches`` tasks (the signer's
    only state is its config, shipped with each task)."""
    return ds.map_batches(
        MinHashSigner(cfg), batch_format="pyarrow", batch_size=batch_size
    )


def sigs_to_matrix(blobs: List[bytes], num_perms: int) -> np.ndarray:
    """Decode a list of signature blobs into a (n, num_perms) uint32 matrix
    (zero-copy per blob)."""
    if not blobs:
        return np.empty((0, num_perms), dtype=np.uint32)
    return np.frombuffer(b"".join(blobs), dtype=np.uint32).reshape(len(blobs), num_perms)


def sig_matrix_from_column(
    col: pa.Array | pa.ChunkedArray, num_perms: int
) -> np.ndarray:
    """(n, num_perms) uint32 signature matrix as a VIEW over the Arrow
    binary column's data buffer — no per-row bytes objects, no join copy.
    Falls back to ``sigs_to_matrix`` for non-contiguous/null layouts."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, num_perms), dtype=np.uint32)
    row_bytes = num_perms * 4
    if col.null_count == 0:
        bufs = col.buffers()
        off_dtype = np.int64 if pa.types.is_large_binary(col.type) else np.int32
        offs = np.frombuffer(bufs[1], dtype=off_dtype)[
            col.offset : col.offset + n + 1
        ].astype(np.int64)
        if bool(np.all(np.diff(offs) == row_bytes)):
            data = np.frombuffer(bufs[2], dtype=np.uint8)[offs[0] : offs[-1]]
            return data.view(np.uint32).reshape(n, num_perms)
    return sigs_to_matrix(col.to_pylist(), num_perms)
