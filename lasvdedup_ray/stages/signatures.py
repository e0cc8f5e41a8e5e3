"""MinHash + SimHash sign stage: read, prepare and sketch every row in raw
Ray tasks.

Replaces the reference's global distance oracle (midpoint-rooted tree +
dense n x n matrix, ``lasvdedup/utils/determine_duplicates.py:111-114``,
``distance_matrix.py:10-20``) with per-row sketches.  ``add_signatures(ds,
cfg)`` takes the raw ``(repo, path, commit, lang, content)`` dataset and
returns its rows with ``prepare_batch``'s columns (``stages/prepare.py``:
id, sha256, length stats) and ``MinHashSigner``'s (``minhash``,
``simhash``, ``n_shingles``).  The densified one-permutation signer is
O(shingles) per document and holds no per-worker state, so it runs in
plain tasks.

Per row the signer runs three numpy kernels over the content's Arrow
values buffer, never over Python strings: ``normalized_bytes`` (lowercase
and whitespace collapse in a few byte passes, ``utf8_lower`` only for the
rows with non-ASCII bytes), ``shingle_hashes_batch`` (Horner's-rule
rolling hash and splitmix64 in place, over cache-sized slices) and
``oph_signatures`` + ``simhash_from_sigs``.  Sign is the one stage whose
cost grows with corpus bytes; ``python bench.py --kernels`` times each
kernel in one process.

One raw task per run of sources, and no Ray Data executor: each task reads
or takes its sources, prepares and signs their rows and returns one block
plus its ``BlockMetadataWithSchema``; the result is built with
``dataset_from_blocks``.  A source is one of two kinds, handled by the same
task function and cut into runs by the same rule:

- an unexecuted bare datasource read (``read_parquet_clean`` of files with
  a readable footer, or any ``ray.data.read_*``): the datasource's own
  ``ReadTask``s, run inside the sign task, so the read is never planned as
  a Ray Data execution;
- any other dataset (``from_arrow``, a materialized read, a plan with a map
  stage): its block refs (a lazy plan runs once to produce them).

Runs are cut by bytes, the way ``hash_exchange`` cuts its reduce tasks,
because the block count of the signed stage sets the task count of every
wave after it (the slim projection, verify's content gathers, the label
attach, which also appends classify's pkey): about one task per
``_SIGN_BYTES`` of in-memory input (``byte_runs``).  A read asks its datasource for that many
read tasks from ``estimate_inmemory_data_size()`` and gets at most what the
datasource can split (``ParquetDatasource``: one per file); blocks are
summed from their ``size_bytes``.  Each task signs its rows in slices of at
most ``_SIGN_BYTES`` content bytes (``sign_table``), so one large read task
never hands the shingler its whole input.

This replaced a Ray Data ``read -> map_batches(prepare_batch) ->
map_batches(MinHashSigner)`` pipeline, whose executor start and one task
per 256-row batch made it the largest fixed cost of a small job (BASELINE.md
"Read, prepare and sign in raw tasks").  The Ray internals it reads --
``Dataset._logical_plan.dag``, ``Read._datasource_or_legacy_reader``,
``ReadTask`` -- are used by name, so a Ray upgrade that renames them fails
with an ImportError or AttributeError rather than a silent fallback.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..config import SignatureConfig
from ..functions.hashing import (
    oph_signatures,
    shingle_hashes_batch,
    simhash_from_sigs,
)
from ..functions.text import normalized_bytes
from ..sources.readers import _strip_schema_meta
from .exchange import (
    _arrow,
    _live_blocks,
    _one_chunk,
    byte_runs,
    cluster_cpus,
    dataset_from_blocks,
)
from .prepare import prepare_batch


class MinHashSigner:
    """Batch function of the sign stage (``sign_table``): the content
    column normalized for shingling (``normalized_bytes``, numpy over the
    Arrow values buffer), its k-shingle hashes (``shingle_hashes_batch``)
    and their densified OPH signature.  Appends ``minhash`` (large_binary,
    num_perms*4 bytes), ``simhash`` (uint64) and ``n_shingles`` (int64).
    Every column is bit-identical to the Arrow ``utf8_lower`` +
    ``replace_substring_regex`` normalization it replaced
    (``tests/test_normalize.py``; ``tests/test_sign_stage.py`` pins a
    digest).
    """

    def __init__(self, cfg: Optional[SignatureConfig] = None):
        self.cfg = cfg or SignatureConfig()

    def __call__(self, t: pa.Table) -> pa.Table:
        cfg = self.cfg
        buf, starts, ends = normalized_bytes(t["content"], cfg.lowercase, cfg.collapse_ws)
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


# bytes per sign task: an input of N in-memory bytes signs in about
# N / _SIGN_BYTES raw tasks (module docstring), and the signer sees at most
# this many content bytes per call
_SIGN_BYTES = 4 << 20


def sign_table(t: pa.Table, cfg: Optional[SignatureConfig] = None) -> pa.Table:
    """``prepare_batch`` then ``MinHashSigner`` of ``t``, the signer called
    on consecutive row slices of at most ``_SIGN_BYTES`` content bytes (a
    larger row alone), so one large task never hands the shingler its whole
    input.  Signatures are per row: the slicing changes no output."""
    t = prepare_batch(t)
    signer = MinHashSigner(cfg)
    lens = pc.binary_length(t["content"]).fill_null(0).to_numpy()
    ends = np.cumsum(lens)
    cuts = [0]
    while cuts[-1] < t.num_rows:
        # the longest run from the last cut within the bound, at least a row
        limit = ends[cuts[-1]] - lens[cuts[-1]] + _SIGN_BYTES
        cuts.append(max(cuts[-1] + 1, int(np.searchsorted(ends, limit, "right"))))
    parts = [signer(t.slice(a, z - a)) for a, z in zip(cuts[:-1], cuts[1:])]
    return _one_chunk(pa.concat_tables(parts)) if parts else signer(t)


@ray.remote(num_returns=2)
def _sign_sources(cfg, *sources):
    """One block of signed rows from a run of sources -- ``ReadTask``s,
    read here, or blocks -- with schema metadata stripped, plus its
    ``BlockMetadataWithSchema``.  No columns at all (an empty read):
    returned as it is."""
    from ray.data.block import BlockExecStats, BlockMetadataWithSchema
    from ray.data.datasource import ReadTask

    stats = BlockExecStats.builder()
    tables = [
        _strip_schema_meta(_arrow(block))
        for source in sources
        for block in (source() if isinstance(source, ReadTask) else [source])
    ]
    rows = [t for t in tables if t.num_rows]
    table = pa.concat_tables(rows) if rows else (tables[0] if tables else pa.table({}))
    out = sign_table(table, cfg) if table.num_columns else table
    return out, BlockMetadataWithSchema.from_block(out, stats=stats.build())


def bare_read(ds: ray.data.Dataset) -> bool:
    """Whether ``ds`` is an unexecuted bare datasource read, whose
    ``ReadTask``s the sign tasks run themselves."""
    from ray.data._internal.logical.operators.read_operator import Read

    return isinstance(ds._logical_plan.dag, Read) and not ds._plan.has_computed_output()


def _sources(ds: ray.data.Dataset) -> Tuple[list, list]:
    """``(sources, in-memory bytes of each)`` of ``ds``: the ``ReadTask``s
    of a ``bare_read``, as many as the datasource splits its estimated size
    into ``_SIGN_BYTES`` pieces (one per CPU if it gives no estimate), else
    the block refs of ``ds``."""
    if bare_read(ds):
        datasource = ds._logical_plan.dag._datasource_or_legacy_reader
        est = datasource.estimate_inmemory_data_size()
        k = cluster_cpus() if est is None else max(1, -(-int(est) // _SIGN_BYTES))
        tasks = datasource.get_read_tasks(k)
        return tasks, [t.metadata.size_bytes for t in tasks]
    blocks = _live_blocks(ds)
    return [ref for ref, _ in blocks], [meta.size_bytes for _, meta in blocks]


def add_signatures(
    ds: ray.data.Dataset, cfg: Optional[SignatureConfig] = None
) -> ray.data.Dataset:
    """The sign stage of a raw ``(repo, path, commit, lang, content)``
    dataset: its rows with ``prepare_batch``'s and ``MinHashSigner``'s
    columns, as a ``dataset_from_blocks`` dataset of one block per raw task
    (module docstring).  Waits for every task; starts no Ray Data executor
    on a bare read or a dataset with a computed snapshot.  No rows: one
    typed empty block where a task had a schema, else no blocks."""
    cfg = cfg or SignatureConfig()
    sources, sizes = _sources(ds)
    out = [_sign_sources.remote(cfg, *run) for run in byte_runs(sources, sizes, _SIGN_BYTES)]
    metas = ray.get([meta for _, meta in out])
    outs = [(block, meta) for (block, _), meta in zip(out, metas)]
    kept = [o for o in outs if o[1].num_rows] or [o for o in outs if o[1].schema][:1]
    return dataset_from_blocks([b for b, _ in kept], [m for _, m in kept])


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
