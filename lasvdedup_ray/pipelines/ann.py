"""Similarity search over the ``embeddings`` table (list<float> column).

- ``embedding_topk``: brute-force cosine top-k — numpy matmul per batch
  against a broadcast query matrix (``ray.put`` once, read per actor/task),
  per-batch partial top-k, tiny final merge.  The baseline the SQL oracle
  can check exactly.
- ``embedding_neardup_pairs``: exact cosine near-dup pair join via block
  matmul against the broadcast matrix (SQL-checkable).
- ``embedding_neardup_lsh``: the scale path — random-hyperplane LSH
  buckets + in-bucket verification; probabilistic recall, rows-only check.

Cosines are rounded to 6 decimals on BOTH sides (numpy and DuckDB differ
in low-order bits), and every ordering has a vec_id tie-break.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Min, Sum

from .relational import quantize
from ..sources.readers import read_parquet_clean


ANN_BUCKET_CAP = 2048  # LSH buckets above this chain neighbors (ADVICE r2)
ANN_CAP_NEIGHBORS = 8


def _ids(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """int64 numpy view of an id column (zero-copy when possible)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def _list_matrix(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> column.

    Flattens the Arrow values buffer directly (one astype copy) instead of
    materializing n Python lists via ``to_pylist`` — ~20x less allocation
    in every per-batch matmul.  Falls back to the slow path for ragged
    lists or nulls (never the case for the embeddings table)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), np.float64)
    if col.null_count == 0:
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        widths = np.diff(offs)
        dim = int(widths[0]) if n else 0
        if dim > 0 and bool(np.all(widths == dim)):
            vals = col.values.to_numpy(zero_copy_only=False)
            flat = vals[offs[0] : offs[0] + n * dim]
            return flat.astype(np.float64, copy=False).reshape(n, dim)
    return np.array(col.to_pylist(), dtype=np.float64)


def _binary_matrix(col: pa.Array | pa.ChunkedArray, dtype=np.float64) -> np.ndarray:
    """(n, w) matrix from a binary column whose rows are equal-length packed
    vectors — one frombuffer over the contiguous data buffer instead of a
    per-row Python loop.  Falls back for mixed widths."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype)
    item = np.dtype(dtype).itemsize
    if col.null_count == 0:
        bufs = col.buffers()
        off_dtype = np.int64 if pa.types.is_large_binary(col.type) else np.int32
        offs = np.frombuffer(bufs[1], dtype=off_dtype)[
            col.offset : col.offset + n + 1
        ].astype(np.int64)
        widths = np.diff(offs)
        if bool(np.all(widths == widths[0])) and widths[0] % item == 0:
            w = int(widths[0]) // item
            data = np.frombuffer(bufs[2], dtype=np.uint8)[offs[0] : offs[-1]]
            return data.view(dtype).reshape(n, w)
    return np.array([np.frombuffer(b, dtype=dtype) for b in col.to_pylist()])


def _q6(x: np.ndarray) -> np.ndarray:
    """Quantize to micro-units (shared half-away-from-zero kernel)."""
    from ..functions.hashing import quantize_half_away

    return quantize_half_away(x, 1e6)


def _quant6_mat(m: np.ndarray) -> np.ndarray:
    """e6-quantized copy of a float matrix (exact micro-unit grid)."""
    return _q6(m) / 1e6


def _load_matrix(sf_dir: str) -> Tuple[np.ndarray, np.ndarray]:
    """(ids, L2-normalized matrix) — the broadcast side."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = _ids(t["vec_id"])
    mat = _list_matrix(t["embedding"])
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return ids, mat / norms


def embedding_topk(sf_dir: str, n_queries: int = 5, k: int = 5) -> ray.data.Dataset:
    """For each of the ``n_queries`` lowest vec_ids: top-k most-similar
    other vectors by cosine (descending, vec_id tie-break).

    The query side is loaded PRUNED: a distributed per-batch bottom-k over
    the id column picks the ``n_queries`` lowest vec_ids (the driver sees
    only n_batches * n rows, never the full id column — VERDICT r2 #6),
    then a parquet row filter fetches just those embeddings — the full
    matrix never touches the driver (VERDICT r1 #7)."""
    import pyarrow.parquet as pq

    def bottom_ids(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"vec_id": pa.array(np.sort(v)[:n_queries], pa.int64())}
        )

    cand = (
        read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
        .map_batches(bottom_ids, batch_format="pyarrow")
        .take_all()
    )
    query_ids = np.sort(np.asarray([r["vec_id"] for r in cand], dtype=np.int64))[
        :n_queries
    ]
    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", [int(x) for x in query_ids])],
    )
    q_order = np.argsort(_ids(qt["vec_id"]))
    query_mat = _list_matrix(qt["embedding"])[q_order]
    norms = np.linalg.norm(query_mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    query_mat = query_mat / norms
    ref = ray.put((query_ids, query_mat))

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def partial_topk(t: pa.Table) -> pa.Table:
        qids, qmat = ray.get(ref)
        vids = _ids(t["vec_id"])
        mat = _list_matrix(t["embedding"])
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mat = mat / norms
        cos = qmat @ mat.T  # (n_queries, batch)
        out_q, out_v, out_c = [], [], []
        for qi in range(len(qids)):
            row = cos[qi]
            mask = vids != qids[qi]
            vv, cc = vids[mask], row[mask]
            if len(vv) == 0:
                continue
            top = min(k, len(vv))
            # partial top-k inside the batch (rounded, vec_id tie-break)
            cc_q = _q6(cc)  # micro-cosine, engine-exact
            sel = np.lexsort((vv, -cc_q))[:top]
            out_q.extend([qids[qi]] * top)
            out_v.extend(vv[sel])
            out_c.extend(cc_q[sel])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cosine_e6": pa.array(out_c, pa.int64()),
            }
        )

    def final_topk(g: pa.Table) -> pa.Table:
        vv = _ids(g["vec_id"])
        cc = _ids(g["cosine_e6"])
        sel = np.lexsort((vv, -cc))[:k]
        return pa.table(
            {
                "query_id": g["query_id"].take(pa.array(sel)),
                "vec_id": pa.array(vv[sel], pa.int64()),
                "cosine_e6": pa.array(cc[sel], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial_topk, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(final_topk, batch_format="pyarrow")
        .sort(["query_id", "cosine_e6", "vec_id"], descending=[False, True, False])
    )


def _spherical_kmeans(sample: np.ndarray, n_centroids: int, seed: int, iters: int = 10) -> np.ndarray:
    """Deterministic spherical k-means on L2-normalized sample rows —
    the IVF coarse quantizer.  Driver-side on a bounded sample only."""
    rng = np.random.default_rng(seed)
    n = sample.shape[0]
    k = min(n_centroids, n)
    cents = sample[rng.choice(n, size=k, replace=False)]
    for _ in range(iters):
        assign = np.argmax(sample @ cents.T, axis=1)
        for c in range(k):
            members = sample[assign == c]
            if len(members):
                v = members.sum(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    cents[c] = v / nv
    return cents


def embedding_topk_ivf(
    sf_dir: str,
    n_queries: int = 5,
    k: int = 5,
    n_centroids: int = 16,
    n_probe: int = 4,
    sample_rows: int = 2048,
    seed: int = 42,
) -> ray.data.Dataset:
    """IVF (inverted-file) approximate top-k: a spherical-kmeans coarse
    quantizer (trained driver-side on a bounded sample, broadcast once)
    partitions vectors into ``n_centroids`` cells; each query scans only
    its ``n_probe`` nearest cells, cutting the scanned fraction to
    ~n_probe/n_centroids.  The Ray shape matches ``embedding_topk``
    exactly (broadcast query matrix + per-batch partial top-k + tiny
    merge) — only the per-batch candidate mask differs.  With
    ``n_probe == n_centroids`` the result is identical to the exact
    brute-force top-k (pinned by pytest); at the default probe width it
    is the approximate scale path (rows-only check)."""
    import pyarrow.parquet as pq

    # bounded training sample -> centroids (broadcast once)
    sample_t = (
        read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
        .limit(sample_rows)
        .to_pandas()
    )
    smat = np.array(list(sample_t["embedding"]), dtype=np.float64)
    nr = np.linalg.norm(smat, axis=1, keepdims=True)
    nr[nr == 0] = 1.0
    cents = _spherical_kmeans(smat / nr, n_centroids, seed)

    # query side: same pruned load as embedding_topk
    def bottom_ids(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"vec_id": pa.array(np.sort(v)[:n_queries], pa.int64())})

    cand = (
        read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
        .map_batches(bottom_ids, batch_format="pyarrow")
        .take_all()
    )
    query_ids = np.sort(np.asarray([r["vec_id"] for r in cand], dtype=np.int64))[
        :n_queries
    ]
    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", [int(x) for x in query_ids])],
    )
    q_order = np.argsort(_ids(qt["vec_id"]))
    qmat = _list_matrix(qt["embedding"])[q_order]
    qn = np.linalg.norm(qmat, axis=1, keepdims=True)
    qn[qn == 0] = 1.0
    qmat = qmat / qn
    # per query: the n_probe nearest cells
    probe = min(n_probe, cents.shape[0])
    q_cells = np.argsort(-(qmat @ cents.T), axis=1)[:, :probe]  # (nq, probe)
    ref = ray.put((query_ids, qmat, cents, q_cells))

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def partial_topk_ivf(t: pa.Table) -> pa.Table:
        qids, qm, cc, qcells = ray.get(ref)
        vids = _ids(t["vec_id"])
        mat = _list_matrix(t["embedding"])
        nrm = np.linalg.norm(mat, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        mat = mat / nrm
        cell = np.argmax(mat @ cc.T, axis=1)  # IVF cell per row
        out_q, out_v, out_c = [], [], []
        for qi in range(len(qids)):
            mask = np.isin(cell, qcells[qi]) & (vids != qids[qi])
            if not mask.any():
                continue
            vv = vids[mask]
            cos = mat[mask] @ qm[qi]
            cc_q = _q6(cos)
            top = min(k, len(vv))
            sel = np.lexsort((vv, -cc_q))[:top]
            out_q.extend([qids[qi]] * top)
            out_v.extend(vv[sel])
            out_c.extend(cc_q[sel])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cosine_e6": pa.array(out_c, pa.int64()),
            }
        )

    def final_topk(g: pa.Table) -> pa.Table:
        vv = _ids(g["vec_id"])
        cc = _ids(g["cosine_e6"])
        sel = np.lexsort((vv, -cc))[:k]
        return pa.table(
            {
                "query_id": g["query_id"].take(pa.array(sel)),
                "vec_id": pa.array(vv[sel], pa.int64()),
                "cosine_e6": pa.array(cc[sel], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial_topk_ivf, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(final_topk, batch_format="pyarrow")
        .sort(["query_id", "cosine_e6", "vec_id"], descending=[False, True, False])
    )


# Above this broadcast size the exact pair join switches from one full-matrix
# broadcast to a chunked block-nested-loop (VERDICT r3 #2: the unconditional
# full-matrix ray.put was O(n*d) per worker and loaded the whole table on the
# driver).  256 MB of float64 ~= 500k rows at dim 64.
ANN_PAIRS_BROADCAST_CAP_BYTES = 256 * 1024 * 1024


def embedding_neardup_pairs(
    sf_dir: str,
    threshold: float = 0.35,
    broadcast_cap_bytes: int = ANN_PAIRS_BROADCAST_CAP_BYTES,
) -> ray.data.Dataset:
    """Exact cosine near-dup pairs (id_a < id_b, cosine >= threshold).

    Below ``broadcast_cap_bytes`` (estimated n_rows * dim * 8): one
    full-matrix broadcast + block matmul per batch — the fast small-table
    path.  Above it: an exact chunked block-nested-loop — the broadcast
    side is split into row chunks each under the cap, and passes run
    SEQUENTIALLY: each chunk is ``ray.put``, its pass materializes to slim
    (id_a, id_b, cosine_e6) pair blocks rebuilt free of the chunk closure,
    and the chunk ref is dropped before the next is loaded — so the object
    store holds ONE chunk at a time plus pair rows, never the aggregate
    O(n * dim) matrix (ADVICE r4).  Each pass emits the pairs whose
    canonical-greater endpoint lives in its chunk, so each pair appears
    exactly once and results are IDENTICAL across the gate (pinned by
    tests/test_path_equivalence.py).  Exact all-pairs is inherently
    O(n^2) compute — ``embedding_neardup_lsh`` is the sub-quadratic
    approximate path for corpus-scale inputs."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/embeddings.parquet"
    pf = pq.ParquetFile(path)
    n_rows = pf.metadata.num_rows
    first = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
    dim = len(first["embedding"][0])
    ds = read_parquet_clean(path, columns=["vec_id", "embedding"])

    def make_block(ref):
        def block(t: pa.Table) -> pa.Table:
            all_ids, all_mat = ray.get(ref)
            vids = _ids(t["vec_id"])
            bm = _list_matrix(t["embedding"])
            nr = np.linalg.norm(bm, axis=1, keepdims=True)
            nr[nr == 0] = 1.0
            bm = bm / nr
            cos = bm @ all_mat.T  # (batch, chunk)
            bi, aj = np.where(cos >= threshold)
            keep = vids[bi] < all_ids[aj]  # canonical + excludes self
            bi, aj = bi[keep], aj[keep]
            return pa.table(
                {
                    "id_a": pa.array(vids[bi], pa.int64()),
                    "id_b": pa.array(all_ids[aj], pa.int64()),
                    "cosine_e6": pa.array(_q6(cos[bi, aj]), pa.int64()),
                }
            )

        return block

    est_bytes = n_rows * dim * 8
    if est_bytes <= broadcast_cap_bytes:
        ids, mat = _load_matrix(sf_dir)
        return ds.map_batches(make_block(ray.put((ids, mat))), batch_format="pyarrow").sort(
            ["id_a", "id_b"]
        )

    # chunked exact path: stream broadcast-side chunks off the parquet
    # file, ONE pass at a time — materialize each pass's slim pair blocks,
    # strip the plan (and with it the chunk-ref closure), then drop the
    # chunk ref so the store never holds more than one chunk concurrently
    from ..stages.exchange import concat_blocks

    chunk_rows = max(1, broadcast_cap_bytes // (dim * 8))
    passes = []
    carry: list[pa.RecordBatch] = []
    carry_n = 0

    def flush(batches: list[pa.RecordBatch]):
        t = pa.Table.from_batches(batches)
        ids = _ids(t["vec_id"])
        mat = _list_matrix(t["embedding"])
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        ref = ray.put((ids, mat / norms))
        part = ds.map_batches(make_block(ref), batch_format="pyarrow").materialize()
        # rebuild from the pair block refs only: the materialized plan's
        # closure pins `ref`; the rebuilt dataset does not
        part = concat_blocks(part)
        if part.num_blocks():
            passes.append(part)
        del ref

    for rb in pf.iter_batches(
        batch_size=min(chunk_rows, 65536), columns=["vec_id", "embedding"]
    ):
        carry.append(rb)
        carry_n += rb.num_rows
        if carry_n >= chunk_rows:
            flush(carry)
            carry, carry_n = [], 0
    if carry_n:
        flush(carry)

    if not passes:  # no pair anywhere above threshold
        return ray.data.from_arrow(
            pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "cosine_e6": pa.array([], pa.int64()),
                }
            )
        )
    out = passes[0]
    if len(passes) > 1:
        out = out.union(*passes[1:])
    return out.sort(["id_a", "id_b"])


def embedding_neardup_lsh(
    sf_dir: str, threshold: float = 0.35, n_planes: int = 6, seed: int = 42
) -> ray.data.Dataset:
    """Scale path: random-hyperplane (SimHash-for-vectors) bucketing, exact
    cosine verification per candidate pair.  Probabilistic recall — a pair
    at cosine s collides with prob (1 - acos(s)/pi)^n_planes per table;
    8 rotations raise it.  Rows-only correctness check.

    Scale shape (VERDICT r1 #7 fix): the bucket shuffle carries ONLY
    (tbl, bkey, vec_id) — vectors do NOT ride the shuffle x8 tables.
    Distinct candidate pairs are deduped first, then both endpoints'
    vectors (packed to binary) are re-attached by id in bounded driver
    chunks (``attach_pair_contents``) and verified exactly."""
    from ..stages.verify import attach_pair_contents

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    # probe the dimension from one row; size planes once
    first = ds.take(1)[0]
    dim = len(first["embedding"])
    rng = np.random.default_rng(seed)
    n_tables = 8
    planes = rng.standard_normal((n_tables, n_planes, dim))
    planes_ref = ray.put(planes)

    # 64 extra global planes make a per-vector SimHash ("vsig") that rides
    # the slim rows as the adjacency key for capped buckets: numerically
    # close vectors get close vsigs, so neighbor-chaining a hot bucket in
    # vsig order keeps true near-dups linked (ADVICE r2: with only
    # 2^n_planes = 64 buckets per table, bucket size is ~n/64 and the
    # unfiltered O(m^2) expansion grew quadratically)
    vsig_planes_ref = ray.put(rng.standard_normal((64, dim)))

    def bucketize_slim(t: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        vids = _ids(t["vec_id"])
        bm = _list_matrix(t["embedding"])
        nr = np.linalg.norm(bm, axis=1, keepdims=True)
        nr[nr == 0] = 1.0
        bm = bm / nr
        n = len(vids)
        gp = ray.get(vsig_planes_ref)
        bits = (bm @ gp.T) > 0  # (n, 64)
        w64 = (np.uint64(1) << np.arange(64, dtype=np.uint64))[None, :]
        vsig = (bits.astype(np.uint64) * w64).sum(axis=1, dtype=np.uint64)
        tables, keys, out_ids, out_sig = [], [], [], []
        weights = 1 << np.arange(pl.shape[1], dtype=np.int64)
        for ti in range(pl.shape[0]):
            signs = (bm @ pl[ti].T) >= 0  # (n, n_planes)
            key = (signs.astype(np.int64) * weights).sum(axis=1)
            tables.append(np.full(n, ti, dtype=np.int32))
            keys.append(key)
            out_ids.append(vids)
            out_sig.append(vsig)
        return pa.table(
            {
                "tbl": pa.array(np.concatenate(tables), pa.int32()),
                "bkey": pa.array(np.concatenate(keys), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_ids), pa.int64()),
                "vsig": pa.array(np.concatenate(out_sig), pa.uint64()),
            }
        )

    def bucket_pairs(g: pa.Table) -> pa.Table:
        m = g.num_rows
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
        if m < 2:
            return empty
        vids = _ids(g["vec_id"])
        if m > ANN_BUCKET_CAP:
            # hot bucket: chain vsig-sorted neighbors, O(m * w) not O(m^2)
            import logging

            logging.getLogger(__name__).warning(
                "embedding_neardup_lsh: bucket of %d members exceeds cap=%d; "
                "chaining %d neighbors per member",
                m,
                ANN_BUCKET_CAP,
                ANN_CAP_NEIGHBORS,
            )
            vsig = g["vsig"].to_numpy(zero_copy_only=False).astype(np.uint64)
            so = np.lexsort((vids, vsig))
            vids = vids[so]
            w = min(ANN_CAP_NEIGHBORS, m - 1)
            base = np.arange(m - 1)
            iu = np.concatenate([base[: m - d] for d in range(1, w + 1)])
            ju = np.concatenate([base[: m - d] + d for d in range(1, w + 1)])
        else:
            vids = np.sort(vids)
            iu, ju = np.triu_indices(m, k=1)
        a, b = vids[iu], vids[ju]
        swap = a > b
        return pa.table(
            {
                "id_a": pa.array(np.where(swap, b, a), pa.int64()),
                "id_b": pa.array(np.where(swap, a, b), pa.int64()),
            }
        )

    # pair dedup across the 8 tables: hash-partition + one vectorized
    # np.unique per partition (Ray's two-key groupby().aggregate()
    # measured ~160k rows/s on this box — the map_groups pattern is ~5x
    # faster)
    N_PAIR_PARTS = 64
    _GOLD = np.uint64(0x9E3779B97F4A7C15)

    def pair_pkey(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "id_a" not in t.column_names:
            return pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "ppk": pa.array([], pa.int32()),
                }
            )
        a = t["id_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = t["id_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = (a * _GOLD) ^ b
        return t.append_column(
            "ppk", pa.array((key % np.uint64(N_PAIR_PARTS)).astype(np.int32), pa.int32())
        )

    def pair_dedup(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "id_a" not in g.column_names:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
            )
        a = g["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = g["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        rec = np.stack([a, b], axis=1).view([("a", np.int64), ("b", np.int64)]).ravel()
        uniq = np.unique(rec)
        return pa.table(
            {
                "id_a": pa.array(uniq["a"], pa.int64()),
                "id_b": pa.array(uniq["b"], pa.int64()),
            }
        )

    from ..stages.exchange import hash_exchange

    pairs = hash_exchange(
        ds.map_batches(bucketize_slim, batch_format="pyarrow")
        .groupby(["tbl", "bkey"])
        .map_groups(bucket_pairs, batch_format="pyarrow")
        .map_batches(pair_pkey, batch_format="pyarrow"),
        "ppk",
        N_PAIR_PARTS,
        lambda t: pair_dedup(t.drop_columns(["ppk"])),
    )

    # vectors packed to binary (Arrow's hash join rejects list payloads)
    def pack(t: pa.Table) -> pa.Table:
        bm = _list_matrix(t["embedding"])
        nr = np.linalg.norm(bm, axis=1, keepdims=True)
        nr[nr == 0] = 1.0
        bm = bm / nr
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "vecbin": pa.array([v.tobytes() for v in bm], pa.large_binary()),
            }
        )

    vec_ds = ds.map_batches(pack, batch_format="pyarrow")
    withv = attach_pair_contents(pairs, vec_ds, id_col="vec_id")
    if withv is None:
        return ray.data.from_arrow(
            pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        )

    def verify(t: pa.Table) -> pa.Table:
        va = _binary_matrix(t["vecbin_a"])
        vb = _binary_matrix(t["vecbin_b"])
        cc = (va * vb).sum(axis=1)
        keep = cc >= threshold
        return pa.table(
            {
                "id_a": t["id_a"],
                "id_b": t["id_b"],
                "cosine": pa.array(np.round(cc, 6), pa.float64()),
            }
        ).filter(pa.array(keep))

    return withv.map_batches(verify, batch_format="pyarrow").sort(["id_a", "id_b"])


KMEANS_K = 8
KMEANS_ITERS = 5


# per-row member-vector components are snapped to this integer grid before
# summation, making the per-cluster vector sum EXACT int64 arithmetic —
# associative and commutative — so Ray's nondeterministic aggregate merge
# order cannot perturb the result.  Headroom: |component| <= 1 after L2
# normalization, so a cluster needs > 9.2e9 members to overflow int64.
_KMEANS_ROW_SCALE = 1_000_000_000


def _q9_rows(m: np.ndarray) -> np.ndarray:
    """e9 int64 grid of an L2-normalized matrix (shared kernel)."""
    from ..functions.hashing import quantize_half_away

    return quantize_half_away(m, float(_KMEANS_ROW_SCALE))


def _kmeans_centroids_distributed(
    ds: ray.data.Dataset, k: int, iters: int
) -> np.ndarray:
    """Distributed spherical k-means centroid iteration over a MATERIALIZED
    (vec_id, embedding) dataset: per iteration, centroids are broadcast
    once (``ray.put``), every batch folds its rows into per-cluster int64
    component sums (vectorized ``np.add.at`` on the e9-quantized member
    vectors), and a DISTRIBUTED ``groupby(cid, dim).Sum`` merges the
    partials — the driver only ever sees the k*dim reduced rows, which it
    must hold anyway to broadcast the next round's centroids.  No
    O(k * n_blocks) driver fold (VERDICT r4 item 1); the full matrix never
    leaves the workers; driver state is O(k * dim).

    Determinism: init = the k lowest vec_ids' vectors (two-level bottom-k,
    driver sees k rows); per-row e9 quantization makes every per-cluster
    sum exact integer arithmetic, so the result is independent of batch
    boundaries AND of Ray's aggregate merge order.  Centroids are
    e6-quantized at every iteration boundary.  The pure-numpy replay
    (``kmeans_centroids_replay``) applies the identical e9-then-sum chain,
    so it matches bit-for-bit — that replay feeds the DuckDB oracles of
    every consumer (``embedding_kmeans``, ``semdedup_embeddings``)."""

    def _norm(m: np.ndarray) -> np.ndarray:
        nr = np.linalg.norm(m, axis=1, keepdims=True)
        nr[nr == 0] = 1.0
        return m / nr

    # deterministic init: vectors of the k lowest vec_ids.  Two-level
    # bottom-k — per-batch bottom-k, then a distributed sort + limit over
    # the <= k*n_blocks survivors — so the driver pulls exactly k rows
    # even at SemDeDup's k ~ n/4096 scale.
    def bottom(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(v)[:k]
        return pa.table(
            {"vec_id": t["vec_id"].take(order), "embedding": t["embedding"].take(order)}
        )

    seed_rows = (
        ds.map_batches(bottom, batch_format="pyarrow")
        .sort("vec_id")
        .limit(k)
        .take_all()
    )
    cents = _quant6_mat(
        _norm(np.array([r["embedding"] for r in seed_rows], dtype=np.float64))
    )

    empty_partial = pa.table(
        {
            "cid": pa.array([], pa.int64()),
            "dim": pa.array([], pa.int64()),
            "s": pa.array([], pa.int64()),
        }
    )

    for _ in range(iters):
        cref = ray.put(cents)

        def partial(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return empty_partial
            c = ray.get(cref)
            m = _norm(_list_matrix(t["embedding"]))
            assign = np.argmax(m @ c.T, axis=1)
            # only clusters present in this batch emit rows: <= min(k, B)
            # cids x dim slim int64 rows per batch
            cids, lidx = np.unique(assign, return_inverse=True)
            d = m.shape[1]
            acc = np.zeros((len(cids), d), dtype=np.int64)
            np.add.at(acc, lidx, _q9_rows(m))
            return pa.table(
                {
                    "cid": pa.array(np.repeat(cids.astype(np.int64), d), pa.int64()),
                    "dim": pa.array(np.tile(np.arange(d), len(cids)), pa.int64()),
                    "s": pa.array(acc.ravel(), pa.int64()),
                }
            )

        reduced = (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["cid", "dim"])
            .aggregate(Sum("s", alias_name="s"))
            .take_all()
        )  # exactly (#non-empty cids) * dim rows — O(k * dim), not O(k * n_blocks)
        new = cents.copy()
        d = cents.shape[1]
        vsum = np.zeros((len(cents), d), dtype=np.int64)
        seen = np.zeros(len(cents), dtype=bool)
        for r in reduced:
            vsum[r["cid"], r["dim"]] = r["s"]
            seen[r["cid"]] = True
        vf = vsum.astype(np.float64) / _KMEANS_ROW_SCALE
        nv = np.linalg.norm(vf, axis=1)
        upd = seen & (nv > 0)
        new[upd] = vf[upd] / nv[upd, None]
        # e6 grid between iterations: re-syncs the numpy replay with the
        # distributed run no matter how blocks were batched
        cents = _quant6_mat(new)
    return cents


def embedding_kmeans(
    sf_dir: str, k: int = KMEANS_K, iters: int = KMEANS_ITERS
) -> ray.data.Dataset:
    """Per-cluster stats of a distributed spherical k-means over the FULL
    embedding table (the iterative-algorithm execution shape, unlike the
    IVF coarse quantizer which trains on a driver-side sample) — see
    ``_kmeans_centroids_distributed`` for the iteration + determinism
    contract.  The DuckDB oracle embeds the replayed centroids as literals
    and independently re-derives the final assignment + stats pass."""
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()  # consumed iters+1 times; slim 2-column table
    cents = _kmeans_centroids_distributed(ds, k, iters)

    def _norm(m: np.ndarray) -> np.ndarray:
        nr = np.linalg.norm(m, axis=1, keepdims=True)
        nr[nr == 0] = 1.0
        return m / nr

    # final stats pass: per-cluster size + mean cosine to centroid
    cref = ray.put(cents)

    def stats(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _norm(_list_matrix(t["embedding"]))
        sims = m @ c.T
        assign = np.argmax(sims, axis=1)
        best = sims[np.arange(len(m)), assign]
        kk = len(c)
        return pa.table(
            {
                "cluster_id": pa.array(np.arange(kk), pa.int64()),
                "n_members": pa.array(
                    np.bincount(assign, minlength=kk).astype(np.int64), pa.int64()
                ),
                "cos_sum": pa.array(
                    np.bincount(assign, weights=best, minlength=kk), pa.float64()
                ),
            }
        )

    agg = (
        ds.map_batches(stats, batch_format="pyarrow")
        .groupby("cluster_id")
        .aggregate(
            Sum("n_members", alias_name="n_members"),
            Sum("cos_sum", alias_name="cos_sum"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n_members"].to_numpy(zero_copy_only=False).astype(np.int64)
        cs = t["cos_sum"].to_numpy(zero_copy_only=False)
        out = pa.table(
            {
                "cluster_id": t["cluster_id"],
                "n_members": pa.array(n, pa.int64()),
                "mean_cos": pa.array(cs / np.maximum(n, 1), pa.float64()),
            }
        )
        return quantize(out, ["mean_cos"], scale=1_000_000, suffix="_e6")

    return agg.map_batches(finish, batch_format="pyarrow").sort("cluster_id")


def kmeans_centroids_replay(
    sf_dir: str, k: int = KMEANS_K, iters: int = KMEANS_ITERS
) -> np.ndarray:
    """Pure-numpy single-process replay of ``embedding_kmeans``'s centroid
    iteration — same deterministic init (k lowest vec_ids), same per-row
    e9 integer quantization before the per-cluster sum, same per-iteration
    e6 centroid quantization.  Because the member-vector sum is exact
    int64 arithmetic in both replicas, this matches the distributed run
    bit-for-bit at ANY batch/merge order.  Feeds the DuckDB oracle's
    centroid literals; also pinned directly by pytest."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = _ids(t["vec_id"])
    mat = _list_matrix(t["embedding"])
    nr = np.linalg.norm(mat, axis=1, keepdims=True)
    nr[nr == 0] = 1.0
    m = mat / nr
    q = _q9_rows(m)
    order = np.argsort(ids, kind="stable")
    cents = _quant6_mat(m[order[:k]])
    for _ in range(iters):
        assign = np.argmax(m @ cents.T, axis=1)
        new = cents.copy()
        for ci in range(len(cents)):
            sel = assign == ci
            if sel.any():
                v = q[sel].sum(axis=0).astype(np.float64) / _KMEANS_ROW_SCALE
                nv = np.linalg.norm(v)
                if nv > 0:
                    new[ci] = v / nv
        cents = _quant6_mat(new)
    return cents


def label_centroids(sf_dir: str) -> ray.data.Dataset:
    """Per-label centroid and per-dimension variance of the embedding
    column (class prototypes / dataset cartography for training-data
    selection).

    Scale shape: the canonical moment-sketch plan — each batch folds its
    rows into per-label (sum, sumsq, count) partial moments, so the only
    exchange carries labels x dims slim rows; mean and population variance
    close from the merged moments (var = E[x^2] - mean^2).  Mirrored in
    SQL via unnest + generate_subscripts over the same float32 values."""
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "label": pa.array([], pa.int64()),
                    "dim": pa.array([], pa.int64()),
                    "s1": pa.array([], pa.float64()),
                    "s2": pa.array([], pa.float64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        mat = _list_matrix(t["embedding"]).astype(np.float64)
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        labels, lidx = np.unique(lab, return_inverse=True)
        d = mat.shape[1]
        s1 = np.zeros((len(labels), d))
        s2 = np.zeros((len(labels), d))
        np.add.at(s1, lidx, mat)
        np.add.at(s2, lidx, mat * mat)
        n = np.bincount(lidx, minlength=len(labels)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(labels, d), pa.int64()),
                "dim": pa.array(np.tile(np.arange(1, d + 1), len(labels)), pa.int64()),
                "s1": pa.array(s1.ravel(), pa.float64()),
                "s2": pa.array(s2.ravel(), pa.float64()),
                "n": pa.array(np.repeat(n, d), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["label", "dim"])
        .aggregate(
            Sum("s1", alias_name="s1"),
            Sum("s2", alias_name="s2"),
            Sum("n", alias_name="n_vecs"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        s1 = t["s1"].to_numpy(zero_copy_only=False)
        s2 = t["s2"].to_numpy(zero_copy_only=False)
        n = t["n_vecs"].to_numpy(zero_copy_only=False).astype(np.float64)
        mean = s1 / n
        var = s2 / n - mean * mean
        out = pa.table(
            {
                "label": t["label"],
                "dim": t["dim"],
                "centroid": pa.array(mean, pa.float64()),
                "variance": pa.array(var, pa.float64()),
                "n_vecs": t["n_vecs"],
            }
        )
        return quantize(out, ["centroid", "variance"], scale=1_000_000, suffix="_e6")

    return agg.map_batches(finish, batch_format="pyarrow").sort(["label", "dim"])


SEMDEDUP_TAU = 0.35
# within-cluster dominance matmuls run in row chunks of this size, so a
# pathological mega-cluster costs O(chunk * g * dim) memory, never O(g^2)
_SEMDEDUP_CHUNK = 2048
# auto-k targets ~this many rows per kmeans cluster, so per-cluster
# dominance work stays O(target^2 * dim) regardless of corpus size (the
# SemDeDup paper scales k with n for exactly this reason)
SEMDEDUP_TARGET_CLUSTER = 4096


def semdedup_embeddings(
    sf_dir: str,
    threshold: float = SEMDEDUP_TAU,
    k: Optional[int] = None,
    iters: int = KMEANS_ITERS,
) -> ray.data.Dataset:
    """Semantic dedup over the embedding table (SemDeDup, Abbas et al.
    2023, arXiv:2303.09540): spherical k-means clusters the corpus, then
    WITHIN each cluster any pair with cosine >= threshold is a semantic
    duplicate and only one member survives.  Keep rule (the paper's
    low-centroid-similarity preference, made deterministic): a row is
    dropped iff some same-cluster row with strictly lower
    (cent_cos_e6, vec_id) is >= threshold-similar to it — a pairwise
    dominance relation, not an order-dependent greedy sweep, so the result
    is independent of Ray block order AND directly expressible as a SQL
    EXISTS (the DuckDB oracle replays it verbatim).

    Scale shape: centroids iterate distributed
    (``_kmeans_centroids_distributed`` — driver holds O(k * dim)); one
    broadcast assignment pass tags each row; ONE hash shuffle on
    cluster_id co-locates clusters; per-cluster dominance runs as chunked
    matmuls (O(chunk * g * dim) worker memory).  Per-cluster work is
    O(g^2 * dim) — the method's published cost — so k auto-scales with the
    corpus (k = max(KMEANS_K, n / SEMDEDUP_TARGET_CLUSTER), the paper's
    k ~ n scaling) unless pinned explicitly; at the driver's scales the
    auto value collapses to KMEANS_K, keeping kmeans-oracle parity.  The
    centroid iteration reduces via a distributed (cid, dim) groupby Sum,
    so driver state stays O(k * dim) even at the paper's k ~ n regime.

    Returns (vec_id, cluster_id, cent_cos_e6, is_kept) sorted by vec_id,
    with is_kept as int64 0/1 (dtype-stable across engines)."""
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()  # consumed iters+2 times; slim 2-column table
    if k is None:
        n_rows = ds.count()  # metadata-only on the materialized table
        k = max(KMEANS_K, -(-n_rows // SEMDEDUP_TARGET_CLUSTER))
    cents = _kmeans_centroids_distributed(ds, k, iters)
    cref = ray.put(cents)
    tau_e6 = int(round(threshold * 1e6))

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _list_matrix(t["embedding"])
        nr = np.linalg.norm(m, axis=1, keepdims=True)
        nr[nr == 0] = 1.0
        m = m / nr
        sims = m @ c.T
        a = np.argmax(sims, axis=1)
        best = sims[np.arange(len(m)), a]
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "cluster_id": pa.array(a.astype(np.int64), pa.int64()),
                "cent_cos_e6": pa.array(_q6(best), pa.int64()),
                "embedding": t["embedding"],
            }
        )

    def prune(g: pa.Table) -> pa.Table:
        ids = _ids(g["vec_id"])
        cent = g["cent_cos_e6"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cluster_id": pa.array([], pa.int64()),
                    "cent_cos_e6": pa.array([], pa.int64()),
                    "is_kept": pa.array([], pa.int64()),
                }
            )
        m = _list_matrix(g["embedding"])
        nr = np.linalg.norm(m, axis=1, keepdims=True)
        nr[nr == 0] = 1.0
        m = m / nr
        # priority order: farthest-from-centroid first (SemDeDup keeps the
        # most atypical member of a duplicate pair), vec_id tie-break
        order = np.lexsort((ids, cent))
        ms = m[order]
        n = len(ids)
        dropped_sorted = np.zeros(n, dtype=bool)
        for a in range(0, n, _SEMDEDUP_CHUNK):
            b = min(a + _SEMDEDUP_CHUNK, n)
            # rows [a:b) can only be dominated by strictly earlier rows
            cos = _q6(ms[a:b] @ ms[:b].T)
            ge = cos >= tau_e6
            allowed = np.arange(b)[None, :] < np.arange(a, b)[:, None]
            dropped_sorted[a:b] = (ge & allowed).any(axis=1)
        dropped = np.zeros(n, dtype=bool)
        dropped[order] = dropped_sorted
        return pa.table(
            {
                "vec_id": g["vec_id"],
                "cluster_id": g["cluster_id"],
                "cent_cos_e6": g["cent_cos_e6"],
                "is_kept": pa.array((~dropped).astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("cluster_id")
        .map_groups(prune, batch_format="pyarrow")
        .sort("vec_id")
    )


def knn_graph_embeddings(
    sf_dir: str,
    k: int = 3,
    broadcast_cap_bytes: int = ANN_PAIRS_BROADCAST_CAP_BYTES,
) -> ray.data.Dataset:
    """Exact cosine kNN graph: for EVERY vector, its ``k`` most-similar
    other vectors (cosine desc, vec_id tie-break) — the all-points twin of
    ``embedding_topk`` and the building block of dataset-map / SemDeDup /
    recall-eval workflows.

    Same size gate as ``embedding_neardup_pairs``: below the cap, one
    full-matrix broadcast and a single scan emits each row's final top-k
    directly.  Above it, sequential chunk passes emit per-chunk PARTIAL
    top-k rows (k rows per query per chunk, the store holds one chunk at
    a time), each folded into a running top-k by a slim hash exchange on
    query_id.  The broadcast
    side is sorted by vec_id so a stable argsort on the quantized
    similarities breaks ties by vec_id ascending WITHOUT a per-row Python
    loop.  Exact kNN is inherently O(n^2/chunk) compute — the IVF/LSH
    twins are the corpus-scale approximate paths."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/embeddings.parquet"
    pf = pq.ParquetFile(path)
    n_rows = pf.metadata.num_rows
    if n_rows == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "cosine_e6": pa.array([], pa.int64()),
                }
            )
        )
    first = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
    dim = len(first["embedding"][0])
    ds = read_parquet_clean(path, columns=["vec_id", "embedding"])

    def make_partial(ref, per_chunk_k):
        def partial(t: pa.Table) -> pa.Table:
            all_ids, all_mat = ray.get(ref)  # sorted by vec_id ascending
            vids = _ids(t["vec_id"])
            bm = _list_matrix(t["embedding"])
            nr = np.linalg.norm(bm, axis=1, keepdims=True)
            nr[nr == 0] = 1.0
            bm = bm / nr
            cq = _q6(bm @ all_mat.T)  # (batch, chunk) micro-cosine
            # self-mask: all_ids sorted -> searchsorted finds own column
            pos = np.searchsorted(all_ids, vids)
            hit = (pos < len(all_ids)) & (all_ids[np.minimum(pos, len(all_ids) - 1)] == vids)
            cq[np.nonzero(hit)[0], pos[hit]] = np.iinfo(np.int64).min
            # take k+1 so a masked self column can't eat a top-k slot,
            # then re-trim per row after dropping it
            kk = min(per_chunk_k + 1, cq.shape[1])
            # stable argsort of -cq: ties keep column order = vec_id asc
            order = np.argsort(-cq, axis=1, kind="stable")[:, :kk]
            nb = cq.shape[0]
            rows = np.repeat(np.arange(nb), kk)
            cols = order.ravel()
            sel = cq[rows, cols]
            is_self = (sel == np.iinfo(np.int64).min).reshape(nb, kk)
            drops_before = np.cumsum(is_self, axis=1) - is_self
            rank = np.tile(np.arange(kk), nb).reshape(nb, kk) - drops_before
            keep = (~is_self & (rank < per_chunk_k)).ravel()
            return pa.table(
                {
                    "query_id": pa.array(vids[rows[keep]], pa.int64()),
                    "vec_id": pa.array(all_ids[cols[keep]], pa.int64()),
                    "cosine_e6": pa.array(sel[keep], pa.int64()),
                }
            )

        return partial

    est_bytes = n_rows * dim * 8
    if est_bytes <= broadcast_cap_bytes:
        ids, mat = _load_matrix(sf_dir)
        order = np.argsort(ids)
        ref = ray.put((ids[order], mat[order]))
        return ds.map_batches(make_partial(ref, k), batch_format="pyarrow").sort(
            ["query_id", "vec_id"]
        )

    # chunked path: row-sorted chunk passes (same one-chunk-at-a-time
    # store discipline as embedding_neardup_pairs), each folded into a
    # running per-query top-k by one slim hash exchange on query_id, so the
    # retained rows stay at most 2 * n_queries * k whatever the chunk count
    from ..stages.exchange import (
        concat_blocks,
        exchange_partitions,
        hash_exchange,
        map_blocks,
    )
    n_part = exchange_partitions()

    def add_pkey(t: pa.Table) -> pa.Table:
        q = t["query_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        from ..functions.hashing import splitmix64

        pk = (splitmix64(q.copy()) % np.uint64(n_part)).astype(np.int32)
        return t.append_column("pkey", pa.array(pk, pa.int32()))

    def merge_topk(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["pkey"])
        q = _ids(t["query_id"])
        v = _ids(t["vec_id"])
        c = t["cosine_e6"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((v, -c, q))
        qs, vs, cs = q[order], v[order], c[order]
        # rank within query group, vectorized
        grp_start = np.ones(len(qs), bool)
        grp_start[1:] = qs[1:] != qs[:-1]
        idx = np.arange(len(qs))
        start_idx = np.maximum.accumulate(np.where(grp_start, idx, 0))
        rank = idx - start_idx
        keep = rank < k
        return pa.table(
            {
                "query_id": pa.array(qs[keep], pa.int64()),
                "vec_id": pa.array(vs[keep], pa.int64()),
                "cosine_e6": pa.array(cs[keep], pa.int64()),
            }
        )

    chunk_rows = max(1, broadcast_cap_bytes // (dim * 8))
    running = None  # top-k per query over the chunks passed so far
    carry: list[pa.RecordBatch] = []
    carry_n = 0

    def flush(batches):
        nonlocal running
        # sort the chunk by vec_id so the stable in-chunk argsort breaks
        # ties vec_id-ascending; cross-chunk ties are value-resolved in
        # merge_topk (per-chunk top-k under the same total order is
        # union-safe for the global top-k)
        t = pa.Table.from_batches(batches)
        ids = _ids(t["vec_id"])
        order = np.argsort(ids)
        ids = ids[order]
        mat = _list_matrix(t["embedding"])[order]
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        ref = ray.put((ids, mat / norms))
        part = ds.map_batches(make_partial(ref, k), batch_format="pyarrow").materialize()
        del ref
        part = concat_blocks(part)
        if not part.num_blocks():
            return
        # a single pass already holds at most k rows per query
        running = part if running is None else hash_exchange(
            map_blocks(concat_blocks(running, part), add_pkey),
            "pkey",
            n_part,
            merge_topk,
        )

    for rb in pf.iter_batches(
        batch_size=min(chunk_rows, 65536), columns=["vec_id", "embedding"]
    ):
        carry.append(rb)
        carry_n += rb.num_rows
        if carry_n >= chunk_rows:
            flush(carry)
            carry, carry_n = [], 0
    if carry_n:
        flush(carry)
    if running is None:  # e.g. a 1-row table: the self-mask drops every candidate
        return ray.data.from_arrow(
            pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "cosine_e6": pa.array([], pa.int64()),
                }
            )
        )
    return running.sort(["query_id", "vec_id"])
