"""LSH band-hash candidate generation + pair verification.

Replaces the reference's all-vs-all dense distance matrix
(``lasvdedup/utils/distance_matrix.py:10-43``) with a banded-MinHash
self-join keyed by ``(band, band_hash)``.  Every plan bands the low 16
bits of each signature slot (``_sig16`` + ``_band_keys``, the one band-key
kernel), and ``candidate_pairs`` runs three steps:

1. signature transport: at or below ``_BROADCAST_ROWS`` rows the sig16
   signatures ship once as a driver-assembled, hash-indexed broadcast blob;
   above it they ride inline in the band rows;
2. hot/capped bucket sets: the combined (band, bh) keys with >= 2 members
   (hot) and > ``band_cap`` members (capped), derived on the driver from
   the blob's sig16 matrix while it has at most ``_DRIVER_HOT_ROWS`` rows,
   else counted by a key ``hash_exchange`` (``_count_hot_sets``);
3. one band-row emitter (``_make_band_row_emitter``) ships only the
   (row, band) rows of hot buckets — ``band, bh, simhash, cmask, pkey``
   plus the payload, ``idh`` under the store or ``id`` + ``sig16`` inline
   — through a ``hash_exchange`` on ``pkey = bh & (P-1)``, and
   ``make_partition_pair_emitter`` verifies each partition's buckets
   (estimated Jaccard over sig16) and emits each pair in its canonical
   band.

Skew handling (north_rule): a band bucket larger than ``band_cap``
(boilerplate/license-header hot keys) is NOT expanded O(m^2); its members
are sorted by SimHash (similar docs adjacent w.h.p.) and each links to its
``cap_neighbors`` successors — preserving intra-bucket connectivity for
true dup runs while bounding work to O(m * cap_neighbors).  Truncation is
observable via ``band_stats`` (bucket-size histogram + dropped-pair counts).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count

from ..config import LSHConfig, SignatureConfig
from ..functions.hashing import band_hashes, bloom_build, bloom_probe, id_hash64, splitmix64 as _smx64
from .exchange import (
    block_tables,
    dataset_from_tables,
    hash_exchange,
    map_blocks,
    worker_get,
)
from .signatures import sig_matrix_from_column

# signatures ship as the broadcast blob up to this many rows (step 1
# above).  It bounds DRIVER RAM: the driver assembles the blob, ~300 MB of
# sig16 + ids + id hashes at 1M rows, held up to three times while it
# sorts.  Inline transport on every job cost > 25% ``run_cpu_s`` on both
# benchmark workloads.
_BROADCAST_ROWS = 1_000_000

# the counted hot-key set is held exactly (a sorted uint64 array) while it
# has at most this many keys; above, as a fixed-size two-probe bloom bitmap
# (bounded driver memory -- a false positive only ships one extra row into
# the band shuffle, never drops a pair)
_HOT_EXACT_KEYS = 4_000_000

# the hot/capped bucket sets come from the driver-held sig16 matrix (one
# serial np.unique over rows * bands keys, ~3.4 s at 600k rows) only up to
# this many rows; larger inputs count them with a key hash_exchange
_DRIVER_HOT_ROWS = 100_000

# raw bucket pairs per compare chunk in the pair emitter: the chunk's
# temporaries fit a core-private L2 (see make_partition_pair_emitter)
_PAIR_CHUNK = 1024


PAIR_SCHEMA = pa.schema(
    [("id_a", pa.string()), ("id_b", pa.string()), ("est_distance", pa.float64())]
)


def sig16_matrix(col: pa.ChunkedArray | pa.Array, num_perms: int) -> np.ndarray:
    """Zero-copy decode of the fixed_size_binary(num_perms*2) sig16 column
    into a (n, num_perms) uint16 matrix."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, num_perms), dtype=np.uint16)
    buf = col.buffers()[1]
    off = col.offset * num_perms * 2
    return np.frombuffer(
        buf, dtype=np.uint16, count=n * num_perms, offset=off
    ).reshape(n, num_perms)


def _hash_combine(band_arr: np.ndarray, bh_arr: np.ndarray) -> np.ndarray:
    """64-bit combined (band, bh) bucket key; a false collision only ships
    one extra row into the shuffle (never drops a hot row)."""
    return _smx64(bh_arr.astype(np.uint64) ^ _smx64(band_arr.astype(np.uint64)))


def _in_sorted(arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Membership of ``vals`` in the sorted uint64 array ``arr``."""
    if not len(arr):
        return np.zeros(len(vals), dtype=bool)
    pos = np.searchsorted(arr, vals)
    pos[pos >= len(arr)] = len(arr) - 1
    return arr[pos] == vals


def _member(struct, comb: np.ndarray) -> np.ndarray:
    """Hot-bucket membership against either representation: ("exact",
    sorted-keys) or ("bloom", bitmap)."""
    if struct[0] == "exact":
        return _in_sorted(struct[1], comb)
    return bloom_probe(struct[1], comb)


def _sig16(minhash_col, num_perms: int) -> np.ndarray:
    """(n, num_perms) uint16: the low 16 bits of each signature slot.

    Every plan bands, verifies and canonically emits over these slots:
    16-bit slot-equality false positives occur with probability 1/65536,
    biasing the Jaccard estimate by ~1.5e-5 and mis-skipping canonical
    emission with probability ~1e-4 per pair — both negligible against the
    recall budget — while halving every signature payload."""
    sigs = sig_matrix_from_column(minhash_col, num_perms)
    return (sigs & np.uint32(0xFFFF)).astype(np.uint16)


def _band_keys(sig16: np.ndarray, bands: int, rows: int):
    """``(band, bh, comb)`` of every (row, band), row-major (row 0 bands
    0..b-1, row 1 ...): the band index (int64), the band hash (uint64) and
    the combined 64-bit bucket key.  A band whose sig16 slots agree hashes
    equal; false band collisions from the dropped high bits are ~2^-64 per
    pair-band, and every candidate is verified against the full sig16."""
    bh = band_hashes(sig16, bands, rows).reshape(-1)
    band = np.tile(np.arange(bands, dtype=np.int64), sig16.shape[0])
    return band, bh, _hash_combine(band, bh)


def _sig16_column(sig16: np.ndarray) -> pa.Array:
    """fixed_size_binary(num_perms*2) column over a (n, num_perms) uint16
    matrix (``sig16_matrix`` decodes it)."""
    sig16 = np.ascontiguousarray(sig16)
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(sig16.shape[1] * 2), sig16.shape[0], [None, pa.py_buffer(sig16.tobytes())]
    )


def _make_store_row_fn(sig_cfg: SignatureConfig):
    """Block fn: (id, minhash) -> (idh, sig16-binary, id) store rows, built
    on the driver by ``_build_sig_store``."""

    def to_store_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "idh": pa.array(id_hash64(t.column("id")), pa.uint64()),
                "sig": _sig16_column(_sig16(t.column("minhash"), sig_cfg.num_perms)),
                "id": t.column("id"),
            }
        )

    return to_store_rows


def _build_sig_store(signed_slim: ray.data.Dataset, sig_cfg: SignatureConfig):
    """Assemble the broadcast signature store: one idh-sorted (idh, sig16,
    ids) blob in plasma (``ray.put`` once; zero-copy reads, one physical
    copy per node), built here from the blocks read by ref.  Returns
    ``(store_ref, sig16_matrix)`` — the matrix is handed back so the caller
    can derive the hot/capped bucket sets driver-side without a second
    pass.  Returns ``(None, None)`` on a 64-bit id-hash collision between
    two distinct ids (ADVICE r2: searchsorted would silently resolve both
    to one signature and emit pairs with wrong ids) — callers then fall
    back to inline signature transport."""
    to_store_rows = _make_store_row_fn(sig_cfg)
    idh_parts, sig_parts, id_parts = [], [], []
    for b in map(to_store_rows, block_tables(signed_slim)):
        idh_parts.append(b.column("idh").to_numpy(zero_copy_only=False).astype(np.uint64))
        sig_parts.append(sig16_matrix(b.column("sig"), sig_cfg.num_perms))
        id_parts.extend(b.column("id").chunks)
    if not idh_parts:
        return None, None
    idh_all = np.concatenate(idh_parts)
    order = np.argsort(idh_all, kind="stable")
    idh_sorted = idh_all[order]
    if idh_sorted.size > 1 and bool(np.any(idh_sorted[1:] == idh_sorted[:-1])):
        import logging

        logging.getLogger(__name__).warning(
            "id-hash collision in broadcast signature store (n=%d): "
            "falling back to inline signature transport",
            idh_sorted.size,
        )
        return None, None
    sig16_sorted = np.ascontiguousarray(np.vstack(sig_parts)[order])
    # ids stay an ARROW string array: its buffers travel out-of-band
    # through plasma (zero-copy per worker), instead of an object ndarray
    # whose unpickle materializes n Python strings in every worker process
    ids_sorted = pa.concat_arrays(
        [c.cast(pa.string()) for c in id_parts]
    ).take(pa.array(order, pa.int64()))
    ref = ray.put((idh_sorted, sig16_sorted, ids_sorted))
    return ref, sig16_sorted


def _derive_hot_sets(sig16: np.ndarray, sig_cfg: SignatureConfig, band_cap: int):
    """Hot/capped bucket sets from the driver's sig16 matrix: one vectorized
    band-hash + unique pass.  Returns ``(("exact", sorted hot keys), sorted
    capped keys)``, the shape ``_count_hot_sets`` returns."""
    comb = _band_keys(sig16, sig_cfg.bands, sig_cfg.rows)[2]
    uniq, cnt = np.unique(comb, return_counts=True)  # sorted keys
    return ("exact", uniq[cnt >= 2]), uniq[cnt > band_cap]


def _make_band_row_emitter(sig_cfg: SignatureConfig, num_partitions: int, hot, inline: bool):
    """Block fn: (id, minhash, simhash) -> one row per (row, band) whose
    bucket is hot (>= 2 members): ``band, bh, simhash, cmask, pkey`` plus
    the signature payload — ``idh`` (~40 B rows; signatures come from the
    broadcast store) or, ``inline``, ``id`` + ``sig16``.  ``cmask`` is the
    row's bitmask of capped bands.  Hot rows are selected before any
    payload is gathered.  ``hot()`` returns the ``(hot, capped)`` sets."""
    bands, num_perms = sig_cfg.bands, sig_cfg.num_perms
    band_bits = np.arange(bands, dtype=np.uint64)

    def emit(t: pa.Table) -> pa.Table:
        sig16 = _sig16(t.column("minhash"), num_perms)
        band, bh, comb = _band_keys(sig16, bands, sig_cfg.rows)
        hot_struct, capped = hot()
        capped_bits = _in_sorted(capped, comb).reshape(-1, bands).astype(np.uint64)
        cmask = np.bitwise_or.reduce(capped_bits << band_bits, axis=1)
        keep = _member(hot_struct, comb)
        bh = bh[keep]
        rep = np.repeat(np.arange(t.num_rows, dtype=np.int64), bands)[keep]
        sim = t.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        cols = {
            "band": pa.array(band[keep].astype(np.int32), pa.int32()),
            "bh": pa.array(bh, pa.uint64()),
            "simhash": pa.array(sim[rep], pa.uint64()),
            "cmask": pa.array(cmask[rep], pa.uint64()),
            "pkey": pa.array((bh & np.uint64(num_partitions - 1)).astype(np.int32), pa.int32()),
        }
        if inline:
            cols["id"] = t.column("id").take(pa.array(rep))
            cols["sig16"] = _sig16_column(sig16[rep])
        else:
            cols["idh"] = pa.array(id_hash64(t.column("id"))[rep], pa.uint64())
        return pa.table(cols)

    return emit


def make_partition_pair_emitter(
    sig_cfg: SignatureConfig,
    lsh_cfg: LSHConfig,
    tau: float,
    sig_store_ref=None,
):
    """``hash_exchange`` reducer over one reduce task's band rows (every
    bucket of a run of hash partitions, many buckets per call): sorts the
    rows by (band, bh), finds bucket boundaries vectorized, and only loops
    Python over buckets with >= 2 members — Ray-groupby-per-bucket would
    make one Python call per (band, bh) bucket (~32x corpus size, mostly
    singletons), which dominates wall time.  Its fixed cost per call is
    paid once per task: on the 15,325 band rows of a 1,000-file job, 16
    calls (one per pkey) took 54 ms of CPU and one call 34 ms
    (``bench.py --kernels``, ``pair_emit_per_pkey`` / ``pair_emit``).

    Emits verified pairs (est Jaccard distance <= tau, inclusive — the
    reference pins ``<=`` at ``sequence_grouping.py:53``).  Callers pass
    ``tau + exact_margin_high`` when borderline pairs get an exact re-check
    downstream.

    CANONICAL-BAND EMISSION: a pair is emitted only by the FIRST band in
    which its rows' slots agree (computed per pair from the sig16 slot
    equality matrix).  Without this, an exact-dup pair collides in every
    band and the edge list inflates x bands (3.5M instead of ~120k edges
    for a 300k-file corpus) — with it, multiplicity is ~1 and no
    downstream pair-dedup shuffle is needed.

    CAPPED-BAND EXCEPTION (ADVICE r1): a capped bucket emits only
    SimHash-chained neighbor pairs, so an "earlier" band that was capped
    may never have emitted the pair — skipping it here would suppress the
    edge in EVERY band.  Each band row therefore carries ``cmask``, a
    bitmask of which of its bands landed in a capped (> band_cap) bucket
    (computed against the global bucket-count side data), and the
    earlier-band skip only trusts UNCAPPED earlier bands.  Pairs that a
    capped bucket did chain may then be emitted twice (capped band + a
    later uncapped band) — multiplicity, not loss; union-find is
    insensitive to it.

    ``sig_store_ref`` says which payload the band rows carry: ``idh`` to
    resolve against the broadcast store (``_build_sig_store``), or (None)
    inline ``id`` + ``sig16``."""
    num_perms = sig_cfg.num_perms
    cap = lsh_cfg.band_cap
    w = lsh_cfg.cap_neighbors
    rows_per_band = sig_cfg.rows
    n_bands = sig_cfg.bands
    if n_bands > 64:
        raise ValueError("cmask capped-band bitmask supports at most 64 bands")

    band_arange = np.arange(n_bands, dtype=np.int64)
    band_arange_u64 = np.arange(n_bands, dtype=np.uint64)

    def emit_partition(g: pa.Table) -> pa.Table:
        m = g.num_rows
        if m < 2:
            return PAIR_SCHEMA.empty_table()
        band = g.column("band").to_numpy(zero_copy_only=False).astype(np.int64)
        bh = g.column("bh").to_numpy(zero_copy_only=False).astype(np.uint64)
        sim = g.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        cmask = g.column("cmask").to_numpy(zero_copy_only=False).astype(np.uint64)
        # ``ids`` is an Arrow string array and ``pos`` each row's index in
        # it: rows carry ``pos`` through the sort and emission below, and
        # the emitted pairs take their ids from ``ids`` once, at the end
        if sig_store_ref is not None:
            # broadcast store (one plasma object per node): sigs and idh are
            # zero-copy numpy views, ids an Arrow array.  The rows' idh IS
            # the id hash the tie-break below needs (the store is
            # collision-checked): no re-hash of resolved strings
            store_idh, store_sigs, ids = worker_get(sig_store_ref, "lsh.sig_store")
            idh = g.column("idh").to_numpy(zero_copy_only=False).astype(np.uint64)
            pos = np.searchsorted(store_idh, idh)
            sigs = store_sigs[pos]
        else:
            # one chunk: a ChunkedArray take concatenates its chunks per call
            ids = g.column("id").combine_chunks()
            pos = np.arange(m)
            sigs = sig16_matrix(g.column("sig16"), num_perms)
            idh = id_hash64(ids)

        # 64-bit hash of each row's full signature: identical signatures
        # (exact dups and sketch-identical near-dups) collapse to ONE
        # representative per bucket below — the O(m^2) in-bucket expansion
        # then runs over DISTINCT signatures only, and identical followers
        # attach by star edges (single-linkage components are preserved:
        # a star reaches everything a clique reaches).
        # fold 4 uint16 slots at a time via a uint64 view (32 passes, not 128)
        sig64 = np.ascontiguousarray(sigs).view(np.uint64).reshape(m, num_perms // 4)
        sigh = np.zeros(m, dtype=np.uint64)
        for j in range(sig64.shape[1]):
            sigh = sigh * np.uint64(0x9E3779B97F4A7C15) + sig64[:, j]
        sigh = _smx64(sigh)

        # deterministic rep choice WITHOUT sorting object strings (an
        # object-dtype lexsort key costs more than the whole pair pass):
        # a 64-bit id hash breaks run-internal ties reproducibly
        order = np.lexsort((idh, sigh, bh, band))
        band, bh, sim, sigs = band[order], bh[order], sim[order], sigs[order]
        pos, cmask, sigh = pos[order], cmask[order], sigh[order]
        boundary = np.ones(m, dtype=bool)
        boundary[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])

        # identical-signature runs inside each bucket
        grp_first = boundary.copy()
        grp_first[1:] |= sigh[1:] != sigh[:-1]
        run_id = np.cumsum(grp_first) - 1
        rep_pos = np.flatnonzero(grp_first)  # first row of each run
        rep_of_row = rep_pos[run_id]

        # emitted pairs as positions in ``ids`` (``pos`` is reindexed
        # alongside sigs below, so each emit reads its current binding)
        out_a, out_b, out_d = [], [], []

        # star edges: follower -> its run representative, emitted ONLY in
        # the first uncapped band (all bands agree for identical sigs, so
        # exactly one band emits; if every band is capped, band 0 emits)
        followers = np.flatnonzero(~grp_first)
        if followers.size:
            inv = (~cmask[followers]) & np.uint64((1 << n_bands) - 1)
            lsb = inv & (np.uint64(0) - inv)
            first_unc = np.where(
                inv == 0, 0, np.log2(np.maximum(lsb, 1).astype(np.float64)).astype(np.int64)
            )
            emit_mask = band[followers] == first_unc
            f = followers[emit_mask]
            if f.size:
                out_a.append(pos[rep_of_row[f]])
                out_b.append(pos[f])
                out_d.append(np.zeros(f.size, dtype=np.float64))

        # representative-only view: rebuild bucket boundaries over reps
        band = band[rep_pos]
        bh = bh[rep_pos]
        pos = pos[rep_pos]
        sim = sim[rep_pos]
        sigs = sigs[rep_pos]
        cmask = cmask[rep_pos]
        m = rep_pos.size
        boundary = np.ones(m, dtype=bool)
        boundary[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
        starts = np.flatnonzero(boundary)
        sizes = np.diff(np.append(starts, m))

        def flush(iu: np.ndarray, ju: np.ndarray, in_capped_bucket: bool = False) -> None:
            """Verify + canonically emit a batch of global (iu, ju) pairs
            — shared by the size-batched fast path and the capped loop."""
            if iu.size == 0:
                return
            eq = sigs[iu] == sigs[ju]  # (npairs, num_perms)
            d = 1.0 - np.count_nonzero(eq, axis=1) / float(num_perms)
            keep = d <= tau
            # the canonical-band skip below costs ~3 linear passes over
            # (npairs, num_perms); survivors of the tau filter are a tiny
            # fraction of raw bucket pairs, so filter FIRST and run the
            # band logic on survivors only
            if not np.any(keep):
                return
            iu, ju, d, eq = iu[keep], ju[keep], d[keep], eq[keep]
            keep = np.ones(iu.size, dtype=bool)
            # Canonical-band skip, capped-aware (ADVICE r1):
            # - UNCAPPED bucket: skip only if an earlier UNCAPPED band
            #   agreed (it fully expanded and emitted the pair).  An earlier
            #   capped band only chained SimHash neighbors and cannot be
            #   trusted — without this, a pair whose first agreeing band is
            #   capped is suppressed in EVERY band.
            # - CAPPED bucket (chain pairs): keep the original any-earlier-
            #   band skip — an earlier capped band over the same membership
            #   chained the SAME pairs (identical SimHash order), so
            #   dropping the skip would emit every mega-dup chain pair once
            #   per band (x bands edge blowup, measured 32x on the bench
            #   corpus).
            b_cur = band[iu]
            band_eq = eq.reshape(-1, n_bands, rows_per_band).all(axis=2)
            if in_capped_bucket:
                earlier = (band_eq & (band_arange[None, :] < b_cur[:, None])).any(axis=1)
            else:
                uncapped = ((cmask[iu][:, None] >> band_arange_u64[None, :]) & 1) == 0
                earlier = (
                    band_eq & uncapped & (band_arange[None, :] < b_cur[:, None])
                ).any(axis=1)
            keep &= ~earlier
            iu, ju, d = iu[keep], ju[keep], d[keep]
            if iu.size == 0:
                return
            out_a.append(pos[iu])
            out_b.append(pos[ju])
            out_d.append(d)

        # fast path: buckets of the same (small) size are expanded together
        # — per-bucket Python looping costs ~0.2 ms x millions of tiny
        # buckets and dominated this stage before.  The naive expansion
        # (gather sigs[iu]/sigs[ju] per raw pair) moves 2 x 256 B of DRAM
        # per pair — ~3 GB per partition at 600k files, which made this
        # stage memory-bandwidth-bound and ANTI-scale 8 -> 32 CPUs.  The
        # blocked path below instead gathers each bucket's CONTIGUOUS
        # signature rows once (256 B per row), compares inside the
        # cache-resident block in ~1024-pair chunks whose temporaries fit
        # the core-PRIVATE L2 (~512 KB — measured 2.5x faster than 8k-pair
        # chunks at 16-way concurrency: L3 is shared and thrashes), and
        # hands only the tau-survivors (a tiny fraction) to ``flush``,
        # which redoes the exact compare + canonical-band logic on that
        # small set — the emitted pair sequence is bit-identical to the
        # naive expansion (pinned by tests/test_skew.py / the flagship
        # oracle).
        multi = sizes >= 2
        small = multi & (sizes <= cap)
        fperms = float(num_perms)
        for sz in np.unique(sizes[small]):
            sz = int(sz)
            ss = starts[sizes == sz]
            iu_l, ju_l = np.triu_indices(sz, k=1)
            npl = iu_l.size
            if npl <= _PAIR_CHUNK:
                # many buckets per chunk: block gather (nb, sz, perms),
                # broadcast-compare all triu pairs of every bucket at once
                step = max(1, _PAIR_CHUNK // npl)
                col = np.arange(sz, dtype=np.int64)
                for c0 in range(0, ss.size, step):
                    sc = ss[c0 : c0 + step]
                    block = sigs[(sc[:, None] + col[None, :]).ravel()]
                    block = block.reshape(sc.size, sz, num_perms)
                    cnt = (block[:, iu_l, :] == block[:, ju_l, :]).sum(axis=2)
                    sel = (1.0 - cnt / fperms) <= tau
                    selr = sel.ravel()
                    if selr.any():
                        flush(
                            (sc[:, None] + iu_l[None, :]).ravel()[selr],
                            (sc[:, None] + ju_l[None, :]).ravel()[selr],
                        )
            else:
                # one big bucket at a time: its (sz, perms) slice is a
                # cache-resident view; chunk the triu pair list instead
                for s in ss:
                    blk = sigs[s : s + sz]
                    for p0 in range(0, npl, _PAIR_CHUNK):
                        il = iu_l[p0 : p0 + _PAIR_CHUNK]
                        jl = ju_l[p0 : p0 + _PAIR_CHUNK]
                        cnt = (blk[il] == blk[jl]).sum(axis=1)
                        sel = (1.0 - cnt / fperms) <= tau
                        if sel.any():
                            flush(s + il[sel], s + jl[sel])

        # capped path: oversized (skewed) buckets chain SimHash neighbors
        for s, sz in zip(starts[sizes > cap], sizes[sizes > cap]):
            sz = int(sz)
            so = np.argsort(sim[s : s + sz], kind="stable") + s
            base = np.arange(sz - 1)
            iu_l = np.concatenate([base[: sz - d] for d in range(1, w + 1)])
            ju_l = np.concatenate([base[: sz - d] + d for d in range(1, w + 1)])
            flush(so[iu_l], so[ju_l], in_capped_bucket=True)

        if not out_a:
            return PAIR_SCHEMA.empty_table()
        a, b = ids.take(np.concatenate(out_a)), ids.take(np.concatenate(out_b))
        # canonical id_a < id_b: Arrow compares strings by UTF-8 bytes,
        # which is ``str`` order
        swap = pc.greater(a, b)
        return pa.table(
            [pc.if_else(swap, b, a), pc.if_else(swap, a, b), np.concatenate(out_d)],
            schema=PAIR_SCHEMA,
        )

    return emit_partition


def _count_hot_sets(
    signed_slim: ray.data.Dataset, sig_cfg: SignatureConfig, band_cap: int, num_partitions: int
):
    """``_derive_hot_sets`` without a driver-side sig16 matrix: a
    ``hash_exchange`` on the combined key counts every bucket.  The hot
    set comes back exact while it fits ``_HOT_EXACT_KEYS`` keys, else as a
    bloom bitmap (a false positive ships one extra row into the band
    shuffle, never drops a pair); the capped set is always exact, so
    ``cmask`` is never approximate."""

    def emit_keys(t: pa.Table) -> pa.Table:
        sig16 = _sig16(t.column("minhash"), sig_cfg.num_perms)
        ckey = _band_keys(sig16, sig_cfg.bands, sig_cfg.rows)[2]
        pk = (ckey & np.uint64(num_partitions - 1)).astype(np.int32)
        return pa.table({"pkey": pa.array(pk, pa.int32()), "ckey": pa.array(ckey, pa.uint64())})

    def dup_keys(g: pa.Table) -> pa.Table:
        # vectorized within one reduce call: keys appearing >= 2 times,
        # flagged capped when the bucket exceeds band_cap (a per-key
        # groupby would be millions of tiny Ray groups).  pkey is derived
        # from ckey and a call holds whole partitions, so its counts are
        # global counts.
        ck = g.column("ckey").to_numpy(zero_copy_only=False).astype(np.uint64)
        uniq, cnt = np.unique(ck, return_counts=True)
        hot = cnt >= 2
        return pa.table(
            {
                "ckey": pa.array(uniq[hot], pa.uint64()),
                "capped": pa.array(cnt[hot] > band_cap, pa.bool_()),
            }
        )

    # materialize once: the hot-key set is O(colliding buckets), far smaller
    # than the input, and is consumed twice (count + collect/stream)
    hot_ds = hash_exchange(
        map_blocks(signed_slim, emit_keys), "pkey", num_partitions, dup_keys
    ).materialize()
    n_hot = hot_ds.count()
    capped_parts: list = [np.empty(0, dtype=np.uint64)]

    def hot_keys():
        for b in block_tables(hot_ds):
            ck = b.column("ckey").to_numpy(zero_copy_only=False).astype(np.uint64)
            capped_parts.append(ck[b.column("capped").to_numpy(zero_copy_only=False)])
            yield ck

    if n_hot <= _HOT_EXACT_KEYS:
        hot_struct = ("exact", np.sort(np.concatenate([np.empty(0, np.uint64), *hot_keys()])))
    else:
        hot_struct = ("bloom", bloom_build(hot_keys(), n_hot))
    return hot_struct, np.sort(np.concatenate(capped_parts))


def candidate_pairs(
    signed_slim: ray.data.Dataset,
    sig_cfg: SignatureConfig,
    lsh_cfg: Optional[LSHConfig] = None,
    tau: float = 0.2,
) -> ray.data.Dataset:
    """(id, minhash, simhash) dataset -> verified near-dup pairs
    (id_a < id_b, est_distance <= tau).

    One band-shuffle plan with two size-gated ingredients (all variants
    emit identical pair sets, pinned by ``tests/test_path_equivalence.py``):

    - SIGNATURE TRANSPORT: at or below ``_BROADCAST_ROWS`` rows,
      signatures ship once as the driver-assembled broadcast blob and band
      rows are ~40 B slim; above it (or on an id-hash collision in the
      blob) they ride inline, and the driver never holds the matrix.
    - HOT/CAPPED BUCKET SETS: while the driver holds the blob's sig16
      matrix of at most ``_DRIVER_HOT_ROWS`` rows they are derived from it
      (``_derive_hot_sets``) and the driver emits the band rows itself,
      one block with ``pkey`` — no task wave.  Otherwise a slim key-count
      ``hash_exchange`` finds them (``_count_hot_sets``) and raw tasks
      emit.  Only rows in hot (>= 2 member) buckets enter the band
      shuffle, and canonical-band emission keeps pair multiplicity ~1.

    The store reads ``signed_slim`` (id, minhash, simhash) by ref; the row
    count that picks the plans comes from its block metadata."""
    from .exchange import exchange_partitions

    lsh_cfg = lsh_cfg or LSHConfig()
    # exchange_partitions() (4 per CPU) fixes only the hash space, rounded up
    # to a power of two for the ``bh & (P-1)`` mask; hash_exchange sizes the
    # reduce tasks from the upstream's bytes (one task under _REDUCE_BYTES,
    # so a skewed bucket-partition -- measured emit-partition max/mean ~3x
    # -- can be the straggler of its wave only on a larger exchange)
    num_partitions = 1 << (exchange_partitions() - 1).bit_length()

    n_rows_slim = signed_slim.count()
    if n_rows_slim < 2:
        # 0/1-row input: no pair can exist (and a zero-block dataset
        # downstream would be schemaless)
        return dataset_from_tables([PAIR_SCHEMA.empty_table()])

    if sig_cfg.bands > 64:
        raise ValueError("cmask capped-band bitmask supports at most 64 bands")
    # ---- phase 0: signature transport ------------------------------------
    # While the table fits the broadcast cap, ship signatures ONCE as a
    # hash-indexed blob; band rows shrink to ~40 B (measured ~9x fewer
    # bytes through the sort exchange than inline sig16 + id strings).
    sig_store_ref = sig16_drv = None
    if n_rows_slim <= _BROADCAST_ROWS:
        sig_store_ref, sig16_drv = _build_sig_store(signed_slim, sig_cfg)

    # ---- phase 1: hot/capped bucket sets ---------------------------------
    # Nearly all band buckets are singletons and can never form a pair, yet
    # their rows would dominate the band shuffle.  Only rows in hot (>= 2
    # member) buckets enter it (~85-95% volume cut on realistic corpora).
    on_driver = sig16_drv is not None and sig16_drv.shape[0] <= _DRIVER_HOT_ROWS
    if on_driver:
        # the store build already collected every sig16 on the driver:
        # derive the EXACT hot/capped key sets locally
        hot_sets = _derive_hot_sets(sig16_drv, sig_cfg, lsh_cfg.band_cap)
    else:
        hot_sets = _count_hot_sets(signed_slim, sig_cfg, lsh_cfg.band_cap, num_partitions)
    del sig16_drv  # plasma holds the blob: free the driver's copy before the band exchange
    if hot_sets[0][0] == "exact" and hot_sets[0][1].size == 0:
        # no bucket has >= 2 members -> no candidate pairs at all
        return dataset_from_tables([PAIR_SCHEMA.empty_table()])

    # ---- phase 2: band shuffle over hot-bucket rows ----------------------
    # pkey is a hash residue in [0, num_partitions): use the raw-Ray hash
    # exchange (stages/exchange.py) instead of the sort-based groupby —
    # same co-location contract, no sampling pass / sort barrier (the
    # barrier was ~15 s of CPU-count-independent wall at 600k files)
    hot_ref = None if on_driver else ray.put(hot_sets)
    hot = (lambda: hot_sets) if on_driver else (lambda: worker_get(hot_ref, "lsh.hot_sets"))
    emit = _make_band_row_emitter(sig_cfg, num_partitions, hot, inline=sig_store_ref is None)
    if on_driver:  # no task wave, and the hot sets never leave this process
        band_rows = dataset_from_tables([pa.concat_tables(map(emit, block_tables(signed_slim)))])
    else:
        band_rows = map_blocks(signed_slim, emit)
    return hash_exchange(
        band_rows,
        "pkey",
        num_partitions,
        make_partition_pair_emitter(sig_cfg, lsh_cfg, tau, sig_store_ref=sig_store_ref),
        empty_schema=PAIR_SCHEMA,
    )


def band_stats(
    signed_slim: ray.data.Dataset, sig_cfg: SignatureConfig, lsh_cfg: Optional[LSHConfig] = None
) -> ray.data.Dataset:
    """Metrics: per-bucket sizes -> (band, bh, bucket_size, pairs_full,
    pairs_emitted, pairs_dropped).  Feeds the lineage/metrics sink so capped
    (skewed) buckets are observable, never silent."""
    lsh_cfg = lsh_cfg or LSHConfig()
    cap, w = lsh_cfg.band_cap, lsh_cfg.cap_neighbors

    def band_keys(t: pa.Table) -> pa.Table:
        sig16 = _sig16(t.column("minhash"), sig_cfg.num_perms)
        band, bh, _ = _band_keys(sig16, sig_cfg.bands, sig_cfg.rows)
        return pa.table(
            {"band": pa.array(band.astype(np.int32), pa.int32()), "bh": pa.array(bh, pa.uint64())}
        )

    bands_ds = signed_slim.map_batches(band_keys, batch_format="pyarrow", batch_size=4096)
    counts = bands_ds.groupby(["band", "bh"]).aggregate(Count(alias_name="bucket_size"))

    def derive(t: pa.Table) -> pa.Table:
        m = t.column("bucket_size").to_numpy(zero_copy_only=False).astype(np.int64)
        full = m * (m - 1) // 2
        capped = m > cap
        emitted = np.where(capped, np.minimum(full, m * w - (w * (w + 1)) // 2), full)
        t = t.append_column("pairs_full", pa.array(full, pa.int64()))
        t = t.append_column("pairs_emitted", pa.array(emitted, pa.int64()))
        t = t.append_column("pairs_dropped", pa.array(full - emitted, pa.int64()))
        return t

    return counts.map_batches(derive, batch_format="pyarrow")
