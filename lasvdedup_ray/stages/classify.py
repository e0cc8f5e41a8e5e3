"""Per-cluster classification: the reference decision tree, decided for
every cluster of a reduce call's hash partitions in one vectorized pass.

Semantics rebuilt from ``lasvdedup/utils/sequence_grouping.py:185-353``
(classify_sample) and ``lasvdedup/utils/distance_matrix.py:45-72``
(get_outliers), with these analogies:

- sample group            -> connected-component cluster (``cluster_id``)
- pairwise patristic dist -> estimated Jaccard distance from MinHash sigs
- MRCA clade size         -> cluster size (component neighborhood)
- root-to-tip clade depth -> distance to the best-ranked representative
- GOOD / BAD / COINFECTION -> keep / duplicate / distinct

Decision cases (same order, same inclusive/strict boundaries):
1. singleton                          -> keep / SingleSequence   (ref :209-221)
2. all pairwise d <= tau (inclusive,
   ``sequence_grouping.py:53``)       -> best keep, rest duplicate / BelowThreshold (:226-252)
3. cluster size <= min_neighborhood   -> best keep, rest duplicate / SmallClade (:257-286)
4. MAD outliers (strict ``>``, MAD==0
   fallback thr = median + tau/z,
   ``distance_matrix.py:53-59``; all-
   outliers fallback :297-300)        -> best non-outlier keep, rest duplicate / OutliersDetected
5. else                               -> all distinct / TrueCoinfection (:339-351)

Ranking (reference ``io_utils.py:48-55``): stable sort by
[abs(n_chars - target_length) ASC] + [selection columns DESC] + [id ASC];
the explicit id tie-break replaces the reference's insertion-order ``min()``
(``sequence_grouping.py:87``) because Ray block order is nondeterministic.
Thresholds follow the cluster's majority lang; a tie goes to the smallest
lang (null last), so the verdict does not depend on the worker process.

One pass per reduce call (``make_partition_classifier``, one call per
``hash_exchange`` reduce task, however many partitions it holds): the rows are
grouped by a stable sort on ``cluster_id``, and every cluster is decided
from per-cluster arrays.  Ranks are one ``np.lexsort`` with the cluster as
primary key; each cluster's best row and its distances to it are one
gather; Case 2 compares all pairs of many same-size clusters in one step
(the LSH emitter's fast path, ``lsh.py``), in chunks of ``_PAIR_CHUNK``
pairs.  Only clusters above ``PAIRWISE_CAP`` and the median/MAD of Case 4
candidates are decided one cluster at a time.  The output columns are
built once: labels and reasons are ``take``s from small per-category or
per-cluster dictionaries, ``group_members`` is one list per cluster taken
per row, and ``stats`` is an Arrow string join.  A tree per cluster
(``groupby().map_groups``, or a loop inside the call) costs a Python
call and an Arrow table per cluster: on a 1,500-file job of mostly
2-5-row clusters, 105 ms of reducer time against 23 ms for this pass (one
process, 4-vCPU VM; BASELINE.md).
"""

from __future__ import annotations

import string
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..config import PipelineConfig
from .signatures import sig_matrix_from_column

RESULT_FIELDS = [
    ("id", pa.string()),
    ("cluster_id", pa.string()),
    ("classification", pa.string()),
    ("decision_category", pa.string()),
    ("is_representative", pa.bool_()),
    ("rank", pa.int64()),
    ("group_members", pa.list_(pa.string())),
    ("reason", pa.string()),
    ("sha256", pa.binary()),
    ("lang", pa.string()),
    # per-record stats payload (reference contig_stats dict-of-float,
    # classification.py:34, serialized at :97) — JSON string column
    ("stats", pa.string()),
]
RESULT_SCHEMA = pa.schema(RESULT_FIELDS)

KEEP, DUPLICATE, DISTINCT = "keep", "duplicate", "distinct"
# decision categories — same five names as the reference enum
# (classification.py:16-22)
SINGLE, BELOW, SMALL, OUTLIERS, COINF = (
    "SingleSequence",
    "BelowThreshold",
    "SmallClade",
    "OutliersDetected",
    "TrueCoinfection",
)
_LABELS = pa.array([KEEP, DUPLICATE, DISTINCT], pa.string())
_CATEGORIES = pa.array([SINGLE, BELOW, SMALL, OUTLIERS, COINF], pa.string())
_SINGLE, _BELOW, _SMALL, _OUTLIERS, _COINF = range(5)

# above this cluster size the O(g^2) all-pairs check is replaced by an exact
# metric bound on distance-to-representative (normalized Hamming distance
# between signature vectors is a metric, so max(d_rep) <= tau/2 implies every
# pairwise distance <= tau, and max(d_rep) > tau disproves it).  In the
# inconclusive band a stride sample can only DISPROVE (a sampled pair > tau
# is a real violation); a clean sample is never treated as proof — up to
# CASE2_EXACT_PAIR_BUDGET pairs the check falls back to a BLOCKED exact
# all-pairs pass (early-exit on first violation, bounded memory), and past
# that budget Case 2 is decided conservatively False, falling through to
# Case 3/4/5 exactly like the reference routes clusters that fail its
# all-pairwise check (sequence_grouping.py:227) — a false "all duplicates"
# verdict from a sample would silently DROP non-duplicate records (ADVICE
# r2), while the fall-through only keeps extra rows.  group_members is
# truncated above MEMBER_LIST_CAP with an explicit "...+N more" marker.
PAIRWISE_CAP = 4096
MEMBER_LIST_CAP = 100
# deterministic pseudo-random pair sample size for the inconclusive band
CASE2_SAMPLE_PAIRS = 4096
# blocked exact all-pairs ceiling (~2^26 pairs ≈ m <= 11.5k): above this,
# inconclusive mega-clusters fall through to Case 3/4/5
CASE2_EXACT_PAIR_BUDGET = 1 << 26
# pairs compared per step of the Case 2 check, and rows per step of the
# distance-to-representative gather: bounds every temporary to ~0.5 MB
_PAIR_CHUNK = 1024
_ROW_CHUNK = 4096


def _within_tau(cnt: np.ndarray, num_perms: float, tau) -> np.ndarray:
    """Pairs whose estimated distance ``1 - agreeing slots / num_perms`` is
    at most ``tau`` (inclusive); bit-identical to ``1 - (a == b).mean()``."""
    return 1.0 - cnt / num_perms <= tau


def _case2_same_size(sigs, starts, sz: int, taus, num_perms: float) -> np.ndarray:
    """Case 2 for clusters of ``sz`` rows (2 <= sz <= PAIRWISE_CAP) starting
    at ``starts``: whether every pair of each is within its ``taus``.
    Clusters with at most ``_PAIR_CHUNK`` pairs are compared many at a time
    (one gather of their rows, all triu pairs at once); a larger cluster
    compares each row with the rows after it, stopping at its first pair
    above tau."""
    out = np.ones(starts.size, dtype=bool)
    n_pairs = sz * (sz - 1) // 2
    if n_pairs <= _PAIR_CHUNK:
        iu, ju = np.triu_indices(sz, k=1)
        col = np.arange(sz, dtype=np.int64)
        step = max(1, _PAIR_CHUNK // n_pairs)
        for c0 in range(0, starts.size, step):
            sc = starts[c0 : c0 + step]
            block = sigs[(sc[:, None] + col[None, :]).ravel()].reshape(sc.size, sz, -1)
            cnt = (block[:, iu, :] == block[:, ju, :]).sum(axis=2)
            ok = _within_tau(cnt, num_perms, taus[c0 : c0 + step, None])
            out[c0 : c0 + step] = ok.all(axis=1)
        return out
    for k, s in enumerate(starts):
        blk = sigs[s : s + sz]
        for i in range(sz - 1):
            cnt = (blk[i + 1 :] == blk[i]).sum(axis=1)
            if not _within_tau(cnt, num_perms, taus[k]).all():
                out[k] = False
                break
    return out


def _case2_mega(sigs: np.ndarray, d_rep: np.ndarray, tau: float) -> bool:
    """Case 2 for one cluster above PAIRWISE_CAP.  Triangle inequality gives
    d(a,b) <= d(a,rep) + d(rep,b) <= 2*max(d_rep), so max(d_rep) <= tau/2
    proves every pairwise <= tau without the O(m^2) check; max(d_rep) > tau
    disproves it (d_rep IS a pairwise distance).  In between: a stride
    sample may only DISPROVE; a clean sample falls back to a blocked exact
    all-pairs check (early-exit), or — past the pair budget —
    conservatively to False (ADVICE r2: a sampled "True" here would mark
    real non-duplicates DUPLICATE and drop them)."""
    m = sigs.shape[0]
    dmax = float(d_rep.max())
    if dmax <= tau / 2.0:
        return True
    if dmax > tau:
        return False
    n_strides = max(1, min(-(-CASE2_SAMPLE_PAIRS // m), m - 1))
    base = np.arange(m)
    iu = np.tile(base, n_strides)
    ju = np.concatenate([(base + s) % m for s in range(1, n_strides + 1)])
    dists = 1.0 - (sigs[iu] == sigs[ju]).mean(axis=1)
    if np.any(dists > tau):
        return False  # sound: a real pair above tau
    if m * (m - 1) // 2 > CASE2_EXACT_PAIR_BUDGET:
        return False  # conservative fall-through (Case 3/4/5)
    # row-anchored blocked pass: O(m * num_perms) memory per step, early
    # exit on the first violating pair
    floor = 1.0 - tau  # min fraction of agreeing slots
    for i in range(m - 1):
        agree = (sigs[i + 1 :] == sigs[i]).mean(axis=1)
        if np.any(agree < floor):
            return False
    return True


def _majority_lang(ci: np.ndarray, langs: pa.Array) -> pa.Array:
    """Most frequent lang of each cluster ``0..ci.max()``, ties to the
    smallest lang, null last (a set-order tie-break would follow the
    per-process string hash seed)."""
    counts = pa.table({"c": ci, "lang": langs}).group_by(["c", "lang"]).aggregate(
        [([], "count_all")]
    )
    top = counts.sort_by(
        [("c", "ascending"), ("count_all", "descending"), ("lang", "ascending")]
    )
    c = top["c"].to_numpy()
    first = np.ones(c.size, dtype=bool)
    first[1:] = c[1:] != c[:-1]
    return top["lang"].filter(pa.array(first)).combine_chunks()


def _join(*parts):
    """Element-wise string concatenation of arrays and str scalars."""
    return pc.binary_join_element_wise(*parts, "")


def _text(values) -> pa.Array:
    """Integers as decimal strings (``str(int)``)."""
    return pc.cast(pa.array(np.asarray(values, dtype=np.int64)), pa.string())


# reason of the representative and of every other row, per category;
# ``{field}`` is a per-cluster value (``_reasons``)
_REASONS = {
    _SINGLE: ("Single sequence in cluster",) * 2,
    _BELOW: (
        "Selected as best representative (rank 1) from nearly identical "
        "sequences (distances <= {tau})",
        "Duplicate of {rep} (distance <= {tau})",
    ),
    _SMALL: (
        "Small cluster size ({size} <= {min_nb}) indicating likely false "
        "positive, selected as representative",
        "Likely false positive with small cluster size ({size} <= {min_nb}), "
        "{rep} selected instead",
    ),
    _OUTLIERS: (
        "Outliers detected, selected as best non-outlier sequence",
        "Non-outlier but with lower rank than {rep}",
    ),
    _COINF: ("True distinct cluster: size ({size} > {min_nb}) and no outliers detected",)
    * 2,
}


def _reasons(cat, ci, is_rep, fields: dict, outliers: dict) -> pa.Array:
    """The reason column in grouped row order: ``_REASONS`` filled in once
    per cluster (a template without fields once per category), taken per
    row.  ``fields``: per-cluster string arrays by template field name;
    ``outliers``: grouped row -> its own reason (Case 4 outliers)."""
    pieces, base = [], 0
    pos = np.zeros((2, cat.size), dtype=np.int64)  # rep text, other rows' text
    for k in np.unique(cat):
        c = np.flatnonzero(cat == k)
        take = pa.array(c)
        for j, template in enumerate(_REASONS[k]):
            parts = []
            for literal, name, _, _ in string.Formatter().parse(template):
                parts += [literal] if literal else []
                parts += [fields[name].take(take)] if name else []
            if len(parts) == 1 and isinstance(parts[0], str):
                pieces.append(pa.array(parts, pa.string()))
                pos[j, c] = base
            else:
                pieces.append(_join(*parts))
                pos[j, c] = base + np.arange(c.size)
            base += len(pieces[-1])
    idx = pos[np.where(is_rep, 0, 1), ci]
    if outliers:
        pieces.append(pa.array(list(outliers.values()), pa.string()))
        idx[list(outliers)] = base + np.arange(len(outliers))
    return pa.concat_arrays(pieces).take(pa.array(idx))


def _member_lists(ids: pa.Array, order, starts, sizes) -> pa.ListArray:
    """``group_members`` of each cluster: the ids of its first
    MEMBER_LIST_CAP grouped rows, then a "...+N more" marker past the cap."""
    n, nc = len(ids), sizes.size
    capped = sizes > MEMBER_LIST_CAP
    kept = np.minimum(sizes, MEMBER_LIST_CAP)
    offsets = np.zeros(nc + 1, dtype=np.int32)
    np.cumsum(kept + capped, out=offsets[1:])
    owner = np.repeat(np.arange(nc), kept + capped)
    pos = np.arange(offsets[-1]) - offsets[owner]
    value_idx = np.where(
        pos < kept[owner],
        order[np.minimum(starts[owner] + pos, n - 1)],
        n + (np.cumsum(capped) - 1)[owner],  # the cluster's marker
    )
    markers = _join("...+", _text(sizes[capped] - MEMBER_LIST_CAP), " more")
    values = pa.concat_arrays([ids, markers]).take(pa.array(value_idx))
    return pa.ListArray.from_arrays(pa.array(offsets), values)


def make_partition_classifier(config: PipelineConfig):
    """The decision tree of every cluster in one reduce call (every cluster
    of a run of hash partitions), decided in one vectorized pass (module
    docstring).  The rows may hold any other columns (``pkey``); output
    rows: singletons first, then every multi-member cluster, each in
    ``cluster_id`` order, rows of a cluster in upstream order."""
    num_perms = float(config.signature.num_perms)
    sel_cols = list(config.selection_columns)
    # threshold set 0 is the default; set k > 0 is the k-th lang override
    sets = [config.default_thresholds, *config.lang_thresholds.values()]
    set_langs = pa.array(list(config.lang_thresholds), pa.string())
    tau_s = np.array([th.tau for th in sets], dtype=np.float64)
    min_nb_s = np.array([th.min_neighborhood for th in sets], dtype=np.int64)
    target_s = np.array([th.target_length for th in sets], dtype=np.int64)
    tau_txt = pa.array([str(th.tau) for th in sets], pa.string())
    min_nb_txt = pa.array([str(th.min_neighborhood) for th in sets], pa.string())

    def classify_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return RESULT_SCHEMA.empty_table()
        ids = pc.cast(g["id"], pa.string()).combine_chunks()
        # cluster index per row in cluster_id order; ``order`` groups the
        # rows by cluster (stable: upstream order within a cluster), and
        # every per-row array below is in that grouped order
        dense = pc.rank(
            pc.cast(g["cluster_id"], pa.string()).combine_chunks(),
            sort_keys="ascending",
            tiebreaker="dense",
        ).to_numpy().astype(np.int64) - 1
        order = np.argsort(dense, kind="stable")
        ci = dense[order]
        sizes = np.bincount(ci)
        nc = sizes.size
        starts = np.cumsum(sizes) - sizes
        if len(set_langs):
            langs = g["lang"].take(pa.array(order))
            hits = pc.index_in(_majority_lang(ci, langs), value_set=set_langs)
            tset = pc.fill_null(hits, -1).to_numpy().astype(np.int64) + 1
        else:
            tset = np.zeros(nc, dtype=np.int64)

        # ranks: one lexsort, cluster primary (np.lexsort: last key is primary)
        n_chars = g["n_chars"].to_numpy(zero_copy_only=False)[order]
        len_dist = np.abs(n_chars.astype(np.int64) - target_s[tset][ci])
        id_key = pc.rank(ids, sort_keys="ascending", tiebreaker="dense").to_numpy()
        keys = [id_key[order]]
        for c in reversed(sel_cols):
            sel = g[c].to_numpy(zero_copy_only=False)[order]
            keys.append(-sel.astype(np.float64))
        keys += [len_dist, ci]
        by_rank = np.lexsort(tuple(keys))
        rank = np.empty(n, dtype=np.int64)
        rank[by_rank] = np.arange(n) - starts[ci[by_rank]] + 1
        best = by_rank[starts]  # each cluster's rank-1 row

        cat = np.full(nc, _SINGLE, dtype=np.int8)
        rep = best.copy()
        outliers: dict = {}  # grouped row -> reason, Case 4 outliers
        multi = sizes >= 2
        if multi.any():
            sigs = sig_matrix_from_column(g["minhash"], int(num_perms))[order]
            # distance of every multi-member row to its cluster's best row
            d_rep = np.zeros(n)
            rows = np.flatnonzero(multi[ci])
            for r0 in range(0, rows.size, _ROW_CHUNK):
                r = rows[r0 : r0 + _ROW_CHUNK]
                cnt = (sigs[r] == sigs[best[ci[r]]]).sum(axis=1)
                d_rep[r] = 1.0 - cnt / num_perms

            case2 = np.zeros(nc, dtype=bool)
            pairwise = multi & (sizes <= PAIRWISE_CAP)
            for sz in np.unique(sizes[pairwise]):
                cs = np.flatnonzero(pairwise & (sizes == sz))
                case2[cs] = _case2_same_size(
                    sigs, starts[cs], int(sz), tau_s[tset[cs]], num_perms
                )
            for c in np.flatnonzero(sizes > PAIRWISE_CAP):
                s, e = starts[c], starts[c] + sizes[c]
                case2[c] = _case2_mega(sigs[s:e], d_rep[s:e], sets[tset[c]].tau)
            cat[multi & case2] = _BELOW
            small = multi & ~case2 & (sizes <= min_nb_s[tset])
            cat[small] = _SMALL

            # Case 4 / 5: MAD outliers over distance-to-representative
            for c in np.flatnonzero(multi & ~case2 & ~small):
                th = sets[tset[c]]
                s, e = starts[c], starts[c] + sizes[c]
                d = d_rep[s:e]
                median = float(np.median(d))
                mad = float(np.median(np.abs(d - median)))
                if mad == 0:
                    # MAD==0 fallback (distance_matrix.py:56-59)
                    thr = median + th.tau / th.z_threshold
                else:
                    thr = median + th.z_threshold * mad
                outlier = d > thr  # strict > (distance_matrix.py:65)
                if not outlier.any():
                    cat[c] = _COINF
                    continue
                cat[c] = _OUTLIERS
                pool = np.flatnonzero(~outlier)
                if not pool.size:
                    pool = np.arange(e - s)  # all-outliers fallback (:297-300)
                rep[c] = s + pool[np.argmin(rank[s:e][pool])]
                rep_id = ids[int(order[rep[c]])].as_py()
                for i in np.flatnonzero(outlier):
                    if s + i == rep[c]:
                        continue
                    outliers[s + i] = (
                        f"Identified as outlier (distance - median: "
                        f"{d[i] - median:.4f}, threshold: {thr:.4f}), "
                        f"{rep_id} selected instead"
                    )

        is_rep = np.zeros(n, dtype=bool)
        is_rep[rep] = True
        row_cat = cat[ci]
        label = np.where(row_cat == _COINF, 2, np.where(is_rep, 0, 1))

        fields = {
            "rep": ids.take(pa.array(order[rep])),
            "size": _text(sizes),
            "tau": tau_txt.take(pa.array(tset)),
            "min_nb": min_nb_txt.take(pa.array(tset)),
        }
        reason = _reasons(cat, ci, is_rep, fields, outliers)
        members = _member_lists(ids, order, starts, sizes)

        # output rows: singletons, then multi-member clusters (grouped order)
        final = np.concatenate(
            [np.flatnonzero(sizes[ci] == 1), np.flatnonzero(sizes[ci] >= 2)]
        )
        src = pa.array(order[final])
        n_lines = g["n_lines"].to_numpy(zero_copy_only=False)[order[final]]
        stats = _join(
            '{"n_chars": ',
            _text(n_chars[final]),
            ', "n_lines": ',
            _text(n_lines),
            ', "len_distance": ',
            _text(len_dist[final]),
            "}",
        )
        return pa.table(
            {
                "id": ids.take(src),
                "cluster_id": pc.cast(g["cluster_id"], pa.string()).take(src),
                "classification": _LABELS.take(pa.array(label[final])),
                "decision_category": _CATEGORIES.take(pa.array(row_cat[final])),
                "is_representative": pa.array(is_rep[final]),
                "rank": pa.array(rank[final]),
                "group_members": members.take(pa.array(ci[final])),
                "reason": reason.take(pa.array(final)),
                "sha256": pc.cast(g["sha256"], pa.binary()).take(src),
                "lang": pc.cast(g["lang"], pa.string()).take(src),
                "stats": stats,
            },
            schema=RESULT_SCHEMA,
        )

    return classify_partition


def cluster_pkey():
    """Block fn appending classify's ``pkey``, a hash of ``cluster_id`` in
    ``[0, exchange_partitions())``: any pure function of it co-locates
    whole clusters.  The flagship runs it in the label-attach task."""
    from .exchange import exchange_partitions, string_pkey

    n_parts = exchange_partitions()

    def add_pkey(t: pa.Table) -> pa.Table:
        return t.append_column("pkey", string_pkey(t["cluster_id"], n_parts))

    return add_pkey


def classify_clusters(
    clustered: ray.data.Dataset, config: Optional[PipelineConfig] = None
) -> ray.data.Dataset:
    """Hash exchange on the ``pkey`` that ``cluster_pkey()`` appended to
    ``clustered`` + the decision tree, one
    ``make_partition_classifier`` call per reduce task over every cluster
    of its run of hash partitions (a cluster is never split across
    calls).  A block without ``pkey`` fails the exchange loudly."""
    from .exchange import exchange_partitions, hash_exchange

    config = config or PipelineConfig()
    # exchange_partitions() fixes only the hash space; hash_exchange cuts
    # it into runs of consecutive partitions by bytes, one reduce task each.
    # pkey is a hash residue in [0, n_parts): the raw-Ray hash exchange
    # (stages/exchange.py) co-locates clusters without the sort barrier's
    # sampling pass + SortMap/SortReduce waves
    return hash_exchange(
        clustered,
        "pkey",
        exchange_partitions(),
        make_partition_classifier(config),
        empty_schema=RESULT_SCHEMA,
    )
