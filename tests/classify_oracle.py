"""Per-cluster decision tree kept as an independent oracle for the
vectorized partition classifier (``stages/classify.py``).

This is the tree the engine ran once per multi-member cluster before it
classified whole partitions in one pass: one Python call and one set of
Arrow columns per cluster.  ``oracle_partition_classifier`` wraps it the
way the engine did (singletons in one vectorized pass, clusters in
``cluster_id`` order, rows in upstream order), so a test can compare whole
partition outputs, row order included.

One known difference: the majority lang of a cluster here is
``max(set(langs), key=langs.count)``, whose tie-break follows set order
(the per-process string hash seed).  The engine breaks ties on the
smallest lang, so compare only clusters without a tied majority.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lasvdedup_ray.config import ClassThresholds, PipelineConfig
from lasvdedup_ray.stages import classify as mod
from lasvdedup_ray.stages.classify import (
    BELOW,
    COINF,
    DISTINCT,
    DUPLICATE,
    KEEP,
    MEMBER_LIST_CAP,
    OUTLIERS,
    RESULT_SCHEMA,
    SINGLE,
    SMALL,
)
from lasvdedup_ray.stages.signatures import sig_matrix_from_column


def stats_json(n_chars: np.ndarray, n_lines: np.ndarray, targets: np.ndarray):
    ld = np.abs(n_chars.astype(np.int64) - targets)
    return pa.array(
        [
            '{"n_chars": %d, "n_lines": %d, "len_distance": %d}' % (c, l, d)
            for c, l, d in zip(n_chars, n_lines, ld)
        ],
        pa.string(),
    )


def compute_ranks(
    n_chars: np.ndarray,
    ids: np.ndarray,
    selection: Sequence[np.ndarray],
    target_length: int,
) -> np.ndarray:
    """rank[i] = 1-based position in the sort order (1 = best)."""
    len_dist = np.abs(n_chars.astype(np.int64) - target_length)
    # np.lexsort: last key is primary
    keys: List[np.ndarray] = [ids]
    for s in reversed(list(selection)):
        keys.append(-s.astype(np.float64))
    keys.append(len_dist)
    order = np.lexsort(tuple(keys))
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[order] = np.arange(1, len(ids) + 1)
    return ranks


def make_cluster_classifier(config: PipelineConfig):
    """The decision tree of ONE cluster (``g`` holds its rows only)."""
    sig_cfg = config.signature
    sel_cols = list(config.selection_columns)

    def classify_group(g: pa.Table) -> pa.Table:
        m = g.num_rows
        ids = np.asarray(g.column("id").to_pylist(), dtype=object)
        cluster_id = g.column("cluster_id")[0].as_py()
        langs = g.column("lang").to_pylist()
        sha = g.column("sha256").to_pylist()
        n_chars = g.column("n_chars").to_numpy(zero_copy_only=False)
        n_lines = g.column("n_lines").to_numpy(zero_copy_only=False)

        lang_mode = max(set(langs), key=langs.count) if langs else None
        th: ClassThresholds = config.thresholds_for(lang_mode)

        selection = [
            g.column(c).to_numpy(zero_copy_only=False).astype(np.float64)
            for c in sel_cols
        ]
        ranks = compute_ranks(n_chars, ids.astype(str), selection, th.target_length)
        best_idx = int(np.argmin(ranks))
        if m <= MEMBER_LIST_CAP:
            members = list(map(str, ids))
        else:
            members = list(map(str, ids[:MEMBER_LIST_CAP]))
            members.append(f"...+{m - MEMBER_LIST_CAP} more")

        def out(cls, cat, reasons, rep_idx):
            return pa.table(
                {
                    "id": pa.array(list(map(str, ids)), pa.string()),
                    "cluster_id": pa.array([cluster_id] * m, pa.string()),
                    "classification": pa.array(cls, pa.string()),
                    "decision_category": pa.array([cat] * m, pa.string()),
                    "is_representative": pa.array(
                        [i == rep_idx for i in range(m)], pa.bool_()
                    ),
                    "rank": pa.array(ranks, pa.int64()),
                    "group_members": pa.array([members] * m, pa.list_(pa.string())),
                    "reason": pa.array(reasons, pa.string()),
                    "sha256": pa.array(sha, pa.binary()),
                    "lang": pa.array(langs, pa.string()),
                    "stats": stats_json(
                        n_chars, n_lines, np.full(m, th.target_length, np.int64)
                    ),
                },
                schema=RESULT_SCHEMA,
            )

        if m <= 1:
            return out([KEEP] * m, SINGLE, ["Single sequence in cluster"] * m, 0)

        sigs = sig_matrix_from_column(g.column("minhash"), sig_cfg.num_perms)
        best_id = str(ids[best_idx])
        d_rep = 1.0 - (sigs == sigs[best_idx]).mean(axis=1)

        if m <= mod.PAIRWISE_CAP:
            iu, ju = np.triu_indices(m, k=1)
            dists = 1.0 - (sigs[iu] == sigs[ju]).mean(axis=1)
            case2 = bool(dists.size == 0 or np.all(dists <= th.tau))
        else:
            dmax = float(d_rep.max())
            if dmax <= th.tau / 2.0:
                case2 = True
            elif dmax > th.tau:
                case2 = False
            else:
                n_strides = max(1, min(-(-mod.CASE2_SAMPLE_PAIRS // m), m - 1))
                base = np.arange(m)
                iu = np.tile(base, n_strides)
                ju = np.concatenate([(base + s) % m for s in range(1, n_strides + 1)])
                dists = 1.0 - (sigs[iu] == sigs[ju]).mean(axis=1)
                if np.any(dists > th.tau):
                    case2 = False
                elif m * (m - 1) // 2 <= mod.CASE2_EXACT_PAIR_BUDGET:
                    case2 = True
                    floor = 1.0 - th.tau
                    for i in range(m - 1):
                        agree = (sigs[i + 1 :] == sigs[i]).mean(axis=1)
                        if np.any(agree < floor):
                            case2 = False
                            break
                else:
                    case2 = False
        if case2:
            cls = [DUPLICATE] * m
            cls[best_idx] = KEEP
            reasons = [
                f"Duplicate of {best_id} (distance <= {th.tau})" for _ in range(m)
            ]
            reasons[best_idx] = (
                f"Selected as best representative (rank 1) from nearly "
                f"identical sequences (distances <= {th.tau})"
            )
            return out(cls, BELOW, reasons, best_idx)

        if m <= th.min_neighborhood:
            cls = [DUPLICATE] * m
            cls[best_idx] = KEEP
            reasons = [
                f"Likely false positive with small cluster size ({m} <= "
                f"{th.min_neighborhood}), {best_id} selected instead"
                for _ in range(m)
            ]
            reasons[best_idx] = (
                f"Small cluster size ({m} <= {th.min_neighborhood}) indicating "
                f"likely false positive, selected as representative"
            )
            return out(cls, SMALL, reasons, best_idx)

        median = float(np.median(d_rep))
        mad = float(np.median(np.abs(d_rep - median)))
        if mad == 0:
            thr = median + th.tau / th.z_threshold
        else:
            thr = median + th.z_threshold * mad
        outlier_mask = d_rep > thr
        if outlier_mask.any():
            non_out = np.where(~outlier_mask)[0]
            pool = non_out if non_out.size else np.arange(m)
            rep_idx = int(pool[np.argmin(ranks[pool])])
            rep_id = str(ids[rep_idx])
            cls, reasons = [], []
            for i in range(m):
                if i == rep_idx:
                    cls.append(KEEP)
                    reasons.append(
                        "Outliers detected, selected as best non-outlier sequence"
                    )
                elif outlier_mask[i]:
                    cls.append(DUPLICATE)
                    reasons.append(
                        f"Identified as outlier (distance - median: "
                        f"{d_rep[i] - median:.4f}, threshold: {thr:.4f}), "
                        f"{rep_id} selected instead"
                    )
                else:
                    cls.append(DUPLICATE)
                    reasons.append(f"Non-outlier but with lower rank than {rep_id}")
            return out(cls, OUTLIERS, reasons, rep_idx)

        reasons = [
            f"True distinct cluster: size ({m} > {th.min_neighborhood}) and no "
            f"outliers detected"
        ] * m
        return out([DISTINCT] * m, COINF, reasons, best_idx)

    return classify_group


def oracle_partition_classifier(config: PipelineConfig):
    """Whole-partition output of the per-cluster tree: singletons first
    (in ``cluster_id`` order), then every multi-member cluster in
    ``cluster_id`` order, rows in upstream order."""
    per_cluster = make_cluster_classifier(config)

    def classify_partition(g: pa.Table) -> pa.Table:
        m = g.num_rows
        if m == 0:
            return RESULT_SCHEMA.empty_table()
        cl = np.asarray(g.column("cluster_id").to_pylist(), dtype=object)
        order = np.argsort(cl, kind="stable")
        cl_sorted = cl[order]
        boundary = np.ones(m, dtype=bool)
        boundary[1:] = cl_sorted[1:] != cl_sorted[:-1]
        starts = np.flatnonzero(boundary)
        sizes = np.diff(np.append(starts, m))
        g_sorted = g.take(pa.array(order, pa.int64()))
        outputs = []
        single_pos = starts[sizes == 1]
        if single_pos.size:
            s = g_sorted.take(pa.array(single_pos, pa.int64()))
            n1 = s.num_rows
            ids_arr = pc.cast(s.column("id"), pa.string()).combine_chunks()
            members = pa.ListArray.from_arrays(
                pa.array(np.arange(n1 + 1, dtype=np.int32)), ids_arr
            )
            targets = np.fromiter(
                (
                    config.thresholds_for(lg).target_length
                    for lg in s.column("lang").to_pylist()
                ),
                dtype=np.int64,
                count=n1,
            )
            outputs.append(
                pa.table(
                    {
                        "id": ids_arr,
                        "cluster_id": pc.cast(s.column("cluster_id"), pa.string()),
                        "classification": pa.array([KEEP] * n1, pa.string()),
                        "decision_category": pa.array([SINGLE] * n1, pa.string()),
                        "is_representative": pa.array([True] * n1, pa.bool_()),
                        "rank": pa.array(np.ones(n1, dtype=np.int64), pa.int64()),
                        "group_members": members,
                        "reason": pa.array(
                            ["Single sequence in cluster"] * n1, pa.string()
                        ),
                        "sha256": pc.cast(s.column("sha256"), pa.binary()),
                        "lang": pc.cast(s.column("lang"), pa.string()),
                        "stats": stats_json(
                            s.column("n_chars").to_numpy(zero_copy_only=False),
                            s.column("n_lines").to_numpy(zero_copy_only=False),
                            targets,
                        ),
                    },
                    schema=RESULT_SCHEMA,
                )
            )
        for s0, sz in zip(starts[sizes >= 2], sizes[sizes >= 2]):
            outputs.append(per_cluster(g_sorted.slice(int(s0), int(sz))))
        return pa.concat_tables(outputs)

    return classify_partition
