"""Decision-tree unit tests on literal clusters with fabricated signatures.

Model: the reference's mocked per-case tests
(``/root/reference/tests/utils/test_sequence_grouping.py:573-821``) — each
of the 5 cases driven directly, plus rank/tie-break parity
(``test_sequence_grouping.py:139-145``) and the MAD==0 fallback
(``test_distance_matrix.py:121-140``).  Each case runs the partition
classifier on a one-cluster table; ``test_partition_matches_oracle``
checks whole partitions against the per-cluster tree in
``classify_oracle.py``.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pyarrow as pa
import pytest

from lasvdedup_ray.config import ClassThresholds, PipelineConfig
from lasvdedup_ray.stages.classify import (
    BELOW,
    COINF,
    DISTINCT,
    DUPLICATE,
    KEEP,
    OUTLIERS,
    SINGLE,
    SMALL,
    make_partition_classifier,
)

NP = 128  # num_perms


def make_sig(diff_slots=(), base_val=1000, tag=0):
    """uint32 signature: slot i = base pattern except listed slots get a
    unique per-tag value (=> unequal across members)."""
    sig = (np.arange(NP, dtype=np.int64) + base_val).astype(np.uint32)
    for s in diff_slots:
        sig[s] = np.uint32(3_000_000 + tag * 1000 + s)
    return sig


def group_table(ids, sigs, n_chars=None, langs=None):
    m = len(ids)
    n_chars = n_chars or [4000] * m
    return pa.table(
        {
            "id": pa.array(ids, pa.string()),
            "cluster_id": pa.array([min(ids)] * m, pa.string()),
            "lang": pa.array(langs or ["py"] * m, pa.string()),
            "n_chars": pa.array(n_chars, pa.int64()),
            "n_lines": pa.array([10] * m, pa.int64()),
            "sha256": pa.array([b"\x00" * 32] * m, pa.binary()),
            "minhash": pa.array([s.tobytes() for s in sigs], pa.large_binary()),
            "simhash": pa.array([0] * m, pa.uint64()),
        }
    )


CFG = PipelineConfig()
classify = make_partition_classifier(CFG)


def compute_ranks(n_chars, ids, selection, target_length):
    """The ranks the partition classifier gives one cluster of these rows,
    in row order."""
    m = len(ids)
    sel_cols = [f"sel{k}" for k in range(len(selection))]
    cfg = PipelineConfig(
        selection_columns=tuple(sel_cols),
        default_thresholds=ClassThresholds(target_length=target_length),
    )
    t = group_table(list(ids), [make_sig()] * m, n_chars=[int(c) for c in n_chars])
    for c, s in zip(sel_cols, selection):
        t = t.append_column(c, pa.array(s, pa.float64()))
    return make_partition_classifier(cfg)(t)["rank"].to_pylist()


def d_slots(frac):
    return list(range(int(round(frac * NP))))


def test_case1_singleton():
    out = classify(group_table(["a"], [make_sig()]))
    assert out["classification"].to_pylist() == [KEEP]
    assert out["decision_category"].to_pylist() == [SINGLE]
    assert out["is_representative"].to_pylist() == [True]


def test_case2_below_threshold_keeps_best_rank():
    # all pairwise d <= 0.2; best = n_chars closest to target_length (4000)
    sigs = [make_sig(), make_sig(d_slots(0.1), tag=1), make_sig(d_slots(0.1), tag=2)]
    t = group_table(["a", "b", "c"], sigs, n_chars=[3500, 4000, 4400])
    out = classify(t)
    cls = dict(zip(out["id"].to_pylist(), out["classification"].to_pylist()))
    assert cls == {"a": DUPLICATE, "b": KEEP, "c": DUPLICATE}
    assert set(out["decision_category"].to_pylist()) == {BELOW}
    ranks = dict(zip(out["id"].to_pylist(), out["rank"].to_pylist()))
    assert ranks["b"] == 1


def test_case2_inclusive_boundary():
    # d exactly tau (0.2 => 25.6 slots; use 25/128=0.195 and 26/128=0.203)
    sigs = [make_sig(), make_sig(list(range(25)), tag=1)]
    out = classify(group_table(["a", "b"], sigs))
    assert set(out["decision_category"].to_pylist()) == {BELOW}


def test_case3_small_cluster():
    # a~b close, c far from both => not all below tau; size 3 <= 8
    sigs = [make_sig(), make_sig(d_slots(0.1), tag=1), make_sig(d_slots(0.4), tag=2)]
    out = classify(group_table(["a", "b", "c"], sigs))
    assert set(out["decision_category"].to_pylist()) == {SMALL}
    cls = out["classification"].to_pylist()
    assert cls.count(KEEP) == 1 and cls.count(DUPLICATE) == 2


def test_case4_outliers_mad_zero_fallback():
    # 10 members, pairwise disjoint diffs => d(i,j) > tau for i,j != rep;
    # d_rep: 8 at ~0.15 (disjoint slot ranges), 1 outlier at ~0.45
    ids = [f"m{i:02d}" for i in range(10)]
    sigs = [make_sig()]  # rep (rank 1 via n_chars)
    for i in range(8):
        lo = i * 14
        sigs.append(make_sig(list(range(lo, lo + 19)), tag=i + 1))  # 19/128 ≈ 0.148
    sigs.append(make_sig(list(range(0, 58)), tag=99))  # 58/128 ≈ 0.45
    n_chars = [4000] + [4500] * 9  # m00 ranks first
    out = classify(group_table(ids, sigs, n_chars=n_chars))
    assert set(out["decision_category"].to_pylist()) == {OUTLIERS}
    cls = dict(zip(out["id"].to_pylist(), out["classification"].to_pylist()))
    assert cls["m00"] == KEEP  # best non-outlier
    assert cls["m09"] == DUPLICATE  # the outlier
    assert sum(1 for v in cls.values() if v == KEEP) == 1


def test_case5_true_distinct():
    # 10 members all ~0.3 from rep in disjoint ranges: no outliers, size > 8,
    # pairwise ~0.6 > tau => distinct
    ids = [f"m{i:02d}" for i in range(10)]
    sigs = [make_sig()]
    for i in range(9):
        lo = (i * 14) % 90
        sigs.append(make_sig(list(range(lo, lo + 38)), tag=i + 1))
    out = classify(group_table(ids, sigs))
    assert set(out["decision_category"].to_pylist()) == {COINF}
    assert set(out["classification"].to_pylist()) == {DISTINCT}


def test_megacluster_identical_below_threshold_not_coinfection():
    # ADVICE r1 (high): > PAIRWISE_CAP byte-identical docs must NOT fall
    # through to TrueCoinfection — metric bound max(d_rep)=0 <= tau/2
    # proves Case 2 without the O(m^2) check.
    m = 4106
    ids = [f"m{i:05d}" for i in range(m)]
    sig = make_sig()
    out = classify(group_table(ids, [sig] * m))
    assert set(out["decision_category"].to_pylist()) == {BELOW}
    cls = out["classification"].to_pylist()
    assert cls.count(KEEP) == 1 and cls.count(DUPLICATE) == m - 1
    # observable group_members truncation: capped head + "...+N more" marker
    members = out["group_members"][0].as_py()
    assert len(members) == 101 and members[-1] == f"...+{m - 100} more"


def test_megacluster_inconclusive_sample_positive():
    # all pairwise ~0.148 <= tau, but max(d_rep)=0.148 > tau/2 => the
    # deterministic stride sample must confirm Case 2
    m = 4100
    ids = [f"m{i:05d}" for i in range(m)]
    sigs = [make_sig()] + [make_sig(d_slots(0.15), tag=i) for i in range(1, m)]
    out = classify(group_table(ids, sigs))
    assert set(out["decision_category"].to_pylist()) == {BELOW}
    assert out["classification"].to_pylist().count(KEEP) == 1


def test_megacluster_sample_detects_over_threshold():
    # two sub-populations differing in disjoint slot ranges: cross-pairs
    # ~0.297 > tau, d_rep ~0.148 <= tau (inconclusive band) — the stride
    # sample must reject Case 2; with no outliers this is genuinely Case 5
    m = 4100
    ids = [f"m{i:05d}" for i in range(m)]
    sigs = [make_sig()]
    for i in range(1, m):
        lo = 0 if i % 2 == 0 else 19
        sigs.append(make_sig(list(range(lo, lo + 19)), tag=i))
    out = classify(group_table(ids, sigs))
    assert set(out["decision_category"].to_pylist()) == {COINF}
    assert set(out["classification"].to_pylist()) == {DISTINCT}


def _drift_sigs(m):
    """base rep + three member types forming a metric 'path': T1 (slots
    0-18), T1.5 (5-23), T2 (10-28).  Every ADJACENT pair (the stride
    sample at n_strides=1) is <= tau, every d_rep = 0.148 is in the
    inconclusive band (tau/2, tau], but any T1-T2 pair differs in 29
    slots = 0.227 > tau — a violation the sample cannot see."""
    sigs = [make_sig()]
    half = m // 2
    for i in range(1, m):
        if i < half:
            lo = 0  # T1
        elif i == half:
            lo = 5  # T1.5 bridge keeps adjacent pairs <= tau
        else:
            lo = 10  # T2
        sigs.append(make_sig(list(range(lo, lo + 19)), tag=i))
    return sigs


def test_megacluster_unsampled_violation_not_all_duplicates():
    # ADVICE r2 (medium): a clean stride sample must NOT prove Case 2 —
    # the blocked exact all-pairs pass finds the unsampled T1-T2
    # violation and routes the cluster to Case 5 instead of silently
    # marking real non-duplicates DUPLICATE.
    m = 4106
    ids = [f"m{i:05d}" for i in range(m)]
    out = classify(group_table(ids, _drift_sigs(m)))
    assert set(out["decision_category"].to_pylist()) == {COINF}
    assert set(out["classification"].to_pylist()) == {DISTINCT}


def test_megacluster_over_budget_falls_through_conservatively(monkeypatch):
    # past the exact-pair budget, an inconclusive Case 2 is decided False
    # (conservative: keeps extra rows, never drops non-duplicates)
    import lasvdedup_ray.stages.classify as mod

    monkeypatch.setattr(mod, "CASE2_EXACT_PAIR_BUDGET", 0)
    m = 4106
    ids = [f"m{i:05d}" for i in range(m)]
    out = classify(group_table(ids, _drift_sigs(m)))
    assert set(out["decision_category"].to_pylist()) == {COINF}


@pytest.mark.parametrize("budget, category", [(66, BELOW), (65, OUTLIERS)])
def test_case2_budget_cliff(monkeypatch, budget, category):
    """One inconclusive family (eleven rows on the representative's
    signature, one at d ~0.148, in (tau/2, tau]) on each side of the exact
    pair budget (12 rows: 66 pairs): within it the exact pass proves Case 2;
    past it Case 2 is decided False and the MAD fallback takes the far row
    as its outlier.  The labels stay 1 keep, 11 duplicate; only the
    category moves, as it does above ~11.5k rows at the shipped budget."""
    import lasvdedup_ray.stages.classify as mod

    monkeypatch.setattr(mod, "PAIRWISE_CAP", 4)
    monkeypatch.setattr(mod, "CASE2_EXACT_PAIR_BUDGET", budget)
    ids = [f"m{i:02d}" for i in range(12)]
    sigs = [make_sig()] * 11 + [make_sig(list(range(19)), tag=1)]
    out = classify(group_table(ids, sigs))
    cls = out["classification"].to_pylist()
    assert cls.count(KEEP) == 1 and cls.count(DUPLICATE) == 11
    assert set(out["decision_category"].to_pylist()) == {category}


def test_rank_tiebreak_on_id():
    # equal len-distance and selection => id ascending wins (the value-based
    # total order replacing the reference's insertion-order min())
    ranks = compute_ranks(
        np.array([4000, 4000, 4000]),
        np.array(["c", "a", "b"]),
        [np.array([5.0, 5.0, 5.0])],
        target_length=4000,
    )
    assert list(ranks) == [3, 1, 2]


def test_rank_selection_desc():
    ranks = compute_ranks(
        np.array([4000, 4000]),
        np.array(["a", "b"]),
        [np.array([1.0, 9.0])],
        target_length=4000,
    )
    assert list(ranks) == [2, 1]  # higher selection value ranks first


def test_per_lang_thresholds():
    cfg = PipelineConfig(lang_thresholds={"js": ClassThresholds(tau=0.5)})
    cls = make_partition_classifier(cfg)
    # d ≈ 0.4: duplicate under js tau=0.5, small-clade under default 0.2
    sigs = [make_sig(), make_sig(d_slots(0.4), tag=1)]
    out_js = cls(group_table(["a", "b"], sigs, langs=["js", "js"]))
    assert set(out_js["decision_category"].to_pylist()) == {BELOW}
    out_py = cls(group_table(["a", "b"], sigs, langs=["py", "py"]))
    assert set(out_py["decision_category"].to_pylist()) == {SMALL}


def _random_partition(rng, n_clusters=40):
    """One hash partition: ``n_clusters`` clusters of 1-12 rows plus one of
    105 (past MEMBER_LIST_CAP), interleaved in random upstream order.  Each
    cluster's signatures follow one of four shapes (near-identical,
    scattered, tight with a far member, spread) so all five cases occur;
    a strict majority lang per cluster (null included), NaN selection
    values and repeated n_chars exercise the per-lang thresholds, the rank
    keys and the id tie-break."""
    langs_pool = [None, "py", "js", "go"]
    cols = {k: [] for k in ("id", "cluster_id", "lang", "n_chars", "n_lines", "score", "minhash")}
    sizes = list(rng.integers(1, 13, n_clusters)) + [105]
    for c, m in enumerate(sizes):
        shape = rng.integers(0, 4)
        major = langs_pool[rng.integers(0, 4)]
        langs = [major] * (m // 2 + 1)
        langs += [langs_pool[rng.integers(0, 4)] for _ in range(m - len(langs))]
        base = (np.arange(NP, dtype=np.int64) + 1000 + c * 7919).astype(np.uint32)
        cluster_id = f"k{rng.integers(0, 10**5):05d}_{c}"
        for i in range(m):
            if shape == 0:
                lo, w = rng.integers(0, 10), rng.integers(0, 12)
            elif shape == 1:
                lo, w = rng.integers(0, 60), rng.integers(0, 60)
            elif shape == 2:
                lo, w = (i * 14) % 100, 19 if rng.random() > 0.15 else 60
            else:
                lo, w = (i * 14) % 90, 38
            sig = base.copy()
            w = min(w, NP - lo)
            sig[lo : lo + w] = rng.integers(0, 2**32, w, dtype=np.uint64).astype(np.uint32)
            cols["id"].append(f"r{rng.integers(0, 10**6):06d}_{len(cols['id'])}")
            cols["cluster_id"].append(cluster_id)
            cols["lang"].append(langs[i])
            cols["n_chars"].append(int(rng.choice([3000, 3500, 4000, 4400])))
            cols["n_lines"].append(int(rng.integers(1, 5)))
            cols["score"].append(float("nan") if rng.random() < 0.2 else float(rng.integers(0, 3)))
            cols["minhash"].append(sig.tobytes())
    perm = rng.permutation(len(cols["id"]))
    n = perm.size
    return pa.table(
        {
            "id": pa.array([cols["id"][i] for i in perm], pa.string()),
            "cluster_id": pa.array([cols["cluster_id"][i] for i in perm], pa.string()),
            "lang": pa.array([cols["lang"][i] for i in perm], pa.string()),
            "n_chars": pa.array([cols["n_chars"][i] for i in perm], pa.int64()),
            "n_lines": pa.array([cols["n_lines"][i] for i in perm], pa.int64()),
            "score": pa.array([cols["score"][i] for i in perm], pa.float64()),
            "sha256": pa.array([bytes([i % 256]) * 32 for i in perm], pa.binary()),
            "minhash": pa.array([cols["minhash"][i] for i in perm], pa.large_binary()),
            "pkey": pa.array(np.zeros(n, np.int32)),
        }
    )


def test_partition_matches_oracle():
    """Whole partitions give the per-cluster tree's full table, every
    column and the row order included."""
    from classify_oracle import oracle_partition_classifier

    cfg = PipelineConfig(
        selection_columns=("n_lines", "score"),
        lang_thresholds={
            "js": ClassThresholds(tau=0.35, min_neighborhood=4, target_length=3000),
            "go": ClassThresholds(z_threshold=1.5),
        },
    )
    new, oracle = make_partition_classifier(cfg), oracle_partition_classifier(cfg)
    seen = set()
    for seed in range(8):
        g = _random_partition(np.random.default_rng(seed))
        want = oracle(g)
        got = new(g)
        assert got.schema == want.schema
        for col in want.column_names:
            assert got[col].equals(want[col]), (seed, col)
        seen |= set(want["decision_category"].to_pylist())
    assert seen == {SINGLE, BELOW, SMALL, OUTLIERS, COINF}


def test_majority_lang_tie_independent_of_hash_seed():
    """A 2-2 lang tie picks the smallest lang ("js", tau 0.5 -> Case 2)
    in every process; a set-order tie-break flips with PYTHONHASHSEED
    (seeds 0 and 3 order {"py", "js"} differently)."""
    script = (
        "import numpy as np, pyarrow as pa\n"
        "from lasvdedup_ray.config import ClassThresholds, PipelineConfig\n"
        "from lasvdedup_ray.stages.classify import make_partition_classifier\n"
        "base = (np.arange(128, dtype=np.int64) + 1000).astype(np.uint32)\n"
        "sigs = []\n"
        "for i in range(4):\n"
        "    s = base.copy(); s[: 51 if i else 0] = 7 + i; sigs.append(s.tobytes())\n"
        "t = pa.table({'id': list('abcd'), 'cluster_id': ['a'] * 4,\n"
        "              'lang': ['py', 'js', 'py', 'js'], 'n_chars': [4000] * 4,\n"
        "              'n_lines': [10] * 4, 'sha256': [b'0' * 32] * 4,\n"
        "              'minhash': pa.array(sigs, pa.large_binary())})\n"
        "cfg = PipelineConfig(lang_thresholds={'js': ClassThresholds(tau=0.5)})\n"
        "print(make_partition_classifier(cfg)(t)['decision_category'][0])\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    verdicts = set()
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=root)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        verdicts.add(out.stdout.strip())
    assert verdicts == {BELOW}


def test_case2_pairwise_check_memory_bounded():
    """Case 2 on a 2,048-row cluster compares its 2.1M pairs in bounded
    steps: gathering every pair's signatures at once took 2.3 GB."""
    m = 2048
    ids = [f"m{i:05d}" for i in range(m)]
    sigs = [make_sig(d_slots(0.05), tag=i % 2) for i in range(m)]
    t = group_table(ids, sigs)
    tracemalloc.start()
    try:
        out = classify(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(out["decision_category"].to_pylist()) == {BELOW}
    assert peak < 256 << 20, peak
