"""End-to-end pipeline test with an exact-Jaccard single-linkage oracle.

The oracle is a direct reimplementation of the reference's
``cluster_sequences`` semantics (``sequence_grouping.py:89-118``: connected
components of the d <= tau graph, inclusive boundary) over EXACT shingle-set
Jaccard — what the reference would compute given a perfect distance oracle.

Gates (BASELINE.json north_rule / input_hint):
- dup-pair recall >= 0.99 vs the oracle clustering at the same
  shingle/signature config
- sha256(content) equality for every surviving row vs the input
- exactly one representative per non-distinct cluster
"""

import hashlib
import itertools

import numpy as np
import pytest
import ray.data

from lasvdedup_ray.config import PipelineConfig
from lasvdedup_ray.functions.hashing import shingle_hashes
from lasvdedup_ray.pipelines.dedup import (
    attach_content,
    dedup_pipeline,
    survivors,
)
from lasvdedup_ray.stages.prepare import prepare
from dsu import DSU


@pytest.fixture(scope="module")
def pipeline_result(corpus_tables):
    corpus, truth = corpus_tables
    cfg = PipelineConfig()
    ds = ray.data.from_arrow(corpus)
    res = dedup_pipeline(ds, cfg, num_partitions=4).materialize()
    return corpus, cfg, res


def oracle_clusters(corpus, cfg):
    """Single-linkage over exact normalized-shingle Jaccard, d <= tau."""
    texts = corpus["content"].to_pylist()
    repos = corpus["repo"].to_pylist()
    paths = corpus["path"].to_pylist()
    commits = corpus["commit"].to_pylist()
    ids = [f"{r}:{p}@{c}" for r, p, c in zip(repos, paths, commits)]
    sets = []
    for t in texts:
        norm = " ".join(t.lower().split())
        sets.append(set(shingle_hashes(norm.encode(), cfg.signature.k).tolist()))
    tau = cfg.default_thresholds.tau
    dsu = DSU()
    for i in ids:
        dsu.find(i)
    n = len(ids)
    for i, j in itertools.combinations(range(n), 2):
        inter = len(sets[i] & sets[j])
        if inter == 0:
            continue
        union = len(sets[i] | sets[j])
        if 1.0 - inter / union <= tau:  # inclusive boundary
            dsu.union(ids[i], ids[j])
    return ids, dsu.labels()


def same_cluster_pairs(labels_by_id):
    from collections import defaultdict

    groups = defaultdict(list)
    for i, lab in labels_by_id.items():
        groups[lab].append(i)
    pairs = set()
    for mem in groups.values():
        mem.sort()
        for a, b in itertools.combinations(mem, 2):
            pairs.add((a, b))
    return pairs


def test_dup_pair_recall(pipeline_result):
    corpus, cfg, res = pipeline_result
    out = res.to_pandas()
    assert len(out) == corpus.num_rows
    ids, oracle = oracle_clusters(corpus, cfg)
    oracle_pairs = same_cluster_pairs(oracle)
    ours = same_cluster_pairs(dict(zip(out["id"], out["cluster_id"])))
    assert oracle_pairs, "oracle found no duplicate pairs — fixture broken"
    recall = len(ours & oracle_pairs) / len(oracle_pairs)
    precision = len(ours & oracle_pairs) / max(1, len(ours))
    assert recall >= 0.99, f"dup-pair recall {recall:.4f} < 0.99"
    assert precision >= 0.95, f"dup-pair precision {precision:.4f}"


def test_one_representative_per_cluster(pipeline_result):
    _, _, res = pipeline_result
    out = res.to_pandas()
    reps = out.groupby("cluster_id")["is_representative"].sum()
    assert (reps == 1).all()
    # non-distinct clusters keep exactly one row
    keep = out[out["classification"] == "keep"].groupby("cluster_id").size()
    non_distinct = out[out["decision_category"] != "TrueCoinfection"]
    k2 = non_distinct.groupby("cluster_id").size()
    keeps = non_distinct[non_distinct["classification"] == "keep"].groupby("cluster_id").size()
    assert (keeps.reindex(k2.index, fill_value=0) == 1).all()


def test_sha256_invariant_on_survivors(pipeline_result, corpus_tables):
    corpus, _ = corpus_tables
    _, cfg, res = pipeline_result
    prepared = prepare(ray.data.from_arrow(corpus))
    surv = survivors(attach_content(res, prepared, num_partitions=4)).to_pandas()
    assert len(surv) > 0
    for _, row in surv.iterrows():
        assert hashlib.sha256(row["content"].encode()).digest() == row["sha256"]


def test_exact_dups_share_cluster(pipeline_result, corpus_tables):
    corpus, _ = corpus_tables
    _, _, res = pipeline_result
    out = res.to_pandas()
    cl = dict(zip(out["id"], out["cluster_id"]))
    from collections import defaultdict

    by_content = defaultdict(list)
    for r, p, c, t in zip(
        corpus["repo"].to_pylist(),
        corpus["path"].to_pylist(),
        corpus["commit"].to_pylist(),
        corpus["content"].to_pylist(),
    ):
        by_content[t].append(f"{r}:{p}@{c}")
    checked = 0
    for mem in by_content.values():
        if len(mem) > 1:
            assert len({cl[i] for i in mem}) == 1
            checked += 1
    assert checked > 0


def test_deterministic_reruns(corpus_tables):
    corpus, _ = corpus_tables
    cfg = PipelineConfig()
    sub = corpus.slice(0, 120)
    a = dedup_pipeline(ray.data.from_arrow(sub), cfg, num_partitions=4).to_pandas()
    b = dedup_pipeline(ray.data.from_arrow(sub), cfg, num_partitions=4).to_pandas()
    a = a.sort_values("id").reset_index(drop=True)
    b = b.sort_values("id").reset_index(drop=True)
    for col in ["id", "cluster_id", "classification", "decision_category", "rank"]:
        assert (a[col] == b[col]).all(), col


def test_degenerate_inputs_single_and_empty():
    """A 1-row input (zero colliding buckets) and a 0-row input must flow
    through the whole pipeline (round-1 bug: empty hot-key set crashed
    candidate_pairs with a schemaless pandas frame)."""
    import pyarrow as pa

    one = ray.data.from_arrow(
        pa.table(
            {
                "repo": ["r"],
                "path": ["p"],
                "commit": ["c"],
                "lang": ["py"],
                "content": ["solitary content with no possible partner"],
            }
        )
    )
    rows = dedup_pipeline(one, PipelineConfig()).take_all()
    assert len(rows) == 1
    assert rows[0]["classification"] == "keep"
    assert rows[0]["decision_category"] == "SingleSequence"

    empty = ray.data.from_arrow(
        pa.table(
            {
                "repo": pa.array([], pa.string()),
                "path": pa.array([], pa.string()),
                "commit": pa.array([], pa.string()),
                "lang": pa.array([], pa.string()),
                "content": pa.array([], pa.string()),
            }
        )
    )
    assert dedup_pipeline(empty, PipelineConfig()).count() == 0


def test_minhash_dedup_best_quality_picks_high_alpha(ray_session, tmp_path):
    """Quality-aware selection: in a planted near-dup cluster the surviving
    representative must be the member with the higher alpha ratio, not the
    one the default length-distance rank would pick."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lasvdedup_ray.pipelines.docdedup import minhash_dedup_best_quality

    base = " ".join(f"tok{i:04d}" for i in range(120))
    texts = [
        base + " 1234567890 0987654321 1111111",  # digit-heavy near-dup (low alpha)
        base + " appended pure alpha words here",  # alpha-heavy near-dup
        "completely different unique content " + " ".join(f"z{i}" for i in range(80)),
    ]
    d = tmp_path / "qd"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * 3, pa.string()),
                "source": pa.array(["web"] * 3, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    res = minhash_dedup_best_quality(str(d), num_partitions=4).to_pandas()
    assert len(res) == 3
    by_doc = res.set_index("doc_id")
    # docs 0 and 1 cluster together; the alpha-heavy doc 1 must be the rep
    assert by_doc.loc[0, "cluster_id"] == by_doc.loc[1, "cluster_id"]
    assert bool(by_doc.loc[1, "is_representative"])
    assert not bool(by_doc.loc[0, "is_representative"])
    assert bool(by_doc.loc[2, "is_representative"])
