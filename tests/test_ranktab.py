"""Fuzzy rank-table key resolution — mirrors the reference's
get_contig_data tests (tests/utils/test_sequence_grouping.py:176-244):
exact match, _R_ strip, first-dot split, dot-boundary prefix, hard error
on miss.  Both the broadcast and the distributed candidate-explode paths
must agree."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from lasvdedup_ray.config import PipelineConfig
from lasvdedup_ray.pipelines.dedup import dedup_pipeline, group_key_edges
from lasvdedup_ray.stages import ranktab
from lasvdedup_ray.stages.ranktab import attach_rank_table, candidate_keys


def _rank_ds(keys_vals):
    return ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(list(keys_vals), pa.string()),
                "reads": pa.array([v for v in keys_vals.values()], pa.int64()),
            }
        )
    )


def _meta_ds(names):
    return ray.data.from_arrow(pa.table({"id": pa.array(names, pa.string())}))


RANK = {"seq1": 100, "seq2_with_suffix": 200, "seq3.part1": 300, "seq.with.dots": 500}
NAMES = [
    "seq1",                    # exact (ref :186)
    "_R_seq1",                 # _R_ strip (ref :209)
    "seq3.part1.extra",        # dot-boundary prefix (ref :214)
    "_R_seq2_with_suffix",     # combined (ref :219)
    "seq.with.dots.extra",     # dots in key (ref :241)
]
EXPECT = {
    "seq1": 100,
    "_R_seq1": 100,
    "seq3.part1.extra": 300,
    "_R_seq2_with_suffix": 200,
    "seq.with.dots.extra": 500,
}


@pytest.mark.parametrize("cap", [10_000, 0])  # broadcast / distributed path
def test_three_stage_resolution(cap, monkeypatch):
    monkeypatch.setattr(ranktab, "_BROADCAST_ROWS", cap)
    out = attach_rank_table(_meta_ds(NAMES), _rank_ds(RANK)).to_pandas()
    got = dict(zip(out["id"], out["reads"]))
    assert got == EXPECT


@pytest.mark.parametrize("cap", [10_000, 0])
def test_miss_policy_error(cap, monkeypatch):
    monkeypatch.setattr(ranktab, "_BROADCAST_ROWS", cap)
    # worker-raised ValueError arrives wrapped in RayTaskError: match text
    with pytest.raises(Exception, match="not found"):
        attach_rank_table(
            _meta_ds(["notfound"]), _rank_ds(RANK), miss_policy="error"
        ).materialize()


def test_miss_policy_rank_last():
    out = attach_rank_table(
        _meta_ds(["seq1", "missing_one"]), _rank_ds(RANK)
    ).to_pandas()
    got = dict(zip(out["id"], out["reads"]))
    assert got["seq1"] == 100 and pd.isna(got["missing_one"])


def test_candidate_keys_priorities():
    ks = candidate_keys("_R_a.b.c")
    assert ks[0] == ("_R_a.b.c", 0)      # exact first
    assert ks[1] == ("a", 1)             # _R_ strip + first-dot split
    # dot prefixes, longest first
    tail = [k for k, _ in ks[2:]]
    assert tail == ["_R_a.b", "_R_a"]


def test_group_regex_links_sample_rows():
    """SAMPLE_REGEX analog: rows sharing the extracted key cluster together
    even with dissimilar content (the reference groups per sample before
    any distance work)."""
    import numpy as np

    rng = np.random.default_rng(5)

    def body(seed):
        r = np.random.default_rng(seed)
        return " ".join(f"tok{int(x):06d}" for x in r.integers(0, 10**6, 80))

    t = pa.table(
        {
            "repo": pa.array(["r"] * 4, pa.string()),
            "path": pa.array(
                ["sampleA/f1.py", "sampleA/f2.py", "sampleB/g1.py", "sampleB/g2.py"],
                pa.string(),
            ),
            "commit": pa.array(["c"] * 4, pa.string()),
            "lang": pa.array(["py"] * 4, pa.string()),
            "content": pa.array([body(i) for i in range(4)], pa.string()),
        }
    )
    cfg = PipelineConfig(group_regex=r"sample[A-Z]")
    res = dedup_pipeline(ray.data.from_arrow(t), cfg, num_partitions=4).to_pandas()
    clusters = dict(zip(res["id"], res["cluster_id"]))
    a = {v for k, v in clusters.items() if "sampleA" in k}
    b = {v for k, v in clusters.items() if "sampleB" in k}
    assert len(a) == 1 and len(b) == 1 and a != b
