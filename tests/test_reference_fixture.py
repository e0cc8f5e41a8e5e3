"""Conformance against the reference's OWN e2e fixture (VERDICT r3 #4).

Replays ``/root/reference/tests/data/contigs-test.tsv`` +
``tests/data/seq_data/LVE0000{1,2}/*.fasta`` through the rebuilt pipeline
with the reference's own thresholds (``tests/data/test-config.yaml:24-38``)
and grouping regex, one run per segment exactly like the reference builds
one tree per segment, and diffs the per-record verdict column against the
reference's expected classification set.

Reference expectation for this fixture: every (sample, segment) group
holds exactly one contig, so ``classify_sample`` takes its singleton
branch — all four records are GOOD with DecisionCategory.SINGLE_SEQUENCE
(``lasvdedup/utils/sequence_grouping.py:209-221``; the e2e harness
``tests/test_pipeline.py:109-125`` writes them to the classifications
TSV).  The rebuilt analog must produce keep/SingleSequence for the same
four ids — in particular the two same-segment contigs from DIFFERENT
samples must NOT be merged by the content-similarity path at the
reference's PWD=0.02 threshold.

The reference tree is not part of this repository; when it is absent the
tests that read it skip, and ``test_synthetic_fixture_*`` pins the same
property on an in-repo analog (seeded sequences, same regex, thresholds
and ``group_only`` run).
"""

import csv
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from lasvdedup_ray.config import ClassThresholds, PipelineConfig
from lasvdedup_ray.pipelines.dedup import dedup_pipeline
from lasvdedup_ray.sources.corpus import SOURCE_SCHEMA

REF_DATA = Path("/root/reference/tests/data")
needs_reference = pytest.mark.skipif(
    not REF_DATA.is_dir(),
    reason=f"reference fixture tree {REF_DATA} is absent; "
    "test_synthetic_fixture_verdict_parity pins the same property in-repo",
)

# tests/data/test-config.yaml:24-38
SAMPLE_REGEX = r"LVE[0-9]{5}"
THRESHOLDS = {
    "L": ClassThresholds(tau=0.02, min_neighborhood=8, z_threshold=0.75, target_length=7200),
    "S": ClassThresholds(tau=0.02, min_neighborhood=8, z_threshold=0.75, target_length=3400),
}


def _load_fixture():
    """(rows, rank_rows) from the reference fixture files."""
    with open(REF_DATA / "contigs-test.tsv") as f:
        recs = list(csv.DictReader(f, delimiter="\t"))
    rows = {k: [] for k in SOURCE_SCHEMA.names}
    rank_rows = {"id": [], "reads_mapped": [], "coverage_10x": []}
    for r in recs:
        name = r["index"]
        sample = name.split("_")[0]
        segment = r["(annotation) segment"]
        fasta = REF_DATA / "seq_data" / sample / f"{name}.fasta"
        seq = "".join(
            line.strip()
            for line in fasta.read_text().splitlines()
            if not line.startswith(">")
        )
        rows["repo"].append(sample)
        rows["path"].append(name)
        rows["commit"].append("fixture")
        rows["lang"].append(segment)
        rows["content"].append(seq)
        rank_rows["id"].append(f"{sample}:{name}@fixture")
        rank_rows["reads_mapped"].append(
            float(r["(samtools Post-dedup) reads mapped (R1+R2)"])
        )
        rank_rows["coverage_10x"].append(
            float(r["(general_stats) mosdepth 10X coverage"])
        )
    return pa.table(rows, schema=SOURCE_SCHEMA), pa.table(rank_rows)


def _group_only_config(segment: str) -> PipelineConfig:
    """The reference's per-segment run: thresholds from its test config,
    clustering per sample ONLY — content similarity is consulted within a
    group, never to merge samples."""
    return PipelineConfig(
        group_regex=SAMPLE_REGEX,
        group_only=True,
        default_thresholds=THRESHOLDS[segment],
        lang_thresholds=dict(THRESHOLDS),
        selection_columns=("reads_mapped", "coverage_10x"),
    )


def _assert_singleton_verdicts(corpus: pa.Table, rank_tab: pa.Table, segment: str):
    seg_mask = [lang == segment for lang in corpus["lang"].to_pylist()]
    seg_tbl = corpus.filter(pa.array(seg_mask))
    assert seg_tbl.num_rows == 2  # one contig per sample in this segment
    out = (
        dedup_pipeline(
            ray.data.from_arrow(seg_tbl),
            _group_only_config(segment),
            num_partitions=2,
            rank_table=ray.data.from_arrow(rank_tab),
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    # verdict parity: the reference classifies every fixture record GOOD
    # via the singleton branch; the rebuilt analog is keep/SingleSequence
    assert len(out) == 2
    assert out["classification"].tolist() == ["keep", "keep"]
    assert out["decision_category"].tolist() == ["SingleSequence", "SingleSequence"]
    assert out["is_representative"].all()
    # each record is its own cluster (different samples never merge here)
    assert out["cluster_id"].nunique() == 2


@needs_reference
@pytest.mark.parametrize("segment", ["L", "S"])
def test_reference_fixture_verdict_parity(ray_session, segment):
    _assert_singleton_verdicts(*_load_fixture(), segment)


def _synthetic_fixture(seed: int = 20):
    """In-repo analog of the reference fixture: 2 samples x segments L/S,
    one contig each, with seeded random ACGT sequences at the segments'
    target lengths (independent random sequences differ at ~3/4 of their
    sites, far above PWD=0.02) and seeded rank values."""
    rng = np.random.default_rng(seed)
    rows = {k: [] for k in SOURCE_SCHEMA.names}
    rank_rows = {"id": [], "reads_mapped": [], "coverage_10x": []}
    for sample in ("LVE00001", "LVE00002"):
        for segment in ("L", "S"):
            name = f"{sample}_{segment}_contig1"
            seq = "".join(rng.choice(list("acgt"), THRESHOLDS[segment].target_length))
            rows["repo"].append(sample)
            rows["path"].append(name)
            rows["commit"].append("fixture")
            rows["lang"].append(segment)
            rows["content"].append(seq)
            rank_rows["id"].append(f"{sample}:{name}@fixture")
            rank_rows["reads_mapped"].append(float(rng.integers(100, 2000)))
            rank_rows["coverage_10x"].append(float(rng.uniform(50, 100)))
    return pa.table(rows, schema=SOURCE_SCHEMA), pa.table(rank_rows)


def test_synthetic_fixture_cross_sample_distance():
    corpus, _ = _synthetic_fixture()
    for segment in ("L", "S"):
        a, b = [
            r["content"] for r in corpus.to_pylist() if r["lang"] == segment
        ]
        mismatch = sum(x != y for x, y in zip(a, b)) / len(a)
        assert mismatch > THRESHOLDS[segment].tau


@pytest.mark.parametrize("segment", ["L", "S"])
def test_synthetic_fixture_verdict_parity(ray_session, segment):
    _assert_singleton_verdicts(*_synthetic_fixture(), segment)


@needs_reference
def test_reference_fixture_within_sample_duplicate(ray_session):
    """The reference's below-PWD-threshold case
    (test_sequence_grouping.py:594-616) driven through the FULL pipeline on
    the fixture's real L sequence: a second contig for the same sample with
    a handful of SNPs sits below PWD=0.02, so the reference keeps the
    higher-read contig (GOOD) and marks the other BAD with
    DecisionCategory.BELOW_THRESHOLD — the rebuilt analog must produce
    keep/duplicate with BelowThreshold and the same winner."""
    corpus, rank_tab = _load_fixture()
    l_rows = corpus.filter(
        pa.array([lang == "L" for lang in corpus["lang"].to_pylist()])
    )
    base = l_rows.to_pylist()
    lve1 = next(r for r in base if r["repo"] == "LVE00001")
    # contig2: same sequence with 5 point mutations (distance << PWD)
    seq = list(lve1["content"])
    for pos in (100, 2000, 3500, 5000, 7000):
        seq[pos] = {"a": "c", "c": "g", "g": "t", "t": "a"}[seq[pos]]
    dup_row = dict(lve1, path="LVE00001_L_contig2", content="".join(seq))
    tbl = pa.table(
        {k: [r[k] for r in base + [dup_row]] for k in SOURCE_SCHEMA.names},
        schema=SOURCE_SCHEMA,
    )
    # contig2 has MORE reads -> wins the ranking, like the reference's
    # 'seq2 highest reads' expectation
    rank = rank_tab.to_pydict()
    rank["id"].append("LVE00001:LVE00001_L_contig2@fixture")
    rank["reads_mapped"].append(2000.0)
    rank["coverage_10x"].append(100.0)

    out = (
        dedup_pipeline(
            ray.data.from_arrow(tbl),
            _group_only_config("L"),
            num_partitions=2,
            rank_table=ray.data.from_arrow(pa.table(rank)),
        )
        .to_pandas()
        .set_index("id")
    )
    assert len(out) == 3
    k1 = out.loc["LVE00001:LVE00001_L_contig1@fixture"]
    k2 = out.loc["LVE00001:LVE00001_L_contig2@fixture"]
    other = out.loc["LVE00002:LVE00002_L_contig1@fixture"]
    # within-sample: higher-read contig wins, other is duplicate
    assert k2["classification"] == "keep" and k2["decision_category"] == "BelowThreshold"
    assert k1["classification"] == "duplicate" and k1["decision_category"] == "BelowThreshold"
    # the OTHER sample stays its own singleton (never merged by content)
    assert other["classification"] == "keep"
    assert other["decision_category"] == "SingleSequence"
