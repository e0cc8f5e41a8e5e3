"""Skew handling: boilerplate-heavy corpora must not break recall or blow
up pair generation (north_rule: explicit hot-key handling)."""

import itertools

import numpy as np
import pyarrow as pa
import ray.data

from lasvdedup_ray.config import LSHConfig, PipelineConfig, SignatureConfig
from lasvdedup_ray.functions.hashing import shingle_hashes
from lasvdedup_ray.pipelines.dedup import dedup_pipeline
from lasvdedup_ray.sources.corpus import BOILERPLATE_HEADER, SOURCE_SCHEMA


def boiler_corpus(n_unique=60, n_dup_groups=8, seed=3):
    """Corpus where EVERY file shares the license header; some files are
    exact/near dups on top of it."""
    rng = np.random.default_rng(seed)
    rows = {k: [] for k in SOURCE_SCHEMA.names}
    i = 0

    def add(content):
        nonlocal i
        rows["repo"].append(f"o/r{i % 7}")
        rows["path"].append(f"src/f{i}.py")
        rows["commit"].append(f"{i:040d}")
        rows["lang"].append("py")
        rows["content"].append(content)
        i += 1

    def body():
        return "\n".join(
            f"stmt_{int(x)} = call_{int(y)}({int(z)})"
            for x, y, z in rng.integers(0, 5000, (40, 3))
        )

    for _ in range(n_unique):
        add(BOILERPLATE_HEADER + body())
    truth_groups = []
    for g in range(n_dup_groups):
        b = BOILERPLATE_HEADER + body()
        members = []
        for j in range(3):
            add(b)  # exact dups
            members.append(i - 1)
        truth_groups.append(members)
    return pa.table(rows, schema=SOURCE_SCHEMA), truth_groups


def test_boilerplate_does_not_merge_unrelated_files():
    corpus, truth_groups = boiler_corpus()
    out = dedup_pipeline(
        ray.data.from_arrow(corpus), PipelineConfig(), num_partitions=4
    ).to_pandas()
    cl = dict(zip(out["id"], out["cluster_id"]))
    ids = list(out.sort_values("id")["id"])
    # dup groups share a cluster
    by_row = out.sort_index()
    # map row order: ids were generated in order f0..fN
    id_by_idx = {int(p.split("/f")[1].split(".py")[0]): full
                 for full, p in zip(out["id"], out["id"].str.split(":").str[1])}
    for members in truth_groups:
        clusters = {cl[id_by_idx[m]] for m in members}
        assert len(clusters) == 1
    # unrelated boilerplate files stay separate (share only the header,
    # J ~ header/(total) << 1-tau)
    unrelated = [id_by_idx[k] for k in range(10)]
    assert len({cl[u] for u in unrelated}) == len(unrelated)


def test_tiny_band_cap_preserves_exact_dup_recall():
    corpus, truth_groups = boiler_corpus()
    cfg = PipelineConfig(lsh=LSHConfig(band_cap=4, cap_neighbors=2))
    out = dedup_pipeline(ray.data.from_arrow(corpus), cfg, num_partitions=4).to_pandas()
    cl = dict(zip(out["id"], out["cluster_id"]))
    id_by_idx = {int(p.split("/f")[1].split(".py")[0]): full
                 for full, p in zip(out["id"], out["id"].str.split(":").str[1])}
    for members in truth_groups:
        assert len({cl[id_by_idx[m]] for m in members}) == 1


def test_capped_earlier_band_does_not_suppress_pair():
    """ADVICE r1: if a pair's first agreeing band landed in a CAPPED bucket
    (which only chains SimHash neighbors), a later uncapped band must still
    emit the pair — the earlier-band skip may only trust uncapped bands.
    Band rows are fed directly to the partition pair emitter with ``cmask``
    marking band 0 capped."""
    from lasvdedup_ray.stages.lsh import make_partition_pair_emitter

    sig_cfg = SignatureConfig(k=1, num_perms=8, bands=2, rows=4)
    emit = make_partition_pair_emitter(sig_cfg, LSHConfig(), tau=0.2)
    sig = np.arange(8, dtype=np.uint16).tobytes()  # identical sigs -> d=0

    def part(cmask_bits):
        return pa.table(
            {
                "band": pa.array([1, 1], pa.int32()),
                "bh": pa.array([99, 99], pa.uint64()),
                "id": pa.array(["a", "b"], pa.string()),
                "sig16": pa.array([sig, sig], pa.binary(16)),
                "simhash": pa.array([0, 1], pa.uint64()),
                "cmask": pa.array([cmask_bits, cmask_bits], pa.uint64()),
            }
        )

    # band 0 capped (bit 0 set): the band-1 bucket must emit the pair
    out = emit(part(1))
    assert out.num_rows == 1
    assert out["id_a"].to_pylist() == ["a"] and out["id_b"].to_pylist() == ["b"]
    # band 0 uncapped: canonical-band emission skips (band 0 emitted it)
    assert emit(part(0)).num_rows == 0
