"""Execution-plan equivalence: each size-gated alternate plan of the
flagship, forced on at a small size, must give the same result as the
default plan.

- LSH hot sets: derived on the driver from the broadcast blob's sig16
  matrix (at most ``lsh._DRIVER_HOT_ROWS`` rows) vs the key-count
  hash_exchange, with the hot-key set held exactly (at most
  ``lsh._HOT_EXACT_KEYS`` keys) or as a bloom bitmap — the SAME candidate
  pair set.
- LSH signature transport: broadcast blob (at most ``lsh._BROADCAST_ROWS``
  rows, and while its id hashes do not collide) vs inline sig16 band rows
  — the SAME candidate pair set.
- Exact-dup sha collapse: on the driver (at most ``exact._DRIVER_ROWS``
  rows) vs the sha hash exchange — identical cluster membership and
  classifications.
- Connected components: on the driver (at most ``unionfind._DSU_EDGES``
  edges) vs distributed label propagation — the same full result table,
  so classify's ``pkey``, appended at label attach, reaches classify on
  both paths.

Each test forces the other plan by setting the gate's module constant.
"""

import dataclasses

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from lasvdedup_ray.config import PipelineConfig
from lasvdedup_ray.pipelines.dedup import candidate_tau, dedup_pipeline
from lasvdedup_ray.sources.corpus import CorpusSpec, generate_corpus
from lasvdedup_ray.stages import exact, lsh
from lasvdedup_ray.stages.lsh import candidate_pairs
from lasvdedup_ray.stages.signatures import add_signatures


@pytest.fixture(scope="module")
def signed_corpus():
    corpus, _ = generate_corpus(CorpusSpec(n_files=300, seed=17))
    cfg = PipelineConfig()
    signed = add_signatures(ray.data.from_arrow(corpus), cfg=cfg.signature).materialize()
    return corpus, cfg, signed


def _pairset(slim, cfg, lsh_cfg):
    emit_tau = candidate_tau(cfg) + cfg.lsh.exact_margin_high
    df = candidate_pairs(slim, cfg.signature, lsh_cfg, tau=emit_tau).to_pandas()
    # an empty result may come back without columns
    return set(zip(df["id_a"], df["id_b"])) if len(df) else set()


@pytest.mark.parametrize("band_cap", [256, 4])
def test_broadcast_and_inline_transport_same_pairs(signed_corpus, monkeypatch, band_cap):
    """At band_cap 4 the corpus has capped buckets, so the plans' cmask
    (capped-band bitmask) is compared too."""
    _, cfg, signed = signed_corpus
    slim = signed.select_columns(["id", "minhash", "simhash"])
    base = dataclasses.replace(cfg.lsh, band_cap=band_cap)

    # default: broadcast blob + driver-side hot sets (300 rows is under
    # every cap); then the blob with counted hot sets, and the inline
    # transport (always counted) with an exact and a bloom hot-key set
    default = _pairset(slim, cfg, base)
    monkeypatch.setattr(lsh, "_DRIVER_HOT_ROWS", 0)
    counted = _pairset(slim, cfg, base)
    monkeypatch.undo()
    monkeypatch.setattr(lsh, "_BROADCAST_ROWS", 0)
    inline = _pairset(slim, cfg, base)
    monkeypatch.setattr(lsh, "_HOT_EXACT_KEYS", 0)
    bloom = _pairset(slim, cfg, base)
    assert default == counted == inline == bloom and len(default) > 0


def test_sig_store_id_hash_collision_falls_back_inline(signed_corpus, monkeypatch, caplog):
    """Two ids with one 64-bit hash would resolve to one signature in the
    broadcast blob: ``_build_sig_store`` must refuse the blob, and
    ``candidate_pairs`` then gives the default pair set by inline transport.
    The collision is forced by folding every store-row id hash to 4 values."""
    _, cfg, signed = signed_corpus
    slim = signed.select_columns(["id", "minhash", "simhash"])
    default = _pairset(slim, cfg, cfg.lsh)

    real_row_fn = lsh._make_store_row_fn

    def colliding_row_fn(sig_cfg):
        to_store_rows = real_row_fn(sig_cfg)

        def collide(t: pa.Table) -> pa.Table:
            out = to_store_rows(t)
            idh = out["idh"].to_numpy() & np.uint64(3)
            return out.set_column(0, "idh", pa.array(idh, pa.uint64()))

        return collide

    monkeypatch.setattr(lsh, "_make_store_row_fn", colliding_row_fn)
    assert lsh._build_sig_store(slim, cfg.signature) == (None, None)
    assert "id-hash collision" in caplog.text
    assert _pairset(slim, cfg, cfg.lsh) == default and len(default) > 0


def test_candidate_pairs_single_rep_gives_no_pairs(signed_corpus):
    """An all-identical corpus collapses to one rep, while the fused
    sha-collapse output still holds a row per input row (reps + star
    edges): ``candidate_pairs`` counts the one rep and gives the empty pair
    set, not a crash."""
    _, cfg, _ = signed_corpus
    corpus, _ = generate_corpus(CorpusSpec(n_files=30, seed=3))
    same = corpus.set_column(
        corpus.schema.get_field_index("content"),
        "content",
        pa.array([corpus["content"][0].as_py()] * corpus.num_rows, corpus.schema.field("content").type),
    )
    signed_same = add_signatures(ray.data.from_arrow(same), cfg=cfg.signature)
    fused = exact.exact_collapse(signed_same).materialize()
    reps = exact.fused_reps(fused)
    assert reps.count() == 1 and fused.count() == corpus.num_rows
    assert _pairset(reps, cfg, cfg.lsh) == set()


def _canon_results(ds) -> pd.DataFrame:
    df = ds.to_pandas()[
        ["id", "classification", "decision_category", "is_representative"]
    ]
    return df.sort_values("id").reset_index(drop=True)


def test_driver_collapse_matches_exchange_collapse(signed_corpus, monkeypatch):
    """The small-input driver-side sha collapse (``exact._DRIVER_ROWS``)
    must yield identical classifications to the exact_collapse exchange
    plan — same min(id)-per-sha reps, same star edges."""
    corpus, _, _ = signed_corpus
    base = PipelineConfig()
    driver = _canon_results(
        dedup_pipeline(ray.data.from_arrow(corpus), base, num_partitions=4)
    )
    monkeypatch.setattr(exact, "_DRIVER_ROWS", 0)
    exchange = _canon_results(
        dedup_pipeline(ray.data.from_arrow(corpus), base, num_partitions=4)
    )
    pd.testing.assert_frame_equal(driver, exchange)


def test_distributed_components_same_results(signed_corpus, monkeypatch):
    """With ``unionfind._DSU_EDGES`` = 0 the components run as distributed
    label propagation; the job's full result table (every column, sorted
    by id) equals the driver path's.  ``group_members`` lists a cluster's
    ids in the order its rows reach classify, which the distributed path's
    join does not keep, so each list is compared sorted."""
    from lasvdedup_ray.state import unionfind

    corpus, cfg, _ = signed_corpus

    def results() -> pa.Table:
        ds = dedup_pipeline(ray.data.from_arrow(corpus), cfg, num_partitions=4)
        t = pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])
        col = t.schema.get_field_index("group_members")
        members = [sorted(m) for m in t["group_members"].to_pylist()]
        t = t.set_column(col, t.field(col), pa.array(members, t.field(col).type))
        return t.sort_by("id")

    driver = results()
    monkeypatch.setattr(unionfind, "_DSU_EDGES", 0)
    calls = []
    real = unionfind.components_distributed
    monkeypatch.setattr(
        unionfind, "components_distributed", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    distributed = results()
    assert calls == [1]
    assert driver.num_rows == corpus.num_rows
    assert distributed.equals(driver)


@pytest.mark.parametrize("collapse", ["driver", "exchange"])
def test_exchange_partition_count_invariant(signed_corpus, monkeypatch, collapse):
    """The flagship's output and candidate pair set do not depend on how
    many partitions its hash exchanges use (``exchange_partitions``): 1, a
    non-power-of-two (LSH rounds it up to 4) and 64.  ``exchange`` runs the
    sha collapse through ``hash_exchange`` (``exact._DRIVER_ROWS = 0``
    turns the driver collapse off)."""
    from lasvdedup_ray.stages import exchange

    corpus, cfg, signed = signed_corpus
    slim = signed.select_columns(["id", "minhash", "simhash"])
    emit_tau = candidate_tau(cfg) + cfg.lsh.exact_margin_high
    digests, pairsets, calls = [], [], []
    if collapse == "exchange":
        monkeypatch.setattr(exact, "_DRIVER_ROWS", 0)
    for n_parts in (1, 3, 64):
        monkeypatch.setattr(
            exchange, "exchange_partitions", lambda n=n_parts: calls.append(n) or n
        )
        df = dedup_pipeline(ray.data.from_arrow(corpus), cfg, num_partitions=4).to_pandas()
        digests.append(
            df[["id", "cluster_id", "classification"]]
            .sort_values("id")
            .reset_index(drop=True)
        )
        pairs = candidate_pairs(slim, cfg.signature, cfg.lsh, tau=emit_tau).to_pandas()
        pairsets.append(set(zip(pairs["id_a"], pairs["id_b"])))
        # consulted by (the exchange sha collapse,) LSH and classify in the
        # pipeline, and by the direct candidate_pairs call
        assert calls.count(n_parts) >= (4 if collapse == "exchange" else 3)
    for other in digests[1:]:
        pd.testing.assert_frame_equal(digests[0], other)
    assert pairsets[0] == pairsets[1] == pairsets[2] and len(pairsets[0]) > 0
    assert len(digests[0]) == corpus.num_rows


def test_embedding_neardup_pairs_chunked_matches_broadcast():
    """The exact pair join above the broadcast cap (chunked block-nested
    loop) must emit IDENTICAL (id_a, id_b, cosine_e6) rows to the
    single-broadcast path (VERDICT r3 #2)."""
    from lasvdedup_ray.pipelines.ann import embedding_neardup_pairs

    sf = "/root/testdata/sf0.001"
    full = embedding_neardup_pairs(sf).to_pandas()
    # tiny cap: 64-dim float64 rows are 512 B, so 80 rows/chunk -> 7 chunks
    chunked = embedding_neardup_pairs(sf, broadcast_cap_bytes=80 * 64 * 8).to_pandas()
    assert len(full) > 0
    pd.testing.assert_frame_equal(
        full.reset_index(drop=True), chunked.reset_index(drop=True)
    )


def test_knn_graph_chunked_matches_broadcast():
    """The kNN graph above the broadcast cap (sequential chunk passes +
    query-keyed top-k merge) must emit IDENTICAL (query_id, vec_id,
    cosine_e6) rows to the single-broadcast path, including ties resolved
    across chunk boundaries."""
    from lasvdedup_ray.pipelines.ann import knn_graph_embeddings

    sf = "/root/testdata/sf0.001"
    full = knn_graph_embeddings(sf).to_pandas()
    chunked = knn_graph_embeddings(sf, broadcast_cap_bytes=80 * 64 * 8).to_pandas()
    assert len(full) > 0
    pd.testing.assert_frame_equal(
        full.reset_index(drop=True), chunked.reset_index(drop=True)
    )


def test_knn_graph_matches_numpy_reference(tmp_path):
    """Engine kNN graph equals a brute-force numpy reference on a planted
    table with an exact-duplicate vector pair (cosine 1.0 ties) and an
    orthogonal vector (fewer-than-k neighborhood still emits k rows when
    n-1 >= k)."""
    import pyarrow.parquet as pq

    from lasvdedup_ray.pipelines.ann import knn_graph_embeddings

    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(20, 8))
    vecs[7] = vecs[3]  # exact duplicate -> cosine_e6 == 1e6 with tie-break
    t = pa.table(
        {
            "vec_id": pa.array(range(20), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
            ),
            "label": pa.array([0] * 20, pa.int32()),
        }
    )
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = knn_graph_embeddings(str(tmp_path), k=3).to_pandas()

    m = np.array(
        [np.asarray(r, np.float64) for r in t["embedding"].to_pylist()]
    )
    n = m / np.linalg.norm(m, axis=1, keepdims=True)
    cos = n @ n.T
    q = np.where(cos * 1e6 >= 0, np.floor(cos * 1e6 + 0.5), np.ceil(cos * 1e6 - 0.5)).astype(
        np.int64
    )
    exp_rows = []
    for i in range(20):
        cand = [(int(-q[i, j]), j) for j in range(20) if j != i]
        for negq, j in sorted(cand)[:3]:
            exp_rows.append((i, j, -negq))
    exp = (
        pd.DataFrame(exp_rows, columns=["query_id", "vec_id", "cosine_e6"])
        .sort_values(["query_id", "vec_id"])
        .reset_index(drop=True)
    )
    got = got.sort_values(["query_id", "vec_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
    # the duplicate pair found each other at exactly 1e6
    assert got.query("query_id == 3 and vec_id == 7")["cosine_e6"].iloc[0] == 1_000_000


def test_knn_graph_chunked_empty_passes(tmp_path):
    """A 1-row table forced onto the chunked path (every chunk pass emits
    zero rows after the self-mask) returns a typed empty result instead of
    crashing on an empty pass list."""
    import pyarrow.parquet as pq

    from lasvdedup_ray.pipelines.ann import knn_graph_embeddings

    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([1], pa.int64()),
                "embedding": pa.array([[1.0, 0.0]], pa.list_(pa.float32())),
                "label": pa.array([0], pa.int32()),
            }
        ),
        str(tmp_path / "embeddings.parquet"),
    )
    ds = knn_graph_embeddings(str(tmp_path), broadcast_cap_bytes=1)
    assert ds.schema().names == ["query_id", "vec_id", "cosine_e6"]
    assert ds.count() == 0
