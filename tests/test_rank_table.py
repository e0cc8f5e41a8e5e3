"""Metadata ranking side table (reference contigs-table analog,
``io_utils.py:30-61``): custom selection columns drive representative
choice; edge-list sink replaces the dense matrix writer."""

import os

import pyarrow as pa
import ray
import ray.data

from lasvdedup_ray.config import PipelineConfig
from lasvdedup_ray.pipelines.dedup import dedup_pipeline
from lasvdedup_ray.sources.corpus import SOURCE_SCHEMA


def _corpus_of_exact_dups():
    content = "def shared():\n    return 42\n" * 30
    rows = {
        "repo": ["o/r"] * 3,
        "path": [f"f{i}.py" for i in range(3)],
        "commit": [f"{i:040d}" for i in range(3)],
        "lang": ["py"] * 3,
        "content": pa.array([content] * 3, pa.large_string()),
    }
    t = pa.table(rows, schema=SOURCE_SCHEMA)
    ids = [f"o/r:f{i}.py@{i:040d}" for i in range(3)]
    return t, ids


def test_rank_table_drives_representative():
    corpus, ids = _corpus_of_exact_dups()
    # without a rank table, equal n_chars/n_lines => id ASC tie-break => f0 wins
    base = dedup_pipeline(
        ray.data.from_arrow(corpus), PipelineConfig(), num_partitions=2
    ).to_pandas()
    rep0 = base[base["is_representative"]].iloc[0]["id"]
    assert rep0 == ids[0]

    # stars column ranks f2 best
    rank_t = pa.table(
        {"id": pa.array(ids, pa.string()), "stars": pa.array([1.0, 5.0, 50.0])}
    )
    cfg = PipelineConfig(selection_columns=("stars",))
    out = dedup_pipeline(
        ray.data.from_arrow(corpus),
        cfg,
        num_partitions=2,
        rank_table=ray.data.from_arrow(rank_t),
    ).to_pandas()
    rep = out[out["is_representative"]].iloc[0]
    assert rep["id"] == ids[2]
    assert rep["classification"] == "keep"
    ranks = dict(zip(out["id"], out["rank"]))
    assert ranks[ids[2]] == 1 and ranks[ids[0]] == 3  # stars DESC, then id


def test_rank_table_missing_rows_rank_last():
    corpus, ids = _corpus_of_exact_dups()
    # only f1 has metadata — rows without metadata rank after it
    rank_t = pa.table({"id": pa.array([ids[1]], pa.string()), "stars": pa.array([9.0])})
    cfg = PipelineConfig(selection_columns=("stars",))
    out = dedup_pipeline(
        ray.data.from_arrow(corpus),
        cfg,
        num_partitions=2,
        rank_table=ray.data.from_arrow(rank_t),
    ).to_pandas()
    rep = out[out["is_representative"]].iloc[0]
    assert rep["id"] == ids[1]


def test_edges_out_sink(tmp_path, executor_starts, monkeypatch):
    """The verified edge list is written by raw tasks, one part file per
    block, without a Ray Data executor, and reads back as the edge set the
    clustering received."""
    import pyarrow.parquet as pq

    from lasvdedup_ray.pipelines import dedup
    from lasvdedup_ray.sources.readers import read_parquet_clean

    corpus, ids = _corpus_of_exact_dups()
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(corpus, src)
    seen = []
    assign = dedup.assign_clusters

    def recording(meta, edges, **kw):
        seen.append(edges)
        return assign(meta, edges, **kw)

    monkeypatch.setattr(dedup, "assign_clusters", recording)
    edir = str(tmp_path / "edges")
    ray.get(
        dedup_pipeline(
            read_parquet_clean([src]), PipelineConfig(), num_partitions=2, edges_out=edir
        ).to_arrow_refs()
    )
    assert executor_starts == []
    files = sorted(os.listdir(edir))
    assert files == [f"part-{i:05d}.parquet" for i in range(len(files))]
    edges = ray.data.read_parquet(edir).to_pandas()
    assert len(edges) >= 2  # 3 identical docs connect
    assert set(edges.columns) == {"id_a", "id_b", "est_distance"}
    assert (edges["est_distance"] == 0.0).all()
    cols = ["id_a", "id_b", "est_distance"]
    got = sorted(map(tuple, edges[cols].itertuples(index=False)))
    (sent,) = seen
    assert got == sorted(map(tuple, sent.to_pandas()[cols].itertuples(index=False)))
