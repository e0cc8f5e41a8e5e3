"""CLI + config layering + sinks (conformance TSV, metrics)."""

import json
import os
import subprocess
import sys

import pytest
import ray.data

from lasvdedup_ray.config_io import build_config, load_config_file


def test_build_config_defaults():
    cfg = build_config()
    assert cfg.signature.num_perms == 128
    assert cfg.default_thresholds.tau == 0.2


def test_build_config_layering(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "thresholds": {"tau": 0.3},
        "signature": {"k": 7},
        "lang_thresholds": {"js": {"tau": 0.5}},
    }))
    cfg = build_config(str(p))
    assert cfg.default_thresholds.tau == 0.3
    assert cfg.signature.k == 7
    assert cfg.lang_thresholds["js"].tau == 0.5
    # CLI override wins over file
    cfg2 = build_config(str(p), {"thresholds": {"tau": 0.1}})
    assert cfg2.default_thresholds.tau == 0.1
    assert cfg2.signature.k == 7


def test_yaml_fallback_parser(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(
        "thresholds:\n  tau: 0.25\n  min_neighborhood: 4\n"
        "signature:\n  bands: 16\n  rows: 8\n"
        "group_only: true\n"
    )
    d = load_config_file(str(p))
    assert d["thresholds"]["tau"] == 0.25
    assert d["signature"]["bands"] == 16
    assert d["group_only"] is True
    cfg = build_config(str(p))
    assert cfg.default_thresholds.min_neighborhood == 4
    assert cfg.signature.bands == 16 and cfg.signature.rows == 8
    assert cfg.group_only is True


@pytest.mark.parametrize(
    "layer, key",
    [
        ({"exact_first": True}, "exact_first"),
        ({"signature": {"scheme": "classic"}}, "scheme"),
        ({"execution": {"batch_size": 512}}, "execution"),
        ({"lang_thresholds": {"py": {"tua": 0.3}}}, "tua"),
        ({"lsh": {"pair_batch_rows": 1}}, "pair_batch_rows"),
        ({"lsh": {"hot_driver_cap": 1}}, "hot_driver_cap"),
        ({"execution": {"exact_driver_cap": 0}}, "execution"),
        ({"lsh": {"sig_broadcast_cap": 0}}, "sig_broadcast_cap"),
        ({"lsh": {"hot_exact_cap": 0}}, "hot_exact_cap"),
    ],
)
def test_build_config_rejects_unknown_keys(tmp_path, layer, key):
    """A key the config does not have raises, naming the key, at the top
    level and inside a section, from a file and from overrides alike."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(layer))
    with pytest.raises(ValueError, match=key):
        build_config(str(p))
    with pytest.raises(ValueError, match=key):
        build_config(None, layer)


def test_config_dict_roundtrip(tmp_path):
    """``config_to_dict`` output, written to a file, builds the same config
    back (``--print-config`` then ``--config``), reference-parity grouping
    and per-lang thresholds included."""
    import dataclasses

    from lasvdedup_ray.config import ClassThresholds, PipelineConfig
    from lasvdedup_ray.config_io import config_to_dict

    cfg = PipelineConfig(
        group_only=True,
        group_regex=r"^([^/]+)/",
        lang_thresholds={"py": ClassThresholds(tau=0.3, min_neighborhood=3)},
        lsh=dataclasses.replace(PipelineConfig().lsh, band_cap=64),
    )
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config_to_dict(cfg)))
    back = build_config(str(p))
    assert config_to_dict(back) == config_to_dict(cfg)
    assert back.group_only is True and back.lang_thresholds["py"].tau == 0.3


def test_cli_end_to_end(tmp_path):
    """Run the real CLI in a subprocess on a small corpus (owns its own Ray
    session, as a user would)."""
    from lasvdedup_ray.sources.corpus import CorpusSpec, write_corpus

    corpus = write_corpus(str(tmp_path / "corpus"), CorpusSpec(n_files=80), shards=2)
    out = tmp_path / "out"
    res = subprocess.run(
        [
            sys.executable, "-m", "lasvdedup_ray", "run",
            "--input", os.path.join(corpus, "part-00000.parquet"),
            "--output", str(out),
            "--num-cpus", "2",
            "--num-partitions", "4",
            "--write-tsv", "--metrics",
            "--tau", "0.2",
        ],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    assert summary["rows"] > 0
    assert os.path.exists(summary["tsv"])
    assert os.path.exists(summary["metrics"])
    tsv = open(summary["tsv"]).read().splitlines()
    assert tsv[0].startswith("id\tclassification")
    assert len(tsv) == summary["rows"] + 1
    ids = [l.split("\t")[0] for l in tsv[1:]]
    assert ids == sorted(ids)  # sorted by id (io_utils.py:153 analog)
    metrics = json.load(open(summary["metrics"]))
    assert metrics["output_rows"] == summary["rows"]
    assert "classification_counts" in metrics


def test_annotation_tsv_and_stats_payload(tmp_path, corpus_tables):
    """Slim 4-col annotation sink (reference FigTree writer analog) + the
    per-record stats JSON payload (reference contig_stats)."""
    import json as _json

    from lasvdedup_ray.config import PipelineConfig
    from lasvdedup_ray.pipelines.dedup import dedup_pipeline
    from lasvdedup_ray.sources.io import ANNOTATION_COLUMNS, write_annotation_tsv

    corpus, _ = corpus_tables
    res = dedup_pipeline(
        ray.data.from_arrow(corpus.slice(0, 80)), PipelineConfig(), num_partitions=4
    ).materialize()
    # stats column: valid JSON with the reference contig_stats analog keys
    row = res.take(1)[0]
    st = _json.loads(row["stats"])
    assert set(st) == {"n_chars", "n_lines", "len_distance"}
    assert st["len_distance"] == abs(st["n_chars"] - 4000)
    path = write_annotation_tsv(res, str(tmp_path))
    lines = open(path).read().splitlines()
    assert lines[0] == "\t".join(ANNOTATION_COLUMNS)
    assert len(lines) == res.count() + 1
    # sorted by id, 4 columns each
    ids = [ln.split("\t")[0] for ln in lines[1:]]
    assert ids == sorted(ids)
    assert all(len(ln.split("\t")) == 4 for ln in lines[1:])


def test_setup_logging_file_sink(tmp_path):
    import logging

    from lasvdedup_ray.sources.io import setup_logging

    log_path = str(tmp_path / "run.log")
    setup_logging("DEBUG", log_path)
    setup_logging("DEBUG", log_path)  # idempotent: no duplicate handler
    logger = logging.getLogger("lasvdedup_ray.test_sink")
    logger.debug("hello-from-test")
    for h in logging.getLogger("lasvdedup_ray").handlers:
        h.flush()
    content = open(log_path).read()
    assert content.count("hello-from-test") == 1


def test_conformance_tsv_rows_match_header(tmp_path, corpus_tables):
    # r3: header and rows must agree on column count (the r2 writer emitted
    # a 9-column header over 8-field rows), and the sink streams batches
    # (no driver-side accumulation) — verified here by value.
    import ray.data

    from lasvdedup_ray.config import PipelineConfig
    from lasvdedup_ray.pipelines.dedup import dedup_pipeline
    from lasvdedup_ray.sources.io import TSV_COLUMNS, write_conformance_tsv

    corpus, _ = corpus_tables
    res = dedup_pipeline(
        ray.data.from_arrow(corpus), PipelineConfig(), num_partitions=4
    )
    path = write_conformance_tsv(res, str(tmp_path))
    lines = open(path).read().rstrip("\n").split("\n")
    header = lines[0].split("\t")
    assert header == TSV_COLUMNS
    assert all(len(ln.split("\t")) == len(TSV_COLUMNS) for ln in lines[1:])
    ids = [ln.split("\t")[0] for ln in lines[1:]]
    assert ids == sorted(ids) and len(ids) == res.count()


def test_cli_print_config_and_dry_run(tmp_path):
    """--print-config emits the effective layered config (round-trippable
    via --config); --dry-run prints the stage plan and executes nothing."""
    from lasvdedup_ray.sources.corpus import CorpusSpec, write_corpus

    corpus = write_corpus(str(tmp_path / "corpus"), CorpusSpec(n_files=20), shards=1)
    base = [
        sys.executable, "-m", "lasvdedup_ray", "run",
        "--input", os.path.join(corpus, "part-00000.parquet"),
        "--output", str(tmp_path / "out"),
        "--num-cpus", "2",
        "--tau", "0.15",
    ]
    res = subprocess.run(
        base + ["--print-config"], capture_output=True, text=True,
        cwd="/root/repo", timeout=120,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    cfg = json.loads(res.stdout)
    assert cfg["thresholds"]["tau"] == 0.15
    assert cfg["signature"]["num_perms"] == 128
    # round-trip: the printed config is valid --config input
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    from lasvdedup_ray.config_io import build_config

    assert build_config(str(cfg_path)).default_thresholds.tau == 0.15

    res = subprocess.run(
        base + ["--dry-run", "--checkpoint-dir", str(tmp_path / "ck")],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    plan = json.loads(res.stdout.strip().splitlines()[-1])
    assert plan["dry_run"] and [p["stage"] for p in plan["plan"]][:2] == ["signed", "reps"]
    assert not os.path.exists(tmp_path / "out")  # nothing executed
