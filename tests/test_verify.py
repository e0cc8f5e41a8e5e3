"""verify_pairs: exact boundary semantics must hold however the border set
is chunked — in one driver chunk, or in many (``_BORDER_CHUNK`` patched
to 1: one pair per chunk).  Boundary pairs are exact-checked at every
scale (round-1 ADVICE: the old code skipped exact verification above a
driver cap)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from lasvdedup_ray.config import LSHConfig, SignatureConfig
from lasvdedup_ray.stages.exchange import block_tables, dataset_from_tables
from lasvdedup_ray.stages.lsh import PAIR_SCHEMA
from lasvdedup_ray.stages import verify
from lasvdedup_ray.stages.verify import exact_jaccard, verify_pairs

SIG = SignatureConfig(k=3)
TAU = 0.2


def _mk(words, drop=0):
    """Doc built from numbered tokens; `drop` controls exact Jaccard."""
    return " ".join(f"tok{i:04d}" for i in range(drop, words + drop))


def _jaccard(pairs) -> np.ndarray:
    """``exact_jaccard`` of ``(content_a, content_b)`` pairs, each content
    its own id."""
    a, b = (pa.array([p[k] for p in pairs], pa.string()) for k in (0, 1))
    return exact_jaccard(pa.table({"id_a": a, "id_b": b, "content_a": a, "content_b": b}), SIG)


@pytest.fixture(scope="module")
def fixture_data():
    # near pair (a,b): high overlap => exact d well under tau
    a, b = _mk(200), _mk(200, drop=4)
    # far pair (c,d): ~1/3 overlap => exact d well over tau
    c, d = _mk(90), _mk(90, drop=60)
    da, dc = 1.0 - _jaccard([(a, b), (c, d)])
    assert da <= TAU < dc, (da, dc)
    content = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(["a", "b", "c", "d", "e", "f"], pa.string()),
                "content": pa.array([a, b, c, d, _mk(50), _mk(50, 40)], pa.string()),
            }
        )
    )
    # both candidate pairs land IN the borderline band (est > tau - 0.04);
    # (e,f) is a sure pair (est below the band) that must pass unchecked
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array(["a", "c", "e"], pa.string()),
                "id_b": pa.array(["b", "d", "f"], pa.string()),
                "est_distance": pa.array([0.18, 0.18, 0.05], pa.float64()),
            },
            schema=PAIR_SCHEMA,
        )
    )
    return pairs, content


@pytest.mark.parametrize("chunk", [5000, 1])  # one chunk / one pair per chunk
def test_borderline_exact_checked_both_paths(fixture_data, chunk, monkeypatch):
    monkeypatch.setattr(verify, "_BORDER_CHUNK", chunk)
    pairs, content = fixture_data
    out = verify_pairs(pairs, content, SIG, LSHConfig(), tau=TAU).take_all()
    kept = {(r["id_a"], r["id_b"]) for r in out}
    assert ("a", "b") in kept  # borderline, exact d <= tau -> kept
    assert ("c", "d") not in kept  # borderline, exact d > tau -> dropped
    assert ("e", "f") in kept  # sure pair passes without content check


def test_no_borderline_short_circuit(fixture_data):
    _, content = fixture_data
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array(["e"], pa.string()),
                "id_b": pa.array(["f"], pa.string()),
                "est_distance": pa.array([0.01], pa.float64()),
            },
            schema=PAIR_SCHEMA,
        )
    )
    out = verify_pairs(pairs, content, SIG, LSHConfig(), tau=TAU).take_all()
    assert [(r["id_a"], r["id_b"]) for r in out] == [("e", "f")]


@pytest.mark.parametrize("chunk", [5000, 1])  # one chunk / one pair per chunk
def test_attach_pair_contents_drops_missing_ids_both_paths(fixture_data, chunk, monkeypatch):
    # ADVICE r2: a pair with an endpoint absent from the content table is
    # DROPPED (inner-join semantics), never a KeyError — whether it shares
    # its chunk with a kept pair or sits in a chunk of its own.
    from lasvdedup_ray.stages.verify import attach_pair_contents

    monkeypatch.setattr(verify, "_BORDER_CHUNK", chunk)
    _, content = fixture_data
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array(["a", "ghost"], pa.string()),
                "id_b": pa.array(["b", "b"], pa.string()),
                "est_distance": pa.array([0.1, 0.1], pa.float64()),
            },
            schema=PAIR_SCHEMA,
        )
    )
    out = attach_pair_contents(pairs, content).take_all()
    assert {(r["id_a"], r["id_b"]) for r in out} == {("a", "b")}
    assert all("content_a" in r and "content_b" in r for r in out)


def test_border_set_over_many_chunks(monkeypatch, executions):
    """A border set of 9 pairs in chunks of 2 (5 chunks, one cut inside a
    pair block) gives the single-chunk edge set, exact distances included,
    and starts no Ray Data execution."""
    docs = {f"d{i}": _mk(200, drop=6 * i) for i in range(10)}
    content = dataset_from_tables(
        [pa.table({"id": list(docs), "content": list(docs.values())})]
    )
    ids = sorted(docs)
    # every pair borderline (est 0.18 > tau - 0.04): each one is exact-checked;
    # d_i shifts the tokens by 6i, so the exact distance to d0 grows with i
    # and crosses tau between d7 and d8
    rows = [(ids[0], b) for b in ids[1:]]
    tables = [
        pa.table(
            {
                "id_a": pa.array([a for a, _ in part], pa.string()),
                "id_b": pa.array([b for _, b in part], pa.string()),
                "est_distance": pa.array([0.18] * len(part), pa.float64()),
            },
            schema=PAIR_SCHEMA,
        )
        for part in (rows[:3], rows[3:])
    ]
    pairs = dataset_from_tables(tables)

    def edges() -> set:
        out = verify_pairs(pairs, content, SIG, LSHConfig(), tau=TAU)
        return {
            (r["id_a"], r["id_b"], round(r["est_distance"], 12))
            for t in block_tables(out)
            for r in t.to_pylist()
        }

    one = edges()
    monkeypatch.setattr(verify, "_BORDER_CHUNK", 2)
    executions.clear()
    many = edges()
    assert executions == []
    assert many == one
    # the set is non-trivial: some border pairs kept, some dropped
    assert 0 < len(one) < len(rows), one


def test_each_distinct_endpoint_shingled_once(monkeypatch):
    """A hub document paired with 50 others is shingled once, not once per
    pair: 51 documents reach the shingler for 50 pairs, and the distances
    are those of checking each pair on its own."""
    hub = _mk(120)
    others = [_mk(120, drop=i) for i in range(1, 51)]
    want = np.array([_jaccard([(hub, o)])[0] for o in others])
    docs = []
    real = verify.shingle_hashes_batch
    monkeypatch.setattr(
        verify,
        "shingle_hashes_batch",
        lambda buf, starts, *a, **k: docs.append(len(starts)) or real(buf, starts, *a, **k),
    )
    got = _jaccard([(hub, o) for o in others])
    assert docs == [51]
    assert np.array_equal(got, want)


def test_border_check_uses_sign_normalization():
    """The exact check measures the shingle set the MinHash sketched:
    surrounding whitespace becomes one space (it is not stripped), and a
    no-break space stays itself, so neither variant is an exact copy."""
    body = _mk(3)
    assert _jaccard([(body, body.upper())])[0] == 1.0
    for variant in ("\n" + body + "\n", body.replace(" ", "\u00a0")):
        assert _jaccard([(body, variant)])[0] < 1.0
