"""``exact.min_id_stars``, the one kernel that builds min-id star edges (the
sha collapse on both plans, and ``group_key_edges``), against a plain-Python
reference."""

import pyarrow as pa
import pytest

from lasvdedup_ray.stages.exact import min_id_stars
from lasvdedup_ray.stages.lsh import PAIR_SCHEMA


def _reference(keys, ids):
    """({key: row of its min id}, {(min id, other id)}) in Python ``str``
    order."""
    groups = {}
    for row, (key, id_) in enumerate(zip(keys, ids)):
        groups.setdefault(key, []).append((id_, row))
    reps = {key: min(members)[1] for key, members in groups.items()}
    edges = {
        (min(members)[0], id_)
        for members in groups.values()
        for id_, _ in members
        if id_ != min(members)[0]
    }
    return reps, edges


CASES = {
    "ties": ([b"k1", b"k1", b"k2", b"k1", b"k2"], ["c", "a", "z", "b", "y"]),
    "single_member_keys": ([b"k3", b"k1", b"k2"], ["x", "y", "z"]),
    # UTF-8 byte order is code point order, as Python compares str; a
    # UTF-16 order would put the astral U+1F600 below U+FFFF
    "non_ascii": (
        [b"a", b"a", b"b", b"b", b"c", b"c", b"c"],
        ["\U0001f600", "\uffff", "\u00e9", "e\u0301", "\u65e5\u672c", "\u00ff", "z"],
    ),
    "min_not_first": ([b"k", b"j", b"k", b"k", b"j"], ["m", "q", "b", "a", "p"]),
    "empty": ([], []),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_min_id_stars_matches_reference(case):
    keys, ids = CASES[case]
    rep_rows, edges = min_id_stars(pa.array(keys, pa.binary()), pa.array(ids, pa.string()))
    reps, expect = _reference(keys, ids)
    assert [keys[r] for r in rep_rows] == sorted(reps)  # one per key, in key order
    assert {keys[r]: int(r) for r in rep_rows} == reps
    assert edges.schema == PAIR_SCHEMA
    assert set(zip(edges["id_a"].to_pylist(), edges["id_b"].to_pylist())) == expect
    assert edges.num_rows == len(expect) == len(keys) - len(reps)
    assert set(edges["est_distance"].to_pylist()) <= {0.0}


def test_min_id_stars_chunked_input():
    """Block columns arrive chunked: the kernel reads across chunks."""
    keys, ids = CASES["ties"]
    rep_rows, edges = min_id_stars(
        pa.chunked_array([keys[:2], keys[2:]], pa.binary()),
        pa.chunked_array([ids[:3], ids[3:]], pa.string()),
    )
    reps, expect = _reference(keys, ids)
    assert {keys[r]: int(r) for r in rep_rows} == reps
    assert set(zip(edges["id_a"].to_pylist(), edges["id_b"].to_pylist())) == expect
