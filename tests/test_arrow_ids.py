"""After sign, the flagship keeps ids and contents in Arrow arrays and
numpy integer codes: no module on that path turns a column into Python
objects (``to_pylist``) or builds an object-dtype numpy array."""

import pathlib

import pytest

PKG = pathlib.Path(__file__).resolve().parent.parent / "lasvdedup_ray"
POST_SIGN = [
    "stages/lsh.py",
    "stages/verify.py",
    "stages/exact.py",
    "state/unionfind.py",
    "pipelines/dedup.py",
]


@pytest.mark.parametrize("module", POST_SIGN)
def test_no_python_objects_after_sign(module):
    src = (PKG / module).read_text()
    assert "to_pylist(" not in src
    assert "dtype=object" not in src
