"""The shingling normalizer (``functions.text.normalized_bytes``) against
the Arrow normalization it replaced -- ``utf8_lower`` then
``replace_substring_regex`` of each whitespace run with one space, kept
here as the oracle -- and ``MinHashSigner`` against a signer built on it."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from lasvdedup_ray.config import SignatureConfig
from lasvdedup_ray.functions.hashing import (
    oph_signatures,
    shingle_hashes_batch,
    simhash_from_sigs,
)
from lasvdedup_ray.functions.text import normalized_bytes
from lasvdedup_ray.stages.signatures import MinHashSigner

WS_REGEX = r"[ \t\r\n\f\v]+"
WS = "\t\n\x0b\x0c\r "

ASCII_ROWS = (
    [f"A{c}B" for c in WS]
    + [f"A{c}{c}{c}B" for c in WS]
    + [
        "Mixed \t\r\n\x0b\x0c Run",
        "Hello World FOO_bar 42",
        # ASCII control bytes next to the whitespace set do not collapse
        "a\x1c\x1c b\x1d\x1e\x1fc\x08\x08d\x0e\x0ee",
        "trailing run \t ",
        " \n leading run",  # follows a row ending in a run
        "   ",
        "",
        "x",
        "\n",
    ]
)
UNICODE_ROWS = [
    "İstanbul İİ",  # 2 bytes upper, lower changes the length
    "STRASSE ß ẞ",
    "ΟΔΟΣ  ΣΑΣ Σ",  # final sigma
    "Emoji 😀😀  UPPER 👍",
    "nbsp\u00a0\u00a0kept",  # U+00A0 is not in the regex's class
    "line\u2028\u2028sep",  # nor is U+2028
    "nel\u0085\u0085x",
    "Café   NAÏVE\t\tÜber",
]


def arrow_normalize(col, lowercase=True, collapse_ws=True):
    """The Arrow normalization ``normalized_bytes`` replaced."""
    if lowercase:
        col = pc.utf8_lower(col)
    if collapse_ws:
        col = pc.replace_substring_regex(col, WS_REGEX, " ")
    return col


def arrow_string_bytes(arr):
    """(data buffer, starts, ends) of a string array, nulls as empty rows:
    the zero-copy glue the Arrow path handed the shingler."""
    if arr.null_count:
        arr = arr.fill_null("")
    wide = pa.types.is_large_string(arr.type)
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int64 if wide else np.int32)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    return data, offs[:-1], offs[1:]


def oracle_rows(col, **kw):
    return [(v or "").encode() for v in arrow_normalize(col, **kw).to_pylist()]


def rows(col, **kw):
    buf, starts, ends = normalized_bytes(col, **kw)
    assert starts.shape == ends.shape == (len(col),)
    return [buf[a:b].tobytes() for a, b in zip(starts, ends)]


FLAGS = [
    dict(lowercase=True, collapse_ws=True),
    dict(lowercase=True, collapse_ws=False),
    dict(lowercase=False, collapse_ws=True),
    dict(lowercase=False, collapse_ws=False),
]


@pytest.mark.parametrize("flags", FLAGS)
@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
@pytest.mark.parametrize("data", [ASCII_ROWS, ASCII_ROWS + UNICODE_ROWS], ids=["ascii", "unicode"])
def test_matches_arrow_oracle(data, typ, flags):
    """The ASCII-only path (arithmetic lowercase) and the ``utf8_lower``
    path give the oracle's bytes for every row, whitespace runs at row
    starts, ends and boundaries included."""
    arr = pa.array(data, typ)
    assert rows(arr, **flags) == oracle_rows(arr, **flags)


def test_every_ascii_byte():
    """Each ASCII byte doubled between letters: only {9-13, 32} collapse."""
    arr = pa.array([f"Q{chr(c)}{chr(c)}{chr(c)}Z" for c in range(1, 128)])
    assert rows(arr) == oracle_rows(arr)


def test_random_rows():
    rng = np.random.default_rng(7)
    alphabet = list(WS) + list("AZaz09_-\x1c\x1f") + ["İ", "ß", "Σ", "é", "😀", " "]
    data = [
        "".join(rng.choice(alphabet, size=int(rng.integers(0, 30))).tolist())
        for _ in range(400)
    ]
    for arr in (pa.array(data), pa.array([s for s in data if s.isascii()])):
        assert rows(arr) == oracle_rows(arr)


@pytest.mark.parametrize(
    "data",
    [
        ["AB", "CDİ", "", ""],  # the last non-empty row is non-ASCII at its end
        ["", "ΣX", "", "Y", "ÜZ"],
        ["İ", "", "Σ", "QQ", ""],
        ["ASCII ONLY", "", "ALSO ASCII"],
    ],
)
def test_non_ascii_rows_among_ascii_rows(data):
    """Only the rows holding a byte >= 0x80 go through ``utf8_lower``;
    empty rows next to them and at the end of the column included."""
    for typ in (pa.string(), pa.large_string()):
        arr = pa.array(data, typ)
        assert rows(arr) == oracle_rows(arr)
        assert rows(arr.slice(1)) == oracle_rows(arr.slice(1))


def test_nulls_and_empty():
    assert rows(pa.array([], pa.string())) == []
    arr = pa.array(["A  b", None, "", None, "C\t\td"])
    assert rows(arr) == oracle_rows(arr) == [b"a b", b"", b"", b"", b"c d"]
    # a null slot may span bytes of the values buffer; it still reads as ""
    spanning = pa.Array.from_buffers(
        pa.string(),
        3,
        [
            pa.py_buffer(np.packbits([1, 0, 1, 0, 0, 0, 0, 0], bitorder="little").tobytes()),
            pa.py_buffer(np.array([0, 4, 9, 14], np.int32).tobytes()),
            pa.py_buffer(b"AA  NULL \tBB\t\t"),
        ],
        null_count=1,
    )
    assert rows(spanning) == oracle_rows(spanning) == [b"aa ", b"", b" bb "]


def test_sliced_chunked_and_large():
    data = ASCII_ROWS + UNICODE_ROWS
    arr = pa.array(data)
    sliced = arr.slice(5, 20)
    assert sliced.offset == 5
    assert rows(sliced) == oracle_rows(sliced)
    chunked = pa.chunked_array([arr.slice(0, 7), arr.slice(7, 3), arr.slice(10)])
    assert rows(chunked) == oracle_rows(chunked)
    one_chunk = pa.chunked_array([pa.array(ASCII_ROWS, pa.large_string()).slice(2)])
    assert rows(one_chunk) == oracle_rows(one_chunk)
    assert rows(pa.chunked_array([], pa.string())) == []


def arrow_signer(t, cfg):
    """``MinHashSigner``'s columns computed from the Arrow normalization."""
    norm = arrow_normalize(t["content"], cfg.lowercase, cfg.collapse_ws).combine_chunks()
    buf, starts, ends = arrow_string_bytes(norm)
    hashes, offsets, counts = shingle_hashes_batch(buf, starts, ends, cfg.k, cfg.sample_mod)
    sigs = oph_signatures(hashes, offsets, counts, cfg.num_perms)
    return sigs, simhash_from_sigs(sigs), counts


@pytest.mark.parametrize("cfg", [SignatureConfig(), SignatureConfig(k=3, sample_mod=1)])
def test_signer_matches_arrow_path(cfg):
    """Mixed ASCII and non-ASCII rows, in a sliced multi-chunk column."""
    words = ASCII_ROWS + UNICODE_ROWS
    rng = np.random.default_rng(3)
    docs = [" ".join(rng.choice(words, size=40).tolist()) for _ in range(60)] + words
    col = pa.chunked_array([pa.array(docs[:30]), pa.array(docs[30:])])
    t = pa.table({"content": col}).slice(3)
    out = MinHashSigner(cfg)(t)
    sigs, sims, counts = arrow_signer(t, cfg)
    np.testing.assert_array_equal(
        np.frombuffer(b"".join(out["minhash"].to_pylist()), np.uint32).reshape(sigs.shape),
        sigs,
    )
    np.testing.assert_array_equal(out["simhash"].to_numpy(), sims)
    np.testing.assert_array_equal(out["n_shingles"].to_numpy(), counts)
