"""Kernel unit tests: shingles, MinHash accuracy, SimHash, band hashing.

Model: the reference's distance-op unit tests
(``/root/reference/tests/utils/test_distance_matrix.py:27-141``) — small
literal inputs, pinned semantics.
"""

import itertools

import numpy as np
import pyarrow as pa
import pytest

from lasvdedup_ray.config import SignatureConfig
from lasvdedup_ray.functions.hashing import (
    band_hashes,
    estimated_jaccard,
    hamming64,
    shingle_hashes,
)
from lasvdedup_ray.stages.signatures import (
    MinHashSigner,
    sig_matrix_from_column,
    sigs_to_matrix,
)


def test_shingle_hashes_deterministic():
    a = shingle_hashes(b"hello world, this is content", 5)
    b = shingle_hashes(b"hello world, this is content", 5)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.uint64
    assert np.all(np.diff(a.astype(np.int64) + 0) >= 0) or len(a) == len(np.unique(a))


def test_shingle_hashes_short_doc():
    h = shingle_hashes(b"ab", 5)
    assert h.shape == (1,)
    assert np.array_equal(h, shingle_hashes(b"ab", 5))
    assert not np.array_equal(h, shingle_hashes(b"ac", 5))


def test_shingle_position_invariance():
    # same k-gram set -> same hashes regardless of position
    h1 = set(shingle_hashes(b"abcdefg", 3).tolist())
    h2 = set(shingle_hashes(b"cdefgab", 3).tolist())
    # shared 3-grams hash identically
    assert len(h1 & h2) >= 3


def _sig_for(texts, cfg):
    t = MinHashSigner(cfg)(pa.table({"content": pa.array(texts, pa.string())}))
    sigs = sig_matrix_from_column(t["minhash"], cfg.num_perms)
    return sigs, t["simhash"].to_numpy(), t["n_shingles"].to_numpy()


def test_minhash_estimate_tracks_exact_jaccard():
    cfg = SignatureConfig()
    rng = np.random.default_rng(7)
    vocab = [f"tok{i}" for i in range(400)]
    base = " ".join(vocab[i] for i in rng.integers(0, 400, 250))
    texts = [base]
    for rate in (0.02, 0.05, 0.1, 0.3):
        toks = base.split()
        n_mut = int(len(toks) * rate)
        pos = rng.choice(len(toks), n_mut, replace=False)
        for p in pos:
            toks[p] = vocab[int(rng.integers(0, 400))]
        texts.append(" ".join(toks))
    sigs, _, _ = _sig_for(texts, cfg)
    sets = [set(shingle_hashes(t.encode(), cfg.k).tolist()) for t in texts]
    for i, j in itertools.combinations(range(len(texts)), 2):
        exact = len(sets[i] & sets[j]) / len(sets[i] | sets[j])
        est = float(estimated_jaccard(sigs[i], sigs[j]))
        assert abs(exact - est) < 0.12, (i, j, exact, est)


def test_identical_docs_identical_signatures():
    cfg = SignatureConfig()
    sigs, sims, counts = _sig_for(["def foo(): pass\n" * 20] * 3, cfg)
    assert np.array_equal(sigs[0], sigs[1]) and np.array_equal(sigs[1], sigs[2])
    assert sims[0] == sims[1] == sims[2]


def test_empty_and_tiny_docs_do_not_crash():
    cfg = SignatureConfig()
    sigs, sims, counts = _sig_for(["", "a", "ab", "x" * 100], cfg)
    assert sigs.shape == (4, cfg.num_perms)
    assert counts[0] >= 1  # whole-content fallback shingle


def test_band_hashes_equal_iff_band_slots_equal():
    cfg = SignatureConfig()
    rng = np.random.default_rng(3)
    sigs = rng.integers(0, 2**32, size=(2, cfg.num_perms), dtype=np.uint64).astype(np.uint32)
    sigs[1] = sigs[0]  # identical
    bh = band_hashes(sigs, cfg.bands, cfg.rows)
    np.testing.assert_array_equal(bh[0], bh[1])
    # perturb one slot in band 0 -> only band 0 hash changes
    sigs2 = sigs.copy()
    sigs2[1, 0] ^= 1
    bh2 = band_hashes(sigs2, cfg.bands, cfg.rows)
    assert bh2[1, 0] != bh2[0, 0]
    np.testing.assert_array_equal(bh2[0, 1:], bh2[1, 1:])


def test_simhash_similar_docs_close_hamming():
    cfg = SignatureConfig()
    base = "the quick brown fox jumps over the lazy dog " * 30
    variant = base.replace("quick", "swift", 3)
    unrelated = "import numpy as np; x = np.zeros(10) " * 30
    _, sims, _ = _sig_for([base, variant, unrelated], cfg)
    d_sim = hamming64(np.array([sims[0]]), np.array([sims[1]]))[0]
    d_far = hamming64(np.array([sims[0]]), np.array([sims[2]]))[0]
    assert d_sim < d_far


def test_sigs_to_matrix_roundtrip():
    cfg = SignatureConfig()
    sigs, _, _ = _sig_for(["hello world " * 10, "other doc " * 10], cfg)
    blobs = [s.tobytes() for s in sigs]
    back = sigs_to_matrix(blobs, cfg.num_perms)
    np.testing.assert_array_equal(sigs, back)


def test_signature_config_validation():
    with pytest.raises(ValueError):
        SignatureConfig(num_perms=128, bands=10, rows=10)
    # ADVICE r2: num_perms not divisible by 4 used to crash deep in the LSH
    # uint64 signature fold with an opaque numpy reshape error
    with pytest.raises(ValueError, match="multiple of 4"):
        SignatureConfig(num_perms=102, bands=6, rows=17)


@pytest.mark.parametrize("mod", [3, 5, 6])
def test_sample_mod_rejects_non_power_of_two(mod):
    # the shingler keeps h & (mod - 1) == 0, which is h % mod == 0 only for
    # a power of two: sample_mod=3 kept 49% of the shingles, not 33%
    with pytest.raises(ValueError, match="power of two"):
        SignatureConfig(sample_mod=mod)


@pytest.mark.parametrize("mod", [1, 2, 4, 8])
def test_sample_mod_accepts_power_of_two(mod):
    assert SignatureConfig(sample_mod=mod).sample_mod == mod


def test_extract_group_key_regex():
    # FIXTURES F4: reference sample-regex grouping semantics
    import pyarrow as pa

    from lasvdedup_ray.functions.text import extract_group_key

    names = pa.array(
        ["sampleA_1_contig", "sampleA_2_contig", "sampleB_1_contig", "noMatch_contig"]
    )
    out = extract_group_key(names, "sample[A-Z]").to_pylist()
    assert out == ["sampleA", "sampleA", "sampleB", None]


def test_shingle_hashes_batch_matches_per_doc():
    # The zero-copy batched kernel must be BIT-identical to the per-doc
    # kernel (SQL oracles and path-equivalence tests pin signature values).
    import pyarrow as pa

    from lasvdedup_ray.functions.hashing import shingle_hashes_batch
    from lasvdedup_ray.functions.text import normalized_bytes

    docs = [
        "the quick brown fox jumps over the lazy dog",
        "",                      # empty -> blake2b path
        "tiny",                  # shorter than k -> blake2b path
        "aaaaaaaaaaaaaaaa",      # repeated shingles -> unique() collapse
        "pack my box with five dozen liquor jugs",
        "exactly8",              # len == k boundary
        "éé café naïve ü",  # multi-byte utf-8
    ]
    for k in (3, 5, 7, 8, 12):   # powers of two AND odd widths
        for mod in (1, 4):
            arr = pa.array(docs, pa.string())
            buf, starts, ends = normalized_bytes(arr, lowercase=False, collapse_ws=False)
            hc, offs, cnts = shingle_hashes_batch(buf, starts, ends, k, sample_mod=mod)
            assert offs.shape[0] == len(docs)
            for i, d in enumerate(docs):
                expect = shingle_hashes(d.encode("utf-8"), k)
                if mod > 1 and expect.shape[0] > 1:
                    sub = expect[(expect & np.uint64(mod - 1)) == 0]
                    if sub.shape[0]:
                        expect = sub
                got = hc[offs[i] : offs[i] + cnts[i]]
                np.testing.assert_array_equal(got, expect, err_msg=f"k={k} mod={mod} doc={i}")


def test_shingle_hashes_batch_large_string_and_sliced():
    # large_string offsets (int64) and a sliced array (non-zero arr.offset)
    import pyarrow as pa

    from lasvdedup_ray.functions.hashing import shingle_hashes_batch
    from lasvdedup_ray.functions.text import normalized_bytes

    docs = ["alpha beta gamma delta", "epsilon zeta eta theta", "iota kappa"]
    arr = pa.array(docs, pa.large_string()).slice(1)  # drop first row
    buf, starts, ends = normalized_bytes(arr, lowercase=False, collapse_ws=False)
    hc, offs, cnts = shingle_hashes_batch(buf, starts, ends, 8)
    for i, d in enumerate(docs[1:]):
        np.testing.assert_array_equal(
            hc[offs[i] : offs[i] + cnts[i]], shingle_hashes(d.encode(), 8)
        )


def test_shingle_hashes_batch_slices_bit_identical():
    # cutting the batch into slices along doc boundaries (an oversized doc
    # alone in its slice) changes no doc's hashes, offsets or counts
    import pyarrow as pa

    from lasvdedup_ray.functions.hashing import shingle_hashes_batch
    from lasvdedup_ray.functions.text import normalized_bytes

    rng = np.random.default_rng(11)
    words = ["alpha", "beta", "x", "", "gamma delta", "zz" * 40]
    docs = [" ".join(rng.choice(words, size=int(rng.integers(0, 30))).tolist()) for _ in range(200)]
    buf, starts, ends = normalized_bytes(pa.array(docs))
    for k, mod in ((5, 4), (8, 1)):
        whole = shingle_hashes_batch(buf, starts, ends, k, mod, slice_bytes=1 << 30)
        for slice_bytes in (1, 64, 1000):
            cut = shingle_hashes_batch(buf, starts, ends, k, mod, slice_bytes=slice_bytes)
            for a, b in zip(whole, cut):
                np.testing.assert_array_equal(a, b)


def test_sha256_column_zero_copy_equals_pylist_path():
    """sha256_column (Arrow-buffer memoryview path) must produce identical
    digests to hashing each row's utf-8 encoding — including non-ASCII,
    empty strings, sliced arrays, chunked arrays, and large_string."""
    import hashlib

    import pyarrow as pa

    from lasvdedup_ray.functions.hashing import sha256_column

    vals = ["", "hello", "héllo wörld ☃", "a" * 10_000, "newline\n\ttab", "0"]
    expect = [hashlib.sha256(s.encode("utf-8")).digest() for s in vals]
    for typ in (pa.string(), pa.large_string()):
        arr = pa.array(vals, typ)
        assert sha256_column(arr) == expect
        # non-zero offset slice
        assert sha256_column(arr.slice(2, 3)) == expect[2:5]
        # chunked
        ch = pa.chunked_array([arr.slice(0, 2), arr.slice(2)])
        assert sha256_column(ch) == expect
    # all-empty column (values buffer may be absent)
    assert sha256_column(pa.array(["", ""], pa.string())) == [
        hashlib.sha256(b"").digest()
    ] * 2
