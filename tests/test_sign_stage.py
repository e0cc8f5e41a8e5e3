"""The sign stage (``stages/signatures.add_signatures``): read, prepare and
sign in raw tasks over either kind of source -- a bare datasource read's
read tasks or a dataset's block refs -- with the same outputs, and the
signer called on byte-bounded slices."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from lasvdedup_ray.config import PipelineConfig, SignatureConfig
from lasvdedup_ray.pipelines.dedup import dedup_pipeline
from lasvdedup_ray.sources.corpus import SOURCE_SCHEMA, CorpusSpec, generate_corpus, write_corpus
from lasvdedup_ray.sources.readers import read_parquet_clean
from lasvdedup_ray.stages import signatures
from lasvdedup_ray.stages.prepare import prepare_batch
from lasvdedup_ray.stages.signatures import MinHashSigner, add_signatures, sign_table

SIGNED_COLS = ["id", "sha256", "minhash", "simhash", "n_shingles"]


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    d = write_corpus(
        str(tmp_path_factory.mktemp("sign_corpus")), CorpusSpec(n_files=240, seed=31)
    )
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.startswith("part-"))


def _inputs(files) -> dict:
    """One corpus as each kind of sign source."""
    return {
        "read tasks": read_parquet_clean(files),
        "materialized read": read_parquet_clean(files).materialize(),
        "from_arrow": ray.data.from_arrow([pq.read_table(f) for f in files]),
        "read + map stage": read_parquet_clean(files).map_batches(
            lambda t: t, batch_format="pyarrow"
        ),
    }


def _rows(ds, cols) -> pa.Table:
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables).select(cols).sort_by("id")


@pytest.mark.parametrize("sign_bytes", [signatures._SIGN_BYTES, 64 << 10])
def test_source_kinds_sign_and_dedup_alike(corpus_files, monkeypatch, sign_bytes):
    """Read tasks, a materialized read, ``from_arrow`` tables and a read
    with a map stage give byte-identical signed columns and the same
    ``(id, cluster_id, classification)`` rows, whether the corpus signs in
    one task (the default bytes per task) or in one per read task or block
    (64 KiB per task)."""
    monkeypatch.setattr(signatures, "_SIGN_BYTES", sign_bytes)
    signed, results = {}, {}
    for kind, ds in _inputs(corpus_files).items():
        signed[kind] = _rows(add_signatures(ds), SIGNED_COLS)
        results[kind] = _rows(
            dedup_pipeline(ds, PipelineConfig(), num_partitions=4),
            ["id", "cluster_id", "classification"],
        )
    n = sum(pq.read_metadata(f).num_rows for f in corpus_files)
    first = next(iter(signed))
    assert signed[first].num_rows == results[first].num_rows == n
    for kind in signed:
        assert signed[kind].equals(signed[first]), kind
        assert results[kind].equals(results[first]), kind


def test_read_tasks_start_no_executor(corpus_files, executor_starts, tasks):
    """A bare read is signed by its own read tasks inside the sign tasks:
    no Ray Data executor starts, and no task but the sign tasks runs
    (building the read samples its files in tasks of its own)."""
    ds = read_parquet_clean(corpus_files)
    tasks.clear()
    signed = add_signatures(ds)
    assert signed.count() == sum(pq.read_metadata(f).num_rows for f in corpus_files)
    assert executor_starts == []
    assert tasks and all(name.endswith("._sign_sources") for name in tasks), tasks


def test_zero_row_read(tmp_path, executor_starts):
    """A zero-row Parquet input signs on the read-task path to no rows
    without an executor, and the job returns no rows."""
    src = str(tmp_path / "empty.parquet")
    pq.write_table(SOURCE_SCHEMA.empty_table(), src)
    assert add_signatures(read_parquet_clean([src])).count() == 0
    assert executor_starts == []
    assert dedup_pipeline(read_parquet_clean([src]), PipelineConfig()).count() == 0


def test_schema_metadata_stripped(tmp_path):
    """A plain ``ray.data.read_parquet`` of a file whose schema carries
    metadata (pandas writes some) signs into blocks without it."""
    corpus, _ = generate_corpus(CorpusSpec(n_files=20, seed=7))
    src = str(tmp_path / "meta.parquet")
    pq.write_table(corpus.replace_schema_metadata({b"pandas": b"{}"}), src)
    assert pq.read_schema(src).metadata
    blocks = ray.get(add_signatures(ray.data.read_parquet(src)).to_arrow_refs())
    assert blocks and all(b.schema.metadata is None for b in blocks)


def test_signer_sees_byte_bounded_slices(monkeypatch):
    """On an input larger than one slice the signer is called on slices of
    at most ``_SIGN_BYTES`` content bytes, and the result equals one
    unsliced call."""
    corpus, _ = generate_corpus(CorpusSpec(n_files=120, seed=5))
    cfg = SignatureConfig()
    whole = MinHashSigner(cfg)(prepare_batch(corpus))
    bound = 16 << 10
    assert pc.sum(pc.binary_length(corpus["content"])).as_py() > 4 * bound
    seen = []
    call = MinHashSigner.__call__

    def recording(self, t):
        seen.append(pc.sum(pc.binary_length(t["content"])).as_py() or 0)
        return call(self, t)

    monkeypatch.setattr(MinHashSigner, "__call__", recording)
    monkeypatch.setattr(signatures, "_SIGN_BYTES", bound)
    out = sign_table(corpus, cfg)
    assert len(seen) > 4 and max(seen) <= bound, seen
    assert sum(seen) == pc.sum(pc.binary_length(corpus["content"])).as_py()
    assert out.equals(whole)


# non-ASCII and whitespace-heavy rows appended to the pinned corpus, so the
# pin covers the utf8_lower path and the whitespace collapse at row edges
PIN_EXTRA = [
    "İstanbul  STRASSE ß ΣΑΣ 😀\t\tTabs\r\n\r\nAnd\x0b\x0cFeeds",
    "  leading run\n",
    "\n\ntrailing run  ",
    "nbsp\u00a0\u00a0kept line\u2028\u2028sep \x1c\x1c",
    "",
    "tiny",
]
SIGNED_PIN = "e29f84cbc65121bb5203fb383f55bcbc0ecf2d229775db706fd91c741dabd8f9"


def signed_digest(t: pa.Table) -> str:
    """sha256 over every column the sign stage adds, row by row."""
    import hashlib

    h = hashlib.sha256()
    for c in ("sha256", "n_chars", "n_lines", "minhash", "simhash", "n_shingles"):
        h.update(c.encode() + repr(t[c].to_pylist()).encode())
    return h.hexdigest()


def pin_table() -> pa.Table:
    corpus, _ = generate_corpus(CorpusSpec(n_files=160, seed=21, tokens_per_doc=150))
    n = len(PIN_EXTRA)
    extra = pa.table(
        {
            "repo": ["pin/extra"] * n,
            "path": [f"f{i}.txt" for i in range(n)],
            "commit": ["c0"] * n,
            "lang": ["text"] * n,
            "content": PIN_EXTRA,
        }
    ).cast(corpus.schema)
    return pa.concat_tables([corpus, extra])


def test_signed_columns_pinned():
    """The signed columns of a seeded corpus keep the digest the Arrow
    normalization and width-doubling shingler produced: a kernel change
    that moves any signature, count or prepare stat fails here."""
    assert signed_digest(sign_table(pin_table())) == SIGNED_PIN
