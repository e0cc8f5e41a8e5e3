"""The flagship pipeline: near-duplicate detection + clustering +
classification over a Parquet source-code table.

Ray-Data-first rebuild of the reference's analytical core
(``lasvdedup/utils/determine_duplicates.py:52-153``), per SURVEY §3:

Stages:

    read + prepare + sign    (raw tasks that run the read's own read
                              tasks: id, sha256, stats, OPH
                              signatures)                      [pinned: signed]
      -> sha collapse        (min-id reps + 0-dist star edges of the slim
                              meta: on the driver for small inputs, else
                              a sha hash_exchange; stages/exact.py)
                                        [pinned on the exchange plan: reps]
      -> LSH candidates      (driver sig store + band rows; band exchange)
      -> verify              (sure/border split on the driver; re-check)
      -> union-find          (integer-code components on the driver /
                              distributed label prop; its label attach
                              adds classify's pkey)
      -> classification      (hash_exchange on cluster_id: 5-case tree)
      -> write_parquet       (partitioned by classification) + metrics

A job over a bare datasource read starts no Ray Data executor, and any
other lazy input runs once, at the top.  Sign reads a bare read through
the datasource's read tasks, inside one raw task per run of about
``_SIGN_BYTES`` (``stages/signatures.py``), and ``StageCheckpointer.pin``
writes and reads its Parquet with raw tasks, as ``edges_out`` writes the
edge list.  Every step after sign runs on block refs, in raw tasks or on
the driver: a per-block map is ``map_blocks``, a union is
``concat_blocks`` and a shuffle is ``hash_exchange``
(``stages/exchange.py``), so no consumer re-runs a stage.
Everything between the signer and the final classification shuffles ONLY
ids + signatures (content is projected out inside the map tasks — SURVEY
§7 "very wide rows").
"""

from __future__ import annotations

import hashlib
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..config import PipelineConfig
from ..functions.hashing import id_hash64
from ..stages.classify import classify_clusters, cluster_pkey
from ..stages.exact import collapses_on_driver, min_id_stars, sha_collapse
from ..stages.exchange import (
    _arrow,
    _block_refs,
    concat_blocks,
    dataset_from_tables,
    hash_exchange,
    map_blocks,
)
from ..stages.lsh import candidate_pairs
from ..stages.signatures import add_signatures, bare_read
from ..stages.verify import verify_pairs
from ..state.checkpoint import StageCheckpointer, write_blocks
from ..state.unionfind import assign_clusters

SLIM_COLS = ["id", "lang", "n_chars", "n_lines", "sha256"]
SOURCE_COLS = ["repo", "path", "commit", "lang", "content"]


def candidate_tau(config: PipelineConfig) -> float:
    """Candidate-generation threshold: the loosest tau across partition
    classes, so no per-lang threshold can lose candidates; the per-lang tau
    is applied in classification."""
    taus = [config.default_thresholds.tau] + [
        t.tau for t in config.lang_thresholds.values()
    ]
    return max(taus)


@ray.remote
def _block_digest(block) -> bytes:
    """sha256 of the row hashes of every input column of one block."""
    t = _arrow(block)
    h = hashlib.sha256()
    for c in SOURCE_COLS:
        h.update(id_hash64(t[c]).tobytes())
    return h.digest()


def _input_fingerprint(
    ds: ray.data.Dataset, n_rows: int, schema_names, config: PipelineConfig
) -> str:
    """(input row count + columns, size + mtime of every input file, full
    config repr) — a stage checkpoint from a different input/config is
    recomputed, never reused.  The files come from the plan's metadata
    (``input_files``), so nothing executes; their stats fold in through
    ``corpus_fingerprint_of``, the near-dup index cache's rule, so an input
    file edited in place with the same row count invalidates both caches
    alike.  Only a bare read reports its files: any other input (in
    memory, materialized, or with a map stage) with a ``checkpoint_dir``
    folds in a digest of its rows instead (one raw task per block), so a
    different table of the same shape does not resume stale stages."""
    from ..state.neardup_index import corpus_fingerprint_of

    files = ";".join(
        corpus_fingerprint_of(f, n_rows) for f in sorted(ds.input_files())
    )
    if not files and config.checkpoint_dir:
        files = b"".join(ray.get([_block_digest.remote(r) for r in _block_refs(ds)])).hex()
    return hashlib.sha256(
        f"{n_rows}|{sorted(schema_names)}|{files}|{config!r}".encode()
    ).hexdigest()[:16]


def plan_stages(
    ds: ray.data.Dataset, config: Optional[PipelineConfig] = None
) -> list:
    """Dry-run plan (the reference's ``run_pipeline(..., dry_run)``,
    ``lasvdedup/pipeline.py:9-83``): the ordered stage list with each
    checkpointable stage's resume status — nothing executes beyond the
    input's metadata row count (and, for an in-memory input with a
    checkpoint dir, its fingerprint digest)."""
    config = config or PipelineConfig()
    n_rows = ds.count()
    fp = _input_fingerprint(ds, n_rows, ds.schema().names, config)
    ck = StageCheckpointer(config.checkpoint_dir, fingerprint=fp)
    plan = []
    for name in ("signed", "reps"):
        if not config.checkpoint_dir:
            status = "no checkpoint_dir"
        elif name == "reps" and collapses_on_driver(n_rows):
            status = "not checkpointed (driver sha collapse)"
        else:
            status = ck.status(name)
        plan.append({"stage": name, "checkpoint": status})
    for name in ("candidates", "verify", "cluster", "classify"):
        plan.append({"stage": name, "checkpoint": "always runs"})
    return plan


def dedup_pipeline(
    ds: ray.data.Dataset,
    config: Optional[PipelineConfig] = None,
    num_partitions: int = 32,
    rank_table: Optional[ray.data.Dataset] = None,
    edges_out: Optional[str] = None,
    force: bool = False,
) -> ray.data.Dataset:
    """Full dedup: returns the classification Dataset (RESULT_SCHEMA:
    id, cluster_id, classification, decision_category, is_representative,
    rank, group_members, reason, sha256, lang).

    ``rank_table``: optional metadata side table (id + numeric columns) —
    the reference's ranked contigs table (``io_utils.py:30-61``); left-join
    by id, its columns become usable in ``config.selection_columns``
    (missing rows rank last).  ``edges_out``: optional Parquet directory for
    the verified edge list, one ``part-{block:05d}.parquet`` per block
    written by raw tasks (``write_blocks``) — the scalable analog of the
    reference's dense ``.mldist`` distance-matrix sink
    (``io_utils.py:69-83``)."""
    config = config or PipelineConfig()
    if config.group_only and not config.group_regex:
        raise ValueError("group_only=True requires group_regex")
    if not bare_read(ds):
        # a lazy plan with a map stage would otherwise run once each for
        # its schema, its count and sign; sign runs a bare read's own read
        # tasks instead
        ds = ds.materialize()
    # schema validation up front (reference: missing-column ValueError,
    # io_utils.py:39-42) — fail fast instead of deep inside a shuffle
    schema_names = set(ds.schema().names)
    missing = [c for c in SOURCE_COLS if c not in schema_names]
    if missing:
        raise ValueError(
            f"input is missing required columns {missing}; expected "
            f"(repo, path, commit, lang, content)"
        )
    n_rows_in = ds.count()
    fp = _input_fingerprint(ds, n_rows_in, schema_names, config)
    # force (reference --force/forceall): recompute every pinned stage
    ck = StageCheckpointer(config.checkpoint_dir, fingerprint=fp, force=force)
    tau = candidate_tau(config)
    emit_tau = tau + (config.lsh.exact_margin_high if config.lsh.exact_verify else 0.0)

    # sign every row (OPH signing is O(shingles); identical content yields
    # identical signatures), then collapse exact dups at the SLIM level
    # before banding: one representative per distinct content enters the
    # LSH stage and the others link to it by zero-distance star edges.  On
    # dup-heavy corpora (2/3 exact dups measured on the bench corpus) this
    # cuts the band shuffle ~3x and the in-bucket pair verification ~9x —
    # the single biggest scaling lever.  A builder, not a dataset: signing
    # runs its tasks when it is built, so a resume that reads "signed"
    # back never signs.
    signed = ck.pin(lambda: add_signatures(ds, config.signature), "signed")
    if signed.count() == 0:
        from ..stages.classify import RESULT_SCHEMA

        return dataset_from_tables([RESULT_SCHEMA.empty_table()])
    meta = map_blocks(signed, None, cols=SLIM_COLS + ["minhash", "simhash"])
    if config.group_only:
        # reference-parity mode (sequence_grouping.py:29-37): clusters
        # come from group_regex only; signatures still feed the
        # in-cluster decision tree
        from ..stages.lsh import PAIR_SCHEMA

        edges = dataset_from_tables([PAIR_SCHEMA.empty_table()])
    else:
        reps_slim, e_edges = sha_collapse(meta, ck)
        # verify projects signed to (id, content) inside its gather tasks
        near_edges = verify_pairs(
            candidate_pairs(reps_slim, config.signature, config.lsh, tau=emit_tau),
            signed,
            config.signature,
            config.lsh,
            tau=tau,
        )
        edges = concat_blocks(near_edges, e_edges)

    if rank_table is not None:
        # metadata/ranking side table (reference: contigs TSV joined per
        # sequence) with the reference's 3-stage fuzzy key resolution
        # (exact -> _R_-strip + dot-split -> dot-boundary prefix) and a
        # configurable miss policy (sequence_grouping.py:55-78)
        from ..stages.ranktab import attach_rank_table

        meta = attach_rank_table(
            meta,
            rank_table,
            miss_policy=config.rank_miss_policy,
            num_partitions=num_partitions,
        )

    if config.group_regex:
        # grouping-policy knob (reference SAMPLE_REGEX, config.yaml:26):
        # rows sharing an extracted group key are pre-linked with
        # zero-distance edges, so each "sample" clusters together before
        # any LSH evidence — the reference groups per sample up front
        edges = concat_blocks(edges, group_key_edges(meta, config.group_regex))

    if edges_out is not None:
        write_blocks(edges, edges_out)

    clustered = assign_clusters(meta, edges, num_partitions=num_partitions, then=cluster_pkey())
    return classify_clusters(clustered, config)


def group_key_edges(ids_ds: ray.data.Dataset, pattern: str) -> ray.data.Dataset:
    """Star-topology zero-distance edges linking all ids that share a
    regex-extracted group key (the reference's per-sample grouping,
    ``sequence_grouping.py:29-37``).  One hash-partition shuffle on the
    key; within-partition star emission is vectorized (min id per key ->
    every other member).  ``ids_ds`` needs an ``id`` column; only it
    enters the shuffle."""
    from ..functions.text import extract_group_key
    from ..stages.exchange import exchange_partitions, string_pkey
    from ..stages.lsh import PAIR_SCHEMA

    num_partitions = exchange_partitions()

    def keyed(t: pa.Table) -> pa.Table:
        keys = extract_group_key(t["id"], pattern)
        out = pa.table({"id": t["id"], "gkey": keys}).filter(pc.is_valid(keys))
        return out.append_column("pkey", string_pkey(out["gkey"], num_partitions))

    return hash_exchange(
        map_blocks(ids_ds, keyed, cols=["id"]),
        "pkey",
        num_partitions,
        lambda g: min_id_stars(g["gkey"], g["id"])[1],
        empty_schema=PAIR_SCHEMA,
    )


def attach_content(
    results: ray.data.Dataset,
    prepared: ray.data.Dataset,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Join classification results back to original content by id (hash
    shuffle join — the reference's write-time classification<->sequence join,
    ``io_utils.py:135-144``).  Surviving rows preserve content byte-for-byte
    (sha256 invariant)."""
    content = prepared.select_columns(["id", "repo", "path", "commit", "content"])
    # Arrow's hash join rejects list-typed payload columns: pack the
    # group_members list to a \x1f-delimited string across the join
    SEP = "\x1f"

    def pack(t: pa.Table) -> pa.Table:
        idx = t.schema.get_field_index("group_members")
        packed = pc.binary_join(t["group_members"], SEP)
        return t.set_column(idx, "group_members", pc.cast(packed, pa.string()))

    def unpack(t: pa.Table) -> pa.Table:
        idx = t.schema.get_field_index("group_members")
        unpacked = pc.split_pattern(t["group_members"], SEP)
        return t.set_column(idx, "group_members", unpacked)

    joined = results.map_batches(pack, batch_format="pyarrow").join(
        content, join_type="inner", num_partitions=num_partitions, on=("id",)
    )
    return joined.map_batches(unpack, batch_format="pyarrow")


def survivors(results_with_content: ray.data.Dataset) -> ray.data.Dataset:
    """Rows the dedup keeps: classification in {keep, distinct} (the
    reference routes GOOD and COINFECTION to the good/ dir,
    ``classification.py:167-173``)."""
    return results_with_content.map_batches(
        lambda t: t.filter(
            pc.is_in(t["classification"], value_set=pa.array(["keep", "distinct"]))
        ),
        batch_format="pyarrow",
    )


def write_results(
    results: ray.data.Dataset,
    out_dir: str,
) -> None:
    """Partitioned Parquet sink (one directory per classification — the
    reference's good/bad dir routing, ``io_utils.py:85-144``); resumable by
    partition."""
    # group_members is list-typed: keep pyarrow end-to-end
    results.write_parquet(out_dir, partition_cols=["classification"])

