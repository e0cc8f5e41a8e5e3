"""The flagship pipeline: near-duplicate detection + clustering +
classification over a Parquet source-code table.

Ray-Data-first rebuild of the reference's analytical core
(``lasvdedup/utils/determine_duplicates.py:52-153``), per SURVEY §3:

Stages:

    read + prepare + sign    (raw tasks that run the read's own read
                              tasks: id, sha256, stats, OPH
                              signatures)                      [pinned: signed]
      -> sha collapse        (driver lexsort under exact_driver_cap, else
                              a sha hash_exchange: reps + 0-dist
                              star edges)       [pinned above the cap: reps]
      -> LSH candidates      (sig store + band hash_exchange: pairs)
      -> verify              (sure filter + exact border re-check)
      -> union-find          (driver DSU / distributed label prop)
      -> classification      (hash_exchange on cluster_id: 5-case tree)
      -> write_parquet       (partitioned by classification) + metrics

A job starts no Ray Data executor.  Sign reads a bare datasource read
through the datasource's read tasks, inside one raw task per run of about
``_SIGN_BYTES`` (``stages/signatures.py``), and ``StageCheckpointer.pin``
writes and reads its Parquet with raw tasks, as ``edges_out`` writes the
edge list.  Every step after sign is a raw task over block refs: a
per-block map is ``map_blocks``, a union is ``concat_blocks`` and a
shuffle is ``hash_exchange`` (``stages/exchange.py``), so no consumer
re-runs a stage.
Everything between the signer and the final classification shuffles ONLY
ids + signatures (content is projected out inside the map tasks — SURVEY
§7 "very wide rows").
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..config import PipelineConfig
from ..stages.classify import classify_clusters
from ..stages.exchange import (
    concat_blocks,
    dataset_from_tables,
    hash_exchange,
    map_blocks,
    worker_get,
)
from ..stages.lsh import candidate_pairs
from ..stages.signatures import add_signatures
from ..stages.verify import verify_pairs
from ..state.checkpoint import StageCheckpointer, write_blocks
from ..state.unionfind import assign_clusters

SLIM_COLS = ["id", "sha_hex", "lang", "n_chars", "n_lines", "sha256"]

def candidate_tau(config: PipelineConfig) -> float:
    """Candidate-generation threshold: the loosest tau across partition
    classes, so no per-lang threshold can lose candidates; the per-lang tau
    is applied in classification."""
    taus = [config.default_thresholds.tau] + [
        t.tau for t in config.lang_thresholds.values()
    ]
    return max(taus)


def _input_fingerprint(
    ds: ray.data.Dataset, n_rows: int, schema_names, config: PipelineConfig
) -> str:
    """(input row count + columns, size + mtime of every input file, full
    config repr) — a stage checkpoint from a different input/config is
    recomputed, never reused.  The files come from the plan's metadata
    (``input_files``), so nothing executes; their stats fold in through
    ``corpus_fingerprint_of``, the near-dup index cache's rule, so an input
    file edited in place with the same row count invalidates both caches
    alike.  An in-memory input has no files and keys on rows + columns."""
    import hashlib as _hashlib

    from ..state.neardup_index import corpus_fingerprint_of

    files = ";".join(
        corpus_fingerprint_of(f, n_rows) for f in sorted(ds.input_files())
    )
    return _hashlib.sha256(
        f"{n_rows}|{sorted(schema_names)}|{files}|{config!r}".encode()
    ).hexdigest()[:16]


def plan_stages(
    ds: ray.data.Dataset, config: Optional[PipelineConfig] = None
) -> list:
    """Dry-run plan (the reference's ``run_pipeline(..., dry_run)``,
    ``lasvdedup/pipeline.py:9-83``): the ordered stage list with each
    checkpointable stage's resume status — nothing executes beyond the
    input's metadata row count."""
    config = config or PipelineConfig()
    n_rows = ds.count()
    fp = _input_fingerprint(ds, n_rows, ds.schema().names, config)
    ck = StageCheckpointer(config.checkpoint_dir, fingerprint=fp)
    plan = []
    for name in ("signed", "reps"):
        if not config.checkpoint_dir:
            status = "no checkpoint_dir"
        elif name == "reps" and n_rows <= config.execution.exact_driver_cap:
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
    # schema validation up front (reference: missing-column ValueError,
    # io_utils.py:39-42) — fail fast instead of deep inside a shuffle
    schema_names = set(ds.schema().names)
    missing = [c for c in ("repo", "path", "commit", "lang", "content") if c not in schema_names]
    if missing:
        raise ValueError(
            f"input is missing required columns {missing}; expected "
            f"(repo, path, commit, lang, content)"
        )
    ex = config.execution
    n_rows_in = ds.count()
    fp = _input_fingerprint(ds, n_rows_in, schema_names, config)
    # force (reference --force/forceall): recompute every pinned stage
    ck = StageCheckpointer(config.checkpoint_dir, fingerprint=fp, force=force)
    tau = candidate_tau(config)
    emit_tau = tau + (config.lsh.exact_margin_high if config.lsh.exact_verify else 0.0)

    # sign every row (OPH signing is O(shingles); identical content yields
    # identical signatures), then collapse exact dups at the SLIM level
    # before banding: one slim shuffle on sha (ids + signatures, no
    # content) keeps one representative per distinct content in the LSH
    # stage and links members by zero-distance star edges.  On dup-heavy
    # corpora (2/3 exact dups measured on the bench corpus) this cuts the
    # band shuffle ~3x and the in-bucket pair verification ~9x — the
    # single biggest scaling lever.  A builder, not a dataset: signing
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
        if n_rows_in <= ex.exact_driver_cap:
            # small input: the sha collapse runs on the driver (one slim
            # streamed pass + lexsort) instead of paying the sha
            # exchange's tasks (see ``exact_driver_cap``); reps are
            # recovered by an exact broadcast is_in filter over the pinned
            # signed dataset.  Nothing here is checkpointed: a resume
            # redoes the collapse from ``signed``.
            from ..stages.exact import exact_collapse_driver

            rep_ids, edges_tbl = exact_collapse_driver(signed)
            reps_hint = len(rep_ids)
            # ship the rep-id set through plasma once (ray.put + per-worker
            # cache), not pickled into every task closure
            rep_ref = ray.put(pa.array(list(rep_ids), pa.string()))

            def keep_reps(t: pa.Table) -> pa.Table:
                reps = worker_get(rep_ref, "dedup.reps")
                return t.filter(pc.is_in(t["id"], value_set=reps))

            reps_slim = map_blocks(
                signed, keep_reps, cols=["id", "minhash", "simhash"]
            )
            e_edges = dataset_from_tables([edges_tbl])
        else:
            # ONE sha shuffle yields both the per-sha representatives and
            # the zero-distance star edges (two separate groupbys before r3)
            from ..stages.exact import exact_collapse, fused_edges, fused_reps

            # a builder, not a dataset: the exchange starts when it is
            # built, so a resume that reads "reps" back skips it
            fused = ck.pin(lambda: exact_collapse(signed), "reps")
            reps_slim = fused_reps(fused)
            # one fused row per input row (a rep or a star edge): the
            # pinned stage's metadata count bounds the rep count from
            # above without a filter + count pass
            reps_hint = fused.count()
            e_edges = fused_edges(fused)
        # candidates read (id, minhash, simhash) by name; verify
        # projects signed to (id, content) inside its gather tasks
        near_edges = verify_pairs(
            candidate_pairs(
                reps_slim,
                config.signature,
                config.lsh,
                tau=emit_tau,
                n_rows_hint=reps_hint,
            ),
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

    clustered = assign_clusters(
        meta,
        edges,
        dsu_edge_limit=ex.dsu_edge_limit,
        num_partitions=num_partitions,
    )
    return classify_clusters(clustered, config)


def group_key_edges(ids_ds: ray.data.Dataset, pattern: str) -> ray.data.Dataset:
    """Star-topology zero-distance edges linking all ids that share a
    regex-extracted group key (the reference's per-sample grouping,
    ``sequence_grouping.py:29-37``).  One hash-partition shuffle on the
    key; within-partition star emission is vectorized (min id per key ->
    every other member).  ``ids_ds`` needs an ``id`` column; only it
    enters the shuffle."""
    import numpy as np

    from ..functions.text import extract_group_key
    from ..stages.exchange import exchange_partitions, string_pkey
    from ..stages.lsh import PAIR_SCHEMA

    num_partitions = exchange_partitions()

    def keyed(t: pa.Table) -> pa.Table:
        keys = extract_group_key(t["id"], pattern)
        out = pa.table({"id": t["id"], "gkey": keys}).filter(pc.is_valid(keys))
        return out.append_column("pkey", string_pkey(out["gkey"], num_partitions))

    def star_edges(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "gkey" not in g.column_names:
            return PAIR_SCHEMA.empty_table()
        keys = np.asarray(g["gkey"].to_pylist(), dtype=object)
        ids = np.asarray(g["id"].to_pylist(), dtype=object)
        order = np.lexsort((ids, keys))
        keys, ids = keys[order], ids[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, len(keys)))
        hub = np.repeat(ids[starts], sizes)  # min id per key (sorted)
        other = ids
        keep = hub != other
        return pa.table(
            {
                "id_a": pa.array(hub[keep], pa.string()),
                "id_b": pa.array(other[keep], pa.string()),
                "est_distance": pa.array(np.zeros(int(keep.sum())), pa.float64()),
            },
            schema=PAIR_SCHEMA,
        )

    return hash_exchange(
        map_blocks(ids_ds, keyed, cols=["id"]),
        "pkey",
        num_partitions,
        star_edges,
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

