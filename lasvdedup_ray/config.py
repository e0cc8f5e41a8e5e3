"""Pipeline configuration.

Mirrors the *semantics* of the reference's layered YAML config
(``lasvdedup/config.yaml:1-41``, ``lasvdedup/utils/config_setup.py:102-204``):
per-partition-class thresholds (reference: per segment L/S; here: per ``lang``),
a ranking policy (reference: ``SELECTION_COLUMNS`` + ``LENGTH_COLUMN``,
``config.yaml:27-30``), and a grouping policy — re-expressed as frozen
dataclasses instead of a nested dict merge.  Priority order (CLI > custom >
default) is provided by ``PipelineConfig.with_overrides``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence


@dataclass(frozen=True)
class SignatureConfig:
    """k-shingle MinHash + SimHash parameters.

    ``num_perms = bands * rows`` must hold.  The (bands, rows) split sets the
    LSH S-curve: detection probability of a pair with Jaccard ``s`` is
    ``1 - (1 - s^rows)^bands``.  Defaults: 32 bands x 4 rows = 128 perms —
    at the default tau=0.2 boundary (J=0.8) detection probability is
    1-(1-0.8^4)^32 ≈ 1-5e-8, which is what makes dup-pair recall >= 0.99
    achievable AT the threshold (16x8 would detect only ~95% there).
    False-positive candidates from the flatter curve are removed by
    signature verification + the exact-Jaccard borderline re-check.
    """

    k: int = 5                 # shingle width (characters, post-normalization)
    num_perms: int = 128
    bands: int = 32
    rows: int = 4
    seed: int = 42
    # hash-based mod-sampling of shingles before sketching: keep shingles
    # whose hash has its low bits clear (``h & (sample_mod - 1) == 0``,
    # which is ``h % sample_mod == 0`` only because sample_mod must be a
    # power of two).  The rule is GLOBAL and content-hash
    # based, so it samples any two documents' shingle sets consistently —
    # the Jaccard of the sampled sets is an unbiased estimate of the full
    # Jaccard (bottom-sketch composition).  Cuts the sort-dominated
    # sketching cost by ~sample_mod with no measurable estimator loss at
    # code-file sizes (measured: mean |err| 0.016 at mod=4 vs 0.017 full).
    # 1 = off.  Tiny docs whose sample is empty fall back to the full set.
    sample_mod: int = 4
    lowercase: bool = True     # normalization applied only for shingling;
    collapse_ws: bool = True   # stored content stays byte-identical (sha256 invariant)

    def __post_init__(self) -> None:
        if self.bands * self.rows != self.num_perms:
            raise ValueError(
                f"bands*rows ({self.bands}*{self.rows}) != num_perms ({self.num_perms})"
            )
        if self.num_perms % 4 != 0:
            # the LSH stage folds sig16 four uint16 slots at a time through a
            # uint64 view (stages/lsh.py) — a non-multiple-of-4 num_perms
            # would crash there with an opaque numpy reshape error
            raise ValueError(
                f"num_perms ({self.num_perms}) must be a multiple of 4"
            )
        if self.k < 1:
            raise ValueError("shingle width k must be >= 1")
        if self.sample_mod < 1 or self.sample_mod & (self.sample_mod - 1):
            raise ValueError(f"sample_mod ({self.sample_mod}) must be a power of two")


@dataclass(frozen=True)
class ClassThresholds:
    """Per-partition-class decision thresholds.

    Reference analogs (``lasvdedup/config.yaml:31-41``): ``tau`` <-> PWD
    (pairwise-distance threshold, inclusive ``<=`` per
    ``sequence_grouping.py:53``), ``min_neighborhood`` <-> CLADE_SIZE,
    ``z_threshold`` <-> Z_THRESHOLD, ``target_length`` <-> TARGET_LENGTH.
    """

    tau: float = 0.2              # Jaccard-distance threshold (d <= tau ⇒ candidate dup)
    min_neighborhood: int = 8     # "small clade" size bound (reference CLADE_SIZE=8)
    z_threshold: float = 2.0      # MAD multiplier for outlier rejection
    target_length: int = 4000     # preferred content length for ranking


@dataclass(frozen=True)
class LSHConfig:
    """Candidate-generation knobs: skew salting and band caps.

    ``band_cap``: a band bucket with more than this many members (boilerplate /
    license-header skew — the known hot keys) is not expanded all-vs-all
    (O(m^2)); members are linked to their ``cap_neighbors`` nearest neighbors
    in SimHash order instead, and the truncation is logged in the metrics
    table (north_rule: capped bands must not silently drop true dup pairs).
    """

    band_cap: int = 256
    cap_neighbors: int = 4
    # pairs with est_distance in (tau - exact_margin_low, tau +
    # exact_margin_high] get an exact-Jaccard re-check: removes MinHash
    # estimator noise at the inclusive <= boundary the reference pins
    # (sequence_grouping.py:53).  Margins are ASYMMETRIC: the high side
    # protects RECALL (a true dup estimated above tau must still be
    # checked — 2.9 sigma at 128 perms), while the low side only protects
    # PRECISION (a non-dup estimated below tau slips through), so it can
    # be tighter — which keeps the borderline set (and its content
    # fetch/check cost) small.
    exact_verify: bool = True
    exact_margin_low: float = 0.04
    exact_margin_high: float = 0.1


@dataclass(frozen=True)
class PipelineConfig:
    signature: SignatureConfig = field(default_factory=SignatureConfig)
    lsh: LSHConfig = field(default_factory=LSHConfig)
    default_thresholds: ClassThresholds = field(default_factory=ClassThresholds)
    # per-lang overrides, reference's per-segment THRESHOLDS (config.yaml:31-41)
    lang_thresholds: Mapping[str, ClassThresholds] = field(default_factory=dict)
    # ranking: sort by [len_distance ASC] + [these DESC] + [id ASC]
    # (reference io_utils.py:48-55; tie-break on id is stricter than the
    # reference's insertion-order min() — Ray block order is nondeterministic)
    selection_columns: Sequence[str] = ("n_lines",)
    checkpoint_dir: Optional[str] = None
    # rank-table fuzzy-key resolution miss policy (reference: hard
    # ValueError, sequence_grouping.py:78): "error" mirrors the reference,
    # "rank_last" (default) leaves metadata null so misses sort last
    rank_miss_policy: str = "rank_last"
    # grouping-policy knob (reference SAMPLE_REGEX, config.yaml:26): when
    # set, a regex whose first match over the id becomes an ADDITIONAL
    # grouping key — rows whose extracted group key matches are clustered
    # together even without LSH evidence (the reference groups per sample
    # before any distance work)
    group_regex: Optional[str] = None
    # reference-parity grouping mode (sequence_grouping.py:29-37 +
    # :185-353): clusters come from the group_regex ONLY — content
    # similarity never merges rows across groups; signatures still feed the
    # in-cluster decision tree (pairwise distances, outlier detection).
    # This is exactly the reference's semantics, where contigs are grouped
    # per sample up front and distances are only consulted WITHIN a
    # sample's group.  Requires group_regex.
    group_only: bool = False

    def thresholds_for(self, lang: Optional[str]) -> ClassThresholds:
        if lang is not None and lang in self.lang_thresholds:
            return self.lang_thresholds[lang]
        return self.default_thresholds

    def with_overrides(self, **kwargs: Any) -> "PipelineConfig":
        """CLI/custom-over-default layering (config_setup.py:102-204 analog)."""
        return dataclasses.replace(self, **kwargs)


DEFAULT_CONFIG = PipelineConfig()
