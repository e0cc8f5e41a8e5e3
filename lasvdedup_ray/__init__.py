"""lasvdedup_ray — Ray-Data-native near-duplicate detection + clustering.

A from-scratch rebuild of the semantics of Joon-Klaps/lasvdedup (pairwise-
similarity dedup with threshold/decision-tree classification and ranked
representative selection) as idiomatic ray.data pipelines over Parquet
source-code tables.  See SURVEY.md for the full blueprint.
"""

from . import _alloc  # noqa: F401  (side effect: THP-madvise hygiene, must run first)
from .config import (
    ClassThresholds,
    LSHConfig,
    PipelineConfig,
    SignatureConfig,
)
from .config_io import build_config

__all__ = [
    "ClassThresholds",
    "LSHConfig",
    "PipelineConfig",
    "SignatureConfig",
    "build_config",
]
