"""Config layering: CLI > custom YAML/JSON file > packaged defaults.

Semantics analog of the reference's ``build_config`` deep-merge
(``lasvdedup/utils/config_setup.py:102-204``): a nested mapping is merged
over the defaults, then explicit CLI overrides win.  YAML is parsed with a
minimal built-in reader when PyYAML is absent (this container has no yaml);
JSON config files always work.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Mapping, Optional

from .config import (
    ClassThresholds,
    LSHConfig,
    PipelineConfig,
    SignatureConfig,
)


def _parse_scalar(s: str) -> Any:
    t = s.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    for conv in (int, float):
        try:
            return conv(t)
        except ValueError:
            pass
    return t.strip("'\"")


def load_config_file(path: str) -> Dict[str, Any]:
    """Load a JSON or simple two-level YAML mapping (``key:`` sections with
    indented ``sub: value`` lines — enough for pipeline configs)."""
    text = open(path).read()
    if path.endswith(".json"):
        return json.loads(text)
    try:
        import yaml  # type: ignore

        return yaml.safe_load(text) or {}
    except ImportError:
        pass
    out: Dict[str, Any] = {}
    section: Optional[str] = None
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indented = raw[0] in " \t"
        key, _, val = raw.partition(":")
        key = key.strip()
        val = val.strip()
        if not indented:
            if val:
                out[key] = _parse_scalar(val)
                section = None
            else:
                out[key] = {}
                section = key
        elif section is not None:
            out[section][key] = _parse_scalar(val)
    return out


def _replace_known(dc, mapping: Mapping[str, Any], where: str):
    fields = {f.name for f in dataclasses.fields(dc)}
    unknown = sorted(set(mapping) - fields)
    if unknown:
        raise ValueError(f"unknown config key(s) in {where}: {unknown}")
    return dataclasses.replace(dc, **mapping) if mapping else dc


# top-level keys that replace one PipelineConfig field as they stand
_SCALAR_KEYS = (
    "selection_columns",
    "checkpoint_dir",
    "rank_miss_policy",
    "group_regex",
    "group_only",
)
# sections merged key by key over one PipelineConfig field
_SECTIONS = {
    "signature": "signature",
    "lsh": "lsh",
    "thresholds": "default_thresholds",
}


def build_config(
    config_file: Optional[str] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> PipelineConfig:
    """defaults < config file < explicit overrides.

    File/override shape (all keys optional; an unknown key at any level
    raises ``ValueError``)::

        signature: {k, num_perms, bands, rows, seed, sample_mod, ...}
        lsh: {band_cap, cap_neighbors, exact_verify, exact_margin_low,
              exact_margin_high}
        thresholds: {tau, min_neighborhood, z_threshold, target_length}
        lang_thresholds: {"py": {tau: ...}, ...}
        selection_columns: [..]
        checkpoint_dir: str
        rank_miss_policy: str
        group_regex: str
        group_only: bool
    """
    cfg = PipelineConfig()
    layers = []
    if config_file:
        layers.append(load_config_file(config_file))
    if overrides:
        layers.append(dict(overrides))
    for layer in layers:
        unknown = sorted(set(layer) - {*_SCALAR_KEYS, *_SECTIONS, "lang_thresholds"})
        if unknown:
            raise ValueError(f"unknown config key(s): {unknown}")
        for key, name in _SECTIONS.items():
            if key in layer:
                merged = _replace_known(getattr(cfg, name), layer[key], key)
                cfg = dataclasses.replace(cfg, **{name: merged})
        if "lang_thresholds" in layer:
            lt = dict(cfg.lang_thresholds)
            for lang, th in layer["lang_thresholds"].items():
                base = lt.get(lang, cfg.default_thresholds)
                lt[lang] = _replace_known(base, th, f"lang_thresholds.{lang}")
            cfg = dataclasses.replace(cfg, lang_thresholds=lt)
        for key in _SCALAR_KEYS:
            if key in layer:
                cfg = dataclasses.replace(cfg, **{key: layer[key]})
    return cfg


def config_to_dict(cfg: PipelineConfig) -> Dict[str, Any]:
    """Effective config in the same nested shape ``build_config`` consumes
    — ``--print-config`` output can be saved and passed back via
    ``--config`` (the reference ships a packaged config.yaml for users to
    copy-edit; this is the equivalent self-describing surface)."""
    d = dataclasses.asdict(cfg)
    return {
        **{key: d[name] for key, name in _SECTIONS.items()},
        "lang_thresholds": d["lang_thresholds"],
        "selection_columns": list(d["selection_columns"]),
        **{key: d[key] for key in _SCALAR_KEYS if key != "selection_columns"},
    }
