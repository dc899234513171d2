"""Run configuration: a strict key-value document validated before any work.

The document is JSON; unknown keys are rejected everywhere so typos fail
loudly. Execution-environment knobs (output directory, parallelism) are kept
out of the scientific config so a run manifest pins results, not paths.
Fixed machinery is not a key either: the validation share and Adam's
constants are class constants of `TrainConfig`, and `drureg oracle` draws
gamma from [1, 4]. A manifest that still carries one of those keys is
rejected as unknown.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

from .errors import ConfigError
from .harness import METHOD_KINDS, SweepConfig, lookup_method
from .nn import TrainConfig
from .sampling import (
    DEFAULT_COVARIATES,
    DEFAULT_EFFECT_SCALE,
    DEFAULT_TARGET_SHARES,
    BiasSpec,
    default_population_spec,
)

DEFAULT_CONFIG = {
    "seed": 20220925,
    "population": {
        "n_population": 100_000,
        "n_targets": 5,
        "covariates": [list(pair) for pair in DEFAULT_COVARIATES],
        "base_shares": list(DEFAULT_TARGET_SHARES),
        "effect_scale": DEFAULT_EFFECT_SCALE,
    },
    "bias": {
        "gamma_true": 2.0,
        "d_true": [1, -1, 1, -1, -1],
        "n_sample": 2000,
    },
    "train": asdict(TrainConfig()),
    "methods": list(METHOD_KINDS),
    "covariate_subsets": [
        ["gender", "age", "area", "education", "employment", "past_vote"],
        ["gender", "age"],
    ],
    "sweep": {"n_replicates": 50, **asdict(SweepConfig())},
    "oracle": {
        "n_instances": 100,
        "max_points": 20,
    },
    "model": {
        "loss": "squared",
        "gamma": 1.0,
        "direction": 0,
        "pinball_p": 0.5,
        "target": 0,
        "covariates": None,
        "hidden_width": 4,
    },
}

# Keys that take one value for every target or a list with one per target,
# with the type each value must have.
_PER_TARGET_TYPES = {("bias", "gamma_true"): (int, float), ("bias", "d_true"): int}


def _scalar_types() -> dict:
    """Accepted types of every scalar key, read off its default value:
    int -> int, float -> int or float, str -> str."""
    leaves = [((key,), value) for key, value in DEFAULT_CONFIG.items()
              if not isinstance(value, dict)]
    leaves += [((key, sub), value) for key, section in DEFAULT_CONFIG.items()
               if isinstance(section, dict) for sub, value in section.items()]
    return {path: (int, float) if isinstance(value, float) else type(value)
            for path, value in leaves
            if isinstance(value, (int, float, str)) and path not in _PER_TARGET_TYPES}


_SCALAR_TYPES = _scalar_types()

# Smallest accepted value of numeric keys below which runs would fail; a
# seed from a flag or DRUREG_SEED is checked here too.
_MINIMUMS = {("seed",): 0, ("oracle", "max_points"): 2, ("oracle", "n_instances"): 1,
             ("sweep", "n_replicates"): 1}


def _has_type(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """False for NaN and +-Infinity, which JSON config files may spell out."""
    return not isinstance(value, float) or math.isfinite(value)


def _reject_repeats(key: str, values: list) -> None:
    """A repeated entry would pool two runs, or two columns, under one name."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"config key {key} repeats {value!r}")


def _merge_section(name: str, given: dict, defaults: dict) -> dict:
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in config section {name!r}")
    merged = dict(defaults)
    merged.update(given)
    return merged


def validate_config(doc: dict) -> dict:
    """Merge a user document over the defaults, rejecting unknown keys and
    wrong scalar types; list-valued fields are normalized downstream."""
    unknown = set(doc) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown top-level config key(s) {sorted(unknown)}")
    resolved: dict = {}
    for key, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict):
            given = doc.get(key, {})
            if not isinstance(given, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            resolved[key] = _merge_section(key, given, default)
        else:
            resolved[key] = doc.get(key, default)
    for path, types in _SCALAR_TYPES.items():
        value = resolved
        for part in path:
            value = value[part]
        if not _has_type(value, types):
            raise ConfigError(f"config key {'.'.join(path)} must be {types}, got {value!r}")
        if not _is_finite(value):
            raise ConfigError(f"config key {'.'.join(path)} must be finite, got {value!r}")
        if path in _MINIMUMS and value < _MINIMUMS[path]:
            raise ConfigError(f"config key {'.'.join(path)} must be >= {_MINIMUMS[path]}, "
                              f"got {value!r}")
    for (section, key), types in _PER_TARGET_TYPES.items():
        value = resolved[section][key]
        values = value if isinstance(value, list) else [value]
        if not all(_has_type(v, types) and _is_finite(v) for v in values):
            raise ConfigError(f"config key {section}.{key} must be finite {types} or a list "
                              f"of them, got {value!r}")
    model_covariates = resolved["model"]["covariates"]
    if model_covariates is not None:
        if not (isinstance(model_covariates, list) and model_covariates
                and all(isinstance(name, str) for name in model_covariates)):
            raise ConfigError("model.covariates must be null or a non-empty list of "
                              "covariate names")
        _reject_repeats("model.covariates", model_covariates)
    covariates = resolved["population"]["covariates"]
    if not isinstance(covariates, list) or not covariates or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2
            and isinstance(pair[0], str) and _has_type(pair[1], int)
            for pair in covariates):
        raise ConfigError("population.covariates must be a list of [name, level_count] pairs")
    _reject_repeats("population.covariates", [pair[0] for pair in covariates])
    shares = resolved["population"]["base_shares"]
    if not isinstance(shares, list) or not all(
            _has_type(s, (int, float)) and _is_finite(s) for s in shares):
        raise ConfigError("population.base_shares must be a list of finite numbers")
    if not isinstance(resolved["methods"], list) or not resolved["methods"]:
        raise ConfigError("config key 'methods' must be a non-empty list")
    for kind in resolved["methods"]:
        lookup_method(kind)
    _reject_repeats("methods", resolved["methods"])
    subsets = resolved["covariate_subsets"]
    if not isinstance(subsets, list) or not subsets or \
            not all(isinstance(s, list) and s for s in subsets):
        raise ConfigError("config key 'covariate_subsets' must be a list of non-empty lists")
    _reject_repeats("covariate_subsets", subsets)
    for subset in subsets:
        _reject_repeats("covariate_subsets", subset)
    return resolved


def load_config(path) -> dict:
    """Load a config file; a manifest written by any command also works,
    in which case its resolved config is reused verbatim."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if isinstance(doc, dict) and "resolved_config" in doc:
        doc = doc["resolved_config"]
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {type(doc).__name__}")
    return validate_config(doc)


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode("utf-8")).hexdigest()


def population_spec_from_config(resolved: dict, seed: int):
    pop = resolved["population"]
    return default_population_spec(
        n_population=pop["n_population"],
        n_targets=pop["n_targets"],
        seed=seed,
        covariate_levels=[tuple(pair) for pair in pop["covariates"]],
        base_shares=pop["base_shares"],
        effect_scale=pop["effect_scale"],
    )


def bias_spec_from_config(resolved: dict, seed: int) -> BiasSpec:
    bias = resolved["bias"]
    n_targets = resolved["population"]["n_targets"]
    gamma = bias["gamma_true"]
    gammas = [float(gamma)] * n_targets if isinstance(gamma, (int, float)) else list(gamma)
    d = bias["d_true"]
    directions = [int(d)] * n_targets if isinstance(d, int) else list(d)
    if len(gammas) != n_targets or len(directions) != n_targets:
        raise ConfigError(
            f"bias.gamma_true and bias.d_true must have {n_targets} entries, "
            f"got {len(gammas)} and {len(directions)}")
    return BiasSpec(gamma_true=tuple(gammas), d_true=tuple(directions),
                    n_sample=bias["n_sample"], seed=seed)


def train_config_from_config(resolved: dict) -> TrainConfig:
    return TrainConfig(**resolved["train"])


def sweep_config_from_config(resolved: dict) -> SweepConfig:
    return SweepConfig(**{k: v for k, v in resolved["sweep"].items() if k != "n_replicates"})
