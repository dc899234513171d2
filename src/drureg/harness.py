"""Estimation-method comparison: permutation sweep and b-score aggregation.

For each (replicate, covariate subset, method) the harness trains one model
per target on that target's biased sample, post-stratifies the per-cell
predictions against the population cell table, and scores how much of the
raw sampling bias the method removed. Meta-information for the informed
methods is estimated on a held-out "previous election" sample of the same
population, never on the evaluation sample.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UndefinedScoreError
from .losses import LossSpec, MetaInfo
from .nn import Fit, TrainConfig, init_networks, one_hot_encode, split_sizes, train_stack
from .poststrat import build_cell_table, poststratify
from .robustness import eta
from .sampling import BiasSpec, biased_sample, estimate_true_meta, generate_population


def _squared(meta: MetaInfo | None) -> LossSpec:
    return LossSpec(kind="squared")


def _dru_or_squared(meta: MetaInfo) -> LossSpec:
    # no usable directional information (d = 0 or gamma = 1): plain fit
    if meta.direction == 0 or meta.gamma == 1.0:
        return LossSpec(kind="squared")
    return LossSpec(kind="dru", meta=meta)


def _pinball(meta: MetaInfo) -> LossSpec:
    """Quantile level pushed toward the side the population is believed to
    lie, more strongly for larger gamma: d = +1 -> 1 - eta(gamma), d = -1 ->
    eta(gamma), d = 0 -> the median."""
    p = {1: 1.0 - eta(meta.gamma), -1: eta(meta.gamma), 0: 0.5}[meta.direction]
    return LossSpec(kind="pinball", pinball_p=p)


@dataclass(frozen=True)
class Method:
    """One sweep method.

    loss            per-target LossSpec from that target's meta; None marks
                    the closed-form regression instead of a network
    needs_meta      whether the loss reads the informed meta estimates
    reverse_gamma   cross-target transform: reverse the gamma vector
    flip_d          cross-target transform: flip every direction
    width_factor    multiplier on sweep hidden_width for h and alpha
    """

    loss: Callable[[MetaInfo | None], LossSpec] | None
    needs_meta: bool = True
    reverse_gamma: bool = False
    flip_d: bool = False
    width_factor: int = 1

    def metas(self, informed: tuple[MetaInfo, ...]) -> tuple[MetaInfo, ...]:
        """Per-target meta after this method's cross-target transform."""
        gammas = [m.gamma for m in informed]
        if self.reverse_gamma:
            gammas = gammas[::-1]
        sign = -1 if self.flip_d else 1
        return tuple(MetaInfo(gamma=g, direction=sign * m.direction)
                     for g, m in zip(gammas, informed))


METHODS: dict[str, Method] = {
    "dru_informed": Method(_dru_or_squared),
    "nn_plain": Method(_squared, needs_meta=False),
    "regression_poststrat": Method(None, needs_meta=False),
    "pinball": Method(_pinball, width_factor=2),
    "dru_wrong_gamma": Method(_dru_or_squared, reverse_gamma=True),
    "dru_wrong_d": Method(_dru_or_squared, flip_d=True),
    "dru_wrong_both": Method(_dru_or_squared, reverse_gamma=True, flip_d=True),
}
METHOD_KINDS = tuple(METHODS)


def lookup_method(kind) -> Method:
    """The table entry for a method kind; the one check of method names."""
    if not isinstance(kind, str) or kind not in METHODS:
        raise ConfigError(f"unknown method {kind!r}, expected one of {METHOD_KINDS}")
    return METHODS[kind]


@dataclass(frozen=True)
class RunRecord:
    replicate: int
    subset: tuple[str, ...]
    method: str
    target: int
    y_hat: float
    y_true: float
    y_unweighted: float

    @property
    def b_contribution(self) -> float:
        """Numerator term of the b-score: bias removed on this target."""
        return abs(self.y_true - self.y_unweighted) - abs(self.y_true - self.y_hat)


@dataclass(frozen=True)
class RunFailure:
    replicate: int
    subset: tuple[str, ...]
    method: str
    error: str


@dataclass
class SweepResult:
    records: list[RunRecord]
    failures: list[RunFailure]
    coverage: list[dict] = field(default_factory=list)

    def n_runs(self) -> int:
        return len({(r.replicate, r.subset, r.method) for r in self.records}) + len(self.failures)

    def run_b_values(self) -> dict:
        """b-score per (replicate, subset, method) recomputed from the records."""
        groups: dict = {}
        for rec in self.records:
            groups.setdefault((rec.replicate, rec.subset, rec.method), []).append(rec)
        return {
            key: b_score(
                [r.y_true for r in recs],
                [r.y_hat for r in recs],
                [r.y_unweighted for r in recs],
            )
            for key, recs in sorted(groups.items())
        }


def b_score(y_true, y_hat, y_unweighted, floor: float = 1e-6) -> float:
    """Fraction of the baseline bias removed, aggregated across targets.

    b = sum_i (|true_i - unweighted_i| - |true_i - hat_i|) / sum_i |true_i - unweighted_i|

    1 means exact recovery on every target, 0 means no better than the
    unweighted sample means, negative means bias was added. Undefined when
    every per-target baseline deviation sits below `floor`.
    """
    y_true = np.asarray(y_true, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    y_unweighted = np.asarray(y_unweighted, dtype=float)
    if not (y_true.shape == y_hat.shape == y_unweighted.shape):
        raise ConfigError("b_score inputs must have one entry per target")
    baseline = np.abs(y_true - y_unweighted)
    if (baseline <= floor).all():
        raise UndefinedScoreError(
            f"every baseline deviation is below {floor}; b is undefined")
    removed = baseline - np.abs(y_true - y_hat)
    return float(removed.sum() / baseline.sum())


@dataclass(frozen=True)
class SweepConfig:
    """Sweep-level knobs beyond the per-model training configuration."""

    prev_sample_size: int = 20_000
    meta_min_cell_rows: int = 5
    hidden_width: int = 4
    jobs: int = 1

    def __post_init__(self) -> None:
        for key in ("prev_sample_size", "hidden_width", "meta_min_cell_rows", "jobs"):
            if not getattr(self, key) >= 1:  # also rejects NaN
                raise ConfigError(f"sweep.{key} must be >= 1, got {getattr(self, key)!r}")


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _fit_regression(features: np.ndarray, y: np.ndarray, cell_features: np.ndarray) -> np.ndarray:
    """Closed-form least squares on one-hot covariates plus intercept."""
    a = np.column_stack([features, np.ones(features.shape[0])])
    beta, *_ = np.linalg.lstsq(a, y, rcond=None)
    return np.column_stack([cell_features, np.ones(cell_features.shape[0])]) @ beta


def _run_replicate(payload) -> tuple[list[RunRecord], list[RunFailure], list[dict]]:
    (replicate, pop_spec, bias, subsets, methods, cfg, sweep_cfg, base_seed) = payload
    population = generate_population(pop_spec)
    n_targets = population.n_targets

    # held-out "previous election" sample: same bias process, its own stream
    prev_bias = BiasSpec(
        gamma_true=bias.gamma_true,
        d_true=bias.d_true,
        n_sample=sweep_cfg.prev_sample_size,
        seed=_derive_seed(bias.seed, 1),
    )
    try:
        informed = tuple(
            estimate_true_meta(
                biased_sample(population, prev_bias, t), population, t,
                min_cell_rows=sweep_cfg.meta_min_cell_rows,
            )
            for t in range(n_targets)
        )
    except Exception as exc:  # noqa: BLE001 - only the informed methods lose this replicate
        informed = exc
    samples = [biased_sample(population, bias, t) for t in range(n_targets)]
    y_true = [population.target_mean(t) for t in range(n_targets)]
    y_unweighted = [samples[t].target_mean(t) for t in range(n_targets)]

    records: list[RunRecord] = []
    failures: list[RunFailure] = []
    coverage: list[dict] = []
    targets = [samples[t].outcomes[:, t].astype(float) for t in range(n_targets)]
    for subset_idx, subset in enumerate(subsets):
        table = build_cell_table(population, subset)
        cell_features = one_hot_encode(table.cell_levels(), table.level_counts)
        cells = [sample.cell_index(subset) for sample in samples]
        populated = table.fractions > 0
        unseen = max(
            np.count_nonzero(populated & (np.bincount(c, minlength=populated.size) == 0))
            for c in cells)
        coverage.append({
            "replicate": replicate,
            "subset": "+".join(subset),
            "cells": int(np.count_nonzero(populated)),
            "max_unseen_in_training": int(unseen),
        })
        # Pass 1: plan every network of the subset in method -> target order,
        # each method's fits starting at first_fit[method_idx]; they all
        # train in one lockstep call.
        fits: list[Fit] = []
        first_fit: dict[int, int] = {}
        for method_idx, kind in enumerate(methods):
            method = METHODS[kind]
            if method.loss is None or (method.needs_meta and isinstance(informed, Exception)):
                continue
            first_fit[method_idx] = len(fits)
            metas = method.metas(informed) if method.needs_meta else (None,) * n_targets
            width = sweep_cfg.hidden_width * method.width_factor
            for t in range(n_targets):
                seed = _derive_seed(base_seed, replicate, subset_idx, method_idx, t)
                loss = method.loss(metas[t])
                h, alpha = init_networks(cell_features.shape[1], width, loss,
                                         _derive_seed(seed, 0), _derive_seed(seed, 1))
                fits.append(Fit(h, alpha, cells[t], targets[t], loss, _derive_seed(seed, 2)))
        outcomes = train_stack(cell_features, fits, cfg) if fits else []
        # Pass 2: score each method; it fails as a whole at its first
        # failing target.
        for method_idx, kind in enumerate(methods):
            method = METHODS[kind]
            try:
                if method.needs_meta and isinstance(informed, Exception):
                    raise informed
                method_records = []
                for t in range(n_targets):
                    if method.loss is None:
                        estimates = _fit_regression(cell_features[cells[t]], targets[t],
                                                    cell_features)
                    else:
                        outcome = outcomes[first_fit[method_idx] + t]
                        if isinstance(outcome, Exception):
                            raise outcome
                        estimates = outcome[0].predict(cell_features)
                    method_records.append(RunRecord(
                        replicate=replicate, subset=tuple(subset), method=kind, target=t,
                        y_hat=poststratify(estimates, table), y_true=y_true[t],
                        y_unweighted=y_unweighted[t]))
                records.extend(method_records)
            except Exception as exc:  # noqa: BLE001 - failed runs are recorded, not fatal
                failures.append(RunFailure(
                    replicate=replicate, subset=tuple(subset), method=kind,
                    error=f"{type(exc).__name__}: {exc}",
                ))
    return records, failures, coverage


def run_sweep(populations, bias_specs, covariate_subsets, methods,
              cfg: TrainConfig, sweep_cfg: SweepConfig = SweepConfig(),
              base_seed: int = 0) -> SweepResult:
    """Train/score every (replicate, covariate subset, method) permutation.

    populations and bias_specs pair up one replicate each; methods are
    method kinds, keys of METHODS. Replicates run in parallel when
    sweep_cfg.jobs > 1; the result ordering depends only on run keys.
    """
    if not populations or not bias_specs or not covariate_subsets or not methods:
        raise ConfigError("populations, bias_specs, covariate_subsets and methods must be non-empty")
    if len(populations) != len(bias_specs):
        raise ConfigError("need exactly one bias spec per population replicate")
    entries = [lookup_method(kind) for kind in methods]  # every kind, before any work
    if any(method.loss is not None for method in entries):
        n_sample = min(bias.n_sample for bias in bias_specs)
        n_train = split_sizes(n_sample, cfg.validation_fraction)[1]
        if n_train < cfg.batch_size:
            raise ConfigError(f"batch_size {cfg.batch_size} exceeds the {n_train}-row training "
                              f"split of a {n_sample}-row sample")
    subsets = [tuple(s) for s in covariate_subsets]
    payloads = [
        (idx, pop, bias, subsets, methods, cfg, sweep_cfg, base_seed)
        for idx, (pop, bias) in enumerate(zip(populations, bias_specs))
    ]
    if sweep_cfg.jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=sweep_cfg.jobs) as pool:
            outcomes = list(pool.map(_run_replicate, payloads))
    else:
        outcomes = [_run_replicate(p) for p in payloads]

    records: list[RunRecord] = []
    failures: list[RunFailure] = []
    coverage: list[dict] = []
    for recs, fails, cover in outcomes:
        records.extend(recs)
        failures.extend(fails)
        coverage.extend(cover)
    records.sort(key=lambda r: (r.replicate, r.subset, r.method, r.target))
    failures.sort(key=lambda f: (f.replicate, f.subset, f.method))
    return SweepResult(records=records, failures=failures, coverage=coverage)


def _b_values_by_method(result: SweepResult) -> dict[str, np.ndarray]:
    """Run b-scores grouped per method, methods in sorted order."""
    by_method: dict = {}
    for (_, _, method), b in result.run_b_values().items():
        by_method.setdefault(method, []).append(b)
    return {method: np.array(by_method[method]) for method in sorted(by_method)}


def summarize(result: SweepResult) -> list[dict]:
    """Per-method mean b and frequency of positive b, from the run records."""
    if not result.records:
        raise ConfigError("cannot summarize an empty sweep")
    return [
        {"method": method, "mean_b": float(values.mean()),
         "freq_b_positive": float((values > 0).mean())}
        for method, values in _b_values_by_method(result).items()
    ]


def histogram_data(result: SweepResult, n_bins: int = 24,
                   lo: float = -2.0, hi: float = 1.0) -> list[dict]:
    """Per-method b-score histogram counts on fixed bins, outliers clipped
    into the edge bins; data-only output for external plotting."""
    edges = np.linspace(lo, hi, n_bins + 1)
    rows = []
    for method, values in _b_values_by_method(result).items():
        counts, _ = np.histogram(np.clip(values, lo, hi), bins=edges)
        for k in range(n_bins):
            rows.append({
                "method": method,
                "bin_left": float(edges[k]),
                "bin_right": float(edges[k + 1]),
                "count": int(counts[k]),
            })
    return rows
