"""Estimation-method comparison: permutation sweep and b-score aggregation.

For each (replicate, covariate subset, method) the harness trains one model
per target on that target's biased sample, post-stratifies the per-cell
predictions against the population cell table, and scores how much of the
raw sampling bias the method removed. Meta-information for the informed
methods is estimated on a held-out "previous election" sample of the same
population, never on the evaluation sample.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, UndefinedScoreError
from .losses import LossSpec, MetaInfo
from .nn import TrainConfig, init_mlp, mlp_architecture, one_hot_encode, train
from .poststrat import build_cell_table, poststratify
from .robustness import eta
from .sampling import BiasSpec, biased_sample, estimate_true_meta, generate_population

METHOD_KINDS = (
    "dru_informed",
    "nn_plain",
    "regression_poststrat",
    "pinball",
    "dru_wrong_gamma",
    "dru_wrong_d",
    "dru_wrong_both",
)


@dataclass(frozen=True)
class MethodSpec:
    """One estimation method; per-target parameters are resolved per replicate
    from the informed meta estimates unless given explicitly."""

    kind: str
    metas: tuple[MetaInfo, ...] | None = None
    pinball_ps: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in METHOD_KINDS:
            raise ConfigError(f"unknown method {self.kind!r}, expected one of {METHOD_KINDS}")

    def resolve_metas(self, informed: tuple[MetaInfo, ...]) -> tuple[MetaInfo, ...]:
        """Per-target MetaInfo for the dRU variants.

        wrong_gamma reverses the order of the gamma vector across targets,
        wrong_d flips every direction, wrong_both does both.
        """
        base = self.metas if self.metas is not None else informed
        if self.kind in ("dru_wrong_gamma", "dru_wrong_both"):
            gammas = [m.gamma for m in base][::-1]
        else:
            gammas = [m.gamma for m in base]
        if self.kind in ("dru_wrong_d", "dru_wrong_both"):
            directions = [-m.direction for m in base]
        else:
            directions = [m.direction for m in base]
        return tuple(MetaInfo(gamma=g, direction=d) for g, d in zip(gammas, directions))

    def resolve_pinball_ps(self, informed: tuple[MetaInfo, ...]) -> tuple[float, ...]:
        """Quantile levels from the informed meta: push the fit toward the
        side the population is believed to lie, more strongly for larger
        gamma (direction=+1 -> p = 1 - eta(gamma), direction=-1 -> eta)."""
        if self.pinball_ps is not None:
            return self.pinball_ps
        ps = []
        for m in informed:
            if m.direction > 0:
                ps.append(1.0 - eta(m.gamma))
            elif m.direction < 0:
                ps.append(eta(m.gamma))
            else:
                ps.append(0.5)
        return tuple(ps)


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


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _fit_regression(features: np.ndarray, y: np.ndarray, cell_features: np.ndarray) -> np.ndarray:
    """Closed-form least squares on one-hot covariates plus intercept."""
    a = np.column_stack([features, np.ones(features.shape[0])])
    beta, *_ = np.linalg.lstsq(a, y, rcond=None)
    return np.column_stack([cell_features, np.ones(cell_features.shape[0])]) @ beta


def _fit_network(kind: str, features: np.ndarray, y: np.ndarray,
                 cell_features: np.ndarray, loss: LossSpec,
                 cfg: TrainConfig, sweep_cfg: SweepConfig, seed: int) -> np.ndarray:
    width = sweep_cfg.hidden_width * (2 if kind == "pinball" else 1)
    h = init_mlp(mlp_architecture(features.shape[1], width), seed=_derive_seed(seed, 0))
    alpha = None
    if loss.needs_alpha:
        alpha = init_mlp(
            mlp_architecture(features.shape[1], sweep_cfg.hidden_width, output_activation="relu"),
            seed=_derive_seed(seed, 1),
        )
    model, _ = train(h, alpha, features, y, loss, replace(cfg, seed=_derive_seed(seed, 2)))
    return model.predict(cell_features)


def _needs_informed_meta(method: MethodSpec) -> bool:
    if method.kind in ("nn_plain", "regression_poststrat"):
        return False
    if method.kind == "pinball":
        return method.pinball_ps is None
    return method.metas is None


def _method_loss(kind: str, metas, pinball_ps, target: int) -> LossSpec:
    if kind in ("dru_informed", "dru_wrong_gamma", "dru_wrong_d", "dru_wrong_both"):
        meta = metas[target]
        if meta.direction == 0 or meta.gamma == 1.0:
            # no usable directional information: plain fit
            return LossSpec(kind="squared")
        return LossSpec(kind="dru", meta=meta)
    if kind == "pinball":
        return LossSpec(kind="pinball", pinball_p=pinball_ps[target])
    return LossSpec(kind="squared")


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
    for subset_idx, subset in enumerate(subsets):
        table = build_cell_table(population, subset)
        cols = population.column_index(subset)
        cell_features = one_hot_encode(table.cell_levels(), table.level_counts)
        sample_feats = [one_hot_encode(samples[t].covariates[:, cols], table.level_counts)
                        for t in range(n_targets)]
        populated = table.fractions > 0
        unseen = max(
            np.count_nonzero(populated & (np.bincount(sample.cell_index(subset),
                                                      minlength=populated.size) == 0))
            for sample in samples)
        coverage.append({
            "replicate": replicate,
            "subset": "+".join(subset),
            "cells": int(np.count_nonzero(populated)),
            "max_unseen_in_training": int(unseen),
        })
        for method_idx, method in enumerate(methods):
            try:
                if isinstance(informed, Exception) and _needs_informed_meta(method):
                    raise informed
                metas = None if isinstance(informed, Exception) else method.resolve_metas(informed)
                pinball_ps = None if isinstance(informed, Exception) \
                    else method.resolve_pinball_ps(informed)
                for t in range(n_targets):
                    loss = _method_loss(method.kind, metas, pinball_ps, t)
                    y = samples[t].outcomes[:, t].astype(float)
                    seed = _derive_seed(base_seed, replicate, subset_idx, method_idx, t)
                    if method.kind == "regression_poststrat":
                        preds = _fit_regression(sample_feats[t], y, cell_features)
                    else:
                        preds = _fit_network(method.kind, sample_feats[t], y,
                                             cell_features, loss, cfg, sweep_cfg, seed)
                    records.append(RunRecord(
                        replicate=replicate,
                        subset=tuple(subset),
                        method=method.kind,
                        target=t,
                        y_hat=poststratify(preds, table),
                        y_true=y_true[t],
                        y_unweighted=y_unweighted[t],
                    ))
            except Exception as exc:  # noqa: BLE001 - failed runs are recorded, not fatal
                records = [r for r in records
                           if not (r.replicate == replicate and r.subset == tuple(subset)
                                   and r.method == method.kind)]
                failures.append(RunFailure(
                    replicate=replicate, subset=tuple(subset), method=method.kind,
                    error=f"{type(exc).__name__}: {exc}",
                ))
    return records, failures, coverage


def run_sweep(populations, bias_specs, covariate_subsets, methods,
              cfg: TrainConfig, sweep_cfg: SweepConfig = SweepConfig(),
              base_seed: int = 0) -> SweepResult:
    """Train/score every (replicate, covariate subset, method) permutation.

    populations and bias_specs pair up one replicate each; methods may be
    MethodSpec objects or method-kind strings. Replicates run in parallel
    when sweep_cfg.jobs > 1; the result ordering depends only on run keys.
    """
    if not populations or not bias_specs or not covariate_subsets or not methods:
        raise ConfigError("populations, bias_specs, covariate_subsets and methods must be non-empty")
    if len(populations) != len(bias_specs):
        raise ConfigError("need exactly one bias spec per population replicate")
    methods = [m if isinstance(m, MethodSpec) else MethodSpec(kind=m) for m in methods]
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


def summarize(result: SweepResult) -> list[dict]:
    """Per-method mean b and frequency of positive b, from the run records."""
    if not result.records:
        raise ConfigError("cannot summarize an empty sweep")
    by_method: dict = {}
    for (_, _, method), b in result.run_b_values().items():
        by_method.setdefault(method, []).append(b)
    rows = []
    for method in sorted(by_method):
        values = np.array(by_method[method])
        rows.append({
            "method": method,
            "mean_b": float(values.mean()),
            "freq_b_positive": float((values > 0).mean()),
        })
    return rows


def histogram_data(result: SweepResult, n_bins: int = 24,
                   lo: float = -2.0, hi: float = 1.0) -> list[dict]:
    """Per-method b-score histogram counts on fixed bins, outliers clipped
    into the edge bins; data-only output for external plotting."""
    edges = np.linspace(lo, hi, n_bins + 1)
    by_method: dict = {}
    for (_, _, method), b in result.run_b_values().items():
        by_method.setdefault(method, []).append(b)
    rows = []
    for method in sorted(by_method):
        values = np.clip(np.array(by_method[method]), lo, hi)
        counts, _ = np.histogram(values, bins=edges)
        for k in range(n_bins):
            rows.append({
                "method": method,
                "bin_left": float(edges[k]),
                "bin_right": float(edges[k + 1]),
                "count": int(counts[k]),
            })
    return rows
