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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, UndefinedScoreError
from .losses import LossSpec, MetaInfo
from .nn import Fit, TrainConfig, init_networks, split_sizes, train_stack
from .poststrat import build_cell_table, poststratify
from .robustness import eta
from .sampling import biased_sample, cell_design, estimate_true_meta, generate_population


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

    def __post_init__(self) -> None:
        for key in ("prev_sample_size", "hidden_width", "meta_min_cell_rows"):
            if not getattr(self, key) >= 1:  # also rejects NaN
                raise ConfigError(f"sweep.{key} must be >= 1, got {getattr(self, key)!r}")


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _fit_regression(design: np.ndarray, rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form least squares on the design rows of the sample's subset cells."""
    beta, *_ = np.linalg.lstsq(design[rows], y, rcond=None)
    return design @ beta


def _plan_replicate(payload) -> tuple:
    """(y_true, y_unweighted, runs, fits) of a replicate, with no reference to
    its population. A run is (subset, kind, cell table, sources): the error
    that fails it, or per target the regression's cell estimates or a network
    `Fit`; `fits` holds every `Fit` in run order."""
    (replicate, pop_spec, bias, designs, methods, cfg, sweep_cfg, base_seed) = payload
    population = generate_population(pop_spec)
    n_targets = population.n_targets

    # held-out "previous election" sample: same bias process, its own stream
    prev_bias = replace(bias, n_sample=sweep_cfg.prev_sample_size, seed=_derive_seed(bias.seed, 1))
    # a target's two draws share (gamma, d), so one call draws both from one
    # row CDF; the previous-election sample is dropped once its meta is known
    informed: list[MetaInfo] | Exception = []
    samples = []
    for t in range(n_targets):
        prev, sample = biased_sample(population, (prev_bias, bias), t)
        if not isinstance(informed, Exception):
            try:
                informed.append(estimate_true_meta(
                    prev, population, t, min_cell_rows=sweep_cfg.meta_min_cell_rows))
            except Exception as exc:  # noqa: BLE001 - only the informed methods lose this replicate
                informed = exc.with_traceback(None)  # its frames hold the population
        del prev
        samples.append(sample)
    y_true = [population.target_mean(t) for t in range(n_targets)]
    y_unweighted = [samples[t].target_mean(t) for t in range(n_targets)]
    targets = [samples[t].outcomes[:, t].astype(float) for t in range(n_targets)]

    runs, fits = [], []
    for subset_idx, (subset, lookup, cell_features, design) in enumerate(designs):
        table = build_cell_table(population, subset)
        cells = [lookup[sample.cells] for sample in samples]
        for method_idx, kind in enumerate(methods):
            method = METHODS[kind]
            if method.needs_meta and isinstance(informed, Exception):
                sources = informed
            elif method.loss is None:
                try:
                    sources = [_fit_regression(design, c, y) for c, y in zip(cells, targets)]
                except Exception as exc:  # noqa: BLE001 - failed runs are recorded, not fatal
                    sources = exc.with_traceback(None)
            else:
                metas = method.metas(informed) if method.needs_meta else (None,) * n_targets
                width = sweep_cfg.hidden_width * method.width_factor
                sources = []
                for t in range(n_targets):
                    seed = _derive_seed(base_seed, replicate, subset_idx, method_idx, t)
                    loss = method.loss(metas[t])
                    h, alpha = init_networks(cell_features.shape[1], width, loss,
                                             _derive_seed(seed, 0), _derive_seed(seed, 1))
                    sources.append(Fit(h, alpha, cell_features, cells[t], targets[t], loss,
                                       _derive_seed(seed, 2)))
                fits += sources
            runs.append((subset, kind, table, sources))
    return y_true, y_unweighted, runs, fits


def _score_replicate(replicate: int, plan: tuple, trained: dict) -> tuple[list, list]:
    """Records and failures of a planned replicate; `trained` maps each of
    its fits to its `train_stack` outcome. A run fails as a whole at its
    first failing target."""
    y_true, y_unweighted, runs, _ = plan
    records, failures = [], []
    for subset, kind, table, sources in runs:
        try:
            if isinstance(sources, Exception):
                raise sources
            run_records = []
            for t, estimates in enumerate(sources):
                if isinstance(estimates, Fit):
                    outcome = trained[estimates]
                    if isinstance(outcome, Exception):
                        raise outcome
                    estimates = outcome[0].predict(estimates.table)
                run_records.append(RunRecord(
                    replicate=replicate, subset=subset, method=kind, target=t,
                    y_hat=poststratify(estimates, table), y_true=y_true[t],
                    y_unweighted=y_unweighted[t]))
            records.extend(run_records)
        except Exception as exc:  # noqa: BLE001 - failed runs are recorded, not fatal
            failures.append(RunFailure(replicate=replicate, subset=subset, method=kind,
                                       error=f"{type(exc).__name__}: {exc}"))
    return records, failures


def _run_replicate(payload) -> tuple[list[RunRecord], list[RunFailure]]:
    """Plan a replicate, train all its fits in one `train_stack` call, score it."""
    plan = _plan_replicate(payload)
    fits = plan[3]
    return _score_replicate(payload[0], plan, dict(zip(fits, train_stack(fits, payload[5]))))


def run_sweep(populations, bias_specs, covariate_subsets, methods,
              cfg: TrainConfig, sweep_cfg: SweepConfig = SweepConfig(),
              base_seed: int = 0, jobs: int = 1) -> SweepResult:
    """Train/score every (replicate, covariate subset, method) permutation.

    populations and bias_specs pair up one replicate each; methods are
    method kinds, keys of METHODS. Replicates run in min(jobs, replicates)
    worker processes when jobs > 1, since a pool may start all its workers at
    its first task; the results depend only on run keys, never on jobs.
    """
    if not populations or not bias_specs or not covariate_subsets or not methods:
        raise ConfigError("populations, bias_specs, covariate_subsets and methods must be non-empty")
    if not jobs >= 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs!r}")
    if len(populations) != len(bias_specs):
        raise ConfigError("need exactly one bias spec per population replicate")
    entries = [lookup_method(kind) for kind in methods]  # every kind, before any work
    if any(method.loss is not None for method in entries):
        split_sizes(min(bias.n_sample for bias in bias_specs), cfg)
    schema, *others = {(pop.covariate_names, pop.level_counts) for pop in populations}
    if others:
        raise ConfigError("population specs must share one covariate schema")
    # one per subset, shared by every replicate: (subset, lookup, features, regression design)
    designs = [(tuple(s), *cell_design(*schema, s)) for s in covariate_subsets]
    designs = [(s, lookup, x, np.column_stack([x, np.ones(len(x))])) for s, lookup, x in designs]
    payloads = [
        (idx, pop, bias, designs, methods, cfg, sweep_cfg, base_seed)
        for idx, (pop, bias) in enumerate(zip(populations, bias_specs))
    ]
    if jobs > 1 and len(payloads) > 1:
        # multiprocessing loads only when a sweep runs replicates in parallel
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            outcomes = list(pool.map(_run_replicate, payloads))
    else:
        outcomes = [_run_replicate(p) for p in payloads]

    records = [r for recs, _ in outcomes for r in recs]
    failures = [f for _, fails in outcomes for f in fails]
    records.sort(key=lambda r: (r.replicate, r.subset, r.method, r.target))
    failures.sort(key=lambda f: (f.replicate, f.subset, f.method))
    return SweepResult(records=records, failures=failures)


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
