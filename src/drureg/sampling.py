"""Synthetic populations and direction-annotated, ratio-bounded biased sampling.

A population is a table of categorical covariates plus one binary outcome per
target (one-vs-rest coalition shares). The biased sampler draws a sample whose
within-cell outcome law differs from the population's by a two-level density
ratio {gamma, 1/gamma}: outcomes on the announced direction's side of the
within-cell split are undersampled so that the sample mean lands on the
opposite side of the population mean, and the extreme ratio gamma is attained
exactly at the population level.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, EstimationError, ParameterError, SchemaError
from .losses import MetaInfo
from .robustness import eta

DEFAULT_COVARIATES = (
    ("gender", 2),
    ("age", 5),
    ("area", 4),
    ("education", 3),
    ("employment", 3),
    ("past_vote", 4),
)

DEFAULT_TARGET_SHARES = (0.35, 0.25, 0.15, 0.12, 0.08)

DEFAULT_EFFECT_SCALE = 0.2


@dataclass(frozen=True, eq=False)
class PopulationSpec:
    """Recipe for one synthetic population.

    cell_means is an (n_cells, n_targets) array of per-target outcome
    probabilities, one row per flat cell index (see Dataset.cell_index); each
    row must sum to <= 1 so it can be read as coalition shares.
    """

    covariate_levels: tuple[tuple[str, int], ...]
    cell_means: np.ndarray
    n_population: int
    n_targets: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_population < 1 or self.n_targets < 1:
            raise ConfigError("n_population and n_targets must be >= 1")
        for name, count in self.covariate_levels:
            if count < 1:
                raise ConfigError(f"covariate {name!r} needs at least one level")
        means = np.asarray(self.cell_means, dtype=float)
        object.__setattr__(self, "cell_means", means)
        expected = (int(np.prod(self.level_counts)), self.n_targets)
        if means.shape != expected:
            raise ConfigError(f"cell_means has shape {means.shape}, expected {expected}")
        outside = ((means < 0) | (means > 1)).any(axis=1)
        if outside.any():
            raise ConfigError(f"cell {outside.argmax()} has outcome probabilities outside [0, 1]")
        totals = means.sum(axis=1)
        if (totals > 1.0 + 1e-9).any():
            cell = int(totals.argmax())
            raise ConfigError(f"cell {cell} target shares sum to {totals[cell]} > 1")

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.covariate_levels)

    @property
    def level_counts(self) -> tuple[int, ...]:
        return tuple(count for _, count in self.covariate_levels)


def default_population_spec(n_population: int = 100_000, n_targets: int = 5,
                            seed: int = 0,
                            covariate_levels=DEFAULT_COVARIATES,
                            base_shares=DEFAULT_TARGET_SHARES,
                            effect_scale: float = DEFAULT_EFFECT_SCALE) -> PopulationSpec:
    """Smooth seeded cell means: per-target base shares tilted multiplicatively
    by independent per-covariate-level effects, rescaled so per-cell shares
    keep total mass below 1."""
    covariate_levels = tuple((str(n), int(c)) for n, c in covariate_levels)
    base = np.asarray(base_shares, dtype=float)[:n_targets]
    if base.size != n_targets:
        raise ConfigError(f"need {n_targets} base shares, got {base.size}")
    rng = np.random.default_rng(seed)
    counts = [c for _, c in covariate_levels]
    effects = [rng.uniform(-effect_scale, effect_scale, size=(c, n_targets)) for c in counts]
    cells = np.indices(counts).reshape(len(counts), -1).T
    tilt = np.zeros((cells.shape[0], n_targets))
    for j, effect in enumerate(effects):
        tilt += effect[cells[:, j]]
    means = base * np.exp(tilt)
    total = means.sum(axis=1, keepdims=True)
    means = np.where(total > 0.97, means * (0.97 / total), means)
    return PopulationSpec(
        covariate_levels=covariate_levels,
        cell_means=np.clip(means, 0.005, 0.95),
        n_population=n_population,
        n_targets=n_targets,
        seed=seed,
    )


@dataclass(frozen=True)
class BiasSpec:
    """Ground-truth sampling bias: per-target ratio bound and direction."""

    gamma_true: tuple[float, ...]
    d_true: tuple[int, ...]
    n_sample: int
    seed: int

    def __post_init__(self) -> None:
        gammas = tuple(float(g) for g in np.atleast_1d(self.gamma_true))
        directions = tuple(int(d) for d in np.atleast_1d(self.d_true))
        object.__setattr__(self, "gamma_true", gammas)
        object.__setattr__(self, "d_true", directions)
        if any(g < 1.0 for g in gammas):
            raise ParameterError(f"gamma_true must be >= 1, got {gammas}")
        if any(d not in (-1, 1) for d in directions):
            raise ParameterError(f"d_true must be -1 or +1, got {directions}")
        if len(gammas) != len(directions):
            raise ParameterError("gamma_true and d_true must have one entry per target")
        if self.n_sample < 1:
            raise ParameterError("n_sample must be >= 1")

    def to_dict(self) -> dict:
        return {
            "gamma_true": list(self.gamma_true),
            "d_true": list(self.d_true),
            "n_sample": self.n_sample,
            "seed": self.seed,
        }


@dataclass
class Dataset:
    """Rows of covariate level indices plus binary outcomes per target."""

    covariates: np.ndarray
    outcomes: np.ndarray
    covariate_names: tuple[str, ...]
    level_counts: tuple[int, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.covariates.ndim != 2 or self.outcomes.ndim != 2:
            raise SchemaError("covariates and outcomes must be 2-D")
        if self.covariates.shape[0] != self.outcomes.shape[0]:
            raise SchemaError("covariates and outcomes have different row counts")
        if self.covariates.shape[1] != len(self.covariate_names):
            raise SchemaError("covariate column count does not match names")
        if not ((self.outcomes == 0) | (self.outcomes == 1)).all():
            raise SchemaError("outcomes must be binary")

    @property
    def n_rows(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_targets(self) -> int:
        return self.outcomes.shape[1]

    def _subset_columns(self, subset) -> tuple[np.ndarray, tuple[int, ...]]:
        cols = self.column_index(self.covariate_names if subset is None else subset)
        return cols, tuple(self.level_counts[c] for c in cols)

    def cell_index(self, subset=None) -> np.ndarray:
        """Flat index of each row's cell over the covariate subset (default:
        every covariate), in np.ravel_multi_index order of the subset's levels.

        This is the one cell representation: cell tables, cell means and
        per-cell estimates are all arrays indexed by it.
        """
        cols, counts = self._subset_columns(subset)
        return np.ravel_multi_index(tuple(self.covariates[:, c] for c in cols), counts)

    def n_cells(self, subset=None) -> int:
        return int(np.prod(self._subset_columns(subset)[1]))

    def target_mean(self, target_index: int) -> float:
        return float(self.outcomes[:, target_index].mean())

    def column_index(self, subset_names) -> np.ndarray:
        cols = []
        for name in subset_names:
            if name not in self.covariate_names:
                raise SchemaError(f"unknown covariate {name!r}; have {self.covariate_names}")
            cols.append(self.covariate_names.index(name))
        return np.array(cols, dtype=int)

    def to_csv(self, path) -> None:
        """CSV with covariate columns, one outcome column per target, and
        cell_id; a JSON provenance sidecar lands next to it."""
        path = Path(path)
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerow(
                list(self.covariate_names)
                + [f"target_{t}" for t in range(self.n_targets)]
                + ["cell_id"]
            )
            np.savetxt(fh, np.column_stack([self.covariates, self.outcomes, self.cell_index()]),
                       fmt="%d", delimiter=",", newline="\r\n")
        sidecar = {
            "covariate_names": list(self.covariate_names),
            "level_counts": list(self.level_counts),
            "n_targets": self.n_targets,
            "provenance": self.provenance,
        }
        path.with_suffix(".provenance.json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True))

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        path = Path(path)
        sidecar_path = path.with_suffix(".provenance.json")
        try:
            sidecar = json.loads(sidecar_path.read_text())
            names = tuple(sidecar["covariate_names"])
            levels = tuple(int(c) for c in sidecar["level_counts"])
            n_targets = int(sidecar["n_targets"])
            provenance = sidecar["provenance"]
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSON and UTF-8
            raise SchemaError(f"malformed dataset sidecar {sidecar_path}: {exc!r}") from exc
        with path.open(newline="") as fh:
            try:
                header = next(csv.reader(fh), [])
            except ValueError as exc:
                raise SchemaError(f"unreadable CSV header in {path}: {exc}") from exc
            expected = list(names) + [f"target_{t}" for t in range(n_targets)] + ["cell_id"]
            if header != expected:
                missing = [c for c in expected if c not in header]
                raise SchemaError(f"CSV header mismatch in {path}; missing columns {missing}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header-only file has no rows
                try:
                    data = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
                    data = data.reshape(len(data), len(expected))
                except ValueError as exc:
                    raise SchemaError(f"malformed rows in {path}: {exc}") from exc
        return cls(
            covariates=data[:, : len(names)],
            outcomes=data[:, len(names): len(names) + n_targets],
            covariate_names=names,
            level_counts=levels,
            provenance=provenance,
        )


def generate_population(spec: PopulationSpec) -> Dataset:
    """Draw a population: covariates uniform and independent per column,
    outcomes Bernoulli with the cell's per-target means."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_population
    counts = spec.level_counts
    covariates = np.column_stack([rng.integers(0, c, size=n) for c in counts])
    cells = np.ravel_multi_index(covariates.T, counts)
    outcomes = np.empty((n, spec.n_targets), dtype=np.int64)
    for t in range(spec.n_targets):
        outcomes[:, t] = rng.random(n) < spec.cell_means[cells, t]
    return Dataset(
        covariates=covariates,
        outcomes=outcomes,
        covariate_names=spec.covariate_names,
        level_counts=counts,
        provenance={"kind": "population", "seed": spec.seed, "n_population": n,
                    "n_targets": spec.n_targets},
    )


def _sampling_weights_up(mu: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell row weights (w1 for outcome 1, w0 for outcome 0) that tilt a
    cell with population mean mu so high outcomes are undersampled (d=+1).

    The population/sample density ratio is gamma on the top eta(gamma) of the
    population's outcome mass and 1/gamma below, which pins the sample's
    within-cell mean at mu/gamma (small mu) or 1 - gamma*(1 - mu) (large mu)
    and attains the ratio bound exactly on one outcome atom.
    """
    split = eta(gamma)
    g_inv = 1.0 / gamma
    w1 = np.where(mu <= split, g_inv, (split * g_inv + gamma * np.clip(mu - split, 0.0, 1.0)) / np.maximum(mu, 1e-300))
    w0 = np.where(mu <= split,
                  (np.clip(split - mu, 0.0, 1.0) * g_inv + gamma * (1.0 - split)) / np.maximum(1.0 - mu, 1e-300),
                  gamma)
    # gamma = 1 allows no bias, and degenerate cells (no outcome variation)
    # cannot carry any: both weights are exactly 1 there
    unbiased = (gamma == 1.0) | (mu <= 0.0) | (mu >= 1.0)
    return np.where(unbiased, 1.0, w1), np.where(unbiased, 1.0, w0)


def biased_sample(population: Dataset, bias: BiasSpec, target_index: int) -> Dataset:
    """Importance-resample the population into a sample biased on one target.

    Rows are drawn with replacement, with probability proportional to the
    two-level within-cell weights, so that sign(population mean - sample
    mean) = d_true in expectation and every within-cell outcome-conditional
    density ratio stays inside [1/gamma, gamma].
    """
    if not (0 <= target_index < population.n_targets):
        raise ParameterError(f"target_index {target_index} out of range")
    gamma = bias.gamma_true[target_index]
    direction = bias.d_true[target_index]
    rng = np.random.default_rng(np.random.SeedSequence((bias.seed, target_index)))

    cells = population.cell_index()
    y = population.outcomes[:, target_index]
    n_cells = population.n_cells()
    cell_rows = np.bincount(cells, minlength=n_cells)
    cell_ones = np.bincount(cells, weights=y, minlength=n_cells)
    with np.errstate(invalid="ignore"):
        mu = np.where(cell_rows > 0, cell_ones / np.maximum(cell_rows, 1), 0.0)

    if direction == 1:
        w1, w0 = _sampling_weights_up(mu, gamma)
    else:
        w0, w1 = _sampling_weights_up(1.0 - mu, gamma)
    row_weights = np.where(y == 1, w1[cells], w0[cells])
    probs = row_weights / row_weights.sum()
    chosen = rng.choice(population.n_rows, size=bias.n_sample, replace=True, p=probs)
    chosen.sort()

    sample_cells = np.bincount(cells[chosen], minlength=n_cells)
    empty_cells = int(((cell_rows > 0) & (sample_cells == 0)).sum())
    provenance = {
        "kind": "biased_sample",
        "bias": bias.to_dict(),
        "target_index": target_index,
        "population_mean": float(y.mean()),
        "sample_mean": float(y[chosen].mean()),
        "warnings": ([f"{empty_cells} populated cells are empty in the sample"]
                     if empty_cells else []),
    }
    return Dataset(
        covariates=population.covariates[chosen],
        outcomes=population.outcomes[chosen],
        covariate_names=population.covariate_names,
        level_counts=population.level_counts,
        provenance=provenance,
    )


def estimate_true_meta(sample: Dataset, population: Dataset, target_index: int,
                       min_cell_rows: int = 30) -> MetaInfo:
    """Recover (gamma, d) by comparing within-cell outcome frequencies.

    Cells with at least `min_cell_rows` sample rows contribute their
    population and sample outcome-conditional frequencies, pooled with
    sample-size weights before taking the ratio; pooling keeps the estimate
    stable where raw per-cell ratios would be noise-dominated. The direction
    is the sign of (population mean - sample mean).
    """
    if sample.covariate_names != population.covariate_names or \
            sample.level_counts != population.level_counts:
        raise SchemaError("sample and population must share the covariate schema")
    n_cells = population.n_cells()
    samp_cells = sample.cell_index()
    pop_cells = population.cell_index()
    ys = sample.outcomes[:, target_index]
    yp = population.outcomes[:, target_index]

    samp_rows = np.bincount(samp_cells, minlength=n_cells)
    samp_ones = np.bincount(samp_cells, weights=ys, minlength=n_cells)
    pop_rows = np.bincount(pop_cells, minlength=n_cells)
    pop_ones = np.bincount(pop_cells, weights=yp, minlength=n_cells)

    eligible = (samp_rows >= min_cell_rows) & (pop_rows > 0)
    if not eligible.any():
        raise EstimationError(
            f"no cell has >= {min_cell_rows} sample rows; cannot estimate gamma")

    weight = samp_rows[eligible].astype(float)
    pop_freq = pop_ones[eligible] / pop_rows[eligible]
    samp_freq = samp_ones[eligible] / samp_rows[eligible]
    # add-half smoothing on the pooled totals guards against empty outcome sides
    total = weight.sum()
    pooled_pop = (float(weight @ pop_freq) + 0.5) / (total + 1.0)
    pooled_samp = (float(weight @ samp_freq) + 0.5) / (total + 1.0)

    r1 = pooled_pop / pooled_samp
    r0 = (1.0 - pooled_pop) / (1.0 - pooled_samp)
    gamma_hat = max(r1, 1.0 / r1, r0, 1.0 / r0)

    shift = population.target_mean(target_index) - sample.target_mean(target_index)
    direction = int(np.sign(shift))
    return MetaInfo(gamma=float(max(gamma_hat, 1.0)), direction=direction)
