"""Synthetic populations and direction-annotated, ratio-bounded biased sampling.

A population row is its cell index over the full grid of categorical
covariates, from which its covariate levels are derived, plus one binary
outcome per target (one-vs-rest coalition shares). The biased sampler draws a
sample whose within-cell outcome law differs from the population's by a
two-level density ratio {gamma, 1/gamma}: outcomes on the announced
direction's side of the within-cell split are undersampled so that the sample
mean lands on the opposite side of the population mean, and the extreme ratio
gamma is attained exactly at the population level.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
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

_CSV_CHUNK_ROWS = 8192  # rows per write in Dataset.to_csv: bounds the text held at once


def grid_levels(level_counts) -> np.ndarray:
    """Level indices of every cell of a grid, one row per flat cell index."""
    return np.indices(level_counts).reshape(len(level_counts), -1).T


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
        outside = ~((means >= 0) & (means <= 1)).all(axis=1)  # also NaN
        if outside.any():
            raise ConfigError(f"cell {outside.argmax()} has outcome probabilities that are NaN "
                              f"or outside [0, 1]")
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
    if not ((base >= 0) & (base <= 1)).all():
        raise ConfigError(f"base shares must be in [0, 1], got {base.tolist()}")
    rng = np.random.default_rng(seed)
    counts = [c for _, c in covariate_levels]
    effects = [rng.uniform(-effect_scale, effect_scale, size=(c, n_targets)) for c in counts]
    cells = grid_levels(counts)
    tilt = np.zeros((cells.shape[0], n_targets))
    for j, effect in enumerate(effects):
        tilt += effect[cells[:, j]]
    with np.errstate(all="ignore"):  # an overflow leaves NaN means, which PopulationSpec rejects
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
        for gamma in gammas:
            eta(gamma)
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


@dataclass(frozen=True, eq=False)  # a generated __eq__ would compare arrays inside a tuple
class Dataset:
    """Rows of an int64 full-grid cell index `cells`, from which the covariates
    are derived, plus an (n_rows, n_targets) bool outcome array; both read-only."""

    cells: np.ndarray
    outcomes: np.ndarray
    covariate_names: tuple[str, ...]
    level_counts: tuple[int, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cells.ndim != 1 or self.cells.dtype != np.int64 or self.outcomes.ndim != 2:
            raise SchemaError("cells must be a 1-D int64 array and outcomes 2-D")
        if self.cells.shape[0] != self.outcomes.shape[0]:
            raise SchemaError("cells and outcomes have different row counts")
        if len(self.level_counts) != len(self.covariate_names):
            raise SchemaError("level count number does not match names")
        self.column_index(self.covariate_names)  # rejects a repeated name
        if self.outcomes.dtype != bool:
            raise SchemaError("outcomes must be binary: a bool array")
        self.cells.flags.writeable = self.outcomes.flags.writeable = False  # keeps cell_counts valid

    @property
    def n_rows(self) -> int:
        return self.cells.shape[0]

    @property
    def n_targets(self) -> int:
        return self.outcomes.shape[1]

    def check_target(self, target_index: int) -> None:
        if not 0 <= target_index < self.n_targets:
            raise ParameterError(f"target_index {target_index} is outside [0, {self.n_targets}): "
                                 f"no outcome column target_{target_index}")

    def _subset_columns(self, subset) -> tuple[np.ndarray, tuple[int, ...]]:
        cols = self.column_index(self.covariate_names if subset is None else subset)
        return cols, tuple(self.level_counts[c] for c in cols)

    def cell_index(self, subset=None) -> np.ndarray:
        """Flat index of each row's cell over the covariate subset (default:
        every covariate), in np.ravel_multi_index order of the subset's levels.

        This is the one cell representation: cell tables, cell means and
        per-cell estimates are all arrays indexed by it. The full-grid index
        is the read-only `cells`; a subset's index is looked up from it in a
        table over the full grid.
        """
        if subset is None:
            return self.cells
        cols, counts = self._subset_columns(subset)
        return np.ravel_multi_index(grid_levels(self.level_counts)[:, cols].T, counts)[self.cells]

    @cached_property
    def cell_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows per full-grid cell, and outcome-1 rows per (cell, target) as
        an (n_cells, n_targets) int64 table; computed once, read-only."""
        n_cells = self.n_cells()
        rows = np.bincount(self.cells, minlength=n_cells)
        ones = np.empty((n_cells, self.n_targets), dtype=np.int64)
        for t in range(self.n_targets):
            ones[:, t] = np.bincount(self.cells[self.outcomes[:, t]], minlength=n_cells)
        rows.flags.writeable = ones.flags.writeable = False
        return rows, ones

    def n_cells(self, subset=None) -> int:
        return int(np.prod(self._subset_columns(subset)[1]))

    def target_mean(self, target_index: int) -> float:
        """Share of rows with outcome 1: an exact count over n, as `outcomes.mean()`."""
        self.check_target(target_index)
        return float(self.cell_counts[1][:, target_index].sum() / self.n_rows)

    def column_index(self, subset_names) -> np.ndarray:
        """Column of each named covariate; a repeated name would resolve to
        its first column only, so it is rejected."""
        cols = []
        for name in subset_names:
            if name not in self.covariate_names:
                raise SchemaError(f"unknown covariate {name!r}; have {self.covariate_names}")
            if self.covariate_names.index(name) in cols:
                raise SchemaError(f"covariate {name!r} is named twice")
            cols.append(self.covariate_names.index(name))
        return np.array(cols, dtype=int)

    def to_csv(self, path) -> None:
        """CSV with covariate columns, one outcome column per target, and
        cell_id; a JSON provenance sidecar lands next to it."""
        path = Path(path)
        # np.savetxt(fmt="%d", delimiter=",", newline="\r\n")'s bytes, with each distinct
        # cell's levels and id formatted once and gathered around each row's outcome bits
        present, row_cell = np.unique(self.cells, return_inverse=True)
        levels = np.column_stack(np.unravel_index(present, self.level_counts)).tolist()
        lead = np.array(["".join(f"{v}," for v in row) for row in levels], dtype=object)
        tail = np.array([f"{c}\r\n" for c in present.tolist()], dtype=object)
        bits = np.array(["0,", "1,"], dtype=object)
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerow(
                list(self.covariate_names)
                + [f"target_{t}" for t in range(self.n_targets)]
                + ["cell_id"]
            )
            for start in range(0, self.n_rows, _CSV_CHUNK_ROWS):
                rows = row_cell[start:start + _CSV_CHUNK_ROWS]
                outcomes = self.outcomes[start:start + _CSV_CHUNK_ROWS].T.view(np.uint8)
                columns = [lead[rows], *(bits[column] for column in outcomes), tail[rows]]
                fh.write("".join(map("".join, zip(*(c.tolist() for c in columns)))))
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
        """Read a to_csv file; a level out of range, a non-0/1 outcome or a
        cell_id that is not the row's raveled levels is a SchemaError."""
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
        outcomes = data[:, len(names): len(names) + n_targets]
        try:
            if not ((outcomes == 0) | (outcomes == 1)).all():
                raise SchemaError("outcomes must be 0 or 1")
            cells = np.ravel_multi_index(tuple(data[:, : len(names)].T), levels)  # checks levels
            mismatch = np.flatnonzero(data[:, -1] != cells)
            if mismatch.size:
                row = mismatch[0]
                raise SchemaError(f"data row {row + 1} has cell_id {data[row, -1]}, "
                                  f"but its levels give cell {cells[row]}")
            return cls(cells, outcomes.astype(bool), names, levels, provenance)
        except (SchemaError, ValueError) as exc:
            raise SchemaError(f"invalid dataset {path}: {exc}") from exc


def generate_population(spec: PopulationSpec) -> Dataset:
    """Draw a population: covariates uniform and independent per column,
    outcomes Bernoulli with the cell's per-target means."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_population
    counts = spec.level_counts
    cells = np.zeros(n, dtype=np.int64)
    for c in counts:  # one covariate column per draw, raveled as it comes
        cells *= c
        cells += rng.integers(0, c, size=n)
    outcomes = np.empty((n, spec.n_targets), dtype=bool)
    for t, means in enumerate(spec.cell_means.T.copy()):  # one contiguous row per target
        outcomes[:, t] = rng.random(n) < means.take(cells)
    return Dataset(
        cells=cells,
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


def _row_cdf(population: Dataset, target_index: int, gamma: float, direction: int) -> np.ndarray:
    """Normalized cumulative row weights of the (gamma, d) tilt on one target."""
    cells = population.cells
    cell_rows, cell_ones = population.cell_counts
    y = population.outcomes[:, target_index]
    with np.errstate(invalid="ignore"):
        mu = np.where(cell_rows > 0, cell_ones[:, target_index] / np.maximum(cell_rows, 1), 0.0)
    if direction == 1:
        w1, w0 = _sampling_weights_up(mu, gamma)
    else:
        w0, w1 = _sampling_weights_up(1.0 - mu, gamma)
    # one gather: a row's weight is w0 or w1 of its cell, picked by its outcome
    cdf = np.concatenate((w0, w1))[y * cell_rows.size + cells]
    cdf /= cdf.sum()  # the row probabilities, then in place their running sum
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf


def biased_sample(population: Dataset, biases: Sequence[BiasSpec],
                  target_index: int) -> list[Dataset]:
    """Importance-resample the population into one sample per bias spec, each
    biased on one target, whose (gamma, d) the specs must agree on.

    Rows are drawn with replacement, with probability proportional to the
    two-level within-cell weights, so that sign(population mean - sample
    mean) = d_true in expectation and every within-cell outcome-conditional
    density ratio stays inside [1/gamma, gamma]. All draws share one row CDF,
    and each has its own generator, seeded by its spec's seed and the target.
    """
    population.check_target(target_index)
    for bias in biases:
        if len(bias.gamma_true) != population.n_targets:
            raise ParameterError(f"a bias spec needs one (gamma, d) per target: "
                                 f"{population.n_targets}, got {len(bias.gamma_true)}")
    keys = {(bias.gamma_true[target_index], bias.d_true[target_index]) for bias in biases}
    if len(keys) != 1:
        raise ParameterError(f"bias specs must agree on target {target_index}: {sorted(keys)}")
    cdf = _row_cdf(population, target_index, *keys.pop())
    cell_rows = population.cell_counts[0]
    samples = []
    for bias in biases:
        rng = np.random.default_rng(np.random.SeedSequence((bias.seed, target_index)))
        # inverse CDF on sorted uniforms: sorted rng.choice(n_rows, n_sample, p=probs), bit for bit
        chosen = cdf.searchsorted(np.sort(rng.random(bias.n_sample)), side="right")

        cells = population.cells[chosen]
        sample_rows = np.bincount(cells, minlength=cell_rows.size)
        empty_cells = int(((cell_rows > 0) & (sample_rows == 0)).sum())
        provenance = {
            "kind": "biased_sample",
            "bias": bias.to_dict(),
            "target_index": target_index,
            "population_mean": population.target_mean(target_index),
            "sample_mean": float(population.outcomes[chosen, target_index].mean()),
            "warnings": ([f"{empty_cells} populated cells are empty in the sample"]
                         if empty_cells else []),
        }
        # np.take gathers rows about twice as fast as fancy indexing
        samples.append(Dataset(
            cells=cells,
            outcomes=np.take(population.outcomes, chosen, axis=0),
            covariate_names=population.covariate_names,
            level_counts=population.level_counts,
            provenance=provenance,
        ))
    return samples


def estimate_true_meta(sample: Dataset, population: Dataset, target_index: int, *,
                       min_cell_rows: int) -> MetaInfo:
    """Recover (gamma, d) by comparing within-cell outcome frequencies.

    Cells with at least `min_cell_rows` sample rows contribute their
    population and sample outcome-conditional frequencies, pooled with
    sample-size weights before taking the ratio; pooling keeps the estimate
    stable where raw per-cell ratios would be noise-dominated. The direction
    is the sign of (population mean - sample mean).
    """
    if (sample.covariate_names, sample.level_counts, sample.n_targets) != \
            (population.covariate_names, population.level_counts, population.n_targets):
        raise SchemaError("sample and population must share the covariate schema and targets")
    population.check_target(target_index)
    pop_rows, pop_ones = population.cell_counts
    samp_rows = np.bincount(sample.cells, minlength=pop_rows.size)
    samp_ones = np.bincount(sample.cells[sample.outcomes[:, target_index]], minlength=pop_rows.size)

    eligible = (samp_rows >= min_cell_rows) & (pop_rows > 0)
    if not eligible.any():
        raise EstimationError(
            f"no cell has >= {min_cell_rows} sample rows; cannot estimate gamma")

    weight = samp_rows[eligible].astype(float)
    pop_freq = pop_ones[eligible, target_index] / pop_rows[eligible]
    samp_freq = samp_ones[eligible] / samp_rows[eligible]
    # add-half smoothing on the pooled totals guards against empty outcome sides
    total = weight.sum()
    pooled_pop = (float(weight @ pop_freq) + 0.5) / (total + 1.0)
    pooled_samp = (float(weight @ samp_freq) + 0.5) / (total + 1.0)

    r1 = pooled_pop / pooled_samp
    r0 = (1.0 - pooled_pop) / (1.0 - pooled_samp)
    gamma_hat = max(r1, 1.0 / r1, r0, 1.0 / r0)

    shift = population.target_mean(target_index) - samp_ones.sum() / sample.n_rows
    direction = int(np.sign(shift))
    return MetaInfo(gamma=float(max(gamma_hat, 1.0)), direction=direction)
