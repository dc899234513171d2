"""Post-stratification of per-cell estimates to population totals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaError, ShapeError
from .sampling import Dataset


@dataclass(frozen=True, eq=False)
class CellTable:
    """Population fractions of the cells of a covariate cross-tabulation.

    `fractions` has one entry per flat cell index over `subset_names` (see
    Dataset.cell_index), 0 for cells the population never reaches.
    """

    subset_names: tuple[str, ...]
    level_counts: tuple[int, ...]
    fractions: np.ndarray

    def __post_init__(self) -> None:
        fractions = np.asarray(self.fractions, dtype=float)
        object.__setattr__(self, "fractions", fractions)
        n_cells = int(np.prod(self.level_counts))
        if fractions.shape != (n_cells,):
            raise ShapeError(f"fractions has shape {fractions.shape}, expected ({n_cells},)")
        if (fractions < 0.0).any():
            cell = int(fractions.argmin())
            raise ConfigError(f"cell {cell} has negative fraction {fractions[cell]}")
        total = float(fractions.sum())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"cell fractions sum to {total!r}, expected 1")

    def cell_levels(self) -> np.ndarray:
        """Level indices of every cell, one row per entry of `fractions`."""
        return np.indices(self.level_counts).reshape(len(self.level_counts), -1).T


def build_cell_table(population: Dataset, covariate_subset) -> CellTable:
    """Empirical joint frequencies of the subset's cross-tabulation."""
    subset = tuple(covariate_subset)
    if not subset:
        raise SchemaError("covariate subset must be non-empty")
    counts = tuple(population.level_counts[c] for c in population.column_index(subset))
    tallies = np.bincount(population.cell_index(subset), minlength=population.n_cells(subset))
    return CellTable(subset_names=subset, level_counts=counts,
                     fractions=tallies / population.n_rows)


def poststratify(cell_estimates, table: CellTable) -> float:
    """Population estimate: sum over cells of estimate * population fraction.

    `cell_estimates` is aligned with `table.fractions`, one entry per flat cell.
    """
    estimates = np.asarray(cell_estimates, dtype=float)
    if estimates.shape != table.fractions.shape:
        raise ShapeError(f"cell estimates have shape {estimates.shape}, "
                         f"the table has {table.fractions.size} cells")
    return float(table.fractions @ estimates)
