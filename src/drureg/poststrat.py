"""Post-stratification of per-cell estimates to population totals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .sampling import Dataset


@dataclass(frozen=True, eq=False)
class CellTable:
    """Population fractions of a covariate subset's cells: 1-D, non-negative,
    summing to 1, one entry per subset cell in the order of the subset's
    cell_design lookup, 0 for cells the population never reaches."""

    fractions: np.ndarray

    def __post_init__(self) -> None:
        fractions = np.asarray(self.fractions, dtype=float)
        object.__setattr__(self, "fractions", fractions)
        if fractions.ndim != 1:
            raise ShapeError(f"fractions has shape {fractions.shape}, expected one axis")
        if (fractions < 0.0).any():
            raise ConfigError(f"cell {fractions.argmin()} has negative fraction {fractions.min()}")
        if abs(fractions.sum() - 1.0) > 1e-9:
            raise ConfigError(f"cell fractions sum to {float(fractions.sum())!r}, expected 1")


def build_cell_table(population: Dataset, lookup) -> CellTable:
    """Population fractions of the subset cells of a cell_design `lookup`,
    which maps each full-grid cell to its subset cell."""
    rows = population.cell_counts[0]
    if np.shape(lookup) != rows.shape:
        raise ShapeError(f"lookup has shape {np.shape(lookup)}, expected one entry per "
                         f"full-grid cell: {rows.shape}")
    return CellTable(np.bincount(lookup, weights=rows) / population.n_rows)


def poststratify(cell_estimates, table: CellTable) -> float:
    """Population estimate: sum over cells of estimate * population fraction.

    `cell_estimates` is aligned with `table.fractions`, one entry per flat cell.
    """
    estimates = np.asarray(cell_estimates, dtype=float)
    if estimates.shape != table.fractions.shape:
        raise ShapeError(f"cell estimates have shape {estimates.shape}, "
                         f"the table has {table.fractions.size} cells")
    return float(table.fractions @ estimates)
