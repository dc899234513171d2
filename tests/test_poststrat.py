import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drureg.errors import ConfigError, SchemaError, ShapeError
from drureg.poststrat import CellTable, build_cell_table, poststratify
from drureg.sampling import (
    Dataset,
    cell_design,
    column_index,
    default_population_spec,
    generate_population,
    grid_levels,
)


def make_dataset(columns, names, counts, n_targets=1):
    covariates = np.asarray(columns)
    return Dataset(
        cells=np.ravel_multi_index(covariates.T, counts),
        outcomes=np.zeros((covariates.shape[0], n_targets), dtype=bool),
        covariate_names=tuple(names),
        level_counts=tuple(counts),
    )


def uniform_table(n):
    return CellTable(("x",), (n,), np.full(n, 1.0 / n))


class TestPoststratify:
    def test_two_cells(self):
        table = CellTable(("x",), (2,), [0.5, 0.5])
        assert poststratify([0.2, 0.6], table) == pytest.approx(0.4, abs=1e-15)

    def test_constant_estimates(self):
        table = CellTable(("x",), (3,), [0.3, 0.45, 0.25])
        assert poststratify([0.7, 0.7, 0.7], table) == pytest.approx(0.7)

    def test_single_cell(self):
        table = CellTable(("x",), (1,), [1.0])
        assert poststratify([0.123], table) == 0.123

    def test_missing_estimate_rejected(self):
        table = CellTable(("x",), (2,), [0.5, 0.5])
        with pytest.raises(ShapeError, match="table has 2 cells"):
            poststratify([0.2], table)
        with pytest.raises(ShapeError):
            poststratify([0.2, 0.3, 0.4], table)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ConfigError):
            CellTable(("x",), (2,), [-0.1, 1.1])

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            CellTable(("x",), (2,), [0.5, 0.4])

    def test_fractions_must_cover_every_cell(self):
        with pytest.raises(ShapeError):
            CellTable(("x", "y"), (2, 2), [0.5, 0.5])

    def test_empty_cells_contribute_nothing(self):
        table = CellTable(("x",), (3,), [0.25, 0.0, 0.75])
        assert poststratify([0.4, 100.0, 0.8], table) == pytest.approx(0.7, abs=1e-15)

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=2, max_size=6),
           st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, pairs, scale_a, scale_b):
        table = uniform_table(len(pairs))
        v = np.array([a for a, _ in pairs])
        w = np.array([b for _, b in pairs])
        lhs = poststratify(scale_a * v + scale_b * w, table)
        rhs = scale_a * poststratify(v, table) + scale_b * poststratify(w, table)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=8))
    def test_convexity(self, estimates):
        result = poststratify(estimates, uniform_table(len(estimates)))
        assert min(estimates) - 1e-9 <= result <= max(estimates) + 1e-9


class TestBuildCellTable:
    def test_binary_split(self):
        columns = [[0]] * 60 + [[1]] * 40
        data = make_dataset(columns, ["flag"], [2])
        table = build_cell_table(data, ["flag"])
        assert table.fractions[0] == pytest.approx(0.6)
        assert table.fractions[1] == pytest.approx(0.4)

    def test_near_uniform_on_uniform_population(self):
        rng = np.random.default_rng(0)
        columns = np.column_stack([rng.integers(0, 2, 40_000), rng.integers(0, 3, 40_000)])
        data = make_dataset(columns, ["a", "b"], [2, 3])
        table = build_cell_table(data, ["a", "b"])
        assert table.fractions.shape == (6,)
        assert table.fractions == pytest.approx(np.full(6, 1 / 6), abs=0.01)

    def test_flat_order_and_empty_cells(self):
        # cell id = a * 3 + b over levels (2, 3); (0, 1) and (1, 0) never occur
        columns = [[0, 0]] * 2 + [[0, 2]] * 3 + [[1, 1]] * 4 + [[1, 2]]
        data = make_dataset(columns, ["a", "b"], [2, 3])
        table = build_cell_table(data, ["a", "b"])
        assert table.level_counts == (2, 3)
        assert np.array_equal(table.fractions, [0.2, 0.0, 0.3, 0.0, 0.4, 0.1])
        assert np.array_equal(grid_levels(table.level_counts)[[0, 2, 4, 5]],
                              [[0, 0], [0, 2], [1, 1], [1, 2]])

    @pytest.mark.parametrize("subset", [["age", "gender"], ["past_vote", "area", "gender"]])
    def test_matches_the_subset_bincount_in_any_name_order(self, subset):
        pop = generate_population(default_population_spec(n_population=20_000, seed=5))
        table = build_cell_table(pop, subset)
        lookup, cell_features = cell_design(pop.covariate_names, pop.level_counts, subset)
        tallies = np.bincount(lookup[pop.cells], minlength=len(cell_features))
        cols = column_index(pop.covariate_names, subset)
        assert table.level_counts == tuple(pop.level_counts[c] for c in cols)
        assert table.fractions.tobytes() == (tallies / pop.n_rows).tobytes()

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(1)
        columns = np.column_stack([rng.integers(0, 4, 1000)])
        data = make_dataset(columns, ["a"], [4])
        table = build_cell_table(data, ["a"])
        assert table.fractions.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_covariate_rejected(self):
        data = make_dataset([[0], [1]], ["a"], [2])
        with pytest.raises(SchemaError, match="unknown covariate"):
            build_cell_table(data, ["b"])

    def test_empty_subset_rejected(self):
        data = make_dataset([[0], [1]], ["a"], [2])
        with pytest.raises(SchemaError):
            build_cell_table(data, [])
