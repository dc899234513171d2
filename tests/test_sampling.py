import csv
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from drureg.errors import ConfigError, EstimationError, ParameterError, SchemaError
from drureg.losses import MetaInfo
from drureg.sampling import (
    BiasSpec,
    Dataset,
    PopulationSpec,
    _sampling_weights_up,
    biased_sample,
    default_population_spec,
    estimate_true_meta,
    generate_population,
)


def level_columns(data):
    """(n_rows, n_covariates) level indices of a dataset, unraveled from its cells."""
    return np.column_stack(np.unravel_index(data.cells, data.level_counts))


def flat_spec(mean, n=100_000, covariates=(("gender", 2), ("age", 5)), n_targets=1, seed=0):
    """Population spec with the same outcome mean in every cell."""
    n_cells = int(np.prod([c for _, c in covariates]))
    return PopulationSpec(covariate_levels=tuple(covariates),
                          cell_means=np.full((n_cells, n_targets), mean),
                          n_population=n, n_targets=n_targets, seed=seed)


class TestPopulationSpec:
    def test_default_spec_satisfies_invariants(self):
        spec = default_population_spec(n_population=1000, seed=3)
        assert spec.cell_means.shape == (2 * 5 * 4 * 3 * 3 * 4, 5)
        assert (spec.cell_means >= 0).all() and (spec.cell_means <= 1).all()
        assert (spec.cell_means.sum(axis=1) <= 1.0 + 1e-9).all()

    def test_rejects_inconsistent_means(self):
        with pytest.raises(ConfigError):
            flat_spec(1.5)
        with pytest.raises(ConfigError, match="sum"):
            flat_spec(0.6, n_targets=2)
        with pytest.raises(ConfigError, match="shape"):
            PopulationSpec(covariate_levels=(("gender", 2),), cell_means=np.full((3, 1), 0.5),
                           n_population=10, n_targets=1, seed=0)

    def test_rejects_nan_means(self):
        # NaN compares False with both bounds; rows in a NaN cell would never vote
        means = np.full((10, 1), 0.3)
        means[7, 0] = np.nan
        with pytest.raises(ConfigError, match="cell 7 .* NaN"):
            PopulationSpec(covariate_levels=(("gender", 2), ("age", 5)), cell_means=means,
                           n_population=10, n_targets=1, seed=0)

    @pytest.mark.parametrize("share", [-0.5, 1.5, float("nan")])
    def test_rejects_base_share_outside_unit_interval(self, share):
        with pytest.raises(ConfigError, match="base shares must be in"):
            default_population_spec(n_population=10, seed=0,
                                     base_shares=[share, 0.25, 0.15, 0.12, 0.08])

    def test_cell_means_match_the_per_cell_loop(self):
        # reference: each cell's means built on their own, looked up by the
        # cell's flat index; the arithmetic is the same, so equality is exact
        covariates = (("a", 2), ("b", 3), ("c", 1))
        base = np.array([0.4, 0.3, 0.15])  # seed 0 rescales two of the six cells
        spec = default_population_spec(n_population=10, n_targets=3, seed=0,
                                       covariate_levels=covariates, base_shares=base,
                                       effect_scale=0.3)
        rng = np.random.default_rng(0)
        effects = [rng.uniform(-0.3, 0.3, size=(c, 3)) for _, c in covariates]
        levels = np.indices((2, 3, 1)).reshape(3, -1).T[::-1]
        data = Dataset(np.ravel_multi_index(levels.T, (2, 3, 1)), np.zeros((6, 1), dtype=bool),
                       ("a", "b", "c"), (2, 3, 1))
        for cell, row in zip(data.cell_index(), levels):
            tilt = np.zeros(3)
            for j, level in enumerate(row):
                tilt += effects[j][level]
            means = base * np.exp(tilt)
            if means.sum() > 0.97:
                means *= 0.97 / means.sum()
            assert np.array_equal(spec.cell_means[cell], np.clip(means, 0.005, 0.95))


@st.composite
def schemas(draw):
    """A dataset over 1-4 covariates (single-level ones included), a subset,
    and the covariate levels the dataset was built from."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n_rows = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    covariates = np.column_stack([rng.integers(0, c, size=n_rows) for c in counts])
    names = tuple(f"c{j}" for j in range(len(counts)))
    subset = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names),
                           unique=True))
    cells = np.ravel_multi_index(covariates.T, counts)
    data = Dataset(cells, np.zeros((n_rows, 1), dtype=bool), names, tuple(counts))
    return data, subset, covariates


class TestCellIndex:
    @given(schemas())
    def test_matches_ravel_multi_index_of_the_subset_columns(self, schema):
        data, subset, covariates = schema
        assert np.array_equal(level_columns(data), covariates)
        cols = [data.covariate_names.index(name) for name in subset]
        counts = [data.level_counts[c] for c in cols]
        expected = np.ravel_multi_index(covariates[:, cols].T, counts)
        assert np.array_equal(data.cell_index(subset), expected)
        assert data.n_cells(subset) == int(np.prod(counts))
        assert ((data.cell_index(subset) >= 0) & (data.cell_index(subset) < data.n_cells(subset))).all()

    @given(schemas())
    def test_default_subset_is_every_covariate(self, schema):
        data, _, _ = schema
        assert np.array_equal(data.cell_index(), data.cell_index(data.covariate_names))
        assert data.n_cells() == int(np.prod(data.level_counts))

    def test_cells_field_is_read_only(self):
        pop = generate_population(default_population_spec(n_population=5_000, seed=2))
        assert pop.cell_index() is pop.cells
        with pytest.raises(ValueError):
            pop.cells[0] = 0
        # the constructor makes the array it is given read-only
        cells = np.array([0, 3, 1], dtype=np.int64)
        Dataset(cells, np.zeros((3, 1), dtype=bool), ("a", "b"), (2, 2))
        with pytest.raises(ValueError):
            cells[0] = 1
        # a subset index is computed fresh and belongs to the caller
        pop.cell_index(["age"])[0] = 0

    def test_outcomes_field_is_read_only(self):
        # cell_counts is computed once, so a write to outcomes would leave it stale
        pop = generate_population(default_population_spec(n_population=5_000, seed=2))
        mean = pop.target_mean(0)
        with pytest.raises(ValueError):
            pop.outcomes[:, 0] = False
        with pytest.raises(AttributeError):  # nor can the field be swapped
            pop.outcomes = np.zeros_like(pop.outcomes)
        assert pop.target_mean(0) == mean == float(pop.outcomes[:, 0].mean())
        outcomes = np.zeros((3, 1), dtype=bool)
        Dataset(np.array([0, 3, 1], dtype=np.int64), outcomes, ("a", "b"), (2, 2))
        with pytest.raises(ValueError):
            outcomes[0, 0] = True

    def test_cached_counts_equal_fresh_bincounts(self):
        pop = generate_population(default_population_spec(n_population=5_000, n_targets=3, seed=2))
        cells, n_cells = pop.cell_index(), pop.n_cells()
        rows, ones = pop.cell_counts
        assert ones.shape == (n_cells, 3)
        assert np.array_equal(rows, np.bincount(cells, minlength=n_cells))
        for t in range(3):
            fresh = np.zeros(n_cells, dtype=np.int64)
            np.add.at(fresh, cells, pop.outcomes[:, t])
            assert ones[:, t].dtype == fresh.dtype and ones[:, t].tobytes() == fresh.tobytes()
        for table in (rows, ones):
            with pytest.raises(ValueError):
                table[0] = 1

    def test_unknown_covariate_rejected(self):
        data = Dataset(np.zeros(2, dtype=np.int64), np.zeros((2, 1), dtype=bool), ("a",), (2,))
        with pytest.raises(SchemaError, match="unknown covariate"):
            data.cell_index(["b"])

    def test_repeated_covariate_name_rejected(self):
        # a repeated name would resolve to its first column only
        cells, outcomes = np.zeros(2, dtype=np.int64), np.zeros((2, 1), dtype=bool)
        data = Dataset(cells, outcomes, ("a", "b"), (2, 2))
        with pytest.raises(SchemaError, match="'a' is named twice"):
            data.column_index(["a", "a"])
        with pytest.raises(SchemaError, match="'a' is named twice"):
            Dataset(cells, outcomes, ("a", "a"), (2, 2))


class TestDataset:
    @pytest.mark.parametrize("bad", [2, -1])
    def test_non_binary_outcome_rejected(self, tmp_path, bad):
        # the constructor takes bool outcomes only, whatever their values
        cells = np.zeros(3, dtype=np.int64)
        for outcomes in ([[0, 1], [1, bad], [0, 0]], [[0, 1], [1, 1], [0, 0]]):
            with pytest.raises(SchemaError, match="binary"):
                Dataset(cells, np.array(outcomes, dtype=np.int64), ("a",), (2,))
        # a file's outcomes are checked as they are read
        path = tmp_path / "d.csv"
        Dataset(cells, np.zeros((3, 2), dtype=bool), ("a",), (2,)).to_csv(path)
        path.write_text(path.read_text().replace("0,0,0,0", f"0,0,{bad},0", 1))
        with pytest.raises(SchemaError, match="0 or 1"):
            Dataset.from_csv(path)

    def test_comparison_answers_without_raising(self):
        # equality is identity: comparing array fields inside a tuple would raise
        def make():
            return Dataset(np.array([2, 3]), np.array([[True], [False]]), ("a", "b"), (2, 3))
        first, second = make(), make()
        assert first == first
        assert (first == second) is False

    def test_cells_must_be_a_1d_int64_index(self):
        outcomes = np.zeros((2, 1), dtype=bool)
        for cells in (np.zeros((2, 1), dtype=np.int64), np.zeros(2, dtype=np.int32)):
            with pytest.raises(SchemaError, match="1-D int64"):
                Dataset(cells, outcomes, ("a",), (2,))
        with pytest.raises(SchemaError, match="row counts"):
            Dataset(np.zeros(3, dtype=np.int64), outcomes, ("a",), (2,))


@pytest.fixture
def generators(monkeypatch):
    """Every generator np.random.default_rng makes from here on, in order."""
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(default_rng(seed)) or made[-1])
    return made


def column_stack_population(spec):
    """Covariates, outcomes and generator of the population build as one
    np.column_stack of the covariate columns and a 2-D cell_means gather."""
    rng = np.random.default_rng(spec.seed)
    n, counts = spec.n_population, spec.level_counts
    covariates = np.column_stack([rng.integers(0, c, size=n) for c in counts])
    cells = np.ravel_multi_index(covariates.T, counts)
    outcomes = np.empty((n, spec.n_targets), dtype=np.int64)
    for t in range(spec.n_targets):
        outcomes[:, t] = rng.random(n) < spec.cell_means[cells, t]
    return covariates, outcomes, rng


def one_level_spec(n=20_000, seed=24):
    """A 1-level covariate between two others, and cells of mean exactly 0 and 1."""
    means = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.5], [0.6, 0.2], [0.45, 0.0]]
    return PopulationSpec(covariate_levels=(("a", 3), ("one", 1), ("b", 2)),
                          cell_means=np.array(means), n_population=n, n_targets=2, seed=seed)


class TestGeneratePopulation:
    @pytest.mark.parametrize("spec", [default_population_spec(n_population=20_000, seed=25),
                                      one_level_spec()], ids=["default", "one-level"])
    def test_matches_the_column_stack_build(self, generators, spec):
        covariates, outcomes, reference = column_stack_population(spec)
        pop = generate_population(spec)
        assert pop.outcomes.dtype == bool and np.array_equal(pop.outcomes, outcomes)
        assert generators[-1].bit_generator.state == reference.bit_generator.state
        # the build's cell index is the population's read-only cells field
        cells = pop.cell_index()
        assert not cells.flags.writeable
        assert np.array_equal(cells, np.ravel_multi_index(covariates.T, spec.level_counts))

    def test_target_mean_is_the_outcome_mean_bit_for_bit(self):
        pop = generate_population(default_population_spec(n_population=30_001, seed=26))
        sample = biased_sample(pop, [BiasSpec((2.0,) * 5, (1, -1, 1, -1, -1), 7_003, seed=27)], 2)[0]
        for data in (pop, sample):
            for t in range(data.n_targets):
                assert data.target_mean(t).hex() == float(data.outcomes[:, t].mean()).hex()

    def test_half_means_concentrate(self):
        pop = generate_population(flat_spec(0.5))
        assert 0.49 <= pop.target_mean(0) <= 0.51

    def test_single_cell_certain_outcome(self):
        spec = flat_spec(1.0, n=500, covariates=(("only", 1),))
        pop = generate_population(spec)
        assert (pop.outcomes == 1).all()

    def test_fixed_seed_reproduces(self):
        spec = default_population_spec(n_population=5000, seed=12)
        a = generate_population(spec)
        b = generate_population(spec)
        assert np.array_equal(a.cells, b.cells)
        assert np.array_equal(a.outcomes, b.outcomes)


class TestSamplingWeights:
    @given(mu=st.floats(0.0, 1.0), gamma=st.floats(1.0, 50.0))
    @example(mu=0.0, gamma=3.0)
    @example(mu=1.0, gamma=3.0)
    @example(mu=1e-6, gamma=1.0)  # the generic formula gives w0 = 1 + 2.2e-16
    def test_cell_mass_is_one_and_weights_stay_in_the_ratio_box(self, mu, gamma):
        (w1,), (w0,) = _sampling_weights_up(np.array([mu]), gamma)
        assert abs(mu * w1 + (1.0 - mu) * w0 - 1.0) <= 1e-12
        if 0.0 < mu < 1.0:
            for w in (w1, w0):
                assert 1.0 / gamma - 1e-12 <= w <= gamma + 1e-12
        if gamma == 1.0 or mu in (0.0, 1.0):
            assert w1 == 1.0 and w0 == 1.0


def degenerate_spec(n=20_000, seed=21):
    """Two targets over 10 cells, some of whose outcome means are exactly 0 or 1."""
    means = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.5], [0.6, 0.2],
             [0.1, 0.9], [0.5, 0.5], [0.8, 0.1], [0.45, 0.0], [0.2, 0.7]]
    return PopulationSpec(covariate_levels=(("gender", 2), ("age", 5)),
                          cell_means=np.array(means), n_population=n, n_targets=2, seed=seed)


def choice_draw(population, bias, t):
    """The rows and generator of the draw as Generator.choice with p, then a sort."""
    cells, n_cells = population.cell_index(), population.n_cells()
    y = population.outcomes[:, t]
    cell_rows = np.bincount(cells, minlength=n_cells)
    cell_ones = np.bincount(cells, weights=y, minlength=n_cells)
    mu = np.where(cell_rows > 0, cell_ones / np.maximum(cell_rows, 1), 0.0)
    if bias.d_true[t] == 1:
        w1, w0 = _sampling_weights_up(mu, bias.gamma_true[t])
    else:
        w0, w1 = _sampling_weights_up(1.0 - mu, bias.gamma_true[t])
    row_weights = np.where(y == 1, w1[cells], w0[cells])
    probs = row_weights / row_weights.sum()
    rng = np.random.default_rng(np.random.SeedSequence((bias.seed, t)))
    chosen = np.sort(rng.choice(population.n_rows, size=bias.n_sample, replace=True, p=probs))
    return chosen, rng


class TestBiasedSample:
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("target", [0, 1])
    def test_rows_and_generator_state_match_choice(self, generators, gamma, direction, target):
        pop = generate_population(degenerate_spec())
        means = pop.cell_counts[1][:, target] / pop.cell_counts[0]
        assert {0.0, 1.0} <= set(means)
        bias = BiasSpec((gamma,) * 2, (direction,) * 2, 3_000, seed=22)
        expected, reference = choice_draw(pop, bias, target)
        made = len(generators)
        sample = biased_sample(pop, [bias], target)[0]
        assert np.array_equal(sample.cells, pop.cells[expected])
        assert np.array_equal(sample.outcomes, pop.outcomes[expected])
        assert len(generators) == made + 1  # biased_sample makes one generator
        assert generators[-1].bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("target, gammas, directions", [
        (0, [(2.0, 2.0), (2.0, 3.0)], [(1, -1), (1, 1)]),
        (1, [(2.0, 3.0), (3.0, 3.0)], [(1, -1), (-1, -1)]),
    ])
    def test_one_call_draws_each_spec_as_a_one_off_draw(self, generators, target, gammas,
                                                          directions):
        # a previous-election and an evaluation spec: the same (gamma, d) on
        # the target, other seeds and sizes, and another (gamma, d) elsewhere
        biases = [BiasSpec(gammas[0], directions[0], 4_000, seed=30),
                  BiasSpec(gammas[1], directions[1], 1_500, seed=31)]
        pop = generate_population(degenerate_spec())
        made = len(generators)
        samples = biased_sample(pop, biases, target)
        states = [g.bit_generator.state for g in generators[made:]]
        assert len(samples) == len(states) == 2
        for sample, state, bias in zip(samples, states, biases):
            alone = biased_sample(pop, [bias], target)[0]
            assert np.array_equal(sample.cells, alone.cells)
            assert np.array_equal(sample.outcomes, alone.outcomes)
            assert sample.provenance == alone.provenance
            assert state == generators[-1].bit_generator.state

    @pytest.mark.parametrize("other", [BiasSpec((3.0, 2.0), (1, 1), 1_000, seed=31),
                                       BiasSpec((2.0, 2.0), (-1, 1), 1_000, seed=31)],
                             ids=["gamma", "direction"])
    def test_specs_that_disagree_on_the_target_rejected(self, other):
        pop = generate_population(degenerate_spec())
        bias = BiasSpec((2.0, 2.0), (1, 1), 1_000, seed=30)
        with pytest.raises(ParameterError, match="agree"):
            biased_sample(pop, [bias, other], 0)
        with pytest.raises(ParameterError, match="agree"):
            biased_sample(pop, [], 0)
        # they agree on target 1, so they draw together there
        assert len(biased_sample(pop, [bias, other], 1)) == 2

    @pytest.mark.parametrize("target", [-1, 2])
    def test_target_index_outside_range_rejected(self, target):
        pop = generate_population(degenerate_spec())
        bias = BiasSpec((2.0, 2.0), (1, 1), 1_000, seed=30)
        sample = biased_sample(pop, [bias], 0)[0]
        with pytest.raises(ParameterError, match="target_index"):
            biased_sample(pop, [bias], target)
        with pytest.raises(ParameterError, match="target_index"):
            pop.target_mean(target)
        with pytest.raises(ParameterError, match="target_index"):
            estimate_true_meta(sample, pop, target, min_cell_rows=1)

    @pytest.mark.parametrize("bias", [BiasSpec(2.0, 1, 100, seed=0),
                                      BiasSpec((2.0,) * 6, (1,) * 6, 100, seed=0)],
                             ids=["short", "long"])
    def test_bias_vector_without_one_entry_per_target_rejected(self, bias):
        pop = generate_population(default_population_spec(n_population=2_000, seed=36))
        with pytest.raises(ParameterError, match=r"one \(gamma, d\) per target: 5, got"):
            biased_sample(pop, [bias], 3)

    def test_sample_cell_index_is_read_only_and_fresh_equal(self):
        pop = generate_population(default_population_spec(n_population=20_000, seed=34))
        sample = biased_sample(pop, [BiasSpec((2.0,) * 5, (1,) * 5, 3_000, seed=35)], 1)[0]
        cells = sample.cell_index()
        assert not cells.flags.writeable
        levels = level_columns(sample)
        assert np.array_equal(cells, np.ravel_multi_index(levels.T, sample.level_counts))
        subset = ("past_vote", "gender")
        expected = np.ravel_multi_index((levels[:, 5], levels[:, 0]), (4, 2))
        assert np.array_equal(sample.cell_index(subset), expected)

    def test_gamma_one_is_unbiased_subsample(self):
        pop = generate_population(flat_spec(0.5))
        bias = BiasSpec(gamma_true=(1.0,), d_true=(1,), n_sample=50_000, seed=4)
        sample = biased_sample(pop, [bias], 0)[0]
        assert abs(sample.target_mean(0) - pop.target_mean(0)) < 0.01

    def test_undersamples_high_outcomes(self):
        # mean 0.5 <= eta(2): the sample mean lands at mu / gamma = 0.25
        pop = generate_population(flat_spec(0.5))
        bias = BiasSpec(gamma_true=(2.0,), d_true=(1,), n_sample=100_000, seed=5)
        sample = biased_sample(pop, [bias], 0)[0]
        assert sample.target_mean(0) == pytest.approx(pop.target_mean(0) / 2, abs=0.01)
        assert sample.target_mean(0) < pop.target_mean(0)

    def test_direction_flip_mirrors_the_shift(self):
        pop = generate_population(flat_spec(0.5))
        up = biased_sample(pop, [BiasSpec((2.0,), (1,), 20_000, 6)], 0)[0]
        down = biased_sample(pop, [BiasSpec((2.0,), (-1,), 20_000, 6)], 0)[0]
        mu = pop.target_mean(0)
        assert up.target_mean(0) < mu < down.target_mean(0)

    def test_per_cell_ratio_containment(self):
        # every within-cell outcome-conditional density ratio stays inside
        # [1/gamma, gamma] up to 3 binomial standard errors
        spec = default_population_spec(
            n_population=200_000, n_targets=2, seed=7,
            covariate_levels=(("gender", 2), ("age", 5), ("area", 4)))
        pop = generate_population(spec)
        gamma = 2.0
        bias = BiasSpec((gamma,) * 2, (1, -1), 100_000, seed=8)
        for t in range(2):
            sample = biased_sample(pop, [bias], t)[0]
            n_cells = pop.n_cells()
            pc, sc = pop.cell_index(), sample.cell_index()
            pop_rows = np.bincount(pc, minlength=n_cells)
            samp_rows = np.bincount(sc, minlength=n_cells)
            pop_mu = np.bincount(pc, weights=pop.outcomes[:, t], minlength=n_cells) / np.maximum(pop_rows, 1)
            samp_mu = np.bincount(sc, weights=sample.outcomes[:, t], minlength=n_cells) / np.maximum(samp_rows, 1)
            ok = both = 0
            for j in range(n_cells):
                if pop_rows[j] < 100 or samp_rows[j] < 100:
                    continue
                both += 1
                se = 3.0 * np.sqrt(samp_mu[j] * (1 - samp_mu[j]) / samp_rows[j] + 1e-12)
                in_box = True
                for p_freq, s_freq in ((pop_mu[j], samp_mu[j]), (1 - pop_mu[j], 1 - samp_mu[j])):
                    ratio = p_freq / max(s_freq, 1e-12)
                    lo = p_freq / max(s_freq + se, 1e-12)
                    hi = p_freq / max(s_freq - se, 1e-12)
                    if hi < 1 / gamma or lo > gamma:
                        in_box = False
                if in_box:
                    ok += 1
            assert both > 30
            assert ok / both >= 0.95

    def test_direction_sign_over_replicates(self):
        pop = generate_population(default_population_spec(
            n_population=100_000, n_targets=1, seed=9,
            covariate_levels=(("gender", 2), ("age", 5))))
        mu = pop.target_mean(0)
        hits = sum(
            mu > biased_sample(pop, [BiasSpec((2.0,), (1,), 10_000, seed=100 + r)], 0)[0].target_mean(0)
            for r in range(20)
        )
        assert hits == 20

    def test_fixed_seed_reproduces(self):
        pop = generate_population(flat_spec(0.4, n=20_000))
        bias = BiasSpec((1.7,), (1,), 5_000, seed=11)
        a = biased_sample(pop, [bias], 0)[0]
        b = biased_sample(pop, [bias], 0)[0]
        assert np.array_equal(a.cells, b.cells)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_provenance_records_bias_and_warnings(self):
        pop = generate_population(default_population_spec(n_population=30_000, seed=13))
        bias = BiasSpec((2.0,) * 5, (1,) * 5, 500, seed=14)
        sample = biased_sample(pop, [bias], 0)[0]
        assert sample.provenance["bias"]["gamma_true"] == [2.0] * 5
        # 1440 cells vs 500 rows: some populated cells must be empty
        assert sample.provenance["warnings"]


class TestEstimateTrueMeta:
    def test_unbiased_sample_gives_gamma_near_one(self):
        pop = generate_population(flat_spec(0.35))
        sample = biased_sample(pop, [BiasSpec((1.0,), (1,), 100_000, seed=15)], 0)[0]
        meta = estimate_true_meta(sample, pop, 0, min_cell_rows=30)
        assert abs(meta.gamma - 1.0) <= 0.15

    def test_direction_sign_definition(self):
        pop = generate_population(flat_spec(0.5, n=5_000))
        sample = biased_sample(pop, [BiasSpec((2.0,), (1,), 2_000, seed=16)], 0)[0]
        meta = estimate_true_meta(sample, pop, 0, min_cell_rows=10)
        assert meta.direction == 1

    def test_round_trip_recovers_gamma(self):
        pop = generate_population(default_population_spec(
            n_population=100_000, n_targets=1, seed=17,
            covariate_levels=(("gender", 2), ("age", 5), ("area", 4))))
        sample = biased_sample(pop, [BiasSpec((2.0,), (1,), 100_000, seed=18)], 0)[0]
        meta = estimate_true_meta(sample, pop, 0, min_cell_rows=30)
        assert 1.6 <= meta.gamma <= 2.4
        assert meta.direction == 1

    def test_population_against_itself_is_unbiased(self):
        pop = generate_population(default_population_spec(n_population=20_000, seed=3))
        metas = [estimate_true_meta(pop, pop, t, min_cell_rows=30) for t in range(pop.n_targets)]
        assert metas == [MetaInfo(gamma=1.0, direction=0)] * pop.n_targets

    def test_error_when_no_cell_qualifies(self):
        pop = generate_population(default_population_spec(n_population=20_000, seed=19))
        sample = biased_sample(pop, [BiasSpec((2.0,) * 5, (1,) * 5, 200, seed=20)], 0)[0]
        with pytest.raises(EstimationError, match="30"):
            estimate_true_meta(sample, pop, 0, min_cell_rows=30)

    def test_schema_mismatch_rejected(self):
        pop = generate_population(flat_spec(0.5, n=2_000))
        other = generate_population(flat_spec(0.5, n=2_000, covariates=(("gender", 2),)))
        with pytest.raises(SchemaError):
            estimate_true_meta(other, pop, 0, min_cell_rows=30)

    def test_sample_with_fewer_targets_rejected(self):
        pop = generate_population(default_population_spec(n_population=2_000, seed=37))
        two = generate_population(default_population_spec(n_population=2_000, n_targets=2,
                                                           seed=38))
        sample = biased_sample(two, [BiasSpec((2.0,) * 2, (1, -1), 300, seed=39)], 0)[0]
        with pytest.raises(SchemaError, match="targets"):
            estimate_true_meta(sample, pop, 3, min_cell_rows=1)


def savetxt_csv(data, path):
    """The whole-table writer that Dataset.to_csv must match byte for byte:
    a csv.writer header, then np.savetxt of every row."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(data.covariate_names)
                                + [f"target_{t}" for t in range(data.n_targets)] + ["cell_id"])
        columns = np.unravel_index(data.cells, data.level_counts)
        np.savetxt(fh, np.column_stack([*columns, data.outcomes, data.cells]),
                   fmt="%d", delimiter=",", newline="\r\n")


class TestCsvRoundTrip:
    @pytest.mark.parametrize("n_rows, level_counts, n_targets", [
        (0, (2, 3), 2),
        (1, (2, 3), 2),
        (500, (4, 3), 1),
        (500, (3, 2), 12),
        (3_000, (12, 1, 15), 3),  # two-digit levels and a one-level covariate
        (20_000, (2, 5, 4, 3, 3, 4), 5),  # three 8,192-row chunks, the last one short
    ], ids=["0_rows", "1_row", "1_target", "12_targets", "two_digit_and_one_level", "chunks"])
    def test_bytes_match_savetxt(self, tmp_path, n_rows, level_counts, n_targets):
        rng = np.random.default_rng(n_rows * 100 + n_targets)
        cells = rng.integers(0, int(np.prod(level_counts)), size=n_rows).astype(np.int64)
        # the first column is all true, the second (where there is one) all false
        probs = np.resize([1.0, 0.0, 0.4, 0.9], n_targets)
        outcomes = rng.random((n_rows, n_targets)) < probs
        data = Dataset(cells, outcomes, tuple(f"c{j}" for j in range(len(level_counts))),
                       level_counts)
        data.to_csv(tmp_path / "fast.csv")
        savetxt_csv(data, tmp_path / "savetxt.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()
        back = Dataset.from_csv(tmp_path / "fast.csv")
        assert np.array_equal(back.cells, cells) and np.array_equal(back.outcomes, outcomes)

    def test_huge_grid_writes_only_present_cells(self, tmp_path):
        # 10**9 cells: the whole grid would hold 3 * 10**9 level values
        data = Dataset(np.array([0, 123_456_789, 999_999_999], dtype=np.int64),
                       np.array([[True], [False], [True]]), ("a", "b", "c"), (1000, 1000, 1000))
        start = time.perf_counter()
        data.to_csv(tmp_path / "d.csv")
        back = Dataset.from_csv(tmp_path / "d.csv")
        assert time.perf_counter() - start < 1.0
        assert (tmp_path / "d.csv").read_bytes() == (
            b"a,b,c,target_0,cell_id\r\n0,0,0,1,0\r\n123,456,789,0,123456789\r\n"
            b"999,999,999,1,999999999\r\n")
        assert np.array_equal(back.cells, data.cells)

    def test_dataset_round_trip(self, tmp_path):
        pop = generate_population(default_population_spec(n_population=500, seed=21))
        path = tmp_path / "pop.csv"
        pop.to_csv(path)
        back = Dataset.from_csv(path)
        assert np.array_equal(back.cells, pop.cells)
        assert np.array_equal(back.outcomes, pop.outcomes)
        assert back.covariate_names == pop.covariate_names
        assert back.level_counts == pop.level_counts

    def test_missing_column_named_in_error(self, tmp_path):
        pop = generate_population(default_population_spec(n_population=50, n_targets=2, seed=22))
        path = tmp_path / "pop.csv"
        pop.to_csv(path)
        text = path.read_text().replace("target_1,", "wrong_name,")
        path.write_text(text)
        with pytest.raises(SchemaError, match="target_1"):
            Dataset.from_csv(path)

    def test_file_layout(self, tmp_path):
        data = Dataset(cells=np.array([2, 3]), outcomes=np.array([[True], [False]]),
                       covariate_names=("gender", "age"), level_counts=(2, 3))
        data.to_csv(tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == (
            b"gender,age,target_0,cell_id\r\n0,2,1,2\r\n1,0,0,3\r\n")

    def test_byte_identical_writes(self, tmp_path):
        pop = generate_population(default_population_spec(n_population=300, seed=23))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        pop.to_csv(a)
        pop.to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_population_and_sample_survive_a_write_read_write(self, tmp_path):
        pop = generate_population(default_population_spec(n_population=3_000, seed=24))
        sample = biased_sample(pop, [BiasSpec((2.0,) * 5, (1, -1, 1, -1, -1), 700, seed=25)], 3)[0]
        for name, data in (("pop", pop), ("sample", sample)):
            first, second = tmp_path / f"{name}.csv", tmp_path / f"{name}2.csv"
            data.to_csv(first)
            back = Dataset.from_csv(first)
            back.to_csv(second)
            assert first.read_bytes() == second.read_bytes()
            assert np.array_equal(back.cells, data.cells)
            assert back.outcomes.dtype == bool and np.array_equal(back.outcomes, data.outcomes)

    def test_cell_id_mismatch_rejected(self, tmp_path):
        # gender 0, age 2 of (2, 3) levels is cell 2, not the written 5
        path = tmp_path / "d.csv"
        Dataset(np.array([2, 3]), np.array([[True], [False]]), ("gender", "age"), (2, 3)).to_csv(path)
        path.write_text(path.read_text().replace("0,2,1,2", "0,2,1,5"))
        with pytest.raises(SchemaError, match="row 1 has cell_id 5, but its levels give cell 2"):
            Dataset.from_csv(path)

    @pytest.mark.parametrize("level", [3, -1])
    def test_level_out_of_range_rejected(self, tmp_path, level):
        path = tmp_path / "d.csv"
        Dataset(np.array([2, 3]), np.array([[True], [False]]), ("gender", "age"), (2, 3)).to_csv(path)
        path.write_text(path.read_text().replace("1,0,0,3", f"1,{level},0,3"))
        with pytest.raises(SchemaError, match="invalid dataset"):
            Dataset.from_csv(path)
