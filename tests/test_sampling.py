import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from drureg.errors import ConfigError, EstimationError, SchemaError
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
        data = Dataset(levels, np.zeros((6, 1), dtype=np.int64), ("a", "b", "c"), (2, 3, 1))
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
    """A dataset over 1-4 covariates (single-level ones included) and a subset."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n_rows = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    covariates = np.column_stack([rng.integers(0, c, size=n_rows) for c in counts])
    names = tuple(f"c{j}" for j in range(len(counts)))
    subset = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names),
                           unique=True))
    data = Dataset(covariates, np.zeros((n_rows, 1), dtype=np.int64), names, tuple(counts))
    return data, subset


class TestCellIndex:
    @given(schemas())
    def test_matches_ravel_multi_index_of_the_subset_columns(self, schema):
        data, subset = schema
        cols = [data.covariate_names.index(name) for name in subset]
        counts = [data.level_counts[c] for c in cols]
        expected = np.ravel_multi_index(data.covariates[:, cols].T, counts)
        assert np.array_equal(data.cell_index(subset), expected)
        assert data.n_cells(subset) == int(np.prod(counts))
        assert ((data.cell_index(subset) >= 0) & (data.cell_index(subset) < data.n_cells(subset))).all()

    @given(schemas())
    def test_default_subset_is_every_covariate(self, schema):
        data, _ = schema
        assert np.array_equal(data.cell_index(), data.cell_index(data.covariate_names))
        assert data.n_cells() == int(np.prod(data.level_counts))

    def test_unknown_covariate_rejected(self):
        data = Dataset(np.zeros((2, 1), dtype=np.int64), np.zeros((2, 1), dtype=np.int64),
                       ("a",), (2,))
        with pytest.raises(SchemaError, match="unknown covariate"):
            data.cell_index(["b"])


class TestDataset:
    @pytest.mark.parametrize("bad", [2, -1])
    def test_non_binary_outcome_rejected(self, bad):
        outcomes = np.array([[0, 1], [1, bad], [0, 0]], dtype=np.int64)
        with pytest.raises(SchemaError, match="binary"):
            Dataset(np.zeros((3, 1), dtype=np.int64), outcomes, ("a",), (2,))


class TestGeneratePopulation:
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
        assert np.array_equal(a.covariates, b.covariates)
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


class TestBiasedSample:
    def test_gamma_one_is_unbiased_subsample(self):
        pop = generate_population(flat_spec(0.5))
        bias = BiasSpec(gamma_true=(1.0,), d_true=(1,), n_sample=50_000, seed=4)
        sample = biased_sample(pop, bias, 0)
        assert abs(sample.target_mean(0) - pop.target_mean(0)) < 0.01

    def test_undersamples_high_outcomes(self):
        # mean 0.5 <= eta(2): the sample mean lands at mu / gamma = 0.25
        pop = generate_population(flat_spec(0.5))
        bias = BiasSpec(gamma_true=(2.0,), d_true=(1,), n_sample=100_000, seed=5)
        sample = biased_sample(pop, bias, 0)
        assert sample.target_mean(0) == pytest.approx(pop.target_mean(0) / 2, abs=0.01)
        assert sample.target_mean(0) < pop.target_mean(0)

    def test_direction_flip_mirrors_the_shift(self):
        pop = generate_population(flat_spec(0.5))
        up = biased_sample(pop, BiasSpec((2.0,), (1,), 20_000, 6), 0)
        down = biased_sample(pop, BiasSpec((2.0,), (-1,), 20_000, 6), 0)
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
            sample = biased_sample(pop, bias, t)
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
            mu > biased_sample(pop, BiasSpec((2.0,), (1,), 10_000, seed=100 + r), 0).target_mean(0)
            for r in range(20)
        )
        assert hits == 20

    def test_fixed_seed_reproduces(self):
        pop = generate_population(flat_spec(0.4, n=20_000))
        bias = BiasSpec((1.7,), (1,), 5_000, seed=11)
        a = biased_sample(pop, bias, 0)
        b = biased_sample(pop, bias, 0)
        assert np.array_equal(a.covariates, b.covariates)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_provenance_records_bias_and_warnings(self):
        pop = generate_population(default_population_spec(n_population=30_000, seed=13))
        bias = BiasSpec((2.0,) * 5, (1,) * 5, 500, seed=14)
        sample = biased_sample(pop, bias, 0)
        assert sample.provenance["bias"]["gamma_true"] == [2.0] * 5
        # 1440 cells vs 500 rows: some populated cells must be empty
        assert sample.provenance["warnings"]


class TestEstimateTrueMeta:
    def test_unbiased_sample_gives_gamma_near_one(self):
        pop = generate_population(flat_spec(0.35))
        sample = biased_sample(pop, BiasSpec((1.0,), (1,), 100_000, seed=15), 0)
        meta = estimate_true_meta(sample, pop, 0)
        assert abs(meta.gamma - 1.0) <= 0.15

    def test_direction_sign_definition(self):
        pop = generate_population(flat_spec(0.5, n=5_000))
        sample = biased_sample(pop, BiasSpec((2.0,), (1,), 2_000, seed=16), 0)
        meta = estimate_true_meta(sample, pop, 0, min_cell_rows=10)
        assert meta.direction == 1

    def test_round_trip_recovers_gamma(self):
        pop = generate_population(default_population_spec(
            n_population=100_000, n_targets=1, seed=17,
            covariate_levels=(("gender", 2), ("age", 5), ("area", 4))))
        sample = biased_sample(pop, BiasSpec((2.0,), (1,), 100_000, seed=18), 0)
        meta = estimate_true_meta(sample, pop, 0)
        assert 1.6 <= meta.gamma <= 2.4
        assert meta.direction == 1

    def test_population_against_itself_is_unbiased(self):
        pop = generate_population(default_population_spec(n_population=20_000, seed=3))
        metas = [estimate_true_meta(pop, pop, t) for t in range(pop.n_targets)]
        assert metas == [MetaInfo(gamma=1.0, direction=0)] * pop.n_targets

    def test_error_when_no_cell_qualifies(self):
        pop = generate_population(default_population_spec(n_population=20_000, seed=19))
        sample = biased_sample(pop, BiasSpec((2.0,) * 5, (1,) * 5, 200, seed=20), 0)
        with pytest.raises(EstimationError, match="30"):
            estimate_true_meta(sample, pop, 0, min_cell_rows=30)

    def test_schema_mismatch_rejected(self):
        pop = generate_population(flat_spec(0.5, n=2_000))
        other = generate_population(flat_spec(0.5, n=2_000, covariates=(("gender", 2),)))
        with pytest.raises(SchemaError):
            estimate_true_meta(other, pop, 0)


class TestCsvRoundTrip:
    def test_dataset_round_trip(self, tmp_path):
        pop = generate_population(default_population_spec(n_population=500, seed=21))
        path = tmp_path / "pop.csv"
        pop.to_csv(path)
        back = Dataset.from_csv(path)
        assert np.array_equal(back.covariates, pop.covariates)
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
        data = Dataset(covariates=np.array([[0, 2], [1, 0]]), outcomes=np.array([[1], [0]]),
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
