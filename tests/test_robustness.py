import numpy as np
import pytest

from drureg.errors import InfeasibleError, ParameterError
from drureg.harness import b_score
from drureg.losses import MetaInfo, dru_loss, ru_loss
from drureg.poststrat import build_cell_table, poststratify
from drureg.robustness import (
    DiscreteDistribution,
    WorstCase,
    _greedy_fill,
    bernoulli_endpoint,
    cvar,
    eta,
    sup_oracle_lp,
    worst_case_dru,
    worst_case_ru,
)
from drureg.sampling import (
    BiasSpec,
    _sampling_weights_up,
    biased_sample,
    cell_design,
    default_population_spec,
    generate_population,
)


def uniform_dist(values):
    values = np.asarray(values, dtype=float)
    return DiscreteDistribution(values=values, probs=np.full(values.size, 1.0 / values.size))


def random_instance(rng, max_points=20):
    k = int(rng.integers(2, max_points + 1))
    probs = rng.random(k) + 0.05
    probs /= probs.sum()
    values = rng.uniform(0.0, 10.0, k)
    gamma = float(rng.uniform(1.0, 4.0))
    signs = rng.choice((-1, 1), size=k)
    return DiscreteDistribution(values=values, probs=probs), gamma, signs


class TestEta:
    def test_examples(self):
        assert eta(1.0) == 0.5
        assert eta(3.0) == 0.75
        assert eta(9.0) == pytest.approx(0.9, abs=1e-15)

    def test_normalization_identity(self):
        for gamma in np.linspace(1.0, 10.0, 50):
            e = eta(gamma)
            assert abs(gamma * (1 - e) + e / gamma - 1.0) < 1e-12

    def test_strictly_increasing_below_one(self):
        grid = np.linspace(1.0, 200.0, 400)
        values = [eta(g) for g in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.5])
    @pytest.mark.parametrize("taker", [
        eta,
        lambda gamma: MetaInfo(gamma=gamma, direction=1),
        lambda gamma: worst_case_ru(uniform_dist([1.0, 2.0, 3.0]), gamma),
        lambda gamma: sup_oracle_lp(uniform_dist([1.0, 2.0, 3.0]), gamma),
        lambda gamma: BiasSpec(gamma_true=(2.0, gamma), d_true=(1, -1), n_sample=10, seed=0),
        lambda gamma: bernoulli_endpoint(0.5, gamma, 1),
    ], ids=["eta", "MetaInfo", "worst_case_ru", "sup_oracle_lp", "BiasSpec", "bernoulli_endpoint"])
    def test_every_taker_of_gamma_rejects_a_bad_ratio_bound(self, taker, gamma):
        # NaN compares False with every bound, so only an explicit finiteness check stops it
        with pytest.raises(ParameterError, match="finite and >= 1"):
            taker(gamma)


class TestCvar:
    def test_top_half_of_uniform(self):
        assert cvar(uniform_dist([1, 2, 3, 4]), 0.5) == pytest.approx(3.5, abs=1e-12)

    def test_point_mass(self):
        dist = DiscreteDistribution(values=np.array([7.0]), probs=np.array([1.0]))
        assert cvar(dist, 0.3) == pytest.approx(7.0, abs=1e-12)

    def test_atom_split(self):
        assert cvar(uniform_dist([0, 10]), 0.75) == pytest.approx(10.0, abs=1e-12)

    def test_coherence_and_monotonicity(self, rng):
        for _ in range(25):
            dist, _, _ = random_instance(rng, max_points=12)
            mean = dist.mean()
            levels = np.linspace(0.05, 0.95, 10)
            values = [cvar(dist, lv) for lv in levels]
            assert all(v >= mean - 1e-12 for v in values)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_bad_level(self):
        with pytest.raises(ParameterError):
            cvar(uniform_dist([1, 2]), 1.0)


class TestWorstCaseRU:
    def test_gamma_one_is_the_mean(self):
        dist = uniform_dist([0, 1, 4])
        wc = worst_case_ru(dist, 1.0)
        assert np.allclose(wc.ratios, 1.0)
        assert wc.sup_value == pytest.approx(dist.mean(), abs=1e-15)
        assert sup_oracle_lp(dist, 1.0) == pytest.approx(dist.mean(), abs=1e-12)

    def test_two_point_hand_lp(self):
        # caps allow 3*0.5 on the loss-1 point but the floor 1/6 on the other
        # pins its weight at 5/6: sup = 5/6
        dist = uniform_dist([0, 1])
        assert sup_oracle_lp(dist, 3.0) == pytest.approx(5 / 6, abs=1e-9)

    def test_three_point_example(self):
        # greedy puts ratio 2 on the loss-4 point, exhausting the budget exactly
        dist = uniform_dist([0, 1, 4])
        wc = worst_case_ru(dist, 2.0)
        assert wc.sup_value == pytest.approx(17 / 6, abs=1e-12)
        assert np.allclose(sorted(wc.ratios), [0.5, 0.5, 2.0])
        assert sup_oracle_lp(dist, 2.0) == pytest.approx(17 / 6, abs=1e-9)

    def test_constant_losses(self):
        dist = uniform_dist([3, 3, 3])
        for gamma in (1.0, 2.0, 7.5):
            assert worst_case_ru(dist, gamma).sup_value == pytest.approx(3.0, abs=1e-12)

    def test_validity_and_dominance(self, rng):
        for _ in range(50):
            dist, gamma, _ = random_instance(rng)
            wc = worst_case_ru(dist, gamma)
            wc.validate(dist, gamma)
            assert wc.sup_value >= dist.mean() - 1e-12
            if gamma > 1.0 and np.ptp(dist.values) > 1e-9:
                assert wc.sup_value > dist.mean()


class TestWorstCaseDRU:
    def test_gamma_one_all_ratios_one(self):
        dist = uniform_dist([4, 3, 2, 1])
        wc = worst_case_dru(dist, [1, 1, -1, -1], MetaInfo(gamma=1.0, direction=1))
        assert np.allclose(wc.ratios, 1.0)

    def test_four_point_construction(self):
        # gamma=1.5: ratio gamma must cover mass 1/(gamma+1) = 0.4 from the
        # direction side: all of the loss-4 point plus 0.15 of the loss-3
        # point (mixed ratio 7/6); everything else sits at 1/gamma.
        # Cross-checked against the LP solver.
        dist = uniform_dist([4, 3, 2, 1])
        signs = np.array([1, 1, 1, -1])
        wc = worst_case_dru(dist, signs, MetaInfo(gamma=1.5, direction=1))
        assert np.allclose(wc.ratios, [1.5, 7 / 6, 2 / 3, 2 / 3])
        assert wc.sup_value == pytest.approx(2.875, abs=1e-12)
        lp = sup_oracle_lp(dist, 1.5, constraint=(signs, 1))
        assert wc.sup_value == pytest.approx(lp, abs=1e-9)

    def test_infeasible_when_direction_mass_too_small(self):
        # one +1 point with probability 0.05 < 1/(gamma+1) = 1/3
        dist = DiscreteDistribution(values=np.array([4.0, 3.0, 2.0, 1.0]),
                                    probs=np.array([0.05, 0.4, 0.4, 0.15]))
        signs = np.array([1, -1, -1, -1])
        with pytest.raises(InfeasibleError, match="short by"):
            worst_case_dru(dist, signs, MetaInfo(gamma=2.0, direction=1))
        with pytest.raises(InfeasibleError):
            sup_oracle_lp(dist, 2.0, constraint=(signs, 1))

    def test_sup_below_ru(self, rng):
        checked = 0
        for _ in range(100):
            dist, gamma, signs = random_instance(rng)
            ru = worst_case_ru(dist, gamma)
            try:
                dru = worst_case_dru(dist, signs, MetaInfo(gamma=gamma, direction=1))
            except InfeasibleError:
                continue
            checked += 1
            assert dru.sup_value <= ru.sup_value + 1e-9
            dru.validate(dist, gamma)
        assert checked > 30

    def test_mean_shift_matches_direction(self, rng):
        # residuals above the prediction carry sign +1; upweighting them
        # must push the reweighted outcome mean upward
        for _ in range(20):
            y = rng.normal(size=12)
            z = float(y.mean())
            losses = (z - y) ** 2
            signs = np.where(y > z, 1, -1)
            probs = np.full(12, 1 / 12)
            dist = DiscreteDistribution(values=losses, probs=probs)
            try:
                wc = worst_case_dru(dist, signs, MetaInfo(gamma=2.0, direction=1))
            except InfeasibleError:
                continue
            assert ((wc.ratios - 1) * probs) @ y > 0


class TestBernoulliEndpoint:
    """The sharp endpoint of a cell's mean over the gamma-set is the worst
    case of the cell's Bernoulli law, and it undoes the sampler's tilt."""

    def test_matches_the_greedy_and_the_lp_worst_cases(self, rng):
        for gamma in rng.uniform(1.0, 6.0, 20):
            mu = rng.uniform(0.001, 0.999, 10)
            up, down = bernoulli_endpoint(mu, gamma, 1), bernoulli_endpoint(mu, gamma, -1)
            assert np.array_equal(bernoulli_endpoint(mu, gamma, 0), mu)
            for i in range(mu.size):
                law = DiscreteDistribution(np.array([0.0, 1.0]), np.array([1.0 - mu[i], mu[i]]))
                mirror = DiscreteDistribution(-law.values, law.probs)  # sup of -Y is -(inf of Y)
                assert abs(up[i] - worst_case_ru(law, gamma).sup_value) <= 1e-12
                assert abs(down[i] + worst_case_ru(mirror, gamma).sup_value) <= 1e-12
                assert abs(up[i] - sup_oracle_lp(law, gamma)) <= 1e-9
                assert abs(down[i] + sup_oracle_lp(mirror, gamma)) <= 1e-9

    @pytest.mark.parametrize("d", [1, -1])
    def test_recovers_mu_from_the_sampler_pinned_mean(self, rng, d):
        for gamma in [1.0, *rng.uniform(1.0, 6.0, 30)]:
            split = eta(gamma)
            # the tilt acts on the mean of the undersampled side, on both sides of eta
            tilted = np.concatenate((rng.uniform(0.0, split, 20), rng.uniform(split, 1.0, 20),
                                     [0.0, split, 1.0]))
            mu = tilted if d == 1 else 1.0 - tilted
            if d == 1:
                w1, _ = _sampling_weights_up(mu, gamma)
            else:
                _, w1 = _sampling_weights_up(1.0 - mu, gamma)
            pinned = mu * w1  # the sample's cell mean: each cell keeps unit mass
            assert np.abs(bernoulli_endpoint(pinned, gamma, d) - mu).max() <= 1e-12

    @pytest.fixture(scope="class")
    def saturated(self):
        # 400k rows per target drawn at tilt = announced gamma: each cell's
        # sample mean sits at the sampler's pinned value
        population = generate_population(default_population_spec(n_population=100_000, seed=7000))
        bias = BiasSpec((2.0,) * 5, (1, -1, 1, -1, -1), 400_000, seed=8000)
        samples = [biased_sample(population, [bias], t)[0] for t in range(population.n_targets)]
        return population, bias, samples

    @pytest.mark.parametrize("subset", [("gender", "age"), ("gender", "age", "area", "education",
                                                            "employment", "past_vote")])
    def test_saturated_cell_endpoints_remove_the_bias(self, saturated, subset):
        population, bias, samples = saturated
        lookup, _ = cell_design(population.covariate_names, population.level_counts, subset)
        table = build_cell_table(population, lookup)

        def b(sign):
            y_hat = []
            for t, sample in enumerate(samples):
                cells = lookup[sample.cells]
                rows = np.bincount(cells, minlength=table.fractions.size)
                ones = np.bincount(cells, weights=sample.outcomes[:, t], minlength=rows.size)
                # a cell the draw misses takes the sample's target mean
                mean = np.where(rows > 0, ones / np.maximum(rows, 1), sample.target_mean(t))
                y_hat.append(poststratify(
                    bernoulli_endpoint(mean, 2.0, sign * bias.d_true[t]), table))
            return b_score([population.target_mean(t) for t in range(len(samples))], y_hat,
                           [s.target_mean(t) for t, s in enumerate(samples)])

        assert b(1) >= 0.95
        assert b(-1) < 0  # the announced side matters: flipped, it adds bias


class TestOracleEquivalence:
    def test_solver_stop_short_of_optimal_raises(self):
        # a zero time limit stops the shared HiGHS solver before it reaches an
        # optimum; the next LP on it must still give linprog's bits
        from drureg.robustness import _solver

        dist = uniform_dist([0.0, 1.0, 2.0])
        highs = _solver()
        time_limit = highs.getOptions().time_limit
        highs.setOptionValue("time_limit", 0.0)
        try:
            with pytest.raises(RuntimeError, match="LP solver failed: Time limit reached"):
                sup_oracle_lp(dist, 2.0)
        finally:
            highs.setOptionValue("time_limit", time_limit)
        assert highs.getOptions().time_limit == time_limit
        assert sup_oracle_lp(dist, 2.0) == linprog_sup(dist, 2.0)

    def test_no_state_carries_between_lps(self, rng):
        # every LP runs on one solver, so each must give linprog's bits
        # whatever that solver solved before it
        def random_dist(k):
            probs = rng.random(k) + 0.05
            return DiscreteDistribution(values=rng.uniform(-10.0, 10.0, k), probs=probs / probs.sum())

        large = random_dist(2000)
        short = DiscreteDistribution(values=np.array([4.0, 3.0, 2.0, 1.0]),
                                     probs=np.array([0.05, 0.4, 0.4, 0.15]))
        cases = [(large, 2.5, None), (large, 2.5, (rng.choice((-1, 1), size=2000), 1)),
                 (random_dist(1), 3.0, None), (random_dist(2), 1.7, (np.array([1, -1]), -1)),
                 (random_dist(3), 2.0, None), (random_dist(3), 1.0, None),
                 (random_dist(3), 1.0, (np.array([1, 1, -1]), 1)),
                 (short, 2.0, (np.array([1, -1, -1, -1]), 1)),
                 (short, 2.0, (np.array([1, 1, -1, -1]), 1)), (large, 2.5, None)]
        results = []
        for dist, gamma, constraint in cases:
            try:
                results.append(sup_oracle_lp(dist, gamma, constraint=constraint))
            except InfeasibleError:
                results.append("infeasible")
            assert results[-1] == linprog_sup(dist, gamma, constraint), (dist.probs.size, gamma)
        assert results[7] == "infeasible" and results[8] != "infeasible"
        assert results[-1] == results[0]

    def test_rejected_model_raises(self):
        # HiGHS refuses a NaN bound but would rerun the model it last accepted
        dist = uniform_dist([0.0, 1.0, 2.0])
        assert sup_oracle_lp(dist, 2.0) == linprog_sup(dist, 2.0)
        nan_dist = uniform_dist([0.0, 1.0, 2.0])
        object.__setattr__(nan_dist, "probs", np.array([np.nan, 0.5, 0.5]))
        with pytest.raises(RuntimeError, match="LP solver rejected the model: kError"):
            sup_oracle_lp(nan_dist, 2.0)
        assert sup_oracle_lp(dist, 2.0) == linprog_sup(dist, 2.0)

    def test_greedy_matches_lp_on_100_instances(self, rng):
        max_gap_ru = 0.0
        max_gap_dru = 0.0
        for _ in range(100):
            dist, gamma, signs = random_instance(rng)
            ru = worst_case_ru(dist, gamma)
            max_gap_ru = max(max_gap_ru, abs(ru.sup_value - sup_oracle_lp(dist, gamma)))
            try:
                dru = worst_case_dru(dist, signs, MetaInfo(gamma=gamma, direction=-1))
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    sup_oracle_lp(dist, gamma, constraint=(signs, -1))
                continue
            lp = sup_oracle_lp(dist, gamma, constraint=(signs, -1))
            max_gap_dru = max(max_gap_dru, abs(dru.sup_value - lp))
        assert max_gap_ru < 1e-9
        assert max_gap_dru < 1e-9

    def test_lp_matches_linprog_bit_for_bit(self, rng):
        # linprog(method="highs") runs the same HiGHS solve behind a slower
        # wrapper; a scipy that changes the private binding fails here
        from scipy.optimize import linprog

        def reference(dist, gamma, constraint):
            lo, hi = dist.probs / gamma, dist.probs * gamma
            if constraint is not None:
                hi = np.where(constraint[0] == constraint[1], hi, lo)
            res = linprog(-dist.values, A_eq=np.ones((1, dist.probs.size)), b_eq=[1.0],
                          bounds=np.column_stack((lo, hi)), method="highs",
                          options={"presolve": False})
            if res.status == 2:
                return "infeasible"
            assert res.success, res.message
            return -res.fun

        def binding(dist, gamma, constraint):
            try:
                return sup_oracle_lp(dist, gamma, constraint=constraint)
            except InfeasibleError:
                return "infeasible"

        sizes = [1, 2, 3, 10] * 5 + list(rng.integers(1, 2001, size=20))
        n_infeasible = 0
        for i, k in enumerate(sizes):
            probs = rng.random(k) + 0.05
            dist = DiscreteDistribution(values=rng.uniform(-10.0, 10.0, k),
                                        probs=probs / probs.sum())
            gamma = 1.0 if i % 4 == 0 else float(rng.uniform(1.0, 4.0))
            for constraint in (None, (rng.choice((-1, 1), size=k), int(rng.choice((-1, 1))))):
                expected = reference(dist, gamma, constraint)
                assert binding(dist, gamma, constraint) == expected, (k, gamma, constraint)
                n_infeasible += expected == "infeasible"
        assert 0 < n_infeasible < len(sizes)


def linprog_sup(dist, gamma, constraint=None):
    """sup_oracle_lp's LP solved through linprog(method="highs"), or "infeasible"."""
    from scipy.optimize import linprog

    lo, hi = dist.probs / gamma, dist.probs * gamma
    if constraint is not None:
        hi = np.where(constraint[0] == constraint[1], hi, lo)
    res = linprog(-dist.values, A_eq=np.ones((1, dist.probs.size)), b_eq=[1.0],
                  bounds=np.column_stack((lo, hi)), method="highs", options={"presolve": False})
    if res.status == 2:
        return "infeasible"
    assert res.success, res.message
    return -res.fun


def loop_greedy_ratios(values, probs, gamma, raisable):
    """Reference: raise points one at a time in descending loss order."""
    g_inv = 1.0 / gamma
    ratios = np.full(values.shape, g_inv)
    budget = 1.0 - g_inv
    for i in np.argsort(-values, kind="stable"):
        if budget <= 1e-9:
            break
        if raisable[i]:
            spend = min((gamma - g_inv) * probs[i], budget)
            ratios[i] += spend / probs[i]
            budget -= spend
    return ratios


def loop_cvar(values, probs, level):
    """Reference: take mass from the top down until 1 - level is used."""
    acc, remaining = 0.0, 1.0 - level
    for i in np.argsort(-values, kind="stable"):
        take = min(probs[i], remaining)
        acc += take * values[i]
        remaining -= take
    return acc / (1.0 - level)


class TestLoopReference:
    """The vectorized greedy fill and CVaR against their per-point loops; the
    sums run in another order, so agreement is to 1e-12, not bitwise."""

    def test_greedy_matches_the_loop(self, rng):
        for _ in range(300):
            dist, gamma, signs = random_instance(rng)
            # repeated loss values exercise the stable tie order
            dist = DiscreteDistribution(values=np.round(dist.values), probs=dist.probs)
            direction = int(rng.choice((-1, 1)))
            cases = [(worst_case_ru(dist, gamma), np.ones(signs.shape, dtype=bool))]
            try:
                cases.append((worst_case_dru(dist, signs, MetaInfo(gamma, direction)),
                              signs == direction))
            except InfeasibleError:
                pass
            for result, raisable in cases:
                ref = loop_greedy_ratios(dist.values, dist.probs, gamma, raisable)
                assert np.abs(result.ratios - ref).max() < 1e-12
                assert abs(result.sup_value - float((ref * dist.probs) @ dist.values)) < 1e-12

    def test_cvar_matches_the_loop(self, rng):
        for _ in range(300):
            dist, _, _ = random_instance(rng)
            dist = DiscreteDistribution(values=np.round(dist.values), probs=dist.probs)
            level = float(rng.uniform(0.01, 0.99))
            assert abs(cvar(dist, level) - loop_cvar(dist.values, dist.probs, level)) < 1e-12


class TestDualIdentities:
    """The robust losses are the duals of the worst cases: the minimum over
    the threshold a of the expected loss equals the greedy sup. The
    expectation is piecewise linear in a with kinks at the squared losses,
    so its minimum over a >= 0 lies in {0} and those losses."""

    @staticmethod
    def law(rng):
        k = int(rng.integers(1, 12))
        probs = rng.random(k) + 0.05
        y = rng.normal(0.0, 2.0, k)  # observations around the prediction z = 0
        return probs / probs.sum(), y, y ** 2, float(rng.uniform(1.0, 4.0))

    @staticmethod
    def min_over_a(loss, probs, squared):
        thresholds = np.concatenate(([0.0], squared))[:, None]
        return float((loss(thresholds) @ probs).min())

    @staticmethod
    def relative_gap(a, b):
        return abs(a - b) / max(abs(b), 1e-300)

    def test_ru_is_dual_to_the_worst_case(self, rng):
        for _ in range(2000):
            probs, y, squared, gamma = self.law(rng)
            expected = self.min_over_a(lambda a: ru_loss(0.0, a, y, gamma), probs, squared)
            sup = worst_case_ru(DiscreteDistribution(squared, probs), gamma).sup_value
            assert self.relative_gap(expected, sup) < 1e-12

    def test_dru_is_dual_to_a_budget_of_gamma_minus_one(self, rng):
        # only points on the announced side (y above z for d = +1) carry the
        # surcharge; the extra weight gamma - 1 fits where that side holds
        # at least eta(gamma) of the mass
        feasible = 0
        for _ in range(2000):
            probs, y, squared, gamma = self.law(rng)
            meta = MetaInfo(gamma, int(rng.choice((-1, 1))))
            try:
                sup = _greedy_fill(squared, probs, gamma, y * meta.direction > 0.0,
                                   gamma - 1.0).sup_value
            except InfeasibleError:
                assert probs[y * meta.direction > 0.0].sum() < eta(gamma) + 1e-9
                continue
            feasible += 1
            expected = self.min_over_a(lambda a: dru_loss(0.0, a, y, meta), probs, squared)
            assert self.relative_gap(expected, sup) < 1e-12
        assert feasible > 400  # 474 of the 2,000 laws at the fixture seed


@pytest.mark.parametrize("build, message", [
    (lambda: DiscreteDistribution([1.0, 2.0], [1.0]),
     "values and probs must be 1-D arrays of equal length"),
    (lambda: DiscreteDistribution([], []), "distribution needs at least one point"),
    (lambda: DiscreteDistribution([1.0, np.inf], [0.5, 0.5]), "distribution entries must be finite"),
    (lambda: DiscreteDistribution([1.0, 2.0], [1.0, 0.0]), "probabilities must be strictly positive"),
    (lambda: DiscreteDistribution([1.0, 2.0], [0.5, 0.6]), r"probabilities must sum to 1, got 1\.1"),
    (lambda: WorstCase(np.array([3.0, 0.5]), 0.0).validate(uniform_dist([1.0, 2.0]), 2.0),
     r"ratio outside \[gamma\*\*-1, gamma\]"),
    (lambda: WorstCase(np.array([1.0, 2.0]), 0.0).validate(uniform_dist([1.0, 2.0]), 2.0),
     "reweighted mass is 1.5, expected 1"),
    (lambda: worst_case_dru(uniform_dist([1.0, 2.0]), [1, -1, 1], MetaInfo(2.0, 1)),
     "signs must align with the loss points"),
    (lambda: worst_case_dru(uniform_dist([1.0, 2.0]), [1, 0], MetaInfo(2.0, 1)),
     "signs must be -1 or \\+1"),
    (lambda: worst_case_dru(uniform_dist([1.0, 2.0]), [1, -1], MetaInfo(2.0, 0)),
     "direction must be -1 or \\+1, got 0"),
    (lambda: sup_oracle_lp(uniform_dist([1.0, 2.0, 3.0]), 2.0, constraint=([1], 1)),
     "signs must align with the loss points"),
    (lambda: sup_oracle_lp(uniform_dist([1.0, 2.0, 3.0]), 2.0, constraint=([1, -1], 1)),
     "signs must align with the loss points"),
    (lambda: sup_oracle_lp(uniform_dist([1.0, 2.0, 3.0]), 2.0, constraint=([1, 0, 1], 1)),
     "signs must be -1 or \\+1"),
    (lambda: sup_oracle_lp(uniform_dist([1.0, 2.0, 3.0]), 2.0, constraint=([1, -1, 1], 0)),
     "direction must be -1 or \\+1, got 0"),
], ids=["unequal_lengths", "no_points", "infinite_value", "zero_probability",
        "probabilities_sum", "ratio_outside_box", "mass_not_one", "signs_length",
        "sign_zero", "direction_zero", "lp_signs_length_one", "lp_signs_length_two",
        "lp_sign_zero", "lp_direction_zero"])
def test_invalid_argument_rejected(build, message):
    with pytest.raises(ParameterError, match=message):
        build()
