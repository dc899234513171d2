import numpy as np
import pytest

from drureg.errors import InfeasibleError, ParameterError
from drureg.losses import MetaInfo
from drureg.robustness import (
    DiscreteDistribution,
    cvar,
    eta,
    sup_oracle_lp,
    worst_case_dru,
    worst_case_ru,
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

    def test_rejects_gamma_below_one(self):
        with pytest.raises(ParameterError):
            eta(0.99)


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


class TestOracleEquivalence:
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
