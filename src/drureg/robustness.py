"""Worst-case-distribution machinery over discrete empirical distributions.

Given an empirical loss distribution, the adversary reweights points by a
density ratio confined to [gamma**-1, gamma] while keeping a valid
distribution. The maximizing ratio profile is two-level: ratio gamma on the
highest-loss mass fraction 1/(gamma+1) (one boundary atom split fractionally)
and gamma**-1 everywhere else. The directional variant restricts the
upweighted points to those whose residual sign matches the announced bias
direction. An independent LP solver cross-checks the greedy constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InfeasibleError, ParameterError

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteDistribution:
    """Weighted support points (value_i, prob_i) with probs > 0 summing to 1."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if values.ndim != 1 or values.shape != probs.shape:
            raise ParameterError("values and probs must be 1-D arrays of equal length")
        if values.size == 0:
            raise ParameterError("distribution needs at least one point")
        if not np.isfinite(values).all() or not np.isfinite(probs).all():
            raise ParameterError("distribution entries must be finite")
        if (probs <= 0).any():
            raise ParameterError("probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ParameterError(f"probabilities must sum to 1, got {float(probs.sum())!r}")

    def mean(self) -> float:
        return float(self.values @ self.probs)


@dataclass(frozen=True)
class WorstCase:
    """A worst-case reweighting: per-point density ratios and the achieved sup."""

    ratios: np.ndarray
    sup_value: float

    def validate(self, dist: DiscreteDistribution, gamma: float) -> None:
        """Check the box and normalization invariants against their source distribution."""
        ratios = np.asarray(self.ratios, dtype=float)
        lo, hi = 1.0 / gamma, gamma
        if (ratios < lo - _NORM_TOL).any() or (ratios > hi + _NORM_TOL).any():
            raise ParameterError("ratio outside [gamma**-1, gamma]")
        total = float(ratios @ dist.probs)
        if abs(total - 1.0) > _NORM_TOL:
            raise ParameterError(f"reweighted mass is {total!r}, expected 1")


def eta(gamma: float) -> float:
    """Mass-split point gamma / (gamma + 1) of the two-level worst case.

    Satisfies gamma * (1 - eta) + gamma**-1 * eta = 1: the fraction 1 - eta
    of the mass can carry ratio gamma while the rest carries gamma**-1 and
    the reweighting stays a valid distribution. This is the one check of a
    ratio bound: every taker of a gamma calls it.
    """
    if not np.isfinite(gamma) or gamma < 1.0:
        raise ParameterError(f"gamma must be finite and >= 1, got {gamma}")
    return gamma / (gamma + 1.0)


def cvar(dist: DiscreteDistribution, level: float) -> float:
    """Expectation over the top (1 - level) probability mass.

    The atom at the level-quantile is included fractionally so the
    conditioning mass is exactly 1 - level.
    """
    if not (0.0 < level < 1.0):
        raise ParameterError(f"level must be in (0, 1), got {level}")
    tail = 1.0 - level
    order = np.argsort(-dist.values, kind="stable")
    probs = dist.probs[order]
    take = np.clip(tail - (np.cumsum(probs) - probs), 0.0, probs)
    return float(take @ dist.values[order]) / tail


def _greedy_fill(losses: np.ndarray, probs: np.ndarray, gamma: float,
                 raisable: np.ndarray, budget: float) -> WorstCase:
    """Shared greedy: start all ratios at gamma**-1 and spend `budget`, the
    extra weight above that floor, raising raisable points toward gamma in
    descending loss order, splitting one boundary point fractionally. A
    worst case keeps unit mass with the budget 1 - gamma**-1."""
    g_inv = 1.0 / gamma
    ratios = np.full(losses.shape, g_inv)
    if budget > 0.0:
        room = np.where(raisable, (gamma - g_inv) * probs, 0.0)  # extra weight per point
        capacity = float(room.sum())
        if capacity < budget - _NORM_TOL:
            deficit = (budget - capacity) / (gamma - g_inv)
            raise InfeasibleError(
                "not enough raisable mass to renormalize the worst case: "
                f"short by {deficit:.6g} probability mass"
            )
        # in descending loss order each point takes min(its room, the budget
        # left over by the higher-loss points)
        order = np.argsort(-losses, kind="stable")
        room = room[order]
        spend = np.clip(budget - (np.cumsum(room) - room), 0.0, room)
        ratios[order] += spend / probs[order]
    sup = float((ratios * probs) @ losses)
    return WorstCase(ratios=ratios, sup_value=sup)


def worst_case_ru(losses: DiscreteDistribution, gamma: float) -> WorstCase:
    """Maximize the reweighted mean loss over the box [gamma**-1, gamma]
    with total mass 1, by greedy fill from the highest loss down."""
    eta(gamma)
    raisable = np.ones(losses.values.shape, dtype=bool)
    return _greedy_fill(losses.values, losses.probs, gamma, raisable, 1.0 - 1.0 / gamma)


def bernoulli_endpoint(mu, gamma: float, d: int) -> np.ndarray:
    """Sharp endpoint in direction d (+1, -1 or 0) of a Bernoulli mean mu over outcome
    reweightings with ratios in [1/gamma, gamma]; it undoes biased_sample's tilt of a cell."""
    eta(gamma)
    up = np.where(d < 0, 1.0 - np.asarray(mu, dtype=float), mu)
    top = np.minimum(gamma * up, 1.0 - (1.0 - up) / gamma) if d else up
    return np.where(d < 0, 1.0 - top, top)


def _raisable(signs, direction, n: int) -> np.ndarray:
    """The one check of a directional constraint; the mask of the points on its side."""
    signs = np.asarray(signs)
    if signs.shape != (n,):
        raise ParameterError("signs must align with the loss points")
    if not ((signs == 1) | (signs == -1)).all():
        raise ParameterError("signs must be -1 or +1")
    if direction not in (-1, 1):
        raise ParameterError(f"direction must be -1 or +1, got {direction}")
    return signs == direction


def worst_case_dru(losses: DiscreteDistribution, signs, meta) -> WorstCase:
    """Directional worst case: only points whose residual sign equals the
    announced direction may be upweighted above gamma**-1.

    Infeasible when the directional mass falls below 1/(gamma+1), the
    fraction that must carry ratio gamma for the reweighting to stay a
    distribution; the error names the missing mass.
    """
    raisable = _raisable(signs, meta.direction, losses.values.size)
    return _greedy_fill(losses.values, losses.probs, meta.gamma, raisable, 1.0 - 1.0 / meta.gamma)


@cache
def _solver():
    """One HiGHS instance per process, with the options `linprog(method="highs")` passes."""
    # scipy.optimize is most of a cold start, and only this oracle uses it
    from scipy.optimize._highspy import _core as highspy

    options = highspy.HighsOptions()
    # the LP has a single row, and HiGHS presolve costs about 3x the solve
    options.presolve = "off"
    options.output_flag = options.log_to_console = False
    options.simplex_strategy = highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    highs = highspy._Highs()
    highs.passOptions(options)
    return highs


def sup_oracle_lp(losses: DiscreteDistribution, gamma: float, constraint=None) -> float:
    """Exact sup of the reweighted mean loss, solved as a linear program.

    Decision variables are the reweighted point masses w_i within
    [gamma**-1 p_i, gamma p_i] summing to 1; with a directional sign mask,
    points off the constraint direction are pinned at their floor. Solved
    by HiGHS's dual simplex through scipy's binding, with the options
    `linprog(method="highs")` passes and so the same bits, but without its
    per-column post-processing or a new solver per LP: about 1.1 ms per LP
    of up to 2,000 points against linprog's 4.0 ms (one BLAS thread, 2-core
    VM). The solver is independent of the greedy.
    """
    from scipy.optimize._highspy import _core as highspy

    eta(gamma)
    n = losses.probs.size
    lo, hi = losses.probs / gamma, losses.probs * gamma
    if constraint is not None:
        hi = np.where(_raisable(*constraint, n), hi, lo)
    highs = _solver()
    # the row sum(w) = 1 as a column-wise matrix of ones; integrality 0 is continuous
    one, zeros = np.ones(1), np.zeros(n, dtype=np.int32)
    status = highs.passModel(n, 1, n, highspy.MatrixFormat.kColwise, highspy.ObjSense.kMinimize,
                             0.0, -losses.values, lo, hi, one, one,
                             np.arange(n + 1, dtype=np.int32), zeros, np.ones(n), zeros)
    if status != highspy.HighsStatus.kOk:  # run() would solve the previous model
        raise RuntimeError(f"LP solver rejected the model: {status.name}")
    highs.run()
    status = highs.getModelStatus()
    if status in (highspy.HighsModelStatus.kInfeasible, highspy.HighsModelStatus.kModelError):
        raise InfeasibleError("LP constraint set is infeasible")
    if status != highspy.HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP solver failed: {highs.modelStatusToString(status)}")
    return float(-highs.getInfo().objective_function_value)
