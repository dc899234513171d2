"""Pointwise loss functions and their gradients: squared, RU, dRU, squared pinball.

All losses accept scalars or numpy arrays (broadcasting elementwise) and are
pure functions; gradients are subgradients, taking the lower branch at hinge
and indicator boundaries. `LossColumns` holds each formula once, for one loss
or for a stack of losses with per-model parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .robustness import eta

DIRECTION_DOWN = -1
DIRECTION_NONE = 0
DIRECTION_UP = 1

_LOSS_KINDS = ("squared", "ru", "dru", "pinball")


@dataclass(frozen=True)
class MetaInfo:
    """Robustness meta-information for one target.

    gamma bounds the conditional density ratio between the target and sampled
    distributions (gamma = 1 means no bias). direction says on which side of
    the sample the population mean is believed to lie: +1 above, -1 below,
    0 for no directional information (plain RU behavior, or gamma = 1).
    """

    gamma: float
    direction: int

    def __post_init__(self) -> None:
        eta(self.gamma)
        if self.direction not in (DIRECTION_DOWN, DIRECTION_NONE, DIRECTION_UP):
            raise ParameterError(f"direction must be -1, 0 or +1, got {self.direction}")


@dataclass(frozen=True)
class LossSpec:
    """Which pointwise loss to train with, plus its parameters.

    kind            one of "squared", "ru", "dru", "pinball"
    meta            required for "ru" and "dru"
    pinball_p       required for "pinball", in (0, 1)
    """

    kind: str
    meta: MetaInfo | None = None
    pinball_p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _LOSS_KINDS:
            raise ParameterError(f"unknown loss kind {self.kind!r}, expected one of {_LOSS_KINDS}")
        if self.kind in ("ru", "dru"):
            if self.meta is None:
                raise ParameterError(f"loss kind {self.kind!r} requires meta")
            if self.kind == "dru" and self.meta.direction == DIRECTION_NONE and self.meta.gamma > 1.0:
                raise ParameterError("dru with direction=0 and gamma > 1 is undefined; use kind='ru'")
        elif self.meta is not None:
            raise ParameterError(f"loss kind {self.kind!r} does not take meta")
        if self.kind == "pinball":
            if self.pinball_p is None or not (0.0 < self.pinball_p < 1.0):
                raise ParameterError(f"pinball requires pinball_p in (0, 1), got {self.pinball_p}")
        elif self.pinball_p is not None:
            raise ParameterError(f"loss kind {self.kind!r} does not take pinball_p")

    @property
    def needs_alpha(self) -> bool:
        return self.kind in ("ru", "dru")

    def to_dict(self) -> dict:
        """JSON form: the kind plus the parameters it takes."""
        out = {"kind": self.kind}
        if self.meta is not None:
            out.update(gamma=self.meta.gamma, direction=self.meta.direction)
        if self.pinball_p is not None:
            out["pinball_p"] = self.pinball_p
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "LossSpec":
        """The spec of a `to_dict` form; keys its kind does not take are ignored."""
        kind = payload["kind"]
        meta = None
        if kind in ("ru", "dru"):
            meta = MetaInfo(gamma=float(payload["gamma"]), direction=int(payload["direction"]))
        pinball_p = float(payload["pinball_p"]) if kind == "pinball" else None
        return cls(kind=kind, meta=meta, pinball_p=pinball_p)


def _params(spec: LossSpec) -> tuple:
    """(gamma, direction, p) of a spec, with neutral values where it has none."""
    meta = spec.meta
    return (meta.gamma if meta is not None else 1.0,
            meta.direction if meta is not None else DIRECTION_NONE,
            spec.pinball_p if spec.pinball_p is not None else 0.5)


def _columns(spec: LossSpec) -> "LossColumns":
    return LossColumns(spec.kind, *_params(spec))


class LossColumns:
    """The one implementation of every loss formula and its subgradients,
    computed together in `terms`.

    Holds the parameters of M losses of one kind. Each parameter is
    a plain float for one loss, or an (M, 1) column so that (M, B) batches
    broadcast per model; the coefficients a formula needs (1/gamma,
    gamma - 1, ...) are computed once here. Every operation keeps the
    evaluation order of the written formulas, so a stacked loss gives
    exactly the bits of its one-loss counterparts. dRU at gamma = 1 has
    coefficients 1, 0 and 0: it evaluates to the squared loss, bit for bit
    while a is finite, with dLoss/da = 0.
    """

    def __init__(self, kind: str, gamma, direction, p) -> None:
        self.kind = kind
        self.g_inv = 1.0 / gamma
        if kind == "ru":
            self.a_coef, self.hinge_coef = 1.0 - self.g_inv, gamma - self.g_inv
        else:
            self.a_coef, self.hinge_coef = gamma - 1.0, (gamma * gamma - 1.0) / gamma
        self.direction = direction
        self.p, self.q = p, 1.0 - p

    @classmethod
    def of(cls, specs) -> "LossColumns":
        """Columns for specs that share one kind, in the given order."""
        kinds = {spec.kind for spec in specs}
        if len(kinds) != 1:
            raise ParameterError(f"stacked losses need one kind, got {sorted(kinds)}")
        params = zip(*(_params(spec) for spec in specs))
        return cls(kinds.pop(), *(np.array(col, dtype=float)[:, None] for col in params))

    def terms(self, diff, sq, a):
        """(loss, dLoss/dz, dLoss/da) pointwise from the residual diff = z - y,
        sq = diff ** 2 and the threshold a. dLoss/da is zero for the kinds
        without a threshold, or None when `a` is None."""
        if self.kind in ("squared", "pinball"):
            if self.kind == "squared":
                value, dz = sq, 2.0 * diff
            else:
                above = diff > 0.0
                value = np.where(above, self.p, self.q) * sq
                dz = 2.0 * np.where(above, self.p, np.where(diff < 0.0, self.q, 0.0)) * diff
            return value, dz, None if a is None else np.zeros_like(a)
        excess = sq - a
        surcharge = self.hinge_coef * np.maximum(excess, 0.0)
        active = excess > 0.0
        if self.kind == "dru":
            # the surcharge applies where the observation lies on the announced
            # side of the prediction (direction=+1: y above z; -1: y below z);
            # the boundary z == y counts as off
            gate = diff * self.direction < 0.0
            surcharge = surcharge * gate
            active = active & gate
        slope = self.hinge_coef * active
        return (self.g_inv * sq + self.a_coef * a + surcharge,
                2.0 * diff * (self.g_inv + slope), self.a_coef - slope)


def loss_terms(loss: LossColumns, z, a, y):
    """(loss, dLoss/dz, dLoss/da) of stacked losses in one pass; `a` is None
    for kinds without a threshold network."""
    diff = z - y
    return loss.terms(diff, diff ** 2, a)


def loss_value(spec: LossSpec, z, a, y):
    """Evaluate the configured loss pointwise. `a` is ignored unless needed."""
    return loss_terms(_columns(spec), *(np.asarray(v, dtype=float) for v in (z, a, y)))[0]


def loss_gradients(spec: LossSpec, z, a, y):
    """(dLoss/dz, dLoss/da) pointwise subgradients.

    At hinge and gate boundaries the inactive (lower) branch's gradient is
    returned; the indicators are treated as locally constant in z.
    """
    return loss_terms(_columns(spec), *(np.asarray(v, dtype=float) for v in (z, a, y)))[1:]


def squared_loss(z, y):
    """(z - y)**2."""
    return loss_value(LossSpec("squared"), z, 0.0, y)


def ru_loss(z, a, y, gamma: float):
    """Robust loss over a gamma-bounded density-ratio ball.

    gamma**-1 * L + (1 - gamma**-1) * a + (gamma - gamma**-1) * (L - a)+
    with L the squared loss. Collapses to the squared loss at gamma = 1.
    """
    return loss_value(LossSpec("ru", meta=MetaInfo(gamma, DIRECTION_NONE)), z, a, y)


def dru_loss(z, a, y, meta: MetaInfo):
    """Directional robust loss: the hinge surcharge is gated by residual side.

    gamma**-1 * L + (gamma - 1) * a
      + ((gamma**2 - 1) / gamma) * (L - a)+ * [observation on the `direction` side]

    For direction=+1 under-predictions carry the surcharge, pulling the fit
    upward (toward a population mean believed to be above the sample's);
    direction=-1 mirrors. Collapses to the squared loss at gamma = 1, and is
    the squared loss when direction=0 (which requires gamma = 1).
    """
    return loss_value(LossSpec("dru", meta=meta), z, a, y)


def pinball_loss(z, y, p: float):
    """Squared pinball: p*(z-y)**2 above the observation, (1-p)*(z-y)**2 below."""
    return loss_value(LossSpec("pinball", pinball_p=p), z, 0.0, y)
