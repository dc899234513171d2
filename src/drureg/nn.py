"""Minimal dense feed-forward networks with reverse-mode gradients and Adam.

Two small networks are trained jointly: a predictor producing z = h(x) and an
optional auxiliary network producing the non-negative threshold a = alpha(x)
that the robust losses need. `train_stack` trains many such pairs in lockstep,
batched along a leading model axis, with h and alpha as two rows of one
buffer; `train` is its one-fit case.
Everything is plain numpy and deterministic given seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ParameterError, ShapeError
from .losses import LossColumns, LossSpec, loss_terms

_ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class LayerSpec:
    input_width: int
    output_width: int
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.input_width < 1 or self.output_width < 1:
            raise ParameterError("layer widths must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")


def _floor(activations):
    """A layer's activation as a floor under its pre-activations z: relu is
    max(z, 0.0), identity None. Stacked rows that mix the two get a per-row
    column with -inf for identity, as max(z, -inf) == z and z > -inf for finite z."""
    if all(a == "identity" for a in activations):
        return None
    if all(a == "relu" for a in activations):
        return 0.0
    return np.array([0.0 if a == "relu" else -np.inf for a in activations])[:, None, None, None]


def _layer_views(flat: np.ndarray, layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W_k, b_k) views of a flat vector laid out as W_0 (row-major,
    shape (in, out)), b_0, W_1, b_1, ...; used for parameters and gradients.
    Leading axes, as in an (F, M, P) buffer of stacked networks, are kept."""
    views, end = [], 0
    lead = flat.shape[:-1]
    for spec in layers:
        start, mid = end, end + spec.input_width * spec.output_width
        end = mid + spec.output_width
        views.append((flat[..., start:mid].reshape(*lead, spec.input_width, spec.output_width),
                      flat[..., mid:end]))
    return views


class MLP:
    """Dense network whose parameters live in one flat float64 vector `params`.

    `weights` and `biases` are tuples of per-layer views into `params`
    (matrices (in, out) and vectors (out,)), so editing an entry in place
    edits `params`; the constructor copies the given arrays into it.
    """

    def __init__(self, layers, weights, biases, seed: int = 0) -> None:
        self.layers = tuple(layers)
        self.seed = seed
        for k in range(len(self.layers) - 1):
            if self.layers[k].output_width != self.layers[k + 1].input_width:
                raise ShapeError(f"layer {k} output width does not chain into layer {k + 1}")
        for k, spec in enumerate(self.layers):
            if np.shape(weights[k]) != (spec.input_width, spec.output_width):
                raise ShapeError(f"weight matrix {k} has shape {np.shape(weights[k])}")
            if np.shape(biases[k]) != (spec.output_width,):
                raise ShapeError(f"bias vector {k} has shape {np.shape(biases[k])}")
        self.params = np.empty(sum((s.input_width + 1) * s.output_width for s in self.layers))
        views = _layer_views(self.params, self.layers)
        for k, (w, b) in enumerate(views):
            w[...] = weights[k]
            b[...] = biases[k]
            if not np.isfinite(w).all() or not np.isfinite(b).all():
                raise NumericError(f"non-finite parameters in layer {k}")
        self.weights = tuple(w for w, _ in views)
        self.biases = tuple(b for _, b in views)

    @property
    def input_width(self) -> int:
        return self.layers[0].input_width

    @property
    def output_width(self) -> int:
        return self.layers[-1].output_width

    @property
    def floors(self) -> tuple:
        return tuple(_floor((spec.activation,)) for spec in self.layers)

    def copy(self) -> "MLP":
        return MLP(self.layers, self.weights, self.biases, self.seed)

    def to_dict(self) -> dict:
        return {
            "layers": [
                {"input_width": s.input_width, "output_width": s.output_width,
                 "activation": s.activation}
                for s in self.layers
            ],
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MLP":
        layers = tuple(LayerSpec(**entry) for entry in payload["layers"])
        return cls(layers, payload["weights"], payload["biases"], int(payload.get("seed", 0)))


def mlp_architecture(input_width: int, hidden_width: int = 4,
                     output_activation: str = "identity") -> tuple[LayerSpec, ...]:
    """Default three-layer stack: input -> hidden -> hidden -> 1."""
    return (
        LayerSpec(input_width, hidden_width, "relu"),
        LayerSpec(hidden_width, hidden_width, "relu"),
        LayerSpec(hidden_width, 1, output_activation),
    )


def init_mlp(layers: tuple[LayerSpec, ...], seed: int) -> MLP:
    """Seeded uniform init on +-sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in layers:
        limit = np.sqrt(6.0 / (spec.input_width + spec.output_width))
        weights.append(rng.uniform(-limit, limit, size=(spec.input_width, spec.output_width)))
        biases.append(np.zeros(spec.output_width))
    return MLP(layers, weights, biases, seed)


def init_networks(n_inputs: int, width: int, loss: LossSpec, h_seed: int,
                  alpha_seed: int) -> tuple[MLP, MLP | None]:
    """A fit's h, and alpha when the loss needs it, both of the default
    architecture at one hidden width; alpha's relu output keeps a >= 0."""
    h = init_mlp(mlp_architecture(n_inputs, width), h_seed)
    if not loss.needs_alpha:
        return h, None
    return h, init_mlp(mlp_architecture(n_inputs, width, output_activation="relu"), alpha_seed)


def _forward_cached(net, X: np.ndarray):
    """Forward pass over a batch, keeping per-layer inputs and pre-activations.

    `net` is an MLP with X of shape (n, in), or a _NetStack with X of shape
    (M, n, in), one batch per model, shared by the stack's F rows."""
    a = X
    inputs, preacts = [], []
    for w, b, floor in zip(net.weights, net.biases, net.floors):
        inputs.append(a)
        z = a @ w + b
        preacts.append(z)
        a = z if floor is None else np.maximum(z, floor)
    return a, inputs, preacts


def forward_batch(net: MLP, X: np.ndarray) -> np.ndarray:
    """Evaluate the network on an (n, input_width) matrix; returns (n,)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_width:
        raise ShapeError(f"expected (n, {net.input_width}) features, got shape {X.shape}")
    if net.output_width != 1:
        raise ShapeError(f"expected a network with one output, got {net.output_width}")
    out, _, preacts = _forward_cached(net, X)
    for k, z in enumerate(preacts):
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite activation in layer {k}")
    return out[:, 0]


def _backprop(net, inputs, preacts, dloss_dout: np.ndarray, grads) -> None:
    """Write the gradients of sum_i dloss_dout[..., i] * net(x_i) into `grads`,
    the per-layer (dW, db) views of one flat gradient buffer (with leading
    (F, M) axes for a _NetStack)."""
    delta = dloss_dout[..., None]
    for k in range(len(net.layers) - 1, -1, -1):
        floor = net.floors[k]
        if floor is not None:
            delta = delta * (preacts[k] > floor)
        dw, db = grads[k]
        np.matmul(inputs[k].swapaxes(-1, -2), delta, out=dw)
        np.add.reduce(delta, axis=-2, out=db)
        if k > 0:
            delta = delta @ net.weights[k].swapaxes(-1, -2)


def backward(net: MLP, X: np.ndarray, dloss_dout: np.ndarray):
    """Parameter gradients of sum_i dloss_dout[i] * net(x_i).

    Returns [(dW_0, db_0), ...] matching the layer order, as views of one
    flat gradient vector laid out like `net.params`; chain-rule through the
    cached forward pass. relu contributes zero gradient at its kink.
    """
    X = np.asarray(X, dtype=float)
    dloss_dout = np.asarray(dloss_dout, dtype=float)
    if not np.isfinite(dloss_dout).all():
        raise NumericError("non-finite loss gradient")
    _, inputs, preacts = _forward_cached(net, X)
    grads = _layer_views(np.empty_like(net.params), net.layers)
    _backprop(net, inputs, preacts, dloss_dout, grads)
    return grads


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 20
    patience: int = 3
    batch_size: int = 12
    learning_rate: float = 0.01
    validation_fraction: float = 0.1
    improvement_tolerance: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_epochs < 0 or self.patience < 0 or self.batch_size < 1:
            raise ConfigError("max_epochs/patience must be >= 0 and batch_size >= 1")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ConfigError("validation_fraction must be in (0, 1)")
        if not (self.learning_rate > 0.0 and self.improvement_tolerance > 0.0):  # also NaN
            raise ConfigError("learning_rate and improvement_tolerance must be positive")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0
                and self.adam_epsilon > 0.0):  # also NaN
            raise ConfigError("adam_beta1/adam_beta2 must be in [0, 1) and adam_epsilon positive")


@dataclass
class TrainReport:
    epochs_run: int
    train_loss_trace: list[float]
    val_loss_trace: list[float]
    stopped_early: bool


@dataclass
class TrainedModel:
    """Immutable snapshot of the trained network pair and its loss."""

    h: MLP
    alpha: MLP | None
    loss: LossSpec

    def predict(self, X: np.ndarray) -> np.ndarray:
        return forward_batch(self.h, X)

    def to_json(self) -> str:
        payload = {
            "format_version": 1,
            "loss": self.loss.to_dict(),
            "h": self.h.to_dict(),
            "alpha": self.alpha.to_dict() if self.alpha is not None else None,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainedModel":
        payload = json.loads(text)
        if payload.get("format_version") != 1:
            raise ConfigError(f"unsupported model format {payload.get('format_version')!r}")
        alpha = payload["alpha"]
        return cls(
            h=MLP.from_dict(payload["h"]),
            alpha=MLP.from_dict(alpha) if alpha is not None else None,
            loss=LossSpec.from_dict(payload["loss"]),
        )


def split_sizes(n: int, validation_fraction: float) -> tuple[int, int]:
    """(validation rows, training rows) that `train` splits n rows into."""
    n_val = int(round(n * validation_fraction))
    n_val = min(max(n_val, 1), n - 1) if n > 1 else 0
    return n_val, n - n_val


@dataclass(frozen=True, eq=False)
class Fit:
    """One network pair for `train_stack`: h, and alpha when the loss needs
    it, trained on the feature-table rows `rows` (n,) with targets (n,),
    split and shuffled by the stream of `seed`."""

    h: MLP
    alpha: MLP | None
    rows: np.ndarray
    targets: np.ndarray
    loss: LossSpec
    seed: int


def _widths(net: MLP) -> tuple:
    return tuple((spec.input_width, spec.output_width) for spec in net.layers)


class _NetStack:
    """F rows of M networks, all of one layer-width chain, trained in lockstep.

    A row holds one network role (h, or alpha) of M fits. The parameters are
    one (F, M, P) buffer; `weights` and `biases` are per-layer views of it
    with leading (F, M) axes (biases as (F, M, 1, out), to broadcast over a
    batch), built once per stack rather than per step. A layer whose rows
    differ in activation gets a per-row floor (see `_floor`). The gradient
    buffer and the Adam moments have the same layout, so Adam stays six
    vector operations over the whole buffer.
    """

    def __init__(self, rows) -> None:
        self.layers = rows[0][0].layers
        self.floors = tuple(_floor([spec.activation for spec in specs])
                            for specs in zip(*(nets[0].layers for nets in rows)))
        params = np.array([[net.params for net in nets] for nets in rows])
        self._set(params, np.zeros_like(params), np.zeros_like(params))

    def _set(self, params, m, v) -> None:
        self.params, self.m, self.v = params, m, v
        views = _layer_views(params, self.layers)
        self.weights = tuple(w for w, _ in views)
        self.biases = tuple(b[:, :, None, :] for _, b in views)
        self.grad = np.empty_like(params)
        self.grads = _layer_views(self.grad, self.layers)

    def take(self, keep) -> None:
        """Keep only the models selected by `keep`."""
        self._set(self.params[:, keep], self.m[:, keep], self.v[:, keep])

    def update(self, inputs, preacts, dout, corr1: float, corr2: float, cfg) -> None:
        """One Adam step (Kingma & Ba, 2015) from the loss gradient `dout`."""
        _backprop(self, inputs, preacts, dout, self.grads)
        b1, b2, m, v, grad = cfg.adam_beta1, cfg.adam_beta2, self.m, self.v, self.grad
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        self.params -= cfg.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + cfg.adam_epsilon)


class _Lockstep:
    """Fits that share h and alpha architectures, loss formula and row count,
    trained in lockstep: the same batch schedule and step count for all,
    while each keeps its own shuffles, early stopping and errors. h and
    alpha are the two rows of one _NetStack."""

    def __init__(self, table: np.ndarray, fits: list[Fit], cfg: TrainConfig) -> None:
        self.table, self.fits, self.cfg = table, fits, cfg
        n = len(fits[0].rows)
        self.n_val, self.n_train = split_sizes(n, cfg.validation_fraction)
        self.rngs = [np.random.default_rng(fit.seed) for fit in fits]
        orders = np.array([rng.permutation(n) for rng in self.rngs])
        rows = np.take_along_axis(np.array([fit.rows for fit in fits]), orders, axis=1)
        targets = np.take_along_axis(np.array([fit.targets for fit in fits], dtype=float),
                                     orders, axis=1)
        self.val_rows, self.train_rows = rows[:, :self.n_val], rows[:, self.n_val:]
        self.val_y, self.train_y = targets[:, :self.n_val], targets[:, self.n_val:]
        nets = [[fit.h for fit in fits], [fit.alpha for fit in fits]]
        self.net = _NetStack(nets if fits[0].alpha is not None else nets[:1])
        self.loss = LossColumns.of([fit.loss for fit in fits])
        self.best = self.net.params.copy()
        self.best_val = np.full(len(fits), np.inf)
        self.flat_epochs = np.zeros(len(fits), dtype=int)
        self.active = np.arange(len(fits))
        self.traces = [([], []) for _ in fits]
        self.results: list = [None] * len(fits)

    def _leave(self, leaving: np.ndarray, outcome) -> None:
        """Record `outcome(j)` for every stacked fit j in `leaving` and drop them."""
        if not leaving.any():
            return
        for j in np.flatnonzero(leaving):
            self.results[self.active[j]] = outcome(j)
        keep = ~leaving
        self.active = self.active[keep]
        self.net.take(keep)
        self.best = self.best[:, keep]
        self.loss = self.loss.take(keep)
        for name in ("val_rows", "train_rows", "val_y", "train_y", "best_val", "flat_epochs"):
            setattr(self, name, getattr(self, name)[keep])

    def _finished(self, j: int, stopped_early: bool):
        """The result of stacked fit j: its networks at their best epoch."""
        fit = self.fits[self.active[j]]
        h = fit.h.copy()
        alpha = fit.alpha.copy() if fit.alpha is not None else None
        for net, best in zip((h, alpha), self.best):
            net.params[:] = best[j]
        train_trace, val_trace = self.traces[self.active[j]]
        report = TrainReport(epochs_run=len(train_trace), train_loss_trace=train_trace,
                             val_loss_trace=val_trace, stopped_early=stopped_early)
        return TrainedModel(h=h, alpha=alpha, loss=fit.loss), report

    @staticmethod
    def _outputs(out) -> tuple:
        """(z, a), each (M, B), from the stack's (F, M, B, 1) output; a is
        None without an alpha network."""
        return out[0, ..., 0], out[1, ..., 0] if len(out) > 1 else None

    def _epoch(self, steps: int) -> tuple[np.ndarray, int]:
        """One pass over every active fit's training rows; returns the summed
        training loss per fit and the step count so far."""
        cfg, net, bs = self.cfg, self.net, self.cfg.batch_size
        perms = np.array([self.rngs[i].permutation(self.n_train) for i in self.active])
        rows = np.take_along_axis(self.train_rows, perms, axis=1)
        targets = np.take_along_axis(self.train_y, perms, axis=1)
        epoch_loss = np.zeros(self.active.size)
        for start in range(0, self.n_train, bs):
            X = self.table[rows[:, start:start + bs]]
            out, inputs, preacts = _forward_cached(net, X)
            y = targets[:, start:start + bs]
            value, dz, da = loss_terms(self.loss, *self._outputs(out), y)
            epoch_loss += np.add.reduce(value, axis=1)
            scale = 1.0 / X.shape[1]
            steps += 1
            corr1 = 1.0 - cfg.adam_beta1 ** steps
            corr2 = 1.0 - cfg.adam_beta2 ** steps
            dout = np.empty(out.shape[:-1])  # (F, M, B)
            for row, grad in zip(dout, (dz, da)):
                np.multiply(grad, scale, out=row)
            net.update(inputs, preacts, dout, corr1, corr2, cfg)
        return epoch_loss, steps

    def _validation_loss(self) -> np.ndarray:
        """Mean validation loss per active fit; fits whose validation pass
        has a non-finite activation leave with a NumericError."""
        if self.n_val == 0:
            return np.full(self.active.size, np.nan)
        X = self.table[self.val_rows]
        out, _, preacts = _forward_cached(self.net, X)
        finite = np.array([np.isfinite(z).all(axis=(-2, -1)) for z in preacts])  # (K, F, M)
        first = np.where(finite.all(axis=0), -1, finite.argmin(axis=0))  # (F, M)
        bad = np.where(first[0] >= 0, first[0], first[-1])  # h's layer before alpha's
        current = loss_terms(self.loss, *self._outputs(out), self.val_y)[0].mean(axis=1)
        failed = bad >= 0
        self._leave(failed, lambda j: NumericError(f"non-finite activation in layer {bad[j]}"))
        return current[~failed]

    def run(self) -> list:
        cfg, steps = self.cfg, 0
        for epoch in range(1, cfg.max_epochs + 1):
            if not self.active.size:
                break
            epoch_loss, steps = self._epoch(steps)
            finite = np.isfinite(epoch_loss)
            self._leave(~finite, lambda j: NumericError(
                f"non-finite training loss in epoch {epoch}"))
            for i, loss in zip(self.active, epoch_loss[finite]):
                self.traces[i][0].append(float(loss / self.n_train))
            current = self._validation_loss()
            for i, value in zip(self.active, current):
                self.traces[i][1].append(float(value))
            improved = current < self.best_val
            self.best[:, improved] = self.net.params[:, improved]
            self.flat_epochs = np.where(current < self.best_val - cfg.improvement_tolerance,
                                        0, self.flat_epochs + 1)
            self.best_val = np.where(improved, current, self.best_val)
            self._leave(self.flat_epochs >= cfg.patience, lambda j: self._finished(j, True))
        self._leave(np.ones(self.active.size, dtype=bool), lambda j: self._finished(j, False))
        return self.results


def train_stack(table: np.ndarray, fits, cfg: TrainConfig) -> list:
    """Train many (h, alpha) pairs in lockstep on rows of one feature table.

    Each fit trains exactly as `train` would train it alone, bit for bit:
    fits that share h and alpha architectures, loss formula and row count
    train together, with leading (network, model) axes on parameters,
    activations, gradients and Adam moments, so each mini-batch step is one
    batched call per layer for the whole group. alpha must have h's layer
    widths. Every fit keeps its own random stream, early stopping and
    best-epoch snapshot, and leaves the group when it stops.

    Returns, per fit in order, (TrainedModel, TrainReport) or the
    NumericError that stopped it; the other fits carry on.
    """
    table = np.asarray(table, dtype=float)
    groups: dict = {}
    for i, fit in enumerate(fits):
        n = np.shape(fit.rows)[0] if np.ndim(fit.rows) == 1 else -1
        if n < 0 or np.shape(fit.targets) != (n,):
            raise ShapeError("fit rows and targets must be aligned 1-D arrays")
        if n == 0:
            raise ConfigError("training data is empty")
        if fit.loss.needs_alpha and fit.alpha is None:
            raise ConfigError(f"loss kind {fit.loss.kind!r} requires an alpha network")
        if not fit.loss.needs_alpha and fit.alpha is not None:
            raise ConfigError(f"loss kind {fit.loss.kind!r} does not take an alpha network")
        if (fit.h.input_width, fit.h.output_width) != (table.shape[1], 1):
            raise ShapeError(f"h network maps {fit.h.input_width} -> {fit.h.output_width} "
                             f"widths; expected {table.shape[1]} features -> 1 output")
        if fit.alpha is not None and _widths(fit.alpha) != _widths(fit.h):
            raise ShapeError(f"alpha network has layer widths {_widths(fit.alpha)}; "
                             f"expected h's {_widths(fit.h)}")
        n_train = split_sizes(n, cfg.validation_fraction)[1]
        if cfg.batch_size > n_train:
            raise ConfigError(f"batch_size {cfg.batch_size} exceeds training-set size {n_train}")
        key = (fit.h.layers, None if fit.alpha is None else fit.alpha.layers,
               fit.loss.formula, n)
        groups.setdefault(key, []).append(i)
    results: list = [None] * len(fits)
    for members in groups.values():
        # a diverging fit overflows; it leaves its group with a NumericError
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = _Lockstep(table, [fits[i] for i in members], cfg).run()
        for i, outcome in zip(members, outcomes):
            results[i] = outcome
    return results


def train(h: MLP, alpha: MLP | None, features: np.ndarray, targets: np.ndarray, loss: LossSpec,
          cfg: TrainConfig, seed: int = 0) -> tuple[TrainedModel, TrainReport]:
    """Joint mini-batch Adam training of h (and alpha when the loss needs it).

    The data are split 1 - validation_fraction / validation_fraction with a
    shuffle drawn from `seed`, which also draws every epoch's shuffle.
    Training stops at max_epochs, or early once the validation loss has
    failed to improve on its best by more than improvement_tolerance for
    `patience` consecutive epochs; the returned weights are those of the
    best-validation epoch. An epoch whose training loss is not finite raises
    NumericError. This is the one-fit case of `train_stack`.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or features.shape[0] != targets.shape[0]:
        raise ShapeError("features must be (n, d) aligned with targets (n,)")
    fit = Fit(h, alpha, np.arange(features.shape[0]), targets, loss, seed)
    (outcome,) = train_stack(features, [fit], cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def one_hot_encode(levels: np.ndarray, level_counts) -> np.ndarray:
    """One-hot encode a matrix of categorical level indices, column blocks in order."""
    levels = np.asarray(levels)
    level_counts = tuple(int(c) for c in level_counts)
    if levels.ndim != 2 or levels.shape[1] != len(level_counts):
        raise ShapeError(f"expected (n, {len(level_counts)}) level indices, got {levels.shape}")
    n = levels.shape[0]
    out = np.zeros((n, sum(level_counts)))
    offset = 0
    rows = np.arange(n)
    for j, count in enumerate(level_counts):
        col = levels[:, j]
        if (col < 0).any() or (col >= count).any():
            raise ShapeError(f"covariate column {j} has levels outside [0, {count})")
        out[rows, offset + col] = 1.0
        offset += count
    return out
