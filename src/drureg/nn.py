"""Minimal dense feed-forward networks with reverse-mode gradients and Adam.

Two small networks are trained jointly: a predictor producing z = h(x) and an
optional auxiliary network producing the non-negative threshold a = alpha(x)
that the robust losses need. `train_stack` trains many such pairs in lockstep,
each on its own feature table, batching networks of one layer shape into one
call per layer; `train` is its one-fit case.
Everything is plain numpy and deterministic given seeds.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from typing import ClassVar

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
    max(z, 0.0), identity None. Stacked networks that mix the two get a
    per-network column with -inf for identity, as max(z, -inf) == z and
    z > -inf for finite z."""
    if all(a == "identity" for a in activations):
        return None
    if all(a == "relu" for a in activations):
        return 0.0
    return np.array([0.0 if a == "relu" else -np.inf for a in activations])[:, None, None]


def _layer_views(flat: np.ndarray, layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W_k, b_k) views of a flat vector laid out as W_0 (row-major,
    shape (in, out)), b_0, W_1, b_1, ...; used for parameters and gradients."""
    views, end = [], 0
    for spec in layers:
        start, mid = end, end + spec.input_width * spec.output_width
        end = mid + spec.output_width
        views.append((flat[start:mid].reshape(spec.input_width, spec.output_width), flat[mid:end]))
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


def _forward_cached(net, X, z=None, training: bool = True):
    """Forward pass over a batch: the outputs, each layer's inputs and
    pre-activations. `net` is an MLP with X (n, in), or a `_Family` with X
    its layer-0 inputs, one per run, and z their products with W_0. Not
    `training`, it keeps no inputs, and only if pre-activations are finite."""
    z = X @ net.weights[0] if z is None else z
    inputs, preacts = [X], []
    for k, (b, floor) in enumerate(zip(net.biases, net.floors)):
        if k:
            if training:
                inputs.append(a)
            z = a @ net.weights[k]
        z += b
        preacts.append(z if training else np.isfinite(z).all(axis=(-2, -1)))
        a = z if floor is None else np.maximum(z, floor)
    return a, inputs, preacts


def forward_batch(net: MLP, X: np.ndarray) -> np.ndarray:
    """Evaluate the network on an (n, input_width) matrix; returns (n,)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_width:
        raise ShapeError(f"expected (n, {net.input_width}) features, got shape {X.shape}")
    if net.output_width != 1:
        raise ShapeError(f"expected a network with one output, got {net.output_width}")
    out, _, finite = _forward_cached(net, X, training=False)
    for k, ok in enumerate(finite):
        if not ok:
            raise NumericError(f"non-finite activation in layer {k}")
    return out[:, 0]


def _backprop(net, inputs, preacts, delta: np.ndarray, grads) -> None:
    """Write the gradients of sum(delta * outputs) into `grads`, the
    per-layer (dW, db) views of one flat gradient buffer; `delta` has the
    outputs' shape. A `_Family` has layer 0's inputs and dW one per run."""
    for k in range(len(preacts) - 1, -1, -1):
        if net.floors[k] is not None:
            delta = delta * (preacts[k] > net.floors[k])
        dw, db = grads[k]
        np.add.reduce(delta, axis=-2, out=db)
        if k or isinstance(dw, np.ndarray):
            np.matmul(inputs[k].swapaxes(-1, -2), delta, out=dw)
        else:
            for (start, stop, _, _), x, dw_run in zip(net.runs, inputs[0], dw):
                np.matmul(x.swapaxes(-1, -2), delta[start:stop], out=dw_run)
        if k:
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
    _backprop(net, inputs, preacts, dloss_dout[..., None], grads)
    return grads


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 20
    patience: int = 3
    batch_size: int = 12
    learning_rate: float = 0.01
    improvement_tolerance: float = 1e-4
    # fixed, not settable: the validation share and Adam's defaults (Kingma & Ba, 2015)
    validation_fraction: ClassVar[float] = 0.1
    adam_beta1: ClassVar[float] = 0.9
    adam_beta2: ClassVar[float] = 0.999
    adam_epsilon: ClassVar[float] = 1e-8

    def __post_init__(self) -> None:
        if self.max_epochs < 0 or self.patience < 0 or self.batch_size < 1:
            raise ConfigError("max_epochs/patience must be >= 0 and batch_size >= 1")
        if not (self.learning_rate > 0.0 and self.improvement_tolerance > 0.0):  # also NaN
            raise ConfigError("learning_rate and improvement_tolerance must be positive")


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


def split_sizes(n: int, cfg: TrainConfig) -> tuple[int, int]:
    """(validation rows, training rows) that `train` splits n rows into, the
    one check that n >= 2 leaves a row to validate on and a batch to train."""
    if n < 2:
        raise ConfigError(f"training needs at least 2 rows, one of them to validate on; got {n}")
    n_val = min(max(int(round(n * cfg.validation_fraction)), 1), n - 1)
    if cfg.batch_size > n - n_val:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds training-set size {n - n_val}")
    return n_val, n - n_val


@dataclass(frozen=True, eq=False)
class Fit:
    """One network pair for `train_stack`: h, and alpha when the loss needs
    it, trained on the rows `rows` (n,) of its own feature `table` with
    targets (n,), split and shuffled by the stream of `seed`."""

    h: MLP
    alpha: MLP | None
    table: np.ndarray
    rows: np.ndarray
    targets: np.ndarray
    loss: LossSpec
    seed: int


def _widths(net: MLP) -> tuple:
    return tuple((spec.input_width, spec.output_width) for spec in net.layers)


class _Family:
    """The networks of a `_Lockstep` group whose layers after the first
    share their widths, so that each such layer is one batched call, with ids
    from `first` on: the h of each fit in `members` (group positions), then
    the alpha of the `alphas` among them. `runs` holds (start, stop, table,
    reads) per run of consecutive networks that read one table, `reads`
    their fits' rows: a slice (one fit's rows broadcast over its networks)
    or an index array. Each run of fits of one loss kind is a segment
    (fits, LossColumns, h slice, alpha slice or None); `pieces` orders the
    segments' dLoss/dz, then their dLoss/da, as the networks."""

    def __init__(self, first: int, fits: list[Fit], members: list[int]) -> None:
        self.members = members
        self.alphas = [j for j in members if fits[j].alpha is not None]
        self.fit_of, m = members + self.alphas, len(members)
        self.nets = [fits[j].h for j in members] + [fits[j].alpha for j in self.alphas]
        self.n, self.layers = len(self.nets), self.nets[0].layers
        self.ids = first + np.arange(self.n)
        self.floors = tuple(_floor([spec.activation for spec in specs])
                            for specs in zip(*(net.layers for net in self.nets)))
        self.runs, self.segments, self.weights, self.biases, self.grads = [], [], [], [], []
        start = 0
        for _, at in itertools.groupby(self.fit_of, key=lambda j: id(fits[j].table)):
            at = list(at)
            one_slice = at in ([at[0]] * len(at), list(range(at[0], at[-1] + 1)))
            reads = slice(at[0], at[-1] + 1) if one_slice else np.array(at)
            self.runs.append((start, start + len(at), fits[at[0]].table, reads))
            start += len(at)
        for _, run in itertools.groupby(members, key=lambda j: fits[j].loss.kind):
            run = list(run)
            h = slice(run[0] - members[0], run[-1] + 1 - members[0])
            alpha = slice(m + h.start, m + h.stop) if run[0] in self.alphas else None
            loss = LossColumns.of([fits[j].loss for j in run])
            self.segments.append((slice(run[0], run[-1] + 1), loss, h, alpha))
        self.pieces = [(s, 1) for s in range(len(self.segments))]
        self.pieces += [(s, 2) for s, segment in enumerate(self.segments) if segment[3] is not None]


class _Lockstep:
    """Fits of one row count, trained in lockstep: one batch schedule for
    all, while each keeps its own table, loss, shuffles, early stopping and
    errors. Networks, not fits, are stacked, in families (see `_Family`),
    the fits ordered by family, then alpha kinds first, by loss kind and by
    table. The parameters, the gradient, the Adam moments `m` and `v` and
    the best-epoch snapshot `best` are each one flat buffer, laid out layer
    by layer and, within a layer, family by family, weights before biases;
    a network's entries, read in order, are its `MLP.params`, and `owner`
    holds the network of every entry. `run` returns results in input order."""

    def __init__(self, fits: list[Fit], cfg: TrainConfig) -> None:
        self.fits, self.cfg = fits, cfg
        slots: dict = {}  # each table's place in the order of first appearance
        # the input indices of the active fits, in buffer order
        self.active = np.array(sorted(range(len(fits)), key=lambda i: (
            _widths(fits[i].h)[1:], fits[i].alpha is None, fits[i].loss.kind,
            slots.setdefault(id(fits[i].table), len(slots)))))
        n = len(fits[0].rows)
        self.n_val, self.n_train = split_sizes(n, cfg)
        self.rngs = [np.random.default_rng(fit.seed) for fit in fits]
        # each fit's shuffle of its rows: the first n_val validate, the rest train
        self.order = np.empty((len(fits), n), dtype=int)
        self.val_rows = np.empty((len(fits), self.n_val), dtype=int)
        self.val_y = np.empty(self.val_rows.shape)
        for j, i in enumerate(self.active):
            self.order[j] = self.rngs[i].permutation(n)
            at = self.order[j, :self.n_val]
            self.val_rows[j], self.val_y[j] = fits[i].rows[at], fits[i].targets[at]
        self.params = np.empty(sum(net.params.size for fit in fits
                                   for net in (fit.h, fit.alpha) if net is not None))
        self._refresh()
        self.params[np.argsort(self.owner, kind="stable")] = np.concatenate(
            [net.params for fam in self.families for net in fam.nets])
        self.m, self.v = np.zeros_like(self.params), np.zeros_like(self.params)
        self.best = self.params.copy()
        self.steps = 0
        self.best_val = np.full(len(fits), np.inf)
        self.flat_epochs = np.zeros(len(fits), dtype=int)
        self.traces = [([], []) for _ in fits]
        self.results: list = [None] * len(fits)

    def _refresh(self) -> None:
        """Lay out the active fits' networks: the families with their views of
        the parameters and a new gradient, each network's fit `net_fit`, `owner`."""
        fits = [self.fits[i] for i in self.active]
        self.families = []
        for _, members in itertools.groupby(range(len(fits)), lambda j: _widths(fits[j].h)[1:]):
            self.families.append(_Family(sum(fam.n for fam in self.families), fits, list(members)))
        self.net_fit = np.array([j for fam in self.families for j in fam.fit_of], dtype=int)
        self.grad = np.empty_like(self.params)
        owner, end = [np.empty(0, dtype=int)], 0

        def take(ids, size, out):  # views (len(ids), size / out, out) of the next entries
            nonlocal end
            owner.append(np.repeat(ids, size))
            end += len(ids) * size
            return [buf[end - len(ids) * size:end].reshape(len(ids), -1, out)
                    for buf in (self.params, self.grad)]

        for k in range(max((len(fam.layers) for fam in self.families), default=0)):
            for fam in [fam for fam in self.families if k < len(fam.layers)]:
                out = fam.layers[k].output_width
                w, dw = (take(fam.ids, fam.layers[k].input_width * out, out) if k else zip(*(
                    take(fam.ids[start:stop], table.shape[1] * out, out)
                    for start, stop, table, _ in fam.runs)))
                b, db = take(fam.ids, out, out)
                fam.weights.append(w)
                fam.biases.append(b)
                fam.grads.append((dw, db[:, 0]))
        self.owner = np.concatenate(owner)

    def _leave(self, leaving: np.ndarray, outcome) -> None:
        """Record `outcome(j)` for every stacked fit j in `leaving` and drop them."""
        if not leaving.any():
            return
        for j in np.flatnonzero(leaving):
            self.results[self.active[j]] = outcome(j)
        keep = ~leaving
        kept = keep[self.net_fit][self.owner]
        self.active = self.active[keep]
        for name in ("params", "m", "v", "best"):
            setattr(self, name, getattr(self, name)[kept])
        for name in ("order", "val_rows", "val_y", "best_val", "flat_epochs"):
            setattr(self, name, getattr(self, name)[keep])
        self._refresh()

    def _finished(self, j: int, stopped_early: bool):
        """The result of stacked fit j: its networks at their best epoch."""
        fit = self.fits[self.active[j]]
        h, alpha = fit.h.copy(), None if fit.alpha is None else fit.alpha.copy()
        for net, q in zip((h, alpha), np.flatnonzero(self.net_fit == j)):
            net.params[:] = self.best[self.owner == q]
        train_trace, val_trace = self.traces[self.active[j]]
        report = TrainReport(epochs_run=len(train_trace), train_loss_trace=train_trace,
                             val_loss_trace=val_trace, stopped_early=stopped_early)
        return TrainedModel(h=h, alpha=alpha, loss=fit.loss), report

    def _pass(self, fam: _Family, rows: np.ndarray, y: np.ndarray, training: bool = True):
        """`_forward_cached` over the fits' table rows (M, B), then each
        segment's loss terms against y (M, B): returns the layer inputs and
        pre-activations, the loss terms, and dLoss/d(outputs) (n, B)."""
        z, xs = np.empty((fam.n, rows.shape[1], fam.layers[0].output_width)), []
        for (start, stop, table, reads), w in zip(fam.runs, fam.weights[0]):
            x = table.take(rows[reads], axis=0)
            np.matmul(x, w, out=z[start:stop])
            if training:
                xs.append(x)
        out, inputs, preacts = _forward_cached(fam, xs, z, training)
        parts = [loss_terms(loss, out[h, :, 0], None if alpha is None else out[alpha, :, 0],
                            y[fits]) for fits, loss, h, alpha in fam.segments]
        pieces = [parts[s][c] for s, c in fam.pieces]
        return inputs, preacts, parts, pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def _epoch(self) -> np.ndarray:
        """One pass over every active fit's training rows, one Adam step
        (Kingma & Ba, 2015) per mini-batch; returns the summed training loss
        per fit."""
        cfg, bs = self.cfg, self.cfg.batch_size
        b1, b2, m, v, grad = cfg.adam_beta1, cfg.adam_beta2, self.m, self.v, self.grad
        rows = np.empty((self.active.size, self.n_train), dtype=int)
        targets = np.empty(rows.shape)
        for j, i in enumerate(self.active):
            at = self.order[j, self.n_val:][self.rngs[i].permutation(self.n_train)]
            rows[j], targets[j] = self.fits[i].rows[at], self.fits[i].targets[at]
        epoch_loss = np.zeros(self.active.size)
        totals = [[epoch_loss[segment[0]] for segment in fam.segments] for fam in self.families]
        for start in range(0, self.n_train, bs):
            batch, y = rows[:, start:start + bs], targets[:, start:start + bs]
            for fam, sums in zip(self.families, totals):
                inputs, preacts, parts, dout = self._pass(fam, batch, y)
                for total, (value, _, _) in zip(sums, parts):
                    total += np.add.reduce(value, axis=1)
                _backprop(fam, inputs, preacts, dout[..., None] * (1.0 / batch.shape[1]), fam.grads)
            self.steps += 1
            corr1 = 1.0 - b1 ** self.steps
            corr2 = 1.0 - b2 ** self.steps
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            self.params -= cfg.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + cfg.adam_epsilon)
        return epoch_loss

    def _validation_loss(self) -> np.ndarray:
        """Mean validation loss per active fit; fits whose validation pass
        has a non-finite activation leave with a NumericError."""
        current, bad = np.empty(self.active.size), np.empty(self.active.size, dtype=int)
        for fam in self.families:
            _, finite, parts, _ = self._pass(fam, self.val_rows, self.val_y, training=False)
            for segment, (value, _, _) in zip(fam.segments, parts):
                current[segment[0]] = value.mean(axis=1)
            # per network, its first layer with a non-finite pre-activation, or -1
            first = np.where(np.all(finite, axis=0), -1, np.argmin(finite, axis=0))
            m, k = len(fam.members), len(fam.alphas)
            bad[fam.members] = first[:m]
            bad[fam.alphas] = np.where(first[:k] >= 0, first[:k], first[m:])  # h's layer first
        failed = bad >= 0
        self._leave(failed, lambda j: NumericError(f"non-finite activation in layer {bad[j]}"))
        return current[~failed]

    def run(self) -> list:
        cfg = self.cfg
        for epoch in range(1, cfg.max_epochs + 1):
            if not self.active.size:
                break
            epoch_loss = self._epoch()
            finite = np.isfinite(epoch_loss)
            self._leave(~finite, lambda j: NumericError(
                f"non-finite training loss in epoch {epoch}"))
            for i, loss in zip(self.active, epoch_loss[finite]):
                self.traces[i][0].append(float(loss / self.n_train))
            if not self.active.size:
                break
            current = self._validation_loss()
            for i, value in zip(self.active, current):
                self.traces[i][1].append(float(value))
            improved = current < self.best_val
            np.copyto(self.best, self.params, where=improved[self.net_fit][self.owner])
            self.flat_epochs = np.where(current < self.best_val - cfg.improvement_tolerance,
                                        0, self.flat_epochs + 1)
            self.best_val = np.where(improved, current, self.best_val)
            self._leave(self.flat_epochs >= cfg.patience, lambda j: self._finished(j, True))
        self._leave(np.ones(self.active.size, dtype=bool), lambda j: self._finished(j, False))
        return self.results


def train_stack(fits, cfg: TrainConfig) -> list:
    """Train many (h, alpha) pairs in lockstep, each on rows of its own table.

    Each fit trains exactly as `train` would train it alone, bit for bit:
    the stack is one `_Lockstep` group, whatever its fits' tables, widths
    and loss kinds, so every fit must have the same row count, which
    `split_sizes` checks once. alpha must have h's layer widths. Every fit
    keeps its own loss, random stream, early stopping and best-epoch
    snapshot, and leaves the group when it stops.

    Returns, per fit in order, (TrainedModel, TrainReport) or the
    NumericError that stopped it; the other fits carry on.
    """
    tables: dict = {}  # id of a fit's table -> that table as floats
    stack: list[Fit] = []
    for fit in fits:
        table = tables.setdefault(id(fit.table), np.asarray(fit.table, dtype=float))
        if table.ndim != 2:
            raise ShapeError(f"feature tables must be 2-D, got shape {table.shape}")
        n = np.shape(fit.rows)[0] if np.ndim(fit.rows) == 1 else -1
        if n < 0 or np.shape(fit.targets) != (n,):
            raise ShapeError("fit rows and targets must be aligned 1-D arrays")
        if stack and n != len(stack[0].rows):
            raise ShapeError(f"the fits of a stack must share one row count, "
                             f"got {len(stack[0].rows)} and {n}")
        rows = np.asarray(fit.rows)
        if not np.issubdtype(rows.dtype, np.integer) or ((rows < 0) | (rows >= len(table))).any():
            raise ShapeError(f"fit rows must be integer indices into the table's "
                             f"{len(table)} rows")
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
        stack.append(replace(fit, table=table, rows=rows,
                             targets=np.asarray(fit.targets, dtype=float)))
    if not stack:
        return []
    # a diverging fit overflows; it leaves the group with a NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        return _Lockstep(stack, cfg).run()


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
    fit = Fit(h, alpha, features, np.arange(features.shape[0]), targets, loss, seed)
    (outcome,) = train_stack([fit], cfg)
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
