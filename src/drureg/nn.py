"""Minimal dense feed-forward networks with reverse-mode gradients and Adam.

Two small networks are trained jointly: a predictor producing z = h(x) and an
optional auxiliary network producing the non-negative threshold a = alpha(x)
that the robust losses need. Everything is plain numpy and deterministic
given seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ParameterError, ShapeError
from .losses import LossSpec, MetaInfo, loss_gradients, loss_value

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


def _layer_views(flat: np.ndarray, layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W_k, b_k) views of a flat vector laid out as W_0 (row-major,
    shape (in, out)), b_0, W_1, b_1, ...; used for parameters and gradients."""
    views, end = [], 0
    for spec in layers:
        start, mid = end, end + spec.input_width * spec.output_width
        end = mid + spec.output_width
        views.append((flat[start:mid].reshape(spec.input_width, spec.output_width),
                      flat[mid:end]))
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


def _forward_cached(net: MLP, X: np.ndarray):
    """Forward pass over a batch, keeping per-layer inputs and pre-activations."""
    a = X
    inputs, preacts = [], []
    for k, spec in enumerate(net.layers):
        inputs.append(a)
        z = a @ net.weights[k] + net.biases[k]
        preacts.append(z)
        a = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return a, inputs, preacts


def forward(net: MLP, x) -> float:
    """Evaluate the network on one feature vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != net.input_width:
        raise ShapeError(f"expected input of width {net.input_width}, got shape {x.shape}")
    out = forward_batch(net, x[None, :])
    return float(out[0])


def forward_batch(net: MLP, X: np.ndarray) -> np.ndarray:
    """Evaluate the network on an (n, input_width) matrix; returns (n,)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_width:
        raise ShapeError(f"expected (n, {net.input_width}) features, got shape {X.shape}")
    out, _, preacts = _forward_cached(net, X)
    for k, z in enumerate(preacts):
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite activation in layer {k}")
    return out[:, 0]


def _backprop(net: MLP, inputs, preacts, dloss_dout: np.ndarray, grads) -> None:
    """Write the gradients of sum_i dloss_dout[i] * net(x_i) into `grads`,
    the per-layer (dW, db) views of one flat gradient vector."""
    delta = dloss_dout[:, None]
    for k in range(len(net.layers) - 1, -1, -1):
        if net.layers[k].activation == "relu":
            delta = delta * (preacts[k] > 0.0)
        dw, db = grads[k]
        np.matmul(inputs[k].T, delta, out=dw)
        delta.sum(axis=0, out=db)
        if k > 0:
            delta = delta @ net.weights[k].T


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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_epochs < 0 or self.patience < 0 or self.batch_size < 1:
            raise ConfigError("max_epochs/patience must be >= 0 and batch_size >= 1")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ConfigError("validation_fraction must be in (0, 1)")
        if self.learning_rate <= 0.0 or self.improvement_tolerance <= 0.0:
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

    def predict_alpha(self, X: np.ndarray) -> np.ndarray:
        if self.alpha is None:
            return np.zeros(np.asarray(X).shape[0])
        return forward_batch(self.alpha, X)

    def to_json(self) -> str:
        payload = {
            "format_version": 1,
            "loss": _loss_spec_to_dict(self.loss),
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
            loss=_loss_spec_from_dict(payload["loss"]),
        )


def _loss_spec_to_dict(spec: LossSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.meta is not None:
        out["gamma"] = spec.meta.gamma
        out["direction"] = spec.meta.direction
    if spec.pinball_p is not None:
        out["pinball_p"] = spec.pinball_p
    return out


def _loss_spec_from_dict(payload: dict) -> LossSpec:
    meta = None
    if "gamma" in payload:
        meta = MetaInfo(gamma=float(payload["gamma"]), direction=int(payload["direction"]))
    return LossSpec(kind=payload["kind"], meta=meta, pinball_p=payload.get("pinball_p"))


def split_sizes(n: int, validation_fraction: float) -> tuple[int, int]:
    """(validation rows, training rows) that `train` splits n rows into."""
    n_val = int(round(n * validation_fraction))
    n_val = min(max(n_val, 1), n - 1) if n > 1 else 0
    return n_val, n - n_val


def train(h: MLP, alpha: MLP | None, features: np.ndarray, targets: np.ndarray,
          loss: LossSpec, cfg: TrainConfig) -> tuple[TrainedModel, TrainReport]:
    """Joint mini-batch Adam training of h (and alpha when the loss needs it).

    The data are split 1 - validation_fraction / validation_fraction with a
    seeded shuffle. Training stops at max_epochs, or early once the
    validation loss has failed to improve on its best by more than
    improvement_tolerance for `patience` consecutive epochs; the returned
    weights are those of the best-validation epoch. An epoch whose training
    loss is not finite raises NumericError.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or features.shape[0] != targets.shape[0]:
        raise ShapeError("features must be (n, d) aligned with targets (n,)")
    if features.shape[0] == 0:
        raise ConfigError("training data is empty")
    if loss.needs_alpha and alpha is None:
        raise ConfigError(f"loss kind {loss.kind!r} requires an alpha network")
    if not loss.needs_alpha and alpha is not None:
        raise ConfigError(f"loss kind {loss.kind!r} does not take an alpha network")

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(features.shape[0])
    n_val, n_train = split_sizes(features.shape[0], cfg.validation_fraction)
    if cfg.batch_size > n_train:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds training-set size {n_train}")
    val_idx, train_idx = order[:n_val], order[n_val:]
    X_train, y_train = features[train_idx], targets[train_idx]
    X_val, y_val = features[val_idx], targets[val_idx]

    h = h.copy()
    alpha = alpha.copy() if alpha is not None else None
    nets = [net for net in (h, alpha) if net is not None]
    grads = [np.empty_like(net.params) for net in nets]
    grad_views = [_layer_views(grad, net.layers) for net, grad in zip(nets, grads)]
    moments = [(np.zeros_like(grad), np.zeros_like(grad)) for grad in grads]
    b1, b2, lr, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.learning_rate, cfg.adam_epsilon

    def val_loss() -> float:
        if X_val.shape[0] == 0:
            return float("nan")
        z = forward_batch(h, X_val)
        a = forward_batch(alpha, X_val) if alpha is not None else np.zeros_like(z)
        return float(np.mean(loss_value(loss, z, a, y_val)))

    best_val = np.inf
    best = [net.params.copy() for net in nets]
    flat_epochs = 0
    stopped_early = False
    steps = 0
    train_trace: list[float] = []
    val_trace: list[float] = []

    for _ in range(cfg.max_epochs):
        perm = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, cfg.batch_size):
            batch = perm[start:start + cfg.batch_size]
            Xb, yb = X_train[batch], y_train[batch]
            caches = [_forward_cached(net, Xb) for net in nets]
            z = caches[0][0][:, 0]
            a = caches[1][0][:, 0] if alpha is not None else np.zeros_like(z)
            epoch_loss += float(np.sum(loss_value(loss, z, a, yb)))
            douts = loss_gradients(loss, z, a, yb)
            scale = 1.0 / batch.size
            steps += 1
            corr1 = 1.0 - b1 ** steps
            corr2 = 1.0 - b2 ** steps
            for net, (_, inputs, preacts), dout, grad, views, (m, v) in zip(
                    nets, caches, douts, grads, grad_views, moments):
                _backprop(net, inputs, preacts, dout * scale, views)
                # Adam (Kingma & Ba, 2015) over the network's whole parameter vector
                m *= b1
                m += (1.0 - b1) * grad
                v *= b2
                v += (1.0 - b2) * grad * grad
                net.params -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
        if not np.isfinite(epoch_loss):
            raise NumericError(f"non-finite training loss in epoch {len(train_trace) + 1}")
        train_trace.append(epoch_loss / n_train)
        current = val_loss()
        val_trace.append(current)
        if current < best_val:
            best = [net.params.copy() for net in nets]
        if current < best_val - cfg.improvement_tolerance:
            flat_epochs = 0
        else:
            flat_epochs += 1
        best_val = min(best_val, current)
        if flat_epochs >= cfg.patience:
            stopped_early = True
            break

    for net, params in zip(nets, best):
        net.params[:] = params
    report = TrainReport(
        epochs_run=len(train_trace),
        train_loss_trace=train_trace,
        val_loss_trace=val_trace,
        stopped_early=stopped_early,
    )
    return TrainedModel(h=h, alpha=alpha, loss=loss), report


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
