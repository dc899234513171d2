from dataclasses import replace

import numpy as np
import pytest

from conftest import analytic_param_grads, fd_param_grads, max_rel_error, sample_smooth_instance
from drureg.errors import ConfigError, NumericError, ShapeError
from drureg.losses import LossSpec, MetaInfo, loss_gradients, loss_value
from drureg.nn import (
    MLP,
    Fit,
    LayerSpec,
    TrainConfig,
    TrainReport,
    _forward_cached,
    _layer_views,
    backward,
    forward_batch,
    init_mlp,
    mlp_architecture,
    one_hot_encode,
    split_sizes,
    train,
    train_stack,
)


def single_layer(weight, bias, activation="identity"):
    w = np.atleast_2d(np.asarray(weight, dtype=float)).T
    return MLP(layers=(LayerSpec(w.shape[0], 1, activation),),
               weights=[w], biases=[np.array([float(bias)])])


class TestForward:
    def test_all_zero_network(self):
        net = init_mlp(mlp_architecture(3, 4), seed=0)
        for k in range(len(net.weights)):
            net.weights[k][:] = 0.0
        assert forward_batch(net, [[1.0, -2.0, 0.5]])[0] == 0.0

    def test_identity_single_layer(self):
        net = single_layer([1.0], 0.0)
        assert forward_batch(net, [[3.0]])[0] == 3.0

    def test_relu_affine_layer(self):
        net = single_layer([1.0, -1.0], 0.5, activation="relu")
        assert forward_batch(net, [[0.2, 0.9]])[0] == 0.0   # relu(0.2 - 0.9 + 0.5)
        assert forward_batch(net, [[0.9, 0.2]])[0] == pytest.approx(1.2, abs=1e-15)

    def test_dimension_mismatch(self):
        net = single_layer([1.0, -1.0], 0.5)
        with pytest.raises(ShapeError):
            forward_batch(net, [[1.0, 2.0, 3.0]])

    def test_output_width_other_than_one_rejected(self):
        net = init_mlp((LayerSpec(3, 4), LayerSpec(4, 2, "identity")), seed=0)
        with pytest.raises(ShapeError, match="one output"):
            forward_batch(net, [[1.0, 2.0, 3.0]])

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(NumericError, match="layer 0"):
            single_layer([np.inf], 0.0)

    def test_nonfinite_input_reported_with_layer(self):
        net = single_layer([1.0], 0.0)
        with pytest.raises(NumericError, match="layer 0"):
            forward_batch(net, np.array([[np.nan]]))

    def test_deterministic(self):
        net = init_mlp(mlp_architecture(4, 4), seed=3)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        assert forward_batch(net, [x])[0] == forward_batch(net, [x])[0]


class TestBackward:
    def test_hand_chain_rule_single_weight(self):
        # d/dw of (w * 1)^2 at w = 0.3 is 2w = 0.6
        net = single_layer([0.3], 0.0)
        x = np.array([[1.0]])
        z = forward_batch(net, x)
        dz = 2.0 * (z - 0.0)
        grads = backward(net, x, dz)
        assert grads[0][0][0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_zero_loss_gradient_gives_zero_grads(self):
        net = init_mlp(mlp_architecture(3, 4), seed=1)
        X = np.random.default_rng(0).normal(size=(5, 3))
        grads = backward(net, X, np.zeros(5))
        assert all((dw == 0).all() and (db == 0).all() for dw, db in grads)

    def test_matches_finite_differences_away_from_kinks(self, rng):
        spec = LossSpec("squared")
        for _ in range(20):
            h, _, X, y = sample_smooth_instance(rng, spec)
            analytic, _ = analytic_param_grads(h, None, X, y, spec)
            numeric, _ = fd_param_grads(h, None, X, y, spec)
            assert max_rel_error(analytic, numeric) < 1e-4


class TestFlatLayout:
    def test_weights_and_biases_are_views_of_params_in_layer_order(self):
        net = init_mlp(mlp_architecture(3, 4), seed=0)
        net.params[:] = np.arange(net.params.size)
        offset = 0
        for w, b in zip(net.weights, net.biases):
            for part in (w, b):
                assert np.array_equal(part.ravel(), np.arange(offset, offset + part.size))
                offset += part.size
        assert offset == net.params.size
        net.weights[1][2, 3] = -1.0
        net.biases[2][0] = -2.0
        # W_1[2, 3] follows W_0 (3 x 4) and b_0 (4), at row-major offset 2 * 4 + 3
        assert net.params[12 + 4 + 2 * 4 + 3] == -1.0
        assert net.params[-1] == -2.0

    def test_stacked_views_keep_the_model_axis(self):
        layers = mlp_architecture(3, 4)
        stack = np.arange(3 * 41, dtype=float).reshape(3, 41)
        views = _layer_views(stack, layers)
        for m in range(3):
            for (w, b), (w_m, b_m) in zip(views, _layer_views(stack[m], layers)):
                assert np.array_equal(w[m], w_m) and np.array_equal(b[m], b_m)
        assert all(np.shares_memory(w, stack) and np.shares_memory(b, stack) for w, b in views)

    def test_rebinding_a_layer_raises(self):
        net = init_mlp(mlp_architecture(3, 4), seed=0)
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((3, 4))
        with pytest.raises(TypeError):
            net.biases[0] = np.zeros(4)

    def test_backward_pairs_are_slices_of_one_flat_gradient(self):
        net = init_mlp(mlp_architecture(3, 4), seed=1)
        grads = backward(net, np.random.default_rng(0).normal(size=(5, 3)), np.ones(5))
        flat = grads[0][0].base
        assert flat is not None and flat.shape == net.params.shape
        assert all(dw.base is flat and db.base is flat for dw, db in grads)
        assert np.array_equal(
            flat, np.concatenate([part.ravel() for pair in grads for part in pair]))


class TestTrain:
    def test_fits_a_constant(self, rng):
        X = rng.random((200, 3))
        y = np.full(200, 0.7)
        h = init_mlp(mlp_architecture(3, 4), seed=1)
        cfg = TrainConfig(max_epochs=150, patience=20, improvement_tolerance=1e-7)
        model, report = train(h, None, X, y, LossSpec("squared"), cfg, seed=5)
        assert np.abs(model.predict(X) - 0.7).max() <= 0.05
        assert report.epochs_run <= cfg.max_epochs

    def test_zero_epochs_returns_initial_weights(self, rng):
        X = rng.random((30, 2))
        y = rng.random(30)
        h = init_mlp(mlp_architecture(2, 4), seed=2)
        model, report = train(h, None, X, y, LossSpec("squared"), TrainConfig(max_epochs=0))
        assert report.epochs_run == 0
        assert report.stopped_early is False
        assert report.train_loss_trace == [] and report.val_loss_trace == []
        assert all(np.array_equal(a, b) for a, b in zip(model.h.weights, h.weights))

    def test_same_seed_bit_identical(self, rng):
        X = rng.random((80, 3))
        y = rng.random(80)
        h = init_mlp(mlp_architecture(3, 4), seed=9)
        alpha = init_mlp(mlp_architecture(3, 4, output_activation="relu"), seed=10)
        spec = LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1))
        m1, r1 = train(h, alpha, X, y, spec, TrainConfig(), seed=11)
        m2, r2 = train(h, alpha, X, y, spec, TrainConfig(), seed=11)
        assert r1.train_loss_trace == r2.train_loss_trace
        assert all(np.array_equal(a, b) for a, b in zip(m1.h.weights, m2.h.weights))
        assert all(np.array_equal(a, b) for a, b in zip(m1.alpha.weights, m2.alpha.weights))

    def test_trace_lengths_match_epochs(self, rng):
        X = rng.random((60, 2))
        y = rng.random(60)
        h = init_mlp(mlp_architecture(2, 4), seed=4)
        model, report = train(h, None, X, y, LossSpec("squared"), TrainConfig(), seed=1)
        assert len(report.train_loss_trace) == report.epochs_run
        assert len(report.val_loss_trace) == report.epochs_run
        if not report.stopped_early:
            assert report.epochs_run == 20

    def test_empty_data_rejected(self):
        h = init_mlp(mlp_architecture(2, 4), seed=4)
        with pytest.raises(ConfigError):
            train(h, None, np.empty((0, 2)), np.empty(0), LossSpec("squared"), TrainConfig())

    def test_batch_size_larger_than_training_split(self, rng):
        h = init_mlp(mlp_architecture(2, 4), seed=4)
        X = rng.random((10, 2))
        with pytest.raises(ConfigError):
            train(h, None, X, rng.random(10), LossSpec("squared"),
                  TrainConfig(batch_size=64))

    @pytest.mark.parametrize("with_alpha", [False, True])
    def test_diverging_fit_raises(self, rng, with_alpha):
        X = rng.random((60, 3))
        y = rng.random(60)
        h = init_mlp(mlp_architecture(3, 4), seed=4)
        alpha, spec = None, LossSpec("squared")
        if with_alpha:
            alpha = init_mlp(mlp_architecture(3, 4, output_activation="relu"), seed=5)
            spec = LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1))
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            train(h, alpha, X, y, spec, TrainConfig(learning_rate=1e300), seed=6)

    @pytest.mark.parametrize("field", ["learning_rate", "improvement_tolerance"])
    def test_nan_rate_rejected(self, field):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: float("nan")})

    def test_alpha_presence_must_match_loss(self, rng):
        X = rng.random((40, 2))
        y = rng.random(40)
        h = init_mlp(mlp_architecture(2, 4), seed=4)
        alpha = init_mlp(mlp_architecture(2, 4, output_activation="relu"), seed=5)
        with pytest.raises(ConfigError):
            train(h, None, X, y, LossSpec("ru", meta=MetaInfo(gamma=2.0, direction=0)),
                  TrainConfig())
        with pytest.raises(ConfigError):
            train(h, alpha, X, y, LossSpec("squared"), TrainConfig())

    @pytest.mark.parametrize("role, widths", [
        ("h", (2, 4, 1)), ("alpha", (2, 4, 1)), ("h", (3, 4, 2)), ("alpha", (3, 4, 2)),
        ("alpha", (3, 8, 1)),
    ], ids=["h_input", "alpha_input", "h_output", "alpha_output", "alpha_hidden"])
    def test_network_widths_checked_up_front(self, rng, role, widths):
        # (input, hidden, output) widths of one network of a dRU fit on 3
        # features whose other network is 3 -> 4 -> 4 -> 1
        X = rng.random((40, 3))
        nets = {"h": mlp_architecture(3, 4), "alpha": mlp_architecture(3, 4, "relu")}
        in_width, hidden, out_width = widths
        nets[role] = (LayerSpec(in_width, hidden), LayerSpec(hidden, hidden),
                      LayerSpec(hidden, out_width, nets[role][-1].activation))
        h, alpha = (init_mlp(nets[name], seed=k) for k, name in enumerate(("h", "alpha")))
        spec = LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1))
        with pytest.raises(ShapeError, match=f"^{role} network"):
            train(h, alpha, X, rng.random(40), spec, TrainConfig(max_epochs=1))

    def test_dru_gamma_one_matches_squared_training(self, rng):
        # with gamma=1 the alpha terms vanish; h follows the same trajectory
        X = rng.random((100, 3))
        y = (rng.random(100) < 0.4).astype(float)
        h = init_mlp(mlp_architecture(3, 4), seed=21)
        alpha = init_mlp(mlp_architecture(3, 4, output_activation="relu"), seed=22)
        spec = LossSpec("dru", meta=MetaInfo(gamma=1.0, direction=1))
        dru_model, _ = train(h, alpha, X, y, spec, TrainConfig(), seed=23)
        plain_model, _ = train(h, None, X, y, LossSpec("squared"), TrainConfig(), seed=23)
        assert np.abs(dru_model.predict(X) - plain_model.predict(X)).max() < 1e-6


def reference_train(h, alpha, X, y, spec, cfg, seed):
    """`train` written out as a plain loop over one network pair: the seeded
    split and per-epoch shuffles, forward and backward passes of each MLP,
    Adam in its operation order, and the best-epoch snapshot."""
    nets = [h.copy()] + ([alpha.copy()] if alpha is not None else [])
    moments = [(np.zeros_like(net.params), np.zeros_like(net.params)) for net in nets]
    rng = np.random.default_rng(seed)
    n_val, n_train = split_sizes(len(y), cfg.validation_fraction)
    order = rng.permutation(len(y))
    val, fit_rows = order[:n_val], order[n_val:]

    def outputs(rows):
        out = [_forward_cached(net, X[rows])[0][:, 0] for net in nets]
        return out[0], out[1] if alpha is not None else np.zeros(len(rows))

    best = [net.params.copy() for net in nets]
    best_val, flat, steps, stopped = np.inf, 0, 0, False
    train_trace, val_trace = [], []
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for _ in range(cfg.max_epochs):
        shuffled = fit_rows[rng.permutation(n_train)]
        total = 0.0
        for start in range(0, n_train, cfg.batch_size):
            rows = shuffled[start:start + cfg.batch_size]
            z, a = outputs(rows)
            total += np.add.reduce(loss_value(spec, z, a, y[rows]))
            steps += 1
            corr1, corr2 = 1.0 - b1 ** steps, 1.0 - b2 ** steps
            for net, (m, v), dout in zip(nets, moments, loss_gradients(spec, z, a, y[rows])):
                grads = backward(net, X[rows], dout * (1.0 / len(rows)))
                grad = np.concatenate([part.ravel() for pair in grads for part in pair])
                m *= b1
                m += (1.0 - b1) * grad
                v *= b2
                v += (1.0 - b2) * grad * grad
                net.params -= cfg.learning_rate * (m / corr1) / (np.sqrt(v / corr2)
                                                                 + cfg.adam_epsilon)
        train_trace.append(float(total / n_train))
        current = loss_value(spec, *outputs(val), y[val]).mean()
        val_trace.append(float(current))
        if current < best_val:
            best = [net.params.copy() for net in nets]
        flat = 0 if current < best_val - cfg.improvement_tolerance else flat + 1
        best_val = min(best_val, current)
        if flat >= cfg.patience:
            stopped = True
            break
    report = TrainReport(epochs_run=len(train_trace), train_loss_trace=train_trace,
                         val_loss_trace=val_trace, stopped_early=stopped)
    return best, report


@pytest.mark.parametrize("spec", [
    LossSpec("squared"),
    LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1)),
    LossSpec("dru", meta=MetaInfo(gamma=3.0, direction=-1)),
    LossSpec("pinball", pinball_p=0.3),
], ids=["squared", "dru_up", "dru_down", "pinball"])
def test_train_matches_a_reference_loop(rng, spec):
    # 60 rows leave 54 training rows, so every epoch ends on a partial batch
    X = rng.random((60, 3))
    y = (rng.random(60) < 0.4).astype(float)
    h = init_mlp(mlp_architecture(3, 4), seed=31)
    alpha = init_mlp(mlp_architecture(3, 4, "relu"), seed=32) if spec.needs_alpha else None
    cfg = TrainConfig(max_epochs=3, patience=2)
    model, report = train(h, alpha, X, y, spec, cfg, seed=33)
    best, ref_report = reference_train(h, alpha, X, y, spec, cfg, seed=33)
    trained = [model.h] + ([model.alpha] if alpha is not None else [])
    assert [net.params.tobytes() for net in trained] == [params.tobytes() for params in best]
    assert report == ref_report


STACK_LOSSES = [
    (LossSpec("squared"), 4),
    (LossSpec("squared"), 8),
    (LossSpec("ru", meta=MetaInfo(gamma=1.8, direction=0)), 4),
    (LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1)), 4),
    (LossSpec("dru", meta=MetaInfo(gamma=3.0, direction=-1)), 4),
    (LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1)), 8),
    (LossSpec("dru", meta=MetaInfo(gamma=1.0, direction=0)), 4),
    (LossSpec("pinball", pinball_p=0.3), 8),
    (LossSpec("pinball", pinball_p=0.7), 4),
]


class TestTrainStack:
    """Every fit of a stack trains bit for bit as a one-fit call would."""

    # 12 one-hot cells of two covariates (3 x 4 levels), 7 columns
    table = one_hot_encode(np.indices((3, 4)).reshape(2, -1).T, (3, 4))

    def make_fit(self, rng, loss, width, n=137, scale=1.0):
        seeds = rng.integers(2**31, size=3)
        h = init_mlp(mlp_architecture(7, width), seed=int(seeds[0]))
        alpha = None
        if loss.needs_alpha:
            alpha = init_mlp(mlp_architecture(7, width, output_activation="relu"),
                             seed=int(seeds[1]))
        rows = rng.integers(0, len(self.table), size=n)
        targets = (rng.random(n) < 0.2 + 0.05 * rows).astype(float) * scale
        return Fit(h, alpha, rows, targets, loss, int(seeds[2]))

    def solo(self, fit, cfg):
        return train(fit.h, fit.alpha, self.table[fit.rows], fit.targets, fit.loss, cfg,
                     seed=fit.seed)

    @staticmethod
    def assert_same(stacked, solo):
        (model, report), (solo_model, solo_report) = stacked, solo
        assert model.h.params.tobytes() == solo_model.h.params.tobytes()
        if solo_model.alpha is None:
            assert model.alpha is None
        else:
            assert model.alpha.params.tobytes() == solo_model.alpha.params.tobytes()
        assert model.to_json() == solo_model.to_json()
        assert report == solo_report

    def test_mixed_stack_matches_one_fit_calls(self, rng):
        # two fits per loss and width, so stacks hold several models that
        # stop at different epochs, plus one fit with its own row count;
        # 137 rows leave 123 training rows, so every epoch ends on a partial batch
        fits = [self.make_fit(rng, loss, width) for loss, width in STACK_LOSSES * 2]
        fits.append(self.make_fit(rng, *STACK_LOSSES[3], n=90))
        cfg = TrainConfig(max_epochs=25, patience=2)
        outcomes = train_stack(self.table, fits, cfg)
        reports = [report for _, report in outcomes]
        assert len({r.epochs_run for r in reports}) > 3
        assert any(r.stopped_early for r in reports)
        for fit, outcome in zip(fits, outcomes):
            self.assert_same(outcome, self.solo(fit, cfg))

    def test_diverging_fit_fails_alone(self, rng):
        loss = LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1))
        fits = [self.make_fit(rng, loss, 4) for _ in range(3)]
        fits[1] = self.make_fit(rng, loss, 4, scale=1e200)
        cfg = TrainConfig(max_epochs=6, patience=6)
        with np.errstate(all="ignore"):
            outcomes = train_stack(self.table, fits, cfg)
            with pytest.raises(NumericError, match="training loss in epoch 1") as solo_error:
                self.solo(fits[1], cfg)
        assert isinstance(outcomes[1], NumericError)
        assert str(outcomes[1]) == str(solo_error.value)
        for k in (0, 2):
            self.assert_same(outcomes[k], self.solo(fits[k], cfg))

    @pytest.mark.parametrize("loss", [
        LossSpec("squared"), LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1)),
    ], ids=["squared", "dru"])
    def test_non_finite_validation_row_fails_alone(self, rng, loss):
        # an infinite feature row that only the validation split reads; the
        # dRU fits train h and alpha as the two rows of one stack
        table = np.vstack([self.table, np.full(7, np.inf)])
        fits = [self.make_fit(rng, loss, 4) for _ in range(3)]
        bad = fits[1]
        cfg = TrainConfig(max_epochs=4, patience=4)
        n_val, _ = split_sizes(137, cfg.validation_fraction)
        val_positions = np.random.default_rng(bad.seed).permutation(137)[:n_val]
        rows = bad.rows.copy()
        rows[val_positions] = len(self.table)
        fits[1] = replace(bad, rows=rows)
        with np.errstate(all="ignore"):
            outcomes = train_stack(table, fits, cfg)
        assert isinstance(outcomes[1], NumericError)
        assert str(outcomes[1]) == "non-finite activation in layer 0"
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="layer 0"):
            train(bad.h, bad.alpha, table[rows], bad.targets, loss, cfg, seed=bad.seed)
        for k in (0, 2):
            self.assert_same(outcomes[k], self.solo(fits[k], cfg))


class TestSerialization:
    def test_model_json_round_trip(self, rng):
        X = rng.random((50, 2))
        y = rng.random(50)
        h = init_mlp(mlp_architecture(2, 4), seed=6)
        alpha = init_mlp(mlp_architecture(2, 4, output_activation="relu"), seed=7)
        spec = LossSpec("ru", meta=MetaInfo(gamma=1.8, direction=0))
        model, _ = train(h, alpha, X, y, spec, TrainConfig(max_epochs=2), seed=8)
        from drureg.nn import TrainedModel

        restored = TrainedModel.from_json(model.to_json())
        assert np.array_equal(restored.predict(X), model.predict(X))
        assert np.array_equal(forward_batch(restored.alpha, X), forward_batch(model.alpha, X))
        assert restored.loss == spec


class TestOneHot:
    def test_blocks(self):
        X = np.array([[0, 2], [1, 0]])
        out = one_hot_encode(X, (2, 3))
        assert out.shape == (2, 5)
        assert np.array_equal(out[0], [1, 0, 0, 0, 1])
        assert np.array_equal(out[1], [0, 1, 1, 0, 0])

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(ShapeError):
            one_hot_encode(np.array([[3]]), (2,))
