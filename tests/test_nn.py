import numpy as np
import pytest

from conftest import analytic_param_grads, fd_param_grads, max_rel_error, sample_smooth_instance
from drureg.errors import ConfigError, NumericError, ShapeError
from drureg.losses import LossSpec, MetaInfo
from drureg.nn import (
    MLP,
    LayerSpec,
    TrainConfig,
    backward,
    forward,
    forward_batch,
    init_mlp,
    mlp_architecture,
    one_hot_encode,
    train,
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
        assert forward(net, [1.0, -2.0, 0.5]) == 0.0

    def test_identity_single_layer(self):
        net = single_layer([1.0], 0.0)
        assert forward(net, [3.0]) == 3.0

    def test_relu_affine_layer(self):
        net = single_layer([1.0, -1.0], 0.5, activation="relu")
        assert forward(net, [0.2, 0.9]) == 0.0   # relu(0.2 - 0.9 + 0.5)
        assert forward(net, [0.9, 0.2]) == pytest.approx(1.2, abs=1e-15)

    def test_dimension_mismatch(self):
        net = single_layer([1.0, -1.0], 0.5)
        with pytest.raises(ShapeError):
            forward(net, [1.0, 2.0, 3.0])

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
        assert forward(net, x) == forward(net, x)


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
        cfg = TrainConfig(max_epochs=150, patience=20, improvement_tolerance=1e-7, seed=5)
        model, report = train(h, None, X, y, LossSpec("squared"), cfg)
        assert np.abs(model.predict(X) - 0.7).max() <= 0.05
        assert report.epochs_run <= cfg.max_epochs

    def test_zero_epochs_returns_initial_weights(self, rng):
        X = rng.random((30, 2))
        y = rng.random(30)
        h = init_mlp(mlp_architecture(2, 4), seed=2)
        model, report = train(h, None, X, y, LossSpec("squared"),
                              TrainConfig(max_epochs=0, seed=0))
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
        cfg = TrainConfig(seed=11)
        m1, r1 = train(h, alpha, X, y, spec, cfg)
        m2, r2 = train(h, alpha, X, y, spec, cfg)
        assert r1.train_loss_trace == r2.train_loss_trace
        assert all(np.array_equal(a, b) for a, b in zip(m1.h.weights, m2.h.weights))
        assert all(np.array_equal(a, b) for a, b in zip(m1.alpha.weights, m2.alpha.weights))

    def test_trace_lengths_match_epochs(self, rng):
        X = rng.random((60, 2))
        y = rng.random(60)
        h = init_mlp(mlp_architecture(2, 4), seed=4)
        model, report = train(h, None, X, y, LossSpec("squared"), TrainConfig(seed=1))
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
            train(h, alpha, X, y, spec, TrainConfig(learning_rate=1e300, seed=6))

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

    def test_dru_gamma_one_matches_squared_training(self, rng):
        # with gamma=1 the alpha terms vanish; h follows the same trajectory
        X = rng.random((100, 3))
        y = (rng.random(100) < 0.4).astype(float)
        h = init_mlp(mlp_architecture(3, 4), seed=21)
        alpha = init_mlp(mlp_architecture(3, 4, output_activation="relu"), seed=22)
        cfg = TrainConfig(seed=23)
        dru_model, _ = train(h, alpha, X, y,
                             LossSpec("dru", meta=MetaInfo(gamma=1.0, direction=1)), cfg)
        plain_model, _ = train(h, None, X, y, LossSpec("squared"), cfg)
        assert np.abs(dru_model.predict(X) - plain_model.predict(X)).max() < 1e-6


class TestSerialization:
    def test_model_json_round_trip(self, rng):
        X = rng.random((50, 2))
        y = rng.random(50)
        h = init_mlp(mlp_architecture(2, 4), seed=6)
        alpha = init_mlp(mlp_architecture(2, 4, output_activation="relu"), seed=7)
        spec = LossSpec("ru", meta=MetaInfo(gamma=1.8, direction=0))
        model, _ = train(h, alpha, X, y, spec, TrainConfig(max_epochs=2, seed=8))
        from drureg.nn import TrainedModel

        restored = TrainedModel.from_json(model.to_json())
        assert np.array_equal(restored.predict(X), model.predict(X))
        assert np.array_equal(restored.predict_alpha(X), model.predict_alpha(X))
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
