from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import analytic_param_grads, fd_param_grads, max_rel_error, sample_smooth_instance
from drureg import harness, nn
from drureg.config import (
    bias_spec_from_config,
    population_spec_from_config,
    sweep_config_from_config,
    train_config_from_config,
    validate_config,
)
from drureg.errors import ConfigError, NumericError, ShapeError
from drureg.harness import run_sweep
from drureg.losses import LossSpec, MetaInfo, loss_gradients, loss_value
from drureg.nn import (
    MLP,
    Fit,
    LayerSpec,
    TrainConfig,
    TrainReport,
    _forward_cached,
    backward,
    forward_batch,
    init_mlp,
    init_networks,
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

    def test_group_buffer_is_layer_major_and_owner_reads_back_each_network(self):
        # fits on tables of 7 and 8 columns at widths 4 and 8: two families,
        # each with a layer-0 run per table
        dru = LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1))
        fits = []
        for k, (counts, width, loss) in enumerate([((3, 4), 4, dru), ((3, 3, 2), 8, dru),
                                                   ((3, 4), 8, LossSpec("squared")),
                                                   ((3, 3, 2), 4, dru)]):
            table = one_hot_encode(np.indices(counts).reshape(len(counts), -1).T, counts)
            h, alpha = init_networks(table.shape[1], width, loss, 2 * k, 2 * k + 1)
            fits.append(Fit(h, alpha, table, np.arange(40) % len(table), np.zeros(40), loss, k))
        group = nn._Lockstep(fits, TrainConfig())
        nets = [net for family in group.families for net in family.nets]
        assert len(group.families) == 2 and len(nets) == 7
        layer = np.empty(group.params.size, dtype=int)
        for q, net in enumerate(nets):
            # a network's entries, read in buffer order, are its own params
            assert group.params[group.owner == q].tobytes() == net.params.tobytes()
            sizes = [(spec.input_width + 1) * spec.output_width for spec in net.layers]
            layer[group.owner == q] = np.repeat(np.arange(len(sizes)), sizes)
        assert (np.diff(layer) >= 0).all()  # layer by layer
        for family in group.families:
            for view in [*family.weights[0], *family.weights[1:], *family.biases]:
                assert view.base is group.params

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

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_data_rejected(self, n):
        # one row leaves no validation row to pick the best epoch by
        h = init_mlp(mlp_architecture(2, 4), seed=4)
        with pytest.raises(ConfigError, match="at least 2 rows"):
            train(h, None, np.zeros((n, 2)), np.zeros(n), LossSpec("squared"),
                  TrainConfig(batch_size=1))

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

    @pytest.mark.parametrize("direction", [1, 0])
    def test_dru_gamma_one_matches_squared_training(self, rng, direction):
        # with gamma=1 the dRU coefficients are 1, 0 and 0: the loss is the
        # squared loss bit for bit and alpha gets a zero gradient
        X = rng.random((100, 3))
        y = (rng.random(100) < 0.4).astype(float)
        h = init_mlp(mlp_architecture(3, 4), seed=21)
        alpha = init_mlp(mlp_architecture(3, 4, output_activation="relu"), seed=22)
        spec = LossSpec("dru", meta=MetaInfo(gamma=1.0, direction=direction))
        dru_model, dru_report = train(h, alpha, X, y, spec, TrainConfig(), seed=23)
        plain_model, plain_report = train(h, None, X, y, LossSpec("squared"), TrainConfig(),
                                          seed=23)
        assert dru_model.h.params.tobytes() == plain_model.h.params.tobytes()
        assert dru_model.alpha.params.tobytes() == alpha.params.tobytes()
        assert dru_report == plain_report


def reference_train(h, alpha, X, y, spec, cfg, seed):
    """`train` written out as a plain loop over one network pair: the seeded
    split and per-epoch shuffles, forward and backward passes of each MLP,
    Adam in its operation order, and the best-epoch snapshot."""
    nets = [h.copy()] + ([alpha.copy()] if alpha is not None else [])
    moments = [(np.zeros_like(net.params), np.zeros_like(net.params)) for net in nets]
    rng = np.random.default_rng(seed)
    n_val, n_train = split_sizes(len(y), cfg)
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
    # 18 one-hot cells of three covariates (3 x 3 x 2 levels), 8 columns
    wide = one_hot_encode(np.indices((3, 3, 2)).reshape(3, -1).T, (3, 3, 2))

    def make_fit(self, rng, loss, width, n=137, scale=1.0, table=None):
        table = self.table if table is None else table
        seeds = rng.integers(2**31, size=3)
        h = init_mlp(mlp_architecture(table.shape[1], width), seed=int(seeds[0]))
        alpha = None
        if loss.needs_alpha:
            alpha = init_mlp(mlp_architecture(table.shape[1], width, output_activation="relu"),
                             seed=int(seeds[1]))
        rows = rng.integers(0, len(table), size=n)
        targets = (rng.random(n) < 0.2 + 0.05 * rows).astype(float) * scale
        return Fit(h, alpha, table, rows, targets, loss, int(seeds[2]))

    def solo(self, fit, cfg):
        return train(fit.h, fit.alpha, fit.table[fit.rows], fit.targets, fit.loss, cfg,
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
        # stop at different epochs; 137 rows leave 123 training rows, so
        # every epoch ends on a partial batch
        fits = [self.make_fit(rng, loss, width) for loss, width in STACK_LOSSES * 2]
        cfg = TrainConfig(max_epochs=25, patience=2)
        outcomes = train_stack(fits, cfg)
        reports = [report for _, report in outcomes]
        assert len({r.epochs_run for r in reports}) > 3
        assert any(r.stopped_early for r in reports)
        for fit, outcome in zip(fits, outcomes):
            self.assert_same(outcome, self.solo(fit, cfg))

    def test_two_tables_and_two_widths_in_one_group(self, rng, monkeypatch):
        # every loss kind at widths 4 and 8 on tables of 7 and 8 columns,
        # interleaved, train as one group of two families
        groups = []

        class Counting(nn._Lockstep):
            def __init__(self, fits, cfg):
                groups.append(len(fits))
                super().__init__(fits, cfg)

        monkeypatch.setattr(nn, "_Lockstep", Counting)
        fits = [self.make_fit(rng, loss, width, table=table)
                for loss, width in STACK_LOSSES for table in (self.table, self.wide)]
        cfg = TrainConfig(max_epochs=12, patience=2)
        outcomes = train_stack(fits, cfg)
        assert groups == [len(fits)]
        assert {fit.loss.kind for fit in fits} == {"squared", "ru", "dru", "pinball"}
        for fit, outcome in zip(fits, outcomes):
            self.assert_same(outcome, self.solo(fit, cfg))

    def test_tables_of_one_shape_are_told_apart(self, rng):
        # the table and its rows reversed share a shape but not their rows;
        # keyed by width, the second table's fits would read the first's rows
        flipped = self.table[::-1].copy()
        dru = LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1))
        fits = [self.make_fit(rng, loss, 4, table=table)
                for loss in (dru, LossSpec("squared")) for table in (self.table, flipped)]
        cfg = TrainConfig(max_epochs=5, patience=5)
        outcomes = train_stack(fits, cfg)
        for fit, outcome in zip(fits, outcomes):
            self.assert_same(outcome, self.solo(fit, cfg))

    @pytest.mark.parametrize("kinds", [("dru", "dru", "dru"), ("dru", "squared", "dru", "squared")],
                             ids=["dru", "squared_among_dru"])
    def test_diverging_fit_fails_alone(self, rng, kinds):
        # fit 1 diverges; squared and dRU fits of one width train in one
        # group, with fits on a second table in the same call
        losses = {"dru": LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1)),
                  "squared": LossSpec("squared")}
        fits = [self.make_fit(rng, losses[kind], 4) for kind in kinds]
        fits[1] = self.make_fit(rng, losses[kinds[1]], 4, scale=1e200)
        fits += [self.make_fit(rng, losses[kind], 4, table=self.wide) for kind in kinds]
        cfg = TrainConfig(max_epochs=6, patience=6)
        with np.errstate(all="ignore"):
            outcomes = train_stack(fits, cfg)
            with pytest.raises(NumericError, match="training loss in epoch 1") as solo_error:
                self.solo(fits[1], cfg)
        assert isinstance(outcomes[1], NumericError)
        assert str(outcomes[1]) == str(solo_error.value)
        for k in range(len(fits)):
            if k != 1:
                self.assert_same(outcomes[k], self.solo(fits[k], cfg))

    def validated_on(self, fit, row, cfg):
        """`fit` with every validation row replaced by table row `row`."""
        n_val, _ = split_sizes(len(fit.rows), cfg)
        val_positions = np.random.default_rng(fit.seed).permutation(len(fit.rows))[:n_val]
        rows = fit.rows.copy()
        rows[val_positions] = row
        return replace(fit, rows=rows)

    @pytest.mark.parametrize("loss", [
        LossSpec("squared"), LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1)),
    ], ids=["squared", "dru"])
    def test_non_finite_validation_row_fails_alone(self, rng, loss):
        # an infinite feature row that only the validation split reads; the
        # dRU fits train h and alpha as networks of one stack, beside fits
        # on a second table
        table = np.vstack([self.table, np.full(7, np.inf)])
        fits = [replace(self.make_fit(rng, loss, 4), table=table) for _ in range(3)]
        cfg = TrainConfig(max_epochs=4, patience=4)
        fits[1] = bad = self.validated_on(fits[1], len(self.table), cfg)
        fits += [self.make_fit(rng, loss, 4, table=self.wide) for _ in range(2)]
        with np.errstate(all="ignore"):
            outcomes = train_stack(fits, cfg)
        assert isinstance(outcomes[1], NumericError)
        assert str(outcomes[1]) == "non-finite activation in layer 0"
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="layer 0"):
            self.solo(bad, cfg)
        for k in (0, 2, 3, 4):
            self.assert_same(outcomes[k], self.solo(fits[k], cfg))

    def test_non_finite_validation_names_h_layer_before_alpha_layer(self, rng):
        # a dRU fit among squared fits validates on a row of 1e300s: its
        # alpha overflows in layer 0, its h (positive first weights, then
        # 1e10) only in layer 1, and the error names h's layer
        table = np.vstack([self.table, np.full(7, 1e300)])
        dru = LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1))
        losses = [LossSpec("squared"), dru, dru, LossSpec("squared")]
        fits = [replace(self.make_fit(rng, loss, 4), table=table) for loss in losses]
        cfg = TrainConfig(max_epochs=4, patience=4)
        bad = self.validated_on(fits[1], len(self.table), cfg)
        bad.h.weights[0][:] = np.abs(bad.h.weights[0])
        bad.h.weights[1][:] = 1e10
        bad.alpha.weights[0][:] = 1e10
        fits[1] = bad
        with np.errstate(all="ignore"):
            outcomes = train_stack(fits, cfg)
            with pytest.raises(NumericError) as solo_error:
                self.solo(bad, cfg)
        assert str(outcomes[1]) == str(solo_error.value) == "non-finite activation in layer 1"
        for k in (0, 2, 3):
            self.assert_same(outcomes[k], self.solo(fits[k], cfg))

    @pytest.mark.parametrize("rows", [np.full(40, -1), np.full(40, 7), np.full(40, 1.0)],
                             ids=["negative", "past_the_end", "float"])
    def test_rows_outside_the_table_rejected_before_training(self, monkeypatch, rows):
        def no_training(*args):
            raise AssertionError("a group was trained")

        monkeypatch.setattr(nn, "_Lockstep", no_training)
        h = init_mlp(mlp_architecture(7, 4), seed=0)
        good, bad = (Fit(h, None, self.table[:3], r, np.zeros(40), LossSpec("squared"), seed=0)
                     for r in (np.zeros(40, dtype=int), rows))
        with pytest.raises(ShapeError, match="integer indices into the table's 3 rows"):
            train_stack([good, bad], TrainConfig(max_epochs=1))

    def test_fits_of_two_row_counts_rejected_before_training(self, rng, monkeypatch):
        def no_training(*args):
            raise AssertionError("a group was trained")

        monkeypatch.setattr(nn, "_Lockstep", no_training)
        fits = [self.make_fit(rng, LossSpec("squared"), 4, n=n) for n in (137, 137, 90)]
        with pytest.raises(ShapeError, match="share one row count, got 137 and 90"):
            train_stack(fits, TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("table", [np.zeros(5), np.zeros((2, 3, 7))], ids=["1d", "3d"])
    def test_table_that_is_not_2d_rejected_before_training(self, monkeypatch, table):
        def no_training(*args):
            raise AssertionError("a group was trained")

        monkeypatch.setattr(nn, "_Lockstep", no_training)
        h = init_mlp(mlp_architecture(7, 4), seed=0)
        good, bad = (Fit(h, None, t, np.zeros(40, dtype=int), np.zeros(40), LossSpec("squared"), 0)
                     for t in (self.table, table))
        with pytest.raises(ShapeError, match=rf"feature tables must be 2-D, got shape "
                                             rf"\({table.shape[0]},"):
            train_stack([good, bad, bad], TrainConfig(max_epochs=1))

    def test_desk_replicate_trains_as_one_group(self, monkeypatch):
        # the default methods plan, per covariate subset, 20 dRU and 5
        # squared fits of width 4 and 5 pinball fits of width 8: one group
        # holds both subsets' 60 fits
        groups = []

        class Counting(nn._Lockstep):
            def __init__(self, fits, cfg):
                groups.append(sorted(Counter((fit.loss.kind, fit.h.layers[0].output_width)
                                             for fit in fits).items()))
                super().__init__(fits, cfg)

        monkeypatch.setattr(nn, "_Lockstep", Counting)
        resolved = validate_config({
            "population": {"n_population": 5000}, "bias": {"n_sample": 300},
            "sweep": {"prev_sample_size": 2000}, "train": {"max_epochs": 1}})
        assert len(resolved["covariate_subsets"]) == 2
        result = run_sweep([population_spec_from_config(resolved, 7)],
                           [bias_spec_from_config(resolved, 8)], resolved["covariate_subsets"],
                           resolved["methods"], train_config_from_config(resolved),
                           sweep_config_from_config(resolved), base_seed=1)
        assert not result.failures and len(result.records) == 2 * 7 * 5
        assert groups == [[(("dru", 4), 40), (("pinball", 8), 10), (("squared", 4), 10)]]


class TestSplitSizes:
    @pytest.mark.parametrize("n, batch_size, message", [
        (0, 1, "training needs at least 2 rows, one of them to validate on; got 0"),
        (1, 1, "training needs at least 2 rows, one of them to validate on; got 1"),
        # 13 rows split into 1 validation and 12 training rows
        (13, 13, "batch_size 13 exceeds training-set size 12"),
    ])
    def test_train_stack_and_sweep_show_its_message(self, monkeypatch, n, batch_size, message):
        cfg = TrainConfig(batch_size=batch_size)
        h = init_mlp(mlp_architecture(2, 4), seed=0)
        fit = Fit(h, None, np.zeros((3, 2)), np.zeros(n, dtype=int), np.zeros(n),
                  LossSpec("squared"), seed=0)
        calls = [lambda: split_sizes(n, cfg),
                 lambda: train(h, None, np.zeros((n, 2)), np.zeros(n), LossSpec("squared"), cfg),
                 lambda: train_stack([fit, fit], cfg)]
        if n:  # a bias spec needs a row; the sweep checks before any replicate work
            resolved = validate_config({"population": {"n_population": 5000},
                                        "bias": {"n_sample": n}})
            monkeypatch.setattr(harness, "generate_population",
                                lambda spec: pytest.fail("a replicate was planned"))
            calls.append(lambda: run_sweep(
                [population_spec_from_config(resolved, 1)], [bias_spec_from_config(resolved, 2)],
                [["gender"]], ["nn_plain"], cfg))
        for call in calls:
            with pytest.raises(ConfigError) as error:
                call()
            assert str(error.value) == message


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
