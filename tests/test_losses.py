import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drureg.errors import ParameterError
from drureg.losses import (
    LossColumns,
    LossSpec,
    MetaInfo,
    dru_loss,
    loss_gradients,
    loss_value,
    pinball_loss,
    ru_loss,
    squared_loss,
)

finite = st.floats(min_value=-20, max_value=20, allow_nan=False)
nonneg = st.floats(min_value=0, max_value=50, allow_nan=False)
gammas = st.floats(min_value=1, max_value=10, allow_nan=False)


class TestSquared:
    def test_examples(self):
        assert squared_loss(2, 1) == 1.0
        assert squared_loss(3.7, 3.7) == 0.0
        assert squared_loss(0.5, -1.5) == 4.0


class TestRU:
    def test_gamma_one_collapses_to_squared(self):
        assert ru_loss(2, 0.7, 1, 1.0) == 1.0

    def test_hinge_active(self):
        # 0.5*1 + 0.5*0.5 + 1.5*(1 - 0.5) = 1.5
        assert ru_loss(2, 0.5, 1, 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_hinge_inactive(self):
        # 0.5*1 + 0.5*2 + 1.5*0 = 1.5
        assert ru_loss(2, 2.0, 1, 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_rejects_gamma_below_one(self):
        with pytest.raises(ParameterError):
            ru_loss(2, 0.5, 1, 0.9)


class TestDRU:
    def test_gamma_one_is_squared_pointwise(self, rng):
        z = rng.uniform(-10, 10, 10_000)
        a = rng.uniform(0, 5, 10_000)
        y = rng.uniform(-10, 10, 10_000)
        for d in (-1, 1):
            dev = np.abs(dru_loss(z, a, y, MetaInfo(gamma=1.0, direction=d)) - squared_loss(z, y))
            assert dev.max() < 1e-12

    def test_surcharge_side(self):
        meta = MetaInfo(gamma=2.0, direction=1)
        # y above the prediction: surcharge on. 0.5*1 + 1*0.5 + 1.5*(1-0.5) = 1.75
        assert dru_loss(2, 0.5, 3, meta) == pytest.approx(1.75, abs=1e-12)
        # y below the prediction: surcharge gated off. 0.5*1 + 1*0.5 = 1.0
        assert dru_loss(2, 0.5, 1, meta) == pytest.approx(1.0, abs=1e-12)

    def test_direction_none_needs_gamma_one(self):
        with pytest.raises(ParameterError):
            dru_loss(2, 0.5, 1, MetaInfo(gamma=2.0, direction=0))
        assert dru_loss(2, 0.5, 1, MetaInfo(gamma=1.0, direction=0)) == 1.0

    @given(z=finite, a=nonneg, y=finite, gamma=gammas)
    def test_reflection_symmetry(self, z, a, y, gamma):
        up = dru_loss(z, a, y, MetaInfo(gamma=gamma, direction=1))
        down = dru_loss(-z, a, -y, MetaInfo(gamma=gamma, direction=-1))
        assert up == pytest.approx(down, abs=1e-12, rel=1e-12)

    @given(z=finite, a=nonneg, y=finite, gamma=gammas)
    def test_dominates_scaled_squared(self, z, a, y, gamma):
        base = squared_loss(z, y) / gamma
        for d in (-1, 1):
            assert dru_loss(z, a, y, MetaInfo(gamma=gamma, direction=d)) >= base - 1e-12
        assert ru_loss(z, a, y, gamma) >= base - 1e-12

    def test_monotone_in_gamma_when_hinge_active(self):
        # surcharge side (direction=+1, y above z) with loss above the threshold
        z, a, y = 1.0, 0.5, 3.0
        grid = np.linspace(1.0, 10.0, 50)
        values = [dru_loss(z, a, y, MetaInfo(gamma=g, direction=1)) for g in grid]
        assert all(b >= a_ - 1e-12 for a_, b in zip(values, values[1:]))

    def test_midpoint_convexity_in_z(self, rng):
        specs = [
            LossSpec("squared"),
            LossSpec("ru", meta=MetaInfo(gamma=2.5, direction=0)),
            LossSpec("dru", meta=MetaInfo(gamma=2.5, direction=1)),
            LossSpec("dru", meta=MetaInfo(gamma=2.5, direction=-1)),
            LossSpec("pinball", pinball_p=0.8),
        ]
        z1 = rng.uniform(-5, 5, 1000)
        z2 = rng.uniform(-5, 5, 1000)
        a = rng.uniform(0, 4, 1000)
        y = rng.uniform(-5, 5, 1000)
        for spec in specs:
            mid = loss_value(spec, (z1 + z2) / 2, a, y)
            avg = (loss_value(spec, z1, a, y) + loss_value(spec, z2, a, y)) / 2
            assert (mid <= avg + 1e-12).all()


class TestPinball:
    def test_examples(self):
        assert pinball_loss(2, 1, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert pinball_loss(2, 1, 0.9) == pytest.approx(0.9, abs=1e-12)
        assert pinball_loss(1, 2, 0.9) == pytest.approx(0.1, abs=1e-12)
        assert pinball_loss(1.3, 1.3, 0.9) == 0.0

    def test_rejects_bad_p(self):
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ParameterError):
                pinball_loss(2, 1, p)


class TestGradients:
    def test_squared(self):
        dz, da = loss_gradients(LossSpec("squared"), 2.0, 0.0, 1.0)
        assert dz == 2.0 and da == 0.0

    def test_ru_hinge_active(self):
        spec = LossSpec("ru", meta=MetaInfo(gamma=2.0, direction=0))
        dz, da = loss_gradients(spec, 2.0, 0.5, 1.0)
        assert dz == pytest.approx(4.0, abs=1e-12)   # 0.5*2 + 1.5*2
        assert da == pytest.approx(-1.0, abs=1e-12)  # 0.5 - 1.5

    def test_dru_surcharge_on(self):
        spec = LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1))
        dz, da = loss_gradients(spec, 2.0, 0.5, 3.0)
        assert dz == pytest.approx(-4.0, abs=1e-12)  # 2*(z-y)*(0.5 + 1.5)
        assert da == pytest.approx(-0.5, abs=1e-12)  # 1 - 1.5

    def test_dru_surcharge_off(self):
        spec = LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1))
        dz, da = loss_gradients(spec, 2.0, 0.5, 1.0)
        assert dz == pytest.approx(1.0, abs=1e-12)   # 2*(z-y)*0.5
        assert da == pytest.approx(1.0, abs=1e-12)   # gamma - 1

    @settings(max_examples=60)
    @given(z=finite, a=nonneg, y=finite, gamma=gammas,
           kind=st.sampled_from(["squared", "ru", "dru", "pinball"]),
           direction=st.sampled_from([-1, 1]), p=st.floats(0.05, 0.95))
    def test_matches_finite_differences(self, z, a, y, gamma, kind, direction, p):
        if kind == "ru":
            spec = LossSpec("ru", meta=MetaInfo(gamma=gamma, direction=0))
        elif kind == "dru":
            spec = LossSpec("dru", meta=MetaInfo(gamma=gamma, direction=direction))
        elif kind == "pinball":
            spec = LossSpec("pinball", pinball_p=p)
        else:
            spec = LossSpec("squared")
        # keep clear of the kinks so the two-sided difference is exact
        if abs(z - y) < 1e-3 or abs((z - y) ** 2 - a) < 1e-3:
            return
        step = 1e-6
        dz, da = loss_gradients(spec, z, a, y)
        fd_z = (loss_value(spec, z + step, a, y) - loss_value(spec, z - step, a, y)) / (2 * step)
        assert dz == pytest.approx(fd_z, rel=1e-3, abs=1e-5)
        if spec.needs_alpha and abs((z - y) ** 2 - a) > 1e-3 and a > step:
            fd_a = (loss_value(spec, z, a + step, y) - loss_value(spec, z, a - step, y)) / (2 * step)
            assert da == pytest.approx(fd_a, rel=1e-3, abs=1e-5)


class TestSpecValidation:
    def test_ru_requires_meta(self):
        with pytest.raises(ParameterError):
            LossSpec("ru")

    def test_dru_direction_none_with_large_gamma(self):
        with pytest.raises(ParameterError):
            LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=0))

    def test_pinball_requires_p(self):
        with pytest.raises(ParameterError):
            LossSpec("pinball")

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            LossSpec("absolute")

    @pytest.mark.parametrize("build, message", [
        (lambda: LossSpec("squared", meta=MetaInfo(gamma=2.0, direction=1)),
         "loss kind 'squared' does not take meta"),
        (lambda: LossSpec("dru", meta=MetaInfo(gamma=2.0, direction=1), pinball_p=0.5),
         "loss kind 'dru' does not take pinball_p"),
        (lambda: LossColumns.of([LossSpec("squared"), LossSpec("pinball", pinball_p=0.5)]),
         r"stacked losses need one kind, got \['pinball', 'squared'\]"),
    ], ids=["meta_on_squared", "pinball_p_on_dru", "mixed_kinds_in_one_stack"])
    def test_parameter_the_kind_does_not_take_rejected(self, build, message):
        with pytest.raises(ParameterError, match=message):
            build()

    def test_meta_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            MetaInfo(gamma=0.5, direction=1)
        with pytest.raises(ParameterError):
            MetaInfo(gamma=2.0, direction=2)
