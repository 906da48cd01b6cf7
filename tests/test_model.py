import numpy as np
import pytest

from parma import (
    ModelValidationError,
    PeriodicModel,
    SeasonClock,
    is_constant,
    validate,
    violations,
)
from parma.model import (
    NON_FINITE_COEFFICIENT,
    NON_POSITIVE_VARIANCE,
    SHAPE_MISMATCH,
)

from conftest import random_model


def par14(phi=(0.9, 0.8, 0.7, 0.6), sigma2=(1.0, 1.0, 1.0, 1.0)):
    return PeriodicModel(l=4, p=1, q=0, drift=np.zeros(4), ar=[list(phi)],
                         ma=[], sigma2=list(sigma2))


class TestSeasonClock:
    @pytest.mark.parametrize("t,l,expected", [
        (7, 4, (1, 3)),
        (4, 4, (0, 4)),   # multiples of l sit in season l, not season 0
        (-1, 4, (-1, 3)),
        (1, 1, (0, 1)),
        (0, 4, (-1, 4)),
    ])
    def test_decompose(self, t, l, expected):
        clock = SeasonClock(l)
        assert clock.decompose(t) == expected

    def test_roundtrip_including_negatives(self, rng):
        for _ in range(200):
            l = int(rng.integers(1, 13))
            t = int(rng.integers(-10_000, 10_000))
            clock = SeasonClock(l)
            period, season = clock.decompose(t)
            assert 1 <= season <= l
            assert period * l + season == t
            assert clock.compose(period, season) == t
            assert clock.season(t) == clock.season(t + l)

    def test_rejects_bad_period_length(self):
        with pytest.raises(ValueError, match="period length"):
            SeasonClock(0)

    def test_compose_rejects_out_of_range_season(self):
        clock = SeasonClock(4)
        with pytest.raises(ValueError, match="season"):
            clock.compose(0, 5)
        with pytest.raises(ValueError, match="season"):
            clock.compose(0, 0)


class TestValidate:
    def test_valid_par14_passes(self):
        model = par14()
        assert validate(model) is model
        assert violations(model) == []

    def test_zero_variance_rejected(self):
        model = par14(sigma2=(1.0, 0.0, 1.0, 1.0))
        found = violations(model)
        assert [v.kind for v in found] == [NON_POSITIVE_VARIANCE]
        assert "season(s): 2" in found[0].message
        with pytest.raises(ModelValidationError):
            validate(model)

    def test_wrong_ar_width_rejected(self):
        model = PeriodicModel(l=4, p=1, q=0, drift=np.zeros(4),
                              ar=[[0.5, 0.5, 0.5]], ma=[], sigma2=np.ones(4))
        kinds = [v.kind for v in violations(model)]
        assert kinds == [SHAPE_MISMATCH]

    def test_nan_coefficient_rejected(self):
        model = par14(phi=(0.9, np.nan, 0.7, 0.6))
        kinds = [v.kind for v in violations(model)]
        assert NON_FINITE_COEFFICIENT in kinds

    def test_all_violations_reported_together(self):
        model = PeriodicModel(l=2, p=1, q=0, drift=[0.0, 0.0],
                              ar=[[np.inf, 0.2]], ma=[], sigma2=[-1.0, 1.0])
        kinds = {v.kind for v in violations(model)}
        assert kinds == {NON_FINITE_COEFFICIENT, NON_POSITIVE_VARIANCE}

    def test_pure_noise_model_is_valid(self):
        model = PeriodicModel(l=3, p=0, q=0, drift=np.ones(3), ar=[], ma=[],
                              sigma2=np.ones(3))
        assert violations(model) == []

    def test_random_valid_models_pass(self, rng):
        for _ in range(100):
            assert violations(random_model(rng)) == []

    def test_bad_orders_reported(self):
        model = PeriodicModel(l=2, p=-1, q=0, drift=[0.0, 0.0], ar=[], ma=[],
                              sigma2=[1.0, 1.0])
        assert [v.kind for v in violations(model)] == [SHAPE_MISMATCH]

    @pytest.mark.parametrize("field", ["l", "p", "q"])
    def test_bool_orders_rejected(self, field):
        shape = dict(l=1, p=1, q=1)
        shape[field] = True
        model = PeriodicModel(**shape, drift=[0.0], ar=[[0.5]], ma=[[0.2]],
                              sigma2=[1.0])
        found = violations(model)
        assert [v.kind for v in found] == [SHAPE_MISMATCH]
        assert "got True" in found[0].message

    @pytest.mark.parametrize("shape", [
        dict(l=True, p=1, q=0, drift=[0.0], ar=[[0.5]]),
        dict(l=2.5, p=0, q=0, drift=[0.0, 0.0], ar=[]),
    ])
    def test_bad_order_with_empty_table_is_a_violation(self, shape):
        # an empty coefficient table must not be shaped from a bad order
        model = PeriodicModel(**shape, ma=[], sigma2=[1.0] * len(shape["drift"]))
        with pytest.raises(ModelValidationError) as err:
            validate(model)
        assert [v.kind for v in err.value.violations] == [SHAPE_MISMATCH]
        assert f"got {shape['l']!r}" in str(err.value)

    def test_bad_period_length_short_circuits(self):
        model = PeriodicModel(l=0, p=0, q=0, drift=[], ar=[], ma=[],
                              sigma2=[])
        found = violations(model)
        assert len(found) == 1 and "period length" in found[0].message


class TestIsConstant:
    def test_constant_ar2(self):
        assert is_constant(PeriodicModel.constant(ar=[0.4, 0.2], l=4))

    def test_varying_par14(self):
        assert not is_constant(par14(phi=(0.9, 0.8, 0.9, 0.9)))

    def test_single_season_is_vacuously_constant(self):
        assert is_constant(PeriodicModel.constant(ar=[0.3], ma=[0.1], l=1))

    def test_varying_sigma_only(self):
        assert not is_constant(par14(phi=(0.5,) * 4, sigma2=(1.0, 2.0, 1.0, 1.0)))


class TestCoefficientView:
    def test_periodicity_is_exact(self, rng):
        model = random_model(rng, p=3, q=2, l=5)
        view = model.view()
        for t in range(-20, 21):
            for m in range(1, model.p + 1):
                assert view.ar(m, t) == view.ar(m, t + model.l)
                assert view.ar(m, t) == view.ar(m, t - 7 * model.l)
            for j in range(1, model.q + 1):
                assert view.ma(j, t) == view.ma(j, t + model.l)
            assert view.drift(t) == view.drift(t + model.l)
            assert view.sigma2(t) == view.sigma2(t + model.l)

    def test_season_lookup_matches_tables(self):
        model = par14()
        view = model.view()
        # t = 6 is season 2 for l = 4
        assert view.ar(1, 6) == model.ar[0, 1]

    def test_out_of_range_lag_is_contract_violation(self):
        view = par14().view()
        with pytest.raises(IndexError):
            view.ar(2, 0)
        with pytest.raises(IndexError):
            view.ma(1, 0)

    def test_arrays_are_read_only(self):
        model = par14()
        with pytest.raises(ValueError):
            model.ar[0, 0] = 0.0
