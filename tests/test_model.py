import copy
import pickle

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import parma.model
from parma import (
    ForecastOrigin,
    ModelValidationError,
    PeriodicModel,
    SeasonClock,
    SimPlan,
    build_vsform,
    moment_profile,
    predict,
    simulate,
    validate,
    violations,
)
from parma.model import (
    NON_FINITE_COEFFICIENT,
    NON_POSITIVE_VARIANCE,
    SHAPE_MISMATCH,
)

from conftest import random_model


def par14_args(phi=(0.9, 0.8, 0.7, 0.6), sigma2=(1.0, 1.0, 1.0, 1.0)):
    return dict(l=4, p=1, q=0, drift=np.zeros(4), ar=[list(phi)], ma=[],
                sigma2=list(sigma2))


def par14(**kwargs):
    return PeriodicModel(**par14_args(**kwargs))


class TestSeasonClock:
    @pytest.mark.parametrize("t,l,expected", [
        (7, 4, (1, 3)),
        (4, 4, (0, 4)),   # multiples of l sit in season l, not season 0
        (-1, 4, (-1, 3)),
        (1, 1, (0, 1)),
        (0, 4, (-1, 4)),
    ])
    def test_decompose(self, t, l, expected):
        period, season = expected
        assert SeasonClock(l).season(t) == season
        assert period * l + season == t

    def test_roundtrip_including_negatives(self, rng):
        for _ in range(200):
            l = int(rng.integers(1, 13))
            t = int(rng.integers(-10_000, 10_000))
            clock = SeasonClock(l)
            season = clock.season(t)
            assert 1 <= season <= l
            assert (t - season) % l == 0
            assert clock.season0(t) == season - 1
            assert clock.season(t) == clock.season(t + l)

    def test_rejects_bad_period_length(self):
        with pytest.raises(ValueError, match="period length"):
            SeasonClock(0)


def refused(**kwargs):
    """The violations a model built from ``kwargs`` is refused with."""
    with pytest.raises(ModelValidationError) as err:
        PeriodicModel(**kwargs)
    return err.value.violations


class TestValidate:
    def test_valid_par14_passes(self):
        model = par14()
        assert validate(model) is model
        assert violations(model) == []

    def test_zero_variance_rejected(self):
        found = refused(**par14_args(sigma2=(1.0, 0.0, 1.0, 1.0)))
        assert [v.kind for v in found] == [NON_POSITIVE_VARIANCE]
        assert "season(s): 2" in found[0].message

    def test_wrong_ar_width_rejected(self):
        found = refused(l=4, p=1, q=0, drift=np.zeros(4), ar=[[0.5, 0.5, 0.5]],
                        ma=[], sigma2=np.ones(4))
        assert [v.kind for v in found] == [SHAPE_MISMATCH]

    def test_nan_coefficient_rejected(self):
        found = refused(**par14_args(phi=(0.9, np.nan, 0.7, 0.6)))
        assert NON_FINITE_COEFFICIENT in [v.kind for v in found]

    def test_all_violations_reported_together(self):
        found = refused(l=2, p=1, q=0, drift=[0.0, 0.0], ar=[[np.inf, 0.2]], ma=[],
                        sigma2=[-1.0, 1.0])
        assert {v.kind for v in found} == {NON_FINITE_COEFFICIENT, NON_POSITIVE_VARIANCE}

    def test_pure_noise_model_is_valid(self):
        model = PeriodicModel(l=3, p=0, q=0, drift=np.ones(3), ar=[], ma=[],
                              sigma2=np.ones(3))
        assert violations(model) == []

    def test_random_valid_models_pass(self, rng):
        for _ in range(100):
            assert violations(random_model(rng)) == []

    def test_bad_orders_reported(self):
        found = refused(l=2, p=-1, q=0, drift=[0.0, 0.0], ar=[], ma=[], sigma2=[1.0, 1.0])
        assert [v.kind for v in found] == [SHAPE_MISMATCH]

    @pytest.mark.parametrize("field", ["l", "p", "q"])
    def test_bool_orders_rejected(self, field):
        shape = dict(l=1, p=1, q=1)
        shape[field] = True
        found = refused(**shape, drift=[0.0], ar=[[0.5]], ma=[[0.2]], sigma2=[1.0])
        assert [v.kind for v in found] == [SHAPE_MISMATCH]
        assert "got True" in found[0].message

    @pytest.mark.parametrize("shape", [
        dict(l=True, p=1, q=0, drift=[0.0], ar=[[0.5]]),
        dict(l=2.5, p=0, q=0, drift=[0.0, 0.0], ar=[]),
    ])
    def test_bad_order_with_empty_table_is_a_violation(self, shape):
        # an empty coefficient table must not be shaped from a bad order
        found = refused(**shape, ma=[], sigma2=[1.0] * len(shape["drift"]))
        assert [v.kind for v in found] == [SHAPE_MISMATCH]
        assert f"got {shape['l']!r}" in found[0].message

    def test_bad_period_length_short_circuits(self):
        found = refused(l=0, p=0, q=0, drift=[], ar=[], ma=[], sigma2=[])
        assert len(found) == 1 and "period length" in found[0].message

    def test_inputs_are_copied(self):
        # the model owns its arrays: the caller's, views included, stay writable
        # and writing to them leaves the checked model as it was
        base = np.array([[0.9, 0.8, 0.7, 0.6], [0.1, 0.2, 0.3, 0.4]])
        drift, sigma2 = np.zeros(4), np.ones(4)
        model = PeriodicModel(l=4, p=1, q=1, drift=drift, ar=base[:1], ma=base[1:],
                              sigma2=sigma2)
        base[:] = np.nan
        drift[0] = np.inf
        sigma2[1] = 0.0
        assert_array_equal(model.ar, [[0.9, 0.8, 0.7, 0.6]])
        assert_array_equal(model.ma, [[0.1, 0.2, 0.3, 0.4]])
        assert_array_equal(model.drift, np.zeros(4))
        assert_array_equal(model.sigma2, np.ones(4))
        assert violations(model) == []

    def test_entry_points_do_not_check_again(self, monkeypatch):
        calls = []
        real = parma.model.validate
        monkeypatch.setattr(parma.model, "validate", lambda m: calls.append(m) or real(m))
        model = PeriodicModel(l=4, p=2, q=1, drift=[0.1, 0.2, 0.3, 0.4],
                              ar=[[0.5, 0.4, 0.3, 0.2], [0.1, -0.1, 0.1, -0.1]],
                              ma=[[0.3, 0.2, 0.1, 0.0]], sigma2=[1.0, 2.0, 1.0, 0.5])
        assert calls == [model]  # the check runs once, when the model is built
        calls.clear()
        predict(model, ForecastOrigin(time=3, tail=[1.0, 0.5], innovations=[0.2]), 14)
        moment_profile(model)
        simulate(SimPlan(model, length=20, seed=1))
        build_vsform(model)
        assert calls == []


class TestCoefficientView:
    """The season-indexed coefficient arrays, read at time ``t`` in column ``(t - 1) % l``."""

    def test_periodicity_is_exact(self, rng):
        model = random_model(rng, p=3, q=2, l=5)
        for t in range(-20, 21):
            s0, *shifted = (model.clock.season0(u) for u in (t, t + model.l, t - 7 * model.l))
            for name in ("drift", "ar", "ma", "sigma2"):
                arr = getattr(model, name)
                for col in shifted:
                    assert np.array_equal(arr[..., col], arr[..., s0])

    def test_season_lookup_matches_tables(self):
        model = par14()
        # t = 6 is season 2 for l = 4
        assert model.ar[0, model.clock.season0(6)] == model.ar[0, 1] == 0.8

    def test_arrays_are_read_only(self):
        model = par14()
        with pytest.raises(ValueError):
            model.ar[0, 0] = 0.0

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_read_only(self, clone):
        model = par14()
        twin = clone(model)
        assert (twin.l, twin.p, twin.q, twin.clock) == (model.l, model.p, model.q, model.clock)
        for name in ("drift", "ar", "ma", "sigma2"):
            assert_array_equal(getattr(twin, name), getattr(model, name))
            assert not getattr(twin, name).flags.writeable
