import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from parma import (
    ForecastOrigin,
    MissingInnovationTailError,
    NonFiniteForecastError,
    PeriodicModel,
    SolutionInput,
    direct_recursion,
    error_weights,
    green_coefficients,
    mse_profile,
    predict,
)

from conftest import naive_error_weights, naive_known_weights, random_model


def par12(phi1=0.5, phi2=0.8, sigma2=(1.0, 1.0)):
    return PeriodicModel(l=2, p=1, q=0, drift=np.zeros(2),
                         ar=[[phi1, phi2]], ma=[], sigma2=list(sigma2))


class TestPredictContracts:
    def test_missing_innovations_raises(self, rng):
        model = random_model(rng, p=1, q=1)
        with pytest.raises(MissingInnovationTailError, match="innovations"):
            predict(model, ForecastOrigin(time=0, tail=[1.0]), 4)

    def test_wrong_tail_length(self, rng):
        model = random_model(rng, p=2, q=0)
        with pytest.raises(ValueError, match="tail"):
            predict(model, ForecastOrigin(time=0, tail=[1.0]), 4)

    def test_horizon_must_be_positive(self, rng):
        model = random_model(rng, p=1, q=0)
        with pytest.raises(ValueError, match="max_horizon"):
            predict(model, ForecastOrigin(time=0, tail=[1.0]), 0)

    def test_wrong_innovation_tail_length(self, rng):
        model = random_model(rng, p=1, q=2)
        origin = ForecastOrigin(time=0, tail=[1.0], innovations=[0.5])
        with pytest.raises(ValueError, match="q=2"):
            predict(model, origin, 4)


class TestNonFiniteForecasts:
    """Overflowed or NaN forecasts raise instead of returning plausible rows."""

    def test_explosive_forecast_names_first_horizon(self):
        # phi = 3: the MSE overflows to inf at horizon 324, the point to nan at 647
        model = PeriodicModel.constant(ar=[3.0], l=4)
        origin = ForecastOrigin(time=4, tail=[1.0])
        with pytest.raises(NonFiniteForecastError, match="from horizon 324 "):
            predict(model, origin, 800)
        with pytest.raises(NonFiniteForecastError, match="from horizon 324 "):
            mse_profile(model, 4, 800)
        report = predict(model, origin, 323)
        assert np.all(np.isfinite(report.points)) and np.all(np.isfinite(report.mses))
        assert np.array_equal(mse_profile(model, 4, 323), report.mses)

    def test_overflow_raises_the_typed_error_not_a_warning(self):
        # numpy's overflow and invalid-value warnings stay inside the call, so
        # a caller treating warnings as errors still sees NonFiniteForecastError
        model = PeriodicModel.constant(ar=[3.0], l=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteForecastError, match="from horizon 324 "):
                predict(model, ForecastOrigin(time=4, tail=[1.0]), 800)
            with pytest.raises(NonFiniteForecastError, match="from horizon 324 "):
                mse_profile(model, 4, 800)

    def test_nan_origin_value_is_named(self):
        origin = ForecastOrigin(time=2, tail=[np.nan])
        with pytest.raises(NonFiniteForecastError, match=r"horizon 1 \(point=nan, mse=1.0\)"):
            predict(par12(), origin, 3)
        assert issubclass(NonFiniteForecastError, ValueError)


class TestPointForecasts:
    def test_par12_desk_case(self):
        # origin in season 2, so the two-step target is again season 2
        model = par12()
        report = predict(model, ForecastOrigin(time=4, tail=[1.0]), 2)
        assert_allclose(report.points[1], 0.4, rtol=1e-14)
        assert_allclose(report.mses[1], 1.0 + 0.8 ** 2, rtol=1e-14)
        assert report.target_seasons.tolist() == [1, 2]

    def test_pure_noise_model(self):
        model = PeriodicModel(l=2, p=0, q=0, drift=np.zeros(2), ar=[], ma=[],
                              sigma2=[1.0, 4.0])
        report = predict(model, ForecastOrigin(time=2, tail=[]), 4)
        assert_allclose(report.points, 0.0)
        assert_allclose(report.mses, [1.0, 4.0, 1.0, 4.0])

    def test_constant_ar1_geometric_mse(self):
        model = PeriodicModel.constant(ar=[0.5], l=1)
        report = predict(model, ForecastOrigin(time=0, tail=[2.0]), 6)
        h = np.arange(1, 7)
        assert_allclose(report.points, 2.0 * 0.5 ** h, rtol=1e-14)
        assert_allclose(report.mses, (1 - 0.25 ** h) / 0.75, rtol=1e-14)

    def test_matches_conditional_expectation_by_simulation_identity(self, rng):
        # the point forecast equals the exact solution with future
        # innovations zeroed and pre-origin innovations kept
        for _ in range(20):
            model = random_model(rng, l=int(rng.integers(1, 7)))
            tau = int(rng.integers(-10, 11))
            tail = rng.uniform(-2, 2, model.p)
            known = rng.uniform(-2, 2, model.q)
            horizon = int(rng.integers(1, 12))
            report = predict(
                model,
                ForecastOrigin(time=tau, tail=tail,
                               innovations=known if model.q else None),
                horizon)
            # every horizon, so the forcing at h <= max(p, q) is placed right
            want = [direct_recursion(SolutionInput(
                model, origin=tau, steps=h, initial=tail,
                innovations=np.concatenate([known[::-1], np.zeros(h)])))
                for h in range(1, horizon + 1)]
            assert_allclose(report.points, want, rtol=1e-9, atol=1e-12)

    def test_parma_known_innovation_adjustment(self):
        model = PeriodicModel.constant(ar=[0.5], ma=[0.3], l=1)
        report = predict(model, ForecastOrigin(time=0, tail=[1.0],
                                               innovations=[0.4]), 2)
        # one step ahead: 0.5*y + 0.3*eps; adjustment decays with the AR
        assert_allclose(report.points[0], 0.5 + 0.3 * 0.4, rtol=1e-14)
        assert_allclose(report.known_adjustments, [0.12, 0.06], rtol=1e-14)

    def test_q0_reports_identical_through_both_paths(self, rng):
        # the MA code path must vanish exactly, not merely approximately
        model = random_model(rng, p=2, q=0, l=3)
        as_parma = PeriodicModel(l=3, p=2, q=1, drift=model.drift,
                                 ar=model.ar, ma=np.zeros((1, 3)),
                                 sigma2=model.sigma2)
        origin = ForecastOrigin(time=1, tail=[0.3, -1.2])
        origin_ma = ForecastOrigin(time=1, tail=[0.3, -1.2], innovations=[0.7])
        a = predict(model, origin, 8)
        b = predict(as_parma, origin_ma, 8)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.mses, b.mses)


class TestErrorCoeffs:
    def test_horizon_one_is_unit(self, rng):
        model = random_model(rng)
        assert_allclose(error_weights(model, 5, 1), [1.0])

    def test_par14_anchors_at_target(self):
        a, b, c, d = 0.9, 0.8, 0.7, 0.6
        model = PeriodicModel(l=4, p=1, q=0, drift=np.zeros(4),
                              ar=[[a, b, c, d]], ma=[], sigma2=np.ones(4))
        got = error_weights(model, t=4, horizon=4)
        assert_allclose(got, [1.0, d, d * c, d * c * b], rtol=1e-14)

    def test_parma01_adds_theta(self):
        model = PeriodicModel(l=2, p=0, q=1, drift=np.zeros(2), ar=[],
                              ma=[[0.2, 0.7]], sigma2=np.ones(2))
        got = error_weights(model, t=1, horizon=2)
        assert_allclose(got, [1.0, 0.2], rtol=1e-14)


class TestMseProfile:
    def test_horizon_one_is_target_variance(self, rng):
        model = random_model(rng, l=3)
        tau = 2
        prof = mse_profile(model, tau, 1)
        assert_allclose(prof, [model.view().sigma2(tau + 1)])

    def test_constant_arma11(self):
        model = PeriodicModel.constant(ar=[0.5], ma=[0.3], l=1)
        assert_allclose(mse_profile(model, 0, 3), [1.0, 1.64, 1.80], rtol=1e-14)

    def test_periodic_noise_alternates(self):
        model = PeriodicModel(l=2, p=0, q=0, drift=np.zeros(2), ar=[], ma=[],
                              sigma2=[1.0, 4.0])
        assert_allclose(mse_profile(model, 2, 6), [1, 4, 1, 4, 1, 4])

    def test_matches_report(self, rng):
        model = random_model(rng, p=2, q=2, l=4)
        origin = ForecastOrigin(time=3, tail=rng.normal(size=2),
                                innovations=rng.normal(size=2))
        report = predict(model, origin, 9)
        assert_allclose(mse_profile(model, 3, 9), report.mses, rtol=1e-14)


class TestTowerProperty:
    def test_refreshing_the_origin_with_realized_innovations(self, rng):
        # predicting h from tau equals predicting h-l from tau+l once the
        # innovations of the skipped period are realized and conditioned on
        for _ in range(10):
            model = random_model(rng, l=int(rng.integers(1, 5)))
            l = model.l
            tau = int(rng.integers(-6, 7))
            h = l + int(rng.integers(1, 9))
            tail = rng.uniform(-2, 2, model.p)
            known = rng.uniform(-1, 1, model.q)
            realized = rng.uniform(-1, 1, l)

            # evolve the state to tau + l using the realized innovations
            eps_path = np.concatenate([known[::-1], realized])
            new_tail = np.array([
                direct_recursion(SolutionInput(
                    model, origin=tau, steps=l - m, initial=tail,
                    innovations=eps_path[:len(known) + l - m]))
                for m in range(min(model.p, l))])
            if model.p > l:
                new_tail = np.concatenate([new_tail, tail[:model.p - l]])
            new_known = (np.concatenate([realized[::-1], known])[:model.q]
                         if model.q else None)

            late = predict(model, ForecastOrigin(
                time=tau + l, tail=new_tail, innovations=new_known), h - l)

            # same conditional mean computed from the old origin with the
            # realized innovations inserted and the future zeroed
            eps_full = np.concatenate([known[::-1], realized, np.zeros(h - l)])
            want = direct_recursion(SolutionInput(
                model, origin=tau, steps=h, initial=tail,
                innovations=eps_full))
            assert_allclose(late.points[h - l - 1], want, rtol=1e-9, atol=1e-9)


class TestIntervals:
    def test_gaussian_band(self):
        model = PeriodicModel.constant(ar=[0.5], l=1)
        report = predict(model, ForecastOrigin(time=0, tail=[1.0]), 2)
        lo, hi = report.interval(2, z=1.96)
        mid = 0.25
        half = 1.96 * np.sqrt(1.25)
        assert_allclose([lo, hi], [mid - half, mid + half], rtol=1e-12)


def per_horizon_forecast(model, origin, max_horizon):
    """Reference: one Green table per target season and a per-horizon loop.

    Every horizon rebuilds its forcing and weights with per-term loops;
    ``predict`` and ``mse_profile`` must match it bit for bit.  The point is
    the Green-weighted forcing, whose terms at ``tau + i`` read the tail and
    the known innovations; ``homogeneous_points`` is the same point written as
    the homogeneous double sum plus the known-innovation weights.
    """
    tau, l, p = origin.time, model.l, model.p
    view = model.view()
    known = origin.innovations if model.q else ()

    def term(coefs, past, i):  # the forcing at tau + i that reads past[0], past[1], ...
        acc = 0.0
        for j in range(i, len(past) + 1):
            acc += coefs[j - 1, (tau + i - 1) % l] * past[j - i]
        return acc

    tables = {}
    points, mses, adjustments, weights, seasons = [], [], [], [], []
    homogeneous_points = []
    for h in range(1, max_horizon + 1):
        t = tau + h
        s = model.season(t)
        if s not in tables:
            tables[s] = green_coefficients(model, t, max_horizon)
        table = tables[s]
        g = table.nonnegative
        back = (t - 1 - np.arange(h)) % l
        forcing = []
        for r in range(h):
            i = h - r  # the forcing at t - r = tau + i
            f = view.drift(tau + i)
            if i <= p:
                f += term(model.ar, origin.tail, i)
            if i <= model.q:
                f += term(model.ma, known, i)
            forcing.append(f)
        adj = 0.0
        for i in range(1, min(model.q, h) + 1):
            adj += g[h - i] * term(model.ma, known, i)
        point = float(np.dot(g[:h], forcing))

        old = float(np.dot(g[:h], model.drift[back]))
        if p:
            old += table.value(h) * origin.tail[0]
            for m in range(1, p):
                acc = 0.0
                for i in range(1, p - m + 1):
                    acc += view.ar(m + i, tau + i) * table.value(h - i)
                old += acc * origin.tail[m]
        if model.q:
            old += float(np.dot(naive_known_weights(model, t, h), origin.innovations))
        w = naive_error_weights(model, t, h)
        points.append(point)
        homogeneous_points.append(old)
        mses.append(float(np.dot(w * w, model.sigma2[back])))
        adjustments.append(adj)
        weights.append(w)
        seasons.append(s)
    return points, mses, adjustments, weights, seasons, homogeneous_points


class TestMatchesPerHorizonLoop:
    @pytest.mark.parametrize("make", [
        lambda rng: par12(),
        lambda rng: random_model(rng, p=4, q=2, l=52, coef_scale=0.4),
    ], ids=["par12", "l52_p4_q2"])
    def test_bit_identical(self, rng, make):
        model = make(rng)
        l = model.l
        for tau in (-5, 0, 3 * l + 1):
            origin = ForecastOrigin(
                time=tau, tail=rng.normal(size=model.p),
                innovations=rng.normal(size=model.q) if model.q else None)
            for horizon in sorted({1, 2, 5, 9, l - 1, l, l + 3, 2 * l + 7} - {0}):
                report = predict(model, origin, horizon)
                points, mses, adjustments, weights, seasons, homogeneous = \
                    per_horizon_forecast(model, origin, horizon)
                assert_array_equal(report.points, points)
                # the forcing form and the homogeneous form differ in float order only
                assert_allclose(points, homogeneous, rtol=1e-13, atol=1e-13)
                assert_array_equal(report.mses, mses)
                assert_array_equal(report.known_adjustments, adjustments)
                assert_array_equal(report.target_seasons, seasons)
                assert len(report.error_weights) == horizon
                for got, want in zip(report.error_weights, weights):
                    assert_array_equal(got, want)
                assert_array_equal(mse_profile(model, tau, horizon), mses)


def test_daily_full_year_predict_is_fast():
    # regression guard for the season-vectorized forecast path (8-15 ms;
    # the per-horizon loop took 220-300 ms)
    rng = np.random.default_rng(365)
    l = 365
    ar = rng.uniform(-0.05, 0.05, (4, l))
    ar[0] = rng.uniform(0.6, 0.9, l)
    model = PeriodicModel(l=l, p=4, q=2, drift=rng.uniform(-1, 1, l), ar=ar,
                          ma=rng.uniform(-0.6, 0.6, (2, l)),
                          sigma2=rng.uniform(0.5, 2.0, l))
    origin = ForecastOrigin(time=400, tail=rng.normal(size=4),
                            innovations=rng.normal(size=2))
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        predict(model, origin, l)
        best = min(best, time.perf_counter() - start)
    assert best < 0.120, f"predict H=365 took {best * 1e3:.1f} ms"
