import numpy as np
import pytest
from numpy.testing import assert_allclose

from parma import (
    ForecastOrigin,
    PeriodicModel,
    build_vsform,
    check_convergence,
    companion_matrix,
    green_coefficients,
    par24_restriction,
    predict,
    stationarity,
    vs_forecast,
    one_period_cross_check,
)
from parma.greens import build_fundamental, lu_determinant

from conftest import random_model, random_stationary_model


def par14(phi):
    return PeriodicModel(l=4, p=1, q=0, drift=np.zeros(4), ar=[list(phi)],
                         ma=[], sigma2=np.ones(4))


def par24(phi1, phi2):
    return PeriodicModel(l=4, p=2, q=0, drift=np.zeros(4),
                         ar=[list(phi1), list(phi2)], ma=[], sigma2=np.ones(4))


class TestBuild:
    def test_par24_matches_worked_display(self):
        phi1 = [0.1, 0.2, 0.3, 0.4]
        phi2 = [0.5, 0.6, 0.7, 0.8]
        vs = build_vsform(par24(phi1, phi2))
        assert vs.ar_order == 1
        want0 = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [-0.2, 1.0, 0.0, 0.0],
            [-0.7, -0.3, 1.0, 0.0],
            [0.0, -0.8, -0.4, 1.0],
        ])
        want1 = np.array([
            [0.0, 0.0, 0.5, 0.1],
            [0.0, 0.0, 0.0, 0.6],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
        assert_allclose(vs.phi0, want0)
        assert_allclose(vs.phi[0], want1)

    def test_par12_by_hand(self):
        model = PeriodicModel(l=2, p=1, q=0, drift=np.zeros(2),
                              ar=[[0.3, 0.9]], ma=[], sigma2=np.ones(2))
        vs = build_vsform(model)
        assert_allclose(vs.phi0, [[1.0, 0.0], [-0.9, 1.0]])
        assert_allclose(vs.phi[0], [[0.0, 0.3], [0.0, 0.0]])

    def test_constant_ar1_single_season(self):
        vs = build_vsform(PeriodicModel.constant(ar=[0.7], l=1))
        assert_allclose(vs.phi0, [[1.0]])
        assert_allclose(vs.phi[0], [[0.7]])

    def test_stacked_orders_are_ceilings(self, rng):
        model = random_model(rng, p=5, q=7, l=3)
        vs = build_vsform(model)
        assert vs.ar_order == 2 and vs.ma_order == 3

    def test_phi0_unit_lower_triangular(self, rng):
        for _ in range(20):
            vs = build_vsform(random_model(rng))
            assert_allclose(np.diag(vs.phi0), 1.0)
            assert np.all(np.triu(vs.phi0, 1) == 0.0)

    def test_ma_stack_mirrors_ar_rule(self, rng):
        model = random_model(rng, p=2, q=2, l=3)
        mirrored = PeriodicModel(l=3, p=2, q=0, drift=model.drift,
                                 ar=model.ma, ma=[], sigma2=model.sigma2)
        vs = build_vsform(model)
        vs_m = build_vsform(mirrored)
        assert_allclose(vs.theta0, vs_m.phi0)
        assert_allclose(vs.theta, vs_m.phi)

    def test_ma_stack_sign_convention_as_documented(self, rng):
        # contract from the module docstring: Theta0 eps_T - sum_N Theta_N
        # eps_{T-N} reproduces the univariate MA sum with every theta
        # negated
        model = random_model(rng, p=0, q=3, l=2)
        vs = build_vsform(model)
        eps = rng.normal(size=(vs.ma_order + 1, 2))  # periods T, T-1, ...

        def eps_at(t):  # period 0 holds times 1..l, period -1 times 1-l..0
            season = model.season(t)
            return eps[(season - t) // model.l][season - 1]

        stacked = vs.theta0 @ eps[0]
        for n in range(vs.ma_order):
            stacked = stacked - vs.theta[n] @ eps[n + 1]
        for s in (1, 2):
            univariate = eps_at(s) - sum(
                model.ma[j - 1, s - 1] * eps_at(s - j) for j in range(1, 4))
            assert_allclose(stacked[s - 1], univariate, rtol=1e-12)


class TestStationarity:
    def test_par14_all_point_nine(self):
        verdict = stationarity(build_vsform(par14([0.9] * 4)))
        assert verdict.stationary and not verdict.indeterminate
        assert_allclose(verdict.max_root_modulus, 0.6561, rtol=1e-10)
        assert_allclose(verdict.period_determinant, 0.6561, rtol=1e-10)

    def test_locally_explosive_seasons_can_be_stationary(self):
        verdict = stationarity(build_vsform(par14([1.2, 1.2, 0.5, 0.5])))
        assert verdict.stationary
        assert_allclose(verdict.max_root_modulus, 0.36, rtol=1e-10)

    def test_indeterminate_band(self):
        verdict = stationarity(build_vsform(par14([1.0, 1.0, 1.0, 1.001])))
        assert verdict.indeterminate

    @pytest.mark.parametrize("band", [np.nan, -0.01, np.inf, -np.inf], ids=repr)
    def test_bad_boundary_band_rejected(self, band):
        vs = build_vsform(par14([1.0, 1.0, 1.0, 1.001]))
        with pytest.raises(ValueError, match="boundary_band must be finite and >= 0"):
            stationarity(vs, boundary_band=band)
        assert not stationarity(vs, boundary_band=0.0).indeterminate

    def test_higher_order_companion(self, rng):
        # p > l exercises the block-companion construction
        model = random_model(rng, p=5, q=0, l=2, coef_scale=0.3)
        comp = companion_matrix(build_vsform(model))
        assert comp.shape == (6, 6)
        verdict = stationarity(build_vsform(model))
        assert verdict.max_root_modulus == pytest.approx(
            np.max(np.abs(np.linalg.eigvals(comp))))

    def test_pure_noise_is_stationary(self):
        model = PeriodicModel(l=2, p=0, q=1, drift=np.zeros(2), ar=[],
                              ma=[[0.5, 0.5]], sigma2=np.ones(2))
        verdict = stationarity(build_vsform(model))
        assert verdict.stationary and verdict.max_root_modulus == 0.0


class TestPar24Restriction:
    def test_reduces_to_product_when_second_lag_vanishes(self, rng):
        phi1 = rng.uniform(-1, 1, 4)
        model = par24(phi1, np.zeros(4))
        assert_allclose(par24_restriction(model), abs(np.prod(phi1)),
                        rtol=1e-12)

    def test_zero_model(self):
        assert par24_restriction(par24(np.zeros(4), np.zeros(4))) == 0.0

    def test_wrong_shape_rejected(self, rng):
        with pytest.raises(ValueError, match="p=2, l=4"):
            par24_restriction(random_model(rng, p=1, q=0, l=4))

    def test_matches_characteristic_polynomial_fit(self, rng):
        # oracle: sample det(Phi0 - Phi1 z) on a grid, fit the quadratic,
        # and combine its coefficients
        for _ in range(20):
            model = par24(rng.uniform(-1, 1, 4), rng.uniform(-0.6, 0.6, 4))
            vs = build_vsform(model)
            zs = np.linspace(-2.0, 2.0, 9)
            dets = [np.linalg.det(vs.phi0 - vs.phi[0] * z) for z in zs]
            c2, c1, c0 = np.polyfit(zs, dets, 2)
            assert_allclose(c0, 1.0, atol=1e-9)
            assert_allclose(par24_restriction(model), abs(-c1 - c2),
                            rtol=1e-8, atol=1e-10)

    def test_verdict_agreement_away_from_unit_circle(self, rng):
        kept = 0
        while kept < 200:
            model = par24(rng.uniform(-1.1, 1.1, 4), rng.uniform(-0.3, 0.3, 4))
            verdict = stationarity(build_vsform(model))
            if verdict.indeterminate:
                continue
            kept += 1
            assert (par24_restriction(model) < 1.0) == verdict.stationary


class TestXiCrossCheck:
    def test_par14(self, rng):
        assert one_period_cross_check(par14(rng.uniform(-1, 1, 4)))

    def test_constant_ar1(self):
        assert one_period_cross_check(PeriodicModel.constant(ar=[0.7], l=1))

    def test_par26_determinant_route(self, rng):
        model = random_model(rng, p=2, q=0, l=6)
        assert one_period_cross_check(model, tol=1e-10)
        g = green_coefficients(model, 6, 6).value(6)
        det = lu_determinant(build_fundamental(model, 6, 6))
        assert_allclose(g, det, rtol=1e-10)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10], ids=repr)
    def test_tol_must_be_finite_and_positive(self, tol):
        # a nan tolerance made every comparison False, which read as agreement
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            one_period_cross_check(PeriodicModel.constant(ar=[0.7], l=1), tol=tol)

    def test_requires_p_at_most_l(self, rng):
        with pytest.raises(ValueError, match="p <= l"):
            one_period_cross_check(random_model(rng, p=3, q=0, l=2))


class TestVerdictAgreement:
    def test_convergence_check_matches_roots(self, rng):
        # the univariate growth surrogate and the stacked-root criterion
        # must agree whenever the radius is separated from the unit circle
        kept = 0
        while kept < 500:
            model = random_model(rng, q=0, p=int(rng.integers(1, 5)),
                                 l=int(rng.integers(1, 7)),
                                 coef_scale=float(rng.uniform(0.3, 1.2)))
            verdict = stationarity(build_vsform(model))
            if abs(verdict.max_root_modulus - 1.0) < 0.02:
                continue
            kept += 1
            diag = check_convergence(model)
            assert diag.passed == verdict.stationary, (
                f"rho_hat={diag.rho_hat} radius={verdict.max_root_modulus}")


class TestVsForecastContracts:
    def test_requires_first_order_stack(self, rng):
        model = random_model(rng, p=5, q=0, l=2)
        with pytest.raises(ValueError, match="p <= l"):
            vs_forecast(model, [0.0, 0.0], 2)

    def test_block_shape_checked(self, rng):
        model = random_model(rng, p=1, q=0, l=3)
        with pytest.raises(ValueError, match="l=3"):
            vs_forecast(model, [0.0, 0.0], 2)
        with pytest.raises(ValueError, match="n_periods"):
            vs_forecast(model, [0.0, 0.0, 0.0], 0)

    @pytest.mark.parametrize("bad", [True, 2.5, np.float64(3.0)], ids=repr)
    def test_non_integer_periods_rejected(self, rng, bad):
        model = random_model(rng, p=1, q=0, l=2)
        with pytest.raises(ValueError, match=r"^n_periods must be an integer >= 1, got "):
            vs_forecast(model, [0.0, 0.0], bad)

    def test_pure_noise_forecasts_drift_path(self):
        model = PeriodicModel(l=2, p=0, q=0, drift=[0.3, -0.1], ar=[],
                              ma=[], sigma2=np.ones(2))
        out = vs_forecast(model, [5.0, -2.0], 3)
        assert_allclose(out, np.tile([0.3, -0.1], (3, 1)))

    def test_period_determinant_undefined_beyond_period(self, rng):
        model = random_model(rng, p=5, q=0, l=2, coef_scale=0.3)
        verdict = stationarity(build_vsform(model))
        assert verdict.period_determinant is None


class TestForecastAgreement:
    def test_stacked_univariate_equals_vector_forecast(self, rng):
        for _ in range(20):
            l = int(rng.integers(2, 6))
            p = int(rng.integers(1, l + 1))
            model = random_stationary_model(rng, p=p, q=0, l=l)
            block = rng.uniform(-2, 2, l)  # seasons 1..l of period T
            n = int(rng.integers(1, 4))
            vectors = vs_forecast(model, block, n)

            tau = l  # end of period T at absolute time l
            tail = block[::-1][:p]
            report = predict(model, ForecastOrigin(time=tau, tail=tail), n * l)
            stacked = report.points.reshape(n, l)
            assert_allclose(stacked, vectors, rtol=1e-8, atol=1e-10)
