import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parma import (
    NotConvergentError,
    PeriodicModel,
    autocovariance,
    check_convergence,
    default_truncation,
    green_coefficients,
    moment_profile,
    unconditional_mean,
    unconditional_variance,
)
from parma import moments
from parma.greens import error_weights
from parma.vsform import build_vsform, stationarity

from conftest import (daily_model, naive_error_weights, naive_known_weights, random_model,
                      random_stationary_model, same_bits)


def par14(product_root):
    phi = [product_root] * 4
    return PeriodicModel(l=4, p=1, q=0, drift=np.zeros(4), ar=[phi], ma=[],
                         sigma2=np.ones(4))


def par12(drift=(1.0, 1.0), sigma2=(1.0, 1.0)):
    return PeriodicModel(l=2, p=1, q=0, drift=list(drift),
                         ar=[[0.5, 0.8]], ma=[], sigma2=list(sigma2))


def per_season_truncation(model):
    """Reference for ``default_truncation``: one table per season, probes
    doubling from max(8l, 64)."""
    l = model.l
    if model.p == 0:
        return max(l, model.q + 1)
    probe = max(8 * l, 64)
    while True:
        probe = min(probe, 10_000)
        tables = [green_coefficients(model, s, probe) for s in range(1, l + 1)]
        for r in range(l, probe + 1, l):
            if all(abs(t.value(r)) < 1e-14 * np.max(np.abs(t.values))
                   for t in tables):
                return max(r, 2 * l)
        if probe >= 10_000:
            return 10_000
        probe = min(2 * probe, 10_000)


def per_season_profile(model, max_lag, truncation=None):
    """Reference: one Green table and one weight sequence per season, and a
    per-(season, lag) loop over the truncated sums at lags ``0..max(p, q)``.

    ``moment_profile`` must match its means, variances, sum lags, truncation
    and tail bound bit for bit.
    """
    l = model.l
    r_max = per_season_truncation(model) if truncation is None else truncation
    n = r_max + 1
    direct = min(max_lag, max(model.p, model.q))
    tables, weights = {}, {}
    for s in range(1, l + 1):
        tables[s] = green_coefficients(model, s, r_max + direct).values
        weights[s] = naive_error_weights(model, s, n + direct)
    means = np.zeros(l)
    autocov = np.zeros((l, direct + 1))
    for s in range(1, l + 1):
        back = (s - 1 - np.arange(n)) % l
        means[s - 1] = np.dot(tables[s][:n], model.drift[back])
        for k in range(direct + 1):
            tau = s - k
            back_tau = (tau - 1 - np.arange(n)) % l
            w_tau = weights[model.season(tau)][:n]
            autocov[s - 1, k] = np.dot(weights[s][k:k + n] * w_tau, model.sigma2[back_tau])
    q_blk = min(check_convergence(model).rho_hat ** l, 1.0 - 1e-12)
    mean_tail = max(np.sum(np.abs(tables[s][n - l:n])) for s in tables) \
        * np.max(np.abs(model.drift))
    var_tail = max(np.sum(weights[s][n - l:n] ** 2) for s in weights) * np.max(model.sigma2)
    bound = float(max(mean_tail * q_blk / (1.0 - q_blk),
                      var_tail * q_blk ** 2 / (1.0 - q_blk ** 2)))
    return means, autocov, r_max, bound


def companions(model):
    comp = np.zeros((model.l, model.p, model.p))
    comp[:, 0, :] = model.ar.T
    comp[:, 1:, :-1] = np.eye(model.p - 1)
    return comp


def sequential_rate(model):
    """Reference for ``rho_hat``: the period product ``A_l ... A_1`` one factor at a
    time, rescaled at every factor with its log scale carried."""
    prod, log_scale = np.eye(model.p), 0.0
    for a in companions(model)[::-1]:
        prod = prod @ a
        top = np.max(np.abs(prod))
        if top == 0.0:
            return 0.0
        prod /= top
        log_scale += np.log(top)
    radius = np.max(np.abs(np.linalg.eigvals(prod)))
    return 0.0 if radius == 0.0 else float(np.exp((np.log(radius) + log_scale) / model.l))


def sequential_tail(model, probe_lag):
    """Reference for ``tail_value``: every anchor's period product built one factor
    per step, unscaled, then ``M_s ** n`` times its first ``r`` factors."""
    l = model.l
    n, r = divmod(probe_lag, l)
    comp = companions(model)
    comp2 = np.concatenate([comp, comp])
    prods = partial = np.broadcast_to(np.eye(model.p), comp.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, l + 1):
            prods = prods @ comp2[l - k + 1:2 * l - k + 1]
            partial = prods if k == r else partial
        return float(np.max(np.abs((np.linalg.matrix_power(prods, n) @ partial)[:, 0, 0])))


#: (l, p, q, coefficient scale): l=1, p>l, q>p, p=0 and a weekly-of-year period
PROFILE_SHAPES = [(1, 2, 1, 0.6), (2, 4, 1, 0.5), (3, 1, 3, 0.8), (4, 0, 2, 0.8),
                  (52, 2, 1, 0.6)]


class TestCheckConvergence:
    def test_par14_product_below_one_passes(self):
        model = par14(0.4 ** 0.25)
        diag = check_convergence(model)
        assert diag.passed
        assert_allclose(diag.rho_hat, 0.4 ** 0.25, rtol=1e-10)

    def test_par14_product_above_one_fails(self):
        model = par14(1.2 ** 0.25)
        diag = check_convergence(model)
        assert not diag.passed
        assert_allclose(diag.rho_hat, 1.2 ** 0.25, rtol=1e-10)

    def test_pure_noise_trivially_passes(self):
        model = PeriodicModel(l=3, p=0, q=2, drift=np.zeros(3), ar=[],
                              ma=np.ones((2, 3)), sigma2=np.ones(3))
        diag = check_convergence(model)
        assert diag.passed and diag.rho_hat == 0.0

    def test_margin_tightens_the_verdict(self):
        model = PeriodicModel.constant(ar=[0.95], l=1)
        assert check_convergence(model).passed
        assert not check_convergence(model, margin=0.1).passed

    def test_probe_lag_floor(self):
        model = par14(0.5)
        with pytest.raises(ValueError, match="probe_lag"):
            check_convergence(model, probe_lag=4)

    def test_rate_is_the_stacked_root_radius(self, rng):
        # rho_hat ** l is the spectral radius of the period product of the
        # companion matrices, whose nonzero eigenvalues are the stacked roots
        for _ in range(200):
            model = random_model(rng, q=0, p=int(rng.integers(1, 7)),
                                 l=int(rng.integers(1, 9)),
                                 coef_scale=float(rng.uniform(0.3, 1.3)))
            radius = stationarity(build_vsform(model)).max_root_modulus
            rho = check_convergence(model).rho_hat
            assert_allclose(rho ** model.l, radius, rtol=1e-10)

    def test_overflow_guard_reads_the_probe_lag(self, rng):
        # tail_value is max |g| at probe_lag over the anchors, any probe_lag
        for _ in range(20):
            model = random_stationary_model(rng, q=0, p=int(rng.integers(1, 6)),
                                            l=int(rng.integers(1, 7)))
            if model.p == 0:
                continue
            lag = int(rng.integers(2 * model.l, 6 * model.l + 5))
            want = max(abs(green_coefficients(model, s, lag).value(lag))
                       for s in range(1, model.l + 1))
            assert_allclose(check_convergence(model, probe_lag=lag).tail_value,
                            want, rtol=1e-9, atol=1e-300)
        # a negative margin lets explosive rates reach the guard
        ok = check_convergence(PeriodicModel.constant(ar=[1.5]), margin=-1.0)
        assert ok.passed
        assert_allclose(ok.tail_value, 1.5 ** 400, rtol=1e-12)
        big = check_convergence(PeriodicModel.constant(ar=[1.9]), margin=-1.0)
        assert not big.passed and big.tail_value > 1e100
        inf = check_convergence(PeriodicModel.constant(ar=[7.0]), margin=-10.0)
        assert not inf.passed and inf.tail_value == np.inf

    def test_explosive_daily_product_does_not_overflow(self):
        # 7 ** 365 overflows a double; the rate must still come out exact
        model = PeriodicModel.constant(ar=[7.0, 0.0], l=365)
        diag = check_convergence(model)
        assert_allclose(diag.rho_hat, 7.0, rtol=1e-12)
        assert not diag.passed
        with pytest.raises(NotConvergentError):
            unconditional_variance(model, 1, truncation=730)

    def test_fast_daily_decay_does_not_underflow(self):
        # 0.1 ** 365 underflows a double; the rate must not read 0
        diag = check_convergence(PeriodicModel.constant(ar=[0.1], l=365))
        assert diag.passed
        assert_allclose(diag.rho_hat, 0.1, rtol=1e-12)

    def test_daily_stationary_model_passes(self):
        model = daily_model()
        diag = check_convergence(model)
        assert diag.passed and 0.5 < diag.rho_hat < 0.9
        exact = moment_profile(model, max_lag=2)
        assert np.all(np.isfinite(exact.autocov)) and np.all(np.isfinite(exact.means))
        assert exact.truncation is None and exact.tail_bound == 0.0
        prof = moment_profile(model, max_lag=2, truncation=default_truncation(model))
        assert np.all(np.isfinite(prof.autocov)) and np.all(np.isfinite(prof.means))
        assert 0.0 < prof.tail_bound < 1e-12

    def test_stationary_model_near_the_band_passes(self):
        # stacked radius 0.9687: slow enough that ratios of Green values over
        # a finite window can read above one
        ar = [[-0.86, 0.53, -0.18, -0.85, -0.96, -0.29, -0.93, -0.96, -0.25, -0.7, -0.89, -0.25],
              [0.9, -0.63, 0.98, -0.82, 0.75, -0.49, -0.85, 0.12, -0.88, 0.52, 0.86, 0.1],
              [-0.67, 0.18, 0.24, -0.85, -0.41, 0.95, 0.58, -0.6, 0.16, -0.94, -0.96, 0.5],
              [-0.71, 0.2, -0.09, -0.2, -0.05, 0.81, -0.35, 0.63, 0.79, 0.21, -0.74, -0.72]]
        model = PeriodicModel(l=12, p=4, q=0, drift=np.zeros(12), ar=ar, ma=[],
                              sigma2=np.ones(12))
        radius = stationarity(build_vsform(model)).max_root_modulus
        assert 0.95 < radius < 0.98
        diag = check_convergence(model)
        assert diag.passed
        assert_allclose(diag.rho_hat ** 12, radius, rtol=1e-10)


class TestPeriodProducts:
    """The doubled period products against one factor per step."""

    @staticmethod
    def assert_matches_sequential(model, probe_lag=None, margin=0.0):
        diag = check_convergence(model, probe_lag=probe_lag, margin=margin)
        assert_allclose(diag.rho_hat, sequential_rate(model), rtol=1e-11)
        if np.isnan(diag.tail_value):
            assert diag.rho_hat >= 1.0 - margin
            return diag
        want = sequential_tail(model, diag.probe_lag)
        if np.isnan(want):  # the unscaled loop overflowed into inf * 0
            assert diag.tail_value == np.inf
        elif want > 1e-200:  # the guard only matters near OVERFLOW_FLAG
            assert_allclose(diag.tail_value, want, rtol=1e-8)
        return diag

    @pytest.mark.parametrize("l,p", [(1, 1), (1, 4), (2, 5), (3, 4), (5, 2), (7, 3),
                                     (12, 4), (13, 2), (24, 2), (37, 1), (52, 2)])
    def test_random_shapes(self, l, p):
        # l=1, p > l, l not a power of two
        rng = np.random.default_rng(1000 * l + p)
        for _ in range(6):
            model = random_model(rng, l=l, p=p, q=0, coef_scale=float(rng.uniform(0.3, 1.2)))
            self.assert_matches_sequential(model, margin=-1.0)

    def test_probe_lag_off_the_period(self):
        rng = np.random.default_rng(7)
        for l, p in [(1, 2), (3, 4), (5, 2), (12, 3), (52, 2)]:
            model = random_stationary_model(rng, l=l, p=p, q=0)
            for lag in (2 * l + 1, 3 * l + l // 2 + 1, 40 * l - 1):
                if lag % l:
                    diag = self.assert_matches_sequential(model, probe_lag=lag)
                    assert diag.probe_lag == lag

    def test_all_zero_product(self):
        # a zero coefficient in one season of a p = 1 model zeroes every product
        model = PeriodicModel(l=6, p=1, q=0, drift=np.zeros(6), ar=[[0.5, 2.0, 0.0, 3.0, 0.7, 1.5]],
                              ma=[], sigma2=np.ones(6))
        for lag in (None, 13):
            diag = self.assert_matches_sequential(model, probe_lag=lag)
            assert diag.rho_hat == 0.0 and diag.tail_value == 0.0 and diag.passed

    def test_explosive_daily_product(self):
        model = PeriodicModel.constant(ar=[7.0, 0.0], l=365)
        diag = self.assert_matches_sequential(model)
        assert not diag.passed and np.isnan(diag.tail_value)
        # 7 ** 14,600 is far past a double: the guard reads inf, where the unscaled
        # loop reads NaN
        diag = self.assert_matches_sequential(model, margin=-10.0)
        assert diag.tail_value == np.inf and not diag.passed

    def test_daily_model(self):
        diag = self.assert_matches_sequential(daily_model())
        assert diag.passed


class TestUnconditionalMean:
    def test_zero_drift_means_zero(self, rng):
        model = random_stationary_model(rng, drift_scale=0.0, l=3)
        for s in (1, 2, 3):
            assert unconditional_mean(model, s) == 0.0

    def test_constant_ar1_classical(self):
        model = PeriodicModel.constant(ar=[0.5], drift=1.0, l=1)
        assert_allclose(unconditional_mean(model, 1), 2.0, rtol=1e-12)

    def test_par12_fixed_point(self):
        # m1 = 1 + 0.5 m2, m2 = 1 + 0.8 m1  =>  m1 = 2.5, m2 = 3.0
        model = par12()
        assert_allclose(unconditional_mean(model, 1), 2.5, rtol=1e-12)
        assert_allclose(unconditional_mean(model, 2), 3.0, rtol=1e-12)

    def test_explosive_raises(self):
        with pytest.raises(NotConvergentError, match="rho_hat"):
            unconditional_mean(par14(1.2 ** 0.25), 1)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="lag"):
            autocovariance(par14(0.5), 1, -1)

    @pytest.mark.parametrize("bad", [True, 2.5, np.float64(3.0)], ids=repr)
    def test_non_integer_lag_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^lag must be an integer >= 0, got "):
            autocovariance(par14(0.5), 1, bad)


class TestUnconditionalVariance:
    def test_pure_noise_is_sigma2(self):
        model = PeriodicModel(l=2, p=0, q=0, drift=np.zeros(2), ar=[], ma=[],
                              sigma2=[1.0, 4.0])
        assert_allclose(unconditional_variance(model, 1), 1.0)
        assert_allclose(unconditional_variance(model, 2), 4.0)

    def test_constant_ar1_classical(self):
        model = PeriodicModel.constant(ar=[0.5], l=1)
        assert_allclose(unconditional_variance(model, 1), 1.0 / 0.75, rtol=1e-12)

    def test_par12_fixed_point(self):
        # v1 = 1 + 0.25 v2, v2 = 1 + 0.64 v1  =>  v1 = 125/84, v2 = 41/21
        model = par12()
        assert_allclose(unconditional_variance(model, 1), 125.0 / 84.0, rtol=1e-12)
        assert_allclose(unconditional_variance(model, 2), 41.0 / 21.0, rtol=1e-12)

    @pytest.mark.parametrize("moment", [
        unconditional_mean, unconditional_variance, lambda m, s: autocovariance(m, s, 2)],
        ids=["mean", "variance", "autocovariance"])
    def test_undecayed_at_the_cap_raises(self, moment):
        # near the unit root the weights outlast the default's 10,000-lag cap,
        # where the variance would come out 13.5% below 1 / (1 - phi^2)
        model = PeriodicModel.constant(ar=[0.9999], drift=1.0, l=12)
        with pytest.raises(NotConvergentError,
                           match=r"cap 10000 \(rho_hat=0\.9999\); use moment_profile .* truncation"):
            moment(model, 1)
        assert default_truncation(model) == 10_000

    def test_explicit_truncation_beyond_decay_keeps_the_sum(self):
        phi, r_max = 0.9999, 10_000
        model = PeriodicModel.constant(ar=[phi], l=12)
        want = (1 - phi ** (2 * r_max + 2)) / (1 - phi ** 2)
        assert_allclose(unconditional_variance(model, 1, truncation=r_max), want, rtol=1e-9)


class TestAutocovariance:
    def test_lag_zero_is_variance(self, rng):
        model = random_stationary_model(rng, l=4)
        for s in range(1, 5):
            assert_allclose(autocovariance(model, s, 0),
                            unconditional_variance(model, s), rtol=1e-12)

    def test_constant_ar1_lag2(self):
        model = PeriodicModel.constant(ar=[0.5], l=1)
        assert_allclose(autocovariance(model, 1, 2), 0.25 * 4.0 / 3.0,
                        rtol=1e-12)

    def test_par12_lag_one_by_hand(self):
        # gamma(s, 1) = phi_s * variance(previous season)
        model = par12()
        assert_allclose(autocovariance(model, 1, 1), 0.5 * 41.0 / 21.0,
                        rtol=1e-12)
        assert_allclose(autocovariance(model, 2, 1), 0.8 * 125.0 / 84.0,
                        rtol=1e-12)

    def test_recursion_identity_pure_ar(self, rng):
        # gamma(t, k) folds back onto lag-<p covariances at the earlier
        # anchor through the same weights as the exact solution
        for _ in range(10):
            model = random_stationary_model(rng, q=0,
                                            l=int(rng.integers(1, 5)),
                                            p=int(rng.integers(1, 5)))
            trunc = 400
            k = int(rng.integers(1, 10))
            s = int(rng.integers(1, model.l + 1))
            table = green_coefficients(model, s, max(k, 1))
            tau = s - k
            want = table.value(k) * unconditional_variance(model, model.season(tau), trunc)
            for m in range(1, model.p):
                acc = 0.0
                for i in range(1, min(model.p - m, k) + 1):  # g is 0 below lag 0
                    acc += model.ar[m + i - 1, (tau + i - 1) % model.l] * table.value(k - i)
                want += acc * autocovariance(model, model.season(tau), m, trunc)
            got = autocovariance(model, s, k, trunc)
            assert_allclose(got, want, rtol=1e-6, atol=1e-12)

    def test_recursion_identity_with_ma_part(self, rng):
        # the MA orders add the covariance between pre-anchor innovations
        # and the earlier anchor value
        for _ in range(10):
            model = random_stationary_model(rng, l=2,
                                            p=int(rng.integers(1, 3)),
                                            q=int(rng.integers(1, 3)))
            trunc = 400
            k = int(rng.integers(1, 8))
            s = int(rng.integers(1, 3))
            tau = s - k
            table = green_coefficients(model, s, k)
            want = table.value(k) * unconditional_variance(model, model.season(tau), trunc)
            for m in range(1, model.p):
                acc = 0.0
                for i in range(1, min(model.p - m, k) + 1):  # g is 0 below lag 0
                    acc += model.ar[m + i - 1, (tau + i - 1) % model.l] * table.value(k - i)
                want += acc * autocovariance(model, model.season(tau), m, trunc)
            w_err = error_weights(model, tau, model.q)
            w_known = naive_known_weights(model, s, k)
            sig = model.sigma2[(model.clock.season0(tau) - np.arange(model.q)) % model.l]
            want += float(np.dot(w_err * w_known, sig))
            got = autocovariance(model, s, k, trunc)
            assert_allclose(got, want, rtol=1e-6, atol=1e-12)

    def test_vanishing_covariance(self):
        model = par12()
        values = [abs(autocovariance(model, 1, k)) for k in (2, 6, 10, 14)]
        per_period = 0.4  # coefficient product over one period
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier * per_period ** 2 * 1.05


class TestMomentProfile:
    def test_profile_matches_scalar_functions(self):
        model = par12(sigma2=(1.0, 2.0))
        prof = moment_profile(model, max_lag=4, truncation=default_truncation(model))
        for s in (1, 2):
            assert_allclose(prof.means[s - 1],
                            unconditional_mean(model, s, prof.truncation))
            assert_allclose(prof.variances[s - 1],
                            unconditional_variance(model, s, prof.truncation))
            for k in range(5):
                assert_allclose(prof.autocov[s - 1, k],
                                autocovariance(model, s, k, prof.truncation))
        assert_allclose(prof.autocov[:, 0], prof.variances)

    def test_truncation_honesty(self):
        # the second model has q = 1, so its lags 2..6 come from the
        # Yule-Walker recursion, not from sums
        cases = [(PeriodicModel(l=2, p=1, q=0, drift=[1.0, -0.5], ar=[[0.9, 0.95]], ma=[],
                                sigma2=[1.0, 2.0]), 4, 200, 400),
                 (PeriodicModel(l=3, p=1, q=1, drift=[1.0, -0.5, 0.2], ar=[[0.9, 0.95, 0.92]],
                                ma=[[0.5, -0.3, 0.4]], sigma2=[1.0, 2.0, 0.5]), 6, 150, 600)]
        for model, max_lag, short, long in cases:
            coarse = moment_profile(model, max_lag=max_lag, truncation=short)
            fine = moment_profile(model, max_lag=max_lag, truncation=long)
            bound = coarse.tail_bound
            assert bound > 1e-7  # the coarse truncation has a real tail
            assert np.max(np.abs(coarse.means - fine.means)) < bound
            assert np.max(np.abs(coarse.variances - fine.variances)) < bound
            assert np.max(np.abs(coarse.autocov - fine.autocov)) < bound

    def test_truncation_below_period_rejected(self):
        # one block of l lags past a sub-period truncation bounds nothing:
        # truncation 5 gave variance 7.72 with tail_bound 0.41 (true 11.32)
        model = PeriodicModel.constant(ar=[0.9], ma=[0.5], l=12)
        for truncation in (5, 11):
            with pytest.raises(ValueError, match="truncation must be >= l = 12"):
                moment_profile(model, max_lag=2, truncation=truncation)
        prof = moment_profile(model, max_lag=2, truncation=12)
        true_var = (1 + 2 * 0.9 * 0.5 + 0.5 ** 2) / (1 - 0.9 ** 2)
        assert true_var - prof.variances[0] <= prof.tail_bound * (1 + 1e-9)

    def test_default_truncation_matches_per_season_loop(self, rng):
        at_cap = [PeriodicModel.constant(ar=[1.001]),          # explosive
                  PeriodicModel.constant(ar=[0.999]),          # slow decay
                  par14(1.0005 ** 0.25)]                       # explosive, l=4
        models = at_cap + [
            random_model(rng, l=int(rng.integers(1, 7)), p=int(rng.integers(0, 6)),
                         coef_scale=float(rng.uniform(0.3, 1.3)))
            for _ in range(60)]
        assert any(m.l == 1 and m.p > 1 for m in models[3:])
        assert any(m.l > 1 and m.p > m.l for m in models[3:])
        for i, model in enumerate(models):
            want = per_season_truncation(model)
            assert default_truncation(model) == want
            assert want == 10_000 or i >= len(at_cap)

    def test_default_truncation_is_period_aligned(self, rng):
        model = random_stationary_model(rng, l=3)
        r = default_truncation(model)
        assert r % model.l == 0 or model.p == 0
        assert r <= 10_000

    def test_moments_depend_on_time_only_through_season(self, rng):
        model = random_stationary_model(rng, l=4, p=2, q=1)
        trunc = 240
        for s in (1, 3):
            assert unconditional_mean(model, s, trunc) == \
                unconditional_mean(model, s + 4, trunc)
            assert unconditional_variance(model, s, trunc) == \
                unconditional_variance(model, s - 8, trunc)
            assert autocovariance(model, s, 3, trunc) == \
                autocovariance(model, s + 12, 3, trunc)


class TestProfileAgainstReference:
    @pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
    @pytest.mark.parametrize("shape", PROFILE_SHAPES, ids=lambda s: "l%d-p%d-q%d" % s[:3])
    def test_sums_match_the_per_season_loop_bit_for_bit(self, shape, explicit):
        l, p, q, scale = shape
        model = random_stationary_model(np.random.default_rng(l * 100 + p * 10 + q),
                                        l=l, p=p, q=q, coef_scale=scale)
        truncation = 2 * l + 3 if explicit else None
        prof = moment_profile(model, truncation=truncation or default_truncation(model))
        means, autocov, r_max, bound = per_season_profile(model, 2 * l, truncation)
        direct = autocov.shape[1]
        assert prof.truncation == r_max
        assert same_bits(prof.means, means)
        assert same_bits(prof.variances, autocov[:, 0])
        assert same_bits(np.ascontiguousarray(prof.autocov[:, :direct]), autocov)
        assert prof.tail_bound == bound
        assert prof.autocov.shape == (l, 2 * l + 1) and prof.autocov.flags.c_contiguous

    @pytest.mark.parametrize("shape", PROFILE_SHAPES, ids=lambda s: "l%d-p%d-q%d" % s[:3])
    def test_recursion_lags_match_the_scalar_sums(self, shape):
        # the truncated sums obey the recursion exactly, so only rounding
        # separates the two
        l, p, q, scale = shape
        model = random_stationary_model(np.random.default_rng(l * 100 + p * 10 + q),
                                        l=l, p=p, q=q, coef_scale=scale)
        max_lag = 2 * l + max(p, q) + 2
        prof = moment_profile(model, max_lag=max_lag, truncation=default_truncation(model))
        var = prof.variances
        for s in range(1, l + 1, 1 if l < 13 else 7):  # 8 of 52 seasons: the oracle is slow
            for k in range(max(p, q) + 1, max_lag + 1):
                want = autocovariance(model, s, k, prof.truncation, prof.diagnostic)
                tol = 1e-12 * np.sqrt(var[s - 1] * var[(s - 1 - k) % l])
                assert abs(prof.autocov[s - 1, k] - want) <= tol, (s, k)

    def test_daily_recursion_lags_match_the_scalar_sums(self):
        model = daily_model()
        prof = moment_profile(model, truncation=default_truncation(model))
        var = prof.variances
        for s in (1, 2, 183, 365):
            for k in (5, 6, 7, 100, 364, 365, 366, 730):
                want = autocovariance(model, s, k, prof.truncation, prof.diagnostic)
                tol = 1e-12 * np.sqrt(var[s - 1] * var[(s - 1 - k) % 365])
                assert abs(prof.autocov[s - 1, k] - want) <= tol, (s, k)

    def test_pure_ma_lags_beyond_q_are_zero(self):
        model = random_stationary_model(np.random.default_rng(4), l=4, p=0, q=2)
        prof = moment_profile(model, max_lag=9)
        assert np.all(prof.autocov[:, 3:] == 0.0)
        assert np.all(prof.autocov[:, 1] != 0.0)


def assert_matches_the_oracles(model, seasons, lags):
    """The exact profile against the scalar truncated sums at the default truncation:
    means within 1e-13 of the largest |mean|, each autocovariance within 1e-13 of
    ``sqrt(var(s) var(s - k))``; the sums' own tail is below 1e-14 of their scale."""
    prof = moment_profile(model, max_lag=max(lags))
    r_max = default_truncation(model)
    var, top = prof.variances, np.max(np.abs(prof.means))
    for s in seasons:
        assert abs(prof.means[s - 1] - unconditional_mean(model, s, r_max)) <= 1e-13 * top, s
        for k in lags:
            want = autocovariance(model, s, k, r_max)
            tol = 1e-13 * np.sqrt(var[s - 1] * var[(s - 1 - k) % model.l])
            assert abs(prof.autocov[s - 1, k] - want) <= tol, (s, k)


def ar1(phi, l=12):
    return PeriodicModel.constant(ar=[phi], l=l)


class TestExactProfile:
    """The default profile: the fixed point of the periodic Lyapunov equation."""

    @pytest.mark.parametrize("shape", PROFILE_SHAPES, ids=lambda s: "l%d-p%d-q%d" % s[:3])
    def test_matches_the_truncated_oracle(self, shape):
        l, p, q, scale = shape
        model = random_stationary_model(np.random.default_rng(l * 100 + p * 10 + q),
                                        l=l, p=p, q=q, coef_scale=scale)
        seasons = range(1, l + 1, 1 if l < 13 else 7)  # 8 of 52 seasons: the oracle is slow
        assert_matches_the_oracles(model, seasons, range(2 * l + max(p, q) + 3))

    def test_daily_matches_the_truncated_oracle(self):
        assert_matches_the_oracles(daily_model(), (1, 2, 183, 365),
                                   (0, 1, 2, 3, 5, 100, 364, 365, 730))

    def test_reports_exact(self):
        prof = moment_profile(par12(), max_lag=3)
        assert prof.truncation is None and prof.tail_bound == 0.0
        assert prof.autocov.shape == (2, 4) and prof.autocov.flags.c_contiguous
        assert same_bits(np.ascontiguousarray(prof.autocov[:, 0]), prof.variances)

    def test_par12_closed_forms(self):
        # m1 = 1 + 0.5 m2, m2 = 1 + 0.8 m1; v1 = 1 + 0.25 v2, v2 = 1 + 0.64 v1;
        # gamma(s, 1) = phi_s * variance(previous season)
        prof = moment_profile(par12(), max_lag=1)
        assert_allclose(prof.means, [2.5, 3.0], rtol=1e-12)
        assert_allclose(prof.variances, [125.0 / 84.0, 41.0 / 21.0], rtol=1e-12)
        assert_allclose(prof.autocov[:, 1], [0.5 * 41.0 / 21.0, 0.8 * 125.0 / 84.0], rtol=1e-12)

    @pytest.mark.parametrize("phi", [0.999, 0.9995, 0.9999])
    def test_near_unit_root_ar1(self, phi):
        # the weights need about 80,000 lags to fall below 1e-14 at phi = 0.9999, past
        # the 10,000-lag cap of the truncated sums; the fixed point needs none
        prof = moment_profile(ar1(phi), max_lag=3)
        var = 1.0 / (1.0 - phi ** 2)
        assert_allclose(prof.variances, var, rtol=1e-10)
        for k in range(4):
            assert_allclose(prof.autocov[:, k], phi ** k * var, rtol=1e-10)

    def test_pure_noise_is_drift_and_sigma2(self):
        model = PeriodicModel(l=3, p=0, q=0, drift=[1.0, -2.0, 0.5], ar=[], ma=[],
                              sigma2=[1.0, 4.0, 0.25])
        prof = moment_profile(model, max_lag=4)
        assert np.all(prof.means == model.drift) and np.all(prof.variances == model.sigma2)
        assert np.all(prof.autocov[:, 1:] == 0.0)

    def test_explosive_raises_first(self):
        with pytest.raises(NotConvergentError, match="rho_hat"):
            moment_profile(par14(1.2 ** 0.25), max_lag=2)

    def test_memory_stays_at_season_matrices(self):
        # n = p + q = 12: one batched (l, n^2, n^2) system alone takes
        # 365 * 144 * 144 * 8 bytes = 60.5 MB; the scan keeps (l, n + 1, n + 1) arrays
        rng = np.random.default_rng(8)
        l = 365
        ar = rng.uniform(-0.03, 0.03, (8, l))
        ar[0] = 0.6 + 0.1 * np.sin(2 * np.pi * np.arange(l) / l)
        model = PeriodicModel(l=l, p=8, q=4, drift=rng.uniform(-1, 1, l), ar=ar,
                              ma=rng.uniform(-0.5, 0.5, (4, l)), sigma2=rng.uniform(0.5, 2.0, l))
        tracemalloc.start()
        try:
            prof = moment_profile(model, max_lag=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(prof.variances > 0.0)
        assert peak < 10e6

    def test_oracles_and_vsform_do_not_use_the_exact_route(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the exact route was called")

        monkeypatch.setattr(moments, "_exact_moments", forbidden)
        model = par12()
        unconditional_mean(model, 1)
        unconditional_variance(model, 2)
        autocovariance(model, 1, 3)
        default_truncation(model)
        stationarity(build_vsform(model))
        moment_profile(model, max_lag=2, truncation=40)
        with pytest.raises(AssertionError, match="exact route"):
            moment_profile(model, max_lag=2)


class TestProfileArguments:
    # a non-convergent model: a check that ran after any work would raise
    # NotConvergentError instead
    EXPLOSIVE = PeriodicModel.constant(ar=[1.2], l=4)

    @pytest.mark.parametrize("max_lag", [-1, True, False, 2.5, 3.0, "2", np.float64(2)])
    def test_bad_max_lag_rejected(self, max_lag):
        for model in (par12(), self.EXPLOSIVE):
            with pytest.raises(ValueError, match="max_lag must be an integer >= 0"):
                moment_profile(model, max_lag=max_lag)

    @pytest.mark.parametrize("truncation", [True, False, 24.0, 30.5, "24", np.float64(24)])
    def test_bad_truncation_rejected(self, truncation):
        for model in (par12(), self.EXPLOSIVE):
            with pytest.raises(ValueError, match="truncation must be an integer"):
                moment_profile(model, max_lag=2, truncation=truncation)

    def test_numpy_integers_accepted(self):
        got = moment_profile(par12(), max_lag=np.int64(3), truncation=np.int32(40))
        want = moment_profile(par12(), max_lag=3, truncation=40)
        assert got.max_lag == 3 and got.truncation == 40
        assert same_bits(got.autocov, want.autocov)

    def test_max_lag_zero_is_the_variances(self):
        prof = moment_profile(par12(), max_lag=0)
        assert prof.autocov.shape == (2, 1)
        assert same_bits(prof.autocov[:, 0], prof.variances)


class TestProfileCost:
    def test_default_lags_cost_little_more_than_two(self):
        # lags past max(p, q) take one update across all seasons each; a dot
        # per (season, lag) made the default 2l lags cost about 60x max_lag=2
        model = daily_model()
        short, full = [], []
        for _ in range(3):  # interleaved, so a host speed change hits both
            for times, max_lag in ((short, 2), (full, None)):
                start = time.perf_counter()
                moment_profile(model, max_lag=max_lag)
                times.append(time.perf_counter() - start)
        assert min(full) < 5.0 * min(short)


class TestConvergenceCost:
    def test_daily_verdict_costs_little_more_than_weekly(self):
        # the period products double in log2(l) batched steps; one factor per
        # step made the daily verdict cost about 11x an l=52 one
        daily = daily_model()
        weekly = random_stationary_model(np.random.default_rng(52), l=52, p=4, q=0)
        small, large = [], []
        for _ in range(7):  # interleaved, so a host speed change hits both
            for times, model in ((small, weekly), (large, daily)):
                start = time.perf_counter()
                check_convergence(model)
                times.append(time.perf_counter() - start)
        assert min(large) < 8.0 * min(small)
