import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from parma import (
    ForecastOrigin,
    PeriodicModel,
    SolutionInput,
    build_fundamental,
    check_convergence,
    direct_recursion,
    error_weights,
    general_solution,
    green_coefficients,
    known_innovation_weights,
    laplace_determinant,
    lu_determinant,
    mse_profile,
    predict,
    season_tables,
    unconditional_mean,
    unconditional_variance,
)
from parma.greens import _season_weights

from conftest import (daily_model, naive_error_weights, naive_known_weights, random_model,
                      same_bits)


def psi_by_power_series(phi, theta, n):
    """MA-infinity weights of a constant ARMA via polynomial long division.

    Divides ``1 + theta_1 z + ...`` by ``1 - phi_1 z - ...`` term by term.
    """
    phi = list(phi)
    theta = list(theta)
    psi = np.zeros(n + 1)
    psi[0] = 1.0
    for k in range(1, n + 1):
        acc = theta[k - 1] if k <= len(theta) else 0.0
        for j in range(1, min(k, len(phi)) + 1):
            acc += phi[j - 1] * psi[k - j]
        psi[k] = acc
    return psi


def impulse_weight(model, t, r, origin_lead):
    """Weight of eps_{t-r} in y_t, by propagating a one-hot innovation.

    Runs the plain difference-equation recursion from zero initial values
    at origin ``t - origin_lead`` twice (one-hot innovation minus the
    zero-innovation baseline); linearity makes the difference the exact
    coefficient.
    """
    eps = np.zeros(origin_lead + model.q)
    eps[origin_lead + model.q - 1 - r] = 1.0  # chronological storage
    one = direct_recursion(SolutionInput(
        model, origin=t - origin_lead, steps=origin_lead,
        initial=np.zeros(model.p), innovations=eps))
    base = direct_recursion(SolutionInput(
        model, origin=t - origin_lead, steps=origin_lead,
        initial=np.zeros(model.p), innovations=np.zeros_like(eps)))
    return one - base


class TestFundamentalMatrix:
    def test_order_one_is_single_coefficient(self):
        model = PeriodicModel(l=4, p=1, q=0, drift=np.zeros(4),
                              ar=[[0.9, 0.8, 0.7, 0.6]], ma=[], sigma2=np.ones(4))
        f = build_fundamental(model, 4, 1)  # t = 4 sits in season 4
        assert f.values.shape == (1, 1)
        assert f.values[0, 0] == 0.6

    def test_p2_is_tridiagonal(self, rng):
        model = random_model(rng, p=2, q=0, l=3)
        f = build_fundamental(model, 5, 6).values
        assert_allclose(np.diag(f, 1), -1.0)
        for off in range(2, 6):
            assert np.all(np.diag(f, off) == 0.0)
        for off in range(-2, -6, -1):
            assert np.all(np.diag(f, off) == 0.0)
        view = model.view()
        assert f[3, 3] == view.ar(1, 5 - 6 + 4)
        assert f[3, 2] == view.ar(2, 5 - 6 + 4)

    def test_p3_order2_truncates_band(self, rng):
        model = random_model(rng, p=3, q=0, l=4)
        f = build_fundamental(model, 9, 2).values
        view = model.view()
        expect = np.array([[view.ar(1, 8), -1.0],
                           [view.ar(2, 9), view.ar(1, 9)]])
        assert_allclose(f, expect)

    def test_bandwidth_invariant(self, rng):
        for _ in range(10):
            model = random_model(rng, q=0)
            k = int(rng.integers(1, 10))
            f = build_fundamental(model, int(rng.integers(-5, 6)), k).values
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    if j > i + 1 or j < i - model.p + 1:
                        assert f[i - 1, j - 1] == 0.0

    def test_band_matches_per_entry_loop(self, rng):
        # phi_{1+m}(t - order + i) at 1-based (i, i - m), -1 above the diagonal
        for _ in range(30):
            model = random_model(rng, q=0, p=int(rng.integers(0, 7)), l=int(rng.integers(1, 9)))
            order, t = int(rng.integers(1, 12)), int(rng.integers(-20, 20))
            view = model.view()
            want = np.zeros((order, order))
            for i in range(1, order):
                want[i - 1, i] = -1.0
            for m in range(min(model.p, order)):
                for i in range(m + 1, order + 1):
                    want[i - 1, i - 1 - m] = view.ar(1 + m, t - order + i)
            assert same_bits(build_fundamental(model, t, order).values, want)

    def test_deleting_leading_rows_gives_lower_order_matrix(self, rng):
        model = random_model(rng, p=3, q=0, l=5)
        big = build_fundamental(model, 7, 9)
        for r in (1, 3, 6):
            small = build_fundamental(model, 7, 9 - r)
            assert_allclose(big.principal_submatrix(r).values, small.values)

    def test_principal_minor_determinants_walk_down_the_table(self, rng):
        model = random_model(rng, p=3, q=0, l=4)
        k = 10
        big = build_fundamental(model, 5, k)
        table = green_coefficients(model, 5, k)
        for r in range(k):
            det = laplace_determinant(big.principal_submatrix(r))
            assert_allclose(det, table.value(k - r), rtol=1e-10, atol=1e-300)

    def test_block_toeplitz_assembly_matches(self, rng):
        # periodic structure: the full matrix is block Toeplitz in the
        # one-period block, a (-1)-corner block above, a band block below
        for _ in range(5):
            l = int(rng.integers(2, 6))
            p = int(rng.integers(1, l + 1))  # band blocks only defined for p <= l
            model = random_model(rng, p=p, q=0, l=l)
            t, n = int(rng.integers(-3, 4)) * l + l, 3
            block = build_fundamental(model, t, l).values
            corner = np.zeros((l, l))
            corner[l - 1, 0] = -1.0
            band = np.zeros((l, l))
            view = model.view()
            for i in range(1, l + 1):
                for m in range(i + 1, min(p, l + 2) + 1):
                    band[i - 1, l - m + i] = view.ar(m, t - l + i)
            big = np.zeros((n * l, n * l))
            for b in range(n):
                big[b * l:(b + 1) * l, b * l:(b + 1) * l] = block
                if b + 1 < n:
                    big[b * l:(b + 1) * l, (b + 1) * l:(b + 2) * l] = corner
                    big[(b + 1) * l:(b + 2) * l, b * l:(b + 1) * l] = band
            assert_allclose(big, build_fundamental(model, t, n * l).values)


class TestGreenRecurrence:
    def test_constant_ar1_powers(self):
        model = PeriodicModel.constant(ar=[0.5], l=1)
        table = green_coefficients(model, 3, 3)
        assert_allclose(table.nonnegative, [1.0, 0.5, 0.25, 0.125])

    def test_seed_values(self, rng):
        model = random_model(rng, p=4, q=0)
        table = green_coefficients(model, 2, 5)
        assert table.value(0) == 1.0
        for m in (1, 2, 3):
            assert table.value(-m) == 0.0

    def test_lag_one_is_first_ar_coefficient(self, rng):
        model = random_model(rng, p=3, q=0, l=4)
        t = 11
        table = green_coefficients(model, t, 1)
        assert table.value(1) == model.view().ar(1, t)

    def test_par14_full_period_is_coefficient_product(self):
        a, b, c, d = 0.9, 1.3, -0.7, 0.5
        model = PeriodicModel(l=4, p=1, q=0, drift=np.zeros(4),
                              ar=[[a, b, c, d]], ma=[], sigma2=np.ones(4))
        table = green_coefficients(model, 8, 4)  # t = 8 sits in season 4
        assert_allclose(table.value(4), a * b * c * d, rtol=1e-14)

    def test_matches_naive_laplace_expansion(self, rng):
        for _ in range(20):
            model = random_model(rng, p=int(rng.integers(1, 4)), q=0,
                                 l=int(rng.integers(1, 6)))
            t = int(rng.integers(-6, 7))
            table = green_coefficients(model, t, 12)
            for k in range(1, 13):
                det = laplace_determinant(build_fundamental(model, t, k))
                assert_allclose(table.value(k), det,
                                rtol=1e-10, atol=1e-300)

    def test_random_par35_matches_oracle(self, rng):
        model = random_model(rng, p=3, q=0, l=5)
        t = 5
        table = green_coefficients(model, t, 12)
        for k in range(1, 13):
            det = laplace_determinant(build_fundamental(model, t, k))
            assert abs(table.value(k) - det) <= 1e-10 * max(1.0, abs(det))

    def test_lu_agreement_at_larger_orders(self, rng):
        model = random_model(rng, p=4, q=0, l=6)
        table = green_coefficients(model, 0, 150)
        for k in (40, 97, 150):
            det = lu_determinant(build_fundamental(model, 0, k))
            assert_allclose(table.value(k), det, rtol=1e-8)

    def test_anchor_shift_by_period_is_identical(self, rng):
        model = random_model(rng, q=0)
        t = int(rng.integers(-8, 9))
        a = green_coefficients(model, t, 30)
        b = green_coefficients(model, t + model.l, 30)
        assert np.array_equal(a.values, b.values)
        assert a.anchor_season == b.anchor_season

    def test_p0_table_is_impulse_only(self):
        model = PeriodicModel(l=3, p=0, q=0, drift=np.zeros(3), ar=[], ma=[],
                              sigma2=np.ones(3))
        table = green_coefficients(model, 1, 6)
        assert_allclose(table.nonnegative, [1, 0, 0, 0, 0, 0, 0])

    def test_constant_model_reduces_to_classical_psi(self, rng):
        # spectral radius kept moderate so the comparison stays well scaled
        for phi, theta in [((0.5,), ()), ((0.6, -0.3), ()), ((0.5,), (0.3,)),
                           ((1.2, -0.5), (0.4, 0.2))]:
            model = PeriodicModel.constant(ar=phi, ma=theta, l=3)
            psi = psi_by_power_series(phi, theta, 50)
            got = error_weights(model, 7, 51)
            assert_allclose(got, psi, rtol=0, atol=1e-12)

    def test_overflow_flag(self):
        model = PeriodicModel.constant(ar=[2.0], l=1)
        assert green_coefficients(model, 0, 400).overflowing
        assert not green_coefficients(model, 0, 10).overflowing

    def test_nan_table_is_overflowing(self):
        # |g| reaches inf, and inf - inf gives NaN, which no comparison exceeds
        model = PeriodicModel(l=4, p=2, q=0, drift=np.zeros(4),
                              ar=[[3, 3, 3, 3], [-3, 2, -3, 2]], ma=[], sigma2=np.ones(4))
        with np.errstate(all="ignore"):
            table = green_coefficients(model, 1, 800)
        assert np.isnan(table.values).sum() == 143
        assert table.overflowing


def indexed_green_loop(model, t, max_lag):
    """Reference: the scalar recurrence with one table lookup and one index
    subtraction per term (the kernel before it read the list's tail)."""
    p, l = model.p, model.l
    pad = max(p, 1) - 1
    out = np.zeros(pad + max_lag + 1)
    out[pad] = 1.0
    if p > 0 and max_lag > 0:
        ar_rows = model.ar.tolist()
        g = [0.0] * (max_lag + 1)
        g[0] = 1.0
        for k in range(1, max_lag + 1):
            base = t - k - 1  # season0 of time t-k+i is (base + i) % l
            top = p if p < k else k
            acc = 0.0
            for i in range(1, top + 1):
                acc += ar_rows[i - 1][(base + i) % l] * g[k - i]
            g[k] = acc
        out[pad:] = g
    return out


PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
#: model shapes and anchors; the explicit examples pin l = 1, p > l, q > p and p = 0
MODELS = dict(l=st.integers(1, 13), p=st.integers(0, 6), q=st.integers(0, 4),
              t=st.integers(-40, 40), seed=st.integers(0, 2**32 - 1))


class TestRecurrenceProperties:
    """Hypothesis suite: the Green recurrence against its oracles."""

    @settings(PROPERTY, max_examples=300)
    @given(max_lag=st.integers(0, 60), scale=st.sampled_from([0.3, 1.5, 4.0]), **MODELS)
    @example(l=1, p=3, q=0, t=5, seed=1, max_lag=20, scale=0.3)
    @example(l=2, p=6, q=1, t=-7, seed=2, max_lag=30, scale=1.5)
    @example(l=4, p=0, q=2, t=-40, seed=3, max_lag=9, scale=0.3)
    @example(l=3, p=2, q=0, t=-1, seed=4, max_lag=0, scale=1.5)
    def test_table_equals_indexed_loop(self, l, p, q, t, seed, max_lag, scale):
        model = random_model(np.random.default_rng(seed), p=p, q=q, l=l, coef_scale=scale)
        assert same_bits(green_coefficients(model, t, max_lag).values,
                         indexed_green_loop(model, t, max_lag))

    @settings(PROPERTY, max_examples=100)
    @given(k=st.integers(1, 60), **MODELS)
    @example(l=1, p=2, q=0, t=0, seed=1, k=40)
    @example(l=2, p=5, q=3, t=-9, seed=2, k=17)
    @example(l=3, p=0, q=1, t=4, seed=3, k=5)
    def test_table_equals_lu_determinant(self, l, p, q, t, seed, k):
        model = random_model(np.random.default_rng(seed), p=p, q=q, l=l)
        got = green_coefficients(model, t, k).value(k)
        assert_allclose(got, lu_determinant(build_fundamental(model, t, k)), rtol=1e-8)

    @settings(PROPERTY, max_examples=100)
    @given(max_lag=st.integers(0, 60), **MODELS)
    @example(l=1, p=3, q=1, t=-3, seed=1, max_lag=25)
    @example(l=2, p=4, q=0, t=-40, seed=2, max_lag=30)
    def test_shift_by_period_is_identical(self, l, p, q, t, seed, max_lag):
        model = random_model(np.random.default_rng(seed), p=p, q=q, l=l)
        a, b = green_coefficients(model, t, max_lag), green_coefficients(model, t + l, max_lag)
        assert same_bits(a.values, b.values) and a.anchor_season == b.anchor_season
        assert same_bits(error_weights(model, t, max_lag + 1),
                         error_weights(model, t + l, max_lag + 1))

    @settings(PROPERTY, max_examples=150)
    @given(steps=st.integers(0, 60), scale=st.sampled_from([0.3, 1.0, 1.8]), **MODELS)
    @example(l=1, p=4, q=2, t=3, seed=1, steps=40, scale=1.0)
    @example(l=2, p=5, q=0, t=-11, seed=2, steps=3, scale=1.8)
    @example(l=3, p=0, q=4, t=0, seed=3, steps=20, scale=0.3)
    @example(l=5, p=1, q=3, t=7, seed=4, steps=0, scale=1.0)
    def test_general_solution_equals_direct_recursion(self, l, p, q, t, seed, steps, scale):
        rng = np.random.default_rng(seed)
        model = random_model(rng, p=p, q=q, l=l, coef_scale=scale)
        inp = SolutionInput(model, origin=t, steps=steps, initial=rng.uniform(-5, 5, p),
                            innovations=rng.uniform(-5, 5, steps + q))
        a, b = general_solution(inp).total, direct_recursion(inp)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    @settings(PROPERTY, max_examples=100)
    @given(l=st.integers(1, 13), t=st.integers(-40, 40),
           phi=st.lists(st.floats(-0.24, 0.24), max_size=4),  # sum |phi| < 1: stable
           theta=st.lists(st.floats(-0.9, 0.9), max_size=4))
    @example(l=1, t=0, phi=[0.2, -0.2], theta=[0.3])
    @example(l=2, t=-5, phi=[0.2, 0.1, -0.2, 0.24], theta=[0.5, 0.2, -0.1, 0.3])
    @example(l=3, t=2, phi=[], theta=[0.6, 0.2])
    def test_constant_model_reduces_to_classical_psi(self, l, t, phi, theta):
        model = PeriodicModel.constant(ar=phi, ma=theta, l=l)
        assert_allclose(error_weights(model, t, 51), psi_by_power_series(phi, theta, 50),
                        rtol=0, atol=1e-12)


#: (l, p, q): l = 1, p = 0, p > l, q > p, and a monthly model
TABLE_SHAPES = [(1, 2, 1), (4, 0, 2), (3, 5, 1), (5, 1, 3), (12, 4, 2)]


class TestSeasonTables:
    @pytest.mark.parametrize("l,p,q", TABLE_SHAPES)
    def test_rows_equal_single_anchor_tables(self, rng, l, p, q):
        model = random_model(rng, p=p, q=q, l=l)
        pad = max(p, 1) - 1
        anchor_sets = [
            None,                   # every season, in order
            [-7],                   # one row, negative time
            [-3, 0, 2 * l + 1],     # a few rows
            list(range(-20, -8)),   # 12 rows, seasons repeat for l < 12
        ]
        for max_lag in sorted({max(l - 2, 0), l, 3 * l + 1}):  # H < l, H = l, H > l
            for anchors in anchor_sets:
                times = range(1, l + 1) if anchors is None else anchors
                got = season_tables(model, max_lag, anchors)
                assert got.shape == (len(times), pad + max_lag + 1)
                assert not got.flags.writeable
                # both entry points share one kernel, so each meets the reference
                for row, t in zip(got, times):
                    want = indexed_green_loop(model, t, max_lag)
                    assert same_bits(row, want)
                    assert same_bits(green_coefficients(model, t, max_lag).values, want)

    def test_many_rows_equal_one_row_calls(self, rng):
        model = random_model(rng, p=4, q=0, l=52)
        anchors = list(range(-30, 30))
        many = season_tables(model, 200, anchors)
        for i, t in enumerate(anchors):
            assert same_bits(many[i], season_tables(model, 200, [t])[0])
            assert same_bits(many[i], indexed_green_loop(model, t, 200))

    def test_daily_shapes_equal_indexed_loop(self):
        # one long table, and every season's stack to one and to four periods
        model = daily_model()
        want = indexed_green_loop(model, 100, 10_000)
        assert same_bits(green_coefficients(model, 100, 10_000).values, want)
        assert same_bits(season_tables(model, 10_000, [100])[0], want)
        for max_lag in (365, 1460):
            got = season_tables(model, max_lag)
            for s in range(1, model.l + 1):
                assert same_bits(got[s - 1], indexed_green_loop(model, s, max_lag))

    @pytest.mark.parametrize("l,p,q", TABLE_SHAPES)
    def test_season_weights_rows_equal_per_lag_loop(self, rng, l, p, q):
        model = random_model(rng, p=p, q=q, l=l)
        for anchors in (None, [5], list(range(-9, 3)), list(range(-75, 75))):
            times = range(1, l + 1) if anchors is None else anchors
            for max_lag in (0, 1, q, 2 * l + 3, 300):  # 300 x 150 rows: several blocks
                got = _season_weights(model, season_tables(model, max_lag, anchors),
                                      anchors)
                for row, t in zip(got, times):
                    assert np.array_equal(row, naive_error_weights(model, t, max_lag + 1))

    def test_negative_max_lag_rejected(self, rng):
        with pytest.raises(ValueError, match="max_lag"):
            season_tables(random_model(rng), -1)


class TestErrorWeights:
    @pytest.mark.parametrize("l,p,q", TABLE_SHAPES)
    def test_equals_per_lag_loop(self, rng, l, p, q):
        # horizons below q exercise lags r < q, where only j <= r terms enter
        model = random_model(rng, p=p, q=q, l=l)
        for t in (-4, 0, 7):
            for horizon in (1, 2, q, q + 1, 3 * l + 2):
                if horizon >= 1:
                    assert np.array_equal(error_weights(model, t, horizon),
                                          naive_error_weights(model, t, horizon))

    def test_pure_ar_equals_green_table(self, rng):
        model = random_model(rng, p=2, q=0, l=3)
        table = green_coefficients(model, 4, 7)
        assert np.array_equal(error_weights(model, 4, 8), table.nonnegative)

    def test_constant_arma11_psi(self):
        model = PeriodicModel.constant(ar=[0.5], ma=[0.3], l=1)
        assert_allclose(error_weights(model, 0, 3), [1.0, 0.8, 0.4])

    def test_parma_matches_impulse_propagation(self, rng):
        for _ in range(5):
            model = random_model(rng, p=1, q=1, l=2)
            t = int(rng.integers(0, 5))
            h = 6
            got = error_weights(model, t, h)
            want = [impulse_weight(model, t, r, origin_lead=h) for r in range(h)]
            assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestKnownInnovationWeights:
    @pytest.mark.parametrize("l,p,q", TABLE_SHAPES)
    def test_equals_per_weight_loop(self, rng, l, p, q):
        model = random_model(rng, p=p, q=q, l=l)
        for t in (-4, 0, 7):
            for lead in (1, 2, q, q + 3):
                if lead >= 1:
                    assert np.array_equal(known_innovation_weights(model, t, lead),
                                          naive_known_weights(model, t, lead))

    def test_q0_is_empty(self, rng):
        model = random_model(rng, q=0)
        assert known_innovation_weights(model, 3, 2).size == 0

    def test_single_ma_lag_one_step(self, rng):
        model = random_model(rng, p=2, q=1, l=3)
        t = 5
        got = known_innovation_weights(model, t, lead=1)
        assert_allclose(got, [model.view().ma(1, t)])

    def test_parma12_matches_impulse_propagation(self, rng):
        for _ in range(5):
            model = random_model(rng, p=1, q=2, l=2)
            t = int(rng.integers(0, 4))
            lead = 2
            got = known_innovation_weights(model, t, lead)
            want = [impulse_weight(model, t, r, origin_lead=lead)
                    for r in range(lead, lead + model.q)]
            assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestDeterminantOracles:
    def test_laplace_matches_numpy_on_dense(self, rng):
        for n in (1, 2, 5, 8):
            a = rng.normal(size=(n, n))
            assert_allclose(laplace_determinant(a), np.linalg.det(a), rtol=1e-9)

    def test_lu_matches_numpy(self, rng):
        a = rng.normal(size=(60, 60))
        assert_allclose(lu_determinant(a), np.linalg.det(a), rtol=1e-9)

    def test_guards(self):
        with pytest.raises(ValueError, match="order 14"):
            laplace_determinant(np.eye(15))
        with pytest.raises(ValueError, match="order 512"):
            lu_determinant(np.eye(513))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            laplace_determinant(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="square"):
            lu_determinant(np.zeros((2, 3)))

    def test_singular_matrix_is_zero(self):
        a = np.ones((4, 4))
        assert lu_determinant(a) == 0.0

    def test_empty_matrix_is_one(self):
        assert lu_determinant(np.zeros((0, 0))) == 1.0

    def test_import_leaves_scipy_out(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, parma; print('scipy' in sys.modules)"],
            capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"


class TestContractEdges:
    def test_table_lag_bounds(self, rng):
        model = random_model(rng, p=2, q=0)
        table = green_coefficients(model, 0, 5)
        with pytest.raises(IndexError):
            table.value(6)
        with pytest.raises(IndexError):
            table.value(-2)
        with pytest.raises(IndexError):
            table.lags(-2, 3)

    def test_negative_max_lag_rejected(self, rng):
        with pytest.raises(ValueError, match="max_lag"):
            green_coefficients(random_model(rng), 0, -1)

    @pytest.mark.parametrize("bad", [True, 2.5, np.float64(3.0), 30.5], ids=repr)
    @pytest.mark.parametrize("name,call", [
        ("max_lag", lambda model, lag: green_coefficients(model, 1, lag)),
        ("max_lag", lambda model, lag: season_tables(model, lag)),
        ("probe_lag", lambda model, lag: check_convergence(model, probe_lag=lag)),
    ], ids=["green_coefficients", "season_tables", "check_convergence"])
    def test_non_integer_lag_rejected(self, rng, name, call, bad):
        with pytest.raises(ValueError, match=name):
            call(random_model(rng, p=2, q=1, l=3), bad)

    def test_zero_order_fundamental_rejected(self, rng):
        with pytest.raises(ValueError, match="order"):
            build_fundamental(random_model(rng), 0, 0)

    @pytest.mark.parametrize("bad", [True, 2.5, np.float64(3.0)], ids=repr)
    def test_non_integer_order_rejected(self, rng, bad):
        with pytest.raises(ValueError, match=r"^order must be an integer >= 1, got "):
            build_fundamental(random_model(rng, p=1), 0, bad)

    def test_bad_principal_submatrix(self, rng):
        f = build_fundamental(random_model(rng, p=1, q=0), 0, 3)
        with pytest.raises(ValueError):
            f.principal_submatrix(3)

    def test_weight_helpers_validate_inputs(self, rng):
        model = random_model(rng, p=1, q=1, l=2)
        with pytest.raises(ValueError, match="horizon"):
            error_weights(model, 0, 0)
        with pytest.raises(ValueError, match="lead"):
            known_innovation_weights(model, 0, 0)

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, np.float64(3.0)], ids=repr)
    @pytest.mark.parametrize("name,call", [
        ("horizon", lambda model, h: error_weights(model, 0, h)),
        ("lead", lambda model, h: known_innovation_weights(model, 0, h)),
        ("max_horizon", lambda model, h: predict(
            model, ForecastOrigin(time=0, tail=[1.0], innovations=[0.5]), h)),
        ("max_horizon", lambda model, h: mse_profile(model, 0, h)),
    ], ids=["error_weights", "known_innovation_weights", "predict", "mse_profile"])
    def test_weight_helper_counts_rejected_by_name(self, name, call, bad):
        # a bad count is named as the caller's argument, not as the kernel's max_lag
        model = random_model(np.random.default_rng(3), p=1, q=1, l=2)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got "):
            call(model, bad)

    TIME_CALLS = [
        ("t", lambda model, t: green_coefficients(model, t, 4)),
        ("seasons", lambda model, t: season_tables(model, 4, [t])),
        ("t", lambda model, t: build_fundamental(model, t, 3)),
        ("origin_time", lambda model, t: mse_profile(model, t, 4)),
        ("time", lambda model, t: predict(
            model, ForecastOrigin(time=t, tail=[1.0], innovations=[0.5]), 4)),
        ("origin", lambda model, t: general_solution(SolutionInput(
            model, origin=t, steps=2, initial=[1.0], innovations=[0.5, 0.1, 0.2]))),
        ("season", lambda model, t: unconditional_mean(model, t)),
        ("season", lambda model, t: unconditional_variance(model, t)),
    ]
    TIME_IDS = ["green_coefficients", "season_tables", "build_fundamental", "mse_profile",
                "ForecastOrigin", "SolutionInput", "unconditional_mean", "unconditional_variance"]

    @pytest.mark.parametrize("bad", [True, 1.5, np.float64(2.0)], ids=repr)
    @pytest.mark.parametrize("name,call", TIME_CALLS, ids=TIME_IDS)
    def test_non_integer_time_rejected_by_name(self, name, call, bad):
        # a float or bool time is named, not truncated, run as 1 or left to numpy
        model = random_model(np.random.default_rng(3), p=1, q=1, l=2)
        with pytest.raises(ValueError, match=rf"^{name} must "):
            call(model, bad)

    @pytest.mark.parametrize("t", [-7, np.int64(-7), 0], ids=repr)
    @pytest.mark.parametrize("name,call", TIME_CALLS, ids=TIME_IDS)
    def test_negative_and_numpy_times_accepted(self, name, call, t):
        call(random_model(np.random.default_rng(3), p=1, q=1, l=2), t)
