import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from parma import (
    autocovariance,
    ForecastOrigin,
    PeriodicModel,
    SamplePath,
    SimPlan,
    SolutionInput,
    McForecastRow,
    direct_recursion,
    mc_forecast_experiment,
    predict,
    replay,
    simulate,
    unconditional_variance,
)
from parma.sim import _recurse, _resolve_burn_in

from conftest import random_model, same_bits


def white_noise(l=1, sigma2=1.0):
    return PeriodicModel(l=l, p=0, q=0, drift=np.zeros(l), ar=[], ma=[],
                         sigma2=np.full(l, sigma2))


def block_se(values, n_blocks=50):
    """Standard error of the mean from batch means (autocorrelation-robust)."""
    blocks = np.array_split(values, n_blocks)
    means = np.array([b.mean() for b in blocks])
    return means.std(ddof=1) / np.sqrt(n_blocks)


class TestPlanContracts:
    def test_rejects_small_burn_in_for_stationary(self):
        model = PeriodicModel.constant(ar=[0.5], l=4)
        with pytest.raises(ValueError, match="burn_in"):
            simulate(SimPlan(model, length=10, burn_in=5))

    def test_default_burn_in_beyond_the_cap_raises(self):
        # the zero start takes ~230,000 steps to decay below 1e-10, past the
        # default's 1000*l cap; an explicit burn_in has no cap
        model = PeriodicModel.constant(ar=[0.9999], drift=1.0, l=12)
        with pytest.raises(ValueError, match=r"needs 230256 burn-in steps .* pass burn_in"):
            simulate(SimPlan(model, length=12))
        plan = SimPlan(model, length=12, burn_in=24_000)
        assert _resolve_burn_in(plan) == 24_000
        assert simulate(plan).y.shape == (12,)

    def test_rejects_burn_in_for_explosive(self):
        model = PeriodicModel.constant(ar=[1.5], l=1)
        with pytest.raises(ValueError, match="zero initial values"):
            simulate(SimPlan(model, length=10, burn_in=50))

    def test_student_t_needs_df(self):
        with pytest.raises(ValueError, match="df > 2"):
            SimPlan(white_noise(), length=10, dist="student-t")

    @pytest.mark.parametrize("df", [np.inf, np.nan], ids=repr)
    def test_student_t_needs_finite_df(self, df):
        # inf and nan pass ``df <= 2`` but make every draw NaN
        with pytest.raises(ValueError, match="finite df > 2"):
            SimPlan(white_noise(), length=10, dist="student-t", df=df)
        with pytest.raises(ValueError, match="finite df > 2"):
            mc_forecast_experiment(white_noise(), ForecastOrigin(time=0), 2, 10,
                                   dist="student-t", df=df)

    def test_custom_needs_draws(self):
        with pytest.raises(ValueError, match="custom"):
            SimPlan(white_noise(), length=10, dist="custom")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    def test_custom_draws_must_be_finite(self, bad):
        draws = np.zeros((1, 30))
        draws[0, 17] = bad
        plan = SimPlan(white_noise(), length=20, dist="custom", custom=draws)
        with pytest.raises(ValueError, match="custom draws must be finite"):
            simulate(plan)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            SimPlan(white_noise(), length=0)
        with pytest.raises(ValueError, match="n_paths"):
            SimPlan(white_noise(), length=5, n_paths=0)
        with pytest.raises(ValueError, match="dist"):
            SimPlan(white_noise(), length=5, dist="cauchy")

    @pytest.mark.parametrize("bad", [True, 2.5, np.float64(3.0), "5"], ids=repr)
    @pytest.mark.parametrize("field", ["length", "n_paths", "burn_in"])
    def test_non_integer_counts_rejected_by_name(self, field, bad):
        counts = dict(length=5, n_paths=2, burn_in=40)
        counts[field] = bad
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= "):
            SimPlan(white_noise(), **counts)

    def test_custom_draws_shape_checked(self):
        plan = SimPlan(white_noise(), length=5, dist="custom",
                       custom=np.zeros((1, 3)))
        with pytest.raises(ValueError, match="shape"):
            simulate(plan)


class TestDeterminismAndReplay:
    def test_identical_plans_identical_paths(self, rng):
        model = random_model(rng, p=1, q=1, l=2, coef_scale=0.5)
        a = simulate(SimPlan(model, length=200, seed=77))
        b = simulate(SimPlan(model, length=200, seed=77))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.eps, b.eps)

    def test_different_seeds_differ(self):
        model = white_noise()
        a = simulate(SimPlan(model, length=50, seed=1))
        b = simulate(SimPlan(model, length=50, seed=2))
        assert not np.array_equal(a.y, b.y)

    def test_replay_is_bit_exact(self, rng):
        for _ in range(5):
            model = random_model(rng, p=int(rng.integers(0, 4)),
                                 q=int(rng.integers(0, 3)),
                                 l=int(rng.integers(1, 5)), coef_scale=0.4)
            path = simulate(SimPlan(model, length=300, seed=5))
            assert np.array_equal(replay(model, path), path.y)

    def test_replay_rejects_a_short_pre_history(self, rng):
        model = random_model(rng, p=2, q=1, l=3, coef_scale=0.3)
        path = simulate(SimPlan(model, length=20, seed=4))
        for pre_y, pre_eps in ((path.pre_y[:1], path.pre_eps), (path.pre_y, path.pre_eps[:0])):
            short = SamplePath(start=1, seasons=path.seasons, y=path.y, eps=path.eps,
                               pre_y=pre_y, pre_eps=pre_eps)
            with pytest.raises(ValueError, match="p=2 values and q=1"):
                replay(model, short)

    def test_explosive_paths_replay_from_zero_start(self):
        model = PeriodicModel.constant(ar=[1.3], l=2)
        path = simulate(SimPlan(model, length=40, seed=3))
        assert np.array_equal(path.pre_y, [0.0])
        assert np.array_equal(replay(model, path), path.y)

    def test_batch_paths_are_independent_streams(self):
        model = white_noise()
        paths = simulate(SimPlan(model, length=100, n_paths=3, seed=9))
        assert len(paths) == 3
        assert not np.array_equal(paths[0].y, paths[1].y)
        # re-running reproduces every stream
        again = simulate(SimPlan(model, length=100, n_paths=3, seed=9))
        for a, b in zip(paths, again):
            assert np.array_equal(a.y, b.y)

    def test_season_alignment(self):
        model = white_noise(l=4)
        path = simulate(SimPlan(model, length=10, seed=0))
        assert path.start == 1
        assert path.seasons.tolist() == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2]


class TestInnovationContract:
    def test_mean_and_autocorrelation(self):
        path = simulate(SimPlan(white_noise(), length=200_000, seed=11))
        eps = path.eps
        n = len(eps)
        assert abs(eps.mean()) < 4.0 / np.sqrt(n)
        for k in range(1, 6):
            r = np.corrcoef(eps[:-k], eps[k:])[0, 1]
            assert abs(r) < 4.0 / np.sqrt(n)

    def test_white_noise_variance(self):
        path = simulate(SimPlan(white_noise(), length=100_000, seed=13))
        sq = path.eps ** 2
        assert abs(sq.mean() - 1.0) <= 3.0 * sq.std(ddof=1) / np.sqrt(len(sq))

    def test_student_t_is_variance_normalized(self):
        model = white_noise(sigma2=2.5)
        path = simulate(SimPlan(model, length=400_000, seed=17,
                                dist="student-t", df=6.0))
        sq = path.eps ** 2
        assert abs(sq.mean() - 2.5) <= 4.0 * sq.std(ddof=1) / np.sqrt(len(sq))

    def test_custom_draws_are_used_verbatim(self):
        # draws cover burn-in plus the kept window (default burn = 10*l)
        model = white_noise(sigma2=4.0)
        draws = np.linspace(-1, 1, 30)[None, :]
        path = simulate(SimPlan(model, length=20, dist="custom", custom=draws))
        assert_allclose(path.eps, 2.0 * draws[0, 10:])


class TestMatchesTheory:
    def test_constant_ar1_lag_one_autocorrelation(self):
        model = PeriodicModel.constant(ar=[0.5], l=1)
        path = simulate(SimPlan(model, length=200_000, seed=23))
        y = path.y
        r = np.corrcoef(y[:-1], y[1:])[0, 1]
        prods = (y[:-1] - y.mean()) * (y[1:] - y.mean())
        se = block_se(prods) / y.var()
        assert abs(r - 0.5) < 3.0 * se

    def test_par14_seasonal_variances(self):
        model = PeriodicModel(l=4, p=1, q=0, drift=np.zeros(4),
                              ar=[[0.9, 0.8, 0.7, 0.6]], ma=[],
                              sigma2=[1.0, 0.5, 2.0, 1.5])
        path = simulate(SimPlan(model, length=400_000, seed=29))
        for s in range(1, 5):
            ys = path.y[path.seasons == s]
            sample = ys - ys.mean()
            theo = unconditional_variance(model, s)
            se = block_se(sample ** 2)
            assert abs((sample ** 2).mean() - theo) < 3.0 * se

    def test_parma_moments_match_simulation(self):
        # the MA part reroutes the moment series through the adjusted
        # weights; a long path is a fully independent witness
        model = PeriodicModel(l=2, p=1, q=1, drift=np.zeros(2),
                              ar=[[0.5, 0.8]], ma=[[0.4, -0.3]],
                              sigma2=[1.0, 2.0])
        path = simulate(SimPlan(model, length=400_000, seed=43))
        for s in (1, 2):
            ys = path.y[path.seasons == s]
            centered = ys - ys.mean()
            theo_var = unconditional_variance(model, s)
            assert abs((centered ** 2).mean() - theo_var) \
                < 3.0 * block_se(centered ** 2)
        # lag-1 cross-season covariance, anchored at season 2
        y2 = path.y[path.seasons == 2]
        y1 = path.y[path.seasons == 1]
        n = min(len(y1), len(y2))
        prods = (y2[:n] - y2.mean()) * (y1[:n] - y1.mean())
        theo = autocovariance(model, 2, 1)
        assert abs(prods.mean() - theo) < 3.0 * block_se(prods)


class TestMcForecastExperiment:
    def test_par12_desk_case(self):
        model = PeriodicModel(l=2, p=1, q=0, drift=np.zeros(2),
                              ar=[[0.5, 0.8]], ma=[], sigma2=np.ones(2))
        rows = mc_forecast_experiment(
            model, ForecastOrigin(time=2, tail=[1.0]), max_horizon=8,
            n_paths=20_000, seed=31)
        assert all(r.passed for r in rows)
        assert all(abs(r.bias) < r.bias_limit for r in rows)

    def test_explosive_model_is_exact_conditionally(self):
        model = PeriodicModel(l=4, p=1, q=0, drift=np.zeros(4),
                              ar=[[1.2 ** 0.25] * 4], ma=[], sigma2=np.ones(4))
        rows = mc_forecast_experiment(
            model, ForecastOrigin(time=4, tail=[2.0]), max_horizon=8,
            n_paths=20_000, seed=37)
        assert all(r.passed for r in rows)
        # conditional mean-square error grows but stays matched
        assert rows[-1].theoretical_mse > rows[0].theoretical_mse

    @pytest.mark.parametrize("bad", [1, True, 2.5], ids=repr)
    def test_path_count_needs_a_standard_error(self, bad):
        # a single path has no standard error: its nan must not read as a pass
        model = PeriodicModel.constant(ar=[0.5], l=2)
        with pytest.raises(ValueError, match=r"^n_paths must be an integer >= 2, got "):
            mc_forecast_experiment(model, ForecastOrigin(time=0, tail=[1.0]), 2, n_paths=bad)

    def test_overflowing_squared_errors_fail(self):
        # squared errors near 1e305 overflow in the standard error: se = inf
        # made z = 0, which read as a pass
        model = PeriodicModel.constant(ar=[0.5], sigma2=1e305, l=2)
        with np.errstate(all="raise"):  # only the guarded row arithmetic overflows
            rows = mc_forecast_experiment(model, ForecastOrigin(time=0, tail=[0.0]), 2,
                                          n_paths=200)
        assert [r.std_error for r in rows] == [np.inf, np.inf]
        assert not any(r.passed for r in rows)

    def test_parma11_uses_ma_adjusted_weights(self):
        model = PeriodicModel(l=2, p=1, q=1, drift=np.zeros(2),
                              ar=[[0.5, 0.8]], ma=[[0.4, -0.3]],
                              sigma2=[1.0, 2.0])
        rows = mc_forecast_experiment(
            model, ForecastOrigin(time=2, tail=[1.0], innovations=[0.6]),
            max_horizon=8, n_paths=20_000, seed=41)
        assert all(r.passed for r in rows)


def reference_mc(model, origin, max_horizon, n_paths, seed=0, dist="gaussian",
                 df=None):
    """Per-horizon Monte Carlo loop over (n_paths, H) draws, one column a step."""
    report = predict(model, origin, max_horizon)
    p, q, l = model.p, model.q, model.l
    tau = origin.time
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if dist == "gaussian":
        raw = rng.standard_normal((n_paths, max_horizon))
    else:
        raw = rng.standard_t(df, size=(n_paths, max_horizon))
        raw /= np.sqrt(df / (df - 2.0))
    sig = np.sqrt(model.sigma2[(np.arange(tau + 1, tau + max_horizon + 1) - 1) % l])
    eps = raw * sig[None, :]
    state = [np.full(n_paths, origin.tail[m]) for m in range(p)]
    hist = [np.full(n_paths, origin.innovations[j]) for j in range(q)]
    errors = np.zeros((n_paths, max_horizon))
    for h in range(1, max_horizon + 1):
        s0 = model.clock.season0(tau + h)
        y = model.drift[s0] + eps[:, h - 1]
        for j in range(q):
            y = y + model.ma[j, s0] * hist[j]
        for m in range(p):
            y = y + model.ar[m, s0] * state[m]
        errors[:, h - 1] = y - report.points[h - 1]
        if p:
            state = [y] + state[:-1]
        if q:
            hist = [eps[:, h - 1]] + hist[:-1]
    rows = []
    for h in range(1, max_horizon + 1):
        err = errors[:, h - 1]
        sq = err * err
        emp = float(sq.mean())
        se = float(sq.std(ddof=1) / np.sqrt(n_paths))
        theo = float(report.mses[h - 1])
        z = (emp - theo) / se if se > 0 else 0.0
        rows.append(McForecastRow(
            horizon=h, bias=float(err.mean()),
            bias_limit=4.0 * float(np.sqrt(theo / n_paths)),
            empirical_mse=emp, theoretical_mse=theo, std_error=se,
            z_score=float(z),
            passed=bool(np.isfinite(emp) and np.isfinite(se) and abs(z) <= 3.0)))
    return rows


class TestOneRecursionKernel:
    """simulate, replay and the Monte Carlo experiment share one kernel."""

    @pytest.mark.parametrize("l,p,q,dist", [(12, 3, 2, "gaussian"),
                                            (1, 0, 0, "gaussian"),
                                            (4, 1, 3, "student-t"),
                                            (3, 5, 1, "gaussian")])
    def test_batch_path_equals_single_path(self, rng, l, p, q, dist):
        # both use SeedSequence(seed) child 0: the 2-D and 1-D kernels agree
        model = random_model(rng, p=p, q=q, l=l, coef_scale=0.15)
        df = 5.0 if dist == "student-t" else None
        single = simulate(SimPlan(model, length=150, seed=19, dist=dist, df=df))
        batch = simulate(SimPlan(model, length=150, n_paths=4, seed=19,
                                 dist=dist, df=df))
        for name in ("y", "eps", "pre_y", "pre_eps", "seasons"):
            assert np.array_equal(getattr(batch[0], name), getattr(single, name))
        for path in batch:
            assert np.array_equal(replay(model, path), path.y)

    def test_burn_in_shorter_than_orders_pads_pre_history_with_zeros(self):
        model = PeriodicModel.constant(ar=[0.05] * 12, ma=[0.1] * 12, l=1)
        for plan in (SimPlan(model, length=30, burn_in=10, seed=2),
                     SimPlan(model, length=30, burn_in=10, n_paths=3, seed=2)):
            paths = simulate(plan)
            for path in paths if isinstance(paths, list) else [paths]:
                assert np.all(path.pre_y[:10] != 0.0)
                assert np.all(path.pre_eps[:10] != 0.0)
                assert np.array_equal(path.pre_y[10:], np.zeros(2))
                assert np.array_equal(path.pre_eps[10:], np.zeros(2))
                assert np.array_equal(replay(model, path), path.y)

    @pytest.mark.parametrize("l,p,q,dist,n_paths", [
        (12, 3, 2, "gaussian", 3000),
        (5, 2, 1, "student-t", 2000),
        (4, 0, 2, "gaussian", 2500),
    ])
    def test_mc_rows_match_per_horizon_loop(self, rng, l, p, q, dist, n_paths):
        model = random_model(rng, p=p, q=q, l=l, coef_scale=0.3)
        origin = ForecastOrigin(time=l + 2, tail=rng.normal(size=p),
                                innovations=rng.normal(size=q))
        df = 6.0 if dist == "student-t" else None
        got = mc_forecast_experiment(model, origin, 2 * l + 1, n_paths, seed=3,
                                     dist=dist, df=df)
        assert got == reference_mc(model, origin, 2 * l + 1, n_paths, seed=3,
                                   dist=dist, df=df)

    def test_mc_rejects_bad_dist(self):
        origin = ForecastOrigin(time=0)
        with pytest.raises(ValueError, match="df > 2"):
            mc_forecast_experiment(white_noise(), origin, 2, 10,
                                   dist="student-t", df=2.0)
        with pytest.raises(ValueError, match="dist must be"):
            mc_forecast_experiment(white_noise(), origin, 2, 10, dist="custom")


def per_step_recurse(model, eps, pre_y, pre_eps, t0):
    """Reference: one loop adding drift, MA and AR terms step by step (the
    kernel before the forcing moved into array ops)."""
    p, q, l = model.p, model.q, model.l
    drift = model.drift.tolist()
    ar = model.ar.tolist()
    ma = model.ma.tolist()
    state = list(pre_y)
    hist = list(pre_eps)
    if eps.ndim == 1:
        steps, out = eps.tolist(), [0.0] * len(eps)
    else:
        steps, out = eps, np.empty(eps.shape)
    s0 = (t0 - 1) % l
    for i, e in enumerate(steps):
        v = drift[s0] + e
        for j in range(q):
            v += ma[j][s0] * hist[j]
        for m in range(p):
            v += ar[m][s0] * state[m]
        out[i] = v
        if p:
            state = [v] + state[:-1]
        if q:
            hist = [e] + hist[:-1]
        s0 = s0 + 1 if s0 + 1 < l else 0
    return np.asarray(out)


def indexed_ar_recurse(model, eps, pre_y, pre_eps, t0):
    """Reference: the two-stage kernel with an AR step loop that indexes one
    list by position (``vals[i - m]`` through ``enumerate``) for every term."""
    p, q, l = model.p, model.q, model.l
    n, out = len(eps), np.empty(eps.shape)
    seasons = (t0 - 1 + np.arange(n)) % l
    col = (n,) + (1,) * (eps.ndim - 1)
    drift, theta = model.drift[seasons].reshape(col), model.ma[:, seasons].reshape((q,) + col)
    pre = np.asarray(pre_eps, dtype=float)[:q].reshape((-1,) + col[1:])
    step = max(1, (1 << 14) // int(np.prod(eps.shape[1:])))
    buf = np.empty((min(step, n),) + eps.shape[1:])
    for a in range(0, n, step):
        b = min(a + step, n)
        block = np.add(drift[a:b], eps[a:b], out=out[a:b])
        for j in range(1, q + 1):
            k = min(max(j - a, 0), b - a)
            block[:k] += theta[j - 1, a:a + k] * pre[j - 1 - a::-1][:k]
            block[k:] += np.multiply(theta[j - 1, a + k:b], eps[a + k - j:b - j],
                                     out=buf[:b - a - k])
    phi = model.ar.T.tolist()
    s0 = (t0 - 1) % l
    vals = np.asarray(pre_y, dtype=float)[:p][::-1].tolist()
    vals += out.tolist() if eps.ndim == 1 else list(out)
    for i, coefs in zip(range(p, p + n), itertools.cycle(phi[s0:] + phi[:s0])):
        v = vals[i]
        for m, a in enumerate(coefs, start=1):
            v += a * vals[i - m]
        vals[i] = v
    return np.array(vals[p:]) if eps.ndim == 1 else out


PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestKernelProperties:
    """Property suite: the two-stage kernel keeps the per-step loop's bits."""

    @settings(PROPERTY, max_examples=300)
    @given(l=st.integers(1, 13), p=st.integers(0, 6), q=st.integers(0, 4),
           n=st.integers(0, 40), t0=st.integers(-50, 50),
           layout=st.sampled_from(["1-D", "2-D", "eps.T"]), n_paths=st.integers(1, 4),
           scale=st.sampled_from([0.3, 1.5]), seed=st.integers(0, 2**32 - 1))
    @example(l=1, p=3, q=2, n=30, t0=-7, layout="1-D", n_paths=1, scale=0.3, seed=1)
    @example(l=2, p=5, q=1, n=25, t0=3, layout="eps.T", n_paths=3, scale=0.3, seed=2)
    @example(l=4, p=1, q=4, n=3, t0=-50, layout="2-D", n_paths=2, scale=1.5, seed=3)
    @example(l=3, p=0, q=2, n=12, t0=0, layout="eps.T", n_paths=4, scale=0.3, seed=4)
    @example(l=5, p=2, q=0, n=0, t0=50, layout="1-D", n_paths=1, scale=0.3, seed=5)
    def test_kernel_equals_per_step_loop(self, l, p, q, n, t0, layout, n_paths, scale,
                                         seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, p=p, q=q, l=l, coef_scale=scale)
        eps = {"1-D": lambda: rng.normal(size=n),
               "2-D": lambda: rng.normal(size=(n, n_paths)),
               "eps.T": lambda: rng.normal(size=(n_paths, n)).T}[layout]()
        pre_y, pre_eps = rng.normal(size=p), rng.normal(size=q)
        assert same_bits(_recurse(model, eps, pre_y, pre_eps, t0),
                         per_step_recurse(model, eps, pre_y, pre_eps, t0))

    @settings(PROPERTY, max_examples=40)
    @given(l=st.integers(1, 13), p=st.integers(0, 6), q=st.integers(0, 4),
           length=st.integers(1, 120), k=st.integers(2, 4),
           dist=st.sampled_from(["gaussian", "student-t"]), seed=st.integers(0, 2**32 - 1))
    @example(l=1, p=4, q=3, length=5, k=2, dist="gaussian", seed=0)
    def test_simulate_replay_and_batches(self, l, p, q, length, k, dist, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, p=p, q=q, l=l, coef_scale=0.25)
        df = 5.0 if dist == "student-t" else None
        single = simulate(SimPlan(model, length=length, seed=seed, dist=dist, df=df))
        batch = simulate(SimPlan(model, length=length, n_paths=k, seed=seed,
                                 dist=dist, df=df))
        assert same_bits(replay(model, single), single.y)
        for name in ("y", "eps", "pre_y", "pre_eps"):
            assert same_bits(getattr(batch[0], name), getattr(single, name))
        for path in batch:
            assert same_bits(replay(model, path), path.y)
        # the first points against the step-by-step oracle from the pre-history
        chrono = np.concatenate([single.pre_eps[::-1], single.eps])
        for steps in range(1, min(length, 10) + 1):
            want = direct_recursion(SolutionInput(
                model, origin=single.start - 1, steps=steps, initial=single.pre_y,
                innovations=chrono[:steps + q]))
            got = single.y[steps - 1]
            assert abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want))


class TestKernelCost:
    def test_mc_memory_stays_near_the_draws(self):
        # draws and result are one (H, n_paths) float64 array each; the forcing
        # runs in row blocks, so no third array of that size appears
        rng = np.random.default_rng(52)
        model = random_model(rng, p=2, q=1, l=52, coef_scale=0.3)
        origin = ForecastOrigin(time=60, tail=[0.5, -0.2], innovations=[0.1])
        horizon, n_paths = 104, 20_000
        tracemalloc.start()
        try:
            mc_forecast_experiment(model, origin, horizon, n_paths, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.3 * horizon * n_paths * 8

    def test_long_replay_beats_the_per_step_loop(self):
        rng = np.random.default_rng(64)
        model = random_model(rng, p=2, q=1, l=52, coef_scale=0.3)
        path = simulate(SimPlan(model, length=64_000, seed=3))
        args = (model, path.eps, path.pre_y, path.pre_eps, path.start)
        kernel, loop = [], []
        for _ in range(3):  # interleaved, so a host speed change hits both
            for times, run in ((kernel, lambda: replay(model, path)),
                               (loop, lambda: per_step_recurse(*args))):
                start = time.perf_counter()
                run()
                times.append(time.perf_counter() - start)
        assert min(kernel) < 0.6 * min(loop)

    def test_long_replay_beats_the_indexed_ar_loop(self):
        # the AR stage reads the tail of its history list; the reference
        # looks every term up by index arithmetic
        rng = np.random.default_rng(64)
        model = random_model(rng, p=2, q=1, l=52, coef_scale=0.3)
        path = simulate(SimPlan(model, length=64_000, seed=3))
        args = (model, path.eps, path.pre_y, path.pre_eps, path.start)
        assert same_bits(indexed_ar_recurse(*args), path.y)
        kernel, loop = [], []
        for _ in range(3):  # interleaved, so a host speed change hits both
            for times, run in ((kernel, lambda: replay(model, path)),
                               (loop, lambda: indexed_ar_recurse(*args))):
                start = time.perf_counter()
                run()
                times.append(time.perf_counter() - start)
        assert min(kernel) < 0.8 * min(loop)
