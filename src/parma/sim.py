"""Sample-path generation and Monte Carlo validation experiments.

Simulation is deterministic given the plan's seed: replication streams are
split off a single ``numpy.random.SeedSequence`` (one child per path), so
any subset of paths can be reproduced independently.  Stored paths carry
the ``p`` values and ``q`` innovations immediately before their first
point, which makes every stored observation exactly replayable from the
recursion.

One recursion kernel, :func:`_recurse`, serves ``simulate``, ``replay`` and
``mc_forecast_experiment``: it adds the drift and MA forcing of all steps
with array ops, then steps the AR part through time, carrying one path as
Python floats or many paths as one numpy row per step.  Each step appends its
value to one history list and reads the ``p`` before it from that list's tail.
Elementwise float64 arithmetic rounds like Python floats, so a path gets the
same bits whether it runs alone or in a batch.

Stationary models are burned in from a zero start; models failing the
convergence diagnostic are simulated conditionally from exact zero initial
values with no burn-in (their unconditional moments do not exist, so there
is nothing to converge to).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .forecast import ForecastOrigin, predict
from .model import PeriodicModel, _check_int
from .moments import check_convergence

__all__ = [
    "SimPlan",
    "SamplePath",
    "McForecastRow",
    "simulate",
    "replay",
    "mc_forecast_experiment",
]

_DISTS = ("gaussian", "student-t", "custom")


@dataclass(frozen=True)
class SimPlan:
    """Everything needed to generate one batch of sample paths.

    Parameters
    ----------
    model : PeriodicModel
    length : int
        Points kept per path; the first kept point sits in season 1.
    n_paths : int
        Replication count.
    burn_in : int, optional
        Pre-sample steps discarded before the kept window.  Defaults to a
        length at which the initial state has decayed below 1e-10 (at
        least ten periods) for stationary models and to zero otherwise;
        a stationary model that would need more than 1000 periods raises
        ``ValueError`` at simulation time and must pass ``burn_in``.
        Stationary models require at least ten periods; models failing
        the convergence diagnostic must use zero.
    seed : int
        Seed for the replication stream splitter.
    dist : str
        "gaussian", "student-t" (variance-normalized, needs a finite ``df > 2``)
        or "custom" (standardized draws supplied in ``custom``).
    custom : ndarray, optional
        Finite standardized innovations, shape ``(n_paths, burn_in + length)``;
        scaled by the model's periodic variance schedule.
    """

    model: PeriodicModel
    length: int
    n_paths: int = 1
    burn_in: int | None = None
    seed: int = 0
    dist: str = "gaussian"
    df: float | None = None
    custom: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_int(self.length, "length", 1)
        _check_int(self.n_paths, "n_paths", 1)
        if self.burn_in is not None:
            _check_int(self.burn_in, "burn_in")
        if self.dist not in _DISTS:
            raise ValueError(f"dist must be one of {_DISTS}, got {self.dist!r}")
        if self.dist == "student-t" and (self.df is None or not 2 < self.df < np.inf):
            raise ValueError(f"student-t innovations need a finite df > 2, got {self.df!r}")
        if self.dist == "custom" and self.custom is None:
            raise ValueError("dist='custom' needs the draws in `custom`")


@dataclass(frozen=True)
class SamplePath:
    """One realized path plus the short pre-history that makes it replayable.

    ``y[i]`` and ``eps[i]`` belong to absolute time ``start + i`` (whose
    season is ``seasons[i]``); ``pre_y``/``pre_eps`` hold the ``p`` values
    and ``q`` innovations at times ``start-1, start-2, ...`` (newest
    first).
    """

    start: int
    seasons: np.ndarray
    y: np.ndarray
    eps: np.ndarray
    pre_y: np.ndarray
    pre_eps: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    @property
    def times(self) -> np.ndarray:
        return self.start + np.arange(len(self.y))


def _recurse(model: PeriodicModel, eps: np.ndarray, pre_y, pre_eps,
             t0: int) -> np.ndarray:
    """Run the difference equation over ``eps`` from time ``t0``.

    ``eps`` is one path, shape ``(n,)``, or many paths, time-major shape
    ``(n, n_paths)``; the result has its shape.  ``pre_y``/``pre_eps`` hold the
    ``p`` values and ``q`` innovations before ``t0``, newest first, shared by all
    paths.  The forcing ``drift + eps_t + sum_j theta_j eps_{t-j}`` comes first,
    elementwise in row blocks of about 128 KB written into the result; the AR
    terms ``sum_m phi_m y_{t-m}`` then step through time (one path as Python
    floats, many paths one row in place), each step appending its value to a
    history list that starts as ``pre_y`` and reading ``y_{t-m}`` as its
    ``m``-th last entry, with no index arithmetic.  Each value gets the
    operations of one per-step loop in its order (theta terms by j, then phi
    terms by m), and float64 numpy ops round like Python floats, so a path has
    the same bits alone, in a batch and on replay.
    """
    p, q, l = model.p, model.q, model.l
    n, out = len(eps), np.empty(eps.shape)
    seasons = (t0 - 1 + np.arange(n)) % l
    col = (n,) + (1,) * (eps.ndim - 1)  # per-row values broadcast across paths
    drift, theta = model.drift[seasons].reshape(col), model.ma[:, seasons].reshape((q,) + col)
    pre = np.asarray(pre_eps, dtype=float)[:q].reshape((-1,) + col[1:])
    step = max(1, (1 << 14) // int(np.prod(eps.shape[1:])))  # rows per block of about 128 KB
    buf = np.empty((min(step, n),) + eps.shape[1:])
    for a in range(0, n, step):
        b = min(a + step, n)
        block = np.add(drift[a:b], eps[a:b], out=out[a:b])
        for j in range(1, q + 1):
            k = min(max(j - a, 0), b - a)  # rows whose lag-j innovation precedes t0
            block[:k] += theta[j - 1, a:a + k] * pre[j - 1 - a::-1][:k]
            block[k:] += np.multiply(theta[j - 1, a + k:b], eps[a + k - j:b - j],
                                     out=buf[:b - a - k])
    # terms[s] = [(phi_1, -1), ..., (phi_p, -p)] of season0 s: y_{t-m} is hist[-m]
    terms = [[(a, -m) for m, a in enumerate(row, start=1)] for row in model.ar.T.tolist()]
    s0 = (t0 - 1) % l
    hist = np.asarray(pre_y, dtype=float)[:p][::-1].tolist()  # oldest first
    for v, pairs in zip(out.tolist() if eps.ndim == 1 else list(out),
                        itertools.cycle(terms[s0:] + terms[:s0])):
        for a, m in pairs:
            v += a * hist[m]
        hist.append(v)
    return np.fromiter(itertools.islice(hist, p, None), float, n) if eps.ndim == 1 else out


def _resolve_burn_in(plan: SimPlan) -> int:
    model = plan.model
    l = model.l
    diag = check_convergence(model)
    if diag.passed:
        floor = 10 * l
        if plan.burn_in is not None:
            if plan.burn_in < floor:
                raise ValueError(
                    f"stationary models need burn_in >= 10*l = {floor}, "
                    f"got {plan.burn_in}")
            return plan.burn_in
        burn = floor
        if 0.0 < diag.rho_hat < 1.0:
            need = int(np.ceil(np.log(1e-10) / np.log(diag.rho_hat)))
            burn = max(burn, need + (-need) % l)
        if burn > 1000 * l:
            raise ValueError(
                f"the initial state needs {burn} burn-in steps to decay below 1e-10, "
                f"more than the default's cap of 1000*l = {1000 * l}; pass burn_in")
        return burn
    if plan.burn_in not in (None, 0):
        raise ValueError(
            "models failing the convergence diagnostic are simulated "
            "conditionally from zero initial values; burn_in must be 0")
    return 0


def _draws(rng: np.random.Generator, dist: str, df: float | None,
           shape) -> np.ndarray:
    """Unit-variance Gaussian or Student-t draws (Student-t needs a finite ``df > 2``)."""
    if dist == "gaussian":
        return rng.standard_normal(shape)
    if dist == "student-t":
        if df is None or not 2 < df < np.inf:  # NaN fails both comparisons
            raise ValueError(f"student-t innovations need a finite df > 2, got {df!r}")
        draws = rng.standard_t(df, size=shape)
        draws /= np.sqrt(df / (df - 2.0))
        return draws
    raise ValueError(f"dist must be 'gaussian' or 'student-t', got {dist!r}")


def simulate(plan: SimPlan):
    """Generate the plan's paths; a single path unless ``n_paths > 1``.

    The kept window starts at absolute time 1 (season 1); the discarded
    burn-in occupies times ``1 - burn_in .. 0``.  All paths run through one
    call of the recursion kernel.
    """
    model = plan.model
    p, q, l = model.p, model.q, model.l
    burn = _resolve_burn_in(plan)
    n_total = burn + plan.length
    t0 = 1 - burn
    sig = np.sqrt(model.sigma2[(np.arange(t0, t0 + n_total) - 1) % l])
    seasons = (np.arange(1, plan.length + 1) - 1) % l + 1

    if plan.dist == "custom":
        eps = np.array(plan.custom, dtype=float, ndmin=2)
        if eps.shape != (plan.n_paths, n_total):
            raise ValueError(
                f"custom draws must have shape ({plan.n_paths}, {n_total}), "
                f"got {eps.shape}")
        if not np.all(np.isfinite(eps)):
            raise ValueError("custom draws must be finite")
    else:
        children = np.random.SeedSequence(plan.seed).spawn(plan.n_paths)
        eps = np.stack([_draws(np.random.default_rng(child), plan.dist, plan.df,
                               n_total) for child in children])
    eps *= sig
    y = _recurse(model, eps[0] if plan.n_paths == 1 else eps.T,
                 np.zeros(p), np.zeros(q), t0)
    y = np.ascontiguousarray(y.T).reshape(eps.shape)  # path-major, like eps

    paths = []
    for y_k, eps_k in zip(y, eps):
        # zero start before the burn-in, then newest first
        pre_y = np.concatenate([np.zeros(p), y_k[:burn]])[::-1][:p]
        pre_eps = np.concatenate([np.zeros(q), eps_k[:burn]])[::-1][:q]
        paths.append(SamplePath(start=1, seasons=seasons.copy(),
                                y=y_k[burn:], eps=eps_k[burn:],
                                pre_y=pre_y, pre_eps=pre_eps))
    return paths[0] if plan.n_paths == 1 else paths


def replay(model: PeriodicModel, path: SamplePath) -> np.ndarray:
    """Recompute the path's values from its innovations and pre-history.

    Bit-identical to the stored values: the same recursion kernel runs on
    the same floats.
    """
    if len(path.pre_y) < model.p or len(path.pre_eps) < model.q:
        raise ValueError(f"replay needs the p={model.p} values and q={model.q} "
                         "innovations before the path")
    return _recurse(model, path.eps, path.pre_y, path.pre_eps, path.start)


@dataclass(frozen=True)
class McForecastRow:
    """One horizon of a forecast-validation experiment."""

    horizon: int
    bias: float
    bias_limit: float
    empirical_mse: float
    theoretical_mse: float
    std_error: float
    z_score: float
    passed: bool


def mc_forecast_experiment(model: PeriodicModel, origin: ForecastOrigin,
                           max_horizon: int, n_paths: int, seed: int = 0,
                           dist: str = "gaussian",
                           df: float | None = None) -> list[McForecastRow]:
    """Compare empirical forecast-error variances against the closed form.

    Simulates ``n_paths >= 2`` futures from the fixed origin (the experiment
    is conditional, so no stationarity is needed), measures the mean squared
    error of the optimal predictor per horizon, and flags agreement within
    three standard errors of the squared-error mean; a non-finite row fails.
    """
    _check_int(n_paths, "n_paths", 2)  # one path has no standard error
    report = predict(model, origin, max_horizon)
    tau = origin.time

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    eps = _draws(rng, dist, df, (n_paths, max_horizon))
    eps *= np.sqrt(model.sigma2[np.arange(tau, tau + max_horizon) % model.l])
    errors = _recurse(model, eps.T, origin.tail,
                      origin.innovations if model.q else (), tau + 1)
    errors -= report.points[:, None]

    rows = []
    with np.errstate(all="ignore"):  # squared errors may overflow: that row fails
        for h in range(1, max_horizon + 1):
            err = errors[h - 1]
            sq = err * err
            emp = float(sq.mean())
            se = float(sq.std(ddof=1) / np.sqrt(n_paths))
            theo = float(report.mses[h - 1])
            z = (emp - theo) / se if se > 0 else 0.0
            rows.append(McForecastRow(
                horizon=h,
                bias=float(err.mean()),
                bias_limit=4.0 * float(np.sqrt(theo / n_paths)),
                empirical_mse=emp,
                theoretical_mse=theo,
                std_error=se,
                z_score=float(z),
                passed=bool(np.isfinite(emp) and np.isfinite(se) and abs(z) <= 3.0),
            ))
    return rows
