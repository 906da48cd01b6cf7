"""Unconditional moments via truncated moving-average-infinity sums.

When the squared Green weights (scaled by the periodic innovation
variances) are summable, the process has a convergent MA-infinity form and
its first two moments per season are

    mean(s)      = sum_{r>=0} g[r] * drift(t - r)
    variance(s)  = sum_{r>=0} w[r]^2 * sigma2(t - r)
    gamma(s, k)  = sum_{r>=0} w_t[k + r] * w_{t-k}[r] * sigma2(t - k - r)

for any ``t`` in season ``s``, with ``w`` the error-weight sequence
(the Green coefficients themselves for q = 0).  Summability has no
checkable closed form for general orders, so :func:`check_convergence`
estimates the per-step geometric growth factor of the weights from the
tables; every moment function requires a passing diagnostic and reports
values from series truncated at a lag where the weights have decayed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import (GreenTable, _season_weights, error_weights, green_coefficients,
                     season_tables)
from .model import PeriodicModel, backwards, validate

__all__ = [
    "ConvergenceDiagnostic",
    "MomentProfile",
    "NotConvergentError",
    "check_convergence",
    "default_truncation",
    "unconditional_mean",
    "unconditional_variance",
    "autocovariance",
    "moment_profile",
]

TRUNCATION_CAP = 10_000
_REL_TAIL = 1e-14


class NotConvergentError(RuntimeError):
    """Moments were requested for a model whose weight series does not decay."""


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    """Numerical surrogate for second-moment existence.

    ``rho_hat`` estimates the per-step geometric growth factor of the
    Green coefficients: for each anchor season the growth over a long
    baseline of whole periods is measured at ``l`` consecutive endpoints
    and the median taken (robust against the sign oscillation of tables
    with complex characteristic roots); ``rho_hat`` is the worst season.
    For an order-1 model it reduces exactly to
    ``|coefficient product| ** (1/l)``.

    Passing requires ``rho_hat < 1 - margin`` and the probe-lag values to
    stay below ``tail_threshold``.  Failing is a value, not an error.
    """

    rho_hat: float
    passed: bool
    probe_lag: int
    margin: float = 0.0
    tail_value: float = float("nan")


def _growth_estimate(table: GreenTable, probe_lag: int, l: int) -> float:
    g = np.abs(table.nonnegative[:probe_lag + 1])
    baseline = l * max(1, probe_lag // (2 * l))
    ratios = np.empty(l)
    for j in range(l):
        num = g[probe_lag - j]
        den = g[probe_lag - j - baseline]
        if den == 0.0:
            ratios[j] = 0.0 if num == 0.0 else np.inf
        else:
            ratios[j] = (num / den) ** (1.0 / baseline)
    return float(np.median(ratios))


def check_convergence(model: PeriodicModel, probe_lag: int | None = None,
                      margin: float = 0.0,
                      tail_threshold: float = 1e100) -> ConvergenceDiagnostic:
    """Estimate the weight-decay rate and decide second-moment existence.

    Parameters
    ----------
    probe_lag : int, optional
        Lag ``R >= 2l`` at which growth is probed; defaults to a few
        hundred periods.
    margin : float
        Require ``rho_hat < 1 - margin``.
    """
    validate(model)
    l = model.l
    if probe_lag is None:
        probe_lag = max(40 * l, 400)
        probe_lag += (-probe_lag) % l
    if probe_lag < 2 * l:
        raise ValueError(f"probe_lag must be >= 2*l = {2 * l}, got {probe_lag}")
    if model.p == 0:
        return ConvergenceDiagnostic(rho_hat=0.0, passed=True,
                                     probe_lag=probe_lag, margin=margin,
                                     tail_value=0.0)
    rho = 0.0
    tail = 0.0
    for s in range(1, l + 1):
        table = green_coefficients(model, s, probe_lag)
        rho = max(rho, _growth_estimate(table, probe_lag, l))
        tail = max(tail, abs(table.value(probe_lag)))
    passed = bool(rho < 1.0 - margin and tail < tail_threshold)
    return ConvergenceDiagnostic(rho_hat=rho, passed=passed,
                                 probe_lag=probe_lag, margin=margin,
                                 tail_value=tail)


def _require_convergent(model: PeriodicModel,
                        diagnostic: ConvergenceDiagnostic | None) -> ConvergenceDiagnostic:
    diag = diagnostic if diagnostic is not None else check_convergence(model)
    if not diag.passed:
        raise NotConvergentError(
            f"weight series does not decay (rho_hat={diag.rho_hat:.6g}); "
            "unconditional moments do not exist")
    return diag


def default_truncation(model: PeriodicModel) -> int:
    """Smallest multiple of ``l`` where the weights have decayed to relative 1e-14.

    Grows geometrically and caps at 10,000 lags.
    """
    validate(model)
    l = model.l
    if model.p == 0:
        return max(l, model.q + 1)
    probe = max(8 * l, 64)
    while True:
        probe = min(probe, TRUNCATION_CAP)
        tables = [green_coefficients(model, s, probe) for s in range(1, l + 1)]
        best: int | None = None
        for r in range(l, probe + 1, l):
            if all(abs(t.value(r)) < _REL_TAIL * np.max(np.abs(t.nonnegative))
                   for t in tables):
                best = r
                break
        if best is not None:
            return max(best, 2 * l)
        if probe >= TRUNCATION_CAP:
            return TRUNCATION_CAP
        probe = min(2 * probe, TRUNCATION_CAP)


def unconditional_mean(model: PeriodicModel, season: int,
                       truncation: int | None = None,
                       diagnostic: ConvergenceDiagnostic | None = None) -> float:
    """Mean of the process in a given season (truncated drift series)."""
    _require_convergent(model, diagnostic)
    r_max = truncation if truncation is not None else default_truncation(model)
    g = green_coefficients(model, season, r_max).nonnegative
    return float(np.dot(g, backwards(model.drift, season, r_max + 1)))


def unconditional_variance(model: PeriodicModel, season: int,
                           truncation: int | None = None,
                           diagnostic: ConvergenceDiagnostic | None = None) -> float:
    """Variance of the process in a given season (truncated squared-weight series)."""
    _require_convergent(model, diagnostic)
    r_max = truncation if truncation is not None else default_truncation(model)
    w = error_weights(model, season, r_max + 1)
    return float(np.dot(w * w, backwards(model.sigma2, season, r_max + 1)))


def autocovariance(model: PeriodicModel, season: int, lag: int,
                   truncation: int | None = None,
                   diagnostic: ConvergenceDiagnostic | None = None) -> float:
    """``Cov(y_t, y_{t-lag})`` for ``t`` in the given season.

    ``lag = 0`` returns the variance.  Both weight sequences anchor at
    their own time points (``t`` and ``t - lag``), whose seasons generally
    differ.
    """
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    _require_convergent(model, diagnostic)
    r_max = truncation if truncation is not None else default_truncation(model)
    t = season
    tau = season - lag
    w_t = error_weights(model, t, lag + r_max + 1)
    w_tau = error_weights(model, tau, r_max + 1)
    sig = backwards(model.sigma2, tau, r_max + 1)
    return float(np.dot(w_t[lag:] * w_tau, sig))


@dataclass(frozen=True)
class MomentProfile:
    """Per-season means, variances and autocovariances up to a maximum lag.

    ``autocov[s-1, k]`` is ``Cov(y_t, y_{t-k})`` for ``t`` in season ``s``.
    ``tail_bound`` bounds how much any reported value can still move if
    the truncation lag were pushed to infinity, assuming the estimated
    geometric envelope decay holds beyond the truncation point.
    """

    means: np.ndarray
    variances: np.ndarray
    autocov: np.ndarray
    truncation: int
    tail_bound: float
    diagnostic: ConvergenceDiagnostic

    @property
    def l(self) -> int:
        return len(self.means)

    @property
    def max_lag(self) -> int:
        return self.autocov.shape[1] - 1


def moment_profile(model: PeriodicModel, max_lag: int | None = None,
                   truncation: int | None = None) -> MomentProfile:
    """Compute means, variances and autocovariances for every season.

    Parameters
    ----------
    max_lag : int, optional
        Highest autocovariance lag (default ``2l``).
    truncation : int, optional
        Series truncation lag, at least ``l`` (default per
        :func:`default_truncation`); the tail bound extrapolates from the
        last full period of weights, so a shorter truncation has none.
    """
    l = model.l
    if truncation is not None and truncation < l:
        raise ValueError(f"truncation must be >= l = {l}, got {truncation}")
    diag = _require_convergent(model, None)
    if max_lag is None:
        max_lag = 2 * l
    r_max = truncation if truncation is not None else default_truncation(model)

    # the means and the tail bound read prefixes of one table per season (causal)
    tables = season_tables(model, max_lag + r_max)
    g = tables[:, max(model.p, 1) - 1:][:, :r_max + 1]
    weights = _season_weights(model, tables)
    means = np.array([np.dot(g[s - 1], backwards(model.drift, s, r_max + 1))
                      for s in range(1, l + 1)])
    autocov = np.zeros((l, max_lag + 1))
    for s in range(1, l + 1):
        for k in range(max_lag + 1):
            w_tau = weights[model.season(s - k) - 1, :r_max + 1]
            autocov[s - 1, k] = np.dot(weights[s - 1, k:k + r_max + 1] * w_tau,
                                       backwards(model.sigma2, s - k, r_max + 1))
    variances = autocov[:, 0].copy()

    # envelope tail bound: one more block of l lags scaled by the geometric
    # block ratio q/(1-q); covers means (linear in g) and (co)variances
    # (quadratic in w) separately
    q_blk = min(diag.rho_hat ** l, 1.0 - 1e-12)
    bound = 0.0
    for s in range(1, l + 1):
        g_last = np.abs(g[s - 1, -l:])
        w_last = np.abs(weights[s - 1][r_max + 1 - l:r_max + 1])
        mean_tail = float(np.sum(g_last)) * float(np.max(np.abs(model.drift),
                                                         initial=0.0))
        var_tail = float(np.sum(w_last ** 2)) * float(np.max(model.sigma2))
        bound = max(bound,
                    mean_tail * q_blk / (1.0 - q_blk),
                    var_tail * q_blk ** 2 / (1.0 - q_blk ** 2))
    return MomentProfile(means=means, variances=variances, autocov=autocov,
                         truncation=r_max, tail_bound=bound, diagnostic=diag)
