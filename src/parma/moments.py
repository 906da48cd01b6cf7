"""Unconditional moments via truncated moving-average-infinity sums.

When the Green weights decay geometrically, the process has a convergent
MA-infinity form and its first two moments per season are

    mean(s)      = sum_{r>=0} g[r] * drift(t - r)
    variance(s)  = sum_{r>=0} w[r]^2 * sigma2(t - r)
    gamma(s, k)  = sum_{r>=0} w_t[k + r] * w_{t-k}[r] * sigma2(t - k - r)

for any ``t`` in season ``s``, with ``w`` the error-weight sequence (the
Green coefficients themselves for q = 0).  The decay has a closed form:
the weights decay exactly when the product of the ``l`` per-season AR
companion matrices has spectral radius below one (:func:`check_convergence`).
Every moment function requires a passing diagnostic and truncates its
series where the weights have decayed.

:func:`moment_profile` takes these sums only up to lag ``max(p, q)``.  For
``k > q`` the MA forcing at ``t`` is uncorrelated with ``y_{t-k}``, so
beyond ``max(p, q)`` it runs the periodic Yule-Walker recursion

    gamma(s, k) = sum_{m=1..p} phi_m(s) * gamma(s - m, k - m)

(the periodic form of the third autocovariance method of Brockwell &
Davis, *Time Series: Theory and Methods*, 1991, section 3.3).  The weights
obey the same recursion past lag ``q``, so the truncated sums satisfy it
exactly: a recursion lag equals the truncated sum at the same truncation,
up to rounding, and the truncation's tail bound covers it too.
:func:`autocovariance` and :func:`unconditional_variance` keep the sums at
every lag, as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import (OVERFLOW_FLAG, _check_max_lag, _season_weights, error_weights,
                     green_coefficients, season_tables)
from .model import PeriodicModel, _is_int, backwards, validate

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
    """Exact weight-decay rate and second-moment verdict.

    ``rho_hat`` is the per-step decay rate of the Green coefficients: the
    spectral radius of the product of the ``l`` per-season ``p x p``
    companion matrices, to the power ``1/l``.  ``rho_hat ** l`` is the
    stacked companion radius of :mod:`parma.vsform` (same nonzero
    eigenvalues); for ``p = 1`` it is ``|coefficient product| ** (1/l)``.
    Passing requires ``rho_hat < 1 - margin`` and then, as an overflow
    guard, ``tail_value`` (the largest ``|g|`` at ``probe_lag`` over the
    seasons; NaN when the rate fails) below ``greens.OVERFLOW_FLAG``.
    Failing is a value, not an error.
    """

    rho_hat: float
    passed: bool
    probe_lag: int
    margin: float = 0.0
    tail_value: float = float("nan")


def _companions(model: PeriodicModel) -> np.ndarray:
    """Companion matrices ``A_s`` of seasons ``1..l``, shape ``(l, p, p)``."""
    comp = np.zeros((model.l, model.p, model.p))
    comp[:, 0, :] = model.ar.T
    comp[:, 1:, :-1] = np.eye(model.p - 1)
    return comp


def _decay_rate(model: PeriodicModel) -> float:
    """Spectral radius of ``A_l ... A_1`` to the power ``1/l`` (``p >= 1``), rescaled
    at every factor with its log scale carried, so it cannot overflow or underflow.
    One anchor is enough: the ``l`` cyclic products share their nonzero eigenvalues."""
    prod, log_scale = np.eye(model.p), 0.0
    for a in _companions(model)[::-1]:
        prod = prod @ a
        top = np.max(np.abs(prod))
        if top == 0.0:
            return 0.0
        prod /= top
        log_scale += np.log(top)
    radius = np.max(np.abs(np.linalg.eigvals(prod)))
    return 0.0 if radius == 0.0 else float(np.exp((np.log(radius) + log_scale) / model.l))


def check_convergence(model: PeriodicModel, probe_lag: int | None = None,
                      margin: float = 0.0) -> ConvergenceDiagnostic:
    """Exact weight-decay rate and second-moment verdict; builds no Green table.

    Parameters
    ----------
    probe_lag : int, optional
        Integer lag ``R >= 2l`` at which the overflow guard reads ``|g|``; defaults
        to ``max(40l, 400)`` rounded up to a multiple of ``l``.
    margin : float
        Require ``rho_hat < 1 - margin``.
    """
    validate(model)
    l = model.l
    if probe_lag is None:
        probe_lag = max(40 * l, 400)
        probe_lag += (-probe_lag) % l
    if not (_is_int(probe_lag) and probe_lag >= 2 * l):
        raise ValueError(f"probe_lag must be an integer >= 2*l = {2 * l}, got {probe_lag!r}")
    if model.p == 0:
        return ConvergenceDiagnostic(rho_hat=0.0, passed=True, probe_lag=probe_lag,
                                     margin=margin, tail_value=0.0)
    rho = _decay_rate(model)
    tail = float("nan")
    if rho < 1.0 - margin:
        # anchored at s, g[k] is the [0, 0] entry of A_s A_{s-1} ... A_{s-k+1}, so
        # g[n*l + r] reads M_s ** n times the first r factors of the period product M_s
        n, r = divmod(probe_lag, l)
        comp = _companions(model)
        comp2 = np.concatenate([comp, comp])  # comp2[l - k + 1 + i] is A at season0 i - k + 1
        prods = partial = np.broadcast_to(np.eye(model.p), comp.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, l + 1):
                prods = prods @ comp2[l - k + 1:2 * l - k + 1]
                partial = prods if k == r else partial
            tail = float(np.max(np.abs((np.linalg.matrix_power(prods, n) @ partial)[:, 0, 0])))
    return ConvergenceDiagnostic(rho_hat=rho, passed=bool(tail < OVERFLOW_FLAG),
                                 probe_lag=probe_lag, margin=margin, tail_value=tail)


def _require_convergent(model: PeriodicModel,
                        diagnostic: ConvergenceDiagnostic | None) -> ConvergenceDiagnostic:
    """The diagnostic (computed when not given); raises unless it passed."""
    diag = diagnostic if diagnostic is not None else check_convergence(model)
    if not diag.passed:
        raise NotConvergentError(
            f"weight series does not decay (rho_hat={diag.rho_hat:.6g}); "
            "unconditional moments do not exist")
    return diag


def default_truncation(model: PeriodicModel) -> int:
    """Smallest multiple of ``l``, at least ``2l``, where every season's weights are
    below 1e-14 of that table's largest; the first probe lag comes from the decay
    rate, and the probe doubles up to 10,000 lags."""
    validate(model)
    return _truncation(model, _decay_rate(model) if model.p else 0.0)[0]


def _truncation(model: PeriodicModel, rho: float, extra: int = 0) -> tuple[int, np.ndarray]:
    """:func:`default_truncation` given the model's decay rate ``rho``, and the
    :func:`season_tables` stack it read, which runs ``extra`` lags past the probe
    (so at least to lag ``truncation + extra``)."""
    l = model.l
    if model.p == 0:
        r = max(l, model.q + 1)
        return r, season_tables(model, r + extra)
    probe = max(8 * l, 64) if rho >= 1.0 else 2 * l
    if 0.0 < rho < 1.0:
        probe = l * max(2, int(np.ceil(np.log(_REL_TAIL) / (l * np.log(rho)))))
    while True:
        probe = min(probe, TRUNCATION_CAP)
        tables = season_tables(model, probe + extra)
        g = tables[:, model.p - 1:model.p + probe]  # lags 0..probe
        top = np.maximum(np.max(g, axis=1), -np.min(g, axis=1))[:, None]  # max |g|
        decayed = np.all(np.abs(g[:, l::l]) < _REL_TAIL * top, axis=0)
        if decayed.any():
            return max(l * (int(np.argmax(decayed)) + 1), 2 * l), tables
        if probe >= TRUNCATION_CAP:
            return TRUNCATION_CAP, tables
        probe *= 2


def unconditional_mean(model: PeriodicModel, season: int,
                       truncation: int | None = None,
                       diagnostic: ConvergenceDiagnostic | None = None) -> float:
    """Mean of the process in a given season (truncated drift series)."""
    diag = _require_convergent(model, diagnostic)
    r_max = truncation if truncation is not None else _truncation(model, diag.rho_hat)[0]
    g = green_coefficients(model, season, r_max).nonnegative
    return float(np.dot(g, backwards(model.drift, season, r_max + 1)))


def unconditional_variance(model: PeriodicModel, season: int,
                           truncation: int | None = None,
                           diagnostic: ConvergenceDiagnostic | None = None) -> float:
    """Variance of the process in a given season (truncated squared-weight series)."""
    return autocovariance(model, season, 0, truncation, diagnostic)


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
    diag = _require_convergent(model, diagnostic)
    r_max = truncation if truncation is not None else _truncation(model, diag.rho_hat)[0]
    tau = season - lag
    w_t = error_weights(model, season, lag + r_max + 1)
    w_tau = error_weights(model, tau, r_max + 1)
    return float(np.dot(w_t[lag:] * w_tau, backwards(model.sigma2, tau, r_max + 1)))


@dataclass(frozen=True)
class MomentProfile:
    """Per-season means, variances and autocovariances up to a maximum lag.

    ``autocov[s-1, k]`` is ``Cov(y_t, y_{t-k})`` for ``t`` in season ``s``;
    lags ``0..max(p, q)`` are truncated sums, later lags come from the
    periodic Yule-Walker recursion and equal the truncated sums up to
    rounding.  ``tail_bound`` estimates how far any value, recursion lags
    included, could still move if the truncation went to infinity: the last
    block of ``l`` weights continued geometrically at the exact per-period
    factor ``rho_hat ** l``, the asymptotic rate, which weights of a
    non-normal product may not yet follow.
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

    One :func:`season_tables` stack feeds the truncation search and every
    sum.  It runs ``min(max_lag, max(p, q))`` lags past the search's last
    probe lag (past ``truncation`` when that is given).  Means take one dot
    per season and lags ``0..max(p, q)`` one dot per (season, lag); each
    later lag takes one update across all seasons by the periodic
    Yule-Walker recursion, so the default ``max_lag`` on a daily model costs
    about twice ``max_lag=2``.

    Parameters
    ----------
    max_lag : int, optional
        Highest autocovariance lag, an integer >= 0 (default ``2l``).
    truncation : int, optional
        Series truncation lag, an integer >= ``l`` (default per
        :func:`default_truncation`); the tail bound extrapolates from the
        last full period of weights, so a shorter truncation has none.
    """
    l, p = model.l, model.p
    if max_lag is not None:
        _check_max_lag(max_lag)
    if truncation is not None and not _is_int(truncation):
        raise ValueError(f"truncation must be an integer, got {truncation!r}")
    if truncation is not None and truncation < l:
        raise ValueError(f"truncation must be >= l = {l}, got {truncation}")
    if max_lag is None:
        max_lag = 2 * l
    diag = _require_convergent(model, None)
    direct = min(max_lag, max(p, model.q))  # lags taken as sums
    if truncation is None:
        r_max, tables = _truncation(model, diag.rho_hat, direct)
    else:
        r_max, tables = truncation, season_tables(model, truncation + direct)

    n = r_max + 1
    g = tables[:, max(p, 1) - 1:][:, :n]
    weights = _season_weights(model, tables)
    # backwards(v, s - k, n) is the window v_ext[(k - s) % l:][:n] of one reversed
    # periodic extension, v_ext[j] = v at season0 -1 - j
    ext = (-1 - np.arange(n + l)) % l
    drift, sigma2 = model.drift[ext], model.sigma2[ext]
    means = np.array([np.dot(g[i], drift[(-1 - i) % l:][:n]) for i in range(l)])
    acov = np.zeros((max_lag + 1, l))  # lag-major: acov[k, s - 1]
    for k in range(direct + 1):
        for i in range(l):
            acov[k, i] = np.dot(weights[i, k:k + n] * weights[(i - k) % l, :n],
                                sigma2[(k - 1 - i) % l:][:n])
    back = np.arange(1, p + 1)[:, None]
    earlier = (np.arange(l) - back) % l  # season0 of s - m
    for k in range(direct + 1, max_lag + 1):
        acov[k] = np.sum(model.ar * acov[k - back, earlier], axis=0)
    autocov = acov.T.copy()
    variances = acov[0].copy()

    # envelope tail bound: one more block of l lags scaled by the geometric
    # block ratio q/(1-q), q = rho_hat**l; covers means (linear in g) and
    # (co)variances (quadratic in w) separately
    q_blk = min(diag.rho_hat ** l, 1.0 - 1e-12)
    mean_tail = np.max(np.sum(np.abs(g[:, -l:]), axis=1)) * np.max(np.abs(model.drift))
    var_tail = np.max(np.sum(weights[:, n - l:n] ** 2, axis=1)) * np.max(model.sigma2)
    bound = float(max(mean_tail * q_blk / (1.0 - q_blk),
                      var_tail * q_blk ** 2 / (1.0 - q_blk ** 2)))
    return MomentProfile(means=means, variances=variances, autocov=autocov,
                         truncation=r_max, tail_bound=bound, diagnostic=diag)
