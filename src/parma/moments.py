"""Unconditional moments: exact from the periodic Lyapunov equation, or as
truncated moving-average-infinity sums.

When the Green weights decay geometrically, the process has a convergent
MA-infinity form and its first two moments per season are

    mean(s)      = sum_{r>=0} g[r] * drift(t - r)
    variance(s)  = sum_{r>=0} w[r]^2 * sigma2(t - r)
    gamma(s, k)  = sum_{r>=0} w_t[k + r] * w_{t-k}[r] * sigma2(t - k - r)

for any ``t`` in season ``s``, with ``w`` the error-weight sequence (the
Green coefficients themselves for q = 0).  The decay has a closed form:
the weights decay exactly when the product of the ``l`` per-season AR
companion matrices has spectral radius below one (:func:`check_convergence`).
That period product, for every anchor season at once, is formed by doubling
products of periodic matrices (Bittanti & Colaneri, *Periodic Systems*,
2009) in ``O(log l)`` batched matrix products.  Every moment function
requires a passing diagnostic.

:func:`moment_profile` computes the sums' limits exactly by default.  It
writes the process in state-space form and solves the periodic Lyapunov
equation for the state covariance: the per-season affine maps compose in a
doubling prefix scan, one ``n^2 x n^2`` solve at one anchor season gives
the fixed point, and one batched product carries it to every season (the
route of Lund & Basawa, JTSA 2000, for PARMA moments).  No truncation is
searched and no Green table is built, so near a unit root, where the
weights outlast any truncation cap, the profile stays exact.  Given an
explicit ``truncation`` it takes the truncated sums instead, with a tail
bound.  Either way only lags up to ``max(p, q)`` come from there: for
``k > q`` the MA forcing at ``t`` is uncorrelated with ``y_{t-k}``, so
every later lag comes from the periodic Yule-Walker recursion

    gamma(s, k) = sum_{m=1..p} phi_m(s) * gamma(s - m, k - m)

(the periodic form of the third autocovariance method of Brockwell &
Davis, *Time Series: Theory and Methods*, 1991, section 3.3).  The weights
obey the same recursion past lag ``q``, so the truncated sums satisfy it
exactly: a recursion lag equals the truncated sum at the same truncation,
up to rounding, and the truncation's tail bound covers it too.
:func:`unconditional_mean`, :func:`unconditional_variance` and
:func:`autocovariance` keep the truncated sums at every lag, as an
independent oracle; at the default truncation they raise
:class:`NotConvergentError` where the search stops at ``TRUNCATION_CAP``
before the weights decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import (_overflowing, _season_weights, error_weights, green_coefficients,
                     season_tables)
from .model import PeriodicModel, _check_int, _is_int, backwards

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
    companion matrices, to the power ``1/l``, formed by doubling and
    rescaled by exact powers of two.  ``rho_hat ** l`` is the stacked
    companion radius of :mod:`parma.vsform` (same nonzero eigenvalues); for
    ``p = 1`` it is ``|coefficient product| ** (1/l)``.  Passing requires
    ``rho_hat < 1 - margin`` and then, as an overflow guard, ``tail_value``
    (the largest ``|g|`` at ``probe_lag`` over the seasons, read from a
    power of the same period products; NaN when the rate fails) below
    ``greens.OVERFLOW_FLAG``.  Failing is a value, not an error.
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


def _rescaled(mats: np.ndarray, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mats`` times the power of two that brings each matrix's largest ``|entry|``
    into ``[0.5, 1)`` (a zero matrix stays as it is), with that exponent added to
    ``exps``; scaling by a power of two is exact."""
    e = np.frexp(np.abs(mats).max(axis=(1, 2)))[1]
    return np.ldexp(mats, -e[:, None, None], out=mats), exps + e


def _period_products(model: PeriodicModel, spans: tuple) -> list:
    """For each ``k`` in ``spans``, the products ``A(i) A(i-1) ... A(i-k+1)`` of ``k``
    consecutive companions for every season0 ``i`` (``p >= 1``), as ``(mats, exps)``
    with product ``ldexp(mats[i], exps[i])``.

    Spans of 1, 2, 4, ... factors double by one batched product per level,
    ``D_2m(i) = D_m(i) D_m(i - m)``, and each ``k`` joins the levels of its set bits,
    so every ``k <= l`` takes ``O(log l)`` array calls.  Every product is rescaled to
    max-abs about one and its binary exponent carried, so ``|phi| ** l`` can neither
    overflow nor underflow.
    """
    seasons = np.arange(model.l)

    def join(left, right, shift):  # left(i) right(i - shift)
        back = (seasons - shift) % model.l
        return _rescaled(left[0] @ right[0][back], left[1] + right[1][back])

    level, span = _rescaled(_companions(model), np.zeros(model.l, dtype=np.int64)), 1
    out = [None] * len(spans)
    while True:
        for j, k in enumerate(spans):
            if k & span:  # out[j] holds the k & (span - 1) factors of k's lower bits
                out[j] = level if out[j] is None else join(out[j], level, k & (span - 1))
        if 2 * span > max(spans):
            return out
        level, span = join(level, level, span), 2 * span


def _decay_rate(model: PeriodicModel, period=None) -> float:
    """Spectral radius of the period product ``A_l ... A_1`` to the power ``1/l``
    (``p >= 1``), read from ``period``, the ``l``-factor :func:`_period_products`
    (computed when not given).  One anchor is enough: the ``l`` cyclic products share
    their nonzero eigenvalues."""
    mats, exps = period if period is not None else _period_products(model, (model.l,))[0]
    radius = np.max(np.abs(np.linalg.eigvals(mats[-1])))
    if radius == 0.0:
        return 0.0
    return float(np.exp((np.log(radius) + exps[-1] * np.log(2.0)) / model.l))


def _state_space(model: PeriodicModel) -> tuple[np.ndarray, np.ndarray]:
    """Transitions ``F_s`` of seasons ``1..l`` and forcing ``G`` of the state
    ``x_t = (y_t .. y_{t-p'+1}, eps_t .. eps_{t-q+1}, 1)`` with ``p' = max(p, 1)``:
    ``x_t = F_s x_{t-1} + G eps_t`` for ``t`` in season ``s``, the constant last entry
    carrying ``drift_s`` into ``y_t``.  Shapes ``(l, n + 1, n + 1)`` and ``(n + 1,)``,
    with ``n = p' + q``."""
    p, q = model.p, model.q
    pp = max(p, 1)
    n = pp + q
    trans = np.zeros((model.l, n + 1, n + 1))
    trans[:, 0, :p] = model.ar.T
    trans[:, 0, pp:n] = model.ma.T
    trans[:, 0, n] = model.drift
    trans[:, n, n] = 1.0
    shift = np.arange(1, n)
    shift = shift[shift != pp]  # each lagged entry takes its predecessor; eps_t does not
    trans[:, shift, shift - 1] = 1.0
    forcing = np.zeros(n + 1)
    forcing[0] = 1.0
    if q:
        forcing[pp] = 1.0
    return trans, forcing


def _exact_moments(model: PeriodicModel, acov: np.ndarray) -> np.ndarray:
    """Exact means of seasons ``1..l``, filling the lag-major ``acov[k, s - 1]`` for
    ``k < len(acov)``, from the fixed point of the periodic Lyapunov equation.

    With ``F_s = [[T_s, d_s], [0, 1]]`` (:func:`_state_space`), the covariance and mean
    of the stochastic part obey ``P_s = T_s P_{s-1} T_s' + Q_s``, ``Q_s = sigma2_s G G'``,
    and ``mu_s = T_s mu_{s-1} + d_s``.  These affine maps compose as
    ``(T1, Q1, d1) o (T2, Q2, d2) = (T1 T2, T1 Q2 T1' + Q1, T1 d2 + d1)``, which is the
    product of the ``F`` and, with ``Q`` padded by a zero row and column, ``F1 Q2 F1' +
    Q1``; so a doubling prefix scan forms every season's map from the start of the
    period in ``ceil(log2 l)`` batched steps.  The last one is the period map
    ``(Phi, Q, d)`` of the anchor, the last season.  The nonzero eigenvalues of ``Phi``
    are those of the companion period product, so ``(I - Phi (x) Phi) vec P = vec Q``
    and ``(I - Phi) mu = d`` have one solution when the weights decay.  Each season's
    map then carries the anchor's ``(P, mu)`` to that season, and lag ``k >= 1``
    follows from ``Cov(x_t, y_{t-k}) = F_s Cov(x_{t-1}, y_{t-k})``.  Only
    ``(l, n + 1, n + 1)`` arrays and one ``n^2 x n^2`` system are built.
    """
    trans, forcing = _state_space(model)
    maps, n = trans.copy(), len(forcing) - 1
    noise = model.sigma2[:, None, None] * np.outer(forcing, forcing)
    span = 1
    while span < model.l:  # maps[i] composes seasons0 max(0, i - 2 span + 1) .. i
        later = maps[span:]
        noise[span:] += later @ noise[:-span] @ later.transpose(0, 2, 1)
        maps[span:] = later @ maps[:-span]
        span *= 2
    phi, cov = maps[-1, :n, :n], np.zeros((n + 1, n + 1))
    kron = (phi[:, None, :, None] * phi[None, :, None, :]).reshape(n * n, n * n)
    cov[:n, :n] = np.linalg.solve(np.eye(n * n) - kron, noise[-1, :n, :n].ravel()).reshape(n, n)
    mean = np.append(np.linalg.solve(np.eye(n) - phi, maps[-1, :n, n]), 1.0)
    col = (maps @ (cov @ maps[:, 0, :, None]))[..., 0] + noise[:, :, 0]  # Cov(x_t, y_t)
    acov[0] = col[:, 0]
    previous = np.arange(-1, model.l - 1)  # season0 of s - 1
    for k in range(1, len(acov)):
        col = (trans @ col[previous, :, None])[..., 0]  # Cov(x_t, y_{t-k})
        acov[k] = col[:, 0]
    return maps[:, 0] @ mean


def check_convergence(model: PeriodicModel, probe_lag: int | None = None,
                      margin: float = 0.0) -> ConvergenceDiagnostic:
    """Exact weight-decay rate and second-moment verdict; builds no Green table.

    The rate and the overflow guard read one set of period products, formed by
    doubling in ``O(log l)`` batched matrix products (:func:`_period_products`).

    Parameters
    ----------
    probe_lag : int, optional
        Integer lag ``R >= 2l`` at which the overflow guard reads ``|g|``; defaults
        to ``max(40l, 400)`` rounded up to a multiple of ``l``.
    margin : float
        Require ``rho_hat < 1 - margin``.
    """
    l = model.l
    if probe_lag is None:
        probe_lag = max(40 * l, 400)
        probe_lag += (-probe_lag) % l
    _check_int(probe_lag, "probe_lag", 2 * l)
    if model.p == 0:
        return ConvergenceDiagnostic(rho_hat=0.0, passed=True, probe_lag=probe_lag,
                                     margin=margin, tail_value=0.0)
    # anchored at s, g[k] is the [0, 0] entry of A_s A_{s-1} ... A_{s-k+1}, so
    # g[n*l + r] reads M_s ** n times the first r factors of the period product M_s
    n, r = divmod(probe_lag, l)
    products = _period_products(model, (l, r) if r else (l,))
    rho = _decay_rate(model, products[0])
    tail = float("nan")
    if rho < 1.0 - margin:
        (full, exps), *first_r = products
        with np.errstate(over="ignore", invalid="ignore"):
            power, exps = np.linalg.matrix_power(full, n), n * exps
            for mats, more in first_r:
                power, exps = power @ mats, exps + more
            tail = float(np.max(np.ldexp(np.abs(power[:, 0, 0]), exps)))
    return ConvergenceDiagnostic(rho_hat=rho, passed=not _overflowing(tail),
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
    return _truncation(model, _decay_rate(model) if model.p else 0.0)


def _truncation(model: PeriodicModel, rho: float, strict: bool = False) -> int:
    """:func:`default_truncation` given the model's decay rate ``rho``; ``strict``
    raises :class:`NotConvergentError` where it would stop at the cap undecayed."""
    l = model.l
    if model.p == 0:
        return max(l, model.q + 1)
    probe = max(8 * l, 64) if rho >= 1.0 else 2 * l
    if 0.0 < rho < 1.0:
        probe = l * max(2, int(np.ceil(np.log(_REL_TAIL) / (l * np.log(rho)))))
    while True:
        probe = min(probe, TRUNCATION_CAP)
        g = season_tables(model, probe)
        top = np.maximum(np.max(g, axis=1), -np.min(g, axis=1))[:, None]  # max |g|
        decayed = np.all(np.abs(g[:, l::l]) < _REL_TAIL * top, axis=0)
        if decayed.any():
            return max(l * (int(np.argmax(decayed)) + 1), 2 * l)
        if probe >= TRUNCATION_CAP:
            if strict:
                raise NotConvergentError(
                    f"weights have not decayed below {_REL_TAIL:g} of their largest by the "
                    f"truncation cap {TRUNCATION_CAP} (rho_hat={rho:.6g}); use moment_profile "
                    "for exact moments, or pass an explicit truncation")
            return TRUNCATION_CAP
        probe *= 2


def unconditional_mean(model: PeriodicModel, season: int,
                       truncation: int | None = None,
                       diagnostic: ConvergenceDiagnostic | None = None) -> float:
    """Mean of the process in a given season (truncated drift series)."""
    _check_int(season, "season", None)
    diag = _require_convergent(model, diagnostic)
    r_max = (truncation if truncation is not None
             else _truncation(model, diag.rho_hat, strict=True))
    g = green_coefficients(model, season, r_max).values
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
    _check_int(season, "season", None)
    _check_int(lag, "lag")
    diag = _require_convergent(model, diagnostic)
    r_max = (truncation if truncation is not None
             else _truncation(model, diag.rho_hat, strict=True))
    tau = season - lag
    w_t = error_weights(model, season, lag + r_max + 1)
    w_tau = error_weights(model, tau, r_max + 1)
    return float(np.dot(w_t[lag:] * w_tau, backwards(model.sigma2, tau, r_max + 1)))


@dataclass(frozen=True)
class MomentProfile:
    """Per-season means, variances and autocovariances up to a maximum lag.

    ``autocov[s-1, k]`` is ``Cov(y_t, y_{t-k})`` for ``t`` in season ``s``;
    lags past ``max(p, q)`` come from the periodic Yule-Walker recursion.

    The default profile is exact: the fixed point of the periodic Lyapunov
    equation, with ``truncation=None`` and ``tail_bound=0.0``.  A profile
    built at an explicit ``truncation`` holds truncated sums instead, and
    its ``tail_bound`` estimates how far any value, recursion lags included,
    could still move if the truncation went to infinity: the last block of
    ``l`` weights continued geometrically at the exact per-period factor
    ``rho_hat ** l``, the asymptotic rate, which weights of a non-normal
    product may not yet follow.
    """

    means: np.ndarray
    variances: np.ndarray
    autocov: np.ndarray
    truncation: int | None
    tail_bound: float
    diagnostic: ConvergenceDiagnostic

    @property
    def l(self) -> int:
        return len(self.means)

    @property
    def max_lag(self) -> int:
        return self.autocov.shape[1] - 1


def _truncated_moments(model: PeriodicModel, r_max: int, diag: ConvergenceDiagnostic,
                       acov: np.ndarray) -> tuple[np.ndarray, float]:
    """Means of seasons ``1..l`` and the tail bound of the sums truncated at ``r_max``,
    filling the lag-major ``acov[k, s - 1]`` for ``k < len(acov)`` with truncated sums.

    One :func:`season_tables` stack runs ``len(acov) - 1`` lags past ``r_max``.  The
    means and each lag take one batched ``matmul`` across the seasons (one BLAS dot
    per season, the bits of ``np.dot``).
    """
    l, n, direct = model.l, r_max + 1, len(acov) - 1
    tables = season_tables(model, r_max + direct)
    g = tables[:, :n]
    weights = _season_weights(model, tables)
    # backwards(v, s - k, n) is the window v_ext[l - s + k:][:n] of one reversed
    # periodic extension, v_ext[j] = v at season0 -1 - j: row s - 1 of
    # windows(v)[:, k:k + n], with a trailing axis for (l, 1, n) @ (l, n, 1)
    ext = (-1 - np.arange(n + l + direct)) % l

    def windows(v):
        v_ext, item = v[ext], v.itemsize
        return np.lib.stride_tricks.as_strided(v_ext[l - 1:], (l, n + direct, 1), (-item, item, 0),
                                               writeable=False)

    drift, sigma2 = windows(model.drift), windows(model.sigma2)
    # (l, 1, n) @ (l, n, 1) runs one BLAS dot per season, as np.dot does
    means = (g[:, None, :] @ drift[:, :n])[:, 0, 0]
    step = max(1, (1 << 14) // n)  # seasons per weight-product block of about 128 KB
    for k in range(direct + 1):
        for b in range(0, l, step):
            block = weights[(np.arange(b, min(b + step, l)) - k) % l, :n]
            np.multiply(weights[b:b + step, k:k + n], block, out=block)
            acov[k, b:b + step] = (block[:, None, :] @ sigma2[b:b + step, k:k + n])[:, 0, 0]

    # envelope tail bound: one more block of l lags scaled by the geometric
    # block ratio q/(1-q), q = rho_hat**l; covers means (linear in g) and
    # (co)variances (quadratic in w) separately
    q_blk = min(diag.rho_hat ** l, 1.0 - 1e-12)
    mean_tail = np.max(np.sum(np.abs(g[:, -l:]), axis=1)) * np.max(np.abs(model.drift))
    var_tail = np.max(np.sum(weights[:, n - l:n] ** 2, axis=1)) * np.max(model.sigma2)
    bound = float(max(mean_tail * q_blk / (1.0 - q_blk),
                      var_tail * q_blk ** 2 / (1.0 - q_blk ** 2)))
    return means, bound


def moment_profile(model: PeriodicModel, max_lag: int | None = None,
                   truncation: int | None = None) -> MomentProfile:
    """Compute means, variances and autocovariances for every season.

    By default the means and lags ``0..max(p, q)`` are exact, from one
    solve of the periodic Lyapunov equation (:func:`_exact_moments`); with
    ``truncation`` they are the truncated sums of one :func:`season_tables`
    stack.  Each later lag takes one update across all seasons by the
    periodic Yule-Walker recursion, on either route, so the default
    ``max_lag`` on a daily model costs a few times ``max_lag=2``.

    Parameters
    ----------
    max_lag : int, optional
        Highest autocovariance lag, an integer >= 0 (default ``2l``).
    truncation : int, optional
        Series truncation lag, an integer >= ``l``; the tail bound
        extrapolates from the last full period of weights, so a shorter
        truncation has none.  Default: none, the exact profile.
    """
    l, p = model.l, model.p
    if max_lag is not None:
        _check_int(max_lag, "max_lag")
    if truncation is not None and not _is_int(truncation):
        raise ValueError(f"truncation must be an integer, got {truncation!r}")
    if truncation is not None and truncation < l:
        raise ValueError(f"truncation must be >= l = {l}, got {truncation}")
    if max_lag is None:
        max_lag = 2 * l
    diag = _require_convergent(model, None)
    # lag-major: acov[k, s - 1], after p columns that wrap the row around, so that
    # work[k, p - m + s0] = acov[k, (s0 - m) % l] for every m <= p
    work = np.zeros((max_lag + 1, p + l))
    acov = work[:, p:]
    direct = acov[:min(max_lag, max(p, model.q)) + 1]  # the lags not from the recursion
    if truncation is None:
        means, bound = _exact_moments(model, direct), 0.0
    else:
        means, bound = _truncated_moments(model, truncation, diag, direct)
    if p:  # periodic Yule-Walker: gamma(s, k) = sum_m phi_m(s) gamma(s - m, k - m)
        wrap, start = np.arange(-p, 0) % l, len(direct)
        work[:start, :p] = direct[:, wrap]
        # earlier[k - start][m - 1, s0] = acov[k - m, (s0 - m) % l]: one strided view
        row, item = work.strides
        earlier = np.lib.stride_tricks.as_strided(
            work[start - 1, p - 1:], (max_lag + 1 - start, p, l), (row, -row - item, item),
            writeable=False)
        for k, gammas in enumerate(earlier, start=start):
            np.add.reduce(model.ar * gammas, axis=0, out=acov[k])  # np.sum's bits
            work[k, :p] = acov[k, wrap]
    return MomentProfile(means=means, variances=acov[0].copy(), autocov=acov.T.copy(),
                         truncation=truncation, tail_bound=bound, diagnostic=diag)
