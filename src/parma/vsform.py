"""Vector-of-seasons (stacked) representation and stationarity analysis.

Stacking one period's ``l`` observations into a vector turns the periodic
model into a constant-coefficient vector ARMA: with ``y_T`` the season
vector of period ``T``,

    Phi0 y_T = drift + Phi_1 y_{T-1} + ... + Phi_P y_{T-P} + (MA part),

where ``Phi0`` is unit lower triangular with ``-phi_{i-j, i}`` below the
diagonal and ``Phi_M[i, j] = phi_{i + l*M - j, i}`` (entries with lag
index outside ``1..p`` are zero).  ``P = ceil(p / l)`` and
``Q = ceil(q / l)``.  The process is stationary exactly when the
companion matrix of ``Phi0^{-1}[Phi_1 ... Phi_P]`` has spectral radius
below one.

The MA matrices follow the same entry rule with ``theta`` substituted,
which is the vector-model sign convention (the stacked MA polynomial
reads ``Theta0 - sum Theta_N B^N``); it negates the univariate ``+theta``
convention of :class:`~parma.model.PeriodicModel`.  No operation in this
module uses the MA stack, so the clash is cosmetic, but callers combining
the matrices with simulated innovations must flip the off-diagonal signs.

This module is the package's independent cross-check: its verdicts and
forecasts come from standard dense linear algebra, never from the Green
tables, so agreement between the two routes is evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import build_fundamental, green_coefficients, lu_determinant
from .model import PeriodicModel, _check_int

__all__ = [
    "VSForm",
    "StationarityVerdict",
    "build_vsform",
    "companion_matrix",
    "stationarity",
    "par24_restriction",
    "one_period_cross_check",
    "vs_forecast",
]

#: spectral radii within this distance of 1 give an "indeterminate at
#: tolerance" verdict: eigenvalue conditioning near the unit circle makes
#: a hard call unreliable.
BOUNDARY_BAND = 0.02


@dataclass(frozen=True)
class VSForm:
    """Stacked coefficient matrices of the vector-of-seasons representation."""

    model: PeriodicModel
    ar_order: int
    ma_order: int
    phi0: np.ndarray
    phi: np.ndarray
    theta0: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        for name in ("phi0", "phi", "theta0", "theta"):
            getattr(self, name).flags.writeable = False


def _stack_lagged(table: np.ndarray, order: int, l: int, block: int) -> np.ndarray:
    """Per the stacking rule, ``out[i, j] = table[m - 1, i]`` where ``m = i + l*block - j``
    lies in ``1..order`` (0-based ``i``, ``j``), zero elsewhere."""
    i, j = np.indices((l, l))
    m = i + l * block - j
    inside = (m >= 1) & (m <= order)
    out = np.zeros((l, l))
    out[inside] = table[m[inside] - 1, i[inside]]
    return out


def build_vsform(model: PeriodicModel) -> VSForm:
    """Stack a periodic model into its constant-coefficient vector form."""
    l = model.l
    ar_order = -(-model.p // l)  # ceil(p / l)
    ma_order = -(-model.q // l)
    phi = np.array([_stack_lagged(model.ar, model.p, l, b)
                    for b in range(1, ar_order + 1)]).reshape(ar_order, l, l)
    theta = np.array([_stack_lagged(model.ma, model.q, l, b)
                      for b in range(1, ma_order + 1)]).reshape(ma_order, l, l)
    return VSForm(model=model, ar_order=ar_order, ma_order=ma_order,
                  phi0=np.eye(l) - _stack_lagged(model.ar, model.p, l, 0),
                  phi=phi,
                  theta0=np.eye(l) - _stack_lagged(model.ma, model.q, l, 0),
                  theta=theta)


def companion_matrix(vs: VSForm) -> np.ndarray:
    """Companion matrix of ``Phi0^{-1}[Phi_1 ... Phi_P]`` (0x0 for p = 0)."""
    l, p_blocks = vs.model.l, vs.ar_order
    if p_blocks == 0:
        return np.zeros((0, 0))
    normalized = [np.linalg.solve(vs.phi0, vs.phi[b]) for b in range(p_blocks)]
    n = l * p_blocks
    out = np.zeros((n, n))
    out[:l, :] = np.hstack(normalized)
    if p_blocks > 1:
        out[l:, :-l] = np.eye(l * (p_blocks - 1))
    return out


@dataclass(frozen=True)
class StationarityVerdict:
    """Root-based stationarity decision.

    ``max_root_modulus`` is the spectral radius of the stacked companion
    matrix (per-period roots).  ``indeterminate`` marks radii within
    :data:`BOUNDARY_BAND` of one, where the boolean should not be trusted.
    ``period_determinant`` is the absolute determinant of the one-period
    fundamental matrix (only defined for ``p <= l``); for an order-1 model
    it equals the absolute coefficient product, and stationarity is
    equivalent to it being below one.
    """

    max_root_modulus: float
    stationary: bool
    indeterminate: bool
    period_determinant: float | None


def stationarity(vs: VSForm, boundary_band: float = BOUNDARY_BAND) -> StationarityVerdict:
    """Decide stationarity from the companion-matrix spectrum."""
    comp = companion_matrix(vs)
    radius = 0.0 if comp.size == 0 else float(np.max(np.abs(np.linalg.eigvals(comp))))
    model = vs.model
    period_det = None
    if model.p <= model.l:
        period_det = abs(lu_determinant(build_fundamental(model, model.l, model.l)))
    return StationarityVerdict(
        max_root_modulus=radius,
        stationary=bool(radius < 1.0),
        indeterminate=bool(abs(radius - 1.0) < boundary_band),
        period_determinant=period_det,
    )


def par24_restriction(model: PeriodicModel) -> float:
    """Scalar stationarity restriction for the order-2, four-season model.

    With ``a..d`` the first-lag and ``e..h`` the second-lag coefficients of
    seasons 1..4, returns the absolute value of

        f*c*d + f*h + e*b*c + e*g + a*b*c*d + a*b*h + a*d*g - e*f*g*h,

    which collects the degree-1 coefficient minus the degree-2 coefficient
    of the stacked characteristic polynomial ``det(Phi0 - Phi1 z)``.  The
    value is below one exactly on the stationary side of the dominant root
    crossing; its verdict can differ from the full eigenvalue criterion
    only inside a band around the unit circle whose width is controlled by
    the product ``e*f*g*h`` of the second-lag coefficients.
    """
    if (model.p, model.l) != (2, 4):
        raise ValueError(
            f"restriction is defined for p=2, l=4 models, "
            f"got p={model.p}, l={model.l}")
    a, b, c, d = model.ar[0]
    e, f, g, h = model.ar[1]
    value = (f * c * d + f * h + e * b * c + e * g
             + a * b * c * d + a * b * h + a * d * g
             - e * f * g * h)
    return float(abs(value))


def one_period_cross_check(model: PeriodicModel, tol: float = 1e-10) -> bool:
    """Verify the two routes to the one-period growth factor agree.

    Compares the lag-``l`` Green coefficient (recurrence route) with the
    dense LU determinant of the one-period fundamental matrix (stacked
    route), and for order-1 models additionally checks that both "below
    one" verdicts match the root-based stationarity verdict.
    """
    if not 1 <= model.p <= model.l:
        raise ValueError(f"cross-check needs 1 <= p <= l, got p={model.p}, l={model.l}")
    g = green_coefficients(model, model.l, model.l).value(model.l)
    det = lu_determinant(build_fundamental(model, model.l, model.l))
    if abs(abs(g) - abs(det)) > tol * max(1.0, abs(det)):
        return False
    if model.p == 1:
        verdict = stationarity(build_vsform(model))
        if (abs(g) < 1.0) != verdict.stationary:
            return False
        if (abs(det) < 1.0) != verdict.stationary:
            return False
    return True


def vs_forecast(model: PeriodicModel, last_period: np.ndarray,
                n_periods: int) -> np.ndarray:
    """Stacked-form forecasts of the next ``n_periods`` season vectors.

    Standard first-order vector recursion ``E[y_{T+1}] = A E[y_T] + c``
    with ``A = Phi0^{-1} Phi_1`` and ``c = Phi0^{-1} drift``; requires the
    stacked AR order to be one (``p <= l``).  Row ``n-1`` holds the
    conditional means of seasons ``1..l`` of period ``T+n``.
    """
    vs = build_vsform(model)
    if vs.ar_order > 1:
        raise ValueError(f"vector forecast implemented for p <= l, got p={model.p}")
    last = np.asarray(last_period, dtype=float).ravel()
    if last.shape != (model.l,):
        raise ValueError(f"last_period must hold l={model.l} values, got {last.shape}")
    _check_int(n_periods, "n_periods", 1)
    if vs.ar_order == 0:
        step = np.zeros((model.l, model.l))
    else:
        step = np.linalg.solve(vs.phi0, vs.phi[0])
    intercept = np.linalg.solve(vs.phi0, model.drift)
    out = np.zeros((n_periods, model.l))
    state = last
    for n in range(n_periods):
        state = step @ state + intercept
        out[n] = state
    return out
