"""Optimal multi-step predictors, forecast-error weights and mean-square errors.

The solution writes ``y_t``, ``t = tau + h``, as a Green-weighted sum of the
forcing at ``tau+1 .. t``, where the AR and MA terms that read ``y`` or ``eps``
at or before the origin ``tau`` count as forcing.  The h-step-ahead conditional
mean is that sum with the future innovations set to zero:

    point(h) = sum_{r<h} g[r] f(t-r),
    f(tau+i) = drift(tau+i) + sum_{j>=i} phi_j(tau+i) y_{tau+i-j}
                            + sum_{j>=i} theta_j(tau+i) eps_{tau+i-j}.

The theta sums alone, weighted by ``g[h-i]``, are reported as the
known-innovation adjustment.

The forecast error is ``sum_{r<h} w[r] eps_{t-r}`` with ``w`` the
error-weight sequence (the Green coefficients themselves when q = 0), so

    mse(h) = sum_{r<h} w[r]^2 sigma2(t - r).

Because the innovation variance is periodic, mse(h) need not be monotone
in h.  All weights anchor at the *target* time, not the origin; the report
records each target season to make that explicit.
Each target season's table and weights are built once; horizon ``h`` reads
a prefix: daily (l = 365, p = 4, q = 2) ``predict`` to H = 365 takes 8-14 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import _season_weights, season_tables
from .model import PeriodicModel, _check_int, backwards
from .solution import _pre_origin

__all__ = [
    "ForecastOrigin",
    "ForecastReport",
    "MissingInnovationTailError",
    "NonFiniteForecastError",
    "predict",
    "mse_profile",
]


class MissingInnovationTailError(ValueError):
    """An MA model was asked to forecast without its pre-origin innovations."""


class NonFiniteForecastError(ValueError):
    """A forecast point or mean-square error is inf or NaN; the message names the first."""


def _require_finite(mses: np.ndarray, points: np.ndarray | None = None) -> np.ndarray:
    """``mses`` if it and ``points`` are finite, else the error for the first bad horizon."""
    ok = np.isfinite(mses) & np.isfinite(mses if points is None else points)
    if not ok.all():
        h = int(np.argmin(ok)) + 1
        at = "" if points is None else f"point={points[h - 1]}, "
        raise NonFiniteForecastError(
            f"forecast is not finite from horizon {h} ({at}mse={mses[h - 1]}): "
            "the weights overflow or an input is not finite")
    return mses


@dataclass(frozen=True)
class ForecastOrigin:
    """Conditioning information for a forecast.

    Parameters
    ----------
    time : int
        Origin ``tau``; forecasts target ``tau + h``.
    tail : array_like, shape (p,)
        Observed ``y_tau, y_{tau-1}, ..., y_{tau-p+1}`` (newest first).
    innovations : array_like, shape (q,), optional
        Known ``eps_tau, ..., eps_{tau-q+1}`` (newest first).  Required
        exactly when ``q >= 1``.
    """

    time: int
    tail: np.ndarray = ()
    innovations: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_int(self.time, "time", None)
        object.__setattr__(self, "tail", np.asarray(self.tail, dtype=float).ravel())
        if self.innovations is not None:
            object.__setattr__(
                self, "innovations",
                np.asarray(self.innovations, dtype=float).ravel())


def _check_origin(model: PeriodicModel, origin: ForecastOrigin) -> None:
    if origin.tail.shape != (model.p,):
        raise ValueError(
            f"origin tail must hold exactly p={model.p} values, "
            f"got {origin.tail.shape}")
    if model.q >= 1:
        if origin.innovations is None:
            raise MissingInnovationTailError(
                f"model has q={model.q}; the last {model.q} innovations at "
                f"the origin are required")
        if origin.innovations.shape != (model.q,):
            raise ValueError(
                f"origin innovations must hold exactly q={model.q} values, "
                f"got {origin.innovations.shape}")


@dataclass(frozen=True)
class ForecastReport:
    """Per-horizon point forecasts, error weights and mean-square errors.

    ``error_weights[h-1]`` holds the weights on ``eps_{t}, ..., eps_{t-h+1}``
    (lag order, anchored at the target ``t = origin + h``), and
    ``known_adjustments[h-1]`` the contribution of pre-origin innovations
    to the point forecast (zero when q = 0).
    """

    origin: int
    points: np.ndarray
    mses: np.ndarray
    error_weights: tuple
    known_adjustments: np.ndarray
    target_seasons: np.ndarray

    @property
    def horizons(self) -> np.ndarray:
        return np.arange(1, len(self.points) + 1)

    def interval(self, h: int, z: float) -> tuple[float, float]:
        """Gaussian-innovation interval ``point +- z * sqrt(mse)`` at horizon h.

        Only the first two moments back this band; no stronger
        distributional claim is made.
        """
        half = z * float(np.sqrt(self.mses[h - 1]))
        point = float(self.points[h - 1])
        return point - half, point + half


def _target_rows(model: PeriodicModel, origin_time: int, max_horizon: int):
    """Tables (lags ``0 ..``) of targets ``origin+1 .. origin+min(H, l)``, the row
    ``rows[h-1]`` that target ``origin + h`` reads, its error weights and the MSEs."""
    _check_int(max_horizon, "max_horizon", 1)
    targets = origin_time + np.arange(1, min(max_horizon, model.l) + 1)
    tables = season_tables(model, max_horizon, targets)
    weights = _season_weights(model, tables, targets)
    weights.flags.writeable = False  # the report hands out views of it
    rows = np.arange(max_horizon) % model.l
    views = [weights[r, :h] for h, r in enumerate(rows.tolist(), start=1)]
    sigma2 = backwards(model.sigma2, origin_time + max_horizon, max_horizon)
    mses = np.array([np.dot(w * w, sigma2[max_horizon - len(w):]) for w in views])
    return tables[:, max(model.p, 1) - 1:], rows, views, mses


def predict(model: PeriodicModel, origin: ForecastOrigin, max_horizon: int) -> ForecastReport:
    """Optimal (least-squares) linear predictions for horizons ``1..max_horizon``.

    Raises
    ------
    MissingInnovationTailError
        When ``q >= 1`` and the origin carries no innovation tail.
    NonFiniteForecastError
        When a point or mean-square error overflows or is NaN.
    """
    _check_origin(model, origin)
    with np.errstate(all="ignore"):  # _require_finite reports non-finite values
        tau, H = origin.time, max_horizon
        g, rows, views, mses = _target_rows(model, tau, H)
        ma = _pre_origin(model.ma, tau, origin.innovations if model.q else ())
        forcing = backwards(model.drift, tau + H, H)  # f(tau+i) at index H - i
        for part in (_pre_origin(model.ar, tau, origin.tail), ma):
            n = min(len(part), H)
            forcing[H - n:] += part[:n][::-1]
        pairs = enumerate(rows.tolist(), start=1)
        points = np.array([np.dot(g[r, :h], forcing[H - h:]) for h, r in pairs])
        adjustments = np.zeros(H)
        for i, m in enumerate(ma, start=1):  # horizons h >= i read g[h-i]
            adjustments[i - 1:] += g[rows[i - 1:], np.arange(H - i + 1)] * m
        _require_finite(mses, points)

    return ForecastReport(
        origin=tau, points=points, mses=mses, error_weights=tuple(views),
        known_adjustments=adjustments, target_seasons=(tau + np.arange(H)) % model.l + 1)


def mse_profile(model: PeriodicModel, origin_time: int, max_horizon: int) -> np.ndarray:
    """Forecast-error variances for horizons ``1..max_horizon`` from an origin.

    Independent of the observed values: only the coefficient tables and
    the periodic variance schedule enter.
    """
    _check_int(origin_time, "origin_time", None)
    with np.errstate(all="ignore"):  # _require_finite reports non-finite values
        return _require_finite(_target_rows(model, origin_time, max_horizon)[3])
