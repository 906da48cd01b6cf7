"""Optimal multi-step predictors, forecast-error weights and mean-square errors.

The h-step-ahead conditional mean from origin ``tau`` is the general
solution with future innovations set to zero, plus (for MA orders above
zero) the weighted pre-origin innovations that remain in the information
set:

    point(h) = sum_{r<h} g[r] drift(t-r) + g[h] y_tau
               + sum_{m=1..p-1} sum_{i=1..p-m} phi_{m+i}(tau+i) g[h-i] y_{tau-m}
               + sum_{r=h..h-1+q} w'[r] eps_{t-r},        t = tau + h.

The forecast error is ``sum_{r<h} w[r] eps_{t-r}`` with ``w`` the
error-weight sequence (the Green coefficients themselves when q = 0), so

    mse(h) = sum_{r<h} w[r]^2 sigma2(t - r).

Because the innovation variance is periodic, mse(h) need not be monotone
in h.  All weights anchor at the *target* time, not the origin; the report
records each target season to make that explicit.
Each target season's table and weights are built once; horizon ``h`` reads
a prefix: daily (l = 365, p = 4, q = 2) ``predict`` to H = 365 takes 9-16 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import _known_weights, _season_weights, season_tables
from .model import PeriodicModel, _check_int, backwards
from .solution import homogeneous_coefficients

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
    """Tables of targets ``origin+1 .. origin+min(H, l)``, the row ``rows[h-1]`` that
    target ``origin + h`` reads, its error weights and the MSE per horizon."""
    _check_int(max_horizon, "max_horizon", 1)
    targets = origin_time + np.arange(1, min(max_horizon, model.l) + 1)
    tables = season_tables(model, max_horizon, targets)
    weights = _season_weights(model, tables, targets)
    weights.flags.writeable = False  # the report hands out views of it
    rows = np.arange(max_horizon) % model.l
    views = [weights[r, :h] for h, r in enumerate(rows.tolist(), start=1)]
    sigma2 = backwards(model.sigma2, origin_time + max_horizon, max_horizon)
    mses = np.array([np.dot(w * w, sigma2[max_horizon - len(w):]) for w in views])
    return tables, rows, views, mses


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
        tau, p = origin.time, model.p
        tables, rows, views, mses = _target_rows(model, tau, max_horizon)
        pad = max(p, 1) - 1
        g = tables[:, pad:]
        hs = np.arange(1, max_horizon + 1)
        pairs = list(enumerate(rows.tolist(), start=1))
        drift = backwards(model.drift, tau + max_horizon, max_horizon)
        points = np.array([np.dot(g[r, :h], drift[max_horizon - h:]) for h, r in pairs])
        if p:
            points += g[rows, hs] * origin.tail[0]
            for m, coefs in enumerate(homogeneous_coefficients(model, tau), start=1):
                acc = np.zeros(max_horizon)
                for i, c in enumerate(coefs, start=1):
                    acc += c * tables[rows, pad + hs - i]  # lag h-i may be a seed
                points += acc * origin.tail[m]
        adjustments = np.zeros(max_horizon)
        if model.q:
            known = _known_weights(model, tau + hs, hs, g, rows)
            adjustments = np.array([np.dot(w, origin.innovations) for w in known])
            points += adjustments
        _require_finite(mses, points)

    return ForecastReport(
        origin=tau, points=points, mses=mses, error_weights=tuple(views),
        known_adjustments=adjustments, target_seasons=(tau + hs - 1) % model.l + 1)


def mse_profile(model: PeriodicModel, origin_time: int, max_horizon: int) -> np.ndarray:
    """Forecast-error variances for horizons ``1..max_horizon`` from an origin.

    Independent of the observed values: only the coefficient tables and
    the periodic variance schedule enter.
    """
    with np.errstate(all="ignore"):  # _require_finite reports non-finite values
        return _require_finite(_target_rows(model, origin_time, max_horizon)[3])
