"""Seeded inputs: models, observation series and forecast origins.

Every draw comes from one numpy Generator per (seed, workload), so a seed
fixes the inputs.  A model is accepted only when the stacked-form oracle
(:mod:`parma.vsform`) calls it stationary with its period radius outside
``BOUNDARY_BAND``; nothing else re-draws a model.  In particular models that
trip known defects of the Green-table moments stay in the mix.
"""

from __future__ import annotations

import zlib

import numpy as np

import parma
from parma.vsform import BOUNDARY_BAND

MAX_TRIES = 200


def generator(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def accept(model: parma.PeriodicModel) -> bool:
    """True when the oracle's period radius is below ``1 - BOUNDARY_BAND``."""
    radius = parma.stationarity(parma.build_vsform(model)).max_root_modulus
    return radius < 1.0 - BOUNDARY_BAND


def _draw(rng, l, p, q, first_lag, other_lag):
    ar = rng.uniform(-other_lag, other_lag, (p, l))
    if p:
        ar[0] = first_lag(rng, l)
    return parma.PeriodicModel(
        l=l, p=p, q=q,
        drift=rng.uniform(-1.0, 1.0, l),
        ar=ar,
        ma=rng.uniform(-0.6, 0.6, (q, l)),
        sigma2=rng.uniform(0.5, 2.0, l))


def _moderate(rng, l):
    return rng.uniform(0.5, 0.7, l)


def stationary_model(rng, l, p, q, first_lag=_moderate, other_lag=0.05):
    """Draw until the oracle accepts; ``first_lag(rng, l)`` gives the lag-1 row.

    The default keeps the per-step decay rate near 0.6 whatever the seed, so
    truncation lags and burn-in lengths, and with them the cost of an
    operation, do not change from seed to seed.
    """
    for _ in range(MAX_TRIES):
        model = _draw(rng, l, p, q, first_lag, other_lag)
        if accept(model):
            return model
    raise RuntimeError(f"no stationary draw for l={l}, p={p}, q={q}")


def daily_model(rng, l=365, q=2):
    """Daily-seasonality model: lag-1 AR swings between about 0.6 and 0.9.

    A per-step decay rate near 0.72 keeps the tables from underflowing
    within the first few periods.
    """
    def seasonal(rng, l):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.sin(2.0 * np.pi * np.arange(l) / l + phase)
        return 0.75 + 0.12 * wave + rng.uniform(-0.03, 0.03, l)

    return stationary_model(rng, l, 4, q, first_lag=seasonal, other_lag=0.05)


def series(rng, model, n):
    """Observations and innovations at times ``1..n`` from a zero start.

    Runs the difference equation with its own loop, so the inputs do not
    depend on the library's simulator.  Index ``i`` holds time ``i + 1``.
    """
    p, q, l = model.p, model.q, model.l
    eps = rng.standard_normal(n) * np.sqrt(model.sigma2[np.arange(n) % l])
    ar, ma, drift = model.ar.tolist(), model.ma.tolist(), model.drift.tolist()
    y = [0.0] * n
    e = eps.tolist()
    for i in range(n):
        s = i % l
        v = drift[s] + e[i]
        for j in range(1, min(q, i) + 1):
            v += ma[j - 1][s] * e[i - j]
        for m in range(1, min(p, i) + 1):
            v += ar[m - 1][s] * y[i - m]
        y[i] = v
    return np.array(y), eps


def origin_at(model, y, eps, time) -> parma.ForecastOrigin:
    """Forecast origin at ``time`` from a series made by :func:`series`."""
    i = time - 1
    tail = y[i - model.p + 1:i + 1][::-1] if model.p else []
    innovations = eps[i - model.q + 1:i + 1][::-1] if model.q else None
    return parma.ForecastOrigin(time=time, tail=tail, innovations=innovations)


def random_origin(rng, model, time) -> parma.ForecastOrigin:
    return parma.ForecastOrigin(
        time=time, tail=rng.normal(size=model.p),
        innovations=rng.normal(size=model.q) if model.q else None)
