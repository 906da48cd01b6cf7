#!/usr/bin/env python3
"""Why the univariate route scales: a daily-seasonality benchmark.

Stacking daily data turns one year into a 365-variate vector model, which
is painful to forecast with.  The univariate recurrence never stacks:
its cost is linear in the table length regardless of the period, and a
lag-10,000 table for a 365-season model lands in milliseconds.  The same
model gives every season's exact unconditional moments from one solve of
the periodic Lyapunov equation, and the periodic Yule-Walker recursion for
the remaining two years of lags.
"""

import time

import numpy as np

from parma import (PeriodicModel, build_fundamental, green_coefficients, lu_determinant,
                   moment_profile)

rng = np.random.default_rng(0)
model = PeriodicModel(
    l=365, p=4, q=0,
    drift=np.zeros(365),
    ar=rng.uniform(-0.4, 0.4, (4, 365)),
    ma=[],
    sigma2=np.ones(365),
)

green_coefficients(model, 365, 100)  # warm up

start = time.perf_counter()
table = green_coefficients(model, 365, 10_000)
ms = (time.perf_counter() - start) * 1e3
print(f"table of 10,000 daily-model coefficients: {ms:.1f} ms")

# The same table computed the determinant way: one dense LU per lag.
# One period (365 lags) is already orders of magnitude slower.
start = time.perf_counter()
green_coefficients(model, 365, 365)
rec = time.perf_counter() - start

start = time.perf_counter()
for k in range(1, 366):
    lu_determinant(build_fundamental(model, 365, k))
lu = time.perf_counter() - start

print(f"one-period table, recurrence : {rec * 1e3:8.2f} ms")
print(f"one-period table, LU per lag : {lu * 1e3:8.2f} ms")
print(f"speedup                      : {lu / rec:8.0f}x")

print("\nforecast-relevant byproduct: the mean-square error of any "
      "horizon is a dot product over this table; pricing a full year of "
      "daily horizons is instant.")

start = time.perf_counter()
profile = moment_profile(model)  # default max_lag = 2l = 730
ms = (time.perf_counter() - start) * 1e3
print(f"\nmeans, variances and autocovariances at lags 0..{profile.max_lag} "
      f"for all 365 seasons: {ms:.0f} ms (exact, no truncation)")
