#!/usr/bin/env python3
"""Multi-step forecasting with exact error variances.

Periodic innovation variances make forecast uncertainty seasonal: the
mean-square error need not grow monotonically with the horizon.  The
closed-form predictor prices every horizon directly, with no chained
one-step recursions.
"""

import numpy as np

from parma import ForecastOrigin, PeriodicModel, error_weights, predict

# Half-year seasonality with a strongly heteroscedastic second season.
model = PeriodicModel(
    l=2, p=1, q=1,
    drift=[0.1, 0.2],
    ar=[[0.5, 0.8]],
    ma=[[0.4, -0.3]],
    sigma2=[1.0, 4.0],
)

origin = ForecastOrigin(
    time=2,                 # season 2
    tail=[1.5],             # last observation
    innovations=[0.6],      # last innovation (needed because q = 1)
)

report = predict(model, origin, max_horizon=8)

print("h  season  point      mse        95% band")
for h in report.horizons:
    lo, hi = report.interval(h, z=1.96)
    print(f"{h}  {report.target_seasons[h - 1]}       "
          f"{report.points[h - 1]:+.4f}   {report.mses[h - 1]:8.4f}   "
          f"[{lo:+.3f}, {hi:+.3f}]")

print("\nNote the sawtooth in the mse column: horizons landing on the "
      "high-variance season are inherently harder.")

# The known innovation at the origin still matters at every horizon,
# with geometrically fading weight:
print("\nknown-innovation contribution per horizon:")
print(np.array2string(report.known_adjustments, precision=5))

# Forecast-error weights anchor at the *target* time.  The same horizon
# read from two different origins uses different weight tables:
print("\nerror weights, horizon 4, target in season 1:",
      error_weights(model, t=5, horizon=4))
print("error weights, horizon 4, target in season 2:",
      error_weights(model, t=6, horizon=4))
