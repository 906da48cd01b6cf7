#!/usr/bin/env python3
"""Green coefficients of a periodic AR model, and why the recurrence wins.

The weight that an innovation from r steps back carries in today's value
is the determinant of an r x r banded matrix built from the seasonal AR
coefficients.  This walk-through builds those matrices explicitly, checks
them against the O(p*r) recurrence, and shows the structure that makes
only l distinct tables necessary.
"""

import numpy as np

from parma import (
    PeriodicModel,
    build_fundamental,
    green_coefficients,
    laplace_determinant,
)

# A quarterly model: one AR lag whose strength depends on the quarter.
model = PeriodicModel(
    l=4, p=1, q=0,
    drift=np.zeros(4),
    ar=[[0.9, 1.3, 0.7, 0.5]],   # season 2 is locally explosive
    ma=[],
    sigma2=np.ones(4),
)

print("Quarterly AR(1) with seasonal coefficients", model.ar[0])

# Anchor the analysis at a time in season 4 and tabulate the first lags.
table = green_coefficients(model, t=4, max_lag=8)
print("\nlag  coefficient")
for r in range(9):
    print(f"{r:3d}  {table.value(r):+.6f}")

# Lag 4 spans one whole period, so it is exactly the coefficient product:
print("\nproduct of the four seasonal coefficients:",
      np.prod(model.ar[0]))
print("coefficient at lag 4:                      ", table.value(4))

# Each value is literally a determinant.  Build the 4x4 matrix and expand.
f4 = build_fundamental(model, t=4, order=4)
print("\nthe 4x4 solution matrix:")
print(f4.values)
print("naive cofactor expansion:", laplace_determinant(f4))

# Shifting the anchor by a whole period changes nothing; shifting by one
# season gives the table of the neighbouring season.
same = green_coefficients(model, t=8, max_lag=8)
print("\nanchor moved one full period, tables identical:",
      np.array_equal(table.values, same.values))

neighbour = green_coefficients(model, t=5, max_lag=8)
print("anchor in season 1 instead:", neighbour.values[:5])

# Individually explosive seasons are harmless as long as the product of a
# full period stays below one: the coefficients decay period over period.
print("\nperiod-over-period decay factor:",
      table.value(8) / table.value(4))
