#!/usr/bin/env python3
"""Unconditional moments and two independent routes to stationarity.

The stacked (vector-of-seasons) representation turns the periodic model
into a constant-coefficient vector AR whose companion roots decide
stationarity.  The univariate route never stacks anything: it multiplies
the l per-season p x p companion matrices of the scalar recursion over one
period.  The two agree, and each catches what the other would miss if
implemented wrongly.
"""

import numpy as np

from parma import (
    PeriodicModel,
    build_vsform,
    check_convergence,
    default_truncation,
    moment_profile,
    par24_restriction,
    stationarity,
    one_period_cross_check,
)

model = PeriodicModel(
    l=4, p=2, q=0,
    drift=[0.4, -0.2, 0.1, 0.3],
    ar=[[0.4, -0.3, 0.6, 0.2],
        [0.1, 0.2, -0.1, 0.15]],
    ma=[],
    sigma2=[1.0, 0.5, 2.0, 1.5],
)

# Route 1: stacked representation, eigenvalues of the companion matrix.
vs = build_vsform(model)
verdict = stationarity(vs)
print("stacked AR order:", vs.ar_order)
print("within-period matrix (unit lower triangular):")
print(vs.phi0)
print("max companion-root modulus:", verdict.max_root_modulus)
print("stationary:", verdict.stationary)

# For the order-2 four-season case the root criterion collapses to one
# scalar restriction on the eight AR coefficients:
print("scalar restriction (<1 means stationary):", par24_restriction(model))

# Route 2: the univariate decay rate of the Green coefficients, from the
# spectral radius of the period product of companion matrices.  It is per
# time step; raised to the period length it recovers the per-period
# companion root found above.
diag = check_convergence(model)
print("\nunivariate decay rate (per step):", diag.rho_hat)
print("raised to the period length:", diag.rho_hat ** model.l)
print("passes the second-moment check:", diag.passed)

# The one-period determinant ties the two routes together exactly.
print("one-period determinant matches the recurrence:",
      one_period_cross_check(model))

# With existence settled, the periodic Lyapunov equation delivers the exact
# moments; an explicit truncation gives the truncated series instead.
prof = moment_profile(model, max_lag=4)
series = moment_profile(model, max_lag=4, truncation=default_truncation(model))
print(f"\ntruncated series at lag {series.truncation}: tail bound "
      f"{series.tail_bound:.3e}, largest difference from the exact profile "
      f"{np.max(np.abs(series.autocov - prof.autocov)):.1e}")
print("season  mean      variance  acov1     acov4")
for s in range(1, 5):
    print(f"{s}       {prof.means[s - 1]:+.4f}   "
          f"{prof.variances[s - 1]:.4f}    "
          f"{prof.autocov[s - 1, 1]:+.4f}   {prof.autocov[s - 1, 4]:+.4f}")

print("\nMean, variance and autocovariance are periodic: they depend on "
      "the date only through its season.")
