"""Exact solution of the periodic difference equation.

Anchored at an origin ``tau`` with ``p`` initial values, the value ``nl >= 1``
steps later is a Green-weighted sum of the forcing at ``tau+1 .. t``,
``t = tau + nl``.  The AR terms at ``tau + i`` that read ``y`` at or before
``tau`` are forcing too, so the sum splits into a homogeneous part (what the
initial conditions propagate to) and a particular part (accumulated drift
plus accumulated innovations):

    hom   = sum_{i=1..min(p,nl)} g[nl-i] * sum_{j=i..p} phi_j(tau+i) y_{tau+i-j}
    par   = sum_{r=0..nl-1} g[r] * drift(t-r) + sum_{r=0..nl-1} g[r] * u_{t-r}

with ``u_s = eps_s + sum_j theta_j(s) eps_{s-j}`` (plain ``eps`` when
``q = 0``) and ``g`` the Green table anchored at ``t``.  At ``nl = 0`` the
value is ``y_tau`` itself, all of it homogeneous.

:func:`direct_recursion` iterates the difference equation step by step and
serves as the independent oracle for :func:`general_solution`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import green_coefficients
from .model import PeriodicModel, _check_int

__all__ = ["SolutionInput", "SolutionDecomposition", "general_solution",
           "direct_recursion"]


@dataclass(frozen=True)
class SolutionInput:
    """Origin data for one evaluation of the solution formulas.

    Parameters
    ----------
    model : PeriodicModel
    origin : int
        Anchor time ``tau``; the solution is evaluated at ``tau + steps``.
    steps : int
        Number of steps ``nl >= 0``.
    initial : array_like, shape (p,)
        ``y_tau, y_{tau-1}, ..., y_{tau-p+1}`` (newest first).
    innovations : array_like, shape (steps + q,)
        ``eps_{tau-q+1}, ..., eps_{tau+steps}`` in chronological order.
        The ``q`` pre-origin values are required inputs, not assumed zero;
        pass explicit zeros if that is what you mean.
    """

    model: PeriodicModel
    origin: int
    steps: int
    initial: np.ndarray
    innovations: np.ndarray

    def __post_init__(self) -> None:
        _check_int(self.origin, "origin", None)
        _check_int(self.steps, "steps")
        object.__setattr__(self, "initial",
                           np.asarray(self.initial, dtype=float).ravel())
        object.__setattr__(self, "innovations",
                           np.asarray(self.innovations, dtype=float).ravel())
        if self.initial.shape != (self.model.p,):
            raise ValueError(
                f"need exactly p={self.model.p} initial values, "
                f"got {self.initial.shape}")
        need = self.steps + self.model.q
        if self.innovations.shape != (need,):
            raise ValueError(
                f"need steps+q={need} innovations, got {self.innovations.shape}")

    def eps(self, t: int) -> float:
        """Innovation at absolute time ``t`` (within the stored window)."""
        idx = t - (self.origin - self.model.q + 1)
        return float(self.innovations[idx])


@dataclass(frozen=True)
class SolutionDecomposition:
    """Homogeneous / particular split; ``total`` is their exact float sum."""

    hom: float
    par_drift: float
    par_noise: float

    @property
    def total(self) -> float:
        return self.hom + self.par_drift + self.par_noise


def _forcing(inp: SolutionInput, t: int) -> float:
    """``u_t``: the innovation plus its MA tail at time ``t``."""
    model = inp.model
    u = inp.eps(t)
    if model.q:
        s0 = model.clock.season0(t)
        lo = t - (inp.origin - model.q + 1)
        for j in range(1, model.q + 1):
            u += model.ma[j - 1, s0] * inp.innovations[lo - j]
    return u


def _pre_origin(coefs: np.ndarray, origin: int, past) -> np.ndarray:
    """The forcing at ``origin + i``, ``i = 1..len(past)``, that reads ``past`` (values at
    or before the origin, newest first): ``sum_{j>=i} coefs[j-1](origin+i) * past[j-i]``
    in ``j`` order.  ``(model.ar, y)`` gives the AR terms, ``(model.ma, eps)`` the MA ones."""
    n, l = len(past), coefs.shape[1]
    return np.array([sum((coefs[j - 1, (origin + i - 1) % l] * past[j - i]
                          for j in range(i, n + 1)), 0.0)
                     for i in range(1, n + 1)])


def general_solution(inp: SolutionInput) -> SolutionDecomposition:
    """Closed-form value ``steps`` ahead of the origin, split into parts.

    ``steps = 0`` returns the identity (``total == y_tau``); ``steps = 1``
    reproduces one step of the difference equation.  ``p > steps`` is
    allowed: only the AR terms at ``tau+1 .. t`` enter.
    """
    model = inp.model
    t = inp.origin + inp.steps
    g = green_coefficients(model, t, inp.steps).nonnegative
    hom = inp.initial[0] if model.p else 0.0  # steps = 0: y_tau itself
    if inp.steps:  # the Green-weighted AR forcing at origin + 1 .. origin + min(p, steps)
        ar = _pre_origin(model.ar, inp.origin, inp.initial)
        hom = sum((g[inp.steps - i] * ar[i - 1]
                   for i in range(1, min(model.p, inp.steps) + 1)), 0.0)

    view = model.view()
    par_drift = 0.0
    par_noise = 0.0
    for r in range(inp.steps):
        par_drift += g[r] * view.drift(t - r)
        par_noise += g[r] * _forcing(inp, t - r)
    return SolutionDecomposition(hom=hom, par_drift=par_drift,
                                 par_noise=par_noise)


def direct_recursion(inp: SolutionInput) -> float:
    """Iterate the difference equation forward ``steps`` times (oracle path)."""
    model = inp.model
    p = model.p
    # state[m] = y_{u-1-m} while computing time u
    state = list(inp.initial)
    view = model.view()
    y = inp.initial[0] if p else 0.0
    for u in range(inp.origin + 1, inp.origin + inp.steps + 1):
        y = view.drift(u) + _forcing(inp, u)
        for m in range(1, p + 1):
            y += view.ar(m, u) * state[m - 1]
        if p:
            state = [y] + state[:-1]
    return float(y)
