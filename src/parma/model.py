"""Periodic ARMA model container, checked once when built; season arithmetic.

A PARMA(p, q; l) process has AR, MA, drift and innovation-variance
parameters that depend on the season ``s`` in ``1..l`` and repeat every
``l`` time steps.  Absolute time ``t`` and the pair ``(period, season)``
are related by ``t = period * l + season`` with ``season`` in ``1..l``;
:class:`SeasonClock` owns that bijection.  Seasons are 1-based in every
public signature; the 0-based column index into the coefficient tables is
an implementation detail confined to this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SeasonClock",
    "PeriodicModel",
    "CoefficientView",
    "Violation",
    "ModelValidationError",
    "violations",
    "validate",
    "is_constant",
    "NON_POSITIVE_VARIANCE",
    "SHAPE_MISMATCH",
    "NON_FINITE_COEFFICIENT",
]

NON_POSITIVE_VARIANCE = "NonPositiveVariance"
SHAPE_MISMATCH = "ShapeMismatch"
NON_FINITE_COEFFICIENT = "NonFiniteCoefficient"


@dataclass(frozen=True)
class Violation:
    """One validation failure: a machine-readable kind plus a message."""

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class ModelValidationError(ValueError):
    """Raised by :func:`validate`, so by building an invalid model; lists every violation."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class SeasonClock:
    """Bijection between absolute time and (period, season) for period length ``l``.

    ``decompose(t) = (T, s)`` is the unique pair with ``t = T*l + s`` and
    ``1 <= s <= l``; it uses floor-style division so the season stays in
    range for negative ``t`` as well.  Times ``t`` and ``t + l`` always
    share a season.
    """

    l: int

    def __post_init__(self) -> None:
        if not isinstance(self.l, (int, np.integer)) or self.l < 1:
            raise ValueError(f"period length must be an integer >= 1, got {self.l!r}")

    def decompose(self, t: int) -> tuple[int, int]:
        """Split ``t`` into ``(period, season)`` with season in ``1..l``."""
        s = (t - 1) % self.l + 1
        return (t - s) // self.l, s

    def compose(self, period: int, season: int) -> int:
        """Inverse of :meth:`decompose`."""
        if not 1 <= season <= self.l:
            raise ValueError(f"season must be in 1..{self.l}, got {season}")
        return period * self.l + season

    def season(self, t: int) -> int:
        """Season (1-based) of absolute time ``t``."""
        return (t - 1) % self.l + 1

    def season0(self, t: int) -> int:
        """0-based season index of ``t``; column index into coefficient tables."""
        return (t - 1) % self.l


def backwards(values: np.ndarray, t: int, n: int) -> np.ndarray:
    """Season-indexed ``values`` (length ``l``) at times ``t, t-1, ..., t-n+1``."""
    return values[(t - 1 - np.arange(n)) % len(values)]


def _is_int(x) -> bool:
    """An integer that is not a bool (``True`` is an ``int`` to Python)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_int(value, name: str, low: int | None = 0) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an integer, >= ``low`` if not None."""
    if not (_is_int(value) and (low is None or value >= low)):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _as_table(values, rows: int, cols: int) -> np.ndarray:
    """Copy to a float array; an empty one gets shape ``(rows, cols)`` when that
    is a valid empty shape (other orders are left for :func:`violations`)."""
    arr = np.array(values, dtype=float)
    if arr.size == 0 and _is_int(rows) and _is_int(cols) and min(rows, cols) == 0:
        return np.zeros((rows, cols))
    return arr


@dataclass(frozen=True)
class PeriodicModel:
    """PARMA(p, q; l) coefficient set with periodic innovation variances.

    Parameters
    ----------
    l : int
        Period length (number of seasons).
    p, q : int
        AR and MA orders; either may be 0.
    drift : array_like, shape (l,)
        Per-season intercept.
    ar : array_like, shape (p, l)
        AR coefficients; ``ar[m-1, s-1]`` multiplies ``y_{t-m}`` when
        ``t`` falls in season ``s``.
    ma : array_like, shape (q, l)
        MA coefficients; ``ma[j-1, s-1]`` multiplies ``eps_{t-j}``.
    sigma2 : array_like, shape (l,)
        Per-season innovation variances, each strictly positive and finite.

    Notes
    -----
    Construction copies the inputs to read-only float arrays and checks the
    shape/positivity/finiteness invariants on them once, raising
    :class:`ModelValidationError` with every violation; so every model is
    valid and no consumer checks it again.  The caller's arrays stay theirs
    and writable.  Instances are immutable and safe to share across threads.
    """

    l: int
    p: int
    q: int
    drift: np.ndarray
    ar: np.ndarray
    ma: np.ndarray
    sigma2: np.ndarray
    clock: SeasonClock = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "drift", np.array(self.drift, dtype=float))
        object.__setattr__(self, "ar", _as_table(self.ar, self.p, self.l))
        object.__setattr__(self, "ma", _as_table(self.ma, self.q, self.l))
        object.__setattr__(self, "sigma2", np.array(self.sigma2, dtype=float))
        for name in ("drift", "ar", "ma", "sigma2"):
            getattr(self, name).flags.writeable = False
        validate(self)
        object.__setattr__(self, "clock", SeasonClock(self.l))

    def __reduce__(self):
        # copies and unpickled models are built anew, so they own read-only arrays too
        return type(self), (self.l, self.p, self.q, self.drift, self.ar, self.ma, self.sigma2)

    @classmethod
    def constant(cls, ar=(), ma=(), sigma2: float = 1.0, drift: float = 0.0,
                 l: int = 1) -> "PeriodicModel":
        """Constant-coefficient ARMA viewed as a (trivially) periodic model."""
        ar = np.asarray(ar, dtype=float).ravel()
        ma = np.asarray(ma, dtype=float).ravel()
        return cls(
            l=l,
            p=ar.size,
            q=ma.size,
            drift=np.full(l, float(drift)),
            ar=np.tile(ar[:, None], (1, l)),
            ma=np.tile(ma[:, None], (1, l)),
            sigma2=np.full(l, float(sigma2)),
        )

    def season(self, t: int) -> int:
        return self.clock.season(t)

    def view(self) -> "CoefficientView":
        return CoefficientView(self)


@dataclass(frozen=True)
class CoefficientView:
    """Time-indexed accessors over the season-indexed coefficient tables.

    All accessors satisfy ``coef(t) == coef(t - n*l)`` for every integer
    ``n``.  Lag indices outside ``1..p`` (or ``1..q``) are contract
    violations and raise ``IndexError`` rather than returning zero.
    """

    model: PeriodicModel

    def ar(self, m: int, t: int) -> float:
        if not 1 <= m <= self.model.p:
            raise IndexError(f"AR lag {m} outside 1..{self.model.p}")
        return float(self.model.ar[m - 1, self.model.clock.season0(t)])

    def ma(self, j: int, t: int) -> float:
        if not 1 <= j <= self.model.q:
            raise IndexError(f"MA lag {j} outside 1..{self.model.q}")
        return float(self.model.ma[j - 1, self.model.clock.season0(t)])

    def drift(self, t: int) -> float:
        return float(self.model.drift[self.model.clock.season0(t)])

    def sigma2(self, t: int) -> float:
        return float(self.model.sigma2[self.model.clock.season0(t)])


def violations(model: PeriodicModel) -> list[Violation]:
    """Collect every invariant violation of ``model`` (empty list if valid)."""
    found: list[Violation] = []

    def bad_shape(msg: str) -> None:
        found.append(Violation(SHAPE_MISMATCH, msg))

    if not _is_int(model.l) or model.l < 1:
        bad_shape(f"period length l must be an integer >= 1, got {model.l!r}")
        return found  # the remaining checks are meaningless without l
    if not _is_int(model.p) or model.p < 0:
        bad_shape(f"AR order p must be an integer >= 0, got {model.p!r}")
    if not _is_int(model.q) or model.q < 0:
        bad_shape(f"MA order q must be an integer >= 0, got {model.q!r}")
    if found:
        return found

    expected = {
        "drift": (model.l,),
        "ar": (model.p, model.l),
        "ma": (model.q, model.l),
        "sigma2": (model.l,),
    }
    for name, shape in expected.items():
        arr = getattr(model, name)
        if arr.shape != shape:
            bad_shape(f"{name} must have shape {shape}, got {arr.shape}")
    if found:
        return found

    for name in ("drift", "ar", "ma"):
        arr = getattr(model, name)
        if arr.size and not np.all(np.isfinite(arr)):
            found.append(Violation(
                NON_FINITE_COEFFICIENT, f"{name} contains non-finite entries"))
    if not np.all(np.isfinite(model.sigma2)):
        found.append(Violation(
            NON_FINITE_COEFFICIENT, "sigma2 contains non-finite entries"))
    bad = np.where(~(model.sigma2 > 0.0))[0]
    if bad.size:
        seasons = ", ".join(str(i + 1) for i in bad)
        found.append(Violation(
            NON_POSITIVE_VARIANCE,
            f"sigma2 must be strictly positive; offending season(s): {seasons}"))
    return found


def validate(model: PeriodicModel) -> PeriodicModel:
    """Return ``model`` unchanged if valid, else raise :class:`ModelValidationError`.

    The exception lists *all* violations, not just the first.
    """
    found = violations(model)
    if found:
        raise ModelValidationError(found)
    return model


def is_constant(model: PeriodicModel) -> bool:
    """True when every coefficient row is identical across seasons.

    A model with ``l == 1`` is vacuously constant.
    """
    for name in ("drift", "ar", "ma", "sigma2"):
        arr = np.atleast_2d(getattr(model, name))
        if arr.size and not np.all(arr == arr[..., :1]):
            return False
    return True
