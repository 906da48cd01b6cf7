"""Green-function coefficients of periodic AR models.

The exact solution of the periodic difference equation writes ``y_t`` as a
weighted sum of past innovations; the weight on ``eps_{t-r}`` equals the
determinant of an ``r x r`` banded lower Hessenberg matrix (a generalized
continuant of bandwidth ``p + 1``) carrying the periodic AR coefficients.
Expanding that determinant along its first column collapses it to the
``p``-term recurrence

    g[k] = sum_{i=1..min(p,k)} phi_i(t - k + i) * g[k - i],

seeded with ``g[0] = 1`` alone: lag ``k`` reads only lags ``0 .. k-1``.  The
recurrence is exact algebra, costs ``O(p * H)`` for a table of length
``H``, and is the only production path; the determinant evaluators in this
module exist to verify it.

Tables depend on the anchor time ``t`` only through its season, so ``l``
tables cover all anchors.  One loop serves one anchor on Python floats
(:func:`green_coefficients`) and many in place on the lag columns of one
array (:func:`season_tables`), so a row has the single table's bits.  A
daily model (l = 365, p = 4) takes 6-9 ms for one table to lag 10,000 and
6-11 ms for all 365 to lag 365 (2-core 2.1 GHz Xeon VM).

For PARMA models ``error_weights`` derives the weights of the post-origin
innovations in the forecast error, equal to the moving-average-infinity (psi)
weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import PeriodicModel, _check_int

__all__ = [
    "GreenTable",
    "FundamentalMatrix",
    "green_coefficients",
    "season_tables",
    "error_weights",
    "build_fundamental",
    "laplace_determinant",
    "lu_determinant",
]

#: |g| beyond this is reported as-is but flagged as overflowing; explosive
#: models are legitimate (the solution theory needs no stationarity), the
#: flag only warns that double precision is running out of headroom.
OVERFLOW_FLAG = 1e100

_LAPLACE_MAX = 14
_LU_MAX = 512


@dataclass(frozen=True)
class GreenTable:
    """Green-function values for one anchor season.

    ``values[r]`` is the weight at lag ``r``, for ``r = 0 .. max_lag``.
    """

    anchor_season: int
    max_lag: int
    p: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values.flags.writeable = False

    def value(self, r: int) -> float:
        """Green coefficient at lag ``r`` (``0 <= r <= max_lag``)."""
        if not 0 <= r <= self.max_lag:
            raise IndexError(f"lag {r} outside 0..{self.max_lag}")
        return float(self.values[r])

    @property
    def overflowing(self) -> bool:
        """True when the table left the comfortable double-precision range or holds NaN."""
        return _overflowing(self.values)


def _overflowing(values) -> bool:
    """True when some ``|values|`` exceeds :data:`OVERFLOW_FLAG` or is NaN."""
    return not np.all(np.abs(values) <= OVERFLOW_FLAG)


def _recurrence(model: PeriodicModel, s0, hist: list, targets: list) -> list:
    """Run the Green recurrence for anchors of season0 ``s0``, one lag per target.

    ``hist`` holds lag 0; each lag ``k = 1, 2, ...`` accumulates
    ``phi_i(t - k + i) * g[k - i]`` onto its target, reading
    ``g[k - i]`` as the ``i``-th last entry of ``hist``, and appends it there.
    One anchor (``s0`` an int) runs on Python floats with targets ``0.0``; many
    (``s0`` an array) run in place on the lag columns of an anchor-major buffer.
    Each lag gathers its coefficients just before their first use.
    """
    p, l = model.p, model.l
    # rows[i-1][j] = phi_i at season0 j + i for j < 2l: lag k of season0 s reads
    # j = s + (-k) % l, so no index wraps
    ext = np.tile(model.ar, 3)
    rows = [ext[i - 1, i % l:i % l + 2 * l] for i in range(1, p + 1)]
    rows = [row.tolist() for row in rows] if np.ndim(s0) == 0 else rows

    def pairs(k):  # lag k reads g[k - i] for i = 1..min(p, k)
        at = s0 + (-k) % l
        return [(row[at], -i) for i, row in enumerate(rows[:k], start=1)]

    # lag k < p reads only lags 0..k-1; from lag p on, lag k + l replays lag k, whose
    # gathers are kept only when some lag replays them
    period = map(pairs, range(p, p + l))
    lags = itertools.chain(map(pairs, range(1, p)),
                           itertools.cycle(period) if len(targets) >= p + l else period)
    for v, terms in zip(targets, lags):
        for a, i in terms:
            v += a * hist[i]
        hist.append(v)
    return hist


def green_coefficients(model: PeriodicModel, t: int, max_lag: int) -> GreenTable:
    """Green-function table anchored at time ``t`` up to lag ``max_lag``.

    Parameters
    ----------
    model : PeriodicModel
    t : int
        Anchor time; only its season matters.
    max_lag : int
        Highest lag computed, an integer >= 0.

    Returns
    -------
    GreenTable

    Notes
    -----
    Runs the first-column-expansion recurrence in plain Python floats, each
    lag appended to one list whose tail holds the lags it reads; building a
    daily-seasonality table (l = 365, p = 4) to lag 10,000 takes 6-9 ms
    (2-core 2.1 GHz Xeon VM).
    """
    _check_int(t, "t", None)
    _check_int(max_lag, "max_lag")
    g = _recurrence(model, (t - 1) % model.l, [1.0], [0.0] * max_lag)
    return GreenTable(anchor_season=model.season(t), max_lag=max_lag, p=model.p,
                      values=np.array(g))


def season_tables(model: PeriodicModel, max_lag: int, seasons=None) -> np.ndarray:
    """Read-only Green tables, one row per anchor in ``seasons`` (default ``1..l``).

    Row ``i`` equals ``green_coefficients(model, seasons[i], max_lag).values``
    (lags ``0 .. max_lag``): the same loop runs across all rows at once, so all
    365 daily tables to lag 365 take 6-11 ms, against 300-380 ms one by one
    (2-core 2.1 GHz Xeon VM).
    """
    _check_int(max_lag, "max_lag")
    anchors = np.arange(1, model.l + 1) if seasons is None else np.asarray(seasons)
    if anchors.size and not np.issubdtype(anchors.dtype, np.integer):
        raise ValueError(f"seasons must hold integer times, got {seasons!r}")
    s0 = (anchors.reshape(-1).astype(np.int64) - 1) % model.l
    out = np.zeros((len(s0), max_lag + 1))
    out[:, 0] = 1.0
    columns = list(out.T)
    _recurrence(model, s0, columns[:1], columns[1:])
    out.flags.writeable = False
    return out


def _season_weights(model: PeriodicModel, g: np.ndarray, seasons=None) -> np.ndarray:
    """Error weights at lags ``0 .. max_lag`` of each row of a :func:`season_tables` array
    ``g`` built for ``seasons`` (default ``1..len(g)``); shorter horizons read prefixes."""
    if model.q == 0:
        return g.copy()
    l, n = model.l, g.shape[1]
    start = l - (np.arange(len(g)) if seasons is None else (np.asarray(seasons) - 1) % l)
    # windows[j-1, i, m] = theta_j at season0 -(i + m); lag k of season0 s reads
    # windows[j-1, start, k-j], so each row's thetas are one contiguous window
    ext = model.ma[:, -np.arange(n + l) % l]  # ext[j-1, i] = theta_j at season0 -i
    windows = np.lib.stride_tricks.as_strided(
        ext, (model.q, l + 1, n - 1), ext.strides + ext.strides[1:], writeable=False)
    acc = np.zeros(g.shape)
    step = max(1, (1 << 14) // n)  # rows per theta block of about 128 KB
    for j in range(1, min(model.q, n - 1) + 1):
        for b in range(0, len(g), step):
            theta = windows[j - 1, start[b:b + step], :n - j]
            acc[b:b + step, j:] += np.multiply(theta, g[b:b + step, :n - j], out=theta)
    acc += g  # == g + acc: the scalar loop's order
    return acc


def error_weights(model: PeriodicModel, t: int, horizon: int) -> np.ndarray:
    """Forecast-error weights at lags ``0 .. horizon-1`` anchored at ``t``.

    For a pure AR model these are the Green coefficients themselves; the MA
    part adds ``sum_{j<=r} g[r-j] * theta_j(t-r+j)`` at lag ``r``.  The result
    is also the MA-infinity weight sequence of the process.
    """
    _check_int(horizon, "horizon", 1)
    table = green_coefficients(model, t, horizon - 1)
    return _season_weights(model, table.values[None], [t])[0]


@dataclass(frozen=True)
class FundamentalMatrix:
    """Dense ``order x order`` solution matrix anchored at a time point.

    Lower Hessenberg with bandwidth ``p + 1``: ``-1`` on the superdiagonal,
    ``phi_{1+m}(anchor - order + i)`` at ``(i, j)`` when ``i = j + m`` for
    ``0 <= m <= p-1`` (1-based indices), zero elsewhere.  Its determinant
    is the Green coefficient at lag ``order``; deleting the first ``r``
    rows and columns yields the matrix of order ``order - r`` at the same
    anchor.
    """

    anchor: int
    order: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values.flags.writeable = False

    def principal_submatrix(self, r: int) -> "FundamentalMatrix":
        """Drop the first ``r`` rows and columns (order shrinks by ``r``)."""
        if not 0 <= r < self.order:
            raise ValueError(f"r must be in 0..{self.order - 1}, got {r}")
        return FundamentalMatrix(self.anchor, self.order - r,
                                 self.values[r:, r:].copy())


def build_fundamental(model: PeriodicModel, t: int, order: int) -> FundamentalMatrix:
    """Construct the dense fundamental solution matrix of a given order."""
    _check_int(t, "t", None)
    _check_int(order, "order", 1)
    a = np.zeros((order, order))
    i = np.arange(1, order + 1)  # 1-based rows
    a[i[:-1] - 1, i[:-1]] = -1.0
    for m in range(min(model.p, order)):
        a[i[m:] - 1, i[m:] - 1 - m] = model.ar[m, (t - order + i[m:] - 1) % model.l]
    return FundamentalMatrix(anchor=t, order=order, values=a)


def laplace_determinant(a: np.ndarray | FundamentalMatrix) -> float:
    """Determinant by naive cofactor expansion along the first column.

    Exponential in general; zero entries are skipped, which keeps banded
    matrices tractable.  Guarded to order <= 14.
    """
    if isinstance(a, FundamentalMatrix):
        a = a.values
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    if n > _LAPLACE_MAX:
        raise ValueError(f"naive expansion is limited to order {_LAPLACE_MAX}")
    rows = a.tolist()

    def expand(active: list[int], col: int) -> float:
        size = len(active)
        if size == 1:
            return rows[active[0]][col]
        if size == 2:
            r0, r1 = active
            return (rows[r0][col] * rows[r1][col + 1]
                    - rows[r1][col] * rows[r0][col + 1])
        if size == 3:
            a0, a1, a2 = rows[active[0]][col:col + 3]
            b0, b1, b2 = rows[active[1]][col:col + 3]
            c0, c1, c2 = rows[active[2]][col:col + 3]
            return (a0 * (b1 * c2 - b2 * c1)
                    - a1 * (b0 * c2 - b2 * c0)
                    + a2 * (b0 * c1 - b1 * c0))
        acc = 0.0
        for pos in range(size):
            r = active[pos]
            v = rows[r][col]
            if v == 0.0:
                continue
            del active[pos]
            sub = expand(active, col + 1)
            active.insert(pos, r)
            acc += v * sub if pos % 2 == 0 else -v * sub
        return acc

    if n == 0:
        return 1.0
    return expand(list(range(n)), 0)


def lu_determinant(a: np.ndarray | FundamentalMatrix) -> float:
    """Determinant via LU factorization with partial pivoting.

    ``np.linalg.slogdet`` runs LAPACK's LU and returns the sign and the log
    magnitude, so large explosive tables do not overflow intermediate
    products; exactly singular inputs give 0.  Guarded to order <= 512.
    """
    if isinstance(a, FundamentalMatrix):
        a = a.values
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    if n > _LU_MAX:
        raise ValueError(f"LU evaluator is limited to order {_LU_MAX}")
    sign, logdet = np.linalg.slogdet(a)
    return float(sign * np.exp(logdet))
