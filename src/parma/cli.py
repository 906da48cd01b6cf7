"""Command-line surface.

Subcommands expose each analysis as tables on stdout (or ``-o FILE``):

* ``validate``     lint a model document
* ``greens``       Green-coefficient / error-weight tables per season
* ``forecast``     multi-step predictions with mean-square errors and bands
* ``moments``      per-season means, variances and autocovariances
* ``stationarity`` stacked-form verdict plus the univariate cross-check
* ``simulate``     sample paths as delimited text
* ``bench``        recurrence-vs-determinant timing over growing table sizes

Exit status: 0 on success, 1 when the model (or a requested computation's
precondition) fails validation, 2 on usage, I/O or parse errors.  Output
is deterministic for fixed inputs and seeds; numbers carry 12 significant
digits.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .forecast import ForecastOrigin, MissingInnovationTailError, predict
from .greens import (
    _overflowing,
    _season_weights,
    build_fundamental,
    green_coefficients,
    lu_determinant,
    season_tables,
)
from .model import ModelValidationError
from .modelio import (NUMBER_FORMAT, FileFormatError, dump_path, format_number, load_model,
                      load_series)
from .moments import NotConvergentError, moment_profile
from .sim import SimPlan, simulate
from .vsform import build_vsform, par24_restriction, stationarity, one_period_cross_check

__all__ = ["main", "entry", "build_parser"]

_fmt = format_number


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parma",
        description="Analyze and forecast periodic ARMA models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="model document (YAML)")
        p.add_argument("-o", "--output", default=None,
                       help="write the report here instead of stdout")
        return p

    add("validate", "check a model document against the invariants")

    p = add("greens", "Green coefficients (and error weights) per season")
    p.add_argument("-H", "--horizon", type=int, default=12,
                   help="highest lag in the table (default 12)")

    p = add("forecast", "multi-step forecasts from the end of a series")
    p.add_argument("--series", required=True,
                   help="observations as time,season,value text")
    p.add_argument("-H", "--horizon", type=int, default=8,
                   help="forecast horizon (default 8)")
    p.add_argument("-z", "--z", type=float, default=1.96,
                   help="half-width multiplier for the Gaussian band")
    p.add_argument("--innovations", default=None,
                   help="last q innovations, oldest first, comma-separated "
                        "(required when q >= 1)")

    p = add("moments", "per-season unconditional moments")
    p.add_argument("-K", "--max-lag", type=int, default=None,
                   help="highest autocovariance lag (default 2*l)")
    p.add_argument("-R", "--truncation", type=int, default=None,
                   help="series truncation lag (default: automatic)")

    p = add("stationarity", "stacked-form stationarity verdict and cross-checks")
    p.add_argument("--band", type=float, default=0.02,
                   help="half-width of the indeterminate band around the "
                        "unit circle (default 0.02)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="tolerance for the determinant cross-check "
                        "(default 1e-10)")

    p = add("simulate", "generate sample paths")
    p.add_argument("-n", "--length", type=int, default=100,
                   help="points kept per path (default 100)")
    p.add_argument("--paths", type=int, default=1,
                   help="replication count (default 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--dist", choices=("gaussian", "student-t"),
                   default="gaussian")
    p.add_argument("--df", type=float, default=None,
                   help="degrees of freedom for student-t innovations")

    p = add("bench", "time the recurrence against determinant evaluation")
    p.add_argument("--orders", default="50,100,200,365",
                   help="comma-separated table sizes (default 50,100,200,365)")

    return parser


def _cmd_check(model, args, out):
    out.write(f"model: PARMA(p={model.p}, q={model.q}; l={model.l})\n")
    out.write("status: OK\n")
    out.write(f"drift: {' '.join(_fmt(x) for x in model.drift)}\n")
    out.write(f"sigma2: {' '.join(_fmt(x) for x in model.sigma2)}\n")
    return 0


def _cmd_greens(model, args, out):
    if args.horizon < 0:
        raise _UsageError("horizon must be >= 0")
    with np.errstate(all="ignore"):  # the warning line reports overflow
        tables = season_tables(model, args.horizon)
        coefficients = tables[:, max(model.p, 1) - 1:]
        columns = [coefficients, _season_weights(model, tables)] if model.q else [coefficients]
    if _overflowing(tables):
        out.write("# warning: coefficients exceed 1e100; double precision "
                  "is running out of headroom\n")
    out.write(",".join(["season", "lag", "coefficient", "error_weight"][:len(columns) + 2]) + "\n")
    line = "%d,%d" + ("," + NUMBER_FORMAT) * len(columns) + "\n"
    for s, season in enumerate(zip(*[c.tolist() for c in columns]), start=1):
        out.writelines(line % (s, r, *values) for r, values in enumerate(zip(*season)))
    return 0


def _cmd_forecast(model, args, out):
    if args.horizon < 1:
        raise _UsageError("horizon must be >= 1")
    series = load_series(args.series, model)
    innovations = None
    if args.innovations is not None:
        try:
            oldest_first = [float(x) for x in args.innovations.split(",")]
        except ValueError as exc:
            raise _UsageError(f"bad --innovations: {exc}")
        innovations = np.array(oldest_first[::-1])
    origin = ForecastOrigin(time=series.last_time,
                            tail=series.tail(model.p),
                            innovations=innovations)
    report = predict(model, origin, args.horizon)
    out.write(f"# origin time {origin.time} "
              f"(season {model.season(origin.time)})\n")
    out.write("h,target_season,point,mse,lo,hi\n")
    line = "%d,%d," + ",".join([NUMBER_FORMAT] * 4) + "\n"
    for h in report.horizons:
        out.write(line % (h, report.target_seasons[h - 1], report.points[h - 1],
                          report.mses[h - 1], *report.interval(h, args.z)))
    return 0


def _cmd_moments(model, args, out):
    if args.max_lag is not None and args.max_lag < 0:
        raise _UsageError("max lag must be >= 0")
    if args.truncation is not None and args.truncation < 1:
        raise _UsageError("truncation must be >= 1")
    prof = moment_profile(model, max_lag=args.max_lag,
                          truncation=args.truncation)
    diag = prof.diagnostic
    out.write(f"# convergence: rho_hat={_fmt(diag.rho_hat)} "
              f"passed={str(diag.passed).lower()} "
              f"probe_lag={diag.probe_lag}\n")
    out.write(f"# truncation={prof.truncation} "
              f"tail_bound={_fmt(prof.tail_bound)}\n")
    out.write(",".join(["season", "mean", "variance"]
                       + [f"acov_{k}" for k in range(prof.max_lag + 1)]) + "\n")
    # one printf per row: a daily default-K profile has 268,000 values
    line = "%d," + ",".join([NUMBER_FORMAT] * (prof.max_lag + 3)) + "\n"
    rows = zip(prof.means.tolist(), prof.variances.tolist(), prof.autocov.tolist())
    out.writelines(line % (s, mean, variance, *acov)
                   for s, (mean, variance, acov) in enumerate(rows, start=1))
    return 0


def _cmd_stationarity(model, args, out):
    if args.band < 0:
        raise _UsageError("band must be >= 0")
    if args.tol <= 0:
        raise _UsageError("tol must be > 0")
    vs = build_vsform(model)
    verdict = stationarity(vs, boundary_band=args.band)
    out.write(f"stacked_ar_order: {vs.ar_order}\n")
    out.write(f"max_root_modulus: {_fmt(verdict.max_root_modulus)}\n")
    out.write(f"verdict: {'STATIONARY' if verdict.stationary else 'NON-STATIONARY'}\n")
    out.write(f"indeterminate_at_tolerance: {str(verdict.indeterminate).lower()}\n")
    if verdict.period_determinant is not None:
        out.write(f"period_determinant: {_fmt(verdict.period_determinant)}\n")
    if 1 <= model.p <= model.l:
        green_l = green_coefficients(model, model.l, model.l).value(model.l)
        out.write(f"green_lag_l: {_fmt(abs(green_l))}\n")
        agree = one_period_cross_check(model, tol=args.tol)
        out.write(f"cross_check: {'agree' if agree else 'DISAGREE'}\n")
    if (model.p, model.l) == (2, 4):
        out.write(f"par24_restriction: {_fmt(par24_restriction(model))}\n")
    return 0


def _cmd_simulate(model, args, out):
    if args.length < 1:
        raise _UsageError("length must be >= 1")
    if args.paths < 1:
        raise _UsageError("paths must be >= 1")
    plan = SimPlan(model, length=args.length, n_paths=args.paths,
                   burn_in=args.burn_in, seed=args.seed, dist=args.dist,
                   df=args.df)
    result = simulate(plan)
    if args.paths == 1:
        dump_path(result, out)
        return 0
    out.write("path,time,season,y,eps\n")
    line = "%d,%d,%d," + NUMBER_FORMAT + "," + NUMBER_FORMAT + "\n"
    for idx, path in enumerate(result):
        rows = zip(path.times.tolist(), path.seasons.tolist(), path.y.tolist(), path.eps.tolist())
        out.writelines(line % (idx, *row) for row in rows)
    return 0


def _cmd_bench(model, args, out):
    try:
        orders = [int(x) for x in args.orders.split(",")]
    except ValueError as exc:
        raise _UsageError(f"bad --orders: {exc}")
    if any(k < 1 for k in orders):
        raise _UsageError("orders must be >= 1")
    out.write("order,recurrence_ms,lu_dets_ms,speedup\n")
    line = "%d," + ",".join([NUMBER_FORMAT] * 3) + "\n"
    for k in orders:
        best_rec = min(_time_once(lambda: green_coefficients(model, model.l, k))
                       for _ in range(3))

        def lu_table():
            for order in range(1, k + 1):
                lu_determinant(build_fundamental(model, model.l, order))

        best_lu = _time_once(lu_table)
        out.write(line % (k, best_rec * 1e3, best_lu * 1e3, best_lu / best_rec))
    return 0


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


_COMMANDS = {
    "validate": _cmd_check,
    "greens": _cmd_greens,
    "forecast": _cmd_forecast,
    "moments": _cmd_moments,
    "stationarity": _cmd_stationarity,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        model = load_model(args.model)
    except ModelValidationError as exc:
        sys.stderr.write("model validation failed:\n")
        for v in exc.violations:
            sys.stderr.write(f"  - {v}\n")
        return 1
    except (FileFormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    out = sys.stdout
    close = False
    try:
        if args.output is not None:
            try:
                out = open(args.output, "w", encoding="utf-8")
            except OSError as exc:
                sys.stderr.write(f"error: {exc}\n")
                return 2
            close = True
        return _COMMANDS[args.command](model, args, out)
    except (_UsageError, MissingInnovationTailError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (FileFormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NotConvergentError, ModelValidationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        if close:
            out.close()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
