"""The four benchmark workloads: their operations and the checks on each output.

A workload's cycle is a list of blocks; a block is a list of operations run
back to back by one caller.  Each operation has a ``run`` step, which is
timed, and a ``check`` step, which is not: it compares the output with an
independent oracle of the acceptance gate at that gate's tolerance and
returns a message on mismatch.  A run repeats whole cycles, so every run
measures the same mix; ``once`` gives blocks too long to repeat, which a run
executes and checks one time, before the cycles.

Workloads call the library through module attributes (``parma.predict``),
never through names bound at import, so a tracer that swaps those
attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import parma
import inputs

#: forecast horizons checked against step-by-step recursion on long forecasts
LONG_CHECK_HORIZONS = (1, 2, 7, 14, 30, 91, 182, 273, 365)
#: lags at which a long Green table is checked against the LU determinant
LU_CHECK_LAGS = (1, 7, 100, 365, 512)
#: share of Monte Carlo horizons that must fall within 3 standard errors;
#: the closed form is exact, so about 0.3% of horizons miss by chance
MC_PASS_SHARE = 0.95


@dataclass
class Op:
    """``run(state)`` is timed; ``check(result, state)`` is not.

    ``state`` maps each kind already run in the block to its output, so an
    operation can consume an earlier one's and a check can compare with it.
    """

    kind: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None]


def close(got: float, want: float, rel: float) -> bool:
    """Acceptance-gate comparison: ``|got - want| <= rel * max(1, |got|, |want|)``."""
    return abs(got - want) <= rel * max(1.0, abs(got), abs(want))


def recursion_point(model, origin, h) -> float:
    """Conditional mean ``h`` steps ahead by direct recursion with zero future shocks."""
    known = origin.innovations[::-1] if model.q else np.zeros(0)
    inp = parma.SolutionInput(model, origin=origin.time, steps=h,
                              initial=origin.tail,
                              innovations=np.concatenate([known, np.zeros(h)]))
    return parma.direct_recursion(inp)


def check_forecast(model, origin, horizons):
    def check(report, state):
        if not (np.all(np.isfinite(report.points))
                and np.all(np.isfinite(report.mses))
                and np.all(report.mses > 0.0)):
            return "non-finite point or non-positive mse"
        first = model.sigma2[model.clock.season0(origin.time + 1)]
        if not close(report.mses[0], first, 1e-12):
            return f"mse(1)={report.mses[0]!r}, innovation variance {first!r}"
        for h in horizons:
            if h <= len(report.points):
                want = recursion_point(model, origin, h)
                if not close(report.points[h - 1], want, 1e-9):
                    return (f"point h={h} is {report.points[h - 1]!r}, "
                            f"direct recursion {want!r}")
        return None
    return check


def check_mse(mses, state):
    """Same origin and horizon as the block's long ``predict``."""
    if not (np.all(np.isfinite(mses)) and np.all(mses > 0.0)):
        return "non-finite or non-positive mse"
    report = state.get("predict.long")
    if report is None:
        return "no predict report at this origin to compare with"
    if len(mses) != len(report.mses) or not all(
            close(a, b, 1e-12) for a, b in zip(mses, report.mses)):
        return "mse_profile differs from predict's mses"
    return None


def check_table(model, t, max_lag):
    def check(table, state):
        if table.max_lag != max_lag or not np.all(np.isfinite(table.values)):
            return "wrong length or non-finite table"
        for k in LU_CHECK_LAGS:
            if k <= max_lag:
                det = parma.lu_determinant(parma.build_fundamental(model, t, k))
                if abs(table.value(k) - det) > 1e-8 * max(1.0, abs(det)):
                    return f"lag {k}: {table.value(k)!r} vs LU {det!r}"
        return None
    return check


def check_solution(inp):
    def check(dec, state):
        want = parma.direct_recursion(inp)
        if not close(dec.total, want, 1e-9):
            return f"general solution {dec.total!r}, direct recursion {want!r}"
        return None
    return check


class Workload:
    """Base of the workloads: no one-off blocks unless a workload has some."""

    name = ""

    def once(self) -> list[list[Op]]:
        return []


class DailyForecast(Workload):
    """A rolling year of forecasts from one persistent daily model.

    One block per quarter: a short forecast from each day, a full-year
    ``predict`` and ``mse_profile`` at the quarter start, one
    ``general_solution`` over a year; the first quarter also builds one
    table to lag 10,000.  Greens kernel, weights and forecast dominate;
    moments and simulation are absent.
    """

    name = "daily-forecast"

    def __init__(self, seed: int, tiny: bool = False):
        rng = inputs.generator(seed, self.name)
        l = 30 if tiny else 365
        self.h_short = 5 if tiny else 14
        self.h_long = l
        self.green_lag = 600 if tiny else 10_000
        self.model = inputs.daily_model(rng, l=l)
        y, eps = inputs.series(rng, self.model, 3 * l)
        self.times = [l + d for d in range(l)]
        self.origins = [inputs.origin_at(self.model, y, eps, t) for t in self.times]
        self.quarters = [round(i * l / 4) for i in range(4)] + [l]
        q = self.model.q
        self.solutions = {}
        for start in self.quarters[:-1]:
            t = self.times[start]
            window = eps[t - q:t + l]  # eps at times t-q+1 .. t+l
            self.solutions[start] = parma.SolutionInput(
                self.model, origin=t, steps=l, initial=self.origins[start].tail,
                innovations=window)

    def warm_up(self) -> None:
        origin = self.origins[0]
        parma.predict(self.model, origin, self.h_short)
        parma.mse_profile(self.model, origin.time, self.h_short)
        parma.green_coefficients(self.model, origin.time, self.h_short)

    def cycle(self) -> list[list[Op]]:
        model = self.model
        blocks = []
        for i in range(4):
            start, stop = self.quarters[i], self.quarters[i + 1]
            origin = self.origins[start]
            block = []
            if i == 0:
                t, lag = origin.time, self.green_lag
                block.append(Op("green_coefficients",
                                lambda st, t=t, lag=lag: parma.green_coefficients(model, t, lag),
                                check_table(model, t, lag)))
            inp = self.solutions[start]
            block.append(Op("general_solution",
                            lambda st, inp=inp: parma.general_solution(inp),
                            check_solution(inp)))
            block.append(Op("predict.long",
                            lambda st, o=origin: parma.predict(model, o, self.h_long),
                            check_forecast(model, origin, LONG_CHECK_HORIZONS)))
            block.append(Op("mse_profile.long",
                            lambda st, t=origin.time: parma.mse_profile(model, t, self.h_long),
                            check_mse))
            for d in range(start, stop):
                o = self.origins[d]
                block.append(Op("predict.short",
                                lambda st, o=o: parma.predict(model, o, self.h_short),
                                check_forecast(model, o, range(1, self.h_short + 1))))
            blocks.append(block)
        return blocks


def analysis(model):
    """One moments-mix operation: convergence verdict, moments, oracle verdict."""
    diagnostic = parma.check_convergence(model)
    profile = parma.moment_profile(model, max_lag=2)
    verdict = parma.stationarity(parma.build_vsform(model))
    return diagnostic, profile, verdict


def check_analysis(result, state):
    diagnostic, profile, verdict = result
    if diagnostic.passed != verdict.stationary:
        return (f"check_convergence passed={diagnostic.passed} "
                f"(rho_hat={diagnostic.rho_hat:.6g}) but vsform radius "
                f"{verdict.max_root_modulus:.6g}")
    arrays = (profile.means, profile.variances, profile.autocov)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return "non-finite moment"
    if not np.all(profile.variances > 0.0):
        return "non-positive variance"
    if not np.isfinite(profile.tail_bound):
        return "non-finite tail bound"
    return None


class MomentsMix(Workload):
    """Per-model analysis over a seeded mix of periods and one daily model.

    Each period has one order, so each group's latencies are unimodal; the
    counts put the median inside the l=24 group and the 90th percentile
    inside the l=52 group, away from group boundaries.  The daily model's
    analysis takes 7 to 17 s, too long to repeat in a run, so it runs once,
    before the cycles of small models; it counts in the failures but not in
    the timing metrics.  Moments and vsform dominate; the forecast path is
    absent.
    """

    name = "moments-mix"
    #: period -> (p, q, models per cycle)
    GROUPS = {12: (4, 2, 5), 24: (2, 1, 16), 52: (2, 0, 5)}
    TINY_GROUPS = {12: (4, 2, 4), 24: (2, 1, 2)}

    def __init__(self, seed: int, tiny: bool = False):
        rng = inputs.generator(seed, self.name)
        small = []
        for l, (p, q, n) in (self.TINY_GROUPS if tiny else self.GROUPS).items():
            small += [inputs.stationary_model(rng, l, p, q) for _ in range(n)]
        self.models = [small[i] for i in rng.permutation(len(small))]
        self.daily = inputs.daily_model(rng, l=36 if tiny else 365)

    def warm_up(self) -> None:
        analysis(inputs.stationary_model(np.random.default_rng(0), 4, 1, 0))

    def once(self) -> list[list[Op]]:
        m = self.daily
        return [[Op(f"analysis.l{m.l}", lambda st: analysis(m), check_analysis)]]

    def cycle(self) -> list[list[Op]]:
        return [[Op(f"analysis.l{m.l}", lambda st, m=m: analysis(m), check_analysis)
                 for m in self.models]]


def check_path_start(model, path, n=8):
    """The first points of a stored path against direct recursion."""
    k = min(n, len(path.y))
    inp = parma.SolutionInput(
        model, origin=path.start - 1, steps=k, initial=path.pre_y,
        innovations=np.concatenate([path.pre_eps[::-1], path.eps[:k]]))
    for i in range(1, k + 1):
        sub = parma.SolutionInput(model, origin=inp.origin, steps=i,
                                  initial=inp.initial,
                                  innovations=inp.innovations[:model.q + i])
        want = parma.direct_recursion(sub)
        if not close(path.y[i - 1], want, 1e-9):
            return f"path point {i} is {path.y[i - 1]!r}, direct recursion {want!r}"
    return None


def check_paths(model, n_paths, length):
    def check(result, state):
        paths = [result] if n_paths == 1 else result
        if len(paths) != n_paths or any(len(p) != length for p in paths):
            return "wrong path count or length"
        if not all(np.all(np.isfinite(p.y)) for p in paths):
            return "non-finite path value"
        return check_path_start(model, paths[0])
    return check


def replay_all(model, source):
    """Replay every path of a simulate output; returns (paths, replayed values)."""
    if source is None:
        raise RuntimeError("simulate failed, nothing to replay")
    if isinstance(source, list):
        return source, [parma.replay(model, path) for path in source]
    return source, parma.replay(model, source)


def check_replay(result, state):
    source, replayed = result
    if isinstance(source, list):
        same = all(np.array_equal(r, p.y) for r, p in zip(replayed, source))
    else:
        same = np.array_equal(replayed, source.y)
    return None if same else "replay is not bit-identical to the simulated path"


def check_mc(model, origin, horizon):
    reference = []

    def check(rows, state):
        if len(rows) != horizon:
            return "wrong number of horizons"
        if not reference:
            reference.append(parma.predict(model, origin, horizon).mses)
        theo = np.array([r.theoretical_mse for r in rows])
        if not np.array_equal(theo, reference[0]):
            return "theoretical mse differs from predict"
        values = [(r.bias, r.empirical_mse, r.z_score) for r in rows]
        if not np.all(np.isfinite(values)):
            return "non-finite Monte Carlo row"
        share = sum(r.passed for r in rows) / len(rows)
        if share < MC_PASS_SHARE:
            return f"only {share:.0%} of horizons within 3 standard errors"
        return None
    return check


class MonteCarlo(Workload):
    """Simulation, replay and forecast experiments on l=12 and l=52 models.

    Many short paths and one long path use the recursion in opposite ways:
    vectorizing across paths helps the first and not the second.  Burn-in
    resolution runs the convergence diagnostic inside every simulate.
    """

    name = "monte-carlo"
    #: (period, p, q) of each model
    CASES = ((12, 1, 0), (12, 3, 2), (52, 2, 1), (52, 2, 0))

    def __init__(self, seed: int, tiny: bool = False):
        rng = inputs.generator(seed, self.name)
        cases = self.CASES[:2] if tiny else self.CASES
        n_paths, length = (8, 100) if tiny else (64, 1000)
        long = 2000 if tiny else 64_000
        self.mc_paths = 2000 if tiny else 20_000
        self.cases = []
        for l, p, q in cases:
            model = inputs.stationary_model(rng, l, p, q)
            seeds = [int(s) for s in rng.integers(0, 2**31, 3)]
            self.cases.append((
                model,
                parma.SimPlan(model, length=length, n_paths=n_paths, seed=seeds[0]),
                parma.SimPlan(model, length=long, seed=seeds[1]),
                inputs.random_origin(rng, model, int(rng.integers(1, 10 * l))),
                seeds[2]))

    def warm_up(self) -> None:
        model, _, _, origin, _ = self.cases[0]
        path = parma.simulate(parma.SimPlan(model, length=50, seed=1))
        parma.replay(model, path)
        parma.mc_forecast_experiment(model, origin, 2, 100, seed=1)

    def cycle(self) -> list[list[Op]]:
        """One block holding every model, so any run measures the same mix.

        Kinds name the operation and the period; a replay runs right after
        its simulate and replays that simulate's output.
        """
        block = []
        for model, many, long, origin, mc_seed in self.cases:
            h, l = 2 * model.l, model.l
            block.extend([
                Op(f"simulate.many.l{l}", lambda st, plan=many: parma.simulate(plan),
                   check_paths(model, many.n_paths, many.length)),
                Op(f"simulate.long.l{l}", lambda st, plan=long: parma.simulate(plan),
                   check_paths(model, 1, long.length)),
                Op(f"replay.many.l{l}",
                   lambda st, m=model, k=f"simulate.many.l{l}": replay_all(m, st.get(k)),
                   check_replay),
                Op(f"replay.long.l{l}",
                   lambda st, m=model, k=f"simulate.long.l{l}": replay_all(m, st.get(k)),
                   check_replay),
                Op(f"mc_forecast.l{l}",
                   lambda st, m=model, o=origin, h=h, s=mc_seed:
                       parma.mc_forecast_experiment(m, o, h, self.mc_paths, seed=s),
                   check_mc(model, origin, h)),
            ])
        return [block]


ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

#: (golden file, argv) pairs pinned by the CLI goldens
GOLDEN_COMMANDS = [
    ("validate_par12.txt", ["validate", f"{FIXTURES}/par12.yaml"]),
    ("greens_parma11x2.txt", ["greens", f"{FIXTURES}/parma11x2.yaml", "-H", "4"]),
    ("greens_const_ar1.txt", ["greens", f"{FIXTURES}/const_ar1.yaml", "-H", "4"]),
    ("forecast_par12.txt", ["forecast", f"{FIXTURES}/par12.yaml",
                            "--series", f"{FIXTURES}/series12.csv", "-H", "4"]),
    ("moments_par12.txt", ["moments", f"{FIXTURES}/par12.yaml", "-K", "3",
                           "-R", "200"]),
    ("stationarity_par12.txt", ["stationarity", f"{FIXTURES}/par12.yaml"]),
    ("stationarity_par24.txt", ["stationarity", f"{FIXTURES}/par24.yaml"]),
    ("stationarity_par14.txt", ["stationarity", f"{FIXTURES}/par14_09.yaml"]),
    ("simulate_parma11x2.txt", ["simulate", f"{FIXTURES}/parma11x2.yaml",
                                "-n", "6", "--seed", "42"]),
    ("simulate_multi.txt", ["simulate", f"{FIXTURES}/par12.yaml", "-n", "3",
                            "--paths", "2", "--seed", "1"]),
]


def seeded_commands(rng) -> list[tuple[list[str], int]]:
    """Commands without a golden, with seeded arguments, and their exit codes."""
    return [
        (["validate", f"{FIXTURES}/bad_variance.yaml"], 1),
        (["validate", f"{FIXTURES}/unknown_key.yaml"], 2),
        (["forecast", f"{FIXTURES}/parma11x2.yaml", "--series",
          f"{FIXTURES}/series12.csv", "-H", str(rng.integers(2, 13)),
          "--innovations", f"{rng.uniform(-1, 1):.3f}"], 0),
        (["moments", f"{FIXTURES}/par24.yaml", "-K", str(rng.integers(1, 5))], 0),
        (["greens", f"{FIXTURES}/par24.yaml", "-H", str(rng.integers(6, 25))], 0),
        (["simulate", f"{FIXTURES}/par14_09.yaml", "-n", str(rng.integers(100, 400)),
          "--seed", str(rng.integers(0, 10_000))], 0),
    ]


def cli_main(argv) -> tuple[int, str, str]:
    """``parma.cli.main`` in this process, with stdout and stderr captured."""
    import parma.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = parma.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class CliFixtures(Workload):
    """One fresh ``parma`` process per operation, every subcommand but ``bench``.

    Interpreter start, imports, YAML and CSV are most of a command's time, and
    only this workload pays them per operation; the others pay them once, in
    set-up.  A cycle holds the ten commands with golden files and six with
    seeded arguments or failing exit codes, in seeded order.  Each command's
    output is checked byte for byte against its golden file, or, without
    one, against the same command run in this process.
    """

    name = "cli-fixtures"

    def __init__(self, seed: int, tiny: bool = False):
        rng = inputs.generator(seed, self.name)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        commands = [(argv, (ROOT / "tests" / "golden" / golden).read_text("utf-8"), 0)
                    for golden, argv in GOLDEN_COMMANDS]
        commands += [(argv, None, code) for argv, code in seeded_commands(rng)]
        commands = [commands[i] for i in rng.permutation(len(commands))]
        self.commands = commands[:3] if tiny else commands
        self.reference = {}

    def process(self, argv) -> tuple[int, str, str]:
        """One fresh ``parma`` process: exit code, stdout, stderr."""
        done = subprocess.run([sys.executable, "-m", "parma.cli", *argv],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def warm_up(self) -> None:
        # Each command runs in a child process, but the speed probe that
        # scales its latency runs in this one.  On a shared host the two
        # cores change speed independently, so keep this process and its
        # children (which inherit the mask) on one core, the probe's.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        for argv, golden, _ in self.commands:
            if golden is None:
                self.reference[tuple(argv)] = cli_main(argv)[1]
        self.process(self.commands[0][0])

    def expect(self, argv, golden, code):
        want = golden if golden is not None else self.reference[tuple(argv)]
        command = f"{argv[0]} {Path(argv[1]).name}"

        def check(result, state):
            got_code, out, err = result
            if got_code != code:
                return f"{command}: exit {got_code}, expected {code}: {err.strip()[:120]}"
            if code == 0 and out != want:
                kind = "golden" if golden is not None else "in-process output"
                return f"{command}: stdout differs from the {kind}"
            if code != 0 and (out or not err):
                return f"{command}: a failing command must write stderr only"
            return None
        return check

    def cycle(self) -> list[list[Op]]:
        return [[Op(f"cli.{argv[0]}", lambda st, argv=argv: self.process(argv),
                    self.expect(argv, golden, code))
                 for argv, golden, code in self.commands]]

    def trace_cycle(self) -> list[list[Op]]:
        """The same commands through ``parma.cli.main`` in this process."""
        return [[Op(f"cli.main.{argv[0]}", lambda st, argv=argv: cli_main(argv),
                    self.expect(argv, golden, code))
                 for argv, golden, code in self.commands]]

    def layer_extras(self, records) -> dict[str, float]:
        """Split a command's wall: interpreter start, imports, ``main``."""
        bare = [_wall([sys.executable, "-c", "pass"], self.env) for _ in range(5)]
        probe = ("import time; t = time.perf_counter(); import parma.cli; "
                 "print(time.perf_counter() - t)")
        imports = []
        for _ in range(5):
            done = subprocess.run([sys.executable, "-c", probe], env=self.env,
                                  capture_output=True, text=True, timeout=120,
                                  check=True)
            imports.append(float(done.stdout))
        walls, stdout_bytes = [], 0
        for argv, _, _ in self.commands:
            t0 = perf_counter()
            _, out, _ = self.process(argv)
            walls.append(perf_counter() - t0)
            stdout_bytes += len(out.encode())
        return {
            "cli.interpreter_s": float(np.median(bare)),
            "cli.import_s": float(np.median(imports)),
            "cli.process_s": float(np.mean(walls)),
            "cli.main_s": float(np.mean([r.latency for r in records])),
            "cli.stdout_bytes": stdout_bytes,
        }


def _wall(argv, env) -> float:
    t0 = perf_counter()
    subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
    return perf_counter() - t0


WORKLOADS = {w.name: w for w in (DailyForecast, MomentsMix, MonteCarlo, CliFixtures)}
