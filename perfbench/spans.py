"""Span recorder that wraps parma's public functions from outside the library.

While installed, every listed function is replaced by a wrapper under each
``parma`` / ``parma.*`` module attribute that names it, so calls made inside
the library (``predict`` -> ``green_coefficients``) go through the wrapper
too and become child spans.  Spans are kept in memory; ``write`` dumps them
at the end and ``layer_metrics`` derives self times and counters from them.
Nothing here runs unless a benchmark run asks for a trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kernel_info(args, kwargs, table):
    # the span keeps the model alive, so its id stays unique until the
    # metrics are derived
    return (_arg(args, kwargs, 0, "model"), table.anchor_season,
            table.max_lag, table.p)


def _convergence_info(args, kwargs, diag):
    model = _arg(args, kwargs, 0, "model")
    return model.l * diag.probe_lag if model.p else 0


def _companion_info(args, kwargs, verdict):
    vs = _arg(args, kwargs, 0, "vs")
    return vs.model.l * vs.ar_order


def _simulate_info(args, kwargs, paths):
    plan = _arg(args, kwargs, 0, "plan")
    return plan.n_paths, plan.length


def _mc_info(args, kwargs, rows):
    return _arg(args, kwargs, 3, "n_paths") * _arg(args, kwargs, 2, "max_horizon")


def _result(args, kwargs, value):
    return value


def _length(args, kwargs, value):
    return len(value)


def _horizons(args, kwargs, report):
    return len(report.points)


#: (module, function, info).  ``info(args, kwargs, result)`` turns a call
#: into the counter its layer metrics need; it runs after the call returns.
WRAPPED = [
    ("parma.model", "validate", None),
    ("parma.greens", "green_coefficients", _kernel_info),
    ("parma.greens", "season_tables", None),
    ("parma.greens", "error_weights", None),
    ("parma.greens", "known_innovation_weights", None),
    ("parma.forecast", "predict", _horizons),
    ("parma.forecast", "mse_profile", _length),
    ("parma.solution", "general_solution", None),
    ("parma.moments", "check_convergence", _convergence_info),
    ("parma.moments", "default_truncation", _result),
    ("parma.moments", "moment_profile", None),
    ("parma.vsform", "stationarity", _companion_info),
    ("parma.sim", "simulate", _simulate_info),
    # private, but the only place the resolved burn-in length is visible
    ("parma.sim", "_resolve_burn_in", _result),
    ("parma.sim", "replay", None),
    ("parma.sim", "mc_forecast_experiment", _mc_info),
    ("parma.modelio", "load_model", None),
    ("parma.modelio", "load_series", None),
    ("parma.modelio", "dump_path", None),
    ("parma.cli", "main", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "error")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info = None
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call while installed (see :meth:`install`)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        #: wrappers record only while this is set (during an operation, not
        #: during its check)
        self.recording = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = Span(name, perf_counter(), stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Swap every listed function for its wrapper in all parma modules."""
        for module_name, attr, _ in WRAPPED:
            importlib.import_module(module_name)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "parma" or name.startswith("parma."))]
        for module_name, attr, info in WRAPPED:
            fn = getattr(sys.modules[module_name], attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{module_name[len('parma.'):]}.{attr}", fn, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, op, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op,
                                     s.error]) + "\n")


def _lag_terms(max_lag: int, p: int) -> int:
    """Multiply-adds of the recurrence: sum over k=1..max_lag of min(p, k)."""
    head = min(p, max_lag)
    return head * (head + 1) // 2 + max(max_lag - p, 0) * p


#: per-layer metric -> (unit, better); the names BENCHMARK.json lists.
LAYER_METRICS = {
    "greens.kernel.calls": ("count", "lower"),
    "greens.kernel.self_s": ("s", "lower"),
    "greens.kernel.lag_terms": ("count", "lower"),
    "greens.kernel.unique_share": ("ratio", "higher"),
    "greens.weights.calls": ("count", "lower"),
    "greens.weights.self_s": ("s", "lower"),
    "forecast.predict.calls": ("count", "lower"),
    "forecast.predict.self_s": ("s", "lower"),
    "forecast.mse_profile.self_s": ("s", "lower"),
    "forecast.horizons": ("count", "higher"),
    "solution.general_solution.calls": ("count", "lower"),
    "solution.general_solution.self_s": ("s", "lower"),
    "moments.check_convergence.calls": ("count", "lower"),
    "moments.check_convergence.self_s": ("s", "lower"),
    "moments.check_convergence.table_lags": ("count", "lower"),
    "moments.default_truncation.self_s": ("s", "lower"),
    "moments.truncation_lags": ("count", "lower"),
    "moments.moment_profile.self_s": ("s", "lower"),
    "moments.not_convergent": ("count", "lower"),
    "vsform.stationarity.calls": ("count", "lower"),
    "vsform.stationarity.self_s": ("s", "lower"),
    "vsform.companion_dim": ("count", "lower"),
    "sim.simulate.self_s": ("s", "lower"),
    "sim.steps": ("count", "lower"),
    "sim.burn_in_share": ("ratio", "lower"),
    "sim.replay.self_s": ("s", "lower"),
    "sim.mc.self_s": ("s", "lower"),
    "sim.mc.path_steps": ("count", "higher"),
    "model.validate.calls": ("count", "lower"),
    "model.validate.self_s": ("s", "lower"),
    "model.validate.calls_per_op": ("calls/op", "lower"),
    "modelio.load_model.self_s": ("s", "lower"),
    "modelio.load_series.self_s": ("s", "lower"),
    "modelio.dump_path.self_s": ("s", "lower"),
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.process_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Every span-derived entry of :data:`LAYER_METRICS` (0 where unused)."""
    spans = tracer.spans
    own = tracer.self_times()
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1

    def infos(name):
        return [s.info for s in spans if s.name == name and s.info is not None]

    tables = infos("greens.green_coefficients")
    burn = {s.parent: s.info for s in spans
            if s.name == "sim._resolve_burn_in" and s.info is not None}
    steps = burn_steps = 0
    for i, s in enumerate(spans):
        if s.name == "sim.simulate" and s.info is not None:
            n_paths, length = s.info
            b = burn.get(i, 0)
            steps += n_paths * (b + length)
            burn_steps += n_paths * b
    not_convergent = sum(
        1 for s in spans
        if s.name.startswith("moments.") and s.error == "NotConvergentError"
        and (s.parent < 0 or not spans[s.parent].name.startswith("moments.")))
    companion = infos("vsform.stationarity")
    kernel_calls = calls.get("greens.green_coefficients", 0)
    validate_calls = calls.get("model.validate", 0)
    return {
        "greens.kernel.calls": kernel_calls,
        "greens.kernel.self_s": self_s.get("greens.green_coefficients", 0.0)
        + self_s.get("greens.season_tables", 0.0),
        "greens.kernel.lag_terms": sum(_lag_terms(k, p) for _, _, k, p in tables),
        "greens.kernel.unique_share":
            len({(id(m), s, k) for m, s, k, _ in tables}) / kernel_calls
            if kernel_calls else 0.0,
        "greens.weights.calls": calls.get("greens.error_weights", 0)
        + calls.get("greens.known_innovation_weights", 0),
        "greens.weights.self_s": self_s.get("greens.error_weights", 0.0)
        + self_s.get("greens.known_innovation_weights", 0.0),
        "forecast.predict.calls": calls.get("forecast.predict", 0),
        "forecast.predict.self_s": self_s.get("forecast.predict", 0.0),
        "forecast.mse_profile.self_s": self_s.get("forecast.mse_profile", 0.0),
        "forecast.horizons": sum(infos("forecast.predict"))
        + sum(infos("forecast.mse_profile")),
        "solution.general_solution.calls": calls.get("solution.general_solution", 0),
        "solution.general_solution.self_s":
            self_s.get("solution.general_solution", 0.0),
        "moments.check_convergence.calls": calls.get("moments.check_convergence", 0),
        "moments.check_convergence.self_s":
            self_s.get("moments.check_convergence", 0.0),
        "moments.check_convergence.table_lags":
            sum(infos("moments.check_convergence")),
        "moments.default_truncation.self_s":
            self_s.get("moments.default_truncation", 0.0),
        "moments.truncation_lags": sum(infos("moments.default_truncation")),
        "moments.moment_profile.self_s": self_s.get("moments.moment_profile", 0.0),
        "moments.not_convergent": not_convergent,
        "vsform.stationarity.calls": calls.get("vsform.stationarity", 0),
        "vsform.stationarity.self_s": self_s.get("vsform.stationarity", 0.0),
        "vsform.companion_dim": max(companion, default=0),
        "sim.simulate.self_s": self_s.get("sim.simulate", 0.0)
        + self_s.get("sim._resolve_burn_in", 0.0),
        "sim.steps": steps,
        "sim.burn_in_share": burn_steps / steps if steps else 0.0,
        "sim.replay.self_s": self_s.get("sim.replay", 0.0),
        "sim.mc.self_s": self_s.get("sim.mc_forecast_experiment", 0.0),
        "sim.mc.path_steps": sum(infos("sim.mc_forecast_experiment")),
        "model.validate.calls": validate_calls,
        "model.validate.self_s": self_s.get("model.validate", 0.0),
        "model.validate.calls_per_op": validate_calls / n_ops if n_ops else 0.0,
        "modelio.load_model.self_s": self_s.get("modelio.load_model", 0.0),
        "modelio.load_series.self_s": self_s.get("modelio.load_series", 0.0),
        "modelio.dump_path.self_s": self_s.get("modelio.dump_path", 0.0),
    }
