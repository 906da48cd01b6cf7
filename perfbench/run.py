#!/usr/bin/env python3
"""Benchmark for the parma library and its command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload daily-forecast --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One closed-loop caller runs the workload's cycle of operations back to back
in this process (the ``cli-fixtures`` workload starts one ``parma`` process
per operation), whole cycle after whole cycle, for about ``--seconds``
seconds of operation time and at least ``MIN_CYCLES`` cycles.  Each
operation's latency is scaled to a reference host speed (see ``probe``)
and then taken as its median over the cycles.  Every output is checked
outside the timed window: the first cycle's against the oracles, later
cycles' against the first.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs the workload's one-off
blocks and one cycle untraced and once more under the span recorder of
``spans.py``, and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` counts each operation of the workload once,
however many cycles ran it, so it depends on the seed only; an operation is
``failed`` when any of its executions raised or failed its check.
``correct`` is false when an operation returned an output that fails its
check; an operation that raises counts in ``failed`` only.

The library is imported from ``src/`` next to this directory and from nowhere
else; without that tree the run exits with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("daily-forecast", "moments-mix", "monte-carlo", "cli-fixtures")
#: set-up is measured this many times per run (this process plus fresh ones)
SETUP_SAMPLES = 3
#: a run measures at least this many cycles, whatever ``--seconds`` says
MIN_CYCLES = 3
#: the speed probe's loop length, and the probe duration that every timing
#: is scaled to
PROBE_STEPS = 4000
REFERENCE_S = 1e-3


def probe() -> float:
    """Seconds a fixed pure-Python float recurrence takes: the host's speed now.

    On a shared host a core's speed can change by up to about 1.8x, for
    moments or for minutes (measured on a 2-core x86 virtual machine).  The
    library's operations are interpreter-bound and slow down by the same
    factor as this loop, so a latency times ``REFERENCE_S / probe()`` stays
    the same whichever speed the core runs at.
    """
    g = [1.0, 0.0, 0.0, 0.0]
    start = perf_counter()
    for _ in range(PROBE_STEPS):
        acc = 0.5 * g[0] + 0.3 * g[1] - 0.2 * g[2] + 0.1 * g[3]
        g = [acc * 0.9 + 1.0, g[0], g[1], g[2]]
    return perf_counter() - start


def probes(n: int = 5) -> float:
    return statistics.median(probe() for _ in range(n))


@dataclass
class Record:
    kind: str
    latency: float
    failure: str | None = None
    wrong: bool = False
    fingerprint: str | None = None
    #: mean of the speed probes just before and just after the operation
    probe: float | None = None

    @property
    def scaled(self) -> float:
        """Latency at the reference speed (a probe of ``REFERENCE_S``)."""
        return self.latency * REFERENCE_S / self.probe


def fingerprint(obj) -> str:
    """Digest of nested outputs or inputs, exact to the last bit of every float."""
    import numpy as np  # imported here so that set-up time includes numpy

    h = hashlib.sha1()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(x.dtype.str.encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, dict):
            feed(sorted(x.items(), key=lambda kv: repr(kv[0])))
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def run_block(block, records, tracer=None, fingerprints=False,
              reference=None, speed=False) -> float:
    """Run one block's operations, then check them; return the timed seconds.

    With ``reference``, the records of the same block run before, an output
    is checked by comparing its fingerprint with that record's, so repeated
    cycles cost the checks of the first one only.  With ``speed``, a speed
    probe runs before each operation and after the last, outside the timing.
    """
    state, done, speeds = {}, [], []
    for op in block:
        if speed:
            speeds.append(probe())
        if tracer is not None:
            tracer.op = len(records) + len(done)
            tracer.recording = True
        start = perf_counter()
        try:
            result, error = op.run(state), None
        except Exception as exc:  # a raising operation is a counted failure
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        state[op.kind] = result
        done.append((op, result, error, latency))
    if speed:
        speeds.append(probe())
    for i, (op, result, error, latency) in enumerate(done):
        wrong, digest = False, None
        if error is None:
            if fingerprints:
                digest = fingerprint(result)
            before = reference[i] if reference is not None else None
            if before is not None and before.failure is None:
                error = None if digest == before.fingerprint else \
                    "output differs from the same operation's in the first cycle"
            else:
                try:
                    error = op.check(result, state)
                except Exception as exc:  # a check that cannot run fails the op
                    error = f"check raised {type(exc).__name__}: {exc}"
            wrong = error is not None
        records.append(Record(op.kind, latency, error, wrong, digest,
                              (speeds[i] + speeds[i + 1]) / 2 if speed else None))
    return sum(latency for *_, latency in done)


def run_timed(workload, seconds: float):
    """The workload's one-off blocks, then whole cycles for about ``seconds``.

    Cycles repeat until the next one would pass ``seconds`` of operation
    time, and at least :data:`MIN_CYCLES` times.  Returns the one-off records,
    the cycle records (cycle after cycle, each in the same order) and the
    number of operations in a cycle.
    """
    once = []
    for block in workload.once():
        run_block(block, once, speed=True)
    blocks = workload.cycle()
    first, records, timed, n = None, [], 0.0, 0
    while n < MIN_CYCLES or timed * (n + 1) / n <= seconds:
        cycle = []
        for i, block in enumerate(blocks):
            start = len(records)
            timed += run_block(block, records, fingerprints=True,
                               reference=first[i] if first else None, speed=True)
            cycle.append(records[start:])
        first = first or cycle
        n += 1
    return once, records, sum(map(len, blocks))


def percentile_ms(values, q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)] * 1e3


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def op_latencies(records, per_cycle) -> tuple[list[float], list[bool]]:
    """Each cycle operation's median scaled latency over the cycles, and its verdict.

    Scaling by the speed probe takes out the host's speed; the median over
    the cycles takes out what is left of a sample caught mid-switch.  An
    operation is ok only when it succeeded in every cycle.
    """
    cycles = [records[i:i + per_cycle] for i in range(0, len(records), per_cycle)]
    typical = [statistics.median(r.scaled for r in runs) for runs in zip(*cycles)]
    ok = [all(r.failure is None for r in runs) for runs in zip(*cycles)]
    return typical, ok


def per_operation(records, per_cycle) -> list[Record]:
    """One record per operation of a cycle: its first failed execution, else its first."""
    cycles = [records[i:i + per_cycle] for i in range(0, len(records), per_cycle)]
    return [next((r for r in runs if r.failure is not None), runs[0])
            for runs in zip(*cycles)]


def end_to_end(records, per_cycle, setup) -> dict:
    typical, ok = op_latencies(records, per_cycle)
    cycle_s = sum(typical)
    # a failed operation ranks slowest: it counts as taking a whole cycle
    ranked = [t if good else cycle_s for t, good in zip(typical, ok)]
    return {
        "ops_per_s": (sum(ok) / cycle_s, "1/s"),
        "latency_p50_ms": (percentile_ms(ranked, 0.50), "ms"),
        "latency_p90_ms": (percentile_ms(ranked, 0.90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def fresh_setup_s(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def traced(workload, label):
    """Each block of one cycle untraced, then again under the span recorder.

    Returns the untraced records followed by the traced ones, the number of
    operations in each half, and the per-layer metrics.
    """
    import spans

    cycle = getattr(workload, "trace_cycle", workload.cycle)
    plain, traced_records = [], []
    t_plain = t_traced = 0.0
    tracer = spans.Tracer()
    for block in workload.once() + cycle():
        t_plain += run_block(block, plain, fingerprints=True)
        with tracer:
            t_traced += run_block(block, traced_records, tracer, fingerprints=True)
    for a, b in zip(plain, traced_records):
        if a.failure is None and b.failure is None and a.fingerprint != b.fingerprint:
            b.failure, b.wrong = "traced output differs from untraced", True
    metrics = {name: 0 for name in spans.LAYER_METRICS}
    metrics.update(spans.layer_metrics(tracer, len(traced_records)))
    if hasattr(workload, "layer_extras"):
        metrics.update(workload.layer_extras(plain))
    metrics["trace.overhead_share"] = t_traced / t_plain - 1.0
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{label}.jsonl")
    units = {name: (metrics[name], unit)
             for name, (unit, _) in spans.LAYER_METRICS.items()}
    return plain + traced_records, len(plain), units


def summarize(name, records, per_cycle, metrics, once=()) -> dict:
    """Print the run's outcome and metrics; return the result line's object.

    ``records`` holds whole cycles of ``per_cycle`` executions; each
    operation counts once in ``attempted`` and ``failed`` (see
    :func:`per_operation`), so the counts do not depend on how many cycles
    the host's speed allowed.
    """
    operations = list(once) + per_operation(records, per_cycle)
    records = list(once) + list(records)
    failed = [r for r in operations if r.failure is not None]
    correct = not any(r.wrong for r in records)
    print(f"{name}: {len(operations)} operations attempted "
          f"({len(records)} executions), {len(failed)} failed "
          f"(failed_share {len(failed) / len(operations):.4g}); output checks "
          f"{'passed' if correct else 'FAILED'}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<40} {value:>14.6g} {unit}")
    for r in once:
        print(f"  one-off {r.kind}: {r.latency:.3f} s ({r.scaled:.3f} s scaled), "
              "not in the timing metrics")
    probed = [r.probe for r in records if r.probe is not None]
    if probed:
        print(f"  speed probe: median {statistics.median(probed) * 1e3:.4g} ms; "
              f"timings are scaled to a {REFERENCE_S * 1e3:g} ms probe")
    for (kind, cause), n in Counter((r.kind, r.failure[:200]) for r in failed).items():
        print(f"  failed x{n} {kind}: {cause}")
    return {
        "correct": correct,
        "attempted": len(operations),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process; per-workload results, then a summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "parma" / "__init__.py"]
    if args.workload in ("cli-fixtures", "all"):
        needed += [ROOT / "tests" / "fixtures", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        sys.stderr.write(f"error: not a parma source tree, missing {', '.join(missing)}\n")
        return 2
    if args.workload == "all":
        return run_all(args)

    before = probes()
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import parma

    if Path(parma.__file__).resolve().parent != ROOT / "src" / "parma":
        sys.stderr.write(f"error: parma imported from {parma.__file__}, not src/\n")
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    workload.warm_up()
    setup = perf_counter() - start
    setup *= REFERENCE_S / ((before + probes()) / 2)
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0

    once = ()
    if args.trace:
        records, per_cycle, metrics = traced(workload,
                                             f"{args.workload}-seed{args.seed}")
    else:
        once, records, per_cycle = run_timed(workload, args.seconds)
        print(f"{len(records) // per_cycle} cycles of {per_cycle} operations; "
              f"the percentiles rank {per_cycle} per-operation medians")
        samples = [setup] + [fresh_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(records, per_cycle, samples)
    print(json.dumps(summarize(args.workload, records, per_cycle, metrics, once)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
