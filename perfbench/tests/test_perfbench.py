"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", run.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(name, trace):
    done = bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    listed = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}


def test_all_runs_every_workload():
    done = bench("--workload", "all", "--seed", "3", "--seconds", "0.5", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert {m.split(".", 1)[0] for m in result["metrics"]} == set(run.NAMES)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert set(workloads.WORKLOADS) == set(run.NAMES)
    assert {m["name"] for m in SPEC["per_layer"]} == set(spans.LAYER_METRICS)


def test_refuses_a_tree_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "daily-forecast",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def inputs_digest(workload):
    return run.fingerprint(vars(workload))


@pytest.mark.parametrize("name", run.NAMES)
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name]
    first, again, other = make(5, tiny=True), make(5, tiny=True), make(6, tiny=True)
    assert inputs_digest(first) == inputs_digest(again)
    assert inputs_digest(first) != inputs_digest(other)


def traced_pair(workload):
    cycle = getattr(workload, "trace_cycle", workload.cycle)
    plain, traced = [], []
    tracer = spans.Tracer()
    for block in workload.once() + cycle():
        run.run_block(block, plain, fingerprints=True)
        with tracer:
            run.run_block(block, traced, tracer, fingerprints=True)
    return plain, traced, tracer


@pytest.mark.parametrize("name", run.NAMES)
def test_tracing_leaves_outputs_unchanged(name):
    workload = workloads.WORKLOADS[name](4, tiny=True)
    workload.warm_up()
    plain, traced, tracer = traced_pair(workload)
    assert all(r.failure is None for r in plain + traced)
    assert [r.fingerprint for r in plain] == [r.fingerprint for r in traced]
    assert tracer.spans, "the tracer saw no call"
    import parma
    assert not hasattr(parma.predict, "__wrapped__"), "wrappers left installed"


@pytest.mark.parametrize("name", ["daily-forecast", "moments-mix", "monte-carlo"])
def test_self_times_fit_in_the_operation(name):
    workload = workloads.WORKLOADS[name](4, tiny=True)
    workload.warm_up()
    _, traced, tracer = traced_pair(workload)
    own = tracer.self_times()
    assert min(own) >= -1e-9
    per_op = {}
    for span, t in zip(tracer.spans, own):
        per_op[span.op] = per_op.get(span.op, 0.0) + t
    for op, total in per_op.items():
        assert total <= traced[op].latency + 1e-9


def test_lag_terms_count_multiply_adds():
    assert spans._lag_terms(0, 4) == 0
    assert spans._lag_terms(3, 4) == 1 + 2 + 3
    assert spans._lag_terms(10, 4) == 1 + 2 + 3 + 4 * 7
    assert spans._lag_terms(10, 0) == 0


def test_latency_is_scaled_by_the_speed_probe():
    slow = run.Record("a", 0.2, probe=2 * run.REFERENCE_S)
    assert slow.scaled == pytest.approx(0.1)
    assert 0 < run.probe() < 1


def test_percentile_is_nearest_rank():
    values = [i / 1e3 for i in range(1, 101)]
    assert run.percentile_ms(values, 0.5) == pytest.approx(50.0)
    assert run.percentile_ms(values, 0.9) == pytest.approx(90.0)
    assert run.percentile_ms([0.002], 0.9) == pytest.approx(2.0)


def test_latency_is_each_operations_median_over_cycles():
    def R(kind, latency, failure=None):
        return run.Record(kind, latency, failure, probe=run.REFERENCE_S)

    records = [R("a", 1.0), R("b", 5.0),
               R("a", 3.0), R("b", 4.0, "raised ValueError"),
               R("a", 2.0), R("b", 6.0)]
    typical, ok = run.op_latencies(records, 2)
    assert typical == [2.0, 5.0]
    assert ok == [True, False]
    metrics = run.end_to_end(records, 2, [0.5])
    assert metrics["ops_per_s"][0] == pytest.approx(1 / 7.0)
    assert metrics["latency_p50_ms"][0] == pytest.approx(2000.0)
    # the failed operation ranks slowest, as taking a whole cycle
    assert metrics["latency_p90_ms"][0] == pytest.approx(7000.0)


class Steps(workloads.Workload):
    """One operation per cycle; its output changes on call ``change_at``."""

    def __init__(self, change_at=None):
        self.calls, self.change_at = 0, change_at

    def step(self, state):
        self.calls += 1
        return 2 if self.calls == self.change_at else 1

    def cycle(self):
        return [[workloads.Op("step", self.step,
                              lambda result, state: None if result == 1 else "wrong")]]


def test_runs_whole_cycles_and_checks_later_ones_against_the_first():
    once, records, per_cycle = run.run_timed(Steps(), 0.0)
    assert once == [] and per_cycle == 1
    assert len(records) == run.MIN_CYCLES
    assert all(r.failure is None for r in records)
    _, records, _ = run.run_timed(Steps(change_at=2), 0.0)
    assert [r.failure is None for r in records] == \
        [True, False] + [True] * (run.MIN_CYCLES - 2)
    assert records[1].wrong and "first cycle" in records[1].failure


def test_attempted_counts_each_operation_once():
    once, records, per_cycle = run.run_timed(Steps(change_at=2), 0.0)
    metrics = run.end_to_end(records, per_cycle, [0.5])
    result = run.summarize("steps", records, per_cycle, metrics, once)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["correct"] is False
    longer = records + records[-per_cycle:]
    assert run.summarize("steps", longer, per_cycle, metrics)["attempted"] == 1


@pytest.mark.parametrize("name", run.NAMES)
def test_attempted_does_not_depend_on_the_run_length(name):
    def attempted(seconds):
        done = bench("--workload", name, "--seed", "3", "--seconds", seconds,
                     "--trace", "0", "--tiny")
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])["attempted"]

    assert attempted("0") == attempted("2")
