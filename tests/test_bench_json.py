"""tools/bench_json.py on canned perfbench output; no benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from dysonmpo import bench
from dysonmpo.bench import ErrorRecord

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"
_SPEC = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_SPEC)
# the script imports its neighbour tools/records_digest.py
sys.path.insert(0, str(_PATH.parent))
try:
    _SPEC.loader.exec_module(bench_json)
finally:
    sys.path.remove(str(_PATH.parent))

ENV = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2,
       "blas_threads": 1, "blas_threads_env": "1"}


def _metric(value, unit):
    return {"value": value, "unit": unit}


PLAIN = {"correct": True, "attempted": 120, "failed": 0, "metrics": {
    "order4_step_ms": _metric(8.34, "ms"), "passed_ratio": _metric(1.0, "ratio"),
    "peak_rss_mb": _metric(78.9, "MB"), "run_s": _metric(0.0823, "s"),
    "setup_s": _metric(0.0309, "s")}}
TRACED = {"correct": True, "attempted": 96, "failed": 0, "metrics": {
    "compression.s": _metric(0.0251, "s"), "mps.apply_s": _metric(0.0119, "s"),
    "trace.overhead": _metric(0.04, "ratio"), "trace.run_s": _metric(0.091, "s")}}


def _output(result, trace):
    """perfbench's standard output around the final `result` line."""
    lines = ["env " + json.dumps(ENV),
             "sweep plain 0.095 s, probe scale 0.980"]
    if trace:
        lines.append("sweep traced 0.104 s, probe scale 0.975")
    lines += ["run order=3 dt=0.125 eps=1.234568e-03 step_s=0.0040 "
              "mpo_bond=35 mps_bond=16", json.dumps(result)]
    return "\n".join(lines) + "\n"


def test_parse_output_reads_the_env_line_and_the_final_result():
    env, result = bench_json.parse_output(_output(PLAIN, 0))
    assert env == ENV and result == PLAIN


@pytest.mark.parametrize("text, message", [
    ("sweep plain 0.1 s\n" + json.dumps(PLAIN), "no env line"),
    ("env {}\nTraceback (most recent call last):", "does not end in a JSON"),
    ("env {}\n[1, 2]", "has no metrics"),
])
def test_parse_output_rejects_a_run_without_env_or_result(text, message):
    with pytest.raises(ValueError, match=message):
        bench_json.parse_output(text)


def test_measure_runs_every_workload_plain_and_traced():
    commands = []

    def runner(cmd):
        commands.append(cmd)
        trace = int(cmd[cmd.index("--trace") + 1])
        return _output(TRACED if trace else PLAIN, trace)

    env, workloads = bench_json.measure(runner)
    assert env == ENV
    assert [(c[3], c[-1]) for c in commands] == [
        (w, t) for w in ("tfi_sweep", "tfi_floquet16", "xxz_wide")
        for t in ("0", "1")]
    assert all(c[:2] == ["python3", "perfbench/run.py"]
               and c[4:8] == ["--seed", "5", "--seconds", "35"]
               for c in commands)
    entry = workloads["xxz_wide"]
    assert entry["correct"] and entry["attempted"] == 120
    assert entry["end_to_end"] == PLAIN["metrics"]
    # layer times are unscaled; the traced sweep time is probe-scaled
    assert entry["layers"]["compression.s"] == dict(
        TRACED["metrics"]["compression.s"], scaled=False)
    assert entry["layers"]["trace.run_s"]["scaled"] is True
    assert entry["layers"]["trace.overhead"]["scaled"] is True


def test_measure_rejects_runs_from_two_environments():
    outputs = iter([_output(PLAIN, 0),
                    _output(TRACED, 1).replace('"nproc": 2', '"nproc": 4')])
    with pytest.raises(ValueError, match="environment changed"):
        bench_json.measure(lambda cmd: next(outputs))


def test_a_failed_traced_run_marks_the_workload_incorrect():
    entry = bench_json.workload_entry(PLAIN, dict(TRACED, correct=False))
    assert entry["correct"] is False


def _record(order, dt, step_s, bracket_s=0.0, n_steps=4):
    # an error of exactly dt^order, so each fit passes through both runs
    return ErrorRecord("dyson", order, dt, dt ** order, step_s, 11, 16, 6,
                       bracket_s=bracket_s, n_steps=n_steps)


def test_time_to_accuracy_fits_as_perfbench_does():
    # a self-referenced sweep: the top order's finest run is the
    # reference, which leaves order 4 one run and so no fit
    workload = SimpleNamespace(orders=(2, 4), dts=(0.5, 0.25), t_final=3.0,
                               self_reference=True)
    records = [_record(2, 0.5, 0.01, bracket_s=0.06, n_steps=6),
               _record(2, 0.25, 0.02, n_steps=12),
               _record(4, 0.5, 0.03, n_steps=6),
               _record(4, 0.25, 0.04, n_steps=12)]
    times = bench_json.time_to_accuracy(bench, workload, records)
    # eps = dt^2 reaches 1e-6 at dt 1e-3: 3,000 steps over the span
    assert times["target_eps"] == 1e-6
    assert list(times["without_tables_s"]) == ["2"]
    assert times["without_tables_s"]["2"] == pytest.approx(
        3000 * (0.0 + 0.02) / 2, rel=1e-9)
    assert times["with_tables_s"]["2"] == pytest.approx(
        3000 * (0.01 + 0.02) / 2, rel=1e-9)
    json.dumps(times)


def test_time_to_accuracy_keeps_every_order_against_an_oracle():
    workload = SimpleNamespace(orders=(3, 4), dts=(0.125, 0.0625),
                               t_final=0.25, self_reference=False)
    records = [_record(order, dt, 0.001 * order, bracket_s=0.004)
               for order in (3, 4) for dt in (0.125, 0.0625)]
    times = bench_json.time_to_accuracy(bench, workload, records)
    assert list(times["without_tables_s"]) == ["3", "4"]
    for order in (3, 4):
        steps = 0.25 / 1e-6 ** (1 / order)
        assert times["without_tables_s"][str(order)] == pytest.approx(
            steps * 0.001 * (order - 1), rel=1e-9)
        assert times["with_tables_s"][str(order)] == pytest.approx(
            steps * 0.001 * order, rel=1e-9)


def test_median_records_take_each_timed_field_over_the_runs():
    runs = [[_record(3, 0.125, step, bracket_s=b), _record(4, 0.125, 2 * step)]
            for step, b in [(0.003, 0.2), (0.001, 0.1), (0.002, 0.3)]]
    low, high = bench_json.median_records(runs)
    assert (low.wall_time_per_step, low.bracket_s) == (0.002, 0.2)
    assert (high.wall_time_per_step, high.bracket_s) == (0.004, 0.0)
    assert (low.order, low.dt, low.epsilon) == (3, 0.125, 0.125 ** 3)
