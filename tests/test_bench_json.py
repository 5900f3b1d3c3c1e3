"""tools/bench_json.py on canned perfbench output; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"
_SPEC = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_json)

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
