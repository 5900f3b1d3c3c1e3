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
    own = {(2, 0.5): 0.012, (2, 0.25): 0.024, (4, 0.5): 0.03,
           (4, 0.25): 0.06}
    times = bench_json.time_to_accuracy(bench, workload, records, own)
    # eps = dt^2 reaches 1e-6 at dt 1e-3: 3,000 steps over the span
    assert times["target_eps"] == 1e-6
    assert list(times["without_tables_s"]) == ["2"]
    assert list(times["with_tables_s"]) == ["2"]
    assert times["without_tables_s"]["2"] == pytest.approx(
        3000 * (0.0 + 0.02) / 2, rel=1e-9)
    # each run carries its own tables, 0.002 s a step at either dt
    assert times["with_tables_s"]["2"] == pytest.approx(
        3000 * (0.002 + 0.022) / 2, rel=1e-9)
    json.dumps(times)


def test_time_to_accuracy_keeps_every_order_against_an_oracle():
    # the sweep's tables all fall on the first record, at order 3; with
    # table time each order carries only the tables it computes alone
    workload = SimpleNamespace(orders=(3, 4), dts=(0.125, 0.0625),
                               t_final=0.25, self_reference=False)
    records = [_record(order, dt, 0.001 * order,
                       bracket_s=0.004 if (order, dt) == (3, 0.125) else 0.0)
               for order in (3, 4) for dt in (0.125, 0.0625)]
    own = {(order, dt): 0.0008 * order for order in (3, 4)
           for dt in (0.125, 0.0625)}
    times = bench_json.time_to_accuracy(bench, workload, records, own)
    assert list(times["without_tables_s"]) == ["3", "4"]
    for order in (3, 4):
        steps = 0.25 / 1e-6 ** (1 / order)
        step_s = 0.001 * order - (0.0005 if order == 3 else 0.0)
        assert times["without_tables_s"][str(order)] == pytest.approx(
            steps * step_s, rel=1e-9)
        assert times["with_tables_s"][str(order)] == pytest.approx(
            steps * (step_s + 0.0002 * order), rel=1e-9)
    assert times["with_tables_s"]["4"] > times["without_tables_s"]["4"]


def test_median_records_take_each_timed_field_over_the_runs():
    runs = [[_record(3, 0.125, step, bracket_s=b), _record(4, 0.125, 2 * step)]
            for step, b in [(0.003, 0.2), (0.001, 0.1), (0.002, 0.3)]]
    low, high = bench_json.median_records(runs)
    assert (low.wall_time_per_step, low.bracket_s) == (0.002, 0.2)
    assert (high.wall_time_per_step, high.bracket_s) == (0.004, 0.0)
    assert (low.order, low.dt, low.epsilon) == (3, 0.125, 0.125 ** 3)


def test_own_table_times_evolve_each_pair_with_its_own_tables():
    calls = []

    def evolve_state(ham, psi, config, order, dt, cache=None):
        calls.append((order, dt, cache))
        return psi, {"bracket_s": 0.001 * order * len(calls)}

    fake = SimpleNamespace(initial_state=lambda config, d: "psi0",
                           evolve_state=evolve_state)
    config = SimpleNamespace(orders=(1, 4), dts=(0.5, 0.25))
    times = bench_json.own_table_times(fake, SimpleNamespace(d=2), config)
    runs = bench_json.ACCURACY_SWEEPS + 1
    assert len(calls) == 4 * runs
    assert all(cache is None for _, _, cache in calls)
    assert [c[:2] for c in calls[::runs]] == [(1, 0.5), (1, 0.25),
                                              (4, 0.5), (4, 0.25)]
    # the median of the calls after the warm-up
    assert times[(4, 0.25)] == pytest.approx(0.004 * (3 * runs + 4))
    assert set(times) == {(1, 0.5), (1, 0.25), (4, 0.5), (4, 0.25)}


def _round_runner(speed):
    """A fake perfbench: `speed` scales every time it reports."""
    def runner(cmd):
        trace = int(cmd[cmd.index("--trace") + 1])
        result = json.loads(json.dumps(TRACED if trace else PLAIN))
        for metric in result["metrics"].values():
            metric["value"] *= speed
        return _output(result, trace)
    return runner


def test_rounds_alternate_the_labels_and_keep_every_round():
    order = []
    speeds = iter([1.0, 1.2, 1.5, 0.9, 1.1, 1.3])
    accuracy = {w: {"target_eps": 1e-6, "with_tables_s": {"4": 0.02},
                    "without_tables_s": {"4": 0.01}}
                for w in bench_json.WORKLOADS}

    def one_round(label):
        order.append(label)
        return bench_json.run_round(_round_runner(next(speeds)),
                                    lambda: accuracy)

    rounds = bench_json.interleave(["parent", "change"], one_round)
    assert bench_json.ROUNDS >= 3
    assert order == ["parent", "change"] * bench_json.ROUNDS
    entry = bench_json.label_entry(rounds["change"])
    assert len(entry["rounds"]) == bench_json.ROUNDS
    run_s = [r["xxz_wide"]["end_to_end"]["run_s"]["value"]
             for r in entry["rounds"]]
    assert run_s == pytest.approx([0.0823 * k for k in (1.2, 0.9, 1.3)])
    summary = entry["workloads"]["xxz_wide"]
    assert summary["end_to_end"]["run_s"] == {"value": pytest.approx(
        0.0823 * 1.2), "unit": "s"}
    assert summary["layers"]["trace.run_s"]["scaled"] is True
    assert summary["correct"] is True
    assert summary["runtime_at_accuracy"] == accuracy["xxz_wide"]
    assert entry["env"] == ENV
    json.dumps(entry)


def test_rounds_in_two_environments_are_refused():
    rounds = [(ENV, {}), (dict(ENV, nproc=4), {})]
    with pytest.raises(ValueError, match="environment changed"):
        bench_json.label_entry(rounds)


def test_summary_takes_the_median_of_every_number():
    rounds = [{"a": {"value": 3.0, "unit": "s"}, "ok": True, "n": 4},
              {"a": {"value": 1.0, "unit": "s"}, "ok": False, "n": 6},
              {"a": {"value": 2.0, "unit": "s"}, "ok": True, "n": 5,
               "extra": 1}]
    assert bench_json.summary(rounds) == {
        "a": {"value": 2.0, "unit": "s"}, "ok": False, "n": 5}
