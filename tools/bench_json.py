"""Run the three perfbench workloads and record their metrics as JSON.

    python3 tools/bench_json.py BENCH_<n>.json [--label NAME] [--checkout DIR]

For each workload this runs, in the checkout (by default the one this
script lives in), with one BLAS thread as perfbench pins it:

    python3 perfbench/run.py --workload W --seed 5 --seconds 35 --trace 0
    python3 perfbench/run.py --workload W --seed 5 --seconds 35 --trace 1

and stores under ``runs[NAME]`` of the output file the checkout's commit
(with ``dirty`` true when its tree differs from that commit), perfbench's
``env`` line (Python, numpy and scipy versions, ``nproc``, BLAS threads)
and, per workload, the end-to-end metrics of the ``--trace 0`` run and
the per-layer metrics of the ``--trace 1`` run.  Each layer metric
carries ``scaled``: perfbench scales the sweep times by its speed probe
(``run_s``, ``trace.run_s``), but reports the layer times (``brackets.s``,
``compression.s``, ...) as the unscaled seconds of one traced sweep, so
the two do not add up.  Runs under other names already in the file are
kept, so one file can hold, say, a parent commit's runs and a change's.

Each workload also gets ``runtime_at_accuracy``: the checkout's
``bench.runtime_at_accuracy`` at ``eps = 1e-6`` per order, without and
with the time spent on bracket tables, fitted as perfbench fits them
(`time_to_accuracy`).  The records are those of `ACCURACY_SWEEPS` calls
of ``run_benchmark`` on the workload's sweep (perfbench's config at seed
5), after one warm-up call, each timed field the median of its calls
(`median_records`): the times of one call spread by 30-50% between calls
on a 2-vCPU VM.  These are unscaled seconds.
"""

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
from pathlib import Path

import records_digest

WORKLOADS = ("tfi_sweep", "tfi_floquet16", "xxz_wide")
SEED = 5
SECONDS = 35
# the per-layer metrics perfbench derives from probe-scaled sweep times
SCALED_LAYER_METRICS = {"trace.run_s", "trace.overhead"}
TARGET_EPS = 1e-6
ACCURACY_SWEEPS = 5


def command(workload, trace, seed=SEED, seconds=SECONDS):
    """The perfbench command line of one run."""
    return ["python3", "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]


def parse_output(text):
    """``(env, result)`` of one perfbench run's standard output.

    `env` is the object of its ``env`` line, `result` the JSON object of
    its last line.  Output without either raises `ValueError`.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    envs = [line[len("env "):] for line in lines if line.startswith("env ")]
    if not envs:
        raise ValueError("perfbench output has no env line")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ValueError(f"perfbench output does not end in a JSON "
                         f"object: {lines[-1]!r}") from None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("perfbench's last line has no metrics")
    return json.loads(envs[0]), result


def workload_entry(plain, traced):
    """The record of one workload from the results of its ``--trace 0``
    run (`plain`) and its ``--trace 1`` run (`traced`)."""
    layers = {name: dict(metric, scaled=name in SCALED_LAYER_METRICS)
              for name, metric in traced["metrics"].items()}
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "end_to_end": plain["metrics"],
        "layers": layers,
    }


def git(checkout, *args):
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout


def measure(runner):
    """``(env, workloads)``: perfbench's environment and each workload's
    record (`workload_entry`).

    `runner` maps a perfbench command line to its standard output.  Runs
    whose env lines differ raise `ValueError`: one record holds one
    environment.
    """
    env, workloads = None, {}
    for workload in WORKLOADS:
        results = []
        for trace in (0, 1):
            run_env, result = parse_output(runner(command(workload, trace)))
            if env is not None and run_env != env:
                raise ValueError(f"environment changed between runs: "
                                 f"{env} then {run_env}")
            env = run_env
            results.append(result)
        workloads[workload] = workload_entry(*results)
    return env, workloads


def time_to_accuracy(bench, workload, records):
    """``bench.runtime_at_accuracy`` at `TARGET_EPS` of one sweep's
    records, per order, without and with table time.

    The fit is perfbench's: a self-referenced sweep's reference run (top
    order, finest step) is left out, and so is every order with fewer
    than two other runs.  `runtime_at_accuracy` takes each step's time
    less its share of `bracket_s`; with table time, the records are
    read with `bracket_s` 0.  A sweep computes all its tables in its
    first evolution, so their time falls on the first order.
    """
    reference = (max(workload.orders), min(workload.dts))
    runs = [r for r in records if not (workload.self_reference
                                       and (r.order, r.dt) == reference)]
    fit = [r for r in runs if sum(q.order == r.order for q in runs) > 1]

    def per_order(rs):
        times = bench.runtime_at_accuracy(rs, TARGET_EPS,
                                          span=workload.t_final)
        return {str(order): times[order] for order in sorted(times)}

    return {"target_eps": TARGET_EPS, "without_tables_s": per_order(fit),
            "with_tables_s": per_order([dataclasses.replace(r, bracket_s=0.0)
                                        for r in fit])}


def median_records(sweeps):
    """The records of `sweeps`, runs of one sweep, each with the median
    over the runs of its `wall_time_per_step` and `bracket_s`, the timed
    fields `time_to_accuracy` reads."""
    return [dataclasses.replace(runs[0], **{
        name: statistics.median(getattr(r, name) for r in runs)
        for name in ("wall_time_per_step", "bracket_s")})
        for runs in zip(*sweeps)]


def accuracy(checkout):
    """`time_to_accuracy` per workload, from the library of `checkout`,
    with one BLAS thread as perfbench pins it."""
    bench, modelfile = records_digest.library(checkout)
    out = {}
    for name, w in records_digest.workloads(checkout).items():
        if name not in WORKLOADS:
            continue
        ham = modelfile.load(str(checkout / w.model))
        # perfbench's config seed: its --seed plus one
        config = records_digest.config(bench, w, SEED + 1)
        sweeps = [bench.run_benchmark(ham, config)
                  for _ in range(ACCURACY_SWEEPS + 1)]
        out[name] = time_to_accuracy(bench, w, median_records(sweeps[1:]))
    return out


def run_set(checkout):
    """``runs[NAME]`` of one checkout: its commit, env and workloads."""
    def runner(cmd):
        return subprocess.run(cmd, cwd=checkout, check=True,
                              capture_output=True, text=True).stdout

    times = accuracy(checkout)
    env, workloads = measure(runner)
    for name, entry in workloads.items():
        entry["runtime_at_accuracy"] = times[name]
    return {"commit": git(checkout, "rev-parse", "HEAD").strip(),
            "dirty": bool(git(checkout, "status", "--porcelain").strip()),
            "command": " ".join(command("W", "0|1")),
            "env": env, "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", help="the BENCH_<n>.json file to write")
    parser.add_argument("--label", default="change",
                        help="name of this run set in the file")
    parser.add_argument("--checkout", default=str(Path(__file__).resolve()
                                                  .parent.parent),
                        help="source checkout to benchmark")
    args = parser.parse_args(argv)
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    record["runs"][args.label] = run_set(Path(args.checkout).resolve())
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote runs[{args.label!r}] to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
