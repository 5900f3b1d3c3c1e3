"""Run the three perfbench workloads and record their metrics as JSON.

    python3 tools/bench_json.py BENCH_<n>.json [--label NAME] [--checkout DIR]

For each workload this runs, in a checkout, with one BLAS thread as
perfbench pins it:

    python3 perfbench/run.py --workload W --seed 5 --seconds 35 --trace 0
    python3 perfbench/run.py --workload W --seed 5 --seconds 35 --trace 1

The checkout this script lives in is measured under ``runs[NAME]`` of
the output file.  With ``--checkout DIR``, a second checkout (say, the
parent commit) is measured under ``runs["parent"]`` as well, and the two
alternate: `ROUNDS` rounds, each measuring the parent, then this
checkout (parent, change, parent, change, ...).  A speed phase of the
machine then shows as spread between the rounds of one label, not as a
difference between labels.  Runs under other names already in the file
are kept.

A label's entry holds its checkout's commit (with ``dirty`` true when
its tree differs from that commit), perfbench's ``env`` line (Python,
numpy and scipy versions, ``nproc``, BLAS threads), every round under
``rounds`` and, under ``workloads``, the median of each number over the
rounds (`summary`).  A round holds, per workload, the end-to-end metrics
of the ``--trace 0`` run and the per-layer metrics of the ``--trace 1``
run.  Each layer metric carries ``scaled``: perfbench scales the sweep
times by its speed probe (``run_s``, ``trace.run_s``), but reports the
layer times (``brackets.s``, ``compression.s``, ...) as the unscaled
seconds of one traced sweep, so the two do not add up.

Each workload of a round also gets ``runtime_at_accuracy``: the
checkout's ``bench.runtime_at_accuracy`` at ``eps = 1e-6`` per order,
without and with the time spent on bracket tables, fitted as perfbench
fits them (`time_to_accuracy`).  The records are those of
`ACCURACY_SWEEPS` calls of ``run_benchmark`` on the workload's sweep
(perfbench's config at seed 5), after one warm-up call, each timed field
the median of its calls (`median_records`): the times of one call spread
by 30-50% between calls on a 2-vCPU VM.  A sweep computes all its tables
at its top order in its first evolution, so the table time of each
(order, dt) comes from evolutions that compute their own tables at
their own order, ``evolve_state(..., cache=None)``, as many and as
summarised (`own_table_times`).  These are unscaled seconds, computed in
a process of their own per checkout and round, which imports that
checkout's library.
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
ROUNDS = 3
PARENT = "parent"   # the label of the --checkout runs


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


def time_to_accuracy(bench, workload, records, own_tables):
    """``bench.runtime_at_accuracy`` at `TARGET_EPS` of one sweep's
    records, per order, without and with table time.

    The fit is perfbench's: a self-referenced sweep's reference run (top
    order, finest step) is left out, and so is every order with fewer
    than two other runs.  Without table time, `runtime_at_accuracy`
    takes each step's time less its share of the record's `bracket_s`.
    With it, each record's step time is that plus its share of
    ``own_tables[(order, dt)]``, the seconds an evolution of that order
    and step takes to compute its own tables at its own order
    (`own_table_times`).  So a sweep's tables, which its first evolution
    computes at the top order, are charged to no order, and each order
    carries the tables it would compute alone.
    """
    reference = (max(workload.orders), min(workload.dts))
    runs = [r for r in records if not (workload.self_reference
                                       and (r.order, r.dt) == reference)]
    fit = [r for r in runs if sum(q.order == r.order for q in runs) > 1]
    with_tables = [dataclasses.replace(
        r, bracket_s=0.0, wall_time_per_step=r.wall_time_per_step
        + (own_tables[(r.order, r.dt)] - r.bracket_s) / r.n_steps)
        for r in fit]

    def per_order(rs):
        times = bench.runtime_at_accuracy(rs, TARGET_EPS,
                                          span=workload.t_final)
        return {str(order): times[order] for order in sorted(times)}

    return {"target_eps": TARGET_EPS, "without_tables_s": per_order(fit),
            "with_tables_s": per_order(with_tables)}


def median_records(sweeps):
    """The records of `sweeps`, runs of one sweep, each with the median
    over the runs of its `wall_time_per_step` and `bracket_s`, the timed
    fields `time_to_accuracy` reads."""
    return [dataclasses.replace(runs[0], **{
        name: statistics.median(getattr(r, name) for r in runs)
        for name in ("wall_time_per_step", "bracket_s")})
        for runs in zip(*sweeps)]


def own_table_times(bench, ham, config):
    """``{(order, dt): seconds}``: the `bracket_s` of an evolution of each
    (order, dt) of `config` that computes its own tables at its own
    order, ``evolve_state(..., cache=None)``; the median of
    `ACCURACY_SWEEPS` calls after a warm-up call, as `median_records`
    takes the sweeps."""
    psi0 = bench.initial_state(config, ham.d)
    out = {}
    for order in config.orders:
        for dt in config.dts:
            times = [bench.evolve_state(ham, psi0, config, order, dt)[1]
                     ["bracket_s"] for _ in range(ACCURACY_SWEEPS + 1)]
            out[(order, dt)] = statistics.median(times[1:])
    return out


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
        out[name] = time_to_accuracy(bench, w, median_records(sweeps[1:]),
                                     own_table_times(bench, ham, config))
    return out


def accuracy_process(checkout):
    """`accuracy` of `checkout`, computed in a new Python process, which
    imports that checkout's library and no other."""
    code = ("import json, sys, bench_json; from pathlib import Path; "
            "print(json.dumps(bench_json.accuracy(Path(sys.argv[1]))))")
    out = subprocess.run([sys.executable, "-c", code, str(checkout)],
                         cwd=Path(__file__).resolve().parent, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def checkout_runner(checkout):
    """A runner for `measure`: each command runs in `checkout`."""
    def runner(cmd):
        return subprocess.run(cmd, cwd=checkout, check=True,
                              capture_output=True, text=True).stdout
    return runner


def run_round(runner, times):
    """``(env, workloads)`` of one round of a checkout: its perfbench runs
    through `runner` (`measure`) and, per workload, its
    ``runtime_at_accuracy``, the value of `times` ``()``."""
    accuracy_times = times()
    env, workloads = measure(runner)
    for name, entry in workloads.items():
        entry["runtime_at_accuracy"] = accuracy_times[name]
    return env, workloads


def interleave(labels, one_round, rounds=ROUNDS):
    """``{label: [one_round(label) of each round]}``: the labels measured
    in their order, round after round."""
    out = {label: [] for label in labels}
    for _ in range(rounds):
        for label in labels:
            out[label].append(one_round(label))
    return out


def summary(values):
    """The median over rounds of every number of `values`, records of one
    structure: nested dicts are taken key by key (the keys all of them
    hold), a flag holds when it holds in every round, and any other value
    is the first round's."""
    first = values[0]
    if isinstance(first, bool):
        return all(values)
    if isinstance(first, (int, float)):
        return statistics.median(values)
    if isinstance(first, dict):
        return {key: summary([v[key] for v in values]) for key in first
                if all(key in v for v in values)}
    return first


def label_entry(rounds):
    """``runs[label]`` of one checkout, less its commit, from its ``(env,
    workloads)`` rounds.  Rounds in different environments raise
    `ValueError`."""
    envs = [env for env, _ in rounds]
    if any(env != envs[0] for env in envs):
        raise ValueError(f"environment changed between rounds: {envs}")
    workloads = [w for _, w in rounds]
    return {"command": " ".join(command("W", "0|1")), "env": envs[0],
            "rounds": workloads, "workloads": summary(workloads)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", help="the BENCH_<n>.json file to write")
    parser.add_argument("--label", default="change",
                        help="name of this checkout's runs in the file")
    parser.add_argument("--checkout",
                        help=f"a second source checkout, measured as "
                             f"{PARENT!r} in rounds alternating with this one")
    args = parser.parse_args(argv)
    if args.label == PARENT and args.checkout:
        parser.error(f"--label {PARENT!r} names the --checkout runs")
    checkouts = {args.label: Path(__file__).resolve().parent.parent}
    if args.checkout:
        checkouts = {PARENT: Path(args.checkout).resolve(), **checkouts}
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    rounds = interleave(checkouts, lambda label: run_round(
        checkout_runner(checkouts[label]),
        lambda: accuracy_process(checkouts[label])))
    for label, checkout in checkouts.items():
        record["runs"][label] = dict(
            label_entry(rounds[label]),
            commit=git(checkout, "rev-parse", "HEAD").strip(),
            dirty=bool(git(checkout, "status", "--porcelain").strip()))
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote runs {sorted(checkouts)} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
