"""Benchmark of the dysonmpo step pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The workload's error sweep goes through the public
``dysonmpo.bench.run_benchmark`` path again and again for ``--seconds``
seconds.  With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` untraced and
traced sweeps alternate and the object holds the per-layer metrics.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TARGET_EPS = 1e-6
PROBE_S = 0.1  # scaled times read as if each speed probe took this long


@dataclass(frozen=True)
class Workload:
    model: str
    n_sites: int
    orders: tuple
    dts: tuple
    t_final: float
    d_max: int
    self_reference: bool
    oracle_substeps: int   # RK4 steps over [0, t_final]; unused with self_reference
    setup_repeats: int
    eps_o4_bound: float    # largest accepted order-4 error


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    "tfi_sweep": Workload(
        model="demos/models/modulated_tfi.model", n_sites=8,
        orders=(1, 2, 3, 4), dts=(0.25, 0.125, 0.0625), t_final=0.25,
        d_max=16, self_reference=False, oracle_substeps=1000,
        setup_repeats=5, eps_o4_bound=1e-3),
    "tfi_floquet16": Workload(
        model="demos/models/modulated_tfi.model", n_sites=16,
        orders=(2, 4), dts=(0.5, 0.25), t_final=3.0,
        d_max=32, self_reference=True, oracle_substeps=0,
        setup_repeats=10, eps_o4_bound=1e-1),
    "xxz_wide": Workload(
        model="demos/models/modulated_xxz.model", n_sites=8,
        orders=(3, 4), dts=(0.125, 0.0625), t_final=0.25,
        d_max=16, self_reference=False, oracle_substeps=1000,
        setup_repeats=5, eps_o4_bound=5e-2),
}


def environment(np, scipy):
    """Versions, cores and the BLAS thread count the runs used."""
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = int(fn())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": threads,
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


class SpeedProbe:
    """A fixed piece of numpy work, timed between measured intervals.

    A shared machine can change speed under the benchmark: a 2-vCPU
    Xeon virtual machine switched between two speeds 1.7x apart, for
    10-60 s at a time.  The probe runs before and after each measured
    interval, and the interval is scaled by ``PROBE_S`` over the mean of
    those two probe times, so that runs compare across such switches.
    The probe mixes the two kinds of work in the pipeline: many tiny SVDs
    driven from Python, as in the bracket tables, and a complex SVD large
    enough to leave the L2 cache, as in apply_mpo.  It never calls the
    library, so a change to the library moves the scaled times in full.
    """

    def __init__(self, np, linalg):
        rng = np.random.default_rng(0)
        self.small = [rng.normal(size=(8, 48)) for _ in range(40)]
        self.large = rng.normal(size=(192, 384)) + 1j * rng.normal(size=(192, 384))
        self.svd = linalg.svd
        self.spent = 0.0

    def __call__(self):
        start = time.perf_counter()
        for _ in range(5):
            for m in self.small:
                self.svd(m, full_matrices=False, lapack_driver="gesvd")
        self.svd(self.large, full_matrices=False, lapack_driver="gesvd")
        seconds = time.perf_counter() - start
        self.spent += seconds
        return seconds

    def before(self, bench, probes):
        """Probe before each ``bench.evolve_state`` call, into `probes`.

        run_benchmark makes one call per (order, dt), in record order.
        """
        original = bench.evolve_state

        def probed(*args, **kwargs):
            probes.append(self())
            return original(*args, **kwargs)

        return mock.patch.object(bench, "evolve_state", probed)


def scales(probes):
    """Scale of each interval between consecutive probe times."""
    return [2 * PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]


@dataclass
class Sweep:
    seconds: float   # wall time of run_benchmark, probes left out
    records: list
    scales: list     # probe scale per record


class Runner:
    """One workload at one seed: set-up, then timed sweeps."""

    def __init__(self, workload, seed, bench, modelfile, np, probe):
        self.w = workload
        self.bench = bench
        self.modelfile = modelfile
        self.np = np
        self.probe = probe
        # bench.initial_state treats config seed 0 as all-up, an XXZ
        # eigenstate; seed + 1 always draws a random product state.
        self.config_seed = seed + 1
        self.span = workload.t_final
        self.reference = None

    def config(self):
        w = self.w
        return self.bench.EvolutionConfig(
            n_sites=w.n_sites, t0=0.0, t_final=w.t_final, method="dyson",
            d_max=w.d_max, oracle_substeps=w.oracle_substeps,
            self_reference=w.self_reference, seed=self.config_seed,
            orders=w.orders, dts=w.dts)

    def setup_once(self):
        """Model-file load, initial state and the RK4 reference if used."""
        ham = self.modelfile.load(str(ROOT / self.w.model))
        config = self.config()
        psi0 = self.bench.initial_state(config)
        reference = None
        if not self.w.self_reference:
            reference = self.bench.exact_evolve(
                ham, psi0.to_dense(), config.t0, config.t_final,
                substeps=config.oracle_substeps)
        return ham, config, psi0, reference

    def setup(self):
        """Set up `setup_repeats` times; returns the median scaled time."""
        times, probes = [], [self.probe()]
        for _ in range(self.w.setup_repeats):
            start = time.perf_counter()
            ham, config, psi0, reference = self.setup_once()
            times.append(time.perf_counter() - start)
            probes.append(self.probe())
            if reference is not None and self.reference is not None \
                    and not self.np.array_equal(reference, self.reference):
                raise RuntimeError("the RK4 reference differs between set-ups")
            self.reference = reference
        self.ham, self.cfg, self.psi0 = ham, config, psi0
        return statistics.median(t * k for t, k in zip(times, scales(probes)))

    def reference_from_setup(self):
        """Serve run_benchmark's RK4 call from the reference made in set-up.

        The oracle is set-up work (``setup_s``), so ``run_s`` holds only the
        evolutions.  Calls with other arguments go to the real integrator.
        """
        bench = self.bench
        original = bench.exact_evolve
        cfg = self.cfg
        psi0 = self.psi0.to_dense()

        def served(ham, psi, t0, t, substeps=4000):
            if (ham is self.ham and t0 == cfg.t0 and t == cfg.t_final
                    and substeps == cfg.oracle_substeps
                    and self.np.array_equal(psi, psi0)):
                return self.reference.copy()
            return original(ham, psi, t0, t, substeps=substeps)

        return mock.patch.object(bench, "exact_evolve", served)

    def sweep(self):
        """One run_benchmark call, with a speed probe between evolutions."""
        probes = []
        spent = self.probe.spent
        with self.reference_from_setup(), self.probe.before(self.bench, probes):
            start = time.perf_counter()
            records = self.bench.run_benchmark(self.ham, self.cfg)
            seconds = time.perf_counter() - start - (self.probe.spent - spent)
        probes.append(self.probe())
        return Sweep(seconds, records, scales(probes))

    def is_reference(self, r):
        return self.w.self_reference and (r.order, r.dt) == (
            max(self.w.orders), min(self.w.dts))

    def failures(self, records):
        """Keys ``(order, dt)`` of the runs whose checks fail.

        Every run must reach an entangled state (MPS bond above 1) with a
        finite error; order-4 errors stay below the workload's bound; at
        order N, halving dt cuts the error at least 2^(N-1) times (falls,
        for order 1); the error falls as the order rises at the finest dt
        that several orders share.
        """
        runs = {(r.order, r.dt): r for r in records if not self.is_reference(r)}
        bad = set()
        for key, r in runs.items():
            if not math.isfinite(r.epsilon) or r.mps_bond_dim <= 1:
                bad.add(key)
            if r.order == 4 and not r.epsilon <= self.w.eps_o4_bound:
                bad.add(key)
        for order in self.w.orders:
            dts = sorted((dt for o, dt in runs if o == order), reverse=True)
            for coarse, fine in zip(dts, dts[1:]):
                # an order-N error scales as dt^N; ask for at least dt^(N-1)
                shrink = (coarse / fine) ** (order - 1)
                eps_coarse = runs[(order, coarse)].epsilon
                eps_fine = runs[(order, fine)].epsilon
                if not (eps_coarse > eps_fine and eps_coarse >= shrink * eps_fine):
                    bad.add((order, fine))
        shared = [dt for dt in self.w.dts
                  if sum((o, dt) in runs for o in self.w.orders) > 1]
        if shared:
            finest = min(shared)
            orders = sorted(o for o, dt in runs if dt == finest)
            for low, high in zip(orders, orders[1:]):
                if not runs[(high, finest)].epsilon < runs[(low, finest)].epsilon:
                    bad.add((high, finest))
        return bad

    def epsilon_o4(self, records):
        """Error of the finest order-4 run that is not the reference."""
        runs = [r for r in records if r.order == 4 and not self.is_reference(r)]
        return min(runs, key=lambda r: r.dt).epsilon

    def steps(self, dt):
        return round(self.span / dt)

    def timings(self, sweeps):
        """``run_s`` and ``order4_step_ms`` of a list of sweeps.

        A sweep is a sum of independent (order, dt) evolutions.  Each one
        is timed by its scaled time's median over the sweeps, and the rest
        of the sweep (harness, error evaluation) by its own median.  A
        slow spell that hits one evolution of one sweep, or the page
        faults of a process's first sweep, then leave the sum unmoved.
        """
        runs, rest = {}, []
        for sweep in sweeps:
            spent = 0.0
            for r, scale in zip(sweep.records, sweep.scales):
                seconds = r.wall_time_per_step * self.steps(r.dt)
                runs.setdefault((r.order, r.dt), []).append(seconds * scale)
                spent += seconds
            rest.append((sweep.seconds - spent) * statistics.median(sweep.scales))
        run_s = {key: statistics.median(v) for key, v in runs.items()}
        o4 = [(order, dt) for order, dt in run_s if order == 4]
        return {
            "run_s": sum(run_s.values()) + statistics.median(rest),
            "order4_step_ms": 1e3 * sum(run_s[k] for k in o4)
                / sum(self.steps(dt) for _, dt in o4),
        }

    def accuracy(self, records):
        """Error-derived figures of one untraced sweep.

        Both depend on the random initial state far more than on the
        machine, so they are reported with the per-layer metrics, which
        carry no bound.
        """
        runs = [r for r in records if not self.is_reference(r)]
        # fit only orders with two step sizes besides the reference
        fit = [r for r in runs if sum(q.order == r.order for q in runs) > 1]
        return {
            "bench.epsilon_o4": self.epsilon_o4(records),
            "bench.time_to_1e-6_s": min(self.bench.runtime_at_accuracy(
                fit, TARGET_EPS, span=self.span).values()),
        }


def outcome(records):
    return [(r.order, r.dt, r.epsilon, r.mpo_bond_dim, r.mps_bond_dim)
            for r in records]


def layer_metrics(tracer, seconds):
    """Per-layer metrics of one traced sweep lasting `seconds` (unscaled)."""
    c = tracer.counts
    layer_s = tracer.layer_seconds()
    covered = sum(layer_s.values())
    o4 = tracer.span_seconds("BracketTable.compute[4]")
    requests = c.get("brackets.requests", 0)
    return {
        "brackets.requests": requests,
        "brackets.computed": c.get("brackets.computed", 0),
        "brackets.hit_ratio":
            1.0 - c.get("brackets.computed", 0) / requests,
        "brackets.s": layer_s["brackets"],
        "brackets.o4_ms_per_table": 1e3 * statistics.fmean(o4) if o4 else 0.0,
        "build.s": layer_s["build"],
        "build.bond_max": c.get("build.bond_max", 0),
        "compression.s": layer_s["compression"],
        "compression.bond_max": c.get("compression.bond_max", 0),
        "compression.kept_ratio": c.get("compression.levels_after", 0)
            / c.get("compression.levels_before", 1),
        "compression.removed_levels": c.get("compression.removed_levels", 0),
        "mps.apply_s": layer_s["mps"],
        "mps.raw_bond_max": c.get("mps.raw_bond_max", 0),
        "mps.bond_max": c.get("mps.bond_max", 0),
        "mps.discarded_weight": c.get("mps.discarded_weight", 0.0),
        "bench.s": seconds - covered,
        "trace.coverage": covered / seconds,
    }


UNITS = {
    "setup_s": "s", "run_s": "s", "order4_step_ms": "ms",
    "peak_rss_mb": "MB", "passed_ratio": "ratio",
    "brackets.requests": "count", "brackets.computed": "count",
    "brackets.hit_ratio": "ratio", "brackets.s": "s",
    "brackets.o4_ms_per_table": "ms", "build.s": "s",
    "build.bond_max": "count", "compression.s": "s",
    "compression.bond_max": "count", "compression.kept_ratio": "ratio",
    "compression.removed_levels": "count", "mps.apply_s": "s",
    "mps.raw_bond_max": "count", "mps.bond_max": "count",
    "mps.discarded_weight": "1", "evolve.oracle_s": "s", "bench.s": "s",
    "bench.epsilon_o4": "1", "bench.time_to_1e-6_s": "s",
    "trace.coverage": "ratio", "trace.overhead": "ratio", "trace.run_s": "s",
}


def medians(samples):
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "dysonmpo" / "__init__.py").is_file():
        print(f"perfbench: no dysonmpo sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads its BLAS, so that every run
    # measures the same single-threaded program.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import scipy.linalg

    from dysonmpo import bench, modelfile
    from tracer import LayerTracer

    workload = WORKLOADS[args.workload]
    probe = SpeedProbe(np, scipy.linalg)
    runner = Runner(workload, args.seed, bench, modelfile, np, probe)
    tracer = LayerTracer(bench) if args.trace else None
    print("env " + json.dumps(environment(np, scipy)))

    if tracer:
        with tracer.installed():
            setup_s = runner.setup()
        oracle = tracer.span_seconds("exact_evolve")
        oracle_s = statistics.median(oracle) if oracle else 0.0
    else:
        setup_s = runner.setup()

    per_sweep = len(workload.orders) * len(workload.dts)
    attempted = failed = 0
    plain, traced, accuracy, layers = [], [], [], []
    first = None
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        sides = (False, True) if tracer else (False,)
        for traced_side in sides:
            attempted += per_sweep
            try:
                if traced_side:
                    tracer.reset()
                    with tracer.installed():
                        sweep = runner.sweep()
                else:
                    sweep = runner.sweep()
            except Exception:
                traceback.print_exc()
                failed += per_sweep
                continue
            records = sweep.records
            print(f"sweep {'traced' if traced_side else 'plain'} "
                  f"{sweep.seconds:.3f} s, probe scale "
                  f"{statistics.median(sweep.scales):.3f}")
            bad = runner.failures(records)
            if first is None:
                first = outcome(records)
                for r in records:
                    print(f"run order={r.order} dt={r.dt} eps={r.epsilon:.6e} "
                          f"step_s={r.wall_time_per_step:.4f} "
                          f"mpo_bond={r.mpo_bond_dim} mps_bond={r.mps_bond_dim}"
                          f"{' FAIL' if (r.order, r.dt) in bad else ''}")
            elif outcome(records) != first:
                # a traced or repeated sweep must reproduce the first bit for bit
                bad = {(r.order, r.dt) for r in records}
            failed += len(bad)
            if traced_side:
                traced.append(sweep)
                layers.append(layer_metrics(tracer, sweep.seconds))
            else:
                plain.append(sweep)
                accuracy.append(runner.accuracy(records))
        lap = time.perf_counter() - started
        if time.perf_counter() + lap > deadline:
            break

    if not plain or (tracer and not traced):
        print("perfbench: no sweep completed", file=sys.stderr)
        return 1
    metrics = runner.timings(plain)
    if tracer:
        run_s = metrics["run_s"]
        metrics = medians(layers) | medians(accuracy)
        metrics["evolve.oracle_s"] = oracle_s
        metrics["trace.run_s"] = runner.timings(traced)["run_s"]
        metrics["trace.overhead"] = metrics["trace.run_s"] / run_s - 1.0
    else:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics["passed_ratio"] = 1.0 - failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": UNITS[k]}
                    for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
