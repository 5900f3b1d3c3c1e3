"""Finite-chain error-scaling benchmark for the evolution-operator MPOs.

Splits an interval into uniform steps; per step obtains the step's table
(`step_table`), weights the shared step plan with it, row-compresses the
MPO, factors a wide one down to its row rank (`bulk.bulk_compress`, from
bond `bulk.BULK_FROM`) and applies it to the state.  Every method builds
its step the same way, as a `dyson_mpo`: Dyson and Magnus steps under the
brackets of the step (an order-N Magnus step is the order-N Dyson step,
`magnus_evolution`), the frozen-midpoint Taylor baseline under the frozen
table of the drivings at the midpoint (`BracketTable.frozen`).  Steps
congruent modulo the driving period reuse the MPO built at the first of
them.  A sweep computes one bracket table per congruence class of step
interval, and builds one step plan (power and compression index sets) per
order, which all its steps weight (`BracketCache`).  The evolved state is
compared against a dense Runge-Kutta reference (or the most accurate state
when self-referencing) through the trace-distance error ``sqrt(1 -
|<a|b>|^2)``, evaluated through the phase-aligned difference.
"""

import csv
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from .brackets import BracketTable, check_interval
from .bulk import BULK_FROM, bulk_compress
from .compression import row_compress
from .dyson import dyson_mpo, magnus_evolution
from .evolve import check_oracle, exact_evolve
from .extensive import PowerPlan, RewiredHamiltonian
from .mps import (FiniteMPS, apply_mpo, check_d_max, check_svd_tol,
                  trace_distance_error)
# not called here: perfbench/tracer.py looks up `bench.taylor_mpo` to wrap it
from .taylor import taylor_mpo  # noqa: F401

METHODS = ("taylor", "dyson", "magnus")
CSV_COLUMNS = ["method", "order", "dt", "epsilon", "wall_time_per_step_s",
               "mpo_bond_dim", "mps_bond_dim", "seed", "mpo_bond_before",
               "fold_residual", "bulk_residual", "mpo_builds",
               "discarded_weight", "bracket_s", "build_s", "apply_s",
               "plan_s", "mpo_blocks"]


@dataclass
class EvolutionConfig:
    """Parameters of one benchmark sweep."""

    n_sites: int = 8
    t0: float = 0.0
    t_final: float = 1.0
    method: str = "dyson"            # taylor | dyson | magnus
    d_max: int = 64
    svd_tol: float = 1e-14
    oracle_substeps: int = 4000
    qr_tol: float = 1e-12
    self_reference: bool = False
    seed: int = 0
    orders: tuple = (2,)             # expansion orders of the sweep
    dts: tuple = (0.125,)            # step sizes of the sweep


@dataclass
class ErrorRecord:
    method: str
    order: int
    dt: float
    epsilon: float
    wall_time_per_step: float
    mpo_bond_dim: int
    mps_bond_dim: int
    seed: int
    discarded_weight: float = 0.0    # summed over the steps' MPS truncations
    bracket_s: float = 0.0           # spent obtaining bracket tables
    build_s: float = 0.0             # spent building and compressing MPOs
    apply_s: float = 0.0             # spent applying MPOs to the state
    n_steps: int = 1                 # steps of the evolution
    mpo_bond_before: int = 0         # largest MPO bond before compression
    fold_residual: float = 0.0       # largest relative least-squares residual
    mpo_builds: int = 0              # step MPOs built (one per congruence class)
    plan_s: float = 0.0              # of build_s, spent building the step plan
    mpo_blocks: int = 0              # nonzero blocks of the largest step MPO
    bulk_residual: float = 0.0       # largest check residual of the bulk stage


class BracketCache:
    """Bracket tables and step plans of one Hamiltonian over a sweep.

    One table serves each congruence class of step interval.  Intervals
    of equal length whose start times agree modulo the common driving
    period share their table; with every channel constant (period
    ``math.inf``) all intervals of equal length do, and with an aperiodic
    drive none do.  `key` names the class; `evolve_state` keys its
    compressed step MPOs on it as well.

    A table is computed at ``max(order, self.order)``, so a cache made with
    the highest order a sweep reads computes each interval's table once.
    An order-`k` request is served by the stored table whenever ``k`` does
    not exceed its `max_order`: an entry's value does not depend on which
    other entries its table holds, so the lower orders are bitwise what a
    table of order ``k`` would hold.  A request above the stored order
    recomputes and replaces the table.  `computed` counts the tables
    computed.  `plan` serves the `PowerPlan` of each order, which every
    step of that order shares, whatever its method, for the life of the
    cache.
    """

    def __init__(self, hamiltonian, order=1):
        self.hamiltonian = hamiltonian
        self.order = order
        self.period = hamiltonian.common_period()
        self.computed = 0
        self._store = {}
        self._plans = {}

    def key(self, t0, t1):
        """``(phase, step length)`` of the step ``[t0, t1]``."""
        phase = t0
        if self.period == math.inf:
            phase = 0.0
        elif self.period:
            phase = t0 - math.floor((t0 + 1e-12) / self.period) * self.period
        return (round(phase, 12), round(t1 - t0, 12))

    def table(self, t0, t1, order):
        check_interval(t0, t1)
        key = self.key(t0, t1)
        hit = self._store.get(key)
        if hit is not None and hit[1].max_order >= order:
            stored_t0, table = hit
            if abs(stored_t0 - t0) < 1e-12:
                return table
            # congruent interval: same table, shifted start
            return BracketTable((t0, t1), table.values, table.max_order)
        channels = [(c.name, c.driving) for c in self.hamiltonian.channels]
        table = BracketTable.compute(channels, t0, t1, max(order, self.order))
        self.computed += 1
        self._store[key] = (t0, table)
        return table

    def plan(self, order):
        """The step plan of `order`; it builds its power on first use."""
        if order not in self._plans:
            self._plans[order] = PowerPlan(
                RewiredHamiltonian.from_hamiltonian(self.hamiltonian), order)
        return self._plans[order]


def step_table(cache, method, t0, t1, order):
    """The table an order-`order` step of `method` on ``[t0, t1]`` reads.

    Dyson and Magnus steps read the brackets of the step
    (`BracketCache.table`).  The frozen-midpoint Taylor step reads
    ``BracketTable.frozen`` of the channels' driving values at the
    midpoint, with ``tau = -1j (t1 - t0)``: the Taylor series of the
    Hamiltonian frozen there.  It computes no bracket.
    """
    if method != "taylor":
        return cache.table(t0, t1, order)
    check_interval(t0, t1)
    tm = 0.5 * (t0 + t1)
    weights = {c.name: complex(np.asarray(c.driving(tm)).item())
               for c in cache.hamiltonian.channels}
    return BracketTable.frozen(weights, -1j * (t1 - t0), order)


def build_step_mpo(hamiltonian, t0, t1, order, method, table, qr_tol,
                   compress=True, plan=None):
    """Evolution MPO for one step, optionally compressed.

    `table` is the step's table of `method` (`step_table`), of order at
    least `order`.  Every method weights `plan` (`BracketCache.plan`), or
    one of its own, as a `dyson_mpo`; a Magnus step goes through
    `magnus_evolution`, and a Taylor step is labelled ``kind="taylor"``.
    Compression is row compression at `qr_tol`, then, for a row-compressed
    bond of at least `bulk.BULK_FROM`, the exact bulk stage at the same
    tolerance.  Returns ``(mpo, report)``; `report` is the
    `CompressionReport`, with the bulk bond and residual, or None when the
    MPO was not compressed.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    build = magnus_evolution if method == "magnus" else dyson_mpo
    mpo = build(hamiltonian, t0, t1, order, table, plan=plan)
    if method == "taylor" and t1 != t0:
        mpo.params["kind"] = "taylor"
    report = None
    if compress and mpo.bond_dimension > 1:
        mpo, report = row_compress(mpo, order, tol=qr_tol)
        if mpo.bond_dimension >= BULK_FROM:
            mpo, report.bulk_residual = bulk_compress(mpo, qr_tol)
            report.bond_dimension_bulk = mpo.bond_dimension
    return mpo, report


def _step_count(config, order, dt):
    """Steps of an order-`order` evolution of `config` at step `dt`.

    Raises `ValueError` for a run that `evolve_state` cannot make: an
    unknown method, a `d_max` other than None or an int ``>= 1``, an
    `svd_tol` or `qr_tol` outside ``[0, 1)``, a non-finite end of the
    interval, or steps that do not run forward or do not divide it.
    """
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}")
    check_d_max(config.d_max)
    check_svd_tol(config.svd_tol)
    if not 0 <= config.qr_tol < 1:
        raise ValueError(f"qr_tol must lie in [0, 1), got {config.qr_tol!r}")
    check_interval(config.t0, config.t_final)
    span = config.t_final - config.t0
    if dt <= 0 or span < 0:
        raise ValueError("steps run forward: need dt > 0 and t_final >= t0")
    n_steps = round(span / dt)
    if abs(n_steps * dt - span) > 1e-12:
        raise ValueError(f"dt = {dt!r} must divide t_final - t0 = {span!r}")
    return n_steps


def evolve_state(hamiltonian, psi, config, order, dt, cache=None):
    """Evolve `psi` over ``[t0, t_final]`` in uniform forward steps of `dt`.

    A given `cache` must have been made for `hamiltonian`.  Steps in the
    same congruence class of `cache` share one compressed MPO of `order`,
    built at the first of them and stored for this call only, from its
    `step_table` and the cache's step plan of `order`.  Returns
    ``(psi_out, stats)`` where stats carries per-step wall time, the
    largest MPO/MPS bond dimensions encountered, the
    largest MPO bond before row compression (`mpo_bond_before`) and the
    largest relative residual of its least-squares folds
    (`fold_residual`), the largest check residual of the bulk stage
    (`bulk_residual`), the number of steps and of step MPOs built, the
    weight the MPS truncations discarded, summed over the steps, the
    seconds spent obtaining step tables (`bracket_s`), building and
    compressing step MPOs (`build_s`) and applying them (`apply_s`), the
    part of `build_s` spent building the step plan of `order` (`plan_s`;
    0 when an earlier call with the same `cache` built it), the most
    nonzero (left, right) blocks a step MPO holds (`mpo_blocks`), and the
    number of tables computed for this call (`tables_computed`;
    a shared `cache` may serve tables an earlier call computed).  A run
    `_step_count` rejects raises `ValueError` before any step.
    """
    n_steps = _step_count(config, order, dt)
    if cache is None:
        cache = BracketCache(hamiltonian, order=order)
    elif cache.hamiltonian is not hamiltonian:
        raise ValueError("the bracket cache was made for another Hamiltonian")
    computed_before = cache.computed
    plan = cache.plan(order)
    plan_before = plan.plan_s
    step_mpos = {}
    mpo_bond = 0
    mpo_blocks = 0
    bond_before = 0
    fold_residual = bulk_residual = 0.0
    mps_bond = psi.max_bond
    discarded = 0.0
    bracket_s = build_s = apply_s = 0.0
    t_start = time.perf_counter()
    for i in range(n_steps):
        s0 = config.t0 + i * dt
        s1 = config.t0 + (i + 1) * dt
        key = cache.key(s0, s1)
        mpo = step_mpos.get(key)
        if mpo is None:
            start = time.perf_counter()
            table = step_table(cache, config.method, s0, s1, order)
            bracket_s += time.perf_counter() - start
            start = time.perf_counter()
            mpo, report = build_step_mpo(hamiltonian, s0, s1, order,
                                         config.method, table,
                                         qr_tol=config.qr_tol, plan=plan)
            build_s += time.perf_counter() - start
            step_mpos[key] = mpo
            mpo_blocks = max(mpo_blocks, mpo.n_blocks)
            bond_before = max(bond_before, mpo.bond_dimension)
            if report is not None:
                bond_before = max(bond_before, report.bond_dimension_before)
                fold_residual = max(fold_residual, report.fold_residual)
                bulk_residual = max(bulk_residual, report.bulk_residual)
        start = time.perf_counter()
        psi, disc = apply_mpo(mpo, psi, d_max=config.d_max,
                              svd_tol=config.svd_tol)
        apply_s += time.perf_counter() - start
        discarded += disc
        mpo_bond = max(mpo_bond, mpo.bond_dimension)
        mps_bond = max(mps_bond, psi.max_bond)
    wall = (time.perf_counter() - t_start) / max(n_steps, 1)
    return psi, {"wall_time_per_step": wall, "mpo_bond_dim": mpo_bond,
                 "mps_bond_dim": mps_bond, "mpo_bond_before": bond_before,
                 "fold_residual": fold_residual,
                 "bulk_residual": bulk_residual, "n_steps": n_steps,
                 "mpo_builds": len(step_mpos),
                 "discarded_weight": discarded, "bracket_s": bracket_s,
                 "build_s": build_s, "apply_s": apply_s,
                 "plan_s": plan.plan_s - plan_before,
                 "mpo_blocks": mpo_blocks,
                 "tables_computed": cache.computed - computed_before}


def initial_state(config):
    if config.seed:
        return FiniteMPS.random_product(config.n_sites, rng=config.seed)
    return FiniteMPS.all_up(config.n_sites)


EPSILON_DENSE_CAP = 4096  # largest state `_epsilon_stable` compares densely


def _epsilon_stable(psi, reference):
    """Trace-distance error, accurate below the overlap's rounding floor.

    ``sqrt(1 - |<a|b>|^2)`` cancels catastrophically once the states agree
    to ~1e-8; the phase-aligned difference norm delta gives the same
    quantity as ``delta * sqrt(1 - delta^2 / 4)`` with full precision.
    Up to `EPSILON_DENSE_CAP` amplitudes delta comes from the dense
    vectors, above it from the difference MPS (`trace_distance_error`).
    """
    dim = psi.d ** psi.n_sites
    if dim > EPSILON_DENSE_CAP:
        return trace_distance_error(psi, reference)
    a = psi.to_dense()
    b = reference.to_dense()
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    ov = np.vdot(b, a)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    delta = np.linalg.norm(a - phase * b)
    return float(delta * math.sqrt(max(0.0, 1.0 - 0.25 * delta ** 2)))


_RECORDED = ("discarded_weight", "bracket_s", "build_s", "apply_s",
             "n_steps", "mpo_bond_before", "fold_residual", "mpo_builds",
             "plan_s", "mpo_blocks", "bulk_residual")


def run_benchmark(hamiltonian, config):
    """Error records for every (order, dt) pair of the config's sweep.

    One evolution per (order, dt), orders ascending, in record order.  The
    sweep shares one `BracketCache` at the top order it reads, so the first
    evolution that touches an interval (the lowest order) computes its
    table, and its `bracket_s` carries that time.  Every (order, dt) pair
    is checked before the first evolution (see `_step_count`), and so are
    the state size and `oracle_substeps` of the RK4 reference, unless the
    sweep is self-referenced (see `evolve.check_oracle`).
    """
    orders, dts = config.orders, config.dts
    if not (orders and dts):
        raise ValueError("a sweep needs at least one order and one dt")
    for order in orders:
        for dt in dts:
            _step_count(config, order, dt)
    if not config.self_reference:
        check_oracle(hamiltonian.d ** config.n_sites, config.oracle_substeps)
    psi0 = initial_state(config)
    cache = BracketCache(hamiltonian, order=max(orders))
    evolved = {}
    for order in orders:
        for dt in dts:
            psi, stats = evolve_state(hamiltonian, psi0, config,
                                      order=order, dt=dt, cache=cache)
            evolved[(order, dt)] = (psi, stats)
    if config.self_reference:
        best = max(orders), min(dts)
        reference = evolved[best][0]
    else:
        vec = exact_evolve(hamiltonian, psi0.to_dense(), config.t0,
                           config.t_final, substeps=config.oracle_substeps)
        reference = FiniteMPS.from_dense(vec, config.n_sites, hamiltonian.d)
    records = []
    for order in orders:
        for dt in dts:
            psi, stats = evolved[(order, dt)]
            eps = _epsilon_stable(psi, reference)
            records.append(ErrorRecord(
                config.method, order, dt, eps, stats["wall_time_per_step"],
                stats["mpo_bond_dim"], stats["mps_bond_dim"], config.seed,
                **{k: stats[k] for k in _RECORDED}))
    return records


def records_to_csv(records, seed=0):
    buf = io.StringIO()
    buf.write(f"# seed={seed}\n")
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([r.method, r.order, f"{r.dt:.12g}", f"{r.epsilon:.12g}",
                         f"{r.wall_time_per_step:.6g}", r.mpo_bond_dim,
                         r.mps_bond_dim, r.seed, r.mpo_bond_before,
                         f"{r.fold_residual:.6g}", f"{r.bulk_residual:.6g}",
                         r.mpo_builds,
                         f"{r.discarded_weight:.6g}", f"{r.bracket_s:.6g}",
                         f"{r.build_s:.6g}", f"{r.apply_s:.6g}",
                         f"{r.plan_s:.6g}", r.mpo_blocks])
    return buf.getvalue()


def prune_plateau(dts, epsilons, eps_floor=1e-11, min_ratio=1.4):
    """Keep the pre-plateau points of an error-vs-step-size curve.

    Walking from the largest step down, points are kept while each halving
    of dt still shrinks the error by at least ``min_ratio ** halvings``;
    once the curve flattens (reference-accuracy floor) the tail is cut.
    """
    pts = sorted(zip(dts, epsilons), key=lambda p: -p[0])
    kept = [pts[0]]
    for prev, cur in zip(pts, pts[1:]):
        if cur[1] <= eps_floor:
            break
        halvings = math.log2(prev[0] / cur[0])
        if prev[1] / cur[1] < min_ratio ** halvings:
            break
        kept.append(cur)
    return kept


def fit_loglog_slope(dts, epsilons, eps_floor=1e-11):
    """Least-squares slope of log(eps) vs log(dt) over pre-plateau points."""
    pts = prune_plateau(dts, epsilons, eps_floor=eps_floor)
    if len(pts) < 2:
        raise ValueError("not enough points above the error floor")
    x = np.log(np.array([p[0] for p in pts]))
    y = np.log(np.array([p[1] for p in pts]))
    return float(np.polyfit(x, y, 1)[0])


def order_slopes(records, eps_floor=1e-11):
    """Per-order log-log slopes from a benchmark record list."""
    by_order = {}
    for r in records:
        by_order.setdefault(r.order, []).append(r)
    slopes = {}
    for order, rs in by_order.items():
        rs = sorted(rs, key=lambda r: r.dt)
        slopes[order] = fit_loglog_slope([r.dt for r in rs],
                                         [r.epsilon for r in rs],
                                         eps_floor=eps_floor)
    return slopes


def runtime_at_accuracy(records, target_eps, span=1.0):
    """Estimated total runtime ``N_steps * dt_av`` per order at fixed error.

    Extrapolates each order's fitted error scaling to the step size that
    reaches `target_eps` and multiplies the implied step count by the
    measured average per-step wall time, less the bracket-table time.
    A sweep computes each interval's table once, in whichever evolution
    meets the interval first, so the per-step cost of each order is taken
    as ``wall_time_per_step - bracket_s / n_steps``.  An order with fewer
    than two errors above 1e-12 has no fit and raises ValueError.
    """
    by_order = {}
    for r in records:
        by_order.setdefault(r.order, []).append(r)
    out = {}
    for order, rs in by_order.items():
        rs = sorted(rs, key=lambda r: r.dt)
        pts = [(r.dt, r.epsilon) for r in rs if r.epsilon > 1e-12]
        if len(pts) < 2:
            raise ValueError(f"order {order}: fewer than two errors above "
                             "the 1e-12 floor")
        x = np.log([p[0] for p in pts])
        y = np.log([p[1] for p in pts])
        slope, intercept = np.polyfit(x, y, 1)
        log_dt = (math.log(target_eps) - intercept) / slope
        dt_needed = math.exp(log_dt)
        n_steps = span / dt_needed
        dt_av = float(np.mean([r.wall_time_per_step - r.bracket_s / r.n_steps
                               for r in rs]))
        out[order] = n_steps * dt_av
    return out
