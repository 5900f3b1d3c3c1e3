"""Finite-chain error-scaling benchmark for the evolution-operator MPOs.

Splits an interval into uniform steps; per step obtains the step's table
(`step_table`), weights the shared step plan with it, row-compresses the
MPO, factors a wide one down to its row rank (`bulk.bulk_compress`, from
bond `bulk.BULK_FROM`) and applies it to the state.  The method is read
only where the step's table is chosen: Dyson steps read the brackets of
the step (an order-N Magnus step is the order-N Dyson step,
`magnus_evolution`, so it is no method of its own), the frozen-midpoint
Taylor baseline the frozen table of the drivings at the midpoint
(`BracketTable.frozen`).  From the table on, every step is built the
same way, as a `dyson_mpo` of the Hamiltonian, the table and the order.
Steps congruent modulo the driving period reuse the MPO built at the
first of them.  A sweep computes one bracket table per congruence class
of step interval, all in one stacked `BracketTable.compute` call when its
first evolution asks for its first table, and builds one step plan
(power and compression index sets) per order, which all its steps weight
(`BracketCache`).  The evolved state is compared against a dense
Runge-Kutta reference (or the most accurate state when self-referencing)
through the trace-distance error ``sqrt(1 - |<a|b>|^2)``, evaluated
through the phase-aligned difference.
"""

import csv
import io
import math
import numbers
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .brackets import BracketTable, check_interval
from .bulk import BULK_FROM, bulk_compress
from .compression import row_compress
# `magnus_evolution` and `taylor_mpo` are not called here: perfbench/tracer.py
# looks them up on this module to wrap them
from .dyson import dyson_mpo, magnus_evolution  # noqa: F401
from .evolve import check_oracle, exact_evolve
from .extensive import PowerPlan
from .mps import FiniteMPS, apply_mpo, check_d_max, trace_distance_error
from .taylor import taylor_mpo  # noqa: F401

METHODS = ("taylor", "dyson")


@dataclass
class EvolutionConfig:
    """Parameters of one benchmark sweep."""

    n_sites: int = 8
    t0: float = 0.0
    t_final: float = 1.0
    method: str = "dyson"            # taylor | dyson
    d_max: int = 64
    oracle_substeps: int = 4000
    qr_tol: float = 1e-12
    self_reference: bool = False
    seed: int = 0
    orders: tuple = (2,)             # expansion orders of the sweep
    dts: tuple = (0.125,)            # step sizes of the sweep


def _column(fmt, default=MISSING, name=None, timed=False):
    """A record field written to CSV as ``format(value, fmt)``, under
    `name` (by default the field's own name); `timed` marks a wall-clock
    time, which no two runs share."""
    return field(default=default,
                 metadata={"fmt": fmt, "column": name, "timed": timed})


@dataclass
class ErrorRecord:
    """Outcome of one evolution of a sweep (`run_benchmark`).

    The fields are the CSV columns in order (`records_to_csv`), except
    `n_steps`, last, which is not written.  A field made by `_column`
    carries its CSV format, and marks the wall-clock times (`timed`); any
    other is written as it is.  `UNTIMED_FIELDS` names the others.
    `evolve_state` reports every field after `epsilon` but `seed`, under
    its own name.
    The three stage times are taken inside the timed step loop.  `plan_s`
    is 0 when an earlier evolution with the same `BracketCache` built the
    step plan of the order.
    """

    method: str
    order: int
    dt: float = _column(".12g")
    epsilon: float = _column(".12g")  # trace-distance error at t_final
    wall_time_per_step: float = _column(".6g", name="wall_time_per_step_s",
                                        timed=True)
    mpo_bond_dim: int                 # largest applied MPO bond
    mps_bond_dim: int                 # largest MPS bond
    seed: int
    mpo_bond_before: int = 0          # largest MPO bond before compression
    # largest relative residual of the least-squares folds, and largest
    # check residual of the bulk stage
    fold_residual: float = _column(".6g", 0.0)
    bulk_residual: float = _column(".6g", 0.0)
    mpo_builds: int = 0               # step MPOs built, one per step class
    discarded_weight: float = _column(".6g", 0.0)  # by the MPS truncations
    # seconds spent obtaining step tables, building and compressing step
    # MPOs, applying them, and (part of build_s) building the step plan
    bracket_s: float = _column(".6g", 0.0, timed=True)
    build_s: float = _column(".6g", 0.0, timed=True)
    apply_s: float = _column(".6g", 0.0, timed=True)
    plan_s: float = _column(".6g", 0.0, timed=True)
    mpo_blocks: int = 0               # nonzero blocks of the largest step MPO
    n_steps: int = 1                  # steps of the evolution; last, unwritten


_WRITTEN = fields(ErrorRecord)[:-1]
CSV_COLUMNS = [f.metadata.get("column") or f.name for f in _WRITTEN]
# the fields that a rerun of the same sweep reproduces bit for bit
UNTIMED_FIELDS = [f.name for f in fields(ErrorRecord)
                  if not f.metadata.get("timed")]


class BracketCache:
    """Bracket tables and step plans of one Hamiltonian over a sweep.

    One table serves each congruence class of step interval.  Intervals
    of equal length whose start times agree modulo the common driving
    period share their table; with every channel constant (period
    ``math.inf``) all intervals of equal length do, and with an aperiodic
    drive none do.  `key` names the class; `evolve_state` keys its
    compressed step MPOs on it as well.

    `intervals` lists the ``(t0, t1)`` steps the sweep will read, in
    request order.  The first request that misses computes, in one
    `BracketTable.compute` call at ``max(order, self.order)``, its own
    interval and the first listed interval of every class that has no
    table yet; a class computes on its first listed interval, so a sweep
    that lists its steps in request order gets the tables it would get
    one at a time.  A later miss computes its own interval alone.
    `computed` counts the tables computed.

    A table is computed at ``max(order, self.order)``, so a cache made with
    the highest order a sweep reads computes each interval's table once.
    An order-`k` request is served by the stored table whenever ``k`` does
    not exceed its `max_order`: an entry's value does not depend on which
    other entries its table holds, so the lower orders are bitwise what a
    table of order ``k`` would hold.  A request above the stored order
    recomputes and replaces the table.  `plan` serves the `PowerPlan` of
    each order, which every step of that order shares, whatever its
    method, for the life of the cache.
    """

    def __init__(self, hamiltonian, order=1, intervals=()):
        self.hamiltonian = hamiltonian
        self.order = order
        self.period = hamiltonian.common_period()
        self.computed = 0
        self._listed = list(intervals)
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
        batch = {key: (t0, t1)}
        for s0, s1 in self._listed:
            batch.setdefault(self.key(s0, s1), (s0, s1))
        batch = {k: step for k, step in batch.items()
                 if k == key or k not in self._store}
        channels = [(c.name, c.driving) for c in self.hamiltonian.channels]
        tables = BracketTable.compute(
            channels, [s0 for s0, _ in batch.values()],
            [s1 for _, s1 in batch.values()], max(order, self.order))
        self._listed = []
        self.computed += len(tables)
        for k, (s0, _), table in zip(batch, batch.values(), tables):
            self._store[k] = (s0, table)
        return self._store[key][1]

    def plan(self, order):
        """The step plan of `order`; it builds its power on first use."""
        if order not in self._plans:
            self._plans[order] = PowerPlan(self.hamiltonian, order)
        return self._plans[order]


def step_table(cache, method, t0, t1, order):
    """The table an order-`order` step of `method` on ``[t0, t1]`` reads.

    Dyson steps read the brackets of the step (`BracketCache.table`).
    The frozen-midpoint Taylor step reads ``BracketTable.frozen`` of the
    channels' driving values at the midpoint, with ``tau = -1j (t1 -
    t0)``: the Taylor series of the Hamiltonian frozen there.  It
    computes no bracket.  It is the one function past `_steps` that
    reads the method; an unknown one raises `ValueError`.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method != "taylor":
        return cache.table(t0, t1, order)
    check_interval(t0, t1)
    tm = 0.5 * (t0 + t1)
    weights = {c.name: complex(np.asarray(c.driving(tm)).item())
               for c in cache.hamiltonian.channels}
    return BracketTable.frozen(weights, -1j * (t1 - t0), order)


def build_step_mpo(hamiltonian, table, order, *, qr_tol, compress=True,
                   plan=None):
    """Evolution MPO for one step, optionally compressed.

    `table` is the step's table (`step_table`), of order at least `order`,
    and the only thing of the step's method this reads: `dyson_mpo`
    weights `plan` (`BracketCache.plan`), or one of its own, with it; a
    table of zeros makes the bond-1 identity, which is not compressed.
    Compression is row compression at `qr_tol`, then, for a row-compressed
    bond of at least `bulk.BULK_FROM`, the exact bulk stage at the same
    tolerance.  Returns ``(mpo, report)``; `report` is the
    `CompressionReport`, with the bulk bond and residual, or None when the
    MPO was not compressed.
    """
    mpo = dyson_mpo(hamiltonian, table, order, plan=plan)
    report = None
    if compress and mpo.bond_dimension > 1:
        mpo, report = row_compress(mpo, tol=qr_tol)
        if mpo.bond_dimension >= BULK_FROM:
            mpo, report.bulk_residual = bulk_compress(mpo, qr_tol)
            report.bond_dimension_bulk = mpo.bond_dimension
    return mpo, report


def _steps(config, dt):
    """The ``(s0, s1)`` of each step of `dt` of an evolution of `config`.

    Raises `ValueError` for a run that `evolve_state` cannot make: an
    unknown method, a `d_max` other than None or an int ``>= 1``, a
    `qr_tol` outside ``[0, 1)``, a non-finite end of the interval, or
    steps that do not run forward or do not divide it.
    """
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}")
    check_d_max(config.d_max)
    if not 0 <= config.qr_tol < 1:
        raise ValueError(f"qr_tol must lie in [0, 1), got {config.qr_tol!r}")
    check_interval(config.t0, config.t_final)
    span = config.t_final - config.t0
    if dt <= 0 or span < 0:
        raise ValueError("steps run forward: need dt > 0 and t_final >= t0")
    n_steps = round(span / dt)
    if abs(n_steps * dt - span) > 1e-12:
        raise ValueError(f"dt = {dt!r} must divide t_final - t0 = {span!r}")
    return [(config.t0 + i * dt, config.t0 + (i + 1) * dt)
            for i in range(n_steps)]


def _raise_to(stats, **values):
    """Raise each named entry of `stats` to at least the given value."""
    for key, value in values.items():
        stats[key] = max(stats[key], value)


def evolve_state(hamiltonian, psi, config, order, dt, cache=None):
    """Evolve `psi` over ``[t0, t_final]`` in uniform forward steps of `dt`.

    A given `cache` must have been made for `hamiltonian`.  Steps in the
    same congruence class of `cache` share one compressed MPO of `order`,
    built at the first of them and stored for this call only, from its
    `step_table` and the cache's step plan of `order`.  Returns
    ``(psi_out, stats)``.  `stats` holds every `ErrorRecord` field after
    `epsilon` but `seed`, under its name and with its meaning there, and
    `tables_computed`, the number of tables computed for this call (a
    shared `cache` may serve tables an earlier call computed).  A run
    `_steps` rejects raises `ValueError` before any step.
    """
    steps = _steps(config, dt)
    if cache is None:
        cache = BracketCache(hamiltonian, order=order, intervals=steps)
    elif cache.hamiltonian is not hamiltonian:
        raise ValueError("the bracket cache was made for another Hamiltonian")
    computed_before = cache.computed
    plan = cache.plan(order)
    plan_before = plan.plan_s
    step_mpos = {}
    stats = {"mpo_bond_dim": 0, "mps_bond_dim": psi.max_bond,
             "mpo_bond_before": 0, "fold_residual": 0.0,
             "bulk_residual": 0.0, "discarded_weight": 0.0, "bracket_s": 0.0,
             "build_s": 0.0, "apply_s": 0.0, "mpo_blocks": 0}
    t_start = time.perf_counter()
    for s0, s1 in steps:
        key = cache.key(s0, s1)
        mpo = step_mpos.get(key)
        if mpo is None:
            start = time.perf_counter()
            table = step_table(cache, config.method, s0, s1, order)
            stats["bracket_s"] += time.perf_counter() - start
            start = time.perf_counter()
            mpo, report = build_step_mpo(hamiltonian, table, order,
                                         qr_tol=config.qr_tol, plan=plan)
            stats["build_s"] += time.perf_counter() - start
            step_mpos[key] = mpo
            _raise_to(stats, mpo_blocks=mpo.n_blocks,
                      mpo_bond_before=mpo.bond_dimension)
            if report is not None:
                _raise_to(stats, mpo_bond_before=report.bond_dimension_before,
                          fold_residual=report.fold_residual,
                          bulk_residual=report.bulk_residual)
        start = time.perf_counter()
        psi, disc = apply_mpo(mpo, psi, d_max=config.d_max)
        stats["apply_s"] += time.perf_counter() - start
        stats["discarded_weight"] += disc
        _raise_to(stats, mpo_bond_dim=mpo.bond_dimension,
                  mps_bond_dim=psi.max_bond)
    stats.update(
        wall_time_per_step=(time.perf_counter() - t_start)
        / max(len(steps), 1),
        n_steps=len(steps), mpo_builds=len(step_mpos),
        plan_s=plan.plan_s - plan_before,
        tables_computed=cache.computed - computed_before)
    return psi, stats


def initial_state(config, d=2):
    """The sweep's initial state on `config.n_sites` sites of dimension
    `d`: level 0 on every site at config seed 0, else a product state
    drawn from the seed."""
    if config.seed:
        return FiniteMPS.random_product(config.n_sites, d, rng=config.seed)
    return FiniteMPS.all_up(config.n_sites, d)


EPSILON_DENSE_CAP = 4096  # largest state `_epsilon_stable` compares densely


def _epsilon_stable(psi, reference):
    """Trace-distance error, accurate below the overlap's rounding floor.

    ``sqrt(1 - |<a|b>|^2)`` cancels catastrophically once the states agree
    to ~1e-8; the phase-aligned difference norm delta gives the same
    quantity as ``delta * sqrt(1 - delta^2 / 4)`` with full precision.
    `reference` is an MPS or a dense state vector.  Against a vector, or
    up to `EPSILON_DENSE_CAP` amplitudes, delta comes from the dense
    vectors; above it, against an MPS, from the difference MPS
    (`trace_distance_error`).
    """
    if isinstance(reference, FiniteMPS):
        if psi.d ** psi.n_sites > EPSILON_DENSE_CAP:
            return trace_distance_error(psi, reference)
        reference = reference.to_dense()
    a = psi.to_dense()
    a = a / np.linalg.norm(a)
    b = reference / np.linalg.norm(reference)
    ov = np.vdot(b, a)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    delta = np.linalg.norm(a - phase * b)
    return float(delta * math.sqrt(max(0.0, 1.0 - 0.25 * delta ** 2)))


def run_benchmark(hamiltonian, config):
    """Error records for every (order, dt) pair of the config's sweep.

    One evolution per (order, dt), in record order.  The sweep shares one
    `BracketCache` at the top order it reads, listing every step of every
    dt, so the first evolution computes every table of the sweep in one
    `BracketTable.compute` call, and its `bracket_s` carries all of that
    time.  Every (order, dt) pair
    is checked before the first evolution (see `_steps`), and so are
    the seed of the initial state, an int of at least 0, and the state
    size and `oracle_substeps` of the RK4 reference, unless the sweep is
    self-referenced (see `evolve.check_oracle`).
    """
    orders, dts = config.orders, config.dts
    if not (orders and dts):
        raise ValueError("a sweep needs at least one order and one dt")
    seed = config.seed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    steps = [step for dt in dts for step in _steps(config, dt)]
    if not config.self_reference:
        check_oracle(hamiltonian.d ** config.n_sites, config.oracle_substeps)
    psi0 = initial_state(config, hamiltonian.d)
    cache = BracketCache(hamiltonian, order=max(orders), intervals=steps)
    evolved = {}
    for order in orders:
        for dt in dts:
            psi, stats = evolve_state(hamiltonian, psi0, config,
                                      order=order, dt=dt, cache=cache)
            evolved[(order, dt)] = (psi, stats)
    if config.self_reference:
        reference = evolved[max(orders), min(dts)][0]
    else:
        reference = exact_evolve(hamiltonian, psi0.to_dense(), config.t0,
                                 config.t_final,
                                 substeps=config.oracle_substeps)
    records = []
    for order in orders:
        for dt in dts:
            psi, stats = evolved[(order, dt)]
            eps = _epsilon_stable(psi, reference)
            records.append(ErrorRecord(
                config.method, order, dt, eps, seed=config.seed,
                **{k: v for k, v in stats.items() if k != "tables_computed"}))
    return records


def records_to_csv(records, seed=0):
    """CSV text of `records`: a ``# seed=`` line, `CSV_COLUMNS`, a row each."""
    buf = io.StringIO()
    buf.write(f"# seed={seed}\n")
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        row = [(getattr(r, f.name), f.metadata.get("fmt")) for f in _WRITTEN]
        writer.writerow([v if fmt is None else format(v, fmt)
                         for v, fmt in row])
    return buf.getvalue()


EPS_FLOOR = 1e-11  # an error at or below it is the reference's own floor
MIN_RATIO = 1.4    # least shrink of the error per halving of dt


def prune_plateau(dts, epsilons):
    """Keep the pre-plateau points of an error-vs-step-size curve.

    Walking from the largest step down, points are kept while each halving
    of dt still shrinks the error by at least ``MIN_RATIO ** halvings``
    and stays above `EPS_FLOOR`; once the curve flattens
    (reference-accuracy floor) or turns up, the tail is cut.
    """
    pts = sorted(zip(dts, epsilons), key=lambda p: -p[0])
    kept = [pts[0]]
    for prev, cur in zip(pts, pts[1:]):
        if cur[1] <= EPS_FLOOR:
            break
        halvings = math.log2(prev[0] / cur[0])
        if prev[1] / cur[1] < MIN_RATIO ** halvings:
            break
        kept.append(cur)
    return kept


def _order_fits(records):
    """``{order: (slope, intercept, records)}`` of each order's errors.

    The line is the least-squares fit of ``log(epsilon)`` against
    ``log(dt)`` over the order's pre-plateau points (`prune_plateau`),
    taken in ascending dt; the records are the order's, by ascending dt.
    An order with a non-finite error, or with fewer than two pre-plateau
    points, raises `ValueError`.
    """
    by_order = {}
    for r in records:
        by_order.setdefault(r.order, []).append(r)
    fits = {}
    for order, rs in by_order.items():
        rs = sorted(rs, key=lambda r: r.dt)
        if not all(math.isfinite(r.epsilon) for r in rs):
            raise ValueError(f"order {order}: non-finite error, so no fit")
        pts = prune_plateau([r.dt for r in rs], [r.epsilon for r in rs])[::-1]
        if len(pts) < 2:
            raise ValueError(f"order {order}: fewer than two errors before "
                             "the plateau, so no fit")
        slope, intercept = np.polyfit(np.log([p[0] for p in pts]),
                                      np.log([p[1] for p in pts]), 1)
        fits[order] = (slope, intercept, rs)
    return fits


def order_slopes(records):
    """Per-order log-log slopes of a benchmark record list (`_order_fits`)."""
    return {order: float(slope)
            for order, (slope, _, _) in _order_fits(records).items()}


def runtime_at_accuracy(records, target_eps, span=1.0):
    """Estimated total runtime ``N_steps * dt_av`` per order at fixed error.

    Extrapolates each order's error fit (`_order_fits`) to the step size
    that reaches `target_eps` and multiplies the implied step count by the
    measured average per-step wall time, less the bracket-table time.
    A sweep computes every interval's table once, in its first evolution,
    so the per-step cost of each order is taken
    as ``wall_time_per_step - bracket_s / n_steps``, averaged over all its
    records.  An order without a fit raises `ValueError`.
    """
    out = {}
    for order, (slope, intercept, rs) in _order_fits(records).items():
        dt_needed = math.exp((math.log(target_eps) - intercept) / slope)
        dt_av = float(np.mean([r.wall_time_per_step - r.bracket_s / r.n_steps
                               for r in rs]))
        out[order] = span / dt_needed * dt_av
    return out
