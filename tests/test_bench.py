import dataclasses
import importlib.util
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import coo_digest, count_compute_calls, count_tables, \
    numpy_factorisations, per_interval_table, table_bits, \
    weighted_hamiltonian

from dysonmpo import bench, compression, extensive
from dysonmpo.bench import (BracketCache, ErrorRecord, EvolutionConfig,
                            build_step_mpo, evolve_state, initial_state,
                            order_slopes, prune_plateau, records_to_csv,
                            run_benchmark, runtime_at_accuracy, step_table)
from dysonmpo.brackets import BracketTable
from dysonmpo.driving import Channel, ConstDriving, ExpDriving, \
    PolyDriving, TimeDependentHamiltonian, TrigDriving
from dysonmpo.dyson import magnus_evolution
from dysonmpo.fdmpo import from_terms
from dysonmpo.models import modulated_ising, modulated_xxz
from dysonmpo.mps import FiniteMPS, apply_mpo, trace_distance_error
from dysonmpo.spin import SX
from dysonmpo.taylor import taylor_mpo


def test_smoke_run_error_decreases():
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, orders=(1,), dts=(0.25, 0.125),
                             oracle_substeps=500, d_max=8)
    records = run_benchmark(ham, config)
    eps = {r.dt: r.epsilon for r in records}
    assert 0 < eps[0.125] < eps[0.25] < 1


def test_magnus_step_compression_order_accuracy():
    # the Magnus MPO is the Dyson plan under the brackets, which are the
    # word coefficients of exp(Omega); the change row compression makes
    # must be O(dt^(N+1)) like the Dyson one
    ham = modulated_ising()
    channels = [(c.name, c.driving) for c in ham.channels]
    order, n = 2, 4
    diffs = []
    for dt in (0.1, 0.05, 0.025):
        tab = BracketTable.compute(channels, [0.0], [dt], order)[0]
        [(w, none)] = build_step_mpo(ham, [tab], order, qr_tol=1e-12,
                                     compress=False)
        [(wc, report)] = build_step_mpo(ham, [tab], order, qr_tol=1e-12)
        assert none is None
        assert report.bond_dimension_before == w.bond_dimension
        assert report.bond_dimension_after == wc.bond_dimension
        assert report.bond_dimension_bulk == wc.bond_dimension
        assert report.bulk_residual == 0.0
        assert wc.bond_dimension < w.bond_dimension
        diffs.append(np.linalg.norm(wc.to_dense(n) - w.to_dense(n), 2))
    for d1, d2 in zip(diffs, diffs[1:]):
        assert d1 / d2 > 0.7 * 2 ** (order + 1)


def test_magnus_sweep_keeps_the_order_slopes(criterion1_sweep):
    # criterion 1's sweep with Magnus steps.  Each Magnus step MPO is
    # bitwise the Dyson step the sweep built, under the same table and
    # plan, so a Magnus sweep would make the Dyson records
    assert len(criterion1_sweep.steps) == 4 * 496
    for (ham, table, order), kwargs, digest in criterion1_sweep.steps:
        mpo = magnus_evolution(ham, table, order, plan=kwargs["plan"])
        assert mpo.params["brackets"] is table
        assert mpo.params["plan"] is kwargs["plan"]
        assert coo_digest(mpo) == digest
    slopes = order_slopes(criterion1_sweep.records)
    assert all(abs(slopes[n] - n) <= 0.3 for n in (1, 2, 3, 4)), slopes


def test_dt_must_divide_interval():
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, dts=(0.3,), orders=(1,))
    with pytest.raises(ValueError):
        run_benchmark(ham, config)


@pytest.mark.parametrize("empty", [{"orders": ()}, {"dts": ()}])
def test_an_empty_sweep_is_rejected_before_the_oracle(empty, monkeypatch):
    calls = _record_evolutions(monkeypatch)
    config = dataclasses.replace(_four_site_sweep(), **empty)
    with pytest.raises(ValueError, match="at least one order and one dt"):
        run_benchmark(modulated_ising(), config)
    assert calls == []


@pytest.mark.parametrize("seed", [-1, -7, np.int64(-2), 1.5, True])
def test_a_bad_seed_is_rejected_before_any_evolution(seed, monkeypatch):
    # named where it enters, not by numpy's generator in initial_state
    calls = _record_evolutions(monkeypatch)
    config = dataclasses.replace(_four_site_sweep(), seed=seed)
    with pytest.raises(ValueError, match=f"^seed must be an int >= 0, got "
                                         f"{re.escape(repr(seed))}$"):
        run_benchmark(modulated_ising(), config)
    assert calls == []


@pytest.mark.parametrize("field, value", [
    ("d_max", 0), ("d_max", -2), ("d_max", 2.5), ("d_max", True),
    ("d_max", np.float64(4.0)), ("qr_tol", 1.5), ("qr_tol", 1.0),
    ("qr_tol", -1e-3), ("qr_tol", math.nan)])
def test_bad_d_max_and_qr_tol_raise_before_any_build(field, value,
                                                     monkeypatch):
    # checked where they enter: no table and no MPO is built first
    builds = []
    original = bench.build_step_mpo

    def counting(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, "build_step_mpo", counting)
    tables = count_tables(monkeypatch)
    config = EvolutionConfig(n_sites=6, orders=(3,), dts=(0.25,),
                             t_final=0.5, seed=2, **{field: value})
    named = f"{field}.* got {re.escape(repr(value))}"
    with pytest.raises(ValueError, match=named):
        run_benchmark(modulated_xxz(), config)
    with pytest.raises(ValueError, match=named):
        evolve_state(modulated_xxz(), initial_state(config), config, 3, 0.25)
    assert builds == [] and tables == []


@pytest.mark.parametrize("d_max", [None, 3, np.int64(3)])
def test_int_d_max_is_accepted(d_max):
    config = EvolutionConfig(n_sites=4, orders=(2,), dts=(0.25,),
                             t_final=0.5, d_max=d_max, oracle_substeps=200,
                             seed=2)
    records = run_benchmark(modulated_xxz(), config)
    assert records[0].mps_bond_dim <= (4 if d_max is None else 3)


@pytest.mark.parametrize("t0, t_final, dt", [(0.0, 1.0, -0.25),
                                              (0.0, 1.0, 0.0),
                                              (1.0, 0.0, 0.25),
                                              (1.0, 0.0, -0.25)])
def test_backward_steps_are_rejected(t0, t_final, dt):
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, t0=t0, t_final=t_final)
    with pytest.raises(ValueError, match="forward"):
        evolve_state(ham, initial_state(config), config, 1, dt)


@pytest.mark.parametrize("t0, t_final, named", [(math.nan, 1.0, "t0 = nan"),
                                                (0.0, math.inf, "t = inf"),
                                                (0.0, math.nan, "t = nan"),
                                                (-math.inf, 0.0, "t0 = -inf")])
def test_non_finite_interval_ends_are_rejected(t0, t_final, named):
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, t0=t0, t_final=t_final)
    with pytest.raises(ValueError, match=f"interval end {named} is not"):
        evolve_state(ham, initial_state(config), config, 1, 0.25)
    cache = BracketCache(ham)
    with pytest.raises(ValueError, match=f"interval end {named} is not"):
        cache.table(t0, t_final, 2)
    assert cache.computed == 0


def test_empty_interval_takes_no_step():
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, t0=0.5, t_final=0.5)
    psi0 = initial_state(config)
    psi, stats = evolve_state(ham, psi0, config, 1, 0.25)
    assert stats["n_steps"] == stats["mpo_builds"] == 0
    assert all(np.array_equal(a, b) for a, b in zip(psi.tensors,
                                                    psi0.tensors))


def test_evolve_state_rejects_a_cache_made_for_another_run():
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, t_final=0.5)
    cache = BracketCache(modulated_xxz())
    with pytest.raises(ValueError, match="cache"):
        evolve_state(ham, initial_state(config), config, 2, 0.25,
                     cache=cache)
    assert cache.computed == 0


def test_bracket_cache_reuses_congruent_intervals():
    ham = modulated_ising()  # period 1
    cache = BracketCache(ham)
    t1 = cache.table(0.25, 0.375, 2)
    t2 = cache.table(1.25, 1.375, 2)
    assert t2 is t1
    assert len(cache._store) == 1


def test_congruent_steps_read_their_class_table_itself(monkeypatch):
    # period 1: the twelve steps of 0.25 over [0, 3] fall in four classes,
    # each computed once, and every step of a class is served the very
    # table its class MPO was built from
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, t_final=3.0, d_max=8)
    built = []
    original = bench.build_step_mpo

    def recording(hamiltonian, tables, *args, **kwargs):
        built.extend(tables)
        return original(hamiltonian, tables, *args, **kwargs)

    monkeypatch.setattr(bench, "build_step_mpo", recording)
    cache = BracketCache(ham, order=2)
    _, stats = evolve_state(ham, initial_state(config), config, 2, 0.25,
                            cache=cache)
    assert stats["n_steps"] == 12 and stats["mpo_builds"] == len(built) == 4
    assert cache.computed == stats["tables_computed"] == 4
    for i in range(12):
        assert cache.table(i * 0.25, (i + 1) * 0.25, 2) is built[i % 4]
    assert cache.computed == 4


def test_commuting_on_site_model_single_full_period_step():
    # single D-only channel: everything commutes, and the order-4 on-site
    # series at small integrated weight is accurate below 1e-6
    field = from_terms(2, on_site=SX)
    drv = TrigDriving("sin", omega=2 * math.pi, offset=0.1)
    ham = TimeDependentHamiltonian([Channel("x", field, drv)])
    config = EvolutionConfig(n_sites=4, t_final=1.0, dts=(1.0,), orders=(4,),
                             oracle_substeps=2000, d_max=8)
    records = run_benchmark(ham, config)
    assert records[0].epsilon <= 1e-6


def test_self_reference_mode():
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, orders=(1, 2), dts=(0.25, 0.125),
                             d_max=8, self_reference=True)
    records = run_benchmark(ham, config)
    best = [r for r in records if r.order == 2 and r.dt == 0.125][0]
    assert best.epsilon < 1e-12  # reference compared against itself
    worst = [r for r in records if r.order == 1 and r.dt == 0.25][0]
    assert worst.epsilon > best.epsilon


def test_csv_schema():
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, orders=(1,), dts=(0.5,),
                             oracle_substeps=300, d_max=4)
    text = records_to_csv(run_benchmark(ham, config), seed=0)
    lines = text.strip().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1].split(",") == ["method", "order", "dt", "epsilon",
                                   "wall_time_per_step_s", "mpo_bond_dim",
                                   "mps_bond_dim", "seed", "mpo_bond_before",
                                   "fold_residual", "bulk_residual",
                                   "mpo_builds", "discarded_weight",
                                   "bracket_s", "build_s", "apply_s",
                                   "plan_s", "mpo_blocks"]


def test_initial_state_seeded():
    a = initial_state(EvolutionConfig(n_sites=3, seed=11))
    b = initial_state(EvolutionConfig(n_sites=3, seed=11))
    assert abs(abs(a.overlap(b)) - 1.0) < 1e-13
    up = initial_state(EvolutionConfig(n_sites=3, seed=0))
    np.testing.assert_allclose(up.to_dense()[0], 1.0)


def test_self_reference_removes_oracle_plateau():
    # with a deliberately coarse integrator reference the error curve
    # plateaus at the reference accuracy; referencing the most accurate
    # Dyson state instead keeps the scaling going
    ham = modulated_ising()
    dts = (0.25, 0.125, 0.0625, 0.03125)
    coarse = EvolutionConfig(n_sites=4, orders=(3,), dts=dts, d_max=8,
                             oracle_substeps=12)
    against_oracle = run_benchmark(ham, coarse)
    selfref = EvolutionConfig(n_sites=4, orders=(3, 4), dts=dts, d_max=8,
                              self_reference=True)
    against_best = [r for r in run_benchmark(ham, selfref) if r.order == 3]
    eps_oracle = [r.epsilon for r in sorted(against_oracle, key=lambda r: -r.dt)]
    eps_best = [r.epsilon for r in sorted(against_best, key=lambda r: -r.dt)]
    # the coarse-oracle curve flattens at the oracle's own error level
    assert eps_oracle[-2] / eps_oracle[-1] < 3.0
    # the self-referenced curve keeps contracting by ~2^3 per halving
    assert eps_best[-2] / eps_best[-1] > 5.0
    assert abs(order_slopes(against_best)[3] - 3) < 0.6


def test_prune_plateau_cuts_flat_tail():
    dts = [0.2, 0.1, 0.05, 0.025]
    eps = [1e-2, 2.5e-3, 1e-3, 9e-4]  # flattens at the end
    kept = prune_plateau(dts, eps)
    assert [p[0] for p in kept] == [0.2, 0.1, 0.05]


def _records(order, dts, epsilons):
    return [ErrorRecord("dyson", order, dt, eps, 0.01, 2, 2, 0,
                        n_steps=round(1 / dt))
            for dt, eps in zip(dts, epsilons)]


def test_fit_slope_clean_power_law():
    dts = [0.2, 0.1, 0.05, 0.025]
    records = _records(2, dts, [0.3 * dt ** 2 for dt in dts])
    assert abs(order_slopes(records)[2] - 2.0) < 1e-12


@pytest.mark.parametrize("epsilons", [(1e-4, 1e-4, 1e-4),
                                      (1e-4, 2e-4, 4e-4),
                                      (math.nan, 1e-4, 1e-5),
                                      (1e-3, 1e-4, math.nan)],
                         ids=["flat", "rising", "nan-first", "nan-last"])
def test_an_order_without_a_fit_raises(epsilons):
    # a second point counts only when one halving of dt shrinks the error
    # by MIN_RATIO, so a flat or rising curve has no fit; a NaN error
    # would make the fit NaN
    records = _records(1, (0.1, 0.05), (0.1, 0.025))
    records += _records(3, (0.25, 0.125, 0.0625), epsilons)
    for fit in (order_slopes, lambda rs: runtime_at_accuracy(rs, 1e-6)):
        with pytest.raises(ValueError, match="order 3"):
            fit(records)


def test_a_plateau_is_left_out_of_both_fits():
    dts = (0.25, 0.125, 0.0625, 0.03125)
    records = _records(4, dts, (1e-4, 6.25e-6, 3.9e-7, 3.0e-7))
    slope = order_slopes(records)[4]
    assert slope == order_slopes(records[:3])[4]
    assert abs(slope - 4.0) < 0.01
    assert runtime_at_accuracy(records, 1e-8) == pytest.approx(
        runtime_at_accuracy(records[:3], 1e-8), rel=1e-12)


GOLDEN_RECORDS = [
    ErrorRecord(method="dyson", order=4, dt=0.0625,
                epsilon=np.float64(1.2345678901234567e-07),
                wall_time_per_step=0.0012345678901, mpo_bond_dim=np.int64(11),
                mps_bond_dim=np.int64(16), seed=3,
                mpo_bond_before=np.int64(91), fold_residual=2.5e-13,
                bulk_residual=0.0, mpo_builds=4, discarded_weight=1.5e-20,
                bracket_s=1e-4, build_s=0.0025, apply_s=0.0033333333333,
                plan_s=0.0, mpo_blocks=np.int64(42), n_steps=4),
    ErrorRecord(method="taylor", order=1, dt=1 / 3, epsilon=0.1,
                wall_time_per_step=2.0, mpo_bond_dim=3,
                mps_bond_dim=np.int32(2), seed=0, n_steps=3),
]
# fixed text: a change to a column, its order or its format shows here
GOLDEN_CSV = (
    "# seed=7\n"
    "method,order,dt,epsilon,wall_time_per_step_s,mpo_bond_dim,mps_bond_dim,"
    "seed,mpo_bond_before,fold_residual,bulk_residual,mpo_builds,"
    "discarded_weight,bracket_s,build_s,apply_s,plan_s,mpo_blocks\r\n"
    "dyson,4,0.0625,1.23456789012e-07,0.00123457,11,16,3,91,2.5e-13,0,4,"
    "1.5e-20,0.0001,0.0025,0.00333333,0,42\r\n"
    "taylor,1,0.333333333333,0.1,2,3,2,0,0,0,0,0,0,0,0,0,0,0\r\n")


def test_csv_rows_are_byte_identical_to_the_golden_text():
    assert records_to_csv(GOLDEN_RECORDS, seed=7) == GOLDEN_CSV


def test_csv_columns_are_the_record_fields():
    names = [f.name for f in dataclasses.fields(ErrorRecord)]
    assert names[-1] == "n_steps"
    assert bench.CSV_COLUMNS == [
        "wall_time_per_step_s" if n == "wall_time_per_step" else n
        for n in names[:-1]]
    header = records_to_csv([]).splitlines()[1]
    assert header.split(",") == bench.CSV_COLUMNS


def test_order_slopes_and_runtime_estimate():
    class R:
        def __init__(self, order, dt, eps, wall):
            self.order, self.dt, self.epsilon = order, dt, eps
            self.wall_time_per_step = wall
            self.bracket_s, self.n_steps = 0.0, round(1.0 / dt)

    records = [R(1, dt, 0.5 * dt, 0.001) for dt in (0.2, 0.1, 0.05)]
    records += [R(4, dt, 0.5 * dt ** 4, 0.1) for dt in (0.2, 0.1, 0.05)]
    slopes = order_slopes(records)
    assert abs(slopes[1] - 1.0) < 1e-10 and abs(slopes[4] - 4.0) < 1e-10
    runtimes = runtime_at_accuracy(records, 1e-6)
    # high order needs drastically fewer steps at equal accuracy
    assert runtimes[4] < runtimes[1]


def test_discarded_weight_is_summed_over_steps():
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=6, t_final=0.5, orders=(2,),
                             dts=(0.25, 0.125), oracle_substeps=300,
                             d_max=2, seed=3)
    records = run_benchmark(ham, config)
    for r in records:
        assert math.isfinite(r.discarded_weight) and r.discarded_weight >= 0
    cache = BracketCache(ham)
    for r in records:
        psi, manual = initial_state(config), 0.0
        for i in range(round(config.t_final / r.dt)):
            s0, s1 = i * r.dt, (i + 1) * r.dt
            [(mpo, _)] = build_step_mpo(ham, [cache.table(s0, s1, r.order)],
                                        r.order, qr_tol=config.qr_tol)
            psi, disc = apply_mpo(mpo, psi, d_max=config.d_max)
            manual += disc
        assert manual > 0
        assert r.discarded_weight == pytest.approx(manual, rel=1e-12)
    _, stats = evolve_state(ham, initial_state(config), config, order=2,
                            dt=0.25)
    assert stats["discarded_weight"] == records[0].discarded_weight


def _count_compressions(monkeypatch):
    calls = []
    original = bench.row_compress

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, "row_compress", counting)
    return calls


def _build_and_apply_every_step(ham, config, order, dt):
    # each step from its own table of the method and a plan of its own
    cache = BracketCache(ham)
    psi = initial_state(config)
    for i in range(round((config.t_final - config.t0) / dt)):
        s0 = config.t0 + i * dt
        s1 = config.t0 + (i + 1) * dt
        table = step_table(cache, config.method, s0, s1, order)
        [(mpo, _)] = build_step_mpo(ham, [table], order,
                                    qr_tol=config.qr_tol)
        psi, _ = apply_mpo(mpo, psi, d_max=config.d_max)
    return psi


# period 1, order 3 at dt 0.25: twelve steps in four congruence classes
REUSE_STEP = (3, 0.25)


def _reuse_config(method):
    return EvolutionConfig(n_sites=6, t_final=3.0, orders=(REUSE_STEP[0],),
                           dts=(REUSE_STEP[1],), method=method, d_max=8,
                           seed=5)


@pytest.mark.parametrize("method", ["dyson", "taylor"])
def test_congruent_steps_reuse_one_compressed_mpo(method, monkeypatch):
    ham = modulated_ising()
    config = _reuse_config(method)
    calls = _count_compressions(monkeypatch)
    psi, stats = evolve_state(ham, initial_state(config), config,
                              *REUSE_STEP)
    assert stats["n_steps"] == 12
    assert stats["mpo_builds"] == len(calls) == 4
    ref = _build_and_apply_every_step(ham, config, *REUSE_STEP)
    assert len(calls) == 4 + 12
    if method == "taylor":
        # the frozen midpoint driving of congruent steps agrees to rounding
        assert np.abs(psi.to_dense() - ref.to_dense()).max() <= 1e-14
    else:
        assert all(np.array_equal(a, b)
                   for a, b in zip(psi.tensors, ref.tensors))


def test_aperiodic_steps_are_all_built(monkeypatch):
    ham = modulated_ising()
    ham = TimeDependentHamiltonian([
        ham.channels[0],
        Channel("x", ham.channels[1].operator,
                ExpDriving(rate=-0.5, amplitude=1.0))])
    assert ham.common_period() is None
    config = _reuse_config("dyson")
    calls = _count_compressions(monkeypatch)
    _, stats = evolve_state(ham, initial_state(config), config, *REUSE_STEP)
    assert stats["mpo_builds"] == stats["n_steps"] == len(calls) == 12


@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_bracket_cache_serves_lower_orders_from_top_table(model):
    # xxz: its constant channel takes the closed form
    ham = model()
    channels = [(c.name, c.driving) for c in ham.channels]
    cache = BracketCache(ham, order=4)
    for order in (1, 2, 3):
        direct = BracketTable.compute(channels, [0.25], [0.375], order)[0]
        # the congruent interval is served the stored table itself
        stored, served = (cache.table(t0, t0 + 0.125, order)
                          for t0 in (0.25, 1.25))
        assert served is stored and served.max_order == 4
        assert all(served.value(key) == value
                   for key, value in direct.values.items())
    assert cache.computed == len(cache._store) == 1


def test_bracket_cache_recomputes_above_stored_order():
    ham = modulated_ising()
    channels = [(c.name, c.driving) for c in ham.channels]
    cache = BracketCache(ham, order=2)
    assert cache.table(0.25, 0.375, 1).max_order == 2
    high = cache.table(0.25, 0.375, 3)
    assert high.max_order == 3 and cache.computed == 2
    assert len(cache._store) == 1
    direct = BracketTable.compute(channels, [0.25], [0.375], 3)[0]
    assert high.values == direct.values
    # the replacement serves every order up to its own
    assert cache.table(1.25, 1.375, 2).values == direct.values
    assert cache.computed == 2


def _assert_static_drive_builds_once(driving, monkeypatch):
    ising = modulated_ising()
    ham = TimeDependentHamiltonian([
        Channel(c.name, c.operator, driving) for c in ising.channels])
    assert ham.common_period() == math.inf
    config = EvolutionConfig(n_sites=6, t_final=1.0, d_max=8, seed=5)
    tables = count_tables(monkeypatch)
    psi, stats = evolve_state(ham, initial_state(config), config, 3, 0.125)
    assert stats["n_steps"] == 8
    assert stats["mpo_builds"] == stats["tables_computed"] == len(tables) == 1
    # every step built from its own table: dyadic steps make the
    # closed-form brackets, hence the MPOs, identical
    channels = [(c.name, c.driving) for c in ham.channels]
    ref = initial_state(config)
    for i in range(8):
        s0, s1 = i * 0.125, (i + 1) * 0.125
        table = BracketTable.compute(channels, [s0], [s1], 3)[0]
        [(mpo, _)] = build_step_mpo(ham, [table], 3, qr_tol=config.qr_tol)
        ref, _ = apply_mpo(mpo, ref, d_max=config.d_max)
    assert all(np.array_equal(a, b) for a, b in zip(psi.tensors, ref.tensors))


def test_static_drive_keys_on_step_length(monkeypatch):
    _assert_static_drive_builds_once(ConstDriving(1.0), monkeypatch)


def test_static_exp_drive_keys_on_step_length(monkeypatch):
    _assert_static_drive_builds_once(ExpDriving(rate=0, amplitude=0.8),
                                     monkeypatch)


def test_constant_and_imaginary_rate_drives_are_periodic():
    assert ExpDriving(rate=0).period == math.inf
    assert PolyDriving(coeffs=(2.0, 0.0)).period == math.inf
    assert ExpDriving(rate=-4j).period == pytest.approx(math.pi / 2)
    assert ExpDriving(rate=-0.5).period is None
    assert PolyDriving(coeffs=(0.0, 1.0)).period is None
    ising = modulated_ising()
    ham = TimeDependentHamiltonian([
        ising.channels[0],
        Channel("x", ising.channels[1].operator,
                ExpDriving(rate=4j * math.pi))])
    assert ham.common_period() == pytest.approx(1.0)


def test_fractional_period_ratio_shares_steps_over_the_common_period(
        monkeypatch):
    # periods 1 and 1.5 repeat together every 3: the twelve steps of 0.5
    # over [0, 6] fall in six congruence classes
    ising = modulated_ising()
    ham = TimeDependentHamiltonian([
        Channel("zz", ising.channels[0].operator,
                TrigDriving("sin", omega=2 * math.pi)),
        Channel("x", ising.channels[1].operator,
                TrigDriving("cos", omega=4 * math.pi / 3))])
    config = EvolutionConfig(n_sites=4, t_final=6.0, d_max=8)
    tables = count_tables(monkeypatch)
    _, stats = evolve_state(ham, initial_state(config), config, 2, 0.5)
    assert stats["n_steps"] == 12
    assert stats["mpo_builds"] == stats["tables_computed"] == len(tables) == 6


def test_build_step_mpo_takes_the_table_and_no_method():
    # calls in the old forms, with the method or the interval before the
    # table, are refused
    ham = modulated_ising()
    table = BracketCache(ham).table(0.0, 0.1, 2)
    with pytest.raises(TypeError):
        build_step_mpo(ham, 0.0, 0.1, 2, "dyson", table, 1e-12)
    with pytest.raises(TypeError):
        build_step_mpo(ham, 0.0, 0.1, 2, table, qr_tol=1e-12)


def test_step_table_rejects_an_unknown_method():
    # the one place past `_steps` that reads the method
    with pytest.raises(ValueError, match="^unknown method 'foo'$"):
        step_table(BracketCache(modulated_ising()), "foo", 0.0, 0.1, 2)


@pytest.mark.parametrize("method,orders", [("dyson", [3] * 4),
                                           ("taylor", [])])
def test_tables_computed_at_the_order_the_method_reads(method, orders,
                                                       monkeypatch):
    ham = modulated_ising()
    config = _reuse_config(method)
    tables = count_tables(monkeypatch)
    _, stats = evolve_state(ham, initial_state(config), config, *REUSE_STEP)
    assert tables == orders
    assert stats["tables_computed"] == len(orders)
    # the step table holds every word the step reads; a Dyson step is
    # served its class's table itself, and a frozen Taylor table is
    # computed from no bracket
    cache = BracketCache(ham)
    table = step_table(cache, method, 0.25, 0.5, 3)
    assert table.max_order == 3
    assert cache.computed == (method == "dyson")
    assert (table is cache.table(1.25, 1.5, 3)) == (method == "dyson")


def _record_evolutions(monkeypatch):
    """``(order, dt, stats)`` of every `evolve_state` call, in call order."""
    calls = []
    original = bench.evolve_state

    def recording(hamiltonian, psi, config, order, dt, cache=None):
        psi, stats = original(hamiltonian, psi, config, order, dt,
                              cache=cache)
        calls.append((order, dt, stats))
        return psi, stats

    monkeypatch.setattr(bench, "evolve_state", recording)
    return calls


def test_run_benchmark_evolves_in_record_order(monkeypatch):
    # perfbench pairs the speed probe taken before each evolve_state call
    # with the record at the same position
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, orders=(1, 3, 2), dts=(0.25, 0.125),
                             t_final=0.5, oracle_substeps=300, d_max=8)
    calls = _record_evolutions(monkeypatch)
    records = run_benchmark(ham, config)
    assert [(order, dt) for order, dt, _ in calls] == \
        [(r.order, r.dt) for r in records]


@pytest.mark.parametrize("change, message", [
    ({"n_sites": 15}, "STATE_CAP"),
    ({"oracle_substeps": 0}, "substeps must be at least 1"),
    ({"oracle_substeps": 1000.0}, "an int .* got 1000.0"),
    ({"oracle_substeps": True}, "an int .* got True")])
def test_run_benchmark_checks_the_oracle_before_evolving(change, message,
                                                         monkeypatch):
    config = dataclasses.replace(_four_site_sweep(), **change)
    calls = _record_evolutions(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_benchmark(modulated_ising(), config)
    assert calls == []


def test_self_referenced_sweep_needs_no_oracle():
    config = EvolutionConfig(n_sites=4, orders=(1, 2), dts=(0.25, 0.125),
                             t_final=0.5, d_max=8, oracle_substeps=0,
                             self_reference=True)
    records = run_benchmark(modulated_ising(), config)
    assert len(records) == 4


def test_sweep_computes_one_table_per_interval(monkeypatch):
    ham = modulated_ising()  # period 1: [0, 0.5] holds 2 + 4 intervals
    config = EvolutionConfig(n_sites=4, orders=(1, 2, 3, 4),
                             dts=(0.25, 0.125), t_final=0.5,
                             oracle_substeps=300, d_max=8)
    tables, passes = count_compute_calls(monkeypatch)
    calls = _record_evolutions(monkeypatch)
    records = run_benchmark(ham, config)
    assert tables == [4] * 6 and passes == [6]
    assert sum(stats["tables_computed"] for _, _, stats in calls) == 6
    for i, (r, (_, _, stats)) in enumerate(zip(records, calls)):
        # the first evolution computes every interval of the sweep
        assert stats["tables_computed"] == (6 if i == 0 else 0)
        assert r.bracket_s == stats["bracket_s"] >= 0


def test_sweep_makes_one_compute_call(monkeypatch):
    # period 1 over [0, 1.5]: steps of 0.5 and 0.25 fall in 2 + 4 classes,
    # and the steps past t = 1 are congruent to earlier ones
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, orders=(2, 3), dts=(0.5, 0.25),
                             t_final=1.5, oracle_substeps=300, d_max=8)
    tables, passes = count_compute_calls(monkeypatch)
    requests = []
    original = BracketCache.table

    def counting(cache, t0, t1, order):
        requests.append((t0, t1, order))
        return original(cache, t0, t1, order)

    monkeypatch.setattr(BracketCache, "table", counting)
    records = run_benchmark(ham, config)
    assert passes == [6] and tables == [3] * 6
    # each evolution asks once per class, and only the first misses
    assert len(requests) == 2 * 6
    assert [r.mpo_builds for r in records] == [2, 4, 2, 4]


def test_listed_intervals_compute_in_one_call(monkeypatch):
    ham = modulated_ising()  # period 1
    channels = [(c.name, c.driving) for c in ham.channels]
    steps = [(0.0, 0.25), (0.25, 0.5), (1.0, 1.25), (0.5, 0.75)]
    cache = BracketCache(ham, order=4, intervals=steps)
    tables, passes = count_compute_calls(monkeypatch)
    first = cache.table(0.25, 0.5, 2)
    # one call at the cache's order: the request and each listed class
    # on its first listed interval, the congruent (1.0, 1.25) left out
    assert passes == [3] and tables == [4] * 3
    assert first.max_order == 4 and cache.computed == 3
    for t0, t1 in [(0.0, 0.25), (1.0, 1.25), (0.5, 0.75), (1.5, 1.75)]:
        for order in (1, 4):
            served = cache.table(t0, t1, order)
            assert served is cache._store[cache.key(t0, t1)]
            direct = per_interval_table(channels, t0 % 1.0, t1 - t0 // 1.0,
                                        4)
            assert table_bits(served) == table_bits(direct)
    assert passes == [3]
    # a class that no listed interval holds computes alone
    cache.table(0.1, 0.2, 3)
    assert passes == [3, 1] and cache.computed == 4


def _count_powers(monkeypatch):
    """The Hamiltonian and order of every power built."""
    built = []
    original = extensive._power

    def counting(hamiltonian, n):
        built.append((hamiltonian, n))
        return original(hamiltonian, n)

    monkeypatch.setattr(extensive, "_power", counting)
    return built


def _four_site_sweep(**kwargs):
    # [0, 0.5] of period 1: 2 + 4 distinct steps per order
    return EvolutionConfig(n_sites=4, orders=(1, 2, 3, 4),
                           dts=(0.25, 0.125), t_final=0.5,
                           oracle_substeps=300, d_max=8,
                           **kwargs)


def test_sweep_builds_the_power_once_per_order(monkeypatch):
    ham = modulated_ising()
    built = _count_powers(monkeypatch)
    calls = _record_evolutions(monkeypatch)
    run_benchmark(ham, _four_site_sweep())
    assert sum(stats["mpo_builds"] for _, _, stats in calls) == 24
    assert [n for _, n in built] == [1, 2, 3, 4]


def test_taylor_sweep_builds_the_power_once_per_order(monkeypatch):
    # frozen tables weight the shared plans, and compute no bracket
    built = _count_powers(monkeypatch)
    tables = count_tables(monkeypatch)
    calls = _record_evolutions(monkeypatch)
    records = run_benchmark(modulated_ising(),
                            _four_site_sweep(method="taylor"))
    assert sum(stats["mpo_builds"] for _, _, stats in calls) == 24
    assert [n for _, n in built] == [1, 2, 3, 4]
    assert tables == []
    assert all(r.method == "taylor" for r in records)


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_taylor_step_is_the_series_of_the_midpoint_hamiltonian(model, order):
    ham = model()
    t0, t1 = 0.3, 0.55
    table = step_table(BracketCache(ham), "taylor", t0, t1, order)
    [(w, report)] = build_step_mpo(ham, [table], order, qr_tol=1e-12,
                                   compress=False)
    assert report is None and w.params["brackets"] is table
    tm = 0.5 * (t0 + t1)
    frozen = weighted_hamiltonian(
        ham, lambda c: complex(np.asarray(c.driving(tm)).item()))
    ref = taylor_mpo(frozen, -1j * (t1 - t0), order).to_dense(5)
    assert np.linalg.norm(w.to_dense(5) - ref) <= \
        1e-14 * np.linalg.norm(ref)


def test_plans_are_not_shared_between_sweeps(monkeypatch):
    built = _count_powers(monkeypatch)
    first, second = modulated_ising(), modulated_ising()
    config = _four_site_sweep()
    run_benchmark(first, config)
    run_benchmark(first, config)
    run_benchmark(second, config)
    assert [n for _, n in built] == [1, 2, 3, 4] * 3
    # each sweep's plans read its own Hamiltonian
    assert [id(h) for h, _ in built] == [id(first)] * 8 + [id(second)] * 4
    # a Taylor sweep builds its own plans too: one power per order
    built.clear()
    run_benchmark(first, _four_site_sweep(method="taylor"))
    assert [n for _, n in built] == [1, 2, 3, 4]


@pytest.mark.parametrize("method", ["dyson", "taylor"])
def test_only_the_first_evolution_of_an_order_builds_its_plan(method):
    # the power and compression plan of an order are built in its first
    # evolution, as part of build_s; later ones of the sweep reuse them
    records = run_benchmark(modulated_ising(), _four_site_sweep(
        method=method))
    rows = records_to_csv(records).strip().splitlines()[2:]
    assert [r.dt for r in records] == [0.25, 0.125] * 4
    for r, row in zip(records, rows):
        if r.dt == 0.25:
            assert 0 < r.plan_s < r.build_s
        else:
            assert r.plan_s == 0.0
        fields = dict(zip(bench.CSV_COLUMNS, row.split(",")))
        assert float(fields["plan_s"]) == pytest.approx(r.plan_s, rel=1e-5)


def test_evolve_state_reports_the_compression(monkeypatch):
    ham = modulated_ising()
    config = _reuse_config("dyson")
    reports, mpos = [], []
    original = bench.build_step_mpo

    def recording(*args, **kwargs):
        built = original(*args, **kwargs)
        for mpo, report in built:
            reports.append(report)
            mpos.append(mpo)
        return built

    monkeypatch.setattr(bench, "build_step_mpo", recording)
    _, stats = evolve_state(ham, initial_state(config), config, *REUSE_STEP)
    assert len(reports) == stats["mpo_builds"] == 4
    assert stats["mpo_bond_before"] == max(
        r.bond_dimension_before for r in reports) == 26
    assert stats["mpo_bond_dim"] < stats["mpo_bond_before"]
    assert stats["fold_residual"] == max(r.fold_residual for r in reports)
    assert 0 <= stats["fold_residual"] < 1e-8
    # the most nonzero (left, right) blocks of a step MPO
    blocks = [int(m.site_tensor().any(axis=(2, 3)).sum()) for m in mpos]
    assert stats["mpo_blocks"] == max(blocks) > 0


def test_records_carry_the_evolution_stats():
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, orders=(2, 3), dts=(0.5, 0.25),
                             t_final=2.0, oracle_substeps=600, d_max=4)
    records = run_benchmark(ham, config)
    rows = records_to_csv(records).strip().splitlines()[2:]
    for r, row in zip(records, rows):
        _, stats = evolve_state(ham, initial_state(config), config,
                                order=r.order, dt=r.dt)
        assert r.mpo_bond_before == stats["mpo_bond_before"] > r.mpo_bond_dim
        assert r.fold_residual == stats["fold_residual"]
        # two periods of the drive: the second reuses the first's MPOs
        assert r.mpo_builds == stats["mpo_builds"] == r.n_steps // 2
        assert r.mpo_blocks == stats["mpo_blocks"] > r.mpo_bond_dim
        fields = dict(zip(bench.CSV_COLUMNS, row.split(",")))
        assert int(fields["mpo_bond_before"]) == r.mpo_bond_before
        assert int(fields["mpo_builds"]) == r.mpo_builds
        assert int(fields["mpo_blocks"]) == r.mpo_blocks
        assert row.split(",")[-1] == str(r.mpo_blocks)
        assert float(fields["fold_residual"]) == pytest.approx(
            r.fold_residual, rel=1e-5, abs=0)
        assert float(fields["discarded_weight"]) == pytest.approx(
            r.discarded_weight, rel=1e-5, abs=0)
        assert float(fields["bracket_s"]) == pytest.approx(r.bracket_s,
                                                           rel=1e-5)


def test_records_carry_the_stage_times():
    # tables, builds and applies are timed inside the timed step loop
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, orders=(2, 3), dts=(0.25, 0.125),
                             t_final=0.5, oracle_substeps=300, d_max=4)
    records = run_benchmark(ham, config)
    rows = records_to_csv(records).strip().splitlines()[2:]
    for r, row in zip(records, rows):
        assert r.build_s > 0 and r.apply_s > 0 and r.bracket_s >= 0
        assert (r.bracket_s + r.build_s + r.apply_s
                <= r.n_steps * r.wall_time_per_step)
        fields = dict(zip(bench.CSV_COLUMNS, row.split(",")))
        assert float(fields["build_s"]) == pytest.approx(r.build_s, rel=1e-5)
        assert float(fields["apply_s"]) == pytest.approx(r.apply_s, rel=1e-5)


def test_runtime_at_accuracy_leaves_out_table_time():
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, orders=(1, 2),
                             dts=(0.25, 0.125, 0.0625), t_final=0.25,
                             oracle_substeps=1000, d_max=8)
    records = run_benchmark(ham, config)
    # the order-1 evolutions meet every interval first
    assert all(r.bracket_s > 0 for r in records if r.order == 1)
    assert all(r.n_steps == round(0.25 / r.dt) for r in records)
    estimate = runtime_at_accuracy(records, 1e-6, span=0.25)
    without = [dataclasses.replace(
        r, wall_time_per_step=r.wall_time_per_step - r.bracket_s / r.n_steps,
        bracket_s=0.0) for r in records]
    charged = [dataclasses.replace(r, bracket_s=0.0) for r in records]
    assert estimate == pytest.approx(
        runtime_at_accuracy(without, 1e-6, span=0.25), rel=1e-12)
    assert estimate[1] < runtime_at_accuracy(charged, 1e-6, span=0.25)[1]
    assert estimate[2] <= runtime_at_accuracy(charged, 1e-6, span=0.25)[2]


def test_runtime_at_accuracy_needs_two_points_per_order():
    records = _records(1, (0.2, 0.1), (0.1, 0.05))
    records += _records(2, (0.2, 0.1), (1e-3, 1e-13))
    with pytest.raises(ValueError, match="order 2"):
        runtime_at_accuracy(records, 1e-6)
    assert set(runtime_at_accuracy(records[:2], 1e-6)) == {1}


def _tracer_module():
    """The benchmark's tracer module, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _untimed(records):
    return [{name: getattr(r, name) for name in bench.UNTIMED_FIELDS}
            for r in records]


def test_timed_fields_are_the_wall_clock_times():
    timed = [f.name for f in dataclasses.fields(ErrorRecord)
             if f.name not in bench.UNTIMED_FIELDS]
    assert timed == ["wall_time_per_step", "bracket_s", "build_s", "apply_s",
                     "plan_s"]


@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_records_are_those_of_numpy_and_scipy_factorisations(model,
                                                            monkeypatch):
    # `linalg.qr` and `linalg.svd_truncate_v` are bitwise the numpy and
    # SciPy factorisations, so a sweep through either makes equal records
    config = EvolutionConfig(n_sites=6, orders=(1, 2, 4), dts=(0.25, 0.125),
                             t_final=0.5, oracle_substeps=300, d_max=8,
                             seed=2)
    records = run_benchmark(model(), config)
    numpy_factorisations(monkeypatch)
    assert _untimed(run_benchmark(model(), config)) == _untimed(records)
    assert max(r.discarded_weight for r in records) > 0.0


@pytest.mark.parametrize("method, build", [("dyson", "dyson_mpo"),
                                           ("taylor", "dyson_mpo")])
def test_layer_tracer_sees_every_layer_and_changes_no_record(method, build):
    # the benchmark's tracer wraps names it looks up on `bench`; a sweep
    # must still reach them there, and the wrappers must not change it
    tracer_module = _tracer_module()
    ham = modulated_ising()
    config = EvolutionConfig(n_sites=4, method=method, orders=(1, 2),
                             dts=(0.25, 0.125), t_final=0.5,
                             oracle_substeps=300, d_max=8,
                             seed=2)
    plain = run_benchmark(ham, config)
    tracer = tracer_module.LayerTracer(bench)
    with tracer.installed():
        traced = run_benchmark(ham, config)
    assert _untimed(traced) == _untimed(plain)
    names = {name for _, name, *_ in tracer.spans}
    assert {build, "row_compress", "apply_mpo", "exact_evolve"} <= names
    if method == "dyson":
        layers = {layer for layer, *_ in tracer.spans}
        assert layers == set(tracer_module.LAYERS)
        assert tracer.counts["brackets.computed"] >= 1


def test_benchmark_command_runs_a_traced_sweep():
    # the benchmark looks up `bench` names by hand, in perfbench/run.py and
    # its tracer; one traced sweep of a workload fails on a renamed one
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         "xxz_wide", "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_epsilon_above_the_dense_cap_is_the_dense_formula(monkeypatch):
    # above EPSILON_DENSE_CAP amplitudes an MPS reference is compared
    # through the difference MPS; against its dense vector, through the
    # dense phase-aligned formula; the two agree to rounding
    ham = modulated_ising()
    channels = [(c.name, c.driving) for c in ham.channels]
    psi = FiniteMPS.random_product(13, rng=7)
    assert 2 ** 13 > bench.EPSILON_DENSE_CAP
    calls = []
    monkeypatch.setattr(bench, "trace_distance_error",
                        lambda a, b: calls.append(b) or
                        trace_distance_error(a, b))
    for dt in (1e-6, 1e-3, 0.05, 0.5):
        table = BracketTable.compute(channels, [0.0], [dt], 2)[0]
        [(mpo, _)] = build_step_mpo(ham, [table], 2, qr_tol=1e-12)
        ref, _ = apply_mpo(mpo, psi)
        eps = bench._epsilon_stable(psi, ref)
        assert calls.pop() is ref and not calls
        dense = bench._epsilon_stable(psi, ref.to_dense())
        assert not calls
        assert 1e-6 < dense < 1
        assert abs(eps - dense) <= 1e-14


@pytest.mark.parametrize("qr_tol", [1e-12, 1e-6])
def test_evolve_state_stats_are_those_of_a_stack_of_one_loop(qr_tol):
    # the stacked build of an evolution's classes changes no stat and no
    # bit of the state: the same evolution, each class built alone
    ham = modulated_xxz()
    config = EvolutionConfig(n_sites=6, t_final=1.25, d_max=8, seed=2,
                             qr_tol=qr_tol)
    psi, stats = evolve_state(ham, initial_state(config), config, 4, 0.125)
    cache = BracketCache(ham)
    plan = cache.plan(4)
    ref, built = initial_state(config), {}
    expected = dict.fromkeys(["mpo_bond_dim", "mpo_bond_before",
                              "fold_residual", "bulk_residual",
                              "discarded_weight", "mpo_blocks"], 0)
    expected["mps_bond_dim"] = ref.max_bond
    for s0, s1 in bench._steps(config, 0.125):
        key = cache.key(s0, s1)
        if key not in built:
            [(mpo, report)] = build_step_mpo(
                ham, [cache.table(s0, s1, 4)], 4, qr_tol=qr_tol, plan=plan)
            built[key] = mpo, report
            bench._raise_to(expected, mpo_blocks=mpo.n_blocks,
                            mpo_bond_before=report.bond_dimension_before,
                            fold_residual=report.fold_residual,
                            bulk_residual=report.bulk_residual)
        mpo = built[key][0]
        ref, disc = apply_mpo(mpo, ref, d_max=config.d_max)
        expected["discarded_weight"] += disc
        bench._raise_to(expected, mpo_bond_dim=mpo.bond_dimension,
                        mps_bond_dim=ref.max_bond)
    assert {k: stats[k] for k in expected} == expected
    # ten steps in eight classes: the last two reuse the first two
    assert stats["mpo_builds"] == len(built) == 8 and stats["n_steps"] == 10
    assert expected["bulk_residual"] > 0
    assert all(np.array_equal(a, b) for a, b in zip(psi.tensors, ref.tensors))


def test_the_stacked_pass_runs_inside_the_first_row_compress_span(
        monkeypatch):
    # the benchmark's tracer times `row_compress` once per class; the
    # pass that decides all four classes of the evolution lies inside
    # the first of those spans, and the later ones only fold
    passes = []
    solve_stack = compression._solve_stack

    def timed(plan, members, tol):
        start = time.perf_counter()
        out = solve_stack(plan, members, tol)
        passes.append((start, time.perf_counter(), len(members)))
        return out

    monkeypatch.setattr(compression, "_solve_stack", timed)
    ham = modulated_ising()
    config = _reuse_config("dyson")
    tracer = _tracer_module().LayerTracer(bench)
    with tracer.installed():
        evolve_state(ham, initial_state(config), config, *REUSE_STEP)
    spans = [(start, end) for _, name, start, end, _ in tracer.spans
             if name == "row_compress"]
    assert len(spans) == 4 and len(passes) == 1
    start, end, members = passes[0]
    assert members == 4
    assert spans[0][0] <= start and end <= spans[0][1]
