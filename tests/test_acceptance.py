"""Acceptance criteria, one test each, with a printed pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s``.  The full module takes
about 13 s; the error-scaling sweep of criterion 1 takes about half.  That
sweep is the session fixture `criterion1_sweep` (``conftest.py``), which
criteria 1 and 8 and the Magnus sweep test of ``test_bench.py`` share.
"""

import math
from itertools import product

import numpy as np

from helpers import (column_compress, disjoint_product_dense, entries,
                     flat_dyson_mpo, random_fdmpo, strings_of,
                     time_ordered_integral)
from quadrature import quad_time_ordered_integral

from dysonmpo import fdmpo
from dysonmpo.bench import order_slopes, runtime_at_accuracy
from dysonmpo.brackets import BracketTable
from dysonmpo.compression import row_compress
from dysonmpo.driving import Channel, ConstDriving, TimeDependentHamiltonian, \
    TrigDriving
from dysonmpo.dyson import dyson_mpo, magnus_evolution
from dysonmpo.evolve import exact_evolution_operator
from dysonmpo.models import modulated_ising, static_tfi
from dysonmpo.spin import SX, SZ
from dysonmpo.taylor import mpo_derivative_at_zero, taylor_mpo

SIN = TrigDriving("sin", omega=2 * math.pi)
COS = TrigDriving("cos", omega=2 * math.pi)
ONE = ConstDriving(1.0)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_error_scaling(criterion1_sweep):
    slopes = order_slopes(criterion1_sweep.records)
    ok = all(abs(slopes[n] - n) <= 0.3 for n in (1, 2, 3, 4))
    detail = "slopes " + ", ".join(f"N={n}: {slopes[n]:.3f}" for n in (1, 2, 3, 4))
    _report(1, ok, detail)


def test_criterion_2_bond_dimension_tables():
    table_i = {
        1: lambda c: 1 + c,
        2: lambda c: 1 + c + c ** 2,
        3: lambda c: 1 + 2 * c + c ** 2 + c ** 3,
        4: lambda c: 1 + 2 * c + 3 * c ** 2 + c ** 3 + c ** 4,
        5: lambda c: 1 + 3 * c + 3 * c ** 2 + 4 * c ** 3 + c ** 4 + c ** 5,
        6: lambda c: 1 + 3 * c + 6 * c ** 2 + 4 * c ** 3 + 5 * c ** 4
            + c ** 5 + c ** 6,
    }
    couplings = [(SZ, SZ), (SX, SX), (SZ @ SX, SZ)]
    failures = []
    for chi in (1, 2, 3):
        h = fdmpo.from_terms(2, two_site=couplings[:chi])
        for order in range(1, 7):
            w = taylor_mpo(h, -0.05j, order)
            wc, _ = row_compress(w)
            if wc.bond_dimension != table_i[order](chi):
                failures.append((chi, order, wc.bond_dimension,
                                 table_i[order](chi)))
    for chi in (1, 2):
        coup = fdmpo.from_terms(2, two_site=couplings[:chi])
        ham = TimeDependentHamiltonian([
            Channel("f1", coup, SIN),
            Channel("f2", fdmpo.from_terms(2, on_site=SX), COS)])
        tab = BracketTable.compute([("f1", SIN), ("f2", COS)], 0.1, 0.25, 3)
        w = dyson_mpo(ham, tab, 3)
        wc, _ = row_compress(w)
        expected = 1 + 3 * chi + chi ** 2 + chi ** 3
        if wc.bond_dimension != expected:
            failures.append(("dyson", chi, wc.bond_dimension, expected))
    _report(2, not failures,
            "Table orders 1-6 chi 1-3 and third-order Dyson bonds exact"
            if not failures else f"mismatches {failures}")


def test_criterion_3_dense_oracle_equivalence():
    ham = modulated_ising()
    n, t0 = 4, 0.15
    dts = (0.1, 0.05, 0.025)
    problems = []
    for order in (1, 2, 3):
        errs, col_changes, build_diffs, row_diffs = [], [], [], []
        for dt in dts:
            tab = BracketTable.compute(
                [(c.name, c.driving) for c in ham.channels],
                t0, t0 + dt, order)
            flat = flat_dyson_mpo(ham, tab, order)
            w = dyson_mpo(ham, tab, order)
            merged, _ = column_compress(flat)
            col_changes.append(
                np.abs(merged.to_dense(n) - flat.to_dense(n)).max())
            # the power construction reproduces the merged literal algorithm
            if merged.levels != w.levels:
                problems.append(f"N={order} merged levels differ from build")
            build_diffs.append(
                np.abs(merged.to_dense(n) - w.to_dense(n)).max())
            wc, _ = row_compress(w)
            row_diffs.append(np.linalg.norm(wc.to_dense(n) - w.to_dense(n), 2))
            u = exact_evolution_operator(ham, n, t0, t0 + dt, substeps=2500)
            errs.append(np.linalg.norm(w.to_dense(n) - u, 2))
        for e1, e2 in zip(errs, errs[1:]):
            if abs(e1 / e2 - 2 ** (order + 1)) > 0.3 * 2 ** (order + 1):
                problems.append(f"N={order} oracle ratio {e1 / e2:.2f}")
        if max(col_changes) > 1e-13:
            problems.append(f"N={order} column change {max(col_changes):.2e}")
        if max(build_diffs) > 1e-13:
            problems.append(f"N={order} build vs merged oracle "
                            f"{max(build_diffs):.2e}")
        # row compression changes the operator by O(dt^(N+1)): the change
        # must shrink at least as fast as dt^(N+1) under halving
        if max(row_diffs) > 1e-14:
            for d1, d2 in zip(row_diffs, row_diffs[1:]):
                if d1 / d2 < 0.7 * 2 ** (order + 1):
                    problems.append(f"N={order} row-diff ratio {d1 / d2:.2f}")
    _report(3, not problems, "; ".join(problems) if problems else
            "oracle ratios ~2^(N+1), column change and build vs merged "
            "oracle <= 1e-13, row change O(dt^(N+1))")


def test_criterion_4_algebra_oracles():
    rng = np.random.default_rng(2024)
    worst_comm = worst_prod = 0.0
    chi_ok = True
    for _ in range(200):
        chi1 = int(rng.integers(0, 3))
        chi2 = int(rng.integers(0, 3))
        n = int(rng.integers(2, 7))
        h1 = random_fdmpo(rng, chi=chi1, with_d=bool(rng.integers(0, 2)) or chi1 == 0)
        h2 = random_fdmpo(rng, chi=chi2, with_d=bool(rng.integers(0, 2)) or chi2 == 0)
        prod = fdmpo.nondisjoint_product(h1, h2)
        chi_ok &= prod.chi == 2 * chi1 + 2 * chi2 + chi1 * chi2
        sq = fdmpo.nondisjoint_square(h1)
        chi_ok &= sq.chi == 2 * chi1 + chi1 ** 2
        a, b = h1.to_dense(n), h2.to_dense(n)
        comm = fdmpo.commutator(h1, h2).to_dense(n)
        worst_comm = max(worst_comm, np.abs(comm - (a @ b - b @ a)).max())
        disjoint = disjoint_product_dense(strings_of(h1, n), strings_of(h2, n), n)
        worst_prod = max(worst_prod,
                         np.abs(prod.to_dense(n) + disjoint - a @ b).max())
    ok = worst_comm <= 1e-12 and worst_prod <= 1e-12 and chi_ok
    _report(4, ok, f"200 cases: commutator {worst_comm:.2e}, "
                   f"product-split {worst_prod:.2e}, chi formulas exact={chi_ok}")


def test_criterion_5_integral_identities():
    channels = [("sin", SIN), ("cos", COS), ("const", ONE)]
    t0, t1 = 0.3, 0.55
    exact = {}
    quad = {}
    for k in (1, 2, 3):
        for key in product(range(3), repeat=k):
            fs = [channels[i][1] for i in key]
            exact[key] = time_ordered_integral(fs, t0, t1)
            quad[key] = quad_time_ordered_integral(fs, t0, t1, abs_tol=1e-12)
    problems = []
    for engine, tol, store in (("exact", 1e-13, exact), ("quad", 1e-10, quad)):
        worst_f = max(abs(store[(a,)] * store[(b,)]
                          - store[(a, b)] - store[(b, a)])
                      for a in range(3) for b in range(3))
        worst_3 = max(abs(store[(a, b)] * store[(c,)] - store[(a, b, c)]
                          - store[(a, c, b)] - store[(c, a, b)])
                      for a in range(3) for b in range(3) for c in range(3))
        if worst_f > tol or worst_3 > tol:
            problems.append(f"{engine}: factoring {worst_f:.2e}, "
                            f"three-factor {worst_3:.2e}")
    worst_cross = max(abs(exact[k] - quad[k]) for k in exact)
    if worst_cross > 1e-11:
        problems.append(f"exact-vs-quad {worst_cross:.2e}")
    dt = 0.25
    worst_const = 0.0
    for k in range(1, 5):
        got = quad_time_ordered_integral([ONE] * k, 0.0, dt, abs_tol=1e-12)
        ref = (-1j * dt) ** k / math.factorial(k)
        worst_const = max(worst_const, abs(got - ref))
    if worst_const > 1e-10:
        problems.append(f"constant closed form {worst_const:.2e}")
    _report(5, not problems, "; ".join(problems) if problems else
            "factoring/three-factor identities, exact-vs-quad, constant closed form")


def test_criterion_6_derivatives():
    tfi = static_tfi()
    d1 = mpo_derivative_at_zero(tfi, 1, 1, 4)
    err1 = np.abs(d1 - tfi.to_dense(4)).max()
    h3 = tfi.to_dense(3)
    d2 = mpo_derivative_at_zero(tfi, 2, 2, 3)
    err2 = np.abs(d2 - h3 @ h3 / 2).max()
    _report(6, err1 <= 1e-12 and err2 <= 1e-12,
            f"first derivative {err1:.2e}, second derivative {err2:.2e}")


def test_criterion_7_equivalence_of_formulations():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)], longer={(0, 0): 0.3 * np.eye(2)})
    ham = TimeDependentHamiltonian([Channel("h", h, ONE)])
    dt = 0.13
    entry_ok = True
    for order in (1, 2, 3):
        tab = BracketTable.compute([("h", ONE)], 0.0, dt, order)
        wd = dyson_mpo(ham, tab, order)
        wt = taylor_mpo(h, -1j * dt, order)
        entry_ok &= wd.levels == wt.levels
        got, ref = entries(wd), entries(wt)
        entry_ok &= set(got) == set(ref)
        for key, op in ref.items():
            entry_ok &= bool(np.abs(got[key] - op).max() < 1e-14)
    ham2 = modulated_ising()
    tab2 = BracketTable.compute([(c.name, c.driving) for c in ham2.channels],
                                0.0, 0.1, 1)
    wm = magnus_evolution(ham2, tab2, 1)
    wd2 = dyson_mpo(ham2, tab2, 1)
    magnus_err = np.abs(wm.to_dense(4) - wd2.to_dense(4)).max()
    _report(7, entry_ok and magnus_err <= 1e-12,
            f"dyson==taylor entrywise: {entry_ok}, "
            f"magnus-1 vs dyson-1 {magnus_err:.2e}")


def test_criterion_8_runtime_tradeoff(criterion1_sweep):
    runtimes = runtime_at_accuracy(criterion1_sweep.records, 1e-6, span=1.0)
    ok = runtimes[4] < runtimes[1]
    _report(8, ok, f"estimated runtime at eps=1e-6: N=1 {runtimes[1]:.1f}s, "
                   f"N=4 {runtimes[4]:.2f}s")
