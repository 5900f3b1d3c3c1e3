"""The exact bulk stage: row-rank factorisation of row-compressed steps."""

import numpy as np
import pytest
from helpers import literal_apply_mpo, literal_to_dense

from dysonmpo import bench, bulk
from dysonmpo.bench import (BracketCache, EvolutionConfig, build_step_mpo,
                            records_to_csv, run_benchmark)
from dysonmpo.bulk import BULK_FROM, BulkCheckError, bulk_compress
from dysonmpo.compression import row_compress
from dysonmpo.dyson import dyson_mpo, identity_mpo
from dysonmpo.models import modulated_ising, modulated_xxz
from dysonmpo.mps import FiniteMPS, apply_mpo

MODELS = {"xxz": modulated_xxz, "tfi": modulated_ising}
# row rank at qr_tol 1e-12 of the row-compressed step at dt 1/16
RANKS = {("xxz", 2): (13, 8), ("xxz", 3): (46, 20), ("xxz", 4): (163, 35),
         ("xxz", 5): (574, 95), ("tfi", 4): (11, 9), ("tfi", 5): (20, 14)}
# The order-5 TFI step sits on the cut: its singular values 14 and 15 are
# 1.1e-12 and 3.6e-13 of the largest, so the pivots of the sketch's LU may
# cut on either side of the 15th, and what is cut moves the operator by
# about that much per site; every other step has a gap of five or more
# orders of magnitude at the cut.
ON_THE_CUT = ("tfi", 5)


def _row_compressed(model, order, t0=0.0, dt=0.0625):
    """The row-compressed Dyson step of `model`."""
    ham = MODELS[model]()
    tab = BracketCache(ham, order=order).table(t0, t0 + dt, order)
    mpo = dyson_mpo(ham, tab, order)
    return row_compress(mpo, tol=1e-12)[0]


@pytest.fixture(scope="module", params=sorted(RANKS),
                ids=lambda key: f"{key[0]}-{key[1]}")
def factored(request):
    rows = _row_compressed(*request.param)
    out, residual = bulk_compress(rows, 1e-12)
    return request.param, rows, out, residual


def test_the_stage_reaches_the_row_rank(factored):
    key, rows, out, residual = factored
    bonds = (rows.bond_dimension, out.bond_dimension)
    if key == ON_THE_CUT:
        assert bonds in ((20, 14), (20, 15)) and 0 <= residual < 1e-11
    else:
        assert bonds == RANKS[key] and 0 <= residual < 1e-12
    assert out.levels is None and rows.levels is not None


def test_bulk_operator_equals_the_row_compressed_one(factored):
    key, rows, out, _ = factored
    tol = 3e-11 if key == ON_THE_CUT else 1e-12
    for n in range(1, 7):
        ref = rows.to_dense(n)
        assert np.linalg.norm(out.to_dense(n) - ref) <= \
            tol * np.linalg.norm(ref)


def test_to_dense_of_a_bulk_mpo_matches_the_per_entry_expansion(factored):
    _, _, out, _ = factored
    for n in range(4):
        ref = literal_to_dense(out, n)
        assert np.linalg.norm(out.to_dense(n) - ref) <= \
            1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("model, bonds", [
    ("xxz", [4, 13, 20, 35, 95]), ("tfi", [2, 3, 6, 11, 20])])
def test_build_step_mpo_factors_from_bulk_from(model, bonds):
    # the cost rule: only a row-compressed bond of BULK_FROM or more is
    # factored; TFI steps and XXZ orders 1-2 are applied as they are
    ham = MODELS[model]()
    cache = BracketCache(ham, order=5)
    tab = cache.table(0.0, 0.0625, 5)
    for order, bond in zip(range(1, 6), bonds):
        mpo, report = build_step_mpo(ham, tab, order, qr_tol=1e-12,
                                     plan=cache.plan(order))
        assert mpo.bond_dimension == report.bond_dimension_bulk == bond
        factored = report.bond_dimension_after >= BULK_FROM
        assert (mpo.levels is None) == factored
        assert (report.bulk_residual > 0) == factored
        assert report.bulk_residual < 1e-12


@pytest.mark.parametrize("n_sites, d_max", [(8, 16), (16, 8)])
def test_apply_matches_literal_on_bulk_steps(n_sites, d_max):
    ham = modulated_xxz()
    cache = BracketCache(ham, order=4)
    psi = ref = FiniteMPS.random_product(n_sites, rng=n_sites)
    for order in (3, 4):
        for i in range(2):
            t0, t1 = i * 0.0625, (i + 1) * 0.0625
            w, _ = build_step_mpo(ham, cache.table(t0, t1, order), order,
                                  qr_tol=1e-12, plan=cache.plan(order))
            assert w.levels is None
            psi, disc = apply_mpo(w, psi, d_max=d_max)
            ref, disc_ref = literal_apply_mpo(w, ref, d_max=d_max)
            assert psi.bond_dimensions == ref.bond_dimensions
            if n_sites <= 8:
                assert np.abs(psi.to_dense() - ref.to_dense()).max() <= 1e-12
            else:
                assert 1 - abs(psi.overlap(ref)) <= 1e-12
            assert abs(disc - disc_ref) <= 1e-9 * disc_ref + 1e-24


def test_a_bond_one_identity_step_is_left_as_it_is():
    w = identity_mpo(2)
    out, residual = bulk_compress(w)
    assert out is w and residual == 0.0
    psi = FiniteMPS.random_product(5, rng=4)
    after, disc = apply_mpo(out, psi)
    assert disc == 0.0
    assert np.allclose(after.to_dense(), psi.normalized().to_dense(),
                       atol=1e-14)


def test_two_calls_give_bitwise_equal_mpos():
    rows = _row_compressed("xxz", 4)
    first, res_first = bulk_compress(rows, 1e-12)
    # another shape in between draws another sketch
    bulk_compress(_row_compressed("xxz", 3), 1e-12)
    again, res_again = bulk_compress(rows, 1e-12)
    assert res_first == res_again
    assert all(np.array_equal(a, b) for a, b in zip(first.coo(), again.coo()))
    assert all(np.array_equal(a, b)
               for a, b in zip(first.boundary, again.boundary))


def test_a_wrong_factorisation_raises(monkeypatch):
    # an LU whose multipliers are off leaves a T that does not expand the
    # other rows; the probe columns, which the LU never saw, show that
    getrf = bulk._ZGETRF

    def perturbed(a):
        lu, piv, info = getrf(a)
        lu[np.tril_indices_from(lu, -1)] *= 1.001
        return lu, piv, info

    monkeypatch.setattr(bulk, "_ZGETRF", perturbed)
    with pytest.raises(BulkCheckError, match="163 -> 35: relative residual"):
        bulk_compress(_row_compressed("xxz", 4), 1e-12)


@pytest.mark.parametrize("tol", [-1e-3, 1.0, float("nan")])
def test_bad_tolerance_is_rejected(tol):
    rows = _row_compressed("xxz", 2)
    with pytest.raises(ValueError, match="tol must lie in"):
        bulk_compress(rows, tol)


def test_records_carry_the_bulk_residual(monkeypatch):
    reports = []
    original = bench.build_step_mpo

    def recording(*args, **kwargs):
        mpo, report = original(*args, **kwargs)
        reports.append(report)
        return mpo, report

    monkeypatch.setattr(bench, "build_step_mpo", recording)
    config = EvolutionConfig(n_sites=6, orders=(2, 4), dts=(0.25,),
                             t_final=0.5, oracle_substeps=200, d_max=8,
                             seed=2)
    records = run_benchmark(modulated_xxz(), config)
    rows = records_to_csv(records).strip().splitlines()[2:]
    low, high = records
    assert low.bulk_residual == 0.0
    assert 0 < high.bulk_residual == max(r.bulk_residual for r in reports) \
        < 1e-12
    for r, row in zip(records, rows):
        fields = dict(zip(bench.CSV_COLUMNS, row.split(",")))
        assert float(fields["bulk_residual"]) == pytest.approx(
            r.bulk_residual, rel=1e-5, abs=0)
