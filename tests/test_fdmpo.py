import tracemalloc

import numpy as np
import pytest

from helpers import (disjoint_product_dense, embed, random_fdmpo, strings_of,
                     zero_hamiltonian)

from dysonmpo import fdmpo
from dysonmpo.brackets import BracketTable
from dysonmpo.dyson import dyson_mpo
from dysonmpo.models import modulated_xxz
from dysonmpo.spin import ID2, SX, SZ


def ising():
    return fdmpo.from_terms(2, two_site=[(SZ, SZ)])


def field():
    return fdmpo.from_terms(2, on_site=SX)


def xx():
    return fdmpo.from_terms(2, two_site=[(SX, SX)])


def decaying(lam=0.5):
    return fdmpo.from_terms(2, two_site=[(SZ, SZ)], longer={(0, 0): lam * ID2})


def dense_ref_ising(n):
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n - 1):
        out += embed(np.kron(SZ, SZ), i, n)
    return out


def dense_ref_field(n):
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        out += embed(SX, i, n)
    return out


def test_from_terms_ising_dense():
    np.testing.assert_allclose(ising().to_dense(3), dense_ref_ising(3), atol=1e-14)


def test_from_terms_field_dense():
    h = field()
    assert h.chi == 0
    np.testing.assert_allclose(h.to_dense(2), dense_ref_field(2), atol=1e-14)


def test_from_terms_decaying_coupling():
    lam = 0.5
    h = decaying(lam)
    n = 4
    ref = np.zeros((16, 16), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            term = embed(SZ, i, n) @ embed(SZ, j, n)
            ref += lam ** (j - i - 1) * term
    np.testing.assert_allclose(h.to_dense(4), ref, atol=1e-13)


def test_add_zero():
    h = ising()
    z = zero_hamiltonian(2)
    np.testing.assert_allclose(fdmpo.add(h, z).to_dense(3), h.to_dense(3),
                               atol=1e-14)


def test_add_tfi_dense():
    h = fdmpo.add(ising(), field())
    ref = dense_ref_ising(4) + dense_ref_field(4)
    np.testing.assert_allclose(h.to_dense(4), ref, atol=1e-13)


def test_add_chi_arithmetic():
    h1 = fdmpo.from_terms(2, two_site=[(SZ, SZ), (SX, SX)])
    h2 = fdmpo.from_terms(2, two_site=[(SZ, SZ), (SX, SX), (SZ, SX)])
    assert fdmpo.add(h1, h2).chi == 5


@pytest.mark.parametrize("lam", [1.0, 0.0, -1.0j])
def test_scale_dense(lam):
    h = ising()
    np.testing.assert_allclose(fdmpo.scale(h, lam).to_dense(3),
                               lam * h.to_dense(3), atol=1e-14)


def test_scale_keeps_r_blocks():
    h = ising()
    scaled = fdmpo.scale(h, 2.0)
    for k, op in h.R.items():
        np.testing.assert_allclose(scaled.R[k], op)


def test_product_chi_formula():
    h1, h2 = ising(), xx()
    prod = fdmpo.nondisjoint_product(h1, h2)
    assert prod.chi == 2 * h1.chi + 2 * h2.chi + h1.chi * h2.chi == 5


def test_product_dense_vs_disjoint_enumeration():
    h1 = fdmpo.add(ising(), field())
    h2 = xx()
    n = 4
    prod = fdmpo.nondisjoint_product(h1, h2)
    disjoint = disjoint_product_dense(strings_of(h1, n), strings_of(h2, n), n)
    full = h1.to_dense(n) @ h2.to_dense(n)
    np.testing.assert_allclose(prod.to_dense(n), full - disjoint, atol=1e-12)


def test_product_with_zero():
    h = ising()
    z = zero_hamiltonian(2)
    prod = fdmpo.nondisjoint_product(h, z)
    assert np.abs(prod.to_dense(3)).max() < 1e-14


def test_square_chi_formula():
    h = ising()
    assert fdmpo.nondisjoint_square(h).chi == 2 * h.chi + h.chi ** 2 == 3


def test_square_matches_product():
    h = fdmpo.add(decaying(0.3), field())
    sq = fdmpo.nondisjoint_square(h)
    prod = fdmpo.nondisjoint_product(h, h)
    np.testing.assert_allclose(sq.to_dense(4), prod.to_dense(4), atol=1e-12)
    assert sq.chi == 2 * h.chi + h.chi ** 2


def test_square_on_site_only():
    h = field()
    sq = fdmpo.nondisjoint_square(h)
    # only the on-site squares survive: sum_i (sx_i)^2 = sum_i 1
    n = 3
    ref = n * np.eye(2 ** n, dtype=complex)
    np.testing.assert_allclose(sq.to_dense(n), ref, atol=1e-13)


def test_commutator_self_is_zero():
    h = fdmpo.add(ising(), field())
    comm = fdmpo.commutator(h, h)
    assert np.abs(comm.to_dense(4)).max() < 1e-12


def test_commutator_matches_dense():
    h1, h2 = ising(), field()
    comm = fdmpo.commutator(h1, h2)
    a, b = h1.to_dense(4), h2.to_dense(4)
    np.testing.assert_allclose(comm.to_dense(4), a @ b - b @ a, atol=1e-12)


def test_commutator_bilinear():
    rng = np.random.default_rng(11)
    alpha = complex(rng.normal(), rng.normal())
    h1, h2 = ising(), field()
    lhs = fdmpo.commutator(fdmpo.scale(h1, alpha), h2).to_dense(3)
    rhs = alpha * fdmpo.commutator(h1, h2).to_dense(3)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("pair", [(ising, field), (ising, xx), (field, xx),
                                  (decaying, ising), (decaying, field)])
def test_commutator_property_suite(pair):
    h1, h2 = pair[0](), pair[1]()
    n = 5
    comm = fdmpo.commutator(h1, h2)
    a, b = h1.to_dense(n), h2.to_dense(n)
    np.testing.assert_allclose(comm.to_dense(n), a @ b - b @ a, atol=1e-12)


def test_to_dense_single_site():
    np.testing.assert_allclose(field().to_dense(1), SX, atol=1e-15)


def test_to_dense_tfi_two_sites():
    h = fdmpo.add(ising(), field())
    ref = np.kron(SZ, SZ) + np.kron(SX, ID2) + np.kron(ID2, SX)
    np.testing.assert_allclose(h.to_dense(2), ref, atol=1e-14)


def test_to_dense_cap():
    # 3 levels on 11 sites would hold 3 * 4**11 entries, above DENSE_CAP
    with pytest.raises(ValueError):
        ising().to_dense(11)


def test_expectation_scales_linearly():
    # extensive operator: doubling the chain doubles the product-state energy
    h = field()
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    def energy(n):
        psi = v
        for _ in range(n - 1):
            psi = np.kron(psi, v)
        return np.real(psi.conj() @ h.to_dense(n) @ psi)
    np.testing.assert_allclose(energy(4), 2 * energy(2), atol=1e-12)


def test_upper_triangular_invariant_after_algebra():
    rng = np.random.default_rng(12)
    h1 = random_fdmpo(rng, chi=1, with_a=True)
    h2 = random_fdmpo(rng, chi=2)
    for out in (fdmpo.add(h1, h2), fdmpo.scale(h1, 1.3j),
                fdmpo.nondisjoint_product(h1, h2), fdmpo.nondisjoint_square(h1),
                fdmpo.commutator(h1, h2)):
        m = out.site_matrix()
        n = m.shape[0]
        eye = np.eye(2)
        np.testing.assert_allclose(m[0, 0], eye, atol=1e-14)
        np.testing.assert_allclose(m[n - 1, n - 1], eye, atol=1e-14)
        for i in range(n):
            for j in range(i):
                assert not m[i, j].any(), "lower-triangular block is nonzero"


def test_randomized_product_and_commutator_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        chi1 = int(rng.integers(0, 3))
        chi2 = int(rng.integers(0, 3))
        n = int(rng.integers(2, 6))
        h1 = random_fdmpo(rng, chi=chi1, with_d=bool(rng.integers(0, 2)) or chi1 == 0)
        h2 = random_fdmpo(rng, chi=chi2, with_d=bool(rng.integers(0, 2)) or chi2 == 0)
        prod = fdmpo.nondisjoint_product(h1, h2)
        assert prod.chi == 2 * chi1 + 2 * chi2 + chi1 * chi2
        disjoint = disjoint_product_dense(strings_of(h1, n), strings_of(h2, n), n)
        full = h1.to_dense(n) @ h2.to_dense(n)
        np.testing.assert_allclose(prod.to_dense(n) + disjoint, full, atol=1e-12)
        comm = fdmpo.commutator(h1, h2)
        a, b = h1.to_dense(n), h2.to_dense(n)
        np.testing.assert_allclose(comm.to_dense(n), a @ b - b @ a, atol=1e-12)


def test_dense_reads_are_bounded_by_the_entries_they_hold(monkeypatch):
    # the bound is on n_levels * (d**n_sites)**2, whatever the caller
    tfi = fdmpo.from_terms(2, two_site=[(SZ, SZ)], on_site=SX)  # 3 levels
    monkeypatch.setattr(fdmpo, "DENSE_CAP", 3 * 4 ** 4)
    assert tfi.to_dense(4).shape == (16, 16)
    with pytest.raises(ValueError, match="^a dense expansion of 3 levels on "
                                         "5 sites holds 3072 entries, above "
                                         "DENSE_CAP = 768$"):
        tfi.to_dense(5)


def test_a_wide_dense_read_raises_before_allocating():
    # the order-4 XXZ power has 751 levels: on 8 sites its environments
    # would hold 49M complex entries (~790 MB)
    ham = modulated_xxz()
    table = BracketTable.compute([(c.name, c.driving) for c in ham.channels],
                                 [0.0], [0.0625], 4)[0]
    w = dyson_mpo(ham, table, 4)
    assert w.bond_dimension == 751
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="751 levels on 8 sites holds "
                                             "49217536 entries"):
            w.to_dense(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
