import math

import numpy as np
import pytest
import scipy.linalg

from helpers import literal_apply_mpo

from dysonmpo.bench import build_step_mpo
from dysonmpo.brackets import BracketTable
from dysonmpo.driving import Channel, ConstDriving, TimeDependentHamiltonian, \
    TrigDriving
from dysonmpo.dyson import dyson_mpo, identity_mpo
from dysonmpo.evolve import exact_evolution_operator, exact_evolve
from dysonmpo.fdmpo import from_terms
from dysonmpo.models import modulated_ising, modulated_xxz, static_tfi
from dysonmpo.mps import FiniteMPS, apply_mpo, trace_distance_error
from dysonmpo.spin import SZ, SX
from dysonmpo.taylor import taylor_mpo


def test_mps_product_state_norm():
    psi = FiniteMPS.random_product(5, rng=1)
    assert abs(psi.norm() - 1.0) < 1e-12
    assert psi.bond_dimensions == [1, 1, 1, 1]


def test_mps_dense_roundtrip():
    rng = np.random.default_rng(2)
    vec = rng.normal(size=2 ** 5) + 1j * rng.normal(size=2 ** 5)
    vec /= np.linalg.norm(vec)
    psi = FiniteMPS.from_dense(vec, 5)
    np.testing.assert_allclose(psi.to_dense(), vec, atol=1e-12)
    assert abs(psi.overlap(psi) - 1.0) < 1e-12


def test_apply_identity_mpo():
    psi = FiniteMPS.random_product(4, rng=3)
    out, disc = apply_mpo(identity_mpo(2), psi)
    assert abs(abs(out.overlap(psi)) - 1.0) < 1e-12
    assert disc < 1e-20


def test_apply_taylor_matches_dense():
    psi = FiniteMPS.random_product(6, rng=4)
    w = taylor_mpo(static_tfi(), -0.01j, 2)
    out, _ = apply_mpo(w, psi, d_max=64)
    ref = w.to_dense(6, cap=256) @ psi.to_dense()
    ref /= np.linalg.norm(ref)
    assert abs(abs(np.vdot(out.to_dense(), ref)) - 1.0) < 1e-10


def test_apply_dyson_first_order_on_chain_of_eight():
    ham = modulated_ising()
    tab = BracketTable.compute([(c.name, c.driving) for c in ham.channels],
                               0.0, 0.125, 1, bits=20)
    w = dyson_mpo(ham, 0.0, 0.125, 1, tab)
    psi = FiniteMPS.all_up(8)
    out, _ = apply_mpo(w, psi, d_max=16)
    assert abs(out.norm() - 1.0) < 1e-12
    assert out.max_bond <= 16


def test_apply_dimension_mismatch():
    psi = FiniteMPS.random_product(3, d=2, rng=5)
    w = identity_mpo(3)
    with pytest.raises(ValueError):
        apply_mpo(w, psi)


def test_trace_distance_basics():
    up = FiniteMPS.product_state([[1, 0]])
    down = FiniteMPS.product_state([[0, 1]])
    plus = FiniteMPS.product_state([[1 / math.sqrt(2), 1 / math.sqrt(2)]])
    assert trace_distance_error(up, up) == 0.0
    assert abs(trace_distance_error(up, down) - 1.0) < 1e-14
    assert abs(trace_distance_error(up, plus) - 1 / math.sqrt(2)) < 1e-12


def test_trace_distance_resolves_nearby_states():
    # the overlap form reads up to ~4e-8 for a state against itself; the
    # difference MPS resolves distances down to rounding
    rng = np.random.default_rng(7)
    psi = _random_mps(16, 8, rng)
    assert trace_distance_error(psi, psi) <= 1e-14
    turned = FiniteMPS([np.exp(0.7j) * psi.tensors[0]] + psi.tensors[1:])
    assert trace_distance_error(psi, turned) <= 1e-14
    # in left-canonical form, as apply_mpo's states are, one tensor
    # perturbed by 1e-10 moves the state by a few 1e-10; both evaluations
    # carry about 1e-16 of rounding in delta
    tensors = list(psi.tensors)
    for i in range(15):
        dl, d, dr = tensors[i].shape
        q, r = np.linalg.qr(tensors[i].reshape(dl * d, dr))
        tensors[i] = q.reshape(dl, d, -1)
        tensors[i + 1] = np.tensordot(r, tensors[i + 1], axes=(1, 0))
    tensors[15] = tensors[15] / np.linalg.norm(tensors[15])
    canonical = FiniteMPS(tensors)
    tensors = list(tensors)
    tensors[5] = tensors[5] + 1e-10 * rng.normal(size=tensors[5].shape)
    near = FiniteMPS(tensors)
    a = canonical.to_dense()
    b = near.to_dense()
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    ov = np.vdot(b, a)
    delta = np.linalg.norm(a - ov / abs(ov) * b)
    dense = delta * math.sqrt(1.0 - 0.25 * delta ** 2)
    assert 1e-11 < dense < 1e-9
    assert trace_distance_error(canonical, near) == pytest.approx(
        dense, rel=1e-6, abs=0.0)


def test_exact_evolve_time_independent_matches_expm():
    h = static_tfi()
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(1.0))])
    rng = np.random.default_rng(6)
    psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi0 /= np.linalg.norm(psi0)
    out = exact_evolve(ham, psi0, 0.0, 0.3, substeps=2000)
    ref = scipy.linalg.expm(-1j * 0.3 * h.to_dense(4)) @ psi0
    assert np.abs(out - ref).max() < 1e-11


def test_exact_evolve_commuting_closed_form():
    hz = from_terms(2, on_site=SZ)
    ham = TimeDependentHamiltonian([Channel("z", hz,
                                            TrigDriving("sin", omega=2 * math.pi))])
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2)
    out = exact_evolve(ham, psi0, 0.0, 0.7, substeps=3000)
    phase = (1 - math.cos(2 * math.pi * 0.7)) / (2 * math.pi)
    ref = scipy.linalg.expm(-1j * phase * SZ) @ psi0
    assert np.abs(out - ref).max() < 1e-10
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_exact_evolve_zero_hamiltonian():
    h = from_terms(2, on_site=SX)
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(0.0))])
    psi0 = np.array([0.6, 0.8], dtype=complex)
    out = exact_evolve(ham, psi0, 0.0, 1.0, substeps=100)
    np.testing.assert_allclose(out, psi0, atol=1e-14)


def test_exact_evolution_operator_unitary():
    ham = modulated_ising()
    u = exact_evolution_operator(ham, 3, 0.0, 0.2, substeps=1500)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)


def test_energy_drift_time_independent():
    # unitarity of the series to truncation order: at order 4 and small dt
    # the energy of the evolved state stays put over 100 steps
    h = static_tfi()
    href = h.to_dense(4)
    w = taylor_mpo(h, -1j * 1e-2, 4)
    psi = FiniteMPS.random_product(4, rng=7)
    e0 = None
    for _ in range(100):
        psi, _ = apply_mpo(w, psi, d_max=16)
        vec = psi.to_dense()
        energy = np.real(vec.conj() @ href @ vec)
        if e0 is None:
            e0 = energy
    assert abs(energy - e0) < 1e-6


def test_exact_regime_commutes_with_dense_application():
    ham = modulated_ising()
    tab = BracketTable.compute([(c.name, c.driving) for c in ham.channels],
                               0.0, 0.1, 2, bits=20)
    from dysonmpo.dyson import dyson_mpo
    w = dyson_mpo(ham, 0.0, 0.1, 2, tab)
    psi = FiniteMPS.random_product(6, rng=8)
    out, _ = apply_mpo(w, psi, d_max=8)  # 8 = d**(L/2) is exact at L=6
    ref = w.to_dense(6, cap=256) @ psi.to_dense()
    ref /= np.linalg.norm(ref)
    assert 1.0 - abs(np.vdot(out.to_dense(), ref)) < 1e-10


def _dyson_steps(ham, dt, n_steps=4, order=4):
    steps = []
    for i in range(n_steps):
        t0, t1 = i * dt, (i + 1) * dt
        tab = BracketTable.compute([(c.name, c.driving) for c in ham.channels],
                                   t0, t1, order)
        steps.append(build_step_mpo(ham, t0, t1, order, "dyson", tab,
                                    qr_tol=1e-12)[0])
    return steps


@pytest.fixture(scope="module")
def tfi_steps():
    return _dyson_steps(modulated_ising(), 0.125)


@pytest.fixture(scope="module")
def xxz_steps():
    return _dyson_steps(modulated_xxz(), 0.0625)


def _assert_matches_literal(steps, n_sites, d_max):
    psi = ref = FiniteMPS.random_product(n_sites, rng=10 + n_sites)
    for w in steps:
        psi, disc = apply_mpo(w, psi, d_max=d_max)
        ref, disc_ref = literal_apply_mpo(w, ref, d_max=d_max)
        assert psi.bond_dimensions == ref.bond_dimensions
        assert np.abs(psi.to_dense() - ref.to_dense()).max() <= 1e-12
        assert abs(disc - disc_ref) <= 1e-9 * disc_ref + 1e-24
        assert abs(psi.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("n_sites,d_max", [
    (1, None), (2, None), (2, 1), (3, None), (8, None), (8, 4), (9, None),
    (9, 3)])
def test_apply_matches_literal_tfi(tfi_steps, n_sites, d_max):
    assert tfi_steps[0].bond_dimension == 15
    _assert_matches_literal(tfi_steps, n_sites, d_max)


def test_apply_matches_literal_xxz(xxz_steps):
    assert max(w.bond_dimension for w in xxz_steps) == 187
    _assert_matches_literal(xxz_steps, 8, 16)


def _random_mps(n, chi, rng, d=2):
    """Random MPS with bonds ``min(d^i, chi, d^(n-i))``."""
    bonds = [min(d ** i, chi, d ** (n - i)) for i in range(n + 1)]
    return FiniteMPS([rng.normal(size=(bonds[i], d, bonds[i + 1]))
                      + 1j * rng.normal(size=(bonds[i], d, bonds[i + 1]))
                      for i in range(n)])


@pytest.fixture
def qr_shapes(monkeypatch):
    """Shapes of the matrices passed to `np.linalg.qr` during the test."""
    shapes = []
    qr = np.linalg.qr

    def recording_qr(a, *args, **kwargs):
        shapes.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    return shapes


def test_apply_factorises_no_matrix_wider_than_half_chain(tfi_steps,
                                                         qr_shapes):
    # the raw product of an order-4 TFI step (bond 15) and a bond-32 MPS
    # has bond 480; no factorised matrix may have both sides above the
    # Hilbert space dimension of half the chain
    n, chi, d = 16, 32, 2
    psi = _random_mps(n, chi, np.random.default_rng(11))
    assert psi.max_bond == chi
    out, _ = apply_mpo(tfi_steps[0], psi, d_max=chi)
    assert qr_shapes
    assert max(min(shape) for shape in qr_shapes) <= d ** (n // 2)
    assert out.max_bond == chi


def test_apply_factorises_wide_matrices_only_where_cheap(tfi_steps,
                                                        qr_shapes):
    # a QR of a matrix no taller than it is wide yields a square unitary
    # that shrinks no bond; the left and right steps take it (as the QR of
    # the leading square block) only while it costs no more than the
    # contraction that formed the matrix, which bounds its rows by
    # chi + D_w*d (the 256x480 matrix at site 7 of this chain is carried raw)
    n, chi, d = 16, 32, 2
    dw = tfi_steps[0].bond_dimension
    psi = _random_mps(n, chi, np.random.default_rng(11))
    out, _ = apply_mpo(tfi_steps[0], psi, d_max=chi)
    wide = [shape for shape in qr_shapes if shape[0] <= shape[1]]
    assert wide
    assert all(rows <= chi + dw * d for rows, _ in wide), wide
    assert out.max_bond == chi


@pytest.mark.parametrize("d_max", [None, 3])
def test_apply_matches_literal_skipped_and_factorised_steps(qr_shapes, d_max):
    # MPO bond 2 on MPS bond 16: the steps nearest the chain ends are wide
    # and cheap to factorise, the next ones are wide and costlier to
    # factorise than to form and skip it, the inner ones are tall
    ham = modulated_ising()
    tab = BracketTable.compute([(c.name, c.driving) for c in ham.channels],
                               0.0, 0.125, 1, bits=20)
    w = dyson_mpo(ham, 0.0, 0.125, 1, tab)
    assert w.bond_dimension == 2
    n = 12
    psi = _random_mps(n, 16, np.random.default_rng(13))
    out, disc = apply_mpo(w, psi, d_max=d_max)
    # every site but the centre n // 2 takes one left or right step; the
    # QR sweep right of the centre makes n - 1 - n // 2 more calls
    step_qrs = len(qr_shapes) - (n - 1 - n // 2)
    assert 0 < step_qrs < n - 1
    assert any(rows <= cols for rows, cols in qr_shapes[:step_qrs])
    ref, disc_ref = literal_apply_mpo(w, psi, d_max=d_max)
    assert out.bond_dimensions == ref.bond_dimensions
    assert np.abs(out.to_dense() - ref.to_dense()).max() <= 1e-12
    assert abs(disc - disc_ref) <= 1e-9 * disc_ref + 1e-24
    assert abs(out.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("d_max", [0, -1])
def test_apply_rejects_d_max_below_one(d_max):
    psi = FiniteMPS.random_product(4, rng=12)
    w = taylor_mpo(static_tfi(), -0.01j, 2)
    with pytest.raises(ValueError, match="max_rank"):
        apply_mpo(w, psi, d_max=d_max)


def test_empty_mps_raises():
    with pytest.raises(ValueError, match="at least one site"):
        FiniteMPS([])
