import numpy as np
import pytest
import scipy.linalg

from helpers import (disjoint_power_dense, entries, flat_taylor_mpo,
                     mpo_from_entries, reference_taylor_mpo, strings_of,
                     zero_hamiltonian)

from dysonmpo import fdmpo
from dysonmpo.brackets import BracketTable
from dysonmpo.driving import Channel, TimeDependentHamiltonian
from dysonmpo.dyson import dyson_mpo
from dysonmpo.levels import IDENTITY_LEVEL, LevelLabel, three, two
from dysonmpo.models import static_tfi
from dysonmpo.spin import ID2, SX, SY, SZ
from dysonmpo.taylor import mpo_derivative_at_zero, taylor_mpo

TFI = static_tfi()


def test_first_order_tau_zero_is_identity():
    w = taylor_mpo(TFI, 0.0, 1)
    np.testing.assert_allclose(w.to_dense(4), np.eye(16), atol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_taylor_mpo_is_the_frozen_one_channel_dyson_mpo(order):
    tau = -0.07j
    got = taylor_mpo(TFI, tau, order)
    table = BracketTable.frozen({"h": 1.0}, tau, order)
    ref = dyson_mpo(TimeDependentHamiltonian([Channel("h", TFI)]), table,
                    order)
    assert got.levels == ref.levels
    for a, b in zip(got.coo(), ref.coo()):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got.params["brackets"].values == table.values


def test_first_order_tensor_blocks():
    tau = 0.3 - 0.2j
    w = taylor_mpo(TFI, tau, 1)
    one = IDENTITY_LEVEL
    lvl2 = LevelLabel((two("h", 0),))
    blocks = entries(w)
    np.testing.assert_allclose(blocks[(one, one)], ID2 + tau * SX, atol=1e-14)
    np.testing.assert_allclose(blocks[(one, lvl2)], SZ, atol=1e-14)
    np.testing.assert_allclose(blocks[(lvl2, one)], tau * SZ, atol=1e-14)
    assert w.bond_dimension == 2


def test_first_order_disjoint_series():
    # the first-order tensor encodes 1 + tau H + tau^2/2 (HH)x + ...
    tau = 0.07j
    n = 3
    w = taylor_mpo(TFI, tau, 1).to_dense(n)
    strings = strings_of(TFI, n)
    ref = np.eye(2 ** n, dtype=complex)
    for k in (1, 2, 3):
        ref = ref + tau ** k / scipy.special.factorial(k) * \
            disjoint_power_dense(strings, k, n)
    np.testing.assert_allclose(w, ref, atol=1e-12)


def test_first_order_on_site_only_factorizes():
    h = fdmpo.from_terms(2, on_site=SX)
    tau = 0.21
    n = 3
    w = taylor_mpo(h, tau, 1).to_dense(n)
    single = ID2 + tau * SX
    ref = np.kron(np.kron(single, single), single)
    np.testing.assert_allclose(w, ref, atol=1e-13)


def test_second_order_matches_block_form():
    # assemble the second-order tensor explicitly from the square blocks:
    #   ( 1 + tau D + tau^2/2 D'   L   L' )
    #   ( tau R                    A   0  )
    #   ( tau^2/2 R'               0   A' )
    # with primes from the compressed non-disjoint square
    tau = -0.13j
    h = TFI
    sq = fdmpo.nondisjoint_square(h)
    one = IDENTITY_LEVEL
    mid1 = [LevelLabel((("m1", k),)) for k in range(h.chi)]
    mid2 = [LevelLabel((("m2", k),)) for k in range(sq.chi)]
    blocks = {}
    d11 = sq.D if sq.D is not None else np.zeros((2, 2))
    blocks[(one, one)] = ID2 + tau * h.D + tau ** 2 / 2 * d11
    for k, op in h.L.items():
        blocks[(one, mid1[k])] = op
    for k, op in h.R.items():
        blocks[(mid1[k], one)] = tau * op
    for (i, j), op in h.A.items():
        blocks[(mid1[i], mid1[j])] = op
    for k, op in sq.L.items():
        blocks[(one, mid2[k])] = op
    for k, op in sq.R.items():
        blocks[(mid2[k], one)] = tau ** 2 / 2 * op
    for (i, j), op in sq.A.items():
        blocks[(mid2[i], mid2[j])] = op
    explicit = mpo_from_entries(2, [one] + mid1 + mid2, blocks, order=2)

    w = taylor_mpo(h, tau, 2)
    assert w.bond_dimension == explicit.bond_dimension == 1 + 3 * h.chi + h.chi ** 2
    np.testing.assert_allclose(w.to_dense(4), explicit.to_dense(4), atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_order_scaling_against_expm(order):
    n = 4
    href = TFI.to_dense(n)
    taus = [-0.1j, -0.05j, -0.025j]
    errs = []
    for tau in taus:
        w = taylor_mpo(TFI, tau, order).to_dense(n)
        errs.append(np.linalg.norm(w - scipy.linalg.expm(tau * href)))
    for e1, e2 in zip(errs, errs[1:]):
        ratio = e1 / e2
        assert abs(ratio - 2 ** (order + 1)) < 0.2 * 2 ** (order + 1)


def test_merged_equals_flat():
    tau = -0.08j
    for order in (1, 2, 3):
        wm = taylor_mpo(TFI, tau, order)
        wf = flat_taylor_mpo(TFI, tau, order)
        np.testing.assert_allclose(wm.to_dense(3), wf.to_dense(3), atol=1e-13)


def _log_norms(w, sites):
    v = np.zeros(2)
    v[0] = 1.0
    out = {}
    for n in sites:
        psi = v
        for _ in range(n - 1):
            psi = np.kron(psi, v)
        out[n] = np.log(np.linalg.norm(w.to_dense(n) @ psi))
    return out


def test_extensivity_log_norm_on_site():
    # with on-site terms only, the applied state factorizes per site exactly
    h = fdmpo.from_terms(2, on_site=SX)
    w = taylor_mpo(h, 0.01, 2)
    ln = _log_norms(w, (3, 6))
    assert abs(ln[6] - 2 * ln[3]) < 1e-8


def test_extensivity_log_norm_affine():
    # open-boundary couplings contribute one missing bond, so the log norm
    # grows affinely: a bulk rate per site plus a boundary constant
    w = taylor_mpo(TFI, 0.01, 2)
    ln = _log_norms(w, (3, 4, 6))
    alpha = ln[4] - ln[3]
    beta = ln[3] - 3 * alpha
    assert abs(ln[6] - (6 * alpha + beta)) < 1e-7


def test_identity_entry_is_on_site_series():
    tau = 0.4 - 0.1j
    for order in (1, 2, 3):
        w = taylor_mpo(TFI, tau, order)
        ref = np.zeros((2, 2), dtype=complex)
        for k in range(order + 1):
            ref += tau ** k * np.linalg.matrix_power(SX, k) / \
                scipy.special.factorial(k)
        np.testing.assert_allclose(
            entries(w)[(IDENTITY_LEVEL, IDENTITY_LEVEL)], ref, atol=1e-13)


def test_invalid_order():
    with pytest.raises(ValueError):
        taylor_mpo(TFI, 0.1, 0)


def test_derivative_first_order_recovers_hamiltonian():
    d1 = mpo_derivative_at_zero(TFI, 1, 1, 4)
    np.testing.assert_allclose(d1, TFI.to_dense(4), atol=1e-12)


def test_derivative_above_the_order_is_the_disjoint_power():
    # the first-order MPO carries tau^2/2 (HH)x, the disjoint part of H^2
    n = 3
    d2 = mpo_derivative_at_zero(TFI, 1, 2, n)
    ref = disjoint_power_dense(strings_of(TFI, n), 2, n) / 2
    np.testing.assert_allclose(d2, ref, atol=1e-12)


def test_derivative_of_zero_hamiltonian_vanishes():
    d1 = mpo_derivative_at_zero(zero_hamiltonian(2), 2, 1, 3)
    assert not d1.any()


def test_second_derivative_gives_half_h_squared():
    d2 = mpo_derivative_at_zero(TFI, 2, 2, 3)
    h = TFI.to_dense(3)
    np.testing.assert_allclose(d2, h @ h / 2, atol=1e-12)


def test_third_derivative_gives_h_cubed_over_six():
    d3 = mpo_derivative_at_zero(TFI, 3, 3, 3)
    h = TFI.to_dense(3)
    np.testing.assert_allclose(d3, h @ h @ h / 6, atol=1e-12)


def test_derivative_requires_positive_order():
    with pytest.raises(ValueError):
        mpo_derivative_at_zero(TFI, 1, 0, 3)


def _static_xxz(delta=2.0):
    return fdmpo.from_terms(2, two_site=[(SX, SX), (SY, SY), (SZ, delta * SZ)])


@pytest.mark.parametrize("tau", [-0.125j, 0.3 - 0.05j])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("model", [static_tfi, _static_xxz])
def test_coordinate_blocks_equal_the_direct_weighting_bitwise(model, order,
                                                              tau):
    # the frozen table {"h": 1.0} gives each word exactly tau**k / k!
    h = model()
    got, ref = taylor_mpo(h, tau, order), reference_taylor_mpo(h, tau, order)
    assert got.levels == ref.levels
    assert all(np.array_equal(a, b) for a, b in zip(got.coo(), ref.coo()))
