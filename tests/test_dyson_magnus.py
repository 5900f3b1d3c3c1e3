import math

import numpy as np
import pytest

from helpers import (driving_value, flat_dyson_mpo, level_symbols,
                     rewired_dense)

from dysonmpo import fdmpo
from dysonmpo.brackets import BracketTable
from dysonmpo.driving import Channel, ConstDriving, TimeDependentHamiltonian, \
    TrigDriving
from dysonmpo.dyson import dyson_mpo, identity_mpo
from dysonmpo.evolve import exact_evolution_operator
from dysonmpo.extensive import RewiredHamiltonian
from dysonmpo.levels import IDENTITY_LEVEL, ONE, LevelLabel, three, two
from dysonmpo.magnus import magnus_evolution, magnus_omega1, magnus_omega2
from dysonmpo.models import modulated_ising
from dysonmpo.spin import ID2, SX, SZ
from dysonmpo.taylor import taylor_mpo

SIN = TrigDriving("sin", omega=2 * math.pi)
COS = TrigDriving("cos", omega=2 * math.pi)


def two_channel_couplings():
    h1 = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    h2 = fdmpo.from_terms(2, two_site=[(SX, SX)])
    return TimeDependentHamiltonian([Channel("a", h1, SIN),
                                     Channel("b", h2, COS)])


def table_for(ham, t0, t1, order, **kw):
    channels = [(c.name, c.driving) for c in ham.channels]
    return BracketTable.compute(channels, t0, t1, order, **kw)


def test_rewire_five_level_structure():
    ham = two_channel_couplings()
    rew = RewiredHamiltonian.from_hamiltonian(ham)
    assert level_symbols(rew) == [two("a", 0), two("b", 0), three("a"),
                                   three("b")]
    trans = {}
    for x, y, op in rew._transitions:
        assert (x, y) not in trans
        trans[(x, y)] = op
    # the start level, one middle level per channel, one finishing level
    # per channel; nothing leads back towards the start level
    assert set(trans) == {
        (ONE, ONE), (ONE, two("a", 0)), (ONE, two("b", 0)),
        (two("a", 0), three("a")), (two("b", 0), three("b")),
        (three("a"), three("a")), (three("b"), three("b"))}
    np.testing.assert_allclose(trans[(ONE, ONE)], ID2)
    np.testing.assert_allclose(trans[(ONE, two("a", 0))], SZ)
    np.testing.assert_allclose(trans[(ONE, two("b", 0))], SX)
    np.testing.assert_allclose(trans[(two("a", 0), three("a"))], SZ)
    np.testing.assert_allclose(trans[(two("b", 0), three("b"))], SX)
    np.testing.assert_allclose(trans[(three("a"), three("a"))], ID2)
    np.testing.assert_allclose(trans[(three("b"), three("b"))], ID2)
    # the driving weights belong to the arrows into the finishing levels
    assert driving_value(rew, "a", 0.3) == pytest.approx(
        math.sin(2 * math.pi * 0.3), abs=1e-15)
    assert driving_value(rew, "b", 0.3) == pytest.approx(
        math.cos(2 * math.pi * 0.3), abs=1e-15)


def test_rewire_constant_driving_matches_static():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(1.0))])
    rew = RewiredHamiltonian.from_hamiltonian(ham)
    np.testing.assert_allclose(rewired_dense(rew, 3, 0.77), h.to_dense(3),
                               atol=1e-14)


def test_rewire_dense_at_time():
    ham = two_channel_couplings()
    rew = RewiredHamiltonian.from_hamiltonian(ham)
    got = rewired_dense(rew, 3, 0.3)
    ref = math.sin(0.6 * math.pi) * ham.channels[0].operator.to_dense(3) + \
        math.cos(0.6 * math.pi) * ham.channels[1].operator.to_dense(3)
    np.testing.assert_allclose(got, ref, atol=1e-13)


def test_dyson_first_order_tensor_structure():
    ham = modulated_ising()
    t0, t1 = 0.1, 0.3
    tab = table_for(ham, t0, t1, 1)
    w = dyson_mpo(ham, t0, t1, 1, tab)
    one = IDENTITY_LEVEL
    lvl2 = LevelLabel((two("zz", 0),))
    f1 = tab.value(("zz",))
    f2 = tab.value(("x",))
    np.testing.assert_allclose(w.entry(one, one), ID2 + f2 * SX, atol=1e-14)
    np.testing.assert_allclose(w.entry(one, lvl2), SZ, atol=1e-14)
    np.testing.assert_allclose(w.entry(lvl2, one), f1 * SZ, atol=1e-14)
    assert w.bond_dimension == 2


def test_dyson_zero_interval_is_identity():
    ham = modulated_ising()
    tab = table_for(ham, 0.2, 0.2, 1)
    w = dyson_mpo(ham, 0.2, 0.2, 3, BracketTable((0.2, 0.2), tab.values, 3))
    np.testing.assert_allclose(w.to_dense(4), np.eye(16), atol=1e-15)
    assert w.bond_dimension == 1


def test_dyson_constant_channel_matches_taylor_densely():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(1.0))])
    dt = 0.17
    tab = table_for(ham, 0.0, dt, 1)
    w = dyson_mpo(ham, 0.0, dt, 1, tab)
    ref = taylor_mpo(h, -1j * dt, 1)
    np.testing.assert_allclose(w.to_dense(3), ref.to_dense(3), atol=1e-13)


def test_dyson_constant_channel_matches_taylor_entrywise():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)], longer={(0, 0): 0.4 * ID2})
    ham = TimeDependentHamiltonian([Channel("h", h, ConstDriving(1.0))])
    dt = 0.11
    for order in (1, 2, 3):
        tab = table_for(ham, 0.0, dt, order)
        w = dyson_mpo(ham, 0.0, dt, order, tab)
        ref = taylor_mpo(h, -1j * dt, order)
        assert w.levels == ref.levels
        assert set(w.entries) == set(ref.entries)
        for key, op in ref.entries.items():
            np.testing.assert_allclose(w.entries[key], op, atol=1e-14)


def test_dyson_second_order_identity_entry():
    ham = modulated_ising()
    t0, t1 = 0.05, 0.25
    tab = table_for(ham, t0, t1, 2)
    w = dyson_mpo(ham, t0, t1, 2, tab)
    # identity-level entry is 1 + sum_a [f_a] D_a + sum_ab [f_a f_b] D_a D_b
    ref = ID2 + tab.value(("x",)) * SX + tab.value(("x", "x")) * SX @ SX
    np.testing.assert_allclose(w.entry(IDENTITY_LEVEL, IDENTITY_LEVEL), ref,
                               atol=1e-14)


def test_dyson_second_order_reroute_weights():
    # rows folding into the identity level carry the brackets of their
    # finishing sequence: [f_a] on first-order rows, [f_a f_b] on the rest
    ham = modulated_ising()
    t0, t1 = 0.05, 0.25
    tab = table_for(ham, t0, t1, 2)
    w = dyson_mpo(ham, t0, t1, 2, tab)
    one = IDENTITY_LEVEL
    l2 = LevelLabel((two("zz", 0),))
    l23a = LevelLabel((two("zz", 0), three("zz")))
    l23b = LevelLabel((two("zz", 0), three("x")))
    l32a = LevelLabel((three("zz"), two("zz", 0)))
    l32b = LevelLabel((three("x"), two("zz", 0)))
    # the first-order row also carries the same-site double completions
    ref = tab.value(("zz",)) * SZ + tab.value(("zz", "x")) * SZ @ SX \
        + tab.value(("x", "zz")) * SX @ SZ
    np.testing.assert_allclose(w.entry(l2, one), ref, atol=1e-14)
    np.testing.assert_allclose(w.entry(l23a, one),
                               tab.value(("zz", "zz")) * SZ, atol=1e-14)
    np.testing.assert_allclose(w.entry(l23b, one),
                               tab.value(("zz", "x")) * SZ, atol=1e-14)
    np.testing.assert_allclose(w.entry(l32a, one),
                               tab.value(("zz", "zz")) * SZ, atol=1e-14)
    np.testing.assert_allclose(w.entry(l32b, one),
                               tab.value(("x", "zz")) * SZ, atol=1e-14)


def test_dyson_overlapping_string_coefficient():
    # channel 1 drives L (x) R, channel 2 drives an on-site D; the overlapping
    # second-order string (L D) (x) R must carry the bracket [f1 f2]
    h1 = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    h2 = fdmpo.from_terms(2, on_site=SX)
    ham = TimeDependentHamiltonian([Channel("f", h1, SIN), Channel("g", h2, COS)])
    dt = 0.02
    tab = table_for(ham, 0.0, dt, 2)
    w = dyson_mpo(ham, 0.0, dt, 2, tab).to_dense(2)
    string = np.kron(SZ @ SX, SZ)
    coeff = np.trace(string.conj().T @ w) / 4.0
    assert abs(coeff - tab.value(("f", "g"))) < 5 * dt ** 3


def test_dyson_disjoint_second_order_factors():
    # coefficient of the disjoint string zz(0,1) * x(3) in the first-order
    # MPO equals [f_zz][f_x] (Pauli strings are orthogonal)
    ham = modulated_ising()
    t0, t1 = 0.1, 0.35
    tab = table_for(ham, t0, t1, 1)
    w = dyson_mpo(ham, t0, t1, 1, tab).to_dense(4)
    string = np.kron(np.kron(np.kron(SZ, SZ), ID2), SX)
    coeff = np.trace(string.conj().T @ w) / 16.0
    ref = tab.value(("zz",)) * tab.value(("x",))
    assert abs(coeff - ref) < 1e-12


@pytest.mark.parametrize("order", [1, 2, 3])
def test_dyson_order_scaling(order):
    ham = modulated_ising()
    n = 4
    t0 = 0.15
    errs = []
    for dt in (0.1, 0.05, 0.025):
        tab = table_for(ham, t0, t0 + dt, order)
        w = dyson_mpo(ham, t0, t0 + dt, order, tab).to_dense(n, cap=256)
        u = exact_evolution_operator(ham, n, t0, t0 + dt, substeps=2000)
        errs.append(np.linalg.norm(w - u, 2))
    for e1, e2 in zip(errs, errs[1:]):
        assert abs(e1 / e2 - 2 ** (order + 1)) < 0.3 * 2 ** (order + 1)


def test_dyson_merged_equals_flat():
    ham = modulated_ising()
    tab = table_for(ham, 0.3, 0.4, 2)
    wm = dyson_mpo(ham, 0.3, 0.4, 2, tab)
    wf = flat_dyson_mpo(ham, 0.3, 0.4, 2, tab)
    np.testing.assert_allclose(wm.to_dense(4), wf.to_dense(4), atol=1e-13)


def test_dyson_missing_bracket_error():
    ham = modulated_ising()
    tab = table_for(ham, 0.0, 0.1, 1)
    with pytest.raises(ValueError):
        dyson_mpo(ham, 0.0, 0.1, 2, tab)


def test_dyson_interval_mismatch_error():
    ham = modulated_ising()
    tab = table_for(ham, 0.0, 0.1, 1)
    with pytest.raises(ValueError):
        dyson_mpo(ham, 0.0, 0.2, 1, tab)


def test_omega1_single_constant_channel():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(1.0))])
    dt = 0.4
    tab = table_for(ham, 0.0, dt, 1)
    om = magnus_omega1(ham, tab)
    np.testing.assert_allclose(om.to_dense(3), -1j * dt * h.to_dense(3),
                               atol=1e-12)


def test_omega1_full_period_sine_vanishes():
    ham = modulated_ising()
    tab = table_for(ham, 0.0, 1.0, 1)
    assert abs(tab.value(("zz",))) < 1e-9
    om = magnus_omega1(ham, tab)
    # only the cosine channel survives; subtracting it leaves ~nothing
    rest = fdmpo.add(om, fdmpo.scale(ham.channels[1].operator,
                                     -tab.value(("x",))))
    assert np.abs(rest.to_dense(4)).max() < 1e-8


def test_omega1_two_channels_dense():
    ham = two_channel_couplings()
    tab = table_for(ham, 0.1, 0.6, 1)
    om = magnus_omega1(ham, tab)
    ref = tab.value(("a",)) * ham.channels[0].operator.to_dense(4) + \
        tab.value(("b",)) * ham.channels[1].operator.to_dense(4)
    np.testing.assert_allclose(om.to_dense(4), ref, atol=1e-12)


def test_omega2_single_channel_vanishes():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    ham = TimeDependentHamiltonian([Channel("c", h, SIN)])
    tab = table_for(ham, 0.0, 0.3, 2)
    om2 = magnus_omega2(ham, tab)
    assert np.abs(om2.to_dense(3)).max() < 1e-14


def test_omega2_commuting_channels_vanish():
    hz1 = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    hz2 = fdmpo.from_terms(2, on_site=SZ)
    ham = TimeDependentHamiltonian([Channel("a", hz1, SIN), Channel("b", hz2, COS)])
    tab = table_for(ham, 0.0, 0.3, 2)
    om2 = magnus_omega2(ham, tab)
    assert np.abs(om2.to_dense(4)).max() < 1e-12


def test_omega2_against_double_quadrature():
    from scipy.integrate import quad
    ham = modulated_ising()
    t0, t1 = 0.0, 0.2
    tab = table_for(ham, t0, t1, 2)
    om2 = magnus_omega2(ham, tab)
    n = 3
    hz = ham.channels[0].operator.to_dense(n)
    hx = ham.channels[1].operator.to_dense(n)
    comm = hz @ hx - hx @ hz
    w = 2 * math.pi
    coeff, _ = quad(lambda a: quad(
        lambda b: math.sin(w * a) * math.cos(w * b)
        - math.cos(w * a) * math.sin(w * b), t0, a)[0], t0, t1)
    np.testing.assert_allclose(om2.to_dense(n), -0.5 * coeff * comm, atol=1e-8)


def test_magnus_evolution_matches_dyson_first_order():
    ham = modulated_ising()
    t0, t1 = 0.0, 0.08
    tab = table_for(ham, t0, t1, 1)
    wd = dyson_mpo(ham, t0, t1, 1, tab)
    wm = magnus_evolution(ham, t0, t1, 1, 1, tab)
    np.testing.assert_allclose(wm.to_dense(4), wd.to_dense(4), atol=1e-12)


def test_magnus_time_independent_reduces_to_taylor():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(1.0))])
    dt = 0.16
    tab = table_for(ham, 0.0, dt, 2)
    wm = magnus_evolution(ham, 0.0, dt, 1, 2, tab)
    ref = taylor_mpo(h, -1j * dt, 2)
    np.testing.assert_allclose(wm.to_dense(4), ref.to_dense(4), atol=1e-12)


def test_magnus_second_order_scaling():
    ham = modulated_ising()
    n = 4
    errs = []
    for dt in (0.05, 0.025):
        tab = table_for(ham, 0.0, dt, 2)
        w = magnus_evolution(ham, 0.0, dt, 2, 2, tab).to_dense(n, cap=256)
        u = exact_evolution_operator(ham, n, 0.0, dt, substeps=1500)
        errs.append(np.linalg.norm(w - u, 2))
    assert abs(errs[0] / errs[1] - 8) < 0.25 * 8


def test_magnus_order_cap():
    ham = modulated_ising()
    tab = table_for(ham, 0.0, 0.1, 2)
    with pytest.raises(ValueError):
        magnus_evolution(ham, 0.0, 0.1, 3, 3, tab)


def test_identity_mpo():
    w = identity_mpo(2)
    np.testing.assert_allclose(w.to_dense(3), np.eye(8), atol=1e-15)
