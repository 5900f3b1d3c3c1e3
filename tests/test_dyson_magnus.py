import math
from itertools import product

import numpy as np
import pytest

from helpers import (all_transitions, composition_sum, coo_digest,
                     driving_value, entries, exp_weight, flat_dyson_mpo,
                     level_symbols, literal_to_dense, log_weight,
                     magnus_omega1, magnus_omega2, magnus_taylor_mpo,
                     magnus_word)

from dysonmpo import fdmpo
from dysonmpo.bench import BracketCache, build_step_mpo
from dysonmpo.brackets import BracketTable
from dysonmpo.compression import row_compress
from dysonmpo.driving import Channel, ConstDriving, TimeDependentHamiltonian, \
    TrigDriving
from dysonmpo.dyson import dyson_mpo, identity_mpo, magnus_evolution
from dysonmpo.evolve import exact_evolution_operator
from dysonmpo.extensive import ExtensiveMPO, PowerPlan, _transitions
from dysonmpo.levels import IDENTITY_LEVEL, ONE, LevelLabel, three, two
from dysonmpo.models import modulated_ising, modulated_xxz
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
    return BracketTable.compute(channels, [t0], [t1], order, **kw)[0]


def test_rewire_five_level_structure():
    ham = two_channel_couplings()
    assert level_symbols(ham) == [two("a", 0), two("b", 0), three("a"),
                                  three("b")]
    trans = {}
    for x, y, op in _transitions(ham):
        assert (x, y) not in trans
        trans[(x, y)] = op
    # the start level, one middle level per channel, one finishing level
    # per channel; nothing leads back towards the start level, and the
    # 1 -> 1 identity, which appends no symbol, is left to the oracles
    assert set(trans) == {
        (ONE, two("a", 0)), (ONE, two("b", 0)),
        (two("a", 0), three("a")), (two("b", 0), three("b")),
        (three("a"), three("a")), (three("b"), three("b"))}
    assert all_transitions(ham)[0][:2] == (ONE, ONE)
    np.testing.assert_allclose(all_transitions(ham)[0][2], ID2)
    np.testing.assert_allclose(trans[(ONE, two("a", 0))], SZ)
    np.testing.assert_allclose(trans[(ONE, two("b", 0))], SX)
    np.testing.assert_allclose(trans[(two("a", 0), three("a"))], SZ)
    np.testing.assert_allclose(trans[(two("b", 0), three("b"))], SX)
    np.testing.assert_allclose(trans[(three("a"), three("a"))], ID2)
    np.testing.assert_allclose(trans[(three("b"), three("b"))], ID2)
    # the driving weights belong to the arrows into the finishing levels
    assert driving_value(ham, "a", 0.3) == pytest.approx(
        math.sin(2 * math.pi * 0.3), abs=1e-15)
    assert driving_value(ham, "b", 0.3) == pytest.approx(
        math.cos(2 * math.pi * 0.3), abs=1e-15)


def test_rewire_constant_driving_matches_static():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(1.0))])
    np.testing.assert_allclose(ham.to_dense(3, 0.77), h.to_dense(3),
                               atol=1e-14)


def test_rewire_dense_at_time():
    ham = two_channel_couplings()
    got = ham.to_dense(3, 0.3)
    ref = math.sin(0.6 * math.pi) * ham.channels[0].operator.to_dense(3) + \
        math.cos(0.6 * math.pi) * ham.channels[1].operator.to_dense(3)
    np.testing.assert_allclose(got, ref, atol=1e-13)


def test_dyson_first_order_tensor_structure():
    ham = modulated_ising()
    t0, t1 = 0.1, 0.3
    tab = table_for(ham, t0, t1, 1)
    w = dyson_mpo(ham, tab, 1)
    one = IDENTITY_LEVEL
    lvl2 = LevelLabel((two("zz", 0),))
    f1 = tab.value(("zz",))
    f2 = tab.value(("x",))
    blocks = entries(w)
    np.testing.assert_allclose(blocks[(one, one)], ID2 + f2 * SX, atol=1e-14)
    np.testing.assert_allclose(blocks[(one, lvl2)], SZ, atol=1e-14)
    np.testing.assert_allclose(blocks[(lvl2, one)], f1 * SZ, atol=1e-14)
    assert w.bond_dimension == 2


def test_dyson_zero_interval_is_identity():
    ham = modulated_ising()
    tab = table_for(ham, 0.2, 0.2, 1)
    w = dyson_mpo(ham, BracketTable(tab.values, 3), 3)
    np.testing.assert_allclose(w.to_dense(4), np.eye(16), atol=1e-15)
    assert w.bond_dimension == 1


def test_dyson_constant_channel_matches_taylor_densely():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(1.0))])
    dt = 0.17
    tab = table_for(ham, 0.0, dt, 1)
    w = dyson_mpo(ham, tab, 1)
    ref = taylor_mpo(h, -1j * dt, 1)
    np.testing.assert_allclose(w.to_dense(3), ref.to_dense(3), atol=1e-13)


def test_dyson_constant_channel_matches_taylor_entrywise():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)], longer={(0, 0): 0.4 * ID2})
    ham = TimeDependentHamiltonian([Channel("h", h, ConstDriving(1.0))])
    dt = 0.11
    for order in (1, 2, 3):
        tab = table_for(ham, 0.0, dt, order)
        w = dyson_mpo(ham, tab, order)
        ref = taylor_mpo(h, -1j * dt, order)
        assert w.levels == ref.levels
        got, want = entries(w), entries(ref)
        assert set(got) == set(want)
        for key, op in want.items():
            np.testing.assert_allclose(got[key], op, atol=1e-14)


def test_dyson_second_order_identity_entry():
    ham = modulated_ising()
    t0, t1 = 0.05, 0.25
    tab = table_for(ham, t0, t1, 2)
    w = dyson_mpo(ham, tab, 2)
    # identity-level entry is 1 + sum_a [f_a] D_a + sum_ab [f_a f_b] D_a D_b
    ref = ID2 + tab.value(("x",)) * SX + tab.value(("x", "x")) * SX @ SX
    np.testing.assert_allclose(
        entries(w)[(IDENTITY_LEVEL, IDENTITY_LEVEL)], ref, atol=1e-14)


def test_dyson_second_order_reroute_weights():
    # rows folding into the identity level carry the brackets of their
    # finishing sequence: [f_a] on first-order rows, [f_a f_b] on the rest
    ham = modulated_ising()
    t0, t1 = 0.05, 0.25
    tab = table_for(ham, t0, t1, 2)
    w = entries(dyson_mpo(ham, tab, 2))
    one = IDENTITY_LEVEL
    l2 = LevelLabel((two("zz", 0),))
    l23a = LevelLabel((two("zz", 0), three("zz")))
    l23b = LevelLabel((two("zz", 0), three("x")))
    l32a = LevelLabel((three("zz"), two("zz", 0)))
    l32b = LevelLabel((three("x"), two("zz", 0)))
    # the first-order row also carries the same-site double completions
    ref = tab.value(("zz",)) * SZ + tab.value(("zz", "x")) * SZ @ SX \
        + tab.value(("x", "zz")) * SX @ SZ
    np.testing.assert_allclose(w[(l2, one)], ref, atol=1e-14)
    np.testing.assert_allclose(w[(l23a, one)],
                               tab.value(("zz", "zz")) * SZ, atol=1e-14)
    np.testing.assert_allclose(w[(l23b, one)],
                               tab.value(("zz", "x")) * SZ, atol=1e-14)
    np.testing.assert_allclose(w[(l32a, one)],
                               tab.value(("zz", "zz")) * SZ, atol=1e-14)
    np.testing.assert_allclose(w[(l32b, one)],
                               tab.value(("x", "zz")) * SZ, atol=1e-14)


def test_dyson_overlapping_string_coefficient():
    # channel 1 drives L (x) R, channel 2 drives an on-site D; the overlapping
    # second-order string (L D) (x) R must carry the bracket [f1 f2]
    h1 = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    h2 = fdmpo.from_terms(2, on_site=SX)
    ham = TimeDependentHamiltonian([Channel("f", h1, SIN), Channel("g", h2, COS)])
    dt = 0.02
    tab = table_for(ham, 0.0, dt, 2)
    w = dyson_mpo(ham, tab, 2).to_dense(2)
    string = np.kron(SZ @ SX, SZ)
    coeff = np.trace(string.conj().T @ w) / 4.0
    assert abs(coeff - tab.value(("f", "g"))) < 5 * dt ** 3


def test_dyson_disjoint_second_order_factors():
    # coefficient of the disjoint string zz(0,1) * x(3) in the first-order
    # MPO equals [f_zz][f_x] (Pauli strings are orthogonal)
    ham = modulated_ising()
    t0, t1 = 0.1, 0.35
    tab = table_for(ham, t0, t1, 1)
    w = dyson_mpo(ham, tab, 1).to_dense(4)
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
        w = dyson_mpo(ham, tab, order).to_dense(n)
        u = exact_evolution_operator(ham, n, t0, t0 + dt, substeps=2000)
        errs.append(np.linalg.norm(w - u, 2))
    for e1, e2 in zip(errs, errs[1:]):
        assert abs(e1 / e2 - 2 ** (order + 1)) < 0.3 * 2 ** (order + 1)


def test_dyson_merged_equals_flat():
    ham = modulated_ising()
    tab = table_for(ham, 0.3, 0.4, 2)
    wm = dyson_mpo(ham, tab, 2)
    wf = flat_dyson_mpo(ham, tab, 2)
    np.testing.assert_allclose(wm.to_dense(4), wf.to_dense(4), atol=1e-13)


def test_dyson_missing_bracket_error():
    ham = modulated_ising()
    tab = table_for(ham, 0.0, 0.1, 1)
    with pytest.raises(ValueError):
        dyson_mpo(ham, tab, 2)


def test_power_plan_reads_the_hamiltonian():
    # a plan takes the Hamiltonian itself; a step that weights it is the
    # step that builds its own plan, bit for bit
    ham = modulated_ising()
    tab = table_for(ham, 0.1, 0.3, 3)
    plan = PowerPlan(ham, 3)
    assert plan.hamiltonian is ham
    mpo = dyson_mpo(ham, tab, 3, plan=plan)
    assert mpo.params["plan"] is plan and mpo.params["brackets"] is tab
    assert coo_digest(mpo) == coo_digest(dyson_mpo(ham, tab, 3))


def test_a_table_of_zeros_builds_the_identity():
    # a frozen tau = 0 and drivings that vanish on the step weight every
    # finished level 0: the step is the exact identity, of bond 1
    ham = modulated_ising()
    still = TimeDependentHamiltonian(
        [Channel(c.name, c.operator, ConstDriving(0.0))
         for c in ham.channels])
    tables = [(ham, BracketTable.frozen({"zz": 1.0, "x": 1.0}, 0.0, 3)),
              (still, table_for(still, 0.1, 0.3, 3))]
    for h, table in tables:
        assert not any(table.values.values())
        [(w, report)] = build_step_mpo(h, [table], 3, qr_tol=1e-12,
                                       compress=False)
        assert report is None and w.bond_dimension == 1
        np.testing.assert_array_equal(w.to_dense(4), np.eye(16))


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
    wd = dyson_mpo(ham, tab, 1)
    wm = magnus_evolution(ham, tab, 1)
    np.testing.assert_allclose(wm.to_dense(4), wd.to_dense(4), atol=1e-12)


def test_magnus_time_independent_reduces_to_taylor():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(1.0))])
    dt = 0.16
    tab = table_for(ham, 0.0, dt, 2)
    wm = magnus_evolution(ham, tab, 2)
    ref = taylor_mpo(h, -1j * dt, 2)
    np.testing.assert_allclose(wm.to_dense(4), ref.to_dense(4), atol=1e-12)


def test_magnus_second_order_scaling():
    ham = modulated_ising()
    n = 4
    errs = []
    for dt in (0.05, 0.025):
        tab = table_for(ham, 0.0, dt, 2)
        w = magnus_evolution(ham, tab, 2).to_dense(n)
        u = exact_evolution_operator(ham, n, 0.0, dt, substeps=1500)
        errs.append(np.linalg.norm(w - u, 2))
    assert abs(errs[0] / errs[1] - 8) < 0.25 * 8


def _shuffles(u, v):
    """The shuffle product of two words, as a list of words."""
    if not u or not v:
        return [u + v]
    return ([u[:1] + w for w in _shuffles(u[1:], v)]
            + [v[:1] + w for w in _shuffles(u, v[1:])])


def _words(ham, longest):
    """Every channel word of 1 to `longest` letters."""
    names = [c.name for c in ham.channels]
    return [w for k in range(1, longest + 1)
            for w in product(names, repeat=k)]


def _omega_scale(tab, word):
    """Summed magnitudes of the terms of Omega's log series on `word`."""
    return composition_sum(word, lambda part: abs(tab.value(part)),
                           lambda k: abs(log_weight(k)))


@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_omega_words_of_two_letters_are_omega1_and_omega2(model):
    # the log of the table on words of 1-2 letters is [f_a] and
    # ([f_a f_b] - [f_b f_a]) / 2, so it sums to Omega_1 + Omega_2
    ham = model()
    tab = table_for(ham, 0.1, 0.6, 2)
    n = 4
    dense = {c.name: c.operator.to_dense(n) for c in ham.channels}
    total = np.zeros_like(next(iter(dense.values())))
    for word in _words(ham, 2):
        omega = magnus_word(tab.value, word)
        if len(word) == 1:
            expected = tab.value(word)
        else:
            expected = 0.5 * (tab.value(word) - tab.value(word[::-1]))
        assert abs(omega - expected) <= 1e-14 * _omega_scale(tab, word)
        total += omega * np.linalg.multi_dot([np.eye(2 ** n)] +
                                             [dense[a] for a in word])
    ref = fdmpo.add(magnus_omega1(ham, tab), magnus_omega2(ham, tab))
    np.testing.assert_allclose(total, ref.to_dense(n), rtol=0, atol=1e-14)


@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_omega_is_a_lie_element(model):
    # the log of the signature is primitive: its coefficients on the
    # shuffles of any two nonempty words sum to zero (Ree 1958)
    ham = model()
    tab = table_for(ham, 0.1, 0.6, 5)
    omega = {w: magnus_word(tab.value, w) for w in _words(ham, 5)}
    words = _words(ham, 4)
    for u in words:
        for v in words:
            if len(u) + len(v) > 5:
                continue
            shuffled = _shuffles(u, v)
            total = sum(omega[w] for w in shuffled)
            scale = sum(_omega_scale(tab, w) for w in shuffled)
            assert abs(total) <= 1e-14 * scale, (u, v, total, scale)


@pytest.mark.parametrize("n_magnus", [1, 2])
@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_magnus_weights_obey_the_shuffle_relations(model, n_magnus):
    # Omega_1 + ... + Omega_n (Omega's words of at most n letters) is a
    # Lie element, so its exp is group-like: the word coefficients multiply
    # as the brackets do, c(u) c(v) = sum c(u ⧢ v)
    ham = model()
    tab = table_for(ham, 0.1, 0.6, n_magnus)
    omega, omega_scale = {}, {}
    for w in _words(ham, n_magnus):
        omega[w] = magnus_word(tab.value, w)
        omega_scale[w] = _omega_scale(tab, w)
    words = _words(ham, 4)
    weights = {w: composition_sum(w, lambda p: omega.get(p, 0.0), exp_weight)
               for w in words}
    scales = {w: composition_sum(w, lambda p: omega_scale.get(p, 0.0),
                                 exp_weight)
              for w in words}
    for u in _words(ham, 3):
        for v in _words(ham, 3):
            if len(u) + len(v) > 4:
                continue
            shuffled = _shuffles(u, v)
            lhs = weights[u] * weights[v]
            rhs = sum(weights[w] for w in shuffled)
            scale = scales[u] * scales[v] + sum(scales[w] for w in shuffled)
            assert abs(lhs - rhs) <= 1e-14 * scale, (u, v, lhs, rhs)


@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_magnus_words_of_two_letters_are_brackets(model):
    # exp(Omega_1 + Omega_2) on words of 1-2 letters is the table, so
    # Magnus orders 1 and 2 are Dyson orders 1 and 2
    ham = model()
    tab = table_for(ham, 0.1, 0.6, 2)
    omega = {w: magnus_word(tab.value, w) for w in _words(ham, 2)}
    for key, value in tab.values.items():
        weight = composition_sum(key, omega.__getitem__, exp_weight)
        assert abs(weight - value) <= 1e-14 * abs(value), key


@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_exp_of_omega_is_the_bracket_table(model):
    # exp(Omega) truncated to N letters is the order-N table, which is why
    # the order-N Magnus MPO is the order-N Dyson MPO
    ham = model()
    tab = table_for(ham, 0.1, 0.6, 5)
    words = _words(ham, 5)
    omega = {w: magnus_word(tab.value, w) for w in words}
    omega_scale = {w: _omega_scale(tab, w) for w in words}
    for word in words:
        value = composition_sum(word, omega.__getitem__, exp_weight)
        scale = composition_sum(word, omega_scale.__getitem__, exp_weight)
        assert abs(value - tab.value(word)) <= 1e-13 * scale, word


@pytest.mark.parametrize("model, bonds", [
    (modulated_ising, [(2, 2), (3, 3), (6, 6), (11, 11)]),
    (modulated_xxz, [(4, 4), (13, 13), (46, 20), (163, 35)])])
def test_magnus_bond_equals_dyson_bond(model, bonds):
    # (row-compressed, applied) bonds; the XXZ steps of bond 46 and 163
    # are factored to their row rank
    ham = model()
    cache = BracketCache(ham, order=4)
    tab = cache.table(0.0, 0.0625, 4)
    for order, (rows, bond) in zip((1, 2, 3, 4), bonds):
        plan = cache.plan(order)
        [(step, report)] = build_step_mpo(ham, [tab], order, qr_tol=1e-12,
                                          plan=plan)
        assert step.bond_dimension == report.bond_dimension_bulk == bond
        assert report.bond_dimension_after == rows
        compression = plan.compression
        dyson = dyson_mpo(ham, tab, order, plan=plan)
        magnus = magnus_evolution(ham, tab, order, plan=plan)
        assert coo_digest(magnus) == coo_digest(dyson)
        for mpo in (dyson, magnus):
            compressed, _ = row_compress(mpo, tol=1e-12)
            assert compressed.bond_dimension == rows
        # the Magnus step reuses the Dyson order's compression plan
        assert plan.compression is compression


@pytest.mark.parametrize("order, dts", [(3, (0.2, 0.1, 0.05)),
                                        (4, (0.1, 0.05))])
def test_magnus_mpo_against_the_taylor_power_of_omega(order, dts):
    # the power of Omega_1 + Omega_2 lacks Omega_3 and beyond, and keeps
    # words of more than N letters; each difference weighs O(dt^(N+1))
    ham = modulated_ising()
    diffs = []
    for dt in dts:
        tab = table_for(ham, 0.0, dt, order)
        new = magnus_evolution(ham, tab, order)
        old = magnus_taylor_mpo(ham, order, tab)
        diffs.append(np.linalg.norm(new.to_dense(4) - old.to_dense(4), 2))
    for d1, d2 in zip(diffs, diffs[1:]):
        assert d1 / d2 > 0.7 * 2 ** (order + 1)


def test_identity_mpo():
    w = identity_mpo(2)
    np.testing.assert_allclose(w.to_dense(3), np.eye(8), atol=1e-15)


@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_to_dense_matches_the_per_entry_expansion(model, order):
    # the sparse contraction over the coordinate arrays against one kron
    # per (level, entry), for the power and its row compression
    ham = model()
    tab = table_for(ham, 0.1, 0.35, order)
    [(mpo, _)] = build_step_mpo(ham, [tab], order, qr_tol=1e-12,
                                compress=False)
    [(compressed, _)] = build_step_mpo(ham, [tab], order, qr_tol=1e-12)
    for w in (mpo, compressed):
        for n in range(5):
            ref = literal_to_dense(w, n)
            assert np.linalg.norm(w.to_dense(n) - ref) <= \
                1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("channels, message", [
    ([], "at least one channel required"),
    ([Channel("a", fdmpo.from_terms(2, on_site=SX), SIN),
      Channel("b", fdmpo.from_terms(3, on_site=np.eye(3)), COS)],
     "all channels must share the physical dimension"),
])
def test_hamiltonian_rejects_bad_channels(channels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TimeDependentHamiltonian(channels)


def test_hamiltonian_names_a_repeated_channel():
    # the first name seen twice, as `BracketTable.compute` names it
    x, z = fdmpo.from_terms(2, on_site=SX), fdmpo.from_terms(2, on_site=SZ)
    channels = [Channel("a", x, SIN), Channel("b", z, COS),
                Channel("a", z, COS), Channel("b", x, SIN)]
    with pytest.raises(ValueError, match="^channel name 'a' is listed twice$"):
        TimeDependentHamiltonian(channels)


def test_common_period_of_commensurate_and_incommensurate_drives():
    x = fdmpo.from_terms(2, on_site=SX)
    zz = fdmpo.from_terms(2, two_site=[(SZ, SZ)])

    def period(omega, swap=False):
        drives = [SIN, TrigDriving("cos", omega=omega)][::-1 if swap else 1]
        return TimeDependentHamiltonian([
            Channel("zz", zz, drives[0]),
            Channel("x", x, drives[1])]).common_period()

    assert period(4 * math.pi) == pytest.approx(1.0)
    # periods 1 and 1.5 first repeat together at 3, in either order
    for swap in (False, True):
        assert period(4 * math.pi / 3, swap) == pytest.approx(3.0, rel=1e-12)
        assert period(2 * math.pi * math.sqrt(2), swap) is None


def test_dyson_mpo_rejects_order_zero_and_a_plan_of_another_order():
    ham = modulated_ising()
    cache = BracketCache(ham, order=3)
    tab = cache.table(0.0, 0.125, 3)
    with pytest.raises(ValueError, match="^order must be at least 1$"):
        dyson_mpo(ham, tab, 0)
    with pytest.raises(ValueError, match="^an order-2 plan cannot build an "
                                         "order-3 Dyson MPO$"):
        dyson_mpo(ham, tab, 3, plan=cache.plan(2))


def test_extensive_mpo_needs_the_identity_level_first():
    # both boundary vectors are one-hot on level 0, so a labelled MPO
    # names the identity level first, whichever code builds it
    level = LevelLabel((two("zz", 0),))
    one = np.ones(1, dtype=np.intp)
    block = np.eye(2, dtype=complex)[None]
    with pytest.raises(ValueError, match="first level must be the identity"):
        ExtensiveMPO(2, [level, IDENTITY_LEVEL], one, one, block)
    # the same block in a labelled MPO with the identity first, and in
    # one without labels, is accepted
    assert ExtensiveMPO(2, [IDENTITY_LEVEL, level], one, one,
                        block).bond_dimension == 2
    assert ExtensiveMPO(2, 2, one, one, block).levels is None
