"""Bracket tables against the Van Loan exponential and quadrature.

Every driving takes the one exact evaluator of `dysonmpo.brackets`.
`helpers.van_loan_bracket` reaches each bracket of exponential and
polynomial drivings independently, with one matrix exponential per
channel sequence; sampled drivings meet the knot-aware quadrature of
`quadrature`.  The left-endpoint grid sums of `helpers` approach every
table within their first-order bias.
"""

import math
from itertools import product

import numpy as np
import pytest

from helpers import (OpaqueDriving, dense_discrete_bracket, taylor_weight,
                     literal_bracket_table, per_interval_table,
                     piecewise_van_loan_table, table_bits,
                     time_ordered_integral, van_loan_table)
from quadrature import quad_time_ordered_integral

from dysonmpo import brackets
from dysonmpo.brackets import BracketTable
from dysonmpo.driving import (ConstDriving, ExpDriving, PolyDriving,
                              SampledDriving, TrigDriving)
from dysonmpo.models import modulated_ising, modulated_xxz

SIN = TrigDriving("sin", omega=2 * math.pi)


def channels_of(ham):
    return [(c.name, c.driving) for c in ham.channels]


def assert_matches_oracle(channels, t0, t1, order, rel=1e-14):
    """Every key within ``rel`` of the largest entry of its order.

    The reference is `van_loan_table`.  A bound relative to the entry
    alone would test rounding where entries nearly cancel: on
    [0.1, 0.35] the cos channel's integral changes sign and
    ``[x x x x]`` is 6.4e-8 against an order-4 scale of 1.0e-4.
    """
    table = BracketTable.compute(channels, t0, t1, order)
    names = [name for name, _ in channels]
    for k in range(1, order + 1):
        got = {key for key in table.values if len(key) == k}
        assert got == set(product(names, repeat=k)), k
    expected = van_loan_table(channels, t0, t1, order)
    assert set(table.values) == set(expected)
    scale = {}
    for key, ref in expected.items():
        scale[len(key)] = max(scale.get(len(key), 0.0), abs(ref))
    for key, ref in expected.items():
        assert abs(table.values[key] - ref) <= rel * scale[len(key)], \
            (key, table.values[key], ref)
    return table


# step intervals of the benchmark sweeps, and one on which the cos
# channel's integral changes sign so that entries nearly cancel
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("interval", [(0.0, 0.25), (0.125, 0.1875),
                                      (0.1, 0.35)])
def test_table_matches_literal_chain_tfi(order, interval):
    assert_matches_oracle(channels_of(modulated_ising()), *interval, order)


def test_table_matches_literal_chain_xxz():
    # a constant channel next to a sine with an offset
    assert_matches_oracle(channels_of(modulated_xxz()), 0.0625, 0.125, 4)


def test_table_matches_literal_chain_exp_driving():
    channels = [("e", ExpDriving(rate=-1.3, amplitude=0.7)), ("s", SIN)]
    assert_matches_oracle(channels, 0.2, 0.45, 3)


def test_table_matches_literal_chain_exp_set():
    # real and complex rates next to a modulated sine
    assert_matches_oracle(CHANNEL_SETS["exp"], 0.1, 0.35, 4)


def test_table_all_constant_channels_closed_form():
    channels = [("a", ConstDriving(2.0)), ("b", ConstDriving(-0.5))]
    t0, t1 = 0.1, 0.4
    table = assert_matches_oracle(channels, t0, t1, 4)
    for key, value in table.values.items():
        c = np.prod([dict(channels)[name].value for name in key])
        k = len(key)
        ref = c * (-1j * (t1 - t0)) ** k / math.factorial(k)
        assert abs(value - ref) <= 1e-15 * abs(ref), key


def test_entry_does_not_depend_on_table():
    channels = channels_of(modulated_ising())
    by_name = dict(channels)
    small = BracketTable.compute(channels, 0.1, 0.35, 2)
    large = BracketTable.compute(channels, 0.1, 0.35, 4)
    for key, value in small.values.items():
        assert large.values[key] == value, key
        single = time_ordered_integral([by_name[n] for n in key], 0.1, 0.35)
        assert single == value, key


def test_table_empty_interval_is_zero():
    table = assert_matches_oracle(channels_of(modulated_ising()),
                                  0.3, 0.3, 3, rel=0.0)
    assert all(v == 0 for v in table.values.values())


def test_table_rejects_a_repeated_channel_name():
    # a repeated name would key two channels' brackets alike, and the
    # table would keep the last driving's
    channels = [("a", ConstDriving(1.0)), ("a", ConstDriving(5.0))]
    with pytest.raises(ValueError, match="^channel name 'a' is listed twice$"):
        BracketTable.compute(channels, 0.0, 1.0, 2)


def test_driving_without_piece_form_raises():
    channels = [("a", SIN), ("b", OpaqueDriving(SIN))]
    with pytest.raises(ValueError, match="channel 'b': driving OpaqueDriving "
                                         r"\(driving\) states no piece form"):
        BracketTable.compute(channels, 0.0, 0.25, 2)


SIN_MOD = TrigDriving("sin", omega=2 * math.pi, phase=0.3, amplitude=1.7,
                      offset=0.4)
COS_MOD = TrigDriving("cos", omega=5.0, phase=-1.1, amplitude=0.6)
EXP_REAL = ExpDriving(rate=-1.3, amplitude=0.7)
EXP_COMPLEX = ExpDriving(rate=0.4 + 3j, amplitude=0.5 - 0.2j)
EXP_SUMS = [SIN_MOD, COS_MOD, TrigDriving("cos", omega=0.0, phase=0.2,
                                          offset=0.5),
            EXP_REAL, EXP_COMPLEX, ExpDriving(rate=2j),
            ExpDriving(rate=0.0, amplitude=-0.8), ConstDriving(1.5)]


@pytest.mark.parametrize("driving", EXP_SUMS, ids=lambda f: f.describe())
def test_exponentials_reproduce_the_driving(driving):
    ts = np.linspace(-0.7, 2.3, 50)
    got = sum(c * np.exp(rate * ts) for c, rate in driving.exponentials())
    ref = driving(ts)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_only_exponential_sums_have_exponentials():
    assert PolyDriving(coeffs=(1.0, 2.0)).exponentials() is None
    assert SampledDriving(values=(0.0, 1.0)).exponentials() is None
    assert OpaqueDriving(SIN).exponentials() is None


POLY = PolyDriving(coeffs=(0.5, -1.0, 2.0, 0.7))
# knots inside both test intervals, and clamped ends inside (0.0, 0.5)
SAMPLES = SampledDriving(t_start=0.05, t_end=0.4,
                         values=(0.3, -1.2, 0.8, 0.5, 2.0))

# trig with phase, amplitude and offset next to a constant channel,
# exponentials with real and complex rates, a cubic next to a sine, and
# a sampled driving next to a constant
CHANNEL_SETS = {
    "trig": [("s", SIN_MOD), ("c", COS_MOD), ("k", ConstDriving(1.5))],
    "exp": [("e", EXP_REAL), ("z", EXP_COMPLEX), ("s", SIN_MOD)],
    "poly": [("p", POLY), ("s", SIN_MOD)],
    "samples": [("x", SAMPLES), ("k", ConstDriving(-0.7))],
}


# the last interval runs backward, from t0 = 0.35 to t = 0.1
@pytest.mark.parametrize("set_name", ["exp", "poly", "trig"])
@pytest.mark.parametrize("interval", [(0.1, 0.35), (0.0, 0.5), (0.35, 0.1)])
def test_table_matches_the_van_loan_oracle(interval, set_name):
    assert_matches_oracle(CHANNEL_SETS[set_name], *interval, 4)


@pytest.mark.parametrize("interval", [(0.1, 0.35), (0.0, 0.5)])
def test_samples_table_matches_quadrature_and_joined_pieces(interval):
    # knots inside both intervals; orders 1-2 against the knot-aware
    # quadrature, every order against the pieces' exponentials joined by
    # Chen's identity.  The join's sums cancel where [x] changes sign, so
    # there the oracle holds [x x x x] only to 7e-12 of the entry (the
    # table to 1e-14 of [x]**4 / 4!), 1.3e-14 of the order-4 scale
    channels = CHANNEL_SETS["samples"]
    by_name = dict(channels)
    table = BracketTable.compute(channels, *interval, 4)
    joined = piecewise_van_loan_table(channels, *interval, 4)
    scale = {}
    for key, ref in joined.items():
        scale[len(key)] = max(scale.get(len(key), 0.0), abs(ref))
    for key, value in table.values.items():
        assert abs(value - joined[key]) <= 1e-13 * scale[len(key)], key
        if len(key) <= 2:
            fs = [by_name[name] for name in key]
            ref = quad_time_ordered_integral(fs, *interval, abs_tol=1e-12)
            assert abs(value - ref) <= 1e-10, key


def _sup_and_slope(f, t0, t1):
    """``(sup |f|, sup |f'|)`` on ``[t0, t1]``, from 2**14 chords."""
    ts = np.linspace(t0, t1, 2 ** 14 + 1)
    values = np.asarray(f(ts), dtype=complex)
    return (np.abs(values).max(),
            (np.abs(np.diff(values)) / np.diff(ts)).max())


# grids of 2 to 8 points too: the bound holds on every grid
@pytest.mark.parametrize("set_name", sorted(CHANNEL_SETS))
@pytest.mark.parametrize("interval", [(0.1, 0.35), (0.0, 0.5)])
@pytest.mark.parametrize("bits", [1, 2, 3, 10, 12])
def test_closed_form_is_the_grid_sum(bits, interval, set_name):
    # the exact table is the limit of the left-endpoint sum
    # sum_{n_1 > ... > n_k} over N = 2**bits grid points, which the train
    # chain and the explicit cumulative sums reach independently.  With
    # M_i >= |f_i| and D_i >= |f_i'|, h = T / N, its bias is at most
    #   h * (T**k / k! * sum_i D_i / 2 * prod_{j != i} M_j
    #        + (k - 1) * T**(k - 1) / (k - 1)! * prod_i M_i):
    # each cell's left endpoint misses its integral by h**2 D_i / 2, and
    # the strict sum leaves out the cells that hold two adjacent times
    channels = CHANNEL_SETS[set_name]
    by_name = dict(channels)
    t0, t1 = interval
    tau, h = t1 - t0, (t1 - t0) / 2 ** bits
    table = BracketTable.compute(channels, t0, t1, 4)
    trains = literal_bracket_table(channels, t0, t1, 4, bits)
    bounds = {name: _sup_and_slope(f, t0, t1) for name, f in channels}
    scale = {}
    for key, value in table.values.items():
        scale[len(key)] = max(scale.get(len(key), 0.0), abs(value))
    for key, value in table.values.items():
        k = len(key)
        grid_sum = dense_discrete_bracket([by_name[n] for n in key], t0, t1,
                                          bits)
        assert abs(trains[key] - grid_sum) <= 5e-13 * scale[k], key
        sups = [bounds[name][0] for name in key]
        slopes = [bounds[name][1] for name in key]
        bias = h * (tau ** k / math.factorial(k)
                    * sum(slopes[i] / 2 * math.prod(sups[:i] + sups[i + 1:])
                          for i in range(k))
                    + (k - 1) * tau ** (k - 1) / math.factorial(k - 1)
                    * math.prod(sups))
        assert abs(value - grid_sum) <= bias + 1e-14 * scale[k], \
            (key, value, grid_sum, bias)


def test_stretch_beyond_the_series_limit_raises():
    # max|rate| * stretch may reach 2**_DOUBLINGS * _RATE_LIMIT, and the
    # table is exact there
    most = 2 ** brackets._DOUBLINGS * brackets._RATE_LIMIT
    channels = [("fast", TrigDriving("sin", omega=most, phase=0.3,
                                     offset=0.2)),
                ("decay", ExpDriving(rate=-most))]
    assert_matches_oracle(channels, 0.0, 1.0, 4)
    with pytest.raises(ValueError, match="channel 'fast': rate"):
        BracketTable.compute(channels, 0.0, 1.01, 2)
    # a knot splits the step into stretches that are short enough
    split = channels + [("x", SampledDriving(t_start=0.5, t_end=2.0))]
    BracketTable.compute(split, 0.0, 1.01, 2)


def test_order4_poly_and_samples_table_reads_no_grid(monkeypatch):
    # an order-4 table reads each driving through its pieces, never by
    # sampling it
    calls = []
    for cls in (PolyDriving, SampledDriving, TrigDriving):
        original = cls.__call__

        def counting(self, t, original=original):
            calls.append(np.size(t))
            return original(self, t)

        monkeypatch.setattr(cls, "__call__", counting)
    channels = [("p", POLY), ("x", SAMPLES), ("s", SIN_MOD)]
    table = BracketTable.compute(channels, 0.0, 0.5, 4)
    assert len(table.values) == 3 + 9 + 27 + 81
    assert sum(calls) <= 4
    for key in [("p",), ("x",), ("x", "p"), ("s", "p")]:
        fs = [dict(channels)[name] for name in key]
        ref = quad_time_ordered_integral(fs, 0.0, 0.5, abs_tol=1e-12)
        assert abs(table.values[key] - ref) <= 1e-10, key


@pytest.mark.parametrize("driving", [POLY, SAMPLES, SIN_MOD, EXP_COMPLEX],
                         ids=lambda f: f.describe())
def test_piece_reproduces_the_driving(driving):
    # pieces between the knots 0.1375 and 0.225, and on the clamped end
    for t, t_last in [(0.15, 0.2), (0.41, 0.9)]:
        piece = driving.piece(t, t_last)
        for x in np.linspace(0.0, t_last - t, 7):
            cols, coefs = piece.shift(x)
            moved = (coefs * piece.state[cols]).sum(axis=1)
            got = sum(moved[letter] for letter in piece.read)
            ref = driving(t + x)
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (t, x)


@pytest.mark.parametrize("kwargs, match", [
    ({"t_start": 1.0, "t_end": 0.0, "values": (0.0, 1.0, 0.0)},
     "t_end > t_start, got t_start=1.0, t_end=0.0"),
    ({"t_start": 0.5, "t_end": 0.5}, "t_end > t_start"),
    ({"values": (1.0,)}, r"at least two values, got \(1\.0,\)"),
    ({"values": (1j, 2.0)}, "samples must be real, got 1j"),
])
def test_sampled_driving_rejects_misread_input(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SampledDriving(**kwargs)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                 complex(1.0, math.inf)])
@pytest.mark.parametrize("make, named", [
    (lambda bad: ConstDriving(value=bad), "const value"),
    (lambda bad: TrigDriving("sin", omega=bad), "sin omega"),
    (lambda bad: TrigDriving("cos", phase=bad), "cos phase"),
    (lambda bad: TrigDriving("sin", amplitude=bad), "sin amplitude"),
    (lambda bad: TrigDriving("cos", offset=bad), "cos offset"),
    (lambda bad: ExpDriving(rate=bad), "exp rate"),
    (lambda bad: ExpDriving(amplitude=bad), "exp amplitude"),
    (lambda bad: PolyDriving(coeffs=(1.0, bad)), "poly coeffs"),
    (lambda bad: SampledDriving(t_start=bad), "samples t_start"),
    (lambda bad: SampledDriving(t_end=bad), "samples t_end"),
    (lambda bad: SampledDriving(values=(0.0, bad, 1.0)), "samples values"),
])
def test_drivings_reject_non_finite_parameters(make, named, bad):
    # a non-finite parameter would reach the brackets as NaN rows, zeros
    # or a misleading rate limit; it is named where it enters
    with pytest.raises(ValueError, match=f"^{named} must be finite, got "):
        make(bad)


def test_trig_driving_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^kind must be 'sin' or 'cos'$"):
        TrigDriving("tan")



@pytest.mark.parametrize("t0, t, named", [(math.nan, 0.25, "t0 = nan"),
                                          (0.0, math.inf, "t = inf"),
                                          (0.0, -math.inf, "t = -inf")])
def test_non_finite_interval_ends_raise(t0, t, named):
    channels = [(c.name, c.driving) for c in modulated_ising().channels]
    with pytest.raises(ValueError, match=f"interval end {named} is not"):
        BracketTable.compute(channels, t0, t, 2)


def test_frozen_table_entries():
    # a word of k letters weighs tau**k / k! times its letters' weights
    tau, weights = -0.5j, {"a": 2.0, "b": 1j}
    table = BracketTable.frozen(weights, tau, 3)
    assert table.interval is None and table.max_order == 3
    assert set(table.values) == {word for k in (1, 2, 3)
                                 for word in product("ab", repeat=k)}
    assert table.value(("a",)) == -1j
    assert table.value(("b",)) == 0.5
    assert table.value(("a", "b")) == table.value(("b", "a")) == -0.25j
    assert table.value(("b", "b")) == 0.125
    assert table.value(("a", "b", "a")) == pytest.approx(-1 / 12, abs=1e-17)
    assert table.value(("b", "b", "b")) == pytest.approx(1 / 48, abs=1e-17)
    with pytest.raises(KeyError, match="exceeds table order 3"):
        table.value(("a",) * 4)


@pytest.mark.parametrize("tau", [-0.125j, 0.3 - 0.05j, 1e-3, -2.0j])
def test_unit_weight_frozen_table_is_the_taylor_series_bitwise(tau):
    table = BracketTable.frozen({"h": 1.0}, tau, 6)
    assert list(table.values) == [("h",) * k for k in range(1, 7)]
    for word, value in table.values.items():
        assert value == taylor_weight(tau, word)


# every driving kind next to a second channel; SAMPLES has knots inside
# (0.0, 0.25) and (0.3, 0.1), none inside (0.15, 0.2), and holds its end
# value on (0.41, 0.9)
STACK_KINDS = {
    "const": ConstDriving(1.5),
    "sin": SIN_MOD,
    "cos": COS_MOD,
    "exp": EXP_COMPLEX,
    "poly": PolyDriving(coeffs=(0.5, -1.0, 2.0)),
    "samples": SAMPLES,
}
STACK_INTERVALS = [(0.0, 0.25), (0.15, 0.2), (0.41, 0.9), (0.3, 0.1),
                   (0.2, 0.2), (0.0, 0.0625), (0.0625, 0.125), (0.6, 0.35)]


def _assert_stack_is_per_interval(channels, intervals, order):
    tables = BracketTable.compute(channels, [a for a, _ in intervals],
                                  [b for _, b in intervals], order)
    assert len(tables) == len(intervals)
    for table, (t0, t) in zip(tables, intervals):
        assert table.interval == (t0, t) and table.max_order == order
        assert table_bits(table) == \
            table_bits(per_interval_table(channels, t0, t, order)), (t0, t)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", sorted(STACK_KINDS))
def test_stacked_tables_are_the_per_interval_tables_bitwise(kind, order):
    channels = [(kind, STACK_KINDS[kind]), ("s", SIN)]
    _assert_stack_is_per_interval(channels, STACK_INTERVALS, order)


def test_stacked_tables_of_mixed_layouts_are_bitwise():
    # stretches of four layouts in one pass: the samples channel has one
    # letter where it holds its end values and two between knots
    channels = [("x", SAMPLES), ("p", STACK_KINDS["poly"]), ("c", COS_MOD)]
    _assert_stack_is_per_interval(channels, STACK_INTERVALS, 3)


def test_single_interval_is_a_stack_of_one():
    channels = CHANNEL_SETS["trig"]
    table = BracketTable.compute(channels, 0.1, 0.35, 3)
    stack = BracketTable.compute(channels, [0.1], [0.35], 3)
    assert isinstance(table, BracketTable) and len(stack) == 1
    assert table_bits(stack[0]) == table_bits(table)
    assert BracketTable.compute(channels, [], [], 3) == []
    with pytest.raises(ValueError, match="2 interval starts for 1"):
        BracketTable.compute(channels, [0.0, 0.1], [0.2], 3)


def test_entry_cap_splits_a_batch_into_passes(monkeypatch):
    # an order-3 stretch where the samples channel has two letters (five
    # in all) has blocks of 22 * 5**3 = 2,750 entries, and one where it
    # holds its end value 22 * 4**3 = 1,408; a cap of 6,000 lets a pass
    # hold two or four of them
    channels = [("x", SAMPLES), ("s", SIN_MOD)]
    inside, clamped = ([f.piece(t, t + 0.01) for _, f in channels]
                       for t in (0.15, 0.5))
    assert brackets._entries(inside, 3) == 22 * 5 ** 3
    assert brackets._entries(clamped, 3) == 22 * 4 ** 3
    passes = []
    original = brackets._stretch

    def counting(pieces, spans, order):
        passes.append((pieces[0].state.shape[-1], len(spans)))
        return original(pieces, spans, order)

    monkeypatch.setattr(brackets, "_stretch", counting)
    monkeypatch.setattr(brackets, "PASS_SLOTS", 6000)
    _assert_stack_is_per_interval(channels, STACK_INTERVALS, 3)
    # 4 stretches where the samples channel has one letter, the first
    # met, and 10 where it has two
    assert passes == [(1, 4)] + [(2, 2)] * 5
