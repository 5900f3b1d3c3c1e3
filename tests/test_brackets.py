"""Bracket tables against the literal train chain and the grid sum.

Every driving takes the one grid-sum evaluator of `dysonmpo.brackets`; the
train chain of `helpers` and the explicit sum `dense_discrete_bracket`
reach the same left-endpoint grid sum independently.
"""

import math
from itertools import product

import numpy as np
import pytest

from helpers import (OpaqueDriving, dense_discrete_bracket,
                     literal_bracket_table)

from dysonmpo.bench import BracketCache
from dysonmpo.brackets import (BracketTable, time_ordered_integral,
                               time_ordered_integrals)
from dysonmpo.driving import (ConstDriving, ExpDriving, PolyDriving,
                              SampledDriving, TrigDriving)
from dysonmpo.models import modulated_ising, modulated_xxz
from dysonmpo.quadrature import quad_time_ordered_integral

SIN = TrigDriving("sin", omega=2 * math.pi)


def channels_of(ham):
    return [(c.name, c.driving) for c in ham.channels]


def assert_matches_literal(channels, t0, t1, order, rel=1e-13):
    """Every key within ``rel * max(|ref|, scale)`` of the literal chain.

    `scale` is the largest entry of the same order.  The floor matters only
    for entries that nearly cancel: on [0.1, 0.35] the cos channel's
    integral changes sign and ``[x x x x]`` is 6.4e-8 against an order-4
    scale of 1.0e-4.  There the grid sum itself is only good to about 5e-13
    of the entry (the literal chain without any compression differs from
    the compressed one by that much), so a bound relative to the entry
    alone would test rounding, not the engine.
    """
    table = BracketTable.compute(channels, t0, t1, order)
    names = [name for name, _ in channels]
    for k in range(1, order + 1):
        got = {key for key in table.values if len(key) == k}
        assert got == set(product(names, repeat=k)), k
    expected = literal_bracket_table(channels, t0, t1, order)
    assert set(table.values) == set(expected)
    scale = {}
    for key, ref in expected.items():
        scale[len(key)] = max(scale.get(len(key), 0.0), abs(ref))
    for key, ref in expected.items():
        floor = max(abs(ref), scale[len(key)])
        assert abs(table.values[key] - ref) <= rel * floor, \
            (key, table.values[key], ref)
    return table


# step intervals of the benchmark sweeps, and one on which the cos
# channel's integral changes sign so that entries nearly cancel
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("interval", [(0.0, 0.25), (0.125, 0.1875),
                                      (0.1, 0.35)])
def test_table_matches_literal_chain_tfi(order, interval):
    assert_matches_literal(channels_of(modulated_ising()), *interval, order)


def test_table_matches_literal_chain_xxz():
    # a constant channel next to a sine with an offset
    assert_matches_literal(channels_of(modulated_xxz()), 0.0625, 0.125, 4)


def test_table_matches_literal_chain_exp_driving():
    channels = [("e", ExpDriving(rate=-1.3, amplitude=0.7)), ("s", SIN)]
    assert_matches_literal(channels, 0.2, 0.45, 3)


def test_table_matches_literal_chain_exp_set():
    # real and complex rates next to a modulated sine
    assert_matches_literal(CHANNEL_SETS["exp"], 0.1, 0.35, 4)


def test_table_all_constant_channels_closed_form():
    channels = [("a", ConstDriving(2.0)), ("b", ConstDriving(-0.5))]
    t0, t1 = 0.1, 0.4
    table = assert_matches_literal(channels, t0, t1, 4, rel=0.0)
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
    table = assert_matches_literal(channels_of(modulated_ising()),
                                   0.3, 0.3, 3, rel=0.0)
    assert all(v == 0 for v in table.values.values())


def test_driving_without_piece_form_raises():
    channels = [("a", SIN), ("b", OpaqueDriving(SIN))]
    with pytest.raises(ValueError, match="channel 'b': driving OpaqueDriving "
                                         r"\(driving\) states no piece form"):
        BracketTable.compute(channels, 0.0, 0.25, 2)


@pytest.mark.parametrize("bits", [0, -3, 2.5, "24", True])
def test_bits_must_be_a_positive_integer(bits):
    channels = channels_of(modulated_ising())
    with pytest.raises(ValueError, match="bits must be an integer >= 1"):
        BracketTable.compute(channels, 0.0, 0.25, 2, bits=bits)
    with pytest.raises(ValueError, match="bits must be an integer >= 1"):
        time_ordered_integrals(dict(channels), [("zz",)], 0.3, 0.3, bits=bits)
    with pytest.raises(ValueError, match="bits must be an integer >= 1"):
        BracketCache(modulated_ising(), bits=bits)


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


# grids of 2 to 8 points too: no grid step needs to resolve the drivings
@pytest.mark.parametrize("set_name", sorted(CHANNEL_SETS))
@pytest.mark.parametrize("interval", [(0.1, 0.35), (0.0, 0.5)])
@pytest.mark.parametrize("bits", [1, 2, 3, 10, 12])
def test_closed_form_is_the_grid_sum(bits, interval, set_name):
    channels = CHANNEL_SETS[set_name]
    by_name = dict(channels)
    table = BracketTable.compute(channels, *interval, 4, bits=bits)
    # all-constant sequences take the exact integral, not the grid sum
    keys = [key for key in table.values
            if any(by_name[name].constant_value is None for name in key)]
    ref = {key: dense_discrete_bracket([by_name[n] for n in key], *interval,
                                       bits)
           for key in keys}
    scale = {}
    for key in keys:
        scale[len(key)] = max(scale.get(len(key), 0.0), abs(ref[key]))
    for key in keys:
        floor = max(abs(ref[key]), scale[len(key)])
        assert abs(table.values[key] - ref[key]) <= 1e-14 * floor, key


def test_order4_poly_and_samples_table_reads_no_grid(monkeypatch):
    # an order-4 table at R = 24 reads each driving through a few pieces,
    # never on the 2**24 grid points
    calls = []
    for cls in (PolyDriving, SampledDriving, TrigDriving):
        original = cls.__call__

        def counting(self, t, original=original):
            calls.append(np.size(t))
            return original(self, t)

        monkeypatch.setattr(cls, "__call__", counting)
    channels = [("p", POLY), ("x", SAMPLES), ("s", SIN_MOD)]
    table = BracketTable.compute(channels, 0.0, 0.5, 4, bits=24)
    assert len(table.values) == 3 + 9 + 27 + 81
    assert sum(calls) <= 4
    for key in [("p",), ("x",), ("x", "p"), ("s", "p")]:
        fs = [dict(channels)[name] for name in key]
        ref = quad_time_ordered_integral(fs, 0.0, 0.5, abs_tol=1e-10)
        # the left-endpoint bias is O(2**-24)
        assert abs(table.values[key] - ref) <= 1e-7, key


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

