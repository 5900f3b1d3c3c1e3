"""Bracket tables against the literal per-sequence chain and the grid sum.

Sums of exponentials take the closed form, other drivings the
shared-suffix train engine; both evaluate the same left-endpoint grid sum.
"""

import math
from itertools import product

import numpy as np
import pytest

from helpers import (OpaqueDriving, dense_discrete_bracket,
                     literal_bracket_table)

from dysonmpo.brackets import BracketTable
from dysonmpo.driving import (ConstDriving, ExpDriving, PolyDriving,
                              SampledDriving, TrigDriving)
from dysonmpo.models import modulated_ising, modulated_xxz
from dysonmpo.quantics import QuanticsTrain, time_ordered_integral

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


def test_unknown_engine_raises_on_empty_interval():
    with pytest.raises(ValueError, match="unknown engine"):
        BracketTable.compute(channels_of(modulated_ising()), 0.3, 0.3, 2,
                             engine="bogus")


def test_order4_table_compression_count(monkeypatch):
    # channels without exponentials take the train trie: one compression
    # per shared suffix node, 2 + 4 running integrals and 4 + 8 products,
    # against 136 for a separate chain per sequence; the trig channels
    # themselves take the closed form and compress nothing
    calls = []
    compress = QuanticsTrain.compress

    def counting(self, *args, **kwargs):
        calls.append(self.bits)
        return compress(self, *args, **kwargs)

    monkeypatch.setattr(QuanticsTrain, "compress", counting)
    channels = channels_of(modulated_ising())
    opaque = [(name, OpaqueDriving(f)) for name, f in channels]
    BracketTable.compute(opaque, 0.0, 0.25, 4)
    assert len(calls) == 18
    calls.clear()
    BracketTable.compute(channels, 0.0, 0.25, 4)
    assert len(calls) == 0


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


# trig with phase, amplitude and offset next to a constant channel, and
# exponentials with real and complex rates
CLOSED_FORM_CHANNELS = {
    "trig": [("s", SIN_MOD), ("c", COS_MOD), ("k", ConstDriving(1.5))],
    "exp": [("e", EXP_REAL), ("z", EXP_COMPLEX), ("s", SIN_MOD)],
}


@pytest.mark.parametrize("set_name", sorted(CLOSED_FORM_CHANNELS))
@pytest.mark.parametrize("interval", [(0.1, 0.35), (0.0, 0.5)])
@pytest.mark.parametrize("bits", [10, 12])
def test_closed_form_is_the_grid_sum(bits, interval, set_name):
    channels = CLOSED_FORM_CHANNELS[set_name]
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


@pytest.mark.parametrize("channels", [
    channels_of(modulated_ising()), channels_of(modulated_xxz()),
    CLOSED_FORM_CHANNELS["exp"]], ids=["tfi", "xxz", "exp"])
def test_closed_form_matches_train_path(channels):
    closed = BracketTable.compute(channels, 0.1, 0.35, 4)
    opaque = [(name, OpaqueDriving(f)) for name, f in channels]
    trains = BracketTable.compute(opaque, 0.1, 0.35, 4)
    scale = {}
    for key, value in trains.values.items():
        scale[len(key)] = max(scale.get(len(key), 0.0), abs(value))
    for key, value in trains.values.items():
        assert abs(closed.values[key] - value) <= 2e-13 * scale[len(key)], key


def test_closed_form_needs_a_resolving_grid():
    # a grid step of a quarter period turns exp(i w t) by |expm1| = 1.41
    with pytest.raises(ValueError, match=r"bits=2 .*\(0\.0, 1\.0\)"):
        time_ordered_integral([SIN], 0.0, 1.0, bits=2)
