"""The shared-suffix bracket engine against the literal per-sequence chain."""

import math
from itertools import product

import numpy as np
import pytest

from helpers import literal_bracket_table

from dysonmpo.brackets import BracketTable
from dysonmpo.driving import ConstDriving, ExpDriving, TrigDriving
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
    # one compression per shared suffix node: 2 + 4 running integrals and
    # 4 + 8 products, against 136 for a separate chain per sequence
    calls = []
    compress = QuanticsTrain.compress

    def counting(self, *args, **kwargs):
        calls.append(self.bits)
        return compress(self, *args, **kwargs)

    monkeypatch.setattr(QuanticsTrain, "compress", counting)
    BracketTable.compute(channels_of(modulated_ising()), 0.0, 0.25, 4)
    assert len(calls) == 18
