"""The quantics-train grid sum of `helpers`, and brackets against quadrature.

The train chain (`helpers.literal_time_ordered_integral`) is one of the
two grid sums the exact brackets are checked to be the limit of, so its
pieces are tested here on their own: exponential and sampled trains,
compression, the running-integral MPO and pointwise products.
"""

import math

import numpy as np
import pytest

from helpers import (CumulativeIntegralMPO, build_qtt, pointwise_product,
                     qtt_add, qtt_exp, qtt_from_samples, qtt_from_samples_of,
                     time_ordered_integral)
from quadrature import quad_time_ordered_integral

from dysonmpo.driving import ConstDriving, ExpDriving, PolyDriving, TrigDriving

SIN = TrigDriving("sin", omega=2 * math.pi)
COS = TrigDriving("cos", omega=2 * math.pi)
ONE = ConstDriving(1.0)


def qtt_trig(kind, frequency, phase, bits):
    """Train of ``sin/cos(frequency * x + phase)`` on the unit grid."""
    return build_qtt(TrigDriving(kind, omega=frequency, phase=phase),
                     0.0, 1.0, bits)


def qtt_const(c, bits):
    return build_qtt(ConstDriving(c), 0.0, 1.0, bits)


def test_qtt_exp_zero_is_constant():
    train = qtt_exp(0.0, 8)
    values = train.evaluate_many(range(2 ** 8))
    np.testing.assert_allclose(values, np.ones(256), atol=1e-15)


def test_qtt_exp_halfway_point():
    train = qtt_exp(1.0, 10)
    assert abs(train.evaluate(512) - math.exp(0.5)) < 1e-14


def test_qtt_exp_bond_dimension_one():
    assert qtt_exp(2.0j, 12).max_bond == 1


def test_qtt_trig_quarter_point():
    train = qtt_trig("sin", 2 * math.pi, 0.0, 8)
    assert abs(train.evaluate(2 ** 8 // 4) - 1.0) < 1e-13


def test_qtt_trig_cos_origin():
    train = qtt_trig("cos", 2 * math.pi, 0.0, 8)
    assert abs(train.evaluate(0) - 1.0) < 1e-14


def test_qtt_trig_random_grid_points():
    bits = 16
    train = qtt_trig("sin", 2 * math.pi, 0.0, bits)
    assert train.max_bond == 2
    rng = np.random.default_rng(0)
    ns = rng.integers(0, 2 ** bits, size=100)
    ref = np.sin(2 * math.pi * ns / 2.0 ** bits)
    np.testing.assert_allclose(train.evaluate_many(ns), ref, atol=1e-13)


def test_compress_doubled_trig_to_bond_two():
    bits = 16
    sin = qtt_trig("sin", 2 * math.pi, 0.3, bits)
    doubled = qtt_add(sin, sin)
    assert doubled.max_bond == 4
    train = doubled.compress(tol=1e-13)
    assert train.max_bond == 2
    assert 0.0 <= train.discarded_weight < 1e-20
    rng = np.random.default_rng(3)
    ns = rng.integers(0, 2 ** bits, size=100)
    ref = 2 * np.sin(2 * math.pi * ns / 2.0 ** bits + 0.3)
    np.testing.assert_allclose(train.evaluate_many(ns), ref, rtol=0,
                               atol=1e-13)


def test_compress_bond_cap_reports_discarded_weight():
    train = qtt_trig("cos", 2 * math.pi, 0.0, 10).compress(max_bond=1)
    assert train.max_bond == 1
    assert train.discarded_weight > 1e-3


def test_qtt_from_samples_offset_sine():
    f = TrigDriving("sin", omega=2 * math.pi, offset=2.0)
    train = qtt_from_samples_of(f, 0.0, 1.0, 12)
    assert train.max_bond <= 3
    direct = build_qtt(f, 0.0, 1.0, 12)
    ns = np.arange(0, 2 ** 12, 17)
    np.testing.assert_allclose(train.evaluate_many(ns),
                               direct.evaluate_many(ns), atol=1e-11)


def test_qtt_from_samples_linear_function():
    f = PolyDriving(coeffs=(0.0, 1.0))
    train = qtt_from_samples_of(f, 0.0, 1.0, 10)
    assert train.max_bond == 2


def test_qtt_from_samples_constant():
    train = qtt_from_samples(np.full(2 ** 6, 3.5))
    assert train.max_bond == 1


def test_qtt_from_samples_bond_cap_error():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        qtt_from_samples(rng.normal(size=2 ** 8), max_bond=2, tol=1e-13)


def test_cumulative_constant_prefix_count():
    bits = 4
    delta = 1.0 / 2 ** bits
    heaviside = CumulativeIntegralMPO(bits, delta)
    train = heaviside.apply(qtt_const(1.0, bits))
    values = train.evaluate_many(range(16))
    np.testing.assert_allclose(values, np.arange(16) * delta, atol=1e-14)


def test_cumulative_starts_at_zero():
    bits = 10
    heaviside = CumulativeIntegralMPO(bits, 1.0 / 2 ** bits)
    train = heaviside.apply(qtt_trig("sin", 5.0, 0.3, bits))
    assert abs(train.evaluate(0)) < 1e-15


def test_cumulative_sine_integral():
    bits = 16
    delta = 1.0 / 2 ** bits
    heaviside = CumulativeIntegralMPO(bits, delta)
    train = heaviside.apply(qtt_trig("sin", 2 * math.pi, 0.0, bits))
    got = train.evaluate(2 ** bits // 2)
    exact = 1.0 / math.pi  # integral of sin(2 pi s) on [0, 1/2]
    assert abs(got - exact) <= delta * math.pi


def test_pointwise_with_constant():
    bits = 10
    f = qtt_trig("cos", 3.0, 0.1, bits)
    prod = pointwise_product(f, qtt_const(1.0, bits))
    ns = np.arange(0, 2 ** bits, 13)
    np.testing.assert_allclose(prod.evaluate_many(ns), f.evaluate_many(ns),
                               atol=1e-13)


def test_pointwise_sin_cos_half_angle():
    bits = 8
    prod = pointwise_product(qtt_trig("sin", 2 * math.pi, 0.0, bits),
                             qtt_trig("cos", 2 * math.pi, 0.0, bits))
    assert abs(prod.evaluate(2 ** bits // 8) - 0.5) < 1e-13


def test_pointwise_random_samples():
    rng = np.random.default_rng(2)
    bits = 8
    fa = rng.normal(size=2 ** bits)
    fb = rng.normal(size=2 ** bits)
    prod = pointwise_product(qtt_from_samples(fa), qtt_from_samples(fb))
    ns = rng.integers(0, 2 ** bits, size=50)
    np.testing.assert_allclose(prod.evaluate_many(ns), fa[ns] * fb[ns],
                               atol=1e-13)


def test_pointwise_bit_mismatch():
    with pytest.raises(ValueError):
        pointwise_product(qtt_const(1.0, 4), qtt_const(1.0, 5))


def test_exp_driving_closed_form_train():
    f = ExpDriving(rate=-1.3, amplitude=0.7)
    train = build_qtt(f, 0.2, 0.9, 14)
    assert train.max_bond == 1
    ns = np.arange(0, 2 ** 14, 97)
    ts = 0.2 + 0.7 * ns / 2.0 ** 14
    np.testing.assert_allclose(train.evaluate_many(ns), f(ts), atol=1e-12)


def test_bracket_constant_order_one():
    assert abs(time_ordered_integral([ONE], 0.0, 1.0) + 1j) < 1e-15


def test_bracket_constant_order_two():
    got = time_ordered_integral([ONE, ONE], 0.0, 1.0)
    assert abs(got - (-0.5)) <= 1e-15


def test_bracket_against_quadrature():
    got = time_ordered_integral([SIN, COS], 0.0, 0.25)
    ref = quad_time_ordered_integral([SIN, COS], 0.0, 0.25, abs_tol=1e-12)
    assert abs(got - ref) < 1e-12
    got3 = time_ordered_integral([COS, SIN, SIN], 0.1, 0.3)
    ref3 = quad_time_ordered_integral([COS, SIN, SIN], 0.1, 0.3, abs_tol=1e-11)
    assert abs(got3 - ref3) < 1e-11


def test_bracket_full_period_factoring():
    # [sin][cos] = 0 over a full period, and each single bracket vanishes
    s = time_ordered_integral([SIN], 0.0, 1.0)
    c = time_ordered_integral([COS], 0.0, 1.0)
    assert abs(s) < 1e-15 and abs(c) < 1e-15
    sc = time_ordered_integral([SIN, COS], 0.0, 1.0)
    cs = time_ordered_integral([COS, SIN], 0.0, 1.0)
    assert abs(sc + cs - s * c) < 1e-15
    ref = quad_time_ordered_integral([SIN, COS], 0.0, 1.0, abs_tol=1e-10)
    assert abs(sc - ref) < 1e-10


def test_quad_constant_over_half_interval():
    got = quad_time_ordered_integral([ONE], 0.0, 0.5)
    assert abs(got + 0.5j) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_quad_simplex_volume(k):
    got = quad_time_ordered_integral([ONE] * k, 0.0, 1.0, abs_tol=1e-11)
    ref = (-1j) ** k / math.factorial(k)
    assert abs(got - ref) < 1e-10


def test_quad_self_consistency_two_tolerances():
    a = quad_time_ordered_integral([SIN, SIN], 0.0, 1.0, abs_tol=1e-8)
    b = quad_time_ordered_integral([SIN, SIN], 0.0, 1.0, abs_tol=1e-10)
    assert abs(a - b) < 1e-8


def test_quad_depth_cap():
    with pytest.raises(ValueError):
        quad_time_ordered_integral([ONE] * 5, 0.0, 1.0)


CHANNELS = [("sin", SIN), ("cos", COS), ("const", ONE)]


def test_factoring_identity_all_pairs():
    t0, t1 = 0.3, 0.55
    vals = {}
    for name, f in CHANNELS:
        vals[(name,)] = time_ordered_integral([f], t0, t1)
    for na, fa in CHANNELS:
        for nb, fb in CHANNELS:
            ab = time_ordered_integral([fa, fb], t0, t1)
            ba = time_ordered_integral([fb, fa], t0, t1)
            defect = abs(vals[(na,)] * vals[(nb,)] - ab - ba)
            assert defect < 1e-14, (na, nb, defect)


def test_three_factor_identity():
    # [ab][c] = [abc] + [acb] + [cab]
    t0, t1 = 0.0, 0.25
    for na, fa in CHANNELS:
        for nb, fb in CHANNELS:
            for nc, fc in CHANNELS:
                ab = time_ordered_integral([fa, fb], t0, t1)
                c = time_ordered_integral([fc], t0, t1)
                abc = time_ordered_integral([fa, fb, fc], t0, t1)
                acb = time_ordered_integral([fa, fc, fb], t0, t1)
                cab = time_ordered_integral([fc, fa, fb], t0, t1)
                assert abs(ab * c - abc - acb - cab) < 1e-14, (na, nb, nc)


def test_constant_sequence_closed_form():
    two = ConstDriving(2.0)
    got = time_ordered_integral([two, ONE, two], 0.1, 0.4)
    ref = 4.0 * (-1j * 0.3) ** 3 / 6
    assert abs(got - ref) < 1e-14
