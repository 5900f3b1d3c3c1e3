"""Time-ordered integrals: one grid-sum evaluator for every driving.

A bracket ``[f_1 ... f_k]`` (latest time first) is the left-endpoint sum
on the ``2^R`` grid points of a step.  All brackets up to order K are the
truncated tensor-algebra product of ``1 + delta x_n`` over the grid,
``x_n`` the channel values at point n.  Each driving states itself between
its knots as a small state vector and a shift matrix, so the product over
a block of ``2^(j+1)`` points is the block of ``2^j`` points times a
shifted copy of it (Chen's identity), and a step takes R doublings.  Here
a polynomial, a sampled driving with knots inside the step and a sine
share one order-4 table at R = 24, checked against the explicit grid sum
and against adaptive quadrature.
"""

import math
import time

import numpy as np

import dysonmpo as dm

bits = 24
t0, t1 = 0.0, 0.25
poly = dm.PolyDriving(coeffs=(0.5, -1.0, 2.0))
samples = dm.SampledDriving(t_start=0.05, t_end=0.2,
                            values=(0.3, -1.2, 0.8, 2.0))
sin = dm.TrigDriving("sin", omega=2 * math.pi)
channels = [("p", poly), ("x", samples), ("s", sin)]
by_name = dict(channels)


def explicit_grid_sum(fs, t0, t1, bits, chunk=2 ** 20):
    """The same grid sum point by point, in chunks with running carries."""
    n_points = 2 ** bits
    delta = (t1 - t0) / n_points
    carries = [0.0j] * len(fs)
    total = 0.0j
    for start in range(0, n_points, chunk):
        ts = t0 + delta * np.arange(start, min(start + chunk, n_points))
        w = np.asarray(fs[-1](ts), dtype=complex) * delta
        for level in range(len(fs) - 2, -1, -1):
            below = carries[level] + np.concatenate([[0], np.cumsum(w)[:-1]])
            carries[level] += w.sum()
            w = np.asarray(fs[level](ts), dtype=complex) * below * delta
        total += w.sum()
    return (-1j) ** len(fs) * total


start = time.perf_counter()
table = dm.BracketTable.compute(channels, t0, t1, 4, bits=bits)
elapsed = time.perf_counter() - start
print(f"order-4 table over {len(channels)} channels (poly, samples, sin), "
      f"R = {bits}: {len(table.values)} entries in {1e3 * elapsed:.1f} ms")

print(f"\nentries against the explicit grid sum and quadrature on "
      f"[{t0}, {t1}]:")
# quadrature of a sampled driving nested inside an outer integral is slow
# to certify, so those entries meet the explicit grid sum only
for key in [("p",), ("x",), ("s",), ("x", "p"), ("s", "p"), ("p", "x"),
            ("s", "x", "p"), ("x", "s", "p", "p")]:
    fs = [by_name[name] for name in key]
    got = table.value(key)
    grid = explicit_grid_sum(fs, t0, t1, bits)
    line = (f"  [{' '.join(key):>7}] = {got:+.10f}   |- grid sum| = "
            f"{abs(got - grid):.1e}")
    if len(key) <= 2 and "x" not in key[1:]:
        quad = dm.quad_time_ordered_integral(fs, t0, t1, abs_tol=1e-10)
        line += f"   |- quadrature| = {abs(got - quad):.1e}"
    print(line)

print("\nthe left-endpoint bias is O(2^-R) ([x p] against quadrature):")
ref = dm.quad_time_ordered_integral([samples, poly], t0, t1, abs_tol=1e-10)
for r in (8, 12, 16, 20, 24):
    got = dm.time_ordered_integral([samples, poly], t0, t1, bits=r)
    print(f"  R = {r:2d}: {abs(got - ref):.2e}")

print("\nfactoring identity [a][b] = [ab] + [ba], up to the O(2^-R) "
      "diagonal n_1 = n_2 of the grid sum:")
for a, b in [("p", "x"), ("x", "s"), ("p", "s")]:
    defect = abs(table.value((a,)) * table.value((b,))
                 - table.value((a, b)) - table.value((b, a)))
    print(f"  a={a}, b={b}: defect {defect:.2e}")
