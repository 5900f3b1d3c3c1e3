"""Time-ordered integrals: one exact evaluator for every driving.

A bracket ``[f_1 ... f_k]`` (latest time first) is the nested integral of
the drivings over the time-ordered simplex of a step.  All brackets up to
order K are the levels of one element of the truncated tensor algebra.
Between its knots each driving is a small state vector u with
``u' = G u``; each stretch between knots is cut into equal blocks, the
first block takes the exact iterated integrals from the power series of
``exp(G x)``, and doublings join the blocks by Chen's identity.  Here a
polynomial, a sampled driving with knots inside the step and a sine share
one order-4 table.  The left-endpoint sum on ``2^R`` grid points
approaches it only at O(2^-R).
"""

import math
import time

import numpy as np

import dysonmpo as dm

t0, t1 = 0.0, 0.25
poly = dm.PolyDriving(coeffs=(0.5, -1.0, 2.0))
samples = dm.SampledDriving(t_start=0.05, t_end=0.2,
                            values=(0.3, -1.2, 0.8, 2.0))
sin = dm.TrigDriving("sin", omega=2 * math.pi)
channels = [("p", poly), ("x", samples), ("s", sin)]
by_name = dict(channels)


def explicit_grid_sum(fs, t0, t1, r, chunk=2 ** 18):
    """Left-endpoint sum on 2**r points, in chunks with running carries."""
    n_points = 2 ** r
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
table = dm.BracketTable.compute(channels, t0, t1, 4)
elapsed = time.perf_counter() - start
print(f"order-4 table over {len(channels)} channels (poly, samples, sin): "
      f"{len(table.values)} entries in {1e3 * elapsed:.1f} ms")

rs = (8, 12, 16, 20)
print(f"\n|exact - grid sum on 2^R points| on [{t0}, {t1}]:")
print(f"  {'bracket':>9}  {'value':>27}" + "".join(f"  {f'R = {r}':>8}"
                                                    for r in rs))
for key in [("p",), ("x",), ("s",), ("x", "p"), ("s", "x"),
            ("s", "x", "p"), ("x", "s", "p", "p")]:
    fs = [by_name[name] for name in key]
    got = table.value(key)
    gaps = [abs(got - explicit_grid_sum(fs, t0, t1, r)) for r in rs]
    print(f"  [{' '.join(key):>7}]  {got:+.10f}"
          + "".join(f"  {gap:8.1e}" for gap in gaps))
print("R + 4 cuts each gap about 16 times: the grid sum's bias is O(2^-R)")

print("\nfactoring identity [a][b] = [ab] + [ba], which the grid sum "
      "misses by its diagonal n_1 = n_2:")
for a, b in [("p", "x"), ("x", "s"), ("p", "s")]:
    defect = abs(table.value((a,)) * table.value((b,))
                 - table.value((a, b)) - table.value((b, a)))
    print(f"  a={a}, b={b}: defect {defect:.2e}")
