"""Time-ordered integrals on the quantics grid.

Driving functions become tensor trains with one binary digit per site
(exponentials: bond 1, trig: bond 2).  A bond-dimension-2 MPO implements
the running integral, and alternating it with pointwise products evaluates
arbitrarily nested time-ordered integrals in O(R) work per level.  For
drivings that are sums of exponentials (const, sin, cos, exp, as below)
`time_ordered_integral` returns the same left-endpoint grid sum in closed
form; other drivings take the tensor-train path.
"""

import math

import numpy as np

import dysonmpo as dm

bits = 24
sin = dm.TrigDriving("sin", omega=2 * math.pi)
cos = dm.TrigDriving("cos", omega=2 * math.pi)
one = dm.ConstDriving(1.0)

train = sin.build_qtt(0.0, 1.0, bits)
print(f"sin(2 pi t) on a 2^{bits}-point grid: {train!r}")
n = 2 ** bits // 8
print(f"  value at t=1/8: {train.evaluate(n).real:.12f} "
      f"(exact {math.sin(math.pi / 4):.12f})")

heaviside = dm.cumulative_integral_mpo(bits, 1.0 / 2 ** bits)
running = heaviside.apply(train).compress(tol=1e-13)
got = running.evaluate(2 ** bits // 2).real
print(f"  running integral at t=1/2: {got:.9f} (exact {1 / math.pi:.9f})")

print("\nnested brackets [f1 ... fk] (latest time first), interval [0, 0.25]:")
for seq, fs in [("1", [one]), ("1 1", [one, one]), ("sin", [sin]),
                ("sin cos", [sin, cos]), ("cos sin", [cos, sin]),
                ("sin cos sin", [sin, cos, sin])]:
    qtt_val = dm.time_ordered_integral(fs, 0.0, 0.25, bits=bits)
    quad_val = dm.quad_time_ordered_integral(fs, 0.0, 0.25, abs_tol=1e-11)
    print(f"  [{seq:>11}] = {qtt_val:+.9f}   |qtt - quadrature| = "
          f"{abs(qtt_val - quad_val):.1e}")

print("\nfactoring identity [a][b] = [ab] + [ba] on [0.3, 0.55]:")
for fa, fb, na, nb in [(sin, cos, "sin", "cos"), (sin, one, "sin", "1")]:
    a = dm.time_ordered_integral([fa], 0.3, 0.55, bits=bits)
    b = dm.time_ordered_integral([fb], 0.3, 0.55, bits=bits)
    ab = dm.time_ordered_integral([fa, fb], 0.3, 0.55, bits=bits)
    ba = dm.time_ordered_integral([fb, fa], 0.3, 0.55, bits=bits)
    print(f"  a={na}, b={nb}: defect {abs(a * b - ab - ba):.2e}")
