"""Compression of evolution MPOs.

The power construction already merges levels with identical operator
histories (exact); row compression then expands levels over a kept basis
of right-half operators (order-preserving).  The bond dimension of the
compressed Taylor MPO follows closed-form polynomials in the Hamiltonian
bond dimension.
"""

import numpy as np

import dysonmpo as dm
from dysonmpo.spin import SX, SZ

# Taylor bond dimensions after row compression
print("compressed Taylor MPO bond dimensions (rows: order, cols: chi)")
couplings = [(SZ, SZ), (SX, SX), (SZ @ SX, SZ)]
print("      chi=1  chi=2  chi=3")
for order in range(1, 7):
    row = []
    for chi in (1, 2, 3):
        h = dm.from_terms(2, two_site=couplings[:chi])
        w = dm.taylor_mpo(h, -0.05j, order)
        wc, _ = dm.row_compress(w)
        row.append(wc.bond_dimension)
    print(f"N={order}   " + "  ".join(f"{b:>4}" for b in row))

# the worked two-channel example: L (x) R coupling + on-site D term
sin = dm.TrigDriving("sin", omega=2 * np.pi)
cos = dm.TrigDriving("cos", omega=2 * np.pi)
ham = dm.TimeDependentHamiltonian([
    dm.Channel("f1", dm.from_terms(2, two_site=[(SZ, SZ)]), sin),
    dm.Channel("f2", dm.from_terms(2, on_site=SX), cos),
])
tab = dm.BracketTable.compute([("f1", sin), ("f2", cos)], 0.1, 0.25, 3)
w = dm.dyson_mpo(ham, tab, 3)
wc, report = dm.row_compress(w)
print(f"\nthird-order two-channel Dyson MPO: bond {w.bond_dimension} -> "
      f"{wc.bond_dimension}")
print("kept levels:", " ".join(repr(l) for l in report.kept_levels))
print("\none removed level and its expansion over the kept set:")
for lvl, exp in report.removed_levels:
    if lvl.n2 == 1 and lvl.n3 == 1 and lvl.sigma() == ("f1",) and \
            list(lvl)[0][0] == "3":
        for k, c in exp.items():
            if abs(c) > 1e-4:
                print(f"  ({lvl!r}) gets {c:.6f} * {k!r}")
        break

# row compression leaves the dense operator intact to the working order
dense_change = np.abs(wc.to_dense(4) - w.to_dense(4)).max()
print(f"\ndense change from row compression at dt=0.15: {dense_change:.2e} "
      "(order dt^4)")
