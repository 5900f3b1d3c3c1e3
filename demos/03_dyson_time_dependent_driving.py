"""Dyson MPOs for a time-dependent Hamiltonian.

The modulated Ising chain H(t) = sin(wt) * sum zz + cos(wt) * sum x gets
one finishing level per driving channel; folding finished levels back in
picks up the matching time-ordered integrals.  The result beats freezing
the Hamiltonian by orders of magnitude at the same step size.  The
bracket table is the signature of the drivings and Omega its logarithm,
so exp(Omega) truncated to N letters is the order-N table: the order-N
Magnus step is the order-N Dyson step.
"""

import numpy as np

import dysonmpo as dm
from dysonmpo.evolve import exact_evolution_operator

ham = dm.models.modulated_ising()
L = 4
t0, dt = 0.15, 0.1

channels = [(c.name, c.driving) for c in ham.channels]
table = dm.BracketTable.compute(channels, t0, t0 + dt, 3)
print("bracket table on one step (latest time first):")
for key in sorted(table.values, key=lambda k: (len(k), k)):
    if len(key) <= 2:
        print(f"  [{' '.join(key)}] = {table.values[key]:.6f}")

u_exact = exact_evolution_operator(ham, L, t0, t0 + dt, substeps=2000)
print("\noperator error on one step of dt = 0.1:")
for order in (1, 2, 3):
    tab = dm.BracketTable.compute(channels, t0, t0 + dt, order)
    w = dm.dyson_mpo(ham, tab, order)
    err = np.linalg.norm(w.to_dense(L) - u_exact, 2)
    print(f"  dyson order {order}: bond {w.bond_dimension:>2}  error {err:.3e}")

# a frozen-Hamiltonian Taylor step of the same order for comparison: the
# same plan, weighted by tau**k / k! times the drivings at the midpoint
frozen = dm.step_table(dm.BracketCache(ham), "taylor", t0, t0 + dt, 3)
w_frozen, _ = dm.build_step_mpo(ham, frozen, 3, qr_tol=1e-12, compress=False)
err = np.linalg.norm(w_frozen.to_dense(L) - u_exact, 2)
print(f"  frozen-H taylor order 3 (midpoint): error {err:.3e}")

# the Magnus route: the words of exp(Omega) up to N letters are the
# brackets, so both compressed steps have one bond and one error
print("\nrow-compressed steps, Magnus and Dyson:")
for order in (2, 3, 4, 5):
    tab = dm.BracketTable.compute(channels, t0, t0 + dt, order)
    for method, build in (("magnus", dm.magnus_evolution),
                          ("dyson", dm.dyson_mpo)):
        w, _ = dm.row_compress(build(ham, tab, order), tol=1e-12)
        err = np.linalg.norm(w.to_dense(L) - u_exact, 2)
        print(f"  {method:<6} order {order}: bond {w.bond_dimension:>2}  "
              f"error {err:.3e}")
