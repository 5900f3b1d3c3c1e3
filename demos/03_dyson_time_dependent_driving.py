"""Dyson MPOs for a time-dependent Hamiltonian.

The modulated Ising chain H(t) = sin(wt) * sum zz + cos(wt) * sum x gets
one finishing level per driving channel; folding finished levels back in
picks up the matching time-ordered integrals.  The result beats freezing
the Hamiltonian by orders of magnitude at the same step size.
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
    w = dm.dyson_mpo(ham, t0, t0 + dt, order, tab)
    err = np.linalg.norm(w.to_dense(L, cap=256) - u_exact, 2)
    print(f"  dyson order {order}: bond {w.bond_dimension:>2}  error {err:.3e}")

# a frozen-Hamiltonian Taylor step of the same order for comparison
tm = t0 + dt / 2
frozen = ham.weighted(lambda c: complex(np.asarray(c.driving(tm)).item()))
w_frozen = dm.taylor_mpo(frozen, -1j * dt, 3)
err = np.linalg.norm(w_frozen.to_dense(L, cap=256) - u_exact, 2)
print(f"  frozen-H taylor order 3 (midpoint): error {err:.3e}")

# the Magnus route: exponentiate Omega_1 + Omega_2 with a Taylor MPO
tab2 = dm.BracketTable.compute(channels, t0, t0 + dt, 2)
w_mag = dm.magnus_evolution(ham, t0, t0 + dt, 2, 2, tab2)
err = np.linalg.norm(w_mag.to_dense(L, cap=256) - u_exact, 2)
print(f"  magnus(2) + taylor(2):  error {err:.3e}")

om2 = dm.magnus_omega2(ham, tab2)
print(f"\nOmega_2 is again a first-degree MPO, chi = {om2.chi}")
