"""Taylor MPOs: the evolution operator of a static Hamiltonian.

Reroutes the finished levels of H**N back into the identity level to get an
extensive MPO accurate to order N, and shows the O(dt^(N+1)) defect per
step against the exact matrix exponential.
"""

import numpy as np
import scipy.linalg

import dysonmpo as dm

L = 4
h = dm.models.static_tfi()
href = h.to_dense(L)

print("error of the N-th order Taylor MPO vs expm, per step size")
print(f"{'N':>3} {'dt=0.10':>12} {'dt=0.05':>12} {'dt=0.025':>12} ratio")
for order in (1, 2, 3):
    errs = []
    for dt in (0.1, 0.05, 0.025):
        tau = -1j * dt
        w = dm.taylor_mpo(h, tau, order)
        errs.append(np.linalg.norm(w.to_dense(L) - scipy.linalg.expm(tau * href)))
    ratios = " / ".join(f"{a / b:.1f}" for a, b in zip(errs, errs[1:]))
    print(f"{order:>3} " + " ".join(f"{e:>12.3e}" for e in errs)
          + f"   {ratios}  (expected ~{2 ** (order + 1)})")

# the construction is extensive: all higher powers made of non-overlapping
# low-order pieces come for free, so norms factorize per site
w = dm.taylor_mpo(dm.from_terms(2, on_site=dm.spin.SX), 0.01, 2)
up = np.array([1.0, 0.0])
norms = {}
for n in (3, 6):
    psi = up
    for _ in range(n - 1):
        psi = np.kron(psi, up)
    norms[n] = np.linalg.norm(w.to_dense(n) @ psi)
print("\nper-site factorization for an on-site Hamiltonian:")
print(f"  log|psi(6)| = {np.log(norms[6]):.12f}")
print(f"  2 log|psi(3)| = {2 * np.log(norms[3]):.12f}")

# derivatives at tau = 0 recover the Hamiltonian and half its square
d1 = dm.mpo_derivative_at_zero(h, 2, 1, 3)
d2 = dm.mpo_derivative_at_zero(h, 2, 2, 3)
h3 = h.to_dense(3)
print("\nderivative checks at tau = 0 (block construction):")
print("  d/dtau   -> H      :", np.abs(d1 - h3).max() < 1e-12)
print("  d2/2dtau2 -> H^2/2 :", np.abs(d2 - h3 @ h3 / 2).max() < 1e-12)
