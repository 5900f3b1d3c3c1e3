"""Dense state-vector oracle for time-dependent Schrodinger evolution.

Classical fixed-step fourth-order Runge-Kutta on the full Hilbert space;
only meant for small chains, as the reference the MPO constructions are
measured against.
"""

import numpy as np

STATE_CAP = 1 << 10


def _rk4(hamiltonian, n_sites, psi, t0, t, substeps):
    """Fixed-step RK4 for `psi`, one state or a ``(dim, m)`` block of them."""
    mats = hamiltonian.dense_channel_matrices(n_sites, cap=STATE_CAP ** 2)
    drvs = [c.driving for c in hamiltonian.channels]

    def hpsi(s, vec):
        out = np.zeros_like(vec)
        for mat, f in zip(mats, drvs):
            out += complex(np.asarray(f(s)).item()) * (mat @ vec)
        return out

    if t == t0:
        return psi
    h = (t - t0) / substeps
    tcur = t0
    for _ in range(substeps):
        k1 = -1j * hpsi(tcur, psi)
        k2 = -1j * hpsi(tcur + 0.5 * h, psi + 0.5 * h * k1)
        k3 = -1j * hpsi(tcur + 0.5 * h, psi + 0.5 * h * k2)
        k4 = -1j * hpsi(tcur + h, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tcur += h
    return psi


def exact_evolve(hamiltonian, psi0, t0, t, substeps=4000):
    """Integrate ``d psi/dt = -i H(t) psi`` with fixed-step RK4.

    `substeps` counts RK4 steps over the full interval; the norm drift over
    the run stays below 1e-10 for the bundled benchmarks at the default.
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.size > STATE_CAP:
        raise ValueError(f"state size {psi.size} exceeds cap {STATE_CAP}")
    n_sites = round(np.log(psi.size) / np.log(hamiltonian.d))
    return _rk4(hamiltonian, n_sites, psi, t0, t, substeps)


def exact_evolution_operator(hamiltonian, n_sites, t0, t, substeps=4000):
    """Dense ``U(t, t0)``: the identity's columns evolved as one block."""
    dim = hamiltonian.d ** n_sites
    if dim > STATE_CAP:
        raise ValueError("operator cap exceeded")
    return _rk4(hamiltonian, n_sites, np.eye(dim, dtype=complex), t0, t,
                substeps)
