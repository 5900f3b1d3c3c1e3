"""State-vector oracle for time-dependent Schrodinger evolution.

Classical fixed-step fourth-order Runge-Kutta on the full Hilbert space;
only meant for small chains, as the reference the MPO constructions are
measured against.  The channel matrices of lattice Hamiltonians are
mostly zeros (256 and 2,048 of 65,536 entries for the 8-site TFI), so H
acts through one sparse (CSR) operator: the channel matrices stacked row
by row, one product per RK4 stage followed by the weighted sum over
channels.  Each driving is evaluated once per call, on the arrays of
substep start, midpoint and end times.
"""

import numpy as np
import scipy.sparse

STATE_CAP = 1 << 10


def _check_substeps(substeps):
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps!r}")


def _rk4(hamiltonian, n_sites, psi, t0, t, substeps):
    """Fixed-step RK4 for `psi`, one state or a ``(dim, m)`` block of them."""
    if t == t0:
        return psi
    mats = hamiltonian.dense_channel_matrices(n_sites, cap=STATE_CAP)
    stacked = scipy.sparse.csr_array(np.concatenate(mats))
    shape = (len(mats),) + psi.shape
    h = (t - t0) / substeps
    starts = np.empty(substeps)
    tcur = t0
    for i in range(substeps):
        starts[i] = tcur
        tcur += h
    # (time grid, channel, substep): the weights of every stage of the run
    weights = np.array([[c.driving(grid) for c in hamiltonian.channels]
                        for grid in (starts, starts + 0.5 * h, starts + h)],
                       dtype=complex)

    def hpsi(grid, i, vec):
        parts = (stacked @ vec).reshape(shape)
        out = weights[grid, 0, i] * parts[0]
        for w, part in zip(weights[grid, 1:, i], parts[1:]):
            out += w * part
        return out

    for i in range(substeps):
        k1 = -1j * hpsi(0, i, psi)
        k2 = -1j * hpsi(1, i, psi + 0.5 * h * k1)
        k3 = -1j * hpsi(1, i, psi + 0.5 * h * k2)
        k4 = -1j * hpsi(2, i, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


def exact_evolve(hamiltonian, psi0, t0, t, substeps=4000):
    """Integrate ``d psi/dt = -i H(t) psi`` with fixed-step RK4.

    `substeps` counts RK4 steps over the full interval; the norm drift over
    the run stays below 1e-10 for the bundled benchmarks at the default.
    The state's size must be a power of the local dimension, at most
    `STATE_CAP`.
    """
    _check_substeps(substeps)
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.size > STATE_CAP:
        raise ValueError(f"state size {psi.size} exceeds cap {STATE_CAP}")
    n_sites = round(np.log(psi.size) / np.log(hamiltonian.d))
    if hamiltonian.d ** n_sites != psi.size:
        raise ValueError(f"state size {psi.size} is not a power of the "
                         f"local dimension {hamiltonian.d}")
    return _rk4(hamiltonian, n_sites, psi, t0, t, substeps)


def exact_evolution_operator(hamiltonian, n_sites, t0, t, substeps=4000):
    """Dense ``U(t, t0)``: the identity's columns evolved as one block."""
    _check_substeps(substeps)
    dim = hamiltonian.d ** n_sites
    if dim > STATE_CAP:
        raise ValueError("operator cap exceeded")
    return _rk4(hamiltonian, n_sites, np.eye(dim, dtype=complex), t0, t,
                substeps)
