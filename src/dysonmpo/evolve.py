"""State-vector oracle for time-dependent Schrodinger evolution.

Classical fixed-step fourth-order Runge-Kutta on the full Hilbert space;
only meant for small chains, as the reference the MPO constructions are
measured against.

Each channel acts through a sparse (CSR) operator built straight from
the blocks of its first-degree MPO (`sparse_operator`): one coordinate
triple (rows, columns, values) per virtual level, extended site by site
by index arithmetic over the nonzero entries of each ``(d, d)`` block,
with the entries that cancel (half of the 1,792 of the 8-site XX + YY
channel) dropped.  The channel operators are stacked row by row, so an
RK4 stage is one sparse product and one channel-weighted `np.dot` into a
preallocated ``(4, size)`` stage array, and a substep closes with
``psi + c @ k``.  Each driving is evaluated once per call, on the arrays
of substep start, midpoint and end times, and its weights are scaled by
``-1j`` before the loop.  A ``(dim, m)`` block of states runs through the
same loop, reshaped.

`exact_evolve` takes states up to `STATE_CAP` = 16,384 amplitudes (14
sites at ``d = 2``).  Over [0, 0.25] in 1,000 substeps the modulated TFI
/ XXZ took 0.10 / 0.08 s at 10 sites, 0.39 / 0.26 s at 12 and 1.8 / 1.2 s
at 14 (2-vCPU Xeon VM, one BLAS thread).  `exact_evolution_operator`
allocates ``dim**2`` entries and keeps its own bound, `OPERATOR_CAP` =
1,024.
"""

import numpy as np
import scipy.sparse

STATE_CAP = 1 << 14
OPERATOR_CAP = 1 << 10


def _check_substeps(substeps):
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps!r}")


def check_oracle(size, substeps):
    """Raise `ValueError` for a state of `size` amplitudes or a substep
    count that `exact_evolve` rejects, before any work is done."""
    _check_substeps(substeps)
    if size > STATE_CAP:
        raise ValueError(f"state size {size} exceeds STATE_CAP = {STATE_CAP}")


def sparse_operator(mpo, n_sites):
    """CSR matrix of the first-degree MPO `mpo` on `n_sites` sites.

    ``env[b]``, the operator on the sites so far ending on virtual level
    `b`, is a coordinate triple; each nonzero entry ``(p, q, w)`` of a
    block ``W[a, b]`` sends the entries ``(r, c, v)`` of ``env[a]`` to
    ``(r d + p, c d + q, v w)`` of the next ``env[b]``.  Duplicates are
    summed by the CSR conversion, and the entries that cancel dropped.
    """
    m = mpo.site_matrix()
    d, last = mpo.d, len(m) - 1
    blocks = [(a, b, *np.nonzero(m[a, b])) for a, b in
              zip(*np.nonzero(m.any(axis=(2, 3))))]
    origin = np.zeros(1, dtype=np.int64)
    env = {0: (origin, origin, np.ones(1, dtype=complex))}
    for site in range(n_sites):
        parts = {}
        for a, b, p, q in blocks:
            if a in env and (b == last or site < n_sites - 1):
                rows, cols, vals = env[a]
                parts.setdefault(b, []).append((
                    (rows[:, None] * d + p).reshape(-1),
                    (cols[:, None] * d + q).reshape(-1),
                    (vals[:, None] * m[a, b, p, q]).reshape(-1)))
        env = {b: tuple(np.concatenate(x) for x in zip(*triples))
               for b, triples in parts.items()}
    dim = d ** n_sites
    if last not in env:  # no path closes on these sites
        return scipy.sparse.csr_array((dim, dim), dtype=complex)
    rows, cols, vals = env[last]
    out = scipy.sparse.csr_array((vals, (rows, cols)), shape=(dim, dim))
    out.eliminate_zeros()
    return out


def _rk4(hamiltonian, n_sites, psi, t0, t, substeps):
    """Fixed-step RK4 for `psi`, one state or a ``(dim, m)`` block of them."""
    if t == t0:
        return psi
    channels = hamiltonian.channels
    ops = [sparse_operator(ch.operator, n_sites) for ch in channels]
    stacked = scipy.sparse.vstack(ops, format="csr")
    shape, size = psi.shape, psi.size
    parts = (len(ops), size)
    h = (t - t0) / substeps
    starts = np.empty(substeps)
    tcur = t0
    for i in range(substeps):
        starts[i] = tcur
        tcur += h
    # (substep, time grid, channel): -1j times the weights of every stage
    weights = np.array([[ch.driving(grid) for ch in channels]
                        for grid in (starts, starts + 0.5 * h, starts + h)],
                       dtype=complex).transpose(2, 0, 1)
    weights = np.ascontiguousarray(-1j * weights)
    c = (h / 6.0) * np.array([1, 2, 2, 1], dtype=complex)
    k = np.empty((4, size), dtype=complex)

    def stage(j, w, vec):
        np.dot(w, (stacked @ vec.reshape(shape)).reshape(parts), out=k[j])

    y = psi.reshape(size)
    for w in weights:
        stage(0, w[0], y)
        stage(1, w[1], y + (0.5 * h) * k[0])
        stage(2, w[1], y + (0.5 * h) * k[1])
        stage(3, w[2], y + h * k[2])
        y = y + c @ k
    return y.reshape(shape)


def exact_evolve(hamiltonian, psi0, t0, t, substeps=4000):
    """Integrate ``d psi/dt = -i H(t) psi`` with fixed-step RK4.

    `substeps` counts RK4 steps over the full interval; the norm drift over
    the run stays below 1e-10 for the bundled benchmarks at the default.
    The state's size must be a power of the local dimension, at most
    `STATE_CAP`.
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    check_oracle(psi.size, substeps)
    n_sites = round(np.log(psi.size) / np.log(hamiltonian.d))
    if hamiltonian.d ** n_sites != psi.size:
        raise ValueError(f"state size {psi.size} is not a power of the "
                         f"local dimension {hamiltonian.d}")
    return _rk4(hamiltonian, n_sites, psi, t0, t, substeps)


def exact_evolution_operator(hamiltonian, n_sites, t0, t, substeps=4000):
    """Dense ``U(t, t0)``: the identity's columns evolved as one block.

    The dimension ``d**n_sites`` must be at most `OPERATOR_CAP`.
    """
    _check_substeps(substeps)
    dim = hamiltonian.d ** n_sites
    if dim > OPERATOR_CAP:
        raise ValueError(f"operator dimension {dim} exceeds OPERATOR_CAP = "
                         f"{OPERATOR_CAP}")
    return _rk4(hamiltonian, n_sites, np.eye(dim, dtype=complex), t0, t,
                substeps)
