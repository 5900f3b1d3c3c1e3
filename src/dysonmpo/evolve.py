"""State-vector oracle for time-dependent Schrodinger evolution.

Classical fixed-step fourth-order Runge-Kutta on the full Hilbert space;
only meant for small chains, as the reference the MPO constructions are
measured against.

Each channel acts through a sparse (CSR) operator built straight from
the blocks of its first-degree MPO (`sparse_operator`): one coordinate
triple (rows, columns, values) per virtual level, extended site by site
by index arithmetic over the nonzero entries of each ``(d, d)`` block,
with the entries that cancel (half of the 1,792 of the 8-site XX + YY
channel) dropped.  The channel operators are stacked row by row.  An RK4
stage is one call of the CSR kernel that ``stacked @ vec`` ends in, on
the stacked operator's own index and data arrays, into a preallocated,
zero-filled product buffer, then one channel-weighted `np.dot` into a
preallocated ``(4, size)`` stage array.  Each stage argument
``y + a k[j]`` is built in one preallocated buffer, and a substep closes
in place with ``y += c @ k``.  These are the operations of the ``@``
loop in the same order, so the results are bitwise those of that loop
(`tests/helpers.dispatch_rk4`), without SciPy's per-product dispatch
(about half of each product at 8 sites).  Each driving is evaluated once
per call, on the arrays of substep start, midpoint and end times, and
its weights are scaled by ``-1j`` before the loop.  A ``(dim, m)`` block
of states runs through the same loop.

The kernels are SciPy's private ``scipy.sparse._sparsetools.csr_matvec``
(one column) and ``csr_matvecs`` (``m`` columns), which add into their
output.  They are looked up once, at import (`_bind_csr_kernels`); a
SciPy without them raises `ImportError` naming the kernel and the SciPy
version.

`exact_evolve` takes states up to `STATE_CAP` = 16,384 amplitudes (14
sites at ``d = 2``).  `exact_evolution_operator` allocates ``dim**2``
entries and keeps its own bound, `OPERATOR_CAP` = 1,024.
"""

import numbers

import numpy as np
import scipy.sparse
import scipy.sparse._sparsetools

from .brackets import check_interval

STATE_CAP = 1 << 14
OPERATOR_CAP = 1 << 10


def _bind_csr_kernels(module):
    """``csr_matvec`` and ``csr_matvecs`` from SciPy's private `module`.

    Raises `ImportError` naming the missing kernel and the SciPy version,
    so that a SciPy without them fails at import instead of mid-run.
    """
    for name in ("csr_matvec", "csr_matvecs"):
        if not hasattr(module, name):
            raise ImportError(f"{module.__name__} has no {name} in SciPy "
                              f"{scipy.__version__}; the RK4 oracle calls it")
    return module.csr_matvec, module.csr_matvecs


_CSR_MATVEC, _CSR_MATVECS = _bind_csr_kernels(scipy.sparse._sparsetools)


def _check_count(name, value):
    if isinstance(value, bool) \
            or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be at least 1 and an int (not a "
                         f"bool or a float), got {value!r}")


def check_oracle(size, substeps):
    """Raise `ValueError` for a state of `size` amplitudes or a substep
    count that `exact_evolve` rejects, before any work is done."""
    _check_count("substeps", substeps)
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
    """Fixed-step RK4 for `psi`, one state or a ``(dim, m)`` block of them.

    `psi` is a complex array the loop may overwrite.  A result that is not
    finite, as a step too long for RK4's stability leaves it, raises
    `ValueError` naming the interval and `substeps`.
    """
    if t == t0:
        return psi
    channels = hamiltonian.channels
    stacked = scipy.sparse.vstack(
        [sparse_operator(ch.operator, n_sites) for ch in channels],
        format="csr")
    (rows, dim), size = stacked.shape, psi.size
    m = size // dim
    # the kernel `stacked @ vec` ends in: csr_matvec(M, N, ..., x, y) for
    # one column, csr_matvecs(M, N, m, ..., x, y) for more; both add to y
    csr = (stacked.indptr, stacked.indices, stacked.data)
    kernel, head = ((_CSR_MATVEC, (rows, dim)) if m == 1 else
                    (_CSR_MATVECS, (rows, dim, m)))
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
    product = np.empty(rows * m, dtype=complex)
    products = product.reshape(len(channels), size)
    arg = np.empty(size, dtype=complex)

    def stage(j, w, vec):
        product.fill(0)
        kernel(*head, *csr, vec, product)
        np.dot(w, products, out=k[j])

    def shifted(a, kj):  # y + a k[j], into `arg`
        np.multiply(a, kj, out=arg)
        return np.add(y, arg, out=arg)

    y = psi.reshape(size)
    for w in weights:
        stage(0, w[0], y)
        stage(1, w[1], shifted(0.5 * h, k[0]))
        stage(2, w[1], shifted(0.5 * h, k[1]))
        stage(3, w[2], shifted(h, k[2]))
        np.add(y, c @ k, out=y)
    if not np.isfinite(y).all():
        raise ValueError(f"RK4 over [{t0!r}, {t!r}] in substeps = "
                         f"{substeps} gave a non-finite state: the step is "
                         "too long to be stable; take more substeps")
    return y.reshape(psi.shape)


def exact_evolve(hamiltonian, psi0, t0, t, substeps=4000):
    """Integrate ``d psi/dt = -i H(t) psi`` with fixed-step RK4.

    `substeps` counts RK4 steps over the full interval; the norm drift over
    the run stays below 1e-10 for the bundled benchmarks at the default.
    The state's size must be a power of the local dimension, at least the
    local dimension and at most `STATE_CAP`, its entries finite, and both
    interval ends finite; ``t < t0`` evolves backward.  A substep too long
    for RK4 to stay finite raises `ValueError` instead of returning NaN.
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    check_oracle(psi.size, substeps)
    check_interval(t0, t)
    d = hamiltonian.d
    if psi.size < d:
        raise ValueError(f"state size {psi.size} is below the local "
                         f"dimension {d}")
    if not np.isfinite(psi).all():
        raise ValueError("array must not contain infs or NaNs")
    n_sites = round(np.log(psi.size) / np.log(d))
    if d ** n_sites != psi.size:
        raise ValueError(f"state size {psi.size} is not a power of the "
                         f"local dimension {d}")
    return _rk4(hamiltonian, n_sites, psi, t0, t, substeps)


def exact_evolution_operator(hamiltonian, n_sites, t0, t, substeps=4000):
    """Dense ``U(t, t0)``: the identity's columns evolved as one block.

    `n_sites` must be an int of at least 1 (not a bool or a float), the
    dimension ``d**n_sites`` at most `OPERATOR_CAP`, and both interval ends
    finite.
    """
    _check_count("substeps", substeps)
    _check_count("n_sites", n_sites)
    check_interval(t0, t)
    dim = hamiltonian.d ** n_sites
    if dim > OPERATOR_CAP:
        raise ValueError(f"operator dimension {dim} exceeds OPERATOR_CAP = "
                         f"{OPERATOR_CAP}")
    return _rk4(hamiltonian, n_sites, np.eye(dim, dtype=complex), t0, t,
                substeps)
