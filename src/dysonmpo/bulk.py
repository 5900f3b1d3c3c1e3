"""Exact bulk-rank factorisation of a row-compressed step MPO.

Row compression keeps every level the expansion order needs, but the site
tensor ``W[a, b, s, p]``, read as the ``(D_w, D_w d^2)`` matrix ``M`` with
rows ``a``, has a much smaller row rank ``r``: 35 of the 163 levels of an
order-4 XXZ step at dt 1/16, 20 of 46 at order 3.  A rank factorisation
``W = T W_r``, with ``T`` of shape ``(D_w, r)`` and ``W_r`` the rows of
``r`` basis levels, gives ``W^n = T (W_r T)^(n-1) W_r``.  So the uniform
tensor ``W' = W_r T`` of bond ``r``, with left boundary ``l = left T``
and a right boundary ``rho`` that solves ``W' rho = W_r right``, makes the
operator ``l W'^n rho = left W^n right`` on every chain of ``n >= 1``
sites.  It is one factorisation, with no iteration; it reaches the bulk
rank (the operator Schmidt rank of long chains) wherever the rank of
``M`` is that rank, which holds for the XXZ steps of orders 2-4.

The factorisation is an interpolative decomposition of a sketch.  ``Y =
M Omega`` with ``k`` random columns has the row relations of ``M`` once
``k`` exceeds its rank.  LAPACK's LU with partial pivoting of ``[right |
Y]`` picks the basis rows, ``r`` is the number of leading pivots above
``tol`` times the largest, and ``T = L L_11^-1`` from the unit lower
factor, so that ``T`` holds the identity on the basis rows.  As the
right boundary is a column of the sketch, ``T right[basis] = right``,
and ``rho = right[basis]`` meets ``W' rho = W_r right`` with no
least-squares solve; for every bundled step it adds nothing to the
rank.  ``W_r`` is ``r`` rows of ``M`` itself, so ``W'`` is one sparse
product.

Two residuals check each factorisation: ``|Y_c - T Y_c[basis]| / |Y_c|``
over `PROBES` further sketch columns ``Y_c`` that the LU never saw, which
estimates ``|M - T W_r| / |M|`` in the Frobenius norm (Halko, Martinsson
& Tropp, SIAM Rev. 53, 217 (2011), sec. 4.3), and ``|W' rho - W_r right|
/ |W_r right|``.  Either above ``max(1e-8, 100 tol)`` raises
`BulkCheckError`, as a fold residual does in `compression`.

The sketch columns are uniform random numbers drawn once per shape from
a fixed seed and kept read-only, so equal MPOs give bitwise equal
results; the cache holds at most eight shapes.  Both sparse products,
the sketch and ``W_r [T | right]``, call the CSR kernel a SciPy sparse
product ends in (``csr_matvecs``, bound in `evolve`) on the index and
value arrays directly, with no sparse-matrix object, in the same entry
order, so they are bitwise SciPy's.

`bench.build_step_mpo` calls `bulk_compress` once per row-compressed
MPO of bond `BULK_FROM` or more, each with its own site matrix, sketch,
LU, basis and checks.
"""

import functools

import numpy as np
from scipy.linalg import blas, lapack

from .evolve import _CSR_MATVECS
from .extensive import ExtensiveMPO

# Row-compressed bond from which `bench.build_step_mpo` factors a step;
# below it the faster applies did not pay for the stage (CHANGES.md)
BULK_FROM = 32
SKETCH = 40      # sketch columns of a first try; doubled while too few
PROBES = 4       # sketch columns kept back for the check
SEED = 0

_ZGETRF, = lapack.get_lapack_funcs(("getrf",), dtype=np.complex128)


class BulkCheckError(RuntimeError):
    """A bulk factorisation misses its MPO by more than the bound."""


@functools.lru_cache(maxsize=8)
def _omega(n_columns, k):
    """``k + PROBES`` sketch columns of length `n_columns`, uniform on
    ``[-1, 1)`` from the fixed seed; read-only, as the cache shares it."""
    omega = np.random.default_rng(SEED).uniform(-1.0, 1.0,
                                                (n_columns, k + PROBES))
    omega.setflags(write=False)
    return omega


def _site_matrix(mpo):
    """``M`` as the CSR parts of its nonzero entries, in row order.

    Returns ``(data, rows, ops, levels, indptr)``: each entry's value, its
    row ``a``, operator entry ``q = (s, p)`` and level ``b``, and the CSR
    row pointer of the ``(D_w, D_w d^2)`` matrix whose entry ``(a, b d^2 +
    q)`` they are.
    """
    rows, cols, blocks = mpo.coo()
    dd = mpo.d * mpo.d
    flat = blocks.reshape(-1)
    nz = np.flatnonzero((flat.real != 0) | (flat.imag != 0))
    nz = nz[np.argsort(rows[nz // dd], kind="stable")]
    k, q = np.divmod(nz, dd)
    a = rows[k]
    return (flat[nz], a, q, cols[k],
            np.searchsorted(a, np.arange(mpo.bond_dimension + 1)))


def _csr_times(shape, indptr, columns, data, x):
    """The CSR matrix of `shape`, `indptr`, `columns` and `data` times the
    C-ordered matrix `x`, by the kernel a SciPy sparse product ends in."""
    out = np.zeros((shape[0], x.shape[1]), dtype=np.result_type(data, x))
    _CSR_MATVECS(*shape, x.shape[1], indptr, columns, data, x.reshape(-1),
                 out.reshape(-1))
    return out


def _basis(data, columns, indptr, dd, right, tol):
    """``(probes, lu, order, r)`` of the sketch ``[right | M Omega]``.

    ``M`` is the CSR matrix of `data`, `columns` and `indptr`, with `dd`
    columns per row.  The LU with partial pivoting of the sketch's first
    columns gives the row `order` and the rank `r` at `tol`; the last
    `PROBES` columns of ``M Omega`` are returned for the check.  `right`,
    scaled to the sketch's largest entry, comes first, so the basis rows
    span it too.  The real and imaginary parts of ``M`` multiply ``Omega``
    as one real CSR matrix of twice the rows.  The sketch has `SKETCH`
    columns, doubled while its LU has full rank below the most ``M`` can
    have, its row count or its count of nonzero columns: a sketch of fewer
    columns than the rank of ``M`` has full rank.
    """
    n = len(indptr) - 1
    bound = min(n, np.count_nonzero(np.bincount(columns)))
    parts = ((2 * n, n * dd),
             np.concatenate([indptr, indptr[1:] + len(data)]),
             np.tile(columns, 2), np.concatenate([data.real, data.imag]))
    top = np.abs(right).max()
    k = min(bound, SKETCH)
    while True:
        y = _csr_times(*parts, _omega(n * dd, k))
        y = y[:n] + 1j * y[n:]
        edge = right * (np.abs(y).max() / top) if top else right
        lu, piv, _ = _ZGETRF(np.column_stack([edge, y[:, :k]]))
        diag = np.abs(np.diagonal(lu))
        small = diag <= tol * diag.max()
        r = int(small.argmax()) if small.any() else len(diag)
        if r <= k or k == bound:
            break
        k = min(2 * k, bound)
    order = np.arange(n)
    for i, p in enumerate(piv.tolist()):
        order[i], order[p] = order[p], order[i]
    return y[:, k:], lu, order, r


def bulk_compress(mpo, tol=1e-12):
    """The uniform MPO of `mpo`'s row rank at `tol`; see the module notes.

    Returns ``(bulk, residual)``: the bulk MPO, without level labels, and
    the larger of its two relative check residuals.  An MPO whose rank is
    0 or its bond dimension comes back as it is, with residual 0.  A
    residual above ``max(1e-8, 100 * tol)`` raises `BulkCheckError`.
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must lie in [0, 1), got {tol!r}")
    n_levels, d = mpo.bond_dimension, mpo.d
    dd = d * d
    left, right = mpo.boundary
    data, rows, ops, levels, indptr = _site_matrix(mpo)
    probes, lu, order, r = _basis(data, levels * dd + ops, indptr, dd,
                                  right, tol)
    if r in (0, n_levels):
        return mpo, 0.0
    basis = order[:r]
    t = np.empty((n_levels, r + 1), dtype=complex)
    t[basis, :r] = np.eye(r)
    t[order[r:], :r] = blas.ztrsm(1.0, lu[:r, :r], lu[r:, :r], side=1,
                                  lower=1, diag=1)
    t[:, r] = right
    # W_r, the basis rows of M as rows (i, q) and columns b, times
    # [T | right]: W' and W_r right
    at = np.full(n_levels, -1)
    at[basis] = np.arange(r)
    sel = np.flatnonzero(at[rows] >= 0)
    key = at[rows[sel]] * dd + ops[sel]
    sel = sel[np.argsort(key)]
    w = _csr_times(
        (r * dd, n_levels),
        np.concatenate([[0], np.bincount(key, minlength=r * dd).cumsum()]),
        levels[sel], data[sel], t)
    rho = right[basis]
    residual = max(_relative(probes - t[:, :r] @ probes[basis], probes),
                   _relative(w[:, :r] @ rho - w[:, r], w[:, r]))
    if residual > max(1e-8, 100 * tol):
        raise BulkCheckError(f"bulk factorisation {n_levels} -> {r}: "
                             f"relative residual {residual:.2e}")
    blocks = w[:, :r].reshape(r, d, d, r).transpose(0, 3, 1, 2).reshape(
        -1, d, d)
    live = np.flatnonzero(((blocks.real != 0) | (blocks.imag != 0))
                          .any(axis=(1, 2)))
    return ExtensiveMPO(
        d, r, live // r, live % r, blocks[live], order=mpo.order,
        params=mpo.params, boundary=(left @ t[:, :r], rho)), residual


def _relative(diff, ref):
    norm = np.linalg.norm(ref)
    return float(np.linalg.norm(diff) / norm) if norm else 0.0
