"""Dense complex matrix kernels shared by the MPO/MPS routines.

A truncated SVD with its keep/discard rule, and LAPACK's column-pivoted
QR ``zgeqp3`` with the workspace it asks for, which row compression calls
on each block's residual to form only the triangular factor.
Matrices are ``numpy.ndarray`` objects with ``complex128`` dtype and
row-major (C-order) data layout.
"""

import functools

import numpy as np
import scipy.linalg

_ZGEQP3, = scipy.linalg.get_lapack_funcs(("geqp3",), dtype=np.complex128)


def as_complex(a):
    """Return `a` as a C-contiguous complex128 array."""
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


def svd_truncate(m, max_rank=None, tol=0.0):
    """Truncated SVD of a matrix.

    Singular values below ``tol * max(S)`` are dropped, and at most
    `max_rank` values are kept.  Returns ``(U, S, V, discarded_weight)``
    with ``U @ diag(S) @ V`` approximating `m` and `discarded_weight` the
    sum of squared discarded singular values.  A rank-0 input yields empty
    factors.
    """
    m = as_complex(m)
    if m.ndim != 2:
        raise ValueError("svd_truncate expects a matrix")
    if min(m.shape) == 0:
        return (np.zeros((m.shape[0], 0), dtype=complex), np.zeros(0),
                np.zeros((0, m.shape[1]), dtype=complex), 0.0)
    u, s, vh = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
    keep, discarded = truncation_rank(s, tol, max_rank)
    return u[:, :keep], s[:keep], vh[:keep, :], discarded


def truncation_rank(s, tol=0.0, max_rank=None):
    """Number of singular values `s` (descending) to keep, and the rest's weight.

    Values at or below ``tol * s[0]`` are dropped and at most `max_rank`
    are kept.  Returns ``(keep, discarded_weight)`` with the weight the sum
    of squared dropped values.  A `max_rank` below 1 raises `ValueError`.
    """
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"max_rank must be at least 1, got {max_rank}")
    keep = len(s)
    if keep and s[0] > 0.0 and tol > 0.0:
        keep = int(np.count_nonzero(s > tol * s[0]))
    if max_rank is not None:
        keep = min(keep, max_rank)
    return keep, float(np.sum(s[keep:] ** 2))


@functools.lru_cache(maxsize=256)
def _geqp3_lwork(rows, cols):
    """The workspace LAPACK's ``zgeqp3`` asks for at this shape."""
    return int(_ZGEQP3(np.zeros((rows, cols), dtype=complex),
                       lwork=-1)[3][0].real)
