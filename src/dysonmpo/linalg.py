"""Dense complex matrix kernels shared by the MPO/MPS routines.

A truncated SVD without the left factor, which `mps.apply_mpo`'s
truncating sweep calls, with its keep/discard rule; and LAPACK's
column-pivoted QR ``zgeqp3`` with the workspace it asks for, which row
compression calls on each block's residual to form only the triangular
factor.  Matrices are ``numpy.ndarray`` objects with ``complex128`` dtype
and row-major (C-order) data layout.

SciPy's ``zgesvd`` wrapper forms U and V together or neither.
`svd_truncate_v` calls the routine that wrapper calls, LAPACK's
``zgesvd`` as exported by ``scipy.linalg.cython_lapack``, with ``jobu =
'N'`` and ``jobvt = 'S'``.  The singular values and V come from the same
bidiagonalisation and the same ``zbdsqr`` rotations, of which only the
update of U is skipped, so they are bitwise those of SciPy's
``scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")``
(`tests/helpers.svd_truncate`, the full truncated SVD, is the reference).
"""

import ctypes
import functools

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack

_ZGEQP3, = scipy.linalg.get_lapack_funcs(("geqp3",), dtype=np.complex128)

# The C prototype SciPy exports ``zgesvd`` under, which is the capsule's name:
# (jobu, jobvt, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, rwork, info)
ZGESVD_SIGNATURE = (
    "void (char *, char *, int *, int *, __pyx_t_double_complex *, int *, "
    "__pyx_t_5scipy_6linalg_13cython_lapack_d *, __pyx_t_double_complex *, "
    "int *, __pyx_t_double_complex *, int *, __pyx_t_double_complex *, "
    "int *, __pyx_t_5scipy_6linalg_13cython_lapack_d *, int *)")


def _bind_zgesvd():
    """``zgesvd`` from SciPy's Cython LAPACK table, as a ctypes function.

    Raises `ImportError` naming both prototypes when the exported one is
    not `ZGESVD_SIGNATURE`, so that an ABI change in SciPy fails here
    instead of corrupting memory.
    """
    capsule = scipy.linalg.cython_lapack.__pyx_capi__["zgesvd"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    signature = name.decode()
    if signature != ZGESVD_SIGNATURE:
        raise ImportError(f"scipy.linalg.cython_lapack exports zgesvd as "
                          f"{signature!r}, expected {ZGESVD_SIGNATURE!r}")
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)
    prototype = ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p,
                                 *[ctypes.c_void_p] * 13)
    return prototype(pointer)


_ZGESVD = _bind_zgesvd()


def as_complex(a):
    """Return `a` as a C-contiguous complex128 array."""
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


def svd_truncate_v(m, max_rank=None, tol=0.0):
    """Truncated SVD without U: returns ``(S, V, discarded_weight)``.

    One ``zgesvd`` call with ``jobu = 'N'``, so S and V are bitwise those
    of SciPy's ``gesvd`` SVD.  Singular values at or below ``tol * max(S)``
    are dropped and at most `max_rank` are kept (`truncation_rank`); the
    discarded weight is the sum of their squares.  As in SciPy, a
    non-finite entry raises `ValueError` and a ``zbdsqr`` that does not
    converge raises `numpy.linalg.LinAlgError`.  A rank-0 input yields
    empty factors.
    """
    m = as_complex(m)
    if m.ndim != 2:
        raise ValueError("svd_truncate_v expects a matrix")
    rows, cols = m.shape
    k = min(rows, cols)
    if k == 0:
        return np.zeros(0), np.zeros((0, cols), dtype=complex), 0.0
    if not np.isfinite(m).all():
        raise ValueError("array must not contain infs or NaNs")
    s, vt, info, _ = _zgesvd_v(m, _gesvd_lwork(rows, cols))
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgesvd")
    keep, discarded = truncation_rank(s, tol, max_rank)
    return s[:keep], vt[:keep, :], discarded


def _zgesvd_v(m, lwork):
    """``zgesvd`` of the matrix `m` with ``jobu = 'N'``, ``jobvt = 'S'``.

    Returns the singular values, ``V^H`` (Fortran order, as SciPy's
    wrapper returns it), LAPACK's ``info`` and the workspace size the
    routine asks for; ``lwork = -1`` computes only the last.  LAPACK reads
    and writes every buffer through a raw pointer, so each one is made
    here, at the size the call is given, and stays referenced by a name
    until the call returns.
    """
    a = np.array(m, dtype=complex, order="F")    # overwritten
    rows, cols = a.shape
    k = min(rows, cols)
    s = np.empty(k)
    vt = np.empty((k, cols), dtype=complex, order="F")
    u = np.empty(1, dtype=complex)               # not referenced
    work = np.empty(max(1, lwork), dtype=complex)
    rwork = np.empty(5 * k)
    # m, n, lda, ldu, ldvt, lwork, info
    ints = np.array([rows, cols, rows, 1, k, lwork, 0], dtype=np.intc)
    at, step = ints.ctypes.data, ints.itemsize
    _ZGESVD(b"N", b"S", at, at + step, a.ctypes.data, at + 2 * step,
            s.ctypes.data, u.ctypes.data, at + 3 * step, vt.ctypes.data,
            at + 4 * step, work.ctypes.data, at + 5 * step, rwork.ctypes.data,
            at + 6 * step)
    return s, vt, int(ints[6]), int(work[0].real)


@functools.lru_cache(maxsize=256)
def _gesvd_lwork(rows, cols):
    """The workspace LAPACK's ``zgesvd`` asks for at this shape with
    ``jobu = 'N'``, ``jobvt = 'S'``."""
    return _zgesvd_v(np.zeros((rows, cols)), -1)[3]


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
