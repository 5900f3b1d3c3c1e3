"""Dense complex matrix kernels shared by the MPO/MPS routines.

The thin QR that `mps.apply_mpo` and `mps.trace_distance_error` take
(`qr`); a truncated SVD without the left factor, which `apply_mpo`'s
truncating sweep calls, with its keep/discard rule; and LAPACK's
column-pivoted QR ``zgeqp3`` with the workspace it asks for, which row
compression calls on a stack of block residuals to form only the
triangular factors (`pivoted_qr`).  Matrices are ``numpy.ndarray`` objects with ``complex128`` dtype
and row-major (C-order) data layout.  This module is the one place in
`dysonmpo` that calls a QR, SVD or least-squares routine.

`qr` calls the two gufuncs ``numpy.linalg.qr`` ends in,
``_umath_linalg.qr_r_raw`` (``zgeqrf``) and ``qr_reduced`` (``zungqr``),
under the same floating-point error state, and zeroes R's lower triangle
through a boolean mask, cached per shape for small matrices.  Its Q and R
are bitwise ``numpy.linalg.qr``'s, with the same C-order layout; it skips
only the wrapper's dtype dispatch and its ``triu``, which cost more than
LAPACK on the small matrices `apply_mpo` factorises.  The gufuncs are
looked up once, at import (`_bind_qr_gufuncs`); a numpy without them
raises `ImportError` naming the gufunc and the numpy version.  So is the
``lstsq`` gufunc (``zgelsd``) behind ``numpy.linalg.lstsq``, which
`lstsq` calls on a whole stack of least-squares problems for row
compression.

SciPy's ``zgesvd`` wrapper forms U and V together or neither.
`svd_truncate_v` calls the routine that wrapper calls, LAPACK's
``zgesvd`` as exported by ``scipy.linalg.cython_lapack``, with ``jobu =
'N'`` and ``jobvt = 'S'``.  The singular values and V come from the same
bidiagonalisation and the same ``zbdsqr`` rotations, of which only the
update of U is skipped, so they are bitwise those of SciPy's
``scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")``
(`tests/helpers.svd_truncate`, the full truncated SVD, is the reference).
A call makes no array for LAPACK when its buffers fit the thread's
scratch buffer (`_zgesvd_v`).

Memory kept between calls is bounded by `SCRATCH_SLOTS` entries per
matrix: a matrix larger than that, whose LAPACK work outweighs the set-up,
gets its buffers and mask for the call only, so nothing the apply of a
wide MPS needs once stays resident.
"""

import ctypes
import functools
import threading

import numpy as np
import numpy.linalg._umath_linalg
import scipy.linalg
import scipy.linalg.cython_lapack

_ZGEQP3, = scipy.linalg.get_lapack_funcs(("geqp3",), dtype=np.complex128)

SCRATCH_SLOTS = 4096  # entries of the zgesvd scratch and of a cached R mask

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


def _gufunc(module, name, caller):
    """The gufunc `name` of numpy's private `module`, which `caller` calls.

    Raises `ImportError` naming the missing gufunc and the numpy version,
    so that a numpy without it fails at import instead of mid-run.
    """
    if not hasattr(module, name):
        raise ImportError(f"{module.__name__} has no {name} in numpy "
                          f"{np.__version__}; {caller} calls it")
    return getattr(module, name)


def _bind_qr_gufuncs(module):
    """``qr_r_raw`` and ``qr_reduced`` from numpy's private `module`."""
    return tuple(_gufunc(module, name, "linalg.qr")
                 for name in ("qr_r_raw", "qr_reduced"))


_QR_R_RAW, _QR_REDUCED = _bind_qr_gufuncs(numpy.linalg._umath_linalg)
_LSTSQ = _gufunc(numpy.linalg._umath_linalg, "lstsq", "linalg.lstsq")


def _qr_failed(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing "
                                "QR factorization")


@functools.lru_cache(maxsize=64)
def _below_diagonal(rows, cols):
    """Boolean mask of the entries below the diagonal of a ``(rows, cols)``
    matrix; `qr` takes it from this cache only for a matrix of at most
    `SCRATCH_SLOTS` entries."""
    return np.tri(rows, cols, -1, dtype=bool)


def qr(mat, mode="reduced"):
    """Thin QR of a matrix: ``(Q, R)``, or R alone with ``mode = "r"``.

    Bitwise ``numpy.linalg.qr(mat, mode)`` for a complex `mat` of any
    layout, and C-ordered like it; a real `mat` is factorised as complex.
    R is the leading ``min(rows, cols)`` rows of the factorised copy of
    `mat`, a view of it when that copy is C-ordered.  A mode other than
    ``"reduced"`` or ``"r"`` raises `ValueError`; an input LAPACK rejects
    raises `numpy.linalg.LinAlgError`, as in numpy.
    """
    if mode not in ("reduced", "r"):
        raise ValueError(f"qr mode must be 'reduced' or 'r', got {mode!r}")
    a = np.array(mat, dtype=np.complex128)    # overwritten
    rows, cols = a.shape
    with np.errstate(call=_qr_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        tau = _QR_R_RAW(a, signature="D->D")
        if mode == "reduced":
            q = _QR_REDUCED(a, tau, signature="DD->D")
    k = min(rows, cols)
    r = np.ascontiguousarray(a[:k])
    np.putmask(r, _below_diagonal(k, cols) if k * cols <= SCRATCH_SLOTS
               else np.tri(k, cols, -1, dtype=bool), 0)
    return r if mode == "r" else (q, r)


_EPS = np.finfo(np.float64).eps


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def lstsq(a, b):
    """``np.linalg.lstsq(a[k], b[k], rcond=None)[0]`` for every `k` at once.

    Calls the gufunc that `np.linalg.lstsq` wraps, with its `rcond` and
    error state; it runs ``zgelsd`` once per matrix, so each solution is
    bitwise the one of a call per system.  `a` and `b` are complex stacks
    of matrices.
    """
    rcond = _EPS * max(a.shape[-2:])
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _LSTSQ(a, b, rcond, signature="DDd->Ddid")[0]


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


class _Scratch(threading.local):
    """A ``complex128`` buffer of `SCRATCH_SLOTS` entries and its address,
    made once per thread that reads it."""

    def __init__(self):
        self.buffer = np.empty(SCRATCH_SLOTS, dtype=complex)
        self.address = self.buffer.ctypes.data


_SCRATCH = _Scratch()


def _zgesvd_v(m, lwork):
    """``zgesvd`` of the matrix `m` with ``jobu = 'N'``, ``jobvt = 'S'``.

    Returns the singular values, ``V^H`` (Fortran order, as SciPy's
    wrapper returns it), LAPACK's ``info`` and the workspace size the
    routine asks for; ``lwork = -1`` computes only the last.  LAPACK reads
    and writes through raw pointers into one buffer: the integer
    arguments, U (not referenced), the overwritten copy of `m`, ``V^H``,
    S, ``rwork`` and ``work`` (given `lwork` whatever its size) are
    consecutive slices of it, and S and ``V^H`` are copied out.  A call
    that fits takes the thread's `_Scratch`, so it makes no array and
    looks up no address; a larger one, whose LAPACK work outweighs both,
    makes its own buffer for the call, so that no memory outlives it.
    """
    rows, cols = m.shape
    k = min(rows, cols)
    # slots of 16 bytes: 7 ints in 2, U in 1, then a, vt, s, rwork, work
    at_vt = 3 + rows * cols
    at_s = at_vt + k * cols
    at_rwork = at_s + (k + 1) // 2
    at_work = at_rwork + (5 * k + 1) // 2
    size = at_work + max(1, lwork)
    if size <= SCRATCH_SLOTS:
        buf, at = _SCRATCH.buffer, _SCRATCH.address
    else:
        buf = np.empty(size, dtype=complex)
        at = buf.ctypes.data
    buf[3:at_vt].reshape(cols, rows)[...] = m.T
    ints = buf[:2].view(np.intc)
    # m, n, lda, ldu, ldvt, lwork, info
    ints[:7] = rows, cols, rows, 1, k, lwork, 0
    _ZGESVD(b"N", b"S", at, at + 4, at + 48, at + 8, at + 16 * at_s, at + 32,
            at + 12, at + 16 * at_vt, at + 16, at + 16 * at_work, at + 20,
            at + 16 * at_rwork, at + 24)
    s = buf[at_s:at_rwork].view(np.float64)[:k].copy()
    vt = buf[at_vt:at_s].reshape(cols, k).copy().T
    return s, vt, int(ints[6]), int(buf[at_work].real)


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
    return keep, float(np.add.reduce(s[keep:] ** 2))


def pivoted_qr(stack):
    """LAPACK's column-pivoted QR ``zgeqp3`` of each matrix of a stack.

    `stack` is ``(n, rows, cols)`` and is left as it is; each matrix is
    factorised in place in a Fortran-ordered copy, with the workspace
    ``zgeqp3`` asks for at the shape.  Returns ``(diag, pivots)``: the
    moduli of the diagonal of each R, ``(n, min(rows, cols))``, and each
    factorisation's column order, ``(n, cols)``, 0-based.
    """
    n, rows, cols = stack.shape
    fac = stack.transpose(0, 2, 1).copy()
    lwork = _geqp3_lwork(rows, cols)
    pivots = np.array([_ZGEQP3(f.T, lwork=lwork, overwrite_a=True)[1]
                       for f in fac], dtype=np.int64).reshape(n, cols)
    return np.abs(np.diagonal(fac, axis1=1, axis2=2)), pivots - 1


@functools.lru_cache(maxsize=256)
def _geqp3_lwork(rows, cols):
    """The workspace LAPACK's ``zgeqp3`` asks for at this shape."""
    return int(_ZGEQP3(np.zeros((rows, cols), dtype=complex),
                       lwork=-1)[3][0].real)
