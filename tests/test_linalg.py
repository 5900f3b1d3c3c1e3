import ctypes

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.cython_lapack
from helpers import qr_column_pivoted, svd_truncate

from dysonmpo import linalg
from dysonmpo.linalg import svd_truncate_v, truncation_rank


def test_svd_identity():
    u, s, v, w = svd_truncate(np.eye(4), max_rank=4, tol=0.0)
    np.testing.assert_allclose(s, np.ones(4))
    assert w == 0.0


def test_svd_rank_one():
    rng = np.random.default_rng(3)
    u0 = rng.normal(size=5)
    v0 = rng.normal(size=4)
    m = np.outer(u0, v0)
    u, s, v, w = svd_truncate(m, max_rank=1)
    np.testing.assert_allclose(u @ np.diag(s) @ v, m, atol=1e-12)


def test_svd_full_rank_reconstruction():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    u, s, v, w = svd_truncate(m, max_rank=8, tol=0.0)
    assert np.linalg.norm(u @ np.diag(s) @ v - m) < 1e-12
    assert w == 0.0


def test_svd_discarded_weight():
    m = np.diag([3.0, 2.0, 1.0])
    u, s, v, w = svd_truncate(m, max_rank=1)
    np.testing.assert_allclose(w, 4.0 + 1.0)


def test_qr_zero_matrix():
    rank, piv, r = qr_column_pivoted(np.zeros((3, 3)))
    assert rank == 0 and piv == []


def test_qr_identity():
    rank, piv, r = qr_column_pivoted(np.eye(3), tol=1e-12)
    assert rank == 3


def test_qr_duplicate_column():
    rng = np.random.default_rng(5)
    col = rng.normal(size=4)
    other = rng.normal(size=4)
    m = np.column_stack([col, col, other])
    rank, piv, r = qr_column_pivoted(m, tol=1e-12)
    assert rank == np.linalg.matrix_rank(m)
    assert rank == 2
    # the two duplicates contribute a single pivot
    assert not {0, 1} <= set(piv)


def test_qr_rank_matches_svd_on_random_low_rank():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m, n = rng.integers(2, 7, size=2)
        r = int(rng.integers(1, min(m, n) + 1))
        mat = (rng.normal(size=(m, r)) @ rng.normal(size=(r, n))).astype(complex)
        rank = qr_column_pivoted(mat, tol=1e-10)[0]
        svd_rank = int(np.sum(np.linalg.svd(mat, compute_uv=False)
                              > 1e-10 * np.linalg.svd(mat, compute_uv=False)[0]))
        assert rank == svd_rank


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4), (49, 1),
                                   (1, 49), (17, 5)])
def test_qr_r_factor_is_scipys(shape):
    # one geqp3 call, no Q: the same R and pivots as scipy's economic QR
    rng = np.random.default_rng(7)
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m[:, -1] = m[:, 0]  # one dependent column where there are several
    _, r_ref, piv_ref = scipy.linalg.qr(m, mode="economic", pivoting=True)
    rank, piv, r = qr_column_pivoted(m, tol=0.0)
    assert np.array_equal(r, r_ref)
    assert piv == [int(p) for p in piv_ref[:rank]]


def test_truncation_rank():
    s = np.array([3.0, 1e-12, 1e-14])
    assert truncation_rank(s) == (3, 0.0)
    keep, w = truncation_rank(s, tol=1e-13)
    assert keep == 2
    np.testing.assert_allclose(w, 1e-28)
    keep, w = truncation_rank(s, tol=1e-13, max_rank=1)
    assert keep == 1
    np.testing.assert_allclose(w, 1e-24 + 1e-28)
    assert truncation_rank(np.zeros(2), tol=1e-13) == (2, 0.0)
    assert truncation_rank(np.zeros(0), tol=1e-13) == (0, 0.0)


@pytest.mark.parametrize("max_rank", [0, -1])
def test_truncation_rank_rejects_rank_below_one(max_rank):
    # a negative cap used to drop the smallest value silently
    with pytest.raises(ValueError, match="max_rank"):
        truncation_rank(np.array([3.0, 2.0, 1.0]), max_rank=max_rank)
    with pytest.raises(ValueError, match="max_rank"):
        svd_truncate(np.diag([3.0, 2.0, 1.0]), max_rank=max_rank)
    with pytest.raises(ValueError, match="max_rank"):
        svd_truncate_v(np.diag([3.0, 2.0, 1.0]), max_rank=max_rank)


def test_zgesvd_is_bound_with_its_c_prototype():
    # the capsule's name is the C signature SciPy exports; int * arguments
    capsule = scipy.linalg.cython_lapack.__pyx_capi__["zgesvd"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule).decode()
    assert name == linalg.ZGESVD_SIGNATURE
    args = linalg.ZGESVD_SIGNATURE.removeprefix("void (").removesuffix(")")
    assert [a.strip() for a in args.split(",")] == [
        "char *", "char *", "int *", "int *", "__pyx_t_double_complex *",
        "int *", "__pyx_t_5scipy_6linalg_13cython_lapack_d *",
        "__pyx_t_double_complex *", "int *", "__pyx_t_double_complex *",
        "int *", "__pyx_t_double_complex *", "int *",
        "__pyx_t_5scipy_6linalg_13cython_lapack_d *", "int *"]


def test_zgesvd_binding_refuses_another_prototype(monkeypatch):
    other = linalg.ZGESVD_SIGNATURE.replace("int *", "int64_t *")
    monkeypatch.setattr(linalg, "ZGESVD_SIGNATURE", other)
    with pytest.raises(ImportError) as exc:
        linalg._bind_zgesvd()
    message = str(exc.value)
    assert repr(other) in message
    assert repr(other.replace("int64_t *", "int *")) in message


def _graded(rng, shape, smallest):
    """A complex matrix with singular values from 1 down to `smallest`."""
    k = min(shape)
    q_l = np.linalg.qr(rng.normal(size=(shape[0], k))
                       + 1j * rng.normal(size=(shape[0], k)))[0]
    q_r = np.linalg.qr(rng.normal(size=(shape[1], k))
                       + 1j * rng.normal(size=(shape[1], k)))[0]
    return (q_l * np.logspace(0, np.log10(smallest), k)) @ q_r.conj().T


def _svd_input(kind, shape, rng):
    rows, cols = shape
    if kind == "rank_deficient":
        r = min(shape) // 4
        return ((rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r)))
                @ (rng.normal(size=(r, cols)) + 1j * rng.normal(size=(r, cols))))
    if kind == "graded":
        return _graded(rng, shape, 1e-18)
    m = rng.normal(size=(rows, 2 * cols)) + 1j * rng.normal(size=(rows, 2 * cols))
    if kind == "fortran":
        return np.asfortranarray(m[:, :cols])
    if kind == "strided":
        return m[:, ::2]
    return np.ascontiguousarray(m[:, :cols])


# zgesvd's paths: rows >= 1.6 cols (QR first), rows < 1.6 cols, square,
# cols < 1.6 rows and cols >= 1.6 rows (LQ first)
@pytest.mark.parametrize("shape", [(256, 64), (96, 64), (64, 64), (64, 96),
                                   (32, 64)], ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("kind", ["c_order", "rank_deficient", "graded",
                                  "fortran", "strided"])
def test_v_only_svd_is_svd_truncate_bitwise(shape, kind):
    rng = np.random.default_rng(11)
    m = _svd_input(kind, shape, rng)
    assert m.flags.c_contiguous == (kind in ("c_order", "rank_deficient",
                                             "graded"))
    for rule in ({}, {"max_rank": 7}, {"tol": 1e-9},
                 {"max_rank": 40, "tol": 1e-12}):
        _, s_ref, v_ref, w_ref = svd_truncate(m, **rule)
        s, v, w = svd_truncate_v(m, **rule)
        assert np.array_equal(s, s_ref) and s.dtype == s_ref.dtype
        assert np.array_equal(v, v_ref) and v.strides == v_ref.strides
        assert w == w_ref


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_v_only_svd_rejects_non_finite_input(bad):
    m = np.ones((4, 3), dtype=complex)
    m[2, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        svd_truncate(m)
    with pytest.raises(ValueError, match="infs or NaNs"):
        svd_truncate_v(m)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_v_only_svd_of_an_empty_matrix(shape):
    _, s_ref, v_ref, w_ref = svd_truncate(np.zeros(shape))
    s, v, w = svd_truncate_v(np.zeros(shape))
    assert s.shape == s_ref.shape == (0,)
    assert v.shape == v_ref.shape == (0, shape[1]) and v.dtype == complex
    assert w == w_ref == 0.0
