import ast
import ctypes
import sys
import threading
import types
from pathlib import Path

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
# cols < 1.6 rows and cols >= 1.6 rows (LQ first); the last three fit
# the scratch buffer, the others do not
@pytest.mark.parametrize("shape", [(256, 64), (96, 64), (64, 64), (64, 96),
                                   (32, 64), (12, 8), (8, 12), (6, 6)],
                         ids="{0[0]}x{0[1]}".format)
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


@pytest.mark.parametrize("shape", [(9, 4), (4, 9), (6, 6), (1, 7), (7, 1),
                                   (1, 1), (80, 70), (70, 80)],
                         ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("kind", ["c_order", "fortran", "strided", "zero"])
def test_qr_is_numpys_bitwise(shape, kind):
    # the gufuncs numpy.linalg.qr ends in, without its wrapper: the same
    # bits, dtype and C-order layout in both modes, with R's mask cached
    # (up to SCRATCH_SLOTS entries) or made for the call (the last two)
    m = (np.zeros(shape, dtype=complex) if kind == "zero"
         else _svd_input(kind, shape, np.random.default_rng(12)))
    before = m.copy()
    q, r = linalg.qr(m)
    q_ref, r_ref = np.linalg.qr(m)
    r_only, r_only_ref = linalg.qr(m, mode="r"), np.linalg.qr(m, mode="r")
    for x, ref in ((q, q_ref), (r, r_ref), (r_only, r_only_ref)):
        assert np.array_equal(x, ref) and x.tobytes() == ref.tobytes()
        assert x.dtype == ref.dtype and x.strides == ref.strides
    assert np.array_equal(m, before)


def test_qr_takes_only_the_thin_modes():
    with pytest.raises(ValueError, match="^qr mode must be 'reduced' or 'r', "
                                         "got 'complete'$"):
        linalg.qr(np.eye(3), mode="complete")


def test_qr_gufunc_binding_names_a_missing_gufunc():
    stub = types.ModuleType("numpy.linalg._umath_linalg")
    stub.qr_r_raw = np.linalg._umath_linalg.qr_r_raw
    with pytest.raises(ImportError) as exc:
        linalg._bind_qr_gufuncs(stub)
    assert str(exc.value) == (f"numpy.linalg._umath_linalg has no qr_reduced "
                              f"in numpy {np.__version__}; linalg.qr calls it")
    gufuncs = linalg._bind_qr_gufuncs(np.linalg._umath_linalg)
    assert gufuncs == (linalg._QR_R_RAW, linalg._QR_REDUCED)


def test_lstsq_gufunc_binding_names_a_missing_gufunc():
    stub = types.ModuleType("numpy.linalg._umath_linalg")
    stub.qr_r_raw = np.linalg._umath_linalg.qr_r_raw
    with pytest.raises(ImportError) as exc:
        linalg._gufunc(stub, "lstsq", "linalg.lstsq")
    assert str(exc.value) == (f"numpy.linalg._umath_linalg has no lstsq in "
                              f"numpy {np.__version__}; linalg.lstsq calls it")
    assert linalg._gufunc(np.linalg._umath_linalg, "lstsq",
                          "linalg.lstsq") is linalg._LSTSQ


@pytest.mark.parametrize("shape", [(5, 3, 2), (4, 2, 6), (3, 1, 4), (2, 7, 1)])
def test_stacked_lstsq_is_numpy_lstsq_per_system(shape):
    # full-rank, rank-deficient and all-zero systems in one stack, each
    # solved bitwise as np.linalg.lstsq solves it alone
    rng = np.random.default_rng(sum(shape))
    n, rows, cols = shape
    a = rng.normal(size=(n, rows, cols)) + 1j * rng.normal(size=(n, rows, cols))
    b = rng.normal(size=(n, rows, 3)) + 1j * rng.normal(size=(n, rows, 3))
    a[1, :, -1] = a[1, :, 0]
    a[-1] = 0.0
    x = linalg.lstsq(a, b)
    for k in range(n):
        assert np.array_equal(x[k], np.linalg.lstsq(a[k], b[k], rcond=None)[0])
    assert not x[-1].any()


@pytest.mark.parametrize("n", [3, 9, 40, 300])
def test_discarded_weight_is_the_numpy_sum(n):
    # np.add.reduce is np.sum's reduction, pairwise summation included
    s = np.sort(np.random.default_rng(n).random(n))[::-1]
    for max_rank in (1, n // 3 + 1):
        keep, weight = truncation_rank(s, max_rank=max_rank)
        assert weight == float(np.sum(s[keep:] ** 2))


def test_zgesvd_scratch_serves_small_calls_only():
    # a call of at most SCRATCH_SLOTS entries works in the thread's
    # scratch buffer and a larger one in its own; no result is a view of
    # either, and a small call after a large one reads no stale entry
    rng = np.random.default_rng(13)
    small = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    large = rng.normal(size=(90, 70)) + 1j * rng.normal(size=(90, 70))
    scratch = linalg._SCRATCH.buffer
    first = svd_truncate_v(small)
    for x in svd_truncate_v(large)[:2] + first[:2]:
        assert not np.shares_memory(x, scratch)
    again = svd_truncate_v(small)
    assert linalg._SCRATCH.buffer is scratch
    assert scratch.size == linalg.SCRATCH_SLOTS < large.size
    for x, y in zip(first[:2], again[:2]):
        assert x.tobytes() == y.tobytes()


_FACTORISATIONS = {("numpy", "linalg", "qr"), ("np", "linalg", "qr"),
                   ("numpy", "linalg", "svd"), ("np", "linalg", "svd"),
                   ("scipy", "linalg", "svd"),
                   ("numpy", "linalg", "_umath_linalg")}


def _factorisation_calls(source):
    """Dotted names of the QR and SVD routines `source` reaches directly."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Attribute) and \
                isinstance(node.value.value, ast.Name):
            name = (node.value.value.id, node.value.attr, node.attr)
            if name in _FACTORISATIONS:
                found.append(".".join(name))
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if (*(node.module or "").split("."), a.name)
                      in _FACTORISATIONS]
    return found


def test_only_linalg_calls_the_numpy_and_scipy_factorisations():
    # linalg.py is the one layer bound to the QR and SVD routines; the
    # rest of src/ goes through it
    assert _factorisation_calls(
        "import numpy as np\nfrom scipy.linalg import svd\nnp.linalg.qr(a)") \
        == ["scipy.linalg.svd", "np.linalg.qr"]
    assert _factorisation_calls("from numpy.linalg import _umath_linalg\n"
                                "numpy.linalg._umath_linalg.lstsq") \
        == ["numpy.linalg._umath_linalg"] * 2
    package = Path(linalg.__file__).parent
    calls = {path.name: _factorisation_calls(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert len(calls) > 10
    assert {name: found for name, found in calls.items()
            if found and name != "linalg.py"} == {}


def test_zgesvd_scratch_is_one_per_thread():
    # zgesvd runs with the interpreter lock released; threads that share
    # no scratch buffer return what a serial run returns, under fast
    # switching
    rng = np.random.default_rng(14)
    mats = [rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
            for r, c in ((6, 9), (40, 30), (17, 17), (3, 50), (90, 70))]
    expected = [svd_truncate_v(m)[1].tobytes() for m in mats]
    mismatches = []

    def work(offset):
        for i in range(40):
            j = (i + offset) % len(mats)
            if svd_truncate_v(mats[j])[1].tobytes() != expected[j]:
                mismatches.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
