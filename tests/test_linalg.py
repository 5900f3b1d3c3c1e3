import numpy as np
import pytest
import scipy.linalg
from helpers import qr_column_pivoted

from dysonmpo.linalg import svd_truncate, truncation_rank


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
