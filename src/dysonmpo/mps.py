"""Finite matrix product states and MPO application with truncation.

`apply_mpo` never forms the raw product tensors of bond ``D_w * chi``
(MPO bond times MPS bond).  It contracts the MPO into the MPS from both
chain ends towards the centre, factorising as it goes, so that the exact
product arrives in mixed-canonical form with bonds bounded by the Hilbert
space dimension of the shorter side; one truncating SVD sweep follows.
A site matrix no taller than it is wide has a square unitary Q that
shrinks no bond.  It is still factorised while that costs no more than
forming it, because the triangular remainder keeps weak MPO channels
apart from strong ones; past that, the site keeps the identity isometry
and the whole matrix moves on, which is exact.
"""

import numpy as np

from .linalg import svd_truncate


class FiniteMPS:
    """Open-boundary MPS; site tensors have index order (left, phys, right)."""

    def __init__(self, tensors):
        self.tensors = [np.asarray(t, dtype=complex) for t in tensors]
        if not self.tensors:
            raise ValueError("an MPS needs at least one site")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for a, b in zip(self.tensors, self.tensors[1:]):
            if a.shape[2] != b.shape[0]:
                raise ValueError("mismatched internal bonds")

    @property
    def n_sites(self):
        return len(self.tensors)

    @property
    def d(self):
        return self.tensors[0].shape[1]

    @property
    def bond_dimensions(self):
        return [t.shape[2] for t in self.tensors[:-1]]

    @property
    def max_bond(self):
        return max(self.bond_dimensions, default=1)

    @classmethod
    def product_state(cls, states):
        """Product state from a list of single-site vectors."""
        return cls([np.asarray(s, dtype=complex).reshape(1, -1, 1)
                    for s in states])

    @classmethod
    def all_up(cls, n_sites, d=2):
        vec = np.zeros(d, dtype=complex)
        vec[0] = 1.0
        return cls.product_state([vec] * n_sites)

    @classmethod
    def random_product(cls, n_sites, d=2, rng=None):
        rng = np.random.default_rng(rng)
        states = []
        for _ in range(n_sites):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            states.append(v / np.linalg.norm(v))
        return cls.product_state(states)

    @classmethod
    def from_dense(cls, vec, n_sites, d=2):
        """Exact MPS of a dense state vector."""
        vec = np.asarray(vec, dtype=complex)
        tensors = []
        rest = vec.reshape(1, -1)
        for _ in range(n_sites - 1):
            dl = rest.shape[0]
            u, s, v, _ = svd_truncate(rest.reshape(dl * d, -1), tol=0.0)
            tensors.append(u.reshape(dl, d, -1))
            rest = s[:, None] * v
        tensors.append(rest.reshape(rest.shape[0], d, 1))
        return cls(tensors)

    def to_dense(self):
        out = np.ones((1, 1), dtype=complex)
        for t in self.tensors:
            out = np.tensordot(out, t, axes=(1, 0))
            out = out.reshape(-1, t.shape[2])
        return out[:, 0]

    def overlap(self, other):
        """<self|other> by transfer contraction."""
        if self.n_sites != other.n_sites:
            raise ValueError("site counts differ")
        env = np.ones((1, 1), dtype=complex)
        for a, b in zip(self.tensors, other.tensors):
            env = np.einsum("lm,lpr,mps->rs", env, a.conj(), b, optimize=True)
        return complex(env[0, 0])

    def norm(self):
        return float(np.sqrt(abs(self.overlap(self))))

    def normalized(self):
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize the zero state")
        tensors = [t.copy() for t in self.tensors]
        scale = nrm ** (1.0 / self.n_sites)
        for i in range(self.n_sites):
            tensors[i] = tensors[i] / scale
        return FiniteMPS(tensors)


def _qr(mat):
    """Thin QR; a wide matrix factorises only its leading square block.

    Householder QR of an ``(m, n)`` matrix with ``m < n`` takes its m
    reflectors from the first m columns, so the remaining columns of R are
    ``Q^H`` times theirs; one product computes them faster than LAPACK's
    update of the trailing columns.
    """
    m, n = mat.shape
    if m >= n:
        return np.linalg.qr(mat)
    q, r = np.linalg.qr(mat[:, :m])
    return q, np.concatenate([r, q.conj().T @ mat[:, m:]], axis=1)


def _left_step(r_left, a, w):
    """Absorb one site into the left remainder; returns ``(q, r_left)``.

    `r_left` has shape ``(k, D_w, chi_l)``; the contracted site is reshaped
    to ``(k*d, D_w*chi_r)`` and QR-factorised into a left-orthonormal
    ``(k, d, m)`` tensor and the new remainder ``(m, D_w, chi_r)``.  When
    ``chi_l + D_w*d < k*d <= D_w*chi_r`` the site is the identity isometry
    ``(k, d, k*d)``, returned as None, and the whole matrix is the
    remainder: Q would be square, and the QR would cost more than the
    ``k*d*D_w*chi_r*(chi_l + D_w*d)`` of the contraction.
    """
    k, dw, chi_l = r_left.shape
    d, chi_r = a.shape[1], a.shape[2]
    t = np.tensordot(r_left, a, axes=(2, 0))                # (k, a, p, r)
    t = np.tensordot(t, w, axes=([1, 2], [0, 3]))           # (k, r, b, s)
    mat = t.transpose(0, 3, 2, 1).reshape(k * d, dw * chi_r)
    if chi_l + dw * d < k * d <= dw * chi_r:
        return None, mat.reshape(k * d, dw, chi_r)
    q, r = _qr(mat)
    return q.reshape(k, d, -1), r.reshape(-1, dw, chi_r)


def _right_step(a, w, r_right):
    """Mirror of `_left_step` from the right chain end; returns ``(q, r_right)``.

    `r_right` has shape ``(D_w, chi_r, k)``; the LQ factorisation of the
    ``(D_w*chi_l, d*k)`` site matrix is the QR of its conjugate transpose.
    When ``chi_r + D_w*d < d*k <= D_w*chi_l`` the site is the identity
    isometry ``(d*k, d, k)``, returned as None, and the whole matrix is the
    remainder.
    """
    dw, chi_r, k = r_right.shape
    chi_l, d = a.shape[0], a.shape[1]
    t = np.tensordot(a, r_right, axes=(2, 1))               # (l, p, b, k)
    t = np.tensordot(w, t, axes=([1, 3], [2, 1]))           # (a, s, l, k)
    mat = t.transpose(0, 2, 1, 3).reshape(dw * chi_l, d * k)
    if chi_r + dw * d < d * k <= dw * chi_l:
        return None, mat.reshape(dw, chi_l, d * k)
    q, r = _qr(mat.conj().T)
    return q.conj().T.reshape(-1, d, k), r.conj().T.reshape(dw, chi_l, -1)


def apply_mpo(mpo, psi, d_max=None, svd_tol=1e-14):
    """Apply an extensive MPO to a finite MPS and truncate.

    The product is contracted from both chain ends towards the centre site
    ``c = n // 2``.  A left remainder ``(k, D_w, chi)`` absorbs the MPS and
    MPO tensors of sites ``0 .. c-1`` one at a time and is QR-factorised
    after each; a right remainder does the same with LQ factorisations for
    sites ``n-1 .. c+1``; the centre site closes both.  A QR sweep over the
    (now small) bonds right of the centre leaves the exact product in
    left-canonical form, and a right-to-left SVD sweep truncates it at
    `d_max` / `svd_tol`.  No tensor of the raw bond ``D_w * chi`` is formed,
    and every factorised matrix has a side no longer than ``d`` to the
    power of its distance to the nearer chain end.

    A left-step matrix ``(k*d, D_w*chi)`` with ``k*d <= D_w*chi`` (and the
    mirror LQ case on the right) leaves bond ``k*d`` with or without its
    QR, whose Q is a square unitary.  The QR is still taken while it costs
    no more than the contraction that formed the matrix, ``k*d <= chi_l +
    D_w*d``: Householder QR keeps each column to rounding of its own norm,
    so the triangular remainder holds the weak MPO channels in rows of
    their own scale.  A discarded weight far below the norm, as `d_max`
    leaves after a near-exact step, then comes out to about twelve digits
    instead of about eight (order-4 TFI steps on 8 and 9 sites against an
    extended-precision sweep).  Past that bound the site keeps the
    identity isometry, which is orthonormal like Q, the sweeps that would
    multiply into it reshape instead, and the product is the same state,
    summed densely: its small singular values are then resolved only to
    rounding of the norm.

    Returns ``(psi_out, discarded)`` with a normalized state, right-canonical
    with the norm on site 0, and the total discarded weight.
    """
    if psi.d != mpo.d:
        raise ValueError("physical dimensions differ")
    w = mpo.site_tensor()  # (left, right, out, in)
    dw = w.shape[0]
    boundary = np.zeros(dw, dtype=complex)
    boundary[mpo.boundary_index()] = 1.0
    n = psi.n_sites
    c = n // 2
    tensors = [None] * n
    r_left = boundary.reshape(1, dw, 1)
    for i in range(c):
        tensors[i], r_left = _left_step(r_left, psi.tensors[i], w)
    r_right = boundary.reshape(dw, 1, 1)
    for i in range(n - 1, c, -1):
        tensors[i], r_right = _right_step(psi.tensors[i], w, r_right)
    t = np.tensordot(r_left, psi.tensors[c], axes=(2, 0))  # (k, a, p, r)
    t = np.tensordot(t, w, axes=([1, 2], [0, 3]))           # (k, r, b, s)
    tensors[c] = np.tensordot(t, r_right, axes=([1, 2], [1, 0]))
    # a None site is an identity isometry: multiplying into it is a reshape
    for i in range(c, n - 1):
        dl, d, dr = tensors[i].shape
        q, r = np.linalg.qr(tensors[i].reshape(dl * d, dr))
        tensors[i] = q.reshape(dl, d, q.shape[1])
        if tensors[i + 1] is None:
            tensors[i + 1] = r.reshape(r.shape[0], d, -1)
        else:
            tensors[i + 1] = np.tensordot(r, tensors[i + 1], axes=(1, 0))
    discarded = 0.0
    for i in range(n - 1, 0, -1):
        dl, d, dr = tensors[i].shape
        u, s, v, disc = svd_truncate(tensors[i].reshape(dl, d * dr),
                                     max_rank=d_max, tol=svd_tol)
        discarded += disc
        tensors[i] = v.reshape(-1, d, dr)
        us = u * s
        if tensors[i - 1] is None:
            tensors[i - 1] = us.reshape(-1, d, us.shape[1])
        else:
            tensors[i - 1] = np.tensordot(tensors[i - 1], us, axes=(2, 0))
    nrm = np.linalg.norm(tensors[0])
    if nrm == 0:
        raise ValueError("cannot normalize the zero state")
    tensors[0] = tensors[0] / nrm
    return FiniteMPS(tensors), discarded


def trace_distance_error(psi_a, psi_b):
    """Trace distance ``sqrt(1 - |<a|b>|^2)`` of the normalized states.

    Evaluated as ``delta * sqrt(1 - delta^2 / 4)`` from the phase-aligned
    difference norm ``delta = |a - e^{i phi} b|``, which resolves
    distances down to rounding; the overlap form cancels below about 5e-8.
    `delta` is the norm of the difference MPS (bond ``chi_a + chi_b``),
    read off its last site after a left-to-right QR sweep.
    """
    if psi_a.n_sites != psi_b.n_sites or psi_a.d != psi_b.d:
        raise ValueError("states live on different chains")
    a = psi_a.normalized()
    b = psi_b.normalized()
    ov = b.overlap(a)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    delta = _difference_norm(a.tensors,
                             [-phase * b.tensors[0]] + b.tensors[1:])
    return float(delta * np.sqrt(max(0.0, 1.0 - 0.25 * delta ** 2)))


def _difference_norm(xs, ys):
    """Norm of the sum of two MPS given by their site tensors."""
    n = len(xs)
    if n == 1:
        return float(np.linalg.norm(xs[0] + ys[0]))
    r = np.ones((1, 1), dtype=complex)
    for i, (x, y) in enumerate(zip(xs, ys)):
        if i == 0:
            t = np.concatenate([x, y], axis=2)
        elif i == n - 1:
            t = np.concatenate([x, y], axis=0)
        else:
            t = np.zeros((x.shape[0] + y.shape[0], x.shape[1],
                          x.shape[2] + y.shape[2]), dtype=complex)
            t[:x.shape[0], :, :x.shape[2]] = x
            t[x.shape[0]:, :, x.shape[2]:] = y
        t = np.tensordot(r, t, axes=(1, 0))
        if i == n - 1:
            return float(np.linalg.norm(t))
        dl, d, dr = t.shape
        r = np.linalg.qr(t.reshape(dl * d, dr), mode="r")
