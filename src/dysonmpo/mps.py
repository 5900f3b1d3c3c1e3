"""Finite matrix product states and MPO application with truncation.

`apply_mpo` never forms the raw product tensors of bond ``D_w * chi``
(MPO bond times MPS bond).  It contracts the MPO into the MPS from both
chain ends towards the centre, factorising as it goes, so that the exact
product arrives in mixed-canonical form with bonds bounded by the Hilbert
space dimension of the shorter side; one truncating SVD sweep follows,
forming no Q factor right of the centre and no U factor anywhere
(`linalg.svd_truncate_v`).  Every QR, here and in `trace_distance_error`,
is `linalg.qr`, which calls numpy's QR gufuncs directly: its factors are
bitwise those of ``numpy.linalg.qr``, without the wrapper's per-call cost.
A site matrix no taller than it is wide has a square unitary Q that
shrinks no bond.  It is still factorised while that costs no more than
forming it, because the triangular remainder keeps weak MPO channels
apart from strong ones; past that, the site keeps the identity isometry
and the whole matrix moves on, which is exact.

The MPO enters through its two transfer operators (`ExtensiveMPO.transfer`),
``(D_w*d, D_w*d)`` matrices built once per MPO from its coordinate blocks:
``(b, s) <- (a, p)`` for the sweep from the left end and ``(a, s) <-
(b, p)`` for the one from the right.  A site is one matrix product with
the MPS tensor, one with the operator and two transposes into the layout
of the next product and of the factorisation.  Both operators are dense
arrays.  The two remainders start from the MPO's boundary vectors.
"""

import numbers

import numpy as np

from .linalg import qr, svd_truncate_v

SVD_TOL = 1e-14  # relative singular-value cut of `apply_mpo`'s sweep


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
            t = (env @ b.reshape(b.shape[0], -1)).reshape(-1, b.shape[2])
            env = a.reshape(-1, a.shape[2]).conj().T @ t     # (r, s)
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
        return qr(mat)
    q, r = qr(mat[:, :m])
    return q, np.concatenate([r, q.conj().T @ mat[:, m:]], axis=1)


def _left_matrix(r_left, a, left):
    """Site matrix ``(k*d, D_w*chi_r)``, rows (k, s) and columns (b, r), of
    the left remainder ``(k, D_w, chi_l)`` times MPS tensor `a` and the
    left transfer operator ``(b, s) <- (a, p)``."""
    k, dw, chi_l = r_left.shape
    d, chi_r = a.shape[1], a.shape[2]
    t = r_left.reshape(k * dw, chi_l) @ a.reshape(chi_l, d * chi_r)
    x = t.reshape(k, dw * d, chi_r).transpose(1, 0, 2)       # (a p, k, r)
    y = left @ x.reshape(dw * d, k * chi_r)                  # (b s, k r)
    return y.reshape(dw, d, k, chi_r).transpose(2, 1, 0, 3).reshape(
        k * d, dw * chi_r)


def _left_step(r_left, a, left):
    """Absorb one site into the left remainder; returns ``(q, r_left)``.

    `r_left` has shape ``(k, D_w, chi_l)``; the contracted site
    (`_left_matrix`) is QR-factorised into a left-orthonormal ``(k, d,
    m)`` tensor and the new remainder ``(m, D_w, chi_r)``.  When
    ``chi_l + D_w*d < k*d <= D_w*chi_r`` the site is the identity isometry
    ``(k, d, k*d)``, returned as None, and the whole matrix is the
    remainder: Q would be square, and the QR would cost more than the
    ``k*d*D_w*chi_r*(chi_l + D_w*d)`` of the contraction.
    """
    k, dw, chi_l = r_left.shape
    d, chi_r = a.shape[1], a.shape[2]
    mat = _left_matrix(r_left, a, left)
    if chi_l + dw * d < k * d <= dw * chi_r:
        return None, mat.reshape(k * d, dw, chi_r)
    q, r = _qr(mat)
    return q.reshape(k, d, -1), r.reshape(-1, dw, chi_r)


def _right_matrix(a, right, r_right):
    """Site matrix ``(D_w*chi_l, d*k)``, rows (a, l) and columns (s, k), of
    MPS tensor `a` and the right transfer operator ``(a, s) <- (b, p)``
    times the right remainder ``(D_w, chi_r, k)``."""
    dw, chi_r, k = r_right.shape
    chi_l, d = a.shape[0], a.shape[1]
    t = a.reshape(chi_l * d, chi_r) @ r_right.transpose(1, 0, 2).reshape(
        chi_r, dw * k)                                       # (l, p, b, k)
    x = t.reshape(chi_l, d, dw, k).transpose(2, 1, 0, 3)     # (b, p, l, k)
    y = right @ x.reshape(dw * d, chi_l * k)                 # (a s, l k)
    return y.reshape(dw, d, chi_l, k).transpose(0, 2, 1, 3).reshape(
        dw * chi_l, d * k)


def _right_step(a, right, r_right):
    """Mirror of `_left_step` from the right chain end; returns ``(q, r_right)``.

    `r_right` has shape ``(D_w, chi_r, k)``; the LQ factorisation of the
    ``(D_w*chi_l, d*k)`` site matrix (`_right_matrix`) is the QR of its
    conjugate transpose.  When ``chi_r + D_w*d < d*k <= D_w*chi_l`` the
    site is the identity isometry ``(d*k, d, k)``, returned as None, and
    the whole matrix is the remainder.
    """
    dw, chi_r, k = r_right.shape
    chi_l, d = a.shape[0], a.shape[1]
    mat = _right_matrix(a, right, r_right)
    if chi_r + dw * d < d * k <= dw * chi_l:
        return None, mat.reshape(dw, chi_l, d * k)
    q, r = _qr(mat.conj().T)
    return q.conj().T.reshape(-1, d, k), r.conj().T.reshape(dw, chi_l, -1)


def check_d_max(d_max):
    """Raise `ValueError` unless `d_max` is None or an int of at least 1.

    A bool is not taken as a bond, nor a float, which the truncation
    would reach only as a slice bound.
    """
    if d_max is None:
        return
    if isinstance(d_max, bool) or not isinstance(d_max, numbers.Integral) \
            or d_max < 1:
        raise ValueError("d_max, the max_rank of each truncating SVD, must "
                         f"be None or an int >= 1, got {d_max!r}")


def apply_mpo(mpo, psi, d_max=None):
    """Apply an extensive MPO to a finite MPS and truncate.

    The product is contracted from both chain ends towards the centre site
    ``c = n // 2``.  A left remainder ``(k, D_w, chi)`` absorbs the MPS and
    MPO tensors of sites ``0 .. c-1`` one at a time and is QR-factorised
    after each; a right remainder does the same with LQ factorisations for
    sites ``n-1 .. c+1``; the centre site closes both, contracted from the
    right (`_right_matrix`), whose remainder bond is never the larger.  A
    right-to-left SVD sweep truncates the product at `d_max` and
    `SVD_TOL` (singular values at or below `SVD_TOL` times the largest go):
    at site ``i`` it takes S and V of ``R_{i-1} N_i = U S V`` and pushes
    ``N_i V^H`` into site ``i-1``, where ``N_i`` is site ``i`` times the
    push from the right and ``R_{i-1}`` the triangular factor of the QR of
    sites ``c .. i-1`` (1 for ``i <= c``).  As ``Q_i R_i = R_{i-1} B_i``,
    that push is the ``Q_i (U S)_{i+1}`` of a sweep through the
    left-canonical form, but no Q right of the centre is formed, and no U:
    the SVD is LAPACK's ``zgesvd`` with ``jobu = 'N'``
    (`linalg.svd_truncate_v`), whose S and V are bitwise those of the
    full SVD.  No tensor of the raw bond ``D_w * chi`` is formed, and
    every factorised matrix has a side no longer than ``d`` to the power of
    its distance to the nearer chain end.  The MPO
    acts through its dense transfer operators (`ExtensiveMPO.transfer`),
    built on the first apply and kept with the MPO.

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
    identity isometry, which is orthonormal like Q, the products that
    would multiply into it reshape instead, and the result is the same state,
    summed densely: its small singular values are then resolved only to
    rounding of the norm.

    The contraction starts from the MPO's boundary vectors
    (`ExtensiveMPO.boundary`), one-hot on the identity level for a
    labelled MPO and dense for a bulk one.

    Returns ``(psi_out, discarded)`` with a normalized state, right-canonical
    with the norm on site 0, and the total discarded weight.  A `d_max`
    other than None or an int ``>= 1`` (see `check_d_max`) or a state
    with an inf or NaN entry raises `ValueError`.
    """
    if psi.d != mpo.d:
        raise ValueError("physical dimensions differ")
    check_d_max(d_max)
    if not np.isfinite(np.concatenate([t.ravel() for t in psi.tensors])).all():
        raise ValueError("array must not contain infs or NaNs")
    left, right = mpo.transfer()
    dw = mpo.bond_dimension
    n = psi.n_sites
    c = n // 2
    tensors = [None] * n
    r_left = mpo.boundary[0].reshape(1, dw, 1)
    for i in range(c):
        tensors[i], r_left = _left_step(r_left, psi.tensors[i], left)
    r_right = mpo.boundary[1].reshape(dw, 1, 1)
    for i in range(n - 1, c, -1):
        tensors[i], r_right = _right_step(psi.tensors[i], right, r_right)
    d, k = psi.d, r_left.shape[0]
    tensors[c] = (r_left.reshape(k, -1) @ _right_matrix(
        psi.tensors[c], right, r_right)).reshape(k, d, -1)
    # R_i with Q_i R_i = R_{i-1} B_i and R_{c-1} = 1; Q_i is never formed.
    # A None site is an identity isometry: multiplying into it is a reshape
    grams = [None]
    for t in tensors[c:n - 1]:
        m = grams[-1]
        if t is not None:
            t = t.reshape(t.shape[0], -1)
            m = t if m is None else m @ t
        grams.append(qr(m.reshape(m.shape[0] * d, -1), mode="r"))
    # SVD R_{i-1} N_i with N_i = B_i z, then push z = N_i V^H to the left
    discarded, z = 0.0, None
    for i in range(n - 1, -1, -1):
        t, r = tensors[i], grams.pop() if grams else None
        if t is None and r is not None:  # N_i is z on each (s, .) block
            x = (r.reshape(-1, len(z)) @ z).reshape(len(r), -1)
        else:
            nz = (z.reshape(-1, d * z.shape[1]) if t is None else
                  t.reshape(len(t), -1) if z is None else
                  (t.reshape(-1, t.shape[2]) @ z).reshape(len(t), -1))
            x = nz if r is None else r @ nz
        if i == 0:
            tensors[0] = x.reshape(1, d, -1)
            break
        _, v, disc = svd_truncate_v(x, max_rank=d_max, tol=SVD_TOL)
        discarded += disc
        tensors[i] = v.reshape(v.shape[0], d, -1)
        vh = v.conj().T
        if t is None and r is not None:
            z = (z @ vh.reshape(d, z.shape[1], -1)).reshape(-1, vh.shape[1])
        else:
            z = nz @ vh
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
        r = qr(t.reshape(dl * d, dr), mode="r")
