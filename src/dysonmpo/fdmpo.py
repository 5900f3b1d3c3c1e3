"""First-degree MPOs and their closed algebra.

A quasi-local Hamiltonian ``H = sum_n h_n`` is stored as the upper-triangular
site tensor

    ( 1  L  D )
    ( 0  A  R )
    ( 0  0  1 )

with boundary vectors ``v_L = (1, 0, 0)`` and ``v_R = (0, 0, 1)^T``, so that

    h_n = D_n + L_n R_{n+1} + L_n A_{n+1} R_{n+2} + ...

Levels (1) and (3) are one-dimensional; the middle level has dimension
`chi`.  Zero blocks are *absent* from the entry dictionaries rather than
stored as zero matrices, so `chi` always follows the closed-form bond
arithmetic of the sum, product and square constructions.
"""

import numpy as np
import scipy.sparse

from .linalg import as_complex

# most complex entries a dense expansion holds: n_levels * (d**n_sites)**2
DENSE_CAP = 1 << 22


def dense_chain(rows, cols, blocks, n_levels, left, right, n_sites):
    """Dense operator of `n_sites` equal site tensors between the boundary
    vectors `left` and `right` (length `n_levels` each).

    The tensor is given by its (d, d) blocks ``W[rows[i], cols[i]]``.
    ``env[b]``, the operator on the sites so far ending on level `b`,
    starts as ``left[b]`` and goes to ``sum over blocks (a, b) of
    kron(env[a], W[a, b])``: one sparse product per site, so no dense site
    tensor is formed.  The result is ``sum over b of right[b] env[b]``.
    The last site's environments hold ``n_levels * (d**n_sites)**2``
    entries; above `DENSE_CAP` this raises `ValueError` before allocating.
    """
    d = blocks.shape[-1]
    size = n_levels * d ** (2 * n_sites)
    if size > DENSE_CAP:
        raise ValueError(f"a dense expansion of {n_levels} levels on "
                         f"{n_sites} sites holds {size} entries, above "
                         f"DENSE_CAP = {DENSE_CAP}")
    sites = scipy.sparse.csr_array(
        (blocks.reshape(-1), ((cols[:, None] * d * d + np.arange(d * d))
                              .reshape(-1), np.repeat(rows, d * d))),
        shape=(n_levels * d * d, n_levels))
    env, dim = np.asarray(left, dtype=complex).reshape(n_levels, 1), 1
    for _ in range(n_sites):
        new = (sites @ env).reshape(-1, d, d, dim, dim)
        dim *= d
        env = new.transpose(0, 3, 1, 4, 2).reshape(-1, dim * dim)
    return (np.asarray(right, dtype=complex) @ env).reshape(dim, dim)


def one_hot(n, i):
    """Boundary vector of length `n` on level `i`."""
    vec = np.zeros(n, dtype=complex)
    vec[i] = 1.0
    return vec


class FirstDegreeMPO:
    """Upper-triangular MPO for an extensive sum of (quasi-)local terms.

    Attributes
    ----------
    d : int
        Physical dimension.
    chi : int
        Dimension of the middle virtual level.
    L : dict slot -> (d, d) array
        Operator-valued row vector (transitions ``1 -> 2``).
    A : dict (slot, slot) -> (d, d) array
        Middle-level transitions ``2 -> 2``.
    R : dict slot -> (d, d) array
        Operator-valued column vector (transitions ``2 -> 3``).
    D : (d, d) array or None
        On-site term (transition ``1 -> 3``).
    """

    def __init__(self, d, chi, L=None, A=None, R=None, D=None):
        self.d = int(d)
        self.chi = int(chi)
        self.L = {int(k): as_complex(v) for k, v in (L or {}).items()}
        self.A = {(int(i), int(j)): as_complex(v) for (i, j), v in (A or {}).items()}
        self.R = {int(k): as_complex(v) for k, v in (R or {}).items()}
        self.D = as_complex(D) if D is not None else None
        self._validate()

    def _validate(self):
        for name, entries in (("L", self.L), ("R", self.R)):
            for k, op in entries.items():
                if not 0 <= k < self.chi:
                    raise ValueError(f"{name} slot {k} outside chi={self.chi}")
                if op.shape != (self.d, self.d):
                    raise ValueError(f"{name}[{k}] is not {self.d}x{self.d}")
        for (i, j), op in self.A.items():
            if not (0 <= i < self.chi and 0 <= j < self.chi):
                raise ValueError(f"A slot {(i, j)} outside chi={self.chi}")
            if op.shape != (self.d, self.d):
                raise ValueError(f"A[{i},{j}] is not {self.d}x{self.d}")
        if self.D is not None and self.D.shape != (self.d, self.d):
            raise ValueError("D has wrong shape")

    def site_matrix(self):
        """Assembled (2 + chi) x (2 + chi) operator-valued site tensor."""
        n = 2 + self.chi
        m = np.zeros((n, n, self.d, self.d), dtype=complex)
        eye = np.eye(self.d, dtype=complex)
        m[0, 0] = eye
        m[n - 1, n - 1] = eye
        if self.D is not None:
            m[0, n - 1] = self.D
        for k, op in self.L.items():
            m[0, 1 + k] = op
        for (i, j), op in self.A.items():
            m[1 + i, 1 + j] = op
        for k, op in self.R.items():
            m[1 + k, n - 1] = op
        return m

    def to_dense(self, n_sites):
        """Dense matrix of the Hamiltonian on `n_sites` sites.

        Contracts the site tensors with the boundary vectors selecting
        level (1) on the left and level (3) on the right (`dense_chain`).
        """
        m = self.site_matrix()
        rows, cols = np.nonzero(m.any(axis=(2, 3)))
        return dense_chain(rows, cols, m[rows, cols], len(m),
                           one_hot(len(m), 0), one_hot(len(m), len(m) - 1),
                           n_sites)

    def __repr__(self):
        return (f"FirstDegreeMPO(d={self.d}, chi={self.chi}, "
                f"|L|={len(self.L)}, |A|={len(self.A)}, |R|={len(self.R)}, "
                f"D={'yes' if self.D is not None else 'no'})")


def from_terms(d, two_site=(), longer=None, on_site=None):
    """Build a first-degree MPO from explicit coupling operators.

    Parameters
    ----------
    d : int
        Physical dimension.
    two_site : sequence of (L_op, R_op)
        One middle slot per pair; encodes ``sum_n L_n R_{n+1}`` and, with
        `longer`, arbitrarily extended strings ``L A ... A R``.
    longer : dict (slot, slot) -> array, optional
        Middle-level couplings A.
    on_site : array, optional
        On-site term D.
    """
    L, R = {}, {}
    for k, (lop, rop) in enumerate(two_site):
        L[k] = as_complex(lop)
        R[k] = as_complex(rop)
    return FirstDegreeMPO(d, len(L), L=L, A=longer or {}, R=R, D=on_site)


def add(h1, h2):
    """Sum of two Hamiltonians; middle blocks are concatenated.

    The result has the block structure

        ( 1  L1  L2  D1+D2 )
        (    A1   0  R1    )
        (     0  A2  R2    )
        (             1    )

    so ``chi = chi1 + chi2``.
    """
    if h1.d != h2.d:
        raise ValueError("physical dimensions differ")
    off = h1.chi
    L = dict(h1.L)
    R = dict(h1.R)
    A = dict(h1.A)
    for k, op in h2.L.items():
        L[off + k] = op
    for k, op in h2.R.items():
        R[off + k] = op
    for (i, j), op in h2.A.items():
        A[(off + i, off + j)] = op
    if h1.D is None and h2.D is None:
        D = None
    else:
        D = (h1.D if h1.D is not None else 0) + (h2.D if h2.D is not None else 0)
    return FirstDegreeMPO(h1.d, h1.chi + h2.chi, L=L, A=A, R=R, D=D)


def scale(h, lam):
    """Multiply by a scalar, absorbing `lam` into the L row and D."""
    lam = complex(lam)
    L = {k: lam * op for k, op in h.L.items()}
    D = lam * h.D if h.D is not None else None
    if lam == 0:
        L = {}
        D = None
    return FirstDegreeMPO(h.d, h.chi, L=L, A=dict(h.A), R=dict(h.R), D=D)


def _mul(a, b):
    # physical product of two optional site operators
    if a is None or b is None:
        return None
    return a @ b


def _put(entries, key, op):
    if op is None or not op.any():
        return
    if key in entries:
        entries[key] = entries[key] + op
    else:
        entries[key] = op.copy()


def nondisjoint_product(h1, h2):
    """Non-disjoint part of the product ``H1 H2`` as a first-degree MPO.

    Keeps exactly the terms of the operator product whose supports overlap
    on at least one site.  The middle level consists of five blocks

        (2,1)  (1,2)  (2,2)  (2,3)  (3,2)

    of dimensions ``chi1, chi2, chi1*chi2, chi1, chi2``, giving
    ``chi = 2*chi1 + 2*chi2 + chi1*chi2``.
    """
    if h1.d != h2.d:
        raise ValueError("physical dimensions differ")
    c1, c2 = h1.chi, h2.chi
    # slot offsets of the five middle blocks
    o21 = 0
    o12 = c1
    o22 = c1 + c2
    o23 = c1 + c2 + c1 * c2
    o32 = o23 + c1
    chi = 2 * c1 + 2 * c2 + c1 * c2

    def s22(i, j):
        return o22 + i * c2 + j

    L, R, A = {}, {}, {}
    d1, d2 = h1.D, h2.D

    for i, l1 in h1.L.items():
        _put(L, o21 + i, l1)
        _put(L, o23 + i, _mul(l1, d2))
    for j, l2 in h2.L.items():
        _put(L, o12 + j, l2)
        _put(L, o32 + j, _mul(d1, l2))
    for i, l1 in h1.L.items():
        for j, l2 in h2.L.items():
            _put(L, s22(i, j), l1 @ l2)

    for i, r1 in h1.R.items():
        _put(R, o21 + i, _mul(r1, d2))
        _put(R, o23 + i, r1)
    for j, r2 in h2.R.items():
        _put(R, o12 + j, _mul(d1, r2))
        _put(R, o32 + j, r2)
    for i, r1 in h1.R.items():
        for j, r2 in h2.R.items():
            _put(R, s22(i, j), r1 @ r2)

    for (i, ip), a1 in h1.A.items():
        _put(A, (o21 + i, o21 + ip), a1)
        _put(A, (o23 + i, o23 + ip), a1)
        _put(A, (o21 + i, o23 + ip), _mul(a1, d2))
        for j, l2 in h2.L.items():
            _put(A, (o21 + i, s22(ip, j)), a1 @ l2)
        for j, r2 in h2.R.items():
            _put(A, (s22(i, j), o23 + ip), a1 @ r2)
    for (j, jp), a2 in h2.A.items():
        _put(A, (o12 + j, o12 + jp), a2)
        _put(A, (o32 + j, o32 + jp), a2)
        _put(A, (o12 + j, o32 + jp), _mul(d1, a2))
        for i, l1 in h1.L.items():
            _put(A, (o12 + j, s22(i, jp)), l1 @ a2)
        for i, r1 in h1.R.items():
            _put(A, (s22(i, j), o32 + jp), r1 @ a2)
    for (i, ip), a1 in h1.A.items():
        for (j, jp), a2 in h2.A.items():
            _put(A, (s22(i, j), s22(ip, jp)), a1 @ a2)
    for i, r1 in h1.R.items():
        for j, l2 in h2.L.items():
            _put(A, (o21 + i, o32 + j), r1 @ l2)
    for i, l1 in h1.L.items():
        for j, r2 in h2.R.items():
            _put(A, (o12 + j, o23 + i), l1 @ r2)

    D = _mul(d1, d2)
    return FirstDegreeMPO(h1.d, chi, L=L, A=A, R=R, D=D)


def nondisjoint_square(h):
    """Compressed non-disjoint square ``(H H)`` of a first-degree MPO.

    The duplicate L and R instances of the generic product are merged,
    which turns the mixed entries into anticommutators:

        L' = ( L   L L   {D, L} )
        R' = ( {D, R} ; R R ; R )
        A' = ( A  {A, L}  {L, R} + {A, D} )
             (       A A  {A, R}          )
             (              A             )

    with middle blocks of dimensions ``chi, chi**2, chi`` so that
    ``chi' = 2*chi + chi**2``.
    """
    c = h.chi
    o2 = 0
    o22 = c
    o23 = c + c * c
    chi = 2 * c + c * c

    def s22(i, j):
        return o22 + i * c + j

    L, R, A = {}, {}, {}
    d = h.D

    for i, l in h.L.items():
        _put(L, o2 + i, l)
        _put(L, o23 + i, _mul(l, d))
        _put(L, o23 + i, _mul(d, l))
        for j, l2 in h.L.items():
            _put(L, s22(i, j), l @ l2)

    for i, r in h.R.items():
        _put(R, o2 + i, _mul(r, d))
        _put(R, o2 + i, _mul(d, r))
        _put(R, o23 + i, r)
        for j, r2 in h.R.items():
            _put(R, s22(i, j), r @ r2)

    for (i, ip), a in h.A.items():
        _put(A, (o2 + i, o2 + ip), a)
        _put(A, (o23 + i, o23 + ip), a)
        # {A, D}
        _put(A, (o2 + i, o23 + ip), _mul(a, d))
        _put(A, (o2 + i, o23 + ip), _mul(d, a))
        # {A, L}: merged rows of A L and L A
        for q, l in h.L.items():
            _put(A, (o2 + i, s22(ip, q)), a @ l)
            _put(A, (o2 + i, s22(q, ip)), l @ a)
        # {A, R}: merged columns of A R and R A
        for q, r in h.R.items():
            _put(A, (s22(i, q), o23 + ip), a @ r)
            _put(A, (s22(q, i), o23 + ip), r @ a)
    # {L, R}
    for i, r in h.R.items():
        for p, l in h.L.items():
            _put(A, (o2 + i, o23 + p), r @ l)
            _put(A, (o2 + i, o23 + p), l @ r)
    for (i, ip), a1 in h.A.items():
        for (j, jp), a2 in h.A.items():
            _put(A, (s22(i, j), s22(ip, jp)), a1 @ a2)

    D = _mul(d, d)
    return FirstDegreeMPO(h.d, chi, L=L, A=A, R=R, D=D)


def commutator(h1, h2):
    """Commutator ``[H1, H2]`` of two Hamiltonians.

    The disjoint contributions of ``H1 H2`` and ``H2 H1`` cancel, so the
    commutator is the difference of the two non-disjoint products.
    """
    return add(nondisjoint_product(h1, h2), scale(nondisjoint_product(h2, h1), -1))
