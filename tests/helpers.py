"""Brute-force oracles and call counters shared by the test modules.

The oracles work with explicit operator strings (start site, dense
operator on a contiguous support) so the MPO code under test never enters
the expected-value computation.  The bracket oracle takes one
block-bidiagonal matrix exponential per channel sequence, independent of
the library's bracket evaluator.  The left-endpoint grid sum that the
exact brackets are the limit of comes two ways: a chain of quantics
trains, and explicit cumulative sums.  The Magnus oracles are the Taylor
power of ``Omega_1 + Omega_2`` assembled as one first-degree MPO, and
Omega's coefficient on every channel word, the logarithm of the bracket
table taken word by word.
"""

import hashlib
import math
from functools import reduce
from itertools import combinations, product

import numpy as np
import scipy.linalg
import scipy.sparse

from dysonmpo import brackets, fdmpo, mps
from dysonmpo.brackets import BracketTable
from dysonmpo.compression import (Block, CompressionBasisError,
                                  CompressionPlan, CompressionReport)
from dysonmpo.driving import (Channel, DrivingFunction, PolyDriving,
                              SampledDriving, TimeDependentHamiltonian)
from dysonmpo.evolve import sparse_operator
from dysonmpo.extensive import ExtensiveMPO, PowerPlan, _transitions
from dysonmpo.levels import IDENTITY_LEVEL, ONE, LevelLabel, is_one, three, two
from dysonmpo.linalg import _ZGEQP3, _geqp3_lwork, as_complex, truncation_rank
from dysonmpo.mps import SVD_TOL, FiniteMPS
from dysonmpo.taylor import taylor_mpo


def svd_truncate(m, max_rank=None, tol=0.0):
    """Truncated SVD of a matrix, the bitwise reference of
    `linalg.svd_truncate_v`.

    Singular values at or below ``tol * max(S)`` are dropped, and at most
    `max_rank` values are kept (`truncation_rank`).  Returns ``(U, S, V,
    discarded_weight)`` with ``U @ diag(S) @ V`` approximating `m` and
    `discarded_weight` the sum of squared discarded singular values.  A
    rank-0 input yields empty factors.
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


def numpy_factorisations(monkeypatch):
    """Make `mps` factorise through ``numpy.linalg.qr`` and `svd_truncate`.

    These are the bitwise references of `linalg.qr` and
    `linalg.svd_truncate_v`, so nothing `mps` returns may change.
    """
    monkeypatch.setattr(mps, "qr", lambda mat, mode="reduced":
                        np.linalg.qr(mat, mode=mode))
    monkeypatch.setattr(mps, "svd_truncate_v", lambda m, max_rank=None,
                        tol=0.0: svd_truncate(m, max_rank, tol)[1:])


def kron_chain(ops):
    """Kronecker product of a list of site operators, leftmost first."""
    out = np.array([[1.0 + 0.0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def embed(op, site, n_sites, d=2):
    """Embed a k-site operator acting on sites ``site..site+k-1`` of a chain."""
    k = round(np.log(op.shape[0]) / np.log(d))
    eye = np.eye(d, dtype=complex)
    parts = [eye] * site + [op] + [eye] * (n_sites - site - k)
    return kron_chain(parts)


def zero_hamiltonian(d):
    """The zero operator as an (empty) first-degree MPO."""
    return fdmpo.FirstDegreeMPO(d, 0)


def strings_of(h, n_sites):
    """All operator strings of a first-degree MPO on a finite chain.

    Returns a list of ``(start, length, dense_op)`` with `dense_op` acting
    on the contiguous support ``start .. start+length-1``.  Strings of the
    same start and length (different middle slots) are summed.
    """
    out = []
    for start in range(n_sites):
        if h.D is not None:
            out.append((start, 1, h.D.copy()))
        max_len = n_sites - start
        # vec[i] = accumulated operator ending in middle slot i
        vec = {i: op.copy() for i, op in h.L.items()}
        for length in range(2, max_len + 1):
            done = {}
            for i, acc in vec.items():
                for j, r in h.R.items():
                    if i == j:
                        key = length
                        term = np.kron(acc, r)
                        done[key] = done.get(key, 0) + term
            if done:
                out.append((start, length, done[length]))
            new_vec = {}
            for i, acc in vec.items():
                for (a, b), mid in h.A.items():
                    if a == i:
                        term = np.kron(acc, mid)
                        new_vec[b] = new_vec.get(b, 0) + term
            vec = new_vec
            if not vec:
                break
    return out


def embed_string(string, n_sites, d=2):
    start, length, op = string
    eye_l = np.eye(d ** start)
    eye_r = np.eye(d ** (n_sites - start - length))
    return np.kron(np.kron(eye_l, op), eye_r)


def dense_from_strings(strings, n_sites, d=2):
    dim = d ** n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for s in strings:
        out += embed_string(s, n_sites, d)
    return out


def _disjoint(s1, s2):
    a = set(range(s1[0], s1[0] + s1[1]))
    b = set(range(s2[0], s2[0] + s2[1]))
    return not (a & b)


def disjoint_product_dense(strings1, strings2, n_sites, d=2):
    """Sum of products over pairs of strings with non-overlapping supports."""
    dim = d ** n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for s1 in strings1:
        m1 = embed_string(s1, n_sites, d)
        for s2 in strings2:
            if _disjoint(s1, s2):
                out += m1 @ embed_string(s2, n_sites, d)
    return out


def disjoint_power_dense(strings, k, n_sites, d=2):
    """Sum over ordered k-tuples of pairwise disjoint strings."""
    dim = d ** n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for combo in product(range(len(strings)), repeat=k):
        chosen = [strings[i] for i in combo]
        ok = all(_disjoint(chosen[i], chosen[j])
                 for i in range(k) for j in range(i + 1, k))
        if not ok:
            continue
        m = np.eye(dim, dtype=complex)
        for s in chosen:
            m = m @ embed_string(s, n_sites, d)
        out += m
    return out


def random_fdmpo(rng, d=2, chi=1, with_d=True, with_a=False, hermitian=True):
    """Random first-degree MPO with the given block structure."""
    from dysonmpo.fdmpo import FirstDegreeMPO

    def rand_op():
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        if hermitian:
            m = m + m.conj().T
        return m / 2

    L = {i: rand_op() for i in range(chi)}
    R = {i: rand_op() for i in range(chi)}
    A = {}
    if with_a and chi:
        A[(0, 0)] = 0.5 * rand_op()
    D = rand_op() if with_d else None
    return FirstDegreeMPO(d, chi, L=L, A=A, R=R, D=D)


def _realization(f, t0):
    """``(A, b, c)`` with ``f(t0 + x) = c @ expm(A x) @ b``.

    Taken from the driving's own terms, not from its `Piece`: a sum of
    exponentials has ``A = diag(rates)``; a polynomial runs the monomials
    ``x**l / l!`` through the lower shift matrix, started at ``t0``.
    """
    terms = f.exponentials()
    if terms is not None:
        rates = np.array([rate for _, rate in terms], dtype=complex)
        coefs = np.array([c for c, _ in terms], dtype=complex)
        return np.diag(rates), np.exp(rates * t0), coefs
    if isinstance(f, PolyDriving):
        size = len(f.coeffs)
        shift = np.diag(np.ones(size - 1), -1).astype(complex)
        start = np.zeros(size, dtype=complex)
        start[0] = 1.0
        coefs = np.array([c * math.factorial(l)
                          for l, c in enumerate(f.coeffs)], dtype=complex)
        return shift, scipy.linalg.expm(shift * t0) @ start, coefs
    raise TypeError(f"no linear realization of {f.describe()}")


def van_loan_bracket(drivings, t0, t):
    """Bracket ``[f_1 ... f_k]`` from one block-bidiagonal exponential.

    Van Loan (IEEE TAC 23, 395 (1978)): with diagonal blocks
    ``D_i = A_1 (+) ... (+) A_i`` (Kronecker sums, ``D_0 = 0``) and
    superdiagonal blocks ``I (x) c_i``, block ``(0, k)`` of
    ``expm(M (t - t0))`` applied to ``b_1 (x) ... (x) b_k`` is the nested
    integral of ``f_1(s_1) ... f_k(s_k)`` over ``t0 < s_k < ... < s_1 < t``.
    Sums of exponentials and polynomials only.
    """
    parts = [_realization(f, t0) for f in drivings]
    dims = [1]
    for a, _, _ in parts:
        dims.append(dims[-1] * len(a))
    offsets = np.cumsum([0] + dims)
    m = np.zeros((offsets[-1], offsets[-1]), dtype=complex)
    for i, (_, _, c) in enumerate(parts, start=1):
        block = np.zeros((dims[i], dims[i]), dtype=complex)
        for j, (a, _, _) in enumerate(parts[:i]):
            block += np.kron(np.kron(np.eye(dims[j]), a),
                             np.eye(dims[i] // dims[j + 1]))
        m[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]] = block
        m[offsets[i - 1]:offsets[i], offsets[i]:offsets[i + 1]] = \
            np.kron(np.eye(dims[i - 1]), c[None, :])
    corner = scipy.linalg.expm(m * (t - t0))[0, offsets[-2]:]
    start = np.ones(1, dtype=complex)
    for _, b, _ in parts:
        start = np.kron(start, b)
    return complex((-1j) ** len(drivings) * (corner @ start))


def van_loan_table(channels, t0, t, max_order):
    """Every bracket up to `max_order`, each from its own exponential."""
    by_name = dict(channels)
    return {key: van_loan_bracket([by_name[name] for name in key], t0, t)
            for k in range(1, max_order + 1)
            for key in product(list(by_name), repeat=k)}


def piecewise_van_loan_table(channels, t0, t, max_order):
    """`van_loan_table` joined over the knots of the `channels`.

    Between neighbouring knots a `SampledDriving` is the line through its
    values at the two ends, which `van_loan_bracket` takes as a
    polynomial.  The pieces are joined by Chen's identity: the bracket of
    a word over ``[a, c]`` is the sum, over the ways to cut the word, of
    its latest letters' bracket over ``[b, c]`` times the earlier
    letters' bracket over ``[a, b]``.
    """
    cuts = sorted({t0, t} | {float(knot) for _, f in channels
                             for knot in f.knots() if t0 < knot < t})
    tables = []
    for a, b in zip(cuts, cuts[1:]):
        pieces = []
        for name, f in channels:
            if isinstance(f, SampledDriving):
                slope = (f(b) - f(a)) / (b - a)
                f = PolyDriving(coeffs=(f(a) - slope * a, slope))
            pieces.append((name, f))
        table = van_loan_table(pieces, a, b, max_order)
        table[()] = 1.0
        tables.append(table)
    total = tables[0]
    for later in tables[1:]:
        total = {key: sum(later[key[:j]] * total[key[j:]]
                          for j in range(len(key) + 1))
                 for key in total}
    del total[()]
    return total


class QuanticsTrain:
    """R-site tensor train with physical dimension 2 per binary digit.

    A scalar function on ``[t0, t1)`` is sampled on the dyadic grid
    ``x_n = n / 2**R`` (mapped affinely onto the interval), one binary
    digit per site, least-significant bit first.
    """

    def __init__(self, sites):
        self.sites = [np.asarray(s, dtype=complex) for s in sites]
        if self.sites[0].shape[0] != 1 or self.sites[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")

    @property
    def bits(self):
        return len(self.sites)

    @property
    def max_bond(self):
        return max((s.shape[2] for s in self.sites[:-1]), default=1)

    def evaluate(self, n):
        """Value at grid index `n` (bits read least-significant first)."""
        v = np.ones((1,), dtype=complex)
        for alpha, site in enumerate(self.sites):
            v = v @ site[:, (int(n) >> alpha) & 1, :]
        return complex(v[0])

    def evaluate_many(self, ns):
        return np.array([self.evaluate(n) for n in ns])

    def full_sum(self):
        """Sum of the train over all 2**R grid points."""
        v = np.ones((1,), dtype=complex)
        for site in self.sites:
            v = v @ (site[:, 0, :] + site[:, 1, :])
        return complex(v[0])

    def scaled(self, c):
        sites = [s.copy() for s in self.sites]
        sites[0] = sites[0] * c
        return QuanticsTrain(sites)

    def compress(self, tol=1e-13, max_bond=None):
        """Two-sided sweep: QR to the right, truncated SVD back.

        Singular values at or below ``tol`` times the largest one of each
        bond are dropped, and at most `max_bond` are kept; the squared
        dropped values are summed into ``discarded_weight``.
        """
        sites = list(self.sites)
        n = len(sites)
        for i in range(n - 1):
            dl, _, dr = sites[i].shape
            q, r = np.linalg.qr(sites[i].reshape(dl * 2, dr))
            sites[i] = q.reshape(dl, 2, q.shape[1])
            nxt = sites[i + 1]
            sites[i + 1] = (r @ nxt.reshape(dr, -1)).reshape(
                r.shape[0], 2, nxt.shape[2])
        discarded = 0.0
        for i in range(n - 1, 0, -1):
            dl, _, dr = sites[i].shape
            u, s, vh = scipy.linalg.svd(sites[i].reshape(dl, 2 * dr),
                                        full_matrices=False,
                                        lapack_driver="gesvd",
                                        check_finite=False)
            keep, disc = truncation_rank(s, tol, max_bond)
            discarded += disc
            sites[i] = vh[:keep].reshape(keep, 2, dr)
            prev = sites[i - 1]
            sites[i - 1] = (prev.reshape(-1, dl) @ (u[:, :keep] * s[:keep])
                            ).reshape(prev.shape[0], 2, keep)
        train = QuanticsTrain(sites)
        train.discarded_weight = discarded
        return train


def qtt_exp(a, bits):
    """Train of ``exp(a * x)`` on the unit grid; bond dimension 1.

    Site ``alpha`` holds the pair ``(1, exp(a * 2**(alpha - R)))``.
    """
    sites = []
    for alpha in range(bits):
        t = np.zeros((1, 2, 1), dtype=complex)
        t[0, 0, 0] = 1.0
        t[0, 1, 0] = np.exp(a * 2.0 ** (alpha - bits))
        sites.append(t)
    return QuanticsTrain(sites)


def qtt_add(f, g):
    """Direct sum of two trains; bond dimensions add."""
    if f.bits == 1:
        return QuanticsTrain([f.sites[0] + g.sites[0]])
    sites = []
    for i, (a, b) in enumerate(zip(f.sites, g.sites)):
        al, _, ar = a.shape
        bl, _, br = b.shape
        if i == 0:
            t = np.concatenate([a, b], axis=2)
        elif i == f.bits - 1:
            t = np.concatenate([a, b], axis=0)
        else:
            t = np.zeros((al + bl, 2, ar + br), dtype=complex)
            t[:al, :, :ar] = a
            t[al:, :, ar:] = b
        sites.append(t)
    return QuanticsTrain(sites)


def qtt_from_samples(values, max_bond=None, tol=1e-13):
    """Sequential-SVD train of an explicitly sampled function.

    `values` must have length ``2**R``, indexed by the grid position `n`.
    Raises when `max_bond` forces truncation above `tol`.
    """
    values = np.asarray(values, dtype=complex)
    bits = round(math.log2(len(values)))
    scale = np.max(np.abs(values))
    # reshape puts the most significant bit on the first axis; reverse so
    # the least significant bit sits on the first site
    tensor = values.reshape([2] * bits).transpose(tuple(reversed(range(bits))))
    sites = []
    rest = tensor.reshape(1, -1)
    for _ in range(bits - 1):
        dl = rest.shape[0]
        u, s, v, disc = svd_truncate(rest.reshape(dl * 2, -1),
                                     max_rank=max_bond, tol=tol)
        if max_bond is not None and disc > (tol * max(scale, 1e-300)) ** 2:
            raise ValueError("bond cap exceeded before tolerance was reached")
        sites.append(u.reshape(dl, 2, u.shape[1]))
        rest = s[:, None] * v
    sites.append(rest.reshape(rest.shape[0], 2, 1))
    return QuanticsTrain(sites)


def qtt_from_samples_of(f, t0, t1, bits, max_bond=None, tol=1e-13):
    """Sample a driving function on the interval grid and encode it."""
    n = np.arange(2 ** bits)
    ts = t0 + (t1 - t0) * n / 2.0 ** bits
    return qtt_from_samples(np.asarray(f(ts), dtype=complex),
                            max_bond=max_bond, tol=tol)


def build_qtt(f, t0, t1, bits):
    """Quantics train of the driving `f` on the dyadic grid of [t0, t1).

    A sum of exponentials takes one ``exp(rate * tau x)`` train per term,
    scaled by ``c * exp(rate * t0)``, on the unit grid x with
    ``tau = t1 - t0``; any other driving is sampled.
    """
    terms = f.exponentials()
    if terms is None:
        return qtt_from_samples_of(f, t0, t1, bits)
    train = None
    for c, rate in terms:
        term = qtt_exp(rate * (t1 - t0), bits).scaled(c * np.exp(rate * t0))
        train = term if train is None else qtt_add(train, term)
    return train


class CumulativeIntegralMPO:
    """Bond-dimension-2 MPO encoding ``F(y) = sum_{x < y} f(x) * delta_x``.

    The digit comparison runs from the most significant bit (last site)
    toward the least significant: virtual state 0 means all higher digits
    agree, state 1 means the strict inequality is already decided.  The
    deciding digit pair ``(y=1, x=0)`` carries the grid spacing.
    """

    def __init__(self, bits, delta_x):
        self.bits = bits
        w = np.zeros((2, 2, 2, 2), dtype=complex)  # (a, y, x, b)
        for x in (0, 1):
            for y in (0, 1):
                w[1, y, x, 1] = 1.0
                if x == y:
                    w[0, y, x, 0] = 1.0
        w[1, 1, 0, 0] = delta_x
        self.tensor = w

    def site(self, i):
        """Tensor ``(a, y, x, b)`` of site `i`, boundary bonds terminated."""
        w = self.tensor
        if i == 0:
            w = w[1:2]           # leftmost virtual index terminated at 1
        if i == self.bits - 1:
            w = w[..., 0:1]      # rightmost terminated at 0
        return w

    def apply(self, train):
        """Train of the running integral of `train`."""
        sites = []
        for i, site in enumerate(train.sites):
            # (a, y, x, b), (l, x, r) -> (a, l, y, b, r)
            t = np.einsum("ayxb,lxr->alybr", self.site(i), site)
            al, fl, _, bl, fr = t.shape
            sites.append(t.reshape(al * fl, 2, bl * fr))
        return QuanticsTrain(sites)


def pointwise_product(f, g, compress_tol=None):
    """Train of the pointwise product ``f(x) * g(x)``; bonds multiply."""
    if f.bits != g.bits:
        raise ValueError("bit counts differ")
    sites = []
    for a, b in zip(f.sites, g.sites):
        t = np.einsum("lxr,mxs->lmxrs", a, b)
        ll, ml, _, rl, sl = t.shape
        sites.append(t.reshape(ll * ml, 2, rl * sl))
    out = QuanticsTrain(sites)
    if compress_tol is not None:
        out = out.compress(tol=compress_tol)
    return out


def time_ordered_integral(drivings, t0, t):
    """Bracket ``[f_1 ... f_k]`` over ``[t0, t]``; first entry = latest time.

    The entry ``(0, ..., k - 1)`` of the order-k `BracketTable.compute` of
    the drivings, each its own channel, named by its position.
    """
    channels = list(enumerate(drivings))
    if not channels:
        raise ValueError("empty channel sequence")
    word = tuple(range(len(channels)))
    return BracketTable.compute(channels, [t0], [t], len(word))[0].values[word]


def _one_shift(piece, x):
    """``Piece.shift`` of one piece at one time x, as a table's single
    interval reads it."""
    size = len(piece.state)
    rows = np.arange(size)[:, None]
    if piece.rates is not None:
        return rows, np.exp(piece.rates * x)[:, None]
    cols = rows + np.arange(size)
    coefs = np.zeros((size, size), dtype=complex)
    for m in range(size):
        for l in range(m, size):
            coefs[m, l - m] = math.comb(l, m) * x ** (l - m)
    return np.where(cols < size, cols, rows), coefs


def _one_series(piece, h, terms):
    """``Piece.series`` of one piece at one block length h."""
    out = np.zeros((terms, len(piece.state)), dtype=complex)
    out[0] = piece.state
    if piece.rates is not None:
        step = piece.rates * h
        for j in range(1, terms):
            out[j] = out[j - 1] * step / j
    else:
        step = np.arange(1, len(piece.state)) * h
        for j in range(1, terms):
            out[j, :-1] = out[j - 1, 1:] * step / j
    return out


def _one_chen(a, b):
    out = []
    for k in range(len(a)):
        total = a[k] + b[k]
        for i in range(k):
            total = total + np.multiply.outer(a[i], b[k - 1 - i])
        out.append(total)
    return out


def _one_shifted(levels, cols, coefs):
    out = []
    for level in levels:
        for axis in range(level.ndim):
            shape = [1] * level.ndim
            shape[axis] = -1
            moved = coefs[:, 0].reshape(shape) * level
            for w in range(1, cols.shape[1]):
                moved = moved + coefs[:, w].reshape(shape) * \
                    level.take(cols[:, w], axis=axis)
            level = moved
        out.append(level)
    return out


def _one_stretch(pieces, span, order):
    """Channel levels of one stretch, one operation per interval."""
    h = span / 2 ** brackets._DOUBLINGS
    terms = max([brackets._TERMS] + [len(p.state) for p in pieces
                                     if p.rates is None])
    series = np.zeros((terms, sum(len(p.state) for p in pieces)),
                      dtype=complex)
    start = 0
    for p in pieces:
        part = _one_series(p, h, terms if p.rates is None
                           else brackets._TERMS)
        series[:len(part), start:start + part.shape[1]] = part
        start += part.shape[1]
    size = series.shape[1]
    block, running = [], np.ones(1, dtype=complex)
    for k in range(1, order + 1):
        coefs = np.zeros((len(running) + terms - 1,) + running.shape[1:]
                         + (size,), dtype=complex)
        for j in range(terms):
            coefs[j:j + len(running)] += np.multiply.outer(running, series[j])
        exponents = np.arange(k, k + len(coefs)).reshape((-1,) + (1,) * k)
        running = h * coefs / exponents
        level = running[-1]
        for e in range(len(running) - 2, -1, -1):
            level = level + running[e]
        block.append(level)
    xs = [2 ** j * h for j in range(brackets._DOUBLINGS)]
    parts = [[_one_shift(p, x) for x in xs] for p in pieces]
    width = max(rows[0][0].shape[1] for rows in parts)
    cols = np.repeat(np.arange(size)[:, None], width, axis=1)
    shifts = np.zeros((len(xs), size, width), dtype=complex)
    start = 0
    for rows in parts:
        stop = start + len(rows[0][0])
        cols[start:stop, :rows[0][0].shape[1]] = rows[0][0] + start
        for i, (_, c) in enumerate(rows):
            shifts[i, start:stop, :c.shape[1]] = c
        start = stop
    for j in range(brackets._DOUBLINGS):
        block = _one_chen(block, _one_shifted(block, cols, shifts[j]))
    reads, start = [], 0
    for p in pieces:
        reads.append([start + letter for letter in p.read])
        start += len(p.state)
    out = []
    for level in block:
        for axis in range(level.ndim):
            sums = []
            for read in reads:
                summed = level.take(read[0], axis=axis)
                for letter in read[1:]:
                    summed = summed + level.take(letter, axis=axis)
                sums.append(summed)
            level = np.stack(sums, axis=axis)
        out.append(level)
    return out


def per_interval_table(channels, t0, t, max_order):
    """`BracketTable.compute` of one interval, one operation at a time.

    The bitwise reference of the stacked pass: the same series block,
    doublings, channel sums and knot joins, each on this interval's
    arrays alone, and the same word order.
    """
    channels = list(channels)
    index = {name: i for i, (name, _) in enumerate(channels)}
    keys = [key for k in range(1, max_order + 1)
            for key in product(index, repeat=k)]
    if t == t0:
        return BracketTable(dict.fromkeys(keys, 0.0 + 0.0j), max_order)
    total = None
    for pieces, span in brackets._stretches(channels, t0, t):
        levels = _one_stretch(pieces, span, max_order)
        total = levels if total is None else _one_chen(total, levels)
    values = {key: complex((-1j) ** len(key) * total[len(key) - 1][
                  tuple(index[name] for name in reversed(key))])
              for key in keys}
    return BracketTable(values, max_order)


def table_bits(table):
    """The keys and the bytes of every value of a table, in key order."""
    return list(table.values), np.array(list(table.values.values()),
                                        dtype=complex).tobytes()


def literal_time_ordered_integral(drivings, t0, t, bits):
    """Left-endpoint grid sum of ``[f_1 ... f_k]`` by a chain of trains.

    Alternates the running-integral MPO (compressed) with the pointwise
    product (compressed) from the earliest time outward, then sums the
    grid.  The same grid sum as `dense_discrete_bracket`, reached
    independently.
    """
    drivings = list(drivings)
    if t == t0:
        return 0.0 + 0.0j
    delta_x = (t - t0) / 2.0 ** bits
    heaviside = CumulativeIntegralMPO(bits, delta_x)
    w = build_qtt(drivings[-1], t0, t, bits)
    for f in reversed(drivings[:-1]):
        w = heaviside.apply(w).compress(tol=1e-13)
        w = pointwise_product(build_qtt(f, t0, t, bits), w, compress_tol=1e-13)
    return complex((-1j) ** len(drivings) * w.full_sum() * delta_x)


def literal_bracket_table(channels, t0, t, max_order, bits):
    """Every grid-sum bracket up to `max_order`, each from its own chain."""
    by_name = dict(channels)
    return {key: literal_time_ordered_integral(
                [by_name[name] for name in key], t0, t, bits=bits)
            for k in range(1, max_order + 1)
            for key in product(list(by_name), repeat=k)}


def dense_discrete_bracket(drivings, t0, t, bits):
    """Left-endpoint grid sum of ``[f_1 ... f_k]`` on an explicit grid.

    Samples every driving on the ``2**bits`` points ``t0 + n delta`` and
    nests exclusive cumulative sums ``sum_{x < y}`` from the earliest time
    outward, in extended precision (``np.longdouble``), so that the
    oracle's own rounding sits far below double precision where the
    platform has an extended type.
    """
    n = np.arange(2 ** bits, dtype=np.longdouble)
    tau = np.longdouble(t) - np.longdouble(t0)
    ts = np.longdouble(t0) + tau * n / 2 ** bits
    delta = tau / 2 ** bits
    w = np.asarray(drivings[-1](ts), dtype=np.clongdouble)
    for f in reversed(drivings[:-1]):
        below = np.concatenate([[0], np.cumsum(w)[:-1]])
        w = np.asarray(f(ts), dtype=np.clongdouble) * below * delta
    return complex((-1j) ** len(drivings) * np.sum(w) * delta)


class OpaqueDriving(DrivingFunction):
    """`inner` without its exponentials or any other piece form."""

    def __init__(self, inner):
        self.inner = inner
        self.period = inner.period

    def __call__(self, t):
        return self.inner(t)


def level_symbols(ham):
    """The 2 and 3 symbols of a Hamiltonian's powers, channel by channel."""
    syms = []
    for c in ham.channels:
        syms.extend(two(c.name, k) for k in range(c.operator.chi))
    syms.extend(three(c.name) for c in ham.channels)
    return syms


def driving_value(ham, name, t):
    """Weight of channel `name` at time `t`."""
    for c in ham.channels:
        if c.name == name:
            return c.driving(t)
    raise KeyError(name)


def all_transitions(ham):
    """Every transition of the rewired site tensor: the ``1 -> 1``
    identity, then `extensive._transitions`."""
    return [(ONE, ONE, np.eye(ham.d, dtype=complex))] + _transitions(ham)


def build_power_flat(ham, n):
    """Literal `n`-th power over full symbol tuples (small n only)."""
    trans = all_transitions(ham)
    entries = {}
    for x, y, op in trans:
        key = (LevelLabel((x,)), LevelLabel((y,)))
        entries[key] = entries.get(key, 0) + op
    for _ in range(n - 1):
        new = {}
        for (a, b), op in entries.items():
            for x, y, t_op in trans:
                key = (a.append(x), b.append(y))
                prod = op @ t_op
                if key in new:
                    new[key] = new[key] + prod
                else:
                    new[key] = prod
        entries = new
    levels = sorted({lvl for pair in entries for lvl in pair})
    return levels, entries


def build_power_stripped(ham, n):
    """Column-merged `n`-th power of a Hamiltonian, one dictionary
    update per (entry, transition) pair; an oracle for `PowerPlan`.

    Levels are stripped labels (no 1 symbols); each product step appends one
    factor and folds the new strip-ones classes into their representative.
    Returns ``(levels, entries)``.
    """
    eye = np.eye(ham.d, dtype=complex)
    append_trans = _transitions(ham)
    empty = IDENTITY_LEVEL
    entries = {(empty, empty): eye}
    for x, y, op in append_trans:
        src = empty if is_one(x) else LevelLabel((x,))
        dst = LevelLabel((y,))
        key = (src, dst)
        entries[key] = entries.get(key, 0) + op
    for k in range(1, n):
        new = dict(entries)
        for (a, b), op in entries.items():
            if len(b) != k:
                continue
            for x, y, t_op in append_trans:
                src = a if is_one(x) else a.append(x)
                key = (src, b.append(y))
                prod = op @ t_op
                if key in new:
                    new[key] = new[key] + prod
                else:
                    new[key] = prod
        entries = new
    levels = sorted({lvl for pair in entries for lvl in pair})
    return levels, entries


def literal_power_plan(ham, n):
    """A `PowerPlan` built from `build_power_stripped`, entry by entry."""
    levels, entries = build_power_stripped(ham, n)
    plan = PowerPlan(ham, n)
    finished = {lvl for lvl in levels if lvl.n2 == 0 and lvl.n3 >= 1}
    plan.levels = sorted((l for l in levels if l not in finished),
                         key=lambda l: (len(l), l))
    index = {lvl: i for i, lvl in enumerate(plan.levels)}
    sigmas = {}
    fixed, rerouted = [], []
    for (a, b), op in entries.items():
        if a in finished:
            continue
        if b in finished:
            slot = sigmas.setdefault(b.sigma(), len(sigmas))
            rerouted.append((index[a], slot, op))
        elif b == IDENTITY_LEVEL:
            rerouted.append((index[a], -1, op))  # weight 1
        else:
            fixed.append((index[a], index[b], op))
    plan.sigmas = list(sigmas)

    def columns(triples):
        first = np.array([t[0] for t in triples], dtype=np.intp)
        second = np.array([t[1] for t in triples], dtype=np.intp)
        blocks = np.array([t[2] for t in triples], dtype=complex)
        return first, second, blocks.reshape(-1, ham.d, ham.d)

    plan._fixed, plan._rerouted = columns(fixed), columns(rerouted)
    return plan


def interleavings(fixed, inserted):
    """All weaves of the tuple `inserted` into the tuple `fixed` keeping
    both sequence orders, by the places of the inserted items in
    `itertools.combinations` order."""
    n, m = len(fixed), len(inserted)
    out = []
    for pos in combinations(range(n + m), m):
        seq = []
        fi = ii = 0
        pos = set(pos)
        for p in range(n + m):
            if p in pos:
                seq.append(inserted[ii])
                ii += 1
            else:
                seq.append(fixed[fi])
                fi += 1
        out.append(tuple(seq))
    return tuple(out)


def completion_rows(two_seq, channels, max_insertions):
    """Row keys of the right-operator basis reachable from a 2 sequence.

    A row is a tuple mixing ``("C", channel, slot)`` items (the in-progress
    terms completing, in their fixed factor order) with ``("I", channel)``
    items (terms started and finished within the right half).  The factor
    positions of the insertions relative to the completions are part of the
    key; their positions relative to any finished symbols of a level are
    not, and are summed over when evaluating coefficients.
    """
    cs = tuple(("C", ch, slot) for ch, slot in two_seq)
    rows = []
    for j in range(max_insertions + 1):
        for chans in product(channels, repeat=j):
            ins = tuple(("I", ch) for ch in chans)
            rows.extend(interleavings(cs, ins))
    return rows


def _segments(items, marker):
    """Channels of `items` in runs split at the items tagged `marker`.

    A stripped label splits at its 2 symbols into runs of 3-channels, and
    a row key at its completions ``"C"`` into runs of insertions.
    """
    segs = [[]]
    for item in items:
        if item[0] == marker:
            segs.append([])
        else:
            segs[-1].append(item[1])
    return segs


def gamma_keys(level, row, order):
    """Bracket keys whose sum is the coefficient of `level` along `row`.

    One key per weave of the row's inserted terms through the level's
    finished symbols, holding the factor order of completions and
    insertions fixed as given by the row, in summation order.  Empty when
    the level cannot reach the row.
    """
    two_seq = list(level.two_sequence())
    row_cs = [(item[1], item[2]) for item in row if item[0] == "C"]
    if row_cs != two_seq:
        return []
    n_ins = sum(1 for item in row if item[0] == "I")
    if level.n2 + level.n3 + n_ins > order:
        return []
    chan_of_two = [ch for ch, _ in two_seq]
    per_segment = [interleavings(tuple(ls), tuple(rs)) for ls, rs in
                   zip(_segments(level, "2"), _segments(row, "C"))]
    keys = []
    for weave in product(*per_segment):
        sigma = []
        for i, seg in enumerate(weave):
            if i > 0:
                sigma.append(chan_of_two[i - 1])
            sigma.extend(seg)
        keys.append(tuple(sigma))
    return keys


def literal_compression_plan(levels, order):
    """A `CompressionPlan` whose blocks and keys come from `gamma_keys`,
    called per (level, row) pair; an oracle for the plan's enumeration."""
    plan = CompressionPlan.__new__(CompressionPlan)
    others = sorted((l for l in levels if l != IDENTITY_LEVEL),
                    key=lambda l: (len(l), l))
    plan.levels = [IDENTITY_LEVEL] + others
    index = {lvl: i for i, lvl in enumerate(plan.levels)}
    plan.positions = np.array([index[l] for l in levels], dtype=np.intp)
    channels = sorted({sym[1] for lvl in levels for sym in lvl})
    groups = {}
    for lvl in others:
        groups.setdefault((lvl.n2, lvl.n3), {}).setdefault(
            lvl.two_sequence(), []).append(lvl)
    slots = {}   # bracket key -> position in the bracket vector
    earlier = {}  # 2-sequence -> levels of the blocks before
    plan.blocks = []
    for n2 in range(1, order + 1):
        for n3 in range(order - n2 + 1):
            blocks = groups.get((n2, n3), {})
            for cseq in sorted(blocks):
                prior = earlier.setdefault(cseq, [])
                cols = prior + blocks[cseq]
                rows = completion_rows(cseq, channels, order - n2 - n3)
                sums = [[slots.setdefault(k, len(slots))
                         for k in gamma_keys(lvl, row, order)]
                        for row in rows for lvl in cols]
                depth = max(1, max(map(len, sums)))
                idx = np.full((len(sums), depth), -1, dtype=np.intp)
                for i, s in enumerate(sums):
                    idx[i, :len(s)] = s
                plan.blocks.append(Block(
                    n2, n3, cseq,
                    np.array([index[l] for l in cols], dtype=np.intp),
                    len(prior), idx.T.reshape(depth, len(rows), len(cols))))
                prior.extend(blocks[cseq])
    plan.keys = list(slots)
    plan._batch()
    return plan


def mpo_from_entries(d, levels, entries, order=0, params=None):
    """The `ExtensiveMPO` with ``W[a, b] = entries[(a, b)]``, keyed by level
    labels; its coordinate blocks come in the dictionary's order."""
    levels = list(levels)
    index = {lvl: i for i, lvl in enumerate(levels)}
    rows = np.array([index[a] for a, _ in entries], dtype=np.intp)
    cols = np.array([index[b] for _, b in entries], dtype=np.intp)
    blocks = np.array(list(entries.values()), dtype=complex)
    return ExtensiveMPO(d, levels, rows, cols,
                        blocks.reshape(-1, int(d), int(d)), order=order,
                        params=params)


def entries(mpo):
    """``{(a, b): W[a, b]}`` over the nonzero blocks of `mpo`, in
    coordinate order, keyed by level labels (by level index for an MPO
    without labels)."""
    rows, cols, blocks = mpo.coo()
    lv = mpo.levels or range(mpo.bond_dimension)
    return {(lv[a], lv[b]): op
            for a, b, op in zip(rows.tolist(), cols.tolist(), blocks)}


def literal_to_dense(mpo, n_sites):
    """``mpo.to_dense(n_sites)`` with one `np.kron` per (level, entry),
    between the MPO's boundary vectors."""
    left, right = mpo.boundary
    env = {a: np.array([[v]]) for a, v in enumerate(left) if v != 0}
    by_source = {}
    for a, b, op in zip(*mpo.coo()):
        by_source.setdefault(int(a), []).append((int(b), op))
    for _ in range(n_sites):
        new = {}
        for a, acc in env.items():
            for b, op in by_source.get(a, ()):
                term = np.kron(acc, op)
                if b in new:
                    new[b] += term
                else:
                    new[b] = term
        env = new
    dim = mpo.d ** n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for b, acc in env.items():
        out += right[b] * acc
    return out


def reroute_finished_levels(levels, entries, weight_of):
    """Fold every level without 2 symbols into the identity level.

    The per-entry reroute: `weight_of` maps the channel subscripts of a
    finished level's 3 symbols (in factor order) to the scalar it
    contributes.  Returns ``(levels, entries)`` of the rerouted MPO.
    """
    doomed = {lvl for lvl in levels if lvl.n2 == 0 and lvl.n3 >= 1}
    out = {}
    for (a, b), op in entries.items():
        if a in doomed:
            continue
        if b in doomed:
            w = weight_of(b.sigma())
            if w == 0:
                continue
            key = (a, IDENTITY_LEVEL)
            out[key] = out.get(key, 0) + w * op
        else:
            out[(a, b)] = out.get((a, b), 0) + op
    kept = [lvl for lvl in levels if lvl not in doomed]
    return kept, out


def flat_evolution_mpo(ham, n, weight_of):
    """Literal counterpart of ``build_evolution_mpo``.

    Every member of a strip-ones class of finished levels is folded on its
    own, so each carries the factor ``n3! (N - n3)! / N!`` of the literal
    algorithm; a finished level has ``n3 == len(sigma)``.  The all-ones
    level is renamed to the canonical empty label before folding.
    """
    def weight(sigma):
        k = len(sigma)
        return weight_of(sigma) * (math.factorial(k) * math.factorial(n - k)
                                   / math.factorial(n))

    levels, entries = build_power_flat(ham, n)
    rename = {lvl: IDENTITY_LEVEL for lvl in levels
              if lvl.n2 == 0 and lvl.n3 == 0}
    levels = [rename.get(l, l) for l in levels]
    entries = {(rename.get(a, a), rename.get(b, b)): op
               for (a, b), op in entries.items()}
    levels, entries = reroute_finished_levels(levels, entries, weight)
    levels = sorted(levels, key=lambda l: (len(l), l))
    return mpo_from_entries(ham.d, levels, entries, order=n)


def static_hamiltonian(h):
    """The static Hamiltonian `h` as one constant channel "h"."""
    return TimeDependentHamiltonian([Channel("h", h)])


def taylor_weight(tau, sigma):
    """``tau**k / k!`` for a word of k letters, as a complex number."""
    k = len(tuple(sigma))
    return complex(tau) ** k / math.factorial(k)


def reference_taylor_mpo(h, tau, order):
    """The static Taylor plan weighted by `taylor_weight` directly."""
    return PowerPlan(static_hamiltonian(h), order).mpo(
        lambda sigma: taylor_weight(tau, sigma))


def flat_taylor_mpo(h, tau, order):
    """``taylor_mpo`` built over full symbol tuples."""
    brackets = BracketTable.frozen({"h": 1.0}, tau, order)
    return flat_dyson_mpo(static_hamiltonian(h), brackets, order)


def flat_dyson_mpo(hamiltonian, integrals, order):
    """``dyson_mpo`` built over full symbol tuples (a nonzero table)."""
    mpo = flat_evolution_mpo(hamiltonian, order, integrals.value)
    mpo.params["brackets"] = integrals
    return mpo


def weighted_hamiltonian(hamiltonian, weight_of):
    """``sum_a weight_of(channel_a) * H_a`` as one first-degree MPO."""
    return reduce(fdmpo.add, [fdmpo.scale(c.operator, weight_of(c))
                              for c in hamiltonian.channels])


def magnus_omega1(hamiltonian, integrals):
    """First Magnus operator ``sum_a [f_a] H_a`` as a first-degree MPO."""
    return weighted_hamiltonian(hamiltonian,
                                lambda c: integrals.value((c.name,)))


def magnus_omega2(hamiltonian, integrals):
    """Second Magnus operator ``sum_{a<b} alpha_ab [H_a, H_b]``.

    ``alpha_ab = ([f_a f_b] - [f_b f_a]) / 2``; each term is one
    `fdmpo.commutator`, so the sum stays a first-degree MPO.
    """
    total = zero_hamiltonian(hamiltonian.d)
    for a, b in combinations(hamiltonian.channels, 2):
        alpha = 0.5 * (integrals.value((a.name, b.name))
                       - integrals.value((b.name, a.name)))
        if alpha != 0:
            total = fdmpo.add(total, fdmpo.scale(
                fdmpo.commutator(a.operator, b.operator), alpha))
    return total


def magnus_taylor_mpo(hamiltonian, order, integrals):
    """Order-`order` Taylor MPO of ``Omega_1 + Omega_2`` at unit step.

    Omega is assembled as one first-degree MPO, so the power keeps words
    such as ``Omega_2**order`` that `magnus_evolution` drops.
    """
    omega = fdmpo.add(magnus_omega1(hamiltonian, integrals),
                      magnus_omega2(hamiltonian, integrals))
    return taylor_mpo(omega, 1.0, order)


def compositions(word):
    """Every split of `word` into consecutive nonempty parts, in order."""
    if not word:
        yield ()
        return
    for i in range(1, len(word) + 1):
        for rest in compositions(word[i:]):
            yield (word[:i],) + rest


def composition_sum(word, value, weight):
    """``sum_k weight(k) sum_{k-part compositions} prod value(part)``.

    With `value` a word function ``S`` that has ``S(()) = 1``, this is
    the coefficient of `word` in ``sum_k weight(k) (S - 1)^k`` in the
    tensor algebra of words under concatenation.
    """
    return sum(weight(len(parts)) * math.prod(value(p) for p in parts)
               for parts in compositions(tuple(word)))


def log_weight(k):
    """``(-1)^(k+1) / k``, the k-th coefficient of ``log(1 + x)``."""
    return (-1) ** (k + 1) / k


def exp_weight(k):
    """``1 / k!``, the k-th coefficient of ``exp(x) - 1``."""
    return 1.0 / math.factorial(k)


def magnus_word(value, word):
    """Omega's coefficient on `word`: the log series of the table `value`.

    The bracket table is the signature of the drivings, and Omega is its
    logarithm (Chen 1957), so no Omega_k formula enters.
    """
    return composition_sum(word, value, log_weight)


def strip_ones(label):
    """`label` with all 1 symbols removed; the column-merge key."""
    return LevelLabel(s for s in label if not is_one(s))


def pad_with_ones(label, length):
    """Canonical member of a strip-ones class: 1 symbols in front."""
    return LevelLabel((ONE,) * (length - len(label)) + tuple(label))


def merge_equivalent_columns(levels, entries):
    """Exact strip-ones column merge for label-carrying MPOs.

    Levels whose labels coincide after deleting 1 symbols share their
    operator history; their rows are summed into one representative and the
    duplicate columns are dropped.  The dense expansion is unchanged.
    """
    classes = {}
    for lvl in levels:
        classes.setdefault(strip_ones(lvl), []).append(lvl)
    # representative: 1 symbols in front (always reachable)
    length = max((len(l) for l in levels), default=0)
    rep = {}
    for key, members in classes.items():
        cand = pad_with_ones(key, length)
        rep[key] = cand if cand in members else members[0]
    strip = {lvl: strip_ones(lvl) for lvl in levels}
    rep_set = set(rep.values())
    out = {}
    for (a, b), op in entries.items():
        if b not in rep_set:
            continue
        key = (strip[a], strip[b])
        out[key] = out.get(key, 0) + op
    return sorted(classes), out


def column_compress(mpo):
    """Merge strip-ones-equivalent levels of a flat MPO; exact.

    Returns the merged MPO and a report listing each removed level with
    its representative.
    """
    before = mpo.bond_dimension
    classes = {}
    for lvl in mpo.levels:
        classes.setdefault(strip_ones(lvl), []).append(lvl)
    levels, merged = merge_equivalent_columns(mpo.levels, entries(mpo))
    levels = sorted(levels, key=lambda l: (len(l), l))
    out = mpo_from_entries(mpo.d, levels, merged, order=mpo.order,
                           params=dict(mpo.params))
    removed = []
    for key, members in sorted(classes.items()):
        for m in members:
            if strip_ones(m) != m or m != key:
                removed.append((m, {key: 1.0}))
    removed = [(m, x) for m, x in removed if m not in out.levels]
    report = CompressionReport(kept_levels=list(out.levels),
                               removed_levels=removed,
                               bond_dimension_before=before,
                               bond_dimension_after=out.bond_dimension,
                               qr_tolerance=0.0)
    return out, report


def _literal_gamma(rows, levels, brackets, order, memo):
    """Gamma entries of `levels` (columns) over `rows`, each summed once."""
    g = np.zeros((len(rows), len(levels)), dtype=complex)
    for j, lvl in enumerate(levels):
        for i, row in enumerate(rows):
            key = (lvl, row)
            if key not in memo:
                total = 0.0j
                for sigma in gamma_keys(lvl, row, order):
                    total += brackets.value(sigma)
                memo[key] = total
            g[i, j] = memo[key]
    return g


def qr_column_pivoted(m, tol=1e-12):
    """Rank-revealing QR with column pivoting, without forming Q.

    The numerical rank counts diagonal entries of R exceeding
    ``tol * |R[0, 0]|``.  Returns ``(rank, pivot_columns, R)`` where
    `pivot_columns` lists, in pivot order, the input columns that form a
    spanning set, and `R` is the economic upper-triangular factor of
    ``scipy.linalg.qr(m, mode="economic", pivoting=True)``.  Entries are
    not checked for finiteness.
    """
    m = np.array(m, dtype=np.complex128, order="F")
    if m.ndim != 2:
        raise ValueError("qr_column_pivoted expects a matrix")
    if m.size == 0 or not np.any(m):
        return 0, [], np.zeros((0, m.shape[1]), dtype=complex)
    rows, cols = m.shape
    qr, piv, _, _, info = _ZGEQP3(m, lwork=_geqp3_lwork(rows, cols),
                                  overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgeqp3")
    r = np.triu(qr[:cols] if rows >= cols else qr)
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0:
        return 0, [], r[:0, :]
    rank = int(np.count_nonzero(diag > tol * diag[0]))
    return rank, [int(p) - 1 for p in piv[:rank]], r


def select_new_levels(residual, tol, ref):
    """Greedy spanning subset of the columns of one residual, in column
    order: the oracle of `compression._greedy`, one matrix at a time.

    The rank criterion matches the rank-revealing QR (columns whose
    residual norm exceeds ``tol * ref``); walking the columns in canonical
    label order keeps the selection deterministic.  The norm is
    ``np.linalg.norm``'s sum of two real dot products, spelled out.
    """
    basis = []  # (vector, its conjugate)
    selected = []
    for j in range(residual.shape[1]):
        v = residual[:, j].copy()
        # the second orthogonalization pass is for numerical safety
        for _ in range(2):
            for b, b_conj in basis:
                v -= b_conj.dot(v) * b
        nrm = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
        if nrm > tol * ref:
            b = v / nrm
            basis.append((b, b.conj()))
            selected.append(j)
    return selected


def literal_row_compress(mpo, *, tol=1e-12):
    """`row_compress` with per-entry gammas and a column-by-column fold.

    Every removed level is merged into each kept level of its expansion
    with one dictionary update per operator entry (`merge_column`), in
    the order the levels are removed.  Returns ``(mpo, report)``.
    """
    order = mpo.order
    brackets = mpo.params["brackets"]
    if any(is_one(sym) for lvl in mpo.levels for sym in lvl):
        raise ValueError("row compression needs column-merged levels")
    channels = sorted({sym[1] for lvl in mpo.levels for sym in lvl})
    cols = {}
    for (a, b), op in entries(mpo).items():
        cols.setdefault(b, {})[a] = op
    dropped = set()
    kept_by_cseq = {}
    memo = {}
    removed = []
    fold_residual = 0.0
    present_set = {l for l in mpo.levels if l != IDENTITY_LEVEL}

    def merge_column(target, source, coeff):
        dst = cols.setdefault(target, {})
        for a, op in cols.get(source, {}).items():
            if a in dropped:
                continue
            if a in dst:
                dst[a] = dst[a] + coeff * op
            else:
                dst[a] = coeff * op

    for n2 in range(1, order + 1):
        for n3 in range(0, order - n2 + 1):
            group = sorted((l for l in present_set
                            if l.n2 == n2 and l.n3 == n3),
                           key=lambda l: (len(l), l))
            blocks = {}
            for lvl in group:
                blocks.setdefault(lvl.two_sequence(), []).append(lvl)
            for cseq in sorted(blocks):
                compatible = blocks[cseq]
                rows = completion_rows(cseq, channels, order - n2 - n3)
                g_comp = _literal_gamma(rows, compatible, brackets, order,
                                        memo)
                ref = max(np.linalg.norm(g_comp[:, j])
                          for j in range(len(compatible)))
                kept_here = kept_by_cseq.get(cseq, [])
                if ref == 0.0:
                    for lvl in compatible:
                        removed.append((lvl, {}))
                        present_set.discard(lvl)
                        dropped.add(lvl)
                        cols.pop(lvl, None)
                    continue
                residual = g_comp
                g_kept = None
                if kept_here:
                    g_kept = _literal_gamma(rows, kept_here, brackets, order,
                                            memo)
                    if np.any(g_kept):
                        proj = g_kept @ np.linalg.lstsq(g_kept, g_comp,
                                                        rcond=None)[0]
                        residual = g_comp - proj
                _, pivots, r_fac = qr_column_pivoted(residual, tol=0.0)
                diag = np.abs(np.diag(r_fac))
                rank = int(np.count_nonzero(diag > tol * ref))
                selected = select_new_levels(residual, tol, ref)
                if len(selected) != rank:
                    selected = sorted(pivots[:rank])
                kept_by_cseq.setdefault(cseq, []).extend(
                    compatible[j] for j in selected)
                rest_idx = [j for j in range(len(compatible))
                            if j not in selected]
                if not rest_idx:
                    continue
                rest = [compatible[j] for j in rest_idx]
                basis = kept_by_cseq[cseq]
                g_basis = g_comp[:, selected]
                if g_kept is not None:
                    g_basis = np.hstack([g_kept, g_basis])
                g_rest = g_comp[:, rest_idx]
                if not np.any(g_basis):
                    if np.linalg.norm(g_rest) > tol * ref:
                        raise CompressionBasisError("nothing spans the rest")
                    x = np.zeros((len(basis), len(rest)), dtype=complex)
                else:
                    x = np.linalg.lstsq(g_basis, g_rest, rcond=None)[0]
                    rest_norm = np.linalg.norm(g_rest)
                    resid = float(np.linalg.norm(g_basis @ x - g_rest))
                    if rest_norm > 0:
                        fold_residual = max(fold_residual,
                                            resid / float(rest_norm))
                cutoff = 1e-13 * max(1.0, np.abs(x).max(initial=0.0))
                for jr, lvl in enumerate(rest):
                    expansion = {}
                    for ik, klvl in enumerate(basis):
                        c = x[ik, jr]
                        if abs(c) > cutoff:
                            merge_column(klvl, lvl, c)
                            expansion[klvl] = complex(c)
                    removed.append((lvl, expansion))
                    present_set.discard(lvl)
                    dropped.add(lvl)
                    cols.pop(lvl, None)

    folded = {(a, b): op for b, col in cols.items() if b not in dropped
              for a, op in col.items() if a not in dropped}
    levels = [IDENTITY_LEVEL] + sorted(present_set, key=lambda l: (len(l), l))
    params = {k: v for k, v in mpo.params.items() if k != "plan"}
    out = mpo_from_entries(mpo.d, levels, folded, order=order, params=params)
    report = CompressionReport(kept_levels=list(levels),
                               removed_levels=removed,
                               bond_dimension_before=mpo.bond_dimension,
                               bond_dimension_after=out.bond_dimension,
                               qr_tolerance=tol, fold_residual=fold_residual)
    return out, report


def literal_apply_mpo(mpo, psi, d_max=None):
    """MPO times MPS through the raw product, as an oracle for `apply_mpo`.

    Forms every site tensor ``W * A`` at bond ``D_w * chi``, the first and
    last contracted with the MPO's boundary vectors, QR-sweeps them left to
    right at that bond, truncates in a right-to-left SVD sweep at `d_max`
    and `mps.SVD_TOL` and normalizes through the overlap.  Returns ``(psi_out, discarded)``.
    """
    if psi.d != mpo.d:
        raise ValueError("physical dimensions differ")
    w = mpo.site_tensor()  # (left, right, out, in)
    left, right = mpo.boundary
    n = psi.n_sites
    tensors = []
    for i, t in enumerate(psi.tensors):
        wt = w
        if i == 0:
            wt = np.tensordot(left, wt, axes=(0, 0))[None]
        if i == n - 1:
            wt = np.tensordot(wt, right, axes=(1, 0))[:, None]
        new = np.einsum("absp,lpr->alsbr", wt, t, optimize=True)
        al, ll, d, bl, rl = new.shape
        tensors.append(new.reshape(al * ll, d, bl * rl))
    for i in range(n - 1):
        dl, d, dr = tensors[i].shape
        q, r = np.linalg.qr(tensors[i].reshape(dl * d, dr))
        tensors[i] = q.reshape(dl, d, q.shape[1])
        tensors[i + 1] = np.tensordot(r, tensors[i + 1], axes=(1, 0))
    discarded = 0.0
    for i in range(n - 1, 0, -1):
        dl, d, dr = tensors[i].shape
        u, s, v, disc = svd_truncate(tensors[i].reshape(dl, d * dr),
                                     max_rank=d_max, tol=SVD_TOL)
        discarded += disc
        tensors[i] = v.reshape(-1, d, dr)
        tensors[i - 1] = np.tensordot(tensors[i - 1], u * s, axes=(2, 0))
    return FiniteMPS(tensors).normalized(), discarded


def dense_channel_matrices(hamiltonian, n_sites):
    """Per-channel dense matrices (`FirstDegreeMPO.to_dense`)."""
    return [c.operator.to_dense(n_sites) for c in hamiltonian.channels]


def literal_rk4(hamiltonian, n_sites, psi, t0, t, substeps):
    """Fixed-step RK4 with dense channel matrices, as an oracle for `evolve`.

    `psi` is one state or a ``(dim, m)`` block of them; each stage forms
    ``sum_a f_a(s) (H_a @ psi)`` with every driving evaluated at one time.
    """
    mats = dense_channel_matrices(hamiltonian, n_sites)
    drvs = [c.driving for c in hamiltonian.channels]

    def hpsi(s, vec):
        out = np.zeros_like(vec)
        for mat, f in zip(mats, drvs):
            out += complex(np.asarray(f(s)).item()) * (mat @ vec)
        return out

    psi = np.asarray(psi, dtype=complex)
    if t == t0:
        return psi
    h = (t - t0) / substeps
    tcur = t0
    for _ in range(substeps):
        k1 = -1j * hpsi(tcur, psi)
        k2 = -1j * hpsi(tcur + 0.5 * h, psi + 0.5 * h * k1)
        k3 = -1j * hpsi(tcur + 0.5 * h, psi + 0.5 * h * k2)
        k4 = -1j * hpsi(tcur + h, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tcur += h
    return psi


def dispatch_rk4(hamiltonian, n_sites, psi, t0, t, substeps):
    """`evolve`'s RK4 loop with one ``stacked @ vec`` product per stage.

    The same floating-point operations in the same order as `evolve._rk4`,
    through SciPy's sparse-product dispatch and fresh arrays: the reference
    that loop must equal bitwise.
    """
    psi = np.asarray(psi, dtype=complex)
    if t == t0:
        return psi
    channels = hamiltonian.channels
    ops = [sparse_operator(ch.operator, n_sites) for ch in channels]
    stacked = scipy.sparse.vstack(ops, format="csr")
    shape, size = psi.shape, psi.size
    parts = (len(ops), size)
    h = (t - t0) / substeps
    starts = np.empty(substeps)
    tcur = t0
    for i in range(substeps):
        starts[i] = tcur
        tcur += h
    # (substep, time grid, channel): -1j times the weights of every stage
    weights = np.array([[ch.driving(grid) for ch in channels]
                        for grid in (starts, starts + 0.5 * h, starts + h)],
                       dtype=complex).transpose(2, 0, 1)
    weights = np.ascontiguousarray(-1j * weights)
    c = (h / 6.0) * np.array([1, 2, 2, 1], dtype=complex)
    k = np.empty((4, size), dtype=complex)

    def stage(j, w, vec):
        np.dot(w, (stacked @ vec.reshape(shape)).reshape(parts), out=k[j])

    y = psi.reshape(size)
    for w in weights:
        stage(0, w[0], y)
        stage(1, w[1], y + (0.5 * h) * k[0])
        stage(2, w[1], y + (0.5 * h) * k[1])
        stage(3, w[2], y + h * k[2])
        y = y + c @ k
    return y.reshape(shape)


def count_tables(monkeypatch):
    """Record the `max_order` of every table `BracketTable.compute` makes.

    A call over a sequence of intervals adds one entry per interval.
    """
    orders, _ = count_compute_calls(monkeypatch)
    return orders


def count_compute_calls(monkeypatch):
    """``(orders, calls)``: the `max_order` of every table
    `BracketTable.compute` makes, and the number of intervals of each
    call, one for a call on a single interval."""
    orders, calls = [], []
    original = BracketTable.__dict__["compute"].__func__

    def counting(cls, channels, t0, t, max_order, *args, **kwargs):
        out = original(cls, channels, t0, t, max_order, *args, **kwargs)
        calls.append(len(out) if isinstance(out, list) else 1)
        orders.extend([max_order] * calls[-1])
        return out

    monkeypatch.setattr(BracketTable, "compute", classmethod(counting))
    return orders, calls


def coo_digest(mpo):
    """Digest of an MPO's coordinate arrays: equal digests mean bitwise
    equal ``(rows, cols, blocks)``."""
    h = hashlib.sha256()
    for a in mpo.coo():
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
