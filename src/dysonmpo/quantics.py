"""Quantics tensor trains and time-ordered integrals of driving functions.

A scalar function on ``[t0, t1)`` is sampled on the dyadic grid
``x_n = n / 2**R`` (mapped affinely onto the interval) and stored as a
tensor train with one binary digit per site, least-significant bit first.
Exponentials have bond dimension 1, sines and cosines bond dimension 2.

Nested time-ordered integrals

    [f_1 f_2 ... f_k] = (-i)^k  int_{t0}^{t} dt_1 f_1(t_1)
                                int_{t0}^{t_1} dt_2 f_2(t_2) ...

are evaluated on the same grid with the left-endpoint rule.  Drivings that
are sums of exponentials (const, sin, cos, exp) take the grid sum in closed
form: one small matrix exponential per exponent choice
(:func:`_exponential_brackets`).  Other drivings alternate a
cumulative-integral MPO of bond dimension 2 (a strict Heaviside comparison
of binary digits) with pointwise products, and close with a full grid sum.
The inner train ``W_s`` of a sequence depends only on its suffix ``s``, so
:func:`time_ordered_integrals` walks the trie of suffixes once per interval:
each channel train is built once, each ``H(W_s)`` and each product
``f_n * H(W_s)`` is compressed once, and every sequence of two or more
channels is closed by contracting ``sum_x f_n(x) H(W_s)(x)`` site by site
without forming either train, so its value does not depend on which other
sequences were requested.  A full table of order ``K`` over ``c`` channels
without exponentials costs ``c + ... + c**(K-2)`` running-integral and
``c**2 + ... + c**(K-1)`` product compressions, each an R-site sweep.
"""

import math
from itertools import product

import numpy as np
import scipy.linalg

from .linalg import svd_truncate, truncation_rank


class QuanticsTrain:
    """R-site tensor train with physical dimension 2 per binary digit."""

    def __init__(self, sites):
        self.sites = [np.asarray(s, dtype=complex) for s in sites]
        if self.sites[0].shape[0] != 1 or self.sites[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")

    @property
    def bits(self):
        return len(self.sites)

    @property
    def bond_dimensions(self):
        return [s.shape[2] for s in self.sites[:-1]]

    @property
    def max_bond(self):
        return max(self.bond_dimensions, default=1)

    def evaluate(self, n):
        """Value at grid index `n` (bits read least-significant first)."""
        v = np.ones((1,), dtype=complex)
        for alpha, site in enumerate(self.sites):
            bit = (int(n) >> alpha) & 1
            v = v @ site[:, bit, :]
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
            # gesvd as in svd_truncate: the row compression downstream
            # amplifies bracket rounding, so the driver is kept fixed
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

    def __repr__(self):
        return f"QuanticsTrain(bits={self.bits}, max_bond={self.max_bond})"


def qtt_exp(a, bits):
    """Train of ``exp(a * x)`` on the unit grid; bond dimension 1.

    Site ``alpha`` holds the pair ``(1, exp(a * 2**(alpha - R)))``.
    """
    if bits < 1:
        raise ValueError("need at least one bit")
    sites = []
    for alpha in range(bits):
        t = np.zeros((1, 2, 1), dtype=complex)
        t[0, 0, 0] = 1.0
        t[0, 1, 0] = np.exp(a * 2.0 ** (alpha - bits))
        sites.append(t)
    return QuanticsTrain(sites)


def qtt_add(f, g):
    """Direct sum of two trains; bond dimensions add."""
    if f.bits != g.bits:
        raise ValueError("bit counts differ")
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
    if 2 ** bits != len(values):
        raise ValueError("sample count must be a power of two")
    scale = np.max(np.abs(values))
    # reshape puts the most significant bit on the first axis; reverse so
    # the least significant bit sits on the first site
    tensor = values.reshape([2] * bits).transpose(tuple(reversed(range(bits))))
    sites = []
    rest = tensor.reshape(1, -1)
    for _ in range(bits - 1):
        dl = rest.shape[0]
        m = rest.reshape(dl * 2, -1)
        u, s, v, disc = svd_truncate(m, max_rank=max_bond, tol=tol)
        if max_bond is not None and disc > (tol * max(scale, 1e-300)) ** 2:
            raise ValueError("bond cap exceeded before tolerance was reached")
        sites.append(u.reshape(dl, 2, u.shape[1]))
        rest = (s[:, None] * v)
    sites.append(rest.reshape(rest.shape[0], 2, 1))
    return QuanticsTrain(sites)


def qtt_from_samples_of(f, t0, t1, bits, max_bond=None, tol=1e-13):
    """Sample a callable driving function on the interval grid and encode it."""
    if bits > 24:
        raise ValueError("dense sampling is capped at 24 bits")
    n = np.arange(2 ** bits)
    ts = t0 + (t1 - t0) * n / 2.0 ** bits
    return qtt_from_samples(np.asarray(f(ts), dtype=complex),
                            max_bond=max_bond, tol=tol)


class CumulativeIntegralMPO:
    """Bond-dimension-2 MPO encoding ``F(y) = sum_{x < y} f(x) * delta_x``.

    The digit comparison runs from the most significant bit (last site)
    toward the least significant: virtual state 0 means all higher digits
    agree, state 1 means the strict inequality is already decided.  The
    deciding digit pair ``(y=1, x=0)`` carries the grid spacing.
    """

    def __init__(self, bits, delta_x):
        self.bits = bits
        self.delta_x = float(delta_x)
        w = np.zeros((2, 2, 2, 2), dtype=complex)  # (a, y, x, b)
        for x in (0, 1):
            for y in (0, 1):
                w[1, y, x, 1] = 1.0
                if x == y:
                    w[0, y, x, 0] = 1.0
        w[1, 1, 0, 0] = self.delta_x
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
        if train.bits != self.bits:
            raise ValueError("bit counts differ")
        sites = []
        for i, site in enumerate(train.sites):
            # (a, y, x, b), (l, x, r) -> (a, l, y, b, r)
            t = np.einsum("ayxb,lxr->alybr", self.site(i), site)
            al, fl, _, bl, fr = t.shape
            sites.append(t.reshape(al * fl, 2, bl * fr))
        return QuanticsTrain(sites)

    def weighted_sum(self, f, train):
        """``sum_y f(y) * (H train)(y)`` contracted site by site.

        Neither the running integral nor the product is formed: the
        environment carries one index each for `f`, the MPO and `train`.
        """
        if f.bits != self.bits or train.bits != self.bits:
            raise ValueError("bit counts differ")
        env = np.ones((1, 1, 1), dtype=complex)  # (f, a, train)
        for i, (fs, ws) in enumerate(zip(f.sites, train.sites)):
            w = self.site(i)
            fl, a, wl = env.shape
            wr = ws.shape[2]
            b = w.shape[3]
            # (f, a, train) . (train, x, r) -> (f, r, a, x)
            t = env.reshape(fl * a, wl) @ ws.reshape(wl, 2 * wr)
            t = t.reshape(fl, a, 2, wr).transpose(0, 3, 1, 2)
            # (f, r, a, x) . (a, x, y, b) -> (r, b, f, y)
            t = t.reshape(fl * wr, a * 2) @ \
                w.transpose(0, 2, 1, 3).reshape(a * 2, 2 * b)
            t = t.reshape(fl, wr, 2, b).transpose(1, 3, 0, 2)
            # (r, b, f, y) . (f, y, fr) -> (fr, b, r)
            t = t.reshape(wr * b, fl * 2) @ fs.reshape(fl * 2, -1)
            env = t.reshape(wr, b, -1).transpose(2, 1, 0)
        return complex(env[0, 0, 0])


def cumulative_integral_mpo(bits, delta_x):
    return CumulativeIntegralMPO(bits, delta_x)


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


def _grid_sum_generators(rates, tau, bits, interval):
    """Scaled logarithms ``A`` of the grid-sum transfer matrices.

    Row ``i`` of `rates` is one exponent choice ``lambda_1 .. lambda_k``
    (latest time first).  With ``N = 2**bits``, ``delta = tau / N``,
    prefix sums ``P_0 = 0``, ``P_i = lambda_1 + ... + lambda_i``,
    ``Lambda_s = P_{k-s}`` and ``u_s = expm1(delta Lambda_s)``, the grid sum
    ``sum_{N > n_1 > ... > n_k >= 0} prod_i exp(delta lambda_i n_i)`` is
    ``[T**N]_{0,k}`` with ``T = (I + E) diag(1 + u)``, ``E`` the ones on
    the superdiagonal; it equals ``N**k [exp(A)]_{0,k}`` for
    ``A = G N log(T) G^-1``, ``G = diag(N**s)``.  ``log(T)`` is the series
    ``sum_m (-1)**(m-1) / m (T - I)**m``, whose ``(s, r)`` entry carries
    ``prod_{q=s+1..r} (1 + u_q)`` times the complete homogeneous symmetric
    polynomial ``h_{m-(r-s)}(u_s .. u_r)``.  Each matrix sums as many terms
    as its own ``max |u|`` needs, so its value does not depend on the
    other rows.
    """
    n_rows, k = rates.shape
    prefix = np.zeros((n_rows, k + 1), dtype=complex)
    prefix[:, 1:] = np.cumsum(rates, axis=1)
    lam = prefix[:, ::-1]
    u = np.expm1(lam * (tau / 2.0 ** bits))
    rho = np.abs(u).max(axis=1)
    if rho.max() >= 0.5:
        raise ValueError(
            f"bits={bits} cannot resolve the interval {interval}: a grid "
            f"step turns exp(rate * t) by |expm1| = {rho.max():.3g} >= 1/2")
    # terms per matrix: the tail bound C(j + k, k) rho**j of the series
    # truncated after h_{j-1} falls below 2**-60
    powers = np.arange(1, 65 + 16 * k)
    binom = np.array([float(math.comb(int(j) + k, k)) for j in powers])
    tails = binom * rho[:, None] ** powers
    terms = np.argmax(tails <= 2.0 ** -60, axis=1)
    n_terms = int(terms.max())
    a = np.zeros((n_rows, k + 1, k + 1), dtype=complex)
    idx = np.arange(k + 1)
    a[:, idx, idx] = tau * lam
    h = u[:, :, None] ** np.arange(n_terms + 1)  # h_j(u_s)
    lift = np.ones((n_rows, k + 1), dtype=complex)
    for d in range(1, k + 1):
        # h_j(u_s .. u_{s+d}) and prod_{q=s+1..s+d} (1 + u_q), s <= k - d
        new = u[:, d:]
        h = h[:, :k + 1 - d].copy()
        for j in range(1, n_terms + 1):
            h[:, :, j] += new * h[:, :, j - 1]
        lift = lift[:, :k + 1 - d] * (1.0 + new)
        series = np.zeros((n_rows, k + 1 - d), dtype=complex)
        for j in range(n_terms, -1, -1):
            term = h[:, :, j] * ((-1) ** (j + d - 1) / (j + d))
            series = series + np.where(j <= terms[:, None], term, 0.0)
        a[:, idx[:k + 1 - d], idx[d:]] = 2.0 ** (bits * (1 - d)) * lift * series
    return a


def _exponential_brackets(expansions, sequences, t0, t, bits):
    """Closed-form brackets of sequences whose channels are exponential sums.

    `expansions` maps a channel name to its ``[(c, rate), ...]``, or to
    None for channels none of the `sequences` reads.  Each value is the
    left-endpoint grid sum of the train engine, bias included:
    ``(-i tau)**k sum_choices prod_i(c_i exp(lambda_i t0)) [exp(A)]_{0,k}``
    with ``A`` from :func:`_grid_sum_generators`.  One batched matrix
    exponential per order covers every distinct exponent choice, and each
    sequence sums its choices in the order of ``product`` over its
    channels' terms.
    """
    tau = t - t0
    shifted = {name: [(complex(c) * np.exp(complex(rate) * t0), complex(rate))
                      for c, rate in terms]
               for name, terms in expansions.items() if terms is not None}
    by_order = {}
    for seq in sequences:
        by_order.setdefault(len(seq), []).append(seq)
    values = {}
    for k, seqs in by_order.items():
        rows = {}   # exponent choice -> row of the batch
        sums = []   # per sequence: (coefficient, row) of each choice
        for seq in seqs:
            choices = []
            for choice in product(*(shifted[name] for name in seq)):
                rates = tuple(rate for _, rate in choice)
                choices.append((math.prod(c for c, _ in choice),
                                rows.setdefault(rates, len(rows))))
            sums.append(choices)
        a = _grid_sum_generators(np.array(list(rows), dtype=complex), tau,
                                 bits, (t0, t))
        grid = scipy.linalg.expm(a)[:, 0, k]
        for seq, choices in zip(seqs, sums):
            total = sum(coef * grid[row] for coef, row in choices)
            values[seq] = complex((-1j * tau) ** k * total)
    return values


def time_ordered_integrals(channels, sequences, t0, t, bits=24,
                           compress_tol=1e-13):
    """Brackets of every sequence in `sequences` over ``[t0, t]``.

    `channels` maps a channel name to its driving function; a sequence
    lists names with the latest time first.  Returns a dict keyed by the
    sequences as tuples.  The evaluator follows what the channels offer:

    - sequences of constant channels only take the exact integral
      ``prod(c) * (-i (t - t0))**k / k!``;
    - sequences whose channels are all sums of exponentials
      (`DrivingFunction.exponentials`) take the left-endpoint grid sum on
      the ``2**bits`` grid of the interval in closed form
      (:func:`_exponential_brackets`);
    - the others take the same grid sum contracted as quantics trains,
      sharing the inner train of every common suffix (see the module
      docstring).
    """
    sequences = [tuple(seq) for seq in sequences]
    if not all(sequences):
        raise ValueError("empty channel sequence")
    if t == t0:
        return dict.fromkeys(sequences, 0.0 + 0.0j)
    values = dict.fromkeys(sequences)
    expansions = {name: f.exponentials() for name, f in channels.items()}
    closed = []
    gridded = []
    for seq in sequences:
        consts = [channels[name].constant_value for name in seq]
        if all(c is not None for c in consts):
            prod = np.prod([complex(c) for c in consts])
            values[seq] = complex(prod * (-1j * (t - t0)) ** len(seq)
                                  / math.factorial(len(seq)))
        elif all(expansions[name] is not None for name in seq):
            closed.append(seq)
        else:
            gridded.append(seq)
    values.update(_exponential_brackets(expansions, closed, t0, t, bits))
    delta_x = (t - t0) / 2.0 ** bits
    heaviside = cumulative_integral_mpo(bits, delta_x)
    inner = {}    # suffix s -> W_s; a one-name suffix is the channel train
    running = {}  # suffix s -> compressed H(W_s)

    def train(s):
        if s not in inner:
            if len(s) == 1:
                inner[s] = channels[s[0]].build_qtt(t0, t, bits)
            else:
                if s[1:] not in running:
                    running[s[1:]] = heaviside.apply(train(s[1:])).compress(
                        tol=compress_tol)
                inner[s] = pointwise_product(train(s[:1]), running[s[1:]],
                                             compress_tol=compress_tol)
        return inner[s]

    for seq in gridded:
        if len(seq) == 1:
            total = train(seq).full_sum()
        else:
            total = heaviside.weighted_sum(train(seq[:1]), train(seq[1:]))
        values[seq] = complex((-1j) ** len(seq) * total * delta_x)
    return values


def time_ordered_integral(drivings, t0, t, bits=24, compress_tol=1e-13):
    """Bracket ``[f_1 ... f_k]`` over ``[t0, t]``; first entry = latest time.

    The single-path case of :func:`time_ordered_integrals`.
    """
    drivings = list(drivings)
    if not drivings:
        raise ValueError("empty channel sequence")
    seq = tuple(range(len(drivings)))
    return time_ordered_integrals(dict(enumerate(drivings)), [seq], t0, t,
                                  bits=bits, compress_tol=compress_tol)[seq]
