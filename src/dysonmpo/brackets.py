"""Time-ordered integrals of driving functions, and tables of them.

A bracket

    [f_1 f_2 ... f_k] = (-i)^k  int_{t0}^{t} dt_1 f_1(t_1)
                                int_{t0}^{t_1} dt_2 f_2(t_2) ...

(first entry = latest time) is evaluated exactly, up to rounding.  Every
bracket up to order K of one step comes from the truncated signature of
the path whose velocity is the vector of channel values: level k holds
the iterated integrals

    int_{t0 < s_1 < ... < s_k < t} f_{a_1}(s_1) ... f_{a_k}(s_k) ds,

axes in time order; read latest-first and times ``(-i)**k`` it is the
order-k table.

Between knots every channel is a `dysonmpo.driving.Piece`: letters
``u(x) = S(x) state`` with ``S(x) = exp(G x)``, and the channel value is
the sum of the letters it reads.  Each stretch from knot to knot is cut
into ``2**_DOUBLINGS`` blocks of length h.  The levels of the first block
are the exact iterated integrals of the letters over ``[0, h]``, from the
power series of ``exp(G x)`` (`_block`).  The levels of ``[h, 2h]`` are
those of ``[0, h]`` with S(h) applied on every tensor axis, and the levels
of a joined interval are the truncated tensor-algebra product of its
parts' levels (Chen's identity; K.-T. Chen, Ann. Math. 65, 163 (1957)).
So `_DOUBLINGS` doublings give a stretch, which is contracted from the
letters to the channels; the stretches are then multiplied in time order.

An exponential piece keeps `_TERMS` terms of the series.  While
``max|rate| * h`` stays at or below `_RATE_LIMIT` the first dropped term
is at most ``(1/32)**8 / 8!``, about 2e-17, of the first kept one, and
order-4 tables at the limit match an independent matrix-exponential
evaluation to 1e-15 of their largest entry; a longer stretch raises
`ValueError`.  A polynomial keeps all of its terms, so its series is
exact.

Each operation is elementwise in the letters of the entry it computes:
the series and the shifts broadcast over one axis at a time, and each
axis sums its channel's letters in a fixed order.  So an entry's value
does not depend on the order of the table that holds it, and
`BracketCache` serves lower orders from a higher-order table.  Nor does it
depend on the other channels, unless their knots split the step
differently.

Nor does it depend on the other intervals evaluated with it.
`BracketTable.compute` takes its intervals as one stack: every array
carries a leading axis of stretches (or intervals), and every operation
above runs once for the whole stack, with the same operands in
the same order for each entry, so each table is bitwise the table of its
interval alone.  A table costs several hundred small numpy calls, which
the stack pays once.  Stretches of one piece layout (the letters of each
channel) share a stack, in passes whose series blocks hold at most
`PASS_SLOTS` complex entries, so a long evolution takes several passes
rather than one huge allocation.  numpy's complex multiply (2.4.6, on
x86-64 with AVX-512) rounds the same whatever the strides of its
operands, but not when they swap places, so every product keeps its
operand order; `tests/helpers.per_interval_table` holds the stack to the
one-interval evaluator bit for bit.
"""

import math
from itertools import product

import numpy as np

from .driving import Piece

_DOUBLINGS = 12       # a stretch between knots is 2**_DOUBLINGS blocks
_TERMS = 8            # series terms per letter of an exponential piece
_RATE_LIMIT = 1 / 32  # largest max|rate| * block length checked exact
PASS_SLOTS = 1 << 20  # complex entries of a pass's stretch blocks (16 MiB)


def _chen(a, b):
    """Truncated tensor-algebra product; `a` precedes `b` in time.

    ``a[k]`` is level ``k + 1`` of each interval of a stack: an array with
    the interval axis first and ``k + 1`` letter axes.  Level 0 is 1.
    """
    out = []
    for k in range(len(a)):
        total = a[k] + b[k]
        for i in range(k):
            x, y = a[i], b[k - 1 - i]   # each interval's outer product
            total = total + x.reshape(x.shape + (1,) * (y.ndim - 1)) * \
                y.reshape(y.shape[:1] + (1,) * (x.ndim - 1) + y.shape[1:])
        out.append(total)
    return out


def _shifted(levels, cols, coefs):
    """`levels` with each interval's letter map on every letter axis.

    Row m of interval i's map sends ``u`` to ``sum_w coefs[i, m, w] *
    u[cols[m, w]]``.
    """
    out = []
    for level in levels:
        for axis in range(1, level.ndim):
            shape = [len(coefs)] + [1] * (level.ndim - 1)
            shape[axis] = -1
            moved = coefs[:, :, 0].reshape(shape) * level
            for w in range(1, cols.shape[1]):
                moved = moved + coefs[:, :, w].reshape(shape) * \
                    level.take(cols[:, w], axis=axis)
            level = moved
        out.append(level)
    return out


def _letter_rows(pieces, xs):
    """Rows of the block-diagonal shifts S(x), x in `xs`, over all letters.

    `pieces` are stacked `Piece` objects, one per channel, and `xs` has
    their leading shape followed by one axis of points.  Returns ``cols``
    of shape ``(letters, width)`` and ``coefs`` of shape ``xs.shape +
    (letters, width)``; padding points at the row's own letter with
    coefficient 0.
    """
    parts = [p.shift(xs) for p in pieces]
    size = sum(c.shape[0] for c, _ in parts)
    width = max(c.shape[1] for c, _ in parts)
    cols = np.repeat(np.arange(size)[:, None], width, axis=1)
    coefs = np.zeros(xs.shape + (size, width), dtype=complex)
    start = 0
    for c, v in parts:
        stop = start + c.shape[0]
        cols[start:stop, :c.shape[1]] = c + start
        coefs[..., start:stop, :c.shape[1]] = v
        start = stop
    return cols, coefs


def _block(series, h, order):
    """Levels 1..`order` of the letters' iterated integrals over ``[0, h]``.

    ``series[i, j]`` is the coefficient of ``xi**j`` (``xi = x / h[i]``)
    of the letters on interval i's block.  Level k is carried as the
    coefficients of its running integral in xi, exponents ``k .. k + (k -
    1) * (terms - 1)``; the level is their sum, the value at ``xi = 1``.
    The running integrals hold their letter axes latest-first, so that
    each product runs along the earlier letters; each level is returned
    in time order.
    """
    n, terms, size = series.shape
    levels = []
    running = np.ones((n, 1), dtype=complex)   # level 0: the constant 1
    for k in range(1, order + 1):
        length = running.shape[1]
        shape = (n, length, size) + running.shape[2:]
        coefs = np.zeros((n, length + terms - 1) + shape[2:], dtype=complex)
        earlier, product = running[:, :, None], np.empty(shape, dtype=complex)
        for j in range(terms):
            np.multiply(earlier, series[:, j].reshape(
                (n, 1, size) + (1,) * (k - 1)), out=product)
            coefs[:, j:j + length] += product
        exponents = np.arange(k, k + coefs.shape[1]).reshape(
            (-1,) + (1,) * k)
        running = np.multiply(h.reshape((-1,) + (1,) * (k + 1)), coefs,
                              out=coefs)
        running /= exponents
        level = running[:, -1]
        for e in range(running.shape[1] - 2, -1, -1):
            level = level + running[:, e]
        levels.append(np.ascontiguousarray(
            level.transpose((0,) + tuple(range(k, 0, -1)))))
    return levels


def _terms(pieces):
    """Series terms of a stretch of `pieces`: every term of a polynomial."""
    return max([_TERMS] + [p.state.shape[-1] for p in pieces
                           if p.rates is None])


def _entries(pieces, order):
    """Complex entries of the largest array of a stretch's `_block`."""
    size = sum(p.state.shape[-1] for p in pieces)
    return (1 + order * (_terms(pieces) - 1)) * size ** order


def _stretch(pieces, spans, order):
    """Channel levels over ``[0, span]`` of stacked pieces from their origin.

    `pieces` holds one stacked `Piece` per channel, all of one layout, and
    `spans` the stretch length of each entry of the stack.
    """
    h = spans / 2 ** _DOUBLINGS
    terms = _terms(pieces)
    series = np.zeros((len(spans), terms,
                       sum(p.state.shape[-1] for p in pieces)), dtype=complex)
    start = 0
    for p in pieces:
        part = p.series(h, terms if p.rates is None else _TERMS)
        series[:, :part.shape[1], start:start + part.shape[2]] = part
        start += part.shape[2]
    block = _block(series, h, order)
    cols, coefs = _letter_rows(pieces, np.ldexp(h[:, None],
                                                np.arange(_DOUBLINGS)))
    for j in range(_DOUBLINGS):
        block = _chen(block, _shifted(block, cols, coefs[:, j]))
    reads, start = [], 0
    for p in pieces:
        reads.append([start + letter for letter in p.read])
        start += p.state.shape[-1]
    return [_to_channels(level, reads) for level in block]


def _to_channels(level, reads):
    """Sum each letter axis of `level` over the letters each channel reads."""
    for axis in range(1, level.ndim):
        sums = []
        for read in reads:
            summed = level.take(read[0], axis=axis)
            for letter in read[1:]:
                summed = summed + level.take(letter, axis=axis)
            sums.append(summed)
        level = np.stack(sums, axis=axis)
    return level


def _stretches(channels, t0, t):
    """``(pieces, span)`` of each stretch of ``[t0, t]``, in time order.

    The stretches run from cut to cut, the cuts being the ends and the
    channels' knots inside; `pieces` holds one `Piece` per channel.
    """
    cuts = {t0, t}
    for _, f in channels:
        cuts.update(float(knot) for knot in f.knots()
                    if min(t0, t) < knot < max(t0, t))
    cuts = sorted(cuts, reverse=t < t0)
    out = []
    for a, b in zip(cuts, cuts[1:]):
        pieces = [f.piece(a, b) for _, f in channels]
        for (name, f), p in zip(channels, pieces):
            if p is None:
                raise ValueError(
                    f"channel {name!r}: driving {type(f).__name__} "
                    f"({f.describe()}) states no piece form, so its "
                    f"brackets cannot be evaluated")
            rate = 0.0 if p.rates is None else max(np.abs(p.rates),
                                                    default=0.0)
            if rate * abs(b - a) / 2 ** _DOUBLINGS > _RATE_LIMIT:
                raise ValueError(
                    f"channel {name!r}: rate {rate:.6g} over a stretch of "
                    f"{b - a:.6g} exceeds the bracket series' limit "
                    f"max|rate| * stretch <= "
                    f"{_RATE_LIMIT * 2 ** _DOUBLINGS:g}; split the step")
        out.append((pieces, b - a))
    return out


def _stack(pieces):
    """One `Piece` holding `pieces`, all of one layout, along a new axis."""
    rates = None if pieces[0].rates is None else \
        np.stack([p.rates for p in pieces])
    return Piece(np.stack([p.state for p in pieces]), rates)


def _levels(stretches, order):
    """Levels 1..`order` of the iterated integrals of a stack of intervals.

    `stretches` lists each interval's stretches (`_stretches`), none
    empty.  Entry ``levels[k - 1][i, a_1, ..., a_k]`` is the integral of
    ``f_{a_1}(s_1) ... f_{a_k}(s_k)`` over ``t0 < s_1 < ... < s_k < t`` on
    interval i, oriented from t0 to t when ``t < t0``.  The stretches of
    one piece layout go through `_stretch` as one stack, in passes whose
    blocks hold at most `PASS_SLOTS` entries (or a single stretch); each
    interval's stretches are then joined in time order, the intervals
    with an r-th stretch as one stack.
    """
    flat = [s for st in stretches for s in st]
    n_channels = len(flat[0][0])
    groups = {}
    for i, (pieces, _) in enumerate(flat):
        layout = tuple((p.state.shape[-1], p.rates is None) for p in pieces)
        groups.setdefault(layout, []).append(i)
    out = [np.empty((len(flat),) + (n_channels,) * k, dtype=complex)
           for k in range(1, order + 1)]
    for members in groups.values():
        step = max(1, PASS_SLOTS // _entries(flat[members[0]][0], order))
        for lo in range(0, len(members), step):
            run = members[lo:lo + step]
            pieces = [_stack([flat[i][0][c] for i in run])
                      for c in range(n_channels)]
            levels = _stretch(pieces, np.array([flat[i][1] for i in run]),
                              order)
            for o, level in zip(out, levels):
                o[run] = level
    firsts = np.cumsum([0] + [len(st) for st in stretches[:-1]])
    total = [o[firsts] for o in out]
    for r in range(1, max(len(st) for st in stretches)):
        live = [i for i, st in enumerate(stretches) if len(st) > r]
        joined = _chen([level[live] for level in total],
                       [o[firsts[live] + r] for o in out])
        for level, part in zip(total, joined):
            level[live] = part
    return total


def check_interval(t0, t):
    """Raise `ValueError` naming an interval end that is not finite."""
    for name, end in (("t0", t0), ("t", t)):
        if not math.isfinite(end):
            raise ValueError(f"interval end {name} = {end!r} is not finite")


class BracketTable:
    """Time-ordered integrals keyed by channel-name sequences.

    `values` maps each word of at most `max_order` channel names to its
    entry: the brackets of a step (`compute`), or the word weights of a
    time-independent exponential (`frozen`).
    """

    def __init__(self, values, max_order):
        self.values = dict(values)
        self.max_order = int(max_order)

    def value(self, sigma):
        sigma = tuple(sigma)
        if len(sigma) > self.max_order:
            raise KeyError(
                f"bracket {sigma} exceeds table order {self.max_order}")
        return self.values[sigma]

    @classmethod
    def compute(cls, channels, t0s, ts, max_order):
        """One table of all brackets up to `max_order` per interval.

        `t0s` and `ts` are equal-length sequences of interval ends, and
        ``[t0s[i], ts[i]]`` the interval of the i-th table of the returned
        list.  The intervals are evaluated as one stack, in passes of at
        most `PASS_SLOTS` block entries each (`_levels`).  `channels` is a
        list of ``(name, driving)`` pairs in channel order; a name listed
        twice raises `ValueError`, and so does a non-finite end of an
        interval.  An empty interval holds zeros.
        """
        t0s, ts = list(t0s), list(ts)
        if len(t0s) != len(ts):
            raise ValueError(f"{len(t0s)} interval starts for {len(ts)} "
                             f"interval ends")
        for a, b in zip(t0s, ts):
            check_interval(a, b)
        channels = list(channels)
        index = {}
        for i, (name, _) in enumerate(channels):
            if index.setdefault(name, i) != i:
                raise ValueError(f"channel name {name!r} is listed twice")
        words = [list(product(index, repeat=k))
                 for k in range(1, max_order + 1)]
        zeros = dict.fromkeys((key for keys in words for key in keys),
                              0.0 + 0.0j)
        tables = [cls(zeros, max_order) for _ in t0s]
        run = [i for i, (a, b) in enumerate(zip(t0s, ts)) if a != b]
        if run:
            levels = _levels([_stretches(channels, t0s[i], ts[i])
                              for i in run], max_order)
            # row i of a level: its entries with the letters latest-first,
            # the words of the level in `product` order
            rows = [level.transpose((0,) + tuple(range(level.ndim - 1, 0, -1)))
                    .reshape(len(run), -1).tolist() for level in levels]
            for r, i in enumerate(run):
                values = {}
                for k, (keys, row) in enumerate(zip(words, rows), 1):
                    phase = (-1j) ** k
                    values.update(zip(keys, [phase * v for v in row[r]]))
                tables[i] = cls(values, max_order)
        return tables

    @classmethod
    def frozen(cls, weights, tau, max_order):
        """Word weights of ``exp(tau * sum_a weights[a] H_a)`` to `max_order`.

        `weights` maps each channel name to its frozen value, in channel
        order.  The entry of a word of k letters is ``tau**k / k!`` times
        the product of its letters' weights; with every weight 1.0 that
        product is exactly 1.0.
        """
        tau = complex(tau)
        values = {key: tau ** len(key) / math.factorial(len(key))
                  * math.prod(weights[a] for a in key)
                  for k in range(1, max_order + 1)
                  for key in product(weights, repeat=k)}
        return cls(values, max_order)
