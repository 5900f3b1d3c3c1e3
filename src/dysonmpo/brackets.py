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
"""

import math
from itertools import product

import numpy as np

_DOUBLINGS = 12       # a stretch between knots is 2**_DOUBLINGS blocks
_TERMS = 8            # series terms per letter of an exponential piece
_RATE_LIMIT = 1 / 32  # largest max|rate| * block length checked exact


def _chen(a, b):
    """Truncated tensor-algebra product; `a` precedes `b` in time.

    ``a[k]`` is level ``k + 1``, an array with ``k + 1`` axes; level 0 is 1.
    """
    out = []
    for k in range(len(a)):
        total = a[k] + b[k]
        for i in range(k):
            total = total + np.multiply.outer(a[i], b[k - 1 - i])
        out.append(total)
    return out


def _shifted(levels, cols, coefs):
    """`levels` with the letter map ``(cols, coefs)`` on every axis.

    Row m of the map sends ``u`` to ``sum_w coefs[m, w] * u[cols[m, w]]``.
    """
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


def _letter_rows(pieces, xs):
    """Rows of the block-diagonal shifts S(x), x in `xs`, over all letters.

    Returns ``cols`` of shape ``(letters, width)`` and ``coefs`` of shape
    ``(len(xs), letters, width)``; padding points at the row's own letter
    with coefficient 0.
    """
    parts = [[p.shift(x) for x in xs] for p in pieces]
    size = sum(len(p.state) for p in pieces)
    width = max(rows[0][0].shape[1] for rows in parts)
    cols = np.repeat(np.arange(size)[:, None], width, axis=1)
    coefs = np.zeros((len(xs), size, width), dtype=complex)
    start = 0
    for rows in parts:
        stop = start + len(rows[0][0])
        cols[start:stop, :rows[0][0].shape[1]] = rows[0][0] + start
        for i, (_, c) in enumerate(rows):
            coefs[i, start:stop, :c.shape[1]] = c
        start = stop
    return cols, coefs


def _block(series, h, order):
    """Levels 1..`order` of the letters' iterated integrals over ``[0, h]``.

    ``series[j]`` is the coefficient of ``xi**j`` (``xi = x / h``) of the
    letters on the block.  Level k is carried as the coefficients of its
    running integral in xi, exponents ``k .. k + (k - 1) * (terms - 1)``;
    the level is their sum, the value at ``xi = 1``.
    """
    terms, size = series.shape
    levels = []
    running = np.ones(1, dtype=complex)   # level 0: the constant 1
    for k in range(1, order + 1):
        coefs = np.zeros((len(running) + terms - 1,) + running.shape[1:]
                         + (size,), dtype=complex)
        for j in range(terms):
            coefs[j:j + len(running)] += np.multiply.outer(running, series[j])
        exponents = np.arange(k, k + len(coefs)).reshape(
            (-1,) + (1,) * k)
        running = h * coefs / exponents
        level = running[-1]
        for e in range(len(running) - 2, -1, -1):
            level = level + running[e]
        levels.append(level)
    return levels


def _stretch(pieces, span, order):
    """Channel levels of the pieces over ``[0, span]`` from their origin."""
    h = span / 2 ** _DOUBLINGS
    terms = max([_TERMS] + [len(p.state) for p in pieces if p.rates is None])
    series = np.zeros((terms, sum(len(p.state) for p in pieces)),
                      dtype=complex)
    start = 0
    for p in pieces:
        part = p.series(h, terms if p.rates is None else _TERMS)
        series[:len(part), start:start + part.shape[1]] = part
        start += part.shape[1]
    block = _block(series, h, order)
    cols, coefs = _letter_rows(pieces, [2 ** j * h for j in range(_DOUBLINGS)])
    for j in range(_DOUBLINGS):
        block = _chen(block, _shifted(block, cols, coefs[j]))
    reads, start = [], 0
    for p in pieces:
        reads.append([start + letter for letter in p.read])
        start += len(p.state)
    return [_to_channels(level, reads) for level in block]


def _to_channels(level, reads):
    """Sum each axis of `level` over the letters each channel reads."""
    for axis in range(level.ndim):
        sums = []
        for read in reads:
            summed = level.take(read[0], axis=axis)
            for letter in read[1:]:
                summed = summed + level.take(letter, axis=axis)
            sums.append(summed)
        level = np.stack(sums, axis=axis)
    return level


def _levels(channels, t0, t, order):
    """Levels 1..`order` of the iterated integrals of the `channels`.

    `channels` lists ``(name, driving)`` pairs; entry
    ``levels[k - 1][a_1, ..., a_k]`` is the integral of
    ``f_{a_1}(s_1) ... f_{a_k}(s_k)`` over ``t0 < s_1 < ... < s_k < t``,
    oriented from t0 to t when ``t < t0``.
    """
    cuts = {t0, t}
    for _, f in channels:
        cuts.update(float(knot) for knot in f.knots()
                    if min(t0, t) < knot < max(t0, t))
    cuts = sorted(cuts, reverse=t < t0)
    total = None
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
        levels = _stretch(pieces, b - a, order)
        total = levels if total is None else _chen(total, levels)
    return total


def check_interval(t0, t):
    """Raise `ValueError` naming an interval end that is not finite."""
    for name, end in (("t0", t0), ("t", t)):
        if not math.isfinite(end):
            raise ValueError(f"interval end {name} = {end!r} is not finite")


def time_ordered_integral(drivings, t0, t):
    """Bracket ``[f_1 ... f_k]`` over ``[t0, t]``; first entry = latest time.

    The entry ``(0, ..., k - 1)`` of the order-k `BracketTable.compute` of
    the drivings, each its own channel, named by its position.
    """
    channels = list(enumerate(drivings))
    if not channels:
        raise ValueError("empty channel sequence")
    word = tuple(range(len(channels)))
    return BracketTable.compute(channels, t0, t, len(word)).values[word]


class BracketTable:
    """Time-ordered integrals keyed by channel-name sequences.

    A computed table holds the brackets of its interval; a frozen one
    (`frozen`) the word weights of a time-independent exponential, and no
    interval.
    """

    def __init__(self, interval, values, max_order):
        self.interval = None if interval is None else tuple(interval)
        self.values = dict(values)
        self.max_order = int(max_order)

    def value(self, sigma):
        sigma = tuple(sigma)
        if len(sigma) > self.max_order:
            raise KeyError(
                f"bracket {sigma} exceeds table order {self.max_order}")
        return self.values[sigma]

    @classmethod
    def compute(cls, channels, t0, t, max_order):
        """Evaluate all brackets up to `max_order` on ``[t0, t]``.

        `channels` is a list of ``(name, driving)`` pairs in channel order;
        a name listed twice raises `ValueError`, and so does a non-finite
        end of the interval.  An empty interval holds zeros.
        """
        check_interval(t0, t)
        channels = list(channels)
        index = {}
        for i, (name, _) in enumerate(channels):
            if index.setdefault(name, i) != i:
                raise ValueError(f"channel name {name!r} is listed twice")
        keys = [key for k in range(1, max_order + 1)
                for key in product(index, repeat=k)]
        if t == t0:
            return cls((t0, t), dict.fromkeys(keys, 0.0 + 0.0j), max_order)
        levels = _levels(channels, t0, t, max_order)
        values = {key: complex((-1j) ** len(key) * levels[len(key) - 1][
                      tuple(index[name] for name in reversed(key))])
                  for key in keys}
        return cls((t0, t), values, max_order)

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
        return cls(None, values, max_order)
