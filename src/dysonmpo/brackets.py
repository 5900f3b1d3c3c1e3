"""Time-ordered integrals of driving functions, and tables of them.

A bracket

    [f_1 f_2 ... f_k] = (-i)^k  int_{t0}^{t} dt_1 f_1(t_1)
                                int_{t0}^{t_1} dt_2 f_2(t_2) ...

(first entry = latest time) is evaluated with the left-endpoint rule on
the grid ``t0 + n delta``, ``n < N = 2**bits``, ``delta = (t - t0) / N``.
Every bracket up to order K comes from one element of the truncated
tensor algebra over the channels,

    prod_n (1 + delta x_n),

with ``x_n`` the channel values at grid point ``n`` and the factors in
time order.  Its level k is ``delta**k`` times the sum over
``n_1 < ... < n_k`` of ``x_{n_1} (x) ... (x) x_{n_k}``; read latest-first and
times ``(-i)**k`` it is the order-k table.  Sequences of constant channels
only take the exact integral instead.

The product is never formed point by point.  Between knots every channel
is a `dysonmpo.driving.Piece`, ``f(t_p + x) = sum((S(x) state)[read])``,
so the points of a block shifted by ``y`` carry S(y) times the letters of
the block.  A block of ``2**(j+1)`` points is then the block of ``2**j``
points times a copy with ``S(2**j delta)`` applied on every tensor axis
(Chen's identity: the iterated sums of a joined path are the product of
the pieces' sums), and a whole step takes `bits` doublings.  A stretch of
L points between knots is the product of the blocks of L's binary digits,
contracted from the letters to the channels; the stretches are then
multiplied in time order.

Each operation is elementwise in the letters of the entry it computes:
shifts broadcast over one axis at a time, and each axis sums its
channel's letters in a fixed order.  So an entry's value does not depend
on the order of the table that holds it, and `BracketCache` serves lower
orders from a higher-order table.  Nor does it depend on the other
channels, unless their knots split the step differently.
"""

import math
import numbers
from itertools import product

import numpy as np


def check_bits(bits):
    """`bits` as an int, or ValueError unless it is an integer >= 1."""
    if isinstance(bits, bool) or not isinstance(bits, numbers.Integral) \
            or bits < 1:
        raise ValueError(f"bits must be an integer >= 1, got {bits!r}")
    return int(bits)


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


def _shifted(levels, rows):
    """`levels` with the letter map ``rows = (cols, coefs)`` on every axis."""
    cols, coefs = rows
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


def _letter_rows(pieces, x):
    """Rows of the block-diagonal shift S(x) over all pieces' letters."""
    parts = [p.shift(x) for p in pieces]
    width = max(cols.shape[1] for cols, _ in parts)
    all_cols, all_coefs, start = [], [], 0
    for cols, coefs in parts:
        pad = width - cols.shape[1]
        all_cols.append(np.hstack([cols, np.repeat(cols[:, :1], pad, axis=1)])
                        + start)
        all_coefs.append(np.hstack([coefs, np.zeros((len(coefs), pad))]))
        start += len(cols)
    return np.vstack(all_cols), np.vstack(all_coefs)


def _stretch(pieces, delta, length, order):
    """Channel levels of ``length`` points from the pieces' common origin."""
    state = np.concatenate([p.state for p in pieces])
    block = [delta * state] + [np.zeros((len(state),) * k, dtype=complex)
                               for k in range(2, order + 1)]
    total, offset = None, 0
    for j in range(length.bit_length()):
        if length >> j & 1:
            run = block if offset == 0 else _shifted(
                block, _letter_rows(pieces, offset * delta))
            total = run if total is None else _chen(total, run)
            offset += 1 << j
        if length >> (j + 1):
            block = _chen(block, _shifted(
                block, _letter_rows(pieces, (1 << j) * delta)))
    reads, start = [], 0
    for p in pieces:
        reads.append([start + letter for letter in p.read])
        start += len(p.state)
    return [_to_channels(level, reads) for level in total]


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


def _grid_levels(drivings, t0, t, bits, order):
    """Levels 1..`order` of ``prod_n (1 + delta x_n)`` over the `drivings`.

    Entry ``levels[k - 1][a_1, ..., a_k]`` is ``delta**k`` times the sum of
    ``f_{a_1}(t_{n_1}) ... f_{a_k}(t_{n_k})`` over ``n_1 < ... < n_k``.
    """
    n_points = 2 ** bits
    delta = (t - t0) / n_points
    cuts = {0, n_points}
    for f in drivings:
        for knot in f.knots():
            cuts.add(min(max(math.ceil((knot - t0) / delta), 0), n_points))
    cuts = sorted(cuts)
    total = None
    for lo, hi in zip(cuts, cuts[1:]):
        start, last = t0 + lo * delta, t0 + (hi - 1) * delta
        levels = _stretch([f.piece(start, last) for f in drivings], delta,
                          hi - lo, order)
        total = levels if total is None else _chen(total, levels)
    return total


def time_ordered_integrals(channels, sequences, t0, t, bits=24):
    """Brackets of every sequence in `sequences` over ``[t0, t]``.

    `channels` maps a channel name to its driving function; a sequence
    lists names with the latest time first.  Returns a dict keyed by the
    sequences as tuples.  Sequences of constant channels only take the
    exact integral ``prod(c) * (-i (t - t0))**k / k!``; the others take
    the left-endpoint grid sum on ``2**bits`` points (module docstring).
    """
    bits = check_bits(bits)
    sequences = [tuple(seq) for seq in sequences]
    if not all(sequences):
        raise ValueError("empty channel sequence")
    if t == t0:
        return dict.fromkeys(sequences, 0.0 + 0.0j)
    values = {}
    gridded = []
    for seq in sequences:
        consts = [channels[name].constant_value for name in seq]
        if all(c is not None for c in consts):
            prod = np.prod([complex(c) for c in consts])
            values[seq] = complex(prod * (-1j * (t - t0)) ** len(seq)
                                  / math.factorial(len(seq)))
        else:
            gridded.append(seq)
    if gridded:
        names = list(dict.fromkeys(name for seq in gridded for name in seq))
        for name in names:
            f = channels[name]
            if f.piece(t0, t) is None:
                raise ValueError(
                    f"channel {name!r}: driving {type(f).__name__} "
                    f"({f.describe()}) states no piece form, so its "
                    f"brackets cannot be evaluated")
        index = {name: i for i, name in enumerate(names)}
        levels = _grid_levels([channels[name] for name in names], t0, t, bits,
                             max(len(seq) for seq in gridded))
        for seq in gridded:
            word = tuple(index[name] for name in reversed(seq))
            k = len(seq)
            values[seq] = complex((-1j) ** k * levels[k - 1][word])
    return {seq: values[seq] for seq in sequences}


def time_ordered_integral(drivings, t0, t, bits=24):
    """Bracket ``[f_1 ... f_k]`` over ``[t0, t]``; first entry = latest time.

    The single-path case of :func:`time_ordered_integrals`.
    """
    drivings = list(drivings)
    if not drivings:
        raise ValueError("empty channel sequence")
    seq = tuple(range(len(drivings)))
    return time_ordered_integrals(dict(enumerate(drivings)), [seq], t0, t,
                                  bits=bits)[seq]


class BracketTable:
    """Time-ordered integrals keyed by channel-name sequences."""

    def __init__(self, interval, values, max_order):
        self.interval = tuple(interval)
        self.values = dict(values)
        self.max_order = int(max_order)

    def value(self, sigma):
        sigma = tuple(sigma)
        if len(sigma) > self.max_order:
            raise KeyError(
                f"bracket {sigma} exceeds table order {self.max_order}")
        return self.values[sigma]

    @classmethod
    def compute(cls, channels, t0, t, max_order, bits=24):
        """Evaluate all brackets up to `max_order` on ``[t0, t]``.

        `channels` is a list of ``(name, driving)`` pairs in channel order.
        """
        channels = list(channels)
        keys = [key for k in range(1, max_order + 1)
                for key in product([name for name, _ in channels], repeat=k)]
        values = time_ordered_integrals(dict(channels), keys, t0, t, bits=bits)
        return cls((t0, t), values, max_order)


class TaylorBrackets:
    """Synthetic table for a time-independent exponential: ``tau**k / k!``."""

    def __init__(self, tau, max_order):
        self.tau = complex(tau)
        self.max_order = int(max_order)
        self.interval = None

    def value(self, sigma):
        k = len(tuple(sigma))
        if k > self.max_order:
            raise KeyError(f"order {k} exceeds {self.max_order}")
        return self.tau ** k / math.factorial(k)
