"""Virtual-level labels for powers of time-dependent Hamiltonians.

A level of the k-th power of a Hamiltonian MPO is a tuple of per-factor
finite-state-machine states over the alphabet

    1          term not started          (identity flows)
    2_a[s]     term of channel `a` in progress, middle slot `s`
    3_a        term of channel `a` finished

Factor order encodes time order: the leftmost symbol belongs to the factor
carrying the *latest* time argument.  Labels that agree after removing all
1 symbols describe identical operator histories, so the power
construction keeps one stripped label per class.

The labels alone fix which brackets row compression sums for each level
along each row of its right-operator basis; `block_keys` enumerates them
for a whole set of levels in array passes.
"""

from itertools import combinations, product

import numpy as np

ONE = ("1",)


def two(channel, slot=0):
    return ("2", channel, slot)


def three(channel):
    return ("3", channel)


def is_one(sym):
    return sym[0] == "1"


def is_two(sym):
    return sym[0] == "2"


def is_three(sym):
    return sym[0] == "3"


class LevelLabel(tuple):
    """Tuple of per-factor symbols with level bookkeeping helpers."""

    __slots__ = ()

    @property
    def n2(self):
        return sum(1 for s in self if is_two(s))

    @property
    def n3(self):
        return sum(1 for s in self if is_three(s))

    def sigma(self):
        """Channel subscripts of the 3 symbols, in factor (time) order."""
        return tuple(s[1] for s in self if is_three(s))

    def two_sequence(self):
        """(channel, slot) pairs of the 2 symbols, in factor order."""
        return tuple((s[1], s[2]) for s in self if is_two(s))

    def append(self, sym):
        return LevelLabel(tuple(self) + (sym,))

    def __repr__(self):
        if not self:
            return "(1)"
        parts = []
        for s in self:
            if is_one(s):
                parts.append("1")
            elif is_two(s):
                parts.append(f"2_{s[1]}[{s[2]}]")
            else:
                parts.append(f"3_{s[1]}")
        return "(" + " ".join(parts) + ")"


IDENTITY_LEVEL = LevelLabel(())


def _weave_pattern(lengths, inserts, at):
    """Bracket keys of one (level, row) shape, as positions in a source.

    The level's 2 symbols split its 3 symbols into runs of `lengths`, the
    row's completions its insertions into runs of `inserts`.  One key per
    weave of each insertion run through the matching run of finished
    symbols, weaves taken as `itertools.product` over the runs; a key
    lists its channels as positions in the source: the level's 3-channels
    from 0, its 2-channels after them, the row's insertions from `at`.  The
    weaves of a run go as `itertools.combinations` of the insertions'
    places.
    """
    n3, per_run, t, i = sum(lengths), [], 0, at
    for a, b in zip(lengths, inserts):
        per_run.append([])
        for places in combinations(range(a + b), b):
            done, ins = iter(range(t, t + a)), iter(range(i, i + b))
            per_run[-1].append(tuple(next(ins) if p in places else next(done)
                                     for p in range(a + b)))
        t, i = t + a, i + b
    return [sum(((n3 + r - 1,) + run if r else run
                 for r, run in enumerate(weave)), ())
            for weave in product(*per_run)]


def _rows(n2, n_channels, most):
    """Completion rows of `n2` in-progress terms, up to `most` insertions.

    A row inserts terms, channels taken as `itertools.product`, at the
    places of each `itertools.combinations` weave into the completions;
    rows of fewer insertions come first.  Returns each row's insertions
    per run between completions and its insertion channels, padded with 0
    to ``n2 + most + 1`` and ``n2 + most`` columns.
    """
    runs, chans = [], []
    for j in range(most + 1):
        for channels in product(range(n_channels), repeat=j):
            for places in combinations(range(n2 + j), j):
                runs.append([0] * (n2 + most + 1))
                for i, place in enumerate(places):
                    runs[-1][place - i] += 1
                chans.append(channels + (0,) * (n2 + most - j))
    return (np.array(runs, dtype=np.intp),
            np.array(chans, dtype=np.intp).reshape(len(runs), n2 + most))


def _lexicographic(rows):
    """Integer ids of the rows of `rows` (small non-negative integers),
    ordered as the rows are lexicographically."""
    ids = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        if ids.max(initial=0) >= 2 ** 31:  # keeps the next product in range
            ids = np.unique(ids, return_inverse=True)[1].reshape(-1)
        ids = ids * (int(column.max(initial=0)) + 1) + column
    return np.unique(ids, return_inverse=True)[1].reshape(-1)


def block_keys(levels, symbols, order):
    """Row-compression blocks of `levels` at `order`, and their keys.

    Each level is read once into integer arrays: its symbols as codes in
    the sorted `symbols`, its runs of 3 symbols, channels and 2-sequence.
    Levels with ``n2 >= 1`` and ``n2 + n3 <= order`` form blocks, one per
    (2-sequence, ``n3``), ordered by ``n2``, ``n3`` and 2-sequence.  A
    block's columns are the levels of its 2-sequence with ``n3`` up to its
    own, in that order and then by position; its rows are the completion
    rows of its ``n2`` with at most ``order - n2 - n3`` insertions.  The
    coefficient of a column along a row sums one bracket key per weave of
    the row's insertions through the level's finished symbols (see
    `_weave_pattern`).

    The (row, column) pairs of all blocks, block by block and row-major,
    are enumerated at once: one pattern per pair shape, one gather, and a
    key coded as an integer in base ``channels + 1``.  Keys are numbered
    in the order the pairs first reach them.  Returns a block as ``(n2,
    n3, 2-sequence, columns, number of earlier columns, index)``, with
    ``index[t, i, j]`` the number of the `t`-th key of column `j` along
    row `i` (-1 pads), and the keys as tuples of channels.
    """
    channels = sorted({sym[1] for sym in symbols})
    if (len(channels) + 1) ** order >= 2 ** 63:
        raise ValueError(f"{len(channels)} channels at order {order} "
                         "overflow the 64-bit bracket key codes")
    code = {sym: i for i, sym in enumerate(symbols)}
    kind = np.array([int(sym[0]) for sym in symbols] + [0])
    chan = np.array([channels.index(sym[1]) for sym in symbols] + [-1])
    width = max(order, max(map(len, levels), default=0))
    syms = np.full((len(levels), width), -1, dtype=np.intp)
    syms[np.arange(width) < np.array([len(l) for l in levels])[:, None]] = \
        [code[sym] for lvl in levels for sym in lvl]
    k = kind[syms]
    n2, n3 = (k == 2).sum(axis=1), (k == 3).sum(axis=1)
    # channels of the 3 symbols, then of the 2 symbols, in factor order
    source = chan[np.take_along_axis(syms, np.argsort(
        (k == 2) + 2 * (k == 0), axis=1, kind="stable"), axis=1)]
    twos = np.take_along_axis(syms + 1, np.argsort(
        k != 2, axis=1, kind="stable"), axis=1)
    twos[np.arange(width) >= n2[:, None]] = 0
    runs = ((k == 3)[:, :, None] & (np.cumsum(k == 2, axis=1)[:, :, None]
                                    == np.arange(width + 1))).sum(axis=1)
    # a block per (2-sequence, n3); its columns run from the first level
    # of its 2-sequence to its own last
    cseq = _lexicographic(twos)
    cols = np.flatnonzero((n2 >= 1) & (n2 + n3 <= order))
    if not len(cols):
        return [], []
    cols = cols[np.lexsort((cols, n3[cols], cseq[cols]))]
    seq, own = cseq[cols], n3[cols]
    new_seq = np.append(True, seq[1:] != seq[:-1])
    start = np.flatnonzero(new_seq | np.append(True, own[1:] != own[:-1]))
    end = np.append(start[1:], len(cols))
    first = np.maximum.accumulate(np.where(new_seq, np.arange(len(cols)),
                                           0))[start]
    blocks = np.lexsort((seq[start], own[start], n2[cols[start]]))
    start, end, first = start[blocks], end[blocks], first[blocks]
    b_n2, b_n3 = n2[cols[start]], own[start]

    # the (row, column) pairs of all blocks, block by block and row-major
    tables = [_rows(m, len(channels), order - m) for m in range(1, order + 1)]
    row_runs, row_chans = (np.concatenate(t) for t in zip(*tables))
    row_at = np.cumsum([0] + [len(r) for r, _ in tables])
    # the rows of at most j insertions are a prefix of the n2 table
    n_rows = np.array([np.bincount(r.sum(axis=1), minlength=order + 1)
                       .cumsum() for r, _ in tables])[b_n2 - 1,
                                                       order - b_n2 - b_n3]
    n_cols = end - first
    size = n_rows * n_cols
    at = np.cumsum(size) - size
    block = np.repeat(np.arange(len(start)), size)
    within = np.arange(size.sum()) - at[block]
    pair_row = row_at[b_n2 - 1][block] + within // n_cols[block]
    pair_col = cols[first[block] + within % n_cols[block]]

    # one weave pattern per pair shape, then the keys of all pairs at once
    shape = _lexicographic(np.column_stack([n2[pair_col], runs[pair_col],
                                            row_runs[pair_row]]))
    _, one = np.unique(shape, return_index=True)
    patterns = [_weave_pattern(runs[c, :m + 1].tolist(),
                               row_runs[r, :m + 1].tolist(), width)
                for c, r, m in zip(pair_col[one], pair_row[one],
                                   n2[pair_col[one]].tolist())]
    depth = np.array([len(p) for p in patterns], dtype=np.intp)[shape]
    table = np.full((len(one), depth.max(initial=1), order), width + order,
                    dtype=np.intp)
    for g, pattern in enumerate(patterns):
        for t, key in enumerate(pattern):
            table[g, t, :len(key)] = key
    src = np.column_stack([source[pair_col], row_chans[pair_row],
                           np.full(len(shape), -1)]) + 1
    gathered = src[np.arange(len(shape))[:, None, None], table[shape]]
    reached = np.arange(table.shape[1]) < depth[:, None]
    unique, seen, inverse = np.unique(
        gathered[reached] @ (len(channels) + 1) ** np.arange(order),
        return_index=True, return_inverse=True)
    by_reach = np.argsort(seen)
    number = np.empty(len(unique), dtype=np.intp)
    number[by_reach] = np.arange(len(unique))
    index = np.full(reached.shape, -1, dtype=np.intp)
    index[reached] = number[inverse.reshape(-1)]
    keys = [tuple(channels[c - 1] for c in key if c)
            for key in gathered[reached][seen[by_reach]].tolist()]
    widths = np.maximum.reduceat(depth, at)
    return [(m, t, levels[cols[s]].two_sequence(), cols[f:e], s - f,
             index[lo:lo + r * (e - f), :w].T.reshape(w, r, e - f))
            for m, t, s, f, e, lo, r, w in zip(*(a.tolist() for a in (
                b_n2, b_n3, start, first, end, at, n_rows, widths)))], keys
