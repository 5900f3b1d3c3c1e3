"""Extensive (applicable) MPOs built from powers of Hamiltonian MPOs.

The evolution-operator constructions all follow the same pattern: form the
N-th power of a Hamiltonian's channel MPOs, each channel with its own
finishing level (`_transitions`), label its virtual levels by
per-factor FSM states, reroute every fully finished level back into the
identity level with the appropriate scalar weight, and drop the rerouted
levels.  What remains has no upper-triangular termination structure and can
be applied to a state directly.

Powers are never materialized over the full set of symbol tuples.  Levels
that agree after deleting 1 symbols have identical operator histories and
are merged on the fly, so the construction works directly with stripped
labels, each interned once as an integer id (`_power`).  A step of the
power is a handful of array passes over its (entry, transition) pairs;
the nested-tuple labels are made once, for the levels of the result.

The power depends on the Hamiltonian's operators and the order, the weights
on the step.  A `PowerPlan` holds the power once, as arrays, so a weighting
costs one gather of the weights and one scatter-add into the identity
column.  Every step of one order shares a plan: the Dyson steps (and so
the Magnus steps, which are the same) weight it with their bracket tables,
the frozen-midpoint Taylor step with a frozen table
(`brackets.BracketTable.frozen`).

An `ExtensiveMPO` is built one way, from coordinate arrays: the level
index pairs of its nonzero blocks and the blocks.  The power plan, row
compression and the bulk stage all make their tensors in that form, and
every read of the MPO (dense site tensor, transfer operators, dense
operator) derives from it.  It carries its two boundary vectors.  Those of
a power, and of its row compression, are one-hot on the identity level,
and its levels carry labels; the bulk MPO that `bulk.bulk_compress`
factors from a wide step has combined levels, no labels, and boundary
vectors of its own.
"""

import time

import numpy as np

from .fdmpo import dense_chain, one_hot
from .levels import IDENTITY_LEVEL, ONE, LevelLabel, is_one, is_three, three, two


class ExtensiveMPO:
    """MPO without termination structure, with its two boundary vectors.

    ``ExtensiveMPO(d, levels, rows, cols, blocks)`` is the operator-valued
    site tensor with ``W[rows[i], cols[i]] = blocks[i]`` and zero
    elsewhere; the ``(rows[i], cols[i])`` pairs must be distinct.  These
    coordinate arrays (`coo`) are the one form of the tensor: the dense
    `site_tensor`, the `transfer` operators and `to_dense` are reads of
    them.

    Attributes
    ----------
    d : int
        Physical dimension.
    bond_dimension : int
        Number of virtual levels ``D_w``.
    levels : list of LevelLabel, or None
        Ordered virtual levels, the identity level first.  The constructor
        takes either these labels or, for a bulk MPO
        (`bulk.bulk_compress`), whose levels are combinations of labelled
        ones, the bond dimension alone; `levels` is then None.
    boundary : (left, right)
        Vectors of length ``D_w``: the operator on ``n >= 1`` sites is
        ``left^T W ... W right``.  One-hot on level 0 unless given.
    order : int
        Expansion order N the MPO is accurate to.
    params : dict
        Construction record: the `PowerPlan` it came from (``"plan"``) and
        the table it was weighted with (``"brackets"``), as far as known.
    """

    def __init__(self, d, levels, rows, cols, blocks, order=0, params=None,
                 boundary=None):
        self.d = int(d)
        if isinstance(levels, (int, np.integer)):
            self.levels, self.bond_dimension = None, int(levels)
        else:
            self.levels = list(levels)
            self.bond_dimension = len(self.levels)
            if self.levels and self.levels[0] != IDENTITY_LEVEL:
                raise ValueError("the first level must be the identity "
                                 "level, on which both boundary vectors are "
                                 "one-hot")
        if boundary is None:
            edge = one_hot(self.bond_dimension, 0)
            boundary = (edge, edge)
        self.boundary = tuple(np.asarray(v, dtype=complex) for v in boundary)
        self.order = int(order)
        self.params = dict(params or {})
        self._coo = (rows, cols, blocks)
        self._transfer = None

    def coo(self):
        """``(rows, cols, blocks)``: level indices and (d, d) blocks."""
        return self._coo

    @property
    def n_blocks(self):
        """Number of nonzero (left, right) blocks."""
        return int(self._coo[2].any(axis=(1, 2)).sum())

    def site_tensor(self):
        """Dense site tensor with index order (left, right, out, in)."""
        n = self.bond_dimension
        rows, cols, blocks = self._coo
        w = np.zeros((n, n, self.d, self.d), dtype=complex)
        w[rows, cols] = blocks
        return w

    def transfer(self):
        """``(left, right)`` transfer operators, built on first use.

        With ``W[a, b, s, p]`` the site tensor (left, right, out, in), both
        are ``(D_w*d, D_w*d)`` matrices: `left` maps ``(a, p)`` to ``(b,
        s)`` for the left-to-right sweep, and `right` maps ``(b, p)`` to
        ``(a, s)`` for the right-to-left one.  Both are dense arrays, filled
        from the nonzero entries of the coordinate blocks.
        """
        if self._transfer is None:
            rows, cols, blocks = self._coo
            k, s, p = blocks.nonzero()
            vals = blocks[k, s, p]
            d = self.d
            a, b = rows[k] * d, cols[k] * d
            size = self.bond_dimension * d
            pairs = ((b + s, a + p), (a + s, b + p))  # (row, column)
            ops = [np.zeros((size, size), dtype=complex) for _ in pairs]
            for op, ij in zip(ops, pairs):
                op[ij] = vals
            self._transfer = tuple(ops)
        return self._transfer

    def to_dense(self, n_sites):
        """Dense operator on `n_sites` sites between the boundary vectors
        (`fdmpo.dense_chain` over the coordinate arrays, bounded by
        `fdmpo.DENSE_CAP`)."""
        return dense_chain(*self.coo(), self.bond_dimension, *self.boundary,
                           n_sites)

    def __repr__(self):
        return (f"ExtensiveMPO(d={self.d}, bond={self.bond_dimension}, "
                f"order={self.order})")


def _transitions(hamiltonian):
    """The ``(x, y, op)`` transitions of `hamiltonian`'s channel MPOs that
    append a symbol, channel by channel.

    Each channel `a` has its own finishing level ``3_a``, so a power's
    level labels record which channel acted in which factor.  Transitions
    into ``3_a`` are kept as bare operators; the channel's driving enters
    as the weight of the finished levels (`PowerPlan.mpo`).  The ``1 -> 1``
    identity, which appends no symbol, is not listed.
    """
    eye = np.eye(hamiltonian.d, dtype=complex)
    trans = []
    for c in hamiltonian.channels:
        name, h = c.name, c.operator
        for k, op in h.L.items():
            trans.append((ONE, two(name, k), op))
        if h.D is not None:
            trans.append((ONE, three(name), h.D))
        for (i, j), op in h.A.items():
            trans.append((two(name, i), two(name, j), op))
        for k, op in h.R.items():
            trans.append((two(name, k), three(name), op))
        trans.append((three(name), three(name), eye))
    return trans


def scatter_add(out, slot, add):
    """``out[slot[i]] += add[i]`` for each `i` in turn, in place.

    `out` is a C-contiguous complex stack, `add` complex blocks of its
    shape.  A complex sum is the sum of its real parts and the sum of its
    imaginary parts, so the adds run as one unbuffered `np.add.at`, in
    index order, on the float views: block `i`'s floats go to ``slot[i] *
    size + arange(size)``.  Each entry of `out` thus sums its terms in
    position order, bit for bit as the loop does.
    """
    size = 2 * int(np.prod(out.shape[1:]))
    index = slot[:, None] * size + np.arange(size)
    np.add.at(out.reshape(-1, copy=False).view(np.float64), index.reshape(-1),
              add.reshape(-1).view(np.float64))


def _power(hamiltonian, n):
    """Column-merged `n`-th power of `hamiltonian`, over label ids.

    A stripped label (no 1 symbols) is interned once: ``labels[i]`` is its
    tuple of symbols, id 0 the empty label, and a table ``(id, symbol) ->
    id`` names the label one factor longer.  Each step appends one factor
    to the entries the step before made.  Their (entry, transition) pairs
    are keyed on index arrays, the products are one `np.matmul` over
    stacks, and the products falling on one entry are summed in pair
    order (`scatter_add`).  So the entries come in the order, and with the
    sums, of a step-by-step dictionary build.

    Returns ``(labels, finished, (src, dst, blocks))``: whether each label
    is finished (3 symbols only), and the entries as label ids and blocks.
    """
    trans = _transitions(hamiltonian)
    d = hamiltonian.d
    symbols = list(dict.fromkeys(s for x, y, _ in trans for s in (x, y)
                                 if not is_one(s)))
    code = {sym: i for i, sym in enumerate(symbols)}
    tx = np.array([-1 if is_one(x) else code[x] for x, _, _ in trans],
                  dtype=np.intp)
    ty = np.array([code[y] for _, y, _ in trans], dtype=np.intp)
    t_ops = np.array([op for _, _, op in trans], dtype=complex)
    labels, finished, child = [()], [False], {}

    def children(parents, codes):
        """Ids of the labels `parents` extended by `codes`; -1 keeps the
        parent (a 1 symbol)."""
        out = parents.copy()
        own = codes >= 0
        keys, inverse = np.unique(parents[own] * len(symbols) + codes[own],
                                  return_inverse=True)
        for key in keys.tolist():
            if key not in child:
                p, c = divmod(key, len(symbols))
                child[key] = len(labels)
                labels.append(labels[p] + (symbols[c],))
                finished.append(is_three(symbols[c]) and (finished[p] or not p))
        out[own] = np.array([child[k] for k in keys.tolist()],
                            dtype=np.intp)[inverse.reshape(-1)]
        return out

    src = dst = np.zeros(1, dtype=np.intp)
    steps = [(src, dst, np.eye(d, dtype=complex)[None])]
    for k in range(n):
        a = children(np.repeat(src, len(trans)), np.tile(tx, len(src)))
        b = children(np.repeat(dst, len(trans)), np.tile(ty, len(src)))
        # the first factor sums its operators from 0, as a dictionary does
        prods = t_ops + 0.0 if k == 0 else np.matmul(
            steps[-1][2][:, None], t_ops[None]).reshape(-1, d, d)
        _, at, inverse = np.unique(a * len(labels) + b, return_index=True,
                                   return_inverse=True)
        rank = np.empty(len(at), dtype=np.intp)
        rank[np.argsort(at)] = np.arange(len(at))
        at.sort()
        # each entry starts as its first product, then adds the others
        rest = np.ones(len(a), dtype=bool)
        rest[at] = False
        ops = prods[at]
        scatter_add(ops, rank[inverse.reshape(-1)[rest]], prods[rest])
        src, dst = a[at], b[at]
        steps.append((src, dst, ops))
    return (labels, np.array(finished),
            tuple(np.concatenate(part) for part in zip(*steps)))


class PowerPlan:
    """The stripped `n`-th power of `hamiltonian`, a
    `driving.TimeDependentHamiltonian`, rerouted under many weightings.

    The power reads the channel operators, not their drivings, and is
    built on the first call of `mpo` (`_power`).  Its unfinished levels,
    identity first and the rest by (length, label), are the `levels` of
    every MPO the plan makes.  `compression` is left
    to `row_compress`, which keeps its plan for these levels there.
    `plan_s` sums the seconds spent building the power and, in
    `row_compress`, the compression plan.
    """

    def __init__(self, hamiltonian, n):
        self.hamiltonian = hamiltonian
        self.order = int(n)
        self.levels = None
        self.compression = None
        self.plan_s = 0.0

    def _build(self):
        labels, finished, (src, dst, blocks) = _power(self.hamiltonian,
                                                      self.order)
        ids = sorted(np.flatnonzero(~finished).tolist(),
                     key=lambda i: (len(labels[i]), labels[i]))
        self.levels = [LevelLabel(labels[i]) for i in ids]
        index = np.full(len(labels), -1, dtype=np.intp)
        index[ids] = np.arange(len(ids))
        live = ~finished[src]
        src, dst, blocks = src[live], dst[live], blocks[live]
        # weight slots: finished levels by first entry; -1 (weight 1)
        # for the identity
        ends, at = np.unique(dst[finished[dst]], return_index=True)
        ends = ends[np.argsort(at)]
        self.sigmas = [tuple(sym[1] for sym in labels[i])
                       for i in ends.tolist()]
        slot = np.full(len(labels), -1, dtype=np.intp)
        slot[ends] = np.arange(len(ends))
        out = finished[dst] | (dst == 0)
        self._fixed = (index[src[~out]], index[dst[~out]], blocks[~out])
        self._rerouted = (index[src[out]], slot[dst[out]], blocks[out])

    def mpo(self, weight_of):
        """Rerouted power: each finished level folds into the identity level.

        `weight_of` maps the channel subscripts of a finished level's 3
        symbols (in factor order) to the scalar it contributes.  The
        identity-column entry of each level sums its weighted entries in
        the order the power built them; entries of weight 0 are left out.
        """
        if self.levels is None:
            start = time.perf_counter()
            self._build()
            self.plan_s += time.perf_counter() - start
        d = self.hamiltonian.d
        weights = np.array([weight_of(s) for s in self.sigmas] + [1.0],
                           dtype=complex)
        rows, slots, blocks = self._rerouted
        w = weights[slots]
        live = w != 0
        rows = rows[live]
        column = np.zeros((len(self.levels), d, d), dtype=complex)
        scatter_add(column, rows, w[live, None, None] * blocks[live])
        hit = np.unique(rows)
        f_rows, f_cols, f_blocks = self._fixed
        return ExtensiveMPO(
            d, self.levels, np.concatenate([hit, f_rows]),
            np.concatenate([np.zeros_like(hit), f_cols]),
            np.concatenate([column[hit], f_blocks]), order=self.order,
            params={"plan": self})
