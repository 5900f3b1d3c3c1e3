"""Extensive (applicable) MPOs built from powers of Hamiltonian MPOs.

The evolution-operator constructions all follow the same pattern: form the
N-th power of a (rewired) Hamiltonian MPO, label its virtual levels by
per-factor FSM states, reroute every fully finished level back into the
identity level with the appropriate scalar weight, and drop the rerouted
levels.  What remains has no upper-triangular termination structure and can
be applied to a state directly.

Powers are never materialized over the full set of symbol tuples.  Levels
that agree after deleting 1 symbols have identical operator histories and
are merged on the fly, so the construction works directly with stripped
labels (`build_power_stripped`).

The power depends on the Hamiltonian's operators and the order, the weights
on the step.  A `PowerPlan` holds the power once, as arrays, so a weighting
costs one gather of the weights and one scatter-add into the identity
column.  The Dyson and Magnus steps of one order share a plan; a Taylor
operator changes with the step, so each Taylor MPO gets a plan of its own.
"""

import numpy as np

from .fdmpo import DENSE_CAP
from .levels import IDENTITY_LEVEL, ONE, LevelLabel, is_one, three, two


class ExtensiveMPO:
    """Level-labelled MPO without termination structure.

    Attributes
    ----------
    d : int
        Physical dimension.
    levels : list of LevelLabel
        Ordered virtual levels; the identity level comes first.
    entries : dict (LevelLabel, LevelLabel) -> (d, d) array
        Operator-valued tensor; absent entries are zero.
    order : int
        Expansion order N the MPO is accurate to.
    params : dict
        Construction record (kind, interval, the brackets it was weighted
        with, and the `PowerPlan` it came from).

    The tensor is held as coordinate arrays (`coo`) or, after row
    compression, as the dense `site_tensor`; `entries` is derived on first
    use.
    """

    def __init__(self, d, levels, entries, order=0, params=None):
        levels = list(levels)
        if levels and levels[0] != IDENTITY_LEVEL:
            if IDENTITY_LEVEL in levels:
                levels.remove(IDENTITY_LEVEL)
            levels.insert(0, IDENTITY_LEVEL)
        entries = dict(entries)
        index = {lvl: i for i, lvl in enumerate(levels)}
        rows = np.array([index[a] for a, _ in entries], dtype=np.intp)
        cols = np.array([index[b] for _, b in entries], dtype=np.intp)
        blocks = np.array(list(entries.values()), dtype=complex)
        self._set(d, levels, order, params,
                  coo=(rows, cols, blocks.reshape(-1, int(d), int(d))))
        self._entries = entries

    @classmethod
    def from_arrays(cls, d, levels, rows, cols, blocks, order=0, params=None):
        """MPO with ``W[levels[rows[i]], levels[cols[i]]] = blocks[i]``.

        The ``(rows[i], cols[i])`` pairs must be distinct, and
        ``levels[0]`` the identity level.
        """
        mpo = cls.__new__(cls)
        mpo._set(d, levels, order, params, coo=(rows, cols, blocks))
        return mpo

    @classmethod
    def from_site_tensor(cls, d, levels, site, order=0, params=None):
        """MPO held as its dense ``(left, right, out, in)`` site tensor.

        `site` is made read-only: `site_tensor` hands out this array.
        """
        mpo = cls.__new__(cls)
        site.flags.writeable = False
        mpo._set(d, levels, order, params, site=site)
        return mpo

    def _set(self, d, levels, order, params, coo=None, site=None):
        self.d = int(d)
        self.levels = list(levels)
        self.order = int(order)
        self.params = dict(params or {})
        self._coo = coo
        self._site = site
        self._entries = None

    @property
    def bond_dimension(self):
        return len(self.levels)

    @property
    def entries(self):
        if self._entries is None:
            rows, cols, blocks = self.coo()
            lv = self.levels
            self._entries = {(lv[a], lv[b]): op
                             for a, b, op in zip(rows.tolist(), cols.tolist(),
                                                 blocks)}
        return self._entries

    def entry(self, a, b):
        return self.entries.get((a, b))

    def coo(self):
        """``(rows, cols, blocks)``: level indices and (d, d) blocks."""
        if self._coo is None:
            rows, cols = np.nonzero(np.any(self._site != 0, axis=(2, 3)))
            self._coo = (rows, cols, self._site[rows, cols])
        return self._coo

    def site_tensor(self):
        """Dense site tensor with index order (left, right, out, in).

        An MPO held densely returns its own, read-only array.
        """
        if self._site is not None:
            return self._site
        n = len(self.levels)
        rows, cols, blocks = self.coo()
        w = np.zeros((n, n, self.d, self.d), dtype=complex)
        w[rows, cols] = blocks
        return w

    def boundary_index(self):
        return self.levels.index(IDENTITY_LEVEL)

    def to_dense(self, n_sites, cap=DENSE_CAP):
        """Dense operator on `n_sites` sites, boundaries on the identity level."""
        if self.d ** n_sites > cap:
            raise ValueError(
                f"d**n_sites = {self.d ** n_sites} exceeds cap {cap}")
        env = {IDENTITY_LEVEL: np.array([[1.0 + 0.0j]])}
        by_source = {}
        for (a, b), op in self.entries.items():
            by_source.setdefault(a, []).append((b, op))
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
        dim = self.d ** n_sites
        return env.get(IDENTITY_LEVEL, np.zeros((dim, dim), dtype=complex))

    def __repr__(self):
        return (f"ExtensiveMPO(d={self.d}, bond={self.bond_dimension}, "
                f"order={self.order})")


class RewiredHamiltonian:
    """Hamiltonian MPO with a separate finishing level per driving channel.

    Transitions into the ``3_a`` level of channel `a` carry the channel's
    driving weight; the construction keeps them as bare operators tagged by
    the level label, and the weight is supplied when finished levels are
    rerouted (time-ordered integrals).
    """

    def __init__(self, channels, d):
        # channels: list of (name, FirstDegreeMPO, driving-or-None)
        self.channels = list(channels)
        self.d = int(d)
        self._transitions = self._build_transitions()

    @classmethod
    def from_hamiltonian(cls, hamiltonian):
        chans = [(c.name, c.operator, c.driving) for c in hamiltonian.channels]
        return cls(chans, hamiltonian.d)

    @classmethod
    def from_static(cls, h, name="h"):
        return cls([(name, h, None)], h.d)

    def _build_transitions(self):
        eye = np.eye(self.d, dtype=complex)
        trans = [(ONE, ONE, eye)]
        for name, h, _ in self.channels:
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


def build_power_stripped(rew, n):
    """Column-merged `n`-th power of a rewired Hamiltonian.

    Levels are stripped labels (no 1 symbols); each product step appends one
    factor and folds the new strip-ones classes into their representative,
    so the intermediate size never exceeds that of the merged result.
    Returns ``(levels, entries)``.
    """
    eye = np.eye(rew.d, dtype=complex)
    append_trans = [(x, y, op) for (x, y, op) in rew._transitions
                    if not is_one(y)]
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


class PowerPlan:
    """The stripped `n`-th power of `rew`, rerouted under many weightings.

    The power is built on the first call of `mpo`.  Its unfinished levels,
    identity first and the rest by (length, label), are the `levels` of
    every MPO the plan makes.  `compression` is left to `row_compress`,
    which keeps its plan for these levels there.
    """

    def __init__(self, rew, n):
        self.rew = rew
        self.order = int(n)
        self.levels = None
        self.compression = None

    def _build(self):
        levels, entries = build_power_stripped(self.rew, self.order)
        finished = {lvl for lvl in levels if lvl.n2 == 0 and lvl.n3 >= 1}
        self.levels = sorted((l for l in levels if l not in finished),
                             key=lambda l: (len(l), l))
        index = {lvl: i for i, lvl in enumerate(self.levels)}
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
        self.sigmas = list(sigmas)
        self._fixed = _columns(fixed, self.rew.d)
        self._rerouted = _columns(rerouted, self.rew.d)

    def mpo(self, weight_of):
        """Rerouted power: each finished level folds into the identity level.

        `weight_of` maps the channel subscripts of a finished level's 3
        symbols (in factor order) to the scalar it contributes.  The
        identity-column entry of each level sums its weighted entries in
        the order the power built them; entries of weight 0 are left out.
        """
        if self.levels is None:
            self._build()
        d = self.rew.d
        weights = np.array([weight_of(s) for s in self.sigmas] + [1.0],
                           dtype=complex)
        rows, slots, blocks = self._rerouted
        w = weights[slots]
        live = w != 0
        rows = rows[live]
        column = np.zeros((len(self.levels), d, d), dtype=complex)
        np.add.at(column, rows, w[live, None, None] * blocks[live])
        hit = np.unique(rows)
        f_rows, f_cols, f_blocks = self._fixed
        return ExtensiveMPO.from_arrays(
            d, self.levels, np.concatenate([hit, f_rows]),
            np.concatenate([np.zeros_like(hit), f_cols]),
            np.concatenate([column[hit], f_blocks]), order=self.order,
            params={"plan": self})


def _columns(triples, d):
    """Three arrays from ``(int, int, (d, d) op)`` triples."""
    first = np.array([t[0] for t in triples], dtype=np.intp)
    second = np.array([t[1] for t in triples], dtype=np.intp)
    blocks = np.array([t[2] for t in triples], dtype=complex)
    return first, second, blocks.reshape(-1, d, d)
