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
        Construction record (expansion parameter, interval, bracket table).
    """

    def __init__(self, d, levels, entries, order=0, params=None):
        self.d = int(d)
        self.levels = list(levels)
        if self.levels and self.levels[0] != IDENTITY_LEVEL:
            if IDENTITY_LEVEL in self.levels:
                self.levels.remove(IDENTITY_LEVEL)
            self.levels.insert(0, IDENTITY_LEVEL)
        self.entries = dict(entries)
        self.order = int(order)
        self.params = dict(params or {})

    @property
    def bond_dimension(self):
        return len(self.levels)

    def entry(self, a, b):
        return self.entries.get((a, b))

    def copy(self):
        return ExtensiveMPO(self.d, list(self.levels),
                            {k: v.copy() for k, v in self.entries.items()},
                            order=self.order, params=dict(self.params))

    def site_tensor(self):
        """Dense site tensor with index order (left, right, out, in)."""
        n = len(self.levels)
        idx = {lvl: i for i, lvl in enumerate(self.levels)}
        w = np.zeros((n, n, self.d, self.d), dtype=complex)
        for (a, b), op in self.entries.items():
            w[idx[a], idx[b]] += op
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
    rerouted (time-ordered integrals) or when evaluating at a fixed time.
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

    def level_symbols(self):
        syms = []
        for name, h, _ in self.channels:
            syms.extend(two(name, k) for k in range(h.chi))
        syms.extend(three(name) for name, _, _ in self.channels)
        return syms

    def driving_value(self, name, t):
        for cname, _, drv in self.channels:
            if cname == name:
                return 1.0 if drv is None else drv(t)
        raise KeyError(name)

    def to_dense(self, n_sites, t, cap=DENSE_CAP):
        """Dense H(t): channel weights applied on the arrows into 3 levels."""
        if self.d ** n_sites > cap:
            raise ValueError("dense cap exceeded")
        dim = self.d ** n_sites
        total = np.zeros((dim, dim), dtype=complex)
        for name, h, drv in self.channels:
            f = 1.0 if drv is None else drv(t)
            total += f * h.to_dense(n_sites, cap=cap)
        return total


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


def reroute_finished_levels(levels, entries, weight_of):
    """Fold every level without 2 symbols into the identity level.

    `weight_of` maps the channel subscripts of a finished level's 3 symbols
    (in factor order) to the scalar it contributes.  Returns
    ``(levels, entries)`` of the rerouted MPO.
    """
    if IDENTITY_LEVEL not in levels:
        raise ValueError("power MPO lacks an identity level")
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


def build_evolution_mpo(rew, n, weight_of):
    """Shared driver: N-th power, reroute, identity-first level order."""
    levels, entries = build_power_stripped(rew, n)
    levels, entries = reroute_finished_levels(levels, entries, weight_of)
    levels = sorted(levels, key=lambda l: (len(l), l))
    return ExtensiveMPO(rew.d, levels, entries, order=n)
