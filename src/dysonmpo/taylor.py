"""Extensive Taylor MPOs for time-independent Hamiltonians.

The N-th order construction forms the level structure of ``H**N`` and folds
every fully finished level back into the identity level; a level whose
stripped label carries k finished symbols contributes the weight
``tau**k / k!``.  The first-order tensor is

    ( 1 + tau D   L )
    ( tau R       A )

which reduces to the identity at ``tau = 0``.  The MPO records its step
``tau``, from which `row_compress` takes the brackets ``tau**k / k!``.
`taylor_family` keeps the same entries as polynomials in ``tau``, for
exact derivatives at zero.
"""

import math

import numpy as np

from .brackets import TaylorBrackets
from .extensive import (ExtensiveMPO, PowerPlan, RewiredHamiltonian,
                        build_power_stripped)
from .fdmpo import DENSE_CAP
from .levels import IDENTITY_LEVEL


def taylor_mpo(h, tau, order):
    """N-th order Taylor MPO of ``exp(tau * H)``.

    Each strip-ones class of finished levels is folded once, with the
    weight ``tau**n3 / n3!``.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    tau = complex(tau)
    plan = PowerPlan(RewiredHamiltonian.from_static(h), order)
    mpo = plan.mpo(TaylorBrackets(tau, order).value)
    mpo.params.update(tau=tau, kind="taylor")
    return mpo


def taylor_first_order(h, tau):
    """First-order Taylor MPO; identical to ``taylor_mpo(h, tau, 1)``."""
    return taylor_mpo(h, tau, 1)


class TaylorFamily:
    """Taylor MPO with entries kept as polynomials in the step ``tau``.

    Entries map level pairs to ``{power: operator}`` dictionaries, which
    makes differentiation at ``tau = 0`` exact.
    """

    def __init__(self, d, levels, entries, order):
        self.d = d
        self.levels = list(levels)
        self.entries = entries
        self.order = order

    def at(self, tau):
        tau = complex(tau)
        out = {}
        for key, poly in self.entries.items():
            acc = 0
            for power, op in poly.items():
                acc = acc + tau ** power * op
            out[key] = acc
        mpo = ExtensiveMPO(self.d, self.levels, out, order=self.order,
                           params={"tau": tau, "kind": "taylor"})
        return mpo


def taylor_family(h, order):
    """Polynomial-in-tau form of :func:`taylor_mpo`."""
    if order < 1:
        raise ValueError("order must be at least 1")
    rew = RewiredHamiltonian.from_static(h)
    levels, entries = build_power_stripped(rew, order)
    finished = {lvl for lvl in levels if lvl.n2 == 0 and lvl.n3 >= 1}
    fam = {}

    def put(key, power, op):
        poly = fam.setdefault(key, {})
        poly[power] = poly.get(power, 0) + op

    for (a, b), op in entries.items():
        if a in finished:
            continue
        if b in finished:
            k = b.n3
            put((a, IDENTITY_LEVEL), k, op / math.factorial(k))
        else:
            put((a, b), 0, op)
    kept = sorted((l for l in levels if l not in finished), key=lambda l: (len(l), l))
    return TaylorFamily(h.d, kept, fam, order)


def mpo_derivative_at_zero(family, p, n_sites, cap=DENSE_CAP):
    """Dense ``(1/p!) d^p/dtau^p`` of the family's expansion at ``tau = 0``.

    Uses the block construction for derivatives of one-parameter tensor
    families: site tensors become ``(p+1) x (p+1)`` upper-triangular block
    matrices whose ``(i, j)`` block is the coefficient of ``tau**(j-i)``,
    with boundaries selecting block row 0 on the left and block column `p`
    on the right.
    """
    if p < 1:
        raise ValueError("derivative order must be at least 1")
    d = family.d
    if d ** n_sites > cap:
        raise ValueError("dense cap exceeded")
    env = {(0, IDENTITY_LEVEL): np.array([[1.0 + 0.0j]])}
    for _ in range(n_sites):
        new = {}
        for (i, a), acc in env.items():
            for (aa, b), poly in family.entries.items():
                if aa != a:
                    continue
                for power, op in poly.items():
                    j = i + power
                    if j > p:
                        continue
                    key = (j, b)
                    term = np.kron(acc, op)
                    if key in new:
                        new[key] += term
                    else:
                        new[key] = term
        env = new
    dim = d ** n_sites
    return env.get((p, IDENTITY_LEVEL), np.zeros((dim, dim), dtype=complex))
