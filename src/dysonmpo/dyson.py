"""Dyson-series and Magnus MPOs for time-dependent Hamiltonians.

Each driving channel gets its own finishing level in the rewired
Hamiltonian, so the level labels of its powers record which channel acted
in which factor (time) slot.  Folding a finished level back into the
identity level then picks up the time-ordered integral of the matching
driving-function sequence, read with the latest time first.  These
brackets, from `BracketTable`, are the only numbers a step reads; the
power's levels and entries come from its `PowerPlan`.
"""

import numpy as np

from .extensive import ExtensiveMPO, PowerPlan, RewiredHamiltonian
from .levels import IDENTITY_LEVEL


def identity_mpo(d):
    """The exact identity operator as a bond-dimension-1 extensive MPO."""
    zero = np.zeros(1, dtype=np.intp)
    return ExtensiveMPO(d, [IDENTITY_LEVEL], zero, zero,
                        np.eye(d, dtype=complex)[None])


def dyson_mpo(hamiltonian, t0, t, order, integrals, plan=None):
    """N-th order Dyson MPO of the evolution operator on ``[t0, t]``.

    `integrals` must hold all brackets of the Hamiltonian's channels up to
    `order`, computed on ``[t0, t]``, or be a frozen table without an
    interval (`BracketTable.frozen`), which makes the Taylor series of a
    frozen Hamiltonian.  A degenerate interval returns the exact identity.
    `plan` is the `PowerPlan` of the Hamiltonian's rewired form at `order`,
    which the steps of a sweep share; without one, this call builds its
    own.  The MPO's ``params`` hold the plan and, under ``"brackets"``, the
    table, which `row_compress` reads.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if integrals.max_order < order:
        raise ValueError(
            f"bracket table of order {integrals.max_order} cannot build an "
            f"order-{order} Dyson MPO")
    if integrals.interval is not None:
        i0, i1 = integrals.interval
        if abs(i0 - t0) > 1e-12 or abs(i1 - t) > 1e-12:
            raise ValueError("bracket table interval does not match [t0, t]")
    if t == t0:
        return identity_mpo(hamiltonian.d)
    if plan is None:
        plan = PowerPlan(RewiredHamiltonian.from_hamiltonian(hamiltonian),
                         order)
    elif plan.order != order:
        raise ValueError(f"an order-{plan.order} plan cannot build an "
                         f"order-{order} Dyson MPO")
    try:
        mpo = plan.mpo(integrals.value)
    except KeyError as exc:
        raise ValueError(f"missing bracket: {exc}") from exc
    mpo.params["brackets"] = integrals
    return mpo


def magnus_evolution(hamiltonian, t0, t, order, integrals, plan=None):
    """Order-`order` Magnus MPO of the evolution operator on ``[t0, t]``.

    The brackets of ``[t0, t]`` are the signature of the drivings, and the
    Magnus operator Omega is its logarithm in the tensor algebra of
    channel words (Chen, Ann. Math. 65, 163 (1957); Blanes, Casas, Oteo &
    Ros, Phys. Rep. 470, 151 (2009)).  So ``exp(Omega)``, truncated to
    words of at most `order` letters, is the bracket table itself, and the
    order-N Magnus MPO is the order-N Dyson MPO: this returns `dyson_mpo`
    of the same arguments.
    """
    return dyson_mpo(hamiltonian, t0, t, order, integrals, plan=plan)
