"""Dyson-series and Magnus MPOs for time-dependent Hamiltonians.

Each driving channel gets its own finishing level in the powers of the
Hamiltonian (`extensive._transitions`), so their level labels record
which channel acted in which factor (time) slot.  Folding a finished level
back into the identity level then picks up the time-ordered integral of
the matching driving-function sequence, read with the latest time first.
These brackets, from `BracketTable`, are the only numbers a step reads;
the power's levels and entries come from its `PowerPlan`.  A step is thus
built from the Hamiltonian, its table and the order alone.
"""

import numpy as np

from .extensive import ExtensiveMPO, PowerPlan
from .levels import IDENTITY_LEVEL


def identity_mpo(d):
    """The exact identity operator as a bond-dimension-1 extensive MPO."""
    zero = np.zeros(1, dtype=np.intp)
    return ExtensiveMPO(d, [IDENTITY_LEVEL], zero, zero,
                        np.eye(d, dtype=complex)[None])


def dyson_mpo(hamiltonian, integrals, order, plan=None):
    """N-th order Dyson MPO of the evolution operator of a table's step.

    `integrals` must hold all brackets of the Hamiltonian's channels up to
    `order`, computed on the step's interval, or be a frozen table
    without an interval (`BracketTable.frozen`), which makes the Taylor
    series of a frozen Hamiltonian.  A table whose every entry is zero (an
    empty interval, a frozen ``tau = 0``, drivings that vanish on the
    step) returns the exact identity, of bond dimension 1.  `plan` is the
    `PowerPlan` of the Hamiltonian at `order`, which the steps of a sweep
    share; without one, this call builds its own.  The MPO's ``params``
    hold the plan and, under ``"brackets"``, the table, which
    `row_compress` reads.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if integrals.max_order < order:
        raise ValueError(
            f"bracket table of order {integrals.max_order} cannot build an "
            f"order-{order} Dyson MPO")
    if not any(integrals.values.values()):
        return identity_mpo(hamiltonian.d)
    if plan is None:
        plan = PowerPlan(hamiltonian, order)
    elif plan.order != order:
        raise ValueError(f"an order-{plan.order} plan cannot build an "
                         f"order-{order} Dyson MPO")
    try:
        mpo = plan.mpo(integrals.value)
    except KeyError as exc:
        raise ValueError(f"missing bracket: {exc}") from exc
    mpo.params["brackets"] = integrals
    return mpo


def magnus_evolution(hamiltonian, integrals, order, plan=None):
    """Order-`order` Magnus MPO of the evolution operator of a table's step.

    The brackets of a step are the signature of the drivings, and the
    Magnus operator Omega is its logarithm in the tensor algebra of
    channel words (Chen, Ann. Math. 65, 163 (1957); Blanes, Casas, Oteo &
    Ros, Phys. Rep. 470, 151 (2009)).  So ``exp(Omega)``, truncated to
    words of at most `order` letters, is the bracket table itself, and the
    order-N Magnus MPO is the order-N Dyson MPO: this returns `dyson_mpo`
    of the same arguments.
    """
    return dyson_mpo(hamiltonian, integrals, order, plan=plan)
