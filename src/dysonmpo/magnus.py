"""Magnus operators as first-degree MPOs and their Taylor exponentiation.

The first Magnus operator is the channel-weighted sum

    Omega_1 = sum_a [f_a] H_a,

built by `TimeDependentHamiltonian.weighted` like the frozen Hamiltonian
of a Taylor step, and the second sums commutators of channel pairs
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)),

    Omega_2 = sum_{a<b} alpha_ab [H_a, H_b],
    alpha_ab = ([f_a f_b] - [f_b f_a]) / 2,

each one `fdmpo.commutator`.  Both stay first-degree MPOs, so the
evolution operator is the Taylor MPO of their sum at unit step; it records
the brackets ``1/k!`` that `row_compress` reads.
"""

from itertools import combinations

from . import fdmpo
from .taylor import taylor_mpo


def magnus_omega1(hamiltonian, integrals):
    """First Magnus operator ``sum_a [f_a] H_a``."""
    return hamiltonian.weighted(lambda c: integrals.value((c.name,)))


def magnus_omega2(hamiltonian, integrals):
    """Second Magnus operator ``sum_{a<b} alpha_ab [H_a, H_b]``."""
    total = fdmpo.zero_hamiltonian(hamiltonian.d)
    for a, b in combinations(hamiltonian.channels, 2):
        alpha = 0.5 * (integrals.value((a.name, b.name))
                       - integrals.value((b.name, a.name)))
        if alpha != 0:
            total = fdmpo.add(total, fdmpo.scale(
                fdmpo.commutator(a.operator, b.operator), alpha))
    return total


def magnus_evolution(hamiltonian, t0, t, n_magnus, n_taylor, integrals):
    """Evolution MPO from the Magnus operator of order ``n_magnus <= 2``.

    The Magnus operator for ``[t0, t]`` is assembled as a first-degree MPO
    and exponentiated with an ``n_taylor``-order Taylor MPO at unit step.
    """
    if n_magnus < 1 or n_magnus > 2:
        raise ValueError("only Magnus orders 1 and 2 are supported")
    from .dyson import identity_mpo
    if t == t0:
        return identity_mpo(hamiltonian.d)
    omega = magnus_omega1(hamiltonian, integrals)
    if n_magnus == 2:
        omega = fdmpo.add(omega, magnus_omega2(hamiltonian, integrals))
    mpo = taylor_mpo(omega, 1.0, n_taylor)
    mpo.params.update(kind="magnus", interval=(t0, t), n_magnus=n_magnus)
    return mpo
