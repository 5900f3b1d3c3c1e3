"""Bundled spin-chain models used by the demos, tests and benchmarks."""

import math

from .driving import Channel, ConstDriving, TimeDependentHamiltonian, TrigDriving
from .fdmpo import from_terms
from .spin import SX, SY, SZ


def modulated_ising(omega=2.0 * math.pi):
    """Transverse-field Ising chain with counter-phased driving.

    ``H(t) = sin(w t) sum_i sz_i sz_{i+1} + cos(w t) sum_i sx_i``
    """
    ising = from_terms(2, two_site=[(SZ, SZ)])
    field = from_terms(2, on_site=SX)
    return TimeDependentHamiltonian([
        Channel("zz", ising, TrigDriving("sin", omega=omega)),
        Channel("x", field, TrigDriving("cos", omega=omega)),
    ])


def modulated_xxz(omega=2.0 * math.pi, delta0=2.0):
    """Heisenberg XXZ chain with a time-modulated anisotropy.

    ``H(t) = sum_i sx sx + sy sy + (delta0 + sin(w t)) sz sz``
    """
    xy = from_terms(2, two_site=[(SX, SX), (SY, SY)])
    zz = from_terms(2, two_site=[(SZ, SZ)])
    return TimeDependentHamiltonian([
        Channel("xy", xy, ConstDriving(1.0)),
        Channel("zz", zz, TrigDriving("sin", omega=omega, offset=delta0)),
    ])


def static_tfi(coupling=1.0, field=1.0):
    """Time-independent transverse-field Ising Hamiltonian."""
    from .fdmpo import add, scale
    ising = from_terms(2, two_site=[(SZ, SZ)])
    fld = from_terms(2, on_site=SX)
    return add(scale(ising, coupling), scale(fld, field))
