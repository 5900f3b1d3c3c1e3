"""Extensive Taylor MPOs for time-independent Hamiltonians.

The N-th order Taylor MPO of ``exp(tau * H)`` is the Dyson MPO of the
one-channel Hamiltonian ``"h"`` under the frozen table
``BracketTable.frozen({"h": 1.0}, tau, N)``: every fully finished level
of the power ``H**N`` folds back into the identity level, and one whose
stripped label carries k finished symbols contributes the weight
``tau**k / k!``.  The first-order tensor is

    ( 1 + tau D   L )
    ( tau R       A )

which reduces to the identity at ``tau = 0``.  As for any Dyson MPO, the
table is in ``params["brackets"]``, where `row_compress` reads it.
Derivatives at ``tau = 0`` read the same power plan, one weighting per
power of ``tau``.
"""

import math

import numpy as np

from .brackets import BracketTable
from .driving import Channel, TimeDependentHamiltonian
from .dyson import dyson_mpo
from .extensive import PowerPlan
from .fdmpo import dense_chain, one_hot


def taylor_mpo(h, tau, order):
    """N-th order Taylor MPO of ``exp(tau * H)``: `dyson_mpo` of the frozen
    one-channel table."""
    return dyson_mpo(TimeDependentHamiltonian([Channel("h", h)]),
                     BracketTable.frozen({"h": 1.0}, tau, order), order)


def mpo_derivative_at_zero(h, order, p, n_sites):
    """Dense ``(1/p!) d^p/dtau^p`` of ``taylor_mpo(h, tau, order)`` at 0.

    The site tensor is a polynomial ``W_0 + sum_k tau**k W_k``.  The plan
    gives ``W_0`` with every finished level weighted 0, and ``W_0 + W_k``
    with the finished levels of length k weighted ``1/k!``.  The
    derivative then follows from the block construction for one-parameter
    tensor families: site tensors become ``(p+1) x (p+1)`` upper-triangular
    block matrices whose ``(i, j)`` block is ``W_{j-i}``, with boundaries
    selecting block row 0 on the left and block column `p` on the right.
    """
    if p < 1:
        raise ValueError("derivative order must be at least 1")
    d = h.d
    plan = PowerPlan(TimeDependentHamiltonian([Channel("h", h)]), order)
    base = plan.mpo(lambda sigma: 0.0).site_tensor()
    coeffs = [base] + [
        plan.mpo(lambda sigma, k=k: (len(sigma) == k) / math.factorial(k))
        .site_tensor() - base
        for k in range(1, p + 1)]
    n = len(plan.levels)
    w = np.zeros(((p + 1) * n, (p + 1) * n, d, d), dtype=complex)
    for i in range(p + 1):
        for j in range(i, p + 1):
            w[i * n:(i + 1) * n, j * n:(j + 1) * n] = coeffs[j - i]
    # the identity level is the first of each block
    rows, cols = np.nonzero(w.any(axis=(2, 3)))
    return dense_chain(rows, cols, w[rows, cols], len(w), one_hot(len(w), 0),
                       one_hot(len(w), p * n), n_sites)
