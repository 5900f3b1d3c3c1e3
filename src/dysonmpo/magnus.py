"""Magnus evolution MPOs as weightings of the Dyson step plan.

The Magnus operator of order 2 (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
151 (2009)) is a sum of channel words, ``Omega = sum_a [f_a] H_a +
sum_{a != b} beta_ab H_a H_b`` with ``beta_ab = ([f_a f_b] - [f_b f_a]) / 2``,
and so is ``exp(Omega)``.  A word's coefficient sums, over its tilings into
m tiles (single letters and adjacent pairs), the tile products over
``m!``.  Omega is a Lie element, so these coefficients obey the shuffle
relations of the brackets (Ree, Ann. Math. 68, 210 (1958)), and the Dyson
`PowerPlan` folds them as it folds brackets.  The order-N Magnus MPO keeps
the words of at most N letters.  Words of up to two letters weigh their
brackets, so Magnus orders 1 and 2 are Dyson orders 1 and 2.
"""

import math

from .dyson import dyson_mpo

MAX_ORDER = 4  # Omega_1 + Omega_2 with exact brackets is a 4th-order method


class MagnusWeights:
    """Word coefficients of ``exp(Omega)``, read like a bracket table."""

    def __init__(self, table, n_magnus, max_order):
        self.table = table
        self.n_magnus = n_magnus
        self.max_order = int(max_order)
        self.interval = table.interval

    def value(self, sigma):
        sigma = tuple(sigma)
        n = len(sigma)
        if n > self.max_order:
            raise KeyError(f"word {sigma} exceeds order {self.max_order}")
        # tilings[i][m]: summed tile products of the m-tile tilings of
        # sigma[:i]; a pair (a, a), and every pair of Omega_1, weighs 0
        tilings = [[0.0] * (n + 1) for _ in range(n + 1)]
        tilings[0][0] = 1.0
        for i in range(1, n + 1):
            single = self.table.value(sigma[i - 1:i])
            for m in range(1, i + 1):
                tilings[i][m] = single * tilings[i - 1][m - 1]
            if i > 1 and self.n_magnus == 2 and sigma[i - 2] != sigma[i - 1]:
                a, b = sigma[i - 2:i]
                pair = 0.5 * (self.table.value((a, b))
                              - self.table.value((b, a)))
                for m in range(1, i):
                    tilings[i][m] += pair * tilings[i - 2][m - 1]
        return sum(c / math.factorial(m) for m, c in enumerate(tilings[n]))


def magnus_evolution(hamiltonian, t0, t, n_magnus, n_taylor, integrals,
                     plan=None):
    """Order-`n_taylor` MPO of ``exp(Omega)``, Omega of order ``n_magnus``.

    `integrals` holds the brackets of ``[t0, t]`` up to `n_magnus` (1 or
    2); `n_taylor` is at most `MAX_ORDER`.  `plan` is as for `dyson_mpo`.
    """
    if n_magnus not in (1, 2):
        raise ValueError(f"only Magnus orders 1 and 2 are supported, got "
                         f"{n_magnus}")
    if n_taylor > MAX_ORDER:
        raise ValueError(f"a Magnus step of order {n_taylor} needs Omega_3 "
                         f"and beyond; Omega_1 + Omega_2 reach order 4")
    weights = MagnusWeights(integrals, n_magnus, n_taylor)
    mpo = dyson_mpo(hamiltonian, t0, t, n_taylor, weights, plan=plan)
    if t != t0:
        mpo.params.update(kind="magnus", n_magnus=n_magnus)
    return mpo
