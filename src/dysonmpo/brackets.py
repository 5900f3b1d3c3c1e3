"""Tables of time-ordered integrals of driving functions.

A bracket table stores ``[f_{a_1} ... f_{a_k}]`` for every channel sequence
up to a maximum order on one time interval.  Tables are computed once per
interval and shared by every MPO construction for that step; the Taylor
variant replaces the integrals by ``tau**k / k!``.

The quantics engine evaluates the whole table in one call
(:func:`dysonmpo.quantics.time_ordered_integrals`).  Channels that are sums
of exponentials (const, sin, cos, exp) take the grid sums in closed form,
one batched small matrix exponential per order.  The others take one pass
over the trie of sequence suffixes: with ``c`` such channels an order-``K``
table costs ``(c + ... + c**(K-2)) + (c**2 + ... + c**(K-1))`` train
compressions, 18 for two channels at order 4; a separate nested chain per
entry would take ``2 (k - 1)`` for each entry of order ``k``, 136 in total.
"""

import math
from itertools import product

from .quadrature import quad_time_ordered_integral
from .quantics import time_ordered_integrals


class BracketTable:
    """Time-ordered integrals keyed by channel-name sequences."""

    def __init__(self, interval, values, max_order):
        self.interval = tuple(interval)
        self.values = dict(values)
        self.max_order = int(max_order)

    def value(self, sigma):
        sigma = tuple(sigma)
        if len(sigma) > self.max_order:
            raise KeyError(
                f"bracket {sigma} exceeds table order {self.max_order}")
        return self.values[sigma]

    @classmethod
    def compute(cls, channels, t0, t, max_order, bits=24, engine="qtt",
                quad_tol=1e-10):
        """Evaluate all brackets up to `max_order` on ``[t0, t]``.

        `channels` is a list of ``(name, driving)`` pairs in channel order;
        `engine` selects the quantics evaluator or the quadrature oracle.
        """
        channels = list(channels)
        by_name = dict(channels)
        keys = [key for k in range(1, max_order + 1)
                for key in product([name for name, _ in channels], repeat=k)]
        if engine == "qtt":
            values = time_ordered_integrals(by_name, keys, t0, t, bits=bits)
        elif engine == "quad":
            values = {key: quad_time_ordered_integral(
                [by_name[name] for name in key], t0, t, abs_tol=quad_tol)
                for key in keys}
        else:
            raise ValueError(f"unknown engine {engine!r}")
        return cls((t0, t), values, max_order)


class TaylorBrackets:
    """Synthetic table for a time-independent exponential: ``tau**k / k!``."""

    def __init__(self, tau, max_order):
        self.tau = complex(tau)
        self.max_order = int(max_order)
        self.interval = None

    def value(self, sigma):
        k = len(tuple(sigma))
        if k > self.max_order:
            raise KeyError(f"order {k} exceeds {self.max_order}")
        return self.tau ** k / math.factorial(k)
