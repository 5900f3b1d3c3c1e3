"""Scalar driving functions and time-dependent Hamiltonians.

A time-dependent Hamiltonian is a sum of driving channels

    H(t) = sum_a f_a(t) * H_a

with each ``H_a`` a time-independent first-degree MPO and ``f_a`` a scalar
driving function.  Driving functions know how to evaluate themselves and
(when periodic) their period, which lets bracket tables be reused between
congruent time steps.  For its brackets a driving states itself between
its knots as a `Piece`: a small state vector ``u`` that obeys
``u' = G u`` for a constant generator G (:mod:`dysonmpo.brackets`).  Sums
of exponentials take their pieces from ``exponentials``, polynomials from
their Taylor coefficients, and sampled drivings are one line per knot
interval.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

PERIOD_DENOMINATOR = 12  # largest denominator of a commensurate period ratio


def _binomial(x, size):
    """``S[..., m, l] = C(l, m) x**(l - m)``: Taylor coefficients moved by
    x, for a time or each time of an array."""
    x = np.asarray(x, dtype=float)
    # Python's float power: numpy's rounds some powers differently
    powers = np.array([[float(v) ** e for e in range(size)]
                       for v in x.flat]).reshape(x.shape + (size,))
    out = np.zeros(x.shape + (size, size))
    for m in range(size):
        for l in range(m, size):
            out[..., m, l] = math.comb(l, m) * powers[..., l - m]
    return out


@dataclass(frozen=True)
class Piece:
    """A driving between knots: ``f(t_p + x) = sum((S(x) @ state)[read])``.

    ``S(x) = exp(G x)`` for the generator G of the piece.  With `rates`,
    ``state[j] = c_j exp(rate_j t_p)`` for the terms of a sum of
    exponentials, ``G = diag(rates)`` and every letter is read.  Without,
    `state` holds the Taylor coefficients at ``t_p``, G is the binomial
    derivative matrix (``G[m, m + 1] = m + 1``), S(x) the binomial matrix
    and letter 0 is read.  A stack of pieces of one layout holds `state`
    and `rates` with leading axes, the letters last
    (`dysonmpo.brackets`).
    """

    state: np.ndarray
    rates: np.ndarray = None

    @property
    def read(self):
        """Letters whose sum is the driving's value."""
        size = self.state.shape[-1]
        return range(size) if self.rates is not None else range(1)

    def shift(self, x):
        """Rows of S(x) as ``(cols, coefs)``: ``(letters, width)`` and
        ``x.shape + (letters, width)``.

        Row m of ``S(x) @ u`` is ``sum_w coefs[m, w] * u[cols[m, w]]``;
        column 0 is the diagonal and padding carries coefficient 0.  For a
        stack, `x` has its leading shape, then any axes of points.
        """
        size = self.state.shape[-1]
        rows = np.arange(size)[:, None]
        x = np.asarray(x, dtype=float)
        if self.rates is not None:
            lead = self.rates.shape[:-1]
            rates = self.rates.reshape(
                lead + (1,) * (x.ndim - len(lead)) + (size,))
            return rows, np.exp(rates * x[..., None])[..., None]
        cols = rows + np.arange(size)
        full = _binomial(x, size)
        coefs = np.zeros(full.shape, dtype=complex)
        for m in range(size):
            coefs[..., m, :size - m] = full[..., m, m:]
        return np.where(cols < size, cols, rows), coefs

    def series(self, h, terms):
        """Rows ``j < terms`` of ``(G h)**j state / j!``, one per term.

        Row j is the coefficient of ``(x / h)**j`` in ``S(x) state``.  A
        polynomial's rows vanish from its number of letters on, so its
        series is exact with at least that many terms.  For a stack, `h`
        has its leading shape, and so do the rows.
        """
        size = self.state.shape[-1]
        h = np.asarray(h, dtype=float)[..., None]
        out = np.zeros(self.state.shape[:-1] + (terms, size), dtype=complex)
        out[..., 0, :] = self.state
        if self.rates is not None:
            step = self.rates * h
            for j in range(1, terms):
                out[..., j, :] = out[..., j - 1, :] * step / j
        else:
            step = np.arange(1, size) * h
            for j in range(1, terms):
                out[..., j, :-1] = out[..., j - 1, 1:] * step / j
        return out


def _check_finite(driving, **params):
    """Raise `ValueError` naming the first parameter that is not finite."""
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{driving.name} {name} must be finite, "
                             f"got {value!r}")


class DrivingFunction:
    """Base class of scalar driving functions.

    Subclasses implement ``__call__``, and ``piece`` (or
    ``exponentials``) for their brackets.
    """

    name = "driving"
    period = None          # None when not periodic

    def __call__(self, t):
        """f at `t`, a time or an array of times.

        On an array the result has the shape of `t`, and each value is
        within 1 ulp of f at that time alone: the state-vector oracle
        evaluates every driving on whole time grids at once.
        """
        raise NotImplementedError

    def exponentials(self):
        """``[(c, rate), ...]`` with ``f(t) = sum c exp(rate t)``, or None."""
        return None

    def knots(self):
        """Times at which the `Piece` form changes."""
        return ()

    def piece(self, t, t_last):
        """The `Piece` of f on ``[t, t_last]`` with origin t, or None.

        No knot lies strictly inside the span.  The default takes the
        terms of ``exponentials``; None means f states no piece form.
        """
        terms = self.exponentials()
        if terms is None:
            return None
        coefs = np.array([c for c, _ in terms], dtype=complex)
        rates = np.array([rate for _, rate in terms], dtype=complex)
        return Piece(coefs * np.exp(rates * t), rates)

    def describe(self):
        return self.name


@dataclass
class ConstDriving(DrivingFunction):
    value: complex = 1.0

    name = "const"

    def __post_init__(self):
        _check_finite(self, value=self.value)
        self.period = math.inf

    def __call__(self, t):
        return self.value * np.ones_like(np.asarray(t, dtype=float))

    def exponentials(self):
        return [(complex(self.value), 0.0)]

    def describe(self):
        return f"const({self.value})"


@dataclass
class TrigDriving(DrivingFunction):
    """``amplitude * sin/cos(omega * t + phase) + offset``."""

    kind: str = "sin"
    omega: float = 2.0 * math.pi
    phase: float = 0.0
    amplitude: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("sin", "cos"):
            raise ValueError("kind must be 'sin' or 'cos'")
        self.name = self.kind
        _check_finite(self, omega=self.omega, phase=self.phase,
                      amplitude=self.amplitude, offset=self.offset)
        self.period = 2.0 * math.pi / abs(self.omega) if self.omega else math.inf

    def __call__(self, t):
        f = np.sin if self.kind == "sin" else np.cos
        return self.amplitude * f(self.omega * np.asarray(t) + self.phase) + self.offset

    def exponentials(self):
        if self.omega == 0:
            f0 = math.sin(self.phase) if self.kind == "sin" else math.cos(self.phase)
            return [(self.amplitude * f0 + self.offset, 0.0)]
        # sin x = (e^{ix} - e^{-ix}) / 2i,  cos x = (e^{ix} + e^{-ix}) / 2
        plus = self.amplitude * np.exp(1j * self.phase)
        minus = self.amplitude * np.exp(-1j * self.phase)
        if self.kind == "sin":
            plus, minus = plus / 2j, -minus / 2j
        else:
            plus, minus = plus / 2, minus / 2
        terms = [(plus, 1j * self.omega), (minus, -1j * self.omega)]
        if self.offset != 0:
            terms.append((self.offset, 0.0))
        return terms

    def describe(self):
        return (f"{self.kind}(omega={self.omega}, phase={self.phase}, "
                f"amplitude={self.amplitude}, offset={self.offset})")


@dataclass
class ExpDriving(DrivingFunction):
    """``amplitude * exp(rate * t)``."""

    rate: complex = 1.0
    amplitude: complex = 1.0

    name = "exp"

    def __post_init__(self):
        _check_finite(self, rate=self.rate, amplitude=self.amplitude)
        rate = complex(self.rate)
        if rate == 0:
            self.period = math.inf
        elif rate.real == 0:
            self.period = 2.0 * math.pi / abs(rate.imag)

    def __call__(self, t):
        return self.amplitude * np.exp(self.rate * np.asarray(t))

    def exponentials(self):
        return [(self.amplitude, self.rate)]

    def describe(self):
        return f"exp(rate={self.rate}, amplitude={self.amplitude})"


@dataclass
class PolyDriving(DrivingFunction):
    """Polynomial ``sum_k coeffs[k] * t**k``."""

    coeffs: tuple = (0.0, 1.0)

    name = "poly"

    def __post_init__(self):
        self.coeffs = tuple(complex(c) for c in self.coeffs)
        _check_finite(self, coeffs=self.coeffs)
        if all(c == 0 for c in self.coeffs[1:]):
            self.period = math.inf

    def __call__(self, t):
        t = np.asarray(t)
        out = np.zeros_like(t, dtype=complex)
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def piece(self, t, t_last):
        coeffs = np.array(self.coeffs or (0.0,), dtype=complex)
        return Piece(_binomial(t, len(coeffs)) @ coeffs)

    def describe(self):
        return f"poly(coeffs={list(self.coeffs)})"


@dataclass
class SampledDriving(DrivingFunction):
    """Linear interpolation through real samples at evenly spaced knots.

    The knots span ``[t_start, t_end]``; outside it the driving holds the
    end values, as ``np.interp`` clamps.
    """

    t_start: float = 0.0
    t_end: float = 1.0
    values: tuple = (0.0, 0.0)

    name = "samples"

    def __post_init__(self):
        _check_finite(self, t_start=self.t_start, t_end=self.t_end,
                      values=self.values)
        if not self.t_end > self.t_start:
            raise ValueError(f"samples need t_end > t_start, got "
                             f"t_start={self.t_start!r}, t_end={self.t_end!r}")
        if len(self.values) < 2:
            raise ValueError(f"samples need at least two values, got "
                             f"{tuple(self.values)!r}")
        for v in self.values:
            if np.imag(v) != 0:
                raise ValueError(f"samples must be real, got {v!r}")
        self.values = tuple(float(np.real(v)) for v in self.values)

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.knots(), self.values)

    def knots(self):
        return np.linspace(self.t_start, self.t_end, len(self.values))

    def piece(self, t, t_last):
        knots = self.knots()
        j = int(np.searchsorted(knots, 0.5 * (t + t_last), side="right")) - 1
        if j < 0 or j >= len(knots) - 1:
            return Piece(np.array([self.values[0 if j < 0 else -1]],
                                  dtype=complex))
        y = self.values
        slope = (y[j + 1] - y[j]) / (knots[j + 1] - knots[j])
        return Piece(np.array([slope * (t - knots[j]) + y[j], slope],
                              dtype=complex))

    def describe(self):
        return f"samples(n={len(self.values)} on [{self.t_start}, {self.t_end}])"


@dataclass
class Channel:
    """One driving channel: a name, a static MPO and its driving function."""

    name: str
    operator: object  # FirstDegreeMPO
    driving: DrivingFunction = field(default_factory=ConstDriving)


class TimeDependentHamiltonian:
    """``H(t) = sum_a f_a(t) H_a`` with a fixed channel order."""

    def __init__(self, channels):
        self.channels = [c if isinstance(c, Channel) else Channel(*c)
                         for c in channels]
        if not self.channels:
            raise ValueError("at least one channel required")
        dims = {c.operator.d for c in self.channels}
        if len(dims) != 1:
            raise ValueError("all channels must share the physical dimension")
        self.d = dims.pop()
        names = set()
        for c in self.channels:
            if c.name in names:
                raise ValueError(f"channel name {c.name!r} is listed twice")
            names.add(c.name)

    def common_period(self):
        """Smallest common driving period, or None when aperiodic.

        Two periods are commensurate when the longer over the shorter lies
        within 1e-9 of a fraction ``a / b`` with ``b`` at most
        `PERIOD_DENOMINATOR`; their common period is then the longer times
        ``b``, their least common multiple.
        """
        periods = [c.driving.period for c in self.channels]
        if any(p is None for p in periods):
            return None
        finite = [p for p in periods if p != math.inf]
        if not finite:
            return math.inf
        base = finite[0]
        for p in finite[1:]:
            short, long = sorted((base, p))
            ratio = Fraction(long / short).limit_denominator(PERIOD_DENOMINATOR)
            if abs(long / short - ratio) > 1e-9:
                return None
            base = long * ratio.denominator
        return base

    def to_dense(self, n_sites, t):
        """Dense H(t) on a finite chain (`FirstDegreeMPO.to_dense` of each
        channel)."""
        return sum(complex(np.asarray(c.driving(t)).item())
                   * c.operator.to_dense(n_sites) for c in self.channels)
