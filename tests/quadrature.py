"""Adaptive-quadrature oracle for time-ordered integrals.

Independent of the bracket evaluator: the nested simplex integral is
evaluated with one adaptive Gauss-Kronrod quadrature per nesting level,
split at the drivings' knots, where a sampled driving has a kink.  The
cost grows quickly with the nesting depth.
"""

import numpy as np
from scipy.integrate import quad


class QuadratureBudgetError(RuntimeError):
    """Raised when the requested tolerance was not certified."""


def _quad_complex(func, a, b, epsabs, limit, points):
    # the imaginary pass reuses the values the real pass computed, so a
    # nested integrand is not evaluated twice at one point
    seen = {}

    def value(s):
        if s not in seen:
            seen[s] = func(s)
        return seen[s]

    re, re_err = quad(lambda s: value(s).real, a, b, epsabs=epsabs,
                      limit=limit, points=points)
    im, im_err = quad(lambda s: value(s).imag, a, b, epsabs=epsabs,
                      limit=limit, points=points)
    return complex(re, im), re_err + im_err


def quad_time_ordered_integral(fs, t0, t, abs_tol=1e-10, limit=200):
    """Bracket ``[f_1 ... f_k]`` by nested adaptive quadrature.

    `fs` lists the driving functions with the latest time first, matching
    :mod:`dysonmpo.brackets`.  Supports nesting depth up to 4.  Every
    level passes the knots of all `fs` inside its range to `quad` as
    break points.
    """
    fs = list(fs)
    k = len(fs)
    if k == 0:
        raise ValueError("empty channel sequence")
    if k > 4:
        raise ValueError("quadrature oracle supports depth <= 4")
    if t == t0:
        return 0.0 + 0.0j
    # spread the tolerance across levels; outer integrals see the
    # accumulated inner values scaled by the interval length
    span = abs(t - t0)
    inner_tol = abs_tol / (4.0 * max(1.0, span) ** (k - 1)) if k > 1 else abs_tol / 4.0

    knots = sorted({float(knot) for f in fs for knot in f.knots()})
    err_total = [0.0]

    def nested(level, upper):
        f = fs[level]
        points = [knot for knot in knots if t0 < knot < upper] or None
        if level == k - 1:
            val, err = _quad_complex(lambda s: complex(np.asarray(f(s)).item()),
                                     t0, upper, inner_tol, limit, points)
        else:
            val, err = _quad_complex(
                lambda s: complex(np.asarray(f(s)).item()) * nested(level + 1, s),
                t0, upper, inner_tol, limit, points)
        err_total[0] = max(err_total[0], err)
        return val

    value = nested(0, t)
    if err_total[0] > abs_tol * max(1.0, span) * 10:
        raise QuadratureBudgetError(
            f"estimated error {err_total[0]:.2e} above budget for {abs_tol:.2e}")
    return complex((-1j) ** k * value)

