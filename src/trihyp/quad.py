"""Semi-infinite quadrature with endpoint-singularity handling, plus the
integrands and closed forms of the catalog's three integral identities
and of the Laplace-transform lemma for hypergeometric integrands.

The core rule is double-exponential (tanh-sinh) quadrature on a finite
window [0, T] chosen from the integrand's exponential decay rate, with
a power substitution t = u^m that removes the algebraic endpoint
singularity t^sigma at the origin.  Integrands with purely
algebraic tails (the p = 0 branch of the second integral identity) go
through the exp-sinh transform of the whole half line instead.
"""

from __future__ import annotations

import cmath
import math
from functools import partial
from typing import NamedTuple

from .errors import BudgetError, DomainError
from .specfun import (
    binomial_remainder,
    gamma,
    hyp_pfq,
    lower_incomplete_gamma,
    parabolic_cylinder_d,
    pochhammer,
)

__all__ = [
    "QuadResult",
    "integrate_semi_infinite",
    "laplace_integral",
    "laplace_closed_form",
    "laplace_random_draw",
    "j1_integral",
    "j1_closed_form",
    "j2_integral",
    "j2_closed_form",
    "j3_integral",
    "j3_closed_form",
]

_SQRT_PI = math.sqrt(math.pi)
_HALF_PI = math.pi / 2.0
_TAU_MAX = 6.5  # hard cap of the double-exponential variable
_LEVELS = 7  # h = 0.5 down to 0.5/64


class QuadResult(NamedTuple):
    value: complex
    est_error: float
    evaluations: int


def _tanh_sinh_sum(f, half: float, h: float, start: int, step: int) -> tuple[complex, int]:
    """Sum of w_k f(x_k) over k = start, start+step, ... (both signs of k)
    of the tanh-sinh rule over (0, 2*half) at step h, without the factor h,
    and the number of calls of ``f`` it made."""
    total = 0.0 + 0.0j
    calls = 0
    k = start
    i = 0  # nodes of this pass so far
    dead = 0
    while k * h <= _TAU_MAX:
        tau = k * h
        contributions = []
        for sgn in ((1.0,) if k == 0 else (1.0, -1.0)):
            tt = sgn * tau
            s = _HALF_PI * math.sinh(tt)
            if abs(s) > 350.0:  # weight below 1e-300; also keeps exp() in range
                contributions.append(0.0)
                continue
            x = 2.0 * half / (1.0 + math.exp(-2.0 * s))
            w = half * _HALF_PI * math.cosh(tt) / math.cosh(s) ** 2
            if w == 0.0 or x == 0.0 or x == 2.0 * half:
                contributions.append(0.0)
                continue
            calls += 1
            contributions.append(w * f(x))
        c = sum(contributions)
        total += c
        if i > 3 and abs(c) <= 1e-18 * (abs(total) + 1e-30):
            dead += 1
            if dead >= 2:
                break
        else:
            dead = 0
        k += step
        i += 1
    return total, calls


def _exp_sinh_sum(f, h: float, start: int, step: int) -> tuple[complex, int]:
    """Sum of w_k f(t_k) over k = start, start+step, ... (both signs of k)
    of the exp-sinh rule over (0, infinity) at step h, without the factor h,
    and the number of calls of ``f`` it made."""
    total = 0.0 + 0.0j
    calls = 0
    for direction in (1.0, -1.0):
        k = start if direction > 0 else max(start, 1)  # the node k = 0 is taken once
        i = 0
        dead = 0
        while k * h <= _TAU_MAX:
            tau = direction * k * h
            s = _HALF_PI * math.sinh(tau)
            if s > 690.0:
                break
            t = math.exp(s)
            w = _HALF_PI * math.cosh(tau) * t
            calls += 1
            c = w * f(t)
            total += c
            if i > 3 and abs(c) <= 1e-18 * (abs(total) + 1e-30):
                dead += 1
                if dead >= 2:
                    break
            else:
                dead = 0
            k += step
            i += 1
    return total, calls


def integrate_semi_infinite(
    f,
    tol: float,
    singular_exponent: float = 0.0,
    decay_rate: float = 1.0,
) -> QuadResult:
    """Integrate ``f`` over (0, infinity) to ``tol``, relative where the
    value's modulus exceeds 1 and absolute below it.

    ``singular_exponent`` is the power of t as t -> 0 (it must exceed
    -1) and ``decay_rate`` the exponential tail rate (>= 0); either out
    of range raises :class:`DomainError`.  Exponentially decaying
    integrands are truncated at T = max(50/decay_rate, 40), where the
    truncation bound |f(T)|/decay_rate is held under tol/10 (absolute),
    and integrated with tanh-sinh; a negative exponent first goes through
    the substitution t = u^m that flattens the origin singularity.  A
    zero decay rate selects the exp-sinh transform of the full half line.
    The levels halve h from 0.5 and are nested: each finer level
    evaluates only its new odd-index nodes, so no node is evaluated
    twice, and ``evaluations`` counts each integrand call once (the
    truncation-point search included).  A level is accepted once its
    change plus the truncation bound is at most tol * max(1, |value|) / 3;
    a result not converged at the finest level (h = 0.5/64) raises
    :class:`BudgetError` with the last estimate attached.
    """
    if not singular_exponent > -1.0:
        raise DomainError("singular_exponent must exceed -1 for integrability")
    if decay_rate < 0.0:
        raise DomainError("decay_rate must be >= 0")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if decay_rate == 0.0:
        tail, evaluations = 0.0, 0
        level = partial(_exp_sinh_sum, f)
    else:
        T = max(50.0 / decay_rate, 40.0)
        tail, evaluations = abs(f(T)) / decay_rate, 1
        while tail > tol / 10.0 and T < 1e6:
            T *= 1.5
            tail = abs(f(T)) / decay_rate
            evaluations += 1
        m = 1
        if singular_exponent < 0.0:
            m = max(1, math.ceil((1.0 - 1e-12) / (1.0 + singular_exponent)))
        if m == 1:
            g = f
        else:
            def g(u, _m=m):
                t = u**_m
                if t == 0.0:  # node so deep that u^m underflows; weight is ~0 there
                    return 0.0
                return f(t) * _m * u ** (_m - 1)
        level = partial(_tanh_sinh_sum, g, T ** (1.0 / m) / 2.0)

    # nested levels: halving h keeps every node and adds the odd-index ones
    raw, calls = level(0.5, 0, 1)
    evaluations += calls
    prev = raw * 0.5
    h = 0.25
    for _ in range(_LEVELS - 1):
        part, calls = level(h, 1, 2)
        raw += part
        evaluations += calls
        val = raw * h
        err = abs(val - prev) + tail
        if err <= tol * max(1.0, abs(val)) / 3.0:
            return QuadResult(val, err, evaluations)
        prev = val
        h /= 2.0
    raise BudgetError(
        f"quadrature did not converge in {_LEVELS} levels",
        best=QuadResult(val, err, evaluations),
    )


# --------------------------------------------------------------------------
# the catalog integrals J0-J3: quadrature to tol/10 and the closed forms
#
# The hypotheses of each integral are the domain rule of its catalog entry
# (trihyp.identities); the functions below assume them.
# --------------------------------------------------------------------------


def _power(t: float, exponent) -> complex:
    """t ** exponent, raising :class:`DomainError` where it leaves the
    double range (as at the deepest tanh-sinh nodes), as gamma does."""
    try:
        return t**exponent
    except OverflowError:
        raise DomainError(f"t^{exponent} overflows at t = {t:.6g}") from None


def _quadrature(f, singular_exponent, decay_rate, tol) -> complex:
    """The integral of ``f`` to a tenth of the check tolerance ``tol``."""
    return integrate_semi_infinite(f, tol / 10.0, singular_exponent, decay_rate).value


def laplace_integral(a, b, alpha, s, x, tol) -> complex:
    """int_0^inf e^(-st) t^(alpha-1) pFq(a; b; x t) dt (the Laplace lemma, J0)."""

    def f(t: float) -> complex:
        df = hyp_pfq(a, b, x * t).value
        return cmath.exp(-s * t) * _power(t, alpha - 1.0) * df

    # for p = q the integrand grows like e^(x t)
    decay = (s - x).real if len(a) == len(b) and x.real > 0 else 0.6 * s.real
    return _quadrature(f, min(max(alpha.real - 1.0, -0.999), 0.0), decay, tol)


def laplace_closed_form(a, b, alpha, s, x) -> complex:
    """Gamma(alpha) s^-alpha p+1Fq(a, alpha; b; x/s)."""
    return gamma(alpha) * s ** (-alpha) * hyp_pfq(a + (alpha,), b, x / s).value


def laplace_random_draw(rng) -> dict:
    """One admissible random parameter set of the Laplace lemma (J0)."""
    p, q = rng.choice(((0, 1), (1, 1), (1, 2), (2, 2)))
    a = tuple(round(rng.uniform(0.3, 2.5), 3) for _ in range(p))
    b = tuple(round(rng.uniform(0.6, 3.0), 3) for _ in range(q))
    alpha = round(rng.uniform(0.3, 2.8), 3)
    s = round(rng.uniform(1.0, 3.0), 3)
    x = round(rng.uniform(-0.7, 0.7) * s, 3)
    if p == q and s - x <= 0.3:
        x = round(s - 0.5, 3)
    return {"a": a, "b": b, "alpha": alpha, "s": s, "x": x}


def j1_integral(n: int, s, x, tol) -> complex:
    """int_0^inf e^(-st) t^(-3/2) gamma(n+1, xt) dt; the tail carries e^(-st)
    once the incomplete gamma saturates."""

    def f(t: float) -> complex:
        return cmath.exp(-s * t) * _power(t, -1.5) * lower_incomplete_gamma(n + 1, x * t)

    return _quadrature(f, -0.5, min(s.real, (s + x).real), tol)


def j1_closed_form(n: int, s, x) -> complex:
    """-2 sqrt(pi) n! [sqrt(s) - sqrt(s+x) sum_{k<=n} (-1/2)_k/k! (x/(x+s))^k]."""
    s, x = complex(s), complex(x)
    # the bracket is sqrt(s+x) times the tail of (1-u)^(1/2) in u = x/(x+s)
    u = x / (x + s)
    tail = u ** (n + 1) * binomial_remainder(-0.5, n + 1, u, cmath.sqrt(s) / cmath.sqrt(s + x))
    return -2.0 * _SQRT_PI * math.factorial(n) * cmath.sqrt(s + x) * tail


def j2_integral(n: int, p, x, tol) -> complex:
    """int_0^inf e^(-pt) t^(-1/2-n) gamma(n, xt) dt; p = 0 is the algebraic-tail branch."""

    def f(t: float) -> complex:
        try:
            return cmath.exp(-p * t) * t ** (-0.5 - n) * lower_incomplete_gamma(n, x * t)
        except OverflowError:
            # t^(-1/2-n) overflows only at nodes t < 10^(-308/(n+1/2)), where
            # gamma(n, xt) = (xt)^n / n to about 10^(-308/(n+1/2)) |x|
            return cmath.exp(-p * t) * t**-0.5 * x**n / n

    return _quadrature(f, -0.5, 0.0 if p == 0 else min(p.real, (p + x).real), tol)


def j2_closed_form(n: int, p, x) -> complex:
    """Piecewise closed form of int_0^inf e^(-pt) t^(-1/2-n) gamma(n, xt) dt."""
    p, x = complex(p), complex(x)
    if p == 0:
        return 2.0 * _SQRT_PI * x ** (n - 0.5) / (2 * n - 1)
    # the bracket is sqrt(p+x) times the tail of (1-u)^(-1/2) in u = -x/p
    tail = (-x / p) ** n * binomial_remainder(0.5, n, -x / p, cmath.sqrt(p) / cmath.sqrt(p + x))
    return (
        -_SQRT_PI
        * math.factorial(n - 1)
        * (-p) ** (n - 1)
        / pochhammer(0.5, n)
        * (cmath.sqrt(p + x) * tail)
    )


def j3_integral(p, x, tol) -> complex:
    """int_0^inf e^(-pt) t^(-5/6) D_(1/3)(-sqrt(2xt)) dt for real x > 0.

    Raises :class:`DomainError` when the cylinder function would leave its
    series range before the first truncation point."""
    decay = (2.0 * p - x).real / 2.0
    if x.real * max(50.0 / decay, 40.0) > 500.0:
        raise DomainError("decay too slow for the cylinder-function range")

    def f(t: float) -> complex:
        return (
            cmath.exp(-p * t)
            * t ** (-5.0 / 6.0)
            * parabolic_cylinder_d(1.0 / 3.0, -math.sqrt(2.0 * x.real * t))
        )

    return _quadrature(f, -5.0 / 6.0, decay, tol)


def j3_closed_form(p, x) -> complex:
    """2 Gamma(1/3) (2p+x)^(-1/6) [cos((1/3) acos sqrt(2x/(2p+x)))
    - sin((1/3) asin sqrt(2x/(2p+x)))]."""
    p, x = complex(p), complex(x)
    w = cmath.sqrt(2.0 * x / (2.0 * p + x))
    return (
        2.0
        * gamma(1.0 / 3.0)
        / (2.0 * p + x) ** (1.0 / 6.0)
        * (cmath.cos(cmath.acos(w) / 3.0) - cmath.sin(cmath.asin(w) / 3.0))
    )
