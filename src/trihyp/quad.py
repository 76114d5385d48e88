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
    _finite,
    _pow,
    binomial_remainder,
    gamma,
    hyp_pfq,
    lower_incomplete_gamma,
    lower_incomplete_gamma_over_power,
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


def _level_sum(f, node, h: float, start: int, step: int) -> tuple[complex, int]:
    """Sum of w f(x) over the nodes (x, w) = node(+-k h), k = start,
    start+step, ... up to k h = 6.5, of a double-exponential rule at step h,
    without the factor h, and the number of calls of ``f`` it made.  The
    node k = 0 is taken once.  Each end (the sign of k) stops on its own
    once two successive contributions are negligible against the running
    total; ``node`` returns None where a contribution is negligible a priori."""
    total = 0.0 + 0.0j
    calls = 0
    k = start
    i = 0  # nodes of this pass so far
    dead = {1.0: 0, -1.0: 0}  # negligible steps in a row of each live end
    while dead and k * h <= _TAU_MAX:
        contributions = {}
        for end in ((1.0,) if k == 0 else dead):
            xw = node(end * (k * h))
            if xw is None:
                contributions[end] = 0.0
            else:
                calls += 1
                contributions[end] = xw[1] * f(xw[0])
        total += sum(contributions.values())
        for end, c in contributions.items():
            if i > 3 and abs(c) <= 1e-18 * abs(total):
                dead[end] += 1
                if dead[end] >= 2:
                    del dead[end]
            else:
                dead[end] = 0
        k += step
        i += 1
    return total, calls


def _tanh_sinh_node(half: float, tau: float):
    """The tanh-sinh node and weight over the window (0, 2*half) at tau."""
    s = _HALF_PI * math.sinh(tau)
    if abs(s) > 350.0:  # weight below 1e-300; also keeps exp() in range
        return None
    x = 2.0 * half / (1.0 + math.exp(-2.0 * s))
    w = half * _HALF_PI * math.cosh(tau) / math.cosh(s) ** 2
    if w == 0.0 or x == 0.0 or x == 2.0 * half:
        return None
    return x, w


def _exp_sinh_node(tau: float):
    """The exp-sinh node and weight over (0, infinity) at tau."""
    t = math.exp(_HALF_PI * math.sinh(tau))
    return t, _HALF_PI * math.cosh(tau) * t


def _first_truncation_point(decay_rate: float) -> float:
    """The window end T that the truncation-point search starts from."""
    return 50.0 / decay_rate


def integrate_semi_infinite(
    f,
    tol: float,
    singular_exponent: float = 0.0,
    decay_rate: float = 1.0,
) -> QuadResult:
    """Integrate ``f`` over (0, infinity) to the relative accuracy ``tol``.

    ``singular_exponent`` is the power of t as t -> 0 (finite, above -1),
    ``decay_rate`` the exponential tail rate (finite, >= 0) and ``tol`` finite
    and positive; any of them out of range raises :class:`DomainError`.
    Exponentially decaying integrands are truncated at T, starting from
    50/decay_rate, and integrated with tanh-sinh on [0, T]; a negative
    exponent first goes through the substitution t = u^m that flattens the
    origin singularity.  The truncation bound |f(T)|/decay_rate is held under
    tol/10 times the modulus of the coarsest level (h = 0.5): while it is not,
    T grows by 1.5 (up to 1e6) and that level is redone; no other rule sizes
    the window.  A zero decay rate selects the exp-sinh transform of the full
    half line.  Both rules are one trapezoidal level sum over tau in
    [-6.5, 6.5] and differ only in the node map tau -> (t, weight).  Within a
    level, each end (t -> 0 and t -> T, or t -> 0 and t -> infinity) stops on
    its own after two successive contributions at or below 1e-18 of the
    running sum.  The levels halve h from 0.5 and are nested: each finer level
    evaluates only its new odd-index nodes, so no node is evaluated twice, and
    ``evaluations`` counts each integrand call once (the truncation-point
    search included).  A level is accepted once its change plus the truncation
    bound is at most tol * |value| / 3, so an integral that is exactly 0 has
    no accepted level.  A result not converged at the finest level
    (h = 0.5/64) raises :class:`BudgetError` with the last estimate attached.
    """
    if not -1.0 < singular_exponent < math.inf:
        raise DomainError("singular_exponent must be finite and exceed -1 for integrability")
    if not 0.0 <= decay_rate < math.inf:
        raise DomainError("decay_rate must be finite and >= 0")
    if not 0.0 < tol < math.inf:
        raise DomainError("tolerance must be finite and positive")
    if decay_rate == 0.0:
        tail = 0.0
        level = partial(_level_sum, f, _exp_sinh_node)
        raw, evaluations = level(0.5, 0, 1)
    else:
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
        T = _first_truncation_point(decay_rate)
        tail, evaluations = abs(f(T)) / decay_rate, 1
        # the truncation bound is held to tol/10 of the coarsest level's
        # modulus: the window grows, and that level is redone, until it is
        while True:
            level = partial(_level_sum, g, partial(_tanh_sinh_node, T ** (1.0 / m) / 2.0))
            raw, calls = level(0.5, 0, 1)
            evaluations += calls
            if tail <= tol * abs(raw * 0.5) / 10.0 or T >= 1e6:
                break
            T *= 1.5
            tail = abs(f(T)) / decay_rate
            evaluations += 1
    # nested levels: halving h keeps every node and adds the odd-index ones
    prev = raw * 0.5
    h = 0.25
    for _ in range(_LEVELS - 1):
        part, calls = level(h, 1, 2)
        raw += part
        evaluations += calls
        val = raw * h
        err = abs(val - prev) + tail
        if err <= tol * abs(val) / 3.0:
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


def _quadrature(f, singular_exponent, decay_rate, tol) -> complex:
    """The integral of ``f`` to a tenth of the check tolerance ``tol``."""
    return integrate_semi_infinite(f, tol / 10.0, singular_exponent, decay_rate).value


def laplace_integral(a, b, alpha, s, x, tol) -> complex:
    """int_0^inf e^(-st) t^(alpha-1) pFq(a; b; x t) dt (the Laplace lemma, J0)."""

    def f(t: float) -> complex:
        df = hyp_pfq(a, b, x * t).value
        return cmath.exp(-s * t) * _pow(t, alpha - 1.0) * df

    # for p = q the integrand grows like e^(x t)
    decay = (s - x).real if len(a) == len(b) and x.real > 0 else 0.6 * s.real
    return _quadrature(f, min(max(alpha.real - 1.0, -0.999), 0.0), decay, tol)


def laplace_closed_form(a, b, alpha, s, x) -> complex:
    """Gamma(alpha) s^-alpha p+1Fq(a, alpha; b; x/s).

    A non-finite argument, s = 0 and a value that leaves the double range
    raise :class:`DomainError`."""
    alpha, s, x = complex(alpha), complex(s), complex(x)
    if not (cmath.isfinite(alpha) and cmath.isfinite(s) and cmath.isfinite(x)) or s == 0:
        raise DomainError(f"laplace_closed_form needs finite alpha, s, x and s != 0, "
                          f"got ({alpha}, {s}, {x})")
    try:
        value = gamma(alpha) * s ** (-alpha) * hyp_pfq(tuple(a) + (alpha,), b, x / s).value
    except (OverflowError, ZeroDivisionError):  # complex ** out of range raises either
        value = math.nan
    return _finite(value, f"laplace_closed_form at alpha = {alpha}, s = {s}, x = {x}")


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
        return cmath.exp(-s * t) * _pow(t, -1.5) * lower_incomplete_gamma(n + 1, x * t)

    return _quadrature(f, -0.5, min(s.real, (s + x).real), tol)


def _order_and_arguments(what: str, n, least: int, *args) -> tuple:
    """``args`` as complex numbers, where n is an integer >= ``least`` and
    every argument is finite; :class:`DomainError` otherwise."""
    if not (isinstance(n, int) and n >= least):
        raise DomainError(f"{what} needs an integer n >= {least}, got {n!r}")
    args = tuple(map(complex, args))
    if not all(map(cmath.isfinite, args)):
        raise DomainError(f"{what} needs finite arguments, got {args}")
    return args


def j1_closed_form(n: int, s, x) -> complex:
    """-2 sqrt(pi) n! [sqrt(s) - sqrt(s+x) sum_{k<=n} (-1/2)_k/k! (x/(x+s))^k].

    An order that is not an integer n >= 0, a non-finite argument and a
    value that leaves the double range raise :class:`DomainError`."""
    s, x = _order_and_arguments("j1_closed_form", n, 0, s, x)
    try:
        # the bracket is sqrt(s+x) times the tail of (1-u)^(1/2) in u = x/(x+s)
        u = x / (x + s)
        tail = u ** (n + 1) * binomial_remainder(-0.5, n + 1, u, cmath.sqrt(s) / cmath.sqrt(s + x))
        value = -2.0 * _SQRT_PI * math.factorial(n) * cmath.sqrt(s + x) * tail
    except (OverflowError, ZeroDivisionError):  # n! or a power past the double range, x = -s
        value = math.nan
    return _finite(value, f"j1_closed_form({n}, {s}, {x})")


def j2_integral(n: int, p, x, tol) -> complex:
    """int_0^inf e^(-pt) t^(-1/2-n) gamma(n, xt) dt; p = 0 is the algebraic-tail
    branch.  Integrated as x^n int_0^inf e^(-pt) t^(-1/2) gamma*(n, xt) dt with
    gamma*(n, z) = gamma(n, z) / z^n, so that neither t^(-1/2-n) nor
    gamma(n, xt) is formed and no node leaves the double range at small |x|;
    a value past the double range raises :class:`DomainError`."""

    def f(t: float) -> complex:
        return cmath.exp(-p * t) * t**-0.5 * lower_incomplete_gamma_over_power(n, x * t)

    decay = 0.0 if p == 0 else min(p.real, (p + x).real)
    return _finite(_pow(x, n) * _quadrature(f, -0.5, decay, tol), f"j2_integral({n}, {p}, {x})")


def j2_closed_form(n: int, p, x) -> complex:
    """Piecewise closed form of int_0^inf e^(-pt) t^(-1/2-n) gamma(n, xt) dt.

    An order that is not an integer n >= 1, a non-finite argument and a
    value that leaves the double range raise :class:`DomainError`."""
    p, x = _order_and_arguments("j2_closed_form", n, 1, p, x)
    try:
        if p == 0:
            value = 2.0 * _SQRT_PI * _pow(x, n - 0.5) / (2 * n - 1)
        else:
            # the bracket is sqrt(p+x) times the tail of (1-u)^(-1/2) in u = -x/p
            u = -x / p
            tail = _pow(u, n) * binomial_remainder(0.5, n, u, cmath.sqrt(p) / cmath.sqrt(p + x))
            value = (
                -_SQRT_PI
                * math.factorial(n - 1)
                * _pow(-p, n - 1)
                / pochhammer(0.5, n)
                * (cmath.sqrt(p + x) * tail)
            )
    except (OverflowError, ZeroDivisionError):  # (n-1)! or a quotient past the double range
        value = math.nan
    return _finite(value, f"j2_closed_form({n}, {p}, {x})")


def j3_integral(p, x, tol) -> complex:
    """int_0^inf e^(-pt) t^(-5/6) D_(1/3)(-sqrt(2xt)) dt for real x >= 0;
    any other ``x`` raises :class:`DomainError`.

    The catalog's J3 domain, 0 < x <= 5 Re p / 3, keeps the cylinder
    function's argument within -sqrt(1000) over the first window."""
    if x.imag != 0.0 or not x.real >= 0.0:
        raise DomainError(f"j3_integral needs real x >= 0, got {x}")
    decay = (2.0 * p - x).real / 2.0

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
