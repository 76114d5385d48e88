"""Roots of the trinomial x^n - x + t = 0 (n = 2, 3, 4) by two
independent routes.

The series route sums t * nF_{n-1}(1/n..n/n; 2/(n-1)..n/(n-1); z) with
z = n (n t / (n-1))^(n-1), duplicate upper/lower parameters cancelled.
The closed-form route uses the quadratic formula, the trigonometric
solution of the depressed cubic, and Descartes's factorization of the
depressed quartic.  Both are exposed so they can be compared
differentially.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import DomainError
from .specfun import hyp_pfq

__all__ = [
    "TrinomialInstance",
    "RootSet",
    "DescartesFactors",
    "root_hypergeometric",
    "root_lagrange_partial",
    "lagrange_coefficient",
    "quadratic_roots",
    "quartic_roots",
    "descartes_factorization",
    "g_function",
    "residual",
    "trinomial_closed_roots",
    "series_argument",
]

_SQRT3 = math.sqrt(3.0)


class _TrinomialFields(NamedTuple):
    n: int
    t: complex


class TrinomialInstance(_TrinomialFields):
    """One instance of x^n - x + t = 0."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 2:
            raise DomainError("trinomial degree must satisfy n >= 2")
        return self


class RootSet(NamedTuple):
    roots: tuple
    residuals: tuple


class DescartesFactors(NamedTuple):
    """Internal values of the Descartes quartic factorization
    (x^2 + alpha x + beta)(x^2 - alpha x + gamma)."""

    alpha: complex
    beta: complex
    gamma: complex
    xi: complex  # the resolvent root alpha^2


def residual(inst: TrinomialInstance, x) -> float:
    """|x^n - x + t| for one candidate root; :class:`DomainError` where it
    leaves the double range."""
    x = complex(x)
    try:
        value = abs(x**inst.n - x + inst.t)
    except (OverflowError, ZeroDivisionError):  # complex ** out of range raises either
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"the residual of x^{inst.n} - x + t at x = {x} is not finite")
    return value


def series_argument(n: int, t) -> complex:
    """Argument z = n (n t/(n-1))^(n-1) of the hypergeometric root series;
    :class:`DomainError` where it leaves the double range, and for n < 2."""
    if n < 2:
        raise DomainError("trinomial degree must satisfy n >= 2")
    t = complex(t)
    try:
        z = n * (n * t / (n - 1)) ** (n - 1)
    except OverflowError:
        z = math.inf
    if not cmath.isfinite(z):
        raise DomainError(f"series argument at t = {t} leaves the double range")
    return z


def _series_parameters(n: int):
    upper = [j / n for j in range(1, n + 1)]
    lower = [j / (n - 1) for j in range(2, n + 1)]
    if n > 2:  # n and n-1 are coprime, so j/n = k/(n-1) at j = n, k = n-1 alone
        upper.remove(1.0)
        lower.remove(1.0)
    return upper, lower


# the parameters and each term cost about 2n operations: the degree is held
# to 10^4, so that a sum takes well under 1 s
_ROOT_SERIES_MAX_DEGREE = 10**4


def root_hypergeometric(inst: TrinomialInstance) -> complex:
    """The t -> 0 branch of x^n - x + t = 0 by the hypergeometric series.

    Only defined inside the convergence disc |z| <= 0.999 of the series
    argument; raises :class:`DomainError` outside, and for a degree above
    10^4.
    """
    if inst.n > _ROOT_SERIES_MAX_DEGREE:
        raise DomainError(f"degree n = {inst.n} is above the series route's 10^4")
    z = series_argument(inst.n, inst.t)
    if abs(z) > 0.999:
        raise DomainError(
            f"series argument |z| = {abs(z):.4f} outside the convergence disc"
        )
    upper, lower = _series_parameters(inst.n)
    return inst.t * hyp_pfq(upper, lower, z).value


# n k at most this: a partial sum's factorials take well under 0.1 s
_LAGRANGE_MAX_NK = 10**4


def lagrange_coefficient(n: int, k: int) -> int:
    """Exact integer coefficient (nk)! / (k! (nk-k+1)!) of the Lagrange
    root series (the Fuss-Catalan numbers; Catalan numbers for n = 2);
    :class:`DomainError` for n < 2, k < 0 and n k above 10^4."""
    if n < 2 or k < 0 or n * k > _LAGRANGE_MAX_NK:
        raise DomainError(f"lagrange_coefficient needs n >= 2 and 0 <= n k <= 10^4, got {n}, {k}")
    if k == 0:
        return 1
    num = math.factorial(n * k)
    den = math.factorial(k) * math.factorial(n * k - k + 1)
    q, r = divmod(num, den)
    assert r == 0
    return q


def root_lagrange_partial(inst: TrinomialInstance, terms: int) -> complex:
    """Partial sum t [1 + sum_{k=1}^{terms} (nk)!/(k!(nk-k+1)!) t^((n-1)k)];
    :class:`DomainError` for n terms above 10^4 and where a term leaves
    the double range."""
    if terms < 1:
        raise DomainError("need at least one correction term")
    if inst.n * terms > _LAGRANGE_MAX_NK:
        raise DomainError(f"n terms = {inst.n * terms} is above 10^4")
    t = complex(inst.t)
    if t == 0:
        return 0.0 + 0.0j
    n = inst.n
    acc = 1.0 + 0.0j
    power = 1.0 + 0.0j
    try:
        tp = t ** (n - 1)
        for k in range(1, terms + 1):
            power *= tp
            acc += lagrange_coefficient(n, k) * power
    except OverflowError:  # t^(n-1) or a coefficient beyond the double range
        raise DomainError(f"the Lagrange series at t = {t} leaves the double range") from None
    value = t * acc
    if not cmath.isfinite(value):
        raise DomainError(f"the Lagrange series at t = {t} leaves the double range")
    return value


def quadratic_roots(t) -> RootSet:
    """Both roots of x^2 - x + t = 0; the first entry is the t -> 0
    branch (1 - sqrt(1-4t))/2 matching the series root."""
    t = complex(t)
    s = cmath.sqrt(1.0 - 4.0 * t)
    roots = ((1.0 - s) / 2.0, (1.0 + s) / 2.0)
    if not all(map(cmath.isfinite, roots)):
        raise DomainError(f"closed-form roots of x^2 - x + t at t = {t} are not finite")
    inst = TrinomialInstance(2, t)
    return RootSet(roots, tuple(residual(inst, x) for x in roots))


def _depressed_cubic_roots(m, nn):
    """All roots of x^3 - 3 m x + 2 nn = 0 for complex m != 0, nn.

    Principal-branch trigonometric form; exact for arbitrary complex
    coefficients: complex acos merges the cosh (nn^2 > m^3) and cos
    (nn^2 < m^3) cases of the real classification and keeps the roots
    continuous across the nn^2 = m^3 boundary.
    """
    m = complex(m)
    nn = complex(nn)
    sm = cmath.sqrt(m)
    theta = cmath.acos(nn * m ** (-1.5)) / 3.0
    c, s = cmath.cos(theta), cmath.sin(theta)
    return (-2.0 * sm * c, sm * (c + _SQRT3 * s), sm * (c - _SQRT3 * s))


def _sorted_roots(roots):
    return tuple(sorted(roots, key=lambda z: (z.real, z.imag)))


def descartes_factorization(p, q, r) -> DescartesFactors:
    """Solve the resolvent bicubic and build the quadratic-factor
    coefficients alpha, beta, gamma of Descartes's method.

    The resolvent in xi = alpha^2 is
    xi^3 + 2 p xi^2 + (p^2 - 4 r) xi - q^2 = 0; the root of largest
    modulus is taken so that q/alpha stays well conditioned.
    :class:`DomainError` where the resolvent or a factor leaves the double
    range.
    """
    p, q, r = complex(p), complex(q), complex(r)
    if q == 0:
        raise DomainError("degenerate quartic: q = 0 (biquadratic) is unsupported")
    b2, b1, b0 = 2.0 * p, p * p - 4.0 * r, -q * q
    # depress xi = y - b2/3, then y^3 - 3 m y + 2 nn = 0
    shift = b2 / 3.0
    m = (b2 * b2 / 3.0 - b1) / 3.0
    try:
        nn = (b0 + 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0) / 2.0
        if abs(m) < 1e-40:
            cube = (-2.0 * nn) ** (1.0 / 3.0)
            rot = cmath.exp(2j * math.pi / 3.0)
            ys = (cube, cube * rot, cube * rot.conjugate())
        else:
            ys = _depressed_cubic_roots(m, nn)
    except OverflowError:
        raise DomainError(f"the resolvent of x^4 + {p} x^2 + {q} x + {r} is not finite") from None
    for xi in sorted((y - shift for y in ys), key=abs, reverse=True):
        if xi == 0:
            continue
        root = cmath.sqrt(xi)
        for alpha in (root, -root):
            gamma = (p + xi + q / alpha) / 2.0
            if gamma != 0:
                factors = DescartesFactors(alpha, r / gamma, gamma, xi)
                if not all(map(cmath.isfinite, factors)):
                    raise DomainError(f"the resolvent of x^4 + {p} x^2 + {q} x + {r} "
                                      "is not finite")
                return factors
    raise DomainError("degenerate quartic: gamma = 0 in every factorization")


def quartic_roots(p, q, r) -> RootSet:
    """All four roots of x^4 + p x^2 + q x + r = 0 via Descartes's
    factorization; roots sorted lexicographically by (re, im)."""
    f = descartes_factorization(p, q, r)
    s1 = cmath.sqrt(f.alpha * f.alpha - 4.0 * f.beta)
    s2 = cmath.sqrt(f.alpha * f.alpha - 4.0 * f.gamma)
    roots = _sorted_roots(
        (
            (-f.alpha + s1) / 2.0,
            (-f.alpha - s1) / 2.0,
            (f.alpha + s2) / 2.0,
            (f.alpha - s2) / 2.0,
        )
    )
    if not all(map(cmath.isfinite, roots)):
        raise DomainError(f"the roots of x^4 + {p} x^2 + {q} x + {r} are not finite")
    res = tuple(abs(x**4 + p * x * x + q * x + r) for x in roots)
    return RootSet(roots, res)


def g_function(z) -> complex:
    """g(z) = -z^(1/6) cosh((1/3) acosh(-1/sqrt(z))), principal branches.

    2^(2/3) g(z) is a root of the quartic-resolvent cubic
    xi^3 - 4 t xi - 1 = 0 written through z = 4 (4t/3)^3; as a function
    of z it always satisfies 4 g^3 - 3 z^(1/3) g - 1 = 0.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("g_function is singular at z = 0")
    return -(z ** (1.0 / 6.0)) * cmath.cosh(cmath.acosh(-1.0 / cmath.sqrt(z)) / 3.0)


def trinomial_closed_roots(n: int, t) -> RootSet:
    """Closed-form roots of x^n - x + t = 0 for n in {2, 3, 4}.

    :class:`DomainError` where a root or its residual is not finite (an
    intermediate of the formula leaves the double range, as at |t| near
    1e308)."""
    t = complex(t)
    inst = TrinomialInstance(n, t)
    if n == 2:
        roots = quadratic_roots(t).roots
    elif n == 3:
        # x^3 - 3 (1/3) x + 2 (t/2) = 0
        roots = _sorted_roots(_depressed_cubic_roots(1.0 / 3.0, t / 2.0))
    elif n == 4:
        roots = quartic_roots(0.0, -1.0, t).roots
    else:
        raise DomainError(f"no closed form implemented for n = {n}")
    if not all(map(cmath.isfinite, roots)):
        raise DomainError(f"closed-form roots of x^{n} - x + t at t = {t} are not finite")
    return RootSet(roots, tuple(residual(inst, x) for x in roots))
