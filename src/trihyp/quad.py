"""Semi-infinite quadrature with endpoint-singularity handling, plus the
integrands and closed forms of the catalog's three integral identities
and of the Laplace-transform lemma for hypergeometric integrands.

The core rule is double-exponential (tanh-sinh) quadrature on a finite
window [0, T] chosen from the integrand's exponential decay rate, with
an optional power substitution t = u^m that removes the algebraic
endpoint singularity t^sigma at the origin.  Integrands with purely
algebraic tails (the p = 0 branch of the second integral identity) go
through the exp-sinh transform of the whole half line instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import BudgetError, DomainError
from .specfun import (
    HypergeometricSpec,
    gamma,
    hyp_pfq,
    lower_incomplete_gamma,
    parabolic_cylinder_d,
    pochhammer,
)

__all__ = [
    "IntegralSpec",
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
DEFAULT_BUDGET = 200_000


@dataclass(frozen=True)
class IntegralSpec:
    """Description of one semi-infinite integrand.

    ``singular_exponent`` is the power of t as t -> 0 (must exceed -1);
    ``decay_rate`` the exponential tail rate (0 selects the
    algebraic-tail transform).  ``integrand`` is the callable itself;
    the factory helpers below build specs for the catalog integrals.
    """

    integrand_id: str  # J0_laplace_hyp | J1_gamma_int | J2_gamma_int | J3_cylinder_int | custom
    params: dict = field(default_factory=dict)
    singular_exponent: float = 0.0
    decay_rate: float = 1.0
    integrand: Callable[[float], complex] | None = None

    def __post_init__(self):
        if not self.singular_exponent > -1.0:
            raise DomainError("singular_exponent must exceed -1 for integrability")
        if self.decay_rate < 0.0:
            raise DomainError("decay_rate must be >= 0")
        if self.integrand is None:
            raise DomainError("spec carries no integrand callable")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    est_error: float
    evaluations: int


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise _BudgetHit()


class _BudgetHit(Exception):
    pass


def _tanh_sinh_level(f, half: float, h: float, budget: _Budget) -> complex:
    """One trapezoid pass of the tanh-sinh rule over (0, 2*half)."""
    total = 0.0 + 0.0j
    k = 0
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
            budget.spend()
            contributions.append(w * f(x))
        c = sum(contributions)
        total += c
        if k > 3 and abs(c) <= 1e-18 * (abs(total) + 1e-30):
            dead += 1
            if dead >= 2:
                break
        else:
            dead = 0
        k += 1
    return total * h


def _exp_sinh_level(f, h: float, budget: _Budget) -> complex:
    """One trapezoid pass of the exp-sinh rule over (0, infinity)."""
    total = 0.0 + 0.0j
    for direction in (1.0, -1.0):
        k = 0 if direction > 0 else 1
        dead = 0
        while k * h <= _TAU_MAX:
            tau = direction * k * h
            s = _HALF_PI * math.sinh(tau)
            if s > 690.0:
                break
            t = math.exp(s)
            w = _HALF_PI * math.cosh(tau) * t
            budget.spend()
            c = w * f(t)
            total += c
            if k > 3 and abs(c) <= 1e-18 * (abs(total) + 1e-30):
                dead += 1
                if dead >= 2:
                    break
            else:
                dead = 0
            k += 1
    return total * h


def integrate_semi_infinite(
    spec: IntegralSpec,
    tol: float,
    max_evals: int = DEFAULT_BUDGET,
    use_substitution: bool = True,
) -> QuadResult:
    """Integrate ``spec`` over (0, infinity) to relative accuracy ``tol``.

    Exponentially decaying integrands are truncated at
    T = max(50/decay_rate, 40), where the truncation bound |f(T)|/d is
    checked against tol/10, and integrated with tanh-sinh after the
    optional substitution t = u^m that flattens the origin singularity.
    A zero decay rate selects the exp-sinh transform of the full half
    line.  Exhausting ``max_evals`` raises :class:`BudgetError` with the
    best estimate attached.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    f = spec.integrand
    budget = _Budget(max_evals)
    best: tuple[complex, float] | None = None
    try:
        if spec.decay_rate == 0.0:
            prev = None
            h = 0.5
            for _ in range(7):
                val = _exp_sinh_level(f, h, budget)
                if prev is not None:
                    err = abs(val - prev)
                    best = (val, err)
                    if err <= tol * max(1.0, abs(val)) / 3.0:
                        return QuadResult(val, err, budget.used)
                prev = val
                h /= 2.0
            raise _BudgetHit()

        d = spec.decay_rate
        T = max(50.0 / d, 40.0)
        tail = abs(f(T)) / d
        budget.spend()
        while tail > tol / 10.0 and T < 1e6:
            T *= 1.5
            budget.spend()
            tail = abs(f(T)) / d
        m = 1
        if use_substitution and spec.singular_exponent < 0.0:
            m = max(1, math.ceil((1.0 - 1e-12) / (1.0 + spec.singular_exponent)))
        if m == 1:
            g = f
        else:
            def g(u, _m=m):
                t = u**_m
                if t == 0.0:  # node so deep that u^m underflows; weight is ~0 there
                    return 0.0
                return f(t) * _m * u ** (_m - 1)
        upper = T ** (1.0 / m)
        prev = None
        h = 0.5
        for _ in range(7):
            val = _tanh_sinh_level(g, upper / 2.0, h, budget)
            if prev is not None:
                err = abs(val - prev) + tail
                best = (val, err)
                if err <= tol * max(1.0, abs(val)) / 3.0:
                    return QuadResult(val, err, budget.used)
            prev = val
            h /= 2.0
        raise _BudgetHit()
    except _BudgetHit:
        if best is None:
            best = (complex(0.0), math.inf)
        raise BudgetError(
            f"quadrature budget exhausted for {spec.integrand_id}",
            best=QuadResult(best[0], best[1], budget.used),
        ) from None


# --------------------------------------------------------------------------
# the catalog integrals J0-J3: quadrature to tol/10 and the closed forms
#
# The hypotheses of each integral are the domain rule of its catalog entry
# (trihyp.identities); the functions below assume them.
# --------------------------------------------------------------------------


def _quadrature(integrand_id, f, singular_exponent, decay_rate, tol) -> complex:
    """The integral of ``f`` to a tenth of the check tolerance ``tol``."""
    spec = IntegralSpec(integrand_id, singular_exponent=singular_exponent,
                        decay_rate=decay_rate, integrand=f)
    return integrate_semi_infinite(spec, tol / 10.0).value


def laplace_integral(a, b, alpha, s, x, tol) -> complex:
    """int_0^inf e^(-st) t^(alpha-1) pFq(a; b; x t) dt (the Laplace lemma, J0)."""

    def f(t: float) -> complex:
        df = hyp_pfq(HypergeometricSpec.of(a, b, x * t)).value
        return cmath.exp(-s * t) * t ** (alpha - 1.0) * df

    # for p = q the integrand grows like e^(x t)
    decay = (s - x).real if len(a) == len(b) and x.real > 0 else 0.6 * s.real
    return _quadrature("J0_laplace_hyp", f, min(max(alpha.real - 1.0, -0.999), 0.0), decay, tol)


def laplace_closed_form(a, b, alpha, s, x) -> complex:
    """Gamma(alpha) s^-alpha p+1Fq(a, alpha; b; x/s)."""
    return gamma(alpha) * s ** (-alpha) * hyp_pfq(
        HypergeometricSpec.of(a + (alpha,), b, x / s)
    ).value


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
        return cmath.exp(-s * t) * t ** (-1.5) * lower_incomplete_gamma(n + 1, x * t)

    return _quadrature("J1_gamma_int", f, -0.5, min(s.real, (s + x).real), tol)


def j1_closed_form(n: int, s, x) -> complex:
    """-2 sqrt(pi) n! [sqrt(s) - sqrt(s+x) sum_{k<=n} (-1/2)_k/k! (x/(x+s))^k]."""
    s, x = complex(s), complex(x)
    u = x / (x + s)
    acc = sum(pochhammer(-0.5, k) / math.factorial(k) * u**k for k in range(n + 1))
    return -2.0 * _SQRT_PI * math.factorial(n) * (cmath.sqrt(s) - cmath.sqrt(s + x) * acc)


def j2_integral(n: int, p, x, tol) -> complex:
    """int_0^inf e^(-pt) t^(-1/2-n) gamma(n, xt) dt; p = 0 is the algebraic-tail branch."""

    def f(t: float) -> complex:
        return cmath.exp(-p * t) * t ** (-0.5 - n) * lower_incomplete_gamma(n, x * t)

    return _quadrature("J2_gamma_int", f, -0.5, 0.0 if p == 0 else min(p.real, (p + x).real), tol)


def j2_closed_form(n: int, p, x) -> complex:
    """Piecewise closed form of int_0^inf e^(-pt) t^(-1/2-n) gamma(n, xt) dt."""
    p, x = complex(p), complex(x)
    if p == 0:
        return 2.0 * _SQRT_PI * x ** (n - 0.5) / (2 * n - 1)
    acc = sum(
        pochhammer(0.5, k) / math.factorial(k) * (-x / p) ** k for k in range(n)
    )
    return (
        -_SQRT_PI
        * math.factorial(n - 1)
        * (-p) ** (n - 1)
        / pochhammer(0.5, n)
        * (cmath.sqrt(p) - cmath.sqrt(p + x) * acc)
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

    return _quadrature("J3_cylinder_int", f, -5.0 / 6.0, decay, tol)


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
