"""Catalog of special-function reduction identities and semi-infinite
integrals, with a differential checker.

Every entry pairs the special-function side (LHS, evaluated through the
:mod:`trihyp.specfun` series machinery, or for the integrals J0-J3 by
:mod:`trihyp.quad` quadrature) with an independently coded elementary
side (RHS).  The two sides share nothing but ``specfun`` primitives, so
agreement on sampled parameters is a genuine cross-check.  Each entry
also carries a domain predicate encoding the piecewise exclusions, the
numerically validated branch region or the integral's hypotheses, a
deterministic sampler for that domain, and its default tolerance and
grid size.

Several printed elementary forms (I02-I05, I07-I10, and the J1/J2 closed
forms of :mod:`trihyp.quad`) hold a bracket ``1 - (truncated binomial
series)`` that shrinks like t^(n+1) under a prefactor that grows like
t^(-(n+1)), so evaluated literally it cancels at small |t| and the two
powers under- and overflow.  Every such bracket goes through the one
helper :func:`trihyp.specfun.binomial_remainder`, which returns it over
its leading power; each side cancels that power against its prefactor by
algebra, so none needs a t = 0 row.
"""

from __future__ import annotations

import cmath
import math
import sys
from random import Random
from typing import Callable, Mapping, NamedTuple

from .errors import BudgetError, DivergenceError, DomainError
from .specfun import (
    _pow,
    bell_polynomial,
    binomial_remainder,
    hyp1f1,
    hyp2f1,
    hyp3f2,
    hyp_pfq_regularized,
    incomplete_beta,
    legendre_p,
    legendre_polynomial,
    lower_incomplete_gamma_over_power,
    pochhammer,
)
from . import quad
from .roots import g_function

__all__ = [
    "IdentityDescriptor",
    "CheckRecord",
    "list_identities",
    "get_identity",
    "eval_identity",
    "check_point",
    "coerce_params",
    "default_grid",
    "faa_di_bruno_derivative",
    "i13_rhs",
    "i15_rhs",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 20260811

_FACT = math.factorial
_SQRT_PI = math.sqrt(math.pi)


class ParamSpec(NamedTuple):
    name: str
    kind: str  # "int" | "complex" | "complex_tuple"


class IdentityDescriptor(NamedTuple):
    """One catalog entry: paired LHS/RHS evaluators plus metadata."""

    id: str
    params: tuple
    domain: str
    lhs: Callable[..., complex]
    rhs: Callable[..., complex]
    anchor: str
    in_domain: Callable[..., bool] = lambda **kw: True
    sample: Callable[[Random], dict] | None = None  # None: fixed points only
    special_points: tuple = ()
    notes: str = ""
    tolerance: float = 1e-8  # default tolerance of a sweep
    grid_size: int = 200  # points of the default grid, special points first
    quadrature: bool = False  # LHS by quadrature to tol/10: it takes tol, and records keep it


class CheckRecord(NamedTuple):
    """Outcome of one differential comparison."""

    identity_id: str
    params: dict
    lhs_value: complex | None
    rhs_value: complex | None
    abs_err: float
    rel_err: float
    verdict: str  # pass | fail | skipped_domain | divergent_both


# --------------------------------------------------------------------------
# shared elementary building blocks (RHS side only)
# --------------------------------------------------------------------------


def _half_bracket(n: int, t) -> complex:
    """[1 - sqrt(1-t) sum_{k<=n} (-1/2)_k/k! u^k] / u^(n+1), u = t/(t-1).

    Equals sqrt(1-t) times the binomial remainder of 1/sqrt(1-t) in u.
    """
    t = complex(t)
    return cmath.sqrt(1.0 - t) * binomial_remainder(-0.5, n + 1, t / (t - 1.0), (1.0 - t) ** -0.5)


def _rhs_i01(t):
    # 2/t (1 - sqrt(1-t)) with the cancelling bracket multiplied out; the
    # principal sqrt has Re >= 0, so the denominator never vanishes
    return 2.0 / (1.0 + cmath.sqrt(1.0 - complex(t)))


def _rhs_i02(n, t):
    t = complex(t)
    if t == 1:
        if n == 0:
            return 2.0 + 0.0j
        raise DivergenceError("2F1(1/2+n,1+n;2+n;1) diverges for n >= 1")
    # t^(-(n+1)) times the bracket's u^(n+1) is (t-1)^(-(n+1))
    pref = 2.0 * (-1) ** n * _FACT(n + 1) / (pochhammer(0.5, n) * (t - 1.0) ** (n + 1))
    return pref * _half_bracket(n, t)


def _rhs_i03(n, t):
    t = complex(t)
    if t == 1:
        if n == 0:
            return 4.0 + 0.0j
        raise DivergenceError("2F1(1+2n,3/2+n;3+2n;1) diverges for n >= 1")
    pref = (-1) ** n * _FACT(n + 1) / pochhammer(0.5, n)
    w = t * t / (4.0 * (t - 1.0))
    # bracket 2 - t - 2 sqrt(1-t) (head in w) = 2 sqrt(1-t) * tail, as
    # sqrt(1-w) = (2-t) / (2 sqrt(1-t)); the prefactor (2/t)^(2n+2) is
    # 1 / (w (t-1))^(n+1), and its w^(n+1) is the tail's leading power
    tail = binomial_remainder(-0.5, n + 1, w, (2.0 - t) / (2.0 * cmath.sqrt(1.0 - t)))
    return pref * 2.0 * cmath.sqrt(1.0 - t) * tail / (t - 1.0) ** (n + 1)


def _rhs_i04(n, t):
    t = complex(t)
    if t == 1:
        return 2.0 * (-1) ** n * _FACT(n) / pochhammer(0.5, n) + 0.0j
    pref = 2.0 * (-1) ** n * _FACT(n) / pochhammer(0.5, n)
    return pref * (t / (t - 1.0)) ** (n + 1) * _half_bracket(n, t)


def _rhs_i05(n, t):
    t = complex(t)
    if t == 1:
        if n == 0:
            return 2.0 + 0.0j
        raise DivergenceError("2F1(1/2+n,1+n;2+n;1) diverges for n >= 1")
    pref = 2.0 * (-1) ** n * _FACT(n + 1) / pochhammer(0.5, n)
    # bracket = (1-t)^(1/2-n) t^(n+1) * remainder of the binomial series of
    # (1-t)^(n-1/2) in t; the t^(n+1) cancels the printed t^(-(n+1))
    tail = binomial_remainder(0.5 - n, n + 1, t, (1.0 - t) ** (n - 0.5))
    return pref * (1.0 - t) ** (0.5 - n) * tail


def _rhs_i06(n, t):
    t = complex(t)
    return pochhammer(0.5, n) / cmath.sqrt(1.0 - t) * (t / (1.0 - t)) ** n


def _seven_bracket(n: int, t) -> complex:
    """[1 - (1/sqrt(1-t)) sum_{k<=n} (1/2)_k/k! u^k] / u^(n+1), u = t/(t-1)."""
    t = complex(t)
    return binomial_remainder(0.5, n + 1, t / (t - 1.0), (1.0 - t) ** 0.5) / cmath.sqrt(1.0 - t)


def _rhs_i07(n, t):
    t = complex(t)
    if t == 1:
        return 2.0 * (n + 1) / (2 * n + 1) + 0.0j
    # the printed ((t-1)/t)^(n+1) is the inverse of the bracket's u^(n+1)
    pref = 2.0 * _FACT(n + 1) / (pochhammer(1.5, n) * cmath.sqrt(1.0 - t))
    return pref * _seven_bracket(n, t)


def _rhs_i08(n, t):
    t = complex(t)
    if t == 1:
        return 2.0 * (n + 1) / (2 * n + 1) + 0.0j
    u = cmath.sqrt(1.0 - t)
    v = (u - 1.0) / u
    pref = 2.0 * _FACT(n + 1) / pochhammer(1.5, n)
    # the explicit ((t-1)/t)^(n+1) piece cancels the untruncated part of
    # the sum exactly (both equal +-2 u^(2n+1)/((1-u)(1+u))^(n+1)), leaving
    # the binomial tail of (1 - v/2)^(-(n+1)) = (2u/(1+u))^(n+1) in v/2, whose
    # leading power (v/2)^(n+1) cancels the rest of the prefactor to 1/(2^(n+1) u)
    tail = binomial_remainder(n + 1.0, n + 1, v / 2.0, (2.0 * u / (1.0 + u)) ** (n + 1))
    return pref * 2.0 ** (-2 * n - 1) * tail / u


def _rhs_i09(n, t):
    # bracket sign corrected relative to the printed form: the sum is
    # subtracted (it is the truncated binomial series of (1-t)^(n+1/2))
    t = complex(t)
    if t == 1:
        return 2.0 * (n + 1) / (2 * n + 1) + 0.0j
    pref = 2.0 * _FACT(n + 1) / pochhammer(1.5, n)
    # the tail's leading power t^(n+1) over the printed (-t)^(n+1)
    tail = binomial_remainder(-n - 0.5, n + 1, t, (1.0 - t) ** (n + 0.5))
    return pref * (-1) ** (n + 1) * tail


def _lhs_i10(n, t):
    # Ferrers P_{-n}^{-n}(x) at x = 1/sqrt(1-t) (DLMF 14.3.1): the prefactor
    # ((1-x)/(1+x))^(n/2) = (-t)^(n/2)/(1+r)^n and w = (1-x)/2 are formed
    # from t itself, so they keep their digits where x rounds to 1
    t = complex(t).real
    r = math.sqrt(1.0 - t)
    w = -t / (2.0 * r * (1.0 + r))
    pref = _pow(-t, n / 2.0) / (1.0 + r) ** n
    return pref * hyp_pfq_regularized((1.0 - n, float(n)), (1.0 + n,), w).value


def _rhs_i10(n, t):
    t = complex(t)
    if t == 0:
        return 0.0 + 0.0j
    # on the negative real axis the printed ((t-1)/t)^(n/2) times the
    # bracket's u^n is (t/(t-1))^(n/2); below the normal range that power
    # has lost its digits, and the point has no value
    power = _pow(t / (t - 1.0), n / 2.0)
    if abs(power) < sys.float_info.min:
        raise DomainError(f"I10: the power (t/(t-1))^(n/2) at t = {t} is below the normal range")
    return power / (2.0**n * pochhammer(0.5, n)) * _seven_bracket(n - 1, t)


def _rhs_i11(n, t):
    return 2.0 * pochhammer(0.5, n) * complex(t) ** (n - 1)


def _rhs_i12(n, t):
    t = complex(t)
    return -((-2.0) ** n) * pochhammer(0.5, n) * t * (1.0 - t * t) ** ((n - 1) / 2.0)


def i13_rhs(z) -> complex:
    """(3/sqrt(z)) sin((1/3) asin(sqrt(z))); the z -> 0 limit is 1."""
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    return 3.0 / cmath.sqrt(z) * cmath.sin(cmath.asin(cmath.sqrt(z)) / 3.0)


def _h_coeff(s: int, z) -> complex:
    """h_s(z), the s-th derivative of (1/3) asin(sqrt(z)) in closed form."""
    z = complex(z)
    return (
        (-1j) ** (s - 1)
        * _FACT(s - 1)
        / (6.0 * (z * (1.0 - z)) ** (s / 2.0))
        * legendre_polynomial(s - 1, (1.0 - 2.0 * z) / (2.0 * cmath.sqrt(z * (z - 1.0))))
    )


def faa_di_bruno_derivative(n: int, z) -> complex:
    """n-th derivative of sin((1/3) asin(sqrt(z))) assembled from Bell
    polynomials of the inner-function derivatives h_s."""
    if n < 1:
        raise DomainError("derivative order must be >= 1")
    z = complex(z)
    if z == 0 or z == 1:
        raise DomainError("derivative is singular at z in {0, 1}")
    u = cmath.asin(cmath.sqrt(z)) / 3.0
    total = 0.0 + 0.0j
    for k in range(1, n + 1):
        hs = [_h_coeff(s, z) for s in range(1, n - k + 2)]
        total += cmath.sin(u + math.pi * k / 2.0) * bell_polynomial(n, k, hs)
    return total


def _rhs_i14(n, z):
    z = complex(z)
    return 6.0 * z ** (n - 0.5) / _SQRT_PI * faa_di_bruno_derivative(n, z)


def _g_bracket(z) -> complex:
    z = complex(z)
    g = g_function(z)
    sg = cmath.sqrt(g)
    return cmath.sqrt(g + 3.0 * z ** (1.0 / 3.0) * sg / (1.0 - 2.0 * g * sg)) - sg


def i15_rhs(z) -> complex:
    """(4/3) z^(-1/3) [sqrt(g + 3 z^(1/3) sqrt(g)/(1 - 2 g^(3/2))) - sqrt(g)]."""
    z = complex(z)
    return 4.0 / 3.0 * z ** (-1.0 / 3.0) * _g_bracket(z)


def _rhs_i16(z):
    z = complex(z)
    w = -4.0 * z / (1.0 - z) ** 2
    return i15_rhs(w) / cmath.sqrt(1.0 - z)


def _i17_argument(z):
    return cmath.sqrt(2.0 / (1.0 + cmath.sqrt(1.0 - complex(z))))


def _lhs_i17(z):
    x = _i17_argument(z)
    return legendre_p(-1.0 / 6.0, 1.0 / 3.0, x) * legendre_p(-1.0 / 6.0, -1.0 / 3.0, x)


def _rhs_i17(z):
    z = complex(z)
    return (
        cmath.sqrt(6.0 * (1.0 + cmath.sqrt(1.0 - z)))
        / (math.pi * z ** (1.0 / 3.0))
        * _g_bracket(z)
    )


_I18_LAST = [None, None, None]  # n, t and the sides of the last I18 point


def _i18_sides(n, t):
    """Worst-disagreeing pair among the equivalent elementary forms
    (I02 vs I05; I07 vs I08; I07 vs I09).

    The LHS and RHS of a point each ask for the pair: the five forms are
    worked out once, for the last point alone (the same ``t`` object, so
    that +0 and -0 are told apart).
    """
    if _I18_LAST[0] == n and _I18_LAST[1] is t:
        return _I18_LAST[2]
    i02, i05, i07 = _rhs_i02(n, t), _rhs_i05(n, t), _rhs_i07(n, t)
    pairs = ((i02, i05), (i07, _rhs_i08(n, t)), (i07, _rhs_i09(n, t)))
    sides = max(pairs, key=lambda p: abs(p[0] - p[1]) / max(abs(p[0]), sys.float_info.min))
    _I18_LAST[:] = n, t, sides
    return sides


def _rhs_k01(n, z):
    return n * lower_incomplete_gamma_over_power(n, -complex(z))


def _rhs_k02(n, z):
    # n e^z gamma(n, z)/z^n with gamma(n, z) = (n-1)! (1 - e^(-z) e_{n-1}(z)),
    # e_{n-1} the exponential series cut after z^(n-1): no series engine, so
    # not the LHS series again.  It cancels inside |z| < 1, off the domain.
    z = complex(z)
    head = sum(z**k / _FACT(k) for k in range(n))
    return _FACT(n) * (cmath.exp(z) - head) / z**n


# --------------------------------------------------------------------------
# domains and samplers
# --------------------------------------------------------------------------


def _disc(rng: Random, radius: float, min_abs: float = 0.0) -> complex:
    while True:
        r = radius * math.sqrt(rng.random())
        if r >= min_abs:
            return r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _in_disc(t, radius=0.92, min_abs=0.0) -> bool:
    return min_abs <= abs(complex(t)) <= radius


def _int_in(n, lo, hi) -> bool:
    return isinstance(n, int) and lo <= n <= hi


def _make_nt_sampler(n_lo, n_hi, min_abs=0.0):
    def sample(rng: Random) -> dict:
        return {"n": rng.randrange(n_lo, n_hi + 1), "t": _disc(rng, 0.92, min_abs)}

    return sample


_P_T = (ParamSpec("t", "complex"),)
_P_NT = (ParamSpec("n", "int"), ParamSpec("t", "complex"))
_P_Z = (ParamSpec("z", "complex"),)
_P_NZ = (ParamSpec("n", "int"), ParamSpec("z", "complex"))


_CATALOG: dict[str, IdentityDescriptor] = {}


def _register(desc: IdentityDescriptor):
    if desc.id in _CATALOG:
        raise ValueError(f"duplicate identity id {desc.id}")
    _CATALOG[desc.id] = desc


_register(
    IdentityDescriptor(
        id="I01",
        params=_P_T,
        domain="|t| <= 0.92 union {t = 1}",
        lhs=lambda t: hyp2f1(0.5, 1.0, 2.0, t),
        rhs=_rhs_i01,
        anchor="Gauss 2F1(1/2,1;2;t) in elementary form",
        in_domain=lambda t: _in_disc(t) or t == 1,
        sample=lambda rng: {"t": _disc(rng, 0.92)},
        special_points=({"t": 0.0}, {"t": 1.0}),
    )
)

_register(
    IdentityDescriptor(
        id="I02",
        params=_P_NT,
        domain="n in 0..5, |t| <= 0.92 union {t = 0, t = 1}; t = 1 divergent for n >= 1",
        lhs=lambda n, t: hyp2f1(0.5 + n, 1.0 + n, 2.0 + n, t),
        rhs=_rhs_i02,
        anchor="first differentiation formula of the base reduction",
        in_domain=lambda n, t: _int_in(n, 0, 5) and (_in_disc(t) or t == 1),
        sample=_make_nt_sampler(0, 5),
        special_points=({"n": 0, "t": 0.0}, {"n": 0, "t": 1.0}, {"n": 2, "t": 1.0}),
    )
)

_register(
    IdentityDescriptor(
        id="I03",
        params=_P_NT,
        domain="n in 0..5, |t| <= 0.92 union {t = 0, t = 1}; t = 1 divergent for n >= 1",
        lhs=lambda n, t: hyp2f1(1.0 + 2 * n, 1.5 + n, 3.0 + 2 * n, t),
        rhs=_rhs_i03,
        anchor="quadratic transformation of the first differentiation formula",
        in_domain=lambda n, t: _int_in(n, 0, 5) and (_in_disc(t) or t == 1),
        sample=_make_nt_sampler(0, 5),
        special_points=({"n": 1, "t": 0.0}, {"n": 0, "t": 1.0}, {"n": 1, "t": 1.0}),
    )
)

_register(
    IdentityDescriptor(
        id="I04",
        params=_P_NT,
        domain="n in 0..5, |t| <= 0.92 union {t = 0, t = 1}",
        lhs=lambda n, t: incomplete_beta(1.0 + n, 0.5 - n, t),
        rhs=_rhs_i04,
        anchor="incomplete beta B(1+n, 1/2-n, t) in elementary form",
        in_domain=lambda n, t: _int_in(n, 0, 5) and (_in_disc(t) or t == 1),
        sample=_make_nt_sampler(0, 5),
        special_points=({"n": 1, "t": 0.0}, {"n": 0, "t": 1.0}, {"n": 3, "t": 1.0}),
    )
)

_register(
    IdentityDescriptor(
        id="I05",
        params=_P_NT,
        domain="n in 0..5, |t| <= 0.92 union {t = 0, t = 1}; t = 1 divergent for n >= 1",
        lhs=lambda n, t: hyp2f1(0.5 + n, 1.0 + n, 2.0 + n, t),
        rhs=_rhs_i05,
        anchor="alternative elementary form with (1-t)^(1/2-n) prefactor",
        in_domain=lambda n, t: _int_in(n, 0, 5) and (_in_disc(t) or t == 1),
        sample=_make_nt_sampler(0, 5),
        special_points=({"n": 2, "t": 0.0}, {"n": 0, "t": 1.0}, {"n": 1, "t": 1.0}),
    )
)

_register(
    IdentityDescriptor(
        id="I06",
        params=_P_NT,
        domain="n in 0..6, |t| <= 0.92; t = 1 excluded (both sides divergent)",
        lhs=lambda n, t: hyp_pfq_regularized((0.5, 1.0), (1.0 - n,), t).value,
        rhs=_rhs_i06,
        anchor="regularized 2F1(1/2,1;1-n;t) reduction",
        in_domain=lambda n, t: _int_in(n, 0, 6) and _in_disc(t) and t != 1,
        sample=_make_nt_sampler(0, 6),
        special_points=({"n": 2, "t": 0.5}, {"n": 0, "t": 0.0}),
    )
)

_register(
    IdentityDescriptor(
        id="I07",
        params=_P_NT,
        domain="n in 0..5, |t| <= 0.92 union {t = 0, t = 1}",
        lhs=lambda n, t: hyp2f1(0.5, 1.0, 2.0 + n, t),
        rhs=_rhs_i07,
        anchor="third differentiation formula; t = 1 row is the Gauss value 2(n+1)/(2n+1)",
        in_domain=lambda n, t: _int_in(n, 0, 5) and (_in_disc(t) or t == 1),
        sample=_make_nt_sampler(0, 5),
        special_points=({"n": 0, "t": 0.0}, {"n": 1, "t": 1.0}, {"n": 4, "t": 1.0}),
    )
)

_register(
    IdentityDescriptor(
        id="I08",
        params=_P_NT,
        domain="n in 0..5, |t| <= 0.92 union {t = 0, t = 1}",
        lhs=lambda n, t: hyp2f1(0.5, 1.0, 2.0 + n, t),
        rhs=_rhs_i08,
        anchor="variant via the Vidunas transformation",
        in_domain=lambda n, t: _int_in(n, 0, 5) and (_in_disc(t) or t == 1),
        sample=_make_nt_sampler(0, 5),
        special_points=({"n": 0, "t": 0.0}, {"n": 2, "t": 1.0}),
    )
)

_register(
    IdentityDescriptor(
        id="I09",
        params=_P_NT,
        domain="n in 0..5, |t| <= 0.92 union {t = 0, t = 1}",
        lhs=lambda n, t: hyp2f1(0.5, 1.0, 2.0 + n, t),
        rhs=_rhs_i09,
        anchor="variant via the 2F1(1,b;m;z) partial-fraction formula",
        in_domain=lambda n, t: _int_in(n, 0, 5) and (_in_disc(t) or t == 1),
        sample=_make_nt_sampler(0, 5),
        special_points=({"n": 0, "t": 0.0}, {"n": 3, "t": 1.0}),
        notes="bracket sign corrected: the truncated binomial sum is subtracted",
    )
)

_register(
    IdentityDescriptor(
        id="I10",
        params=_P_NT,
        domain="n in 1..4, t real in [-6, 0]; branch-valid only on the negative real axis",
        lhs=_lhs_i10,
        rhs=_rhs_i10,
        anchor="Legendre P_{-n}^{-n}(1/sqrt(1-t)) in elementary form",
        in_domain=lambda n, t: _int_in(n, 1, 4)
        and complex(t).imag == 0.0
        and -6.0 <= complex(t).real <= 0.0,
        sample=lambda rng: {"n": rng.randrange(1, 5), "t": rng.uniform(-6.0, -0.01)},
        special_points=({"n": 1, "t": 0.0}, {"n": 3, "t": 0.0}),
        notes="for t off the negative real axis the printed power combination "
        "picks up a unit phase and the identity fails; domain restricted accordingly",
    )
)

_register(
    IdentityDescriptor(
        id="I11",
        params=_P_NT,
        domain="n in 1..6, |t| <= 3 (series terminates, any finite t works)",
        lhs=lambda n, t: hyp_pfq_regularized((0.5 - n, 1.0 - n), (2.0 - n,), t).value,
        rhs=_rhs_i11,
        anchor="regularized 2F1(1/2-n,1-n;2-n;t) = 2 (1/2)_n t^(n-1)",
        in_domain=lambda n, t: _int_in(n, 1, 6) and abs(complex(t)) <= 3.0,
        sample=lambda rng: {"n": rng.randrange(1, 7), "t": _disc(rng, 3.0)},
        special_points=({"n": 1, "t": 0.7}, {"n": 2, "t": 0.3}),
        notes="the n = 1 row is the t-independent value 1, consistent with the "
        "general row 2 (1/2)_n t^(n-1)",
    )
)

_register(
    IdentityDescriptor(
        id="I12",
        params=_P_NT,
        domain="n in 1..4, t real with |t| <= 0.99 (Ferrers region)",
        lhs=lambda n, t: legendre_p(n, n - 1, t),
        rhs=_rhs_i12,
        anchor="P_n^(n-1)(t) = -(-2)^n (1/2)_n t (1-t^2)^((n-1)/2)",
        in_domain=lambda n, t: _int_in(n, 1, 4)
        and complex(t).imag == 0.0
        and abs(complex(t).real) <= 0.99,
        sample=lambda rng: {"n": rng.randrange(1, 5), "t": rng.uniform(-0.99, 0.99)},
        special_points=({"n": 1, "t": 0.3}, {"n": 4, "t": -0.5}),
    )
)

_register(
    IdentityDescriptor(
        id="I13",
        params=_P_Z,
        domain="|z| <= 0.95 union {z = 1}",
        lhs=lambda z: hyp2f1(1.0 / 3.0, 2.0 / 3.0, 1.5, z),
        rhs=i13_rhs,
        anchor="2F1(1/3,2/3;3/2;z) = (3/sqrt z) sin((1/3) asin sqrt z)",
        in_domain=lambda z: _in_disc(z, 0.95) or z == 1,
        sample=lambda rng: {"z": _disc(rng, 0.95)},
        special_points=({"z": 0.0}, {"z": 1.0}),
    )
)

_register(
    IdentityDescriptor(
        id="I14",
        params=_P_NZ,
        domain="n in 1..3, z real in (0, 0.97]; Bell form is branch-valid on (0,1) only",
        lhs=lambda n, z: hyp_pfq_regularized((1.0 / 3.0, 2.0 / 3.0), (1.5 - n,), z).value,
        rhs=_rhs_i14,
        anchor="regularized 2F1(1/3,2/3;3/2-n;z) via Bell polynomials of h_s",
        in_domain=lambda n, z: _int_in(n, 1, 3)
        and complex(z).imag == 0.0
        and 0.005 <= complex(z).real <= 0.97,
        sample=lambda rng: {"n": rng.randrange(1, 4), "z": rng.uniform(0.005, 0.97)},
        special_points=({"n": 1, "z": 0.25}, {"n": 2, "z": 0.5}, {"n": 3, "z": 0.1}),
        tolerance=1e-6,
    )
)

_register(
    IdentityDescriptor(
        id="I15",
        params=_P_Z,
        domain="0 < |z| <= 0.95 union {z = 1}",
        lhs=lambda z: hyp3f2(0.25, 0.5, 0.75, 2.0 / 3.0, 4.0 / 3.0, z),
        rhs=i15_rhs,
        anchor="3F2(1/4,1/2,3/4;2/3,4/3;z) through the resolvent function g",
        in_domain=lambda z: (_in_disc(z, 0.95) and abs(complex(z)) > 1e-8) or z == 1,
        sample=lambda rng: {"z": _disc(rng, 0.95, min_abs=1e-3)},
        special_points=({"z": 1.0}, {"z": 0.5}, {"z": -0.5}),
        tolerance=1e-6,
    )
)

_register(
    IdentityDescriptor(
        id="I16",
        params=_P_Z,
        domain="|z| <= 0.95 with |4z/(1-z)^2| <= 0.95, z != 0",
        lhs=lambda z: hyp3f2(0.5, 5.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0, 4.0 / 3.0, z),
        rhs=_rhs_i16,
        anchor="Kato quadratic transformation of the resolvent reduction",
        in_domain=lambda z: _in_disc(z, 0.95)
        and abs(complex(z)) > 1e-8
        and abs(4.0 * complex(z) / (1.0 - complex(z)) ** 2) <= 0.95,
        sample=lambda rng: _sample_i16(rng),
        special_points=({"z": 0.1}, {"z": -0.5}, {"z": 0.15}),
        tolerance=1e-6,
    )
)


def _sample_i16(rng: Random) -> dict:
    while True:
        z = _disc(rng, 0.95, min_abs=1e-3)
        if abs(4.0 * z / (1.0 - z) ** 2) <= 0.95:
            return {"z": z}


_register(
    IdentityDescriptor(
        id="I17",
        params=_P_Z,
        domain="0 < |z| <= 0.95, or z real in [-6, 0), or z = 1",
        lhs=_lhs_i17,
        rhs=_rhs_i17,
        anchor="product of Legendre functions P_(-1/6)^(1/3) P_(-1/6)^(-1/3)",
        in_domain=lambda z: (
            (_in_disc(z, 0.95) and abs(complex(z)) > 1e-8)
            or (complex(z).imag == 0.0 and -6.0 <= complex(z).real < 0.0)
            or z == 1
        ),
        sample=lambda rng: (
            {"z": _disc(rng, 0.95, min_abs=1e-3)}
            if rng.random() < 0.7
            else {"z": rng.uniform(-6.0, -0.05)}
        ),
        special_points=({"z": 1.0}, {"z": 0.5}),
        tolerance=1e-6,
    )
)

_register(
    IdentityDescriptor(
        id="I18",
        params=_P_NT,
        domain="n in 0..5, |t| <= 0.92 (shared domain of the equivalent forms)",
        lhs=lambda n, t: _i18_sides(n, t)[0],
        rhs=lambda n, t: _i18_sides(n, t)[1],
        anchor="equivalence of the alternative elementary representations "
        "(I02 = I05, I07 = I08 = I09)",
        in_domain=lambda n, t: _int_in(n, 0, 5) and _in_disc(t),
        sample=_make_nt_sampler(0, 5, min_abs=0.01),
        special_points=({"n": 1, "t": 0.5}, {"n": 3, "t": -0.4}),
        notes="reports the worst-disagreeing pair among the three equivalences",
    )
)

_register(
    IdentityDescriptor(
        id="K01",
        params=_P_NZ,
        domain="n in 1..5, |z| <= 8",
        lhs=lambda n, z: hyp1f1(n, 1 + n, z),
        rhs=_rhs_k01,
        anchor="Kummer 1F1(n;1+n;z) = n (-z)^(-n) gamma(n, -z)",
        in_domain=lambda n, z: _int_in(n, 1, 5) and abs(complex(z)) <= 8.0,
        sample=lambda rng: {"n": rng.randrange(1, 6), "z": _disc(rng, 8.0)},
        special_points=({"n": 1, "z": 0.0}, {"n": 3, "z": -2.0}),
    )
)

_register(
    IdentityDescriptor(
        id="K02",
        params=_P_NZ,
        domain="n in 1..5, 1 <= |z| <= 8",
        lhs=lambda n, z: hyp1f1(1, 1 + n, z),
        rhs=_rhs_k02,
        anchor="Kummer 1F1(1;1+n;z) = n e^z gamma(n, z) / z^n "
        "= n! (e^z - e_{n-1}(z)) / z^n",
        in_domain=lambda n, z: _int_in(n, 1, 5) and _in_disc(z, 8.0, 1.0),
        sample=lambda rng: {"n": rng.randrange(1, 6), "z": _disc(rng, 8.0, min_abs=1.0)},
        special_points=({"n": 5, "z": 1.0}, {"n": 2, "z": 1.5}),
    )
)


# --------------------------------------------------------------------------
# the semi-infinite integrals: quadrature (LHS) against the closed form (RHS)
# --------------------------------------------------------------------------

_register(
    IdentityDescriptor(
        id="J0",
        params=(ParamSpec("a", "complex_tuple"), ParamSpec("b", "complex_tuple"),
                ParamSpec("alpha", "complex"), ParamSpec("s", "complex"), ParamSpec("x", "complex")),
        domain="p = len(a) <= q = len(b), Re s > 0, Re alpha > 0, |x/s| < 1, "
        "and Re(s - x) > 0 when p = q",
        lhs=quad.laplace_integral,
        rhs=quad.laplace_closed_form,
        anchor="Laplace lemma: int_0^inf e^(-st) t^(alpha-1) pFq(a; b; xt) dt "
        "= Gamma(alpha) s^-alpha p+1Fq(a, alpha; b; x/s)",
        in_domain=lambda a, b, alpha, s, x: len(a) <= len(b)
        and s.real > 0
        and alpha.real > 0
        and abs(x) < abs(s)
        and (len(a) < len(b) or (s - x).real > 0),
        sample=quad.laplace_random_draw,
        tolerance=1e-7,
        grid_size=10,
        quadrature=True,
    )
)

_register(
    IdentityDescriptor(
        id="J1",
        params=(ParamSpec("n", "int"), ParamSpec("s", "complex"), ParamSpec("x", "complex")),
        domain="n >= 0, Re s > 0, Re(s + x) > 0",
        lhs=quad.j1_integral,
        rhs=quad.j1_closed_form,
        anchor="int_0^inf e^(-st) t^(-3/2) gamma(n+1, xt) dt in closed form",
        in_domain=lambda n, s, x: n >= 0 and s.real > 0 and (s + x).real > 0,
        special_points=tuple({"n": n, "s": s, "x": x} for n in (0, 1, 2)
                             for s, x in ((2.0, 1.0), (1.0, 0.5), (3.0, 2.0))),
        tolerance=1e-6,
        grid_size=9,
        quadrature=True,
    )
)

_register(
    IdentityDescriptor(
        id="J2",
        params=(ParamSpec("n", "int"), ParamSpec("p", "complex"), ParamSpec("x", "complex")),
        domain="n >= 1; Re p > 0 and Re(p + x) > 0, or p = 0 (algebraic tail) with Re x > 0",
        lhs=quad.j2_integral,
        rhs=quad.j2_closed_form,
        anchor="int_0^inf e^(-pt) t^(-1/2-n) gamma(n, xt) dt in piecewise closed form",
        in_domain=lambda n, p, x: n >= 1
        and (x.real > 0 if p == 0 else p.real > 0 and (p + x).real > 0),
        special_points=tuple({"n": n, "p": p, "x": x} for n in (1, 2)
                             for p, x in ((1.0, 1.0), (2.0, 0.5), (0.0, 1.0))),
        tolerance=1e-6,
        grid_size=6,
        quadrature=True,
    )
)

_register(
    IdentityDescriptor(
        id="J3",
        params=(ParamSpec("p", "complex"), ParamSpec("x", "complex")),
        domain="real x > 0 (the cylinder function's supported range), Re(2p - x) > 0",
        lhs=quad.j3_integral,
        rhs=quad.j3_closed_form,
        anchor="int_0^inf e^(-pt) t^(-5/6) D_(1/3)(-sqrt(2xt)) dt in closed form",
        in_domain=lambda p, x: x.imag == 0.0 and x.real > 0.0 and (2.0 * p - x).real > 0,
        special_points=tuple({"p": p, "x": x}
                             for p, x in ((1.0, 1.0), (2.0, 0.5), (1.5, 1.0), (3.0, 0.8))),
        tolerance=1e-5,
        grid_size=4,
        quadrature=True,
    )
)


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------


def list_identities() -> tuple:
    """All catalog entries in stable id order."""
    return tuple(_CATALOG[k] for k in sorted(_CATALOG))


def get_identity(identity_id: str) -> IdentityDescriptor:
    try:
        return _CATALOG[identity_id]
    except KeyError:
        raise DomainError(f"unknown identity id {identity_id!r}") from None


_NUMBER = (int, float, complex)


def coerce_params(identity_id: str, params: Mapping) -> dict:
    """The parameters of one point of the entry as its evaluators take them:
    an integer parameter as int, a complex one as complex, a tuple one as a
    tuple of complex.  A missing, unexpected or ill-typed parameter, or a
    non-integer value of an integer one, raises :class:`DomainError`.
    Coercing a coerced point returns an equal one."""
    desc = get_identity(identity_id)
    out = {}
    for spec in desc.params:
        if spec.name not in params:
            raise DomainError(f"{desc.id}: missing parameter {spec.name!r}")
        v = params[spec.name]
        if spec.kind == "complex_tuple":
            if not (isinstance(v, (tuple, list)) and all(isinstance(x, _NUMBER) for x in v)):
                raise DomainError(f"{desc.id}: parameter {spec.name} must be a list of numbers")
            out[spec.name] = tuple(complex(x) for x in v)
        elif not isinstance(v, _NUMBER):
            raise DomainError(f"{desc.id}: parameter {spec.name} must be a number")
        elif spec.kind == "int":
            iv = round(v.real) if cmath.isfinite(v) else None
            if iv != v:
                raise DomainError(f"{desc.id}: parameter {spec.name} must be an integer")
            out[spec.name] = iv
        else:
            out[spec.name] = complex(v)
    extra = set(params) - {p.name for p in desc.params}
    if extra:
        raise DomainError(f"{desc.id}: unexpected parameters {sorted(extra)}")
    return out


def _record(identity_id, params, lv, rv, tol) -> CheckRecord:
    """The verdict rule: a point passes iff its absolute error is within
    tol times |lhs|, floored at the smallest normal double 2^-1022; below
    that floor a double holds fewer than 53 bits, and a relative test
    means nothing.  So ``tol`` is relative at every size of value."""
    abs_err = abs(lv - rv)
    if lv == 0:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    else:
        rel_err = abs_err / abs(lv)
    ok = abs_err <= tol * max(abs(lv), sys.float_info.min)
    return CheckRecord(
        identity_id, params, lv, rv, abs_err, rel_err, "pass" if ok else "fail"
    )


_EXHAUSTED = object()  # _side's value of a side whose series or quadrature did not converge


def _side(fn, p):
    """One side's value; None where it diverges, ``_EXHAUSTED`` where a
    series or the quadrature raises :class:`BudgetError`.  A value that is
    not finite raises :class:`DomainError`, so no record holds one."""
    try:
        value = fn(**p)
    except DivergenceError:
        return None
    except BudgetError:
        return _EXHAUSTED
    if not cmath.isfinite(value):
        raise DomainError(f"side value {value} is not finite")
    return value


def eval_identity(identity_id: str, params: Mapping, tol: float) -> CheckRecord:
    """Differentially evaluate one catalog entry at one parameter point.

    Points outside the entry's domain, that an evaluator rejects with
    :class:`DomainError` (a quadrature node beyond a special function's
    range), or where a side's value is not finite, come back as
    ``skipped_domain``.  Points where exactly one side diverges, or where
    either side raises :class:`BudgetError`, count as ``fail`` with that
    side's value None; points where both sides are genuinely infinite
    (the divergent rows of the piecewise forms) come back as
    ``divergent_both``.  A ``tol`` that is not finite
    and positive raises :class:`DomainError`.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    desc = get_identity(identity_id)
    p = coerce_params(identity_id, params)
    point = dict(p, tol=tol) if desc.quadrature else p  # what the LHS takes and the record keeps
    skipped = CheckRecord(desc.id, point, None, None, math.nan, math.nan, "skipped_domain")
    if not desc.in_domain(**p):
        return skipped
    try:
        lv, rv = _side(desc.lhs, point), _side(desc.rhs, p)
    except DomainError:
        return skipped
    if lv is None and rv is None:
        return CheckRecord(desc.id, point, None, None, 0.0, 0.0, "divergent_both")
    lv, rv = (None if v is _EXHAUSTED else v for v in (lv, rv))
    if lv is None or rv is None:
        return CheckRecord(desc.id, point, lv, rv, math.inf, math.inf, "fail")
    return _record(desc.id, point, lv, rv, tol)


def check_point(identity_id: str, params: Mapping, tol: float) -> CheckRecord:
    """:func:`eval_identity` at a single point, where a point outside the
    entry's domain raises :class:`DomainError` instead of giving a
    ``skipped_domain`` record."""
    rec = eval_identity(identity_id, params, tol)
    if rec.verdict == "skipped_domain":
        domain = get_identity(identity_id).domain
        raise DomainError(f"{identity_id}: point outside the supported domain ({domain})")
    return rec


def default_grid(identity_id: str, count: int | None = None, seed: int = DEFAULT_SEED) -> list:
    """Deterministic pseudo-random sample of the entry's declared domain,
    with the piecewise special points prepended; ``count`` defaults to
    the entry's grid size.  An entry without a sampler has its special
    points only: asking it for more raises :class:`DomainError`."""
    desc = get_identity(identity_id)
    if count is None:
        count = desc.grid_size
    rng = Random(f"{seed}:{identity_id}")
    points = [dict(p) for p in desc.special_points[:count]]
    if len(points) < count and desc.sample is None:
        raise DomainError(f"{identity_id} has {len(points)} fixed points")
    while len(points) < count:
        points.append(desc.sample(rng))
    return points
