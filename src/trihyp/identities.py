"""Catalog of special-function reduction identities and semi-infinite
integrals, with a differential checker.

Every entry pairs the special-function side (LHS, evaluated through the
:mod:`trihyp.specfun` series machinery, or for the integrals J0-J3 by
:mod:`trihyp.quad` quadrature) with an independently coded elementary
side (RHS).  The two sides share nothing but ``specfun`` primitives, so
agreement on sampled parameters is a genuine cross-check.  Each entry
declares its domain once, as a :class:`Domain` value (the n range, the
discs and real segments, the exact points) or, for an integral, as its
:class:`Hypotheses`; the domain predicate, the deterministic sampler of
the default grid and the domain text all derive from it.  Each entry
also has its default tolerance and grid size.

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
    """One catalog entry: paired LHS/RHS evaluators plus metadata.  Its
    ``domain`` (a :class:`Domain`, or an integral's :class:`Hypotheses`)
    gives its parameters, its predicate ``in_domain``, its default-grid
    sampler and its domain text."""

    id: str
    params: tuple  # the domain's
    in_domain: Callable[..., bool]  # the domain's predicate, called with a point's parameters
    domain: "Domain | Hypotheses"
    lhs: Callable[..., complex]
    rhs: Callable[..., complex]
    anchor: str
    special_points: tuple = ()
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
    # the n = 1 row is the t-independent value 1
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
    """h_s(z), the s-th derivative of (1/3) asin(sqrt(z)) in closed form;
    :class:`DomainError` where its (z (1-z))^(s/2) underflows to 0."""
    z = complex(z)
    scale = (z * (1.0 - z)) ** (s / 2.0)
    if scale == 0:
        raise DomainError(f"h_{s}: (z (1-z))^({s}/2) underflows at z = {z}")
    return (
        (-1j) ** (s - 1)
        * _FACT(s - 1)
        / (6.0 * scale)
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
# domains: each I and K entry declares its domain once, as data, and its
# predicate, its default-grid sampler and its text all derive from it
# --------------------------------------------------------------------------


def _num(x: float) -> str:
    return f"{x:g}".replace("e-0", "e-")


class Disc(NamedTuple):
    """The closed annulus inner <= |v| <= radius; its draws keep |v| at or
    above ``keep_off`` as well."""

    radius: float
    inner: float = 0.0
    keep_off: float = 0.0

    def holds(self, v: complex) -> bool:
        return self.inner <= abs(v) <= self.radius

    def draw(self, rng: Random) -> complex:
        low = max(self.inner, self.keep_off)
        while True:
            r = self.radius * math.sqrt(rng.random())
            if r >= low:
                return r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

    def text(self, var: str) -> str:
        bound = f"|{var}| <= {_num(self.radius)}"
        return f"{_num(self.inner)} <= {bound}" if self.inner else bound


class Segment(NamedTuple):
    """Real v from lo to hi, each end closed ("[", "]") or open ("(", ")");
    its draws are uniform on ``draws`` = (low, high)."""

    lo: float
    hi: float
    draws: tuple
    ends: str = "[]"

    def holds(self, v: complex) -> bool:
        x = v.real
        return (v.imag == 0.0 and (self.lo <= x if self.ends[0] == "[" else self.lo < x)
                and (x <= self.hi if self.ends[1] == "]" else x < self.hi))

    def draw(self, rng: Random) -> float:
        return rng.uniform(*self.draws)

    def text(self, var: str) -> str:
        return f"{var} real in {self.ends[0]}{_num(self.lo)}, {_num(self.hi)}{self.ends[1]}"


class Domain(NamedTuple):
    """The domain of an I or K entry: n in the range ``n`` (no n when None),
    and the variable ``var`` in one of ``regions`` or at one of the exact
    ``points``, meeting each ``extra`` (predicate, text) pair too.  The
    sampler draws n, then a region (by ``weights``, one per region, where
    there are two or more), then a value in it until the extras hold."""

    var: str
    regions: tuple
    n: range | None = None
    weights: tuple = ()
    points: tuple = ()
    extra: tuple = ()
    note: str = ""  # prose closing the text: divergent rows, branch remarks

    @property
    def params(self) -> tuple:
        head = () if self.n is None else (ParamSpec("n", "int"),)
        return head + (ParamSpec(self.var, "complex"),)

    def contains(self, n=None, **var) -> bool:
        ns = self.n
        if ns is not None and not (isinstance(n, int) and n in ns):
            return False
        v = var[self.var]
        for region in self.regions:
            if region.holds(v):
                break
        else:
            if v not in self.points:
                return False
        for holds, _ in self.extra:
            if not holds(v):
                return False
        return True

    def sample(self, rng: Random) -> dict:
        point = {} if self.n is None else {"n": rng.randrange(self.n.start, self.n.stop)}
        one = len(self.regions) == 1
        region = self.regions[0] if one else rng.choices(self.regions, self.weights)[0]
        while True:
            v = region.draw(rng)
            if all(holds(v) for holds, _ in self.extra):
                point[self.var] = v
                return point

    @property
    def text(self) -> str:
        text = " or ".join([r.text(self.var) for r in self.regions]
                           + [f"{self.var} = {_num(p)}" for p in self.points])
        if self.extra:
            text += " with " + " and ".join(t for _, t in self.extra)
        if self.n is not None:
            text = f"n in {self.n.start}..{self.n.stop - 1}, {text}"
        return f"{text}; {self.note}" if self.note else text


class Hypotheses(NamedTuple):
    """The domain of an integral entry: its parameters, its hypotheses as
    text and as a predicate, and the sampler of an entry that draws its
    grid (None: its special points alone)."""

    params: tuple
    text: str
    contains: Callable[..., bool]
    sample: Callable[[Random], dict] | None = None


_CATALOG: dict[str, IdentityDescriptor] = {}


def _register(**fields):
    domain = fields["domain"]
    desc = IdentityDescriptor(params=domain.params, in_domain=domain.contains, **fields)
    if desc.id in _CATALOG:
        raise ValueError(f"duplicate identity id {desc.id}")
    _CATALOG[desc.id] = desc


_DISC_T = Disc(0.92)
_DIVERGENT_T1 = "t = 1 divergent for n >= 1"
_RESOLVENT_DISC = Disc(0.95, inner=1e-8, keep_off=1e-3)  # below 1e-8 the g route loses its digits

_register(
    id="I01",
    domain=Domain("t", (_DISC_T,), points=(1.0,)),
    lhs=lambda t: hyp2f1(0.5, 1.0, 2.0, t),
    rhs=_rhs_i01,
    anchor="Gauss 2F1(1/2,1;2;t) in elementary form",
    special_points=({"t": 0.0}, {"t": 1.0}),
)

_register(
    id="I02",
    domain=Domain("t", (_DISC_T,), range(6), points=(1.0,), note=_DIVERGENT_T1),
    lhs=lambda n, t: hyp2f1(0.5 + n, 1.0 + n, 2.0 + n, t),
    rhs=_rhs_i02,
    anchor="first differentiation formula of the base reduction",
    special_points=({"n": 0, "t": 0.0}, {"n": 0, "t": 1.0}, {"n": 2, "t": 1.0}),
)

_register(
    id="I03",
    domain=Domain("t", (_DISC_T,), range(6), points=(1.0,), note=_DIVERGENT_T1),
    lhs=lambda n, t: hyp2f1(1.0 + 2 * n, 1.5 + n, 3.0 + 2 * n, t),
    rhs=_rhs_i03,
    anchor="quadratic transformation of the first differentiation formula",
    special_points=({"n": 1, "t": 0.0}, {"n": 0, "t": 1.0}, {"n": 1, "t": 1.0}),
)

_register(
    id="I04",
    domain=Domain("t", (_DISC_T,), range(6), points=(1.0,)),
    lhs=lambda n, t: incomplete_beta(1.0 + n, 0.5 - n, t),
    rhs=_rhs_i04,
    anchor="incomplete beta B(1+n, 1/2-n, t) in elementary form",
    special_points=({"n": 1, "t": 0.0}, {"n": 0, "t": 1.0}, {"n": 3, "t": 1.0}),
)

_register(
    id="I05",
    domain=Domain("t", (_DISC_T,), range(6), points=(1.0,), note=_DIVERGENT_T1),
    lhs=lambda n, t: hyp2f1(0.5 + n, 1.0 + n, 2.0 + n, t),
    rhs=_rhs_i05,
    anchor="alternative elementary form with (1-t)^(1/2-n) prefactor",
    special_points=({"n": 2, "t": 0.0}, {"n": 0, "t": 1.0}, {"n": 1, "t": 1.0}),
)

_register(
    id="I06",
    domain=Domain("t", (_DISC_T,), range(7), note="t = 1 excluded (both sides divergent)"),
    lhs=lambda n, t: hyp_pfq_regularized((0.5, 1.0), (1.0 - n,), t).value,
    rhs=_rhs_i06,
    anchor="regularized 2F1(1/2,1;1-n;t) reduction",
    special_points=({"n": 2, "t": 0.5}, {"n": 0, "t": 0.0}),
)

_register(
    id="I07",
    domain=Domain("t", (_DISC_T,), range(6), points=(1.0,)),
    lhs=lambda n, t: hyp2f1(0.5, 1.0, 2.0 + n, t),
    rhs=_rhs_i07,
    anchor="third differentiation formula; t = 1 row is the Gauss value 2(n+1)/(2n+1)",
    special_points=({"n": 0, "t": 0.0}, {"n": 1, "t": 1.0}, {"n": 4, "t": 1.0}),
)

_register(
    id="I08",
    domain=Domain("t", (_DISC_T,), range(6), points=(1.0,)),
    lhs=lambda n, t: hyp2f1(0.5, 1.0, 2.0 + n, t),
    rhs=_rhs_i08,
    anchor="variant via the Vidunas transformation",
    special_points=({"n": 0, "t": 0.0}, {"n": 2, "t": 1.0}),
)

_register(
    id="I09",
    domain=Domain("t", (_DISC_T,), range(6), points=(1.0,)),
    lhs=lambda n, t: hyp2f1(0.5, 1.0, 2.0 + n, t),
    rhs=_rhs_i09,
    anchor="variant via the 2F1(1,b;m;z) partial-fraction formula",
    special_points=({"n": 0, "t": 0.0}, {"n": 3, "t": 1.0}),
)

_register(
    id="I10",
    domain=Domain("t", (Segment(-6.0, 0.0, draws=(-6.0, -0.01)),), range(1, 5),
                  note="off the negative real axis the printed power combination "
                  "picks up a unit phase and the identity fails"),
    lhs=_lhs_i10,
    rhs=_rhs_i10,
    anchor="Legendre P_{-n}^{-n}(1/sqrt(1-t)) in elementary form",
    special_points=({"n": 1, "t": 0.0}, {"n": 3, "t": 0.0}),
)

_register(
    id="I11",
    domain=Domain("t", (Disc(3.0),), range(1, 7),
                  note="the series terminates, so any finite t works"),
    lhs=lambda n, t: hyp_pfq_regularized((0.5 - n, 1.0 - n), (2.0 - n,), t).value,
    rhs=_rhs_i11,
    anchor="regularized 2F1(1/2-n,1-n;2-n;t) = 2 (1/2)_n t^(n-1)",
    special_points=({"n": 1, "t": 0.7}, {"n": 2, "t": 0.3}),
)

_register(
    id="I12",
    domain=Domain("t", (Segment(-0.99, 0.99, draws=(-0.99, 0.99)),), range(1, 5),
                  note="the Ferrers region"),
    lhs=lambda n, t: legendre_p(n, n - 1, t),
    rhs=_rhs_i12,
    anchor="P_n^(n-1)(t) = -(-2)^n (1/2)_n t (1-t^2)^((n-1)/2)",
    special_points=({"n": 1, "t": 0.3}, {"n": 4, "t": -0.5}),
)

_register(
    id="I13",
    domain=Domain("z", (Disc(0.95),), points=(1.0,)),
    lhs=lambda z: hyp2f1(1.0 / 3.0, 2.0 / 3.0, 1.5, z),
    rhs=i13_rhs,
    anchor="2F1(1/3,2/3;3/2;z) = (3/sqrt z) sin((1/3) asin sqrt z)",
    special_points=({"z": 0.0}, {"z": 1.0}),
)

_register(
    id="I14",
    domain=Domain("z", (Segment(0.0, 0.97, draws=(0.005, 0.97), ends="(]"),), range(1, 4),
                  note="the Bell form is branch-valid on (0, 1) only"),
    lhs=lambda n, z: hyp_pfq_regularized((1.0 / 3.0, 2.0 / 3.0), (1.5 - n,), z).value,
    rhs=_rhs_i14,
    anchor="regularized 2F1(1/3,2/3;3/2-n;z) via Bell polynomials of h_s",
    special_points=({"n": 1, "z": 0.25}, {"n": 2, "z": 0.5}, {"n": 3, "z": 0.1}),
    tolerance=1e-6,
)

_register(
    id="I15",
    domain=Domain("z", (_RESOLVENT_DISC,), points=(1.0,)),
    lhs=lambda z: hyp3f2(0.25, 0.5, 0.75, 2.0 / 3.0, 4.0 / 3.0, z),
    rhs=i15_rhs,
    anchor="3F2(1/4,1/2,3/4;2/3,4/3;z) through the resolvent function g",
    special_points=({"z": 1.0}, {"z": 0.5}, {"z": -0.5}),
    tolerance=1e-6,
)

_register(
    id="I16",
    domain=Domain("z", (_RESOLVENT_DISC,), extra=(
        (lambda z: abs(4.0 * z / (1.0 - z) ** 2) <= 0.95, "|4z/(1-z)^2| <= 0.95"),)),
    lhs=lambda z: hyp3f2(0.5, 5.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0, 4.0 / 3.0, z),
    rhs=_rhs_i16,
    anchor="Kato quadratic transformation of the resolvent reduction",
    special_points=({"z": 0.1}, {"z": -0.5}, {"z": 0.15}),
    tolerance=1e-6,
)

_register(
    id="I17",
    domain=Domain("z", (_RESOLVENT_DISC, Segment(-6.0, 0.0, draws=(-6.0, -0.05), ends="[)")),
                  weights=(0.7, 0.3), points=(1.0,)),
    lhs=_lhs_i17,
    rhs=_rhs_i17,
    anchor="product of Legendre functions P_(-1/6)^(1/3) P_(-1/6)^(-1/3)",
    special_points=({"z": 1.0}, {"z": 0.5}),
    tolerance=1e-6,
)

_register(
    id="I18",
    domain=Domain("t", (Disc(0.92, keep_off=0.01),), range(6),
                  note="the shared domain of the equivalent forms"),
    lhs=lambda n, t: _i18_sides(n, t)[0],
    rhs=lambda n, t: _i18_sides(n, t)[1],
    anchor="equivalence of the alternative elementary representations "
    "(I02 = I05, I07 = I08 = I09)",
    special_points=({"n": 1, "t": 0.5}, {"n": 3, "t": -0.4}),
)

_register(
    id="K01",
    domain=Domain("z", (Disc(8.0),), range(1, 6)),
    lhs=lambda n, z: hyp1f1(n, 1 + n, z),
    rhs=_rhs_k01,
    anchor="Kummer 1F1(n;1+n;z) = n (-z)^(-n) gamma(n, -z)",
    special_points=({"n": 1, "z": 0.0}, {"n": 3, "z": -2.0}),
)

_register(
    id="K02",
    domain=Domain("z", (Disc(8.0, inner=1.0),), range(1, 6)),
    lhs=lambda n, z: hyp1f1(1, 1 + n, z),
    rhs=_rhs_k02,
    anchor="Kummer 1F1(1;1+n;z) = n e^z gamma(n, z) / z^n "
    "= n! (e^z - e_{n-1}(z)) / z^n",
    special_points=({"n": 5, "z": 1.0}, {"n": 2, "z": 1.5}),
)


# --------------------------------------------------------------------------
# the semi-infinite integrals: quadrature (LHS) against the closed form (RHS)
# --------------------------------------------------------------------------

_register(
    id="J0",
    domain=Hypotheses(
        (ParamSpec("a", "complex_tuple"), ParamSpec("b", "complex_tuple"),
         ParamSpec("alpha", "complex"), ParamSpec("s", "complex"), ParamSpec("x", "complex")),
        "p = len(a) <= q = len(b), Re s > 0, Re alpha > 0, |x/s| < 1, "
        "and Re(s - x) > 0 when p = q",
        lambda a, b, alpha, s, x: len(a) <= len(b)
        and s.real > 0
        and alpha.real > 0
        and abs(x) < abs(s)
        and (len(a) < len(b) or (s - x).real > 0),
        quad.laplace_random_draw,
    ),
    lhs=quad.laplace_integral,
    rhs=quad.laplace_closed_form,
    anchor="Laplace lemma: int_0^inf e^(-st) t^(alpha-1) pFq(a; b; xt) dt "
    "= Gamma(alpha) s^-alpha p+1Fq(a, alpha; b; x/s)",
    tolerance=1e-7,
    grid_size=10,
    quadrature=True,
)


def _resolved(m: int, x, decay: float) -> bool:
    """|x| <= 1e16 m^-9 decay: the scale up to which the quadrature of a J1
    or J2 integrand, which holds gamma(m, xt), resolves the step of the
    incomplete gamma near t = m/|x|.  Measured on real x > 0 (steps of 1/8
    decade, decay 0.01 to 100), J1 first fails at |x|/decay = 10^17.4
    (m = 1), 10^12.75 (m = 3), 10^8.25 (m = 11) and 10^6.1 (m = 21), and J2
    no lower, so the bound keeps a decade or more in hand.  The entries
    hold m to at most 171, where their closed forms' factorials are
    doubles."""
    return abs(x) * m**9 <= 1e16 * decay


_register(
    id="J1",
    domain=Hypotheses(
        (ParamSpec("n", "int"), ParamSpec("s", "complex"), ParamSpec("x", "complex")),
        "0 <= n <= 170, Re s > 0, Re(s + x) > 0 and |x| <= 1e16 (n+1)^-9 min(Re s, Re(s + x))",
        lambda n, s, x: 0 <= n <= 170 and s.real > 0 and (s + x).real > 0
        and _resolved(n + 1, x, min(s.real, (s + x).real)),
    ),
    lhs=quad.j1_integral,
    rhs=quad.j1_closed_form,
    anchor="int_0^inf e^(-st) t^(-3/2) gamma(n+1, xt) dt in closed form",
    special_points=tuple({"n": n, "s": s, "x": x} for n in (0, 1, 2)
                         for s, x in ((2.0, 1.0), (1.0, 0.5), (3.0, 2.0))),
    tolerance=1e-6,
    grid_size=9,
    quadrature=True,
)

_register(
    id="J2",
    # the p = 0 branch's exp-sinh rule converges on real x from 10^-14.25
    # (measured at n = 1..40 and 50..171 in steps of 1/4 decade) up to
    # 10^14.25 (n = 16 and 20); each bound keeps 1.25 decades in hand
    domain=Hypotheses(
        (ParamSpec("n", "int"), ParamSpec("p", "complex"), ParamSpec("x", "complex")),
        "1 <= n <= 171; Re p > 0, Re(p + x) > 0 and |x| <= 1e16 n^-9 min(Re p, Re(p + x)), "
        "or p = 0 (algebraic tail) with Re x > 0 and 1e-13 <= |x| <= 1e13",
        lambda n, p, x: 1 <= n <= 171
        and (x.real > 0 and 1e-13 <= abs(x) <= 1e13 if p == 0
             else p.real > 0 and (p + x).real > 0 and _resolved(n, x, min(p.real, (p + x).real))),
    ),
    lhs=quad.j2_integral,
    rhs=quad.j2_closed_form,
    anchor="int_0^inf e^(-pt) t^(-1/2-n) gamma(n, xt) dt in piecewise closed form",
    special_points=tuple({"n": n, "p": p, "x": x} for n in (1, 2)
                         for p, x in ((1.0, 1.0), (2.0, 0.5), (0.0, 1.0))),
    tolerance=1e-6,
    grid_size=6,
    quadrature=True,
)

_register(
    id="J3",
    # x <= 5 Re p / 3 is x * 50/decay <= 500, decay = Re(2p - x)/2: over the
    # quadrature's first window the cylinder function's argument stays
    # within -sqrt(1000), where its accuracy is measured
    domain=Hypotheses(
        (ParamSpec("p", "complex"), ParamSpec("x", "complex")),
        "real x with 0 < x <= 5 Re p / 3 (so Re(2p - x) > 0)",
        lambda p, x: x.imag == 0.0 and 0.0 < x.real and 3.0 * x.real <= 5.0 * p.real,
    ),
    lhs=quad.j3_integral,
    rhs=quad.j3_closed_form,
    anchor="int_0^inf e^(-pt) t^(-5/6) D_(1/3)(-sqrt(2xt)) dt in closed form",
    special_points=tuple({"p": p, "x": x}
                         for p, x in ((1.0, 1.0), (2.0, 0.5), (1.5, 1.0), (3.0, 0.8))),
    tolerance=1e-5,
    grid_size=4,
    quadrature=True,
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
        domain = get_identity(identity_id).domain.text
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
    sample = desc.domain.sample
    if len(points) < count and sample is None:
        raise DomainError(f"{identity_id} has {len(points)} fixed points")
    while len(points) < count:
        points.append(sample(rng))
    return points
