"""Scalar special-function evaluators over the complex plane.

Everything here is a pure function of its arguments: complex gamma via a
Lanczos kernel plus reflection, generalized hypergeometric series (plain
and regularized), incomplete gamma/beta, Legendre functions of general
degree and order, parabolic cylinder functions, and partial Bell
polynomials.  All fractional powers and inverse trigonometric functions
use principal branches throughout.

Every function takes and returns the built-in ``complex``; real inputs
are accepted anywhere and promoted.  Inside, the series loop carries a
``float`` while every operand is real (the same bits as ``complex``
arithmetic on them, at about half the cost) and a ``complex`` otherwise.
Its term ratios are kept per parameter pair in a table of bounded size
that every call shares; each ratio is computed from the parameters and
its index alone, so no value depends on the table's state.
"""

from __future__ import annotations

import cmath
import math
from itertools import islice
from typing import NamedTuple, Sequence

from .errors import BudgetError, DivergenceError, DomainError

__all__ = [
    "SeriesControl",
    "SeriesResult",
    "pochhammer",
    "gamma",
    "rgamma",
    "hyp_pfq",
    "hyp_pfq_regularized",
    "hyp0f1",
    "hyp1f1",
    "hyp2f1",
    "hyp3f2",
    "gauss_sum_2f1",
    "whipple_sum_3f2",
    "lower_incomplete_gamma",
    "incomplete_beta",
    "legendre_p",
    "legendre_polynomial",
    "parabolic_cylinder_d",
    "bell_polynomial",
    "is_nonpositive_integer",
]

SQRT_PI = math.sqrt(math.pi)
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def is_nonpositive_integer(v) -> bool:
    """True when ``v`` is exactly 0, -1, -2, ... (real part exact)."""
    v = complex(v)
    return v.imag == 0.0 and v.real <= 0.0 and v.real == round(v.real)


# --------------------------------------------------------------------------
# gamma family
# --------------------------------------------------------------------------

# Lanczos kernel, g = 607/128, 15 coefficients (Godfrey's set).  Relative
# error of the kernel itself is ~1e-15 on Re z >= 1/2.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def gamma(z) -> complex:
    """Complex gamma function.

    Lanczos approximation on Re z >= 1/2, reflection formula elsewhere.
    Relative error is below 1e-12 for |z| <= 50 away from the poles at
    the nonpositive integers.  Where the Lanczos power t^(z-1/2) alone
    overflows (real z above about 142.5) it is formed together with
    e^(-t) as one exponential, which keeps the value finite up to real
    z of about 171.6 (relative error about 1e-13 there, from rounding
    the exponent).  :class:`DomainError` is raised at a pole, for a
    non-finite ``z`` and where the value or an intermediate overflows
    (real z above about 171.6, below about -170.6 through the
    reflection, and within about 5.6e-309 of 0).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"gamma needs a finite argument, got {z}")
    if is_nonpositive_integer(z):
        raise DomainError(f"gamma pole at z = {z}")
    try:
        if z.real < 0.5:
            # gamma(z) * gamma(1-z) = pi / sin(pi z)
            value = math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
            if not cmath.isfinite(value):  # near 0, where gamma(z) ~ 1/z
                raise OverflowError
            return value
        x = z - 1.0
        acc = _LANCZOS_C[0]
        for k in range(1, len(_LANCZOS_C)):
            acc += _LANCZOS_C[k] / (x + k)
        t = x + _LANCZOS_G + 0.5
        try:
            value = SQRT_TWO_PI * t ** (x + 0.5) * cmath.exp(-t) * acc
        except OverflowError:
            value = math.inf
        if not cmath.isfinite(value):
            # t^(x+1/2) leaves the double range before e^(-t) scales it back
            value = SQRT_TWO_PI * cmath.exp((x + 0.5) * cmath.log(t) - t) * acc
            if not cmath.isfinite(value):
                raise OverflowError
        return value
    except (OverflowError, DomainError):  # DomainError: the reflection's gamma(1-z) overflows
        raise DomainError(f"gamma overflows at z = {z}") from None


def rgamma(z) -> complex:
    """Reciprocal gamma, entire: returns exactly 0 at the poles of gamma,
    and 0 where gamma overflows at Re z >= 1/2.  :class:`DomainError` is
    raised for a non-finite ``z`` and where 1/gamma itself overflows (real
    z below about -170.6)."""
    z = complex(z)
    if is_nonpositive_integer(z):
        return 0.0 + 0.0j
    try:
        return 1.0 / gamma(z)
    except DomainError:
        if cmath.isfinite(z) and z.real >= 0.5:
            return 0.0 + 0.0j  # below the double range
        if abs(z) < 1e-300:
            return z  # 1/gamma(z) = z (1 + 0.577 z + ...) where gamma(z) ~ 1/z overflows
        raise


def pochhammer(a, k: int) -> complex:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1.

    Exactly 0 once a factor is 0 (where a is a nonpositive integer above -k);
    :class:`DomainError` once the product leaves the double range, which
    bounds the work for any k.
    """
    if k < 0:
        raise DomainError("pochhammer needs k >= 0")
    a = complex(a)
    if a.real <= 0.0 and is_nonpositive_integer(a) and a.real > -k:
        return 0.0 + 0.0j
    out = 1.0 + 0.0j
    for block in range(0, k, 256):  # a range test per block, not per factor
        for j in range(block, min(k, block + 256)):
            out *= a + j
        if not cmath.isfinite(out):
            raise DomainError(f"pochhammer({a}, {k}) overflows")
    return out


def _binomial_tail(c, k0: int, u) -> complex:
    """sum_{k >= k0} (c)_k u^(k-k0) / k!  by term recurrence (needs |u| < 1);
    a sum not converged in 4000 terms raises :class:`BudgetError`."""
    c, u = complex(c), complex(u)
    term = pochhammer(c, k0) / math.factorial(k0)
    total = term
    k = k0
    for _ in range(4000):
        term *= (c + k) * u / (k + 1)
        total += term
        k += 1
        if abs(term) <= 1e-17 * abs(total) + 1e-300:
            return total
    raise BudgetError(f"binomial tail did not converge in {k - k0} terms", best=total)


_TAIL_CUT = 0.8  # sum the remainder term by term while |u| is at most this


def binomial_remainder(c, k0: int, u, full) -> complex:
    """sum_{k >= k0} (c)_k u^(k-k0) / k! = (c)_k0/k0! 2F1(c+k0, 1; k0+1; u):
    the binomial series of (1-u)^(-c) less its head, over its leading power,
    so a bracket ``1 - (truncated series)`` that shrinks like u^k0 is u^k0
    times a value in range at any small u.  Summed term by term where
    |u| <= 0.8, elsewhere as ``full`` (the value of (1-u)^(-c) on the
    caller's branch) less the head, over u^k0."""
    u = complex(u)
    if abs(u) <= _TAIL_CUT:
        return _binomial_tail(c, k0, u)
    head = sum(pochhammer(c, k) / math.factorial(k) * u**k for k in range(k0))
    return (full - head) / u**k0


# --------------------------------------------------------------------------
# generalized hypergeometric series
# --------------------------------------------------------------------------


class _SeriesControlFields(NamedTuple):
    rel_tol: float = 1e-13
    max_terms: int = 10_000
    consecutive_small: int = 3


class SeriesControl(_SeriesControlFields):
    """Truncation policy for the hypergeometric series evaluators.

    Summation stops once ``consecutive_small`` successive terms fall
    below ``rel_tol`` times the running partial sum.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError("rel_tol must lie in (0, 1)")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        if self.consecutive_small < 1:
            raise DomainError("consecutive_small must be >= 1")
        return self


class SeriesResult(NamedTuple):
    """A series value.  ``converged`` is False only on the partial result
    a :class:`BudgetError` carries as ``best``."""

    value: complex
    terms_used: int
    converged: bool
    est_error: float


_DEFAULT_CONTROL = SeriesControl()


def _narrow(v):
    """``v`` as a float when its imaginary part is 0, so that real operands
    take float arithmetic (the same bits as complex arithmetic on them)."""
    return v.real if v.imag == 0.0 else v


class _Series:
    """One (upper, lower) parameter pair as callers give it: the parameters
    as complex numbers, the facts the route choice reads, and the table of
    term ratios r_k = prod(a+k) / ((k+1) prod(b+k)) from ``start_k`` on,
    grown as sums need it."""

    __slots__ = ("upper", "lower", "poles", "terminating", "start_k", "ratios")

    def __init__(self, upper, lower):
        self.upper = tuple(complex(a) for a in upper)
        self.lower = tuple(complex(b) for b in lower)
        self.poles = [b for b in self.lower if is_nonpositive_integer(b)]
        # a terminating upper parameter makes a polynomial, fine for any z
        self.terminating = any(is_nonpositive_integer(a) for a in self.upper)
        # the first index past every lower-parameter pole
        self.start_k = 1 - int(min(b.real for b in self.poles)) if self.poles else 0
        self.ratios = []

    def ratios_for(self, stop):
        """The ratio table, grown to hold at least the ratios of the first
        ``stop`` terms (fewer where the lower-parameter factors underflow
        to 0).  A grown table is a new list, so a sum never sees its table
        change under it."""
        have = len(self.ratios)
        if have < stop:
            upper, lower = self.upper, self.lower
            if all(v.imag == 0.0 for v in upper + lower):
                upper, lower = tuple(a.real for a in upper), tuple(b.real for b in lower)
            fresh = []
            try:
                for j in range(self.start_k + have, self.start_k + stop):
                    num = 1.0
                    for a in upper:
                        num *= a + j
                    den = j + 1.0
                    for b in lower:
                        den *= b + j
                    fresh.append(num / den)
            except ZeroDivisionError:
                pass
            self.ratios = self.ratios + fresh
            _hold(len(fresh))
        return self.ratios


# Every _Series made, by its (upper, lower) as given, and the size they hold
# counted in ratios, an entry's own memory as _ENTRY_SIZE of them.  Each
# ratio is computed from the parameters and its index alone, so no result
# depends on what is held.
_SERIES_LIMIT = 1 << 17  # above the CLI's 100 000-term budget; ~5 MB when full
_ENTRY_SIZE = 16
_series_cache: dict = {}
_series_held = 0


def _hold(count):
    global _series_held
    _series_held += count
    if _series_held > _SERIES_LIMIT:  # full: start over
        _series_cache.clear()
        _series_held = 0


def _series(upper, lower) -> _Series:
    key = (tuple(upper), tuple(lower))
    entry = _series_cache.get(key)
    if entry is None:
        entry = _series_cache[key] = _Series(*key)
        _hold(_ENTRY_SIZE)
    return entry


_OUT_OF_RANGE = ": its terms leave the double range"


def _unconverged(upper, lower, terms, total, term, why=""):
    """The BudgetError of a sum stopped after ``terms`` terms, with the
    partial sum as ``best``."""
    try:
        est = abs(term)
    except OverflowError:
        est = math.inf
    return BudgetError(
        f"{len(upper)}F{len(lower)} series did not converge in {terms} terms{why}",
        best=SeriesResult(complex(total), terms, False, est),
    )


def _sum_series(upper, lower, z, ctrl, start_term=None):
    """Raw term-recurrence summation of sum_k t_k with t_{k+1} = t_k r_k z,
    r_k = prod(a+k) / ((k+1) prod(b+k)), the ratios taken from the table
    of (upper, lower) that every call shares.

    The loop runs on floats while every operand is real and on complex
    numbers otherwise.  The sum starts at k = 0 with t_0 = 1, or, where a
    lower parameter is a nonpositive integer, past every such pole at the
    ``start_term`` the regularized evaluator gives.  No convergence
    prechecks happen here; a sum that misses the stop rule within the
    term budget or leaves the double range raises :class:`BudgetError`
    with the partial sum as ``best``, and a product of lower-parameter
    factors that underflows to 0 (a lower parameter within underflow of
    a pole) raises :class:`DomainError`.
    """
    series = _series(upper, lower)
    term = 1.0 if start_term is None else _narrow(start_term)
    z = _narrow(z)
    total = term
    small = 0
    n = 0  # terms summed
    rel_tol, needed, budget = ctrl.rel_tol, ctrl.consecutive_small, ctrl.max_terms
    try:
        while n < budget:
            ratios = series.ratios_for(min(budget, 2 * n + 16))
            if len(ratios) <= n:
                raise DomainError(
                    f"{len(upper)}F{len(lower)} series: the lower-parameter factors "
                    f"underflow to 0 at term {series.start_k + n + 1} "
                    "(a lower parameter within underflow of a pole)"
                )
            for r in islice(ratios, n, budget):
                term = term * r * z
                total += term
                n += 1
                if abs(term) <= rel_tol * abs(total):
                    small += 1
                    if small >= needed:
                        break
                else:
                    small = 0
            if not cmath.isfinite(total):  # an infinite sum meets the stop rule too
                raise _unconverged(upper, lower, n, total, term, _OUT_OF_RANGE)
            if small >= needed:
                return SeriesResult(complex(total), n, True, abs(term))
    except OverflowError:  # abs() of a complex term past the double range
        raise _unconverged(upper, lower, n, total, term, _OUT_OF_RANGE) from None
    raise _unconverged(upper, lower, n, total, term)


def gauss_sum_2f1(a, b, c) -> complex:
    """2F1(a,b;c;1) by the Gauss summation formula.

    Requires Re(c-a-b) > 0 unless the series terminates; raises
    :class:`DivergenceError` otherwise.
    """
    a, b, c = complex(a), complex(b), complex(c)
    d = c - a - b
    if (c - a - b).real <= 0 and not (
        is_nonpositive_integer(a) or is_nonpositive_integer(b)
    ):
        raise DivergenceError("2F1 at z=1 diverges: Re(c-a-b) <= 0")
    return gamma(c) * gamma(d) * rgamma(c - a) * rgamma(c - b)


def whipple_sum_3f2(a, c, d) -> complex:
    """3F2(a, 1-a, c; d, 2c-d+1; 1) by Whipple's summation formula."""
    a, c, d = complex(a), complex(c), complex(d)
    return (
        math.pi
        * 2.0 ** (1.0 - 2.0 * c)
        * gamma(d)
        * gamma(2.0 * c - d + 1.0)
        * rgamma(c + (a - d + 1.0) / 2.0)
        * rgamma(c + 1.0 - (a + d) / 2.0)
        * rgamma((a + d) / 2.0)
        * rgamma((d - a + 1.0) / 2.0)
    )


def _match_whipple(upper, lower):
    """Try to read (a, 1-a, c; d, 2c-d+1) off the parameter lists.

    Returns (a, c, d) or None.  Matching is up to permutation with a
    1e-9 coincidence tolerance.
    """
    tol = 1e-9
    idx = (0, 1, 2)
    for i in idx:
        for j in idx:
            if j == i:
                continue
            k = 3 - i - j
            a, one_minus_a, c = upper[i], upper[j], upper[k]
            if abs(a + one_minus_a - 1.0) > tol:
                continue
            for d, other in ((lower[0], lower[1]), (lower[1], lower[0])):
                if abs(other - (2.0 * c - d + 1.0)) <= tol:
                    if c.real > 0 or (a.imag == 0 and a.real == round(a.real)):
                        return a, c, d
    return None


def _pfq_at_unit_argument(upper, lower, ctrl):
    """pFq(...; 1) for a non-terminating p = q+1 series: the Gauss or
    Whipple formula, or, where Re(sum b - sum a) exceeds 2, the direct sum
    with its integral-comparison tail as ``est_error``."""
    margin = sum(b.real for b in lower) - sum(a.real for a in upper)
    if len(upper) == 2:
        v = gauss_sum_2f1(upper[0], upper[1], lower[0])
        return SeriesResult(v, 0, True, 1e-14 * max(1.0, abs(v)))
    if len(upper) == 3:
        match = _match_whipple(upper, lower)
        if match is not None and margin > 0:
            v = whipple_sum_3f2(*match)
            return SeriesResult(v, 0, True, 1e-13 * max(1.0, abs(v)))
    if margin <= 0:
        raise DivergenceError("pFq at z=1 diverges: Re(sum b - sum a) <= 0")
    if margin > 2.0:
        # convergent like k^(-1-margin), so the tail after N terms is about
        # |t_N| N / (margin - 1): stopping at |t_N| <= rel_tol (margin - 1)
        # / max_terms keeps it within rel_tol for every N the budget allows
        fine = ctrl._replace(rel_tol=ctrl.rel_tol * (margin - 1.0) / ctrl.max_terms)
        res = _sum_series(upper, lower, 1.0 + 0.0j, fine)
        return res._replace(est_error=res.est_error * res.terms_used / (margin - 1.0))
    raise DomainError(
        "pFq at z=1: no summation formula applies and the series "
        "converges too slowly to evaluate"
    )


def _pfq(upper, lower, z, control, regularized) -> SeriesResult:
    """The one route choice of :func:`hyp_pfq` and
    :func:`hyp_pfq_regularized`: z = 0, the regularized start past the
    lower-parameter poles, unit argument, or the direct series."""
    ctrl = control or _DEFAULT_CONTROL
    series = _series(upper, lower)
    upper, lower, poles, terminating = series.upper, series.lower, series.poles, series.terminating
    z = complex(z)
    if poles and not regularized:
        raise DomainError(
            f"lower parameter {poles[0]} is a nonpositive integer; "
            "use the regularized series"
        )
    p, q = len(upper), len(lower)
    if z != 0 and not terminating and p > q:
        if p > q + 1:
            raise DomainError("pFq with p > q+1 diverges for z != 0")
        if z != 1 and abs(z) >= 1.0:
            raise DomainError(
                f"p = q+1 series requires |z| < 1 (got |z| = {abs(z):.6g})"
            )
    unit = z == 1 and p == q + 1 and not terminating
    if poles:
        if unit:
            raise DomainError(
                "regularized series with nonpositive-integer lower parameter "
                "is unsupported at z = 1"
            )
        # the term at k0, the first index past every lower-parameter pole, as
        # one running product that stays in range where (a)_k0 or k0! does not
        term = 1.0 + 0.0j
        for j in range(series.start_k):
            for a in upper:
                term *= a + j
            term *= z / (j + 1)
        # every surviving term has z^k with k >= 1, and a terminating upper
        # parameter kills every survivor
        if term == 0:
            return SeriesResult(0.0 + 0.0j, 0, True, 0.0)
        for b in lower:
            term *= rgamma(b + series.start_k)
        return _sum_series(upper, lower, z, ctrl, start_term=term)
    scale = 1.0 + 0.0j
    if regularized:
        for b in lower:
            scale *= rgamma(b)
    if z == 0:
        return SeriesResult(scale, 0, True, 0.0)
    res = _pfq_at_unit_argument(upper, lower, ctrl) if unit else _sum_series(upper, lower, z, ctrl)
    if regularized:
        res = SeriesResult(
            res.value * scale, res.terms_used, res.converged, res.est_error * abs(scale)
        )
    return res


def hyp_pfq(
    upper: Sequence, lower: Sequence, z, control: SeriesControl | None = None
) -> SeriesResult:
    """Generalized hypergeometric series pFq(upper; lower; z) by direct
    term recurrence.

    For p <= q the series is entire; for p = q+1 the argument must
    satisfy |z| < 1, except z = 1 which is routed through the Gauss or
    Whipple summation formulas (divergent cases raise
    :class:`DivergenceError`).  At z = 0 the value is exactly 1.  A
    series that does not converge within the control's term budget
    raises :class:`BudgetError`.
    """
    return _pfq(upper, lower, z, control, regularized=False)


def hyp_pfq_regularized(
    upper: Sequence, lower: Sequence, z, control: SeriesControl | None = None
) -> SeriesResult:
    """Regularized series: lower-parameter Pochhammers replaced by
    reciprocal gammas, entire in every parameter.

    Terms whose Gamma(b_j + k) sits at a pole contribute exactly 0, so
    nonpositive-integer lower parameters are fine: the sum simply starts
    past the offending indices.  Raises :class:`BudgetError` like
    :func:`hyp_pfq`.
    """
    return _pfq(upper, lower, z, control, regularized=True)


def hyp0f1(b, z, control=None) -> complex:
    return hyp_pfq((), (b,), z, control).value


def hyp1f1(a, b, z, control=None) -> complex:
    return hyp_pfq((a,), (b,), z, control).value


def hyp2f1(a, b, c, z, control=None) -> complex:
    return hyp_pfq((a, b), (c,), z, control).value


def hyp3f2(a1, a2, a3, b1, b2, z, control=None) -> complex:
    return hyp_pfq((a1, a2, a3), (b1, b2), z, control).value


# --------------------------------------------------------------------------
# incomplete gamma / beta
# --------------------------------------------------------------------------


def _pow(base, exponent) -> complex:
    """Principal power, but exact integer exponentiation when possible
    (keeps (-z)**n off the branch cut)."""
    e = complex(exponent)
    if e.imag == 0.0 and e.real == round(e.real) and abs(e.real) <= 512:
        return complex(base) ** int(e.real)
    return complex(base) ** e


_INC_GAMMA_MAX_TERMS = 5000


def _gamma_series(nu, z):
    """z^nu e^(-z) sum_k z^k / (nu (nu+1) ... (nu+k)), with its largest
    term and the modulus of its sum."""
    term = 1.0 / nu
    total = term
    largest = abs(term)
    for k in range(_INC_GAMMA_MAX_TERMS):
        term *= z / (nu + k + 1.0)
        total += term
        size = abs(term)
        if size > largest:
            largest = size
        elif size <= 1e-17 * abs(total) + 5e-300:
            break
    else:
        raise BudgetError(
            f"incomplete gamma series did not converge in {_INC_GAMMA_MAX_TERMS} terms"
        )
    return _pow(z, nu) * cmath.exp(-z) * total, largest, abs(total)


def _exp_polynomial_gamma(nu, z):
    """(n-1)! (1 - e^(-z) e_{n-1}(z)) for integer nu = n, with the size of
    its largest part and the modulus of the sum, both over (n-1)!."""
    n = int(nu.real)
    if z.real > 700.0:
        return float(math.factorial(n - 1)) + 0.0j, 1.0, 1.0
    terms = [z**k / math.factorial(k) for k in range(n)]
    decay = cmath.exp(-z)
    rest = 1.0 - decay * sum(terms)
    return math.factorial(n - 1) * rest, 1.0 + abs(decay) * sum(map(abs, terms)), abs(rest)


def lower_incomplete_gamma(nu, z) -> complex:
    """Lower incomplete gamma gamma(nu, z) for Re nu > 0 (any integer
    nu >= 1 included), by the everywhere-convergent scaled series
    z^nu e^(-z) sum_k z^k / (nu (nu+1) ... (nu+k)) or, for integer
    nu = n, the exponential-polynomial form (n-1)! (1 - e^(-z) e_{n-1}(z)).

    Each form loses the digits its largest part exceeds its sum by: the
    series off the positive real axis at large |z|, the polynomial form
    at |z| small against n.  The first form that keeps about 8 digits
    (ratio at most 1e8) and a finite value gives the result, otherwise
    :class:`DomainError` is raised (as at (0.3, 300i), (0.5, -500) or
    (2, -800)); a series that misses its stop rule within the term
    budget raises :class:`BudgetError`.
    """
    nu = complex(nu)
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    is_int = nu.imag == 0.0 and nu.real == round(nu.real)
    if not is_int and nu.real <= 0:
        raise DomainError("lower_incomplete_gamma needs Re nu > 0 (or integer nu >= 1)")
    if is_int and nu.real < 1:
        raise DomainError("integer order must satisfy nu >= 1")
    if is_int and (z.real > max(30.0, 2.0 * nu.real) or abs(z) > 600):
        forms = (_exp_polynomial_gamma,)  # saturated, or too large for the series
    elif abs(z) > 600:
        raise DomainError("argument too large for the series evaluation")
    else:
        forms = (_gamma_series, _exp_polynomial_gamma) if is_int else (_gamma_series,)
    for form in forms:
        try:
            value, largest, total = form(nu, z)
        except OverflowError:
            continue
        if largest <= 1e8 * total and cmath.isfinite(value):
            return value
    raise DomainError(
        f"lower_incomplete_gamma({nu}, {z}): the evaluation loses more than 8 digits "
        "to cancellation or overflows"
    )


def incomplete_beta(nu, mu, t) -> complex:
    """Incomplete beta B(nu, mu, t) = integral_0^t x^(nu-1)(1-x)^(mu-1) dx.

    Evaluated through the hypergeometric bridge
    B(nu,mu,t) = (t^nu / nu) 2F1(nu, 1-mu; nu+1; t); at t = 1 the
    complete-beta gamma ratio is returned (as the analytic continuation
    when Re mu <= 0, matching the limit treatment in the identity
    catalog).
    """
    nu, mu, t = complex(nu), complex(mu), complex(t)
    if nu.real <= 0:
        raise DomainError("incomplete_beta needs Re nu > 0")
    if t == 0:
        return 0.0 + 0.0j
    if t == 1:
        if is_nonpositive_integer(mu):
            raise DivergenceError("B(nu, mu, 1) has a pole at nonpositive integer mu")
        return gamma(nu) * gamma(mu) * rgamma(nu + mu)
    return _pow(t, nu) / nu * hyp2f1(nu, 1.0 - mu, nu + 1.0, t)


# --------------------------------------------------------------------------
# Legendre functions
# --------------------------------------------------------------------------


def legendre_p(nu, mu, x) -> complex:
    """Legendre function P_nu^mu(x) of general complex degree and order.

    Hypergeometric representation with the regularized series, so
    nonpositive-integer 1-mu is handled.  Real x in (-1, 1) uses the
    Ferrers (on-cut) prefactor ((1+x)/(1-x))^(mu/2); elsewhere the
    principal-branch prefactor ((x+1)/(x-1))^(mu/2) applies.  Needs
    |1-x| < 2 for the series.  Satisfies P_{-nu-1}^mu = P_nu^mu.
    """
    nu, mu, x = complex(nu), complex(mu), complex(x)
    if x == 1.0:
        if mu == 0:
            return 1.0 + 0.0j
        if mu.real < 0:
            return 0.0 + 0.0j
        raise DomainError("P_nu^mu has a branch point at x = 1 for Re mu > 0")
    if x == -1.0:
        raise DomainError("P_nu^mu is singular at x = -1")
    w = (1.0 - x) / 2.0
    if abs(w) >= 1.0:
        raise DomainError("argument outside the series domain |1-x| < 2")
    ferrers = x.imag == 0.0 and -1.0 < x.real < 1.0
    if ferrers:
        pref = ((1.0 + x) / (1.0 - x)) ** (mu / 2.0)
    else:
        pref = ((x + 1.0) / (x - 1.0)) ** (mu / 2.0)
    return pref * hyp_pfq_regularized((nu + 1.0, -nu), (1.0 - mu,), w).value


def legendre_polynomial(n: int, x) -> complex:
    """Legendre polynomial P_n(x) by the three-term recurrence, for n up to
    10^6 (about 0.35 s); :class:`DomainError` where it leaves the double range."""
    if not 0 <= n <= 10**6:
        raise DomainError(f"legendre_polynomial needs 0 <= n <= 10^6, got {n}")
    x = complex(x)
    if n == 0:
        return 1.0 + 0.0j
    p_prev, p = 1.0 + 0.0j, x
    for block in range(1, n, 256):  # a range test per block, as in pochhammer
        for k in range(block, min(n, block + 256)):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        if not cmath.isfinite(p):
            raise DomainError(f"legendre_polynomial({n}, {x}) overflows")
    return p


# --------------------------------------------------------------------------
# parabolic cylinder functions
# --------------------------------------------------------------------------

_PCD_ASYMPTOTIC_CUT = 5.85  # Kummer/asymptotic crossover on the real axis


def _pcd_kummer(nu, z):
    x = z * z / 2.0
    m1 = hyp1f1(-nu / 2.0, 0.5, x)
    m2 = hyp1f1((1.0 - nu) / 2.0, 1.5, x)
    return (
        _pow(2.0, nu / 2.0)
        * cmath.exp(-x / 2.0)
        * (SQRT_PI * rgamma((1.0 - nu) / 2.0) * m1 - SQRT_TWO_PI * z * rgamma(-nu / 2.0) * m2)
    )


def _pcd_asymptotic(nu, z):
    # D_nu(z) ~ e^(-z^2/4) z^nu sum_k (-1)^k (-nu)_{2k} / (k! 2^k z^(2k)),
    # truncated at the smallest term.
    zz = z * z
    term = 1.0 + 0.0j
    total = term
    for k in range(1, 60):
        factor = -(-nu + 2 * k - 2) * (-nu + 2 * k - 1) / (2.0 * k * zz)
        nxt = term * factor
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return cmath.exp(-zz / 4.0) * _pow(z, nu) * total


def parabolic_cylinder_d(nu, z) -> complex:
    """Weber parabolic cylinder function D_nu(z).

    Combination of the two confluent hypergeometric solutions with
    gamma weights; on the positive real axis beyond z ~ 5.9 an
    asymptotic expansion takes over (the two-term combination cancels
    catastrophically there).  Guaranteed ~1e-9 relative accuracy for
    real |z| <= 20 with |nu| <= 3, except a mild dip (~1e-8) in the
    crossover window z in (5.3, 6.5).  Complex z is best effort within
    the overflow guard.
    """
    nu, z = complex(nu), complex(z)
    if z.imag == 0.0 and nu.imag == 0.0 and z.real > _PCD_ASYMPTOTIC_CUT:
        return _pcd_asymptotic(nu, z)
    if abs(z * z) / 2.0 > 600.0:
        raise DomainError("parabolic_cylinder_d: |z^2|/2 too large, would overflow")
    return _pcd_kummer(nu, z)


# --------------------------------------------------------------------------
# Bell polynomials
# --------------------------------------------------------------------------


def bell_polynomial(n: int, k: int, xs: Sequence) -> complex:
    """Partial exponential Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}).

    Standard recurrence
    B_{n,k} = sum_{j=1}^{n-k+1} C(n-1, j-1) x_j B_{n-j,k-1},  B_{0,0} = 1.
    """
    if k < 1 or k > n:
        raise DomainError("bell_polynomial needs 1 <= k <= n")
    if len(xs) < n - k + 1:
        raise DomainError(f"bell_polynomial needs at least {n - k + 1} arguments")
    xs = [complex(v) for v in xs]
    cache: dict[tuple[int, int], complex] = {(0, 0): 1.0 + 0.0j}

    def b(nn: int, kk: int) -> complex:
        if kk == 0:
            return 1.0 + 0.0j if nn == 0 else 0.0 + 0.0j
        if nn < kk:
            return 0.0 + 0.0j
        key = (nn, kk)
        if key not in cache:
            cache[key] = sum(
                math.comb(nn - 1, j - 1) * xs[j - 1] * b(nn - j, kk - 1)
                for j in range(1, nn - kk + 2)
            )
        return cache[key]

    return b(n, k)
