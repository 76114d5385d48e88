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
Its term ratios come in blocks of 100 per parameter pair, kept in a
``functools.lru_cache`` of 1311 blocks (131 100 ratios, so one sum of the
whole budget is kept) that every call shares; each ratio is computed from
the parameters and its index alone, so no value depends on what is kept.
Every memo of the package is such a cache, of a constant size.  The same
loop sums the elementary brackets ``1 - (truncated binomial series)`` of
the identity catalog through :func:`binomial_remainder`, and the series
of the lower incomplete gamma; it is the one loop that sums a convergent
series.  It has one stop rule, which no caller sets: a sum ends once
three successive terms are at or below 2^-52 (about 2.2e-16) of the
partial sum, and raises :class:`BudgetError` where it has not within
100 000 terms, so every caller sums the same series to the same value.
A p = q+1 sum at z = 1 holds its tail bound, as well as its last
term, to the same level.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import BudgetError, DivergenceError, DomainError

__all__ = [
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
    "lower_incomplete_gamma_over_power",
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


_LOG_TINY = math.log(sys.float_info.min)  # the log of the smallest normal double


def _lanczos(z: complex):
    """(x + 1/2, t, acc) of gamma(z) = sqrt(2 pi) t^(x+1/2) e^(-t) acc, with
    x = z - 1 and t = x + g + 1/2, on Re z >= 1/2."""
    x = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (x + k)
    return x + 0.5, x + _LANCZOS_G + 0.5, acc


class _GammaUnderflow(DomainError):
    """gamma(z) is below the normal double range, so 1/gamma(z) overflows."""


def _log_reflection(z: complex) -> complex:
    """log gamma(z) = log pi - log sin(pi z) - log gamma(1 - z) on Re z < 1/2,
    formed in logs, so that neither sin(pi z) nor gamma(1 - z) has to lie
    in the double range.  The period of sin is reduced out first: with n
    the integer nearest Re z, sin(pi z) = (-1)^n sin(w), w = pi (z - n),
    and where sin(w) overflows, sin w = e^(-isw)(1 - e^(2isw))/(-2is)
    with s the sign of Im w.  The value is determined modulo 2 pi i."""
    n = round(z.real)
    w = math.pi * (z - n)
    try:
        log_sin = cmath.log(cmath.sin(w))
    except OverflowError:  # |Im w| above about 710
        s = math.copysign(1.0, w.imag)
        log_sin = -1j * s * w + cmath.log((1.0 - cmath.exp(2j * s * w)) / (-2j * s))
    power, t, acc = _lanczos(1.0 - z)
    log_gamma_1mz = power * cmath.log(t) - t + cmath.log(SQRT_TWO_PI * acc)
    return math.log(math.pi) - log_sin - 1j * math.pi * (n % 2) - log_gamma_1mz


def _exp_on_axis(log_value: complex, z: complex) -> complex:
    """exp(log_value), real where z is (its phase is then a multiple of pi);
    OverflowError where it is not finite."""
    try:
        value = cmath.exp(log_value)
    except ValueError:  # an infinite phase, from |z| near the top of the double range
        raise OverflowError from None
    if not cmath.isfinite(value):
        raise OverflowError
    return value if z.imag else complex(value.real)


def gamma(z) -> complex:
    """Complex gamma function.

    Lanczos approximation on Re z >= 1/2, reflection formula elsewhere.
    Relative error is below 1e-12 for |z| <= 50 away from the poles at
    the nonpositive integers.  Where the Lanczos power t^(z-1/2) alone
    overflows (real z above about 142.5) it is formed together with
    e^(-t) as one exponential, which keeps the value finite up to real
    z of about 171.6 (relative error about 1e-13 there, from rounding
    the exponent).  Where the reflection's sin(pi z) or gamma(1 - z)
    leaves the double range (|Im z| above about 226, real z below about
    -170.6) or its value is not a normal double, the reflection is formed
    in logs and its exponential returned.  :class:`DomainError` is raised
    at a pole, for a non-finite ``z``, where the value is below the
    normal double range ("gamma underflows": Re z below about -171.6
    away from the poles, or |Im z| above about 450 near Re z = 0; on
    Re z >= 1/2, where the Lanczos value rounds to 0), and where it
    overflows (real z above about 171.6, and within about 5.6e-309 of 0).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"gamma needs a finite argument, got {z}")
    if is_nonpositive_integer(z):
        raise DomainError(f"gamma pole at z = {z}")
    try:
        if z.real < 0.5:
            try:
                # gamma(z) * gamma(1-z) = pi / sin(pi z)
                value = math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
            # sin(pi z) or gamma(1 - z) leaves the double range (a ValueError
            # where sin's value has no phase)
            except (OverflowError, ValueError):
                value = 0.0
            if cmath.isfinite(value) and abs(value) >= sys.float_info.min:
                return value
            log_value = _log_reflection(z)
            if not log_value.real >= _LOG_TINY:  # nan where |z| nears the top of the range
                raise _GammaUnderflow(f"gamma underflows at z = {z}")
            return _exp_on_axis(log_value, z)  # OverflowError near 0, where gamma(z) ~ 1/z
        power, t, acc = _lanczos(z)
        try:
            value = SQRT_TWO_PI * t ** power * cmath.exp(-t) * acc
        except (OverflowError, ZeroDivisionError):  # complex ** out of range raises either
            value = math.inf
        if not cmath.isfinite(value):
            # t^(x+1/2) leaves the double range before e^(-t) scales it back
            log_value = power * cmath.log(t) - t
            if not log_value.real >= _LOG_TINY:  # nan where |z| nears the top of the range
                value = 0.0
            else:
                try:
                    value = SQRT_TWO_PI * cmath.exp(log_value) * acc
                except ValueError:  # an infinite phase, from |z| near the top of the range
                    raise OverflowError from None
                if not cmath.isfinite(value):
                    raise OverflowError
        if value == 0:
            raise _GammaUnderflow(f"gamma underflows at z = {z}")
        return value
    except OverflowError:
        raise DomainError(f"gamma overflows at z = {z}") from None


def rgamma(z) -> complex:
    """Reciprocal gamma, entire: returns exactly 0 at the poles of gamma,
    and 0 where gamma overflows at Re z >= 1/2.  Where gamma underflows at
    Re z < 1/2, 1/gamma is formed by the reflection in logs as well.
    :class:`DomainError` is raised for a non-finite ``z`` and where 1/gamma
    itself overflows (real z below about -171.6 away from the poles, |Im z|
    above about 450 near Re z = 0, and far off the real axis at
    Re z >= 1/2, where gamma underflows to 0)."""
    z = complex(z)
    if is_nonpositive_integer(z):
        return 0.0 + 0.0j
    try:
        return 1.0 / gamma(z)
    except _GammaUnderflow:  # on Re z < 1/2, 1/gamma(z) is formed in logs too
        if z.real < 0.5:
            try:
                return _exp_on_axis(-_log_reflection(z), z)
            except OverflowError:
                pass
        raise DomainError(f"1/gamma overflows at z = {z}") from None
    except DomainError:
        if cmath.isfinite(z) and z.real >= 0.5:
            return 0.0 + 0.0j  # below the double range
        if abs(z) < 1e-300:
            return z  # 1/gamma(z) = z (1 + 0.577 z + ...) where gamma(z) ~ 1/z overflows
        raise


def pochhammer(a, k: int) -> complex:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1.

    Exactly 0 once a factor is 0 (where a is a nonpositive integer above -k);
    :class:`DomainError` for a non-finite ``a`` and once the product leaves
    the double range, which bounds the work for any k.
    """
    if k < 0:
        raise DomainError("pochhammer needs k >= 0")
    a = complex(a)
    if not cmath.isfinite(a):
        raise DomainError(f"pochhammer needs a finite argument, got {a}")
    if a.real <= 0.0 and is_nonpositive_integer(a) and a.real > -k:
        return 0.0 + 0.0j
    out = 1.0 + 0.0j
    for block in range(0, k, 256):  # a range test per block, not per factor
        for j in range(block, min(k, block + 256)):
            out *= a + j
        if not cmath.isfinite(out):
            raise DomainError(f"pochhammer({a}, {k}) overflows")
    return out


# --------------------------------------------------------------------------
# generalized hypergeometric series
# --------------------------------------------------------------------------


class SeriesResult(NamedTuple):
    """A series value.  ``converged`` is False only on the partial result
    a :class:`BudgetError` carries as ``best``.  ``largest`` is the
    largest |term| summed (0.0 where no series was summed, as at z = 0 or
    by a summation formula): where it exceeds |value| many times over, the
    terms cancelled and the value lost that many of its digits."""

    value: complex
    terms_used: int
    converged: bool
    est_error: float
    largest: float = 0.0


# The one stop rule: a sum ends once _STOP_RUN successive terms are at or
# below _ROUNDING (2^-52) of the partial sum, and raises BudgetError where it
# has not within _MAX_TERMS terms.  No caller sets it.
_ROUNDING = 2.0**-52
_STOP_RUN = 3
_MAX_TERMS = 100_000

# a sum whose largest term exceeds it more than this many times has lost
# more than 8 of its digits to cancellation
_CANCELLATION_LIMIT = 1e8


def _kept_digits(res: SeriesResult, what: str) -> complex:
    """``res.value``, or :class:`DomainError` where its terms cancelled
    (``res.largest`` above _CANCELLATION_LIMIT times |value|)."""
    if res.largest > _CANCELLATION_LIMIT * abs(res.value):
        raise DomainError(f"{what}: the series loses more than 8 digits to cancellation")
    return res.value


def _narrow(v):
    """``v`` as a float when its imaginary part is 0, so that real operands
    take float arithmetic (the same bits as complex arithmetic on them)."""
    return v.real if v.imag == 0.0 else v


class _Series:
    """One (upper, lower) parameter pair as callers give it: the parameters
    as complex numbers, the facts the route choice and the ratios read, and
    ``unit_tail``, the factor of the tail bound of its sum at z = 1 (0.0
    where it has none)."""

    __slots__ = ("upper", "lower", "poles", "terminating", "start_k", "unit_tail")

    def __init__(self, upper, lower):
        self.upper = tuple(complex(a) for a in upper)
        self.lower = tuple(complex(b) for b in lower)
        if not all(map(cmath.isfinite, self.upper + self.lower)):
            raise DomainError(f"pFq needs finite parameters, got {upper} and {lower}")
        self.poles = [b for b in self.lower if is_nonpositive_integer(b)]
        # a terminating upper parameter makes a polynomial, fine for any z
        self.terminating = any(is_nonpositive_integer(a) for a in self.upper)
        # the first index past every lower-parameter pole
        self.start_k = 1 - int(min(b.real for b in self.poles)) if self.poles else 0
        # at z = 1 a non-terminating p = q+1 series with margin Re(sum b - sum a)
        # above 1 falls like k^(-1-margin), so its tail after N terms is about
        # |t_N| N / (margin - 1), the integral comparison
        margin = sum(b.real for b in self.lower) - sum(a.real for a in self.upper)
        unit = len(self.upper) == len(self.lower) + 1 and not self.terminating
        self.unit_tail = 1.0 / (margin - 1.0) if unit and margin > 1.0 else 0.0


# The _Series of the last 1024 pairs asked for, by (upper, lower) as given; a
# non-finite parameter raises before anything is kept.
_series = lru_cache(maxsize=1024)(_Series)

_BLOCK = 100  # ratios per block; it divides _MAX_TERMS, so no sum runs past the budget


@lru_cache(maxsize=1311)  # 131 100 ratios, above 2^17: one full-budget sum fits; ~5 MB
def _ratios(series: _Series, block: int) -> tuple:
    """Block ``block`` of the term ratios r_k = prod(a+k) / ((k+1) prod(b+k))
    of ``series``: the _BLOCK of them from k = start_k + block _BLOCK on,
    on floats where every parameter is real, and cut short where the
    lower-parameter factors underflow to 0.  Each ratio is computed from the
    parameters and its index alone, so no sum depends on what is kept."""
    upper, lower = series.upper, series.lower
    if all(v.imag == 0.0 for v in upper + lower):
        upper, lower = tuple(a.real for a in upper), tuple(b.real for b in lower)
    ratios = []
    first = series.start_k + block * _BLOCK
    try:
        for j in range(first, first + _BLOCK):
            num = 1.0
            for a in upper:
                num *= a + j
            den = j + 1.0
            for b in lower:
                den *= b + j
            ratios.append(num / den)
    except ZeroDivisionError:
        pass
    return tuple(ratios)


_OUT_OF_RANGE = ": its terms leave the double range"


def _unconverged(upper, lower, terms, total, term, largest, why=""):
    """The BudgetError of a sum stopped after ``terms`` terms, with the
    partial sum as ``best``."""
    try:
        est = abs(term)
    except OverflowError:
        est = math.inf
    return BudgetError(
        f"{len(upper)}F{len(lower)} series did not converge in {terms} terms{why}",
        best=SeriesResult(complex(total), terms, False, est, largest),
    )


def _sum_series(upper, lower, z, start_term=None):
    """Raw term-recurrence summation of sum_k t_k with t_{k+1} = t_k r_k z,
    r_k = prod(a+k) / ((k+1) prod(b+k)), the ratios taken block by block
    from the bounded cache of (upper, lower) that every call shares
    (:func:`_ratios`), to the one stop rule.

    The loop runs on floats while every operand is real and on complex
    numbers otherwise.  The sum starts at k = 0 with t_0 = 1, or with
    t_0 = ``start_term`` where one is given: the scale (c)_k0/k0! of a
    binomial remainder, or, where a lower parameter is a nonpositive
    integer, the regularized term past every such pole.  At z = 1 a
    series with a tail bound (see :class:`_Series`) holds that bound
    |t_N| N / (margin - 1), with N the terms summed, to the stop rule as
    well as |t_N|, and returns it as ``est_error``.  No convergence
    prechecks happen here; a sum that misses the stop rule within the
    term budget or leaves the double range raises :class:`BudgetError`
    with the partial sum as ``best``, and a product of lower-parameter
    factors that underflows to 0 (a lower parameter within underflow of
    a pole) raises :class:`DomainError`.  The result's ``largest`` is the
    largest |term|, taken from the terms not yet below the stop rule.
    """
    series = _series(upper, lower)
    term = 1.0 if start_term is None else _narrow(start_term)
    z = _narrow(z)
    total = term
    small = 0
    n = 0  # terms summed
    tail = series.unit_tail if z == 1 else 0.0
    rel_tol, needed = _ROUNDING, _STOP_RUN  # read per term, so kept local
    try:
        largest = abs(term)
        for block in range(_MAX_TERMS // _BLOCK):
            ratios = _ratios(series, block)
            for r in ratios:
                term = term * r * z
                total += term
                n += 1
                size = abs(term)
                # a small term ends the sum only where its tail bound is small too
                if size <= rel_tol * abs(total) and size * n * tail <= rel_tol * abs(total):
                    small += 1
                    if small >= needed:
                        break
                else:
                    small = 0
                    if size > largest:
                        largest = size
            if not cmath.isfinite(total):  # an infinite sum meets the stop rule too
                raise _unconverged(upper, lower, n, total, term, largest, _OUT_OF_RANGE)
            if small >= needed:
                est = size * n * tail if tail else size
                return SeriesResult(complex(total), n, True, est, largest)
            if len(ratios) < _BLOCK:
                raise DomainError(
                    f"{len(upper)}F{len(lower)} series: the lower-parameter factors "
                    f"underflow to 0 at term {series.start_k + n + 1} "
                    "(a lower parameter within underflow of a pole)"
                )
    except OverflowError:  # abs() of a complex term past the double range
        raise _unconverged(upper, lower, n, total, term, math.inf, _OUT_OF_RANGE) from None
    raise _unconverged(upper, lower, n, total, term, largest)


_TAIL_CUT = 0.8  # sum the remainder as a series while |u| is at most this


def binomial_remainder(c, k0: int, u, full) -> complex:
    """sum_{k >= k0} (c)_k u^(k-k0) / k! = (c)_k0/k0! 2F1(c+k0, 1; k0+1; u):
    the binomial series of (1-u)^(-c) less its head, over its leading power,
    so a bracket ``1 - (truncated series)`` that shrinks like u^k0 is u^k0
    times a value in range at any small u.  Summed by the series engine
    where |u| <= 0.8 (a sum not converged within the default budget raises
    its :class:`BudgetError`), elsewhere as ``full`` (the value of (1-u)^(-c)
    on the caller's branch) less the head, over u^k0.  A non-finite ``c``
    or ``u``, a k0 above 170 (k0! leaves the double range), or past the
    cut a value that is not finite, raises :class:`DomainError`."""
    u = complex(u)
    if not (cmath.isfinite(c) and cmath.isfinite(u)):
        raise DomainError(f"binomial_remainder needs finite c and u, got ({c}, {u})")
    if abs(u) <= _TAIL_CUT:
        try:
            start = pochhammer(c, k0) / math.factorial(k0)
        except OverflowError:  # k0! is past the double range from k0 = 171
            raise DomainError(f"binomial_remainder: {k0}! leaves the double range") from None
        return _sum_series((c + k0, 1.0), (k0 + 1.0,), u, start_term=start).value
    try:
        head = sum(pochhammer(c, k) / math.factorial(k) * u**k for k in range(k0))
        value = (full - head) / u**k0
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise DomainError(f"binomial_remainder({c}, {k0}, {u}, {full}) is not finite")
    return value


def _finite(value: complex, what: str) -> complex:
    if not cmath.isfinite(value):
        raise DomainError(f"{what}: the value {value} leaves the double range")
    return value


def gauss_sum_2f1(a, b, c) -> complex:
    """2F1(a,b;c;1) by the Gauss summation formula.

    Requires Re(c-a-b) > 0 unless the series terminates; raises
    :class:`DivergenceError` otherwise, and :class:`DomainError` where the
    gamma product leaves the double range.
    """
    a, b, c = complex(a), complex(b), complex(c)
    d = c - a - b
    if (c - a - b).real <= 0 and not (
        is_nonpositive_integer(a) or is_nonpositive_integer(b)
    ):
        raise DivergenceError("2F1 at z=1 diverges: Re(c-a-b) <= 0")
    return _finite(gamma(c) * gamma(d) * rgamma(c - a) * rgamma(c - b), "gauss_sum_2f1")


def whipple_sum_3f2(a, c, d) -> complex:
    """3F2(a, 1-a, c; d, 2c-d+1; 1) by Whipple's summation formula;
    :class:`DomainError` where a factor or the product leaves the double
    range."""
    a, c, d = complex(a), complex(c), complex(d)
    try:
        power = 2.0 ** (1.0 - 2.0 * c)
    except OverflowError:
        raise DomainError(f"2^(1 - 2c) overflows at c = {c}") from None
    return _finite(
        math.pi
        * power
        * gamma(d)
        * gamma(2.0 * c - d + 1.0)
        * rgamma(c + (a - d + 1.0) / 2.0)
        * rgamma(c + 1.0 - (a + d) / 2.0)
        * rgamma((a + d) / 2.0)
        * rgamma((d - a + 1.0) / 2.0),
        "whipple_sum_3f2",
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


def _pfq_at_unit_argument(upper, lower):
    """pFq(...; 1) for a non-terminating p = q+1 series: the Gauss or
    Whipple formula, or, where Re(sum b - sum a) exceeds 2, the direct sum,
    which stops once its integral-comparison tail |t_N| N / (margin - 1)
    is at the rounding level of the sum.  That tail, the truncation bound
    alone, is its ``est_error`` (2.2e-16 to 2.3e-16 on the three sums of
    the tests, 3F2(0.3, 0.7, 1.1; 2.5, 3.1), 3F2(1/2, 1/2, 1/2; 3, 3) and
    4F3(1, 1, 1, 1; 3, 3, 3), whose values are near 1); the rounding of
    thousands of terms limits the value, 1.1e-14 to 7.8e-14 off 30-digit
    mpmath on the same sums."""
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
        return _sum_series(upper, lower, 1.0)
    raise DomainError(
        "pFq at z=1: no summation formula applies and the series "
        "converges too slowly to evaluate"
    )


def _pfq(upper, lower, z, regularized) -> SeriesResult:
    """The one route choice of :func:`hyp_pfq` and
    :func:`hyp_pfq_regularized`: z = 0, the regularized start past the
    lower-parameter poles, unit argument, or the direct series.  A
    non-finite parameter (met before its series is kept) or argument
    raises :class:`DomainError`."""
    series = _series(tuple(upper), tuple(lower))
    upper, lower, poles, terminating = series.upper, series.lower, series.poles, series.terminating
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"pFq needs a finite argument, got {z}")
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
            # every surviving term has z^k with k >= 1, and a terminating
            # upper parameter kills every survivor; 0 is also the value
            # below the double range.  Leaving here bounds the loop for a
            # start_k as large as 10^300.
            if term == 0:
                return SeriesResult(0.0 + 0.0j, 0, True, 0.0)
            if not cmath.isfinite(term):
                raise DomainError(
                    f"{p}F{q} regularized series: its first term past the pole of lower "
                    f"parameter {min(poles, key=lambda b: b.real)} leaves the double range"
                )
        for b in lower:
            term *= rgamma(b + series.start_k)
        return _sum_series(upper, lower, z, start_term=term)
    scale = 1.0 + 0.0j
    if regularized:
        for b in lower:
            scale *= rgamma(b)
    if z == 0:
        return SeriesResult(scale, 0, True, 0.0)
    res = _pfq_at_unit_argument(upper, lower) if unit else _sum_series(upper, lower, z)
    if regularized:
        size = abs(scale)
        res = SeriesResult(res.value * scale, res.terms_used, res.converged,
                           res.est_error * size, res.largest * size)
    return res


def hyp_pfq(upper: Sequence, lower: Sequence, z) -> SeriesResult:
    """Generalized hypergeometric series pFq(upper; lower; z) by direct
    term recurrence.

    For p <= q the series is entire; for p = q+1 the argument must
    satisfy |z| < 1, except z = 1 which is routed through the Gauss or
    Whipple summation formulas or, where Re(sum b - sum a) exceeds 2, the
    direct sum (divergent cases raise :class:`DivergenceError`).  At
    z = 0 the value is exactly 1.  A series that does not meet the one
    stop rule within 100 000 terms raises :class:`BudgetError`.
    """
    return _pfq(upper, lower, z, regularized=False)


def hyp_pfq_regularized(upper: Sequence, lower: Sequence, z) -> SeriesResult:
    """Regularized series: lower-parameter Pochhammers replaced by
    reciprocal gammas, entire in every parameter.

    Terms whose Gamma(b_j + k) sits at a pole contribute exactly 0, so
    nonpositive-integer lower parameters are fine: the sum simply starts
    past the offending indices.  Raises :class:`BudgetError` like
    :func:`hyp_pfq`.
    """
    return _pfq(upper, lower, z, regularized=True)


def hyp0f1(b, z) -> complex:
    return hyp_pfq((), (b,), z).value


def hyp1f1(a, b, z) -> complex:
    return hyp_pfq((a,), (b,), z).value


def hyp2f1(a, b, c, z) -> complex:
    return hyp_pfq((a, b), (c,), z).value


def hyp3f2(a1, a2, a3, b1, b2, z) -> complex:
    return hyp_pfq((a1, a2, a3), (b1, b2), z).value


# --------------------------------------------------------------------------
# incomplete gamma / beta
# --------------------------------------------------------------------------


def _pow(base, exponent) -> complex:
    """Principal power, but exact integer exponentiation when possible
    (keeps (-z)**n off the branch cut); :class:`DomainError` where it
    leaves the double range, and at 0 to a negative or complex power."""
    e = complex(exponent)
    try:
        if e.imag == 0.0 and e.real == round(e.real) and abs(e.real) <= 512:
            return complex(base) ** int(e.real)
        return complex(base) ** e
    except OverflowError:
        raise DomainError(f"({base:.6g})^{exponent} overflows") from None
    except ZeroDivisionError:  # complex ** also says so where its result is out of range
        raise DomainError(f"({base:.6g})^{exponent} is a pole or leaves the double range") from None


def _gamma_series(nu, z, over_power):
    """z^nu e^(-z) sum_k z^k / (nu (nu+1) ... (nu+k)), without its z^nu
    when ``over_power``, with its largest term and the modulus of its sum.
    The sum is (1/nu) 1F1(1; nu+1; z), summed by the series engine."""
    res = _sum_series((1.0,), (nu + 1.0,), z, start_term=1.0 / nu)
    scale = cmath.exp(-z) if over_power else _pow(z, nu) * cmath.exp(-z)
    return scale * res.value, res.largest, abs(res.value)


def _exp_polynomial_gamma(nu, z, over_power):
    """(n-1)! (1 - e^(-z) e_{n-1}(z)) for integer nu = n, over z^n when
    ``over_power`` (in logs where z^n alone leaves the double range), with
    the size of its largest part and the modulus of the sum, both over
    (n-1)!."""
    n = int(nu.real)
    if n > 171:  # (n-1)! is not a double, and forming it would take ages at large n
        raise DomainError(f"(n-1)! leaves the double range at n = {n}")
    if z.real > 700.0:
        value, largest, total = float(math.factorial(n - 1)) + 0.0j, 1.0, 1.0
    else:
        terms = [z**k / math.factorial(k) for k in range(n)]
        decay = cmath.exp(-z)
        rest = 1.0 - decay * sum(terms)
        value, largest, total = (math.factorial(n - 1) * rest,
                                 1.0 + abs(decay) * sum(map(abs, terms)), abs(rest))
    if over_power:
        try:
            power = z**n
        except OverflowError:
            power = math.inf
        # where z^n leaves the double range the quotient need not: it is formed in logs
        if cmath.isfinite(power):
            value /= power
        elif value:
            value = cmath.exp(cmath.log(value) - n * cmath.log(z))
    return value, largest, total


def _lower_gamma(nu, z, over_power) -> complex:
    """The one route choice of :func:`lower_incomplete_gamma` and
    :func:`lower_incomplete_gamma_over_power`."""
    nu = complex(nu)
    z = complex(z)
    if not (cmath.isfinite(nu) and cmath.isfinite(z)):
        raise DomainError(f"lower_incomplete_gamma needs finite arguments, got ({nu}, {z})")
    if z == 0 and not over_power:
        return 0.0 + 0.0j
    is_int = nu.imag == 0.0 and nu.real == round(nu.real)
    if not is_int and nu.real <= 0:
        raise DomainError("lower_incomplete_gamma needs Re nu > 0 (or integer nu >= 1)")
    if is_int and nu.real < 1:
        raise DomainError("integer order must satisfy nu >= 1")
    if abs(z) > 600 and not is_int:
        raise DomainError("argument too large for the series evaluation")
    if is_int and (z.real > max(30.0, 2.0 * nu.real) or abs(z) > 600):
        # saturated, or large: the series only where the polynomial's terms
        # z^k leave the double range
        forms = (_exp_polynomial_gamma, _gamma_series)
    else:
        forms = (_gamma_series, _exp_polynomial_gamma) if is_int else (_gamma_series,)
    for form in forms:
        try:
            value, largest, total = form(nu, z, over_power)
        # z^nu (DomainError) or the terms (BudgetError) leave the double range
        except (OverflowError, DomainError, BudgetError):
            continue
        if largest <= _CANCELLATION_LIMIT * total and cmath.isfinite(value):
            return value
    raise DomainError(
        f"lower_incomplete_gamma({nu}, {z}): the evaluation loses more than 8 digits "
        "to cancellation or overflows"
    )


def lower_incomplete_gamma(nu, z) -> complex:
    """Lower incomplete gamma gamma(nu, z) for Re nu > 0 (any integer
    nu >= 1 included), by the everywhere-convergent scaled series
    z^nu e^(-z) sum_k z^k / (nu (nu+1) ... (nu+k)) = z^nu e^(-z)
    1F1(1; nu+1; z) / nu, summed by the series engine to its one stop
    rule (the rounding level), or, for integer nu = n, the
    exponential-polynomial form (n-1)! (1 - e^(-z) e_{n-1}(z)).

    Each form loses the digits its largest part exceeds its sum by: the
    series off the positive real axis at large |z|, the polynomial form
    at |z| small against n.  The polynomial form goes first for integer
    nu where Re z exceeds max(30, 2n) or |z| exceeds 600, the series
    first elsewhere.  The first form that keeps about 8 digits
    (ratio at most 1e8) and a finite value gives the result, otherwise
    :class:`DomainError` is raised (as at (0.3, 300i), (0.5, -500),
    (2, -800) or (1e-300, 150), where the series' terms overflow); so is
    it for a non-finite ``nu`` or ``z``.
    """
    return _lower_gamma(nu, z, over_power=False)


def lower_incomplete_gamma_over_power(nu, z) -> complex:
    """gamma(nu, z) / z^nu, entire in z (1/nu at z = 0): the route of
    :func:`lower_incomplete_gamma` with its power z^nu never formed, so the
    value stays in range at tiny |z| where z^nu under- or overflows (as
    :func:`binomial_remainder` returns a remainder over its leading
    power).  Raises as :func:`lower_incomplete_gamma` does, and
    :class:`DomainError` where the exponential-polynomial form's z^n
    leaves the double range."""
    return _lower_gamma(nu, z, over_power=True)


def incomplete_beta(nu, mu, t) -> complex:
    """Incomplete beta B(nu, mu, t) = integral_0^t x^(nu-1)(1-x)^(mu-1) dx.

    Evaluated through the hypergeometric bridge
    B(nu,mu,t) = (t^nu / nu) 2F1(nu, 1-mu; nu+1; t); at t = 1 the
    complete-beta gamma ratio is returned (as the analytic continuation
    when Re mu <= 0, matching the limit treatment in the identity
    catalog).  Where the 2F1 cancels by more than 8 digits (its largest
    term above 1e8 times its sum, as at large negative mu near t = -1),
    :class:`DomainError` is raised.
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
    # checks t before t^nu can overflow
    series = _kept_digits(hyp_pfq((nu, 1.0 - mu), (nu + 1.0,), t), "incomplete_beta")
    value = _pow(t, nu) / nu * series
    if not cmath.isfinite(value):
        raise DomainError(f"incomplete_beta({nu}, {mu}, {t}) is not finite")
    return value


# --------------------------------------------------------------------------
# Legendre functions
# --------------------------------------------------------------------------


_FERRERS_ZERO_CUT = 2.0**-10  # below it in |x|, Ferrers P_nu^mu(x) is expanded about x = 0


def _ferrers_near_zero(nu, mu, x: float) -> complex:
    """Ferrers P_nu^mu(x) by its expansion about x = 0 (DLMF 14.3.11): two
    2F1 in x^2 with reciprocal-gamma weights, the odd one carrying x."""
    a, b = -(nu + mu) / 2.0, (nu - mu + 1.0) / 2.0
    x2 = x * x
    bracket = 0.0 + 0.0j
    even = rgamma(a + 0.5) * rgamma(b + 0.5)
    if even != 0:
        bracket += even * hyp_pfq((a, b), (0.5,), x2).value
    odd = rgamma(a) * rgamma(b)
    if odd != 0:
        bracket -= 2.0 * x * odd * hyp_pfq((a + 0.5, b + 0.5), (1.5,), x2).value
    if bracket == 0:  # both weights at poles: 2^mu is not formed (it overflows near mu = 1e300)
        return bracket
    value = _pow(2.0, mu) * SQRT_PI * _pow(1.0 - x2, -mu / 2.0) * bracket
    if not cmath.isfinite(value):  # the product of two reciprocal gammas overflows
        raise DomainError(f"legendre_p({nu}, {mu}, {x}) is not finite")
    return value


def legendre_p(nu, mu, x) -> complex:
    """Legendre function P_nu^mu(x) of general complex degree and order.

    Hypergeometric representation with the regularized series in
    (1-x)/2, so nonpositive-integer 1-mu is handled.  Real x in (-1, 1)
    uses the Ferrers (on-cut) prefactor ((1+x)/(1-x))^(mu/2); elsewhere
    the principal-branch prefactor ((x+1)/(x-1))^(mu/2) applies.  Needs
    |1-x| < 2 for the series.  Real |x| below 2^-10 takes the Ferrers
    expansion about x = 0 instead, where the series in (1-x)/2 would
    cancel down to a value that vanishes with x (P_1^0(x) = x).  Where
    the series in (1-x)/2 cancels by more than 8 digits (its largest term
    above 1e8 times its sum, as at moderate degree away from x = 1),
    :class:`DomainError` is raised.  Satisfies P_{-nu-1}^mu = P_nu^mu.
    """
    nu, mu, x = complex(nu), complex(mu), complex(x)
    if x.imag == 0.0 and abs(x.real) < _FERRERS_ZERO_CUT:
        return _ferrers_near_zero(nu, mu, x.real)
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
        pref = _pow((1.0 + x) / (1.0 - x), mu / 2.0)
    else:
        pref = _pow((x + 1.0) / (x - 1.0), mu / 2.0)
    res = hyp_pfq_regularized((nu + 1.0, -nu), (1.0 - mu,), w)
    return pref * _kept_digits(res, "legendre_p")


def legendre_polynomial(n: int, x) -> complex:
    """Legendre polynomial P_n(x) by the three-term recurrence, for n up to
    10^6 (about 0.35 s); :class:`DomainError` for a non-finite ``x`` and
    where it leaves the double range."""
    if not 0 <= n <= 10**6:
        raise DomainError(f"legendre_polynomial needs 0 <= n <= 10^6, got {n}")
    x = complex(x)
    if not cmath.isfinite(x):
        raise DomainError(f"legendre_polynomial needs a finite argument, got {x}")
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


@lru_cache(maxsize=1)  # J3 uses nu = 1/3 alone
def _pcd_weights(nu):
    """The weights 2^(nu/2), sqrt(pi)/Gamma((1-nu)/2) and 1/Gamma(-nu/2) of
    _pcd_kummer, kept for the last order.  A non-finite order raises at the
    entry of parabolic_cylinder_d, before they are asked for."""
    return _pow(2.0, nu / 2.0), SQRT_PI * rgamma((1.0 - nu) / 2.0), rgamma(-nu / 2.0)


def _pcd_kummer(nu, z):
    x = z * z / 2.0
    m1 = hyp1f1(-nu / 2.0, 0.5, x)
    m2 = hyp1f1((1.0 - nu) / 2.0, 1.5, x)
    power, weight1, weight2 = _pcd_weights(nu)
    return power * cmath.exp(-x / 2.0) * (weight1 * m1 - SQRT_TWO_PI * z * weight2 * m2)


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
    catastrophically there).  The gamma weights depend on ``nu`` alone
    and are kept for the last order asked for (a one-entry
    ``functools.lru_cache``).  Measured against mpmath
    on real z in steps of 0.5 over [-20, 20] and nu in steps of 0.1 over
    [-3, 3]: relative error below 1.5e-9 outside 4.5 <= z <= 7, and
    below 1e-8 inside it for nu > -1; for nu <= -1 that window misses
    1e-8 (up to 1.9e-5 at nu = -3, z = 5.5).  At nu = 1/3, the order of
    J3, the error stays below 5e-10 over -31.6 <= z <= 20.  Complex z is
    best effort within the overflow guard.  A non-finite ``nu`` or ``z``
    raises :class:`DomainError`.
    """
    nu, z = complex(nu), complex(z)
    if not (cmath.isfinite(nu) and cmath.isfinite(z)):
        raise DomainError(f"parabolic_cylinder_d needs finite arguments, got ({nu}, {z})")
    if z.imag == 0.0 and nu.imag == 0.0 and z.real > _PCD_ASYMPTOTIC_CUT:
        value = _pcd_asymptotic(nu, z)
    elif abs(z * z) / 2.0 > 600.0:
        raise DomainError("parabolic_cylinder_d: |z^2|/2 too large, would overflow")
    else:
        value = _pcd_kummer(nu, z)
    if not cmath.isfinite(value):
        raise DomainError(f"parabolic_cylinder_d({nu}, {z}) is not finite")
    return value


# --------------------------------------------------------------------------
# Bell polynomials
# --------------------------------------------------------------------------


_BELL_MAX_PRODUCTS = 10**5  # about 0.2 s


def bell_polynomial(n: int, k: int, xs: Sequence) -> complex:
    """Partial exponential Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}).

    Standard recurrence
    B_{n,k} = sum_{j=1}^{n-k+1} C(n-1, j-1) x_j B_{n-j,k-1},  B_{0,0} = 1,
    filled one k at a time.  A non-finite argument, a table of more than
    10^5 products and a value that leaves the double range raise
    :class:`DomainError`.
    """
    if k < 1 or k > n:
        raise DomainError("bell_polynomial needs 1 <= k <= n")
    if len(xs) < n - k + 1:
        raise DomainError(f"bell_polynomial needs at least {n - k + 1} arguments")
    xs = [complex(v) for v in xs]
    if not all(map(cmath.isfinite, xs)):
        raise DomainError(f"bell_polynomial needs finite arguments, got {xs}")
    width = n - k + 1
    if (k - 1) * width * (width + 1) // 2 + width > _BELL_MAX_PRODUCTS:
        raise DomainError(
            "bell_polynomial: the table for this n and k needs more than 10^5 products"
        )
    row = [1.0 + 0.0j] + [0.0 + 0.0j] * (n - k)  # B_{i,0}, i = 0..n-k
    try:
        for kk in range(1, k + 1):
            # B_{kk+i,kk} from the row of kk-1; the last row needs i = n-k alone
            row = [
                sum(math.comb(kk + i - 1, j - 1) * xs[j - 1] * row[i + 1 - j]
                    for j in range(1, i + 2))
                for i in range(0 if kk < k else n - k, n - k + 1)
            ]
    except OverflowError:  # a binomial coefficient past the double range
        row = [math.inf]
    if not cmath.isfinite(row[-1]):
        raise DomainError(f"bell_polynomial({n}, {k}) leaves the double range")
    return row[-1]
