import cmath
import math
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihyp import specfun
from trihyp.errors import BudgetError, DivergenceError, DomainError, TrihypError
from trihyp.specfun import (
    SeriesControl,
    _sum_series,
    bell_polynomial,
    binomial_remainder,
    gamma,
    gauss_sum_2f1,
    hyp1f1,
    hyp2f1,
    hyp3f2,
    hyp_pfq,
    hyp_pfq_regularized,
    incomplete_beta,
    legendre_p,
    legendre_polynomial,
    lower_incomplete_gamma,
    lower_incomplete_gamma_over_power,
    parabolic_cylinder_d,
    pochhammer,
    rgamma,
    whipple_sum_3f2,
)

SQRT_PI = math.sqrt(math.pi)


def rel(a, b):
    return abs(a - b) / max(abs(b), 2.0**-1022)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(0.7 + 0.3j, 0) == 1

    def test_half_squared(self):
        # direct product oracle: (1/2)(3/2)
        assert pochhammer(0.5, 2) == 0.75

    def test_recurrence_oracle(self):
        # (x)_{k+1} = x (x+1)_k, exactly, for dyadic x
        x = -0.5
        for k in range(1, 9):
            assert pochhammer(x, k + 1) == x * pochhammer(x + 1, k)

    @given(
        st.integers(min_value=-8, max_value=8).map(lambda v: v / 2.0),
        st.integers(min_value=0, max_value=10),
    )
    @settings(deadline=None)
    def test_recurrence_exact_dyadic(self, x, k):
        assert pochhammer(x, k + 1) == x * pochhammer(x + 1, k)

    @pytest.mark.parametrize("a", [-3, 0, -300, complex(-7, 0)])
    def test_zero_past_a_nonpositive_integer_for_any_k(self, a):
        # the product meets the factor 0; -300 would overflow first
        assert pochhammer(a, 10**12) == 0
        assert pochhammer(a, 400) == 0

    @pytest.mark.parametrize("a,k", [(0.5, 10**12), (0.5 + 2j, 10**9), (1e300, 3), (-1e6 + 0.5, 10**7)])
    def test_overflow_is_domain_error(self, a, k):
        with pytest.raises(DomainError, match="pochhammer.*overflows"):
            pochhammer(a, k)


def _catalog_remainders():
    """Every (c, k0) the bracket sites use: k0 = n+1 with n = 0..5."""
    for n in range(6):
        for c in sorted({-0.5, 0.5, 0.5 - n, -n - 0.5, n + 1.0}):
            yield c, n + 1


def _binomial_tail(c, k0, u):
    """The term-by-term loop that summed the remainder below the cut before
    it went through the series engine, kept as a reference."""
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
    raise AssertionError(f"the reference loop did not converge at {(c, k0, u)}")


def _remainder_points(count=3000):
    """Seeded points of the bracket sites' shape: the five (c, k0) families
    with n = 0..6 and |u| <= 0.8, 30% of them real."""
    rng = Random(20260811)
    for _ in range(count):
        n = rng.randint(0, 6)
        c = rng.choice((-0.5, 0.5, 0.5 - n, -n - 0.5, n + 1.0))
        r = 0.8 * math.sqrt(rng.random())
        if rng.random() < 0.3:
            u = complex(rng.choice((r, -r)))
        else:
            u = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        yield c, n + 1, u


class TestBinomialRemainder:
    @pytest.mark.parametrize("c,k0", list(_catalog_remainders()))
    # either side of the 0.8 cut, and far below underflow of u^k0
    @pytest.mark.parametrize("radius", [0.79, 0.81, 1e-200])
    def test_vs_mpmath(self, c, k0, radius):
        mpmath = pytest.importorskip("mpmath")
        for angle in (0.0, 0.9, 2.2, math.pi):
            u = radius * cmath.exp(1j * angle)
            with mpmath.workdps(40):
                if radius == 1e-200:  # the leading coefficient, to far below 1e-12
                    ref = complex(mpmath.rf(c, k0) / mpmath.factorial(k0))
                else:
                    w = mpmath.mpc(u)
                    head = sum(mpmath.rf(c, k) / mpmath.factorial(k) * w**k for k in range(k0))
                    ref = complex(((1 - w) ** (-c) - head) / w**k0)
            got = binomial_remainder(c, k0, u, (1.0 - u) ** (-c))
            assert abs(got - ref) <= 1e-12 * abs(ref), (u, got, ref)

    def test_engine_sum_matches_the_former_loop(self):
        for c, k0, u in _remainder_points():
            ref = _binomial_tail(c, k0, u)
            got = binomial_remainder(c, k0, u, math.nan)
            assert abs(got - ref) <= 1e-14 * abs(ref), (c, k0, u, got, ref)

    def test_engine_sum_vs_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for c, k0, u in _remainder_points():
                ref = complex(mpmath.rf(c, k0) / mpmath.factorial(k0)
                              * mpmath.hyp2f1(c + k0, 1, k0 + 1, mpmath.mpc(u)))
                got = binomial_remainder(c, k0, u, math.nan)
                assert abs(got - ref) <= 1e-14 * abs(ref), (c, k0, u, got, ref)

    def test_printed_form_only_past_the_cut(self):
        # inside the cut the remainder ignores ``full``; past it, it is full
        # less the head, over the leading power
        assert rel(binomial_remainder(0.5, 1, 0.5, math.nan), (2.0**0.5 - 1.0) / 0.5) < 1e-15
        assert binomial_remainder(0.5, 1, 0.81, 7.0) == (7.0 - 1.0) / 0.81


class TestGamma:
    def test_sqrt_pi(self):
        assert rel(gamma(0.5), SQRT_PI) < 1e-14

    def test_half_integers_vs_pochhammer(self):
        for n in range(1, 7):
            expected = pochhammer(0.5, n) * SQRT_PI
            assert rel(gamma(n + 0.5), expected) < 1e-12

    def test_reflection_value(self):
        # Gamma(1/3) Gamma(2/3) = pi / sin(pi/3) = 2 pi / sqrt(3)
        assert rel(gamma(1 / 3) * gamma(2 / 3), 2 * math.pi / math.sqrt(3)) < 1e-13

    def test_recurrence_complex(self):
        for z in (1.7 - 2.2j, -3.4 + 0.9j, 0.05 + 0.0j, 12.0 + 30.0j):
            assert abs(gamma(z + 1) - z * gamma(z)) / abs(gamma(z + 1)) < 1e-12

    def test_poles(self):
        for z in (0, -1, -2, -7):
            with pytest.raises(DomainError):
                gamma(z)
            assert rgamma(z) == 0

    @pytest.mark.parametrize("z", [200, 172, -200.5, -0.5 + 300j])
    def test_overflow_is_domain_error(self, z):
        with pytest.raises(DomainError, match="overflows"):
            gamma(z)

    @pytest.mark.parametrize("z", [142.6, 143, 150, 171, 150 + 1j, -150.5])
    def test_large_argument_vs_mpmath(self, z):
        # the Lanczos power t^(z-1/2) alone overflows here (at 142.6 its
        # product with sqrt(2 pi) did, silently, giving nan)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.gamma(z))
        assert abs(gamma(z) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_argument(self, z):
        with pytest.raises(DomainError, match="finite"):
            gamma(z)

    @pytest.mark.parametrize("z", [1e-320, 5e-324, -1e-320, 1e-310j])
    def test_overflow_near_zero_is_domain_error(self, z):
        # gamma(z) ~ 1/z leaves the double range through the reflection
        with pytest.raises(DomainError, match="gamma overflows"):
            gamma(z)

    @pytest.mark.parametrize("z", [1e6, 200, 172, 1e6 + 5j])
    def test_reciprocal_underflows_to_zero(self, z):
        assert rgamma(z) == 0

    @pytest.mark.parametrize("z", [1e-320, -1e-320, 5e-324, 1e-310j])
    def test_reciprocal_near_zero(self, z):
        # 1/gamma(z) = z (1 + 0.577 z + ...), where gamma(z) itself overflows
        assert rgamma(z) == z

    def test_reciprocal_overflow_is_domain_error(self):
        # 1/gamma(-200.5) = sin(-200.5 pi) gamma(201.5) / pi is beyond the double range
        with pytest.raises(DomainError, match="overflows"):
            rgamma(-200.5)

    def test_reciprocal_where_gamma_underflows_is_domain_error(self):
        # |gamma(1.5 - 700i)| ~ 1e-475 rounds to 0; 1/0 once raised a bare ZeroDivisionError
        with pytest.raises(DomainError, match=r"1/gamma overflows at z = \(1\.5-700j\)"):
            rgamma(1.5 - 700j)

    @pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_reciprocal_non_finite_argument(self, z):
        with pytest.raises(DomainError, match="finite"):
            rgamma(z)

    def test_underflow_off_the_real_axis_is_domain_error(self):
        # |gamma(700i)| ~ e^(-350 pi); sin(700 pi i) overflows first, and the
        # error once said "gamma overflows"
        with pytest.raises(DomainError, match=r"^gamma underflows at z = 700j$"):
            gamma(700j)

    @pytest.mark.parametrize("fn", [rgamma, lambda z: hyp_pfq_regularized((z, 1.0), (z,), 0.0)],
                             ids=["rgamma", "2f1_reg"])
    def test_reciprocal_where_the_reflection_underflows_is_domain_error(self, fn):
        with pytest.raises(DomainError, match=r"^1/gamma overflows at z = 700j$"):
            fn(700j)

    @pytest.mark.parametrize("fn", [gamma, rgamma])
    def test_reflection_overflow_names_the_callers_argument(self, fn):
        # not the 201.5 of the inner gamma(1 - z)
        with pytest.raises(DomainError, match=r"gamma overflows at z = \(-200\.5\+0j\)"):
            fn(-200.5)


class TestNonFiniteArguments:
    @pytest.mark.parametrize(
        "fn,args",
        [
            # the first four spent a term budget and raised BudgetError, the
            # last two leaked a bare OverflowError
            (hyp1f1, (math.nan, 1, 1)),
            (hyp2f1, (0.5, 1, 2, math.nan)),
            (parabolic_cylinder_d, (math.nan, 1.0)),
            (lower_incomplete_gamma, (2, math.nan)),
            (parabolic_cylinder_d, (1.0 / 3.0, math.inf)),
            (lower_incomplete_gamma, (math.inf, 1.0)),
            # the next two returned nan+nanj, the last two raised a
            # DomainError that said "overflows"
            (binomial_remainder, (0.5, 2, math.nan, 1.0)),
            (bell_polynomial, (3, 2, [math.nan] * 3)),
            (legendre_polynomial, (10**6, math.nan)),
            (pochhammer, (math.nan, 5)),
        ],
        ids=["hyp1f1-a", "hyp2f1-z", "pcd-nu", "lig-z", "pcd-z", "lig-nu",
             "binomial-remainder-u", "bell-xs", "legendre-poly-x", "pochhammer-a"],
    )
    def test_raise_domain_error_at_entry(self, fn, args):
        with pytest.raises(DomainError, match="finite"):
            fn(*args)

    @pytest.mark.parametrize("u,full", [(1e200, 1.0), (2.0, math.inf)])
    def test_binomial_remainder_past_the_cut_stays_finite(self, u, full):
        # u**k0 once leaked a bare OverflowError; a non-finite ``full`` gave inf
        with pytest.raises(DomainError, match="is not finite"):
            binomial_remainder(0.5, 2, u, full)

    @pytest.mark.parametrize("upper,lower", [((math.nan,), (1.0,)), ((1.0,), (math.inf,))])
    def test_non_finite_parameters_are_not_kept(self, upper, lower):
        before = len(specfun._series_cache)
        with pytest.raises(DomainError, match="finite parameters"):
            hyp_pfq(upper, lower, 0.5)
        assert len(specfun._series_cache) == before


class TestHypPfq:
    def test_unity_at_zero(self):
        res = hyp_pfq((0.3 + 1j, 2.5), (1.25,), 0.0)
        assert res.value == 1.0 and res.converged and res.est_error == 0.0

    @given(
        st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=1, max_size=2),
        st.lists(st.floats(min_value=0.3, max_value=4.0), min_size=2, max_size=3),
    )
    @settings(deadline=None, max_examples=30)
    def test_unity_at_zero_property(self, upper, lower):
        assert hyp_pfq(upper, lower, 0.0).value == 1.0

    def test_gauss_point(self):
        assert rel(hyp2f1(0.5, 1, 2, 1), 2.0) < 1e-12

    def test_elementary_point(self):
        # closed form 4 (1 - sqrt(0.5)) of the base reduction
        assert rel(hyp2f1(0.5, 1, 2, 0.5), 4 * (1 - math.sqrt(0.5))) < 1e-12

    def test_whipple_point(self):
        assert rel(hyp3f2(0.25, 0.5, 0.75, 2 / 3, 4 / 3, 1), 4 / 3) < 1e-12

    def test_divergent_at_one(self):
        with pytest.raises(DivergenceError):
            hyp2f1(2.5, 3.0, 4.0, 1.0)

    def test_outside_disc(self):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 1, 2, 1.2)

    def test_invalid_lower_parameter(self):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 1, -2, 0.3)

    @pytest.mark.parametrize("lower,z", [((1e-200, 1e-200), 0.5), ((0.5, 5e-324), 1)])
    def test_lower_parameter_within_underflow_of_a_pole(self, lower, z):
        # the product of the factors b + k underflows to 0
        with pytest.raises(DomainError, match="underflow"):
            hyp_pfq((), lower, z)

    @pytest.mark.parametrize(
        "kwargs", [{"rel_tol": 0.0}, {"rel_tol": 1.0}, {"max_terms": 0}, {"consecutive_small": 0}]
    )
    def test_invalid_control(self, kwargs):
        with pytest.raises(DomainError):
            SeriesControl(**kwargs)

    def test_terminating_series_any_argument(self):
        # upper parameter -3 makes the series a cubic polynomial
        v = hyp2f1(-3, 1.5, 2.5, 4.0)
        brute = sum(
            pochhammer(-3, k) * pochhammer(1.5, k) / pochhammer(2.5, k) * 4.0**k
            / math.factorial(k)
            for k in range(4)
        )
        assert rel(v, brute) < 1e-14

    @pytest.mark.parametrize(
        "fn,args",
        [
            (hyp2f1, (0.5, 0.5, 1, 0.9999)),
            (hyp1f1, (1, 2, 800)),
            (hyp_pfq_regularized, ((0.5, 0.5), (1,), 0.9999)),
            (legendre_p, (0.5, 0.5, -0.9998)),
        ],
        ids=["2f1-near-unit-circle", "1f1-overflowing-terms", "2f1-regularized", "legendre"],
    )
    def test_unconverged_series_raises(self, fn, args):
        with pytest.raises(BudgetError, match="did not converge") as err:
            fn(*args)
        assert not err.value.best.converged

    def test_nonconvergence_flagged(self):
        with pytest.raises(BudgetError, match="2F1 series did not converge in 50 terms") as err:
            hyp_pfq((0.5, 1.0), (2.0,), 0.999, SeriesControl(rel_tol=1e-13, max_terms=50))
        assert not err.value.best.converged and err.value.best.terms_used == 50

    def test_unit_argument_budget_raises(self):
        # margin 3 > 2 takes the direct sum at z = 1, whose terms fall like
        # k^-3: 30 terms leave a tail near 1e-4, far above the tolerance
        with pytest.raises(BudgetError, match="3F2 series did not converge") as err:
            hyp_pfq((1, 1, 1), (2, 4), 1.0, SeriesControl(max_terms=30))
        assert not err.value.best.converged

    @pytest.mark.parametrize(
        "upper,lower",
        [((0.5, 0.5, 0.5), (3, 3)), ((0.3, 0.7, 1.1), (2.5, 3.1)), ((1, 1, 1, 1), (3, 3, 3))],
    )
    def test_unit_argument_direct_sum_vs_mpmath(self, upper, lower):
        # margin > 2 without a summation formula: the direct sum stops early
        # enough that its integral-comparison tail is within rel_tol
        mpmath = pytest.importorskip("mpmath")
        res = hyp_pfq(upper, lower, 1.0)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyper(upper, lower, 1))
        assert res.converged and res.terms_used > 0
        assert abs(res.value - ref) <= 1e-13 * abs(ref)
        assert res.est_error <= 1e-13 * abs(ref)

    def test_gauss_summation_check(self):
        # routing at z = 1 against the gamma-ratio formula written out here
        rng = Random(101)
        for _ in range(50):
            a = complex(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 1.0))
            b = complex(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 1.0))
            c = a + b + complex(rng.uniform(0.31, 2.5), rng.uniform(-0.5, 0.5))
            v = hyp2f1(a, b, c, 1.0)
            ref = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
            assert rel(v, ref) < 1e-9

    def test_gauss_vs_raw_series(self):
        # genuine differential check: raw summation converges when the
        # margin is comfortably above 3
        rng = Random(55)
        ctrl = SeriesControl(rel_tol=1e-15, max_terms=6000, consecutive_small=3)
        for _ in range(5):
            a = rng.uniform(0.2, 1.2)
            b = rng.uniform(0.2, 1.2)
            c = a + b + rng.uniform(3.2, 4.5)
            raw = _sum_series((a, b), (c,), 1.0 + 0.0j, ctrl).value
            assert rel(raw, gauss_sum_2f1(a, b, c)) < 1e-9

    def test_whipple_vs_raw_series(self):
        rng = Random(56)
        ctrl = SeriesControl(rel_tol=1e-15, max_terms=6000, consecutive_small=3)
        for _ in range(20):
            a = rng.uniform(0.2, 1.5)
            d = rng.uniform(a - 0.5, 2.2)
            c = rng.uniform(3.2, 5.0)
            upper = (a, 1.0 - a, c)
            lower = (d, 2.0 * c - d + 1.0)
            raw = _sum_series(upper, lower, 1.0 + 0.0j, ctrl).value
            assert rel(raw, whipple_sum_3f2(a, c, d)) < 1e-8

    def test_derivative_contract(self):
        # d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z)
        a, b, c = 0.4, 1.3, 2.2
        h = 1e-6
        for z in (-0.5, -0.2, 0.1, 0.35, 0.5):
            fd = (hyp2f1(a, b, c, z + h) - hyp2f1(a, b, c, z - h)) / (2 * h)
            closed = a * b / c * hyp2f1(a + 1, b + 1, c + 1, z)
            assert rel(fd, closed) < 1e-6


class TestRegularized:
    def test_trivial_at_zero(self):
        res = hyp_pfq_regularized((0.5, 1.0), (2.0,), 0.0)
        assert rel(res.value, 1.0) < 1e-14  # 1/Gamma(2)

    def test_negative_integer_lower(self):
        # (1/2)_2 * (0.5/0.5)^2 / sqrt(0.5) = (3/4) sqrt(2)
        res = hyp_pfq_regularized((0.5, 1.0), (-1.0,), 0.5)
        assert rel(res.value, 0.75 * math.sqrt(2)) < 1e-12

    def test_differentiation_row(self):
        # 2 (1/2)_2 t at n = 2, t = 0.3
        res = hyp_pfq_regularized((-1.5, -1.0), (0.0,), 0.3)
        assert rel(res.value, 0.45) < 1e-13

    def test_matches_scaled_plain_series(self):
        rng = Random(77)
        for _ in range(25):
            a = rng.uniform(0.2, 2.0)
            b = rng.uniform(0.2, 2.0)
            c = rng.uniform(0.4, 3.0)
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5))
            if abs(z) >= 0.9:
                continue
            plain = hyp2f1(a, b, c, z)
            reg = hyp_pfq_regularized((a, b), (c,), z).value
            assert rel(reg, plain * rgamma(c)) < 1e-12

    @given(
        st.lists(st.floats(min_value=-3.0, max_value=4.0), max_size=3),
        st.lists(
            # kept off the poles: next to one, the product of the b + k can underflow to 0
            st.floats(min_value=-3.5, max_value=4.0).filter(
                lambda b: b >= 0.5 or abs(b - round(b)) >= 1e-3
            ),
            min_size=1,
            max_size=2,
        ),
        st.one_of(st.sampled_from([0.0, 1.0]), st.complex_numbers(max_magnitude=0.9)),
    )
    @settings(deadline=None, max_examples=80)
    def test_pole_free_lower_is_the_scaled_plain_series(self, upper, lower, z):
        try:
            plain = hyp_pfq(upper, lower, z)
        except TrihypError as exc:
            with pytest.raises(type(exc)):
                hyp_pfq_regularized(upper, lower, z)
            return
        scale = 1.0 + 0.0j
        for b in lower:
            scale *= rgamma(b)
        reg = hyp_pfq_regularized(upper, lower, z)
        assert reg.value == plain.value * scale
        assert reg.terms_used == plain.terms_used

    def test_start_term_past_a_far_pole(self):
        # sum_{k >= 201} z^k / Gamma(k - 200) = z^201 e^z; (1)_201 and 201! alone overflow
        res = hyp_pfq_regularized((1,), (-200,), 0.5)
        ref = 0.5**201 * math.exp(0.5)
        assert abs(res.value - ref) <= 1e-13 * ref

    def test_start_term_below_the_double_range(self):
        # 0.5^201 / 201! ~ 2e-438 underflows; z^201 / 201! once raised a bare OverflowError
        res = hyp_pfq_regularized((), (-200,), 0.5)
        assert res.value == 0 and res.converged

    def test_start_term_past_a_pole_near_minus_1e300_returns_at_once(self):
        # the running product once took one step per index up to 10^300;
        # P_1^m = 0 for integer m > 1, and the product meets its factor 0
        assert legendre_p(1, 1e300, 0) == 0
        with pytest.raises(DomainError, match=r"lower parameter \(-1e\+300\+0j\) leaves"):
            hyp_pfq_regularized((1, 1), (-1e300,), 0.5)


class TestIncompleteGamma:
    def test_order_one(self):
        for z in (0.3, 2.0, 5.0 - 1.5j):
            assert rel(lower_incomplete_gamma(1, z), 1 - cmath.exp(-z)) < 1e-13

    def test_zero_argument(self):
        assert lower_incomplete_gamma(2.3, 0) == 0

    def test_exponential_polynomial_oracle(self):
        # gamma(3, 2) = 2! (1 - e^-2 (1 + 2 + 2)) = 2 - 10 e^-2
        assert rel(lower_incomplete_gamma(3, 2), 2 - 10 * math.exp(-2)) < 1e-13

    def test_saturated_regime(self):
        assert rel(lower_incomplete_gamma(2, 80.0), 1.0) < 1e-13

    def test_non_integer_vs_quadrature_free_identity(self):
        # gamma(nu, z) + upper tail = Gamma(nu): check against the
        # complement computed from the saturated series at large z
        nu = 1.6
        total = lower_incomplete_gamma(nu, 500.0)
        assert rel(total, gamma(nu)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            lower_incomplete_gamma(-0.5, 1.0)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(0, 1.0)

    @pytest.mark.parametrize(
        "nu,z", [(0.5, 2 + 1j), (1.6, 25.0), (0.3, -10.0), (0.5, -18.0), (0.7 + 0.4j, -5 + 8j),
                 (3.7, 12 - 4j)]
    )
    def test_vs_mpmath(self, nu, z):
        # up to the 1e8 cancellation limit, so about 8 digits at worst
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = complex(mpmath.gammainc(nu, 0, z))
        assert abs(lower_incomplete_gamma(nu, z) - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("n,z", [(1, -50.0), (3, -25 - 30j), (2, 5 + 40j), (4, -40.0),
                                     (5, 0.1 + 900j), (2, -650.0)])
    def test_integer_order_where_the_series_cancels(self, n, z):
        # the series would lose 12 to 16 digits here (or |z| > 600), so the
        # exponential-polynomial form takes over at full precision
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40 + int(abs(z) / 2.3)):
            ref = complex(mpmath.gammainc(n, 0, z))
        assert abs(lower_incomplete_gamma(n, z) - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("n,z", [(2, -800.0), (200, 500.0), (200, 1000j), (150, 250.0)])
    def test_integer_order_overflow_raises(self, n, z):
        # gamma(2, -800) is about 800 e^800; 199! and 1000^199 overflow a
        # double; 250^150 overflows the series' power and 250^149 the
        # polynomial form, which the series must still fall back to
        with pytest.raises(DomainError, match="8 digits"):
            lower_incomplete_gamma(n, z)

    @pytest.mark.parametrize("nu,z,value", [(150, 701.0, 3.8089226376305697e260), (5, 1e100, 24.0)])
    def test_saturated_values_keep_their_power(self, nu, z, value):
        # z^nu alone leaves the double range here, so neither is z^nu times
        # the power-free value
        assert rel(lower_incomplete_gamma(nu, z), value) < 1e-14

    @pytest.mark.parametrize("nu,z", [(1, 0.3), (3, 2.0), (2, -5 + 4j), (0.7, 1.5 - 2j), (4, 45.0),
                                      (1, -50.0)])
    def test_over_power_is_the_quotient(self, nu, z):
        # the exponential-polynomial form serves (4, 45) and (1, -50)
        assert rel(lower_incomplete_gamma_over_power(nu, z),
                   lower_incomplete_gamma(nu, z) / complex(z) ** nu) < 1e-14

    @pytest.mark.parametrize("z", [0.0, 1e-320, -1e-200, 1e-70j, 1e-20 - 1e-20j])
    def test_over_power_at_tiny_argument(self, z):
        # gamma(nu, z) / z^nu = 1/nu - z/(nu+1) + ..., where z^nu under- or
        # overflows and a quotient of subnormals loses every digit
        for nu in (1, 4, 2.5):
            assert rel(lower_incomplete_gamma_over_power(nu, z), 1.0 / nu) < 1e-15

    @pytest.mark.parametrize("nu,z", [(0.3, 300j), (0.5, -500.0), (0.5, 550 + 200j), (200.5, 500.0)])
    def test_cancellation_or_overflow_raises(self, nu, z):
        # mpmath: 2.98-0.009i, 1.77+6.3e215i, and a value the series misses by
        # 12%; the last overflows the z^nu prefactor
        with pytest.raises(DomainError, match="8 digits"):
            lower_incomplete_gamma(nu, z)


class TestIncompleteBeta:
    def test_zero(self):
        assert incomplete_beta(1.5, 0.5, 0) == 0

    def test_elementary_oracle(self):
        # B(1, 1/2, t) = 2 (1 - sqrt(1-t))
        for t in (0.2, 0.55, 0.9):
            assert rel(incomplete_beta(1, 0.5, t), 2 * (1 - math.sqrt(1 - t))) < 1e-12

    def test_complete_value(self):
        # B(2, 3, 1) = Gamma(2) Gamma(3) / Gamma(5) = 1/12
        assert rel(incomplete_beta(2, 3, 1), 1 / 12) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            incomplete_beta(-1.0, 0.5, 0.3)

    @pytest.mark.parametrize("nu,mu,t,message", [
        (1e-320, 1, 1e300, "is not finite"),  # 1/nu overflows; once inf+nanj
        (3000, 1, 3000, "overflows"),  # t^nu; once a bare OverflowError
    ])
    def test_out_of_range_is_domain_error(self, nu, mu, t, message):
        with pytest.raises(DomainError, match=message):
            incomplete_beta(nu, mu, t)


class TestLegendre:
    def test_degree_one(self):
        for x in (0.37, 1.8, 0.4 + 0.2j):
            assert rel(legendre_p(1, 0, x), x) < 1e-13

    def test_vanishing_at_one(self):
        for n in range(1, 5):
            assert legendre_p(-n, -n, 1.0) == 0

    def test_elementary_order_degree_relation(self):
        # P_n^(n-1)(t) = -(-2)^n (1/2)_n t (1-t^2)^((n-1)/2)
        t = 0.3
        for n in range(1, 5):
            expected = -((-2.0) ** n) * pochhammer(0.5, n) * t * (1 - t * t) ** ((n - 1) / 2)
            assert rel(legendre_p(n, n - 1, t), expected) < 1e-12

    @pytest.mark.parametrize("nu,mu,x", [(60.3, 0.5, 0.3), (30, 0, 0.5)])
    def test_cancelled_series_is_refused(self, nu, mu, x):
        # once 1049204105922.19 (mpmath: -0.0082371) and 3.2e-5 off
        with pytest.raises(DomainError, match="cancellation"):
            legendre_p(nu, mu, x)

    def test_order_below_degree_near_zero_vs_mpmath(self):
        # the series in (1-x)/2 cancels at small x: P_1^0(1e-12) once read 9.99978e-13.
        # The reference is DLMF 14.6.1, P_n^m(x) = (-1)^m (1-x^2)^(m/2) P_n^(m)(x),
        # in mpmath (its legenp stalls at small x for these integer orders)
        mpmath = pytest.importorskip("mpmath")
        for k in range(0, 301, 20):
            for t in (0.37 * 10.0**-k, -0.83 * 10.0**-k):
                for n in range(1, 5):
                    with mpmath.workdps(30 + k):
                        x = mpmath.mpf(t)
                        ref = complex((-1) ** (n - 1) * (1 - x * x) ** (mpmath.mpf(n - 1) / 2)
                                      * mpmath.diff(lambda y: mpmath.legendre(n, y), x, n - 1))
                    assert abs(legendre_p(n, n - 1, t) - ref) <= 1e-14 * abs(ref), (n, t)

    def test_branch_point(self):
        with pytest.raises(DomainError):
            legendre_p(0.3, 0.5, 1.0)

    def test_overflowing_prefactor_is_domain_error(self):
        # 5^1500; once a bare OverflowError
        with pytest.raises(DomainError, match="overflows"):
            legendre_p(700j, 3000, 1.5)

    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(deadline=None, max_examples=40)
    def test_degree_reflection_symmetry(self, nu, x):
        # P_(-nu-1)^mu = P_nu^mu
        a = legendre_p(nu, 0.25, x)
        b = legendre_p(-nu - 1.0, 0.25, x)
        assert abs(a - b) <= 1e-11 * max(1.0, abs(a))

    def test_degree_reflection_grid(self):
        for k in range(10):
            x = -0.9 + 0.2 * k
            a = legendre_p(0.7, -0.4, x)
            b = legendre_p(-1.7, -0.4, x)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_polynomial_recurrence(self):
        assert legendre_polynomial(0, 0.3) == 1
        assert legendre_polynomial(1, 0.3) == 0.3
        assert rel(legendre_polynomial(3, 0.5), -0.4375) < 1e-14

    def test_polynomial_overflow_is_domain_error(self):
        # P_2000(3) ~ 1e1530: the recurrence used to reach inf - inf and return nan
        with pytest.raises(DomainError, match="overflows"):
            legendre_polynomial(2000, 3)

    def test_polynomial_degree_bound(self):
        # the bound itself still runs; |P_n(cos a)| < sqrt(2 / (pi n sin a)) (Bernstein)
        assert abs(legendre_polynomial(10**6, 0.5)) < 1e-3
        with pytest.raises(DomainError, match="n <= 10\\^6"):
            legendre_polynomial(10**12, 0.5)


class TestParabolicCylinder:
    @pytest.mark.parametrize("nu,z,message", [
        (0, 1e300, "is not finite"),  # z^2 overflows; once nan+nanj
        (3000, 1, "overflows"),  # 2^1500; once a bare OverflowError
        (1.5, 1e300, "overflows"),  # z^nu; once a bare OverflowError
    ])
    def test_out_of_range_is_domain_error(self, nu, z, message):
        with pytest.raises(DomainError, match=message):
            parabolic_cylinder_d(nu, z)

    def test_order_zero(self):
        for z in (0.4, -3.0, 11.0, 1.0 + 2.0j):
            assert rel(parabolic_cylinder_d(0, z), cmath.exp(-z * z / 4)) < 1e-12

    def test_value_at_origin(self):
        for nu in (1 / 3, -0.7, 2.4):
            expected = 2 ** (nu / 2) * SQRT_PI * rgamma((1 - nu) / 2)
            assert rel(parabolic_cylinder_d(nu, 0), expected) < 1e-12

    def test_kummer_bridge(self):
        # 1F1(a; 3/2; z) against the cylinder-function pair with a = 1/3
        a = 1 / 3
        for z in (0.2, 0.7, 1.5):
            w = math.sqrt(2 * z)
            combo = (
                2 ** (a - 2.5)
                / math.sqrt(math.pi * z)
                * gamma(a - 0.5)
                * math.exp(z / 2)
                * (parabolic_cylinder_d(1 - 2 * a, -w) - parabolic_cylinder_d(1 - 2 * a, w))
            )
            assert rel(combo, hyp1f1(a, 1.5, z)) < 1e-8

    def test_asymptotic_crossover_consistency(self):
        # recurrence D_(nu+1)(z) = z D_nu(z) - nu D_(nu-1)(z) holds across
        # the Kummer/asymptotic switch on the positive axis
        for z in (5.0, 5.7, 6.2, 7.5, 12.0):
            for nu in (-0.4, 1 / 3, 1.1):
                lhs = parabolic_cylinder_d(nu + 1, z)
                rhs = z * parabolic_cylinder_d(nu, z) - nu * parabolic_cylinder_d(nu - 1, z)
                assert abs(lhs - rhs) <= 2e-8 * max(abs(lhs), 1e-300)

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            parabolic_cylinder_d(0.5, -40.0)

    @staticmethod
    def _kummer_inline(nu, z):
        # the Kummer combination with its weights formed at every call
        nu, z = complex(nu), complex(z)
        x = z * z / 2.0
        m1 = hyp1f1(-nu / 2.0, 0.5, x)
        m2 = hyp1f1((1.0 - nu) / 2.0, 1.5, x)
        return (
            specfun._pow(2.0, nu / 2.0)
            * cmath.exp(-x / 2.0)
            * (SQRT_PI * rgamma((1.0 - nu) / 2.0) * m1
               - math.sqrt(2.0 * math.pi) * z * rgamma(-nu / 2.0) * m2)
        )

    def test_kept_weights_are_bit_identical(self):
        orders = (1 / 3, -0.4, 1.1, 2.5, -3.0, 0.0, -0.0, 1.0, 0.3 + 0.2j, 0.5, complex(0.5, -0.0))
        args = (-31.6, -7.3, -1.2, -0.0, 0.0, 0.4, 2.0, 5.8, 1.0 + 2.0j, -3.0 - 0.5j)
        # orders repeat, in turn and after other orders, so both a kept and a
        # freshly made entry are compared
        for nu in orders + orders[::-1]:
            for z in args:
                assert repr(parabolic_cylinder_d(nu, z)) == repr(self._kummer_inline(nu, z)), (nu, z)
                assert parabolic_cylinder_d(nu, z) == parabolic_cylinder_d(nu, z)

    def test_weights_of_one_order_are_kept(self, monkeypatch):
        calls = []

        def counted(z, _rgamma=rgamma):
            calls.append(z)
            return _rgamma(z)

        monkeypatch.setattr(specfun, "rgamma", counted)
        monkeypatch.setattr(specfun, "_PCD_WEIGHTS", [None, None])
        for z in (-20.0, -1.5, 0.3, 4.0):
            parabolic_cylinder_d(1 / 3, z)
        assert len(calls) == 2
        for nu in (math.nan, complex(math.nan, 0.0), math.inf):
            with pytest.raises(TrihypError):
                parabolic_cylinder_d(nu, 1.0)
        # a non-finite order raises without replacing the kept entry
        assert specfun._PCD_WEIGHTS[0] == 1 / 3 and len(calls) == 2

    def test_order_one_third_vs_mpmath(self):
        # J3's order over its whole argument range -sqrt(2 x T) <= z <= 0 and
        # beyond, through the Kummer/asymptotic crossover at 5.85
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(30):
            nu = mpmath.mpf(1) / 3
            for k in range(1033):  # z = -31.6 to 20 in steps of 0.05
                z = round(-31.6 + 0.05 * k, 2)
                ref = complex(mpmath.pcfd(nu, z))
                worst = max(worst, abs(parabolic_cylinder_d(1 / 3, z) - ref) / abs(ref))
        assert worst <= 1e-9


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


class TestBellPolynomial:
    def test_single_block(self):
        xs = [2.0, 3.0, 5.0, 7.0]
        for n in range(1, 5):
            assert bell_polynomial(n, 1, xs) == xs[n - 1]

    def test_all_singletons(self):
        for n in range(1, 6):
            assert bell_polynomial(n, n, [1.5]) == 1.5**n

    def test_three_two(self):
        assert bell_polynomial(3, 2, [2.0, 5.0]) == 3 * 2.0 * 5.0

    def test_bell_numbers_vs_partition_enumeration(self):
        ones = [1.0] * 8
        for n in range(1, 9):
            total = sum(bell_polynomial(n, k, ones) for k in range(1, n + 1))
            count = sum(1 for _ in _set_partitions(list(range(n))))
            assert total.real == pytest.approx(count, rel=1e-12)

    def test_partition_block_counts(self):
        # B_{n,k}(1,...) counts partitions into exactly k blocks
        for n in range(1, 8):
            for k in range(1, n + 1):
                count = sum(
                    1 for p in _set_partitions(list(range(n))) if len(p) == k
                )
                assert bell_polynomial(n, k, [1.0] * (n - k + 1)).real == pytest.approx(count)

    def test_deep_table(self):
        # 3000 rows; the recursive table once hit the recursion limit
        assert bell_polynomial(3000, 3000, [-1.0]) == 1
        with pytest.raises(DomainError, match="double range"):
            bell_polynomial(3000, 3000, [3000.0])
        with pytest.raises(DomainError, match="10\\^5 products"):
            bell_polynomial(10**300, 10**300, [1.0])

    def test_domain(self):
        with pytest.raises(DomainError):
            bell_polynomial(2, 3, [1.0])
        with pytest.raises(DomainError):
            bell_polynomial(3, 0, [1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            bell_polynomial(4, 2, [1.0, 1.0])  # needs n-k+1 = 3 entries
