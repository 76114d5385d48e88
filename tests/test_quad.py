import math
from random import Random

import pytest

from trihyp.errors import BudgetError, DomainError
from trihyp.identities import check_point, get_identity
from trihyp.quad import (
    integrate_semi_infinite,
    j1_closed_form,
    j2_closed_form,
    j3_closed_form,
    laplace_random_draw,
)
from trihyp.specfun import gamma

SQRT_PI = math.sqrt(math.pi)


class TestIntegrator:
    def test_exponential(self):
        res = integrate_semi_infinite(lambda t: math.exp(-t), 1e-10)
        assert abs(res.value - 1.0) < 1e-10
        assert res.est_error < 1e-9

    def test_inverse_sqrt_weight(self):
        res = integrate_semi_infinite(lambda t: math.exp(-t) * t**-0.5, 1e-10, -0.5)
        assert abs(res.value - SQRT_PI) < 1e-10

    def test_difference_of_gammas(self):
        # term-by-term oracle: sqrt(pi/2) - sqrt(pi/3)
        res = integrate_semi_infinite(
            lambda t: math.exp(-2 * t) * t**-0.5 * (1 - math.exp(-t)), 1e-10, -0.5, 2.0
        )
        expected = SQRT_PI * (1 / math.sqrt(2) - 1 / math.sqrt(3))
        assert abs(res.value - expected) < 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.5])
    def test_gamma_reproduction(self, alpha):
        res = integrate_semi_infinite(
            lambda t, a=alpha: math.exp(-t) * t ** (a - 1), 1e-10, min(alpha - 1, 0.0)
        )
        assert abs(res.value - gamma(alpha)) / abs(gamma(alpha)) < 1e-10

    @pytest.mark.parametrize(
        "f,sigma,decay,exact",
        [
            (lambda t: math.exp(-t) * t**-0.5, -0.5, 1.0, SQRT_PI),  # tanh-sinh, t = u^2
            (lambda t: 1.0 / (1.0 + t) ** 2, 0.0, 0.0, 1.0),  # exp-sinh
        ],
        ids=["tanh-sinh", "exp-sinh"],
    )
    def test_nested_levels_evaluate_each_node_once(self, f, sigma, decay, exact):
        seen = []

        def recorded(t):
            seen.append(t)
            return f(t)

        res = integrate_semi_infinite(recorded, 1e-10, sigma, decay)
        assert abs(res.value - exact) < 1e-10
        assert len(seen) == len(set(seen)) == res.evaluations

    def test_unconverged_at_finest_level_carries_best(self):
        calls = []

        def f(t):
            calls.append(t)
            return math.exp(-t)

        # no estimate can meet 1e-300: the seventh level (h = 0.5/64) gives up
        with pytest.raises(BudgetError, match="did not converge in 7 levels") as err:
            integrate_semi_infinite(f, 1e-300)
        best = err.value.best
        # 1665 nodes at most, plus at most 26 truncation-point calls
        assert best is not None and best.evaluations == len(calls) <= 1691

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda t: t, 1e-6, singular_exponent=-1.2)
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda t: t, 1e-6, decay_rate=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # nan spent all 7 levels and raised BudgetError; inf tol checked nothing
            {"tol": math.nan},
            {"tol": math.inf},
            {"decay_rate": math.nan},
            {"decay_rate": math.inf},
            {"singular_exponent": math.nan},
            {"singular_exponent": math.inf},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_non_finite_arguments_raise_up_front(self, kwargs):
        calls = []

        def f(t):
            calls.append(t)
            return math.exp(-t)

        with pytest.raises(DomainError, match="finite"):
            integrate_semi_infinite(f, **{"tol": 1e-8, **kwargs})
        assert calls == []


class TestLaplaceLemma:
    def test_degenerate_exponential(self):
        # p = q = 0: integral of e^(-st) t^(alpha-1) e^(xt) = Gamma(alpha)/(s-x)^alpha
        rec = check_point("J0", {"a": [], "b": [], "alpha": 2.0, "s": 3.0, "x": 1.0}, 1e-8)
        assert rec.verdict == "pass"
        assert abs(rec.rhs_value - 0.25) < 1e-12

    def test_kummer_case(self):
        rec = check_point("J0", {"a": [1.0], "b": [2.0], "alpha": 1.0, "s": 2.0, "x": 1.0}, 1e-8)
        assert rec.verdict == "pass"

    def test_plain_gamma_case(self):
        rec = check_point("J0", {"a": [], "b": [], "alpha": 0.5, "s": 1.0, "x": 0.0}, 1e-8)
        assert rec.verdict == "pass"
        assert abs(rec.lhs_value - SQRT_PI) < 1e-8

    def test_preconditions(self):
        with pytest.raises(DomainError):
            check_point(  # p > q
                "J0", {"a": [1.0, 2.0], "b": [1.5], "alpha": 1.0, "s": 2.0, "x": 0.5}, 1e-7
            )
        with pytest.raises(DomainError):
            check_point("J0", {"a": [], "b": [], "alpha": -0.5, "s": 2.0, "x": 0.5}, 1e-7)
        with pytest.raises(DomainError):
            check_point(  # |x/s| >= 1
                "J0", {"a": [], "b": [1.0], "alpha": 1.0, "s": 1.0, "x": 2.0}, 1e-7
            )

    def test_random_draws(self):
        rng = Random(99)
        for _ in range(25):
            d = laplace_random_draw(rng)
            rec = check_point("J0", d, 1e-7)
            assert rec.verdict == "pass", d


class TestJ1:
    def test_known_value(self):
        rec = check_point("J1", {"n": 0, "s": 2.0, "x": 1.0}, 1e-6)
        expected = 2 * SQRT_PI * (math.sqrt(3) - math.sqrt(2))
        assert rec.verdict == "pass"
        assert abs(rec.rhs_value - expected) < 1e-13
        assert abs(rec.lhs_value - expected) < 1e-9

    def test_vanishing_x(self):
        rec = check_point("J1", {"n": 0, "s": 2.0, "x": 1e-10}, 1e-6)
        assert abs(rec.lhs_value) < 1e-8 and abs(rec.rhs_value) < 1e-8

    def test_higher_order(self):
        rec = check_point("J1", {"n": 2, "s": 3.0, "x": 1.0}, 1e-6)
        assert rec.verdict == "pass"

    @pytest.mark.parametrize("n,s,x", [(0, 2.0, -1.0), (0, 2.0, 0.1 + 1j), (3, 2.0, -0.8 + 1j)])
    def test_negative_and_complex_x(self, n, s, x):
        # far nodes put x t where the incomplete gamma series cancels
        assert check_point("J1", {"n": n, "s": s, "x": x}, 1e-6).verdict == "pass"

    def test_preconditions(self):
        with pytest.raises(DomainError):
            check_point("J1", {"n": -1, "s": 2.0, "x": 1.0}, 1e-6)
        with pytest.raises(DomainError):
            check_point("J1", {"n": 0, "s": 1.0, "x": -1.5}, 1e-6)  # Re(s+x) <= 0


class TestJ2:
    def test_algebraic_branch(self):
        rec = check_point("J2", {"n": 1, "p": 0.0, "x": 1.0}, 1e-6)
        assert rec.verdict == "pass"
        assert abs(rec.rhs_value - 2 * SQRT_PI) < 1e-13

    def test_exponential_branch(self):
        # oracle: integral of t^(-3/2)(e^-t - e^-2t) = Gamma(-1/2)(1 - sqrt 2)
        rec = check_point("J2", {"n": 1, "p": 1.0, "x": 1.0}, 1e-6)
        expected = -2 * SQRT_PI * (1 - math.sqrt(2))
        assert rec.verdict == "pass"
        assert abs(rec.rhs_value - expected) < 1e-12

    def test_higher_order(self):
        rec = check_point("J2", {"n": 2, "p": 2.0, "x": 0.5}, 1e-6)
        assert rec.verdict == "pass"

    @pytest.mark.parametrize("n,p,x", [(1, 2.0, -1.0), (2, 1.0, 0.1 + 3j), (3, 2.0, -1.0 + 1j)])
    def test_negative_and_complex_x(self, n, p, x):
        assert check_point("J2", {"n": n, "p": p, "x": x}, 1e-6).verdict == "pass"

    @pytest.mark.parametrize("n", [4, 6])
    def test_deep_nodes_of_high_order(self, n):
        # t^(-1/2-n) overflows at the tanh-sinh nodes nearest t = 0
        assert check_point("J2", {"n": n, "p": 0.5, "x": 0.4}, 1e-6).verdict == "pass"

    @pytest.mark.parametrize("n,p,x", [(2, 1.0, 1e200), (6, 0.0, 1e200), (6, 1e100, 1e-300)])
    def test_overflowing_power_is_a_domain_error(self, n, p, x):
        # (-x/p)^n, x^(n-1/2) and (-p)^(n-1) once raised a bare OverflowError
        with pytest.raises(DomainError, match="overflows"):
            j2_closed_form(n, p, x)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            check_point("J2", {"n": 0, "p": 1.0, "x": 1.0}, 1e-6)
        with pytest.raises(DomainError):
            check_point("J2", {"n": 1, "p": 0.0, "x": -1.0}, 1e-6)


class TestBracketClosedForms:
    """The J1/J2 brackets shrink like x^(n+1) (J1) or x^n (J2) at small x;
    the printed forms lost every digit there."""

    @pytest.mark.parametrize("n,s,x", [(3, 1.0, 1e-2), (3, 1.0, 1e-4), (3, 1.0, 1e-6)])
    def test_j1_vs_mpmath(self, n, s, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = mpmath.quad(
                lambda t: mpmath.exp(-s * t) * t ** mpmath.mpf(-1.5)
                * mpmath.gammainc(n + 1, 0, x * t),
                [0, 1, mpmath.inf],
            )
        ref = complex(ref)
        assert abs(j1_closed_form(n, s, x) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("n,p,x", [(3, 1.0, 1e-5), (2, 1.0, 1e-3)])
    def test_j2_vs_mpmath(self, n, p, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = mpmath.quad(
                lambda t: mpmath.exp(-p * t) * t ** (-n - mpmath.mpf(0.5))
                * mpmath.gammainc(n, 0, x * t),
                [0, 1, mpmath.inf],
            )
        ref = complex(ref)
        assert abs(j2_closed_form(n, p, x) - ref) <= 1e-12 * abs(ref)


class TestClosedFormEntry:
    """Called directly, outside their hypotheses, the closed forms refuse
    with DomainError instead of a bare exception or nan."""

    @pytest.mark.parametrize("fn,args", [
        # a ValueError from factorial(-339), and nan+nanj
        (j1_closed_form, (-339, 8e141 - 5.2e141j, 9.6e188 + 1.4e189j)),
        (j1_closed_form, (149, -1.1e192 - 3.5e191j, 1.4e-298 + 4.9e-299j)),
        (j1_closed_form, (2.0, 1.0, 0.5)),  # n not an int
        (j1_closed_form, (171, 1.0, 0.5)),  # 171! is not a double
        (j1_closed_form, (0, math.inf, 0.5)),
        (j1_closed_form, (0, 1.0, -1.0)),  # x = -s
        (j2_closed_form, (0, 1.0, 1.0)),  # n >= 1
        (j2_closed_form, (2, 1.0, complex(math.nan, 0.0))),
        (j2_closed_form, (400, 1.0, 0.5)),
    ])
    def test_refused(self, fn, args):
        with pytest.raises(DomainError):
            fn(*args)


class TestJ3:
    @pytest.mark.parametrize("p,x", [(1.0, 1.0), (2.0, 0.5)])
    def test_admissible_points(self, p, x):
        rec = check_point("J3", {"p": p, "x": x}, 1e-5)
        assert rec.verdict == "pass"

    def test_hypothesis_violation(self):
        with pytest.raises(DomainError):
            check_point("J3", {"p": 0.4, "x": 1.0}, 1e-5)
        with pytest.raises(DomainError):
            check_point("J3", {"p": 1.0, "x": -0.5}, 1e-5)

    def test_small_x_limit(self):
        # as x -> 0+ both sides approach
        # 2^(1/6) sqrt(pi) Gamma(1/6) / Gamma(1/3) * p^(-1/6)
        limit = (2 ** (1 / 6) * SQRT_PI * gamma(1 / 6) / gamma(1 / 3)).real
        rec = check_point("J3", {"p": 1.0, "x": 1e-8}, 1e-5)
        assert rec.verdict == "pass"
        assert abs(rec.lhs_value - limit) < 1e-3
        assert abs(j3_closed_form(1.0, 0.0) - limit) < 1e-12


_FAST_DECAY_POINTS = [
    ("J0", {"a": (), "b": (1.5,), "alpha": 1.2, "s": 60, "x": 10}),
    ("J0", {"a": (0.7,), "b": (1.3,), "alpha": 0.8, "s": 100, "x": -30}),
    ("J0", {"a": (0.5, 1.1), "b": (1.7, 2.2), "alpha": 2, "s": 200, "x": 50}),
    ("J1", {"n": 1, "s": 50, "x": 1}),
    ("J1", {"n": 2, "s": 100, "x": 50}),
    ("J1", {"n": 0, "s": 1e3, "x": 10}),
    ("J1", {"n": 2, "s": 1e6, "x": 1}),
    ("J2", {"n": 1, "p": 50, "x": 1}),
    ("J2", {"n": 1, "p": 100, "x": 1}),
    ("J2", {"n": 2, "p": 1e3, "x": 5}),
    ("J2", {"n": 1, "p": 1e8, "x": 1}),
    ("J3", {"p": 10, "x": 16}),
    ("J3", {"p": 20, "x": 20}),
    ("J3", {"p": 100, "x": 150}),
    ("J3", {"p": 1000, "x": 1600}),
]


class TestFastDecayWindow:
    # the window starts at T = 50/decay; a fixed floor of T = 40 once spread
    # the nodes over hundreds of decay lengths, and each of these points was a
    # false "fail" (J0-J2) or outside J3's range (then also x <= 12.5)
    @pytest.mark.parametrize("cid,params", _FAST_DECAY_POINTS,
                             ids=[f"{c}-{i}" for i, (c, _) in enumerate(_FAST_DECAY_POINTS)])
    def test_in_domain_point_passes(self, cid, params):
        rec = check_point(cid, params, get_identity(cid).tolerance)
        assert rec.verdict == "pass", rec

    def test_j3_range_ends_at_five_thirds_of_p(self):
        # x * 50/decay <= 500 with decay = p - x/2; the floor capped x at 12.5
        assert check_point("J3", {"p": 30.0, "x": 50.0}, 1e-5).verdict == "pass"
        with pytest.raises(DomainError):
            check_point("J3", {"p": 30.0, "x": 50.001}, 1e-5)


class TestAdmissibleGrids:
    # 5x5 (decay, x) sweeps; every point must pass at the example tolerances
    def test_j1_grid(self):
        for s in (0.6, 1.0, 1.7, 2.5, 4.0):
            for x in (0.2, 0.7, 1.3, 2.1, 3.0):
                assert check_point("J1", {"n": 1, "s": s, "x": x}, 1e-6).verdict == "pass"

    def test_j2_grid(self):
        for p in (0.5, 1.0, 1.6, 2.4, 3.5):
            for x in (0.2, 0.6, 1.1, 1.8, 2.6):
                assert check_point("J2", {"n": 2, "p": p, "x": x}, 1e-6).verdict == "pass"

    def test_j3_grid(self):
        for p in (0.8, 1.2, 1.8, 2.5, 3.5):
            for x in (0.1, 0.4, 0.8, 1.2, 1.5):
                if (2 * p - x) <= 0.2:
                    continue
                assert check_point("J3", {"p": p, "x": x}, 1e-5).verdict == "pass"
