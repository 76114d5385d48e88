import math
from random import Random

import pytest

from trihyp.errors import BudgetError, DomainError
from trihyp.identities import (
    check_integral_j1,
    check_integral_j2,
    check_integral_j3,
    laplace_hyp_check,
)
from trihyp.quad import (
    IntegralSpec,
    integrate_semi_infinite,
    j3_closed_form,
    laplace_random_draw,
)
from trihyp.specfun import gamma

SQRT_PI = math.sqrt(math.pi)


def _spec(f, sigma=0.0, decay=1.0):
    return IntegralSpec("custom", {}, singular_exponent=sigma, decay_rate=decay, integrand=f)


class TestIntegrator:
    def test_exponential(self):
        res = integrate_semi_infinite(_spec(lambda t: math.exp(-t)), 1e-10)
        assert abs(res.value - 1.0) < 1e-10
        assert res.est_error < 1e-9

    def test_inverse_sqrt_weight(self):
        res = integrate_semi_infinite(
            _spec(lambda t: math.exp(-t) * t**-0.5, sigma=-0.5), 1e-10
        )
        assert abs(res.value - SQRT_PI) < 1e-10

    def test_difference_of_gammas(self):
        # term-by-term oracle: sqrt(pi/2) - sqrt(pi/3)
        res = integrate_semi_infinite(
            _spec(lambda t: math.exp(-2 * t) * t**-0.5 * (1 - math.exp(-t)),
                  sigma=-0.5, decay=2.0),
            1e-10,
        )
        expected = SQRT_PI * (1 / math.sqrt(2) - 1 / math.sqrt(3))
        assert abs(res.value - expected) < 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.5])
    def test_gamma_reproduction(self, alpha):
        res = integrate_semi_infinite(
            _spec(lambda t, a=alpha: math.exp(-t) * t ** (a - 1),
                  sigma=min(alpha - 1, 0.0)),
            1e-10,
        )
        assert abs(res.value - gamma(alpha)) / abs(gamma(alpha)) < 1e-10

    def test_substitution_layer_exactness(self):
        spec = _spec(lambda t: math.exp(-t) * t**-0.5, sigma=-0.5)
        with_sub = integrate_semi_infinite(spec, 1e-10, use_substitution=True)
        without = integrate_semi_infinite(spec, 1e-10, use_substitution=False)
        assert abs(with_sub.value - without.value) < 1e-10

    def test_budget_error_carries_best(self):
        with pytest.raises(BudgetError) as err:
            integrate_semi_infinite(_spec(lambda t: math.exp(-t)), 1e-12, max_evals=40)
        best = err.value.best
        assert best is not None and best.evaluations <= 41

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            IntegralSpec("custom", {}, singular_exponent=-1.2, integrand=lambda t: t)
        with pytest.raises(DomainError):
            IntegralSpec("custom", {}, decay_rate=-1.0, integrand=lambda t: t)
        with pytest.raises(DomainError):
            IntegralSpec("custom", {})


class TestLaplaceLemma:
    def test_degenerate_exponential(self):
        # p = q = 0: integral of e^(-st) t^(alpha-1) e^(xt) = Gamma(alpha)/(s-x)^alpha
        rec = laplace_hyp_check([], [], 2.0, 3.0, 1.0, 1e-8)
        assert rec.verdict == "pass"
        assert abs(rec.rhs_value - 0.25) < 1e-12

    def test_kummer_case(self):
        rec = laplace_hyp_check([1.0], [2.0], 1.0, 2.0, 1.0, 1e-8)
        assert rec.verdict == "pass"

    def test_plain_gamma_case(self):
        rec = laplace_hyp_check([], [], 0.5, 1.0, 0.0, 1e-8)
        assert rec.verdict == "pass"
        assert abs(rec.lhs_value - SQRT_PI) < 1e-8

    def test_preconditions(self):
        with pytest.raises(DomainError):
            laplace_hyp_check([1.0, 2.0], [1.5], 1.0, 2.0, 0.5, 1e-7)  # p > q
        with pytest.raises(DomainError):
            laplace_hyp_check([], [], -0.5, 2.0, 0.5, 1e-7)
        with pytest.raises(DomainError):
            laplace_hyp_check([], [1.0], 1.0, 1.0, 2.0, 1e-7)  # |x/s| >= 1

    def test_random_draws(self):
        rng = Random(99)
        for _ in range(25):
            d = laplace_random_draw(rng)
            rec = laplace_hyp_check(d["a"], d["b"], d["alpha"], d["s"], d["x"], 1e-7)
            assert rec.verdict == "pass", d


class TestJ1:
    def test_known_value(self):
        rec = check_integral_j1(0, 2.0, 1.0, 1e-6)
        expected = 2 * SQRT_PI * (math.sqrt(3) - math.sqrt(2))
        assert rec.verdict == "pass"
        assert abs(rec.rhs_value - expected) < 1e-13
        assert abs(rec.lhs_value - expected) < 1e-9

    def test_vanishing_x(self):
        rec = check_integral_j1(0, 2.0, 1e-10, 1e-6)
        assert abs(rec.lhs_value) < 1e-8 and abs(rec.rhs_value) < 1e-8

    def test_higher_order(self):
        rec = check_integral_j1(2, 3.0, 1.0, 1e-6)
        assert rec.verdict == "pass"

    def test_preconditions(self):
        with pytest.raises(DomainError):
            check_integral_j1(-1, 2.0, 1.0, 1e-6)
        with pytest.raises(DomainError):
            check_integral_j1(0, 1.0, -1.5, 1e-6)  # Re(s+x) <= 0


class TestJ2:
    def test_algebraic_branch(self):
        rec = check_integral_j2(1, 0.0, 1.0, 1e-6)
        assert rec.verdict == "pass"
        assert abs(rec.rhs_value - 2 * SQRT_PI) < 1e-13

    def test_exponential_branch(self):
        # oracle: integral of t^(-3/2)(e^-t - e^-2t) = Gamma(-1/2)(1 - sqrt 2)
        rec = check_integral_j2(1, 1.0, 1.0, 1e-6)
        expected = -2 * SQRT_PI * (1 - math.sqrt(2))
        assert rec.verdict == "pass"
        assert abs(rec.rhs_value - expected) < 1e-12

    def test_higher_order(self):
        rec = check_integral_j2(2, 2.0, 0.5, 1e-6)
        assert rec.verdict == "pass"

    def test_preconditions(self):
        with pytest.raises(DomainError):
            check_integral_j2(0, 1.0, 1.0, 1e-6)
        with pytest.raises(DomainError):
            check_integral_j2(1, 0.0, -1.0, 1e-6)


class TestJ3:
    @pytest.mark.parametrize("p,x", [(1.0, 1.0), (2.0, 0.5)])
    def test_admissible_points(self, p, x):
        rec = check_integral_j3(p, x, 1e-5)
        assert rec.verdict == "pass"

    def test_hypothesis_violation(self):
        with pytest.raises(DomainError):
            check_integral_j3(0.4, 1.0, 1e-5)
        with pytest.raises(DomainError):
            check_integral_j3(1.0, -0.5, 1e-5)

    def test_small_x_limit(self):
        # as x -> 0+ both sides approach
        # 2^(1/6) sqrt(pi) Gamma(1/6) / Gamma(1/3) * p^(-1/6)
        limit = (2 ** (1 / 6) * SQRT_PI * gamma(1 / 6) / gamma(1 / 3)).real
        rec = check_integral_j3(1.0, 1e-8, 1e-5)
        assert rec.verdict == "pass"
        assert abs(rec.lhs_value - limit) < 1e-3
        assert abs(j3_closed_form(1.0, 0.0) - limit) < 1e-12


class TestAdmissibleGrids:
    # 5x5 (decay, x) sweeps; every point must pass at the example tolerances
    def test_j1_grid(self):
        for s in (0.6, 1.0, 1.7, 2.5, 4.0):
            for x in (0.2, 0.7, 1.3, 2.1, 3.0):
                assert check_integral_j1(1, s, x, 1e-6).verdict == "pass"

    def test_j2_grid(self):
        for p in (0.5, 1.0, 1.6, 2.4, 3.5):
            for x in (0.2, 0.6, 1.1, 1.8, 2.6):
                assert check_integral_j2(2, p, x, 1e-6).verdict == "pass"

    def test_j3_grid(self):
        for p in (0.8, 1.2, 1.8, 2.5, 3.5):
            for x in (0.1, 0.4, 0.8, 1.2, 1.5):
                if (2 * p - x) <= 0.2:
                    continue
                assert check_integral_j3(p, x, 1e-5).verdict == "pass"
