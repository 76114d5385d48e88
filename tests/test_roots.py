import cmath
import math
import re
from random import Random

import pytest

from trihyp.errors import DomainError
from trihyp.roots import (
    TrinomialInstance,
    _depressed_cubic_roots,
    descartes_factorization,
    g_function,
    lagrange_coefficient,
    quadratic_roots,
    quartic_roots,
    residual,
    root_hypergeometric,
    root_lagrange_partial,
    series_argument,
    trinomial_closed_roots,
)

DISC_RADII = {2: 0.24, 3: 0.37, 4: 0.09}


def _complex_disc(rng, radius):
    r = radius * math.sqrt(rng.random())
    return r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def _cubic(m, nn):
    """Sorted roots of x^3 - 3 m x + 2 nn = 0 and their residuals."""
    roots = sorted(_depressed_cubic_roots(m, nn), key=lambda z: (z.real, z.imag))
    return roots, [abs(x**3 - 3 * m * x + 2 * nn) for x in roots]


class TestResidual:
    def test_degree_below_two(self):
        with pytest.raises(DomainError, match="n >= 2"):
            TrinomialInstance(1, 0.1)

    def test_trivials(self):
        assert residual(TrinomialInstance(2, 0.0), 0.0) == 0.0
        assert residual(TrinomialInstance(3, 0.0), 2.0) == 6.0

    def test_exact_root(self):
        assert residual(TrinomialInstance(2, 0.21), 0.3) < 1e-15


class TestQuadratic:
    def test_zero(self):
        assert quadratic_roots(0.0).roots == (0.0, 1.0)

    def test_double_root(self):
        rs = quadratic_roots(0.25)
        assert rs.roots == (0.5, 0.5)

    def test_substitution_oracle(self):
        rs = quadratic_roots(0.21)
        assert abs(rs.roots[0] - 0.3) < 1e-15 and abs(rs.roots[1] - 0.7) < 1e-15
        assert max(rs.residuals) < 1e-15

    def test_roots_beyond_the_double_range(self):
        # 1 - 4t overflows: the roots were once (nan+infj, nan-infj)
        with pytest.raises(DomainError, match="are not finite"):
            quadratic_roots(8.0e307 + 4.2e307j)

    def test_branch_matches_series(self):
        # first entry is the t -> 0 branch
        for t in (0.1, -0.2, 0.05 + 0.1j):
            inst = TrinomialInstance(2, t)
            sv = root_hypergeometric(inst)
            assert abs(quadratic_roots(t).roots[0] - sv) < 1e-10


class TestCubic:
    def test_factorized(self):
        roots, residuals = _cubic(1 / 3, 0.0)
        assert max(residuals) < 1e-14
        expect = sorted((-1.0, 0.0, 1.0))
        for root, ref in zip(roots, expect):
            assert abs(root - ref) < 1e-14

    def test_trinomial_form_matches_piecewise_formula(self):
        # x^3 - x + t is x^3 - 3 m x + 2 nn with m = 1/3, nn = t/2; piecewise oracle
        # with w = sqrt(3 (3t/2)^2)
        t = 0.2
        z = 3 * (3 * t / 2) ** 2
        w = math.sqrt(z)
        x3 = (math.cos(math.acos(w) / 3) - math.sqrt(3) * math.sin(math.acos(w) / 3)) / math.sqrt(3)
        roots, _ = _cubic(1 / 3, t / 2)
        assert min(abs(r - x3) for r in roots) < 1e-14

    def test_case_boundary_continuity(self):
        # roots continuous across nn^2 = m^3 (cosh/cos boundary)
        m = 0.5
        nn0 = m**1.5
        eps = 1e-9
        lo, _ = _cubic(m, nn0 - eps)
        hi, _ = _cubic(m, nn0 + eps)
        at, _ = _cubic(m, nn0)
        for a, b, c in zip(lo, hi, at):
            assert abs(a - b) < 1e-4  # double root splits like sqrt(eps)
            assert abs(a - c) < 1e-4 and abs(b - c) < 1e-4

    def test_complex_nn_residuals(self):
        rng = Random(4)
        for _ in range(50):
            nn = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            m = rng.uniform(0.05, 3.0)
            _, residuals = _cubic(m, nn)
            assert max(residuals) <= 1e-9 * max(1.0, abs(nn))


class TestQuartic:
    def test_factorized(self):
        # x^4 - x = x (x-1)(x^2+x+1)
        rs = quartic_roots(0.0, -1.0, 0.0)
        refs = sorted(
            [0.0, 1.0, (-1 + 1j * math.sqrt(3)) / 2, (-1 - 1j * math.sqrt(3)) / 2],
            key=lambda z: (z.real, z.imag),
        )
        for root, ref in zip(rs.roots, refs):
            assert abs(root - ref) < 1e-12
        assert max(rs.residuals) < 1e-12

    def test_series_root_member(self):
        inst = TrinomialInstance(4, 0.05)
        sv = root_hypergeometric(inst)
        rs = quartic_roots(0.0, -1.0, 0.05)
        assert min(abs(r - sv) for r in rs.roots) < 1e-10

    def test_degenerate(self):
        with pytest.raises(DomainError):
            quartic_roots(-5.0, 0.0, 1.0)

    def test_general_quartic_residuals(self):
        rng = Random(9)
        for _ in range(60):
            p = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            q = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            r = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            if abs(q) < 1e-3:
                continue
            rs = quartic_roots(p, q, r)
            assert max(rs.residuals) <= 1e-8 * max(1.0, abs(r))

    def test_trinomial_factorization_relations(self):
        # for x^4 - x + t the factors obey gamma = (alpha^2 + 1/alpha)/2
        # (with the sign convention of alpha fixed accordingly) and
        # beta = t / gamma
        for t in (0.05, 0.02 + 0.03j, -0.06):
            f = descartes_factorization(0.0, -1.0, t)
            candidates = [
                (a * a + 1.0 / a) / 2.0 for a in (f.alpha, -f.alpha)
            ]
            assert min(abs(f.gamma - c) for c in candidates) < 1e-12
            assert abs(f.beta * f.gamma - t) < 1e-14
            assert abs(f.beta - t / f.gamma) < 1e-12


class TestClosedFormRange:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("t", [1e308, -1e308, 1e308j])
    def test_non_finite_roots_raise(self, n, t):
        # the formulas' intermediates overflow; the roots came back as nan
        with pytest.raises(DomainError, match="not finite"):
            trinomial_closed_roots(n, t)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_large_t_in_range(self, n):
        rs = trinomial_closed_roots(n, 1e200)
        assert all(res <= 1e-13 * 1e200 for res in rs.residuals)


class TestLagrange:
    def test_catalan_oracle(self):
        # (2k)! / (k! (k+1)!) are the Catalan numbers
        catalan = [
            math.factorial(2 * k) // (math.factorial(k) * math.factorial(k + 1))
            for k in range(11)
        ]
        assert [lagrange_coefficient(2, k) for k in range(11)] == catalan
        assert catalan[:5] == [1, 1, 2, 5, 14]

    def test_zero_t(self):
        assert root_lagrange_partial(TrinomialInstance(3, 0.0), 5) == 0.0

    def test_matches_series_route(self):
        inst = TrinomialInstance(3, 0.1)
        full = root_hypergeometric(inst)
        partial = root_lagrange_partial(inst, 30)
        assert abs(partial - full) < 1e-10

    def test_monotone_error_decay(self):
        inst = TrinomialInstance(2, 0.1)
        target = root_hypergeometric(inst)
        errors = [abs(root_lagrange_partial(inst, k) - target) for k in range(1, 13)]
        assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))


class TestSeriesRoute:
    def test_zero(self):
        assert root_hypergeometric(TrinomialInstance(2, 0.0)) == 0.0

    def test_quadratic_oracle(self):
        v = root_hypergeometric(TrinomialInstance(2, 0.1))
        assert abs(v - (1 - math.sqrt(0.6)) / 2) < 1e-12

    def test_cubic_oracle(self):
        inst = TrinomialInstance(3, 0.2)
        v = root_hypergeometric(inst)
        rs = trinomial_closed_roots(3, 0.2)
        assert min(abs(r - v) for r in rs.roots) < 1e-10
        assert residual(inst, v) < 1e-10

    def test_outside_disc(self):
        with pytest.raises(DomainError):
            root_hypergeometric(TrinomialInstance(2, 0.3))

    def test_series_closed_agreement_sample(self):
        rng = Random(12)
        for n, radius in DISC_RADII.items():
            for _ in range(25):
                t = _complex_disc(rng, radius)
                inst = TrinomialInstance(n, t)
                sv = root_hypergeometric(inst)
                rs = trinomial_closed_roots(n, t)
                assert min(abs(r - sv) for r in rs.roots) <= 1e-8
                assert max(rs.residuals) <= 1e-9 * max(1.0, abs(t))

    def test_disc_bound_values(self):
        for n, radius in DISC_RADII.items():
            assert abs(series_argument(n, radius)) < 0.999

    @pytest.mark.parametrize("n,t", [(5, 1e100), (3, 1e200), (2, 1e308)])
    def test_argument_beyond_the_double_range_names_t(self, n, t):
        # a bare OverflowError from the power once, and at (2, 1e308)
        # "pFq needs a finite argument, got (nan+nanj)"
        with pytest.raises(DomainError, match=re.escape(f"at t = ({t:g}+0j) leaves the double range")):
            root_hypergeometric(TrinomialInstance(n, t))

    def test_parameters_cancel_one_pair(self):
        # j/n = k/(n-1) only at j = n, k = n-1: the one pair cancelled
        # equals what a search over every pair cancels
        from trihyp.roots import _series_parameters

        for n in range(2, 40):
            upper = [j / n for j in range(1, n + 1)]
            lower = [j / (n - 1) for j in range(2, n + 1)]
            for v in list(lower):
                if v in upper:
                    upper.remove(v)
                    lower.remove(v)
            assert _series_parameters(n) == (upper, lower)

    def test_degree_is_bounded(self):
        # a degree of 10^5 once built its parameters in O(n^2), and one of
        # 10^300 ran out of memory
        for n in (10**5, 10**300):
            with pytest.raises(DomainError, match="above the series route's 10\\^4"):
                root_hypergeometric(TrinomialInstance(n, 1e-6))


class TestGFunction:
    def test_value_at_one(self):
        assert abs(g_function(1.0) - (-0.5)) < 1e-14

    def test_singular_at_zero(self):
        with pytest.raises(DomainError):
            g_function(0.0)

    def test_resolvent_in_t_on_principal_sector(self):
        # xi = 2^(2/3) g(z), z = 4 (4t/3)^3 solves xi^3 - 4 t xi - 1 = 0
        # whenever arg(t) stays in (-pi/3, pi/3]; outside that sector the
        # z parametrization loses the cube-root branch of t.
        pts = [0.05, 0.1, 0.3, 0.02 + 0.03j, 0.1 - 0.05j, 0.2 * cmath.exp(0.9j)]
        for t in pts:
            z = 4 * (4 * t / 3) ** 3
            xi = 2 ** (2 / 3) * g_function(z)
            assert abs(xi**3 - 4 * t * xi - 1) < 1e-10

    def test_resolvent_in_z_everywhere(self):
        # the z-form cubic 4 g^3 - 3 z^(1/3) g - 1 = 0 holds for every z,
        # including z = 4(4t/3)^3 built from t outside the sector above
        # (e.g. t = -0.1, where the t-form does not hold)
        rng = Random(31)
        pts = [4 * (4 * -0.1 / 3) ** 3, -0.5, 1j, -2.0 + 1.0j]
        pts += [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(40)]
        for z in pts:
            if z == 0:
                continue
            g = g_function(z)
            assert abs(4 * g**3 - 3 * z ** (1 / 3) * g - 1) < 1e-10


class TestClosedFormResidualGrid:
    def test_two_hundred_point_complex_grid(self):
        # every closed-form root keeps |x^n - x + t| <= 1e-9 max(1, |t|)
        rng = Random(2026)
        for n, radius in ((2, 3.0), (3, 3.0), (4, 3.0)):
            for _ in range(200):
                t = _complex_disc(rng, radius)
                rs = trinomial_closed_roots(n, t)
                assert max(rs.residuals) <= 1e-9 * max(1.0, abs(t))
