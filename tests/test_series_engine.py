"""The series engine behind hyp_pfq: its shared blocks of term ratios, its
float carrier for real operands and its exits where a sum leaves the
double range."""

import math
from functools import lru_cache
from random import Random

import pytest

from trihyp import specfun
from trihyp.errors import BudgetError, DomainError
from trihyp.specfun import (
    hyp1f1,
    hyp2f1,
    hyp_pfq,
    hyp_pfq_regularized,
    pochhammer,
    rgamma,
)

# (regularized, upper, lower, z)
CASES = [
    (False, (-0.3,), (0.5,), 7.5),
    (False, (-0.3,), (0.5,), 3.0 + 4.0j),
    (False, (1.3,), (2.1,), 45.0),
    (False, (0.5, 1.0), (2.0,), 0.6),
    (False, (0.5 + 0.2j, 1.0), (2.0 - 0.1j,), -0.4 + 0.3j),
    (False, (-3, 1.5), (2.5,), 4.0),
    (False, (0.5, 0.5, 0.5), (3.0, 3.0), 1.0),
    (False, (), (1.5,), -20.0),
    (False, (0.5,), (1.5,), -30.0),
    (True, (0.5, 1.0), (-3.0,), 0.4),
    (True, (1.5,), (-2.0,), 2.0 - 1.0j),
    (True, (1.5, -0.5), (0.7,), 0.3),
]


def evaluate(case):
    regularized, upper, lower, z = case
    return (hyp_pfq_regularized if regularized else hyp_pfq)(upper, lower, z)


def small_cache(monkeypatch, name, maxsize):
    """The engine's memo ``name`` replaced by one of ``maxsize`` entries."""
    cache = lru_cache(maxsize=maxsize)(getattr(specfun, name).__wrapped__)
    monkeypatch.setattr(specfun, name, cache)
    return cache


class TestRatioTable:
    def test_result_does_not_depend_on_the_table(self, monkeypatch):
        cold = []
        for case in CASES:
            specfun._series.cache_clear()
            specfun._ratios.cache_clear()
            cold.append(evaluate(case))
        # warm: every block kept by the other series and by this one
        assert [evaluate(case) for case in CASES[::-1]][::-1] == cold
        assert [evaluate(case) for case in CASES] == cold
        # evicted: caches this small drop a sum's first blocks while it runs
        assert max(res.terms_used for res in cold) > 2 * specfun._BLOCK
        small_cache(monkeypatch, "_series", 1)
        ratios = small_cache(monkeypatch, "_ratios", 2)
        for case, expected in zip(CASES, cold):
            assert evaluate(case) == expected
            assert ratios.cache_info().currsize <= 2

    def test_size_is_bounded(self, monkeypatch):
        ratios = small_cache(monkeypatch, "_ratios", 5)  # 500 ratios
        rng = Random(3)
        for _ in range(300):
            hyp1f1(rng.uniform(-2, 2), rng.uniform(0.5, 3), rng.uniform(-20, 20))
            assert ratios.cache_info().currsize * specfun._BLOCK <= 500
        # one sum longer than the bound is still summed in full
        res = hyp_pfq((0.5, 1.0), (2.0,), 0.999)
        assert res.converged and res.terms_used > 500
        assert ratios.cache_info().currsize * specfun._BLOCK <= 500
        # the engine's own memos are bounded as well
        for memo in (specfun._series, specfun._ratios):
            info = memo.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_one_sum_fits_the_bound(self):
        # the budget is 100 000 terms, whole blocks of them: one sum of it
        # is kept in full, so summing it again computes no ratio
        assert specfun._MAX_TERMS == 100_000 and specfun._MAX_TERMS % specfun._BLOCK == 0
        assert specfun._ratios.cache_info().maxsize * specfun._BLOCK >= 1 << 17
        specfun._ratios.cache_clear()
        for _ in range(2):
            with pytest.raises(BudgetError, match="in 100000 terms"):
                hyp_pfq((0.5, 1.0), (2.0,), 0.99999)
        info = specfun._ratios.cache_info()
        assert info.misses == info.hits == specfun._MAX_TERMS // specfun._BLOCK


def largest_term(upper, lower, z, terms, k0=0, t0=1.0):
    """The largest |t_k| of ``terms`` terms past t_k0 = ``t0``, each from the one before."""
    t, largest = t0, abs(t0)
    for k in range(k0, k0 + terms):
        t *= math.prod(a + k for a in upper) / math.prod(b + k for b in lower) * z / (k + 1)
        largest = max(largest, abs(t))
    return largest


class TestLargestTerm:
    def test_matches_the_terms(self):
        for case in CASES:
            regularized, upper, lower, z = case
            res = evaluate(case)
            # past every lower-parameter pole, where a regularized sum starts
            k0 = max((1 - int(b) for b in lower if specfun.is_nonpositive_integer(b)), default=0)
            t0 = math.prod(pochhammer(a, k0) for a in upper) * z**k0 / math.factorial(k0)
            if regularized:
                t0 *= math.prod(rgamma(b + k0) for b in lower)
            expected = largest_term(upper, lower, z, res.terms_used, k0, t0)
            assert abs(res.largest - expected) <= 1e-12 * expected, case

    def test_cancellation_shows(self):
        # 1F1(0.5; 0.5; -40) = e^-40 ~ 4e-18, summed from terms (-40)^k/k! of
        # up to 40^40/40! ~ 1.5e16: the sum keeps none of its digits
        res = hyp_pfq((0.5,), (0.5,), -40.0)
        assert res.largest == pytest.approx(40.0**40 / math.factorial(40), rel=1e-12)
        assert res.largest > 1e15 * abs(res.value)

    def test_zero_where_nothing_is_summed(self):
        assert hyp_pfq((0.5, 1.0), (2.0,), 0.0).largest == 0.0  # z = 0
        assert hyp_pfq((0.5, 1.0), (2.0,), 1.0).largest == 0.0  # Gauss's formula


class TestRealCarrier:
    def check_vs_mpmath(self, mpmath, upper, lower, z):
        # the stop rule at the rounding level leaves the rounding of the
        # float carrier as the error
        res = hyp_pfq(upper, lower, z)
        assert res.value.imag == 0.0
        with mpmath.workdps(40):
            ref = float(mpmath.hyper(upper, lower, z))
        if largest_term(upper, lower, z, res.terms_used) > 10.0 * abs(ref):
            return False  # cancellation costs digits on any carrier
        assert abs(res.value.real - ref) <= 1e-13 * abs(ref)
        return True

    def test_1f1_vs_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = Random(12)
        checked = 0
        for _ in range(120):
            a, b = rng.uniform(-3.0, 3.0), rng.uniform(0.2, 4.0)
            z = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 30.0)
            checked += self.check_vs_mpmath(mpmath, (a,), (b,), z)
        assert checked >= 60

    def test_2f1_vs_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = Random(13)
        checked = 0
        for _ in range(120):
            a, b, c = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.2, 4.0)
            checked += self.check_vs_mpmath(mpmath, (a, b), (c,), rng.uniform(-0.9, 0.9))
        assert checked >= 60


class TestOutOfRange:
    @pytest.mark.parametrize(
        "upper,lower,z",
        [((1,), (2,), 720 + 1j), ((1,), (2,), 800.0), ((1,), (2,), -800.0 + 1e-3j)],
        ids=["complex-abs-overflows", "float-sum-infinite", "complex-alternating"],
    )
    def test_budget_error_with_the_true_term_count(self, upper, lower, z):
        # never inf, nan or a bare OverflowError; hyp_pfq((), (1e-200, 1e-200),
        # 0.5) is the DomainError case of test_specfun
        with pytest.raises(BudgetError, match="double range") as err:
            hyp_pfq(upper, lower, z)
        best = err.value.best
        assert not best.converged and 0 < best.terms_used < specfun._MAX_TERMS
        assert f"did not converge in {best.terms_used} terms" in str(err.value)

    def test_underflow_only_where_the_sum_reaches_it(self):
        # b = -5 + 1e-300i is no pole, but the factor product of (b + 5)^2
        # underflows to 0 at k = 5, that is at term 6
        b = complex(-5.0, 1e-300)
        with pytest.raises(DomainError, match="underflow to 0 at term 6"):
            hyp_pfq((1,), (b, b), 0.5)
        # a terminating sum, whose terms are exactly 0 from term 2, meets the
        # stop rule at term 4 and never reaches it
        res = hyp_pfq((-1,), (b, b), 0.5)
        assert res.converged and res.terms_used == 4
        assert abs(res.value - (1.0 - 0.5 / 25.0)) < 1e-15
