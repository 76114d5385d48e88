import cmath
import math
import sys
from random import Random

import pytest

from trihyp import identities, specfun
from trihyp.errors import BudgetError, DomainError, TrihypError
from trihyp.identities import (
    coerce_params,
    default_grid,
    eval_identity,
    faa_di_bruno_derivative,
    get_identity,
    i13_rhs,
    i15_rhs,
    list_identities,
)
from trihyp.roots import g_function
from trihyp.specfun import gamma, hyp2f1, pochhammer

SQRT_PI = math.sqrt(math.pi)


def rel(a, b):
    return abs(a - b) / max(abs(b), 2.0**-1022)


# reference elementary forms of I13 and of the n = 1, 2 members of I14,
# coded here only to cross-check the catalog's own sides


def i13_piecewise(z) -> complex:
    """The two-branch cosh/cos form of the I13 reduction.

    For real z > 1 this is the continuation from below the branch cut,
    the complex conjugate of what principal-branch asin produces there.
    """
    z = complex(z)
    sz = cmath.sqrt(z)
    if z.imag == 0.0 and z.real >= 1.0:
        u = cmath.acosh(sz) / 3.0
        return 3.0 / (2.0 * sz) * (cmath.cosh(u) - 1j * math.sqrt(3.0) * cmath.sinh(u))
    u = cmath.acos(sz) / 3.0
    return 3.0 / (2.0 * sz) * (cmath.cos(u) - math.sqrt(3.0) * cmath.sin(u))


def i14a_rhs(z) -> complex:
    """Elementary form of the n = 1 member: cos((1/3) asin sqrt(z)) / sqrt(1-z)."""
    z = complex(z)
    return cmath.cos(cmath.asin(cmath.sqrt(z)) / 3.0) / cmath.sqrt(1.0 - z)


def i14b_rhs(z) -> complex:
    """Elementary form of the n = 2 member."""
    z = complex(z)
    u = cmath.asin(cmath.sqrt(z)) / 3.0
    return ((3.0 - 6.0 * z) * cmath.cos(u) + cmath.sqrt(-z * (z - 1.0)) * cmath.sin(u)) / (
        3.0 * (1.0 - z) ** 1.5
    )


class TestCatalog:
    def test_size_and_ids(self):
        entries = list_identities()
        assert len(entries) == 24
        ids = [d.id for d in entries]
        assert ids == sorted(ids)
        assert len(set(ids)) == 24
        for want in [f"I{k:02d}" for k in range(1, 19)] + ["J0", "J1", "J2", "J3", "K01", "K02"]:
            assert want in ids

    def test_anchors_nonempty(self):
        assert all(d.anchor for d in list_identities())

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            get_identity("I99")


class TestEvalIdentity:
    def test_base_reduction_point(self):
        rec = eval_identity("I01", {"t": 0.5}, 1e-9)
        assert rec.verdict == "pass"
        assert rel(rec.lhs_value, 1.1715728752538099) < 1e-12

    def test_gauss_row(self):
        rec = eval_identity("I07", {"n": 1, "t": 1}, 1e-9)
        assert rec.verdict == "pass"
        assert rel(rec.lhs_value, 4 / 3) < 1e-10

    def test_resolvent_branch_point(self):
        rec = eval_identity("I15", {"z": 1}, 1e-6)
        assert rec.verdict == "pass"
        assert rel(rec.lhs_value, 4 / 3) < 1e-10
        assert abs(g_function(1.0) + 0.5) < 1e-14

    def test_divergent_both(self):
        rec = eval_identity("I02", {"n": 2, "t": 1}, 1e-9)
        assert rec.verdict == "divergent_both"
        assert rec.lhs_value is None and rec.rhs_value is None

    @pytest.mark.parametrize("sides", [("lhs",), ("rhs",), ("lhs", "rhs")])
    def test_exhausted_budget_is_a_failed_point(self, monkeypatch, sides):
        def exhausted(**_):
            raise BudgetError("series did not converge")

        entry = get_identity("I01")._replace(**{s: exhausted for s in sides})
        monkeypatch.setitem(identities._CATALOG, "I01", entry)
        rec = eval_identity("I01", {"t": 0.5}, 1e-9)
        assert rec.verdict == "fail" and rec.abs_err == rec.rel_err == math.inf
        assert (rec.lhs_value is None) == ("lhs" in sides)
        assert (rec.rhs_value is None) == ("rhs" in sides)

    def test_bad_params(self):
        with pytest.raises(DomainError):
            eval_identity("I02", {"n": 1.5, "t": 0.2}, 1e-8)
        with pytest.raises(DomainError):
            eval_identity("I01", {"t": 0.2, "bogus": 1}, 1e-8)
        with pytest.raises(DomainError):
            eval_identity("I01", {"t": 0.2}, -1.0)

    @pytest.mark.parametrize(
        "cid,params",
        [("I01", {"t": 0.3}), ("J1", {"n": 0, "s": 2.0, "x": 1.0})],
    )
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_tolerance_must_be_finite_and_positive(self, cid, params, tol):
        # a NaN tol gave I01 a "fail" record and J1 a "skipped_domain" one,
        # an infinite tol passed any point
        with pytest.raises(DomainError, match="finite and positive"):
            eval_identity(cid, params, tol)

    @pytest.mark.parametrize(
        "params,message",
        [
            ({"n": 0, "s": 2, "x": [1, 2]}, "x must be a number"),
            ({"n": [1], "s": 2, "x": 1}, "n must be a number"),
            ({"n": math.inf, "s": 2, "x": 1}, "n must be an integer"),
        ],
    )
    def test_malformed_param_is_a_domain_error(self, params, message):
        # a value of the wrong shape raises DomainError, not TypeError or OverflowError
        with pytest.raises(DomainError, match=message):
            eval_identity("J1", params, 1e-6)

    def test_malformed_tuple_param_is_a_domain_error(self):
        params = {"a": (1, None), "b": (2,), "alpha": 1, "s": 2, "x": 0.5}
        with pytest.raises(DomainError, match="a must be a list of numbers"):
            eval_identity("J0", params, 1e-7)


class TestCheckGrid:
    def test_disc_sweep(self):
        rng = Random(3)
        grid = []
        while len(grid) < 100:
            r = 0.9 * math.sqrt(rng.random())
            grid.append({"z": r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))})
        recs = [eval_identity("I13", p, 1e-9) for p in grid]
        assert all(r.verdict == "pass" for r in recs)

    def test_excluded_point_skipped(self):
        recs = [eval_identity("I06", p, 1e-8) for p in ({"n": 1, "t": 0.4}, {"n": 1, "t": 1.0})]
        assert recs[0].verdict == "pass"
        assert recs[1].verdict == "skipped_domain"

    def test_infinite_side_is_skipped(self):
        # J2's closed form overflows to inf here; the record once held it as a
        # "fail" with rhs Infinity
        rec = eval_identity("J2", {"n": 3, "p": 1e100, "x": 1e200}, 1e-6)
        assert rec.verdict == "skipped_domain"
        assert rec.lhs_value is None and rec.rhs_value is None

    def test_i12_integer_points(self):
        grid = [{"n": n, "t": t} for n in range(1, 5) for t in (-0.7, 0.3, 0.8)]
        recs = [eval_identity("I12", p, 1e-10) for p in grid]
        assert all(r.verdict == "pass" for r in recs)

    @pytest.mark.parametrize("cid,fixed", [("J1", 9), ("J2", 6), ("J3", 4)])
    def test_fixed_point_grid_does_not_pad(self, cid, fixed):
        assert len(default_grid(cid)) == len(default_grid(cid, fixed)) == fixed
        with pytest.raises(DomainError, match=f"{cid} has {fixed} fixed points"):
            default_grid(cid, fixed + 2)

    def test_default_grid_deterministic(self):
        a = default_grid("I05", 50, seed=123)
        b = default_grid("I05", 50, seed=123)
        assert a == b
        c = default_grid("I05", 50, seed=124)
        assert a != c


class TestEquivalences:
    def test_pairwise_elementary_forms(self):
        # I02 = I05 and I07 = I08 = I09 at the level of the elementary
        # representations themselves
        from trihyp.identities import _rhs_i02, _rhs_i05, _rhs_i07, _rhs_i08, _rhs_i09

        rng = Random(8)
        for _ in range(60):
            n = rng.randrange(0, 6)
            r = rng.uniform(0.1, 0.9)
            t = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            a, b = _rhs_i02(n, t), _rhs_i05(n, t)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
            u, v, w = _rhs_i07(n, t), _rhs_i08(n, t), _rhs_i09(n, t)
            assert abs(u - v) <= 1e-9 * max(1.0, abs(u))
            assert abs(u - w) <= 1e-9 * max(1.0, abs(u))

    def test_i18_entry(self):
        recs = [eval_identity("I18", p, 1e-8) for p in default_grid("I18", 60)]
        assert all(r.verdict == "pass" for r in recs)

    def test_i18_forms_once_per_point(self, monkeypatch):
        # the LHS and the RHS of a point share one evaluation of the five forms
        from trihyp.identities import _rhs_i02, _rhs_i05, _rhs_i07, _rhs_i08, _rhs_i09

        calls = []
        for form in (_rhs_i02, _rhs_i05, _rhs_i07, _rhs_i08, _rhs_i09):
            def counted(n, t, form=form):
                calls.append(form.__name__)
                return form(n, t)
            monkeypatch.setattr(identities, form.__name__, counted)
        points = default_grid("I18", 20)
        recs = [eval_identity("I18", p, 1e-8) for p in points]
        assert sorted(calls) == sorted(["_rhs_i02", "_rhs_i05", "_rhs_i07", "_rhs_i08",
                                        "_rhs_i09"] * len(points))
        for p, rec in zip(points, recs):
            n, t = p["n"], complex(p["t"])
            pairs = ((_rhs_i02(n, t), _rhs_i05(n, t)), (_rhs_i07(n, t), _rhs_i08(n, t)),
                     (_rhs_i07(n, t), _rhs_i09(n, t)))
            worst = max(pairs, key=lambda q: abs(q[0] - q[1]) / max(abs(q[0]), sys.float_info.min))
            assert (rec.lhs_value, rec.rhs_value) == worst


class TestKummerK02:
    def test_elementary_rhs_vs_mpmath(self):
        # n! (e^z - e_{n-1}(z)) / z^n on 1 <= |z| <= 8, where it keeps its digits
        mpmath = pytest.importorskip("mpmath")
        rhs = get_identity("K02").rhs
        rng = Random(24)
        for n in range(1, 6):
            edges = [1.0, -1.0, 1j, 8.0, -8.0]
            for z in edges + [rng.uniform(1.0, 8.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                              for _ in range(60)]:
                with mpmath.workdps(40):
                    ref = complex(mpmath.hyp1f1(1, 1 + n, z))
                assert abs(rhs(n, z) - ref) <= 1e-13 * abs(ref), (n, z)

    def test_domain_leaves_out_the_cancelling_disc(self):
        desc = get_identity("K02")
        assert not desc.in_domain(n=5, z=0.99) and desc.in_domain(n=5, z=1.0)
        assert eval_identity("K02", {"n": 1, "z": 0.0}, 1e-8).verdict == "skipped_domain"


@pytest.fixture
def series_calls(monkeypatch):
    """A list that receives the (upper, lower, z) of every series-engine sum."""
    calls = []
    original = specfun._sum_series

    def recording(upper, lower, z, *args, **kwargs):
        calls.append((tuple(map(complex, upper)), tuple(map(complex, lower)), complex(z)))
        return original(upper, lower, z, *args, **kwargs)

    monkeypatch.setattr(specfun, "_sum_series", recording)
    return calls


def _shared_series(desc, params, calls):
    """The series both sides of a point sum at one argument."""
    sides = []
    for side in (desc.lhs, desc.rhs):
        calls.clear()
        try:
            side(**params)
        except TrihypError:
            pass
        sides.append(set(calls))
    return sides[0] & sides[1]


_I09_SHARES = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="I09's RHS binomial_remainder(-n-1/2, n+1, t) sums 2F1(1/2, 1; n+2; t), "
    "its LHS series, wherever |t| <= 0.8",
)


class TestRouteIndependence:
    """No entry may check a series against itself: on the default grid,
    the two sides of a point never sum one series at one argument."""

    @pytest.mark.parametrize("cid", [
        pytest.param(d.id, marks=_I09_SHARES) if d.id == "I09" else d.id
        for d in list_identities() if not d.quadrature
    ])
    def test_sides_share_no_series(self, cid, series_calls):
        desc = get_identity(cid)
        shared = [point for point in default_grid(cid)
                  if _shared_series(desc, coerce_params(cid, point), series_calls)]
        assert shared == []

    def test_sees_a_shared_series(self, series_calls):
        # K02 with its old RHS n e^z gamma(n, z)/z^n, whose incomplete gamma
        # is the LHS series 1F1(1; 1+n; z) on the series engine
        desc = get_identity("K02")._replace(
            rhs=lambda n, z: n * cmath.exp(z) * specfun.lower_incomplete_gamma_over_power(n, z))
        shared = [point for point in default_grid("K02")
                  if _shared_series(desc, coerce_params("K02", point), series_calls)]
        assert len(shared) == 200


class TestVerdictRule:
    """A point passes iff abs_err <= tol * max(|lhs|, 2^-1022)."""

    @pytest.mark.parametrize(
        "lv,rv,verdict",
        [
            (1e-10, 2e-10, "fail"),  # once a pass on its absolute error alone
            (0.0, 0.0, "pass"),
            (0.0, 1e-300, "fail"),
            (1e-320, 2e-320, "pass"),  # subnormal: within 1e-8 * 2^-1022 of each other
            (1e-320, 1e-315, "fail"),
            (3.0, 3.0 + 2e-8, "pass"),
            (3.0, 3.0 + 4e-8, "fail"),
        ],
    )
    def test_one_relative_comparison(self, lv, rv, verdict):
        rec = identities._record("I01", {}, complex(lv), complex(rv), 1e-8)
        assert rec.verdict == verdict


class TestTinyArgument:
    # each elementary side holds its bracket over the bracket's leading power,
    # so no t^(n+1) prefactor under- or overflows, and t = 0 needs no row
    @pytest.mark.parametrize("cid", ["I02", "I03", "I04", "I05", "I07", "I08", "I09", "I18"])
    @pytest.mark.parametrize("t", [0.0, 1e-300, 1e-60, -1e-20, 1e-17 + 1e-17j])
    def test_passes_near_zero(self, cid, t):
        for n in (0, 5):
            rec = eval_identity(cid, {"n": n, "t": t}, 1e-8)
            assert rec.verdict == "pass", rec
            assert rec.rel_err <= 1e-14, rec

    def test_every_identity_keeps_a_verdict(self):
        # each identity entry at argument 10^-k e^(i phi), for every n in
        # 0..6, gives a record, and none is a fail (I10, I12 and I14 stay on
        # their real axis; a point outside an entry's domain is skipped)
        problems = []
        for desc in list_identities():
            if desc.quadrature:
                continue
            names = [spec.name for spec in desc.params]
            real = desc.id in ("I10", "I12", "I14")
            for k in (1, 2, 4, 8, 12, 16, 20, 40, 80, 150, 200, 300, 310, 320):
                for phi in (0.0, math.pi) if real else (0.0, math.pi, 0.7, -2.0, math.pi / 2):
                    arg = 10.0**-k * (math.cos(phi) if real else cmath.exp(1j * phi))
                    for n in range(7) if "n" in names else (None,):
                        point = {names[-1]: arg} if n is None else {"n": n, names[-1]: arg}
                        try:
                            rec = eval_identity(desc.id, point, desc.tolerance)
                        except Exception as exc:
                            problems.append((desc.id, point, repr(exc)))
                            continue
                        if rec.verdict == "fail":
                            problems.append(rec)
        assert problems == []

    def test_i10_lhs_vs_mpmath(self):
        # the LHS forms (1-x)/2 from t: once 1/sqrt(1-t) rounded to 1 and it read 0
        mpmath = pytest.importorskip("mpmath")
        lhs = get_identity("I10").lhs
        for k in range(0, 301, 20):
            t = -0.37 * 10.0**-k
            for n in range(1, 5):
                with mpmath.workdps(30 + k):
                    x = 1 / mpmath.sqrt(1 - mpmath.mpf(t))
                    ref = complex(mpmath.legenp(-n, -n, x, type=2))
                if abs(ref) >= sys.float_info.min:
                    assert abs(lhs(n, t) - ref) <= 1e-14 * abs(ref), (n, t)


class TestQuadraticTransformation:
    def test_consistency(self):
        # 2F1(1+2n, 3/2+n; 3+2n; 2 sqrt(z)/(1+sqrt(z)))
        #   = (1+sqrt(z))^(2n+1) 2F1(1/2+n, 1+n; 2+n; z)
        rng = Random(5)
        for n in range(4):
            checked = 0
            while checked < 8:
                r = 0.5 * math.sqrt(rng.random())
                z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                sz = cmath.sqrt(z)
                arg = 2 * sz / (1 + sz)
                if abs(arg) > 0.95:  # transformed argument must stay in the disc
                    continue
                lhs = hyp2f1(1 + 2 * n, 1.5 + n, 3 + 2 * n, arg)
                rhs = (1 + sz) ** (2 * n + 1) * hyp2f1(0.5 + n, 1 + n, 2 + n, z)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
                checked += 1


class TestSinThirdFamily:
    def test_branch_merge(self):
        # the sin form and the piecewise cosh/cos form describe the same
        # function; on the cut (z > 1) the printed cosh branch is the
        # continuation from below, i.e. the conjugate of principal asin
        for z in (0.5, 2.0, 5.0):
            a = i13_rhs(z)
            b = i13_piecewise(z)
            if z <= 1:
                assert abs(a - b) < 1e-13
            else:
                assert min(abs(a - b), abs(a - b.conjugate())) < 1e-13

    def test_explicit_members_match_series(self):
        rng = Random(19)
        for _ in range(40):
            r = 0.9 * math.sqrt(rng.random())
            z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert rel(hyp2f1(1 / 3, 2 / 3, 0.5, z), i14a_rhs(z)) < 1e-9
            assert rel(hyp2f1(1 / 3, 2 / 3, -0.5, z), i14b_rhs(z)) < 1e-9

    def test_explicit_members_match_bell_route(self):
        # i14a/i14b are the n = 1, 2 members of the Bell-polynomial form
        # up to the regularization factor Gamma(3/2 - n)
        from trihyp.identities import _rhs_i14

        for z in (0.12, 0.4, 0.83):
            assert rel(i14a_rhs(z), gamma(0.5) * _rhs_i14(1, z)) < 1e-11
            assert rel(i14b_rhs(z), gamma(-0.5) * _rhs_i14(2, z)) < 1e-11

    def test_limit_to_unity(self):
        for z in (1e-2, 1e-3, 1e-4):
            assert abs(i14a_rhs(z) - 1.0) < 3 * z
            assert abs(i14b_rhs(z) - 1.0) < 6 * z


class TestFaaDiBruno:
    @staticmethod
    def _f(z):
        return cmath.sin(cmath.asin(cmath.sqrt(z)) / 3)

    def test_first_derivative_chain_rule(self):
        # (1/6) cos((1/3) asin sqrt(z)) / sqrt(z (1-z)) at z = 0.25
        z = 0.25
        expected = math.cos(math.asin(0.5) / 3) / (6 * math.sqrt(z * (1 - z)))
        assert rel(faa_di_bruno_derivative(1, z), expected) < 1e-12
        h = 1e-5
        fd = (self._f(z + h) - self._f(z - h)) / (2 * h)
        assert rel(faa_di_bruno_derivative(1, z), fd) < 1e-9

    def test_second_derivative_finite_difference(self):
        z, h = 0.5, 2e-4
        fd = (self._f(z + h) - 2 * self._f(z) + self._f(z - h)) / h**2
        assert abs(faa_di_bruno_derivative(2, z) - fd) < 1e-5 * max(1.0, abs(fd))

    def test_third_derivative_vs_identity_reconstruction(self):
        from trihyp.identities import _rhs_i14

        z = 0.1
        recon = _rhs_i14(3, z) * SQRT_PI / (6 * z**2.5)
        assert rel(faa_di_bruno_derivative(3, z), recon) < 1e-12

    def test_singular_points(self):
        for z in (0.0, 1.0):
            with pytest.raises(DomainError):
                faa_di_bruno_derivative(1, z)


class TestResolventReduction:
    def test_disc_values(self):
        rng = Random(2)
        from trihyp.specfun import hyp3f2

        for _ in range(30):
            r = 0.95 * math.sqrt(rng.random())
            z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            if abs(z) < 1e-3:
                continue
            assert rel(hyp3f2(0.25, 0.5, 0.75, 2 / 3, 4 / 3, z), i15_rhs(z)) < 1e-10
