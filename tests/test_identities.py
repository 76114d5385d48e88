import cmath
import math
from random import Random

import pytest

from trihyp.errors import DomainError
from trihyp.identities import (
    check_grid,
    default_grid,
    eval_identity,
    faa_di_bruno_derivative,
    get_identity,
    i13_piecewise,
    i13_rhs,
    i14a_rhs,
    i14b_rhs,
    i15_rhs,
    list_identities,
)
from trihyp.roots import g_function
from trihyp.specfun import gamma, hyp2f1, pochhammer

SQRT_PI = math.sqrt(math.pi)


def rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


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

    def test_bad_params(self):
        with pytest.raises(DomainError):
            eval_identity("I02", {"n": 1.5, "t": 0.2}, 1e-8)
        with pytest.raises(DomainError):
            eval_identity("I01", {"t": 0.2, "bogus": 1}, 1e-8)
        with pytest.raises(DomainError):
            eval_identity("I01", {"t": 0.2}, -1.0)


class TestCheckGrid:
    def test_disc_sweep(self):
        rng = Random(3)
        grid = []
        while len(grid) < 100:
            r = 0.9 * math.sqrt(rng.random())
            grid.append({"z": r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))})
        recs = check_grid("I13", grid, 1e-9)
        assert all(r.verdict == "pass" for r in recs)

    def test_excluded_point_skipped(self):
        recs = check_grid("I06", [{"n": 1, "t": 0.4}, {"n": 1, "t": 1.0}], 1e-8)
        assert recs[0].verdict == "pass"
        assert recs[1].verdict == "skipped_domain"

    def test_positional_tuples(self):
        recs = check_grid("I12", [(n, t) for n in range(1, 5) for t in (-0.7, 0.3, 0.8)], 1e-10)
        assert all(r.verdict == "pass" for r in recs)

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
        recs = check_grid("I18", default_grid("I18", 60), 1e-8)
        assert all(r.verdict == "pass" for r in recs)


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
