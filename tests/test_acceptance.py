"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import cmath
import json
import math
import time
from random import Random

from trihyp.cli import SweepConfig, report_to_json, run_sweep
from trihyp.identities import (
    check_point,
    default_grid,
    eval_identity,
    faa_di_bruno_derivative,
    i15_rhs,
)
from trihyp.quad import laplace_random_draw
from trihyp.roots import (
    TrinomialInstance,
    g_function,
    lagrange_coefficient,
    root_hypergeometric,
    root_lagrange_partial,
    trinomial_closed_roots,
)
from trihyp.specfun import hyp2f1, hyp3f2, hyp_pfq_regularized

SQRT_PI = math.sqrt(math.pi)


def _report(num, ok, desc, elapsed, limit):
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{verdict}] criterion {num}: {desc} ({elapsed:.2f}s, limit {limit:g}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_exact_constants():
    t0 = time.perf_counter()
    ok = abs(hyp2f1(0.5, 1, 2, 1) - 2) <= 1e-10 * 2
    for n in range(6):
        v = hyp2f1(0.5, 1, 2 + n, 1)
        want = 2 * (n + 1) / (2 * n + 1)
        ok &= abs(v - want) <= 1e-10 * abs(want)
    v = hyp3f2(0.25, 0.5, 0.75, 2 / 3, 4 / 3, 1)
    ok &= abs(v - 4 / 3) <= 1e-10 * (4 / 3)
    ok &= abs(g_function(1.0) - (-0.5)) < 1e-13
    ok &= abs(i15_rhs(1.0) - 4 / 3) <= 1e-10 * (4 / 3)
    v = hyp3f2(0.5, 5 / 6, 1 / 6, 2 / 3, 4 / 3, 1)
    ok &= f"{v.real:.5f}" == "1.24081"
    _report(1, ok, "exact-constant reproduction at z = 1", time.perf_counter() - t0, 1.0)


def test_criterion_2_identity_suite():
    t0 = time.perf_counter()
    required = [f"I{k:02d}" for k in range(1, 18)] + ["K01", "K02"]
    fails = 0
    for cid in required + ["I18"]:
        tol = 1e-6 if cid in ("I14", "I15", "I16", "I17") else 1e-8
        recs = [eval_identity(cid, p, tol) for p in default_grid(cid, 200)]
        fails += sum(1 for r in recs if r.verdict == "fail")
    _report(2, fails == 0, "identity catalog, 200-point domain samples",
            time.perf_counter() - t0, 30.0)


def test_criterion_3_root_equivalence():
    t0 = time.perf_counter()
    rng = Random(20260811)
    ok = True
    for n, radius in ((2, 0.24), (3, 0.37), (4, 0.09)):
        for _ in range(100):
            r = radius * math.sqrt(rng.random())
            t = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            sv = root_hypergeometric(TrinomialInstance(n, t))
            rs = trinomial_closed_roots(n, t)
            ok &= min(abs(root - sv) for root in rs.roots) <= 1e-8
            ok &= max(rs.residuals) <= 1e-9 * max(1.0, abs(t))
    _report(3, ok, "series/closed-form root equivalence, 100 complex t per degree",
            time.perf_counter() - t0, 5.0)


def test_criterion_4_lagrange_series():
    t0 = time.perf_counter()
    catalan = [
        math.factorial(2 * k) // (math.factorial(k) * math.factorial(k + 1))
        for k in range(11)
    ]
    ok = [lagrange_coefficient(2, k) for k in range(11)] == catalan
    inst = TrinomialInstance(2, 0.1)
    target = root_hypergeometric(inst)
    errors = [abs(root_lagrange_partial(inst, k) - target) for k in range(1, 13)]
    ok &= all(a > b for a, b in zip(errors, errors[1:]))
    _report(4, ok, "Lagrange coefficients are Catalan numbers; monotone convergence",
            time.perf_counter() - t0, 5.0)


def test_criterion_5_integral_identities():
    t0 = time.perf_counter()
    ok = True
    for n in (0, 1, 2):
        for s, x in ((2.0, 1.0), (1.0, 0.5), (3.0, 2.0)):
            ok &= check_point("J1", {"n": n, "s": s, "x": x}, 1e-5).verdict == "pass"
    for n in (1, 2):
        for p, x in ((1.0, 1.0), (2.0, 0.5), (0.0, 1.0)):
            ok &= check_point("J2", {"n": n, "p": p, "x": x}, 1e-5).verdict == "pass"
    for p, x in ((1.0, 1.0), (2.0, 0.5)):
        ok &= check_point("J3", {"p": p, "x": x}, 1e-5).verdict == "pass"
    rng = Random(99)
    for _ in range(25):
        d = laplace_random_draw(rng)
        ok &= check_point("J0", d, 1e-7).verdict == "pass"
    _report(5, ok, "integral identities J1/J2/J3 and the Laplace lemma",
            time.perf_counter() - t0, 60.0)


def test_criterion_6_derivative_route():
    t0 = time.perf_counter()

    def f(z):
        return cmath.sin(cmath.asin(cmath.sqrt(z)) / 3)

    ok = True
    points = (0.1, 0.3, 0.5, 0.7, 0.9)
    for z in points:
        fd1 = (f(z + 1e-5) - f(z - 1e-5)) / 2e-5
        ok &= abs(faa_di_bruno_derivative(1, z) - fd1) <= 1e-5 * abs(fd1)
        h = 2e-4
        fd2 = (f(z + h) - 2 * f(z) + f(z - h)) / h**2
        ok &= abs(faa_di_bruno_derivative(2, z) - fd2) <= 1e-5 * max(1.0, abs(fd2))
        for n, fd in ((1, fd1), (2, fd2)):
            lhs = hyp_pfq_regularized((1 / 3, 2 / 3), (1.5 - n,), z).value
            direct = 6 * z ** (n - 0.5) / SQRT_PI * fd
            ok &= abs(lhs - direct) <= 1e-5 * max(1.0, abs(lhs))
    _report(6, ok, "Bell-polynomial derivatives match finite differences",
            time.perf_counter() - t0, 5.0)


def test_criterion_7_determinism():
    t0 = time.perf_counter()
    cfg = SweepConfig(identity_ids=("I01", "I13", "J2"), seed=42,
                      output_path="report.json")
    docs = []
    for _ in range(2):
        doc = json.loads(report_to_json(run_sweep(cfg)))
        doc["wall_time_ms"] = 0
        docs.append(json.dumps(doc, sort_keys=True))
    ok = docs[0] == docs[1]
    _report(7, ok, "byte-identical reports for identical config and seed",
            time.perf_counter() - t0, 30.0)
