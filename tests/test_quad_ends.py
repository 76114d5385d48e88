"""Each end of the tanh-sinh window stops on its own.

The joint rule it replaced, which stopped both ends only once the pair of
contributions at one step was negligible, is kept here as the reference:
every catalog integral on the default grids and on grids drawn as the
benchmark's ``integrals`` workload draws them keeps its value bit for bit,
with no more integrand calls at any point.
"""

import functools
import math
from random import Random

import pytest

from trihyp import quad
from trihyp.identities import default_grid, eval_identity, get_identity
from trihyp.quad import integrate_semi_infinite

J_IDS = ("J0", "J1", "J2", "J3")


def _joint_stop_tanh_sinh_sum(f, half, h, start, step):
    """The former quad._tanh_sinh_sum: one dead counter for both ends."""
    total = 0.0 + 0.0j
    calls = 0
    k = start
    i = 0
    dead = 0
    while k * h <= quad._TAU_MAX:
        tau = k * h
        contributions = []
        for sgn in ((1.0,) if k == 0 else (1.0, -1.0)):
            tt = sgn * tau
            s = quad._HALF_PI * math.sinh(tt)
            if abs(s) > 350.0:
                contributions.append(0.0)
                continue
            x = 2.0 * half / (1.0 + math.exp(-2.0 * s))
            w = half * quad._HALF_PI * math.cosh(tt) / math.cosh(s) ** 2
            if w == 0.0 or x == 0.0 or x == 2.0 * half:
                contributions.append(0.0)
                continue
            calls += 1
            contributions.append(w * f(x))
        c = sum(contributions)
        total += c
        if i > 3 and abs(c) <= 1e-18 * (abs(total) + 1e-30):
            dead += 1
            if dead >= 2:
                break
        else:
            dead = 0
        k += step
        i += 1
    return total, calls


def _strata(rng, lo, hi, count):
    step = (hi - lo) / count
    return [round(lo + (k + rng.random()) * step, 3) for k in range(count)]


def _integrals_style_points():
    """J0 default grids at six seeds, then seeded J1/J2/J3 grids inside
    each integral's hypotheses, in the shapes of the ``integrals`` workload."""
    rng = Random("integrals-style")
    points = [("J0", p) for seed in range(1, 7) for p in default_grid("J0", seed=seed)]
    points += [("J1", {"n": n, "s": s, "x": x})
               for n in (0, 1, 2) for s in _strata(rng, 1.0, 3.0, 3)
               for x in _strata(rng, 0.5, 2.0, 3)]
    points += [("J2", {"n": n, "p": p, "x": x})
               for n in (1, 2) for p in [0.0, *_strata(rng, 0.5, 2.0, 3)]
               for x in _strata(rng, 0.5, 1.5, 3)]
    points += [("J3", {"p": p, "x": x})
               for p in _strata(rng, 1.0, 3.0, 4) for x in _strata(rng, 0.3, 1.5, 4)]
    return points


GROUPS = {
    **{f"default-{seed}": lambda seed=seed: [(cid, p) for cid in J_IDS
                                              for p in default_grid(cid, seed=seed)]
       for seed in (20260811, 7, 13)},
    "integrals-style": _integrals_style_points,
}


@functools.lru_cache(maxsize=None)
def _runs(group):
    """{rule: [(record, [QuadResult of each quadrature of its point])]} of a group."""
    out = {}
    for rule, tanh_sinh_sum in (("joint", _joint_stop_tanh_sinh_sum),
                                ("each end", quad._tanh_sinh_sum)):
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quad, "_tanh_sinh_sum", tanh_sinh_sum)
            results = []

            def recorded(*args, _integrate=integrate_semi_infinite, **kwargs):
                res = _integrate(*args, **kwargs)
                results.append(res)
                return res

            mp.setattr(quad, "integrate_semi_infinite", recorded)
            for cid, params in GROUPS[group]():
                results.clear()
                rec = eval_identity(cid, params, get_identity(cid).tolerance)
                runs.append((rec, list(results)))
        out[rule] = runs
    return out


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_same_values_as_the_joint_rule(group):
    runs = _runs(group)
    assert len(runs["joint"]) == len(runs["each end"]) > 0
    for (old, old_quads), (new, new_quads) in zip(runs["joint"], runs["each end"]):
        assert new.verdict == old.verdict == "pass", new
        assert new.lhs_value == old.lhs_value, new
        assert [q.value for q in new_quads] == [q.value for q in old_quads], new


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_no_more_integrand_calls_than_the_joint_rule(group):
    runs = _runs(group)
    old = [q.evaluations for _, quads in runs["joint"] for q in quads]
    new = [q.evaluations for _, quads in runs["each end"] for q in quads]
    assert len(new) == len(old) >= len(runs["joint"])
    assert all(n <= o for n, o in zip(new, old))
    assert sum(new) < sum(old)


@pytest.mark.parametrize(
    "f,sigma,exact",
    [
        # all of the mass at the singular end t -> 0
        (lambda t: t**-0.9 * math.exp(-t), -0.9, math.gamma(0.1)),
        # none of it there: t^5 vanishes at the origin
        (lambda t: t**5 * math.exp(-t), 0.0, 120.0),
    ],
    ids=["t^-0.9 e^-t", "t^5 e^-t"],
)
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_mass_at_one_end(monkeypatch, f, sigma, exact, tol):
    new = integrate_semi_infinite(f, tol, sigma)
    monkeypatch.setattr(quad, "_tanh_sinh_sum", _joint_stop_tanh_sinh_sum)
    old = integrate_semi_infinite(f, tol, sigma)
    for res in (new, old):
        assert abs(res.value - exact) <= max(tol, 1e-15) * exact
    assert new.evaluations <= old.evaluations


@pytest.mark.parametrize(
    "low,calls_low",
    [
        # nothing at t -> 0: the steps i = 4 and 5 after the warm-up are the
        # two negligible ones, so that end makes 5 calls (k = 1..5)
        (0.0, 5),
        # 1e-13 there: the contribution at i = 4 (~5e-16) is above 1e-18 of
        # the raw total (~31), the ones at i = 5 (~4e-19) and 6 are not
        (1e-13, 6),
    ],
)
def test_each_end_stops_after_two_negligible_steps(low, calls_low):
    half = 20.0
    seen = []

    def f(x):
        seen.append(x)
        return low if x < half else math.exp(half - x)

    _, calls = quad._tanh_sinh_sum(f, half, 0.5, 0, 1)
    below = sum(x < half for x in seen)
    assert below == calls_low
    # the end t -> 2*half runs on after the other has stopped
    assert calls == len(seen) and len(seen) - below > below
