"""Each end of a double-exponential level stops on its own.

Three former level sums are kept here as references, each reached through
the seam ``quad._level_sum`` for its own node map:

- the joint rule of the tanh-sinh sum, which stopped both ends only once
  the pair of contributions at one step was negligible: every catalog
  integral on the default grids and on grids drawn as the benchmark's
  ``integrals`` workload draws them keeps its value bit for bit, with no
  more integrand calls at any point;
- the tanh-sinh sum with a dead counter per end: every tanh-sinh value on
  the default grids is bit-identical to it, with the same calls;
- the exp-sinh sum that ran each direction in turn: the one level sum adds
  the two ends step by step instead, so the p = 0 values of J2 move by a
  few ulp, with the same verdict and no more calls.
"""

import functools
import math
from random import Random

import pytest

from trihyp import quad
from trihyp.identities import default_grid, eval_identity, get_identity
from trihyp.quad import integrate_semi_infinite

J_IDS = ("J0", "J1", "J2", "J3")
DEFAULT_SEEDS = (20260811, 7, 13)


def _joint_stop_tanh_sinh_sum(f, half, h, start, step):
    """The tanh-sinh sum before each end stopped on its own: one dead
    counter for both ends."""
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


def _per_end_tanh_sinh_sum(f, half, h, start, step):
    """The tanh-sinh sum with a dead counter per end, before the one level
    sum over node maps."""
    total = 0.0 + 0.0j
    calls = 0
    k = start
    i = 0
    dead = {1.0: 0, -1.0: 0}
    while dead and k * h <= quad._TAU_MAX:
        tau = k * h
        contributions = {}
        for sgn in ((1.0,) if k == 0 else dead):
            tt = sgn * tau
            s = quad._HALF_PI * math.sinh(tt)
            if abs(s) > 350.0:
                contributions[sgn] = 0.0
                continue
            x = 2.0 * half / (1.0 + math.exp(-2.0 * s))
            w = half * quad._HALF_PI * math.cosh(tt) / math.cosh(s) ** 2
            if w == 0.0 or x == 0.0 or x == 2.0 * half:
                contributions[sgn] = 0.0
                continue
            calls += 1
            contributions[sgn] = w * f(x)
        total += sum(contributions.values())
        for sgn, c in contributions.items():
            if i > 3 and abs(c) <= 1e-18 * (abs(total) + 1e-30):
                dead[sgn] += 1
                if dead[sgn] >= 2:
                    del dead[sgn]
            else:
                dead[sgn] = 0
        k += step
        i += 1
    return total, calls


def _direction_by_direction_exp_sinh_sum(f, h, start, step):
    """The exp-sinh sum that summed the end t -> infinity, then t -> 0."""
    total = 0.0 + 0.0j
    calls = 0
    for direction in (1.0, -1.0):
        k = start if direction > 0 else max(start, 1)
        i = 0
        dead = 0
        while k * h <= quad._TAU_MAX:
            tau = direction * k * h
            s = quad._HALF_PI * math.sinh(tau)
            if s > 690.0:
                break
            t = math.exp(s)
            w = quad._HALF_PI * math.cosh(tau) * t
            calls += 1
            c = w * f(t)
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


def _reference_level_sum(tanh_sinh_sum=None, exp_sinh_sum=None):
    """A stand-in for ``quad._level_sum`` that sums the tanh-sinh or the
    exp-sinh map with the given reference, and any other map as it is."""
    level_sum = quad._level_sum

    def patched(f, node, h, start, step):
        if tanh_sinh_sum and getattr(node, "func", None) is quad._tanh_sinh_node:
            return tanh_sinh_sum(f, *node.args, h, start, step)
        if exp_sinh_sum and node is quad._exp_sinh_node:
            return exp_sinh_sum(f, h, start, step)
        return level_sum(f, node, h, start, step)

    return patched


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


def _default_points(seed):
    return [(cid, p) for cid in J_IDS for p in default_grid(cid, seed=seed)]


GROUPS = {
    **{f"default-{seed}": functools.partial(_default_points, seed) for seed in DEFAULT_SEEDS},
    "integrals-style": _integrals_style_points,
}

# each rule: the stand-in for quad._level_sum it runs with (None: the module's own)
RULES = {
    "level sum": None,
    "joint": _reference_level_sum(tanh_sinh_sum=_joint_stop_tanh_sinh_sum),
    "per end": _reference_level_sum(tanh_sinh_sum=_per_end_tanh_sinh_sum),
    "direction by direction": _reference_level_sum(exp_sinh_sum=_direction_by_direction_exp_sinh_sum),
}


@functools.lru_cache(maxsize=None)
def _run(group, rule):
    """[(record, [QuadResult of each quadrature of its point])] of a group
    under one rule."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        if RULES[rule] is not None:
            mp.setattr(quad, "_level_sum", RULES[rule])
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
    return runs


def _exp_sinh_point(rec):
    return rec.identity_id == "J2" and rec.params["p"] == 0


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_same_values_as_the_joint_rule(group):
    old_runs, new_runs = _run(group, "joint"), _run(group, "level sum")
    assert len(old_runs) == len(new_runs) > 0
    for (old, old_quads), (new, new_quads) in zip(old_runs, new_runs):
        assert new.verdict == old.verdict == "pass", new
        assert new.lhs_value == old.lhs_value, new
        assert [q.value for q in new_quads] == [q.value for q in old_quads], new


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_no_more_integrand_calls_than_the_joint_rule(group):
    old = [q.evaluations for _, quads in _run(group, "joint") for q in quads]
    new = [q.evaluations for _, quads in _run(group, "level sum") for q in quads]
    assert len(new) == len(old) >= len(_run(group, "joint"))
    assert all(n <= o for n, o in zip(new, old))
    assert sum(new) < sum(old)


@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_tanh_sinh_values_are_those_of_the_per_end_sum(seed):
    group = f"default-{seed}"
    pairs = [(old, new) for old, new in zip(_run(group, "per end"), _run(group, "level sum"))
             if not _exp_sinh_point(new[0])]
    assert {new.identity_id for (new, _), _ in pairs} == set(J_IDS)
    for (old, old_quads), (new, new_quads) in pairs:
        assert new.verdict == old.verdict and new.lhs_value == old.lhs_value, new
        assert [(q.value, q.evaluations) for q in new_quads] == \
            [(q.value, q.evaluations) for q in old_quads], new


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_exp_sinh_moves_by_ulps_with_no_more_calls(group):
    pairs = [(old, new) for old, new in zip(_run(group, "direction by direction"),
                                            _run(group, "level sum"))
             if _exp_sinh_point(new[0])]
    assert pairs
    for (old, old_quads), (new, new_quads) in pairs:
        assert new.verdict == old.verdict == "pass", new
        assert abs(new.lhs_value - old.lhs_value) <= 1e-15 * abs(old.lhs_value), new
        assert len(new_quads) == len(old_quads)
        assert all(n.evaluations <= o.evaluations for n, o in zip(new_quads, old_quads)), new


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
    monkeypatch.setattr(quad, "_level_sum", RULES["joint"])
    old = integrate_semi_infinite(f, tol, sigma)
    for res in (new, old):
        assert abs(res.value - exact) <= max(tol, 1e-15) * exact
    assert new.evaluations <= old.evaluations


# the tanh-sinh map over (0, 40) and the exp-sinh map over (0, inf): the
# node k = 0 sits at ``mid``, and ``tail`` is the integrand beyond it
TANH_SINH = (functools.partial(quad._tanh_sinh_node, 20.0), 20.0, lambda x: math.exp(20.0 - x))
EXP_SINH = (quad._exp_sinh_node, 1.0, lambda t: t**-3)


@pytest.mark.parametrize(
    "rule,low,calls_low",
    [
        # nothing at t -> 0: the steps i = 4 and 5 after the warm-up are the
        # two negligible ones, so that end makes 5 calls (k = 1..5)
        (TANH_SINH, 0.0, 5),
        (EXP_SINH, 0.0, 5),
        # 1e-13 there: the contribution at i = 4 (~5e-16) is above 1e-18 of
        # the raw total (~31), the ones at i = 5 (~4e-19) and 6 are not
        (TANH_SINH, 1e-13, 6),
        # with the exp-sinh weights the contributions at i = 4 (~2e-15) and
        # i = 5 (~7e-17) are above 1e-18 of the raw total (~1), the ones at
        # i = 6 and 7 are not
        (EXP_SINH, 1e-13, 7),
    ],
    ids=["0.0-5", "exp-sinh-0.0-5", "1e-13-6", "exp-sinh-1e-13-7"],
)
def test_each_end_stops_after_two_negligible_steps(rule, low, calls_low):
    node, mid, tail = rule
    seen = []

    def f(x):
        seen.append(x)
        return low if x < mid else tail(x)

    _, calls = quad._level_sum(f, node, 0.5, 0, 1)
    below = sum(x < mid for x in seen)
    assert below == calls_low
    # the other end runs on after this one has stopped
    assert calls == len(seen) and len(seen) - below > below
