"""Traced per-layer pass of the trihyp benchmark (``run.py --trace 1``).

The workload's invocations run in this process through
``trihyp.cli.main`` at ``--jobs 1``.  The public functions of each layer
are rebound, in every ``trihyp`` module namespace that holds them, to
wrappers that record spans; nothing under ``src/`` is edited, and the
original functions are restored after each pass.  A span is
(name, start, end, parent, point): all spans under one
``eval_check_point`` call share its point id.  Spans stay in memory and
are written to ``bench/out/`` at the end.  Self time is a span's duration
minus the durations of its direct children (calls nest, so children
never overlap).

Besides the traced passes this measures, with tracing off:
``cli.import_s`` (fresh interpreters), ``cli.pool_speedup`` (CLI passes
at ``--jobs 1`` against the default ``--jobs``), ``trace.overhead``
(in-process passes without wrappers) and ``identities.lhs_s`` /
``identities.rhs_s`` (direct calls of each identity's two sides).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import statistics
import time
import traceback
from collections import Counter, defaultdict

from run import (
    IDENTITY_IDS,
    OUT,
    check_report,
    cold_starts,
    compare_digests,
    quantile_low,
    report_path,
    run_pass,
)

INTEGRAL_IDS = ("J0", "J1", "J2", "J3")
IMPORT_SAMPLES = 9
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import trihyp.cli; "
                 "print(time.perf_counter() - t)")

# (module, function) pairs rebound during a traced pass; the span name is
# "<module>.<function>".
TRACED = (
    ("cli", "main"),
    ("cli", "run_sweep"),
    ("cli", "sweep_points"),
    ("cli", "eval_check_point"),
    ("cli", "report_to_json"),
    ("identities", "eval_identity"),
    ("quad", "integrate_semi_infinite"),
    ("specfun", "hyp_pfq"),
    ("specfun", "hyp_pfq_regularized"),
    ("specfun", "gamma"),
    ("specfun", "lower_incomplete_gamma"),
    ("specfun", "parabolic_cylinder_d"),
    ("roots", "g_function"),
)
SERIES = ("specfun.hyp_pfq", "specfun.hyp_pfq_regularized")


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, point id]
        self.stack = []
        self.point = None
        self.point_ids = []  # check id of each point
        self.identity_points = []  # (check id, params) of identity points, for lhs/rhs timing
        self.counts = Counter()
        self._restore = []

    def _wrap(self, name, fn, on_result):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.point]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        if name != "cli.eval_check_point":
            return traced

        @functools.wraps(fn)
        def point(check_id, params, tol):
            self.point = len(self.point_ids)
            self.point_ids.append(check_id)
            if check_id not in INTEGRAL_IDS:
                self.identity_points.append((check_id, params))
            try:
                return traced(check_id, params, tol)
            finally:
                self.point = None

        return point

    def _hooks(self):
        """Counters read off the results of some traced calls."""
        c = self.counts

        def series(res):
            c["specfun.series_terms"] += res.terms_used
            c["specfun.series_results"] += 1
            c["specfun.unconverged"] += not res.converged

        def quad(res):
            c[f"quad.{self.point_ids[self.point]}.evaluations"] += res.evaluations

        def report(text):
            c["cli.report_bytes"] += len(text.encode("utf-8"))

        return {**{s: series for s in SERIES},
                "quad.integrate_semi_infinite": quad,
                "cli.report_to_json": report}

    def install(self):
        modules = [importlib.import_module(f"trihyp.{m}")
                   for m in ("specfun", "roots", "identities", "quad", "cli")]
        modules.append(importlib.import_module("trihyp"))
        hooks = self._hooks()
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            orig = getattr(importlib.import_module(f"trihyp.{mod_name}"), fn_name)
            wrapper = self._wrap(name, orig, hooks.get(name))
            # rebind every name bound to the function, so calls through
            # `from .specfun import gamma` are traced too
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus per-point durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        point_s = {}
        for i, (name, start, end, parent, point) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
            if name == "cli.eval_check_point":
                point_s[point] = end - start
        return {"calls": calls, "total": total, "self": self_s, "point_s": point_s}

    def write_spans(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, point) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "point": point}) + "\n")


def _in_process_pass(invs, tag, tracer=None):
    """Run the invocations through trihyp.cli.main at --jobs 1; return (wall, reports)."""
    from trihyp import cli

    reports = []
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for inv in invs:
            path = report_path(tag, inv)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main([*inv.args, "--jobs", "1", "--out", str(path)])
            except Exception:  # a crash is a failed invocation, counted by check_report
                traceback.print_exc()
                rc = -1
            reports.append((inv, path, rc))
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, reports


def _time_sides(points):
    """Seconds spent in the special-function (lhs) and elementary (rhs) sides, untraced."""
    from trihyp.errors import DivergenceError
    from trihyp.identities import get_identity

    lhs_s = rhs_s = 0.0
    for cid, params in points:
        desc = get_identity(cid)
        p = {s.name: int(round(complex(params[s.name]).real)) if s.kind == "int"
             else complex(params[s.name]) for s in desc.params}
        if not desc.in_domain(**p):
            continue
        for side in ("lhs", "rhs"):
            t0 = time.perf_counter()
            try:
                getattr(desc, side)(**p)
            except DivergenceError:
                pass
            dt = time.perf_counter() - t0
            if side == "lhs":
                lhs_s += dt
            else:
                rhs_s += dt
    return lhs_s, rhs_s


def _layer_values(tracer) -> tuple:
    """(timings, metrics derived from counts, counts that must repeat) of one traced pass."""
    s = tracer.summary()
    calls, total, self_s = s["calls"], s["total"], s["self"]
    by_check = defaultdict(list)
    for point, secs in s["point_s"].items():
        by_check[tracer.point_ids[point]].append(secs)
    ident_us = sorted(1e6 * t for cid, ts in by_check.items() if cid not in INTEGRAL_IDS for t in ts)
    c = tracer.counts
    # counts that must repeat exactly between passes (report sizes carry wall_time_ms)
    counts = {f"{name}.calls": n for name, n in calls.items()}
    counts.update({k: v for k, v in c.items() if k != "cli.report_bytes"})
    times = {
        "cli.grid_s": total["cli.sweep_points"],
        "cli.eval_s": total["cli.eval_check_point"],
        "cli.sweep_self_s": self_s["cli.run_sweep"],
        "cli.serialize_s": total["cli.report_to_json"],
        "identities.point_us.p50": statistics.median(ident_us) if ident_us else 0.0,
        "identities.point_us.p99": quantile_low(ident_us, 0.99) if ident_us else 0.0,
        "quad.self_s": self_s["quad.integrate_semi_infinite"],
        "specfun.hyp_pfq.self_s": sum(self_s[n] for n in SERIES),
        "roots.g_function.self_s": self_s["roots.g_function"],
    }
    for f in ("gamma", "lower_incomplete_gamma", "parabolic_cylinder_d"):
        times[f"specfun.{f}.self_s"] = self_s[f"specfun.{f}"]
    for cid in IDENTITY_IDS:
        ts = by_check.get(cid, ())
        times[f"identities.{cid}.us_per_point"] = 1e6 * sum(ts) / len(ts) if ts else 0.0
    for j in INTEGRAL_IDS:
        ts = by_check.get(j, ())
        times[f"quad.{j}.ms_per_point"] = 1e3 * sum(ts) / len(ts) if ts else 0.0
    derived = {
        "cli.report_bytes": c["cli.report_bytes"],
        "cli.points": calls["cli.eval_check_point"],
        "quad.calls": calls["quad.integrate_semi_infinite"],
        "quad.evaluations": sum(c[f"quad.{j}.evaluations"] for j in INTEGRAL_IDS),
        "specfun.hyp_pfq.calls": sum(calls[n] for n in SERIES),
        "specfun.series_terms": c["specfun.series_terms"],
        "specfun.unconverged_ratio": c["specfun.unconverged"] / c["specfun.series_results"]
        if c["specfun.series_results"] else 0.0,
        "roots.g_function.calls": calls["roots.g_function"],
        **{f"specfun.{f}.calls": calls[f"specfun.{f}"]
           for f in ("gamma", "lower_incomplete_gamma", "parabolic_cylinder_d")},
    }
    for j in INTEGRAL_IDS:
        n = len(by_check.get(j, ()))
        derived[f"quad.{j}.evals_per_point"] = c[f"quad.{j}.evaluations"] / n if n else 0.0
    return times, derived, counts


def measure_layers(invs, seconds, details, tally, workload, seed):
    """Return {metric: (value, samples)} of the traced per-layer run."""
    t_start = time.perf_counter()
    import_s = [float(out) for _, out in cold_starts(["-c", _IMPORT_PROBE], IMPORT_SAMPLES)]

    # in-process passes at --jobs 1: untraced and traced alternate
    reference = None
    plain, traced, tracers = [], [], []
    for _ in range(2):
        wall, reports = _in_process_pass(invs, "plain")
        plain.append(wall)
        for _, path, _ in reports:
            path.unlink(missing_ok=True)
        tracer = Tracer()
        wall, reports = _in_process_pass(invs, "traced", tracer)
        traced.append(wall)
        tracers.append(tracer)
        digests = {}
        for inv, path, rc in reports:
            digests[inv.name] = check_report(inv, path, rc, tally)[0]
            path.unlink(missing_ok=True)
        if reference is None:
            reference = digests
        else:
            compare_digests(reference, digests, invs, tally)
    lhs_s, rhs_s = _time_sides(tracers[0].identity_points)

    # CLI passes at --jobs 1 and at the default --jobs, for the pool speed-up;
    # every report must match the in-process reports digest for digest
    serial, pooled, margins = [], [], None
    deadline = t_start + seconds
    while not serial or time.perf_counter() < deadline:
        for extra, walls in ((("--jobs", "1"), serial), ((), pooled)):
            p = run_pass(invs, "layers", tally, extra, want_margins=margins is None)
            if margins is None:
                margins = p.margins or [math.nan]
            walls.append(p.wall)
            compare_digests(reference, p.digests, invs, tally)

    runs = [_layer_values(t) for t in tracers]
    counts_repeat = runs[0][2] == runs[1][2]
    if not counts_repeat:
        diff = sorted(k for k in runs[0][2].keys() | runs[1][2].keys()
                      if runs[0][2].get(k) != runs[1][2].get(k))
        tally.breaks(f"traced counts differ between passes: {diff}")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracers[0].write_spans(spans_path)

    n_traced = len(tracers)
    metrics = {k: (statistics.mean(r[0][k] for r in runs), n_traced) for k in runs[0][0]}
    metrics.update({k: (v, n_traced) for k, v in runs[0][1].items()})
    metrics.update({
        "cli.import_s": (statistics.median(import_s), len(import_s)),
        "cli.pool_speedup": (statistics.median(serial) / statistics.median(pooled),
                             min(len(serial), len(pooled))),
        "identities.lhs_s": (lhs_s, 1),
        "identities.rhs_s": (rhs_s, 1),
        "trace.overhead": (statistics.mean(traced) / statistics.mean(plain), n_traced),
        "check.worst_margin_decades": (min(margins), 1),
    })
    details.update(
        counts_repeat=counts_repeat,
        counts=runs[0][2],
        span_file=str(spans_path.relative_to(OUT.parent.parent)),
        spans=len(tracers[0].spans),
        samples={"cli.import_s": import_s, "serial_wall_s": serial, "pooled_wall_s": pooled,
                 "in_process_plain_s": plain, "in_process_traced_s": traced},
        report_digests=reference,
    )
    return metrics

