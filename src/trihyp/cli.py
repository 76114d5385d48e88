"""Command-line front end.

Subcommands: ``eval`` (call a special-function evaluator), ``roots``
(solve x^n - x + t = 0 by series and/or closed form), ``check`` (sweep
the identity and integral catalogs with a differential checker),
``sweep`` (check driven by a JSON config file) and ``integrate``
(one-off semi-infinite quadratures).

Exit codes: 0 all pass, 1 check failures, 2 usage error, 3 domain
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import __version__
from .errors import DomainError, TrihypError
from .identities import (
    CheckRecord,
    DEFAULT_SEED,
    check_point,
    default_grid,
    eval_identity,
    get_identity,
    list_identities,
)
from .quad import IntegralSpec, integrate_semi_infinite
from .roots import (
    TrinomialInstance,
    residual,
    root_hypergeometric,
    trinomial_closed_roots,
)
from . import specfun as sf

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' / bare real / 'bi' (whitespace-free)."""
    tok = text.strip()
    if not tok:
        raise ValueError("empty number")
    if not tok.endswith("i"):
        return complex(float(tok), 0.0)
    body = tok[:-1]
    # split into real part and signed imaginary coefficient
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            re_part, im_part = body[:k], body[k:]
            break
    else:
        re_part, im_part = "", body
    if im_part in ("", "+"):
        im = 1.0
    elif im_part == "-":
        im = -1.0
    else:
        im = float(im_part)
    return complex(float(re_part) if re_part else 0.0, im)


def format_value(z) -> str:
    """15 significant digits; complex as 're+imi'."""
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.15g}"
    return f"{z.real:.15g}{z.imag:+.15g}i"


def default_tolerance(check_id: str) -> float:
    return get_identity(check_id).tolerance


# kept as a named per-point entry for the benchmark tracer (bench/tracing.py)
def eval_check_point(check_id: str, params: dict, tol: float) -> CheckRecord:
    return eval_identity(check_id, params, tol)


# --------------------------------------------------------------------------
# sweep configuration and report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    identity_ids: tuple = ()  # empty means every catalog entry
    grid: dict | None = None  # per-parameter {min,max,count} or explicit list
    tolerance: float | None = None  # None: per-id defaults
    seed: int = DEFAULT_SEED
    output_format: str = "json"
    output_path: str = "trihyp-report.json"

    def resolved_ids(self) -> list:
        # quadrature entries last: the pool cuts the work into equal-count
        # chunks in order, and in id order all the costly default integral
        # points fall into one chunk (the default sweep then ran ~30% slower
        # at --jobs 2 on a 2-CPU machine)
        known = [d.id for d in sorted(list_identities(), key=lambda d: d.quadrature)]
        if not self.identity_ids:
            return known
        for cid in self.identity_ids:
            if cid not in known:
                raise DomainError(f"unknown check id {cid!r}")
        return list(self.identity_ids)


@dataclass(frozen=True)
class Report:
    tool_version: str
    config_echo: dict
    records: tuple
    summary: dict
    wall_time_ms: int


def _grid_param_values(name: str, spec) -> list:
    if isinstance(spec, dict):
        lo, hi, count = spec["min"], spec["max"], int(spec["count"])
        if count < 1:
            raise DomainError(f"grid for {name}: count must be >= 1")
        if count == 1:
            return [float(lo)]
        step = (float(hi) - float(lo)) / (count - 1)
        return [float(lo) + k * step for k in range(count)]
    values = []
    for v in spec:
        values.append(parse_complex(v) if isinstance(v, str) else v)
    if not values:
        raise DomainError(f"grid for {name}: empty value list")
    return values


def sweep_points(check_id: str, config: SweepConfig) -> list:
    """Parameter points for one check id under the given config."""
    if not config.grid:
        return default_grid(check_id, seed=config.seed)
    names = sorted(config.grid)
    columns = [_grid_param_values(n, config.grid[n]) for n in names]
    points = [{}]
    for name, values in zip(names, columns):
        points = [dict(p, **{name: v}) for v in values for p in points]
    # parameters not covered by the explicit grid fall back to the
    # default-grid values for this id, cycling by point index
    fallback = default_grid(check_id, seed=config.seed)
    out = []
    for i, p in enumerate(points):
        base = dict(fallback[i % len(fallback)])
        base.update(p)
        out.append(base)
    return out


def run_sweep(config: SweepConfig, jobs: int | None = None) -> Report:
    """Execute the configured sweep and assemble the report.

    Deterministic for a fixed config and seed: records are sorted by
    (check id, parameter tuple) before serialization, so worker-pool
    scheduling never changes the output.
    """
    t0 = time.perf_counter()
    todo = []
    for cid in config.resolved_ids():
        tol = config.tolerance if config.tolerance is not None else default_tolerance(cid)
        for params in sweep_points(cid, config):
            todo.append((cid, params, tol))
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs > 1 and len(todo) > 8:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(eval_check_point, *zip(*todo),
                                    chunksize=max(1, len(todo) // (4 * jobs))))
    else:
        records = [eval_check_point(*job) for job in todo]
    records.sort(key=_record_sort_key)
    summary = {"total": len(records), "pass": 0, "fail": 0,
               "skipped_domain": 0, "divergent_both": 0}
    for r in records:
        summary[r.verdict] += 1
    wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
    return Report(
        tool_version=__version__,
        config_echo=_config_echo(config),
        records=tuple(records),
        summary=summary,
        wall_time_ms=wall_ms,
    )


def _config_echo(config: SweepConfig) -> dict:
    return {
        "identity_ids": list(config.identity_ids),
        "grid": config.grid,
        "tolerance": config.tolerance,
        "seed": config.seed,
        "output_format": config.output_format,
        "output_path": config.output_path,
    }


def _serialize_value(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (tuple, list)):
        return [_serialize_value(x) for x in v]
    return v


def _serialize_params(params: dict) -> dict:
    return {k: _serialize_value(v) for k, v in sorted(params.items())}


def _record_sort_key(r: CheckRecord):
    return (r.identity_id, json.dumps(_serialize_params(r.params), sort_keys=True))


def _record_to_json(r: CheckRecord) -> dict:
    def cval(v):
        return None if v is None else [v.real, v.imag]

    def fval(v):
        return None if v != v else v  # NaN becomes null

    return {
        "identity_id": r.identity_id,
        "params": _serialize_params(r.params),
        "lhs": cval(r.lhs_value),
        "rhs": cval(r.rhs_value),
        "abs_err": fval(r.abs_err),
        "rel_err": fval(r.rel_err),
        "verdict": r.verdict,
    }


def report_to_json(report: Report) -> str:
    doc = {
        "version": report.tool_version,
        "config": report.config_echo,
        "records": [_record_to_json(r) for r in report.records],
        "summary": report.summary,
        "wall_time_ms": report.wall_time_ms,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["identity_id", "params", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
         "abs_err", "rel_err", "verdict"]
    )
    for r in report.records:
        params = json.dumps(_serialize_params(r.params), sort_keys=True,
                            separators=(",", ":"))
        lv, rv = r.lhs_value, r.rhs_value
        writer.writerow([
            r.identity_id,
            params,
            "" if lv is None else repr(lv.real),
            "" if lv is None else repr(lv.imag),
            "" if rv is None else repr(rv.real),
            "" if rv is None else repr(rv.imag),
            repr(r.abs_err),
            repr(r.rel_err),
            r.verdict,
        ])
    return buf.getvalue()


# --------------------------------------------------------------------------
# subcommand implementations
# --------------------------------------------------------------------------

# series evaluations behind the CLI run at a tighter truncation than the
# library default so all 15 printed digits are trustworthy
_CLI_CONTROL = sf.SeriesControl(rel_tol=5e-16, max_terms=100_000, consecutive_small=4)

_EVAL_REGISTRY = {
    # name: (callable, number of arguments; -1 = variadic)
    "gamma": (lambda a: sf.gamma(a), 1),
    "rgamma": (lambda a: sf.rgamma(a), 1),
    "pochhammer": (lambda a, k: sf.pochhammer(a, int(k.real)), 2),
    "0f1": (lambda b, z: sf.hyp0f1(b, z, _CLI_CONTROL), 2),
    "1f1": (lambda a, b, z: sf.hyp1f1(a, b, z, _CLI_CONTROL), 3),
    "2f1": (lambda a, b, c, z: sf.hyp2f1(a, b, c, z, _CLI_CONTROL), 4),
    "2f1_reg": (
        lambda a, b, c, z: sf.hyp_pfq_regularized(
            sf.HypergeometricSpec.of((a, b), (c,), z), _CLI_CONTROL
        ).value,
        4,
    ),
    "3f2": (
        lambda a1, a2, a3, b1, b2, z: sf.hyp3f2(a1, a2, a3, b1, b2, z, _CLI_CONTROL),
        6,
    ),
    "gamma_lower": (lambda nu, z: sf.lower_incomplete_gamma(nu, z), 2),
    "beta_inc": (lambda nu, mu, t: sf.incomplete_beta(nu, mu, t), 3),
    "legendre_p": (lambda nu, mu, x: sf.legendre_p(nu, mu, x), 3),
    "legendre_poly": (lambda n, x: sf.legendre_polynomial(int(n.real), x), 2),
    "pcd": (lambda nu, z: sf.parabolic_cylinder_d(nu, z), 2),
    "bell": (
        lambda n, k, *xs: sf.bell_polynomial(int(n.real), int(k.real), xs),
        -1,
    ),
}


def _cmd_eval(args) -> int:
    name = args.function
    if name not in _EVAL_REGISTRY:
        print(f"error: unknown function {name!r}; known: "
              f"{', '.join(sorted(_EVAL_REGISTRY))}", file=sys.stderr)
        return EXIT_USAGE
    fn, arity = _EVAL_REGISTRY[name]
    try:
        values = [parse_complex(a) for a in args.args]
    except ValueError as exc:
        print(f"error: bad numeric argument: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if arity >= 0 and len(values) != arity:
        print(f"error: {name} takes {arity} arguments, got {len(values)}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        out = fn(*values)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(format_value(out))
    return EXIT_OK


def _cmd_roots(args) -> int:
    try:
        t = parse_complex(args.t)
    except ValueError as exc:
        print(f"error: bad t: {exc}", file=sys.stderr)
        return EXIT_USAGE
    n = args.n
    try:
        inst = TrinomialInstance(n, t)
        series_value = None
        if args.method in ("series", "both"):
            series_value = root_hypergeometric(inst)
            print(f"series root: {format_value(series_value)}  "
                  f"residual = {residual(inst, series_value):.3e}")
        if args.method in ("closed", "both"):
            rs = trinomial_closed_roots(n, t)
            for i, (root, res) in enumerate(zip(rs.roots, rs.residuals), start=1):
                print(f"closed root {i}: {format_value(root)}  residual = {res:.3e}")
            if series_value is not None:
                dev = min(abs(r - series_value) for r in rs.roots)
                print(f"series/closed deviation: {dev:.3e}")
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _parse_grid_tokens(tokens) -> dict:
    grid = {}
    for tok in tokens:
        if ":" not in tok:
            raise ValueError(f"bad grid {tok!r}; expected name:min:max:count or name:v1,v2,...")
        name, rest = tok.split(":", 1)
        if "," in rest or ":" not in rest:
            grid[name] = [v for v in rest.split(",") if v]
        else:
            parts = rest.split(":")
            if len(parts) != 3:
                raise ValueError(f"bad grid {tok!r}")
            grid[name] = {"min": float(parts[0]), "max": float(parts[1]),
                          "count": int(parts[2])}
    return grid


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    allowed = {"identity_ids", "grid", "tolerance", "seed",
               "output_format", "output_path"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _build_config(args) -> SweepConfig:
    base = {}
    if getattr(args, "config", None):
        base = _load_config_file(args.config)
    if args.ids is not None:
        base["identity_ids"] = [s for chunk in args.ids for s in chunk.split(",") if s]
    if args.grid:
        base["grid"] = _parse_grid_tokens(args.grid)
    if args.tol is not None:
        base["tolerance"] = args.tol
    if args.seed is not None:
        base["seed"] = args.seed
    if args.format is not None:
        base["output_format"] = args.format
    if args.out is not None:
        base["output_path"] = args.out
    cfg = SweepConfig(
        identity_ids=tuple(base.get("identity_ids", ())),
        grid=base.get("grid"),
        tolerance=base.get("tolerance"),
        seed=int(base.get("seed", DEFAULT_SEED)),
        output_format=base.get("output_format", "json"),
        output_path=base.get("output_path", "trihyp-report.json"),
    )
    if cfg.tolerance is not None and not cfg.tolerance > 0:
        raise ValueError("tolerance must be positive")
    if cfg.output_format not in ("json", "csv"):
        raise ValueError("output_format must be json or csv")
    return cfg


def _cmd_check(args) -> int:
    try:
        config = _build_config(args)
        config.resolved_ids()  # unknown ids are a usage error
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run_sweep(config, jobs=args.jobs)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    text = report_to_json(report) if config.output_format == "json" else report_to_csv(report)
    try:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    s = report.summary
    print(f"checks: total={s['total']} pass={s['pass']} fail={s['fail']} "
          f"skipped_domain={s['skipped_domain']} divergent_both={s['divergent_both']}")
    print(f"report written to {config.output_path}")
    return EXIT_OK if s["fail"] == 0 else EXIT_CHECK_FAILED


_CUSTOM_ENV = {
    "exp": cmath.exp, "sqrt": cmath.sqrt, "sin": cmath.sin, "cos": cmath.cos,
    "tan": cmath.tan, "log": cmath.log, "sinh": cmath.sinh, "cosh": cmath.cosh,
    "tanh": cmath.tanh, "pi": math.pi, "e": math.e, "abs": abs,
}


def _cmd_integrate(args) -> int:
    tol = args.tol
    try:
        if args.integrand == "custom":
            if not args.expr:
                print("error: custom integration needs an expression", file=sys.stderr)
                return EXIT_USAGE
            code = compile(args.expr, "<integrand>", "eval")

            def f(t):
                return complex(eval(code, {"__builtins__": {}}, dict(_CUSTOM_ENV, t=t)))

            spec = IntegralSpec("custom", {"expr": args.expr},
                                singular_exponent=args.sigma, decay_rate=args.decay,
                                integrand=f)
            res = integrate_semi_infinite(spec, tol)
            print(f"value = {format_value(res.value)}")
            print(f"est_error = {res.est_error:.3e}  evaluations = {res.evaluations}")
            return EXIT_OK
        integrals = {d.id: d for d in list_identities() if d.quadrature}
        if args.integrand not in integrals:
            print(f"error: unknown integrand {args.integrand!r}", file=sys.stderr)
            return EXIT_USAGE
        params = {key: parse_complex(getattr(args, key)) for key in ("n", "s", "x", "p")
                  if getattr(args, key) is not None}
        for spec in integrals[args.integrand].params:
            if spec.name not in params:
                print(f"error: missing parameter --{spec.name}", file=sys.stderr)
                return EXIT_USAGE
        rec = check_point(args.integrand, params, tol)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"quadrature  = {format_value(rec.lhs_value)}")
    print(f"closed form = {format_value(rec.rhs_value)}")
    print(f"abs_err = {rec.abs_err:.3e}  rel_err = {rec.rel_err:.3e}  "
          f"verdict = {rec.verdict}")
    return EXIT_OK if rec.verdict == "pass" else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trihyp",
        description="Hypergeometric trinomial roots and differentially "
        "tested special-function identities",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a special function")
    p_eval.add_argument("function")
    p_eval.add_argument("args", nargs="*")
    p_eval.set_defaults(fn=_cmd_eval)

    p_roots = sub.add_parser("roots", help="solve x^n - x + t = 0")
    p_roots.add_argument("n", type=int)
    p_roots.add_argument("t")
    p_roots.add_argument("method", choices=["series", "closed", "both"])
    p_roots.set_defaults(fn=_cmd_roots)

    for name, needs_config in (("check", False), ("sweep", True)):
        p = sub.add_parser(
            name,
            help="run differential checks"
            + (" from a JSON config file" if needs_config else ""),
        )
        if needs_config:
            p.add_argument("config", help="JSON config file (SweepConfig shape)")
        else:
            p.add_argument("--config", help="JSON config file (SweepConfig shape)")
        p.add_argument("--ids", action="append",
                       help="comma-separated check ids (default: all)")
        p.add_argument("--grid", action="append",
                       help="parameter grid name:min:max:count or name:v1,v2,...")
        p.add_argument("--tol", type=float, help="tolerance for every check")
        p.add_argument("--seed", type=int, help="sampling seed")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: machine parallelism)")
        p.add_argument("--format", choices=["json", "csv"], help="report format")
        p.add_argument("--out", help="report path")
        p.set_defaults(fn=_cmd_check)

    p_int = sub.add_parser("integrate", help="semi-infinite quadrature")
    p_int.add_argument("integrand", help="an integral id of the catalog, or custom")
    p_int.add_argument("expr", nargs="?", help="expression in t for custom")
    p_int.add_argument("--n", help="integer parameter")
    p_int.add_argument("--s", help="complex parameter")
    p_int.add_argument("--p", help="complex parameter")
    p_int.add_argument("--x", help="complex parameter")
    p_int.add_argument("--tol", type=float, default=1e-6)
    p_int.add_argument("--sigma", type=float, default=0.0,
                       help="endpoint singularity exponent for custom")
    p_int.add_argument("--decay", type=float, default=1.0,
                       help="exponential decay rate for custom (0 = algebraic)")
    p_int.set_defaults(fn=_cmd_integrate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TrihypError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
