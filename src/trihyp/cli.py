"""Command-line front end.

Subcommands: ``eval`` (call a special-function evaluator), ``roots``
(solve x^n - x + t = 0 by series and/or closed form), ``check`` (sweep
the identity and integral catalogs with a differential checker, from
flags or a JSON config file) and ``integrate`` (one-off semi-infinite
quadratures).

Exit codes: 0 all pass, 1 check failures, 2 usage error, 3 domain
error, 4 I/O error, 141 (128 + SIGPIPE, as a tool the signal stops
reports) when the reader of standard output closes it early, as
``| head -0`` does.  Subcommands raise; :func:`main` alone turns an
error into its ``error:`` line and exit code.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import gc
import io
import json
import math
import os
import sys
import time
from typing import NamedTuple

from . import __version__
from .errors import DomainError, TrihypError
from .identities import (
    CheckRecord,
    DEFAULT_SEED,
    check_point,
    coerce_params,
    default_grid,
    eval_identity,
    get_identity,
    list_identities,
)
from .quad import integrate_semi_infinite
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
EXIT_BROKEN_PIPE = 141


class _CliError(Exception):
    """A bad command line or config file (exit 2, or ``code``); :func:`main`
    prints it as the ``error:`` line."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' / bare real / 'bi' (whitespace-free); a
    non-finite value (nan, inf) is a ValueError."""
    tok = text.strip()
    if not tok:
        raise ValueError("empty number")
    if not tok.endswith("i"):
        value = complex(float(tok), 0.0)
    else:
        value = complex(tok[:-1] + "j")
    if not cmath.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _parse(convert, text, prefix: str = ""):
    """``convert(text)``, with a ValueError turned into a usage error."""
    try:
        return convert(text)
    except ValueError as exc:
        raise _CliError(f"{prefix}{exc}") from None


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


class SweepConfig(NamedTuple):
    identity_ids: tuple = ()  # empty means every catalog entry
    grid: dict | None = None  # per-parameter {min,max,count} or explicit list
    tolerance: float | None = None  # None: per-id defaults
    seed: int = DEFAULT_SEED
    output_format: str = "json"
    output_path: str = "trihyp-report.json"

    def resolved_ids(self) -> list:
        """The ids to run; an unknown one raises DomainError when the sweep
        looks it up."""
        return list(self.identity_ids) or [d.id for d in list_identities()]


class Report(NamedTuple):
    tool_version: str
    config_echo: dict
    records: tuple
    summary: dict
    wall_time_ms: int


def _grid_param_values(name: str, spec) -> list:
    if isinstance(spec, dict):
        lo, hi, count = float(spec["min"]), float(spec["max"]), int(spec["count"])
        if count < 1:
            raise DomainError(f"grid for {name}: count must be >= 1")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"grid for {name}: non-finite range {lo}..{hi}")
        if count == 1:
            return [lo]
        step = (hi - lo) / (count - 1)
        return [lo + k * step for k in range(count)]
    try:
        values = [parse_complex(v) if isinstance(v, str) else v for v in spec]
    except ValueError as exc:
        raise DomainError(f"grid for {name}: {exc}") from None
    if not values:
        raise DomainError(f"grid for {name}: empty value list")
    for v in values:
        for x in v if isinstance(v, list) else [v]:
            if not cmath.isfinite(x):
                raise DomainError(f"grid for {name}: non-finite number {x}")
    return values


def sweep_points(check_id: str, config: SweepConfig) -> list:
    """Parameter points for one check id under the given config.  A point
    of an explicit grid is coerced here, so that a bad value raises
    :class:`DomainError` before any point is evaluated; a default grid is
    drawn inside its domain."""
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
        out.append(coerce_params(check_id, base))
    return out


def run_sweep(config: SweepConfig) -> Report:
    """Execute the configured sweep in this process and assemble the report.

    Every point is built, and an explicit grid's points coerced, before
    the first is evaluated, so a bad grid value raises
    :class:`DomainError` with no point evaluated.  Deterministic for a
    fixed config and seed: records are sorted by (check id, parameter
    tuple) before serialization.
    """
    t0 = time.perf_counter()
    todo = []
    for cid in config.resolved_ids():
        tol = config.tolerance if config.tolerance is not None else default_tolerance(cid)
        for params in sweep_points(cid, config):
            todo.append((cid, params, tol))
    records = [eval_check_point(*point) for point in todo]
    records.sort(key=_record_sort_key)
    summary = {"total": len(records), "pass": 0, "fail": 0,
               "skipped_domain": 0, "divergent_both": 0}
    for r in records:
        summary[r.verdict] += 1
    wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
    return Report(
        tool_version=__version__,
        config_echo=config._asdict(),
        records=tuple(records),
        summary=summary,
        wall_time_ms=wall_ms,
    )


def _complex_pair(v):
    """json's hook for a value it cannot write: a complex number is [re, im]."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


# a record's params in compact JSON with sorted keys, as its sort key and
# its CSV column hold them (json's C encoder, as no indent is set)
_params_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                default=_complex_pair).encode


def _record_sort_key(r: CheckRecord):
    return (r.identity_id, _params_json(r.params))


# --------------------------------------------------------------------------
# the JSON report: the bytes of json.dumps(doc, indent=2, sort_keys=True),
# written for the report's fixed layout (with ``indent`` set, json always
# takes its pure-Python encoder)
# --------------------------------------------------------------------------

_string = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(x) -> str:
    """A number as json writes it: a float by its repr, or as NaN,
    Infinity or -Infinity."""
    if isinstance(x, float):
        text = float.__repr__(x)
        return _FLOAT_WORDS.get(text, text)
    return _json_value(x, "")


def _json_value(v, pad: str) -> str:
    """``v`` as json.dumps(v, indent=2, sort_keys=True) writes it at the
    nesting whose indent is ``pad``; a complex number is [re, im]."""
    inner = pad + "  "
    if isinstance(v, complex):
        return f"[\n{inner}{_number(v.real)},\n{inner}{_number(v.imag)}\n{pad}]"
    if isinstance(v, str):
        return _string(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _number(v)
    if isinstance(v, dict):
        items = [f"{inner}{_string(k)}: {_json_value(x, inner)}" for k, x in sorted(v.items())]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if isinstance(v, (list, tuple)):
        items = [inner + _json_value(x, inner) for x in v]
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _side_json(v) -> str:
    """A record's side: null, or [re, im] at the record's key indent."""
    if v is None:
        return "null"
    return f"[\n        {_number(v.real)},\n        {_number(v.imag)}\n      ]"


def _error_json(x) -> str:
    return "null" if x != x else _number(x)  # a NaN error is null


def _record_json(r: CheckRecord) -> str:
    return (
        f'    {{\n      "abs_err": {_error_json(r.abs_err)},\n'
        f'      "identity_id": {_string(r.identity_id)},\n'
        f'      "lhs": {_side_json(r.lhs_value)},\n'
        f'      "params": {_json_value(r.params, "      ")},\n'
        f'      "rel_err": {_error_json(r.rel_err)},\n'
        f'      "rhs": {_side_json(r.rhs_value)},\n'
        f'      "verdict": {_string(r.verdict)}\n    }}'
    )


def report_to_json(report: Report) -> str:
    records = ",\n".join(map(_record_json, report.records))
    records = f"[\n{records}\n  ]" if records else "[]"
    return (
        f'{{\n  "config": {_json_value(report.config_echo, "  ")},\n'
        f'  "records": {records},\n'
        f'  "summary": {_json_value(report.summary, "  ")},\n'
        f'  "version": {_string(report.tool_version)},\n'
        f'  "wall_time_ms": {_json_value(report.wall_time_ms, "  ")}\n}}\n'
    )


def report_to_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["identity_id", "params", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
         "abs_err", "rel_err", "verdict"]
    )
    for r in report.records:
        lv, rv = r.lhs_value, r.rhs_value
        writer.writerow([
            r.identity_id,
            _params_json(r.params),
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

def _pfq_entry(name: str, p: int, q: int, evaluate=sf.hyp_pfq):
    """The ``eval`` entry of a pFq taking its p upper, q lower parameters
    and z, summed to the library's one stop rule: rounding still costs a
    sum about 1e-16 times its largest term over its value, so
    :class:`DomainError` is raised where the terms cancel by more than 8
    digits, also to exactly 0 (2F1(-1, 1; 1; 1))."""

    def run(*args):
        return sf._kept_digits(evaluate(args[:p], args[p:p + q], args[-1]), name)

    return run, p + q + 1


def _integer(x: complex, what: str) -> int:
    """An ``eval`` argument that must be an integer; any other value is a
    :class:`DomainError`."""
    n = round(x.real)
    if x.imag or n != x.real:
        raise DomainError(f"{what} must be an integer, got {format_value(x)}")
    return n


_EVAL_REGISTRY = {
    # name: (callable, number of arguments; -m: at least m)
    "gamma": (sf.gamma, 1),
    "rgamma": (sf.rgamma, 1),
    "pochhammer": (lambda a, k: sf.pochhammer(a, _integer(k, "pochhammer: k")), 2),
    "0f1": _pfq_entry("0f1", 0, 1),
    "1f1": _pfq_entry("1f1", 1, 1),
    "2f1": _pfq_entry("2f1", 2, 1),
    "2f1_reg": _pfq_entry("2f1_reg", 2, 1, sf.hyp_pfq_regularized),
    "3f2": _pfq_entry("3f2", 3, 2),
    "gamma_lower": (sf.lower_incomplete_gamma, 2),
    "beta_inc": (sf.incomplete_beta, 3),
    "legendre_p": (sf.legendre_p, 3),
    "legendre_poly": (lambda n, x: sf.legendre_polynomial(_integer(n, "legendre_poly: n"), x), 2),
    "pcd": (sf.parabolic_cylinder_d, 2),
    "bell": (
        lambda n, k, *xs: sf.bell_polynomial(_integer(n, "bell: n"), _integer(k, "bell: k"), xs),
        -2,
    ),
}


def _cmd_eval(args) -> int:
    name = args.function
    if name not in _EVAL_REGISTRY:
        raise _CliError(f"unknown function {name!r}; known: {', '.join(sorted(_EVAL_REGISTRY))}")
    fn, arity = _EVAL_REGISTRY[name]
    values = [_parse(parse_complex, a, "bad numeric argument: ") for a in args.args]
    if len(values) != arity and not 0 > arity >= -len(values):
        wanted = arity if arity >= 0 else f"at least {-arity}"
        raise _CliError(f"{name} takes {wanted} arguments, got {len(values)}")
    print(format_value(fn(*values)))
    return EXIT_OK


def _cmd_roots(args) -> int:
    n, t = args.n, _parse(parse_complex, args.t, "bad t: ")
    inst = TrinomialInstance(n, t)
    # both routes run before anything is printed, so an error prints alone
    series_value = root_hypergeometric(inst) if args.method != "closed" else None
    rs = trinomial_closed_roots(n, t) if args.method != "series" else None
    if series_value is not None:
        print(f"series root: {format_value(series_value)}  "
              f"residual = {residual(inst, series_value):.3e}")
    if rs is not None:
        for i, (root, res) in enumerate(zip(rs.roots, rs.residuals), start=1):
            print(f"closed root {i}: {format_value(root)}  residual = {res:.3e}")
        if series_value is not None:
            dev = min(abs(r - series_value) for r in rs.roots)
            print(f"series/closed deviation: {dev:.3e}")
    return EXIT_OK


def _parse_grid_tokens(tokens) -> dict:
    grid = {}
    for tok in tokens:
        if ":" not in tok:
            raise _CliError(f"bad grid {tok!r}; expected name:min:max:count or name:v1,v2,...")
        name, rest = tok.split(":", 1)
        if "," in rest or ":" not in rest:
            grid[name] = [v for v in rest.split(",") if v]
        else:
            parts = rest.split(":")
            if len(parts) != 3:
                raise _CliError(f"bad grid {tok!r}")
            grid[name] = {"min": _parse(float, parts[0]), "max": _parse(float, parts[1]),
                          "count": _parse(int, parts[2])}
    return grid


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _CliError(str(exc)) from None
    if not isinstance(doc, dict):
        raise _CliError("config file must hold a JSON object")
    unknown = set(doc) - set(SweepConfig._fields)
    if unknown:
        raise _CliError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _is_number(v) -> bool:
    return type(v) in (int, float)


def _grid_spec_ok(spec) -> bool:
    """{"min", "max", "count"} with numbers and an integer count, or a list
    of numbers, number strings and lists of numbers (the values themselves
    are checked when the sweep builds its points)."""
    if isinstance(spec, dict):
        return (set(spec) == {"min", "max", "count"} and type(spec["count"]) is int
                and _is_number(spec["min"]) and _is_number(spec["max"]))
    return isinstance(spec, list) and all(
        _is_number(v) or isinstance(v, str) or isinstance(v, list) and all(map(_is_number, v))
        for v in spec)


# what each SweepConfig field of a command line must hold: (test, description)
_CONFIG_RULES = {
    "identity_ids": (lambda v: isinstance(v, (list, tuple)) and all(isinstance(c, str) for c in v),
                     "a list of check ids"),
    "grid": (lambda v: v is None or isinstance(v, dict) and all(map(_grid_spec_ok, v.values())),
             "an object mapping each parameter to {min, max, count} or a list of values"),
    "tolerance": (lambda v: v is None or _is_number(v) and 0 < v < math.inf,
                  "a positive finite number"),
    "seed": (lambda v: type(v) is int, "an integer"),
    "output_format": (lambda v: v in ("json", "csv"), "json or csv"),
    "output_path": (lambda v: isinstance(v, str), "a string"),
}


def _build_config(args) -> SweepConfig:
    """The config file, then the flags over it; a malformed value is a usage
    error."""
    base = _load_config_file(args.config) if args.config else {}
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
    cfg = SweepConfig(**base)
    for key, (ok, what) in _CONFIG_RULES.items():
        if not ok(getattr(cfg, key)):
            raise _CliError(f"{key} must be {what}, got {getattr(cfg, key)!r}")
    known = {d.id for d in list_identities()}
    for cid in cfg.identity_ids:
        if cid not in known:
            raise _CliError(f"unknown check id {cid!r}")
    return cfg._replace(identity_ids=tuple(cfg.identity_ids))


def _cmd_check(args) -> int:
    config = _build_config(args)
    report = run_sweep(config)
    text = report_to_json(report) if config.output_format == "json" else report_to_csv(report)
    try:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write report: {exc}", EXIT_IO) from None
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


# the catalog parameters `integrate` takes as --name flags
_INTEGRATE_FLAGS = ("n", "s", "p", "x")


def _custom_integrand(expr: str):
    """f(t) of a custom integrand.  A malformed expression, one naming
    anything but t and the names of ``_CUSTOM_ENV``, or one that fails at a
    node other than by overflow (such as log(0)) is a usage error."""
    try:
        code = compile(expr, "<integrand>", "eval")
    except SyntaxError as exc:
        raise _CliError(f"bad integrand: {exc}") from None
    unknown = sorted(set(code.co_names) - set(_CUSTOM_ENV) - {"t"})
    if unknown:
        raise _CliError(f"bad integrand: unknown names {', '.join(unknown)}; "
                        f"known: t, {', '.join(sorted(_CUSTOM_ENV))}")

    def f(t):
        try:
            return complex(eval(code, {"__builtins__": {}}, dict(_CUSTOM_ENV, t=t)))
        except OverflowError:
            raise DomainError(f"integrand overflows at t = {t:.6g}") from None
        except Exception as exc:
            raise _CliError(str(exc)) from None

    return f


def _cmd_integrate(args) -> int:
    # argparse's float takes inf and nan
    for flag in ("tol", "sigma", "decay"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise _CliError(f"--{flag}: non-finite number {value}")
    if args.integrand == "custom":
        if not args.expr:
            raise _CliError("custom integration needs an expression")
        res = integrate_semi_infinite(_custom_integrand(args.expr), args.tol,
                                      args.sigma, args.decay)
        print(f"value = {format_value(res.value)}")
        print(f"est_error = {res.est_error:.3e}  evaluations = {res.evaluations}")
        return EXIT_OK
    integrals = {d.id: d for d in list_identities() if d.quadrature}
    if args.integrand not in integrals:
        raise _CliError(f"unknown integrand {args.integrand!r}")
    desc = integrals[args.integrand]
    unflagged = [spec.name for spec in desc.params if spec.name not in _INTEGRATE_FLAGS]
    if unflagged:
        raise _CliError(f"integrate has no flag for the {desc.id} parameters "
                        f"{', '.join(unflagged)}; run `trihyp check --ids {desc.id}` "
                        f"(default grid) or add `--config FILE` for chosen points")
    params = {key: _parse(parse_complex, getattr(args, key)) for key in _INTEGRATE_FLAGS
              if getattr(args, key) is not None}
    for spec in desc.params:
        if spec.name not in params:
            raise _CliError(f"missing parameter --{spec.name}")
    rec = check_point(args.integrand, params, args.tol)
    # a side without a value diverged, or its series or quadrature did not converge
    for label, v in (("quadrature ", rec.lhs_value), ("closed form", rec.rhs_value)):
        print(f"{label} = {'none' if v is None else format_value(v)}")
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

    p_check = sub.add_parser("check", help="run differential checks")
    p_check.add_argument("--config", help="JSON config file (SweepConfig shape)")
    p_check.add_argument("--ids", action="append",
                         help="comma-separated check ids (default: all)")
    p_check.add_argument("--grid", action="append",
                         help="parameter grid name:min:max:count or name:v1,v2,...")
    p_check.add_argument("--tol", type=float,
                         help="relative tolerance for every check (default: per check)")
    p_check.add_argument("--seed", type=int, help="sampling seed")
    p_check.add_argument("--jobs", type=int,
                         help="ignored: the sweep runs in the trihyp process")
    p_check.add_argument("--format", choices=["json", "csv"], help="report format")
    p_check.add_argument("--out", help="report path")
    p_check.set_defaults(fn=_cmd_check)

    p_int = sub.add_parser("integrate", help="semi-infinite quadrature")
    p_int.add_argument("integrand", help="an integral id of the catalog, or custom")
    p_int.add_argument("expr", nargs="?", help="expression in t for custom")
    for key in _INTEGRATE_FLAGS:
        p_int.add_argument(f"--{key}", help="integer parameter" if key == "n" else "complex parameter")
    p_int.add_argument("--tol", type=float, default=1e-6,
                       help="relative tolerance (default 1e-6); an integral that "
                       "is exactly 0 cannot meet it and exits 3")
    p_int.add_argument("--sigma", type=float, default=0.0,
                       help="endpoint singularity exponent for custom")
    p_int.add_argument("--decay", type=float, default=1.0,
                       help="exponential decay rate for custom (0 = algebraic)")
    p_int.set_defaults(fn=_cmd_integrate)
    return ap


def main(argv=None) -> int:
    if argv is None:
        # the process entry point: move the import-time heap out of the
        # collector's reach, so that no collection during the sweep
        # traverses it and the exit collection skips it
        gc.freeze()
    args = build_parser().parse_args(argv)
    # the one place an error becomes its message and exit code
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit's flush
        return code
    except (_CliError, TrihypError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, _CliError) else EXIT_DOMAIN
    except BrokenPipeError:
        # the reader went away: what is left of the output goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
