"""Seeded fuzz of the public evaluators and of every command over the whole
double range.

Each public evaluator of ``specfun`` and ``roots``, and each closed form
and integral of ``quad``, gets its own seed and is called on arguments
whose moduli are log-uniform from 1e-320 to 1e308, or, for a third of the
draws, from 1 to 1e3 (the moderate band, where most code paths branch),
with random phases (a quarter of the draws real); an integer argument has
a random sign and a log-uniform size up to 1e3 or, as often, up to 1e308;
an integral's tolerance is log-uniform from 1e-10 to 1e-2.  Each call
must return a finite value or raise a :class:`TrihypError` within 2 s.
Each command is run on such arguments as well, and must print finite
values or one ``error:`` line, with exit code 0 to 3.  The calls run in a
subprocess with a timeout, so that a call that hangs fails its test and
names itself.
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import trihyp

SECONDS = 2.0  # the time bound of one call

# argument kinds: c complex, i integer, C a list of two complex, P a tuple of
# up to two complex, T a TrinomialInstance (integer degree, complex t), t a
# quadrature tolerance
EVALUATORS = {
    "specfun.gamma": "c",
    "specfun.rgamma": "c",
    "specfun.pochhammer": "ci",
    "specfun.hyp_pfq": "CCc",
    "specfun.hyp_pfq_regularized": "CCc",
    "specfun.hyp0f1": "cc",
    "specfun.hyp1f1": "ccc",
    "specfun.hyp2f1": "cccc",
    "specfun.hyp3f2": "cccccc",
    "specfun.gauss_sum_2f1": "ccc",
    "specfun.whipple_sum_3f2": "ccc",
    "specfun.lower_incomplete_gamma": "cc",
    "specfun.lower_incomplete_gamma_over_power": "cc",
    "specfun.incomplete_beta": "ccc",
    "specfun.legendre_p": "ccc",
    "specfun.legendre_polynomial": "ic",
    "specfun.parabolic_cylinder_d": "cc",
    "specfun.bell_polynomial": "iiC",
    "roots.series_argument": "ic",
    "roots.root_hypergeometric": "T",
    "roots.root_lagrange_partial": "Ti",
    "roots.lagrange_coefficient": "ii",
    "roots.quadratic_roots": "c",
    "roots.quartic_roots": "ccc",
    "roots.descartes_factorization": "ccc",
    "roots.g_function": "c",
    "roots.residual": "Tc",
    "roots.trinomial_closed_roots": "ic",
    "quad.laplace_closed_form": "PPccc",
    "quad.j1_closed_form": "icc",
    "quad.j2_closed_form": "icc",
    "quad.j3_closed_form": "cc",
    "quad.laplace_integral": "PPccct",
    "quad.j1_integral": "icct",
    "quad.j2_integral": "icct",
    "quad.j3_integral": "cct",
}
CALLS = 400  # per evaluator
QUAD_CALLS = 60  # per integral, each a quadrature of up to thousands of evaluations
COUNTS = {name: QUAD_CALLS if name.endswith("_integral") else CALLS for name in EVALUATORS}

# The child draws the arguments from each name's own seed, calls, and writes
# one JSON line per call as it ends: a call that hangs is the one after the
# last line.  "ok", "trihyp" (a TrihypError), or what else came back.
_CHILD = """
import cmath, json, math, sys, time
from random import Random
from trihyp import quad, roots, specfun
from trihyp.errors import TrihypError

def draw(rng, kind):
    if kind == "c":
        low, high = (0.0, 3.0) if rng.random() < 1.0 / 3.0 else (-320.0, 308.0)
        m = 10.0 ** rng.uniform(low, high)
        if rng.random() < 0.25:
            return complex(rng.choice((m, -m)))
        return m * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    if kind == "i":
        top = rng.choice((3.0, 308.0))
        return rng.choice((1, -1)) * int(10.0 ** rng.uniform(0.0, top))
    if kind == "C":
        return [draw(rng, "c"), draw(rng, "c")]
    if kind == "P":
        return tuple(draw(rng, "c") for _ in range(rng.randint(0, 2)))
    if kind == "t":
        return 10.0 ** rng.uniform(-10.0, -2.0)
    return roots.TrinomialInstance(abs(draw(rng, "i")) + 1, draw(rng, "c"))

def finite(v):
    if isinstance(v, tuple):
        return all(map(finite, v))
    return isinstance(v, int) or cmath.isfinite(v)  # an int is exact at any size

modules = {"specfun": specfun, "roots": roots, "quad": quad}
for name, kinds, count in json.load(sys.stdin):
    module, attr = name.split(".")
    fn = getattr(modules[module], attr)
    rng = Random(f"fuzz:{name}")
    for index in range(count):
        args = [draw(rng, k) for k in kinds]
        start = time.perf_counter()
        try:
            value = fn(*args)
            if hasattr(value, "value"):  # a SeriesResult
                value = value.value
            outcome = "ok" if finite(value) else f"not finite: {value}"
        except TrihypError:
            outcome = "trihyp"
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        print(json.dumps([name, repr(args), outcome, time.perf_counter() - start]), flush=True)
"""


def _env():
    src = str(Path(trihyp.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _run_child(code, payload, timeout, cwd=None):
    """The JSON lines of a child run, and the line of the call that did not
    return within ``timeout`` (None when every call did)."""
    try:
        proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(payload), cwd=cwd,
                              env=_env(), capture_output=True, text=True, timeout=timeout)
        out, hung = proc.stdout, None
    except subprocess.TimeoutExpired as exc:
        out = (exc.stdout or b"").decode()
        hung = out.count("\n")
    return [json.loads(line) for line in out.splitlines()], hung


@pytest.fixture(scope="module")
def evaluator_calls():
    """{name: [(args, outcome, seconds)]} of every evaluator's calls."""
    payload = [[name, kinds, COUNTS[name]] for name, kinds in EVALUATORS.items()]
    lines, hung = _run_child(_CHILD, payload, 120)
    calls = {name: [] for name in EVALUATORS}
    for name, args, outcome, seconds in lines:
        calls[name].append((args, outcome, seconds))
    if hung is not None:
        name = next(name for name in EVALUATORS if len(calls[name]) < COUNTS[name])
        calls[name].append(("call %d" % len(calls[name]), "did not return", math.inf))
    return calls


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_evaluator_gives_a_finite_value_or_an_error(name, evaluator_calls):
    calls = evaluator_calls[name]
    assert len(calls) >= COUNTS[name], f"{name} was not run to the end"
    bad = [(args, outcome) for args, outcome, _ in calls if outcome not in ("ok", "trihyp")]
    assert bad == [], f"{len(bad)} of {COUNTS[name]}: {bad[:3]}"
    assert [(args, s) for args, _, s in calls if s >= SECONDS] == []


COMMANDS = ("eval", "roots", "integrate", "check")
COMMAND_CALLS = 60  # per command

# Runs each command on seeded argument lists through cli.main, one JSON line
# per call: [command, argv, exit code, stdout,
# stderr, seconds].  Numbers are drawn as in _CHILD; flags take their value
# after "=" and positionals follow "--", so that argparse reads a negative
# number as a value.
_CLI_CHILD = _CHILD[:_CHILD.index("def finite")] + """
import contextlib, io
from trihyp import cli
from trihyp.identities import list_identities

def number(rng, integer=False):
    v = draw(rng, "i" if integer else "c")
    if isinstance(v, int) or v.imag == 0.0:
        return repr(v if isinstance(v, int) else v.real)
    return f"{v.real!r}{v.imag:+}i"

def argv(command, rng):
    if command == "eval":
        name = rng.choice(sorted(cli._EVAL_REGISTRY))
        arity = cli._EVAL_REGISTRY[name][1]
        count = arity if arity > 0 else 1 - arity
        return ["eval", name, "--", *(number(rng, rng.random() < 0.25) for _ in range(count))]
    if command == "roots":
        return ["roots", "--", number(rng, True), number(rng), rng.choice(("series", "closed", "both"))]
    if command == "integrate":
        cid = rng.choice(("J1", "J2", "J3"))
        desc = [d for d in list_identities() if d.id == cid][0]
        return ["integrate", cid, *(f"--{s.name}={number(rng, s.kind == 'int')}" for s in desc.params)]
    desc = rng.choice(list_identities())
    grid = [f"--grid={s.name}:{number(rng, s.kind == 'int')}"
            for s in desc.params if s.kind != "complex_tuple"]
    return ["check", "--ids", desc.id, *grid, "--out", "r.json"]

for command, count in json.load(sys.stdin):
    rng = Random(f"fuzz:cli:{command}")
    for _ in range(count):
        args = argv(command, rng)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        except BaseException as exc:
            code = f"{type(exc).__name__}: {exc}"
        print(json.dumps([command, args, code, out.getvalue(), err.getvalue(),
                          time.perf_counter() - start]), flush=True)
"""


@pytest.fixture(scope="module")
def command_calls(tmp_path_factory):
    """{command: [(argv, code, stdout, stderr, seconds)]} of every command's
    calls, run in a scratch directory (``check`` writes its report there)."""
    payload = [[command, COMMAND_CALLS] for command in COMMANDS]
    lines, hung = _run_child(_CLI_CHILD, payload, 120, tmp_path_factory.mktemp("commands"))
    calls = {command: [] for command in COMMANDS}
    for command, *rest in lines:
        calls[command].append(rest)
    if hung is not None:
        command = COMMANDS[hung // COMMAND_CALLS]
        calls[command].append([f"call {hung % COMMAND_CALLS}", "did not return", "", "", math.inf])
    return calls


@pytest.mark.parametrize("command", COMMANDS)
def test_command_prints_finite_values_or_one_error_line(command, command_calls):
    calls = command_calls[command]
    assert len(calls) >= COMMAND_CALLS, f"{command} was not run to the end"
    for args, code, out, err, seconds in calls:
        call = " ".join(map(str, args))
        assert seconds < SECONDS, call
        if code in (0, 1):
            assert err == "" and "nan" not in out and "inf" not in out, (call, out, err)
            assert code == 0 or command in ("check", "integrate"), (call, code)
        else:
            assert code in (2, 3), (call, code, err)
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (call, err)
