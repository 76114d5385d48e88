"""The names the benchmark harness reaches into must keep resolving.

``bench/tracing.py`` rebinds every ``(module, function)`` pair of its
``TRACED`` table by name, and ``bench/run.py`` imports
``trihyp.cli.default_tolerance``.  The table is read with ``ast`` so
that the harness itself is never imported here.  The tracer's hooks
also read ``terms_used`` and ``converged`` off series results and
``evaluations`` off quadrature results.
"""

import ast
import importlib
import math
from pathlib import Path

import pytest

from trihyp import quad, specfun

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_pairs() -> list:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracing.py defines no TRACED table")


def test_traced_table_is_read():
    assert ("quad", "integrate_semi_infinite") in _traced_pairs()


@pytest.mark.parametrize(
    "target", [f"{m}.{f}" for m, f in _traced_pairs()] + ["cli.default_tolerance"]
)
def test_name_resolves(target):
    module, name = target.split(".")
    assert callable(getattr(importlib.import_module(f"trihyp.{module}"), name))


@pytest.mark.parametrize(
    "call,attrs",
    [
        (lambda: specfun.hyp_pfq((0.5, 1.0), (2.0,), 0.5), {"terms_used": int, "converged": bool}),
        (
            lambda: specfun.hyp_pfq_regularized((0.5, 1.0), (2.0,), 0.5),
            {"terms_used": int, "converged": bool},
        ),
        (lambda: quad.integrate_semi_infinite(lambda t: math.exp(-t), 1e-8), {"evaluations": int}),
    ],
    ids=["hyp_pfq", "hyp_pfq_regularized", "integrate_semi_infinite"],
)
def test_traced_result_attributes(call, attrs):
    res = call()
    for name, kind in attrs.items():
        assert type(getattr(res, name)) is kind, name
