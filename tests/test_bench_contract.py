"""The names the benchmark harness reaches into must keep resolving.

``bench/tracing.py`` rebinds every ``(module, function)`` pair of its
``TRACED`` table by name, and ``bench/run.py`` imports
``trihyp.cli.default_tolerance``.  The table is read with ``ast`` so
that the harness itself is never imported here.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
