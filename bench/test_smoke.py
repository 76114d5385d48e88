"""Smoke test of the benchmark, kept out of tier-1 (which collects tests/ only).

Every workload runs at a tiny size, traced and untraced, and must emit
exactly the metrics BENCHMARK.json names, each with its unit; a failed
verdict must make the run incorrect.  No timing is asserted.  Run from the repository root:

    python -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(BENCH.parent, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_fail_verdict_breaks_the_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    report = tmp_path / "report.json"
    report.write_text(json.dumps({"records": [
        {"identity_id": "I06", "verdict": "pass", "params": {"n": 5}},
        {"identity_id": "I06", "verdict": "fail", "params": {"n": 6}},
    ]}))
    tally = run.Tally()
    run.check_report(run.Invocation("check", (), 2), report, 1, tally)
    assert tally.attempted == 2 and tally.failed == 1
    assert tally.broken == ['check: I06 fail {"n": 6}']
