"""trihyp benchmark: time to a verdict, driven through the CLI.

Run from the repository root:

    python3 bench/run.py --workload sweep-default --seed 20260811 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 20260811

``--trace 0`` measures the end-to-end metrics: each workload is a closed
loop of sequential ``python -m trihyp.cli check`` invocations at the
CLI's default ``--jobs``, and every report is checked.  ``--trace 1``
measures the per-layer metrics instead (see ``tracing.py``).  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the machine and every metric with its unit and sample count.  A
details file with the raw samples and report digests is written to
``bench/out/``.  Any failed output check (see ``Tally``) makes the run
incorrect and the exit code 1.  The metric names and units are the ones
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

IDENTITY_IDS = tuple(f"I{k:02d}" for k in range(1, 19)) + ("K01", "K02")
# Points of the default grids: 200 per identity id, then J0-J3.
DEFAULT_GRID_POINTS = dict({cid: 200 for cid in IDENTITY_IDS}, J0=10, J1=9, J2=6, J3=4)

SETUP_SAMPLES = 9  # at least this many cold starts per run
SETUP_PER_PASS = 1
INVOCATION_TIMEOUT_S = 150.0


def metric_units(kind: str) -> dict:
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload; ``points`` is the record count its report must hold."""

    name: str
    args: tuple
    points: int


# --------------------------------------------------------------------------
# workloads: inputs are generated from the workload seed only
# --------------------------------------------------------------------------


def _derived_seeds(seed: int, label: str, count: int) -> list:
    rng = Random(f"{seed}:{label}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _strata(rng: Random, lo: float, hi: float, count: int) -> str:
    """One draw in each of ``count`` equal slices of [lo, hi], as a --grid list.

    Stratified draws keep the cost of a grid close to the same from seed
    to seed while still moving every value.
    """
    step = (hi - lo) / count
    return ",".join(f"{lo + (k + rng.random()) * step:.3f}" for k in range(count))


def sweep_default(seed: int, tiny: bool) -> list:
    """The default ``trihyp check``: every identity and integral in its real proportion."""
    if tiny:
        ids = ("I01", "J1")
        return [Invocation("check", ("check", "--seed", str(seed), "--ids", ",".join(ids)),
                           sum(DEFAULT_GRID_POINTS[c] for c in ids))]
    return [Invocation("check", ("check", "--seed", str(seed)), sum(DEFAULT_GRID_POINTS.values()))]


def identities_dense(seed: int, tiny: bool) -> list:
    """Many cheap identity points, no quadrature: series engine, pool and serialization."""
    ids = ("I01", "I15") if tiny else IDENTITY_IDS
    return [
        Invocation(f"ids-{k}", ("check", "--ids", ",".join(ids), "--seed", str(s)),
                   200 * len(ids))
        for k, s in enumerate(_derived_seeds(seed, "identities-dense", 2))
    ]


def integrals(seed: int, tiny: bool) -> list:
    """J0-J3 only: few, expensive, skewed points where quadrature dominates.

    The J1-J3 grids are drawn inside each integral's stated hypotheses
    (J1: Re s > 0, Re(s+x) > 0; J2: p = 0 with Re x > 0, or Re p > 0;
    J3: real x > 0, Re(2p - x) > 0 and x * max(50/decay, 40) <= 500),
    so no point is skipped.  Integer parameters use the min:max:count
    grid form.
    """
    rng = Random(f"{seed}:integrals")
    m = 1 if tiny else 3
    invs = [
        Invocation(f"J0-{k}", ("check", "--ids", "J0", "--seed", str(s)), DEFAULT_GRID_POINTS["J0"])
        for k, s in enumerate(_derived_seeds(seed, "integrals-J0", 1 if tiny else 6))
    ]
    n1 = "0:0:1" if tiny else "0:2:3"
    invs.append(Invocation("J1", (
        "check", "--ids", "J1", "--grid", f"n:{n1}",
        "--grid", f"s:{_strata(rng, 1.0, 3.0, m)}", "--grid", f"x:{_strata(rng, 0.5, 2.0, m)}",
    ), (1 if tiny else 3) * m * m))
    n2 = "1:1:1" if tiny else "1:2:2"
    invs.append(Invocation("J2", (
        "check", "--ids", "J2", "--grid", f"n:{n2}",
        "--grid", f"p:0,{_strata(rng, 0.5, 2.0, m)}", "--grid", f"x:{_strata(rng, 0.5, 1.5, m)}",
    ), (1 if tiny else 2) * (m + 1) * m))
    m3 = 1 if tiny else 4
    invs.append(Invocation("J3", (
        "check", "--ids", "J3",
        "--grid", f"p:{_strata(rng, 1.0, 3.0, m3)}", "--grid", f"x:{_strata(rng, 0.3, 1.5, m3)}",
    ), m3 * m3))
    return invs


WORKLOADS = {
    "sweep-default": sweep_default,
    "identities-dense": identities_dense,
    "integrals": integrals,
}


# --------------------------------------------------------------------------
# running the CLI and checking what it writes
# --------------------------------------------------------------------------


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_python(args: list) -> tuple:
    """Run a fresh interpreter in the repository root; return (wall seconds, returncode, stdout).

    The child gets its own session so that a hung invocation is killed
    together with its pool workers.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(f"python {' '.join(args)} exited {proc.returncode}\n{err[-2000:]}")
    return wall, proc.returncode, out


def run_cli(inv: Invocation, out_path: Path, extra: tuple = ()) -> tuple:
    return run_python(["-m", "trihyp.cli", *inv.args, *extra, "--out", str(out_path)])


_MASKS = (
    (re.compile(r'"wall_time_ms": -?\d+'), '"wall_time_ms": 0'),
    (re.compile(r'"output_path": "(?:[^"\\]|\\.)*"'), '"output_path": ""'),
)


def report_digest(text: str) -> str:
    """sha256 of a JSON report with the wall time and the echoed output path masked."""
    for pattern, repl in _MASKS:
        text = pattern.sub(repl, text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Tally:
    """Points attempted and failed over a run, and the output checks that broke.

    A failed point is a record whose verdict is not pass or divergent_both
    (a wrong number or a skipped point), or any point of an invocation
    whose output cannot be trusted: no readable report, a wrong record
    count, an exit code that disagrees with the verdicts, or a report that
    changed between runs of one invocation.  Each of these, and traced
    counts that do not repeat, is a broken check; any broken check makes
    the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    broken: list = field(default_factory=list)

    def breaks(self, why: str, points: int = 0):
        self.failed += points
        if why not in self.broken:  # a defect repeats on every pass; name it once
            self.broken.append(why)
            sys.stderr.write(f"broken check: {why}\n")


def check_report(inv: Invocation, path: Path, returncode: int, tally: Tally,
                 want_margins: bool = False) -> tuple:
    """Check one report into ``tally``; return (digest, verdict counts, margins)."""
    tally.attempted += inv.points
    verdicts = {}
    try:
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        records = doc["records"]
        for r in records:
            verdicts[r["verdict"]] = verdicts.get(r["verdict"], 0) + 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tally.breaks(f"{inv.name}: no readable report ({type(exc).__name__}), exit {returncode}",
                     inv.points)
        return None, {}, []
    if len(records) != inv.points:
        tally.breaks(f"{inv.name}: {len(records)} records, expected {inv.points}", inv.points)
        return None, verdicts, []
    if returncode != (1 if verdicts.get("fail") else 0):
        tally.breaks(f"{inv.name}: exit {returncode} with {verdicts.get('fail', 0)} failed checks",
                     inv.points)
        return None, verdicts, []
    for r in records:
        if r["verdict"] not in ("pass", "divergent_both"):
            tally.breaks(f"{inv.name}: {r['identity_id']} {r['verdict']} "
                         f"{json.dumps(r['params'], sort_keys=True)}", 1)
    margins = record_margins(doc) if want_margins else []
    return report_digest(text), verdicts, margins


def record_margins(doc: dict) -> list:
    """log10(tol / the error the verdict rule used) of every passing record."""
    from trihyp.cli import default_tolerance

    out = []
    for r in doc["records"]:
        if r["verdict"] != "pass":
            continue
        tol = doc["config"]["tolerance"] or default_tolerance(r["identity_id"])
        # the verdict rule accepts abs_err when |lhs| < 1, else rel_err
        err = r["abs_err"] if math.hypot(*r["lhs"]) < 1.0 else r["rel_err"]
        out.append(math.log10(tol / err) if err > 0 else math.inf)
    return out


def quantile_low(values: list, q: float) -> float:
    """The q-quantile of ``values`` by the nearest-rank rule."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def report_path(tag: str, inv: Invocation) -> Path:
    """A report file of this process alone; any stale copy is removed."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{tag}-{inv.name}-{os.getpid()}.json"
    path.unlink(missing_ok=True)
    return path


@dataclass
class PassResult:
    wall: float
    digests: dict
    verdicts: dict
    margins: list


def run_pass(invs: list, tag: str, tally: Tally, extra: tuple = (),
             want_margins: bool = False) -> PassResult:
    """Run every invocation once, in order; time each to exit, then check its report."""
    res = PassResult(0.0, {}, {}, [])
    for inv in invs:
        path = report_path(tag, inv)
        wall, rc, _ = run_cli(inv, path, extra)
        res.wall += wall
        digest, verdicts, margins = check_report(inv, path, rc, tally, want_margins)
        path.unlink(missing_ok=True)
        res.digests[inv.name] = digest
        for v, n in verdicts.items():
            res.verdicts[v] = res.verdicts.get(v, 0) + n
        res.margins.extend(margins)
    return res


def compare_digests(reference: dict, digests: dict, invs: list, tally: Tally):
    """Break every invocation whose report differs from the reference pass.

    A missing report (digest None) is already broken by check_report.
    """
    for inv in invs:
        digest = digests.get(inv.name)
        if digest is not None and digest != reference.get(inv.name):
            tally.breaks(f"{inv.name}: report differs from the reference pass", inv.points)


def cold_starts(args: list, count: int) -> list:
    """(wall seconds, stdout) of ``count`` fresh interpreters; a failed start is an error."""
    runs = []
    for _ in range(count):
        wall, rc, out = run_python(args)
        if rc != 0:
            raise RuntimeError(f"python {' '.join(args)} exited {rc}")
        runs.append((wall, out))
    return runs


# --------------------------------------------------------------------------
# end-to-end pass
# --------------------------------------------------------------------------


def measure_end_to_end(invs: list, seconds: float, details: dict, tally: Tally) -> dict:
    """Return {metric: (value, samples)} of one workload with tracing off."""
    # cold starts are spread between the passes, so that both medians see
    # the same machine load
    version = ["-m", "trihyp.cli", "--version"]
    setup = [wall for wall, _ in cold_starts(version, SETUP_PER_PASS)]
    first = run_pass(invs, "e2e", tally, want_margins=True)
    walls = [first.wall]
    deadline = time.perf_counter() + seconds - first.wall
    while time.perf_counter() < deadline:
        setup.extend(wall for wall, _ in cold_starts(version, SETUP_PER_PASS))
        p = run_pass(invs, "e2e", tally)
        walls.append(p.wall)
        compare_digests(first.digests, p.digests, invs, tally)
    setup.extend(wall for wall, _ in cold_starts(version, max(0, SETUP_SAMPLES - len(setup))))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    margins = first.margins or [math.nan]
    details.update(
        verdicts_per_pass=first.verdicts,
        report_digests=first.digests,
        worst_margin_decades=min(margins),
        samples={"setup_s": setup, "wall_s": walls},
    )
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(walls), len(walls)),
        "peak_rss_mb": (peak_kb / 1024.0, 1),
        "ops_ok_ratio": (1.0 - tally.failed / tally.attempted, 1),
        "margin_p1_decades": (quantile_low(margins, 0.01), 1),
        "margin_p10_decades": (quantile_low(margins, 0.10), 1),
    }


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def git_commit():
    """The checked-out commit; None outside a git clone."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(trace: bool) -> dict:
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "jobs": [1, nproc] if trace else [nproc],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    invs = WORKLOADS[name](seed, tiny)
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
               "machine": machine(trace),
               "invocations": [{"name": i.name, "args": list(i.args), "points": i.points}
                               for i in invs]}
    run_python(["-m", "trihyp.cli", "--version"])  # compiles the bytecode caches, untimed
    tally = Tally()
    if trace:
        from tracing import measure_layers

        metrics = measure_layers(invs, seconds, details, tally, name, seed)
    else:
        metrics = measure_end_to_end(invs, seconds, details, tally)
    units = metric_units("per_layer" if trace else "end_to_end")
    result = {
        "correct": not tally.broken,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": units[k]} for k in units},
    }
    details["broken"] = tally.broken
    details["sample_counts"] = {k: metrics[k][1] for k in units}
    details["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1, default=str) + "\n")
    m = details["machine"]
    print(f"# {name} seed={seed} trace={int(trace)} nproc={m['nproc']} jobs={m['jobs']} "
          f"python={m['python']} platform={m['platform']} commit={m['commit']}")
    print(f"# attempted={tally.attempted} failed={tally.failed} "
          f"ops_failed_ratio={tally.failed / tally.attempted:.6g} ratio correct={result['correct']}")
    if "worst_margin_decades" in details:
        print(f"# worst_margin_decades={details['worst_margin_decades']:.6g} decades")
    for k in units:
        print(f"{k} {metrics[k][0]:.6g} {units[k]} (samples {metrics[k][1]})")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=20260811)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="measuring time per workload (at least one full pass runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to a few points (smoke test)")
    args = ap.parse_args(argv)
    if not (SRC / "trihyp" / "cli.py").is_file():
        print(f"error: no trihyp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    # one child per workload, so that RUSAGE_CHILDREN covers that workload alone
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd + ["--tiny"] * args.tiny, stdout=subprocess.PIPE,
                             text=True).stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        results[name] = json.loads(out[-1]) if out and out[-1].startswith("{") else None
    final = {
        "correct": all(r is not None and r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{n}.{k}": v for n, r in results.items() if r for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
