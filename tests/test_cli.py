import cmath
import json
import math
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path
from random import Random

import pytest

import trihyp
from trihyp import cli
from trihyp.cli import (
    SweepConfig,
    default_tolerance,
    format_value,
    main,
    parse_complex,
    report_to_csv,
    report_to_json,
    run_sweep,
    sweep_points,
)


class TestComplexParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2", 2 + 0j),
            ("-3.5", -3.5 + 0j),
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("2i", 2j),
            ("-0.5i", -0.5j),
            ("1.5e-2+2e1i", 0.015 + 20j),
            ("0.3+i", 0.3 + 1j),
            ("i", 1j),
            ("-i", -1j),
            ("1e-3+2e-2i", 0.001 + 0.02j),
        ],
    )
    def test_forms(self, text, value):
        assert parse_complex(text) == value

    def test_rejects_garbage(self):
        for bad in ("", "abc", "1+2j+3", "1 +2i"):
            with pytest.raises(ValueError):
                parse_complex(bad)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e400", "2+nani", "1-infi"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            parse_complex(bad)

    def test_format_roundtrip(self):
        assert format_value(2.0) == "2"
        assert format_value(1 + 2j) == "1+2i"
        assert format_value(-0.5 - 0.25j) == "-0.5-0.25i"


class TestEvalCommand:
    def test_gamma(self, capsys):
        assert main(["eval", "gamma", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "1.77245385090552"

    def test_gauss_reduction_value(self, capsys):
        assert main(["eval", "2f1", "0.5", "1", "2", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "1.17157287525381"

    def test_unknown_function(self, capsys):
        assert main(["eval", "bogus", "1"]) == 2

    def test_domain_error(self, capsys):
        assert main(["eval", "gamma", "-2"]) == 3

    def test_wrong_arity(self, capsys):
        assert main(["eval", "gamma", "1", "2"]) == 2

    def test_gamma_overflow(self, capsys):
        assert main(["eval", "gamma", "200"]) == 3
        assert "overflows" in capsys.readouterr().err

    def test_gamma_overflow_near_zero(self, capsys):
        assert main(["eval", "gamma", "1e-320"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "gamma overflows" in captured.err

    def test_reciprocal_gamma_below_the_double_range(self, capsys):
        assert main(["eval", "rgamma", "1e6"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_reciprocal_gamma_overflow(self, capsys):
        assert main(["eval", "rgamma", "-200.5"]) == 3
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["gamma", "rgamma"])
    def test_reflection_overflow_names_the_argument(self, name, capsys):
        assert main(["eval", name, "-200.5"]) == 3
        assert "-200.5" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["2000", "3"], ["1e12", "0.5"]])
    def test_legendre_polynomial_out_of_range(self, args, capsys):
        # once nan+nani with exit 0, and a recurrence that ran until killed
        assert main(["eval", "legendre_poly", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "legendre_polynomial" in captured.err

    @pytest.mark.parametrize("args,code,printed", [
        (["pochhammer", "0.5", "1e12"], 3, ""),
        (["pochhammer", "-3", "1e12"], 0, "0"),
    ])
    def test_pochhammer_with_a_huge_k_returns(self, args, code, printed, capsys):
        # the product overflows, or meets its factor 0, long before k factors
        assert main(["eval", *args]) == code
        captured = capsys.readouterr()
        assert captured.out.strip() == printed
        if code:
            assert "overflows" in captured.err

    def test_non_finite_argument(self, capsys):
        assert main(["eval", "gamma", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad numeric argument" in captured.err

    def test_unconverged_series(self, capsys):
        for args in (["2f1", "0.5", "0.5", "1", "0.9999"],
                     ["2f1_reg", "0.5", "0.5", "1", "0.9999"],
                     ["legendre_p", "0.5", "0.5", "-0.9998"]):
            assert main(["eval", *args]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "did not converge" in captured.err

    @pytest.mark.parametrize("args", [
        ["1f1", "0.5", "0.5", "-40"],  # once 1.5645; e^-40 from terms up to 1.5e16
        ["2f1", "20.5", "21", "22", "-0.9"],  # once 129.235; mpmath 3.4614e-6
        ["2f1", "-1", "1", "1", "1"],  # 1 - 1: the terms cancel to exactly 0
        ["legendre_p", "60.3", "0.5", "0.3"],  # once 1049204105922.19; mpmath -0.0082371
        ["legendre_p", "30", "0", "0.5"],  # once 3.2e-5 off
    ])
    def test_cancelled_series(self, args, capsys):
        assert main(["eval", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "cancellation" in captured.err

    def test_lower_parameter_within_underflow_of_a_pole(self, capsys):
        assert main(["eval", "3f2", "1", "1", "1", "1e-200", "1e-200", "0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "underflow" in captured.err

    @pytest.mark.parametrize(
        "args",
        [
            ["pochhammer", "0.5", "2.7"],
            ["pochhammer", "0.5", "2+1i"],
            ["legendre_poly", "2.9", "0.5"],
            ["bell", "3.5", "2", "1", "1"],
            ["bell", "3", "2i", "1", "1"],
        ],
    )
    def test_non_integer_argument(self, args, capsys):
        assert main(["eval", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "must be an integer" in captured.err

    def test_too_few_variadic_arguments(self, capsys):
        assert main(["eval", "bell", "3"]) == 2
        assert capsys.readouterr().err == "error: bell takes at least 2 arguments, got 1\n"

    @pytest.mark.parametrize(
        "args,printed",
        [
            (["pochhammer", "0.5", "2"], "0.75"),
            (["legendre_poly", "2", "0.5"], "-0.125"),
            (["bell", "3", "2", "1", "1"], "3"),
        ],
    )
    def test_integer_argument(self, args, printed, capsys):
        assert main(["eval", *args]) == 0
        assert capsys.readouterr().out.strip() == printed

    @pytest.mark.parametrize(
        "args,printed",
        [
            (["gamma", "3+2i"], "-0.422637286311201+0.871814255696507i"),
            (["rgamma", "0.3"], "0.33427275256419"),
            (["gamma_lower", "0.5", "2+1i"], "1.74256455528458+0.0719492659711545i"),
            (["beta_inc", "0.5", "0.5", "0.3"], "1.15927948072741"),
            (["legendre_p", "0.5", "0.3", "0.2"], "0.396741104615353"),
            (["pcd", "0.3333", "-1.2"], "-0.0522305961339989"),
        ],
    )
    def test_registry_values(self, args, printed, capsys):
        assert main(["eval", *args]) == 0
        assert capsys.readouterr().out.strip() == printed


_EXTREMES = ("0", "1", "-1", "1.5", "3000", "-3000", "1e300", "-1e300", "1e-320", "700i")

# every call once printed a traceback, a non-finite value or ran until killed
_EXTREME_CASES = [
    ["pcd", "3000", "1"],
    ["pcd", "1.5", "1e300"],
    ["pcd", "0", "1e300"],
    ["beta_inc", "3000", "1", "3000"],
    ["beta_inc", "1e-320", "1", "1e300"],
    ["legendre_p", "700i", "3000", "1.5"],
    ["legendre_p", "1e-320", "700i", "0"],
    ["legendre_p", "1.5", "1e300", "0"],
    ["2f1", "700i", "1", "1.5", "1"],
    ["bell", "3000", "3000", "3000"],
]

# runs each argument list (read as JSON from stdin) through cli.main and
# writes one JSON line per call as it ends, so a call that hangs is the one
# after the last line
_EXTREMES_CHILD = """
import contextlib, io, json, sys, time
from trihyp.cli import main
for args in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", args[0], "--", *args[1:]])
    except BaseException as exc:
        code = f"{type(exc).__name__}: {exc}"
    print(json.dumps([code, out.getvalue(), err.getvalue(), time.perf_counter() - start]),
          flush=True)
"""


def _extreme_calls():
    """Every ``eval`` function on arguments drawn from _EXTREMES: all of
    them for up to two arguments, 40 seeded draws otherwise."""
    rng = Random(20260811)
    calls = list(_EXTREME_CASES)
    for name, (_, arity) in cli._EVAL_REGISTRY.items():
        count = arity if arity > 0 else 1 - arity  # bell: n, k and one x
        if count <= 2:
            calls += [[name, *args] for args in product(_EXTREMES, repeat=count)]
        else:
            calls += [[name, *(rng.choice(_EXTREMES) for _ in range(count))] for _ in range(40)]
    return calls


def test_eval_at_extreme_arguments_prints_a_finite_value_or_an_error():
    # a subprocess with a timeout, so that a call that hangs fails the test;
    # "--" lets argparse take -1e300 as an argument and not as an option
    calls = _extreme_calls()
    src = str(Path(trihyp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        out = subprocess.run([sys.executable, "-c", _EXTREMES_CHILD], input=json.dumps(calls),
                             env=env, capture_output=True, text=True, timeout=30).stdout
    except subprocess.TimeoutExpired as exc:
        done = (exc.stdout or b"").count(b"\n")
        pytest.fail(f"eval {' '.join(calls[done])} did not return")
    lines = out.splitlines()
    assert len(lines) == len(calls)
    for args, line in zip(calls, lines):
        code, printed, message, seconds = json.loads(line)
        call = f"eval {' '.join(args)}"
        assert seconds < 2.0, call
        if code == 0:
            assert message == "" and cmath.isfinite(parse_complex(printed)), (call, printed)
        else:
            assert code in (2, 3), (call, code)
            assert printed == "" and message.startswith("error: "), (call, message)
            assert "Traceback" not in message, (call, message)


class TestRootsCommand:
    def test_closed_quadratic(self, capsys):
        assert main(["roots", "2", "0.21", "closed"]) == 0
        out = capsys.readouterr().out
        assert "0.3" in out and "0.7" in out

    def test_both_quartic(self, capsys):
        assert main(["roots", "4", "0.05", "both"]) == 0
        out = capsys.readouterr().out
        dev = float(out.strip().splitlines()[-1].split(":")[1])
        assert dev <= 1e-8

    def test_unsupported_degree(self, capsys):
        assert main(["roots", "5", "0.1", "closed"]) == 3

    def test_unsupported_degree_prints_no_series_root(self, capsys):
        # the series root was once printed before the closed form raised
        assert main(["roots", "5", "0.1", "both"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no closed form implemented for n = 5\n"

    def test_series_root_at_any_degree(self, capsys):
        assert main(["roots", "5", "0.1", "series"]) == 0
        assert capsys.readouterr().out.startswith("series root: 0.100010005003503")

    def test_non_finite_closed_root(self, capsys):
        # once printed `nan-infi  residual = nan` with exit 0
        assert main(["roots", "2", "1e308", "closed"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "not finite" in captured.err


class TestCheckCommand:
    def test_single_identity_grid(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["check", "--ids", "I01", "--grid", "t:-0.9:0.9:50",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert sorted(doc.keys()) == ["config", "records", "summary", "version", "wall_time_ms"]
        assert len(doc["records"]) == 50
        assert 48 <= doc["summary"]["pass"] <= 50
        assert doc["summary"]["fail"] == 0

    def test_records_sorted(self, tmp_path):
        out = tmp_path / "r.json"
        main(["check", "--ids", "I01,I13", "--out", str(out), "--seed", "3"])
        doc = json.loads(out.read_text())
        keys = [(r["identity_id"], json.dumps(r["params"], sort_keys=True))
                for r in doc["records"]]
        assert keys == sorted(keys)

    def test_forced_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["check", "--ids", "I01", "--tol", "1e-30", "--out", str(out)])
        assert code == 1

    def test_unwritable_output(self, capsys):
        code = main(["check", "--ids", "I01",
                     "--out", "/nonexistent-dir/sub/r.json"])
        assert code == 4

    def test_unknown_id(self, capsys):
        assert main(["check", "--ids", "NOPE"]) == 2

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["check", "--ids", "J3", "--format", "csv", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == ("identity_id,params,lhs_re,lhs_im,rhs_re,rhs_im,"
                            "abs_err,rel_err,verdict")
        assert all(line.startswith("J3,") for line in lines[1:])
        assert len(lines) == 5

    def test_config_file_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "r.json"
        cfg.write_text(json.dumps({
            "identity_ids": ["I11"],
            "tolerance": 1e-8,
            "seed": 5,
            "output_path": str(out),
        }))
        assert main(["check", "--config", str(cfg)]) == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["fail"] == 0
        assert doc["config"]["seed"] == 5

    def test_jobs_do_not_change_output(self, tmp_path, monkeypatch):
        # --jobs is accepted and ignored: nothing forks, and every run writes
        # the same bytes
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        reports = []
        for jobs in ([], ["--jobs", "1"], ["--jobs", "2"]):
            out = tmp_path / "r.json"
            assert main(["check", "--ids", "I05,J2", "--seed", "11", *jobs, "--out", str(out)]) == 0
            reports.append(re.sub(rb'"wall_time_ms": [0-9]+', b"", out.read_bytes()))
        assert reports[0] == reports[1] == reports[2]

    def test_a_bad_grid_value_stops_the_sweep_before_any_point(self, tmp_path, capsys,
                                                                 monkeypatch):
        # n alternates 0, 0.5 in sweep order; the n = 0.5 points are refused
        # before the first point is evaluated
        monkeypatch.setattr(cli, "eval_check_point", lambda *point: pytest.fail("evaluated"))
        grid = ["--grid", "n:0,0.5", "--grid", "s:1,2,3", "--grid", "x:1,1.5"]
        out = tmp_path / "r.json"
        assert main(["check", "--ids", "J1", *grid, "--out", str(out)]) == 3
        assert not out.exists()
        assert "must be an integer" in capsys.readouterr().err

    def test_a_defect_in_this_process_propagates(self, monkeypatch, capfd):
        # a point that raises other than through the catalog's errors is a
        # defect: it stops the sweep at that point
        calls = []

        def point(*args):
            calls.append(args)
            if len(calls) == 5:
                raise ValueError("defect at point 4")

        monkeypatch.setattr(cli, "eval_check_point", point)
        with pytest.raises(ValueError, match="defect at point 4"):
            run_sweep(SweepConfig(identity_ids=("I01",), seed=3))
        assert len(calls) == 5 and capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"identity_ids": "I01"}, "identity_ids must be a list of check ids"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"output_path": 5}, "output_path must be a string"),
            ({"tolerance": True}, "tolerance must be a positive finite number"),
            ({"grid": {"t": [None]}}, "grid must be an object mapping each parameter"),
            ({"grid": {"t": {"min": "a", "max": 1, "count": 2}}}, "grid must be an object"),
        ],
    )
    def test_malformed_config_value(self, doc, message, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg.write_text(json.dumps({"identity_ids": ["I01"], "output_path": str(out), **doc}))
        assert main(["check", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err
        assert not out.exists()


class TestCheckGrids:
    def test_default_tolerances_and_grid_sizes(self):
        identity_ids = [f"I{k:02d}" for k in range(1, 19)] + ["K01", "K02"]
        want = {cid: (1e-8, 200) for cid in identity_ids}
        want.update({cid: (1e-6, 200) for cid in ("I14", "I15", "I16", "I17")})
        want.update(J0=(1e-7, 10), J1=(1e-6, 9), J2=(1e-6, 6), J3=(1e-5, 4))
        cfg = SweepConfig()
        got = {cid: (default_tolerance(cid), len(sweep_points(cid, cfg)))
               for cid in cfg.resolved_ids()}
        assert got == want

    def test_list_form_integer_grid(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["check", "--ids", "J1", "--grid", "n:0,1", "--out", str(out)]) == 0
        ns = [r["params"]["n"] for r in json.loads(out.read_text())["records"]]
        assert sorted(ns) == [0, 1] and all(type(n) is int for n in ns)

    @pytest.mark.parametrize("value", ["0.5", "1+2i"])
    def test_non_integer_grid_value(self, value, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["check", "--ids", "J1", "--grid", f"n:{value}", "--out", str(out)]) == 3
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("check_id", ["I01", "J0"])
    def test_unknown_grid_parameter(self, check_id, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["check", "--ids", check_id, "--grid", "n:1:2:2", "--out", str(out)]) == 3
        assert "unexpected parameters ['n']" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_grid_value(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["check", "--ids", "J1", "--grid", "s:nan", "--out", str(out)]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [["--grid", "t:nan:1:2"], ["--grid", "t:0:1e400:2"]])
    def test_non_finite_grid_range(self, grid, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["check", "--ids", "I01", *grid, "--out", str(out)]) == 3
        assert "non-finite range" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_list_parameter_entry(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg.write_text(json.dumps({"identity_ids": ["J0"], "grid": {"a": [[math.inf]]},
                                   "output_path": str(out)}))
        assert main(["check", "--config", str(cfg)]) == 3
        assert "grid for a: non-finite number inf" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluator_range_is_skipped(self, tmp_path):
        # inside the J1 hypotheses, but the quadrature window reaches x t = -1000,
        # where gamma(1, x t) = 1 - e^1000 overflows a double
        out = tmp_path / "r.json"
        assert main(["check", "--ids", "J1", "--grid", "n:0", "--grid", "s:2.1",
                     "--grid", "x:-2", "--out", str(out)]) == 0
        [rec] = json.loads(out.read_text())["records"]
        assert rec["verdict"] == "skipped_domain"
        assert rec["params"]["tol"] == 1e-6

    def test_tiny_t_points_pass(self, tmp_path):
        # t = 1e-60 underflows t^(n+1); at t = -1e-20, sqrt(1-t) rounds to 1
        out = tmp_path / "r.json"
        assert main(["check", "--ids", "I02,I08", "--grid", "n:5", "--grid", "t:1e-60,-1e-20",
                     "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert [r["verdict"] for r in records] == ["pass"] * 4

    @pytest.mark.parametrize("ids,grid", [
        # 2/t (1 - sqrt(1-t)) cancelled: rel_err 8.2e-8, 8.9e-5, 8.3e-8
        ("I01", ["t:1e-9,1e-12,-1e-10"]),
        # (-z)^(-n) raised a bare ZeroDivisionError; K02's elementary RHS
        # cancels inside |z| < 1, so its domain is 1 <= |z| <= 8 and its
        # point is skipped
        ("K01,K02", ["n:5", "z:1e-70"]),
    ])
    def test_tiny_arguments_pass(self, ids, grid, tmp_path):
        out = tmp_path / "r.json"
        flags = [f for g in grid for f in ("--grid", g)]
        assert main(["check", "--ids", ids, *flags, "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert records
        for r in records:
            if r["identity_id"] == "K02":
                assert r["verdict"] == "skipped_domain"
            else:
                assert r["verdict"] == "pass" and r["rel_err"] < 1e-15

    def test_huge_j2_argument_is_skipped(self, tmp_path):
        # (-x/p)^n and the deep-node x^n once raised a bare OverflowError
        out = tmp_path / "r.json"
        assert main(["check", "--ids", "J2", "--grid", "n:2", "--grid", "p:1",
                     "--grid", "x:1e200", "--out", str(out)]) == 0
        [rec] = json.loads(out.read_text())["records"]
        assert rec["verdict"] == "skipped_domain"

    @pytest.mark.parametrize("t", ["-1e-200", "-1e-310"])
    def test_i10_power_out_of_range_is_skipped(self, t, tmp_path):
        # ((t-1)/t)^(n/2) overflows at t = -1e-200 (once a bare OverflowError)
        # and is not finite at t = -1e-310 (once an RHS of [NaN, NaN])
        out = tmp_path / "r.json"
        assert main(["check", "--ids", "I10", "--grid", "n:4", "--grid", f"t:{t}",
                     "--out", str(out)]) == 0
        [rec] = json.loads(out.read_text())["records"]
        assert rec["verdict"] == "skipped_domain" and rec["rhs"] is None

    def test_overflowing_weight_is_skipped(self, tmp_path):
        # at x = 1e300 the tanh-sinh nodes reach t where t^(-3/2) overflows a double;
        # that point is skipped and the x = 1 point keeps its verdict
        out = tmp_path / "r.json"
        assert main(["check", "--ids", "J1", "--grid", "n:0", "--grid", "s:2",
                     "--grid", "x:1,1e300", "--out", str(out)]) == 0
        verdicts = {r["params"]["x"][0]: r["verdict"]
                    for r in json.loads(out.read_text())["records"]}
        assert verdicts == {1.0: "pass", 1e300: "skipped_domain"}

    def test_overflowing_power_of_the_laplace_integrand_is_skipped(self, tmp_path):
        # t^(alpha-1) overflows near T = 140 in the truncation-point search
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg.write_text(json.dumps({
            "identity_ids": ["J0"],
            "grid": {"a": [[1]], "b": [[2]], "alpha": [150], "s": [2], "x": [0.5]},
            "output_path": str(out),
        }))
        assert main(["check", "--config", str(cfg)]) == 0
        [rec] = json.loads(out.read_text())["records"]
        assert rec["verdict"] == "skipped_domain"


class TestReportSerialization:
    def test_csv_complex_params(self):
        cfg = SweepConfig(identity_ids=("J0",), seed=2)
        rep = run_sweep(cfg)
        text = report_to_csv(rep)
        assert text.count("\n") == len(rep.records) + 1

    def test_divergent_rows_serialize_null(self):
        cfg = SweepConfig(identity_ids=("I02",), seed=2)
        rep = run_sweep(cfg)
        doc = json.loads(report_to_json(rep))
        divergent = [r for r in doc["records"] if r["verdict"] == "divergent_both"]
        assert divergent and all(r["lhs"] is None for r in divergent)


class TestIntegrateCommand:
    def test_j1_comparison(self, capsys):
        assert main(["integrate", "J1", "--n", "0", "--s", "2", "--x", "1"]) == 0
        out = capsys.readouterr().out
        assert "quadrature" in out and "closed form" in out and "pass" in out

    def test_side_without_value(self, capsys):
        # in the J1 domain, but the slowly damped oscillation exhausts the quadrature budget
        assert main(["integrate", "J1", "--n", "3", "--s", "1", "--x=-0.9+5i"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "quadrature  = none" and out[1].startswith("closed form = -3.8969")
        assert out[2].endswith("verdict = fail")

    def test_j1_closed_form_at_small_x(self, capsys):
        # the printed bracket cancelled to -4.7e-15 here
        assert main(["integrate", "J1", "--n", "3", "--s", "1", "--x", "1e-4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "closed form = 8.30605151656157e-17"
        # the quadrature holds tol relative to the value (it once read 8.2075e-17)
        quadrature = float(out[0].split(" = ")[1])
        assert abs(quadrature - 8.30605151656157e-17) <= 1e-6 * 8.30605151656157e-17

    def test_small_custom_integral_is_relative(self, capsys):
        # the README's example; with tol absolute below 1 it printed 6.0266e-13
        assert main(["integrate", "custom", "1e-12*exp(-t)*sin(3*t)**2/sqrt(t)",
                     "--sigma", "-0.5"]) == 0
        value = float(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
        assert abs(value - 6.1205030347e-13) <= 1e-6 * 6.1205030347e-13

    def test_zero_integral_has_no_relative_estimate(self, capsys):
        # the integral of e^-t sin t - e^-t/2 is exactly 0: no level's change is
        # within tol times the value, so the quadrature exhausts its levels
        assert main(["integrate", "custom", "exp(-t)*sin(t) - 0.5*exp(-t)"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: quadrature did not converge in 7 levels\n"

    def test_custom_expression(self, capsys):
        assert main(["integrate", "custom", "exp(-t)"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "value = 1"

    @pytest.mark.parametrize(
        "flag,message",
        [(["--sigma", "-1.5"], "singular_exponent"), (["--decay", "-1"], "decay_rate")],
    )
    def test_custom_out_of_range(self, flag, message, capsys):
        assert main(["integrate", "custom", "exp(-t)", *flag]) == 3
        assert message in capsys.readouterr().err

    def test_custom_overflow(self, capsys):
        assert main(["integrate", "custom", "exp(t*t)"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: integrand overflows") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "expr,message",
        [
            ("t.real", "error: bad integrand: unknown names real; known: t, abs,"),
            ("1/(t-t)", "error: float division by zero"),
            ("(lambda: foo)()", "error: name 'foo' is not defined"),
        ],
    )
    def test_custom_expression_errors(self, expr, message, capsys):
        assert main(["integrate", "custom", expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(message)

    def test_hypothesis_violation(self, capsys):
        assert main(["integrate", "J3", "--p", "0.4", "--x", "1"]) == 3

    def test_overflowing_weight(self, capsys):
        assert main(["integrate", "J1", "--n", "0", "--s", "2", "--x", "1e300"]) == 3

    def test_missing_parameter(self, capsys):
        assert main(["integrate", "J1", "--n", "0", "--s", "2"]) == 2

    def test_parameters_without_flags(self, capsys):
        # a, b and alpha of the Laplace lemma have no integrate flag
        assert main(["integrate", "J0", "--s", "1"]) == 2
        err = capsys.readouterr().err
        assert "a, b, alpha" in err and "trihyp check --ids J0" in err and "--config" in err
        assert "missing parameter" not in err


class TestFullRegistry:
    def test_default_check_all_passes(self, tmp_path):
        out = tmp_path / "full.json"
        assert main(["check", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        s = doc["summary"]
        assert s["fail"] == 0
        assert s["total"] == len(doc["records"])
        assert (s["pass"] + s["fail"] + s["skipped_domain"] + s["divergent_both"]
                == s["total"])

    @pytest.mark.parametrize("seed", [7, 13])
    def test_default_sweep_verdicts_at_other_seeds(self, seed):
        summary = run_sweep(SweepConfig(seed=seed)).summary
        assert summary == {"total": 4029, "pass": 4026, "fail": 0,
                           "skipped_domain": 0, "divergent_both": 3}


def test_import_leaves_out_the_pool_and_dataclass_machinery():
    src = str(Path(trihyp.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); import trihyp.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "trihyp.cli" in added
    heavy = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "fractions")
    assert [m for m in heavy if m in added] == []


# command line, config file (None: none) and exit code; a config file also
# names I01 and writes to r.json
_EXIT_TABLE = [
    (["check", "--ids", "I06", "--tol", "inf"], None, 2),
    (["integrate", "J1", "--n", "0", "--s", "2", "--x", "1", "--tol", "inf"], None, 2),
    (["integrate", "custom", "exp(-t)", "--decay", "nan"], None, 2),
    (["integrate", "custom", "exp(-t"], None, 2),
    (["integrate", "custom", "foo(t)"], None, 2),
    (["integrate", "custom", "log(0*t)"], None, 2),
    (["check", "--config"], {"tolerance": "x"}, 2),
    (["check", "--config"], {"tolerance": math.inf}, 2),
    (["check", "--config"], {"grid": 5}, 2),
    (["check", "--config"], {"grid": {"t": {"min": 0, "max": 1}}}, 2),
    (["check", "--config"], {"grid": {"t": "0.5"}}, 2),
    (["eval", "pochhammer", "0.5", "2.7"], None, 3),
    (["eval", "legendre_poly", "2.9", "0.5"], None, 3),
    (["eval", "gamma", "200"], None, 3),
    (["check", "--ids", "NOPE"], None, 2),
]


@pytest.mark.parametrize(
    "argv,config,code", _EXIT_TABLE,
    ids=[" ".join(argv) + ("" if cfg is None else f" {json.dumps(cfg)}") for argv, cfg, _ in _EXIT_TABLE],
)
def test_exit_code_table(argv, config, code, tmp_path):
    # a subprocess, because only the process shows the exit status of an
    # exception that escapes main
    if config is not None:
        (tmp_path / "cfg.json").write_text(
            json.dumps({"identity_ids": ["I01"], "output_path": "r.json", **config}))
        argv = [*argv, "cfg.json"]
    elif argv[0] == "check":
        argv = [*argv, "--out", "r.json"]
    src = str(Path(trihyp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "trihyp.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ")
    assert not (tmp_path / "r.json").exists()
