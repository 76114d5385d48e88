import json

import pytest

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
        ],
    )
    def test_forms(self, text, value):
        assert parse_complex(text) == value

    def test_rejects_garbage(self):
        for bad in ("", "abc", "1+2j+3"):
            with pytest.raises(ValueError):
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
        assert main(["sweep", str(cfg)]) == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["fail"] == 0
        assert doc["config"]["seed"] == 5

    def test_jobs_do_not_change_output(self, tmp_path):
        cfg = SweepConfig(identity_ids=("I05", "J2"), seed=11, output_path="x.json")
        r1 = run_sweep(cfg, jobs=1)
        r2 = run_sweep(cfg, jobs=3)
        a, b = json.loads(report_to_json(r1)), json.loads(report_to_json(r2))
        a["wall_time_ms"] = b["wall_time_ms"] = 0
        assert a == b


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

    def test_evaluator_range_is_skipped(self, tmp_path):
        # inside the J1 hypotheses, but the quadrature window reaches |x t| = 1000,
        # beyond the range of the incomplete gamma series
        out = tmp_path / "r.json"
        assert main(["check", "--ids", "J1", "--grid", "n:0", "--grid", "s:2.1",
                     "--grid", "x:-2", "--out", str(out)]) == 0
        [rec] = json.loads(out.read_text())["records"]
        assert rec["verdict"] == "skipped_domain"
        assert rec["params"]["tol"] == 1e-6


class TestReportSerialization:
    def test_csv_complex_params(self):
        cfg = SweepConfig(identity_ids=("J0",), seed=2)
        rep = run_sweep(cfg, jobs=1)
        text = report_to_csv(rep)
        assert text.count("\n") == len(rep.records) + 1

    def test_divergent_rows_serialize_null(self):
        cfg = SweepConfig(identity_ids=("I02",), seed=2)
        rep = run_sweep(cfg, jobs=1)
        doc = json.loads(report_to_json(rep))
        divergent = [r for r in doc["records"] if r["verdict"] == "divergent_both"]
        assert divergent and all(r["lhs"] is None for r in divergent)


class TestIntegrateCommand:
    def test_j1_comparison(self, capsys):
        assert main(["integrate", "J1", "--n", "0", "--s", "2", "--x", "1"]) == 0
        out = capsys.readouterr().out
        assert "quadrature" in out and "closed form" in out and "pass" in out

    def test_custom_expression(self, capsys):
        assert main(["integrate", "custom", "exp(-t)"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "value = 1"

    def test_hypothesis_violation(self, capsys):
        assert main(["integrate", "J3", "--p", "0.4", "--x", "1"]) == 3

    def test_missing_parameter(self, capsys):
        assert main(["integrate", "J1", "--n", "0", "--s", "2"]) == 2


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
