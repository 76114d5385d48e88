"""The JSON report writer against json's own encoder.

``cli.report_to_json`` writes the report's fixed layout by hand.  Its
bytes must be those of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``
for the document that the writer it replaced built; that builder is kept
here as the reference.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihyp.cli import Report, SweepConfig, report_to_json, run_sweep
from trihyp.identities import CheckRecord


def _serialize_value(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (tuple, list)):
        return [_serialize_value(x) for x in v]
    return v


def _record_to_json(r: CheckRecord) -> dict:
    def cval(v):
        return None if v is None else [v.real, v.imag]

    def fval(v):
        return None if v != v else v  # NaN becomes null

    return {
        "identity_id": r.identity_id,
        "params": {k: _serialize_value(v) for k, v in sorted(r.params.items())},
        "lhs": cval(r.lhs_value),
        "rhs": cval(r.rhs_value),
        "abs_err": fval(r.abs_err),
        "rel_err": fval(r.rel_err),
        "verdict": r.verdict,
    }


def reference_json(report: Report) -> str:
    doc = {
        "version": report.tool_version,
        "config": report.config_echo,
        "records": [_record_to_json(r) for r in report.records],
        "summary": report.summary,
        "wall_time_ms": report.wall_time_ms,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _report(records, **config) -> Report:
    summary = {"total": len(records), "pass": 0, "fail": 0,
               "skipped_domain": 0, "divergent_both": 0}
    for r in records:
        summary[r.verdict] += 1
    return Report("0.0.test", SweepConfig(**config)._asdict(), tuple(records), summary, 17)


NAN, INF = math.nan, math.inf

# values the float rules must keep apart: signed zeros, a subnormal, the
# edges of repr's fixed and exponent forms, and the non-finite words
ODD_FLOATS = (-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-5, 1e16,
              1.0000000000000002e16, 123456789.0, -1.5e300, INF, -INF, NAN)


class TestAgainstJsonDumps:
    @pytest.mark.parametrize("ids", [("J0",), ("I01", "I10", "K02"), ("I02",)])
    def test_sweep_reports(self, ids):
        # J0's tuple params hold empty tuples and complex values; I02 has
        # divergent_both rows whose sides are null
        report = run_sweep(SweepConfig(identity_ids=ids, seed=5))
        assert report_to_json(report) == reference_json(report)

    def test_no_records(self):
        report = _report([])
        assert report_to_json(report) == reference_json(report)

    def test_hand_built_records(self):
        records = [
            CheckRecord("I02", {"n": 1, "t": 1 + 0j}, None, None, 0.0, 0.0, "divergent_both"),
            CheckRecord("J1", {"n": 3, "s": 1 + 0j, "x": -0.9 + 5j, "tol": 1e-6},
                        None, -3.8969 + 0.1j, INF, INF, "fail"),
            CheckRecord("I10", {"n": 4, "t": -1e-200 + 0j}, None, None, NAN, NAN,
                        "skipped_domain"),
            CheckRecord("I06", {"n": 6, "t": -0.0 - 0.0j}, complex(NAN, 1.0),
                        complex(-0.0, NAN), NAN, INF, "fail"),
            CheckRecord("J0", {"a": (), "b": (1.771 + 0j, 5e-324 - 0j), "alpha": 1e16 + 0j,
                               "s": 1e-300 + 0j, "x": complex(-INF, 2.5)},
                        1e-300 + 5e-324j, 1e16 - 0.0j, 5e-324, -0.0, "pass"),
        ]
        report = _report(records)
        assert report_to_json(report) == reference_json(report)

    @pytest.mark.parametrize("grid", [
        {"t": {"min": -0.9, "max": 0.9, "count": 50}, "n": {"min": 0, "max": 5, "count": 6}},
        {"t": ["0.1", "1+2i", "-3e-5i"], "n": ["0", "4"]},
        {"a": [[1, 2.5], []], "x": [0.5, 1]},
    ])
    def test_config_echo_grid(self, grid):
        report = _report([], identity_ids=("I01", "J0"), grid=grid, tolerance=1e-7)
        assert report_to_json(report) == reference_json(report)

    def test_output_path_escapes(self):
        path = 'a "quoted" \\back\\slash\x01\x1f\t\n/café/漢/\U0001f600.json'
        report = _report([], output_path=path, output_format="csv", seed=-3)
        text = report_to_json(report)
        assert text == reference_json(report)
        assert text.isascii() and json.loads(text)["config"]["output_path"] == path


_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(ODD_FLOATS))
_complexes = st.builds(complex, _floats, _floats)
_records = st.builds(
    CheckRecord,
    st.sampled_from(["I01", "J0", "K02"]),
    st.fixed_dictionaries({"n": st.integers(-10**20, 10**20), "t": _complexes,
                           "a": st.lists(_complexes, max_size=3).map(tuple), "tol": _floats}),
    st.one_of(st.none(), _complexes),
    st.one_of(st.none(), _complexes),
    _floats,
    _floats,
    st.sampled_from(["pass", "fail", "skipped_domain", "divergent_both"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_records, max_size=4))
def test_random_values_match_json_dumps(records):
    report = _report(records)
    assert report_to_json(report) == reference_json(report)
