"""The report writer against the stdlib JSON encoder.

encode_json writes JSON in one pass of its own; json_reference is the
json.dumps route it replaced, kept as the oracle.  Both must give the
same bytes for every value a report can hold, and for every payload the
package writes.  A report's check rows take a fixed layout of their own,
held to the same oracle and, in CSV, to the generic csv_table route.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fockladder as fl
import fockladder.cli as cli
from fockladder.reporting import (
    CHECK_COLUMNS,
    PRINTED_COLUMNS,
    CheckResult,
    Tolerances,
    VerificationReport,
    csv_table,
    encode_json,
    report_from_json,
)

from _oracles import json_reference

SPECIAL_STRINGS = ["", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é ß",
                   "  ", "\ud800", "😀 \U0010ffff", "</script>"]
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                  math.inf, -math.inf, math.nan, 0.1, 1e16, 1e-7, 123456789.0]
SPECIAL_INTS = [0, -1, 2**63, 2**64, -(2**64) - 1, 10**40]

leaves = (
    st.text()
    | st.sampled_from(SPECIAL_STRINGS)
    | st.integers()
    | st.sampled_from(SPECIAL_INTS)
    | st.floats()
    | st.sampled_from(SPECIAL_FLOATS)
    | st.booleans()
    | st.none()
)
keys = st.text() | st.sampled_from(SPECIAL_STRINGS)
payloads = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
    ),
    max_leaves=24,
)


@given(payloads)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [], "c": (), "d": [{}, [[]]]})
@example({"x": [math.inf, -math.inf, math.nan, -0.0, 5e-324]})
@example({s: s for s in SPECIAL_STRINGS})
def test_writer_equals_the_stdlib_route(payload):
    assert encode_json(payload) == json_reference(payload)


def _keys_are_str(value) -> bool:
    if isinstance(value, dict):
        return all(isinstance(k, str) and _keys_are_str(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(_keys_are_str(v) for v in value)
    return True


def _package_payloads(tmp_path, monkeypatch):
    """Every EXTENDED_GRID report, the errata table, and what the CLI
    serializes for a structure-fn table and a batch summary."""
    written = [r.as_dict() for r in fl.run_grid(fl.EXTENDED_GRID)]
    written.append(fl.errata_table())

    def recording(payload):
        written.append(payload)
        return encode_json(payload)

    monkeypatch.setattr(cli, "encode_json", recording)
    table = ["structure-fn", "--family", "bs", "--eta", "0.5", "--M", "4", "--dim", "12"]
    assert cli.main(table + ["--compare-printed", "--out", str(tmp_path / "t.json")]) == 0
    assert cli.main(table + ["--out", str(tmp_path / "f.json")]) == 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(fl.grid_manifest()[:3] + [{"family": "bs"}]))
    assert cli.main(["batch", str(manifest), "--out-dir", str(tmp_path / "out")]) == 2
    assert [p.get("schema") for p in written[-3:]] == [
        "structure-fn-1", "structure-fn-1", "batch-1"
    ]
    return written


def test_every_package_payload_is_written_as_the_stdlib_route(tmp_path, monkeypatch):
    written = _package_payloads(tmp_path, monkeypatch)
    # the printed structure functions carry non-finite values
    texts = [json_reference(p) for p in written]
    assert any(f'"{x}"' in t for t in texts for x in ("inf", "-inf", "nan"))
    for payload in written:
        # the writer refuses a key json.dumps would coerce: none occurs
        assert _keys_are_str(payload)
        assert encode_json(payload) == json_reference(payload)


@pytest.mark.parametrize(
    "payload",
    [1j, np.int64(3), {1, 2}, {1: "a"}, {"a": [{"b": 2 + 0j}]}, [np.bool_(True)],
     {(1,): 0}],
    ids=["complex", "np.int64", "set", "int-key", "nested-complex", "np.bool_",
         "tuple-key"],
)
def test_writer_refuses_what_json_cannot_carry(payload):
    with pytest.raises(TypeError):
        encode_json(payload)


def test_writer_reads_a_numpy_float_as_its_float():
    payload = {"x": [np.float64(0.1), np.float64(-0.0), np.float64(1e300)]}
    assert encode_json(payload) == json_reference(payload)
    assert json.loads(encode_json({"x": np.float64(math.inf)})) == {"x": "inf"}


# every leaf a check's field can hold, numpy's float among them
check_leaves = leaves | st.floats().map(np.float64)
check_results = st.builds(CheckResult, **dict.fromkeys(CHECK_COLUMNS, check_leaves))
printed_floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
printed_rows = st.fixed_dictionaries(
    {
        "n": st.integers(0, 64),
        "derived": printed_floats,
        "printed_re": printed_floats,
        "printed_im": printed_floats,
        "match": st.booleans(),
    }
)
# every kind of tolerance a report's head echoes: a float, an int, and
# numpy's float
tolerance_values = (
    st.floats(5e-324, 1.0)
    | st.sampled_from([1e-10, 1e300])
    | st.integers(1, 2**64)
    | st.floats(5e-324, 1e300).map(np.float64)
)
reports = st.builds(
    VerificationReport,
    family=st.text() | st.sampled_from(SPECIAL_STRINGS),
    params=st.dictionaries(keys, leaves | st.floats().map(np.float64), max_size=3),
    dim=st.integers(0, 2048),
    tolerances=st.builds(Tolerances, *[tolerance_values] * 3),
    checks=st.lists(check_results, max_size=5).map(tuple),
    derived_vs_printed=st.lists(printed_rows, max_size=3).map(tuple),
)
_INF_ROW = {"n": 0, "derived": 0.0, "printed_re": math.inf, "printed_im": -math.inf,
            "match": False}


def _csv_number(value) -> str:
    # a float as its float repr, np.float64 too, as in every check cell
    return repr(float(value) if isinstance(value, float) else value)


def _csv_reference(report: VerificationReport) -> str:
    """to_csv through csv_table's generic route for every table."""
    tolerances = sorted(report.tolerances.as_dict().items())
    header = " ".join(
        [f"family={report.family}", f"dim={report.dim}"]
        + [f"{k}={v}" for k, v in sorted(report.params.items())]
        + [f"tol_{k}={_csv_number(v)}" for k, v in tolerances]
    )
    lines = ["# " + header] + csv_table(CHECK_COLUMNS, map(vars, report.checks))
    if report.derived_vs_printed:
        lines += ["# derived_vs_printed"]
        lines += csv_table(PRINTED_COLUMNS, report.derived_vs_printed)
    return "\n".join(lines) + "\n"


@given(reports)
@example(VerificationReport("empty"))
@example(VerificationReport("inf", derived_vs_printed=(_INF_ROW,)))
@example(
    VerificationReport(
        "special",
        checks=tuple(
            CheckResult(s, s, x, np.float64(x), 2**64, s == "", s)
            for s, x in zip(SPECIAL_STRINGS, SPECIAL_FLOATS)
        ),
        derived_vs_printed=(_INF_ROW, dict(_INF_ROW, n=1, printed_re=math.nan)),
    )
)
def test_report_rows_equal_the_generic_routes(report):
    text = report.to_json()
    assert text == json_reference(report.as_dict())
    # the module-level writer gives the report's JSON too
    assert encode_json(report) == text
    assert report.to_csv() == _csv_reference(report)
    assert report_from_json(text).to_json() == text


def test_a_check_whose_residual_is_the_int_zero_writes_zero():
    report = VerificationReport("f", checks=(CheckResult("n", "E1", 0, 1e-10),))
    assert json.loads(report.to_json())["checks"][0]["residual"] == 0
    assert '"residual": 0,' in report.to_json()
    assert report.to_csv().splitlines()[2] == "n,E1,0,1e-10,0.0,true,"


def test_a_check_field_json_cannot_carry_is_refused():
    report = VerificationReport("f", checks=(CheckResult("n", "E1", 1j, 1e-10),))
    with pytest.raises(TypeError, match="complex"):
        report.to_json()


@pytest.mark.parametrize(
    "family,params,dim", fl.EXTENDED_GRID, ids=[row[0] for row in fl.EXTENDED_GRID]
)
def test_check_rows_hold_only_their_columns_after_both_writers(family, params, dim):
    report = fl.run_family_suite(family, params, dim)
    text = report.to_json()
    report.to_csv()
    assert all(tuple(row) == CHECK_COLUMNS for row in report.as_dict()["checks"])
    assert json_reference(report.as_dict()) == text


@pytest.mark.parametrize(
    "family,params,dim", fl.EXTENDED_GRID, ids=[row[0] for row in fl.EXTENDED_GRID]
)
def test_equal_tolerances_give_equal_rows_and_each_head_echoes_its_own(family, params, dim):
    as_int, as_float, as_numpy = (
        fl.run_family_suite(family, params, dim, Tolerances(residual=r))
        for r in (1, 1.0, np.float64(1.0))
    )
    assert as_int.checks == as_float.checks == as_numpy.checks
    (int_head, *int_rows), (float_head, *float_rows), (numpy_head, *numpy_rows) = (
        r.to_csv().splitlines() for r in (as_int, as_float, as_numpy)
    )
    assert int_rows == float_rows == numpy_rows
    assert int_head.endswith(" tol_residual=1") and float_head.endswith(" tol_residual=1.0")
    # numpy's float as its float, not its repr np.float64(1.0)
    assert numpy_head == float_head
    echoed = [
        json.loads(r.to_json())["tolerances"]["residual"] for r in (as_int, as_float, as_numpy)
    ]
    assert [(type(r), r) for r in echoed] == [(int, 1), (float, 1.0), (float, 1.0)]
