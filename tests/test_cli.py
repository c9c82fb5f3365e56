import json
import os

import pytest

import fockladder as fl
from fockladder.cli import main, parse_complex

from _oracles import poisson_pmf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- argument handling ---


def test_parse_complex_grammar():
    assert parse_complex("1") == 1.0
    assert parse_complex("-0.5") == -0.5
    assert parse_complex("1+0.5i") == 1 + 0.5j
    assert parse_complex("2-i") == 2 - 1j
    assert parse_complex("0.7i") == 0.7j
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("1.5e-2+2e-3i") == 0.015 + 0.002j


@pytest.mark.parametrize("bad", ["", "abc", "1+2x", "inf", "1++i"])
def test_parse_complex_rejects(bad):
    with pytest.raises(fl.ParameterError, match="a\\+bi"):
        parse_complex(bad)


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "binomial", "--eta", "0.5", "--M", "4", "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["inspect"])
    assert exc.value.code == 2


# --- exit code contract ---


def test_invalid_eta_exits_two_with_diagnostic(capsys):
    code, out, err = run(capsys, "verify", "--family", "binomial", "--eta", "1.5", "--M", "4")
    assert code == 2
    assert err.strip() == "error: eta must lie in (0,1)"
    assert out == ""


def test_missing_dim_for_infinite_family_exits_two(capsys):
    code, _, err = run(capsys, "verify", "--family", "coherent", "--alpha", "1")
    assert code == 2
    assert "--dim is required" in err


def test_unknown_family_exits_two(capsys):
    code, _, err = run(capsys, "verify", "--family", "squeezed", "--dim", "8")
    assert code == 2
    assert "unknown family" in err


def test_failed_check_exits_one(capsys):
    # fp-level residuals cannot beat an absurd 1e-18 tolerance
    code, out, _ = run(
        capsys,
        "verify", "--family", "binomial", "--eta", "0.5", "--M", "4",
        "--tol-residual", "1e-18", "--tol-oracle", "1e-18",
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_pacs_example_passes(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--family", "pacs", "--alpha", "1+0.5i", "--M", "2", "--dim", "128",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    eigen = [c for c in payload["checks"] if "E48" in c["equation"].split()]
    assert len(eigen) == 1
    assert eigen[0]["residual"] < 1e-10


ALIASES = [(spec.alias, name) for name, spec in fl.FAMILY_SPECS.items() if spec.alias]


@pytest.mark.parametrize("alias,name", ALIASES, ids=[alias for alias, _ in ALIASES])
def test_alias_matches_full_name(capsys, alias, name):
    spec = fl.FAMILY_SPECS[name]
    params, dim = spec.grid
    flags = ["--dim", str(dim)]
    for key, value in params.items():
        text = fl.format_complex(value) if isinstance(value, complex) else str(value)
        flags += [f"--{key}", text]
    code, out, _ = run(capsys, "verify", "--family", alias, *flags)
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == name
    assert any(c["equation"] == spec.literal_eq for c in payload["checks"])
    states = []
    for family in (alias, name):
        code, out, _ = run(capsys, "state", "--family", family, *flags)
        assert code == 0
        states.append(out)
    assert states[0] == states[1]


FINITE = [
    (spec.alias, name) for name, spec in fl.FAMILY_SPECS.items() if spec.kind == "finite"
]


@pytest.mark.parametrize("alias,name", FINITE, ids=[alias for alias, _ in FINITE])
def test_finite_families_at_M_zero(capsys, alias, name):
    # the M = 0 member is the vacuum; it has no (M-1)-member, so the suite
    # leaves out the three step-down checks and runs every other one
    assert len(FINITE) == 6
    params = dict(fl.FAMILY_SPECS[name].grid[0], M=0)
    if name == "pegg_barnett_phase":
        params["m"] = 0
    report = fl.run_family_suite(name, params, 8)
    assert report.passed, report.summary_line()
    names = {c.name for c in report.checks}
    assert not names & {"step-down-f", "step-down-g", "step-down-equality"}
    assert {"ladder-eigen-literal", "gdo-fock-condition"} <= names
    flags = []
    for key, value in params.items():
        text = fl.format_complex(value) if isinstance(value, complex) else str(value)
        flags += [f"--{key}", text]
    code, out, err = run(capsys, "verify", "--family", alias, *flags)
    assert (code, err) == (0, "")
    assert json.loads(out)["dim"] == 8


@pytest.mark.parametrize(
    "flags,name",
    [
        (["--family", "cs", "--alpha", "nan", "--dim", "8"], "alpha"),
        (["--family", "rbs", "--theta", "nan", "--M", "3"], "theta"),
        (["--family", "pbps", "--theta0", "nan", "--m", "0", "--M", "3"], "theta0"),
        (["--family", "ggs", "--Y", "nan", "--M", "3"], "Y"),
        (["--family", "ps", "--eta", "0.5", "--gamma", "inf", "--M", "3"], "gamma"),
        (["--family", "hgs", "--L", "nan", "--eta", "0.5", "--M", "3"], "L"),
        (["--family", "ks", "--alpha", "1", "--theta", "nan", "--dim", "8"], "theta"),
    ],
    ids=lambda v: v[1] if isinstance(v, list) else v,
)
@pytest.mark.parametrize("subcommand", ["state", "verify", "structure-fn"])
def test_non_finite_parameter_exits_two(capsys, subcommand, flags, name):
    code, out, err = run(capsys, subcommand, *flags)
    assert code == 2
    assert err == f"error: parameter '{name}' must be finite\n"
    assert out == ""


def test_odd_state_needs_two_levels(capsys):
    code, out, err = run(
        capsys, "state", "--family", "ocs", "--alpha", "0.5", "--dim", "1"
    )
    assert (code, out) == (2, "")
    assert err == "error: dim must be at least 2 for an odd state\n"


# --- state tables ---


def test_state_binomial_half_half(capsys):
    code, out, _ = run(
        capsys,
        "state", "--family", "binomial", "--eta", "0.5", "--M", "1", "--dim", "8",
    )
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert rows[0]["prob"] == pytest.approx(0.5, abs=1e-12)
    assert rows[1]["prob"] == pytest.approx(0.5, abs=1e-12)
    assert all(r["prob"] == 0.0 for r in rows[2:])
    assert payload["state"]["support"] == [0, 1]
    assert payload["config"]["family"] == "binomial"


def test_state_coherent_matches_poisson(capsys):
    code, out, _ = run(capsys, "state", "--family", "coherent", "--alpha", "1", "--dim", "64")
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert row["prob"] == pytest.approx(poisson_pmf(1.0, row["n"]), abs=1e-13)


def test_state_nnbs_shifted_support(capsys):
    code, out, _ = run(
        capsys, "state", "--family", "nnbs", "--eta", "0.3", "--M", "3", "--dim", "256"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["prob"] for r in rows[:3]] == [0.0, 0.0, 0.0]
    assert rows[3]["prob"] > 0


def test_state_nnbs_refuses_lossy_truncation(capsys):
    # dim=64 drops ~5e-7 of the mass; the constructor reports rather
    # than silently clipping
    code, out, err = run(
        capsys, "state", "--family", "nnbs", "--eta", "0.3", "--M", "3", "--dim", "64"
    )
    assert code == 2
    assert "tail mass" in err and "increase dim" in err


def test_state_rbs_M_1100_past_float_comb(capsys):
    # C(1100, 550) ~ 1e329 does not fit a float; the state still exists
    code, out, err = run(
        capsys, "state", "--family", "rbs", "--theta", "0.1", "--M", "1100", "--dim", "1101"
    )
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 1101
    assert sum(row["prob"] for row in rows) == pytest.approx(1.0, abs=1e-12)
    assert "nan" not in out.lower()


@pytest.mark.parametrize(
    "flags",
    [
        ["--family", "ggs", "--Y", "1e300", "--M", "3", "--dim", "8"],
        ["--family", "ggs", "--Y", "2", "--M", "1100", "--dim", "1101"],
        ["--family", "ps", "--eta", "0.4", "--gamma", "0.7", "--M", "192", "--dim", "200"],
        ["--family", "bs", "--eta", "0.999999", "--M", "60", "--dim", "64"],
        ["--family", "bs", "--eta", "0.5", "--M", "1100", "--dim", "1200"],
        ["--family", "nbs", "--eta", "0.5", "--M", "1200", "--dim", "4000"],
        ["--family", "nnbs", "--eta", "0.5", "--M", "1100", "--dim", "4000"],
    ],
    ids=lambda flags: "-".join(flags[1::2][:3]),
)
def test_state_past_the_float_range_exits_zero(capsys, flags):
    # each state exists; the parent wrote NaN or zero rows, raised, or
    # reported "no amplitude"
    code, out, err = run(capsys, "state", *flags)
    assert (code, err) == (0, "")
    assert "nan" not in out.lower()
    rows = json.loads(out)["rows"]
    assert sum(row["prob"] for row in rows) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["state", "--family", "hgs", "--L", "1e300", "--eta", "0.5", "--M", "3", "--dim", "8"],
            "error: hypergeometric(L=1e+300, eta=0.5, M=3) has a non-finite amplitude",
        ),
        (
            ["structure-fn", "--family", "ks", "--alpha=-1e300", "--theta", "0", "--dim", "2"],
            "error: F(1) is not finite at these parameters",
        ),
        (
            ["structure-fn", "--family", "gs", "--eta", "1e300", "--dim", "8"],
            "error: eta must lie in (0,1)\n",
        ),
        (
            ["structure-fn", "--family", "cs", "--alpha=-1e300", "--dim", "37"],
            "error: a closed form of coherent leaves the float range at alpha=-1e+300;",
        ),
        (
            ["structure-fn", "--family", "ggs", "--Y", "1e-300", "--M", "58", "--dim", "13",
             "--compare-printed"],
            "error: a closed form of generalized_geometric leaves the float range at "
            "M=58, Y=1e-300;",
        ),
        (
            ["verify", "--family", "ggs", "--Y", "2", "--M", "1100", "--dim", "1101"],
            "error: a closed form of generalized_geometric leaves the float range at "
            "M=1100, Y=2.0;",
        ),
        (
            ["structure-fn", "--family", "pacs", "--alpha", "0", "--M", "31", "--dim", "29"],
            "error: dim must exceed M\n",
        ),
        (
            ["structure-fn", "--family", "ggs", "--Y", "-1", "--M", "3", "--dim", "8"],
            "error: |Y| must not be 1\n",
        ),
    ],
    ids=["state-hgs", "structure-fn-ks", "structure-fn-gs", "structure-fn-cs",
         "structure-fn-ggs-printed", "verify-ggs", "structure-fn-pacs", "structure-fn-ggs"],
)
def test_past_the_float_range_exits_two_without_output(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(message)


def test_state_csv_header_echoes_config(capsys):
    code, out, _ = run(
        capsys,
        "state", "--family", "binomial", "--eta", "0.5", "--M", "1",
        "--dim", "8", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# subcommand=state family=binomial dim=8")
    assert "eta=0.5" in lines[0]
    assert lines[2] == "n,re,im,prob"


# --- structure function tables ---


def test_structure_fn_binomial_frozen_values(capsys):
    code, out, _ = run(
        capsys, "structure-fn", "--family", "binomial", "--eta", "0.5", "--M", "4"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    for n, want in enumerate([0.0, 4.0, 6.0, 6.0, 4.0]):
        assert rows[n]["F"] == pytest.approx(want, abs=1e-12)
    assert all(r["F"] == pytest.approx(0.0, abs=1e-12) for r in rows[5:])


def test_structure_fn_harmonic(capsys):
    code, out, _ = run(capsys, "structure-fn", "--family", "harmonic", "--dim", "6")
    assert code == 0
    rows = json.loads(out)["rows"]
    for row in rows:
        assert row["F"] == pytest.approx(row["n"], abs=1e-13)


def test_structure_fn_compare_printed_rbs(capsys):
    code, out, _ = run(
        capsys,
        "structure-fn", "--family", "rbs", "--theta", "0.7", "--M", "4",
        "--compare-printed",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    assert not any(r["match"] for r in rows)
    # non-finite floats travel as string tokens (allow_nan=False encoding)
    assert rows[0]["printed_re"] == "inf"
    assert any(abs(r["printed_im"]) > 1e-6 for r in rows)


def test_structure_fn_compare_printed_requires_finite_family(capsys):
    code, _, err = run(
        capsys,
        "structure-fn", "--family", "coherent", "--alpha", "1", "--dim", "16",
        "--compare-printed",
    )
    assert code == 2
    assert "no printed structure function" in err


def test_verify_compare_printed_attaches_table(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--family", "binomial", "--eta", "0.5", "--M", "4",
        "--compare-printed",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["derived_vs_printed"]) == 5
    code, out, _ = run(
        capsys,
        "verify", "--family", "binomial", "--eta", "0.5", "--M", "4",
        "--compare-printed", "--format", "csv",
    )
    assert "# derived_vs_printed" in out


# --- determinism ---


def test_reruns_are_byte_identical(capsys):
    args = ("verify", "--family", "polya", "--eta", "0.4", "--gamma", "0.7", "--M", "5", "--dim", "13")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args_csv = args + ("--format", "csv")
    _, first, _ = run(capsys, *args_csv)
    _, second, _ = run(capsys, *args_csv)
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify", "--family", "binomial", "--eta", "0.5", "--M", "4",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["passed"] is True


# --- batch ---


def test_batch_acceptance_grid(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(fl.grid_manifest()))
    out_dir = tmp_path / "reports"
    code, _, _ = run(capsys, "batch", str(manifest), "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_entries"] == 15
    assert summary["n_pass"] == 15
    assert summary["n_fail"] == 0 and summary["n_error"] == 0
    files = sorted(os.listdir(out_dir))
    assert "000-binomial.json" in files
    assert "014-ocs.json" in files
    report = json.loads((out_dir / "000-binomial.json").read_text())
    assert report["passed"] is True


def test_batch_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "empty.json"
    manifest.write_text("[]")
    out_dir = tmp_path / "reports"
    code, _, _ = run(capsys, "batch", str(manifest), "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_entries"] == 0


def test_batch_isolates_invalid_entries(tmp_path, capsys):
    manifest = tmp_path / "mixed.json"
    manifest.write_text(
        json.dumps(
            [
                {"family": "binomial", "params": {"eta": 1.5, "M": 4}, "dim": 12},
                {"family": "binomial", "params": {"eta": 0.5, "M": 4}, "dim": 12},
            ]
        )
    )
    out_dir = tmp_path / "reports"
    code, _, _ = run(capsys, "batch", str(manifest), "--out-dir", str(out_dir))
    assert code == 2
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["entries"][0]["status"] == "input-error"
    assert "eta must lie in (0,1)" in summary["entries"][0]["error"]
    assert summary["entries"][1]["status"] == "pass"
    assert (out_dir / "001-binomial.json").exists()
    assert not (out_dir / "000-binomial.json").exists()


def test_batch_reports_check_failures(tmp_path, capsys):
    manifest = tmp_path / "failing.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "family": "binomial",
                    "params": {"eta": 0.5, "M": 4},
                    "dim": 12,
                    "tolerances": {"residual": 1e-18, "oracle": 1e-18},
                }
            ]
        )
    )
    out_dir = tmp_path / "reports"
    code, _, _ = run(capsys, "batch", str(manifest), "--out-dir", str(out_dir))
    assert code == 1
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["entries"][0]["status"] == "fail"
    assert summary["entries"][0]["n_failed"] > 0


def test_batch_missing_manifest_exits_two(tmp_path, capsys):
    code, _, err = run(
        capsys, "batch", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert "absent.json" in err


def test_batch_complex_params_round_trip(tmp_path, capsys):
    # complex manifest values travel as a+bi text, same as grid_manifest
    manifest = tmp_path / "ggs.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "family": "generalized_geometric",
                    "params": {"Y": "0.15+0.2598076211353316i", "M": 6},
                    "dim": 14,
                }
            ]
        )
    )
    out_dir = tmp_path / "reports"
    code, _, _ = run(capsys, "batch", str(manifest), "--out-dir", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "000-generalized_geometric.json").read_text())
    assert report["passed"] is True


@pytest.mark.parametrize(
    "text,field",
    [
        ('[{"family":"bs","params":{"eta":0.5,"M":4},"dim":1e999}]', "'dim'"),
        ('[{"family":"bs","params":{"eta":0.5,"M":1e999},"dim":12}]', "parameter 'M'"),
        (
            '[{"family":"bs","params":{"eta":0.5,"M":4},"dim":12,'
            '"tolerances":{"oracle":"x"}}]',
            "tolerance 'oracle'",
        ),
        ('[{"family":"cs","params":{"alpha":"nan"},"dim":8}]', "parameter 'alpha'"),
    ],
    ids=["dim-overflow", "M-overflow", "tolerance-not-a-number", "alpha-nan"],
)
def test_batch_bad_numbers_are_input_errors(tmp_path, capsys, text, field):
    manifest = tmp_path / "bad.json"
    manifest.write_text(text)
    out_dir = tmp_path / "reports"
    code, _, err = run(capsys, "batch", str(manifest), "--out-dir", str(out_dir))
    assert code == 2
    assert err == ""
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_error"] == 1
    entry = summary["entries"][0]
    assert entry["status"] == "input-error"
    assert entry["error"].startswith(field + " must be")
    assert sorted(os.listdir(out_dir)) == ["summary.json"]


def test_batch_entry_past_a_closed_form_float_range_is_an_input_error(tmp_path, capsys):
    manifest = tmp_path / "big.json"
    manifest.write_text('[{"family":"ggs","params":{"Y":"2","M":1100},"dim":1101}]')
    out_dir = tmp_path / "reports"
    code, _, err = run(capsys, "batch", str(manifest), "--out-dir", str(out_dir))
    assert (code, err) == (2, "")
    entry = json.loads((out_dir / "summary.json").read_text())["entries"][0]
    assert entry["status"] == "input-error"
    assert entry["error"].startswith(
        "a closed form of generalized_geometric leaves the float range at Y=2.0, M=1100;"
    )
