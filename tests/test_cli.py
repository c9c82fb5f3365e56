import contextlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import fockladder as fl
import fockladder.cli as cli
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


@pytest.mark.parametrize(
    "argv,name",
    [
        (["--family", "nnbs", "--eta", "0.3", "--M", "2"], "new_negative_binomial"),
        (["--family", "pacs", "--alpha", "1", "--M", "1"], "pacs"),
    ],
)
def test_missing_dim_for_a_family_with_M_past_the_finite_kind_exits_two(capsys, argv, name):
    # an M bounds the support only of a finite family: a shifted or an
    # added one still needs --dim
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: --dim is required for family '{name}'\n"


def test_a_finite_family_without_dim_runs_at_M_plus_8(capsys):
    code, out, err = run(capsys, "verify", "--family", "bs", "--eta", "0.5", "--M", "4")
    assert (code, err) == (0, "")
    assert json.loads(out)["dim"] == 12


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
        (["--family", "svs", "--r", "0.5", "--theta=-inf", "--dim", "8"], "theta"),
        (["--family", "sfes", "--r", "0.5", "--theta", "inf", "--dim", "8"], "theta"),
    ],
    ids=lambda v: v[1] if isinstance(v, list) else v,
)
@pytest.mark.parametrize("subcommand", ["state", "verify", "structure-fn"])
def test_non_finite_parameter_exits_two(capsys, subcommand, flags, name):
    code, out, err = run(capsys, subcommand, *flags)
    assert code == 2
    assert err == f"error: {name} must be finite\n"
    assert out == ""


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--tol-oracle", "inf"),
        ("--tol-oracle", "nan"),
        ("--tol-residual", "-1"),
        ("--tol-leak", "1e999"),
    ],
)
def test_non_finite_or_non_positive_tolerance_exits_two(capsys, flag, value):
    # an infinite tolerance would pass every check whatever its residual
    argv = ["--family", "bs", "--eta", "0.5", "--M", "4", "--dim", "12"]
    code, out, err = run(capsys, "verify", *argv, flag, value)
    assert (code, out) == (2, "")
    name = flag.removeprefix("--tol-")
    assert err == f"error: {name} tolerance must be a finite positive number\n"


# a bool compares as an int, but every report would echo it as a bool;
# numpy's bool and int and a Fraction compare as numbers too, but the
# writers cannot echo them as numbers
@pytest.mark.parametrize(
    "value",
    [math.inf, math.nan, 0.0, -1e-12, True, False, np.True_, Fraction(1, 10**10), np.int64(1)],
)
@pytest.mark.parametrize("name", ["residual", "leak", "oracle"])
def test_tolerances_refuse_non_finite_and_non_positive(name, value):
    with pytest.raises(ValueError, match=f"^{name} tolerance must be a finite positive"):
        fl.Tolerances(**{name: value})
    assert getattr(fl.Tolerances(**{name: 10**400}), name) == 10**400


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


@pytest.mark.parametrize(
    "argv",
    [
        "state --family cs --alpha 39 --dim 2400",
        "state --family cs --alpha 38.1 --dim 2600",
        "verify --family ks --alpha 39 --theta 0.1 --dim 2400",
        "state --family pacs --alpha 39 --M 1 --dim 2400",
        "state --family ecs --alpha 39 --dim 4800",
        "verify --family ocs --alpha 39 --dim 4800",
        "state --family ocs --alpha 5e-324 --dim 8",
    ],
)
def test_an_alpha_past_its_prefactor_range_exits_two_naming_alpha(capsys, argv):
    # a refusal by name, not a tail-mass error asking for a larger dim
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: alpha=") and err.count("\n") == 1
    assert "increase dim" not in err


@pytest.mark.parametrize("alpha", ["1e-170", "1e-170i", "2e-162", "1.2e-160"])
def test_odd_coherent_at_a_subnormal_alpha_squared_verifies(capsys, alpha):
    code, out, err = run(capsys, "verify", "--family", "ocs", "--alpha", alpha, "--dim", "8")
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    assert len(checks) == 21 and all(c["passed"] for c in checks)


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


@pytest.mark.parametrize("M,dim", [(0, 40), (2, 54), (5, 63)])
def test_verify_nnbs_refuses_a_dim_its_step_up_member_does_not_fit(capsys, M, dim):
    # the state fits, so `state` accepts it; the step-up checks need the
    # (M+1)-member at the same dim, and the refusal says so
    flags = ("--family", "nnbs", "--eta", "0.5", "--M", str(M), "--dim", str(dim))
    assert run(capsys, "state", *flags)[0] == 0
    code, out, err = run(capsys, "verify", *flags)
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: the step-up checks need the M+1 member at this dim: "
        f"new_negative_binomial(eta=0.5, M={M + 1}) drops tail mass "
    )
    assert err.endswith("; increase dim\n") and err.count("\n") == 1


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
        ["--family", "hgs", "--L", "1e300", "--eta", "0.5", "--M", "3", "--dim", "8"],
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
            # the state exists, but the closed form's unnormalized peak,
            # near e^(|alpha|^2/2) |alpha|^M, leaves the float range
            ["verify", "--family", "pacs", "--alpha", "37", "--M", "10", "--dim", "1800"],
            "error: a closed form of pacs leaves the float range at M=10, alpha=37.0;",
        ),
        (
            ["verify", "--family", "ggs", "--Y", "1e300", "--M", "3", "--dim", "8"],
            "error: C(0) of generalized_geometric underflows at Y=1e+300, M=3;",
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
    ids=["structure-fn-ks", "structure-fn-gs", "structure-fn-cs",
         "structure-fn-ggs-printed", "verify-pacs", "verify-ggs", "structure-fn-pacs",
         "structure-fn-ggs"],
)
def test_past_the_float_range_exits_two_without_output(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(message)


def _run_in_subprocess(*argv):
    # a subprocess keeps numpy's warnings on stderr instead of the suite's
    # error filter
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "fockladder.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
    )


def test_ggs_past_the_float_range_refuses_without_numpy_warnings():
    # |C(0)/C(1)|^2 leaves the float range; the refusal must come before
    # the dense battery multiplies the infinite F values
    result = _run_in_subprocess(
        "verify", "--family", "ggs", "--Y", "1e-310", "--M", "1", "--dim", "4"
    )
    assert (result.returncode, result.stdout) == (2, "")
    # the refusal is all of stderr: no RuntimeWarning precedes it
    assert result.stderr == (
        "error: a closed form of generalized_geometric leaves the float range at "
        "M=1, Y=1e-310; use parameters of moderate magnitude\n"
    )


@pytest.mark.parametrize("subcommand", ["verify", "structure-fn"])
@pytest.mark.parametrize("gamma", ["5e-324", "1e-310"])
def test_polya_closed_form_refuses_a_gamma_whose_inverse_overflows(subcommand, gamma):
    # 1/gamma and eta/gamma leave the float range, where the closed form's
    # rising factorials would be inf - inf; the state itself exists
    flags = ["--family", "ps", "--eta", "0.5", "--gamma", gamma, "--M", "1", "--dim", "2"]
    result = _run_in_subprocess(subcommand, *flags)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: eta=0.5 and gamma={gamma} overflow eta/gamma, (1-eta)/gamma or "
        "1/gamma in the polya closed form; use a larger gamma\n"
    )
    assert "RuntimeWarning" not in result.stderr
    assert _run_in_subprocess("state", *flags).returncode == 0


@pytest.mark.parametrize("family", ["svs", "sfes"])
@pytest.mark.parametrize("theta", ["0", "0.5", "2"])
def test_squeezing_whose_half_tanh_rounds_to_zero_is_verified(capsys, family, theta):
    # tanh(r)/2 rounds to 0, so the state is the sector's |j>, as at r = 0
    code, out, err = run(
        capsys, "verify", "--family", family, "--r", "5e-324", "--theta", theta, "--dim", "4"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"] is True


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


def _tolerance_texts(head):
    return [part for part in head.split() if part.startswith("tol_")]


def test_structure_fn_and_verify_csv_heads_write_one_tolerance_text(capsys):
    for flags in (
        ["--family", "bs", "--eta", "0.5", "--M", "4", "--dim", "12"],
        ["--family", "ks", "--alpha", "1+0.5i", "--theta", "0.3", "--dim", "64"],
    ):
        heads = [
            run(capsys, sub, *flags, "--format", "csv")[1].splitlines()[0]
            for sub in ("structure-fn", "verify")
        ]
        # one head rule: the structure-fn head is the verify head after its subcommand
        assert heads[0].replace("subcommand=structure-fn ", "", 1) == heads[1]
        assert heads[0].startswith("# subcommand=structure-fn family=")
        assert _tolerance_texts(heads[0]) == [
            "tol_leak=1e-10", "tol_oracle=1e-12", "tol_residual=1e-10"
        ]
    # one float rule: numpy's float as its float, not its repr np.float64(...)
    tol = fl.Tolerances(residual=np.float64(1e-9), leak=2)
    cfg = cli.CliConfig("structure-fn", "binomial", {"eta": 0.5, "M": 4}, 12, "csv", tol)
    report = fl.VerificationReport("binomial", dim=12, tolerances=tol)
    assert _tolerance_texts(cfg.csv_header()) == _tolerance_texts(report.to_csv().split("\n")[0])
    assert "tol_residual=1e-09" in cfg.csv_header()


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


@pytest.mark.parametrize("subcommand", ["state", "verify"])
@pytest.mark.parametrize("dim", [[], ["--dim", "4"]], ids=["no-dim", "dim"])
def test_harmonic_outside_structure_fn_is_refused_up_front(capsys, subcommand, dim):
    code, out, err = run(capsys, subcommand, "--family", "harmonic", *dim)
    assert (code, out) == (2, "")
    assert err == "error: family 'harmonic' is tabulated only by structure-fn\n"


def test_batch_refuses_harmonic_with_the_same_message(tmp_path, capsys):
    error = _batch_error(tmp_path, capsys, '{"family":"harmonic","params":{},"dim":4}')
    assert error == "family 'harmonic' is tabulated only by structure-fn"


def test_batch_refuses_the_library_only_f(tmp_path, capsys):
    # intermediate's f is a Python callable: a number for it is refused by
    # name, not called
    error = _batch_error(
        tmp_path,
        capsys,
        '{"family":"intermediate","params":{"eta":0.5,"alpha":0.7,"f":2},"dim":16}',
    )
    assert error == "parameter 'f' is library-only: it takes a Python callable"


def test_structure_fn_csv_rows_are_the_triples_F(capsys):
    code, out, err = run(
        capsys, "structure-fn", "--family", "cs", "--alpha", "1", "--dim", "16",
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == "n,F"
    t = fl.build_gdo("coherent", {"alpha": 1.0}, 16)
    assert lines[2:] == [f"{n},{t.structure_fn(n)!r}" for n in range(16)]


def test_structure_fn_runs_where_the_state_does_not_fit(capsys):
    # F comes from the closed form, so the table needs no state; the state
    # itself drops too much tail mass at this truncation and is refused
    flags = ("--family", "cs", "--alpha", "3", "--dim", "16")
    code, out, err = run(capsys, "structure-fn", *flags, "--format", "csv")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 18
    code, out, err = run(capsys, "state", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: coherent(alpha=3.0) drops tail mass ")
    assert err.endswith("; increase dim\n") and err.count("\n") == 1


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


def test_structure_fn_compare_printed_at_a_dim_at_most_M(capsys):
    # the table's F comes from the closed form on [0, M], whatever the dim
    code, out, err = run(
        capsys,
        "structure-fn", "--family", "bs", "--eta", "0.5", "--M", "4", "--dim", "3",
        "--compare-printed",
    )
    assert (code, err) == (0, "")
    assert [r["n"] for r in json.loads(out)["rows"]] == [0, 1, 2, 3, 4]


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


def test_out_flag_that_cannot_be_replaced_leaves_no_temp_file(tmp_path, capsys):
    # the report is written to <out>.tmp, whose replace onto a directory fails
    target = tmp_path / "reports"
    target.mkdir()
    code, out, err = run(
        capsys,
        "verify", "--family", "bs", "--eta", "0.5", "--M", "4", "--dim", "12",
        "--out", str(target),
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "Is a directory" in err
    assert sorted(os.listdir(tmp_path)) == ["reports"]
    assert os.listdir(target) == []


class _FullDisk:
    """An open file whose writes fail as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        raise OSError(28, "No space left on device")


def test_out_flag_whose_write_fails_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "table.json"
    monkeypatch.setattr(cli, "open", lambda *a, **k: _FullDisk(open(*a, **k)), raising=False)
    code, out, err = run(
        capsys,
        "structure-fn", "--family", "bs", "--eta", "0.5", "--M", "4", "--dim", "12",
        "--out", str(target),
    )
    assert code == 2
    assert err == "error: [Errno 28] No space left on device\n"
    assert os.listdir(tmp_path) == []


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


def _both_front_ends(tmp_path, capsys, family, values, as_json):
    """`verify` with `values` as flags, then as one batch manifest entry;
    with `as_json`, each value the manifest can carry as a JSON number
    travels as one instead of as text."""
    argv = ["verify", "--family", family] + [f"--{k}={v}" for k, v in values.items()]
    flag_run = run(capsys, *argv)
    entry = {"family": family, "params": {}, "tolerances": {}}
    for key, text in values.items():
        value = text
        if as_json:
            with contextlib.suppress(ValueError):
                value = json.loads(text)
        if key == "dim":
            entry["dim"] = value
        elif key.startswith("tol-"):
            entry["tolerances"][key.removeprefix("tol-")] = value
        else:
            entry["params"][key] = value
    manifest = tmp_path / "one.json"
    manifest.write_text(json.dumps([entry]))
    out_dir = tmp_path / "reports"
    code, _, err = run(capsys, "batch", str(manifest), "--out-dir", str(out_dir))
    assert err == ""
    (row,) = json.loads((out_dir / "summary.json").read_text())["entries"]
    report = out_dir / row["file"] if "file" in row else None
    return flag_run, (code, report.read_text() if report else None, row.get("error"))


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "family,values",
    [
        # a float and an int parameter, dim, and an integral tolerance
        ("bs", {"eta": "0.5", "M": "4", "dim": "12", "tol-oracle": "1"}),
        # a complex parameter and a tolerance in exponent form
        ("cs", {"alpha": "1+0.5i", "dim": "64", "tol-residual": "1e-9"}),
    ],
)
def test_flags_and_manifest_give_byte_identical_reports(tmp_path, capsys, family, values, as_json):
    (code, out, err), manifest = _both_front_ends(tmp_path, capsys, family, values, as_json)
    assert (code, err) == (0, "")
    assert manifest == (0, out, None)


@pytest.mark.parametrize(
    "malformed,as_json",
    [
        ({"alpha": "1+", "dim": "12"}, False),
        ({"alpha": "1", "M": "1.5", "dim": "12"}, False),
        ({"alpha": "1", "M": "1.5", "dim": "12"}, True),
        ({"eta": "abc", "M": "4", "dim": "12"}, False),
        ({"alpha": "1", "dim": "12.0"}, False),
        ({"alpha": "1", "dim": "12", "tol-oracle": "x"}, False),
    ],
    ids=["complex", "int", "int-json", "float", "dim", "tolerance"],
)
def test_flags_and_manifest_refuse_a_malformed_value_alike(tmp_path, capsys, malformed, as_json):
    family = "bs" if "M" in malformed else "cs"
    (code, out, err), (batch_code, report, error) = _both_front_ends(
        tmp_path, capsys, family, malformed, as_json
    )
    assert (code, out, batch_code, report) == (2, "", 2, None)
    assert err == f"error: {error}\n"


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
        ('[{"family":"cs","params":{"alpha":"nan"},"dim":8}]', "alpha"),
        ('[{"family":"bs","params":{"eta":0.5,"M":false},"dim":12}]', "parameter 'M'"),
        ('[{"family":"cs","params":{"alpha":true},"dim":8}]', "parameter 'alpha'"),
        ('[{"family":"cs","params":{"alpha":1},"dim":true}]', "'dim'"),
        (
            '[{"family":"bs","params":{"eta":0.5,"M":4},"dim":12,'
            '"tolerances":{"oracle":true}}]',
            "tolerance 'oracle'",
        ),
        (
            '[{"family":"bs","params":{"eta":0.5,"M":4},"dim":12,'
            '"tolerances":{"orcale":1e-18}}]',
            "tolerance 'orcale'",
        ),
        (
            '[{"family":"bs","params":{"eta":0.5,"M":4},"dim":12,'
            '"tolerances":{"oracle":Infinity}}]',
            "oracle tolerance",
        ),
        (
            '[{"family":"bs","params":{"eta":0.5,"M":4},"dim":12,'
            '"tolerances":{"residual":NaN}}]',
            "residual tolerance",
        ),
    ],
    ids=[
        "dim-overflow", "M-overflow", "tolerance-not-a-number", "alpha-nan",
        "M-bool", "alpha-bool", "dim-bool", "tolerance-bool", "tolerance-unknown",
        "tolerance-infinite", "tolerance-nan",
    ],
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


def _batch_error(tmp_path, capsys, entry: str) -> str:
    manifest = tmp_path / "big.json"
    manifest.write_text(f"[{entry}]")
    out_dir = tmp_path / "reports"
    code, _, err = run(capsys, "batch", str(manifest), "--out-dir", str(out_dir))
    assert (code, err) == (2, "")
    row = json.loads((out_dir / "summary.json").read_text())["entries"][0]
    assert row["status"] == "input-error"
    return row["error"]


def test_batch_entry_past_a_closed_form_float_range_is_an_input_error(tmp_path, capsys):
    # the state exists, but the closed form's unnormalized peak, near
    # e^(|alpha|^2/2) |alpha|^M, leaves the float range
    error = _batch_error(
        tmp_path, capsys, '{"family":"pacs","params":{"alpha":37,"M":10},"dim":1800}'
    )
    assert error.startswith(
        "a closed form of pacs leaves the float range at alpha=37.0, M=10;"
    )


def test_pacs_whose_peak_squares_past_the_float_range_is_verified(capsys):
    # the closed form's peak, near e^(|alpha|^2/2) ~ 1e158, is scaled by a
    # power of two before it is squared into the normalization
    argv = ["--family", "pacs", "--alpha", "27", "--M", "1", "--dim", "950"]
    assert run(capsys, "state", *argv)[0] == 0
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (1, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["distribution-crosscheck"]["passed"]
    assert checks["structure-fn-closed-form"]["passed"]


@pytest.mark.parametrize("subcommand", ["verify", "structure-fn"])
def test_ggs_at_Y_zero_refuses_the_ladder_and_names_Y(capsys, subcommand):
    # the state is the vacuum, but the ladder diagonals divide by C(n) = 0
    argv = ["--family", "ggs", "--Y", "0", "--M", "3", "--dim", "8"]
    assert run(capsys, "state", *argv)[0] == 0
    code, out, err = run(capsys, subcommand, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: Y must be nonzero for M >= 1: the ladder operators divide by "
        "C(n) = 0 at n >= 1\n"
    )
    # at M = 0 no diagonal divides, and the suite runs
    assert run(capsys, subcommand, *argv[:4], "--M", "0", "--dim", "8")[0] == 0


def test_batch_entry_with_a_subnormal_closed_form_C0_is_an_input_error(tmp_path, capsys):
    error = _batch_error(
        tmp_path, capsys, '{"family":"ggs","params":{"Y":"1e300","M":3},"dim":8}'
    )
    assert error.startswith(
        "C(0) of generalized_geometric underflows at Y=1e+300, M=3;"
    )


def test_structure_fn_ggs_past_the_float_range_of_Y_to_the_M(capsys):
    # |Y|^(M+1) overflows; the closed form divides it out, as `state` does
    code, out, err = run(
        capsys, "structure-fn", "--family", "ggs", "--Y", "2", "--M", "1100", "--dim", "1101"
    )
    assert (code, err) == (0, "")
    assert "nan" not in out.lower()


M_RULE = "M must be a nonnegative integer"


@pytest.mark.parametrize(
    "flags,message",
    [
        ("ps --eta 0.4 --gamma=-1 --M 3 --dim 8", "gamma must be positive"),
        ("ps --eta 0.4 --gamma=-1 --M 3 --dim 8 --compare-printed",
         "gamma must be positive"),
        ("hgs --L 1 --eta 0.5 --M 3 --dim 8", "L must satisfy L >= max(M/eta, M/(1-eta))"),
        ("nbs --eta 0.3 --M 0 --dim 8", "M must be an integer >= 1"),
        ("bs --eta 0.5 --M=-1 --dim 8", M_RULE),
        ("nnbs --eta 0.3 --M=-1 --dim 8", M_RULE),
        ("rbs --theta 0.7 --M=-1 --dim 8", M_RULE),
        ("pacs --alpha 1 --M=-1 --dim 64", M_RULE),
        ("ocs --alpha 0 --dim 8", "alpha must be nonzero for the odd superposition"),
        ("svs --r 1000 --theta 0 --dim 8",
         "r=1000.0 puts cosh r past the float range; use a smaller r"),
    ],
)
def test_structure_fn_refuses_with_the_constructor_message(capsys, flags, message):
    code, out, err = run(capsys, "structure-fn", "--family", *flags.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "flags",
    [
        "rbs --theta 1e308 --M 3 --dim 8",
        "pbps --theta0 1e308 --m 0 --M 3 --dim 8",
        "ks --alpha 1 --theta 1e308 --dim 8",
        # the printed F's e^{-2i theta} reads the reduced angle too
        "rbs --theta 1e308 --M 3 --dim 8 --compare-printed",
    ],
)
def test_structure_fn_accepts_a_huge_angle(capsys, flags):
    reduced = repr(math.atan2(math.sin(1e308), math.cos(1e308)))
    code, out, err = run(capsys, "structure-fn", "--family", *flags.split(), "--format", "csv")
    assert (code, err) == (0, "")
    at_reduced = flags.replace(" 1e308", f"={reduced}").split()
    _, wanted, _ = run(capsys, "structure-fn", "--family", *at_reduced, "--format", "csv")
    # the config line echoes the angle as given; the table is the reduced angle's
    assert out.splitlines()[1:] == wanted.splitlines()[1:]


@pytest.mark.parametrize(
    "flags",
    [
        "svs --r 0.5 --theta 1e300 --dim 128",
        "pbps --theta0=-2.49e5 --m 1 --M 1371 --dim 1380",
        "rbs --theta=-729999.9 --M 202 --dim 210",
        "svs --r 0.5 --theta 1e308 --dim 128",
        "ks --alpha 1 --theta 1e306 --dim 64",
    ],
)
def test_verify_passes_every_check_at_a_large_angle(capsys, flags):
    code, out, err = run(capsys, "verify", "--family", *flags.split(), "--format", "csv")
    assert (code, err) == (0, "")
    assert ",false," not in out


@pytest.mark.parametrize("family", ["svs", "sfes"])
def test_structure_fn_rejects_negative_r(capsys, family):
    code, out, err = run(
        capsys, "structure-fn", "--family", family, "--r=-1", "--theta", "0", "--dim", "8"
    )
    assert (code, out) == (2, "")
    assert err == "error: r must be nonnegative\n"


@pytest.mark.parametrize(
    "flags",
    [
        "bs --eta 0.5 --M 4 --dim -1",
        "cs --alpha 1 --dim 0",
        "harmonic --dim -3",
        "bs --eta 0.5 --M 4 --dim 0 --compare-printed",
        "bs --eta 0.5 --M 4 --dim -3 --compare-printed",
    ],
)
def test_structure_fn_refuses_a_dim_below_one(capsys, flags):
    code, out, err = run(capsys, "structure-fn", "--family", *flags.split())
    assert (code, out, err) == (2, "", "error: dim must be an integer >= 1\n")


@pytest.mark.parametrize("subcommand", ["state", "verify"])
@pytest.mark.parametrize("m", ["5", "-1"])
def test_pbps_refusal_names_M(capsys, subcommand, m):
    # the registry pins the grid size s to M, so the message names M
    code, out, err = run(
        capsys, subcommand, "--family", "pbps", "--theta0", "0", f"--m={m}", "--M", "3"
    )
    assert (code, out, err) == (2, "", "error: m must lie in [0, M]\n")
