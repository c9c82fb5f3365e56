"""Acceptance gate: one test per release criterion.

Every criterion is pinned at its exact parameters and tolerance, so a
regression anywhere in the package fails here with the criterion number
in the test name.  Reference values are recomputed locally (pmf
helpers, closed-form structure values) instead of trusted from the
code under test.
"""

import cmath
import json
import math

import numpy as np
import pytest

import fockladder as fl
from fockladder.cli import main

from _oracles import (
    binomial_pmf,
    geometric_pmf,
    hypergeometric_pmf,
    negative_binomial_pmf,
    poisson_pmf,
)

RESIDUAL = 1e-10
ORACLE = 1e-12

FINITE_FAMILIES = fl.CORE_FAMILIES[:6]
SECTOR_FAMILIES = ("svs", "sfes", "ecs", "ocs")


# --- criterion 1: finite-family ladder relations at dim = M + 8 ---


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("M", [1, 4, 10])
def test_criterion_1_binomial_ladder(eta, M):
    dim = M + 8
    s = fl.binomial(eta, M, dim)
    report = fl.verify_eigen_relation(fl.bs_ladder(eta, M, dim), s, M)
    assert report.passed
    assert report.checks[0].residual < RESIDUAL


def test_criterion_1_other_finite_families():
    Y = cmath.rect(0.3, math.pi / 3)
    cases = [
        (
            fl.hypergeometric(40.0, 0.5, 5, 13),
            fl.hgs_ladder(40.0, 0.5, 5, 13),
            5,
        ),
        (fl.polya(0.4, 0.7, 5, 13), fl.ps_ladder(0.4, 0.7, 5, 13), 5),
        (fl.reciprocal_binomial(0.7, 4, 12), fl.rbs_ladder(0.7, 4, 12), 4),
        (
            fl.pegg_barnett_phase(0.0, 2, 7, 15),
            fl.pbps_ladder(fl.phase_point(0.0, 2, 7), 7, 15),
            7,
        ),
        (fl.generalized_geometric(Y, 6, 14), fl.ggs_ladder(Y, 6, 14), 6),
    ]
    for s, op, M in cases:
        report = fl.verify_eigen_relation(op, s, M)
        assert report.passed, s.label
        assert report.checks[0].residual < RESIDUAL, s.label


# --- criterion 2: shifted and infinite-support ladder relations ---


def test_criterion_2_general_state_ladders():
    """Each family at its registry example parameters: eigen residual
    and truncation leak both below 1e-10."""
    alpha = 1 + 0.5j
    pacs = fl.photon_add(fl.coherent(alpha, 128), 2)
    cases = [
        (pacs, fl.added_coherent_lowering(alpha, 2, 128), alpha),
        (
            fl.new_negative_binomial(0.3, 2, 256),
            fl.nnbs_lowering(2, 256),
            math.sqrt(0.7),
        ),
        (fl.coherent(1.0, 64), fl.annihilation(64), 1.0),
        (fl.geometric(0.4, 128), fl.gs_lowering(128), math.sqrt(0.6)),
        (
            fl.negative_binomial(0.3, 3, 256),
            fl.nbs_lowering(3, 256),
            math.sqrt(0.3),
        ),
        (fl.kerr(1.0, 0.3, 64), fl.kerr_lowering(0.3, 64), 1.0),
    ]
    for s, op, eigenvalue in cases:
        report = fl.verify_eigen_relation(op, s, eigenvalue)
        check = report.checks[0]
        assert check.residual < RESIDUAL, s.label
        assert check.leak < 1e-10, s.label
        assert report.passed, s.label


# --- criterion 3: deformed-oscillator axioms against the dense oracle ---


def _axiom_truncation(family, params):
    # sector triples are half the full width; everything else dim <= 16
    if family in SECTOR_FAMILIES:
        return 32
    if family in FINITE_FAMILIES:
        return params["M"] + 8
    return 16


@pytest.mark.parametrize(
    "family,params",
    [(family, params) for family, params, _ in fl.EXTENDED_GRID],
    ids=[family for family, _, _ in fl.EXTENDED_GRID],
)
def test_criterion_3_gdo_axioms_dense_oracle(family, params):
    t = fl.build_gdo(family, params, _axiom_truncation(family, params))
    assert t.dim <= 16
    report = fl.verify_gdo_axioms(t, family=family, params=params)
    assert report.passed
    for check in report.checks:
        assert check.residual < ORACLE, check.name


def test_criterion_3_harmonic_identity():
    report = fl.verify_gdo_axioms(fl.harmonic_gdo(16), family="harmonic")
    assert report.passed
    values = [fl.harmonic_gdo(16).structure_fn(n) for n in range(5)]
    assert values == pytest.approx([0, 1, 2, 3, 4], abs=ORACLE)


# --- criterion 4: structure-function errata are reported, not corrected ---


def test_criterion_4_derived_structure_matches_local_oracle():
    eta, M = 0.5, 4
    rows = fl.derived_vs_printed_rows("binomial", {"eta": eta, "M": M}, 12)
    for row in rows:
        n = row["n"]
        want = n * (M - n + 1) * (1 - eta) / eta
        assert abs(row["derived"] - want) < ORACLE


def test_criterion_4_printed_forms_flagged():
    # the printed expressions do not vanish at n = 0
    for family, params, dim in fl.ACCEPTANCE_GRID[:3]:
        first = fl.derived_vs_printed_rows(family, params, dim)[0]
        assert first["n"] == 0
        assert first["derived"] == 0.0
        assert not first["match"], family
        printed = complex(first["printed_re"], first["printed_im"])
        if math.isfinite(printed.real) and math.isfinite(printed.imag):
            assert abs(printed) > 1.0, family
    # the phase-family printed expressions are not even real
    rbs = fl.derived_vs_printed_rows(
        "reciprocal_binomial", {"theta": 0.7, "M": 4}, 12
    )
    pbps = fl.derived_vs_printed_rows(
        "pegg_barnett_phase", {"theta0": 0.3, "m": 2, "M": 7}, 15
    )
    for rows in (rbs, pbps):
        assert any(abs(row["printed_im"]) > 1e-6 for row in rows)
        assert not any(row["match"] for row in rows)


def test_criterion_4_reported_not_corrected():
    """The printed variants stay buildable and their residuals are
    quoted next to the derived ones; the default builders are derived."""
    s = fl.polya(0.4, 0.7, 5, 13)
    printed = fl.verify_eigen_relation(
        fl.ps_ladder(0.4, 0.7, 5, 13, variant="printed"), s, 5
    )
    derived = fl.verify_eigen_relation(fl.ps_ladder(0.4, 0.7, 5, 13), s, 5)
    assert not printed.passed
    assert printed.checks[0].residual > 1e-2
    assert derived.passed

    table = fl.errata_table()
    assert {e["family"] for e in table["families"]} == set(FINITE_FAMILIES)
    notes = {n["equation"]: n for n in table["notes"]}
    assert set(notes) == {"E21", "E22", "E62", "E81"}
    for tag in ("E21", "E62"):
        assert notes[tag]["residual_printed"] > 1e-2
        assert notes[tag]["residual_derived"] < RESIDUAL


# --- criterion 5: photon-number distributions against pmf oracles ---


def test_criterion_5_distribution_cross_checks():
    s = fl.binomial(0.5, 4, 12)
    for n, p in enumerate(np.abs(s.amplitudes) ** 2):
        assert abs(p - binomial_pmf(4, 0.5, n)) < ORACLE

    s = fl.hypergeometric(40.0, 0.5, 5, 13)
    for n, p in enumerate(np.abs(s.amplitudes) ** 2):
        assert abs(p - hypergeometric_pmf(40, 20, 5, n)) < ORACLE

    s = fl.geometric(0.4, 128)
    for n, p in enumerate(np.abs(s.amplitudes) ** 2):
        assert abs(p - geometric_pmf(0.4, n)) < ORACLE

    s = fl.negative_binomial(0.3, 3, 256)
    for n, p in enumerate(np.abs(s.amplitudes) ** 2):
        assert abs(p - negative_binomial_pmf(3, 0.3, n)) < ORACLE

    s = fl.coherent(1.0, 64)
    for n, p in enumerate(np.abs(s.amplitudes) ** 2):
        assert abs(p - poisson_pmf(1.0, n)) < ORACLE


# --- criterion 6: limiting-case fidelities ---


def test_criterion_6_limit_fidelities():
    M = 400
    bs = fl.binomial(1.0 / M, M, M + 1)
    cs = fl.coherent(1.0, M + 1)
    assert fl.fidelity(bs, cs) > 0.99

    hgs = fl.hypergeometric(1.0e4, 0.5, 5, 13)
    assert fl.fidelity(hgs, fl.binomial(0.5, 5, 13)) > 0.999

    ps = fl.polya(0.4, 1.0e-6, 5, 13)
    assert fl.fidelity(ps, fl.binomial(0.4, 5, 13)) > 0.999


# --- criterion 7: two-photon sector ---


def test_criterion_7_su11_axioms():
    for parity_j in (0, 1):
        report = fl.verify_su11(parity_j, 32)
        assert report.passed
        for check in report.checks:
            assert check.residual < ORACLE, check.name


def test_criterion_7_pair_ladder_eigenvalues():
    eigenvalue = cmath.exp(0.5j) * math.tanh(0.8)
    svs = fl.squeezed_vacuum(0.8, 0.5, 128)
    report = fl.verify_eigen_relation(fl.svs_lowering(128), svs, eigenvalue)
    assert report.passed
    assert report.checks[0].residual < RESIDUAL

    sfes = fl.squeezed_first_excited(0.8, 0.5, 128)
    report = fl.verify_eigen_relation(fl.sfes_lowering(128), sfes, eigenvalue)
    assert report.passed
    assert report.checks[0].residual < RESIDUAL

    for parity in ("even", "odd"):
        s = fl.even_odd_coherent(1.1, parity, 128)
        report = fl.verify_eigen_relation(fl.pair_lowering(128), s, 1.1**2)
        assert report.passed, parity
        assert report.checks[0].residual < RESIDUAL, parity


def test_criterion_7_disentangling():
    for excitation in (0, 1):
        report = fl.verify_disentangling(0.8, 0.5, 128, excitation=excitation)
        assert report.passed
        for check in report.checks:
            assert check.residual < 1e-8, check.name


# --- criterion 8: the mixed number-nonlinear eigenvalue recursion ---


def test_criterion_8_intermediate_recursion():
    def f(n):
        return cmath.exp(-0.2j * n)

    s = fl.intermediate_nlcs(0.5, 1.2, 64, f, tail_check=False)
    # this eigenvalue is not normalizable; the mass fraction beyond the
    # window is recorded, not hidden
    assert s.leak > 1e-10

    root = math.sqrt(0.5)
    op = fl.add(
        fl.scale(fl.number_op(64), root),
        fl.compose(
            fl.diag_op(lambda t: root * f(t), 64), fl.annihilation(64)
        ),
    )
    report = fl.verify_eigen_relation(op, s, 1.2, edge_exclude=1)
    assert report.checks[0].residual < RESIDUAL


def test_criterion_8_coherent_limit():
    limit = fl.intermediate_nlcs(1.0e-8, 1.2, 64)
    assert fl.fidelity(limit, fl.coherent(1.2, 64)) > 0.999


# --- criterion 9: photon addition ---


def test_criterion_9_added_geometric_is_shifted_family():
    added = fl.photon_add(fl.geometric(0.4, 128), 2)
    direct = fl.new_negative_binomial(0.4, 2, 128)
    z = np.vdot(direct.amplitudes, added.amplitudes)
    aligned = added.amplitudes * (z.conjugate() / abs(z))
    assert np.max(np.abs(aligned - direct.amplitudes)) < ORACLE


@pytest.mark.parametrize(
    "family,params,dim",
    fl.EXTENDED_GRID,
    ids=[family for family, _, _ in fl.EXTENDED_GRID],
)
def test_criterion_9_zero_addition_is_identity(family, params, dim):
    s = fl.build_state(family, params, dim)
    again = fl.photon_add(s, 0)
    assert np.max(np.abs(again.amplitudes - s.amplitudes)) < ORACLE


# --- criterion 10: CLI contract ---


def test_criterion_10_exit_codes(capsys):
    argv = ["verify", "--family", "binomial", "--eta", "0.5", "--M", "4"]
    assert main(argv) == 0
    capsys.readouterr()

    assert main(argv + ["--tol-residual", "1e-18"]) == 1
    capsys.readouterr()

    assert main(["state", "--family", "binomial", "--eta", "1.5", "--M", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_criterion_10_reruns_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = [
        "verify",
        "--family",
        "binomial",
        "--eta",
        "0.5",
        "--M",
        "4",
        "--compare-printed",
    ]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_criterion_10_batch_grid_all_pass(tmp_path, capsys):
    manifest = tmp_path / "grid.json"
    manifest.write_text(json.dumps(fl.grid_manifest()))
    out_dir = tmp_path / "reports"
    assert main(["batch", str(manifest), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_entries"] == 15
    assert summary["n_pass"] == 15
    assert summary["n_fail"] == 0
    assert summary["n_error"] == 0
