"""Sector representation, squeezed-state constructors, and two-photon
ladder checks.

Closed-form amplitude oracles here go through lgamma directly; the
package builds the same states by amplitude-ratio recurrences.
"""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fockladder as fl


def svs_amp(n, r, theta):
    # (cosh r)^{-1/2} sqrt((2n)!) (e^{i theta} tanh r / 2)^n / n!
    t = math.tanh(r)
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    log_mag = (
        -0.5 * math.log(math.cosh(r))
        + 0.5 * math.lgamma(2 * n + 1)
        + n * math.log(t / 2)
        - math.lgamma(n + 1)
    )
    return math.exp(log_mag) * cmath.exp(1j * theta * n)


def sfes_amp(n, r, theta):
    t = math.tanh(r)
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    log_mag = (
        -1.5 * math.log(math.cosh(r))
        + 0.5 * math.lgamma(2 * n + 2)
        + n * math.log(t / 2)
        - math.lgamma(n + 1)
    )
    return math.exp(log_mag) * cmath.exp(1j * theta * n)


@pytest.mark.parametrize("parity_j", [0, 1])
def test_su11_axioms_and_embedding(parity_j):
    report = fl.verify_su11(parity_j, 32, dim_full=64)
    assert report.passed
    names = {c.name for c in report.checks}
    assert {
        "su11-action",
        "su11-commutator-plus",
        "su11-commutator-minus",
        "su11-commutator-pm",
        "su11-casimir",
        "su11-sector-number",
        "sector-embedding",
    } <= names
    pm = next(c for c in report.checks if c.name == "su11-commutator-pm")
    assert "top column excluded" in pm.detail


def test_bargmann_index():
    assert fl.su11(0, 8).bargmann_k == 0.25
    assert fl.su11(1, 8).bargmann_k == 0.75
    # k(k-1) is the same Casimir value in both sectors
    assert 0.25 * (0.25 - 1) == 0.75 * (0.75 - 1) == -3 / 16


def test_sector_embed_round_trip():
    svs = fl.squeezed_vacuum(0.8, 0.5, 64)
    sec = fl.sector_embed(svs)
    assert sec.dim == 32
    np.testing.assert_allclose(sec.amplitudes, svs.amplitudes[0::2], atol=0)
    back = fl.sector_unembed(sec, 0, 64)
    np.testing.assert_allclose(back.amplitudes, svs.amplitudes, atol=0)
    assert back.parity == "even"

    sfes = fl.squeezed_first_excited(0.8, 0.5, 128)
    sec1 = fl.sector_embed(sfes)
    assert sec1.dim == 64
    back1 = fl.sector_unembed(sec1, 1, 128)
    np.testing.assert_allclose(back1.amplitudes, sfes.amplitudes, atol=0)


def test_sector_embed_rejects_full_parity():
    s = fl.coherent(1.0, 32)
    with pytest.raises(fl.ParameterError, match="definite-parity"):
        fl.sector_embed(s)
    with pytest.raises(fl.ParameterError, match="does not fill"):
        fl.sector_unembed(fl.sector_embed(fl.squeezed_vacuum(0.5, 0.0, 64)), 0, 62)


def test_squeezed_vacuum_expansion():
    r, theta, dim = 0.8, 0.5, 128
    s = fl.squeezed_vacuum(r, theta, dim)
    assert s.parity == "even"
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
    assert np.all(s.amplitudes[1::2] == 0)
    for n in [0, 1, 2, 5, 20]:
        assert s.amplitudes[2 * n] == pytest.approx(svs_amp(n, r, theta), abs=1e-13)

    vac = fl.squeezed_vacuum(0.0, 0.3, 16)
    np.testing.assert_allclose(vac.amplitudes, fl.basis_state(0, 16).amplitudes)


def test_squeezed_vacuum_tail_error():
    with pytest.raises(fl.TailMassError, match="increase dim"):
        fl.squeezed_vacuum(3.0, 0.0, 32)
    with pytest.raises(fl.ParameterError, match="r must be nonnegative"):
        fl.squeezed_vacuum(-0.1, 0.0, 32)


def test_squeezed_first_excited_expansion():
    r, theta, dim = 0.8, 0.5, 128
    s = fl.squeezed_first_excited(r, theta, dim)
    assert s.parity == "odd"
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
    assert np.all(s.amplitudes[0::2] == 0)
    for n in [0, 1, 3, 15]:
        assert s.amplitudes[2 * n + 1] == pytest.approx(sfes_amp(n, r, theta), abs=1e-13)


def test_even_odd_coherent_vs_superposition():
    alpha, dim = 1.1, 128
    c = fl.coherent(alpha, dim).amplitudes
    flip = c * (-1.0) ** np.arange(dim)

    even = fl.even_odd_coherent(alpha, "even", dim)
    sym = (c + flip) / np.linalg.norm(c + flip)
    assert abs(np.vdot(sym, even.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert even.parity == "even"

    odd = fl.even_odd_coherent(alpha, "odd", dim)
    anti = (c - flip) / np.linalg.norm(c - flip)
    assert abs(np.vdot(anti, odd.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert odd.parity == "odd"


def test_even_odd_coherent_errors():
    with pytest.raises(fl.ParameterError, match="alpha must be nonzero"):
        fl.even_odd_coherent(0.0, "odd", 32)
    with pytest.raises(fl.ParameterError, match="parity must be"):
        fl.even_odd_coherent(1.0, "both", 32)
    vac = fl.even_odd_coherent(0.0, "even", 32)
    np.testing.assert_allclose(vac.amplitudes, fl.basis_state(0, 32).amplitudes)


@pytest.mark.parametrize(
    "coeffs,state,parity_j",
    [
        (fl.svs_sector_coeffs(0.8, 0.5), fl.squeezed_vacuum(0.8, 0.5, 128), 0),
        (
            fl.sfes_sector_coeffs(0.8, 0.5),
            fl.squeezed_first_excited(0.8, 0.5, 128),
            1,
        ),
        (fl.ecs_sector_coeffs(1.1), fl.even_odd_coherent(1.1, "even", 128), 0),
        (fl.ocs_sector_coeffs(1.1), fl.even_odd_coherent(1.1, "odd", 128), 1),
    ],
)
def test_two_photon_ladder_forms(coeffs, state, parity_j):
    sec = fl.sector_embed(state)
    up, down = fl.two_photon_ladder(coeffs, parity_j, sec.dim)
    r_up = fl.verify_eigen_relation(up, sec, 0.0)
    assert r_up.checks[0].residual < 1e-10
    assert r_up.checks[0].leak < 1e-10
    # the second form references one amplitude beyond the truncation at
    # the top sector index, so that component is excluded here and the
    # larger-dim case below covers the full vector
    r_down = fl.verify_eigen_relation(down, sec, 0.0, edge_exclude=1)
    assert r_down.checks[0].residual < 1e-10


def test_two_photon_ladder_down_form_converges_with_dim():
    sec = fl.sector_embed(fl.squeezed_vacuum(0.8, 0.5, 192))
    _, down = fl.two_photon_ladder(fl.svs_sector_coeffs(0.8, 0.5), 0, sec.dim)
    report = fl.verify_eigen_relation(down, sec, 0.0)
    assert report.checks[0].residual < 1e-10


def test_two_photon_gdo_axioms_and_structure_fn():
    r = 0.8
    t = fl.two_photon_gdo(fl.svs_sector_coeffs(r, 0.5), 0, 32)
    report = fl.verify_gdo_axioms(t, family="squeezed_vacuum")
    assert report.passed, [c.name for c in report.failed_checks()]
    assert t.structure_fn(0) == 0.0
    # F(1) = 1^2 |c(1)/c(0)|^2 = 2 (tanh r / 2)^2
    assert t.structure_fn(1) == pytest.approx(math.tanh(r) ** 2 / 2, abs=1e-12)
    assert t.structure_fn(2) == pytest.approx(
        4 * abs(svs_amp(2, r, 0.5) / svs_amp(1, r, 0.5)) ** 2, abs=1e-12
    )


def test_two_photon_gdo_odd_sector():
    t = fl.two_photon_gdo(fl.ocs_sector_coeffs(1.1), 1, 32)
    report = fl.verify_gdo_axioms(t, family="odd_coherent")
    assert report.passed, [c.name for c in report.failed_checks()]


def test_svs_full_space_relation():
    r, theta, dim = 0.8, 0.5, 128
    s = fl.squeezed_vacuum(r, theta, dim)
    lam = cmath.exp(1j * theta) * math.tanh(r)
    report = fl.verify_eigen_relation(fl.svs_lowering(dim), s, lam)
    assert report.checks[0].residual < 1e-10
    assert report.checks[0].leak < 1e-10


def test_sfes_full_space_relation():
    r, theta, dim = 0.8, 0.5, 128
    s = fl.squeezed_first_excited(r, theta, dim)
    lam = cmath.exp(1j * theta) * math.tanh(r)
    report = fl.verify_eigen_relation(fl.sfes_lowering(dim), s, lam)
    assert report.checks[0].residual < 1e-10


def test_pair_relation_on_even_odd_coherent():
    alpha, dim = 1.1, 128
    for parity in ("even", "odd"):
        s = fl.even_odd_coherent(alpha, parity, dim)
        report = fl.verify_eigen_relation(fl.pair_lowering(dim), s, alpha**2)
        assert report.checks[0].residual < 1e-10, parity


def test_disentangling_squeezed_vacuum():
    report = fl.verify_disentangling(0.8, 0.5, 128)
    assert report.passed
    assert all(c.residual < 1e-8 for c in report.checks)
    assert report.params["excitation"] == 0


def test_disentangling_trivial_and_excited():
    trivial = fl.verify_disentangling(0.0, 0.0, 32)
    assert trivial.passed
    assert all(c.residual < 1e-12 for c in trivial.checks)

    excited = fl.verify_disentangling(0.8, 0.5, 128, excitation=1)
    assert excited.passed
    assert all(c.residual < 1e-8 for c in excited.checks)


def test_disentangling_strong_squeezing():
    # r = 1.0 still converges at dim = 128 and the deficits are reported
    report = fl.verify_disentangling(1.0, 0.2, 128)
    assert report.passed
    assert all(c.leak >= 0 for c in report.checks)
    # at dim = 64 the closed form itself refuses the truncation
    with pytest.raises(fl.TailMassError):
        fl.verify_disentangling(1.0, 0.2, 64)


def test_sector_coeff_callables_match_states():
    c = fl.svs_sector_coeffs(0.8, 0.5)
    s = fl.sector_embed(fl.squeezed_vacuum(0.8, 0.5, 64))
    # coefficients are unnormalized; ratios must match the state exactly
    for n in range(1, 8):
        assert c(n) / c(n - 1) == pytest.approx(
            complex(s.amplitudes[n] / s.amplitudes[n - 1]), abs=1e-12
        )
    assert c(-1) == 0.0
    assert fl.ocs_sector_coeffs(0.0)(3) == 0.0
    assert fl.ecs_sector_coeffs(0.0)(0) == 1.0


def test_cli_import_leaves_scipy_linalg_unloaded():
    code = (
        "import sys\n"
        "import fockladder.cli\n"
        "from fockladder import verify_disentangling\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "assert verify_disentangling(0.5, 0.3, 64).passed\n"
        "assert 'scipy.linalg' in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_even_odd_coherent_past_the_float_range_of_cosh(parity):
    # cosh |alpha|^2 overflows at |alpha| = 27; the state fits dim 1024
    alpha, j = 27.0, 0 if parity == "even" else 1
    s = fl.even_odd_coherent(alpha, parity, 1024)
    x = alpha**2
    log_norm = x - math.log(2.0)  # log cosh x = log sinh x here
    for k in (700 + j, 728 + j, 760 + j):
        expected = math.exp(k * math.log(x) - math.lgamma(k + 1) - log_norm)
        assert abs(s.amplitudes[k]) ** 2 == pytest.approx(expected, rel=1e-9)
