import cmath
import math

import numpy as np
import pytest

from fockladder import (
    IntermediateParams,
    ParameterError,
    PhaseGrid,
    TailMassError,
    basis_state,
    binomial,
    coherent,
    fidelity,
    generalized_geometric,
    geometric,
    hypergeometric,
    intermediate_nlcs,
    kerr,
    negative_binomial,
    new_negative_binomial,
    overlap,
    pegg_barnett_phase,
    photon_add,
    polya,
    reciprocal_binomial,
    squeezed_first_excited,
    squeezed_vacuum,
)

from _oracles import (
    binomial_pmf,
    geometric_pmf,
    hypergeometric_pmf,
    negative_binomial_pmf,
    poisson_pmf,
    polya_pmf,
    shifted_negative_binomial_pmf,
)


def probs(state):
    return np.abs(state.amplitudes) ** 2


def test_coherent_matches_poisson_oracle():
    alpha = 1.3
    s = coherent(alpha, 64)
    for n in range(64):
        assert probs(s)[n] == pytest.approx(poisson_pmf(alpha**2, n), abs=1e-13)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-14)


def test_coherent_complex_alpha_phases():
    alpha = 0.8 * cmath.exp(0.7j)
    s = coherent(alpha, 48)
    for n in (1, 5, 17):
        expected = alpha**n / math.sqrt(math.factorial(n))
        ratio = s.amplitudes[n] / s.amplitudes[0]
        assert ratio == pytest.approx(expected, rel=1e-12)


def test_coherent_vacuum_case():
    s = coherent(0, 8)
    assert s.support == (0, 0)
    assert s.amplitudes[0] == 1.0


def test_coherent_tail_rejected():
    with pytest.raises(TailMassError, match="increase dim"):
        coherent(3.0, 12)


def test_binomial_matches_oracle():
    for eta, M in [(0.5, 4), (0.37, 9), (0.9, 2)]:
        s = binomial(eta, M, M + 8)
        for n in range(M + 1):
            assert probs(s)[n] == pytest.approx(binomial_pmf(M, eta, n), abs=1e-14)
        assert s.support == (0, M)


def test_binomial_large_M_stays_finite():
    # direct powers eta^n (1-eta)^(M-n) would underflow long before M=400
    M = 400
    eta = 1.0 / M
    s = binomial(eta, M, M + 2)
    for n in range(6):
        assert probs(s)[n] == pytest.approx(binomial_pmf(M, eta, n), rel=1e-10)


def test_binomial_parameter_errors():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ParameterError, match=r"eta must lie in \(0,1\)"):
            binomial(bad, 4, 12)
    with pytest.raises(ParameterError, match="dim must exceed M"):
        binomial(0.5, 4, 4)
    with pytest.raises(ParameterError, match="M must be a nonnegative integer"):
        binomial(0.5, -1, 12)


def test_hypergeometric_matches_oracle():
    L, eta, M = 40, 0.5, 5
    s = hypergeometric(L, eta, M, M + 8)
    for n in range(M + 1):
        assert probs(s)[n] == pytest.approx(
            hypergeometric_pmf(L, int(L * eta), M, n), abs=1e-14
        )


def test_hypergeometric_L_bound_enforced():
    with pytest.raises(ParameterError, match="L must satisfy"):
        hypergeometric(9.0, 0.5, 5, 13)


def test_polya_matches_oracle():
    eta, gamma, M = 0.4, 0.7, 5
    s = polya(eta, gamma, M, M + 8)
    for n in range(M + 1):
        assert probs(s)[n] == pytest.approx(polya_pmf(M, eta, gamma, n), abs=1e-14)
    with pytest.raises(ParameterError, match="gamma must be positive"):
        polya(0.4, 0.0, 5, 13)


def test_reciprocal_binomial_amplitudes():
    theta, M = 0.7, 4
    s = reciprocal_binomial(theta, M, 12)
    norm = math.sqrt(sum(1.0 / math.comb(M, n) for n in range(M + 1)))
    assert s.norm_constant == pytest.approx(1.0 / norm, rel=1e-14)
    for n in range(M + 1):
        expected = cmath.exp(1j * n * theta) / math.sqrt(math.comb(M, n)) / norm
        assert s.amplitudes[n] == pytest.approx(expected, abs=1e-14)


def test_phase_states_flat_and_orthonormal():
    M = 7
    states = [
        pegg_barnett_phase(PhaseGrid(theta0=0.3, s=M, m=m), M, M + 3)
        for m in range(M + 1)
    ]
    for s in states:
        np.testing.assert_allclose(
            np.abs(s.amplitudes[: M + 1]), 1.0 / math.sqrt(M + 1), atol=1e-14
        )
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            assert overlap(a, b) == pytest.approx(float(i == j), abs=1e-13)


def test_phase_grid_validation():
    with pytest.raises(ParameterError, match=r"m must lie in \[0, s\]"):
        PhaseGrid(theta0=0.0, s=4, m=5)
    with pytest.raises(ParameterError, match="grid.s must equal M"):
        pegg_barnett_phase(PhaseGrid(theta0=0.0, s=3, m=0), M=4, dim=10)


def test_generalized_geometric_complex_Y():
    Y = 0.3 * cmath.exp(1j * math.pi / 3)
    M = 6
    s = generalized_geometric(Y, M, 14)
    root = cmath.sqrt(Y)
    for n in range(M):
        assert s.amplitudes[n + 1] / s.amplitudes[n] == pytest.approx(
            root, rel=1e-12
        )
    expected0 = math.sqrt((1.0 - abs(Y)) / (1.0 - abs(Y) ** (M + 1)))
    assert abs(s.amplitudes[0]) == pytest.approx(expected0, rel=1e-13)
    with pytest.raises(ParameterError, match=r"\|Y\| must not be 1"):
        generalized_geometric(cmath.exp(0.4j), M, 14)


def test_geometric_matches_oracle_and_tail():
    eta = 0.4
    s = geometric(eta, 128)
    for n in (0, 1, 7, 50):
        assert probs(s)[n] == pytest.approx(geometric_pmf(eta, n), abs=1e-14)
    with pytest.raises(TailMassError):
        geometric(0.4, 8)


def test_negative_binomial_matches_oracle():
    eta, M = 0.3, 3
    s = negative_binomial(eta, M, 256)
    for n in (0, 1, 2, 10, 40):
        assert probs(s)[n] == pytest.approx(
            negative_binomial_pmf(M, eta, n), abs=1e-14
        )
    with pytest.raises(ParameterError, match="M must be an integer >= 1"):
        negative_binomial(0.3, 0, 64)


def test_new_negative_binomial_support_starts_at_M():
    eta, M = 0.3, 2
    s = new_negative_binomial(eta, M, 256)
    assert s.support[0] == M
    assert np.all(s.amplitudes[:M] == 0)
    for n in (2, 3, 9, 30):
        assert probs(s)[n] == pytest.approx(
            shifted_negative_binomial_pmf(M, eta, n), abs=1e-14
        )


def test_kerr_statistics_and_phase():
    alpha, theta = 1.0, 0.3
    k = kerr(alpha, theta, 64)
    c = coherent(alpha, 64)
    np.testing.assert_allclose(probs(k), probs(c), atol=1e-15)
    for n in (2, 3, 7):
        phase = k.amplitudes[n] / c.amplitudes[n]
        assert phase == pytest.approx(cmath.exp(-1j * theta * n * (n - 1)), rel=1e-12)


def test_photon_add_reproduces_shifted_family():
    base = geometric(0.4, 128)
    added = photon_add(base, 2)
    target = new_negative_binomial(0.4, 2, 128)
    np.testing.assert_allclose(added.amplitudes, target.amplitudes, atol=1e-13)
    assert added.support[0] == 2


def test_photon_add_zero_is_identity():
    base = coherent(1.1, 64)
    again = photon_add(base, 0)
    np.testing.assert_allclose(again.amplitudes, base.amplitudes, atol=1e-15)


def test_photon_add_norm_constant_matches_direct_norm():
    # adding one quantum to |alpha> scales by 1/sqrt(1+|alpha|^2) in the
    # untruncated limit
    alpha = 1.0
    base = coherent(alpha, 64)
    added = photon_add(base, 1)
    assert added.norm_constant == pytest.approx(
        1.0 / math.sqrt(1.0 + alpha**2), rel=1e-10
    )


def test_photon_add_spill_rejected():
    base = basis_state(63, 64)
    with pytest.raises(TailMassError, match="beyond the truncation"):
        photon_add(base, 1)


def test_intermediate_truncating_case():
    # alpha = sqrt(eta) q makes the recursion terminate at n = q
    eta, q = 0.5, 3
    p = IntermediateParams(eta=eta, alpha_eig=math.sqrt(eta) * q)
    s = intermediate_nlcs(p, 32)
    assert s.support == (0, q)
    assert s.leak == 0.0


def test_intermediate_divergent_case_flagged():
    p = IntermediateParams(eta=0.5, alpha_eig=1.2)
    with pytest.raises(TailMassError, match="normalizable"):
        intermediate_nlcs(p, 64)
    s = intermediate_nlcs(p, 64, tail_check=False)
    assert s.leak > 0.5
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-14)


def test_intermediate_zero_f_named():
    p = IntermediateParams(eta=0.5, alpha_eig=0.3, f=lambda n: 0 if n == 5 else 1)
    with pytest.raises(ParameterError, match=r"f\(5\) = 0"):
        intermediate_nlcs(p, 32)


def test_intermediate_nonlinearity_changes_state():
    # alpha = sqrt(eta) q truncates the recursion regardless of f, so both
    # states are normalizable but weight the first q levels differently
    alpha = math.sqrt(0.5) * 4
    flat = intermediate_nlcs(IntermediateParams(eta=0.5, alpha_eig=alpha), 32)
    bent = intermediate_nlcs(
        IntermediateParams(eta=0.5, alpha_eig=alpha, f=lambda n: 1.0 + 0.1 * n), 32
    )
    assert flat.support == bent.support == (0, 4)
    assert fidelity(flat, bent) < 0.999999


def test_errors_are_value_errors():
    assert issubclass(ParameterError, ValueError)
    assert issubclass(TailMassError, ParameterError)


def test_phase_state_on_one_point_grid_is_vacuum():
    s = pegg_barnett_phase(PhaseGrid(theta0=0.1, s=0, m=0), 0, 3)
    assert s.amplitudes.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ParameterError, match=r"m must lie in \[0, s\]"):
        PhaseGrid(theta0=0.1, s=0, m=1)


# --- the finite-or-ParameterError contract at the parameter edges ---

NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: hypergeometric(NAN, 0.5, 3, 8),
        lambda: hypergeometric(1e300, 0.5, 3, 8),
        lambda: coherent(complex(NAN), 8),
        lambda: squeezed_vacuum(0.5, NAN, 16),
    ],
    ids=["hgs-L-nan", "hgs-L-1e300", "cs-alpha-nan", "svs-theta-nan"],
)
def test_non_finite_amplitude_is_a_parameter_error(build):
    with pytest.raises(ParameterError, match="non-finite amplitude at n="):
        build()


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: kerr(1.0, NAN, 16), "theta must be finite"),
        (lambda: kerr(1.0, 1e306, 16), "theta must be finite"),
        (lambda: reciprocal_binomial(NAN, 3, 8), "theta must be finite"),
        (lambda: reciprocal_binomial(1e308, 3, 8), "theta must be finite"),
        (lambda: polya(0.4, 1e308, 3, 8), "gamma . M must lie inside"),
        (lambda: photon_add(coherent(1.0, 400), 300), "reduce M"),
        (lambda: squeezed_vacuum(800.0, 0.0, 64), "r=800.0 puts cosh r past"),
        (lambda: squeezed_first_excited(math.inf, 0.0, 64), "r=inf puts cosh r past"),
        (
            lambda: pegg_barnett_phase(PhaseGrid(1e308, 3, 1), 3, 8),
            "theta0 must be finite, with theta0 . 3 inside",
        ),
    ],
    ids=["ks-theta-nan", "ks-theta-huge", "rbs-theta-nan", "rbs-theta-huge", "ps-gamma-huge",
         "pacs-M-300", "svs-r-800", "sfes-r-inf", "pbps-theta0-huge"],
)
def test_parameters_past_the_float_range_are_parameter_errors(build, message):
    with pytest.raises(ParameterError, match=message):
        build()


@pytest.mark.parametrize("eta,M,dim", [(0.999999, 60, 64), (0.5, 1100, 1200)])
def test_binomial_log_route_where_the_seed_underflows(eta, M, dim):
    # (1-eta)^M underflows to 0 here, which the old recurrence started from
    s = binomial(eta, M, dim)
    assert s.support == (0, M)
    for n in (0, M // 2, M - 1, M):
        assert probs(s)[n] == pytest.approx(binomial_pmf(M, eta, n), rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("eta,gamma,M,dim", [(0.4, 0.7, 192, 200), (0.999, 0.7, 400, 410)])
def test_polya_log_route_where_the_products_overflow(eta, gamma, M, dim):
    s = polya(eta, gamma, M, dim)
    assert np.all(np.isfinite(s.amplitudes))
    for n in (0, 1, M // 2, M):
        assert probs(s)[n] == pytest.approx(polya_pmf(M, eta, gamma, n), rel=1e-9)


def test_generalized_geometric_past_the_float_range():
    # Y^(M/2) overflows; the weights 2^n / (2^(M+1) - 1) and 1e300^n do not
    s = generalized_geometric(2.0, 1100, 1101)
    assert probs(s)[1100] == pytest.approx(0.5, rel=1e-12)
    assert probs(s)[1099] == pytest.approx(0.25, rel=1e-12)
    big = generalized_geometric(1e300, 3, 8)
    assert probs(big)[3] == pytest.approx(1.0, rel=1e-15)
    assert np.all(np.isfinite(big.amplitudes))


@pytest.mark.parametrize(
    "build,pmf",
    [
        (lambda: negative_binomial(0.5, 1200, 4000), lambda n: negative_binomial_pmf(1200, 0.5, n)),
        (
            lambda: new_negative_binomial(0.5, 1100, 4000),
            lambda n: shifted_negative_binomial_pmf(1100, 0.5, n),
        ),
    ],
    ids=["nbs", "nnbs"],
)
def test_negative_binomials_past_the_float_range_of_C(build, pmf):
    s = build()
    assert abs(s.norm - 1.0) <= 1e-12
    for n in (1100, 1200, 2300, 2400):
        assert probs(s)[n] == pytest.approx(pmf(n), rel=1e-9)
