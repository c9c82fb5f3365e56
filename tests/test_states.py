import cmath
import math

import numpy as np
import pytest

from fockladder import (
    ParameterError,
    TailMassError,
    basis_state,
    binomial,
    build_state,
    coherent,
    even_odd_coherent,
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
    phase_point,
    photon_add,
    polya,
    reciprocal_binomial,
    squeezed_first_excited,
    squeezed_vacuum,
)
from fockladder.states import _check_angle, _finish, format_complex

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


@pytest.mark.parametrize("alpha,dim", [(39.0, 2400), (38.1, 2600), (38.0, 2600),
                                       (37.6404, 2600), (39j, 2400)])
def test_coherent_prefactor_below_the_normal_range_refuses_alpha(alpha, dim):
    # e^(-|alpha|^2/2) is subnormal there: the tail guard would count its
    # rounding as dropped mass at a dim that holds the state
    builds = (
        lambda: coherent(alpha, dim),
        lambda: kerr(alpha, 0.1, dim),
        lambda: photon_add(coherent(alpha, dim), 1),
    )
    for build in builds:
        with pytest.raises(ParameterError) as raised:
            build()
        assert not isinstance(raised.value, TailMassError)
        assert str(raised.value) == (
            f"alpha={format_complex(alpha)} puts the normalizing prefactor below "
            "the normal float range; |alpha| must be at most 37.6403"
        )
    assert coherent(37.6403, 2600).leak <= 1e-12


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
        pegg_barnett_phase(theta0=0.3, m=m, M=M, dim=M + 3)
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
    with pytest.raises(ParameterError, match=r"m must lie in \[0, M\]"):
        phase_point(theta0=0.0, m=5, M=4)
    with pytest.raises(ParameterError, match=r"m must lie in \[0, M\]"):
        pegg_barnett_phase(theta0=0.0, m=5, M=4, dim=10)
    # a fractional m names no point of the grid
    with pytest.raises(ParameterError, match="m must be a nonnegative integer"):
        phase_point(theta0=0.0, m=1.5, M=7)
    with pytest.raises(ParameterError, match="m must be a nonnegative integer"):
        build_state("pegg_barnett_phase", {"theta0": 0.0, "m": 1.5, "M": 7}, 15)


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
    s = intermediate_nlcs(eta, math.sqrt(eta) * q, 32)
    assert s.support == (0, q)
    assert s.leak == 0.0


def test_intermediate_divergent_case_flagged():
    with pytest.raises(TailMassError, match="normalizable"):
        intermediate_nlcs(0.5, 1.2, 64)
    s = intermediate_nlcs(0.5, 1.2, 64, tail_check=False)
    assert s.leak > 0.5
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-14)


def _prefix_scan_nlcs(eta, alpha, dim, f):
    """intermediate_nlcs(..., tail_check=False) by the rule that scans the
    whole prefix for its peak at every step: the state and the number of
    rescales."""
    seq = np.zeros(dim + 32, dtype=complex)
    seq[0] = 1.0
    rescales = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(dim + 31):
            fn = 1.0 if f is None else complex(f(n))
            seq[n + 1] = (alpha - math.sqrt(eta) * n) * seq[n] / (
                math.sqrt(1.0 - eta) * fn * math.sqrt(n + 1)
            )
            peak = np.abs(seq[: n + 2]).max()
            if peak > 1e120:
                seq[: n + 2] /= peak
                rescales += 1
    frac = float(np.vdot(seq[dim:], seq[dim:]).real) / float(np.vdot(seq, seq).real)
    label = f"intermediate_nlcs(eta={eta!r}, alpha={format_complex(alpha)})"
    return _finish(seq[:dim], label, leak=frac), rescales


@pytest.mark.parametrize("f", [None, lambda n: 1 + 0.1j * n, lambda n: 0.3 - 0.2j],
                         ids=["flat", "complex-ramp", "complex-constant"])
def test_intermediate_rescale_is_the_prefix_scan(f):
    # divergent recursions rescale; checking only the new entry keeps every bit
    rescaled = 0
    for eta in (0.5, 0.9, 0.99):
        for alpha in (1.2, 3 + 2j, -0.7j, 1e5j):
            for dim in (16, 64, 200):
                got = intermediate_nlcs(eta, alpha, dim, f, tail_check=False)
                want, rescales = _prefix_scan_nlcs(eta, alpha, dim, f)
                assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
                assert (got.norm_constant, got.leak, got.label) == (
                    want.norm_constant, want.leak, want.label
                )
                rescaled += rescales > 0
    assert rescaled >= 12


def test_intermediate_zero_f_named():
    with pytest.raises(ParameterError, match=r"f\(5\) = 0"):
        intermediate_nlcs(0.5, 0.3, 32, f=lambda n: 0 if n == 5 else 1)


def test_intermediate_runs_the_eta_rule():
    for eta in (0.0, 1.0, 1.5):
        with pytest.raises(ParameterError, match=r"eta must lie in \(0,1\)"):
            intermediate_nlcs(eta, 0.3, 32)


def test_intermediate_nonlinearity_changes_state():
    # alpha = sqrt(eta) q truncates the recursion regardless of f, so both
    # states are normalizable but weight the first q levels differently
    alpha = math.sqrt(0.5) * 4
    flat = intermediate_nlcs(0.5, alpha, 32)
    bent = intermediate_nlcs(0.5, alpha, 32, f=lambda n: 1.0 + 0.1 * n)
    assert flat.support == bent.support == (0, 4)
    assert fidelity(flat, bent) < 0.999999


def test_errors_are_value_errors():
    assert issubclass(ParameterError, ValueError)
    assert issubclass(TailMassError, ParameterError)


def test_phase_state_on_one_point_grid_is_vacuum():
    s = pegg_barnett_phase(theta0=0.1, m=0, M=0, dim=3)
    assert s.amplitudes.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ParameterError, match=r"m must lie in \[0, M\]"):
        phase_point(theta0=0.1, m=1, M=0)


# --- the finite-or-ParameterError contract at the parameter edges ---

NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: hypergeometric(NAN, 0.5, 3, 8),
    ],
    ids=["hgs-L-nan"],
)
def test_non_finite_amplitude_is_a_parameter_error(build):
    with pytest.raises(ParameterError, match="non-finite amplitude at n="):
        build()


# every coherent-type constructor, refused before it computes an amplitude
ALPHA_BUILDS = {
    "cs": lambda alpha: coherent(alpha, 8),
    "ks": lambda alpha: kerr(alpha, 0.1, 8),
    "pacs": lambda alpha: photon_add(coherent(alpha, 8), 1),
    "ecs": lambda alpha: even_odd_coherent(alpha, "even", 8),
    "ocs": lambda alpha: even_odd_coherent(alpha, "odd", 8),
    "intermediate": lambda alpha: intermediate_nlcs(0.5, alpha, 8),
}


@pytest.mark.parametrize(
    "family,alpha",
    [(f, a) for f in ALPHA_BUILDS for a in (NAN, math.inf, complex(0.5, -math.inf))],
    ids=[f"{f}-{a}" for f in ALPHA_BUILDS for a in ("nan", "inf", "imag-inf")],
)
def test_a_non_finite_alpha_is_refused_by_name(family, alpha):
    with pytest.raises(ParameterError, match="^alpha must be finite$"):
        ALPHA_BUILDS[family](alpha)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: kerr(1.0, NAN, 16), "^theta must be finite$"),
        (lambda: reciprocal_binomial(NAN, 3, 8), "^theta must be finite$"),
        (lambda: polya(0.4, 1e308, 3, 8), "gamma . M must lie inside"),
        (lambda: photon_add(coherent(1.0, 400), 300), "reduce M"),
        (lambda: squeezed_vacuum(800.0, 0.0, 64), "r=800.0 puts cosh r past"),
        (lambda: squeezed_first_excited(math.inf, 0.0, 64), "r=inf puts cosh r past"),
        (lambda: pegg_barnett_phase(-math.inf, 1, 3, 8), "^theta0 must be finite$"),
        (lambda: squeezed_vacuum(0.5, NAN, 16), "^theta must be finite$"),
    ],
    ids=["ks-theta-nan", "rbs-theta-nan", "ps-gamma-huge", "pacs-M-300", "svs-r-800",
         "sfes-r-inf", "pbps-theta0-inf", "svs-theta-nan"],
)
def test_parameters_past_the_float_range_are_parameter_errors(build, message):
    with pytest.raises(ParameterError, match=message):
        build()


@pytest.mark.parametrize("theta", [0.0, -0.0, 0.7, -3.0, math.pi, -math.pi])
def test_the_angle_rule_keeps_an_angle_inside_pi_bit_for_bit(theta):
    assert repr(_check_angle(theta)) == repr(theta)


@pytest.mark.parametrize("theta", [math.nextafter(math.pi, 4.0), 4.84, -7.35, 1e300, -1e308])
def test_the_angle_rule_reduces_an_angle_past_pi_once(theta):
    reduced = _check_angle(theta)
    assert reduced == math.atan2(math.sin(theta), math.cos(theta))
    assert -math.pi <= reduced <= math.pi
    assert _check_angle(reduced) == reduced


# a finite theta past the old theta * top bound is one angle, read as such
@pytest.mark.parametrize(
    "build,theta",
    [
        (lambda theta: kerr(1.0, theta, 16), 1e306),
        (lambda theta: reciprocal_binomial(theta, 3, 8), 1e308),
        (lambda theta: pegg_barnett_phase(theta, 1, 3, 8), 1e308),
        (lambda theta: squeezed_vacuum(0.5, theta, 128), 1e308),
    ],
    ids=["ks-theta-huge", "rbs-theta-huge", "pbps-theta0-huge", "svs-theta-huge"],
)
def test_a_huge_finite_angle_builds_the_state_at_its_reduced_angle(build, theta):
    state, reduced = build(theta), build(math.atan2(math.sin(theta), math.cos(theta)))
    assert np.array_equal(state.amplitudes, reduced.amplitudes)
    assert state.norm_constant == reduced.norm_constant
    assert state.norm == pytest.approx(1.0)


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


def test_hypergeometric_past_the_float_range_is_binomial():
    # C(L eta, n) passes the float range at L = 1e300, the log weights do
    # not; drawing 3 of 1e300 is drawing with replacement
    s = hypergeometric(1e300, 0.5, 3, 8)
    np.testing.assert_allclose(probs(s), probs(binomial(0.5, 3, 8)), rtol=0, atol=1e-12)
    assert s.norm_constant == pytest.approx(1.0, rel=1e-12)


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
