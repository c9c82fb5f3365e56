import cmath
import dataclasses
import math

import numpy as np
import pytest

import fockladder as fl
import fockladder.verify as verify

from _oracles import (
    added_coherent_lowering_reference,
    added_coherent_right_reference,
    added_lowered_right_reference,
    added_raising_reference,
    bs_ladder_reference,
    gdo_residuals,
    general_lowering_reference,
    ggs_ladder_reference,
    gs_lowering_reference,
    gs_pair_right_reference,
    hgs_ladder_reference,
    intermediate_ladder_reference,
    kerr_lowering_reference,
    matrix_reference,
    nbs_lowering_reference,
    nnbs_lowering_reference,
    pair_left_reference,
    pbps_ladder_reference,
    ps_ladder_reference,
    rbs_ladder_reference,
    shifted_lowered_right_reference,
    step_down_f_reference,
    step_down_g_reference,
    step_up_f_reference,
    step_up_g_reference,
)

ETA, M_BS = 0.5, 4


def bs_state(dim=12):
    return fl.binomial(ETA, M_BS, dim)


def test_harmonic_triple_is_undeformed():
    t = fl.harmonic_gdo(12)
    for n in range(12):
        assert t.structure_fn(n) == pytest.approx(n, abs=1e-14)
    assert fl.verify_gdo_axioms(t).passed


def test_generic_finite_ladder_eigenrelation():
    s = bs_state()
    lowering = fl.ladder_lowering_finite(s.amplitudes, M_BS)
    op = fl.add(fl.number_op(s.dim), lowering)
    report = fl.verify_eigen_relation(op, s, M_BS, equation="E13")
    assert report.passed
    assert report.checks[0].residual < 1e-12
    assert report.checks[0].leak == 0.0


def test_bs_literal_matches_generic():
    s = bs_state()
    literal = fl.bs_ladder(ETA, M_BS, s.dim)
    assert fl.verify_eigen_relation(literal, s, M_BS).checks[0].residual < 1e-12
    generic = fl.add(
        fl.number_op(s.dim), fl.ladder_lowering_finite(s.amplitudes, M_BS)
    )
    np.testing.assert_allclose(
        fl.to_matrix(literal), fl.to_matrix(generic), atol=1e-13
    )


def test_bs_structure_function_values():
    # frozen oracle: F(n) = n(M-n+1)(1-eta)/eta, so 0,4,6,6,4 at eta=1/2, M=4
    t = fl.finite_gdo(bs_state().amplitudes, M_BS)
    expected = [0.0, 4.0, 6.0, 6.0, 4.0]
    for n, want in enumerate(expected):
        assert t.structure_fn(n) == pytest.approx(want, abs=1e-12)
    for n in range(M_BS + 1, 12):
        assert t.structure_fn(n) == pytest.approx(0.0, abs=1e-13)


def test_structure_function_matches_coefficient_ratio_form():
    # F(n) = (M-n+1)^2 |C(n-1)/C(n)|^2 on [1, M]
    s = bs_state()
    t = fl.finite_gdo(s.amplitudes, M_BS)
    c = s.amplitudes
    for n in range(1, M_BS + 1):
        want = (M_BS - n + 1) ** 2 * abs(c[n - 1] / c[n]) ** 2
        assert t.structure_fn(n) == pytest.approx(want, rel=1e-12)


def test_rayleigh_quotient_recovers_M():
    s = bs_state()
    op = fl.add(fl.number_op(s.dim), fl.ladder_lowering_finite(s.amplitudes, M_BS))
    image = fl.apply(op, s)
    rayleigh = complex(np.vdot(s.amplitudes, image.amplitudes))
    assert rayleigh == pytest.approx(M_BS, abs=1e-10)


@pytest.mark.parametrize(
    "state,op",
    [
        (
            fl.hypergeometric(40, 0.5, 5, 13),
            fl.hgs_ladder(40, 0.5, 5, 13),
        ),
        (
            fl.polya(0.4, 0.7, 5, 13),
            fl.ps_ladder(0.4, 0.7, 5, 13),
        ),
        (
            fl.reciprocal_binomial(0.7, 4, 12),
            fl.rbs_ladder(0.7, 4, 12),
        ),
        (
            fl.pegg_barnett_phase(0.0, 2, 7, 15),
            fl.pbps_ladder(fl.phase_point(0.0, 2, 7), 7, 15),
        ),
        (
            fl.generalized_geometric(0.3 * cmath.exp(1j * math.pi / 3), 6, 14),
            fl.ggs_ladder(0.3 * cmath.exp(1j * math.pi / 3), 6, 14),
        ),
    ],
    ids=["hgs", "ps", "rbs", "pbps", "ggs"],
)
def test_finite_family_literal_ladders(state, op):
    M = state.support[1]
    report = fl.verify_eigen_relation(op, state, M)
    assert report.passed, report.checks[0].detail
    assert report.checks[0].residual < 1e-10


def test_ps_printed_variant_fails_derived_passes():
    s = fl.polya(0.4, 0.7, 5, 13)
    derived = fl.ps_ladder(0.4, 0.7, 5, 13, variant="derived")
    printed = fl.ps_ladder(0.4, 0.7, 5, 13, variant="printed")
    r_derived = fl.verify_eigen_relation(derived, s, 5).checks[0].residual
    r_printed = fl.verify_eigen_relation(printed, s, 5).checks[0].residual
    assert r_derived < 1e-12
    assert r_printed > 1e-1
    with pytest.raises(ValueError, match="variant"):
        fl.ps_ladder(0.4, 0.7, 5, 13, variant="corrected")


def test_finite_families_match_generic_construction():
    for state, op in [
        (fl.hypergeometric(40, 0.5, 5, 13), fl.hgs_ladder(40, 0.5, 5, 13)),
        (fl.reciprocal_binomial(0.7, 4, 12), fl.rbs_ladder(0.7, 4, 12)),
    ]:
        M = state.support[1]
        generic = fl.add(
            fl.number_op(state.dim),
            fl.ladder_lowering_finite(state.amplitudes, M),
        )
        np.testing.assert_allclose(
            fl.to_matrix(op), fl.to_matrix(generic), atol=1e-12
        )


def test_gdo_axioms_finite_families():
    cases = [
        (bs_state(), M_BS, "binomial"),
        (fl.reciprocal_binomial(0.7, 4, 12), 4, "reciprocal_binomial"),
        (fl.generalized_geometric(0.3 * cmath.exp(1j * math.pi / 3), 6, 14), 6, "ggs"),
    ]
    for s, M, family in cases:
        t = fl.finite_gdo(s.amplitudes, M)
        report = fl.verify_gdo_axioms(t, family=family)
        assert report.passed, report.failed_checks()
        names = {c.name for c in report.checks}
        assert "gdo-fock-condition" in names
        assert "gdo-shift-consistency" in names


def test_shifted_ladder_and_gdo():
    eta, M = 0.3, 2
    s = fl.new_negative_binomial(eta, M, 256)
    raising = fl.ladder_raising_shifted(s.amplitudes, M)
    op = fl.sub(fl.number_op(s.dim), raising)
    report = fl.verify_eigen_relation(op, s, M, equation="E37 E45")
    assert report.passed
    assert report.checks[0].residual < 1e-10

    cf = fl.closed_form_coeffs("new_negative_binomial", {"eta": eta, "M": M}, 64)
    t = fl.shifted_gdo(cf, M, dim=64)
    assert t.n_min == M
    axioms = fl.verify_gdo_axioms(t)
    assert axioms.passed, axioms.failed_checks()
    # bottom of the shifted tower: F vanishes on n <= M
    for n in range(M + 1):
        assert t.structure_fn(n) == pytest.approx(0.0, abs=1e-14)
    # frozen oracle: F(n) = n(n-M)(1-eta) for this family
    for n in range(M + 1, 20):
        assert t.structure_fn(n) == pytest.approx(n * (n - M) * (1 - eta), rel=1e-10)


def test_shifted_lowered_relation():
    eta, M = 0.3, 2
    s = fl.new_negative_binomial(eta, M, 256)
    lhs, rhs = fl.shifted_lowered_pair(s.amplitudes, M, s.dim)
    report = fl.verify_relation(lhs, rhs, s, equation="E38")
    assert report.passed
    assert report.checks[0].residual < 1e-10


def test_nnbs_literal_lowering():
    eta, M = 0.3, 2
    s = fl.new_negative_binomial(eta, M, 256)
    op = fl.nnbs_lowering(M, s.dim)
    report = fl.verify_eigen_relation(op, s, math.sqrt(1 - eta), equation="E51")
    assert report.passed
    assert report.checks[0].residual < 1e-10
    assert report.checks[0].leak == 0.0


def test_photon_added_ladders():
    alpha, M = 1.0, 1
    base_coeffs = fl.coherent_coeffs(alpha)
    s = fl.photon_add(fl.coherent(alpha, 64), M)

    raising_op = fl.added_raising_ladder(base_coeffs, M, s.dim)
    assert fl.verify_eigen_relation(raising_op, s, M).checks[0].residual < 1e-10

    lhs, rhs = fl.added_lowered_pair(base_coeffs, M, s.dim)
    assert fl.verify_relation(lhs, rhs, s).checks[0].residual < 1e-10

    lhs_c, rhs_c = fl.added_coherent_pair(alpha, M, s.dim)
    assert fl.verify_relation(lhs_c, rhs_c, s).checks[0].residual < 1e-10

    lowering_op = fl.added_coherent_lowering(alpha, M, s.dim)
    check = fl.verify_eigen_relation(lowering_op, s, alpha).checks[0]
    assert check.residual < 1e-10
    assert check.leak == 0.0


def test_general_ladder_forms_coherent():
    alpha = 1.0
    s = fl.coherent(alpha, 64)
    raising_form, lowering_form = fl.ladder_general(fl.coherent_coeffs(alpha), s.dim)
    r1 = fl.verify_eigen_relation(raising_form, s, 0.0, equation="E52").checks[0]
    r2 = fl.verify_eigen_relation(lowering_form, s, 0.0, equation="E53").checks[0]
    assert r1.residual < 1e-10
    assert r2.residual < 1e-10
    # the eigenvalue statement itself
    a = fl.annihilation(s.dim)
    assert fl.verify_eigen_relation(a, s, alpha, equation="E55").checks[0].residual < 1e-10


def test_general_ladder_vacuum_degenerate():
    s = fl.coherent(0, 8)
    raising_form, lowering_form = fl.ladder_general(fl.coherent_coeffs(0), 8)
    assert fl.verify_eigen_relation(raising_form, s, 0.0).passed
    assert fl.verify_eigen_relation(lowering_form, s, 0.0).passed


def test_general_gdo_coherent_structure_fn():
    # |C(n)/C(n-1)|^2 = |alpha|^2/n, so F(n) = n|alpha|^2
    alpha = 1.3
    t = fl.general_gdo(fl.coherent_coeffs(alpha), 16)
    for n in range(16):
        assert t.structure_fn(n) == pytest.approx(n * alpha**2, rel=1e-12, abs=1e-13)
    assert fl.verify_gdo_axioms(t).passed


def test_geometric_relations():
    eta = 0.4
    s = fl.geometric(eta, 128)
    lhs, rhs = fl.gs_pair(eta, s.dim)
    assert fl.verify_relation(lhs, rhs, s, equation="E57").checks[0].residual < 1e-10
    op = fl.gs_lowering(s.dim)
    check = fl.verify_eigen_relation(op, s, math.sqrt(1 - eta), equation="E58").checks[0]
    assert check.residual < 1e-10
    assert check.leak == 0.0


def test_nbs_relation():
    eta, M = 0.3, 3
    s = fl.negative_binomial(eta, M, 256)
    op = fl.nbs_lowering(M, s.dim)
    check = fl.verify_eigen_relation(op, s, math.sqrt(eta), equation="E60").checks[0]
    assert check.residual < 1e-10


def test_kerr_phase_sign():
    alpha, theta = 1.0, 0.3
    s = fl.kerr(alpha, theta, 64)
    derived = fl.kerr_lowering(theta, s.dim, variant="derived")
    printed = fl.kerr_lowering(theta, s.dim, variant="printed")
    r_derived = fl.verify_eigen_relation(derived, s, alpha).checks[0].residual
    r_printed = fl.verify_eigen_relation(printed, s, alpha).checks[0].residual
    assert r_derived < 1e-10
    assert r_printed > 1e-1


def test_step_down_both_routes():
    for maker, args, M in [
        (fl.binomial, (ETA,), 4),
        (fl.reciprocal_binomial, (0.7,), 4),
        (fl.polya, (0.4, 0.7), 5),
    ]:
        dim = M + 8
        upper = maker(*args, M, dim)
        lower = maker(*args, M - 1, dim)
        f_op = fl.step_down_f(upper.amplitudes, lower.amplitudes)
        g_op = fl.step_down_g(upper.amplitudes, lower.amplitudes, M)
        f_image = fl.apply(f_op, upper)
        g_image = fl.apply(g_op, upper)
        assert np.linalg.norm(f_image.amplitudes - lower.amplitudes) < 1e-12
        assert np.linalg.norm(g_image.amplitudes - lower.amplitudes) < 1e-12
        rel = fl.verify_relation(f_op, g_op, upper, equation="E8")
        assert rel.checks[0].residual < 1e-12


def test_step_up_both_routes():
    eta, M = 0.3, 2
    dim = 256
    here = fl.new_negative_binomial(eta, M, dim)
    above = fl.new_negative_binomial(eta, M + 1, dim)
    f_op = fl.step_up_f(here.amplitudes, above.amplitudes)
    g_op = fl.step_up_g(here.amplitudes, above.amplitudes, M)
    f_image = fl.apply(f_op, here)
    g_image = fl.apply(g_op, here)
    assert np.linalg.norm(f_image.amplitudes - above.amplitudes) < 1e-10
    assert np.linalg.norm(g_image.amplitudes - above.amplitudes) < 1e-10


def test_zero_coefficient_named():
    op = fl.ladder_lowering_finite([1.0, 0.0, 1.0], 2)
    with pytest.raises(fl.ZeroCoefficientError, match=r"C\(1\) = 0"):
        fl.apply(op, fl.basis_state(1, 3))


def test_zero_numerator_short_circuits():
    # the vanishing numerator factor is applied before any division, so a
    # zero coefficient beyond the reachable range never raises
    op = fl.ladder_lowering_finite([1.0, 0.5, 0.0], 2)
    image = fl.apply(op, fl.basis_state(0, 3))
    assert np.all(image.amplitudes == 0)


def test_callable_coeffs_require_dim():
    with pytest.raises(fl.ParameterError, match="dim is required"):
        fl.ladder_lowering_finite(fl.coherent_coeffs(1.0), 2)


def test_edge_exclude_noted_in_detail():
    s = fl.coherent(1.0, 16)
    report = fl.verify_eigen_relation(
        fl.annihilation(16), s, 1.0, edge_exclude=1
    )
    assert "excluded" in report.checks[0].detail


def test_structure_function_vectorized():
    t = fl.harmonic_gdo(8)
    np.testing.assert_allclose(
        fl.structure_function(t, range(5)), [0, 1, 2, 3, 4], atol=1e-14
    )


def test_symbolic_and_dense_products_agree():
    s = bs_state()
    t = fl.finite_gdo(s.amplitudes, M_BS)
    product = fl.compose(t.raising, t.lowering)
    diag = np.diag(fl.to_matrix(product)).real
    for n in range(s.dim):
        assert diag[n] == pytest.approx(t.structure_fn(n), abs=1e-12)


# --- structure function from the band terms ---


def _applied_F(lowering, n):
    """The reference route: apply lowering to a basis FockState."""
    if not 0 <= n < lowering.domain_dim:
        return 0.0
    image = fl.apply(lowering, fl.basis_state(n, lowering.domain_dim))
    return float(np.vdot(image.amplitudes, image.amplitudes).real) + image.leak


@pytest.mark.parametrize(
    "family,params,dim", fl.EXTENDED_GRID, ids=[row[0] for row in fl.EXTENDED_GRID]
)
def test_structure_fn_equals_applied_route(family, params, dim):
    t = fl.build_gdo(family, params, dim)
    for n in range(t.dim + 1):
        assert t.structure_fn(n) == _applied_F(t.lowering, n)


# one family of each kind at dim 1024
KINDS_AT_1024 = (
    ("binomial", {"eta": 0.5, "M": 1000}, 1024),
    ("coherent", {"alpha": 1.0}, 1024),
    ("new_negative_binomial", {"eta": 0.3, "M": 2}, 1024),
    ("svs", {"r": 0.8, "theta": 0.5}, 1024),
    ("pacs", {"alpha": 1.0, "M": 1}, 1024),
)


def test_kinds_at_1024_cover_every_kind():
    kinds = {fl.FAMILY_SPECS[family].kind for family, _, _ in KINDS_AT_1024}
    assert kinds == {spec.kind for spec in fl.FAMILY_SPECS.values()}


@pytest.mark.parametrize(
    "family,params,dim",
    fl.EXTENDED_GRID + KINDS_AT_1024,
    ids=[row[0] for row in fl.EXTENDED_GRID] + [f"{row[0]}-1024" for row in KINDS_AT_1024],
)
def test_structure_table_is_the_per_index_read_bit_for_bit(family, params, dim):
    t = fl.build_gdo(family, params, dim)
    per_index = np.array([t.structure_fn(n) for n in range(t.dim)])
    assert t.structure_table.dtype == per_index.dtype
    assert t.structure_table.tobytes() == per_index.tobytes()
    padded = np.concatenate(([0.0], per_index, [0.0]))
    assert fl.structure_function(t, range(-1, t.dim + 1)).tobytes() == padded.tobytes()


def test_every_lowering_is_one_lowering_term():
    # the structure-function table reads one term d(N) a^m with m >= 1
    triples = [fl.build_gdo(*row) for row in fl.EXTENDED_GRID] + [fl.harmonic_gdo(8)]
    for t in triples:
        ((k, _),) = t.lowering.terms
        assert k < 0


def test_structure_fn_skips_annihilated_index():
    def d(n):
        if n == 0:
            raise AssertionError("diagonal evaluated at an annihilated index")
        return 1.0

    F = fl.ladder._OperationalF(fl.core.operator([(-1, d)], 4))
    assert F(0) == 0.0
    assert F(1) == 1.0
    assert F(3) == pytest.approx(3.0, rel=1e-15)


def test_structure_fn_names_non_finite_index():
    F = fl.ladder._OperationalF(
        fl.core.operator([(-1, lambda n: math.nan if n == 2 else 1.0)], 4)
    )
    # the first read builds the whole table, so it names the index
    with pytest.raises(fl.OperatorEvaluationError, match="index 2"):
        F(1)


# --- builders against their per-index references, bit for bit ---

# complex, with a zero inside the support at n = 5: a ratio that reads it
# as a numerator is 0, one that divides by it raises
COEFFS = [0.8, 0.5 - 0.3j, -0.4 + 0.2j, 0.3j, 0.25, 0.0, 0.1 - 0.1j, 0.05 + 0.02j,
          0.03, -0.01j]
NEIGHBOR = [0.7 + 0.1j, 0.6, -0.5j, 0.4 - 0.2j, 0.3, 0.2 + 0.2j, -0.1, 0.08j, 0.06,
            0.02 - 0.01j]


def _matrix_or_raised(build):
    try:
        return build()
    except (fl.ZeroCoefficientError, ZeroDivisionError):
        return "raised"


def _assert_same(builds, references):
    """Each builder's to_matrix equals its reference by ==, or both raise;
    returns the outcomes' kinds."""
    kinds = set()
    for build, reference in zip(builds, references):
        got = _matrix_or_raised(lambda: fl.to_matrix(build()))
        want = _matrix_or_raised(reference)
        if isinstance(want, str) or isinstance(got, str):
            assert (type(got), type(want)) == (str, str)
        else:
            assert np.array_equal(got, want)
        kinds.add(type(want))
    return kinds


def test_general_lowering_form_matches_reference():
    kinds = set()
    for dim in range(1, len(COEFFS) + 2):
        kinds |= _assert_same(
            [lambda: fl.ladder_general(COEFFS, dim)[1]],
            [lambda: general_lowering_reference(COEFFS, dim)],
        )
    assert kinds == {np.ndarray, str}


def test_added_ladders_match_reference():
    kinds = set()
    for M in range(4):
        for dim in range(M + 1, len(COEFFS) + M + 2):
            kinds |= _assert_same(
                [
                    lambda: fl.added_raising_ladder(COEFFS, M, dim),
                    lambda: fl.added_lowered_pair(COEFFS, M, dim)[0],
                    lambda: fl.added_lowered_pair(COEFFS, M, dim)[1],
                    lambda: fl.added_coherent_pair(0.5 - 1j, M, dim)[0],
                ],
                [
                    lambda: added_raising_reference(COEFFS, M, dim),
                    lambda: pair_left_reference(M, dim),
                    lambda: added_lowered_right_reference(COEFFS, M, dim),
                    lambda: pair_left_reference(M, dim),
                ],
            )
    assert kinds == {np.ndarray, str}


def test_shifted_lowered_pair_matches_reference():
    kinds = set()
    for M in range(4):
        shifted = [0.0] * M + COEFFS
        for dim in range(M + 1, len(shifted) + 2):
            kinds |= _assert_same(
                [
                    lambda: fl.shifted_lowered_pair(shifted, M, dim)[0],
                    lambda: fl.shifted_lowered_pair(shifted, M, dim)[1],
                ],
                [
                    lambda: pair_left_reference(M, dim),
                    lambda: shifted_lowered_right_reference(shifted, M, dim),
                ],
            )
    assert kinds == {np.ndarray, str}


def test_step_maps_match_reference():
    # the zero sits in the target member, where it is only ever a numerator
    for M in range(len(COEFFS) + 1):
        assert _assert_same(
            [
                lambda: fl.step_down_f(NEIGHBOR, COEFFS),
                lambda: fl.step_up_f(NEIGHBOR, COEFFS),
                lambda: fl.step_down_g(NEIGHBOR, COEFFS, M),
                lambda: fl.step_up_g(NEIGHBOR, COEFFS, M),
            ],
            [
                lambda: step_down_f_reference(NEIGHBOR, COEFFS),
                lambda: step_up_f_reference(NEIGHBOR, COEFFS),
                lambda: step_down_g_reference(NEIGHBOR, COEFFS, M),
                lambda: step_up_g_reference(NEIGHBOR, COEFFS, M),
            ],
        ) == {np.ndarray}
    # divided by, the zero raises on both routes
    assert _assert_same(
        [lambda: fl.step_down_f(COEFFS, NEIGHBOR)],
        [lambda: step_down_f_reference(COEFFS, NEIGHBOR)],
    ) == {str}


def test_step_maps_refuse_tables_of_different_lengths():
    # a shorter table once read 0.0 past its end
    steps = (
        fl.step_down_f,
        fl.step_up_f,
        lambda c_from, c_to: fl.step_down_g(c_from, c_to, 3),
        lambda c_from, c_to: fl.step_up_g(c_from, c_to, 3),
    )
    for c_from, c_to in ((COEFFS, NEIGHBOR[:-1]), (NEIGHBOR[:-2], COEFFS)):
        message = f"coefficient lengths {len(c_from)} and {len(c_to)} differ"
        for step in steps:
            with pytest.raises(fl.DimensionMismatchError, match=message):
                step(c_from, c_to)


def test_gs_lowering_matches_reference():
    for dim in (1, 2, 17, 64):
        _assert_same([lambda: fl.gs_lowering(dim)], [lambda: gs_lowering_reference(dim)])


@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_finite_literal_ladders_match_reference(dim):
    for M in (0, 1, 5):
        assert _assert_same(
            [
                lambda: fl.bs_ladder(0.3, M, dim),
                lambda: fl.hgs_ladder(40.0, 0.35, M, dim),
                lambda: fl.ps_ladder(0.4, 0.07, M, dim),
                lambda: fl.ps_ladder(0.4, 0.07, M, dim, variant="printed"),
                lambda: fl.rbs_ladder(0.7, M, dim),
                lambda: fl.rbs_ladder(-2.9, M, dim),
                lambda: fl.pbps_ladder(1.3, M, dim),
                lambda: fl.ggs_ladder(0.45, M, dim),
                lambda: fl.ggs_ladder(verify._GGS_Y, M, dim),
                lambda: fl.ggs_ladder(-2.0 - 0.5j, M, dim),
            ],
            [
                lambda: bs_ladder_reference(0.3, M, dim),
                lambda: hgs_ladder_reference(40.0, 0.35, M, dim),
                lambda: ps_ladder_reference(0.4, 0.07, M, dim),
                lambda: ps_ladder_reference(0.4, 0.07, M, dim, printed=True),
                lambda: rbs_ladder_reference(0.7, M, dim),
                lambda: rbs_ladder_reference(-2.9, M, dim),
                lambda: pbps_ladder_reference(1.3, M, dim),
                lambda: ggs_ladder_reference(0.45, M, dim),
                lambda: ggs_ladder_reference(verify._GGS_Y, M, dim),
                lambda: ggs_ladder_reference(-2.0 - 0.5j, M, dim),
            ],
        ) == {np.ndarray}


@pytest.mark.parametrize("dim", [1, 2, 9, 64])
def test_lowering_literals_match_reference(dim):
    for theta in (0.3, -1.7, 0.0):
        for variant in ("derived", "printed"):
            assert _assert_same(
                [lambda: fl.kerr_lowering(theta, dim, variant)],
                [lambda: kerr_lowering_reference(theta, dim, variant == "printed")],
            ) == {np.ndarray}
    for M in (1, 2, 4):
        assert _assert_same(
            [
                lambda: fl.nbs_lowering(M, dim),
                lambda: fl.nnbs_lowering(M, dim),
                lambda: fl.added_coherent_lowering(0.8 - 0.6j, M, dim),
            ],
            [
                lambda: nbs_lowering_reference(M, dim),
                lambda: nnbs_lowering_reference(M, dim),
                lambda: added_coherent_lowering_reference(M, dim),
            ],
        ) == {np.ndarray}
    for alpha in (0.8 - 0.6j, 1.25, 0j):
        assert _assert_same(
            [lambda: fl.added_coherent_pair(alpha, 2, dim)[1]],
            [lambda: added_coherent_right_reference(alpha, dim)],
        ) == {np.ndarray}
    for eta in (0.2, 0.75):
        assert _assert_same(
            [lambda: fl.gs_pair(eta, dim)[0], lambda: fl.gs_pair(eta, dim)[1]],
            [lambda: _annihilation_reference(dim), lambda: gs_pair_right_reference(eta, dim)],
        ) == {np.ndarray}


def _annihilation_reference(dim):
    # sqrt(n) at (n-1, n)
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


@pytest.mark.parametrize("dim", [1, 2, 12, 48])
def test_intermediate_ladder_matches_reference(dim):
    fs = [None, verify._grid_nonlinearity, lambda n: 0.5 * n - 1, lambda n: 0]
    for eta in (0.3, 0.85):
        for f in fs:
            params = {"eta": eta, "alpha": 0.4 + 0.2j, "f": f}
            assert _assert_same(
                [lambda: verify._intermediate_ladder(params, dim)],
                [lambda: intermediate_ladder_reference(eta, dim, f)],
            ) == {np.ndarray}


# --- the GDO axiom battery against its dense reference ---


def _residuals(t):
    # each check's residual and tolerance: the bound at its peak entry, or
    # the oracle tolerance
    checks = fl.ladder.gdo_axiom_checks(t, fl.Tolerances())
    return {c.name: (c.residual, c.tolerance) for c in checks}


def _dense_residuals(t):
    F = np.array([t.structure_fn(n) for n in range(t.dim + 1)])
    matrices = (matrix_reference(op) for op in (t.number_op, t.lowering, t.raising))
    oracle = fl.Tolerances().oracle
    rows = gdo_residuals(*matrices, F, t.n_min).items()
    return {name: (r, oracle if b is None else b) for name, (r, b) in rows}


def _suite_triples(monkeypatch, family, params, dim):
    """The triples the family's suite hands to the axiom battery."""
    triples = []
    battery = verify.gdo_axiom_rows

    def spy(t, *args, **kwargs):
        triples.append(t)
        return battery(t, *args, **kwargs)

    monkeypatch.setattr(verify, "gdo_axiom_rows", spy)
    fl.run_family_suite(family, params, dim)
    monkeypatch.undo()
    return triples


@pytest.mark.parametrize(
    "family,params,dim", fl.EXTENDED_GRID, ids=[row[0] for row in fl.EXTENDED_GRID]
)
def test_gdo_battery_equals_the_dense_reference(monkeypatch, family, params, dim):
    (t,) = _suite_triples(monkeypatch, family, params, dim)
    assert _residuals(t) == _dense_residuals(t)


FINITE_GRID = {
    family: params
    for family, params, _ in fl.EXTENDED_GRID
    if fl.FAMILY_SPECS[family].kind == "finite"
}


@pytest.mark.parametrize("M", [64, 192])
@pytest.mark.parametrize("family", list(FINITE_GRID))
def test_gdo_battery_equals_the_dense_reference_at_large_M(monkeypatch, family, M):
    assert len(FINITE_GRID) == 6
    params = dict(FINITE_GRID[family], M=M)
    if "L" in params:
        params["L"] = 4.0 * M
    (t,) = _suite_triples(monkeypatch, family, params, M + 8)
    assert t.dim == M + 8
    assert _residuals(t) == _dense_residuals(t)


def test_a_coherent_report_runs_its_battery_on_the_whole_truncation(monkeypatch):
    (t,) = _suite_triples(monkeypatch, "coherent", {"alpha": 1.2}, 1024)
    assert t.dim == 1024
    rows = fl.ladder.gdo_axiom_checks(t, fl.Tolerances())
    assert all(c.passed for c in rows)


def _nudged_number(t, n0, rel):
    ((k, d),) = t.number_op.terms
    number = fl.operator([(k, lambda n: d(n) * (1 + rel) if n == n0 else d(n))], t.dim)
    return dataclasses.replace(t, number_op=number)


def _strayed_lowering(t, n0, rel):
    # one more lowering entry at offset (column - row) +3 in column n0, rel
    # times the lowering entry there
    value = rel * abs(t.bands[1][1][n0 - 1])
    def stray(n):
        return value / fl.ladder_factor(n, -3) if n == n0 else 0.0

    return dataclasses.replace(t, lowering=fl.add(t.lowering, fl.operator([(-3, stray)], t.dim)))


@pytest.mark.parametrize(
    "mutate,broken",
    [
        (_nudged_number, {"gdo-commutator-lowering", "gdo-commutator-raising"}),
        (_strayed_lowering,
         {"gdo-commutator-lowering", "gdo-product-diagonal-rl", "gdo-product-diagonal-lr"}),
    ],
    ids=["N-entry", "stray-offset"],
)
def test_gdo_battery_fails_a_1e9_relative_error_at_M_200(mutate, broken):
    t = fl.build_gdo("binomial", {"eta": 0.5, "M": 200}, 208)
    assert fl.verify_gdo_axioms(t).passed
    mutant = mutate(t, 100, 1e-9)
    checks = fl.verify_gdo_axioms(mutant).checks
    assert {c.name for c in checks if not c.passed} == broken
    assert all(c.residual > 1e3 * c.tolerance for c in checks if c.name in broken)
    assert _residuals(mutant) == _dense_residuals(mutant)


def _stray_lowering(t):
    # a term at shift -3 in the lowering only; raising and F are kept
    stray = fl.operator([(-3, lambda n: 1e-6)], t.dim)
    return dataclasses.replace(t, lowering=fl.add(t.lowering, stray))


def _bumped_raising(t):
    # a 1e-9 relative error in the raising entry at (n+1, n), mid-window
    ((k, d),) = t.raising.terms
    n0 = (t.n_min + t.dim) // 2

    def bumped(n):
        return d(n) * (1 + 1e-9) if n == n0 else d(n)

    return dataclasses.replace(t, raising=fl.operator([(k, bumped)], t.dim))


def _flipped_number(t):
    return dataclasses.replace(t, number_op=fl.scale(t.number_op, -1.0))


@pytest.mark.parametrize(
    "mutate,broken",
    [
        (
            _stray_lowering,
            {"gdo-commutator-lowering", "gdo-product-diagonal-rl", "gdo-product-diagonal-lr"},
        ),
        (_bumped_raising, {"gdo-structure-fn", "gdo-shift-consistency"}),
        (_flipped_number, {"gdo-commutator-lowering", "gdo-commutator-raising"}),
    ],
    ids=["stray-lowering-term", "raising-entry", "number-sign"],
)
@pytest.mark.parametrize(
    "family,params,dim",
    [("harmonic", None, 16), ("binomial", {"eta": 0.5, "M": 12}, 20),
     ("negative_binomial", {"eta": 0.3, "M": 3}, 24)],
    ids=["harmonic", "binomial", "negative_binomial"],
)
def test_gdo_battery_fails_exactly_the_broken_checks(mutate, broken, family, params, dim):
    t = fl.harmonic_gdo(dim) if params is None else fl.build_gdo(family, params, dim)
    assert fl.verify_gdo_axioms(t).passed
    mutant = mutate(t)
    report = fl.verify_gdo_axioms(mutant)
    assert {c.name for c in report.checks if not c.passed} == broken
    assert _residuals(mutant) == _dense_residuals(mutant)


def test_kept_rows_belong_to_their_triple():
    # a triple made from another by dataclasses.replace computes its own
    # battery rows, also after the first one's rows are kept
    t = fl.build_gdo("binomial", {"eta": 0.5, "M": 12}, 20)
    assert fl.verify_gdo_axioms(t).passed and "axiom_rows" in t.__dict__
    ((k, d),) = t.number_op.terms
    n0 = t.dim // 2

    def off(n):  # one N entry off by 1e-9 relative
        return d(n) * (1 + 1e-9) if n == n0 else d(n)

    nudged = dataclasses.replace(t, number_op=fl.operator([(k, off)], t.dim))
    failed = {c.name for c in fl.verify_gdo_axioms(nudged).checks if not c.passed}
    assert "gdo-commutator-lowering" in failed
    assert fl.verify_gdo_axioms(t).passed


def test_gdo_battery_carries_an_overflowing_product_diagonal():
    # raising@lowering overflows to inf on its main diagonal: the dense
    # P - diag(diag(P)) leaves inf - inf = NaN there, and so does the band route
    t = fl.harmonic_gdo(6)
    t = dataclasses.replace(
        t, lowering=fl.scale(t.lowering, 1e200), raising=fl.scale(t.raising, 1e200)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = _residuals(t)
    assert math.isnan(residuals["gdo-product-diagonal-rl"][0])
    assert math.isnan(residuals["gdo-product-diagonal-lr"][0])


LARGE_FINITE = [
    ("binomial", {"eta": 0.5, "M": 192}),
    ("hypergeometric", {"L": 800.0, "eta": 0.5, "M": 192}),
    ("polya", {"eta": 0.4, "gamma": 0.7, "M": 192}),
]


@pytest.mark.parametrize("family,params", LARGE_FINITE, ids=[f for f, _ in LARGE_FINITE])
def test_large_finite_suite_builds_no_dense_matrix(to_matrix_dims, family, params):
    fl.run_family_suite(family, params, 200)
    assert to_matrix_dims == []


@pytest.mark.parametrize("family,params", LARGE_FINITE, ids=[f for f, _ in LARGE_FINITE])
def test_large_finite_suite_peak_traced_memory(traced_peak, family, params):
    # one complex 200 x 200 matrix alone is 0.61 MiB
    assert traced_peak(lambda: fl.run_family_suite(family, params, 200)) <= 2**20


@pytest.mark.parametrize(
    "build",
    [
        lambda: fl.harmonic_gdo(0),
        lambda: fl.harmonic_gdo(2.5),
        lambda: fl.finite_gdo(COEFFS, 2, dim=0),
        lambda: fl.shifted_gdo(COEFFS, 1, dim=-1),
        lambda: fl.general_gdo([]),
        lambda: fl.general_gdo(COEFFS, dim=0),
    ],
    ids=["harmonic-0", "harmonic-2.5", "finite-0", "shifted-negative", "general-empty",
         "general-0"],
)
def test_gdo_builders_refuse_a_bad_dim(build):
    with pytest.raises(fl.ParameterError, match="^dim must be an integer >= 1$"):
        build()


def test_gdo_builders_read_integral_float_dims():
    assert fl.harmonic_gdo(2.0).dim == 2
    assert fl.verify_gdo_axioms(fl.general_gdo(COEFFS, dim=3.0)).to_json() == (
        fl.verify_gdo_axioms(fl.general_gdo(COEFFS, dim=3)).to_json()
    )
