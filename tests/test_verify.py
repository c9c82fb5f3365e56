import cmath
import functools
import json
import math

import numpy as np
import pytest

import fockladder as fl
from fockladder.reporting import csv_table, encode_json
from fockladder.closedform import _cf_generalized_geometric, _cf_nnbs, raising_F


GRID_BY_FAMILY = {family: (params, dim) for family, params, dim in fl.EXTENDED_GRID}


@pytest.mark.parametrize("family,params,dim", fl.ACCEPTANCE_GRID)
def test_acceptance_grid_suite_passes(family, params, dim):
    report = fl.run_family_suite(family, params, dim)
    assert report.passed, report.summary_line()
    assert report.family == family
    assert report.dim == dim
    assert len(report.checks) >= 10


@pytest.mark.parametrize("family", ["pacs", "intermediate"])
def test_extended_grid_suite_passes(family):
    params, dim = GRID_BY_FAMILY[family]
    report = fl.run_family_suite(family, params, dim)
    assert report.passed, report.summary_line()


def test_core_families_are_the_grid():
    assert len(fl.ACCEPTANCE_GRID) == 15
    assert tuple(f for f, _, _ in fl.ACCEPTANCE_GRID) == fl.CORE_FAMILIES
    assert fl.EXTENDED_GRID[: len(fl.ACCEPTANCE_GRID)] == fl.ACCEPTANCE_GRID
    extras = tuple(f for f, _, _ in fl.EXTENDED_GRID[len(fl.ACCEPTANCE_GRID) :])
    assert extras == ("pacs", "intermediate")


def test_suite_off_grid_parameters():
    assert fl.run_family_suite("binomial", {"eta": 0.3, "M": 10}, 32).passed
    # degenerate point: the vacuum is coherent with alpha = 0
    assert fl.run_family_suite("coherent", {"alpha": 0.0 + 0.0j}, 8).passed


def test_suite_rejects_unknown_family():
    with pytest.raises(fl.ParameterError, match="unknown family 'squeezed'"):
        fl.run_family_suite("squeezed", {"r": 0.5}, 32)


def test_suite_rejects_missing_and_stray_parameters():
    with pytest.raises(fl.ParameterError, match="requires parameter 'M'"):
        fl.run_family_suite("binomial", {"eta": 0.5}, 12)
    with pytest.raises(fl.ParameterError, match="unknown parameter 'gamma'"):
        fl.run_family_suite("binomial", {"eta": 0.5, "M": 4, "gamma": 0.1}, 12)


def test_non_finite_parameters_rejected_at_every_entry_point():
    cases = (
        ("binomial", {"eta": math.nan, "M": 4}, "eta"),
        ("polya", {"eta": 0.5, "gamma": math.inf, "M": 4}, "gamma"),
        ("kerr", {"alpha": 1.0, "theta": math.nan}, "theta"),
        ("reciprocal_binomial", {"theta": -math.inf, "M": 4}, "theta"),
        ("pegg_barnett_phase", {"theta0": math.inf, "m": 2, "M": 7}, "theta0"),
        ("svs", {"r": 0.8, "theta": math.nan}, "theta"),
        ("sfes", {"r": 0.8, "theta": -math.inf}, "theta"),
    )
    for family, params, name in cases:
        for call in (fl.build_state, fl.closed_form_coeffs, fl.run_family_suite, fl.build_gdo):
            message = f"^{name} must be finite$"
            with pytest.raises(fl.ParameterError, match=message):
                call(family, params, 12)
    with pytest.raises(fl.ParameterError, match="^Y must be finite$"):
        fl.build_gdo("generalized_geometric", {"Y": complex(0.3, math.nan), "M": 3}, 8)
    # the callable nonlinearity is not a number and is not checked
    params, dim = GRID_BY_FAMILY["intermediate"]
    assert fl.build_state("intermediate", params, dim).norm == pytest.approx(1.0)


# the phase families with the angle each reads
ANGLES = {
    "kerr": "theta",
    "reciprocal_binomial": "theta",
    "pegg_barnett_phase": "theta0",
    "svs": "theta",
    "sfes": "theta",
}


@pytest.mark.parametrize("family", list(ANGLES))
def test_a_huge_finite_angle_passes_the_suite_of_its_grid_row(family):
    # the one angle rule reads theta + 1e300 as one angle, so the
    # constructor, the closed form and the ladder form its phases alike
    params, dim = GRID_BY_FAMILY[family]
    name = ANGLES[family]
    report = fl.run_family_suite(family, params, dim)
    huge = fl.run_family_suite(family, dict(params, **{name: params[name] + 1e300}), dim)
    assert report.passed and huge.passed, huge.summary_line()
    assert [c.name for c in huge.checks] == [c.name for c in report.checks]


@pytest.mark.parametrize(
    "family,params,dim",
    [
        # sector-raising-form 8.4e-3 and sector-lowering-form 2.2e-2 with
        # theta * n formed unreduced
        ("svs", {"r": 0.5, "theta": 1e300}, 128),
        # ladder-eigen-literal 6.1e-6 and 3.2e-10 unreduced
        ("pegg_barnett_phase", {"theta0": -2.49e5, "m": 1, "M": 1371}, 1380),
        ("reciprocal_binomial", {"theta": -729999.9, "M": 202}, 210),
        # refused as past the float range at theta * 64 and theta * dim^2
        ("svs", {"r": 0.5, "theta": 1e308}, 128),
        ("kerr", {"alpha": 1.0, "theta": 1e306}, 64),
        ("sfes", {"r": 0.5, "theta": -3e200}, 128),
    ],
    ids=["svs-1e300", "pbps-M1371", "rbs-M202", "svs-1e308", "kerr-1e306", "sfes-3e200"],
)
def test_a_large_angle_passes_every_check(family, params, dim):
    report = fl.run_family_suite(family, params, dim)
    assert report.passed, [(c.name, c.residual) for c in report.checks if not c.passed]
    # the report echoes the angle as given
    assert all(report.params[key] == value for key, value in params.items())


def test_suite_propagates_constructor_validation():
    with pytest.raises(fl.ParameterError, match=r"eta must lie in \(0,1\)"):
        fl.run_family_suite("binomial", {"eta": 1.5, "M": 4}, 12)


# out-of-range points, one or two per family; each entry point must refuse
# them with the constructor's own message
RANGE_PROBES = (
    ("binomial", {"eta": 0.0, "M": 3}, 8),
    ("binomial", {"eta": 0.5, "M": -1}, 8),
    ("hypergeometric", {"L": 1.0, "eta": 0.5, "M": 3}, 8),
    ("polya", {"eta": 0.4, "gamma": -1.0, "M": 3}, 8),
    ("polya", {"eta": 0.4, "gamma": 1e308, "M": 3}, 8),
    ("reciprocal_binomial", {"theta": 0.7, "M": 2.5}, 8),
    ("reciprocal_binomial", {"theta": 0.7, "M": -1}, 8),
    ("pegg_barnett_phase", {"theta0": 0.1, "m": 1.5, "M": 3}, 8),
    ("pegg_barnett_phase", {"theta0": 0.1, "m": 9, "M": 3}, 8),
    ("generalized_geometric", {"Y": -1.0 + 0.0j, "M": 3}, 8),
    ("generalized_geometric", {"Y": 0.3 + 0.0j, "M": -1}, 8),
    ("geometric", {"eta": 1.0}, 8),
    ("negative_binomial", {"eta": 0.3, "M": 0}, 8),
    ("new_negative_binomial", {"eta": 0.3, "M": -1}, 8),
    ("negative_binomial", {"eta": 0.3, "M": 1.5}, 8),
    ("svs", {"r": -1.0, "theta": 0.0}, 8),
    ("sfes", {"r": 1000.0, "theta": 0.0}, 8),
    ("ecs", {"alpha": 1e200 + 0.0j}, 8),
    ("ocs", {"alpha": 0.0j}, 8),
    # at dim 8 the coherent tail bound fires before the M rule
    ("pacs", {"alpha": 1.0 + 0.0j, "M": -1}, 64),
    # a non-finite angle, refused by name in one wording everywhere
    ("kerr", {"alpha": 1.0, "theta": math.nan}, 8),
    ("reciprocal_binomial", {"theta": math.inf, "M": 3}, 8),
    ("pegg_barnett_phase", {"theta0": -math.inf, "m": 1, "M": 3}, 8),
    ("svs", {"r": 0.5, "theta": math.nan}, 8),
    ("sfes", {"r": 0.5, "theta": math.inf}, 8),
    # a non-finite alpha, likewise
    ("coherent", {"alpha": complex(math.inf)}, 8),
    ("kerr", {"alpha": math.nan, "theta": 0.1}, 8),
    ("pacs", {"alpha": complex(0.0, math.inf), "M": 1}, 64),
    ("ecs", {"alpha": math.nan}, 8),
    ("ocs", {"alpha": -math.inf}, 8),
    ("intermediate", {"eta": 0.5, "alpha": math.inf}, 16),
)


def _structure_fn_table(family, params, dim):
    t = fl.build_gdo(family, params, dim)
    return [t.structure_fn(n) for n in range(t.dim)]


@pytest.mark.parametrize("family,params,dim", RANGE_PROBES)
def test_every_entry_point_refuses_with_the_constructor_message(family, params, dim):
    spec = fl.FAMILY_SPECS[family]
    with pytest.raises(fl.ParameterError) as refused:
        spec.build(params, dim)
    entry_points = [
        fl.build_state,
        _structure_fn_table,
        fl.closed_form_coeffs,
        fl.run_family_suite,
    ]
    if spec.printed_F is not None:
        entry_points.append(fl.derived_vs_printed_rows)
    for call in entry_points:
        with pytest.raises(fl.ParameterError) as other:
            call(family, params, dim)
        assert str(other.value) == str(refused.value), call.__name__


# one out-of-range point per family with a closed form (two for the phase
# grid's m), with the family's public closed-form route where it has one;
# the only rule of coherent and kerr is that their parameters are finite,
# which every entry point checks before any route and the constructor
# checks itself
RULE_PARITY = (
    ("binomial", {"eta": 1.5, "M": 4}, 12, None),
    ("hypergeometric", {"L": 3.0, "eta": 0.5, "M": 5}, 13, None),
    ("polya", {"eta": 0.4, "gamma": 0.0, "M": 5}, 13, None),
    ("reciprocal_binomial", {"theta": 0.7, "M": 4.5}, 12, None),
    ("pegg_barnett_phase", {"theta0": 0.0, "m": 9, "M": 7}, 15, None),
    ("pegg_barnett_phase", {"theta0": 0.0, "m": 1.5, "M": 7}, 15, None),
    ("generalized_geometric", {"Y": 1j, "M": 6}, 14, None),
    ("coherent", {"alpha": complex(math.inf)}, 64, lambda p, dim: fl.coherent_coeffs(p["alpha"])),
    ("geometric", {"eta": 1.5}, 128, lambda p, dim: fl.geometric_coeffs(p["eta"])),
    ("negative_binomial", {"eta": 0.3, "M": 0}, 256, None),
    ("new_negative_binomial", {"eta": 0.0, "M": 2}, 256, None),
    (
        "kerr", {"alpha": 1.0, "theta": math.nan}, 8,
        lambda p, dim: fl.kerr_coeffs(p["alpha"], p["theta"]),
    ),
    (
        "svs", {"r": -1.0, "theta": 0.5}, 128,
        lambda p, dim: fl.svs_sector_coeffs(p["r"], p["theta"], dim),
    ),
    (
        "sfes", {"r": 1000.0, "theta": 0.5}, 128,
        lambda p, dim: fl.sfes_sector_coeffs(p["r"], p["theta"], dim),
    ),
    ("ecs", {"alpha": 1e200}, 8, lambda p, dim: fl.ecs_sector_coeffs(p["alpha"])),
    ("ocs", {"alpha": 0.0}, 8, lambda p, dim: fl.ocs_sector_coeffs(p["alpha"])),
    ("pacs", {"alpha": 1.0, "M": 1.5}, 64, None),
)

# a non-finite angle, the one angle a phase route refuses: every entry
# point and the family's public route refuse it in one wording
ANGLE_PARITY = (
    (
        "kerr", {"alpha": 1.0, "theta": -math.inf}, 8,
        lambda p, dim: fl.kerr_coeffs(p["alpha"], p["theta"]),
    ),
    ("reciprocal_binomial", {"theta": math.nan, "M": 4}, 12, None),
    ("pegg_barnett_phase", {"theta0": math.inf, "m": 2, "M": 7}, 15, None),
    (
        "svs", {"r": 0.5, "theta": math.nan}, 128,
        lambda p, dim: fl.svs_sector_coeffs(p["r"], p["theta"], dim),
    ),
    (
        "sfes", {"r": 0.5, "theta": -math.inf}, 128,
        lambda p, dim: fl.sfes_sector_coeffs(p["r"], p["theta"], dim),
    ),
)


def test_rule_parity_covers_every_family_with_a_closed_form():
    covered = {family for family, *_ in RULE_PARITY}
    assert covered == {n for n, s in fl.FAMILY_SPECS.items() if s.closed_form}


@pytest.mark.parametrize(
    "family,params,dim,public",
    RULE_PARITY + ANGLE_PARITY,
    ids=[case[0] for case in RULE_PARITY] + [f"{case[0]}-theta" for case in ANGLE_PARITY],
)
def test_each_closed_form_route_runs_its_own_range_rule(family, params, dim, public):
    calls = [fl.build_state, fl.closed_form_coeffs, fl.build_gdo, fl.run_family_suite]
    # the constructor itself, which no entry point's own rules precede
    calls.append(lambda family, p, dim: fl.FAMILY_SPECS[family].build(p, dim))
    if public is not None:
        calls.append(lambda family, p, dim: public(p, dim))
    messages = set()
    for call in calls:
        with pytest.raises(fl.ParameterError) as refused:
            call(family, params, dim)
        messages.add(str(refused.value))
    assert len(messages) == 1, messages


# an integral float count reads as its int in every suite: the report is
# the int count's, byte for byte
@pytest.mark.parametrize(
    "family,params,dim,counted",
    [
        ("coherent", {"alpha": 1.0}, 64.0, {}),
        ("svs", {"r": 0.8, "theta": 0.5}, 128.0, {}),
        ("new_negative_binomial", {"eta": 0.3, "M": 2.0}, 256, {"M": 2}),
        ("pacs", {"alpha": 1.0, "M": 1.0}, 64, {"M": 1}),
        ("pegg_barnett_phase", {"theta0": 0.0, "m": 2.0, "M": 7.0}, 15.0, {"m": 2, "M": 7}),
    ],
)
def test_an_integral_float_count_reads_as_its_int_in_the_suite(
    family, params, dim, counted
):
    report = fl.run_family_suite(family, params, dim)
    reference = fl.run_family_suite(family, dict(params, **counted), int(dim))
    assert report.passed
    assert (report.to_json(), report.to_csv()) == (reference.to_json(), reference.to_csv())


def test_an_integral_float_count_reads_as_its_int_in_the_printed_rows():
    rows = fl.derived_vs_printed_rows("binomial", {"eta": 0.5, "M": 4.0}, 12)
    assert rows == fl.derived_vs_printed_rows("binomial", {"eta": 0.5, "M": 4}, 12)
    # a fractional count keeps the constructor's message
    with pytest.raises(fl.ParameterError, match="M must be a nonnegative integer"):
        fl.derived_vs_printed_rows("binomial", {"eta": 0.5, "M": 4.5}, 12)
    with pytest.raises(fl.ParameterError, match="M must be a nonnegative integer"):
        fl.run_family_suite("new_negative_binomial", {"eta": 0.3, "M": 2.5}, 256)


def test_closed_form_coeffs_names_a_missing_parameter():
    with pytest.raises(fl.ParameterError, match="requires parameter 'eta'"):
        fl.closed_form_coeffs("binomial", {}, 12)


def test_svs_suite_covers_relation_and_disentangling():
    params, dim = GRID_BY_FAMILY["svs"]
    report = fl.run_family_suite("svs", params, dim)
    names = {c.name for c in report.checks}
    assert "pair-lowering-eigen" in names
    assert "disentangle-product-vs-exponential" in names
    assert "disentangle-exponential-vs-closed" in names
    by_name = {c.name: c for c in report.checks}
    assert "E76" in by_name["pair-lowering-eigen"].equation.split()


def test_finite_suite_check_composition():
    report = fl.run_family_suite("binomial", {"eta": 0.5, "M": 4}, 12)
    names = [c.name for c in report.checks]
    for expected in (
        "state-normalization",
        "distribution-crosscheck",
        "ladder-eigen-generic",
        "ladder-eigen-literal",
        "step-down-f",
        "step-down-g",
        "step-down-equality",
        "structure-fn-closed-form",
    ):
        assert expected in names


# --- constructor dispatch and closed-form routes ---


def test_build_state_matches_direct_constructors():
    via_registry = fl.build_state("polya", {"eta": 0.4, "gamma": 0.7, "M": 5}, 13)
    direct = fl.polya(0.4, 0.7, 5, 13)
    np.testing.assert_allclose(
        via_registry.amplitudes, direct.amplitudes, atol=1e-15
    )


def test_build_state_pbps_grid_convention():
    s = fl.build_state(
        "pegg_barnett_phase", {"theta0": 0.0, "m": 2, "M": 7}, 15
    )
    # theta_m = 0 + 2 pi 2/8; amplitudes are e^{i n theta_m}/sqrt(8)
    theta_m = math.pi / 2
    for n in range(8):
        assert s.amplitudes[n] == pytest.approx(
            cmath.exp(1j * n * theta_m) / math.sqrt(8), abs=1e-14
        )


def test_closed_form_routes_match_constructed_amplitudes():
    for family in ("binomial", "reciprocal_binomial", "generalized_geometric"):
        params, dim = GRID_BY_FAMILY[family]
        s = fl.build_state(family, params, dim)
        cf = fl.closed_form_coeffs(family, params, dim)
        window = np.array([cf(n) for n in range(dim)])
        np.testing.assert_allclose(window, s.amplitudes, atol=1e-13)


def test_nnbs_closed_form_is_normalized():
    cf = _cf_nnbs(0.3, 2)
    total = sum(abs(cf(n)) ** 2 for n in range(400))
    assert total == pytest.approx(1.0, abs=1e-13)
    assert cf(1) == 0.0


def test_build_gdo_dispatch():
    t = fl.build_gdo("binomial", {"eta": 0.5, "M": 4}, 12)
    assert t.n_min == 0
    assert t.structure_fn(1) == pytest.approx(4.0, abs=1e-12)
    t = fl.build_gdo("new_negative_binomial", {"eta": 0.3, "M": 2}, 32)
    assert t.n_min == 2
    t = fl.build_gdo("svs", {"r": 0.8, "theta": 0.5}, 64)
    assert t.dim == fl.sector_dim(64, 0)
    with pytest.raises(fl.ParameterError, match="unknown family"):
        fl.build_gdo("phase", {"theta": 0.1}, 8)


@pytest.mark.parametrize("family", list(GRID_BY_FAMILY))
def test_build_gdo_refuses_dim_zero(family):
    params, _ = GRID_BY_FAMILY[family]
    with pytest.raises(fl.ParameterError, match=r"^dim must be an integer >= 1$"):
        fl.build_gdo(family, params, 0)


def test_build_gdo_reads_the_closed_form_where_the_state_does_not_fit():
    # alpha = 3 drops more tail mass past dim 16 than a state may, but the
    # closed form's triple needs no state
    with pytest.raises(fl.TailMassError, match="tail mass"):
        fl.build_state("coherent", {"alpha": 3.0}, 16)
    t = fl.build_gdo("coherent", {"alpha": 3.0}, 16)
    assert t.dim == 16
    F = raising_F(fl.coherent_coeffs(3.0).values(np.arange(16)), 0)
    np.testing.assert_allclose(t.structure_table, F, rtol=1e-13)
    assert t.structure_table[1] == pytest.approx(9.0, rel=1e-14)


def test_build_gdo_checks_a_count_before_taking_it_as_an_int():
    with pytest.raises(fl.ParameterError, match=r"^M must be a nonnegative integer$"):
        fl.build_gdo("binomial", {"eta": 0.5, "M": 4.5}, 12)


def test_the_kind_table_serves_exactly_the_registry_kinds():
    kinds = {spec.kind for spec in fl.FAMILY_SPECS.values()}
    assert kinds == set(fl.verify._KINDS)
    # the sector alone decides a family's basis: it is set on exactly the
    # two-photon rows
    sectored = {name for name, spec in fl.FAMILY_SPECS.items() if spec.sector is not None}
    two_photon = {name for name, spec in fl.FAMILY_SPECS.items() if spec.kind == "two-photon"}
    assert sectored == two_photon == {"svs", "sfes", "ecs", "ocs"}


# --- derived vs printed ---


def test_errata_covers_all_six_finite_families():
    table = fl.errata_table()
    assert table["schema"] == "errata-1"
    assert [entry["family"] for entry in table["families"]] == [
        "binomial",
        "hypergeometric",
        "polya",
        "reciprocal_binomial",
        "pegg_barnett_phase",
        "generalized_geometric",
    ]
    for entry in table["families"]:
        assert len(entry["rows"]) == entry["M"] + 1
        assert "E29" in entry["equation"].split()


def test_errata_flags_mismatch_at_zero_for_real_families():
    table = fl.errata_table()
    for entry in table["families"][:3]:
        row0 = entry["rows"][0]
        assert row0["n"] == 0
        assert row0["derived"] == 0.0
        # the printed forms stay finite and nonzero where F must vanish
        assert math.isfinite(row0["printed_re"])
        assert abs(row0["printed_re"]) > 1.0
        assert not row0["match"]


def test_errata_flags_nonreal_printed_values():
    table = fl.errata_table()
    by_family = {entry["family"]: entry for entry in table["families"]}
    for family in ("reciprocal_binomial", "pegg_barnett_phase"):
        rows = by_family[family]["rows"]
        assert any(abs(r["printed_im"]) > 1e-6 for r in rows)
        assert not any(r["match"] for r in rows)


def test_errata_rows_are_the_closed_form_route_rows():
    # the errata table and the CLI's --compare-printed table are one table:
    # at a family's grid entry, the same rows, bit for bit
    for entry in fl.errata_table()["families"]:
        params, dim = fl.FAMILY_SPECS[entry["family"]].grid
        if entry["family"] == "pegg_barnett_phase":
            params = dict(params, theta0=0.3)
        rows = fl.derived_vs_printed_rows(entry["family"], params, dim)
        assert repr(entry["rows"]) == repr(rows), entry["family"]


def test_errata_match_column_mechanics():
    # the printed and derived hypergeometric forms share numerator and
    # denominator and differ by a factor (M-n+1)^2/n, so they cross where
    # (M-n+1)^2 = n; M = 5 puts that at n = 4
    rows = fl.derived_vs_printed_rows(
        "hypergeometric", {"L": 40.0, "eta": 0.5, "M": 5}, 13
    )
    matches = [r["n"] for r in rows if r["match"]]
    assert matches == [4]


def test_errata_derived_column_is_oracle_consistent():
    rows = fl.derived_vs_printed_rows("binomial", {"eta": 0.5, "M": 4}, 12)
    for r in rows:
        n = r["n"]
        assert r["derived"] == pytest.approx(
            n * (4 - n + 1) * (1 - 0.5) / 0.5, abs=1e-12
        )


def test_errata_notes_quantify_the_corrections():
    notes = {note["equation"]: note for note in fl.errata_table()["notes"]}
    assert set(notes) == {"E21", "E22", "E62", "E81"}
    # corrected forms hold at working precision, printed ones fail badly
    for eq in ("E21", "E62"):
        assert notes[eq]["residual_printed"] > 1e-2
        assert notes[eq]["residual_derived"] < 1e-10
    assert notes["E22"]["printed_prefactor_norm"] == pytest.approx(
        notes["E22"]["recorded_constant"], abs=1e-12
    )
    assert notes["E22"]["printed_prefactor"] == pytest.approx(
        notes["E22"]["recorded_constant"] ** 2, abs=1e-12
    )
    assert notes["E81"]["residual_labeled_state"] > 1e-2
    assert notes["E81"]["residual_intended_state"] < 1e-10


def test_errata_table_serializes():
    text = json.dumps(fl.errata_table(), sort_keys=True)
    assert "derived" in text


def test_a_warm_errata_table_applies_no_operator(monkeypatch):
    cold = encode_json(fl.errata_table())
    images = []
    _spy(monkeypatch, images, [(module, "_band_image") for module in (fl.core, fl.ladder)])
    assert encode_json(fl.errata_table()) == cold
    assert images == []


def test_a_mutated_errata_table_leaves_the_next_call_unchanged():
    cold = encode_json(fl.errata_table())
    table = fl.errata_table()
    for entry in table["families"]:
        entry["params"].clear()
        entry["rows"][0]["derived"] = -1.0
        entry["rows"].append({})
    for note in table["notes"]:
        note["text"] = ""
        note.pop("family")
    table["notes"].clear()
    assert encode_json(fl.errata_table()) == cold


def test_the_errata_table_is_the_same_from_fresh_suite_inputs():
    cold = encode_json(fl.errata_table())
    fl.verify._cached_input.cache_clear()
    fl.verify._errata.cache_clear()
    assert encode_json(fl.errata_table()) == cold


def test_a_second_errata_table_reads_no_suite_input_and_no_printed_row(monkeypatch):
    cold = encode_json(fl.errata_table())
    calls = []
    _spy(monkeypatch, calls, [(fl.verify, "_suite_input"), (fl.verify, "derived_vs_printed_rows")])
    assert encode_json(fl.errata_table()) == cold
    assert calls == []


def test_the_grid_and_the_errata_table_fit_the_suite_cache():
    # the errata's pbps entry at theta0 = 0.3 reads no suite input, and its
    # notes read the grid's own entries
    fl.run_grid(fl.EXTENDED_GRID)
    fl.errata_table()
    assert fl.verify._cached_input.cache_info().currsize == 24 <= fl.verify.SUITE_CACHE_SIZE


@pytest.mark.parametrize(
    "equation,family,name,field",
    [
        ("E21", "polya", "ladder-eigen-literal", "residual_derived"),
        ("E62", "kerr", "ladder-eigen-literal", "residual_derived"),
        ("E81", "sfes", "pair-lowering-eigen", "residual_intended_state"),
    ],
)
def test_an_errata_note_quotes_its_suite_row(equation, family, name, field):
    (note,) = [n for n in fl.errata_table()["notes"] if n["equation"] == equation]
    params, dim = GRID_BY_FAMILY[family]
    (check,) = [c for c in fl.run_family_suite(family, params, dim).checks if c.name == name]
    assert note["family"] == family
    assert note[field].hex() == check.residual.hex()


def test_the_printed_sides_of_the_errata_notes_are_their_eigen_residuals():
    # recomputed from a fresh state and freshly built printed operators
    notes = {n["equation"]: n for n in fl.errata_table()["notes"]}
    tol = fl.Tolerances()
    params, dim = GRID_BY_FAMILY["polya"]
    printed = fl.ladder.ps_ladder(0.4, 0.7, 5, dim, variant="printed")
    s = fl.build_state("polya", params, dim)
    residual = fl.ladder.eigen_check("", "", printed, s, 5, tol).residual
    assert notes["E21"]["residual_printed"].hex() == residual.hex()
    params, dim = GRID_BY_FAMILY["kerr"]
    printed = fl.ladder.kerr_lowering(0.3, dim, variant="printed")
    s = fl.build_state("kerr", params, dim)
    residual = fl.ladder.eigen_check("", "", printed, s, params["alpha"], tol).residual
    assert notes["E62"]["residual_printed"].hex() == residual.hex()
    params, dim = GRID_BY_FAMILY["svs"]
    lam = cmath.exp(0.5j) * math.tanh(0.8)
    svs = fl.build_state("svs", params, dim)
    residual = fl.ladder.eigen_check("", "", fl.sfes_lowering(dim), svs, lam, tol).residual
    assert notes["E81"]["residual_labeled_state"].hex() == residual.hex()


# --- catalog coverage ---


def test_equation_catalog_is_fully_exercised():
    """Every cataloged identity is touched by a check or the errata."""
    used: set[str] = set()
    for family, params, dim in fl.EXTENDED_GRID:
        for check in fl.run_family_suite(family, params, dim).checks:
            used.update(check.equation.split())
    table = fl.errata_table()
    for entry in table["families"]:
        used.update(entry["equation"].split())
    for note in table["notes"]:
        used.update(note["equation"].split())
    assert used == set(fl.EQUATION_CATALOG)


def test_equation_catalog_shape():
    tags = set(fl.EQUATION_CATALOG)
    assert len(tags) == 85
    assert "E77" not in tags and "E78" not in tags
    for tag, description in fl.EQUATION_CATALOG.items():
        assert tag.startswith("E") and tag[1:].isdigit()
        assert description


# --- determinism and serialization ---


def test_reports_are_byte_identical_across_runs():
    first = fl.run_family_suite("binomial", {"eta": 0.5, "M": 4}, 12)
    second = fl.run_family_suite("binomial", {"eta": 0.5, "M": 4}, 12)
    assert first.to_json() == second.to_json()
    assert first.to_csv() == second.to_csv()


def test_csv_cells():
    rows = [
        {"x": np.float64(0.1), "ok": True, "n": 3, "detail": "a, b"},
        {"x": math.inf, "ok": False, "n": -1, "detail": "plain"},
    ]
    assert csv_table(("n", "x", "ok", "detail"), rows) == [
        "n,x,ok,detail",
        "3,0.1,true,a; b",
        "-1,inf,false,plain",
    ]


def test_errata_rows_survive_json_round_trip():
    report = fl.run_family_suite("binomial", {"eta": 0.5, "M": 4}, 12)
    rows = fl.derived_vs_printed_rows("binomial", {"eta": 0.5, "M": 4}, 12)
    tabled = report.with_table(rows)
    restored = fl.report_from_json(tabled.to_json())
    assert restored.derived_vs_printed == tabled.derived_vs_printed
    assert restored.to_json() == tabled.to_json()


def test_errata_rows_with_infinities_round_trip():
    rows = fl.derived_vs_printed_rows("reciprocal_binomial", {"theta": 0.7, "M": 4}, 12)
    assert math.isinf(rows[0]["printed_re"])
    report = fl.run_family_suite("reciprocal_binomial", {"theta": 0.7, "M": 4}, 12)
    restored = fl.report_from_json(report.with_table(rows).to_json())
    assert math.isinf(restored.derived_vs_printed[0]["printed_re"])
    assert "# derived_vs_printed" in report.with_table(rows).to_csv()


def test_grid_manifest_schema():
    manifest = fl.grid_manifest()
    assert len(manifest) == 15
    assert [entry["family"] for entry in manifest] == list(fl.CORE_FAMILIES)
    text = json.dumps(manifest)
    assert "generalized_geometric" in text
    ggs = manifest[5]
    assert isinstance(ggs["params"]["Y"], str)  # complex echoed as a+bi text
    assert ggs["dim"] == 14


def test_param_echo_formats():
    report = fl.run_family_suite("kerr", {"alpha": 1.0 + 0.0j, "theta": 0.3}, 64)
    assert report.params["alpha"] == "1.0"
    phase = fl.run_family_suite(
        "pegg_barnett_phase", {"theta0": 0.0, "m": 2, "M": 7}, 15
    )
    assert phase.params["theta_m"] == pytest.approx(math.pi / 2)
    params, dim = GRID_BY_FAMILY["intermediate"]
    echoed = fl.run_family_suite("intermediate", params, dim).params
    assert echoed["f"] == "exp(-0.2i*n)"


FINITE_FAMILIES = [name for name, spec in fl.FAMILY_SPECS.items() if spec.kind == "finite"]


@pytest.mark.parametrize("family", FINITE_FAMILIES)
def test_finite_suite_passes_at_M_one(family):
    # the step-down checks compare against the M = 0 member, which for
    # the phase state is the vacuum on a one-point grid
    assert len(FINITE_FAMILIES) == 6
    params, dim = GRID_BY_FAMILY[family]
    params = dict(params, M=1)
    if family == "pegg_barnett_phase":
        params.update(theta0=0.1, m=0)
    report = fl.run_family_suite(family, params, dim)
    assert report.passed, report.summary_line()
    assert {"step-down-f", "step-down-g", "step-down-equality"} <= {
        c.name for c in report.checks
    }


def test_reciprocal_binomial_closed_form_past_float_comb():
    # C(M, n) overflows a float from M = 1030 on; C(1100, 550) ~ 1e329.
    # Constructor and closed form still agree.
    params, dim = {"theta": 0.1, "M": 1100}, 1101
    s = fl.build_state("reciprocal_binomial", params, dim)
    cf = fl.closed_form_coeffs("reciprocal_binomial", params, dim)
    expected = np.array([cf(n) for n in range(dim)])
    assert np.all(np.isfinite(s.amplitudes))
    assert s.norm == pytest.approx(1.0, abs=1e-12)
    assert np.abs(s.amplitudes - expected).max() < 1e-14
    assert 0 < abs(s.amplitudes[550]) < 1e-150


@pytest.mark.parametrize(
    "Y,M,rel",
    [(2.0, 1100, 1e-12), (-3 + 1j, 40, 1e-12), (1e10, 3, 1e-12), (1e10, 61, 1e-14)],
)
def test_ggs_closed_form_ratios_match_the_state_past_unit_Y(Y, M, rel):
    # for |Y| > 1 the closed form divides |Y|^(M/2) out, as the constructor
    # does, so no power leaves the float range; at Y = 1e10, M = 61 C(0)
    # is 1e-305, just above the subnormal range
    c = _cf_generalized_geometric(Y, M)
    amps = fl.generalized_geometric(Y, M, M + 1).amplitudes
    for n in range(M):
        assert c(n + 1) / c(n) == pytest.approx(amps[n + 1] / amps[n], rel=rel)


def test_ggs_closed_form_refuses_a_subnormal_C0():
    with pytest.raises(fl.ParameterError, match="C\\(0\\) of generalized_geometric"):
        _cf_generalized_geometric(1e10, 62)


@pytest.mark.parametrize(
    "family,params",
    [("coherent", {"alpha": 30.0}), ("kerr", {"alpha": 30.0, "theta": 0.3})],
)
def test_distribution_check_past_the_float_range_of_the_squares(family, params):
    # the closed-form coefficients peak near 3e194, whose square overflows;
    # the suite's error::RuntimeWarning filter (pyproject.toml) turns any
    # warning on the way into an error
    report = fl.run_family_suite(family, params, 1200)
    check = next(c for c in report.checks if c.name == "distribution-crosscheck")
    assert math.isfinite(check.residual)
    assert check.passed


def _count_calls():
    """(id, call) for every count and dim a direct library call reads; each
    call takes the value to put there."""
    calls = []
    for family, params, dim in fl.EXTENDED_GRID:
        build = fl.FAMILY_SPECS[family].build
        calls.append((f"{family}-dim", lambda bad, b=build, p=params: b(p, bad)))
        if "M" in params:
            calls.append((
                f"{family}-M", lambda bad, b=build, p=params, d=dim: b({**p, "M": bad}, d)
            ))
        calls.append((
            f"build_gdo-{family}-dim",
            lambda bad, f=family, p=params: fl.build_gdo(f, p, bad),
        ))
    calls += [
        ("run_family_suite-dim", lambda bad: fl.run_family_suite("coherent", {"alpha": 1.0}, bad)),
        ("su11-dim", lambda bad: fl.su11(0, bad)),
        ("verify_su11-dim_sector", lambda bad: fl.verify_su11(1, bad)),
        ("harmonic_gdo-dim", lambda bad: fl.harmonic_gdo(bad)),
        ("photon_add-M", lambda bad: fl.photon_add(fl.coherent(1.0, 16), bad)),
    ]
    return calls


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("call", [pytest.param(c, id=i) for i, c in _count_calls()])
def test_a_non_finite_count_or_dim_is_refused(call, bad):
    with pytest.raises(fl.ParameterError, match="must be (a nonnegative integer|an integer >= 1)"):
        call(bad)


def test_polya_closed_form_refuses_a_vanishing_eta_over_gamma():
    # eta / gamma rounds to 0, where the closed form's lgamma has its pole
    params = {"eta": 5e-324, "gamma": 993471.7366795965, "M": 82}
    assert fl.build_state("polya", params, 89).dim == 89
    with pytest.raises(fl.ParameterError, match=r"eta=5e-324 and gamma=993471\.7366795965"):
        fl.run_family_suite("polya", params, 89)


# --- the suite inputs' cache ---


def _suite_bytes(family, params, dim):
    report = fl.run_family_suite(family, params, dim)
    return report.to_json(), report.to_csv()


@pytest.mark.parametrize(
    "family,params,dim,key,first,then",
    [
        ("reciprocal_binomial", {"M": 4}, 12, "theta", 0.0, -0.0),
        ("kerr", {"alpha": 1.0 + 0.0j}, 64, "theta", 0.0, -0.0),
        ("kerr", {"alpha": 1.0 + 0.0j}, 64, "theta", -0.0, 0.0),
        ("svs", {"r": 0.8}, 128, "theta", 0.0, -0.0),
        ("svs", {"r": 0.8}, 128, "theta", -0.0, 0.0),
        ("binomial", {"M": 4}, 12, "eta", 0.5, np.float64(0.5)),
        ("binomial", {"eta": 0.5}, 12, "M", 4, 4.0),
    ],
    ids=["rbs-theta", "kerr-theta", "kerr-theta-back", "svs-theta", "svs-theta-back",
         "np-float64", "float-M"],
)
def test_an_equal_value_of_other_bits_or_type_gets_its_cold_bytes(
    family, params, dim, key, first, then
):
    cold = _suite_bytes(family, {**params, key: then}, dim)
    fl.verify._cached_input.cache_clear()
    _suite_bytes(family, {**params, key: first}, dim)
    misses = fl.verify._cached_input.cache_info().misses
    assert _suite_bytes(family, {**params, key: then}, dim) == cold
    assert fl.verify._cached_input.cache_info().misses > misses


def test_a_signed_zero_theta_is_named_in_the_step_down_detail():
    for theta in (0.0, -0.0, 0.0):
        report = fl.run_family_suite("reciprocal_binomial", {"theta": theta, "M": 4}, 12)
        (detail,) = (c.detail for c in report.checks if c.name == "step-down-f")
        assert f"(theta={theta!r}, M=3)" in detail


ORDERED_ROWS = [row for row in fl.EXTENDED_GRID if len(row[1]) > 1]


@pytest.mark.parametrize("family,params,dim", ORDERED_ROWS, ids=[r[0] for r in ORDERED_ROWS])
def test_the_suite_key_reads_the_parameters_in_name_order(family, params, dim):
    cold = _suite_bytes(family, params, dim)
    misses = fl.verify._cached_input.cache_info().misses
    reordered = dict(reversed(list(params.items())))
    assert list(reordered) != list(params)
    assert _suite_bytes(family, reordered, dim) == cold
    assert fl.verify._cached_input.cache_info().misses == misses


def test_a_warm_intermediate_rerun_hits_the_cache_and_writes_the_cold_bytes():
    params, dim = GRID_BY_FAMILY["intermediate"]
    assert callable(params["f"])
    cold = _suite_bytes("intermediate", params, dim)
    info = fl.verify._cached_input.cache_info()
    assert _suite_bytes("intermediate", params, dim) == cold
    assert fl.verify._cached_input.cache_info().hits == info.hits + 1
    assert fl.verify._cached_input.cache_info().misses == info.misses


def test_callables_of_equal_values_share_an_entry_and_echo_their_own_labels():
    params, dim = GRID_BY_FAMILY["intermediate"]

    def first(n):
        return cmath.exp(-0.2j * n)

    def second(n):
        return complex(math.cos(0.2 * n), -math.sin(0.2 * n))

    first.label = "first"
    assert all(first(n) == second(n) for n in range(dim + 31))
    reports = [fl.run_family_suite("intermediate", dict(params, f=f), dim) for f in (first, second)]
    info = fl.verify._cached_input.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert [r.params["f"] for r in reports] == ["first", "second"]
    assert reports[0].checks == reports[1].checks
    spec = fl.FAMILY_SPECS["intermediate"]
    data = [fl.verify._suite_input(spec, dict(params, f=f), dim) for f in (first, second)]
    assert data[0] is data[1]


def test_a_closure_whose_values_change_gets_a_fresh_report():
    # one callable, so a key on its identity would hand back the first report
    params, dim = GRID_BY_FAMILY["intermediate"]
    scale = [1.0]

    def f(n):
        return scale[0] * cmath.exp(-0.2j * n)

    before = fl.run_family_suite("intermediate", dict(params, f=f), dim)
    scale[0] = 2.0
    after = fl.run_family_suite("intermediate", dict(params, f=f), dim)
    assert after.checks != before.checks
    fl.verify._cached_input.cache_clear()
    doubled = dict(params, f=lambda n: 2.0 * cmath.exp(-0.2j * n))
    assert after.checks == fl.run_family_suite("intermediate", doubled, dim).checks


def _zero_then_raising(n):
    if n == 5:
        raise RuntimeError("f is undefined at 5")
    return 0.0 if n == 3 else 1.0


def _raising(n):
    if n == 5:
        raise RuntimeError("f is undefined at 5")
    return 1.0


@pytest.mark.parametrize(
    "f,error,message",
    [
        (_raising, RuntimeError, "f is undefined at 5"),
        (_zero_then_raising, fl.ParameterError, "f must be nonzero on [0, dim-2]; f(3) = 0"),
    ],
    ids=["raises", "zero-then-raises"],
)
def test_an_f_whose_read_fails_is_refused_by_the_constructor(f, error, message):
    params, dim = GRID_BY_FAMILY["intermediate"]
    for _ in range(2):
        with pytest.raises(error) as refused:
            fl.run_family_suite("intermediate", dict(params, f=f), dim)
        assert str(refused.value) == message
    assert fl.verify._cached_input.cache_info().currsize == 0


def test_a_suite_reads_f_once_a_call_on_the_recursion_window():
    # the state and the literal ladder read the table, not f
    params, dim = GRID_BY_FAMILY["intermediate"]
    reads = []

    def f(n):
        reads.append(n)
        return params["f"](n)

    for _ in range(2):  # cold, then warm
        reads.clear()
        fl.run_family_suite("intermediate", dict(params, f=f), dim)
        assert reads == list(range(dim + 31))


def test_a_read_past_the_tabulated_f_raises():
    params, dim = GRID_BY_FAMILY["intermediate"]
    data = fl.verify._suite_input(fl.FAMILY_SPECS["intermediate"], dict(params), dim)
    table = data.p["f"]
    assert table(dim + 30) == params["f"](dim + 30)
    past = rf"^f\({dim + 31}\) is past the table's end, f\({dim + 30}\)$"
    with pytest.raises(IndexError, match=past):
        table(dim + 31)
    with pytest.raises(IndexError):
        table.values(np.arange(dim + 32))


@pytest.mark.parametrize(
    "family,params,dim",
    [
        ("binomial", {"eta": 0.0, "M": 3}, 8),
        # the state builds, the closed form refuses
        ("polya", {"eta": 5e-324, "gamma": 993471.7366795965, "M": 82}, 89),
    ],
    ids=["state", "closed-form"],
)
def test_a_refused_input_raises_again(monkeypatch, family, params, dim):
    builds = []
    build_state = fl.verify.build_state

    def counted(*args):
        builds.append(args)
        return build_state(*args)

    monkeypatch.setattr(fl.verify, "build_state", counted)
    messages = []
    for _ in range(2):
        with pytest.raises(fl.ParameterError) as refused:
            fl.run_family_suite(family, params, dim)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]
    # a refused state is built again; a built one is kept
    assert len(builds) == (2 if family == "binomial" else 1)


def test_the_suite_cache_stays_within_its_bound():
    size = fl.verify.SUITE_CACHE_SIZE
    cache = fl.verify._cached_input
    for k in range(size + 12):
        fl.run_family_suite("binomial", {"eta": 0.2 + 0.01 * k, "M": 2}, 6)
        assert cache.cache_info().currsize <= size
    assert cache.cache_info().maxsize == cache.cache_info().currsize == size


CACHED_ROWS = [row for row in fl.EXTENDED_GRID if row[0] != "intermediate"]


@pytest.mark.parametrize("family,params,dim", CACHED_ROWS, ids=[r[0] for r in CACHED_ROWS])
def test_cached_suite_arrays_are_read_only(family, params, dim):
    fl.run_family_suite(family, params, dim)
    data = fl.verify._suite_input(fl.FAMILY_SPECS[family], dict(params), dim)
    arrays = [data.state.amplitudes, data.table, data.F]
    t = data.triple  # the one triple, which the battery reads
    arrays.append(t.structure_table)
    arrays += [d for bands in t.bands for d in bands.values()]
    arrays += data.__dict__.get("squeezing_routes", ())  # the squeezed families'
    assert fl.verify._cached_input.cache_info().hits == 1
    assert len(arrays) > 3
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def _nudged_step_map(route):
    # the image entry at n = 2 moves by 1e-6 (c0[2] is the state's own
    # amplitude there, up to rounding)
    def nudged(c0, *args):
        op = route(c0, *args)
        nudge = fl.core.diag_op(lambda n: 1e-6 / c0[2] if n == 2 else 0.0, op.domain_dim)
        return fl.core.add(op, nudge)

    return nudged


@pytest.mark.parametrize("mutated,kept", [("g", "f"), ("f", "g")])
def test_a_nudged_step_map_fails_its_check_and_the_equality(monkeypatch, mutated, kept):
    name = f"step_down_{mutated}"
    monkeypatch.setattr(fl.verify, name, _nudged_step_map(getattr(fl.verify, name)))
    fl.verify._cached_input.cache_clear()
    params, dim = GRID_BY_FAMILY["binomial"]
    verdicts = {c.name: c.passed for c in fl.run_family_suite("binomial", params, dim).checks}
    assert verdicts.pop(f"step-down-{mutated}") is False
    assert verdicts.pop("step-down-equality") is False
    assert verdicts.pop(f"step-down-{kept}") is True
    assert all(verdicts.values()), verdicts


def test_a_finite_suite_applies_each_step_map_once(monkeypatch):
    step_maps, applied = [], []
    for name in ("step_down_f", "step_down_g"):

        def recorded(*args, route=getattr(fl.verify, name)):
            step_maps.append(route(*args))
            return step_maps[-1]

        monkeypatch.setattr(fl.verify, name, recorded)
    for module in (fl.verify, fl.ladder):

        def counted(op, s, route=module.apply):
            applied.append(op)
            return route(op, s)

        monkeypatch.setattr(module, "apply", counted)
    params, dim = GRID_BY_FAMILY["binomial"]
    assert fl.run_family_suite("binomial", params, dim).passed
    assert len(step_maps) == 2
    assert [sum(op is step_map for op in applied) for step_map in step_maps] == [1, 1]


@pytest.mark.parametrize(
    "family,params,dim", fl.EXTENDED_GRID, ids=[row[0] for row in fl.EXTENDED_GRID]
)
def test_a_warm_suite_keeps_residuals_not_verdicts(monkeypatch, family, params, dim):
    # the second call judges the kept rows at its own tolerances
    cold = fl.run_family_suite(family, params, dim)
    strict = fl.run_family_suite(family, params, dim, fl.Tolerances(1e-20, 1e-20, 1e-20))
    default = fl.Tolerances()
    assert [c.name for c in strict.checks] == [c.name for c in cold.checks]
    for was, now in zip(cold.checks, strict.checks):
        assert now.residual.hex() == was.residual.hex(), now.name
        assert now.leak.hex() == was.leak.hex(), now.name
        if was.tolerance in (default.residual, default.oracle):
            assert now.tolerance == 1e-20, now.name
        else:  # a battery row's own bound, or the infidelity tolerance
            assert now.tolerance == was.tolerance, now.name
            assert now.name.startswith("disentangle-") == (was.tolerance == 1e-8), now.name
        assert now.passed == (now.residual <= now.tolerance and now.leak <= 1e-20), now.name
    bound = {c.name for c in cold.checks if c.tolerance not in (1e-8, 1e-10, 1e-12)}
    assert "gdo-commutator-lowering" in bound
    flipped = {c.name for c, d in zip(cold.checks, strict.checks) if c.passed != d.passed}
    assert flipped and bound.isdisjoint(flipped)

    # a warm rerun at the default tolerances applies no operator and
    # computes no band product, no eigh and no expm, and writes the cold
    # call's bytes
    calls = []
    spied = [(np.linalg, "eigh"), (fl.twophoton, "expm")]
    spied += [(fl.core, "diagonal_matmul")]
    spied += [(module, "band_max_abs") for module in (fl.ladder, fl.twophoton)]
    spied += [(module, "_band_image") for module in (fl.core, fl.ladder)]
    for module, name in spied:

        def spy(*args, route=getattr(module, name), name=name, **kwargs):
            calls.append(name)
            return route(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    warm = fl.run_family_suite(family, params, dim)
    assert calls == []
    assert (warm.to_json(), warm.to_csv()) == (cold.to_json(), cold.to_csv())


def _spy(monkeypatch, calls, bindings):
    # each (module, name) binding of one function records its calls in calls
    for module, name in bindings:

        def spy(*args, route=getattr(module, name)):
            calls.append(args)
            return route(*args)

        monkeypatch.setattr(module, name, spy)


def _spy_report_texts(monkeypatch, formed):
    # each VerificationReport text records (its name, the report's family)
    # in formed when it is written, not when its kept text is read
    for name in ("_json", "_csv"):

        def spy(report, write=vars(fl.VerificationReport)[name].func, name=name):
            formed.append((name, report.family))
            return write(report)

        text = functools.cached_property(spy)
        text.__set_name__(fl.VerificationReport, name)
        monkeypatch.setattr(fl.VerificationReport, name, text)


def _spy_judges(monkeypatch, judged):
    _spy(monkeypatch, judged, [(m, "_judge") for m in (fl.ladder, fl.twophoton, fl.verify)])


@pytest.mark.parametrize(
    "family,params,dim", fl.EXTENDED_GRID, ids=[row[0] for row in fl.EXTENDED_GRID]
)
def test_a_warm_rerun_judges_no_row_and_formats_no_check(monkeypatch, family, params, dim):
    cold = fl.run_family_suite(family, params, dim)
    cold_bytes = cold.to_json(), cold.to_csv()
    judged, formed = [], []
    _spy_judges(monkeypatch, judged)
    _spy_report_texts(monkeypatch, formed)
    warm = fl.run_family_suite(family, params, dim)
    assert (warm.to_json(), warm.to_csv()) == cold_bytes
    assert judged == [] and formed == []
    assert warm.checks is cold.checks
    # the spies see a fresh report's two texts written, each once
    fresh = fl.VerificationReport(family, checks=(fl.CheckResult("n", "E1", 0.0, 1.0),))
    fresh.to_json(), fresh.to_csv(), fresh.to_json(), fresh.to_csv()
    assert formed == [("_json", family), ("_csv", family)]


@pytest.mark.parametrize(
    "family,params,dim", fl.EXTENDED_GRID, ids=[row[0] for row in fl.EXTENDED_GRID]
)
def test_an_exact_warm_repeat_returns_the_kept_report(monkeypatch, family, params, dim):
    fl.run_family_suite(family, params, dim)
    first = fl.run_family_suite(family, params, dim)
    first_bytes = first.to_json(), first.to_csv()
    judged, formed = [], []
    _spy_judges(monkeypatch, judged)
    _spy_report_texts(monkeypatch, formed)
    second = fl.run_family_suite(family, params, dim, fl.Tolerances())
    assert second is first
    assert (encode_json(second), second.to_csv()) == first_bytes
    assert judged == [] and formed == []


def test_an_int_and_a_float_tolerance_of_one_value_keep_their_own_heads(monkeypatch):
    family, (params, dim) = "coherent", GRID_BY_FAMILY["coherent"]
    as_int = fl.run_family_suite(family, params, dim, fl.Tolerances(residual=1))
    judged = []
    _spy_judges(monkeypatch, judged)
    as_float = fl.run_family_suite(family, params, dim, fl.Tolerances(residual=1.0))
    # a call that does not repeat the last one exactly judges the rows
    # again, into a report of its own head
    rows = fl.verify._suite_input(fl.FAMILY_SPECS[family], dict(params), dim).rows
    assert [args[0] for args in judged] == list(rows)
    again = fl.run_family_suite(family, params, dim, fl.Tolerances(residual=1))
    assert len(judged) == 2 * len(rows)
    assert as_float is not as_int and again is not as_float
    assert as_int.checks == as_float.checks == again.checks
    heads = [r.to_csv().split("\n", 1)[0] for r in (as_int, as_float, again)]
    assert [h.rsplit(" ", 1)[1] for h in heads] == [
        "tol_residual=1", "tol_residual=1.0", "tol_residual=1"
    ]
    residuals = [json.loads(r.to_json())["tolerances"]["residual"] for r in (as_int, as_float)]
    assert [(type(r), r) for r in residuals] == [(int, 1), (float, 1.0)]


def test_a_report_is_read_only():
    params, dim = GRID_BY_FAMILY["binomial"]
    report = fl.run_family_suite("binomial", params, dim)
    with pytest.raises(TypeError):
        report.params["M"] = 5
    table = report.with_table(fl.derived_vs_printed_rows("binomial", params, dim))
    with pytest.raises(TypeError):
        table.derived_vs_printed[0]["n"] = 1
    # the writers read a read-only mapping as the dict it views
    view = table.as_dict()
    assert view["params"] == dict(report.params) and type(view["params"]) is dict
    assert json.loads(table.to_json()) == json.loads(encode_json(view))
    assert fl.run_family_suite("binomial", params, dim) is report


@pytest.mark.parametrize(
    "family,params,dim", fl.EXTENDED_GRID, ids=[row[0] for row in fl.EXTENDED_GRID]
)
def test_other_tolerances_replace_the_kept_checks(family, params, dim):
    cold = fl.run_family_suite(family, params, dim)
    cold_bytes = cold.to_json(), cold.to_csv()
    tol = fl.Tolerances(1e-20, 1e-20, 1e-20)
    strict = fl.run_family_suite(family, params, dim, tol)
    data = fl.verify._suite_input(fl.FAMILY_SPECS[family], dict(params), dim)
    assert strict.checks == tuple(fl.ladder._judge(row, tol) for row in data.rows)
    assert any(not c.passed for c in strict.checks) and cold.passed
    back = fl.run_family_suite(family, params, dim)
    assert (back.to_json(), back.to_csv()) == cold_bytes
    # judged again, so the strict verdicts were replaced, not kept beside
    assert back.checks == cold.checks and back.checks is not cold.checks
    assert fl.run_family_suite(family, params, dim).checks is back.checks
