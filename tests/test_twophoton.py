"""Sector representation, squeezed-state constructors, and two-photon
ladder checks.

Closed-form amplitude oracles here go through lgamma directly; the
package builds the same states by amplitude-ratio recurrences.
"""

import cmath
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import fockladder as fl
import fockladder.core as core
import fockladder.twophoton as twophoton

from _oracles import (
    dense_expm,
    nonzero_diagonals,
    pair_lowering_over_reference,
    scalar_expm,
    squeezing_reference,
    su11_references,
    su11_residuals,
    two_photon_raising_reference,
    two_photon_down_reference,
    two_photon_up_reference,
)


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
    report = fl.verify_su11(parity_j, 32)
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


def _dense_k(rep):
    return [fl.to_matrix(k) for k in (rep.K_plus, rep.K_minus, rep.K_zero)]


@pytest.mark.parametrize("parity_j", [0, 1])
@pytest.mark.parametrize("dim", [32, 128, 512])
def test_su11_residuals_equal_the_dense_matmul(parity_j, dim):
    rep = fl.su11(parity_j, dim)
    wanted = su11_residuals(
        *_dense_k(rep), fl.to_matrix(rep.sector_number_op), parity_j
    )
    assert _su11_rows(rep) == _judged(wanted)


def _su11_rows(rep):
    # each check's residual and tolerance: the bound at its peak entry, or
    # the oracle tolerance
    checks = twophoton.su11_axiom_checks(rep, fl.Tolerances())
    return {c.name: (c.residual, c.tolerance) for c in checks}


def _judged(wanted):
    oracle = fl.Tolerances().oracle
    return {name: (r, oracle if b is None else b) for name, (r, b) in wanted.items()}


def _su11_got_and_wanted(rep, matrices=None):
    # the battery reads rep.bands; matrices, when given, are what they hold
    matrices = _dense_k(rep) if matrices is None else matrices
    with np.errstate(invalid="ignore", divide="ignore"):  # inf - inf and inf * 0 give NaN
        wanted = su11_residuals(
            *matrices, fl.to_matrix(rep.sector_number_op), rep.parity_j
        )
        got = _su11_rows(rep)
    return got, _judged(wanted)


def _same_residual(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize("parity_j", [0, 1])
@pytest.mark.parametrize("dim", [1, 2])
def test_su11_residuals_equal_the_dense_matmul_at_the_smallest_sectors(parity_j, dim):
    # the excluded top column is column 0 or 1, and at dim 1 K+ and K- are 0
    got, wanted = _su11_got_and_wanted(fl.su11(parity_j, dim))
    assert got == wanted


@pytest.mark.parametrize("parity_j", [0, 1])
@pytest.mark.parametrize("target", ["K+", "K-", "K0"])
@pytest.mark.parametrize(
    "poison",
    [
        {(3, 4): np.nan},
        {(5, 4): np.inf},
        {(2, 6): np.inf},
        {(4, 4): np.nan, (1, 7): -np.inf},
        {(7, 6): np.inf, (0, 7): np.nan},
    ],
    ids=["nan-above", "inf-below", "inf-stray", "nan-and-inf", "top-column"],
)
def test_su11_residuals_carry_nan_and_inf_as_the_dense_matmul(parity_j, target, poison):
    rep = fl.su11(parity_j, 8)
    matrices = _dense_k(rep)
    matrix = matrices[["K+", "K-", "K0"].index(target)]
    for at, value in poison.items():
        matrix[at] = value
    # poison the cached bands: a cached_property reads the instance dict
    poisoned = tuple(nonzero_diagonals(m) for m in matrices)
    rep.__dict__["bands"] = poisoned + rep.bands[3:]  # the number operator's
    got, wanted = _su11_got_and_wanted(rep, matrices)
    assert got.keys() == wanted.keys()
    nan_only = all(math.isnan(v) for v in poison.values())
    for name in got:
        (residual, bound), (want, want_bound) = got[name], wanted[name]
        if math.isfinite(residual):  # the peak is an entry no poison reaches
            assert (residual, bound) == (want, want_bound), name
            continue
        # BLAS also multiplies an inf by the zeros off every nonzero
        # diagonal, which makes NaN; the band sums never form those products
        assert _same_residual(residual, want) or (
            not nan_only and math.isinf(residual) and math.isnan(want)
        ), (name, residual, want)
    assert not all(math.isfinite(r) for r, _ in got.values())


def _su11_failures(rep):
    return {
        c.name
        for c in twophoton.su11_axiom_checks(rep, fl.Tolerances())
        if not c.passed
    }


@pytest.mark.parametrize("parity_j", [0, 1])
def test_su11_battery_catches_a_mutated_k_plus(parity_j):
    dim, n0 = 64, 32
    rep = fl.su11(parity_j, dim)
    assert _su11_failures(rep) == set()
    ((shift, d_plus),) = rep.K_plus.terms

    def stray(n):  # one entry of 1e-6 at offset (column - row) +3
        return 1e-6 / fl.ladder_factor(n, -3) if n == n0 else 0.0

    stray_rep = dataclasses.replace(
        rep, K_plus=fl.operator([(shift, d_plus), (-3, stray)], dim)
    )
    assert _su11_failures(stray_rep) == {
        "su11-commutator-plus",
        "su11-commutator-pm",
        "su11-casimir",
    }

    def off(n):  # one band entry off by 1e-9 relative
        return d_plus(n) * (1 + 1e-9) if n == n0 else d_plus(n)

    band_rep = dataclasses.replace(rep, K_plus=fl.operator([(shift, off)], dim))
    assert _su11_failures(band_rep) == {
        "su11-action",
        "su11-commutator-pm",
        "su11-casimir",
    }


def _nudged(op, n0, rel):
    # op with its one band entry at column n0 off by rel, relative
    ((shift, d),) = op.terms
    return fl.operator([(shift, lambda n: d(n) * (1 + rel) if n == n0 else d(n))], op.domain_dim)


def _strayed(op, n0, rel):
    # op with one more entry at offset (column - row) +3 in column n0, rel
    # times its band entry there
    ((shift, d),) = op.terms
    value = rel * abs(d(n0) * fl.ladder_factor(n0, shift))

    def stray(n):
        return value / fl.ladder_factor(n, -3) if n == n0 else 0.0

    return fl.operator([(shift, d), (-3, stray)], op.domain_dim)


SU11_ROWS = {
    "su11-action", "su11-commutator-plus", "su11-commutator-minus",
    "su11-commutator-pm", "su11-casimir", "su11-sector-number",
}


@pytest.mark.parametrize("parity_j", [0, 1])
@pytest.mark.parametrize(
    "mutate,broken",
    [
        (lambda rep, n0: {"K_plus": _nudged(rep.K_plus, n0, 1e-9)},
         {"su11-action", "su11-commutator-pm", "su11-casimir"}),
        (lambda rep, n0: {"K_zero": _nudged(rep.K_zero, n0, 1e-9)}, SU11_ROWS),
        (lambda rep, n0: {"K_plus": _strayed(rep.K_plus, n0, 1e-9)},
         {"su11-commutator-plus", "su11-commutator-pm", "su11-casimir"}),
    ],
    ids=["K+-entry", "K0-entry", "stray-offset"],
)
def test_su11_battery_fails_a_1e9_relative_error_at_sector_512(parity_j, mutate, broken):
    # each mutant leaves its rows many orders of magnitude past their bounds
    rep = fl.su11(parity_j, 512)
    mutant = dataclasses.replace(rep, **mutate(rep, 256))
    checks = twophoton.su11_axiom_checks(mutant, fl.Tolerances())
    assert {c.name for c in checks if not c.passed} == broken
    assert all(c.residual > 1e3 * c.tolerance for c in checks if c.name in broken)


@pytest.mark.parametrize("parity_j", [0, 1])
@pytest.mark.parametrize("dim", [2, 3, 64, 512, 4355, 4356, 4455, 4456, 8192])
def test_su11_battery_passes_at_its_rounding_bound(parity_j, dim):
    # [K+, K-] + 2 K0 reads 1.106 (j = 0) and 1.057 (j = 1) of an
    # arithmetic-only bound from sector sizes 4356 and 4456 on: K+- enter
    # it rounded
    rep = twophoton._su11.__wrapped__(parity_j, dim)  # kept out of the cache
    checks = twophoton.su11_axiom_checks(rep, fl.Tolerances())
    bounded = [c for c in checks if c.name != "su11-sector-number"]
    assert len(bounded) == 5
    assert [c.name for c in bounded if not c.passed] == []


@pytest.mark.parametrize("parity_j", [0, 1])
def test_su11_action_is_judged_at_its_rounding_bound_at_sector_8192(parity_j):
    # K+- are a product of two rounded square roots against one for the
    # stated action, so the residual grows with the sector: at 8192 it is
    # past the fixed oracle tolerance (j = 0), and still inside its bound
    rep = twophoton._su11.__wrapped__(parity_j, 8192)

    def action(rep):
        checks = twophoton.su11_axiom_checks(rep, fl.Tolerances())
        return next(c for c in checks if c.name == "su11-action")

    assert action(rep).passed
    if parity_j == 0:
        assert action(rep).residual > fl.Tolerances().oracle
    nudged = action(dataclasses.replace(rep, K_plus=_nudged(rep.K_plus, 4096, 1e-9)))
    assert not nudged.passed
    assert nudged.residual > 1e3 * nudged.tolerance
    assert "peaks at (4097, 4096)" in nudged.detail


@pytest.mark.parametrize(
    "family,params,full_reads",
    [
        # the three full-space operators of the embedding check
        ("ecs", {"alpha": 1.1}, 3),
        # the routes of the disentangling oracle read the same three
        ("svs", {"r": 0.8, "theta": 0.5}, 3),
    ],
    ids=["ecs", "svs"],
)
def test_two_photon_suite_reads_each_operators_bands_once(
    monkeypatch, to_matrix_dims, family, params, full_reads
):
    reads = []
    to_bands = twophoton.to_bands

    def reading(op):
        reads.append(op)
        return to_bands(op)

    monkeypatch.setattr(twophoton, "to_bands", reading)
    assert fl.run_family_suite(family, params, 128).passed
    # K+, K-, K0 and the sector number operator on sector 64, then the
    # full-space operators
    assert [op.domain_dim for op in reads] == [64] * 4 + [128] * full_reads
    assert len({id(op) for op in reads}) == len(reads)
    # the GDO battery reads bands too: no dense matrix at any dim
    assert to_matrix_dims == []


@pytest.mark.parametrize(
    "family,params",
    [
        ("svs", {"r": 0.8, "theta": 0.5}),
        ("sfes", {"r": 0.8, "theta": 0.5}),
        ("ecs", {"alpha": 1.1}),
        ("ocs", {"alpha": 1.1}),
    ],
    ids=["svs", "sfes", "ecs", "ocs"],
)
def test_a_warm_two_photon_suite_reads_no_bands(monkeypatch, family, params):
    reads = []
    to_bands = twophoton.to_bands

    def reading(op):
        reads.append(op.domain_dim)
        return to_bands(op)

    monkeypatch.setattr(twophoton, "to_bands", reading)
    first = fl.run_family_suite(family, params, 128)
    assert first.passed and reads
    reads.clear()
    second = fl.run_family_suite(family, params, 128)
    assert reads == []
    # the batteries ran again on the cached data, to the same bytes
    assert (second.to_json(), second.to_csv()) == (first.to_json(), first.to_csv())


def test_su11_data_is_cached_per_truncation():
    rep = fl.su11(0, 64)
    assert fl.su11(0, 64) is rep
    # the checked ints are the key: an integral float or a bool finds them
    assert fl.su11(0, 64.0) is rep and fl.su11(False, 64) is rep
    assert fl.su11(True, 64.0) is fl.su11(1, 64)
    assert type(fl.su11(True, 64).parity_j) is int
    assert fl.su11(1, 64) is not rep and fl.su11(0, 65) is not rep
    assert twophoton._su11.cache_info()[:2] == (6, 3)  # hits, misses

    # the full-space read is the representation's: same key, same arrays
    full = rep.full_bands
    assert fl.su11(0.0, 64).full_bands is full
    assert fl.su11(1, 64).full_bands is not full
    assert fl.su11(0, 65).full_bands is not full
    assert twophoton._su11.cache_info()[:2] == (9, 3)
    # both truncations whose even sector has 64 levels find that entry
    for dim_full in (127, 128.0):
        assert fl.su11(0, fl.sector_dim(dim_full, 0)).full_bands is full
    assert twophoton._su11.cache_info()[:2] == (11, 3)


@pytest.mark.parametrize("n", [1, 2, 64])
@pytest.mark.parametrize("j", [0, 1])
def test_full_bands_are_the_restriction_at_either_truncation(j, n):
    # the j::2 block of the full-space K+, K-, K0 is the same, bit for bit,
    # at both truncations whose sector j has n levels: (j, n) is all the
    # cache key needs
    full = fl.su11(j, n).full_bands
    for dim in (2 * n + j - 1, 2 * n + j):
        assert fl.sector_dim(dim, j) == n
        for op, own in zip(twophoton._full_k_ops(dim), full):
            block = core.band_matrix(core.to_bands(op), dim)[j::2, j::2]
            placed = core.band_matrix(own, n)
            assert np.array_equal(placed, block)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(placed)), np.signbit(part(block)))


def test_cached_bands_are_read_only():
    rep = fl.su11(1, 16)
    for bands in rep.bands + rep.full_bands:
        for d in bands.values():
            with pytest.raises(ValueError, match="read-only"):
                d[0] = 0
    # a representation built from another one reads its own bands
    other = dataclasses.replace(rep, K_plus=rep.K_minus)
    assert other.bands[0].keys() == rep.bands[1].keys()


def test_the_caches_stay_within_their_bound():
    size = twophoton.SU11_CACHE_SIZE
    cache = twophoton._su11
    for dim in range(2, size + 12):
        fl.su11(dim % 2, dim).full_bands
        assert cache.cache_info().currsize <= size
    assert cache.cache_info().maxsize == cache.cache_info().currsize == size


@pytest.mark.parametrize(
    "dim_sector,dim_full,parity_j",
    [
        (1, 2, 0), (1, 2, 1), (2, 3, 0), (8, 16, 0), (8, 16, 1), (8, 17, 1),
        (32, 64, 0), (32, 64, 1), (256, 512, 0), (256, 512, 1),
    ],
)
def test_embedding_residual_equals_the_dense_sector_block(dim_sector, dim_full, parity_j):
    # the residuals here are 0 to 6e-14: the two sides round differently.
    # dim_full is one of the two truncations whose sector has dim_sector
    # levels; both, the natural 2 dim_sector + j among them, give the block
    assert fl.sector_dim(dim_full, parity_j) == dim_sector
    rep = fl.su11(parity_j, dim_sector)
    (check,) = twophoton.embedding_checks(rep, fl.Tolerances())
    (via_report,) = (
        c for c in fl.verify_su11(parity_j, dim_sector).checks
        if c.name == "sector-embedding"
    )
    for dim in {dim_full, 2 * dim_sector + parity_j}:
        wanted = max(
            float(np.abs(
                fl.to_matrix(full)[parity_j::2, parity_j::2] - fl.to_matrix(sector)
            ).max())
            for full, sector in zip(
                twophoton._full_k_ops(dim), (rep.K_plus, rep.K_minus, rep.K_zero)
            )
        )
        assert check.residual == wanted
        assert via_report.residual == wanted


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("shift", [0, 2, -2, -6])
def test_embedding_catches_a_stray_full_space_term(monkeypatch, j, shift):
    # one entry of 1e-9 in the parity-j block of the full-space K+, on or
    # off its band
    full_k_ops = twophoton._full_k_ops
    column = 2 * 5 + j

    def stray(n):
        return 1e-9 / fl.ladder_factor(n, shift) if n == column else 0.0

    def mutant(dim):
        k_plus, k_minus, k_zero = full_k_ops(dim)
        return fl.add(k_plus, fl.operator([(shift, stray)], dim)), k_minus, k_zero

    assert fl.verify_su11(j, 32).passed
    monkeypatch.setattr(twophoton, "_full_k_ops", mutant)
    twophoton._su11.cache_clear()  # the clean read above is cached
    report = fl.verify_su11(j, 32)
    assert {c.name for c in report.checks if not c.passed} == {"sector-embedding"}


@pytest.mark.parametrize("j", [0, 1])
def test_kept_rows_belong_to_their_representation(monkeypatch, j):
    # a representation made from the cached one by dataclasses.replace,
    # under a full-space K0 with one parity-j entry off by 1e-9 relative,
    # reads its own full-space bands and computes its own rows
    rep = fl.su11(j, 32)
    assert fl.verify_su11(j, 32).passed and "embedding_rows" in rep.__dict__
    full_k_ops = twophoton._full_k_ops
    column = 2 * 5 + j

    def off(n):
        return 1e-9 * (n / 2.0 + 0.25) if n == column else 0.0

    def mutant(dim):
        k_plus, k_minus, k_zero = full_k_ops(dim)
        return k_plus, k_minus, fl.add(k_zero, fl.operator([(0, off)], dim))

    monkeypatch.setattr(twophoton, "_full_k_ops", mutant)
    rebuilt = dataclasses.replace(rep)
    checks = twophoton.su11_axiom_checks(rebuilt, fl.Tolerances())
    checks += twophoton.embedding_checks(rebuilt, fl.Tolerances())
    assert {c.name for c in checks if not c.passed} == {"sector-embedding"}
    assert all(c.passed for c in twophoton.embedding_checks(rep, fl.Tolerances()))


def test_verify_su11_takes_no_second_truncation():
    # the full truncation is the representation's own; tolerances are
    # keyword-only, so an old positional dim_full is refused, not misread
    with pytest.raises(TypeError):
        fl.verify_su11(0, 8, 16)
    tight = fl.Tolerances(oracle=1e-300)
    assert fl.verify_su11(0, 8, tolerances=tight).tolerances is tight


def test_verify_su11_reads_integral_float_dims():
    at_int = fl.verify_su11(1, 8).to_json()
    assert fl.verify_su11(1, 8.0).to_json() == at_int
    # a float or bool parity reads as its int, in the report header too
    assert fl.verify_su11(1.0, 8).to_json() == at_int
    assert fl.verify_su11(True, 8).to_json() == at_int


@pytest.mark.parametrize(
    "family,params,dim,limit_mib",
    [
        # one complex dim x dim matrix is 16 MiB at dim 1024, 4 MiB at 512
        ("ecs", {"alpha": 1.1}, 1024, 2),
        ("ocs", {"alpha": 1.1}, 1024, 2),
        # eigh needs the real tridiagonal sector block and its eigenvectors
        # dense, 0.5 MiB each
        ("svs", {"r": 0.8, "theta": 0.5}, 512, 3),
        ("sfes", {"r": 0.8, "theta": 0.5}, 512, 3),
    ],
    ids=["ecs", "ocs", "svs", "sfes"],
)
def test_two_photon_suite_peak_traced_memory(
    traced_peak, family, params, dim, limit_mib
):
    peak = traced_peak(lambda: fl.run_family_suite(family, params, dim))
    assert peak <= limit_mib * 2**20


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
        (fl.svs_sector_coeffs(0.8, 0.5, 128), fl.squeezed_vacuum(0.8, 0.5, 128), 0),
        (
            fl.sfes_sector_coeffs(0.8, 0.5, 128),
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
    _, down = fl.two_photon_ladder(fl.svs_sector_coeffs(0.8, 0.5, 192), 0, sec.dim)
    report = fl.verify_eigen_relation(down, sec, 0.0)
    assert report.checks[0].residual < 1e-10


def test_two_photon_gdo_axioms_and_structure_fn():
    r = 0.8
    t = fl.two_photon_gdo(fl.svs_sector_coeffs(r, 0.5, 64), 0, 32)
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


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_an_over_normalized_closed_form_fails_the_disentangling_checks(eps):
    # the n = 0 amplitude scaled by 1 + eps: the norm passes 1, and
    # 1 - fidelity against either route reads about -1.5 eps
    closed = fl.squeezed_vacuum(0.8, 0.5, 128)
    amplitudes = closed.amplitudes.copy()
    amplitudes[0] *= 1 + eps
    over = fl.make_state(amplitudes)
    routes = twophoton.squeezing_routes(0.8, 0.5, fl.su11(0, fl.sector_dim(128, 0)))
    checks = twophoton.disentangling_checks(over, routes, fl.Tolerances())
    failed = {c.name: c.residual for c in checks if not c.passed}
    assert set(failed) == {"disentangle-exponential-vs-closed", "disentangle-product-vs-closed"}
    assert all(eps < r < 2 * eps for r in failed.values())


@pytest.mark.parametrize("dim", [64, 128])
@pytest.mark.parametrize("j", [0, 1])
def test_sector_routes_match_the_full_space_expm(dim, j):
    routes = twophoton.squeezing_routes(0.8, 0.5, fl.su11(j, fl.sector_dim(dim, j)))
    for sector, full in zip(routes, squeezing_reference(0.8, 0.5, dim, j)):
        assert np.abs(sector - full[j::2]).max() <= 1e-13
        assert np.abs(full[1 - j :: 2]).max() <= 1e-13


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize(
    "flip,still_passing",
    [
        ("K+", set()),
        # K- annihilates |0> and |1>, so the product route never sees it
        ("K-", {"disentangle-product-vs-closed"}),
    ],
    ids=["K+", "K-"],
)
def test_disentangling_catches_a_flipped_k_sign(monkeypatch, j, flip, still_passing):
    full_k_ops = twophoton._full_k_ops

    def mutant(dim):
        k_plus, k_minus, k_zero = full_k_ops(dim)
        if flip == "K+":
            return fl.scale(k_plus, -1.0), k_minus, k_zero
        return k_plus, fl.scale(k_minus, -1.0), k_zero

    monkeypatch.setattr(twophoton, "_full_k_ops", mutant)
    report = fl.verify_disentangling(0.8, 0.5, 128, excitation=j)
    assert len(report.checks) == 3
    assert {c.name for c in report.checks if c.passed} == still_passing


@pytest.mark.parametrize("j", [0, 1])
def test_disentangling_exponentiates_one_sector_block(monkeypatch, j):
    calls = []
    expm = twophoton.expm

    def recording(v, a_bands):
        calls.append((v, a_bands))
        return expm(v, a_bands)

    monkeypatch.setattr(twophoton, "expm", recording)
    assert fl.verify_disentangling(0.8, 0.5, 512, excitation=j).passed
    assert len(calls) == 1
    v, a_bands = calls[0]
    rows = len(v)
    assert rows <= 256
    assert np.array_equal(v, np.eye(rows)[0])
    # the sector block arrives as its bands, never as an n x n array
    assert list(a_bands) == [-1]
    assert all(band.shape == (rows - 1,) for band in a_bands.values())


@pytest.mark.parametrize("n", [1, 2, 17, 64, 128])
def test_expm_of_a_strictly_lower_triangular_matrix(n):
    # one random complex band just below the diagonal, from e_0
    rng = np.random.default_rng(n)
    bands = {-1: rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)}
    e0 = np.eye(n)[0]
    expected = scipy_expm(core.band_matrix(bands, n)) @ e0
    error = np.linalg.norm(twophoton.expm(e0, bands) - expected)
    assert error <= 1e-14 * np.linalg.norm(expected)


def test_expm_refuses_a_second_band_and_a_v_other_than_e_0():
    n = 5
    e0, band = np.eye(n)[0], np.ones(n - 1) + 0.5j
    for bands in ({-1: band, -2: band[1:]}, {-2: band[1:]}, {-1: band[1:]}, {}):
        with pytest.raises(ValueError, match="one band of 4 entries at offset -1, not"):
            twophoton.expm(e0, bands)
    for v in (2 * e0, np.eye(n)[1], e0 + np.eye(n)[3], np.zeros(n), np.full(n, np.nan)):
        with pytest.raises(ValueError, match=r"expm takes v = e_0, not \["):
            twophoton.expm(v, {-1: band})


@pytest.mark.parametrize("sector_dim", [128, 256])
@pytest.mark.parametrize("j", [0, 1])
def test_expm_of_the_k_plus_sector_block(sector_dim, j):
    # scipy's Pade expm agrees to 1e-14 relative; the worst measured, over
    # sectors 1..256, both j and six angles at r = 0.8, is 1.1e-15
    k_plus = fl.to_matrix(twophoton._full_k_ops(2 * sector_dim)[0])[j::2, j::2]
    a = cmath.exp(0.5j) * math.tanh(0.8) * k_plus
    bands = {-1: a.diagonal(-1).copy()}
    assert np.array_equal(core.band_matrix(bands, sector_dim), a)  # the whole block
    e0 = np.eye(sector_dim)[0]
    expected = scipy_expm(a)[:, 0]
    error = np.linalg.norm(twophoton.expm(e0, bands) - expected)
    assert error <= 1e-14 * np.linalg.norm(expected)


def _tau_k_plus(j, sector, r, theta):
    """tau K+ on sector j, tau = e^{i theta} tanh r: its bands, as
    squeezing_routes hands them to expm, and its dense block."""
    tau = cmath.exp(1j * theta) * math.tanh(r)
    bands = {d: tau * band for d, band in fl.su11(j, sector).full_bands[0].items()}
    return bands, core.band_matrix(bands, sector)


@pytest.mark.parametrize("sector", [1, 2, 64, 128, 256])
@pytest.mark.parametrize("j", [0, 1])
def test_expm_on_the_band_is_the_dense_sum_bit_for_bit(sector, j):
    # tau in each quadrant: every entry and sign bit is the dense sum's in
    # CPython scalars.  numpy's matvec sum rounds some products differently
    # at every sector n = 2 or 3 mod 4 from 3 up, so it is held to 1e-15
    # relative; the worst measured, over sectors 1..256, both j and 32
    # angles at r = 0.8, is 8.7e-17
    e0 = np.eye(sector)[0]
    for theta in (0.5, 2.0, 3.5, 5.0):
        bands, a = _tau_k_plus(j, sector, 0.8, theta)
        banded = twophoton.expm(e0, bands)
        assert banded.tobytes() == scalar_expm(a, e0).tobytes(), theta
        dense = dense_expm(a, e0)
        assert np.linalg.norm(banded - dense) <= 1e-15 * np.linalg.norm(dense), theta


@pytest.mark.parametrize("j", [0, 1])
def test_expm_is_the_scalar_sum_bit_for_bit_at_every_small_sector(j):
    # theta = 0 and -0.0 give tau a zero or negative-zero imaginary part and
    # r = 0 a zero band; at r = 5e-324 the products underflow to signed
    # zeros, whose signs the sums onto 0.0 and 0j fix, at pi/2 and pi too
    thetas = (0.0, -0.0, math.pi / 2, math.pi, 0.5, 2.0, 3.5, 5.0)
    for sector in range(1, 41):
        e0 = np.eye(sector)[0]
        for theta in thetas:
            for r in (0.0, 5e-324, 0.8, 3.0):
                bands, a = _tau_k_plus(j, sector, r, theta)
                got = twophoton.expm(e0, bands).tobytes()
                assert got == scalar_expm(a, e0).tobytes(), (sector, theta, r)


def _add_stray_term(monkeypatch, j, k):
    """A stray full-space term off K+'s or K-'s band: one entry at sector
    (40, 3) of sector j in K+ (k = 74), or at sector (3, 40) in K-
    (k = -74)."""
    full_k_ops = twophoton._full_k_ops
    column = 2 * (3 if k > 0 else 40) + j

    def stray(n):
        return 1e-3 / fl.ladder_factor(n, k) if n == column else 0.0

    def mutant(dim):
        k_plus, k_minus, k_zero = full_k_ops(dim)
        term = fl.operator([(k, stray)], dim)
        if k > 0:
            return fl.add(k_plus, term), k_minus, k_zero
        return k_plus, fl.add(k_minus, term), k_zero

    monkeypatch.setattr(twophoton, "_full_k_ops", mutant)
    twophoton._su11.cache_clear()  # a clean read made earlier in the test is cached


@pytest.mark.parametrize("j", [0, 1])
def test_disentangling_reads_the_whole_k_plus_block(monkeypatch, j):
    # the sector read carries the stray term, and the exponential route
    # refuses it by name rather than dropping it
    _add_stray_term(monkeypatch, j, 74)
    k_plus = core.band_matrix(fl.su11(j, 64).full_bands[0], 64)
    assert k_plus[40, 3] == pytest.approx(1e-3, rel=1e-15)
    with pytest.raises(fl.OperatorEvaluationError, match="K\\+ has a band at offset -37;"):
        fl.verify_disentangling(0.8, 0.5, 128, excitation=j)


@pytest.mark.parametrize("j", [0, 1])
def test_disentangling_reads_the_whole_k_minus_block(monkeypatch, j):
    # the product route never reads K-, so only the exponential route's
    # guard can catch a stray K- term
    _add_stray_term(monkeypatch, j, -74)
    k_minus = core.band_matrix(fl.su11(j, 64).full_bands[1], 64)
    assert k_minus[3, 40] == pytest.approx(1e-3, rel=1e-15)
    with pytest.raises(fl.OperatorEvaluationError, match="K- has a band at offset 37;"):
        fl.verify_disentangling(0.8, 0.5, 128, excitation=j)


_SECTORS = [*range(1, 41), 64, 128, 255, 256]


@pytest.mark.parametrize(
    "sector,stray",
    [(n, False) for n in _SECTORS] + [(64, True), (256, True)],
    ids=[str(n) for n in _SECTORS] + ["64-stray", "256-stray"],
)
@pytest.mark.parametrize("j", [0, 1])
def test_eigh_route_gets_the_dense_hermitian_generator(monkeypatch, sector, j, stray):
    # the exponential route, a real tridiagonal eigh, gives exp(i H) e_0 of
    # the dense Hermitian generator H = (h + h^H) / 2 of the dense K+ and K-
    # blocks to 2e-14 in every entry, with no apply and no closed form on
    # the way; a stray K+ term is refused by name
    if stray:
        _add_stray_term(monkeypatch, j, 74)
    rep = fl.su11(j, sector)
    k_plus, k_minus = (core.band_matrix(bands, sector) for bands in rep.full_bands[:2])

    def forbidden(*args, **kwargs):
        raise AssertionError("the routes called apply or the closed form")

    for module in (core, twophoton):
        monkeypatch.setattr(module, "apply", forbidden, raising=False)
    monkeypatch.setattr(twophoton, "_squeezed", forbidden)
    if stray:
        with pytest.raises(fl.OperatorEvaluationError, match="offset -37;"):
            twophoton.squeezing_routes(0.8, 0.5, rep)
        return
    matrices = []
    eigh = np.linalg.eigh

    def recording(a):
        matrices.append(a)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    for r in (0.0, 5e-324, 1e-310, 0.3, 1.0, 3.0):
        for theta in (0.5, 2.0, 3.5, 5.0):
            matrices.clear()
            via_exponential = twophoton.squeezing_routes(r, theta, rep)[0]
            (matrix,) = matrices
            assert matrix.dtype == np.float64 and matrix.shape == (sector, sector)
            xi = r * cmath.exp(1j * theta)
            h = -1j * (xi * k_plus - xi.conjugate() * k_minus)
            lam, V = eigh((h + h.conj().T) / 2)
            dense = V @ (np.exp(1j * lam) * V[0].conj())
            assert np.abs(via_exponential - dense).max() <= 2e-14, (r, theta)


@pytest.mark.parametrize("j", [0, 1])
def test_disentangling_reads_an_integral_float_dim(j):
    report = fl.verify_disentangling(0.5, 0.3, 64.0, excitation=j)
    at_int = fl.verify_disentangling(0.5, 0.3, 64, excitation=j)
    assert report.passed
    assert (report.to_json(), report.to_csv()) == (at_int.to_json(), at_int.to_csv())
    with pytest.raises(fl.ParameterError, match="dim must be an integer >= 1"):
        fl.verify_disentangling(0.5, 0.3, 64.5, excitation=j)


@pytest.mark.parametrize("excitation", [1.0, True], ids=["float", "bool"])
def test_disentangling_reads_an_integral_float_or_bool_excitation(excitation):
    # read as the checked int, as verify_su11 reads its parity
    at_int = fl.verify_disentangling(0.8, 0.5, 128, excitation=1)
    report = fl.verify_disentangling(0.8, 0.5, 128, excitation=excitation)
    assert (report.to_json(), report.to_csv()) == (at_int.to_json(), at_int.to_csv())


@pytest.mark.parametrize(
    "args,excitation,error,message",
    [
        ((3.0, 0.0, 64), 0, fl.TailMassError, "increase dim"),
        ((-0.1, 0.0, 64), 0, fl.ParameterError, "r must be nonnegative"),
        ((0.0, 0.0, 1), 1, fl.ParameterError, "dim must be at least 2"),
        ((0.5, 0.0, 64), 2, fl.ParameterError, "excitation must be 0 or 1"),
    ],
    ids=["tail-mass", "negative-r", "odd-at-dim-1", "excitation-2"],
)
def test_disentangling_rejects_before_dense_work(
    monkeypatch, args, excitation, error, message
):
    def no_dense_work(*args):
        raise AssertionError("dense work before the input was checked")

    monkeypatch.setattr(twophoton, "su11", no_dense_work)
    monkeypatch.setattr(twophoton, "_full_k_ops", no_dense_work)
    with pytest.raises(error, match=message):
        fl.verify_disentangling(*args, excitation=excitation)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: fl.su11(1 + 0j, 8), "parity_j must be 0 or 1"),
        (
            lambda: fl.verify_disentangling(0.8, 0.5, 128, excitation=1 + 0j),
            "excitation must be 0 or 1",
        ),
        # a count is read the same way
        (lambda: fl.binomial(0.5, 4 + 0j, 12), "M must be a nonnegative integer"),
        (lambda: fl.coherent(1.0, 64 + 0j), "dim must be an integer >= 1"),
        (
            lambda: fl.run_family_suite("binomial", {"eta": 0.5, "M": 4 + 0j}, 12),
            "M must be a nonnegative integer",
        ),
    ],
    ids=["su11", "disentangling", "binomial-M", "coherent-dim", "run_family_suite-M"],
)
def test_a_complex_parity_is_refused_by_name(call, message):
    # 1+0j equals 1, but no int reads it
    with pytest.raises(fl.ParameterError, match=f"^{message}$"):
        call()


def test_sector_coeff_callables_match_states():
    c = fl.svs_sector_coeffs(0.8, 0.5, 64)
    s = fl.sector_embed(fl.squeezed_vacuum(0.8, 0.5, 64))
    # coefficients are unnormalized; ratios must match the state exactly
    for n in range(1, 8):
        assert c(n) / c(n - 1) == pytest.approx(
            complex(s.amplitudes[n] / s.amplitudes[n - 1]), abs=1e-12
        )
    assert c(-1) == 0.0
    # the odd superposition at alpha = 0 is no state: refused as the
    # constructor refuses it, not read as coefficients that are all 0
    with pytest.raises(fl.ParameterError, match="alpha must be nonzero"):
        fl.ocs_sector_coeffs(0.0)
    for coeffs in (fl.svs_sector_coeffs, fl.sfes_sector_coeffs):
        with pytest.raises(fl.ParameterError, match="r must be nonnegative"):
            coeffs(-1.0, 0.0, 64)
    assert fl.ecs_sector_coeffs(0.0)(0) == 1.0


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy as None in sys.modules makes every scipy import raise
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from fockladder.cli import main\n"
        "from fockladder import verify_disentangling\n"
        "for family in ('svs', 'sfes'):\n"
        "    argv = ['verify', '--family', family, '--r', '0.8', '--theta', '0.5']\n"
        "    assert main(argv + ['--dim', '128']) == 0\n"
        "assert verify_disentangling(0.5, 0.3, 64).passed\n"
        "assert sys.modules['scipy'] is None\n"
        "assert not [name for name in sys.modules if name.startswith('scipy.')]\n"
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


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_even_odd_coherent_prefactor_below_the_normal_range_refuses_alpha(parity):
    # sqrt(2) e^(-|alpha|^2/2) is subnormal past |alpha| = 37.6495
    with pytest.raises(fl.ParameterError) as raised:
        fl.even_odd_coherent(39.0, parity, 4800)
    assert not isinstance(raised.value, fl.TailMassError)
    assert str(raised.value) == (
        "alpha=39.0 puts the normalizing prefactor below the normal float range; "
        "|alpha| must be at most 37.6495"
    )
    assert fl.even_odd_coherent(37.6495, parity, 4800).leak <= 1e-12


@pytest.mark.parametrize(
    "alpha", [1e-170, 2e-162, 7e-162, 1.2e-160, 1e-155, 1e-300, 1e-170j, -3e-200 + 4e-200j]
)
def test_odd_coherent_at_a_subnormal_alpha_squared_takes_the_limit(alpha):
    # sinh(|alpha|^2) / |alpha|^2 -> 1: the state is alpha/|alpha| |1> to
    # double precision
    s = fl.even_odd_coherent(alpha, "odd", 8)
    assert s.amplitudes[1] == alpha / abs(alpha)
    assert np.abs(np.delete(s.amplitudes, 1)).max() < 1e-300
    assert s.norm_constant == pytest.approx(1.0 / abs(alpha), rel=1e-15)
    assert s.leak == 0.0


@pytest.mark.parametrize("alpha", [5e-324, 5.5626e-309, 4e-309j])
def test_odd_coherent_refuses_an_alpha_whose_inverse_overflows(alpha):
    with pytest.raises(fl.ParameterError) as raised:
        fl.even_odd_coherent(alpha, "odd", 8)
    assert not isinstance(raised.value, fl.TailMassError)
    assert str(raised.value) == (
        f"alpha={fl.format_complex(alpha)} puts the odd superposition's prefactor "
        "1/|alpha| past the float range; |alpha| must be at least 5.5627e-309"
    )
    assert fl.even_odd_coherent(5.5627e-309, "odd", 8).leak == 0.0


# --- the sector and pair builders against their per-index references ---

# a zero at n = 3, read as a numerator by some ratios and divided by in others
SECTOR_COEFFS = {
    "real": [1.0, 0.7, 0.45, 0.2, 0.11, 0.05, 0.02],
    "complex": [0.9, 0.5 - 0.4j, -0.3 + 0.25j, 0.2j, -0.1, 0.06 - 0.03j, 0.01j],
    "zero": [0.8, 0.6 + 0.1j, -0.35j, 0.0, 0.12, 0.05 + 0.05j, -0.02],
}


def _matrix_or_raised(build):
    try:
        return build()
    except (fl.ZeroCoefficientError, ZeroDivisionError):
        return "raised"


def _same_or_both_raise(build, reference):
    """The builder's to_matrix equals its reference by ==, or both raise
    (the builder naming the zero coefficient, the reference dividing by it)."""
    got = _matrix_or_raised(lambda: core.to_matrix(build()))
    want = _matrix_or_raised(reference)
    if isinstance(got, str) or isinstance(want, str):
        assert isinstance(got, str) and isinstance(want, str)
        return "raised"
    assert np.array_equal(got, want)
    return "equal"


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("kind", sorted(SECTOR_COEFFS))
def test_two_photon_builders_match_reference(j, kind):
    coeffs = SECTOR_COEFFS[kind]
    outcomes = set()
    for dim in range(1, len(coeffs) + 2):
        outcomes.add(_same_or_both_raise(
            lambda: fl.two_photon_ladder(coeffs, j, dim)[0],
            lambda: two_photon_up_reference(coeffs, j, dim),
        ))
        outcomes.add(_same_or_both_raise(
            lambda: fl.two_photon_ladder(coeffs, j, dim)[1],
            lambda: two_photon_down_reference(coeffs, j, dim),
        ))
        outcomes.add(_same_or_both_raise(
            lambda: fl.two_photon_gdo(coeffs, j, dim).raising,
            lambda: two_photon_raising_reference(coeffs, j, dim),
        ))
        # the lowering is the raising's adjoint, entry by entry
        outcomes.add(_same_or_both_raise(
            lambda: fl.two_photon_gdo(coeffs, j, dim).lowering,
            lambda: two_photon_raising_reference(coeffs, j, dim).conj().T,
        ))
        outcomes.add(_same_or_both_raise(
            lambda: fl.two_photon_gdo(coeffs, j, dim).number_op,
            lambda: np.diag(np.arange(dim)).astype(complex),
        ))
    assert outcomes == ({"equal", "raised"} if kind == "zero" else {"equal"})


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("dim", [1, 2, 3, 16, 65])
def test_su11_and_pair_lowering_match_reference(j, dim):
    rep = fl.su11(j, dim)
    for op, want in zip((rep.K_plus, rep.K_minus, rep.K_zero), su11_references(j, dim)):
        assert np.array_equal(core.to_matrix(op), want)
    pair = (fl.svs_lowering, fl.sfes_lowering)[j]
    assert np.array_equal(core.to_matrix(pair(dim)), pair_lowering_over_reference(j, dim))
