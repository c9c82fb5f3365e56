from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import fockladder as fl
from fockladder import closedform, core, verify
from fockladder.closedform import Coeffs
from fockladder.ladder import _OperationalF

from _oracles import (
    band_image_reference,
    band_product_reference,
    matrix_reference,
    nonzero_diagonals,
    ratio_peak,
    state_support_reference,
    structure_fn_reference,
)


def dense_apply(op, s):
    return core.to_matrix(op) @ s.amplitudes


def random_operator(rng, dim, shifts=(-2, -1, 0, 1, 2)):
    terms = []
    for k in shifts:
        coeffs = rng.standard_normal(dim + 4) + 1j * rng.standard_normal(dim + 4)

        def d(n, c=coeffs):
            return complex(c[n]) if 0 <= n < len(c) else 0.0

        terms.append((k, d))
    return core.operator(terms, dim)


def test_make_state_support_and_parity():
    s = core.make_state([0, 1, 0, 0])
    assert s.support == (1, 1)
    assert s.parity == "odd"
    e = core.make_state([1, 0, 0.5, 0])
    assert e.parity == "even"
    f = core.make_state([1, 1, 0, 0])
    assert f.parity == "full"
    z = core.make_state([0, 0, 0])
    assert z.support == (0, -1)


def _support_cases():
    rng = np.random.default_rng(26)
    cases = [
        np.zeros(5),
        np.array([0.0, 0.0, 2.5, 0.0]),
        np.array([-0.0, 1.0, -0.0, 0.0, -0.0]),
        np.array([complex(-0.0, -0.0), 0.0, 1j, 0.0]),
        np.array([0.0, math.nan, 0.0, 0.0]),
        np.array([math.nan, 0.0, 1.0, 0.0, 0.0, 0.0]),
        np.array([0.0, 1e-320, 0.0, 3 - 4j, 0.0]),
    ]
    for dim in (1, 2, 3, 8, 33):
        for keep in (0.2, 0.5, 1.0):
            values = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            mask = rng.random(dim) < keep
            cases += [
                np.where(mask, values, 0),
                np.where(mask, values.real, 0),
                np.where(mask & (np.arange(dim) % 2 == 0), values, 0),
                np.where(mask & (np.arange(dim) % 2 == 1), values, -0.0),
            ]
    return cases


def test_make_state_derives_the_reference_support_and_parity():
    for amplitudes in _support_cases():
        s = core.make_state(amplitudes)
        assert (s.support, s.parity) == state_support_reference(amplitudes), amplitudes
        assert s.amplitudes.tobytes() == amplitudes.astype(complex).tobytes()


def test_state_invariant_violations_rejected():
    with pytest.raises(ValueError):
        core.FockState(
            amplitudes=np.array([1.0, 1.0]), dim=2, support=(0, 0), parity="full"
        )
    with pytest.raises(ValueError):
        core.FockState(
            amplitudes=np.array([1.0, 1.0]), dim=2, support=(0, 1), parity="even"
        )
    with pytest.raises(core.DimensionMismatchError):
        core.FockState(
            amplitudes=np.array([1.0]), dim=2, support=(0, 0), parity="full"
        )


def test_amplitudes_immutable():
    s = core.basis_state(1, 4)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 1.0


def test_annihilator_on_vacuum():
    out = core.apply(core.annihilation(8), core.basis_state(0, 8))
    assert np.array_equal(out.amplitudes, np.zeros(8))
    assert out.leak == 0.0


def test_number_operator_eigenvalue():
    out = core.apply(
        core.compose(core.creation(8), core.annihilation(8)), core.basis_state(5, 8)
    )
    expected = np.zeros(8, dtype=complex)
    expected[5] = 5.0
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


def test_canonical_commutation_on_all_interior_indices():
    dim = 12
    a = core.annihilation(dim)
    ad = core.creation(dim)
    for n in range(dim - 1):
        s = core.basis_state(n, dim)
        down_up = core.apply(core.compose(a, ad), s)
        up_down = core.apply(core.compose(ad, a), s)
        assert down_up.amplitudes[n] == pytest.approx(n + 1, abs=0)
        assert up_down.amplitudes[n] == pytest.approx(n, abs=0)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(7)
    dim = 10
    x = random_operator(rng, dim, shifts=(-2, 0, 1))
    y = random_operator(rng, dim, shifts=(-1, 0, 2))
    xy = core.compose(x, y)
    for n in range(dim):
        s = core.basis_state(n, dim)
        seq = core.apply(x, core.apply(y, s))
        onc = core.apply(xy, s)
        # compare only where the intermediate image stayed inside truncation
        if seq.leak == 0.0 and core.apply(y, s).leak == 0.0:
            np.testing.assert_allclose(onc.amplitudes, seq.amplitudes, atol=1e-13)


def test_compose_diag_then_lower():
    # diag(f) after a acts as f(n-1) sqrt(n) on |n>
    dim = 8
    f = lambda n: complex(2 * n + 1)
    op = core.compose(core.diag_op(f, dim), core.annihilation(dim))
    for n in range(1, dim):
        out = core.apply(op, core.basis_state(n, dim))
        assert out.amplitudes[n - 1] == pytest.approx(
            (2 * (n - 1) + 1) * math.sqrt(n), rel=1e-15
        )


def test_compose_zero_ladder_numerator_guard():
    # a a a+ on |0>: the inner a^2 annihilates |1>, so the composed diagonal
    # must return 0 without touching the vanished denominator factor
    dim = 6
    a = core.annihilation(dim)
    op = core.compose(a, core.compose(a, core.creation(dim)))
    out = core.apply(op, core.basis_state(0, dim))
    assert np.array_equal(out.amplitudes, np.zeros(dim))


@pytest.mark.parametrize("k1", range(-4, 5))
@pytest.mark.parametrize("k2", range(-4, 5))
def test_composed_diagonal_roots_an_exact_integer_square(k1, k2):
    # the normal-ordering quotient L(n, k2) L(n+k2, k1) / L(n, k1+k2) of
    # squared ladder products is an exact integer square wherever the
    # inner shifts leave |n> alive, so its root is exact
    def perm(n, k):
        return math.perm(n + k, k) if k >= 0 else math.perm(n, -k)

    def d1(n):
        return complex(0.5 + n, 1.0 - 0.3 * n)

    def d2(n):
        return complex(-0.25 * n, 2.0 + n)

    dim = 40
    x, y = core.operator([(k1, d1)], dim), core.operator([(k2, d2)], dim)
    ((k, d),) = core.compose(x, y).terms
    assert k == k1 + k2
    for n in range(dim):
        num = perm(n, k2) * perm(n + k2, k1) if n + k2 >= 0 else 0
        if num == 0:
            assert d(n) == 0
            continue
        quot, rem = divmod(num, perm(n, k))
        assert rem == 0 and math.isqrt(quot) ** 2 == quot
        assert d(n) == d1(n + k2) * d2(n) * math.sqrt(quot)


@pytest.mark.parametrize("k1", range(-4, 5))
@pytest.mark.parametrize("k2", range(-4, 5))
def test_composed_diagonal_forms_the_ratio_only_for_opposing_shifts(monkeypatch, k1, k2):
    # shifts of one sign (or a diagonal side) compose with the ratio 1, so
    # no ladder product is formed; opposing shifts still form the exact one
    products = []
    ladder_prod = core._ladder_prod

    def counted(n, k):
        products.append((n, k))
        return ladder_prod(n, k)

    monkeypatch.setattr(core, "_ladder_prod", counted)
    dim = 12
    x = core.operator([(k1, lambda n: 1.0 + n)], dim)
    y = core.operator([(k2, lambda n: 2.0 - n)], dim)
    ((_, d),) = core.compose(x, y).terms
    for n in range(dim):
        d(n)
    assert bool(products) == (k1 * k2 < 0)


def test_composed_diagonals_are_only_asked_for_nonnegative_indices(monkeypatch):
    # the same-sign branch of _composed_diag tests n < -k in place of an
    # exact ladder product, which is the same test only for n >= 0
    composed = core._composed_diag
    asked = []

    def checked(k1, d1, k2, d2):
        d = composed(k1, d1, k2, d2)

        def d_checked(n):
            assert n >= 0, (k1, k2, n)
            asked.append(n)
            return d(n)

        return d_checked

    monkeypatch.setattr(core, "_composed_diag", checked)
    for family, params, dim in fl.EXTENDED_GRID:
        fl.run_family_suite(family, params, dim)
    assert asked


def test_coefficient_callables_are_only_read_at_nonnegative_indices(monkeypatch):
    # the builders read a coefficient callable as given: each one's index
    # rule, with the numerator-first rule, keeps every read at n >= 0
    reads = []

    def checked(c):
        def read(n):
            assert n >= 0, n
            reads.append(n)
            return c(n)

        return read

    # the suites: each closed form as it is evaluated, an index array or
    # the one index past its table, and its table as the builders read it
    values, call, diag = Coeffs.values, Coeffs.__call__, verify._closed_form_diag

    def read(ns):
        assert (ns >= 0).all(), ns
        reads.extend(ns.tolist())

    def checked_values(self, ns):
        read(ns)
        return values(self, ns)

    def checked_call(self, n):
        read(np.array([n]))
        return call(self, n)

    def checked_diag(route, table):
        d = diag(route, table)

        def gather(ns):
            read(ns)
            return d.values(ns)

        return core._ArrayDiag(gather)

    monkeypatch.setattr(Coeffs, "values", checked_values)
    monkeypatch.setattr(Coeffs, "__call__", checked_call)
    monkeypatch.setattr(verify, "_closed_form_diag", checked_diag)
    one_per_kind = {}
    for family, params, dim in fl.EXTENDED_GRID:
        fl.run_family_suite(family, params, dim)
        fl.verify_gdo_axioms(fl.build_gdo(family, params, dim))
        one_per_kind.setdefault(fl.FAMILY_SPECS[family].kind, (family, params))
    assert len(one_per_kind) == 5
    for family, params in one_per_kind.values():
        fl.run_family_suite(family, params, 256)
    assert reads

    # the public builders, handed callables
    dim, M = 256, 4
    finite = checked(lambda n: math.sqrt(math.comb(M, n)))
    shifted = checked(lambda n: math.sqrt(math.comb(n, M)) * 0.5 ** (n / 2))
    general = checked(fl.coherent_coeffs(1.0))
    sector = checked(fl.ecs_sector_coeffs(1.1))
    ops = [
        fl.ladder_lowering_finite(finite, M, dim),
        fl.ladder_raising_shifted(shifted, M, dim),
        *fl.ladder_general(general, dim),
        fl.added_raising_ladder(general, M, dim),
        *fl.added_lowered_pair(general, M, dim),
        *fl.shifted_lowered_pair(shifted, M, dim),
        *fl.two_photon_ladder(sector, 0, dim),
    ]
    for op in ops:
        core.to_matrix(op)
    for triple in (
        fl.finite_gdo(finite, M, dim),
        fl.shifted_gdo(shifted, M, dim),
        fl.general_gdo(general, dim),
        fl.two_photon_gdo(sector, 1, dim),
    ):
        fl.verify_gdo_axioms(triple)


def test_adjoint_of_ladders_and_diag():
    dim = 8
    np.testing.assert_allclose(
        core.to_matrix(core.adjoint(core.annihilation(dim))),
        core.to_matrix(core.creation(dim)),
        atol=0,
    )
    f = lambda n: complex(n, n + 1)
    adj = core.adjoint(core.diag_op(f, dim))
    np.testing.assert_allclose(
        core.to_matrix(adj), core.to_matrix(core.diag_op(f, dim)).conj().T, atol=0
    )


def test_adjoint_matches_dense_conjugate_transpose():
    rng = np.random.default_rng(3)
    dim = 8
    x = random_operator(rng, dim)
    np.testing.assert_allclose(
        core.to_matrix(core.adjoint(x)), core.to_matrix(x).conj().T, atol=1e-14
    )


def test_double_adjoint_acts_like_original():
    rng = np.random.default_rng(5)
    dim = 10
    x = random_operator(rng, dim)
    xx = core.adjoint(core.adjoint(x))
    for n in range(dim - x.max_shift):
        s = core.basis_state(n, dim)
        np.testing.assert_allclose(
            core.apply(xx, s).amplitudes, core.apply(x, s).amplitudes, atol=1e-14
        )


def test_commutator_number_with_ladders():
    dim = 9
    nop = core.number_op(dim)
    np.testing.assert_allclose(
        core.to_matrix(core.commutator(nop, core.creation(dim))),
        core.to_matrix(core.creation(dim)),
        atol=1e-14,
    )
    np.testing.assert_allclose(
        core.to_matrix(core.commutator(nop, core.annihilation(dim))),
        -core.to_matrix(core.annihilation(dim)),
        atol=1e-14,
    )


def test_dense_oracle_equivalence():
    # every OperatorExpr agrees entrywise with its materialized matrix
    rng = np.random.default_rng(11)
    for dim in (4, 9, 16):
        x = random_operator(rng, dim)
        mat = core.to_matrix(x)
        cols = np.column_stack(
            [core.apply(x, core.basis_state(n, dim)).amplitudes for n in range(dim)]
        )
        np.testing.assert_allclose(mat, cols, atol=1e-13)


def test_operator_algebra_distributes():
    rng = np.random.default_rng(13)
    dim = 12
    x = random_operator(rng, dim, shifts=(-1, 0))
    y = random_operator(rng, dim, shifts=(1,))
    z = random_operator(rng, dim, shifts=(0, 2))
    lhs = core.to_matrix(core.compose(core.add(x, y), z))
    rhs = core.to_matrix(core.add(core.compose(x, z), core.compose(y, z)))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_leak_accounting():
    dim = 5
    top = core.basis_state(dim - 1, dim)
    out = core.apply(core.creation(dim), top)
    assert np.array_equal(out.amplitudes, np.zeros(dim))
    # amplitude sqrt(dim) fell off the truncation
    assert out.leak == pytest.approx(dim, rel=1e-15)


def test_zero_amplitude_skips_singular_diagonal():
    dim = 4
    op = core.diag_op(lambda n: 1.0 / n if n else math.inf, dim)
    s = core.make_state([0, 1, 0, 0])
    out = core.apply(op, s)  # index 0 unoccupied, singular value never seen
    assert out.amplitudes[1] == pytest.approx(1.0)


def test_nonfinite_diagonal_at_occupied_index_raises():
    # a float inf, named by its complex value and its index on both routes
    op = core.diag_op(lambda n: math.inf if n == 2 else 1.0, 4)
    for s in (core.make_state([0, 0, 1, 0]), core.make_state([1, 1, 1, 1])):
        with pytest.raises(core.OperatorEvaluationError) as caught:
            core.apply(op, s)
        assert str(caught.value) == "diagonal evaluated to (inf+0j) at occupied index 2"
    with pytest.raises(core.OperatorEvaluationError) as caught:
        core.to_bands(op)
    assert str(caught.value) == "diagonal evaluated to (inf+0j) at index 2"


class _DiagonalFault(Exception):
    pass


def test_a_nan_read_before_a_raising_index_is_refused_first():
    def d(n):
        if n == 2:
            raise _DiagonalFault(n)
        return math.nan if n == 1 else 1.0

    s = core.make_state([1, 1, 1, 1])
    with pytest.raises(core.OperatorEvaluationError) as caught:
        core.apply(core.diag_op(d, 4), s)
    assert str(caught.value) == "diagonal evaluated to (nan+0j) at occupied index 1"


def test_a_raise_before_a_nan_propagates_the_diagonals_own_error():
    def d(n):
        if n == 1:
            raise _DiagonalFault(n)
        return math.nan if n == 2 else 1.0

    s = core.make_state([1, 1, 1, 1])
    with pytest.raises(_DiagonalFault):
        core.apply(core.diag_op(d, 4), s)
    with pytest.raises(_DiagonalFault):
        core.to_bands(core.diag_op(d, 4))


@pytest.mark.parametrize(
    "kind",
    [
        int,
        float,
        np.float64,
        complex,
        lambda x: complex(x, -x / 3),
        lambda x: 2**60 + 2**x,  # ints past 2**53 round as float(int) does
        lambda x: -0.0 * x,
    ],
)
def test_diagonal_values_convert_as_complex_does_per_read(kind):
    ns = list(range(0, 40, 3))
    values = core._diag_values(lambda n: kind(n - 7), ns, "index")
    wanted = np.array([complex(kind(n - 7)) for n in ns], dtype=np.complex128)
    assert values.dtype == np.complex128
    assert values.tobytes() == wanted.tobytes()


def test_dimension_mismatch_rejected():
    with pytest.raises(core.DimensionMismatchError):
        core.apply(core.annihilation(4), core.basis_state(0, 5))
    with pytest.raises(core.DimensionMismatchError):
        core.compose(core.annihilation(4), core.annihilation(5))


def test_parity_propagation():
    even = core.make_state([1, 0, 1, 0, 0, 0])
    a = core.annihilation(6)
    assert core.apply(a, even).parity == "odd"
    a2 = core.compose(a, a)
    assert core.apply(a2, even).parity == "even"


def test_overlap_and_fidelity():
    x = core.make_state(np.array([1, 1j, 0, 0]) / math.sqrt(2))
    y = core.basis_state(1, 4)
    assert core.overlap(x, y) == pytest.approx(-1j / math.sqrt(2))
    assert core.fidelity(x, y) == pytest.approx(0.5)
    with pytest.raises(core.DimensionMismatchError):
        core.overlap(x, core.basis_state(0, 5))


def _dense(bands, n):
    out = np.zeros((n, n), dtype=complex)
    for k, d in bands.items():
        rows = np.arange(len(d)) + max(0, -k)
        out[rows, rows + k] = d
    return out


def _banded_products(a, b):
    # entry (i, j) sums a[i, k] * b[k, j] over ascending k, onto zero, for
    # the k whose diagonals (k - i of a, j - k of b) hold a nonzero entry:
    # a zero on such a diagonal still multiplies (inf * 0 is NaN, as in
    # BLAS), a zero off every nonzero diagonal never does
    def offsets(m):
        rows, cols = np.nonzero(m)
        return set((cols - rows).tolist())

    p_set, q_set = offsets(a), offsets(b)
    n = len(a)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if k - i in p_set and j - k in q_set:
                    out[i, j] += a[i, k] * b[k, j]
    return out


def _draw(rng, n, density):
    values = rng.integers(-9, 10, (n, n)) + 1j * rng.integers(-9, 10, (n, n))
    return np.where(rng.random((n, n)) < density, values, 0).astype(complex)


@pytest.mark.parametrize("n", [1, 5, 17, 64])
@pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
def test_diagonal_matmul_equals_the_dense_product(n, density):
    rng = np.random.default_rng(n)
    a, b = _draw(rng, n, density), _draw(rng, n, density)
    bands = core.diagonal_matmul(nonzero_diagonals(a), nonzero_diagonals(b))
    # integer sums are exact in any order, so every value must match the
    # BLAS product bit for bit; only the sign of an exact zero may differ
    assert np.array_equal(_dense(bands, n).view(float), (a @ b).view(float))


@pytest.mark.parametrize("n", [1, 2, 9, 33])
def test_diagonal_matmul_equals_the_scalar_product_on_complex_bands(n):
    # several offsets per operand, so most entries sum several products;
    # each complex product rounds its parts as Python's does, not fused
    rng = np.random.default_rng(40 + n)

    def draw(offsets):
        return {
            k: rng.normal(size=n - abs(k)) + 1j * rng.normal(size=n - abs(k))
            for k in offsets
            if abs(k) < n
        }

    x, y = draw([-4, -1, 0, 1, 3]), draw([-2, 0, 1, 2, 5])
    got = core.diagonal_matmul(x, y)
    want = band_product_reference(x, y, n)
    assert list(got) == list(want)
    for k in want:
        assert got[k].tolist() == want[k].tolist()


def test_diagonal_matmul_carries_nan_and_inf():
    rng = np.random.default_rng(3)
    a, b = _draw(rng, 9, 0.3), _draw(rng, 9, 0.3)
    a[2, 7], a[5, 1], b[7, 4], b[0, 0] = np.nan, np.inf, -np.inf, complex(0, np.nan)
    with np.errstate(invalid="ignore"):  # inf * 0 on a band is NaN
        bands = core.diagonal_matmul(
            nonzero_diagonals(a), nonzero_diagonals(b)
        )
        want = _banded_products(a, b)
    assert np.isnan(want).any() and np.isinf(want).any()
    assert np.array_equal(_dense(bands, 9).view(float), want.view(float), equal_nan=True)


def test_nonzero_diagonals_reads_the_entries():
    a = core.to_matrix(core.creation(6))
    a[0, 4] = 1e-300  # a stray entry off the operator's band
    bands = nonzero_diagonals(a)
    assert list(bands) == [-1, 4]
    assert bands[4].tolist() == [1e-300, 0]
    assert bands[-1].tolist() == np.sqrt(np.arange(1, 6)).tolist()
    assert nonzero_diagonals(np.zeros((3, 3))) == {}
    # NaN is nonzero, as in np.nonzero
    assert list(nonzero_diagonals(np.diag([np.nan, 0.0], 1))) == [1]
    with pytest.raises(core.DimensionMismatchError):
        core.diagonal_matmul(nonzero_diagonals(a), nonzero_diagonals(a[:5, :5]))


@pytest.mark.parametrize("exclude", [None, 0, 4, 8])
@pytest.mark.parametrize("poison", ["none", "nan", "inf", "nan-and-inf"])
def test_band_max_abs_equals_the_dense_max(exclude, poison):
    rng = np.random.default_rng(11)
    a, b = _draw(rng, 9, 0.2), _draw(rng, 9, 0.2)
    if "nan" in poison:
        a[3, 4] = np.nan
    if "inf" in poison:
        b[6, 4] = -np.inf
    with np.errstate(invalid="ignore"):  # 2 * (inf + 0j) has a NaN part
        dense = a - 2 * b
        if exclude is not None:
            dense[:, exclude] = 0.0
        want = np.abs(dense).max()
        got, bound, at = core.band_max_abs(
            lambda x, y: x - 2 * y,
            nonzero_diagonals(a),
            nonzero_diagonals(b),
            exclude_column=exclude,
        )
    assert got == want or (math.isnan(got) and math.isnan(want))
    assert bound is None and np.array_equal(abs(dense[at]), got, equal_nan=True)
    # the poisoned entries sit in column 4, so excluding it hides them
    if poison != "none":
        assert math.isfinite(got) == (exclude == 4)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_band_max_abs_reads_every_entry(n):
    # one entry anywhere, on the lowest or highest offset too, is the peak,
    # unless its column is the excluded one
    zero = nonzero_diagonals(np.zeros((n, n)))
    for r in range(n):
        for c in range(n):
            a = np.zeros((n, n), dtype=complex)
            a[r, c] = -5.0
            bands = nonzero_diagonals(a)
            got = core.band_max_abs(lambda x, y: x - 2 * y, bands, zero)
            assert got == (5.0, None, (r, c))
            for col in range(n):
                got, _, _ = core.band_max_abs(
                    lambda x, y: x - 2 * y, bands, zero, exclude_column=col
                )
                assert got == (0.0 if col == c else 5.0)


@pytest.mark.parametrize("exclude", [None, 0, 4, 8])
@pytest.mark.parametrize("poison", ["none", "nan", "inf", "nan-and-inf"])
@pytest.mark.parametrize("bounded", ["all", "products"])
def test_band_max_abs_peaks_where_residual_over_bound_peaks(exclude, poison, bounded):
    # integer operands, so every product, sum and modulus is exact in any
    # order and the dense reference meets the same floats; with the
    # products alone bounded, an entry of y off them is over a zero bound
    rng = np.random.default_rng(5)
    a, x, y = (_draw(rng, 9, 0.3).real.astype(complex) for _ in range(3))
    if "nan" in poison:
        y[3, 4] = np.nan
    if "inf" in poison:
        y[6, 4] = -np.inf
    A, X, Y = (nonzero_diagonals(m) for m in (a, x, y))
    magnitude = {
        "all": lambda p, q, z: 0.5 * (p + q + z),
        "products": lambda p, q, z: 0.5 * (p + q),
    }[bounded]
    with np.errstate(invalid="ignore"):
        got = core.band_max_abs(
            lambda p, q, z: p - q + z, core.band_product(A, X), core.band_product(X, A), Y,
            magnitude=magnitude, exclude_column=exclude,
        )
        residual = np.abs(a @ x - x @ a + y)
        bound = magnitude(np.abs(a) @ np.abs(x), np.abs(x) @ np.abs(a), np.abs(y))
    if exclude is not None:
        residual[:, exclude] = bound[:, exclude] = 0.0
    want = ratio_peak(residual, bound)
    assert np.array_equal(got[:2], want[:2], equal_nan=True) and got[2] == want[2]
    # a poisoned entry is the peak, unless its column is excluded
    assert math.isfinite(got[0]) == (poison == "none" or exclude == 4)


# --- band arithmetic against the per-index scalar reference ---


def test_band_arithmetic_matches_the_scalar_reference_bit_for_bit():
    # complex amplitudes times complex diagonals: a fused (FMA) complex
    # product rounds about 4 in 10 of these differently
    rng = np.random.default_rng(2024)
    dim = 96
    op = random_operator(rng, dim)  # its +1 and +2 terms leak at the top
    s = core.make_state(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    image = core.apply(op, s)
    want, leak = band_image_reference(op, s.amplitudes)
    assert np.array_equal(image.amplitudes, want)
    assert image.leak == leak > 0
    assert np.array_equal(core.to_matrix(op), matrix_reference(op))
    # F reads one term that does not raise: each lowering is d(N) a^m
    for single in [core.operator([term], dim) for term in op.terms if term[0] <= 0]:
        F = _OperationalF(single)
        assert [F(n) for n in range(-1, dim + 1)] == [
            structure_fn_reference(single, n) for n in range(-1, dim + 1)
        ]


def _same_bands(got, want):
    # the same offsets, in order, and == on every part, the sign of a zero
    # and NaN included
    def parts(d):
        return np.concatenate([d.real, d.imag])

    return list(got) == list(want) and all(
        np.array_equal(parts(got[k]), parts(want[k]), equal_nan=True)
        and np.array_equal(np.signbit(parts(got[k])), np.signbit(parts(want[k])))
        for k in got
    )


def _overflow(n):
    return 1e308 if n == 3 else 1.0


def _negative_overflow(n):
    return -1e308 if n == 3 else 1.0


@pytest.mark.parametrize(
    "terms,offsets",
    [
        # a zero diagonal, and one whose only nonzero entry leaves the truncation
        (
            ((0, lambda n: 0.0), (2, lambda n: 1.0 if n == 6 else 0.0), (-1, lambda n: n)),
            [1],
        ),
        # -0.0 parts: a diagonal of them is absent, and each reads as +0.0
        (((0, lambda n: complex(-0.0, -0.0)), (1, lambda n: -0.0 if n % 2 else 1j)), [-1]),
        # past the float range: inf, and inf - inf = NaN from two terms on
        # one offset, each counting as nonzero
        (((-2, _overflow), (1, _overflow), (1, _negative_overflow)), [-1, 2]),
    ],
    ids=["zero-diagonals", "negative-zero", "inf-and-nan"],
)
def test_to_bands_equals_the_reference_reader(terms, offsets):
    op = core.OperatorExpr(terms=terms, domain_dim=8)
    with np.errstate(invalid="ignore"):  # inf - inf
        dense, want = core.to_matrix(op), matrix_reference(op)
        got = core.to_bands(op)
    assert list(got) == offsets
    assert _same_bands(got, nonzero_diagonals(want))
    assert np.array_equal(dense, want, equal_nan=True)
    if len(offsets) == 2:
        assert np.isnan(got[-1][3]) and np.isinf(got[2][1])


def test_to_bands_equals_the_reference_reader_on_random_operators():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 17, 96):
        op = random_operator(rng, dim, shifts=(-4, -2, -1, 0, 1, 3, 9))
        assert _same_bands(core.to_bands(op), nonzero_diagonals(matrix_reference(op)))


def test_to_bands_refuses_a_nan_diagonal_value():
    op = core.operator([(1, lambda n: math.nan if n == 2 else 1.0)], 6)
    with pytest.raises(core.OperatorEvaluationError, match="at index 2"):
        core.to_bands(op)


@pytest.mark.parametrize("k", [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5])
def test_ladder_factor_arrays_are_exact(k):
    # both sides of the 2**53 switch to integer products
    for ns in (np.arange(64), np.arange(6000, 6100), np.arange(90000, 90050)):
        want = [core.ladder_factor(n, k) for n in ns.tolist()]
        assert core._ladder_factors(ns, k).tolist() == want


def test_ladder_factor_arrays_past_the_float_range_raise():
    with pytest.raises(OverflowError):
        core._ladder_factors(np.arange(4), 300)


def test_structure_fn_table_stops_where_a_product_overflows():
    # d(n) * sqrt(n) overflows at n = 2 only: F reads inf there, without a
    # warning, and the indices around it keep their values
    op = core.operator([(-1, lambda n: 1.5e308 if n == 2 else 1.0)], 4)
    F = _OperationalF(op)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (F(1), F(2), F(3)) == (1.0, math.inf, pytest.approx(3.0, rel=1e-15))


def test_structure_fn_table_matches_the_scalar_route_past_the_float_range():
    # F equals the scalar route wherever that is finite, and reads inf where
    # a square leaves the float range (np.vdot gives inf or nan there);
    # squares that underflow stay exact
    values = [1e200, 1e200 + 1e200j, -1e155j, 1e300 + 1e300j, 5e-170, 1e-160 + 3e-155j]
    op = core.operator([(-1, lambda n: values[n - 1])], len(values) + 1)
    F = _OperationalF(op)
    got = [F(n) for n in range(len(values) + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = [structure_fn_reference(op, n) for n in range(len(values) + 1)]
    assert got == [w if math.isfinite(w) else math.inf for w in want]
    assert got[1:5] == [math.inf] * 4
    assert got[5] == 0.0 < got[6] < 1e-307


def test_to_bands_skips_a_shift_past_the_truncation_before_its_factors():
    # a +400 shift leaves the 16 levels from every index: no entry, and no
    # ladder factor, whose product lies past the float range
    op = core.operator([(400, core._one), (0, lambda n: complex(n))], 16)
    bands = core.to_bands(op)
    assert list(bands) == [0] and bands[0].tolist() == [complex(n) for n in range(16)]
    assert np.array_equal(core.to_matrix(op), matrix_reference(op))
    with pytest.raises(OverflowError):
        core.apply(op, core.basis_state(3, 16))


# --- which fault wins: the first in ascending index order, on every route ---


def _raised(route):
    try:
        route()
    except Exception as caught:  # noqa: BLE001  (the fault under test)
        return type(caught).__name__, str(caught)
    raise AssertionError("no fault raised")


def _routes(op):
    """What apply on a state with every level occupied, to_bands and the F
    table raise, in that order."""
    dim = op.domain_dim
    return [
        _raised(lambda: core.apply(op, core.make_state(np.ones(dim)))),
        _raised(lambda: core.to_bands(op)),
        _raised(lambda: _OperationalF(op).table),
    ]


def _two_faulting_leaves(zero_at, inf_at):
    # two lowering forms on one shift: the first divides by a zero
    # coefficient (a complex sequence), the second reads an inf from a
    # coefficient callable of floats; dim 10, M 9
    dim, M = 10, 9
    a = [1.0 - 0.1j * n for n in range(dim + 1)]
    a[zero_at] = 0.0
    b = [0.5 + 0.2 * n for n in range(dim + 1)]
    b[inf_at] = math.inf
    return core.add(
        fl.ladder_lowering_finite(a, M, dim), fl.ladder_lowering_finite(lambda n: b[n], M, dim)
    )


def test_an_inf_below_a_zero_divisor_is_the_fault_named():
    # the inf at coefficient 2 reaches level 3; C(6) = 0 divides at level 6
    message = "diagonal evaluated to (inf+0.37077540223187j) at {}index 3"
    assert _routes(_two_faulting_leaves(zero_at=6, inf_at=2)) == [
        ("OperatorEvaluationError", message.format("occupied ")),
        ("OperatorEvaluationError", message.format("")),
        ("OperatorEvaluationError", message.format("occupied ")),
    ]


def test_a_zero_divisor_below_an_inf_is_the_fault_named():
    assert _routes(_two_faulting_leaves(zero_at=3, inf_at=7)) == [
        ("ZeroCoefficientError", "coefficient C(3) = 0")
    ] * 3


def test_a_real_leaf_names_its_inf_as_a_real_value():
    # one lowering form over a callable of floats: its inf stays real
    b = [0.5 + 0.2 * n for n in range(11)]
    b[2], b[6] = math.inf, 0.0
    message = "diagonal evaluated to (inf+0j) at {}index 3"
    assert _routes(fl.ladder_lowering_finite(lambda n: b[n], 9, 10)) == [
        ("OperatorEvaluationError", message.format("occupied ")),
        ("OperatorEvaluationError", message.format("")),
        ("OperatorEvaluationError", message.format("occupied ")),
    ]


@pytest.mark.parametrize(
    "fault_at,raised",
    [
        (2, ("_DiagonalFault", "2")),
        (5, ("ZeroCoefficientError", "coefficient C(3) = 0")),
    ],
)
def test_a_package_diagonal_a_sequence_and_a_user_callable_fault_in_order(fault_at, raised):
    # the general raising form over a sequence with C(3) = 0, which divides
    # at level 4, plus a user diagonal on the same shift that raises at
    # fault_at; its adjoint lowers, so the F table reads it too
    dim = 10
    seq = [0.9 + 0.3j * n for n in range(dim + 1)]
    seq[3] = 0.0

    def user(n):
        if n == fault_at:
            raise _DiagonalFault(n)
        return 0.25 * n

    up = core.add(fl.ladder_general(seq, dim)[0], core.operator([(1, user)], dim))
    assert [k for k, _ in up.terms] == [0, 1]
    assert _routes(core.adjoint(core.operator([up.terms[1]], dim))) == [raised] * 3


def test_an_exported_route_that_faults_twice_raises_the_lower_index_first():
    # C = 2.0 but for two faults; the array form meets the later one first,
    # since its term runs over every index before the other's
    def late(n):
        if n == 7:
            raise OverflowError("at 7")
        return 1.0

    def early(n):
        if n == 4:
            raise ZeroDivisionError("at 4")
        return 1.0

    each = closedform._each
    c = Coeffs(0, math.inf, lambda ns: each(late, ns) + each(early, ns))
    assert _routes(fl.general_gdo(c, 10).lowering) == [("ZeroDivisionError", "at 4")] * 3


# --- an exported closed form, read by array, gives its per-index bits ---


def _exported_routes(basis):
    """Each exported route with its sector j (None on the full space), at
    a basis of the given size."""
    return [
        (fl.coherent_coeffs(1 + 0.5j), None),
        (fl.kerr_coeffs(1.5, 0.3), None),
        (fl.geometric_coeffs(0.4), None),
        (fl.svs_sector_coeffs(0.8, 0.5, 2 * basis), 0),
        (fl.sfes_sector_coeffs(0.8, 0.5, 2 * basis + 1), 1),
        (fl.ecs_sector_coeffs(1.1), 0),
        (fl.ocs_sector_coeffs(1.1), 1),
    ]


# each public builder that takes coefficients, as (c, j, dim) -> its output
COEFF_BUILDERS = {
    "ladder_lowering_finite": lambda c, j, dim: fl.ladder_lowering_finite(c, 8, dim),
    "ladder_raising_shifted": lambda c, j, dim: fl.ladder_raising_shifted(c, 3, dim),
    "ladder_general": lambda c, j, dim: fl.ladder_general(c, dim),
    "finite_gdo": lambda c, j, dim: fl.finite_gdo(c, 8, dim),
    "shifted_gdo": lambda c, j, dim: fl.shifted_gdo(c, 3, dim),
    "general_gdo": lambda c, j, dim: fl.general_gdo(c, dim),
    "added_raising_ladder": lambda c, j, dim: fl.added_raising_ladder(c, 3, dim),
    "added_lowered_pair": lambda c, j, dim: fl.added_lowered_pair(c, 3, dim),
    "shifted_lowered_pair": lambda c, j, dim: fl.shifted_lowered_pair(c, 3, dim),
    "two_photon_ladder": lambda c, j, dim: fl.two_photon_ladder(c, j, dim),
    "two_photon_gdo": lambda c, j, dim: fl.two_photon_gdo(c, j, dim),
}


def _builder_inputs(builder, dim):
    """The routes the builder takes at dim: the sector routes for a
    two-photon builder, on the sector basis, the full-space ones else."""
    sector = builder.startswith("two_photon")
    return [(c, j) for c, j in _exported_routes(dim) if (j is not None) == sector]


def _reads(built, dim):
    """Every read of a builder's output as bytes: a triple's F table, then
    each operator's to_bands and its image of a state on every level."""
    if isinstance(built, fl.GdoTriple):
        ops = (built.number_op, built.lowering, built.raising)
        out = [built.structure_table.tobytes()]
    else:
        ops, out = (built if isinstance(built, tuple) else (built,)), []
    state = core.make_state(np.exp(0.3j * np.arange(dim)))
    for op in ops:
        image = core.apply(op, state)
        out.append({k: band.tobytes() for k, band in core.to_bands(op).items()})
        out += [image.amplitudes.tobytes(), image.leak]
    return out


@pytest.mark.parametrize("dim", [16, 1024])
@pytest.mark.parametrize("builder", sorted(COEFF_BUILDERS))
def test_a_builder_reads_an_exported_route_as_its_per_index_wrapper(builder, dim):
    build = COEFF_BUILDERS[builder]
    for c, j in _builder_inputs(builder, dim):
        wrapped = _reads(build(lambda n, c=c: c(n), j, dim), dim)
        assert _reads(build(c, j, dim), dim) == wrapped, c


@pytest.mark.parametrize("builder", sorted(COEFF_BUILDERS))
def test_a_builder_reads_an_exported_route_only_through_values(monkeypatch, builder):
    # one values call per array read: as many at dim 1024 as at dim 16,
    # and no read one index at a time
    calls = dict.fromkeys(("values", "__call__"), 0)
    for name in calls:

        def spy(self, arg, name=name, method=getattr(Coeffs, name)):
            calls[name] += 1
            return method(self, arg)

        monkeypatch.setattr(Coeffs, name, spy)
    counts = []
    for dim in (16, 1024):
        calls.update(values=0, __call__=0)
        for c, j in _builder_inputs(builder, dim):
            _reads(COEFF_BUILDERS[builder](c, j, dim), dim)
        counts.append(dict(calls))
    assert counts[0] == counts[1] and counts[0]["__call__"] == 0 < counts[0]["values"], counts
