"""Ladder operators and deformed-oscillator generators built from state
coefficients, plus the verification primitives for eigenvalue relations,
two-sided operator identities, and algebra axioms.

Convention used throughout: a diagonal factor written to the left of a
shift, "D(N) a" or "D(N) a+", acts after the shift, so D is evaluated at
the target index.  _lowering_form and _raising_form realize exactly that,
compose(diag_op(D, dim), annihilation(dim)) and its creation twin, and
every builder here goes through them.

Structure functions are defined operationally: F(n) is the squared norm
of lowering|n>, never a closed formula.  Closed forms are comparison
targets for the verify layer, not inputs.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from .core import (
    Bands,
    DiagFn,
    DimensionMismatchError,
    FockState,
    OperatorExpr,
    _array_diag,
    _band_image,
    _div,
    _mul,
    _read,
    add,
    annihilation,
    adjoint,
    apply,
    band_max_abs,
    band_product,
    compose,
    creation,
    diag_op,
    gamma,
    number_op,
    sub,
    to_bands,
)
from .reporting import DEFAULT_TOLERANCES, CheckResult, Tolerances, VerificationReport
from .states import ParameterError, _check_angle, _check_dim

CoeffFn = Callable[[int], complex]
# Bands as a cache holds them, read-only: every caller shares them
FrozenBands = Mapping[int, np.ndarray]


def _read_only(bands: Bands) -> FrozenBands:
    for d in bands.values():
        d.flags.writeable = False
    return MappingProxyType(bands)


class ZeroCoefficientError(ValueError):
    """A coefficient that a ladder diagonal must divide by is zero."""


def _coeff_getter(coeffs: Sequence[complex] | CoeffFn) -> CoeffFn:
    """The coefficient accessor.  A callable is read as given (see
    core._ArrayDiag) and only at n >= 0, where every builder's index rule
    and _guarded_ratio keep it; a sequence becomes a complex table read as
    a diagonal, 0.0 outside its range, since the builders also read C(dim)."""
    if callable(coeffs):
        return coeffs
    values = np.array(coeffs, dtype=np.complex128)  # converts as complex() does
    return _array_diag(lambda ns: values[ns], lo=0, hi=len(values))


def _guarded_ratio(num: np.ndarray, c: CoeffFn, den_at: np.ndarray) -> np.ndarray:
    """num / C(den_at) entry by entry with the numerator-first rule: 0.0
    where num vanishes, and C read only at the other entries; a zero there
    raises ZeroCoefficientError naming the first such index."""
    if not num.all():
        live = num.nonzero()[0]
        ratio = _guarded_ratio(num[live], c, den_at[live])
        out = np.zeros(len(num), dtype=ratio.dtype)
        out[live] = ratio
        return out
    den = _read(c, den_at)
    if not den.all():
        raise ZeroCoefficientError(f"coefficient C({den_at[(den == 0).argmax()]}) = 0")
    return _div(num, den)


def _adjacent_ratio(c: CoeffFn, t: np.ndarray, s: int, factor=None) -> np.ndarray:
    """factor C(t) / C(t + s), s = 1 or -1, at the ascending indices t,
    numerator first."""
    ct = _read(c, t)
    return _guarded_ratio(ct if factor is None else _mul(factor, ct), c, t + s)


def _coeffs_and_dim(
    coeffs: Sequence[complex] | CoeffFn, dim: int | None
) -> tuple[CoeffFn, int]:
    """The coefficient accessor and the truncation, which defaults to the
    length of a coefficient sequence; a truncation below 1 is refused."""
    if dim is None:
        if callable(coeffs):
            raise ParameterError("dim is required when coeffs is a callable")
        dim = len(coeffs)
    return _coeff_getter(coeffs), _check_dim(dim)


def _lowering_form(d: DiagFn, dim: int) -> OperatorExpr:
    """d(N) a: the diagonal acts after the shift, at the target index."""
    return compose(diag_op(d, dim), annihilation(dim))


def _raising_form(d: DiagFn, dim: int) -> OperatorExpr:
    """d(N) a+: the diagonal acts after the shift, at the target index."""
    return compose(diag_op(d, dim), creation(dim))


def _ratio_raising_diag(c: CoeffFn) -> DiagFn:
    """[C(N)/C(N-1)] sqrt(N), zero at N = 0: the diagonal of the raising
    operator that C generates."""
    return _array_diag(lambda t: _mul(_adjacent_ratio(c, t, -1), np.sqrt(t)), lo=1)


def ladder_lowering_finite(
    coeffs: Sequence[complex] | CoeffFn, M: int, dim: int | None = None
) -> OperatorExpr:
    """Lowering generator of a finite state with coefficients C(0..M):
    the diagonal (M-N)C(N)/(sqrt(N+1) C(N+1)) acting after a, so that
    (number_op + this)|state> = M|state>."""
    c, dim = _coeffs_and_dim(coeffs, dim)

    def d(t: np.ndarray) -> np.ndarray:
        return _div(_adjacent_ratio(c, t, 1, M - t), np.sqrt(t + 1))

    return _lowering_form(_array_diag(d, hi=M), dim)


def ladder_raising_shifted(
    coeffs: Sequence[complex] | CoeffFn, M: int, dim: int | None = None
) -> OperatorExpr:
    """Raising generator of a state supported on n >= M with coefficients
    D(n): the diagonal (N-M)D(N)/(sqrt(N) D(N-1)) acting after a+, so that
    (number_op - this)|state> = M|state>."""
    c, dim = _coeffs_and_dim(coeffs, dim)

    def d(t: np.ndarray) -> np.ndarray:
        return _div(_adjacent_ratio(c, t, -1, t - M), np.sqrt(t))

    return _raising_form(_array_diag(d, lo=M + 1), dim)


def ladder_general(
    coeffs: Sequence[complex] | CoeffFn, dim: int | None = None
) -> tuple[OperatorExpr, OperatorExpr]:
    """Both general-state ladder forms for coefficients C(n), n >= 0.

    Returns (raising_form, lowering_form): the first is
    N - [C(N)/C(N-1)] sqrt(N) a+, the second the difference
    a - [C(N+1)/C(N)] sqrt(N+1); each annihilates the exact state
    (eigenvalue 0).
    """
    c, dim = _coeffs_and_dim(coeffs, dim)
    ratio = _ratio_raising_diag(c)
    raising_form = sub(number_op(dim), _raising_form(ratio, dim))
    ratio_above = _array_diag(lambda n: _read(ratio, n + 1))
    lowering_form = sub(annihilation(dim), diag_op(ratio_above, dim))
    return raising_form, lowering_form


# --- deformed-oscillator triples ---


@dataclass(frozen=True)
class GdoTriple:
    """Number operator with a lowering/raising pair and the structure
    function F(n) = ||lowering|n>||^2; n_min marks the bottom of the
    representation, where F must vanish.  structure_fn reads F one index
    at a time and structure_table holds F on [0, dim) as one float array;
    both read the one pass of f_pass, which a triple with its structure_fn
    replaced keeps.  bands holds the operators' to_bands, read once, and
    axiom_rows the GDO battery's residuals and bounds on them, computed
    once; a triple made by dataclasses.replace computes its own.  The rows
    are operator data: gdo_axiom_checks, like a family suite, judges them
    at each call."""

    number_op: OperatorExpr
    lowering: OperatorExpr
    raising: OperatorExpr
    structure_fn: Callable[[int], float]
    n_min: int = 0
    f_pass: _OperationalF = field(kw_only=True, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.lowering.domain_dim

    @property
    def structure_table(self) -> np.ndarray:
        return self.f_pass.table

    @cached_property
    def bands(self) -> tuple[FrozenBands, ...]:
        """N, lowering and raising read by to_bands, once per triple,
        read-only."""
        ops = (self.number_op, self.lowering, self.raising)
        return tuple(_read_only(to_bands(op)) for op in ops)

    @cached_property
    def axiom_rows(self) -> tuple[_Row, ...]:
        """The GDO battery's rows (_Row), tagged E1, via two independent
        routes: the structure function comes from term-wise application,
        while every operator product is summed from the operators' bands,
        as in the su(1,1) battery (core.to_bands, diagonal_matmul,
        band_max_abs).  Each product row is judged at its rounding bound at
        its peak entry (_bound_row); the two rows on F alone are judged at
        the oracle tolerance.  N is real; L and R are complex."""
        N, L, R = self.bands
        RL, LR = band_product(R, L), band_product(L, R)
        k = min(len(R), len(L))  # the most terms an entry of RL or LR sums
        eye = {0: np.ones(self.dim)}
        F = np.append(self.structure_table, 0.0)  # F(dim) = 0 past the truncation

        def off_diagonal(name: str, P: tuple[Bands, Bands], what: str) -> _Row:
            # P less its main diagonal (an inf there stays NaN), whose exact
            # entries are 0: each part of a product of complex factors
            # rounds twice, then once for each further term, and the modulus
            # is within sqrt(2) of the parts' bound (Higham, section 3.6)
            g = math.sqrt(2) * gamma(k + 1)
            return _bound_row(name, "E1", what, band_max_abs(
                lambda p, e: (1 - e) * p, P, eye, magnitude=lambda p, e: g * ((1 - e) * p),
            ))

        def diagonal(name: str, P: tuple[Bands, Bands], f: np.ndarray, what: str, **top) -> _Row:
            # Re diag(P) against f, both from the same band values: the
            # product's real part rounds as above, F(n) = |L|n>|^2 twice, and
            # their difference once more
            g = gamma(k + 2)
            return _bound_row(name, "E1", what, band_max_abs(
                lambda p, e, f: e * p.real - f, P, eye, {0: f},
                magnitude=lambda p, e, f: g * (e * p + f), **top,
            ))

        return (
            _commutator_row("gdo-commutator-lowering", "E1", N, L, 1.0,
                            "[number, lowering] + lowering, band route"),
            _commutator_row("gdo-commutator-raising", "E1", N, R, -1.0,
                            "[number, raising] - raising, band route"),
            off_diagonal("gdo-product-diagonal-rl", RL, "raising@lowering off-diagonal mass"),
            off_diagonal("gdo-product-diagonal-lr", LR, "lowering@raising off-diagonal mass"),
            diagonal("gdo-structure-fn", RL, F[:-1],
                     "diag(raising@lowering) vs applied ||lowering|n>||^2, all n"),
            diagonal("gdo-shift-consistency", LR, F[1:],
                     "diag(lowering@raising)[n] vs F(n+1); top index excluded "
                     "(raising leaks at the truncation edge)",
                     exclude_column=self.dim - 1),
            ("gdo-fock-condition", "E1", abs(F[self.n_min]), 0.0, "oracle",
             f"F(n_min) with n_min={self.n_min}"),
            ("gdo-nonnegativity", "E1", max(0.0, float(-F.min())), 0.0, "oracle",
             "structure function is a squared norm"),
        )


# A check row, kept free of any tolerance: (name, equation, residual, leak,
# judge, detail).  judge is what _judge holds the residual to: "residual"
# or "oracle", read from the call's Tolerances, or a fixed number, such as
# a product row's rounding bound; the leak is held to the call's leak
# tolerance.
_Row = tuple[str, str, float, float, str | float, str]


def _bound_row(name: str, equation: str, what: str, peak: tuple) -> _Row:
    """A product row from band_max_abs's peak: the residual, judged at its
    bound there, and the entry named in the detail."""
    residual, bound, (row, column) = peak
    detail = f"{what}; residual/bound peaks at ({row}, {column})"
    return name, equation, residual, 0.0, bound, detail


def _commutator_row(
    name: str, equation: str, a: Bands, x: Bands, sign: float, what: str
) -> _Row:
    """[A, X] + sign X for a real A held exactly (N, K0): each part of a
    product entry of k terms rounds k times, and the combine twice more,
    so the bound is gamma_{k+2} (|A||X| + |X||A| + |X|).  The row is linear
    in X's band values, so their own rounding does not enter."""
    g = gamma(min(len(a), len(x)) + 2)
    return _bound_row(name, equation, what, band_max_abs(
        lambda p, q, y: p - q + sign * y, band_product(a, x), band_product(x, a), x,
        magnitude=lambda p, q, y: g * (p + q + y),
    ))


def _judge(row: _Row, tolerances: Tolerances) -> CheckResult:
    """A kept row judged at the call's tolerances: its residual at the
    tolerance its judge names, or at its fixed number, and its leak at the
    leak tolerance."""
    name, equation, residual, leak, judge, detail = row
    tolerance = getattr(tolerances, judge) if isinstance(judge, str) else judge
    # bool() and float() keep numpy scalars out of the record
    passed = bool(residual <= tolerance and leak <= tolerances.leak)
    return CheckResult(
        name, equation, float(residual), float(tolerance), float(leak), passed, detail
    )


class _OperationalF:
    """F(n) = ||lowering|n>||^2 straight from lowering's band terms; 0
    outside [0, dim).  A triple's lowering is one term d(N) a^m, which maps
    |n> to a single entry at n - m, so the first read takes the whole table
    from one pass of apply's kernel; a square past the float range is inf."""

    def __init__(self, lowering: OperatorExpr) -> None:
        self.lowering = lowering

    @cached_property
    def table(self) -> np.ndarray:
        """F on [0, dim), read-only."""
        dim = self.lowering.domain_dim
        ((k, _),) = self.lowering.terms
        with np.errstate(over="ignore"):
            image, _ = _band_image(self.lowering, np.arange(dim), np.ones(dim, complex))
            squares = image.real**2 + image.imag**2
        table = np.concatenate((np.zeros(-k), squares))[:dim]
        table.flags.writeable = False
        return table

    def __call__(self, n: int) -> float:
        return float(self.table[n]) if 0 <= n < self.lowering.domain_dim else 0.0


def _triple(
    number: OperatorExpr,
    lowering: OperatorExpr,
    n_min: int,
    raising: OperatorExpr | None = None,
) -> GdoTriple:
    F = _OperationalF(lowering)
    return GdoTriple(
        number_op=number,
        lowering=lowering,
        raising=adjoint(lowering) if raising is None else raising,
        structure_fn=F,
        n_min=n_min,
        f_pass=F,
    )


def _raised_triple(
    number: OperatorExpr, raising: OperatorExpr, n_min: int
) -> GdoTriple:
    """The triple of a raising operator built first; lowering is its adjoint."""
    return _triple(number, adjoint(raising), n_min, raising)


def finite_gdo(
    coeffs: Sequence[complex] | CoeffFn, M: int, dim: int | None = None
) -> GdoTriple:
    lowering = ladder_lowering_finite(coeffs, M, dim)
    return _triple(number_op(lowering.domain_dim), lowering, n_min=0)


def shifted_gdo(
    coeffs: Sequence[complex] | CoeffFn, M: int, dim: int | None = None
) -> GdoTriple:
    raising = ladder_raising_shifted(coeffs, M, dim)
    return _raised_triple(number_op(raising.domain_dim), raising, n_min=M)


def general_gdo(
    coeffs: Sequence[complex] | CoeffFn, dim: int | None = None
) -> GdoTriple:
    c, dim = _coeffs_and_dim(coeffs, dim)
    raising = _raising_form(_ratio_raising_diag(c), dim)
    return _raised_triple(number_op(dim), raising, n_min=0)


def harmonic_gdo(dim: int) -> GdoTriple:
    """The undeformed oscillator (N, a, a+) with F(n) = n; the reference
    point every axiom check should accept."""
    dim = _check_dim(dim)
    return _triple(number_op(dim), annihilation(dim), n_min=0)


def structure_function(t: GdoTriple, n_range: Sequence[int]) -> np.ndarray:
    """F(n) for each integer n in n_range, read from t.structure_table; 0
    outside [0, dim)."""
    ns = np.fromiter(map(operator.index, n_range), dtype=int)
    inside = (ns >= 0) & (ns < t.dim)
    values = np.zeros(len(ns))
    values[inside] = t.structure_table[ns[inside]]
    return values


# --- step maps between neighboring family members ---


def _step_dim(c_from: Sequence[complex], c_to: Sequence[complex]) -> int:
    """A step map's truncation, the one length of both members' tables."""
    if len(c_from) != len(c_to):
        raise DimensionMismatchError(f"coefficient lengths {len(c_from)} and {len(c_to)} differ")
    return len(c_from)


def _step_f(
    coeffs_from: Sequence[complex], coeffs_to: Sequence[complex], k: int
) -> OperatorExpr:
    """f(N) a (k = -1) or f(N) a+ (k = +1) between neighboring members,
    f(N) = C_to(N) / (C_from(N-k) r(N)) with r the ladder factor on
    |N-k>: sqrt(N+1) going down, sqrt(N) going up."""
    c0 = _coeff_getter(coeffs_from)
    c1 = _coeff_getter(coeffs_to)

    def d(t: np.ndarray) -> np.ndarray:
        return _div(_guarded_ratio(_read(c1, t), c0, t - k), np.sqrt(t + max(0, -k)))

    form = _lowering_form if k < 0 else _raising_form
    return form(_array_diag(d, lo=k), _step_dim(coeffs_from, coeffs_to))


def _step_g(
    coeffs_from: Sequence[complex], coeffs_to: Sequence[complex], M: int, k: int
) -> OperatorExpr:
    """The diagonal C_to(N)/C_from(N), restricted to the side of M that
    the step by k reaches, n <= M-1 or n >= M+1, where the 1/sqrt(|N-M|)
    inside g exists."""
    c0 = _coeff_getter(coeffs_from)
    c1 = _coeff_getter(coeffs_to)
    d = _array_diag(
        lambda n: _guarded_ratio(_read(c1, n), c0, n),
        lo=M + 1 if k > 0 else None,
        hi=M if k < 0 else None,
    )
    return diag_op(d, _step_dim(coeffs_from, coeffs_to))


def step_down_f(
    coeffs_M: Sequence[complex], coeffs_Mm1: Sequence[complex]
) -> OperatorExpr:
    """f(N) a mapping the M-member to the (M-1)-member, with
    f(N) = C(N, M-1)/(sqrt(N+1) C(N+1, M))."""
    return _step_f(coeffs_M, coeffs_Mm1, -1)


def step_down_g(
    coeffs_M: Sequence[complex], coeffs_Mm1: Sequence[complex], M: int
) -> OperatorExpr:
    """The diagonal route g(N) sqrt(M-N) to the (M-1)-member; combined it
    is C(N, M-1)/C(N, M), but only on n <= M-1; the 1/sqrt(M-N) inside g
    does not exist at n = M, so the diagonal is restricted there."""
    return _step_g(coeffs_M, coeffs_Mm1, M, -1)


def step_up_f(
    coeffs_M: Sequence[complex], coeffs_Mp1: Sequence[complex]
) -> OperatorExpr:
    """f(N) a+ mapping the shifted M-member to the (M+1)-member, with
    f(N) = D(N, M+1)/(sqrt(N) D(N-1, M))."""
    return _step_f(coeffs_M, coeffs_Mp1, +1)


def step_up_g(
    coeffs_M: Sequence[complex], coeffs_Mp1: Sequence[complex], M: int
) -> OperatorExpr:
    """The diagonal route g(N) sqrt(N-M) to the (M+1)-member: combined
    D(N, M+1)/D(N, M), restricted to n >= M+1 where 1/sqrt(N-M) exists."""
    return _step_g(coeffs_M, coeffs_Mp1, M, +1)


# --- named-family literal operator forms ---
# Each builder reproduces the identity exactly as the catalog prints it
# (up to the flagged corrections), with diagonals evaluated after the
# shift and forced to zero outside the family's natural index range.


def _finite_literal(
    g: Callable[[np.ndarray], np.ndarray], M: int, dim: int
) -> OperatorExpr:
    """N + g(N) a for a state supported on [0, M]: g, an array form, is
    forced to zero at t >= M, where the (t+1)-level it would come from is
    empty."""
    return add(number_op(dim), _lowering_form(_array_diag(g, hi=M), dim))


def _sqrt(x: np.ndarray) -> np.ndarray:
    """np.sqrt, which raises as math.sqrt does at the first negative x."""
    negative = (x < 0).nonzero()[0]
    if len(negative):
        math.sqrt(x[negative[0]])  # raises ValueError
    return np.sqrt(x)


def bs_ladder(eta: float, M: int, dim: int) -> OperatorExpr:
    """N + sqrt((1-eta)/eta) sqrt(M-N) a, eigenvalue M."""
    scale = math.sqrt((1.0 - eta) / eta)
    return _finite_literal(lambda t: scale * np.sqrt(M - t), M, dim)


def hgs_ladder(L: float, eta: float, M: int, dim: int) -> OperatorExpr:
    """N + sqrt((L(1-eta)-M+N+1)/(L eta-N)) sqrt(M-N) a, eigenvalue M."""
    etabar = 1.0 - eta

    def g(t: np.ndarray) -> np.ndarray:
        return _sqrt(_div(L * etabar - M + t + 1, L * eta - t)) * np.sqrt(M - t)

    return _finite_literal(g, M, dim)


def ps_ladder(
    eta: float, gamma: float, M: int, dim: int, variant: str = "derived"
) -> OperatorExpr:
    """N + sqrt(((1-eta)+(M-N-1)gamma)/(eta+N gamma)) sqrt(M-N) a.

    variant="printed" swaps the numerator offset to (M+N-1)gamma, the form
    the catalog prints; it fails the eigenvalue relation and exists so the
    errata can quote its residual.
    """
    if variant not in ("derived", "printed"):
        raise ValueError("variant must be 'derived' or 'printed'")
    sign = -1.0 if variant == "derived" else 1.0
    etabar = 1.0 - eta

    def g(t: np.ndarray) -> np.ndarray:
        ratio = _div(etabar + (M + sign * t - 1) * gamma, eta + t * gamma)
        return _sqrt(ratio) * np.sqrt(M - t)

    return _finite_literal(g, M, dim)


def rbs_ladder(theta: float, M: int, dim: int) -> OperatorExpr:
    """N + ((M-N)/(N+1)) e^{-i theta} sqrt(M-N) a, eigenvalue M."""
    theta = _check_angle(theta)
    phase = complex(math.cos(theta), -math.sin(theta))
    return _finite_literal(
        lambda t: _mul(_mul((M - t) / (t + 1), phase), np.sqrt(M - t)), M, dim
    )


def pbps_ladder(theta_m: float, M: int, dim: int) -> OperatorExpr:
    """N + ((M-N)/sqrt(N+1)) e^{-i theta_m} a, eigenvalue M."""
    theta_m = _check_angle(theta_m, "theta_m")
    phase = complex(math.cos(theta_m), -math.sin(theta_m))
    return _finite_literal(lambda t: _mul((M - t) / np.sqrt(t + 1), phase), M, dim)


def ggs_ladder(Y: complex, M: int, dim: int) -> OperatorExpr:
    """N + ((M-N)/(sqrt(Y) sqrt(N+1))) a, eigenvalue M."""
    root = cmath.sqrt(Y)
    return _finite_literal(lambda t: _div(M - t, _mul(root, np.sqrt(t + 1))), M, dim)


def added_raising_ladder(
    base_coeffs: Sequence[complex] | CoeffFn, M: int, dim: int
) -> OperatorExpr:
    """N - [C(N-M)/C(N-M-1)] sqrt(N-M) a+ for a state built by adding M
    quanta to a base with coefficients C; eigenvalue M."""
    ratio = _ratio_raising_diag(_coeff_getter(base_coeffs))
    shifted = _array_diag(lambda t: _read(ratio, t - M))
    return sub(number_op(dim), _raising_form(shifted, dim))


def _pair_left(M: int, dim: int) -> OperatorExpr:
    """(N+1-M) a, the left side of the lowered pairs."""
    return _lowering_form(_array_diag(lambda t: (t + 1 - M).astype(np.complex128)), dim)


def added_lowered_pair(
    base_coeffs: Sequence[complex] | CoeffFn, M: int, dim: int
) -> tuple[OperatorExpr, OperatorExpr]:
    """(N+1-M) a on the left against the diagonal
    [C(N+1-M)/C(N-M)] sqrt(N+1-M) (N+1) on the right."""
    ratio = _ratio_raising_diag(_coeff_getter(base_coeffs))
    right = _array_diag(lambda n: _mul(_read(ratio, n + 1 - M), n + 1))
    return _pair_left(M, dim), diag_op(right, dim)


def shifted_lowered_pair(
    coeffs: Sequence[complex] | CoeffFn, M: int, dim: int
) -> tuple[OperatorExpr, OperatorExpr]:
    """(N+1-M) a against the diagonal (N+1-M) sqrt(N+1) D(N+1)/D(N) for a
    state supported on n >= M with coefficients D."""
    c = _coeff_getter(coeffs)

    def d_right(n: np.ndarray) -> np.ndarray:
        return _mul(_adjacent_ratio(c, n + 1, -1, n + 1 - M), np.sqrt(n + 1))

    return _pair_left(M, dim), diag_op(_array_diag(d_right), dim)


def added_coherent_pair(
    alpha: complex, M: int, dim: int
) -> tuple[OperatorExpr, OperatorExpr]:
    """(N+1-M) a against alpha (N+1), the coherent-base specialization."""
    return _pair_left(M, dim), diag_op(_array_diag(lambda n: _mul(alpha, n + 1)), dim)


def added_coherent_lowering(alpha: complex, M: int, dim: int) -> OperatorExpr:
    """[1 - M/(N+1)] a, eigenvalue alpha on the M-quanta-added coherent
    state; a pure lowering form, so it never leaks at the truncation."""
    return _lowering_form(_array_diag(lambda t: 1.0 - M / (t + 1)), dim)


def nnbs_lowering(M: int, dim: int) -> OperatorExpr:
    """[sqrt(N+1-M)/(N+1)] a, eigenvalue sqrt(1-eta)."""
    return _lowering_form(_array_diag(lambda t: np.sqrt(t + 1 - M) / (t + 1), lo=M - 1), dim)


def gs_pair(eta: float, dim: int) -> tuple[OperatorExpr, OperatorExpr]:
    """a against sqrt(1-eta) sqrt(N+1)."""
    root = math.sqrt(1.0 - eta)
    return annihilation(dim), diag_op(_array_diag(lambda n: root * np.sqrt(n + 1)), dim)


def gs_lowering(dim: int) -> OperatorExpr:
    """[1/sqrt(N+1)] a, eigenvalue sqrt(1-eta): the geometric state is the
    M = 1 negative binomial with eta and 1-eta exchanged, so this is
    nbs_lowering(1, dim)."""
    return nbs_lowering(1, dim)


def nbs_lowering(M: int, dim: int) -> OperatorExpr:
    """[1/sqrt(M+N)] a, eigenvalue sqrt(eta)."""
    return _lowering_form(_array_diag(lambda t: _div(1.0, _sqrt(M + t))), dim)


def kerr_lowering(theta: float, dim: int, variant: str = "derived") -> OperatorExpr:
    """exp(2 i theta N) a, eigenvalue alpha.

    variant="printed" builds exp(-2 i N theta) a, the sign the catalog
    prints; it is inconsistent with the catalog's own amplitude phases and
    exists for the errata residual.  cmath.exp has no numpy twin that
    rounds alike, so it is read per index.
    """
    if variant not in ("derived", "printed"):
        raise ValueError("variant must be 'derived' or 'printed'")
    sign = 1.0 if variant == "derived" else -1.0
    theta = _check_angle(theta)

    def d(t: np.ndarray) -> np.ndarray:
        phases = [cmath.exp(2j * theta * n * sign) for n in t.tolist()]
        return np.array(phases, dtype=np.complex128)

    return _lowering_form(_array_diag(d), dim)


# --- verification primitives ---


def _residual_row(
    name: str, equation: str, diff: np.ndarray, leak: float, edge_exclude: int = 0
) -> _Row:
    """||diff||, judged at the residual tolerance, naming the index where
    the difference peaks; the top edge_exclude components of diff, a fresh
    array, are zeroed in place first."""
    if edge_exclude > 0:
        diff[len(diff) - edge_exclude :] = 0.0
    residual = float(np.linalg.norm(diff))
    magnitude = np.abs(diff)
    detail = f"max component {magnitude.max():.3e} at n={int(magnitude.argmax())}"
    if edge_exclude > 0:
        detail += f"; top {edge_exclude} component(s) excluded at the truncation edge"
    return name, equation, residual, leak, "residual", detail


def _eigen_row(
    name: str,
    equation: str,
    op: OperatorExpr,
    s: FockState,
    eigenvalue: complex,
    edge_exclude: int = 0,
) -> _Row:
    """The row of ||op|s> - eigenvalue|s>||."""
    image = apply(op, s)
    diff = image.amplitudes - complex(eigenvalue) * s.amplitudes
    return _residual_row(name, equation, diff, image.leak, edge_exclude)


def _images_row(name: str, equation: str, left: FockState, right: FockState) -> _Row:
    """The row of ||left - right|| for the images left = lhs|s> and
    right = rhs|s>, their leaks summed."""
    diff = left.amplitudes - right.amplitudes
    return _residual_row(name, equation, diff, left.leak + right.leak)


def _relation_row(
    name: str, equation: str, lhs: OperatorExpr, rhs: OperatorExpr, s: FockState
) -> _Row:
    """The row of ||lhs|s> - rhs|s>||."""
    return _images_row(name, equation, apply(lhs, s), apply(rhs, s))


def eigen_check(
    name: str,
    equation: str,
    op: OperatorExpr,
    s: FockState,
    eigenvalue: complex,
    tolerances: Tolerances,
    edge_exclude: int = 0,
) -> CheckResult:
    return _judge(_eigen_row(name, equation, op, s, eigenvalue, edge_exclude), tolerances)


def relation_check(
    name: str,
    equation: str,
    lhs: OperatorExpr,
    rhs: OperatorExpr,
    s: FockState,
    tolerances: Tolerances,
) -> CheckResult:
    return _judge(_relation_row(name, equation, lhs, rhs, s), tolerances)


def _rows_report(
    family: str, params: dict, dim: int, tolerances: Tolerances | None, rows
) -> VerificationReport:
    """A library entry point's report: rows judged at tolerances, the
    defaults where None."""
    tol = tolerances or DEFAULT_TOLERANCES
    return VerificationReport(family, params, dim, tol, tuple(_judge(row, tol) for row in rows))


def verify_eigen_relation(
    op: OperatorExpr,
    s: FockState,
    eigenvalue: complex,
    tolerances: Tolerances | None = None,
    *,
    name: str = "ladder-eigen",
    equation: str = "",
    edge_exclude: int = 0,
) -> VerificationReport:
    """Report on ||op|s> - eigenvalue|s>|| at the residual tolerance."""
    row = _eigen_row(name, equation, op, s, eigenvalue, edge_exclude)
    return _rows_report(s.label or "state", {}, s.dim, tolerances, (row,))


def verify_relation(
    lhs: OperatorExpr,
    rhs: OperatorExpr,
    s: FockState,
    tolerances: Tolerances | None = None,
    *,
    name: str = "operator-relation",
    equation: str = "",
) -> VerificationReport:
    """Report on ||lhs|s> - rhs|s>|| at the residual tolerance."""
    row = _relation_row(name, equation, lhs, rhs, s)
    return _rows_report(s.label or "state", {}, s.dim, tolerances, (row,))


def gdo_axiom_rows(t: GdoTriple, equation: str = "E1") -> tuple[_Row, ...]:
    """The triple's axiom_rows under the given equation tag."""
    return tuple((name, equation, *rest) for name, _, *rest in t.axiom_rows)


def gdo_axiom_checks(
    t: GdoTriple, tolerances: Tolerances, equation: str = "E1"
) -> list[CheckResult]:
    """The full axiom battery for a triple: its axiom_rows, each judged at
    its own bound or at the oracle tolerance."""
    return [_judge(row, tolerances) for row in gdo_axiom_rows(t, equation)]


def verify_gdo_axioms(
    t: GdoTriple,
    tolerances: Tolerances | None = None,
    *,
    family: str = "gdo",
    equation: str = "E1",
    params: dict | None = None,
) -> VerificationReport:
    return _rows_report(family, params or {}, t.dim, tolerances, gdo_axiom_rows(t, equation))
