"""su(1,1) structure on the even/odd Fock sectors, squeezed and paired
coherent state constructors, and their two-photon ladder verification.

Sector computations run on reindexed bases: sector index n stands for the
full-space level 2n+j.  That keeps the representation formulas literal;
an embedding check guarantees consistency with full-space operators.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    FockState,
    OperatorEvaluationError,
    OperatorExpr,
    _array_diag,
    _div,
    _mul,
    _read,
    annihilation,
    band_max_abs,
    band_product,
    compose,
    creation,
    diag_op,
    fidelity,
    gamma,
    make_state,
    number_op,
    operator,
    scale,
    sub,
    to_bands,
)
from .ladder import (
    CoeffFn,
    FrozenBands,
    GdoTriple,
    _Row,
    _adjacent_ratio,
    _bound_row,
    _coeff_getter,
    _commutator_row,
    _judge,
    _raised_triple,
    _ratio_raising_diag,
    _read_only,
    _rows_report,
)
from .reporting import CheckResult, Tolerances, VerificationReport
from .states import (
    ParameterError,
    _check_angle,
    _check_dim,
    _check_pair_alpha,
    _check_prefactor,
    _check_r,
    _check_sector_dim,
    _finish,
    _tail_guard,
    format_complex,
    sector_dim,
)

# The largest pairwise infidelity the disentangling checks accept.
INFIDELITY_TOL = 1e-8
# Sector representations kept by su11's cache, each with the full-space read
# it has made; one dim-sweep pass asks for 8 of them.
SU11_CACHE_SIZE = 64


def expm(v: np.ndarray, a_bands: Mapping[int, np.ndarray]) -> np.ndarray:
    """exp(A) e_0 for v = e_0 and the n x n matrix A, n = len(v), with one
    band a_bands[-1] just below the diagonal: the exact sum over k < n of
    A^k e_0 / k!, entry k = A[k, k-1] entry(k-1) / k.  Each product is from
    real parts, each part summed onto 0.0, / k is numpy's complex division
    and each entry is added onto v's (a numpy matvec can round a product
    differently).  Any other bands or v raise ValueError."""
    n = len(v)
    if n < 2:
        return v
    sizes = {d: len(band) for d, band in a_bands.items()}
    if sizes != {-1: n - 1}:
        raise ValueError(f"expm takes one band of {n - 1} entries at offset -1, not {sizes}")
    if v[0] != 1 or v[1:].any():
        raise ValueError(f"expm takes v = e_0, not {np.array2string(v, threshold=8)}")
    band, total = a_bands[-1], v.astype(np.complex128).tolist()
    x = total[0]
    for k, a_re, a_im in zip(range(1, n), band.real.tolist(), band.imag.tolist()):
        re = 0.0 + (a_re * x.real - a_im * x.imag)
        im = 0.0 + (a_re * x.imag + a_im * x.real)
        x = complex(np.complex128(complex(re, im)) / k)
        total[k] += x
    return np.array(total, dtype=np.complex128)


@dataclass(frozen=True)
class Su11Rep:
    """K+, K-, K0 on one parity sector, with the Bargmann index and the
    shifted number operator counting pairs above the sector bottom.  Its
    band reads and its batteries' rows are made on first read and kept; a
    representation made by dataclasses.replace makes its own.  The rows
    are operator data: su11_axiom_checks and embedding_checks judge them
    at each call."""

    parity_j: int
    bargmann_k: float
    K_plus: OperatorExpr
    K_minus: OperatorExpr
    K_zero: OperatorExpr
    sector_number_op: OperatorExpr

    @property
    def dim(self) -> int:
        return self.K_plus.domain_dim

    @cached_property
    def bands(self) -> tuple[FrozenBands, ...]:
        """K+, K-, K0 and the sector number operator read by to_bands, once
        per representation, read-only."""
        ops = (self.K_plus, self.K_minus, self.K_zero, self.sector_number_op)
        return tuple(_read_only(to_bands(op)) for op in ops)

    @cached_property
    def full_bands(self) -> tuple[FrozenBands, ...]:
        """Full-space K+ = a+^2/2, K- = a^2/2 and K0 = N/2 + 1/4 read by
        to_bands at a truncation whose sector j has dim levels, restricted
        to the j::2 rows and columns (full offset 2s is sector offset s; odd
        offsets never meet the sector), once, read-only.  Either such
        truncation gives these entries, so (j, dim) is all they depend on."""
        j = self.parity_j
        return tuple(
            _read_only(
                {k // 2: d[j::2] for k, d in to_bands(op).items() if k % 2 == 0 and len(d) > j}
            )
            for op in _full_k_ops(2 * self.dim + j)
        )

    @cached_property
    def axiom_rows(self) -> tuple[_Row, ...]:
        """The su(1,1) relations among K+, K-, K0, entry for entry, as
        rows (ladder._Row).

        Every row is computed on the diagonals that hold a nonzero entry,
        read from the operator terms (core.to_bands): a stray term anywhere
        still enters, each product entry is the one product the dense
        matmul forms (core.diagonal_matmul), and each residual entry goes
        through the same float operations as on the dense matrices
        (core.band_max_abs).  The product rows and su11-action carry their
        rounding bound at their peak entry; su11-sector-number, which
        compares exact integers, is judged at the oracle tolerance."""
        dim, j = self.dim, self.parity_j
        p, m, z, number = self.bands
        eye = {0: np.ones(dim)}
        top = dim - 1  # K+ leaks from the top basis vector
        # K+ and K- carry the same band values on opposite sides of the diagonal
        band = np.sqrt((np.arange(dim - 1) + 1) * (np.arange(dim - 1) + j + 0.5))
        off = np.zeros(dim - 1)  # an absent diagonal holds zeros
        k = self.bargmann_k  # the sector-number shift too
        # All three are real and K0 exact.  An entry of K+ or K- is
        # sqrt(n + j +- 1/2) times the ladder factor sqrt(n), three
        # roundings from its exact value: su11-action's difference with the
        # stated action's one rounded root has five.  A product of two
        # carries six before its own n_pm (one per term); the combine adds
        # two to [K+, K-] + 2 K0 and three to the Casimir's K+- products.
        action = band_max_abs(
            lambda op, f: op - f,
            {-1: p.get(-1, off), 0: z.get(0, np.zeros(dim)), 1: m.get(1, off)},
            {-1: band, 0: np.arange(dim) + j / 2 + 0.25, 1: band},
            magnitude=lambda op, f: gamma(5) * (op + f),
        )
        n_pm = min(len(p), len(m))
        g_pm, g_casimir = gamma(n_pm + 8), gamma(max(n_pm + 9, len(z) + 2))
        KpKm, KmKp = band_product(p, m), band_product(m, p)
        return (
            _bound_row("su11-action", "E66", "matrix elements vs the stated sector actions",
                       action),
            _commutator_row("su11-commutator-plus", "E66", z, p, -1.0, "[K0, K+] - K+"),
            _commutator_row("su11-commutator-minus", "E66", z, m, 1.0, "[K0, K-] + K-"),
            _bound_row(
                "su11-commutator-pm",
                "E66",
                "[K+, K-] + 2 K0, top column excluded",
                band_max_abs(
                    lambda pm, mp, k0: pm - mp + 2 * k0, KpKm, KmKp, z,
                    magnitude=lambda pm, mp, k0: g_pm * (pm + mp + 2 * k0),
                    exclude_column=top,
                ),
            ),
            _bound_row(
                "su11-casimir",
                "E66",
                f"K0^2 - (K+K- + K-K+)/2 vs k(k-1) = {k * (k - 1)!r}, top column excluded",
                band_max_abs(
                    lambda zz, pm, mp, e: zz - (pm + mp) / 2 - k * (k - 1) * e,
                    band_product(z, z), KpKm, KmKp, eye,
                    magnitude=lambda zz, pm, mp, e: g_casimir * (
                        zz + (pm + mp) / 2 + abs(k * (k - 1)) * e
                    ),
                    exclude_column=top,
                ),
            ),
            (
                "su11-sector-number",
                "E70 E71",
                band_max_abs(lambda k0, e, num: k0 - k * e - num, z, eye, number)[0],
                0.0,
                "oracle",
                f"K0 - {k!r} counts sector quanta",
            ),
        )

    @cached_property
    def embedding_rows(self) -> tuple[_Row, ...]:
        """Full-space a+2/2, a2/2, N/2+1/4 restricted to the sector, as
        full_bands reads them, against the sector actions entry for entry,
        compared on their bands."""
        residual = max(
            band_max_abs(lambda f, s: f - s, full, sector)[0]
            for full, sector in zip(self.full_bands, self.bands[:3])
        )
        detail = f"sector {self.parity_j} restriction of a+2/2, a2/2, N/2+1/4"
        return (("sector-embedding", "E65", residual, 0.0, "oracle", detail),)


def _check_parity(parity_j: int, name: str = "parity_j") -> int:
    # an equal float or bool reads as its int; a complex, even 1+0j, is refused
    if isinstance(parity_j, (complex, np.complexfloating)) or parity_j not in (0, 1):
        raise ParameterError(f"{name} must be 0 or 1")
    return int(parity_j)


def su11(parity_j: int, dim_sector: int) -> Su11Rep:
    """Sector action: K+||n> = sqrt((n+1)(n+j+1/2))||n+1>,
    K-||n> = sqrt(n(n+j-1/2))||n-1>, K0||n> = (n+j/2+1/4)||n>.

    Cached per truncation: the arguments are checked first and the
    representation kept on the checked ints (an integral float or a bool
    finds the int's entry), up to SU11_CACHE_SIZE of them.  Its bands are
    read once and read-only, and its batteries' residual rows computed
    once.  Only operator data is kept, never a verdict: each call of a
    battery judges the kept rows at that call's tolerances."""
    return _su11(_check_parity(parity_j), _check_dim(dim_sector))


@lru_cache(maxsize=SU11_CACHE_SIZE)
def _su11(j: int, dim_sector: int) -> Su11Rep:
    d_plus = _array_diag(lambda n: np.sqrt(n + j + 0.5))
    d_minus = _array_diag(lambda n: np.sqrt(n + j - 0.5), lo=1)
    d_zero = _array_diag(lambda n: n + j / 2.0 + 0.25)
    return Su11Rep(
        parity_j=j,
        bargmann_k=0.25 + j / 2.0,
        K_plus=operator([(1, d_plus)], dim_sector),
        K_minus=operator([(-1, d_minus)], dim_sector),
        K_zero=operator([(0, d_zero)], dim_sector),
        sector_number_op=number_op(dim_sector),
    )


def sector_embed(s: FockState) -> FockState:
    """Reindex an even or odd state onto its sector basis: sector
    amplitude n is the full-space amplitude at 2n+j."""
    if s.parity not in ("even", "odd"):
        raise ParameterError("sector_embed requires a definite-parity state")
    j = 0 if s.parity == "even" else 1
    n_sector = sector_dim(s.dim, j)
    amps = s.amplitudes[j::2][:n_sector]
    return make_state(
        amps,
        parity="full",
        norm_constant=s.norm_constant,
        label=f"sector{j}({s.label})",
        leak=s.leak,
    )


def sector_unembed(s: FockState, parity_j: int, dim: int) -> FockState:
    parity_j = _check_parity(parity_j)
    if sector_dim(dim, parity_j) != s.dim:
        raise ParameterError(
            f"sector of dim {s.dim} does not fill a full space of dim {dim}"
        )
    amps = np.zeros(dim, dtype=complex)
    amps[parity_j::2] = s.amplitudes
    return make_state(
        amps,
        parity="even" if parity_j == 0 else "odd",
        norm_constant=s.norm_constant,
        label=s.label,
        leak=s.leak,
    )


# --- constructors (full-space states) ---


def _scatter(sector_raw: np.ndarray, parity_j: int, dim: int, what: str,
             prefactor: float, label: str) -> FockState:
    tail = _tail_guard(sector_raw, what)
    full = np.zeros(dim, dtype=complex)
    full[parity_j::2] = sector_raw
    parity = "even" if parity_j == 0 else "odd"
    return _finish(full, label, prefactor=prefactor, leak=tail, parity=parity)


def _squeezed(r: float, theta: float, dim: int, j: int) -> FockState:
    """S(xi)|j> by the amplitude-ratio recurrence on sector j."""
    cosh_r = _check_r(r)
    dim, n_sector = _check_sector_dim(dim, j)
    theta = _check_angle(theta)
    tau = cmath.exp(1j * theta) * math.tanh(r) / 2.0
    # (cosh r)^(-1/2-j), one float expression per sector: the two
    # spellings round differently from a shared cosh(r) ** -(0.5 + j)
    seed = 1.0 / math.sqrt(cosh_r) if j == 0 else cosh_r ** -1.5
    raw = np.zeros(n_sector, dtype=complex)
    raw[0] = seed
    for n in range(n_sector - 1):
        raw[n + 1] = (
            raw[n] * math.sqrt((2 * n + 2 + j) * (2 * n + 1 + j)) * tau / (n + 1)
        )
    name = ("squeezed_vacuum", "squeezed_first_excited")[j]
    return _scatter(
        raw, j, dim,
        f"{name}(r={r!r})",
        seed,
        f"{name}(r={float(r)!r}, theta={theta!r})",
    )


def squeezed_vacuum(r: float, theta: float, dim: int) -> FockState:
    """(cosh r)^{-1/2} sum sqrt((2n)!) (e^{i theta} tanh r / 2)^n / n! on
    even levels; built by the amplitude-ratio recurrence."""
    return _squeezed(r, theta, dim, 0)


def squeezed_first_excited(r: float, theta: float, dim: int) -> FockState:
    """(cosh r)^{-3/2} sum sqrt((2n+1)!) (e^{i theta} tanh r / 2)^n / n!
    on odd levels."""
    return _squeezed(r, theta, dim, 1)


def even_odd_coherent(alpha: complex, parity: str, dim: int) -> FockState:
    """Even: alpha^{2n}/sqrt((2n)!) / sqrt(cosh|alpha|^2) on even levels.
    Odd: alpha^{2n+1}/sqrt((2n+1)!) / sqrt(sinh|alpha|^2) on odd levels."""
    if parity not in ("even", "odd"):
        raise ParameterError("parity must be 'even' or 'odd'")
    j = 0 if parity == "even" else 1
    dim, n_sector = _check_sector_dim(dim, j)
    alpha = _check_pair_alpha(alpha, j)
    mod2 = abs(alpha) * abs(alpha)
    raw = np.zeros(n_sector, dtype=complex)
    if j == 1 and mod2 < sys.float_info.min:  # the limit sinh(x) / x -> 1
        prefactor = 1.0 / abs(alpha)
        if math.isinf(prefactor):
            raise ParameterError(
                f"alpha={format_complex(alpha)} puts the odd superposition's "
                "prefactor 1/|alpha| past the float range; |alpha| must be at "
                "least 5.5627e-309"
            )
        raw[0] = alpha / abs(alpha)
    else:
        try:
            norm = math.cosh(mod2) if j == 0 else math.sinh(mod2)
            prefactor = 1.0 / math.sqrt(norm)
        except OverflowError:  # there cosh and sinh round to e^x / 2
            prefactor = _check_prefactor(
                math.sqrt(2.0) * math.exp(-0.5 * mod2), alpha, math.sqrt(2.0)
            )
        raw[0] = prefactor * (1.0 if j == 0 else alpha)
    for n in range(n_sector - 1):
        k = 2 * n + j  # full-space level currently held
        raw[n + 1] = raw[n] * alpha**2 / math.sqrt((k + 1) * (k + 2))
    name = "even_coherent" if j == 0 else "odd_coherent"
    return _scatter(
        raw, j, dim,
        f"{name}(alpha={format_complex(alpha)})",
        prefactor,
        f"{name}(alpha={format_complex(alpha)})",
    )


# --- two-photon ladder forms on the sector ---


def _sector_raising(
    c: CoeffFn, parity_j: int, dim_sector: int
) -> tuple[Su11Rep, OperatorExpr]:
    """The sector representation and the raising operator that c(n)
    generates on it, [sqrt(N) c(N) / (c(N-1) sqrt(N - 1/2 + j))] K+."""
    rep = su11(parity_j, dim_sector)
    ratio = _ratio_raising_diag(c)
    d_up = _array_diag(lambda t: _div(_read(ratio, t), np.sqrt(t - 0.5 + parity_j)), lo=1)
    return rep, compose(diag_op(d_up, dim_sector), rep.K_plus)


def two_photon_ladder(
    coeffs, parity_j: int, dim_sector: int
) -> tuple[OperatorExpr, OperatorExpr]:
    """Both sector-space ladder forms for coefficients c(n) on sector j.

    Returns (up_form, down_form): the first is
    N_j - [sqrt(N_j) c(N_j) / (c(N_j-1) sqrt(N_j - 1/2 + j))] K+, the
    second the difference between the diagonal
    c(N_j+1) sqrt(N_j + 1/2 + j) (N_j+1) / c(N_j) and sqrt(N_j+1) K-;
    each annihilates the exact state.
    """
    c = _coeff_getter(coeffs)
    rep, raising = _sector_raising(c, parity_j, dim_sector)
    j = parity_j

    def d_down_diag(n: np.ndarray) -> np.ndarray:
        ratio = _adjacent_ratio(c, n + 1, -1)
        return _mul(_mul(ratio, np.sqrt(n + 0.5 + j)), n + 1)

    up_form = sub(rep.sector_number_op, raising)
    down_form = sub(
        diag_op(_array_diag(d_down_diag), dim_sector),
        compose(diag_op(_array_diag(lambda t: np.sqrt(t + 1)), dim_sector), rep.K_minus),
    )
    return up_form, down_form


def two_photon_gdo(coeffs, parity_j: int, dim_sector: int) -> GdoTriple:
    """Sector triple with raising [sqrt(N) c(N)/(c(N-1) sqrt(N-1/2+j))] K+
    and F(n) = ||lowering||n>||^2 = n^2 |c(n)/c(n-1)|^2."""
    rep, raising = _sector_raising(_coeff_getter(coeffs), parity_j, dim_sector)
    return _raised_triple(rep.sector_number_op, raising, n_min=0)


# --- full-space literal relations ---


def pair_lowering(dim: int) -> OperatorExpr:
    """a^2 on the full space."""
    a = annihilation(dim)
    return compose(a, a)


def _pair_lowering_over(j: int, dim: int) -> OperatorExpr:
    """[1/(N+1+j)] a^2, the pair lowering that the squeezed state S(xi)|j>
    diagonalizes."""
    return compose(diag_op(_array_diag(lambda t: 1.0 / (t + 1 + j)), dim), pair_lowering(dim))


def svs_lowering(dim: int) -> OperatorExpr:
    """[1/(N+1)] a^2, eigenvalue e^{i theta} tanh r on the squeezed vacuum."""
    return _pair_lowering_over(0, dim)


def sfes_lowering(dim: int) -> OperatorExpr:
    """[1/(N+2)] a^2, eigenvalue e^{i theta} tanh r on the squeezed first
    excited state."""
    return _pair_lowering_over(1, dim)


# --- representation and disentangling verification ---


def su11_axiom_checks(rep: Su11Rep, tolerances: Tolerances) -> list[CheckResult]:
    """The su(1,1) battery: rep.axiom_rows, each judged at its own bound or
    at the oracle tolerance."""
    return [_judge(row, tolerances) for row in rep.axiom_rows]


def embedding_checks(rep: Su11Rep, tolerances: Tolerances) -> list[CheckResult]:
    """The sector-embedding check: rep.embedding_rows judged at the oracle
    tolerance."""
    return [_judge(row, tolerances) for row in rep.embedding_rows]


def verify_su11(
    parity_j: int, dim_sector: int, *, tolerances: Tolerances | None = None
) -> VerificationReport:
    """The su(1,1) battery and the embedding check on sector j at dim_sector
    levels, against the full space whose sector j has that many levels."""
    rep = su11(parity_j, dim_sector)
    j = rep.parity_j  # checked: a float or bool parity reads as its int
    rows = rep.axiom_rows + rep.embedding_rows
    return _rows_report(f"su11-sector{j}", {"parity_j": j}, rep.dim, tolerances, rows)


def _full_k_ops(dim: int) -> tuple[OperatorExpr, OperatorExpr, OperatorExpr]:
    """Full-space K+ = a+^2/2, K- = a^2/2 and K0 = N/2 + 1/4."""
    return (
        scale(compose(creation(dim), creation(dim)), 0.5),
        scale(pair_lowering(dim), 0.5),
        diag_op(_array_diag(lambda n: n / 2.0 + 0.25), dim),
    )


def squeezing_routes(r: float, theta: float, rep: Su11Rep) -> tuple[np.ndarray, np.ndarray]:
    """S(xi)|j> two ways on the sector of rep, from its full_bands, the
    j::2 block of a+^2/2, a^2/2 and N/2+1/4:
    exp(xi K+ - xi* K-) e_0 = exp(i H) e_0, H the Hermitian part of
    -i(xi K+ - xi* K-), and
    exp(tau K+) (cosh r)^(-2 K0) exp(-tau* K-) e_0, tau = e^{i theta} tanh r,
    where K- e_0 = 0 leaves exp(tau K+) e_0, a finite sum since K+ is
    strictly subdiagonal on the sector.

    H is tridiagonal with a zero diagonal and subdiagonal g, so H = D T D*
    for T real symmetric with subdiagonal |g| and D the running product of
    g/|g|: exp(i H) e_0 = D exp(i T) e_0 by numpy.linalg.eigh of T.  A K+
    band off offset -1 or a K- band off +1 is refused by name, not dropped."""
    n, j = rep.dim, rep.parity_j
    k_plus, k_minus = rep.full_bands[:2]
    for name, bands, offset in (("K+", k_plus, -1), ("K-", k_minus, 1)):
        stray = sorted(bands.keys() - {offset})
        if stray:
            raise OperatorEvaluationError(
                f"sector {name} has a band at offset {stray[0]}; the squeezing "
                f"exponential takes {name} only at offset {offset}"
            )
    zeros = np.zeros(n - 1)
    theta = _check_angle(theta)
    xi = r * cmath.exp(1j * theta)
    g = -0.5j * xi * (k_plus.get(-1, zeros) + k_minus.get(1, zeros).conj())
    # g/|g| part by part, 1 where g = 0: |g| can be subnormal
    mod = np.abs(g)
    cos = np.divide(g.real, mod, out=np.ones(n - 1), where=mod > 0)
    sin = np.divide(g.imag, mod, out=np.zeros(n - 1), where=mod > 0)
    phases = np.cumprod(np.append(1.0, cos + 1j * sin))
    lam, V = np.linalg.eigh(np.diag(mod, -1))  # eigh reads the lower triangle
    w = np.exp(1j * lam) * V[0]
    tau = cmath.exp(1j * theta) * math.tanh(r)
    return (
        phases * (V @ w.real + 1j * (V @ w.imag)),
        math.cosh(r) ** -(j + 0.5) * expm(np.eye(1, n)[0], {d: tau * b for d, b in k_plus.items()}),
    )


def verify_disentangling(
    r: float,
    theta: float,
    dim: int,
    *,
    excitation: int = 0,
    tolerances: Tolerances | None = None,
) -> VerificationReport:
    """Build S(xi)|j>, j = excitation, three ways (the exponential of the
    generator, the three-factor product, the closed-form expansion) and
    report pairwise infidelities with the truncation deficits as leak.
    The closed form is built first, so a rejected input raises before any
    dense work.

    Needs dim >= 64 for r <= 1 so both operator routes converge.
    """
    excitation = _check_parity(excitation, "excitation")
    closed = _squeezed(r, theta, dim, excitation)
    rep = su11(excitation, sector_dim(closed.dim, excitation))
    rows = disentangling_rows(closed, squeezing_routes(r, theta, rep))
    params = {"r": float(r), "theta": float(theta), "excitation": excitation}
    return _rows_report(closed.label, params, closed.dim, tolerances, rows)


def disentangling_rows(
    closed: FockState, routes: tuple[np.ndarray, np.ndarray]
) -> tuple[_Row, ...]:
    """verify_disentangling's rows, each judged at INFIDELITY_TOL, given its
    closed form S(xi)|j> and the two operator routes on its sector, as
    squeezing_routes gives them."""
    dim, j = closed.dim, ("even", "odd").index(closed.parity)
    via_exponential, via_product = routes

    def normalized(v: np.ndarray) -> tuple[FockState, float]:
        # v on the full space at unit norm, and its norm deficit as leak
        norm = float(np.linalg.norm(v))
        unit = make_state(v / norm, parity="full")
        return sector_unembed(unit, j, dim), max(0.0, 1.0 - norm**2)

    s_exponential, leak_exponential = normalized(via_exponential)
    s_product, leak_product = normalized(via_product)
    equation = "E64 E67 E68" if j == 0 else "E67 E79 E80"

    def infidelity_row(name: str, x, y, leak: float) -> _Row:
        # an over-normalized route reads above 1
        residual = abs(1.0 - fidelity(x, y))
        detail = "pairwise infidelity of independent constructions"
        return name, equation, residual, leak, INFIDELITY_TOL, detail

    return (
        infidelity_row(
            "disentangle-product-vs-exponential",
            s_product,
            s_exponential,
            leak_exponential + leak_product,
        ),
        infidelity_row(
            "disentangle-exponential-vs-closed", s_exponential, closed, leak_exponential
        ),
        infidelity_row(
            "disentangle-product-vs-closed", s_product, closed, leak_product
        ),
    )


def disentangling_checks(
    closed: FockState, routes: tuple[np.ndarray, np.ndarray], tolerances: Tolerances
) -> tuple[CheckResult, ...]:
    """disentangling_rows judged at the call's leak tolerance."""
    return tuple(_judge(row, tolerances) for row in disentangling_rows(closed, routes))
