"""su(1,1) structure on the even/odd Fock sectors, squeezed and paired
coherent state constructors, and their two-photon ladder verification.

Sector computations run on reindexed bases: sector index n stands for the
full-space level 2n+j.  That keeps the representation formulas literal;
an embedding check guarantees consistency with full-space operators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FockState,
    OperatorExpr,
    annihilation,
    basis_state,
    compose,
    creation,
    diag_op,
    fidelity,
    make_state,
    number_op,
    operator,
    scale,
    sub,
    to_matrix,
)
from .ladder import (
    CoeffFn,
    GdoTriple,
    _coeff_getter,
    _guarded_ratio,
    _raised_triple,
    _ratio_raising_diag,
)
from .reporting import CheckResult, Tolerances, VerificationReport
from .states import (
    ParameterError,
    _check_dim,
    _finish,
    _tail_guard,
    format_complex,
)


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on the first call: scipy.linalg takes
    longer to import than the rest of the package, and only the
    disentangling oracle needs it."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


@dataclass(frozen=True)
class Su11Rep:
    """K+, K-, K0 on one parity sector, with the Bargmann index and the
    shifted number operator counting pairs above the sector bottom."""

    parity_j: int
    bargmann_k: float
    K_plus: OperatorExpr
    K_minus: OperatorExpr
    K_zero: OperatorExpr
    sector_number_op: OperatorExpr

    @property
    def dim(self) -> int:
        return self.K_plus.domain_dim


def su11(parity_j: int, dim_sector: int) -> Su11Rep:
    """Sector action: K+||n> = sqrt((n+1)(n+j+1/2))||n+1>,
    K-||n> = sqrt(n(n+j-1/2))||n-1>, K0||n> = (n+j/2+1/4)||n>."""
    if parity_j not in (0, 1):
        raise ParameterError("parity_j must be 0 or 1")
    dim_sector = _check_dim(dim_sector)
    j = parity_j

    def d_plus(n: int) -> complex:
        return math.sqrt(n + j + 0.5)

    def d_minus(n: int) -> complex:
        return math.sqrt(n + j - 0.5) if n >= 1 else 0.0

    def d_zero(n: int) -> complex:
        return n + j / 2.0 + 0.25

    return Su11Rep(
        parity_j=j,
        bargmann_k=0.25 + j / 2.0,
        K_plus=operator([(1, d_plus)], dim_sector),
        K_minus=operator([(-1, d_minus)], dim_sector),
        K_zero=operator([(0, d_zero)], dim_sector),
        sector_number_op=number_op(dim_sector),
    )


def sector_dim(dim: int, parity_j: int) -> int:
    return (dim - parity_j + 1) // 2


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
    if parity_j not in (0, 1):
        raise ParameterError("parity_j must be 0 or 1")
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


# --- sector coefficient callables (unnormalized beyond overall constants) ---


def _squeezed_sector_coeffs(r: float, theta: float, j: int) -> CoeffFn:
    t = math.tanh(r)

    def c(n: int) -> complex:
        if n < 0:
            return 0.0
        if t == 0.0:
            return 1.0 if n == 0 else 0.0
        log_mag = (
            0.5 * math.lgamma(2 * n + 1 + j) + n * math.log(t / 2) - math.lgamma(n + 1)
        )
        return math.exp(log_mag) * cmath.exp(1j * theta * n)

    return c


def svs_sector_coeffs(r: float, theta: float) -> CoeffFn:
    """c(n) = sqrt((2n)!) (e^{i theta} tanh r / 2)^n / n!"""
    return _squeezed_sector_coeffs(r, theta, 0)


def sfes_sector_coeffs(r: float, theta: float) -> CoeffFn:
    """c(n) = sqrt((2n+1)!) (e^{i theta} tanh r / 2)^n / n!"""
    return _squeezed_sector_coeffs(r, theta, 1)


def _coherent_sector_coeffs(alpha: complex, j: int) -> CoeffFn:
    alpha = complex(alpha)

    def c(n: int) -> complex:
        if n < 0:
            return 0.0
        if alpha == 0:  # alpha^(2n+j) is 1 only at 2n+j = 0
            return 1.0 if 2 * n + j == 0 else 0.0
        return cmath.exp(
            (2 * n + j) * cmath.log(alpha) - 0.5 * math.lgamma(2 * n + 1 + j)
        )

    return c


def ecs_sector_coeffs(alpha: complex) -> CoeffFn:
    """c(n) = alpha^{2n} / sqrt((2n)!)"""
    return _coherent_sector_coeffs(alpha, 0)


def ocs_sector_coeffs(alpha: complex) -> CoeffFn:
    """c(n) = alpha^{2n+1} / sqrt((2n+1)!)"""
    return _coherent_sector_coeffs(alpha, 1)


# --- constructors (full-space states) ---


def _scatter(sector_raw: np.ndarray, parity_j: int, dim: int, what: str,
             prefactor: float, label: str) -> FockState:
    tail = _tail_guard(sector_raw, what)
    full = np.zeros(dim, dtype=complex)
    full[parity_j::2] = sector_raw
    parity = "even" if parity_j == 0 else "odd"
    return _finish(full, label, prefactor=prefactor, leak=tail, parity=parity)


def _sector_size(dim: int, j: int) -> tuple[int, int]:
    """The checked truncation and the size of sector j inside it."""
    dim = _check_dim(dim)
    if j == 1 and dim < 2:
        raise ParameterError("dim must be at least 2 for an odd state")
    return dim, sector_dim(dim, j)


def _squeezed(r: float, theta: float, dim: int, j: int) -> FockState:
    """S(xi)|j> by the amplitude-ratio recurrence on sector j."""
    if not r >= 0:
        raise ParameterError("r must be nonnegative")
    dim, n_sector = _sector_size(dim, j)
    try:
        cosh_r = math.cosh(r)
    except OverflowError:
        cosh_r = math.inf
    if math.isinf(cosh_r):  # the seed underflows, so no dim holds the state
        raise ParameterError(
            f"r={float(r)!r} puts cosh r past the float range; use a smaller r"
        )
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
        f"{name}(r={float(r)!r}, theta={float(theta)!r})",
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
    alpha = complex(alpha)
    if parity not in ("even", "odd"):
        raise ParameterError("parity must be 'even' or 'odd'")
    j = 0 if parity == "even" else 1
    dim, n_sector = _sector_size(dim, j)
    if j == 1 and alpha == 0:
        raise ParameterError("alpha must be nonzero for the odd superposition")
    mod2 = abs(alpha) * abs(alpha)  # x * x: inf, not OverflowError
    if math.isinf(mod2):
        raise ParameterError("|alpha|^2 must lie inside the float range")
    try:
        norm = math.cosh(mod2) if j == 0 else math.sinh(mod2)
        prefactor = 1.0 / math.sqrt(norm) if norm > 0 else 1.0
    except OverflowError:  # there cosh and sinh round to e^x / 2
        prefactor = math.sqrt(2.0) * math.exp(-0.5 * mod2)
    raw = np.zeros(n_sector, dtype=complex)
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

    def d_up(t: int) -> complex:
        return ratio(t) / math.sqrt(t - 0.5 + parity_j) if t >= 1 else 0.0

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

    def d_down_diag(n: int) -> complex:
        return _guarded_ratio(c(n + 1), c, n) * math.sqrt(n + 0.5 + j) * (n + 1)

    def d_after_km(t: int) -> complex:
        return math.sqrt(t + 1)

    up_form = sub(rep.sector_number_op, raising)
    down_form = sub(
        diag_op(d_down_diag, dim_sector),
        compose(diag_op(d_after_km, dim_sector), rep.K_minus),
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

    def d(t: int) -> complex:
        return 1.0 / (t + 1 + j)

    return compose(diag_op(d, dim), pair_lowering(dim))


def svs_lowering(dim: int) -> OperatorExpr:
    """[1/(N+1)] a^2, eigenvalue e^{i theta} tanh r on the squeezed vacuum."""
    return _pair_lowering_over(0, dim)


def sfes_lowering(dim: int) -> OperatorExpr:
    """[1/(N+2)] a^2, eigenvalue e^{i theta} tanh r on the squeezed first
    excited state."""
    return _pair_lowering_over(1, dim)


# --- representation and disentangling verification ---


def su11_axiom_checks(rep: Su11Rep, tolerances: Tolerances) -> list[CheckResult]:
    dim = rep.dim
    j = rep.parity_j
    Kp = to_matrix(rep.K_plus)
    Km = to_matrix(rep.K_minus)
    K0 = to_matrix(rep.K_zero)
    tol = tolerances.oracle

    def c(name: str, equation: str, residual: float, detail: str) -> CheckResult:
        return CheckResult.from_residual(name, equation, residual, tol, detail=detail)

    # K+ and K- carry the same band values on opposite sides of the diagonal
    band = np.sqrt((np.arange(dim - 1) + 1) * (np.arange(dim - 1) + j + 0.5))
    action_residual = max(
        float(np.max(np.abs(np.diag(Kp, -1) - band), initial=0.0)),
        float(np.max(np.abs(np.diag(Km, 1) - band), initial=0.0)),
        float(np.max(np.abs(np.diag(K0) - (np.arange(dim) + j / 2 + 0.25)))),
    )
    checks = [
        c(
            "su11-action",
            "E66",
            action_residual,
            "matrix elements vs the stated sector actions",
        ),
        c(
            "su11-commutator-plus",
            "E66",
            float(np.abs(K0 @ Kp - Kp @ K0 - Kp).max()),
            "[K0, K+] - K+",
        ),
        c(
            "su11-commutator-minus",
            "E66",
            float(np.abs(K0 @ Km - Km @ K0 + Km).max()),
            "[K0, K-] + K-",
        ),
    ]
    comm = Kp @ Km - Km @ Kp + 2 * K0
    comm[:, dim - 1] = 0.0  # K+ leaks from the top basis vector
    checks.append(
        c(
            "su11-commutator-pm",
            "E66",
            float(np.abs(comm).max()),
            "[K+, K-] + 2 K0, top column excluded",
        )
    )
    k = rep.bargmann_k
    casimir = K0 @ K0 - (Kp @ Km + Km @ Kp) / 2 - k * (k - 1) * np.eye(dim)
    casimir[:, dim - 1] = 0.0
    checks.append(
        c(
            "su11-casimir",
            "E66",
            float(np.abs(casimir).max()),
            f"K0^2 - (K+K- + K-K+)/2 vs k(k-1) = {k * (k - 1)!r}, "
            "top column excluded",
        )
    )
    shift = 0.25 + j / 2.0
    number = to_matrix(rep.sector_number_op)
    checks.append(
        c(
            "su11-sector-number",
            "E70 E71",
            float(np.abs(K0 - shift * np.eye(dim) - number).max()),
            f"K0 - {shift!r} counts sector quanta",
        )
    )
    return checks


def embedding_checks(
    rep: Su11Rep, dim_full: int, tolerances: Tolerances
) -> list[CheckResult]:
    """Full-space a+2/2, a2/2, N/2+1/4 restricted to the sector reproduce
    the sector actions entry for entry."""
    j = rep.parity_j
    n_sector = sector_dim(dim_full, j)
    idx = np.arange(n_sector) * 2 + j
    Kp_full, Km_full = _full_k_pair(dim_full)

    def d0(n: int) -> complex:
        return n / 2.0 + 0.25

    K0_full = to_matrix(diag_op(d0, dim_full))
    sub_dim = min(n_sector, rep.dim)
    residual = 0.0
    for full_mat, sector_op in (
        (Kp_full, rep.K_plus),
        (Km_full, rep.K_minus),
        (K0_full, rep.K_zero),
    ):
        restricted = full_mat[np.ix_(idx[:sub_dim], idx[:sub_dim])]
        sector_mat = to_matrix(sector_op)[:sub_dim, :sub_dim]
        residual = max(residual, float(np.abs(restricted - sector_mat).max()))
    return [
        CheckResult.from_residual(
            "sector-embedding",
            "E65",
            residual,
            tolerances.oracle,
            detail=f"sector {j} restriction of a+2/2, a2/2, N/2+1/4",
        )
    ]


def verify_su11(
    parity_j: int,
    dim_sector: int,
    dim_full: int | None = None,
    tolerances: Tolerances | None = None,
) -> VerificationReport:
    tol = tolerances or Tolerances()
    rep = su11(parity_j, dim_sector)
    checks = su11_axiom_checks(rep, tol)
    if dim_full is not None:
        checks += embedding_checks(rep, dim_full, tol)
    return VerificationReport(
        family=f"su11-sector{parity_j}",
        params={"parity_j": parity_j},
        dim=dim_sector,
        tolerances=tol,
        checks=tuple(checks),
    )


def _full_k_pair(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-space K+ = a+^2/2 and K- = a^2/2 as dense matrices."""
    return (
        to_matrix(scale(compose(creation(dim), creation(dim)), 0.5)),
        to_matrix(scale(compose(annihilation(dim), annihilation(dim)), 0.5)),
    )


def _three_factor_matrix(
    r: float, theta: float, Kp: np.ndarray, Km: np.ndarray
) -> np.ndarray:
    t = math.tanh(r)
    left = expm(cmath.exp(1j * theta) * t * Kp)
    middle = np.diag(math.cosh(r) ** -(np.arange(len(Kp)) + 0.5))
    right = expm(-cmath.exp(-1j * theta) * t * Km)
    return left @ middle @ right


def _exponential_matrix(
    r: float, theta: float, Kp: np.ndarray, Km: np.ndarray
) -> np.ndarray:
    xi = r * cmath.exp(1j * theta)
    return expm(xi * Kp - xi.conjugate() * Km)


def verify_disentangling(
    r: float,
    theta: float,
    dim: int,
    *,
    excitation: int = 0,
    tolerances: Tolerances | None = None,
    infidelity_tol: float = 1e-8,
) -> VerificationReport:
    """Build the squeezed state three ways (matrix exponential of the
    generator, the three-factor product, the closed-form expansion) and
    report pairwise infidelities with the truncation deficits as leak.

    Needs dim >= 64 for r <= 1 so both operator routes converge.
    """
    if not r >= 0:
        raise ParameterError("r must be nonnegative")
    if excitation not in (0, 1):
        raise ParameterError("excitation must be 0 or 1")
    tol = tolerances or Tolerances()
    base = basis_state(excitation, dim)
    Kp, Km = _full_k_pair(dim)
    via_exponential = _exponential_matrix(r, theta, Kp, Km) @ base.amplitudes
    via_product = _three_factor_matrix(r, theta, Kp, Km) @ base.amplitudes
    closed = (
        squeezed_vacuum(r, theta, dim)
        if excitation == 0
        else squeezed_first_excited(r, theta, dim)
    )
    leak_exponential = max(0.0, 1.0 - float(np.linalg.norm(via_exponential) ** 2))
    leak_product = max(0.0, 1.0 - float(np.linalg.norm(via_product) ** 2))
    parity = "even" if excitation == 0 else "odd"
    s_exponential = make_state(
        via_exponential / np.linalg.norm(via_exponential), parity=parity
    )
    s_product = make_state(via_product / np.linalg.norm(via_product), parity=parity)
    equation = "E64 E67 E68" if excitation == 0 else "E67 E79 E80"

    def infidelity_check(name: str, x, y, leak: float) -> CheckResult:
        return CheckResult.from_residual(
            name,
            equation,
            1.0 - fidelity(x, y),
            infidelity_tol,
            leak=leak,
            leak_tolerance=tol.leak,
            detail="pairwise infidelity of independent constructions",
        )

    checks = (
        infidelity_check(
            "disentangle-product-vs-exponential",
            s_product,
            s_exponential,
            leak_exponential + leak_product,
        ),
        infidelity_check(
            "disentangle-exponential-vs-closed", s_exponential, closed, leak_exponential
        ),
        infidelity_check(
            "disentangle-product-vs-closed", s_product, closed, leak_product
        ),
    )
    return VerificationReport(
        family=closed.label,
        params={"r": float(r), "theta": float(theta), "excitation": excitation},
        dim=dim,
        tolerances=tol,
        checks=checks,
    )
