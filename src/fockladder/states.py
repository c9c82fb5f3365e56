"""Constructors for every supported state family.

Each constructor takes an explicit truncation dim and returns a normalized
FockState.  Infinite-support families enforce a quantitative dropped-tail
bound (default 1e-12) instead of guessing a truncation; finite families
require dim > M.  norm_constant records the scalar that multiplies the
defining in-sum coefficients to normalize the vector, so it houses the
closed-form prefactor together with the (tiny) numeric correction.

Parameter violations raise ParameterError naming the constraint; an
undersized truncation raises TailMassError suggesting a larger dim.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FockState, ladder_factor, make_state

TAIL_TOL = 1e-12


class ParameterError(ValueError):
    """A constructor parameter violates its documented range."""


class TailMassError(ParameterError):
    """The truncation drops more probability mass than tolerated."""


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not 0.0 < eta < 1.0:
        raise ParameterError("eta must lie in (0,1)")
    return eta


def _check_count(value: int, name: str, minimum: int = 0) -> int:
    if value != int(value) or int(value) < minimum:
        bound = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ParameterError(f"{name} must be {bound}")
    return int(value)


def _check_dim(dim: int, M: int | None = None) -> int:
    dim = _check_count(dim, "dim", minimum=1)
    if M is not None and dim <= M:
        raise ParameterError("dim must exceed M")
    return dim


def _normalized(raw: np.ndarray) -> tuple[np.ndarray, float]:
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise ParameterError("state has no amplitude inside the truncation")
    return raw / norm, 1.0 / norm


def _tail_guard(raw: np.ndarray, what: str, tol: float = TAIL_TOL) -> float:
    # raw carries the family's closed-form normalization, so the dropped
    # tail is the deficit of the retained mass from 1
    tail = max(0.0, 1.0 - float(np.vdot(raw, raw).real))
    if tail > tol:
        raise TailMassError(
            f"{what} drops tail mass {tail:.3e} > {tol:.0e}; increase dim"
        )
    return tail


def format_complex(z: complex) -> str:
    """Render a complex value in the CLI grammar (a+bi, a-bi, bare a or bi)."""
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return f"{z.imag!r}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


@dataclass(frozen=True)
class PhaseGrid:
    """Reference phase theta0 with s+1 equally spaced points; point m is
    theta_m = theta0 + 2 pi m / (s + 1).  The one-point grid s = 0 is
    the M = 0 member, whose only phase state is the vacuum."""

    theta0: float
    s: int
    m: int

    def __post_init__(self) -> None:
        _check_count(self.s, "s")
        if not 0 <= self.m <= self.s:
            raise ParameterError("m must lie in [0, s]")

    @property
    def theta_m(self) -> float:
        return self.theta0 + 2.0 * math.pi * self.m / (self.s + 1)


@dataclass(frozen=True)
class IntermediateParams:
    """Mixing parameter, target eigenvalue, and nonlinearity of the
    number-nonlinear eigenvalue problem (sqrt(eta) N + sqrt(1-eta) f(N) a)."""

    eta: float
    alpha_eig: complex
    f: Callable[[int], complex] | None = None

    def __post_init__(self) -> None:
        _check_eta(self.eta)

    def f_at(self, n: int) -> complex:
        return 1.0 if self.f is None else complex(self.f(n))


# --- coefficient callables (unnormalized, defined for every n >= 0) ---
# Ladder diagonals use only coefficient ratios, so overall constants are
# irrelevant; values are computed in log space where factorials appear.


def coherent_coeffs(alpha: complex) -> Callable[[int], complex]:
    alpha = complex(alpha)

    def c(n: int) -> complex:
        if n < 0:
            return 0.0
        if alpha == 0:
            return 1.0 if n == 0 else 0.0
        return cmath.exp(n * cmath.log(alpha) - 0.5 * math.lgamma(n + 1))

    return c


def kerr_coeffs(alpha: complex, theta: float) -> Callable[[int], complex]:
    base = coherent_coeffs(alpha)

    def c(n: int) -> complex:
        return base(n) * cmath.exp(-1j * theta * n * (n - 1))

    return c


def geometric_coeffs(eta: float) -> Callable[[int], complex]:
    def c(n: int) -> complex:
        return (1.0 - eta) ** (n / 2.0) if n >= 0 else 0.0

    return c


def negative_binomial_coeffs(eta: float, M: int) -> Callable[[int], complex]:
    def c(n: int) -> complex:
        if n < 0:
            return 0.0
        return math.sqrt(math.comb(M + n - 1, n)) * eta ** (n / 2.0)

    return c


def new_negative_binomial_coeffs(eta: float, M: int) -> Callable[[int], complex]:
    def c(n: int) -> complex:
        if n < M:
            return 0.0
        return math.sqrt(math.comb(n, M)) * (1.0 - eta) ** ((n - M) / 2.0)

    return c


def generalized_binomial(x: float, n: int) -> float:
    """x(x-1)...(x-n+1)/n! as a literal running product (exact sign
    information at small n, no gamma functions)."""
    value = 1.0
    for k in range(n):
        value *= (x - k) / (k + 1)
    return value


# --- finite families ---


def binomial(eta: float, M: int, dim: int) -> FockState:
    """Amplitudes [C(M,n) eta^n (1-eta)^(M-n)]^(1/2) on n in [0, M].

    Probabilities are built by the pmf recurrence so large M stays in
    range where direct powers would underflow.
    """
    eta = _check_eta(eta)
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    probs = np.zeros(dim)
    probs[0] = (1.0 - eta) ** M
    for n in range(M):
        probs[n + 1] = probs[n] * (M - n) / (n + 1) * eta / (1.0 - eta)
    amps, c = _normalized(np.sqrt(probs).astype(complex))
    return make_state(
        amps,
        parity=None,
        norm_constant=c,
        label=f"binomial(eta={eta!r}, M={M})",
    )


def hypergeometric(L: float, eta: float, M: int, dim: int) -> FockState:
    """Amplitudes [C(L eta, n) C(L (1-eta), M-n) / C(L, M)]^(1/2) with
    generalized binomials evaluated as literal products."""
    eta = _check_eta(eta)
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    L = float(L)
    if L < max(M / eta, M / (1.0 - eta)):
        raise ParameterError("L must satisfy L >= max(M/eta, M/(1-eta))")
    denom = generalized_binomial(L, M)
    raw = np.zeros(dim, dtype=complex)
    for n in range(M + 1):
        prob = (
            generalized_binomial(L * eta, n)
            * generalized_binomial(L * (1.0 - eta), M - n)
            / denom
        )
        if prob < 0:
            raise ParameterError(
                f"internal consistency failure: negative weight at n={n}"
            )
        raw[n] = math.sqrt(prob)
    amps, c = _normalized(raw)
    return make_state(
        amps,
        norm_constant=c,
        label=f"hypergeometric(L={L!r}, eta={eta!r}, M={M})",
    )


def polya(eta: float, gamma: float, M: int, dim: int) -> FockState:
    """Amplitudes C(M,n)^(1/2) [prod (eta+(k-1)gamma) prod ((1-eta)+(k-1)gamma)
    / prod (1+(k-1)gamma)]^(1/2), running products of nonnegative factors."""
    eta = _check_eta(eta)
    if not gamma > 0:
        raise ParameterError("gamma must be positive")
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    denom = 1.0
    for k in range(1, M + 1):
        denom *= 1.0 + (k - 1) * gamma
    raw = np.zeros(dim, dtype=complex)
    for n in range(M + 1):
        num = float(math.comb(M, n))
        for k in range(1, n + 1):
            num *= eta + (k - 1) * gamma
        for k in range(1, M - n + 1):
            num *= (1.0 - eta) + (k - 1) * gamma
        raw[n] = math.sqrt(num / denom)
    amps, c = _normalized(raw)
    return make_state(
        amps,
        norm_constant=c,
        label=f"polya(eta={eta!r}, gamma={gamma!r}, M={M})",
    )


def reciprocal_binomial(theta: float, M: int, dim: int) -> FockState:
    """Amplitudes proportional to C(M,n)^(-1/2) e^(i n theta); the
    normalization is always computed numerically and recorded."""
    theta = float(theta)
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    raw = np.zeros(dim, dtype=complex)
    for n in range(M + 1):
        phase = cmath.exp(1j * n * theta)
        comb = math.comb(M, n)
        try:
            raw[n] = phase / math.sqrt(comb)
        except OverflowError:  # C(M, n) past the float range, M >= 1030
            raw[n] = phase * math.exp(-0.5 * math.log(comb))
    amps, c = _normalized(raw)
    return make_state(
        amps,
        norm_constant=c,
        label=f"reciprocal_binomial(theta={theta!r}, M={M})",
    )


def pegg_barnett_phase(grid: PhaseGrid, M: int, dim: int) -> FockState:
    """Flat-modulus phase state (M+1)^(-1/2) e^(i n theta_m) on n in [0, M].

    The grid size is pinned to s = M so the s+1 grid states form an
    orthonormal set on the (M+1)-dimensional space.
    """
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    if grid.s != M:
        raise ParameterError("grid.s must equal M")
    raw = np.zeros(dim, dtype=complex)
    for n in range(M + 1):
        raw[n] = cmath.exp(1j * n * grid.theta_m)
    amps, c = _normalized(raw)
    return make_state(
        amps,
        norm_constant=c,
        label=f"pegg_barnett_phase(theta0={grid.theta0!r}, s={grid.s}, m={grid.m}, M={M})",
    )


def generalized_geometric(Y: complex, M: int, dim: int) -> FockState:
    """Amplitudes [(1-|Y|)/(1-|Y|^(M+1))]^(1/2) Y^(n/2), with Y^(1/2) on
    the principal branch (a documented convention for complex Y)."""
    Y = complex(Y)
    if abs(Y) == 1.0:
        raise ParameterError("|Y| must not be 1")
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    root = cmath.sqrt(Y)
    raw = np.zeros(dim, dtype=complex)
    for n in range(M + 1):
        raw[n] = root**n
    amps, c = _normalized(raw)
    return make_state(
        amps,
        norm_constant=c,
        label=f"generalized_geometric(Y={format_complex(Y)}, M={M})",
    )


# --- infinite-support families ---


def coherent(alpha: complex, dim: int) -> FockState:
    """Amplitudes e^(-|alpha|^2/2) alpha^n / sqrt(n!)."""
    alpha = complex(alpha)
    dim = _check_dim(dim)
    raw = np.zeros(dim, dtype=complex)
    raw[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(dim - 1):
        raw[n + 1] = raw[n] * alpha / math.sqrt(n + 1)
    tail = _tail_guard(raw, f"coherent(alpha={format_complex(alpha)})")
    amps, c = _normalized(raw)
    return make_state(
        amps,
        norm_constant=c * math.exp(-abs(alpha) ** 2 / 2.0),
        label=f"coherent(alpha={format_complex(alpha)})",
        leak=tail,
    )


def kerr(alpha: complex, theta: float, dim: int) -> FockState:
    """Coherent amplitudes with the number-dependent phase
    e^(-i theta n (n-1)); the photon statistics stay Poissonian."""
    alpha = complex(alpha)
    theta = float(theta)
    dim = _check_dim(dim)
    base = coherent(alpha, dim)
    phases = np.exp(-1j * theta * np.arange(dim) * (np.arange(dim) - 1.0))
    return make_state(
        base.amplitudes * phases,
        norm_constant=base.norm_constant,
        label=f"kerr(alpha={format_complex(alpha)}, theta={theta!r})",
        leak=base.leak,
    )


def geometric(eta: float, dim: int) -> FockState:
    """Amplitudes eta^(1/2) (1-eta)^(n/2); dropped tail is (1-eta)^dim."""
    eta = _check_eta(eta)
    dim = _check_dim(dim)
    raw = math.sqrt(eta) * np.sqrt((1.0 - eta) ** np.arange(dim)).astype(complex)
    tail = _tail_guard(raw, f"geometric(eta={eta!r})")
    amps, c = _normalized(raw)
    return make_state(
        amps,
        norm_constant=c * math.sqrt(eta),
        label=f"geometric(eta={eta!r})",
        leak=tail,
    )


def negative_binomial(eta: float, M: int, dim: int) -> FockState:
    """Amplitudes (1-eta)^(M/2) C(M+n-1, n)^(1/2) eta^(n/2), M >= 1."""
    eta = _check_eta(eta)
    M = _check_count(M, "M", minimum=1)
    dim = _check_dim(dim)
    coeff = negative_binomial_coeffs(eta, M)
    raw = (1.0 - eta) ** (M / 2.0) * np.array(
        [coeff(n) for n in range(dim)], dtype=complex
    )
    tail = _tail_guard(raw, f"negative_binomial(eta={eta!r}, M={M})")
    amps, c = _normalized(raw)
    return make_state(
        amps,
        norm_constant=c * (1.0 - eta) ** (M / 2.0),
        label=f"negative_binomial(eta={eta!r}, M={M})",
        leak=tail,
    )


def new_negative_binomial(eta: float, M: int, dim: int) -> FockState:
    """Amplitudes [C(n, M) eta^(M+1) (1-eta)^(n-M)]^(1/2) for n >= M;
    the first M Fock levels are exactly absent."""
    eta = _check_eta(eta)
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    coeff = new_negative_binomial_coeffs(eta, M)
    raw = eta ** ((M + 1) / 2.0) * np.array(
        [coeff(n) for n in range(dim)], dtype=complex
    )
    tail = _tail_guard(raw, f"new_negative_binomial(eta={eta!r}, M={M})")
    amps, c = _normalized(raw)
    return make_state(
        amps,
        norm_constant=c * eta ** ((M + 1) / 2.0),
        label=f"new_negative_binomial(eta={eta!r}, M={M})",
        leak=tail,
    )


# --- derived constructions ---


def photon_add(base: FockState, M: int) -> FockState:
    """Add M quanta: normalize a^(dagger M)|base>; amplitude n picks up
    base[n-M] sqrt(n!/(n-M)!).  norm_constant records the renormalization.
    """
    M = _check_count(M, "M")
    dim = base.dim
    raw = np.zeros(dim, dtype=complex)
    spill = 0.0
    for m in range(dim):
        if base.amplitudes[m] == 0:
            continue
        weight = base.amplitudes[m] * ladder_factor(m, M)
        if m + M >= dim:
            spill += abs(weight) ** 2
        else:
            raw[m + M] = weight
    total = float(np.vdot(raw, raw).real) + spill
    frac = spill / total if total else 1.0
    if frac > TAIL_TOL:
        raise TailMassError(
            f"photon addition pushes mass fraction {frac:.3e} > {TAIL_TOL:.0e} "
            "beyond the truncation; increase dim"
        )
    amps, c = _normalized(raw)
    return make_state(
        amps,
        norm_constant=c,
        label=f"photon_add({base.label}, M={M})",
        leak=frac,
    )


def intermediate_nlcs(
    p: IntermediateParams, dim: int, *, tail_check: bool = True
) -> FockState:
    """Solve (sqrt(eta) N + sqrt(1-eta) f(N) a)|s> = alpha|s> by the forward
    recursion C(n+1) = (alpha - sqrt(eta) n) C(n) / (sqrt(1-eta) f(n) sqrt(n+1)).

    The sequence is extended one window past dim to measure the mass
    fraction beyond the truncation; with tail_check the constructor
    refuses fractions above 1e-10 (non-normalizable alpha), without it
    the state is returned with that fraction recorded as leak.
    """
    dim = _check_dim(dim)
    window = 32
    seq = np.zeros(dim + window, dtype=complex)
    seq[0] = 1.0
    sqrt_eta = math.sqrt(p.eta)
    sqrt_etabar = math.sqrt(1.0 - p.eta)
    for n in range(dim + window - 1):
        fn = p.f_at(n)
        if fn == 0:
            raise ParameterError(f"f must be nonzero on [0, dim-2]; f({n}) = 0")
        seq[n + 1] = (p.alpha_eig - sqrt_eta * n) * seq[n] / (
            sqrt_etabar * fn * math.sqrt(n + 1)
        )
        peak = np.abs(seq[: n + 2]).max()
        if peak > 1e120:  # rescale divergent recursions before they overflow
            seq[: n + 2] /= peak
    total = float(np.vdot(seq, seq).real)
    frac = float(np.vdot(seq[dim:], seq[dim:]).real) / total
    if tail_check and frac > 1e-10:
        raise TailMassError(
            f"recursion mass fraction {frac:.3e} beyond dim exceeds 1e-10; "
            "the eigenvalue does not give a normalizable state at this truncation"
        )
    amps, c = _normalized(seq[:dim])
    return make_state(
        amps,
        norm_constant=c,
        label=(
            f"intermediate_nlcs(eta={p.eta!r}, "
            f"alpha={format_complex(p.alpha_eig)})"
        ),
        leak=frac,
    )
