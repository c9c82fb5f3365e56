"""Closed-form coefficients C(n), the suites' independent oracle.

From the package this reads only the range rules, error and formatter
of states.py, and only verify.py reads it (tests/test_closedform.py
holds both rules).  Each route opens with its constructor's range
checks, so every entry point refuses an input with the constructor's
message; a non-finite alpha or theta, which a constructor refuses only
by its non-finite amplitudes, is refused by name."""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .states import (
    ParameterError,
    _check_L,
    _check_Y,
    _check_angle,
    _check_count,
    _check_dim,
    _check_eta,
    _check_gamma,
    _check_pair_alpha,
    _check_r,
    _check_sector_dim,
    format_complex,
)

CoeffFn = Callable[[int], complex]


def _support(lo: float, hi: float, fn: CoeffFn) -> CoeffFn:
    """fn on the support lo <= n <= hi and 0.0 elsewhere, named c."""

    def c(n: int) -> complex:
        return fn(n) if lo <= n <= hi else 0.0

    return c


def _check_finite(value: complex, name: str) -> complex:
    if not cmath.isfinite(value):
        raise ParameterError(f"{name} must be finite")
    return value


def _log_comb(a: float, b: float) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


# --- unnormalized routes: the ladder diagonals use only coefficient ratios ---


def coherent_coeffs(alpha: complex) -> CoeffFn:
    """c(n) = alpha^n / sqrt(n!), from logs."""
    alpha = _check_finite(complex(alpha), "alpha")
    if alpha == 0:
        return _support(0, 0, lambda n: 1.0)
    log_a = cmath.log(alpha)
    return _support(0, math.inf, lambda n: cmath.exp(n * log_a - 0.5 * math.lgamma(n + 1)))


def kerr_coeffs(alpha: complex, theta: float, dim: int) -> CoeffFn:
    """The coherent c(n) times e^(-i theta n (n-1)), theta bounded at dim as in kerr."""
    theta = _check_angle(theta, _check_dim(dim) ** 2)
    base = coherent_coeffs(alpha)
    return lambda n: base(n) * cmath.exp(-1j * theta * n * (n - 1))


def geometric_coeffs(eta: float) -> CoeffFn:
    """c(n) = (1-eta)^(n/2)."""
    eta = _check_eta(eta)
    return _support(0, math.inf, lambda n: (1.0 - eta) ** (n / 2.0))


# --- sector coefficients of the two-photon families (unnormalized beyond
# overall constants); sector index n stands for level 2n+j ---


def _squeezed_sector_coeffs(r: float, theta: float, dim: int, j: int) -> CoeffFn:
    """Sector j of a squeezed state in a truncation of dim levels; theta is
    bounded at the sector size, the largest n the builders read c at, as in
    the constructor."""
    _check_r(r)
    _, n_sector = _check_sector_dim(dim, j)
    theta = _check_angle(_check_finite(theta, "theta"), n_sector)
    t = math.tanh(r)
    if t == 0.0:
        return _support(0, 0, lambda n: 1.0)

    def c(n: int) -> complex:
        log_mag = (
            0.5 * math.lgamma(2 * n + 1 + j) + n * math.log(t / 2) - math.lgamma(n + 1)
        )
        return math.exp(log_mag) * cmath.exp(1j * theta * n)

    return _support(0, math.inf, c)


def svs_sector_coeffs(r: float, theta: float, dim: int) -> CoeffFn:
    """c(n) = sqrt((2n)!) (e^{i theta} tanh r / 2)^n / n!"""
    return _squeezed_sector_coeffs(r, theta, dim, 0)


def sfes_sector_coeffs(r: float, theta: float, dim: int) -> CoeffFn:
    """c(n) = sqrt((2n+1)!) (e^{i theta} tanh r / 2)^n / n!"""
    return _squeezed_sector_coeffs(r, theta, dim, 1)


def _coherent_sector_coeffs(alpha: complex, j: int) -> CoeffFn:
    """The coherent coefficients at level 2n+j."""
    base = coherent_coeffs(_check_pair_alpha(alpha, j))

    def c(n: int) -> complex:
        return base(2 * n + j)

    return c


def ecs_sector_coeffs(alpha: complex) -> CoeffFn:
    """c(n) = alpha^{2n} / sqrt((2n)!)"""
    return _coherent_sector_coeffs(alpha, 0)


def ocs_sector_coeffs(alpha: complex) -> CoeffFn:
    """c(n) = alpha^{2n+1} / sqrt((2n+1)!)"""
    return _coherent_sector_coeffs(alpha, 1)


# --- normalized routes, read by the distribution cross-check ---


def _cf_binomial(eta: float, M: int) -> CoeffFn:
    eta, M = _check_eta(eta), _check_count(M, "M")

    def c(n: int) -> complex:
        return math.exp(
            0.5
            * (_log_comb(M, n) + n * math.log(eta) + (M - n) * math.log(1 - eta))
        )

    return _support(0, M, c)


def _cf_hypergeometric(L: float, eta: float, M: int) -> CoeffFn:
    eta, M = _check_eta(eta), _check_count(M, "M")
    L = _check_L(L, eta, M)
    Le, Lb = L * eta, L * (1 - eta)
    logZ = _log_comb(L, M)

    def c(n: int) -> complex:
        return math.exp(0.5 * (_log_comb(Le, n) + _log_comb(Lb, M - n) - logZ))

    return _support(0, M, c)


def _cf_polya(eta: float, gamma: float, M: int) -> CoeffFn:
    eta = _check_eta(eta)
    gamma, M = _check_gamma(gamma, M)

    def log_rising(x: float, m: int) -> float:
        if m == 0:
            return 0.0
        if x / gamma == 0:  # lgamma's pole: x / gamma fell below the float range
            raise ParameterError(
                f"eta={eta!r} and gamma={gamma!r} round eta/gamma or (1-eta)/gamma to 0 in "
                "the polya closed form; use a smaller gamma or an eta farther from 0 and 1"
            )
        return m * math.log(gamma) + math.lgamma(x / gamma + m) - math.lgamma(x / gamma)

    logZ = log_rising(1.0, M)

    def c(n: int) -> complex:
        return math.exp(
            0.5
            * (
                _log_comb(M, n)
                + log_rising(eta, n)
                + log_rising(1 - eta, M - n)
                - logZ
            )
        )

    return _support(0, M, c)


def _cf_reciprocal_binomial(theta: float, M: int) -> CoeffFn:
    M = _check_count(M, "M")
    theta = _check_angle(theta, M)

    def over_comb(x: complex, k: int, root: bool) -> complex:
        # x / C(M, k) or x / sqrt(C(M, k)); past the float range of
        # C(M, k) (M >= 1030) through lgamma
        comb = math.comb(M, k)
        try:
            return x / (math.sqrt(comb) if root else comb)
        except OverflowError:
            return x * math.exp(-(0.5 if root else 1.0) * _log_comb(M, k))

    Z = math.sqrt(sum(over_comb(1.0, k, False) for k in range(M + 1)))
    return _support(0, M, lambda n: over_comb(cmath.exp(1j * n * theta), n, True) / Z)


def _cf_phase(theta_m: float, M: int) -> CoeffFn:
    pref = 1.0 / math.sqrt(M + 1)
    return _support(0, M, lambda n: pref * cmath.exp(1j * n * theta_m))


def _cf_generalized_geometric(Y: complex, M: int) -> CoeffFn:
    Y, M = _check_Y(Y), _check_count(M, "M")
    if Y == 0 and M > 0:
        # the state is the vacuum, but every ladder diagonal divides by C(n)
        raise ParameterError(
            "Y must be nonzero for M >= 1: the ladder operators divide by "
            "C(n) = 0 at n >= 1"
        )
    root = cmath.sqrt(Y)
    mod = abs(Y)
    # for |Y| > 1 divide |Y|^(M/2) out, as the constructor does
    scale = max(1.0, abs(root))
    unit = root / scale
    if mod < 1.0:
        pref = math.sqrt((1 - mod) / (1 - mod ** (M + 1)))
    else:
        pref = math.sqrt((1 - 1 / mod) / (1 - mod ** -(M + 1)))
        if pref * scale**-M < np.finfo(float).tiny:  # C(0), the least; pref <= 1
            raise ParameterError(
                f"C(0) of generalized_geometric underflows at Y={format_complex(Y)}, "
                f"M={M}; use a smaller |Y| or M"
            )
    # a real weight times a complex power: at scale 1 these are the bytes
    # of pref * root**n, signed zeros included
    return _support(0, M, lambda n: pref * scale ** (n - M) * unit**n)


def _cf_negative_binomial(eta: float, M: int) -> CoeffFn:
    # (1-eta)^(M/2) C(M+n-1, n)^(1/2) eta^(n/2), normalized exactly
    eta, M = _check_eta(eta), _check_count(M, "M", minimum=1)
    log_pref = 0.5 * M * math.log(1 - eta)

    def c(n: int) -> complex:
        return math.exp(
            log_pref + 0.5 * (_log_comb(M + n - 1, n) + n * math.log(eta))
        )

    return _support(0, math.inf, c)


def _cf_nnbs(eta: float, M: int) -> CoeffFn:
    # exact closed-form normalization: sum comb(n,M) (1-eta)^(n-M) over
    # n >= M is eta^-(M+1)
    eta, M = _check_eta(eta), _check_count(M, "M")
    log_pref = 0.5 * (M + 1) * math.log(eta)

    def c(n: int) -> complex:
        return math.exp(
            log_pref
            + 0.5 * (_log_comb(n, M) + (n - M) * math.log(1 - eta))
        )

    return _support(M, math.inf, c)


def _cf_pacs(alpha: complex, M: int, dim: int) -> CoeffFn:
    alpha, M = complex(alpha), _check_count(M, "M")
    dim = _check_dim(dim, M)  # the window below holds no amplitude otherwise

    def term(n: int) -> complex:
        return cmath.exp(
            (n - M) * cmath.log(alpha) + 0.5 * math.lgamma(n + 1) - math.lgamma(n - M + 1)
        )

    raw = _support(M, M, lambda n: 1.0) if alpha == 0 else _support(M, math.inf, term)

    # the tail above the window is far below the comparison tolerance at
    # any dim the registry uses, so a window normalization is exact enough.
    # The moduli are scaled by the power of two of the largest, which is
    # exact, so that no square leaves the float range
    moduli = [abs(raw(n)) for n in range(dim)]
    e = math.frexp(max(moduli))[1]
    K = math.ldexp(1.0 / math.sqrt(sum(math.ldexp(m, -e) ** 2 for m in moduli)), -e)
    return lambda n: K * raw(n)
