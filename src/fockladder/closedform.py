"""Closed-form coefficients C(n), the suites' independent oracle.

From the package this reads only the range rules, error and formatter
of states.py, and only verify.py reads it (tests/test_closedform.py
holds both rules).  Each route opens with its constructor's range
checks, so every entry point refuses an input with the constructor's
message; a non-finite alpha, which a constructor refuses only by its
non-finite amplitudes, is refused by name.

Each route is a Coeffs, a diagonal in the array form of core._ArrayDiag.
c.values(ns) and c(n) each run the route's formula once and raise what
it raises; a builder's read re-reads a fault by the first-fault rule of
core._diag_values.  They give the bits of the route's per-index Python
formula, which tests/_oracles.py keeps as the reference, because every
element goes through exactly the operations that formula makes:

- float +, -, * and / are numpy's, which round as Python's do;
- lgamma, exp, cmath.exp, ** and abs are Python's own, called once per
  element (_each): numpy's twins round some results differently;
- a complex product or quotient is written out in real parts as CPython
  3.10-3.13 forms it, a real operand read as x + 0j (_prod, _quot); the
  builders' arithmetic in core.py is not shared, since the oracle checks
  it.

finite_F and raising_F form the structure functions from a table of C
by the same rules.
"""

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
    _check_finite,
    _check_gamma,
    _check_pair_alpha,
    _check_r,
    _check_sector_dim,
    format_complex,
)


class Coeffs:
    """C(n) of one route: formula(ns) on the support lo <= n <= hi and 0.0
    elsewhere, read by values(ns) or c(n), each one run of the formula
    (see the module docstring)."""

    __slots__ = ("lo", "hi", "_formula")
    __name__ = "c"  # an instance reads by name as the function c(n) it is

    def __init__(
        self, lo: float, hi: float, formula: Callable[[np.ndarray], np.ndarray]
    ) -> None:
        self.lo, self.hi, self._formula = lo, hi, formula

    def values(self, ns: np.ndarray) -> np.ndarray:
        i, j = ns.searchsorted(self.lo), ns.searchsorted(self.hi, "right")
        if i >= j:
            return np.zeros(len(ns))
        with np.errstate(all="ignore"):  # as Python's float arithmetic
            inside = self._formula(ns[i:j])
        if j - i == len(ns):
            return inside
        out = np.zeros(len(ns), dtype=inside.dtype)
        out[i:j] = inside
        return out

    def __call__(self, n: int) -> complex:
        if not self.lo <= n <= self.hi:
            return 0.0
        with np.errstate(all="ignore"):
            return self._formula(np.array([n])).item()


def _each(fn: Callable, x: np.ndarray, dtype=float) -> np.ndarray:
    """fn at each element of x, read as a Python scalar."""
    return np.fromiter(map(fn, x.tolist()), dtype, len(x))


def _square(x: np.ndarray) -> np.ndarray:
    """x ** 2 at each element, Python's own (libm's pow)."""
    return _each((2.0).__rpow__, x)


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _prod(ar, ai, br, bi) -> np.ndarray:
    """(ar + i ai)(br + i bi) as CPython forms it: each part rounded on
    its own, a real operand with the imaginary part 0.0."""
    return _complex(ar * br - ai * bi, ar * bi + ai * br)


def _parts(x: np.ndarray):
    """x as (real, imaginary) parts, a float array reading as x + 0j."""
    return (x.real, x.imag) if x.dtype.kind == "c" else (x, 0.0)


def _quot(ar, ai, br, bi) -> np.ndarray:
    """(ar + i ai)/(br + i bi) as CPython's _Py_c_quot forms it, at finite
    nonzero divisors."""
    br, bi = np.asarray(br, dtype=float), np.asarray(bi, dtype=float)
    by_re = abs(br) >= abs(bi)
    ratio = np.where(by_re, bi / br, br / bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return _complex(re, im)


def _lgamma(x):
    return _each(math.lgamma, x) if isinstance(x, np.ndarray) else math.lgamma(x)


def _log_comb(a, b):
    """log C(a, b) through lgamma, at scalars or arrays."""
    return _lgamma(a + 1) - _lgamma(b + 1) - _lgamma(a - b + 1)


def _cexp(z: np.ndarray) -> np.ndarray:
    return _each(cmath.exp, z, complex)


def _unit_phase(theta: float, ns: np.ndarray) -> np.ndarray:
    """cmath.exp(1j * n * theta)."""
    w = _prod(0.0, 1.0, ns.astype(float), 0.0)
    return _cexp(_prod(w.real, w.imag, theta, 0.0))


def _ones(ns: np.ndarray) -> np.ndarray:
    return np.ones(len(ns))


# --- unnormalized routes: the ladder diagonals use only coefficient ratios ---


def coherent_coeffs(alpha: complex) -> Coeffs:
    """c(n) = alpha^n / sqrt(n!), from logs."""
    alpha = _check_finite(complex(alpha), "alpha")
    if alpha == 0:
        return Coeffs(0, 0, _ones)
    log_a = cmath.log(alpha)

    def c(ns: np.ndarray) -> np.ndarray:
        # cmath.exp(n * log_a - 0.5 * math.lgamma(n + 1))
        z = _prod(ns.astype(float), 0.0, log_a.real, log_a.imag)
        return _cexp(_complex(z.real - 0.5 * _lgamma(ns + 1), z.imag - 0.0))

    return Coeffs(0, math.inf, c)


def kerr_coeffs(alpha: complex, theta: float) -> Coeffs:
    """The coherent c(n) times e^(-i theta n (n-1))."""
    theta = _check_angle(theta)
    base = coherent_coeffs(alpha)
    w0 = -1j * theta

    def c(ns: np.ndarray) -> np.ndarray:
        b = base.values(ns)
        nf = ns.astype(float)
        w = _prod(w0.real, w0.imag, nf, 0.0)
        phase = _cexp(_prod(w.real, w.imag, nf - 1.0, 0.0))
        return _prod(*_parts(b), phase.real, phase.imag)

    return Coeffs(0, math.inf, c)


def geometric_coeffs(eta: float) -> Coeffs:
    """c(n) = (1-eta)^(n/2)."""
    eta = _check_eta(eta)
    return Coeffs(0, math.inf, lambda ns: _each((1.0 - eta).__pow__, ns / 2.0))


# --- sector coefficients of the two-photon families (unnormalized beyond
# overall constants); sector index n stands for level 2n+j ---


def _squeezed_sector_coeffs(r: float, theta: float, dim: int, j: int) -> Coeffs:
    """Sector j of a squeezed state in a truncation of dim levels."""
    _check_r(r)
    _check_sector_dim(dim, j)
    theta = _check_angle(theta)
    t = math.tanh(r)
    if t / 2 == 0.0:  # the state is |j>, as where r = 0
        return Coeffs(0, 0, _ones)
    log_half_t, w0 = math.log(t / 2), 1j * theta

    def c(ns: np.ndarray) -> np.ndarray:
        # math.exp(log_mag) * cmath.exp(1j * theta * n)
        nf = ns.astype(float)
        log_mag = 0.5 * _lgamma(2 * ns + 1 + j) + nf * log_half_t - _lgamma(ns + 1)
        mag = _each(math.exp, log_mag)
        phase = _cexp(_prod(w0.real, w0.imag, nf, 0.0))
        return _prod(mag, 0.0, phase.real, phase.imag)

    return Coeffs(0, math.inf, c)


def svs_sector_coeffs(r: float, theta: float, dim: int) -> Coeffs:
    """c(n) = sqrt((2n)!) (e^{i theta} tanh r / 2)^n / n!"""
    return _squeezed_sector_coeffs(r, theta, dim, 0)


def sfes_sector_coeffs(r: float, theta: float, dim: int) -> Coeffs:
    """c(n) = sqrt((2n+1)!) (e^{i theta} tanh r / 2)^n / n!"""
    return _squeezed_sector_coeffs(r, theta, dim, 1)


def _coherent_sector_coeffs(alpha: complex, j: int) -> Coeffs:
    """The coherent coefficients at level 2n+j."""
    base = coherent_coeffs(_check_pair_alpha(alpha, j))
    return Coeffs(0, math.inf, lambda ns: base.values(2 * ns + j))


def ecs_sector_coeffs(alpha: complex) -> Coeffs:
    """c(n) = alpha^{2n} / sqrt((2n)!)"""
    return _coherent_sector_coeffs(alpha, 0)


def ocs_sector_coeffs(alpha: complex) -> Coeffs:
    """c(n) = alpha^{2n+1} / sqrt((2n+1)!)"""
    return _coherent_sector_coeffs(alpha, 1)


# --- normalized routes, read by the distribution cross-check ---


def _cf_binomial(eta: float, M: int) -> Coeffs:
    eta, M = _check_eta(eta), _check_count(M, "M")
    log_eta, log_rest = math.log(eta), math.log(1 - eta)

    def c(ns: np.ndarray) -> np.ndarray:
        log_c = _log_comb(M, ns) + ns * log_eta + (M - ns) * log_rest
        return _each(math.exp, 0.5 * log_c)

    return Coeffs(0, M, c)


def _cf_hypergeometric(L: float, eta: float, M: int) -> Coeffs:
    eta, M = _check_eta(eta), _check_count(M, "M")
    L = _check_L(L, eta, M)
    Le, Lb = L * eta, L * (1 - eta)
    logZ = _log_comb(L, M)

    def c(ns: np.ndarray) -> np.ndarray:
        return _each(math.exp, 0.5 * (_log_comb(Le, ns) + _log_comb(Lb, M - ns) - logZ))

    return Coeffs(0, M, c)


def _cf_polya(eta: float, gamma: float, M: int) -> Coeffs:
    eta = _check_eta(eta)
    gamma, M = _check_gamma(gamma, M)
    gamma = float(gamma)  # so that x / gamma overflows with no numpy warning

    def log_rising(x: float, m: np.ndarray) -> np.ndarray:
        # m log(gamma) + lgamma(x/gamma + m) - lgamma(x/gamma), 0.0 at m = 0
        out = np.zeros(len(m))
        live = m.nonzero()[0]
        if not len(live):
            return out
        if x / gamma == 0:  # lgamma's pole: x / gamma fell below the float range
            raise ParameterError(
                f"eta={eta!r} and gamma={gamma!r} round eta/gamma or (1-eta)/gamma to 0 in "
                "the polya closed form; use a smaller gamma or an eta farther from 0 and 1"
            )
        if math.isinf(x / gamma):  # lgamma(inf + m) - lgamma(inf) is inf - inf
            raise ParameterError(
                f"eta={eta!r} and gamma={gamma!r} overflow eta/gamma, (1-eta)/gamma or "
                "1/gamma in the polya closed form; use a larger gamma"
            )
        m = m[live]
        out[live] = m * math.log(gamma) + _lgamma(x / gamma + m) - math.lgamma(x / gamma)
        return out

    logZ = log_rising(1.0, np.array([M]))[0]

    def c(ns: np.ndarray) -> np.ndarray:
        log_c = (
            _log_comb(M, ns) + log_rising(eta, ns) + log_rising(1 - eta, M - ns) - logZ
        )
        return _each(math.exp, 0.5 * log_c)

    return Coeffs(0, M, c)


def _cf_reciprocal_binomial(theta: float, M: int) -> Coeffs:
    M = _check_count(M, "M")
    theta = _check_angle(theta)
    # x / C(M, k) and x / sqrt(C(M, k)); past the float range of C(M, k)
    # (M >= 1030) x times exp(-log C(M, k)) or its root, through lgamma
    inverses, roots, scales = [], [], []
    for k in range(M + 1):
        comb = math.comb(M, k)
        try:
            inverses.append(1.0 / comb)
        except OverflowError:
            inverses.append(1.0 * math.exp(-1.0 * _log_comb(M, k)))
        try:
            roots.append(math.sqrt(comb))
            scales.append(math.nan)
        except OverflowError:
            roots.append(math.nan)
            scales.append(math.exp(-0.5 * _log_comb(M, k)))
    Z = math.sqrt(sum(inverses))
    roots, scales = np.array(roots), np.array(scales)

    def c(ns: np.ndarray) -> np.ndarray:
        # cmath.exp(1j * n * theta) / sqrt(C(M, n)) / Z
        x = _unit_phase(theta, ns)
        root = roots[ns]
        scaled = _quot(x.real, x.imag, root, 0.0)
        big = np.isnan(root)
        if big.any():
            scaled[big] = _prod(x.real[big], x.imag[big], scales[ns][big], 0.0)
        return _quot(scaled.real, scaled.imag, Z, 0.0)

    return Coeffs(0, M, c)


def _cf_phase(theta_m: float, M: int) -> Coeffs:
    M = _check_count(M, "M")
    pref = 1.0 / math.sqrt(M + 1)

    def c(ns: np.ndarray) -> np.ndarray:
        phase = _unit_phase(theta_m, ns)
        return _prod(pref, 0.0, phase.real, phase.imag)

    return Coeffs(0, M, c)


def _cf_generalized_geometric(Y: complex, M: int) -> Coeffs:
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

    def c(ns: np.ndarray) -> np.ndarray:
        # pref * scale ** (n - M) * unit ** n: a real weight times a complex
        # power; at scale 1 these are the bytes of pref * root**n, signed
        # zeros included
        weight = pref * _each(scale.__pow__, ns - M)
        power = _each(unit.__pow__, ns, complex)
        return _prod(weight, 0.0, power.real, power.imag)

    return Coeffs(0, M, c)


def _cf_negative_binomial(eta: float, M: int) -> Coeffs:
    # (1-eta)^(M/2) C(M+n-1, n)^(1/2) eta^(n/2), normalized exactly
    eta, M = _check_eta(eta), _check_count(M, "M", minimum=1)
    log_pref, log_eta = 0.5 * M * math.log(1 - eta), math.log(eta)

    def c(ns: np.ndarray) -> np.ndarray:
        log_c = _log_comb(M + ns - 1, ns) + ns * log_eta
        return _each(math.exp, log_pref + 0.5 * log_c)

    return Coeffs(0, math.inf, c)


def _cf_nnbs(eta: float, M: int) -> Coeffs:
    # exact closed-form normalization: sum comb(n,M) (1-eta)^(n-M) over
    # n >= M is eta^-(M+1)
    eta, M = _check_eta(eta), _check_count(M, "M")
    log_pref, log_rest = 0.5 * (M + 1) * math.log(eta), math.log(1 - eta)

    def c(ns: np.ndarray) -> np.ndarray:
        log_c = _log_comb(ns, M) + (ns - M) * log_rest
        return _each(math.exp, log_pref + 0.5 * log_c)

    return Coeffs(M, math.inf, c)


def _cf_pacs(alpha: complex, M: int, dim: int) -> Coeffs:
    alpha, M = _check_finite(complex(alpha), "alpha"), _check_count(M, "M")
    dim = _check_dim(dim, M)  # the window below holds no amplitude otherwise

    if alpha == 0:
        raw = Coeffs(M, M, _ones)
    else:
        log_a = cmath.log(alpha)

        def term(ns: np.ndarray) -> np.ndarray:
            # cmath.exp((n - M) * log_a + 0.5 * lgamma(n + 1) - lgamma(n - M + 1))
            z = _prod((ns - M).astype(float), 0.0, log_a.real, log_a.imag)
            re = z.real + 0.5 * _lgamma(ns + 1) - _lgamma(ns - M + 1)
            return _cexp(_complex(re, z.imag + 0.0 - 0.0))

        raw = Coeffs(M, math.inf, term)

    # the tail above the window is far below the comparison tolerance at
    # any dim the registry uses, so a window normalization is exact enough.
    # The moduli are scaled by the power of two of the largest, which is
    # exact, so that no square leaves the float range
    window = raw.values(np.arange(dim))
    moduli = _each(abs, window)
    e = math.frexp(moduli.max())[1]
    squares = _square(np.ldexp(moduli, -e))
    K = math.ldexp(1.0 / math.sqrt(sum(squares.tolist())), -e)

    def c(ns: np.ndarray) -> np.ndarray:
        # K * raw(n), raw read from the window inside it
        k = ns.searchsorted(dim)
        r = window[ns[:k]]
        if k < len(ns):
            r = np.concatenate((r, raw.values(ns[k:])))
        return K * r if r.dtype.kind == "f" else _prod(K, 0.0, r.real, r.imag)

    return Coeffs(M, math.inf, c)


# --- structure functions from a table of C ---


def _ratio_F(num: np.ndarray, den: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """weight * abs(num / den) ** 2 per entry, 0.0 where num is 0, with
    Python's bits.  Finite values and nonzero divisors take the array route
    (np.hypot is abs of a complex there); any other entry, which may
    raise, sends the whole table through Python's scalar operators, so
    the first fault raises as they raise it."""
    out = np.zeros(len(num))
    live = num.nonzero()[0]
    a, b = num[live], den[live]
    with np.errstate(all="ignore"):
        if np.isfinite(a).all() and np.isfinite(b).all() and b.all():
            if a.dtype.kind == "c":  # num and den are read from one table
                q = _quot(a.real, a.imag, b.real, b.imag)
                m = np.hypot(q.real, q.imag)
            else:
                m = np.abs(a / b)
            if np.isfinite(m).all():
                try:
                    out[live] = weight[live] * _square(m)
                    return out
                except OverflowError:
                    pass
    scalar = [
        w * abs(x / y) ** 2 if x != 0 else 0.0
        for x, y, w in zip(num.tolist(), den.tolist(), weight.tolist())
    ]
    return np.array(scalar, dtype=float)


def finite_F(table: np.ndarray, M: int) -> np.ndarray:
    """F(n) = (M-n+1)^2 |C(n-1)/C(n)|^2 on [1, M], 0.0 elsewhere, over
    the table's indices (E12)."""
    F = np.zeros(len(table))
    n = np.arange(1, min(M + 1, len(table)))
    F[n] = _ratio_F(table[n - 1], table[n], (M - n + 1) ** 2)
    return F


def raising_F(table: np.ndarray, M: int) -> np.ndarray:
    """F(n) = (n-M)^2 |C(n)/C(n-1)|^2 on n > M, 0.0 elsewhere, over the
    table's indices; M = 0 gives the general and sector forms (E44, E54,
    E87)."""
    F = np.zeros(len(table))
    n = np.arange(M + 1, len(table))
    F[n] = _ratio_F(table[n], table[n - 1], (n - M) ** 2)
    return F
