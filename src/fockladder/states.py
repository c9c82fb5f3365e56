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
import sys
from itertools import accumulate
from typing import Callable

import numpy as np

from .core import FockState, _one, apply, make_state, operator

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
    try:
        # a complex, even 4+0j, is no count
        count = None if isinstance(value, (complex, np.complexfloating)) else int(value)
    except (ValueError, OverflowError):  # NaN, or an infinite float
        count = None
    if count is None or value != count or count < minimum:
        bound = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ParameterError(f"{name} must be {bound}")
    return count


def _check_dim(dim: int, M: int | None = None) -> int:
    dim = _check_count(dim, "dim", minimum=1)
    if M is not None and dim <= M:
        raise ParameterError("dim must exceed M")
    return dim


def _finish(
    raw: np.ndarray,
    label: str,
    *,
    prefactor: float = 1.0,
    leak: float = 0.0,
    parity: str | None = None,
) -> FockState:
    """The last step of every constructor: normalize raw and record
    norm_constant = prefactor / ||raw||, where prefactor is the
    closed-form constant that raw carries beyond the in-sum coefficients.
    A non-finite entry in raw is refused here, for every family."""
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise ParameterError(
            f"{label} has a non-finite amplitude at n={bad[0]}; use finite "
            "parameters of smaller magnitude"
        )
    scale = 1.0
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(raw))
    if math.isinf(norm):  # the squares pass the float range, the norm need not
        scale = float(np.max(np.abs(raw)))
        raw = raw / scale
        norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise ParameterError("state has no amplitude inside the truncation")
    return make_state(
        raw / norm,
        parity=parity,
        norm_constant=1.0 / norm / scale * prefactor,
        label=label,
        leak=leak,
    )


def _check_angle(theta: float, name: str = "theta") -> float:
    """theta refused unless finite, kept where |theta| <= pi, and elsewhere
    read as atan2(sin theta, cos theta), whose argument libm reduces exactly."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ParameterError(f"{name} must be finite")
    if abs(theta) <= math.pi:
        return theta
    return math.atan2(math.sin(theta), math.cos(theta))


def _check_finite(value: complex, name: str) -> complex:
    if not cmath.isfinite(value):
        raise ParameterError(f"{name} must be finite")
    return value


def _check_gamma(gamma: float, M: int) -> tuple[float, int]:
    """Polya's gamma > 0 and count M, then gamma * M inside the float range."""
    if not gamma > 0:
        raise ParameterError("gamma must be positive")
    M = _check_count(M, "M")
    if math.isinf(gamma * M):
        raise ParameterError("gamma * M must lie inside the float range")
    return gamma, M


def _check_L(L: float, eta: float, M: int) -> float:
    # also keeps L eta >= M and L (1-eta) >= M, where the lgamma route holds
    L = float(L)
    if L < max(M / eta, M / (1.0 - eta)):
        raise ParameterError("L must satisfy L >= max(M/eta, M/(1-eta))")
    return L


def _check_Y(Y: complex) -> complex:
    # at |Y| = 1 the normalizing sum (1-|Y|)/(1-|Y|^(M+1)) is 0 / 0
    Y = complex(Y)
    if abs(Y) == 1.0:
        raise ParameterError("|Y| must not be 1")
    return Y


def _check_r(r: float) -> float:
    """r >= 0 with cosh r inside the float range; returns cosh r."""
    if not r >= 0:
        raise ParameterError("r must be nonnegative")
    try:
        cosh_r = math.cosh(r)
    except OverflowError:
        cosh_r = math.inf
    if math.isinf(cosh_r):  # the seed underflows, so no dim holds the state
        raise ParameterError(
            f"r={float(r)!r} puts cosh r past the float range; use a smaller r"
        )
    return cosh_r


def sector_dim(dim: int, parity_j: int) -> int:
    return (dim - parity_j + 1) // 2


def _check_sector_dim(dim: int, j: int) -> tuple[int, int]:
    """The checked truncation and the size of sector j inside it."""
    dim = _check_count(dim, "dim", minimum=1)
    if j == 1 and dim < 2:
        raise ParameterError("dim must be at least 2 for an odd state")
    return dim, sector_dim(dim, j)


def _check_pair_alpha(alpha: complex, j: int) -> complex:
    alpha = _check_finite(complex(alpha), "alpha")
    if j == 1 and alpha == 0:
        raise ParameterError("alpha must be nonzero for the odd superposition")
    if math.isinf(abs(alpha) * abs(alpha)):  # x * x: inf, not OverflowError
        raise ParameterError("|alpha|^2 must lie inside the float range")
    return alpha


def _check_prefactor(pref: float, alpha: complex, scale: float = 1.0) -> float:
    """pref = scale * e^(-|alpha|^2/2), a coherent-type prefactor, refused
    below the normal float range, where _tail_guard would count its
    rounding as dropped mass at a dim that holds the state."""
    tiny = sys.float_info.min
    if pref < tiny:
        # the largest |alpha| accepted, shown rounded down so that it is
        top = math.sqrt(-2.0 * math.log(tiny / scale))
        raise ParameterError(
            f"alpha={format_complex(alpha)} puts the normalizing prefactor below "
            f"the normal float range; |alpha| must be at most {math.floor(top * 1e4) / 1e4}"
        )
    return pref


def _tail_guard(raw: np.ndarray, what: str) -> float:
    # raw carries the family's closed-form normalization, so the dropped
    # tail is the deficit of the retained mass from 1
    tail = max(0.0, 1.0 - float(np.vdot(raw, raw).real))
    if tail > TAIL_TOL:
        raise TailMassError(
            f"{what} drops tail mass {tail:.3e} > {TAIL_TOL:.0e}; increase dim"
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


# --- finite families ---


def _log_cumprod(factors: np.ndarray) -> np.ndarray:
    """Logs of the running products 1, f0, f0 f1, ... as running sums."""
    return np.concatenate(([0.0], np.cumsum(np.log(factors))))


def _from_log_weights(log_p: np.ndarray, dim: int, label: str) -> FockState:
    """Amplitudes exp(log_p / 2) on n in [0, M].  The weights are scaled by
    the largest one before exponentiating, so none under- or overflows
    ahead of the normalization (Loader 2000); the scale goes into
    norm_constant."""
    top = float(log_p.max())
    raw = np.zeros(dim, dtype=complex)
    raw[: log_p.size] = np.exp(0.5 * (log_p - top))
    return _finish(raw, label, prefactor=math.exp(-0.5 * top))


def binomial(eta: float, M: int, dim: int) -> FockState:
    """Amplitudes [C(M,n) eta^n (1-eta)^(M-n)]^(1/2) on n in [0, M],
    from log weights, so large M or eta near 0 or 1 stays in range."""
    eta = _check_eta(eta)
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    k = np.arange(M)
    n = np.arange(M + 1)
    log_p = (
        _log_cumprod((M - k) / (k + 1))
        + n * math.log(eta)
        + (M - n) * math.log1p(-eta)
    )
    return _from_log_weights(log_p, dim, f"binomial(eta={eta!r}, M={M})")


def hypergeometric(L: float, eta: float, M: int, dim: int) -> FockState:
    """Amplitudes [C(L eta, n) C(L (1-eta), M-n) / C(L, M)]^(1/2), the
    generalized binomials from running sums of their factors' logs, so
    an L past the float range of the products stays in range."""
    eta = _check_eta(eta)
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    L = _check_L(L, eta, M)
    k = np.arange(M)
    with np.errstate(invalid="ignore"):  # L = inf: _finish refuses the NaN
        log_p = (
            _log_cumprod((L * eta - k) / (k + 1))
            + _log_cumprod((L * (1.0 - eta) - k) / (k + 1))[::-1]
            - np.sum(np.log((L - k) / (k + 1)))
        )
    return _from_log_weights(
        log_p, dim, f"hypergeometric(L={L!r}, eta={eta!r}, M={M})"
    )


def polya(eta: float, gamma: float, M: int, dim: int) -> FockState:
    """Amplitudes C(M,n)^(1/2) [prod (eta+(k-1)gamma) prod ((1-eta)+(k-1)gamma)
    / prod (1+(k-1)gamma)]^(1/2), from running sums of the factors' logs."""
    eta = _check_eta(eta)
    gamma, M = _check_gamma(gamma, M)
    dim = _check_dim(dim, M)
    k = np.arange(M)
    log_p = (
        _log_cumprod((M - k) / (k + 1))
        + _log_cumprod(eta + k * gamma)
        + _log_cumprod(1.0 - eta + k * gamma)[::-1]
        - np.sum(np.log(1.0 + k * gamma))
    )
    return _from_log_weights(
        log_p, dim, f"polya(eta={eta!r}, gamma={gamma!r}, M={M})"
    )


def reciprocal_binomial(theta: float, M: int, dim: int) -> FockState:
    """Amplitudes proportional to C(M,n)^(-1/2) e^(i n theta); the
    normalization is always computed numerically and recorded."""
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    theta = _check_angle(theta)
    raw = np.zeros(dim, dtype=complex)
    for n in range(M + 1):
        phase = cmath.exp(1j * n * theta)
        comb = math.comb(M, n)
        try:
            raw[n] = phase / math.sqrt(comb)
        except OverflowError:  # C(M, n) past the float range, M >= 1030
            raw[n] = phase * math.exp(-0.5 * math.log(comb))
    return _finish(raw, f"reciprocal_binomial(theta={theta!r}, M={M})")


def _check_grid_index(m: int, M: int) -> tuple[int, int]:
    """The counts m and M, with m a point of the (M+1)-point phase grid."""
    M = _check_count(M, "M")
    if not 0 <= m <= M:
        raise ParameterError("m must lie in [0, M]")
    return _check_count(m, "m"), M


def phase_point(theta0: float, m: int, M: int) -> float:
    """Point m of the (M+1)-point phase grid, theta_m = theta0 + 2 pi m / (M + 1):
    E25 with s pinned to M.  At M = 0 the one point's state is the vacuum."""
    m, M = _check_grid_index(m, M)
    theta_m = _check_angle(theta0, "theta0") + 2.0 * math.pi * m / (M + 1)
    return _check_angle(theta_m, "theta_m")


def pegg_barnett_phase(theta0: float, m: int, M: int, dim: int) -> FockState:
    """Flat-modulus phase state (M+1)^(-1/2) e^(i n theta_m) on n in [0, M] at
    point m of the phase grid (s = M); the M+1 grid states are orthonormal."""
    m, M = _check_grid_index(m, M)
    dim = _check_dim(dim, M)
    theta_m = phase_point(theta0, m, M)
    raw = np.zeros(dim, dtype=complex)
    for n in range(M + 1):
        raw[n] = cmath.exp(1j * n * theta_m)
    return _finish(raw, f"pegg_barnett_phase(theta0={theta0!r}, s={M}, m={m}, M={M})")


def generalized_geometric(Y: complex, M: int, dim: int) -> FockState:
    """Amplitudes [(1-|Y|)/(1-|Y|^(M+1))]^(1/2) Y^(n/2), with Y^(1/2) on
    the principal branch (a documented convention for complex Y)."""
    Y = _check_Y(Y)
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    root = cmath.sqrt(Y)
    # for |Y| > 1 divide |Y|^(M/2) out, so no power passes the float range
    scale = max(1.0, abs(root))
    raw = np.zeros(dim, dtype=complex)
    for n in range(M + 1):
        unit, weight = (root / scale) ** n, scale ** (n - M)
        # part by part: a complex product would flip the sign of a zero part
        raw[n] = complex(unit.real * weight, unit.imag * weight)
    return _finish(
        raw,
        f"generalized_geometric(Y={format_complex(Y)}, M={M})",
        prefactor=scale**-M,
    )


# --- infinite-support families ---


def coherent(alpha: complex, dim: int) -> FockState:
    """Amplitudes e^(-|alpha|^2/2) alpha^n / sqrt(n!)."""
    alpha = _check_finite(complex(alpha), "alpha")
    dim = _check_dim(dim)
    label = f"coherent(alpha={format_complex(alpha)})"
    # x * x: inf, not OverflowError
    pref = _check_prefactor(math.exp(-abs(alpha) * abs(alpha) / 2.0), alpha)
    raw = np.zeros(dim, dtype=complex)
    raw[0] = pref
    for n in range(dim - 1):
        raw[n + 1] = raw[n] * alpha / math.sqrt(n + 1)
    return _finish(raw, label, prefactor=pref, leak=_tail_guard(raw, label))


def kerr(alpha: complex, theta: float, dim: int) -> FockState:
    """Coherent amplitudes with the number-dependent phase
    e^(-i theta n (n-1)); the photon statistics stay Poissonian."""
    alpha = complex(alpha)
    dim = _check_dim(dim)
    theta = _check_angle(theta)
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
    label = f"geometric(eta={eta!r})"
    pref = math.sqrt(eta)
    raw = pref * np.sqrt((1.0 - eta) ** np.arange(dim)).astype(complex)
    return _finish(raw, label, prefactor=pref, leak=_tail_guard(raw, label))


def _root_comb_term(
    comb: int, base: float, k: int, pref: float, log_pref: float
) -> float:
    """pref sqrt(comb) base^(k/2), where log_pref = log(pref), in the float
    arithmetic of the coefficient callables above.  Only past the float
    range of comb is it taken through logarithms; there the term stays
    finite whenever it is at most 1, even if pref alone underflows."""
    try:
        return pref * (math.sqrt(comb) * base ** (k / 2.0))
    except OverflowError:
        return math.exp(log_pref + 0.5 * (math.log(comb) + k * math.log(base)))


def negative_binomial(eta: float, M: int, dim: int) -> FockState:
    """Amplitudes (1-eta)^(M/2) C(M+n-1, n)^(1/2) eta^(n/2), M >= 1."""
    eta = _check_eta(eta)
    M = _check_count(M, "M", minimum=1)
    dim = _check_dim(dim)
    label = f"negative_binomial(eta={eta!r}, M={M})"
    pref, log_pref = (1.0 - eta) ** (M / 2.0), 0.5 * M * math.log1p(-eta)
    # exact running C(M+n-1, n); math.comb per index is O(n) big-int work
    combs = accumulate(range(1, dim), lambda c, n: c * (M + n - 1) // n, initial=1)
    raw = np.array(
        [_root_comb_term(c, eta, n, pref, log_pref) for n, c in enumerate(combs)],
        dtype=complex,
    )
    return _finish(raw, label, prefactor=pref, leak=_tail_guard(raw, label))


def new_negative_binomial(eta: float, M: int, dim: int) -> FockState:
    """Amplitudes [C(n, M) eta^(M+1) (1-eta)^(n-M)]^(1/2) for n >= M;
    the first M Fock levels are exactly absent."""
    eta = _check_eta(eta)
    M = _check_count(M, "M")
    dim = _check_dim(dim, M)
    label = f"new_negative_binomial(eta={eta!r}, M={M})"
    pref, log_pref = eta ** ((M + 1) / 2.0), 0.5 * (M + 1) * math.log(eta)
    combs = accumulate(range(M + 1, dim), lambda c, n: c * n // (n - M), initial=1)
    raw = np.zeros(dim, dtype=complex)
    raw[M:] = [
        _root_comb_term(c, 1.0 - eta, k, pref, log_pref) for k, c in enumerate(combs)
    ]
    return _finish(raw, label, prefactor=pref, leak=_tail_guard(raw, label))


# --- derived constructions ---


def photon_add(base: FockState, M: int) -> FockState:
    """Add M quanta: normalize a^(dagger M)|base>; amplitude n picks up
    base[n-M] sqrt(n!/(n-M)!).  norm_constant records the renormalization.
    """
    M = _check_count(M, "M")
    label = f"photon_add({base.label}, M={M})"
    try:
        image = apply(operator([(M, _one)], base.dim), base)
    except OverflowError:  # sqrt(n!/(n-M)!) past the float range
        raise ParameterError(
            f"{label}: the factor sqrt(n!/(n-M)!) passes the float range; reduce M"
        ) from None
    total = float(np.vdot(image.amplitudes, image.amplitudes).real) + image.leak
    frac = image.leak / total if total else 1.0
    if frac > TAIL_TOL:
        raise TailMassError(
            f"photon addition pushes mass fraction {frac:.3e} > {TAIL_TOL:.0e} "
            "beyond the truncation; increase dim"
        )
    return _finish(image.amplitudes, label, leak=frac)


# The intermediate recursion's window past dim: f is read on [0, dim + 31)
NLCS_WINDOW = 32


def intermediate_nlcs(
    eta: float, alpha: complex, dim: int, f: Callable[[int], complex] | None = None,
    *, tail_check: bool = True,
) -> FockState:
    """Solve (sqrt(eta) N + sqrt(1-eta) f(N) a)|s> = alpha|s> by the forward
    recursion C(n+1) = (alpha - sqrt(eta) n) C(n) / (sqrt(1-eta) f(n) sqrt(n+1)),
    with f = 1 when none is given.

    The sequence is extended one window past dim to measure the mass
    fraction beyond the truncation; with tail_check the constructor
    refuses fractions above 1e-10 (non-normalizable alpha), without it
    the state is returned with that fraction recorded as leak.
    """
    eta = _check_eta(eta)
    dim = _check_dim(dim)
    _check_finite(alpha, "alpha")
    seq = np.zeros(dim + NLCS_WINDOW, dtype=complex)
    seq[0] = 1.0
    sqrt_eta = math.sqrt(eta)
    sqrt_etabar = math.sqrt(1.0 - eta)
    # a huge alpha overflows one step; _finish refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(dim + NLCS_WINDOW - 1):
            fn = 1.0 if f is None else complex(f(n))
            if fn == 0:
                raise ParameterError(f"f must be nonzero on [0, dim-2]; f({n}) = 0")
            seq[n + 1] = (alpha - sqrt_eta * n) * seq[n] / (
                sqrt_etabar * fn * math.sqrt(n + 1)
            )
            peak = np.abs(seq[n + 1])  # every earlier entry is at most 1e120
            if peak > 1e120:  # rescale divergent recursions before they overflow
                seq[: n + 2] /= peak
    total = float(np.vdot(seq, seq).real)
    frac = float(np.vdot(seq[dim:], seq[dim:]).real) / total
    if tail_check and frac > 1e-10:
        raise TailMassError(
            f"recursion mass fraction {frac:.3e} beyond dim exceeds 1e-10; "
            "the eigenvalue does not give a normalizable state at this truncation"
        )
    return _finish(
        seq[:dim],
        f"intermediate_nlcs(eta={eta!r}, alpha={format_complex(alpha)})",
        leak=frac,
    )
