"""Truncated Fock-space states and the band-operator algebra.

A state is a complex amplitude vector over the basis |0>, ..., |dim-1>.
An operator is a finite sum of terms (shift k, diag d), each a diagonal
function of the number operator composed with a pure ladder shift:

    k >= 0:  |n> -> d(n) * sqrt((n+1)(n+2)...(n+k)) |n+k>
    k <  0:  |n> -> d(n) * sqrt(n(n-1)...(n+k+1))   |n+k>   (zero for n < -k)

Amplitude mass pushed past the truncation is accumulated into a
reported leak, never silently lost.

Band arithmetic follows one rule, in three parts, on both routes that
read the terms: apply, whose pass also gives the structure-function
table, and to_bands, the dense oracle in band form that to_matrix places
into a matrix:

- Lazy, numerator-first reads.  A diagonal is a Python callable, called
  once per contributing integer index, and only where the ladder factor
  (and, for apply, the incoming amplitude) is nonzero; expressions like
  (M - N) or 1/sqrt(N + 1) are therefore exact at integer arguments and
  never see an index outside their domain.
- Exact ladder factors.  Each is math.sqrt of the exact integer
  product, formed in float64 while it stays below 2**53 and in Python
  ints past that, so perfect squares come out exact and a product past
  the float range raises OverflowError.  compose roots the
  normal-ordering ratio of such products, an exact integer square, and
  forms it only for opposing shifts: for shifts of one sign it is 1.
- Complex products from real parts.  Everything around the diagonal
  reads is numpy array work, but a complex x complex product is formed
  as ar*vr - ai*vi and ar*vi + ai*vr, each part rounded on its own as in
  Python's and numpy's scalar products; numpy's complex ufunc may fuse
  them (FMA) and round differently.  complex x float products are exact
  per part either way.  diagonal_matmul, which multiplies bands, forms
  its products the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DiagFn = Callable[[int], complex]


class DimensionMismatchError(ValueError):
    """Operands live on different truncations."""


class OperatorEvaluationError(ValueError):
    """A diagonal evaluated to a non-finite value at an occupied index."""


def _ladder_prod(n: int, k: int) -> int:
    """Squared ladder factor of a^k (k<0) or a†^k (k>0) on |n>, as an
    exact integer (0 when the shift annihilates the index)."""
    if k >= 0:
        prod = 1
        for i in range(1, k + 1):
            prod *= n + i
    else:
        m = -k
        if n < m:
            return 0
        prod = 1
        for i in range(m):
            prod *= n - i
    return prod


def ladder_factor(n: int, k: int) -> float:
    """Ladder factor of a^k (k<0) or a†^k (k>0) on |n>.

    The product under the root is an exact integer, so perfect squares
    (and in particular 0 and 1) come out exact.
    """
    return math.sqrt(_ladder_prod(n, k))


_EXACT_FLOAT_INT = 2**53


def _ladder_factors(ns: np.ndarray, k: int) -> np.ndarray:
    """ladder_factor(n, k) at each n of the ascending nonnegative ns.

    Below 2**53 every partial product is an exact float64 integer, and
    np.sqrt rounds as math.sqrt does; past that the factors come from
    ladder_factor itself, which raises OverflowError past the float range.
    """
    m = abs(k)
    if len(ns) == 0 or (int(ns[-1]) + m) ** m >= _EXACT_FLOAT_INT:
        return np.array([ladder_factor(n, k) for n in ns.tolist()], dtype=float)
    x = ns.astype(float)
    prod = np.ones(len(ns))
    for i in range(m):
        prod *= (x + (i + 1)) if k > 0 else (x - i)
    if k < 0:
        prod[ns < m] = 0.0  # the shift annihilates these indices
    return np.sqrt(prod)


def _diag_values(d: DiagFn, ns: list[int], where: str) -> np.ndarray:
    """The diagonal's values at ns as an array; raises where the per-index
    loop would: at the first non-finite value, else with d's own error."""
    values = []
    exc: Exception | None = None
    try:
        for n in ns:
            values.append(d(n))
    except Exception as caught:  # the caller's diagonal: raised below, unless
        exc = caught  # a value read before it is not finite
    # converts each value as complex() does, bit for bit
    arr = np.array(values, dtype=np.complex128)
    bad = (~np.isfinite(arr)).nonzero()[0]
    if bad.size:
        i = int(bad[0])
        raise OperatorEvaluationError(
            f"diagonal evaluated to {complex(values[i])} at {where} {ns[i]}"
        )
    if exc is not None:
        raise exc
    return arr


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(len(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


@dataclass(frozen=True, eq=False)
class FockState:
    """Amplitude vector on a truncated Fock basis plus construction metadata.

    support is the index pair outside which amplitudes are exactly zero,
    (0, -1) for the zero vector.  norm_constant records the normalization
    factor applied at construction.  leak is the squared amplitude mass
    dropped in producing this state (truncation tail for constructors,
    out-of-range mass for operator images).
    """

    amplitudes: np.ndarray
    dim: int
    support: tuple[int, int]
    parity: str = "full"
    norm_constant: float = 1.0
    label: str = ""
    leak: float = 0.0

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"amplitude vector has length {arr.shape}, expected ({self.dim},)"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)
        if self.parity not in ("full", "even", "odd"):
            raise ValueError(f"unknown parity {self.parity!r}")
        n_min, n_max = self.support
        if arr[:n_min].any() or arr[n_max + 1 :].any():
            raise ValueError("amplitudes nonzero outside the declared support")
        if self.parity == "even" and arr[1::2].any():
            raise ValueError("even-parity state has odd-index amplitudes")
        if self.parity == "odd" and arr[0::2].any():
            raise ValueError("odd-parity state has even-index amplitudes")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def make_state(
    amplitudes: Sequence[complex] | np.ndarray,
    *,
    parity: str | None = None,
    norm_constant: float = 1.0,
    label: str = "",
    leak: float = 0.0,
) -> FockState:
    """Build a FockState, deriving support (and parity when not given)."""
    arr = np.asarray(amplitudes, dtype=np.complex128)
    nz = arr.nonzero()[0]
    support = (int(nz[0]), int(nz[-1])) if nz.size else (0, -1)
    if parity is None:
        odd = nz & 1
        if nz.size and not odd.any():
            parity = "even"
        elif nz.size and odd.all():
            parity = "odd"
        else:
            parity = "full"
    return FockState(
        amplitudes=arr,
        dim=arr.shape[0],
        support=support,
        parity=parity,
        norm_constant=norm_constant,
        label=label,
        leak=leak,
    )


def basis_state(n: int, dim: int) -> FockState:
    if not 0 <= n < dim:
        raise ValueError(f"basis index {n} outside [0, {dim - 1}]")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return make_state(amps, label=f"|{n}>")


def overlap(x: FockState, y: FockState) -> complex:
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dims {x.dim} and {y.dim} differ")
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def fidelity(x: FockState, y: FockState) -> float:
    return abs(overlap(x, y)) ** 2


@dataclass(frozen=True)
class OperatorExpr:
    """Finite sum of (shift, diagonal) band terms on a fixed truncation."""

    terms: tuple[tuple[int, DiagFn], ...]
    domain_dim: int

    @property
    def max_shift(self) -> int:
        return max((abs(k) for k, _ in self.terms), default=0)


def _one(_: int) -> complex:
    return 1.0


def _merge_terms(
    terms: Sequence[tuple[int, DiagFn]],
) -> tuple[tuple[int, DiagFn], ...]:
    groups: dict[int, list[DiagFn]] = {}
    for k, d in terms:
        groups.setdefault(k, []).append(d)
    merged = []
    for k in sorted(groups):
        fns = tuple(groups[k])
        if len(fns) == 1:
            merged.append((k, fns[0]))
        else:
            merged.append((k, _sum_diag(fns)))
    return tuple(merged)


def _sum_diag(fns: tuple[DiagFn, ...]) -> DiagFn:
    def d(n: int) -> complex:
        return sum((f(n) for f in fns), 0j)

    return d


def operator(terms: Sequence[tuple[int, DiagFn]], dim: int) -> OperatorExpr:
    return OperatorExpr(terms=_merge_terms(terms), domain_dim=dim)


def annihilation(dim: int) -> OperatorExpr:
    return operator([(-1, _one)], dim)


def creation(dim: int) -> OperatorExpr:
    return operator([(+1, _one)], dim)


def diag_op(fn: DiagFn, dim: int) -> OperatorExpr:
    return operator([(0, fn)], dim)


def number_op(dim: int) -> OperatorExpr:
    return diag_op(lambda n: complex(n), dim)


def scale(op: OperatorExpr, c: complex) -> OperatorExpr:
    def scaled(d: DiagFn) -> DiagFn:
        return lambda n: c * d(n)

    return operator([(k, scaled(d)) for k, d in op.terms], op.domain_dim)


def add(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
    _check_dims(x, y)
    return operator(list(x.terms) + list(y.terms), x.domain_dim)


def sub(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
    return add(x, scale(y, -1.0))


def _check_dims(x: OperatorExpr, y: OperatorExpr) -> None:
    if x.domain_dim != y.domain_dim:
        raise DimensionMismatchError(
            f"operator dims {x.domain_dim} and {y.domain_dim} differ"
        )


def _composed_diag(k1: int, d1: DiagFn, k2: int, d2: DiagFn) -> DiagFn:
    # Ladder numerators first: when the inner shifts annihilate the index
    # the term is zero and neither diagonal is evaluated, so composed
    # expressions never divide by a vanished ladder factor.
    k = k1 + k2

    if k1 * k2 >= 0:
        # the shifts share a sign (or one is diagonal): the numerator is the
        # ladder product of the whole shift, so the ratio is exactly 1 and
        # is not formed.  That product vanishes only where a lowering shift
        # passes the vacuum: every caller asks for indices n >= 0, so
        # n < -k is the exact test
        def d_same_sign(n: int) -> complex:
            if n < -k:
                return 0.0
            return d1(n + k2) * d2(n)

        return d_same_sign

    # Opposing shifts: the ratio of squared ladder products is an
    # integer-valued polynomial of n (the normal-ordering factor), so it is
    # computed in exact integer arithmetic and rooted once.  It is always
    # an exact integer square, that of the ladder factors the two shifts
    # have in common.
    def d(n: int) -> complex:
        num = _ladder_prod(n, k2) * _ladder_prod(n + k2, k1)
        if num == 0:
            return 0.0
        return d1(n + k2) * d2(n) * math.sqrt(num // _ladder_prod(n, k))

    return d


def compose(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
    """Operator product: apply(compose(x, y), s) == apply(x, apply(y, s))
    for every image that stays inside the truncation."""
    _check_dims(x, y)
    terms = [
        (k1 + k2, _composed_diag(k1, d1, k2, d2))
        for k1, d1 in x.terms
        for k2, d2 in y.terms
    ]
    return operator(terms, x.domain_dim)


def adjoint(x: OperatorExpr) -> OperatorExpr:
    # A term (k, d) has matrix elements <n+k| . |n> = d(n) L(n, k); its
    # adjoint carries the conjugate to the reversed shift, and the ladder
    # factors match exactly: L(m, -k) at m = n + k equals L(n, k).
    def flipped(k: int, d: DiagFn) -> DiagFn:
        return lambda m: complex(d(m - k)).conjugate()

    return operator([(-k, flipped(k, d)) for k, d in x.terms], x.domain_dim)


def commutator(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
    return sub(compose(x, y), compose(y, x))


def apply(op: OperatorExpr, s: FockState) -> FockState:
    """Apply op to s, returning the (generally unnormalized) image.

    Image amplitudes landing at index >= dim are dropped and their squared
    magnitude accumulated into the result's leak.  Components annihilated
    by a ladder factor never evaluate the diagonal (numerator-first rule);
    a non-finite diagonal at a contributing index is an error naming it.
    """
    if op.domain_dim != s.dim:
        raise DimensionMismatchError(
            f"operator dim {op.domain_dim} does not match state dim {s.dim}"
        )
    ns = s.amplitudes.nonzero()[0]
    out, leak = _band_image(op, ns, s.amplitudes[ns])
    return make_state(
        out,
        parity=_image_parity(s.parity, op),
        norm_constant=1.0,
        label=s.label,
        leak=leak,
    )


def _band_image(
    op: OperatorExpr, ns: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, float]:
    """Image of the amplitudes amps at the ascending indices ns under op:
    the in-range vector and the squared mass that lands at index >= dim,
    term by term, each contribution amp * d(n) * ladder_factor(n, k)."""
    dim = op.domain_dim
    out = np.zeros(dim, dtype=np.complex128)
    leak = 0.0
    for k, d in op.terms:
        factors = _ladder_factors(ns, k)
        live = factors.nonzero()[0]
        at = ns[live]
        v = _diag_values(d, at.tolist(), "occupied index")
        a, f = amps[live], factors[live]
        # amp * d(n) from real parts (see the module docstring), then * factor
        contrib = _complex(
            (a.real * v.real - a.imag * v.imag) * f,
            (a.real * v.imag + a.imag * v.real) * f,
        )
        inside = int(at.searchsorted(dim - k))
        out[at[:inside] + k] += contrib[:inside]
        for c in contrib[inside:]:  # the few entries past the truncation
            leak += abs(c) ** 2
    return out, leak


def _image_parity(parity: str, op: OperatorExpr) -> str | None:
    if parity == "full":
        return "full"
    shifts = {k % 2 for k, _ in op.terms}
    if shifts == {0}:
        return parity
    if shifts == {1}:
        return "odd" if parity == "even" else "even"
    return None  # mixed parity shifts: derive from the image


Bands = dict[int, np.ndarray]


def to_bands(op: OperatorExpr) -> Bands:
    """Dense oracle in band form: op entrywise on its truncation, as offset
    (column - row) -> diagonal, for exactly the diagonals that hold a
    nonzero entry (NaN and inf count), in ascending offset order.

    Entry t of diagonal k lies in row t + max(0, -k); term (shift, d) puts
    d(n) * ladder_factor(n, shift) in column n of offset -shift.  The terms
    are read here, not through apply, which these bands check.
    """
    dim = op.domain_dim
    ns = np.arange(dim)
    bands: Bands = {}
    for k, d in op.terms:
        factors = _ladder_factors(ns, k)
        if abs(k) >= dim:
            continue  # the shift leaves the truncation from every index
        at = ((factors != 0) & (ns + k >= 0) & (ns + k < dim)).nonzero()[0]
        values = _diag_values(d, at.tolist(), "index")
        f = factors[at]
        band = bands.setdefault(-k, np.zeros(dim - abs(k), dtype=np.complex128))
        with np.errstate(over="ignore"):  # as Python's float products
            band[at + min(k, 0)] += _complex(values.real * f, values.imag * f)
    return {k: bands[k] for k in sorted(bands) if (bands[k] != 0).any()}


def band_matrix(bands: Bands, dim: int) -> np.ndarray:
    """The dim x dim matrix that holds the given diagonals, zero elsewhere."""
    mat = np.zeros((dim, dim), dtype=np.complex128)
    flat = mat.reshape(-1)
    for k, d in bands.items():
        start = max(0, -k) * dim + max(0, k)  # entry 0 of diagonal k
        flat[start : start + len(d) * (dim + 1) : dim + 1] = d
    return mat


def to_matrix(op: OperatorExpr) -> np.ndarray:
    """Dense oracle: op entrywise on its truncation, the placement of
    to_bands(op).

    The package's own checks read to_bands directly: both axiom batteries,
    the sector embedding check and the disentangling oracle.  apply() is
    the band route that the eigen and relation checks use.
    """
    return band_matrix(to_bands(op), op.domain_dim)


def _band_dim(*bands: Bands) -> int | None:
    # diagonal k of an n x n matrix holds n - |k| entries
    dims = {len(d) + abs(k) for band in bands for k, d in band.items()}
    if len(dims) > 1:
        raise DimensionMismatchError(f"bands of dims {sorted(dims)} differ")
    return dims.pop() if dims else None


def diagonal_matmul(x: Bands, y: Bands) -> Bands:
    """a @ b for a and b in the form of to_bands, summed diagonal
    by diagonal: offsets p and q place a[i, i+p] * b[i+p, i+p+q] on
    offset p + q, in ascending (p, q) order onto complex zeros, in O(dim)
    per offset pair.  Each product is formed from real parts (see the
    module docstring), so every entry is the Python-scalar sum of the
    products the dense matmul can make nonzero; a zero on a nonzero
    diagonal still multiplies (inf * 0 is NaN, as in BLAS), a zero off
    them never does.  A diagonal that no pair reaches is left out."""
    n = _band_dim(x, y)
    out: Bands = {}
    for p, da in x.items():
        for q, db in y.items():
            s = p + q
            lo, hi = max(0, -p, -s), min(n, n - p, n - s)  # rows r it fills
            if lo >= hi:
                continue
            if s not in out:
                out[s] = np.zeros(n - abs(s), dtype=np.complex128)
            # entry t of diagonal k lies in row t + max(0, -k)
            at_a, at_b, at_out = lo - max(0, -p), lo + p - max(0, -q), lo - max(0, -s)
            span = hi - lo
            a, b = da[at_a : at_a + span], db[at_b : at_b + span]
            into = out[s][at_out : at_out + span]
            into.real += a.real * b.real - a.imag * b.imag
            into.imag += a.real * b.imag + a.imag * b.real
    return dict(sorted(out.items()))


def band_max_abs(
    combine: Callable[..., np.ndarray], *bands: Bands, exclude_column: int | None = None
) -> float:
    """np.abs(combine(A, B, ...)).max() for square matrices given as bands
    in the form of to_bands, without forming them: combine runs
    entrywise on each offset in the union of the bands, a missing diagonal
    reads as zeros, and the entries of exclude_column read as 0.  An entry
    on no band is zero in every operand, and so in every combination
    these checks form; NaN propagates as in the dense max."""
    n = _band_dim(*bands)
    peaks = [0.0]
    for k in sorted(set().union(*bands)):
        operands = (band[k] if k in band else np.zeros(n - abs(k)) for band in bands)
        magnitude = np.abs(combine(*operands))
        t = -1 if exclude_column is None else exclude_column - max(k, 0)
        if 0 <= t < len(magnitude):
            magnitude[t] = 0.0
        peaks.append(magnitude.max())
    return float(np.array(peaks).max())


def commutator_max_abs(a: Bands, x: Bands, sign: float) -> float:
    """band_max_abs of [A, X] + sign X, each product by diagonal_matmul."""
    ax, xa = diagonal_matmul(a, x), diagonal_matmul(x, a)
    return band_max_abs(lambda p, q, y: p - q + sign * y, ax, xa, x)
