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

- Array reads on the live indices.  Every diagonal the package builds,
  and every closedform.Coeffs, has an array form (the protocol of
  _ArrayDiag), read once per term at exactly the integer indices where
  the ladder factor (and, for apply, the incoming amplitude) is nonzero.
  A composite reads its inner diagonals only there, and a coefficient
  ratio reads its denominator only where its numerator is nonzero, so
  expressions like (M - N) or 1/sqrt(N + 1) are exact at integer
  arguments and never see an index outside their domain.  Any other
  callable is read one index at a time, inside a composite too; a fault
  raises by the first-fault rule of _diag_values.
- Exact ladder factors.  Each is the square root of the exact integer
  product, formed in float64 while it stays below 2**53 and in Python
  ints past that, so perfect squares come out exact and a product past
  the float range raises OverflowError.  compose roots the
  normal-ordering ratio of such products, an exact integer square, and
  forms it only for opposing shifts: for shifts of one sign it is 1.
- Complex arithmetic from real parts, as CPython 3.10-3.13 forms it per
  index (_mul, _div; tests/test_complex_arithmetic.py pins CPython to
  these formulas).  A float64 array holds Python floats, a complex128
  array Python complexes.  A complex product is ar*br - ai*bi and
  ar*bi + ai*br, each part rounded on its own, where numpy's complex
  ufunc may fuse them (FMA); a real times or over a complex reads it as
  x + 0j; a quotient is CPython's _Py_c_quot.  diagonal_matmul, which
  multiplies bands, forms its products the same way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DiagFn = Callable[[int], complex]


class DimensionMismatchError(ValueError):
    """Operands live on different truncations."""


class OperatorEvaluationError(ValueError):
    """A diagonal evaluated to a non-finite value at an occupied index, or an
    operator holds a diagonal that its reader does not take."""


def _ladder_prod(n, k: int):
    """Squared ladder factor of a^k (k<0) or a†^k (k>0) on |n>, as an
    exact integer (0 when the shift annihilates the index); for an array
    of nonnegative integers, the array of them, exact for Python ints and
    for floats while the products stay below 2**53."""
    m = abs(k)
    if k < 0 and isinstance(n, int) and n < m:
        return 0
    prod = np.ones_like(n) if isinstance(n, np.ndarray) else 1
    for i in range(m):
        prod = prod * (n + (i + 1) if k > 0 else n - i)
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
    return np.sqrt(_ladder_prod(ns.astype(float), k))


class _ArrayDiag:
    """A diagonal in array form.  The protocol, kept by closedform.Coeffs
    too: values(ns) gives it at the ascending int array ns in one pass,
    typed as the per-index values are (float64 or int for reals,
    complex128 for complexes), and d(n) at one index, a Python scalar.
    A read that faults raises what its formula raises; _diag_values alone
    re-reads a fault."""

    __slots__ = ("values",)

    def __init__(self, values: Callable[[np.ndarray], np.ndarray]) -> None:
        self.values = values

    def __call__(self, n: int) -> complex:
        with np.errstate(all="ignore"):  # as Python's float arithmetic
            return self.values(np.array([n])).item()


def _array_diag(fn, lo: int | None = None, hi: int | None = None) -> _ArrayDiag:
    """The diagonal that is fn on the indices in [lo, hi) (an end None is
    open) and 0.0 at the rest: fn reads only those indices."""
    if lo is None and hi is None:
        return _ArrayDiag(fn)

    def values(ns: np.ndarray) -> np.ndarray:
        if len(ns) and (lo is None or ns[0] >= lo) and (hi is None or ns[-1] < hi):
            return fn(ns)
        i = 0 if lo is None else int(ns.searchsorted(lo))
        j = len(ns) if hi is None else int(ns.searchsorted(hi))
        if i >= j:
            return np.zeros(len(ns))
        inside = fn(ns[i:j])
        out = np.zeros(len(ns), dtype=inside.dtype)
        out[i:j] = inside
        return out

    return _ArrayDiag(values)


def _read(d: DiagFn, ns: np.ndarray) -> np.ndarray:
    """d at the ascending indices ns: its values(ns) where it has the
    array form of _ArrayDiag, else one call per index, the values kept as
    a float64 array when none is complex."""
    array_form = getattr(d, "values", None)
    if array_form is not None:
        return array_form(ns)
    values = [d(n) for n in ns.tolist()]
    arr = np.array(values)
    if arr.dtype.kind in "biuf":
        return arr.astype(float)
    if arr.dtype.kind != "c":  # such as ints past int64
        arr = np.array(values, dtype=np.complex128)  # converts as complex() does
    return arr.astype(np.complex128, copy=False)


def _diag_values(d: DiagFn, ns, where: str) -> np.ndarray:
    """The diagonal's values at the ascending indices ns as a complex128
    array, read once by _read.

    First-fault rule, kept here alone: a read that meets a fault (an
    error, or a non-finite value) is read again one index at a time, so
    the first fault in ascending index order raises: the diagonal's own
    error there, or OperatorEvaluationError naming a non-finite value."""
    ns = np.asarray(ns)
    try:
        with np.errstate(all="ignore"):  # as Python's float arithmetic
            arr = np.asarray(_read(d, ns), dtype=np.complex128)
        if np.isfinite(arr).all():
            return arr
    except Exception:  # re-read below, where the first fault raises
        pass
    values = []
    for n in ns.tolist():
        value = d(n)  # raises the diagonal's own error
        if not cmath.isfinite(value):
            raise OperatorEvaluationError(
                f"diagonal evaluated to {complex(value)} at {where} {n}"
            )
        values.append(value)
    return np.array(values, dtype=np.complex128)  # converts as complex() does


def _is_complex(x) -> bool:
    if isinstance(x, np.ndarray):
        return x.dtype.kind == "c"
    return isinstance(x, complex)


def _mul(x, y):
    """x * y entrywise as Python forms it per index (see the module
    docstring); x and y are arrays or Python scalars, at least one an
    array."""
    if not _is_complex(x):
        if not _is_complex(y):
            return x * y
        x, y = y, x  # each part's sum and products commute
    if _is_complex(y):
        return _complex(x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real)
    return _complex(x.real * y - x.imag * 0.0, x.real * 0.0 + x.imag * y)


def _div(x, y):
    """x / y entrywise as Python forms it per index: float division, or
    CPython's _Py_c_quot once either side is complex (see the module
    docstring).  A zero divisor raises what Python raises at the first."""
    if isinstance(y, np.ndarray) and not y.all():
        at = int((y == 0).argmax())
        x = x[at].item() if isinstance(x, np.ndarray) else x
        return x / y[at].item()  # raises ZeroDivisionError
    if not _is_complex(y):
        if not _is_complex(x):
            return x / y
        # y + 0j: |y| >= 0 picks the first branch below, and its denominator
        # y + 0 * (0 / y) is y itself (a NaN y gives NaN either way)
        ar, ai, ratio = x.real, x.imag, 0.0 / y
        return _complex((ar + ai * ratio) / y, (ai - ar * ratio) / y)
    ar, ai = np.real(x), np.imag(x)
    br, bi = y.real, y.imag
    abs_re, abs_im = abs(br), abs(bi)
    by_re = abs_re >= abs_im
    if by_re.all():
        ratio = bi / br
        denom = br + bi * ratio
        return _complex((ar + ai * ratio) / denom, (ai - ar * ratio) / denom)
    by_im = abs_im >= abs_re
    if by_im.all():
        ratio = br / bi
        denom = br * ratio + bi
        return _complex((ar * ratio + ai) / denom, (ai * ratio - ar) / denom)
    ratio = np.where(by_re, bi / br, br / bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    lost = ~(by_re | by_im)  # a NaN part: neither branch holds
    return _complex(np.where(lost, math.nan, re), np.where(lost, math.nan, im))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=np.complex128)
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


_one = _array_diag(lambda ns: np.ones(len(ns)))


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
    def d(ns: np.ndarray) -> np.ndarray:
        total = np.zeros(len(ns), dtype=np.complex128)  # 0j + f(n) + ...
        for f in fns:
            total = total + _read(f, ns)
        return total

    return _array_diag(d)


def operator(terms: Sequence[tuple[int, DiagFn]], dim: int) -> OperatorExpr:
    return OperatorExpr(terms=_merge_terms(terms), domain_dim=dim)


def annihilation(dim: int) -> OperatorExpr:
    return operator([(-1, _one)], dim)


def creation(dim: int) -> OperatorExpr:
    return operator([(+1, _one)], dim)


def diag_op(fn: DiagFn, dim: int) -> OperatorExpr:
    return operator([(0, fn)], dim)


def number_op(dim: int) -> OperatorExpr:
    return diag_op(_array_diag(lambda ns: ns.astype(np.complex128)), dim)


def scale(op: OperatorExpr, c: complex) -> OperatorExpr:
    def scaled(d: DiagFn) -> DiagFn:
        return _array_diag(lambda ns: _mul(c, _read(d, ns)))

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
    # Ladder numerators first: where the inner shifts annihilate the index
    # the term is zero and neither diagonal is read, so composed
    # expressions never divide by a vanished ladder factor.  On n >= 0 the
    # inner ladder product L(n, k2) L(n + k2, k1) vanishes exactly below
    # max(0, -min(k2, k)), so the live indices are a suffix of ns.
    k = k1 + k2
    live = max(0, -min(k2, k))

    if k1 * k2 >= 0:
        # the shifts share a sign (or one is diagonal): the numerator is the
        # ladder product of the whole shift, so the ratio is exactly 1 and
        # is not formed
        return _array_diag(lambda ns: _mul(_read(d1, ns + k2), _read(d2, ns)), lo=live)

    # Opposing shifts: the ratio of squared ladder products is an
    # integer-valued polynomial of n (the normal-ordering factor), so it is
    # computed in exact integer arithmetic (Python ints) and rooted once.
    # It is always an exact integer square, that of the ladder factors the
    # two shifts have in common.
    def d(ns: np.ndarray) -> np.ndarray:
        product = _mul(_read(d1, ns + k2), _read(d2, ns))
        x = ns.astype(object)
        ratio = _ladder_prod(x, k2) * _ladder_prod(x + k2, k1) // _ladder_prod(x, k)
        return _mul(product, np.sqrt(ratio.astype(float)))

    return _array_diag(d, lo=live)


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
        return _array_diag(lambda m: np.conj(np.asarray(_read(d, m - k), dtype=np.complex128)))

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
        if k:
            factors = _ladder_factors(ns, k)
            live = factors.nonzero()[0]
            at, a, f = ns[live], amps[live], factors[live]
        else:  # every factor is 1, and a product by 1.0 is exact
            at, a, f = ns, amps, None
        v = _diag_values(d, at, "occupied index")
        # amp * d(n) from real parts (see the module docstring), then * factor
        re = a.real * v.real - a.imag * v.imag
        im = a.real * v.imag + a.imag * v.real
        contrib = _complex(re, im) if f is None else _complex(re * f, im * f)
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
        if abs(k) >= dim:
            continue  # the shift leaves the truncation from every index
        factors = _ladder_factors(ns, k)
        at = ((factors != 0) & (ns + k >= 0) & (ns + k < dim)).nonzero()[0]
        values = _diag_values(d, at, "index")
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
    offset p + q, in ascending (p, q) order onto complex zeros (float
    zeros where every band is real), in O(dim) per offset pair.  Each
    product is formed from real parts (see the module docstring), so every
    entry is the Python-scalar sum of the products the dense matmul can
    make nonzero; a zero on a nonzero diagonal still multiplies (inf * 0
    is NaN, as in BLAS), a zero off them never does.  A diagonal that no
    pair reaches is left out."""
    n = _band_dim(x, y)
    real = not any(d.dtype.kind == "c" for d in (*x.values(), *y.values()))
    out: Bands = {}
    for p, da in x.items():
        for q, db in y.items():
            s = p + q
            lo, hi = max(0, -p, -s), min(n, n - p, n - s)  # rows r it fills
            if lo >= hi:
                continue
            if s not in out:
                out[s] = np.zeros(n - abs(s), dtype=float if real else np.complex128)
            # entry t of diagonal k lies in row t + max(0, -k)
            at_a, at_b, at_out = lo - max(0, -p), lo + p - max(0, -q), lo - max(0, -s)
            span = hi - lo
            a, b = da[at_a : at_a + span], db[at_b : at_b + span]
            into = out[s][at_out : at_out + span]
            if real:
                into += a * b
                continue
            into.real += a.real * b.real - a.imag * b.imag
            into.imag += a.real * b.imag + a.imag * b.real
    return dict(sorted(out.items()))


def gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u = 2**-53 the unit roundoff of
    float64 (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.5): a value formed from exact terms, each carried through
    at most m roundings, lies within gamma_m times the sum of their moduli
    of their exact sum."""
    u = 2.0**-53
    return m * u / (1 - m * u)


def _moduli(bands: Bands) -> Bands:
    return {k: np.abs(d) for k, d in bands.items()}


def band_product(a: Bands, x: Bands) -> tuple[Bands, Bands]:
    """A @ X and |A||X|, each by diagonal_matmul, the second on the bands'
    absolute values: a product operand of band_max_abs."""
    return diagonal_matmul(a, x), diagonal_matmul(_moduli(a), _moduli(x))


def band_max_abs(
    combine: Callable[..., np.ndarray],
    *operands: Bands | tuple[Bands, Bands],
    magnitude: Callable[..., np.ndarray] | None = None,
    exclude_column: int | None = None,
) -> tuple[float, float | None, tuple[int, int]]:
    """The peak of np.abs(combine(A, B, ...)) for square matrices given as
    bands in the form of to_bands, without forming them: combine runs
    entrywise on each offset in the union of the bands, a missing diagonal
    reads as zeros, and the entries of exclude_column read as 0.  An
    operand is Bands, or the product A @ X as band_product gives it.  An
    entry on no band is zero in every operand, and so in every combination
    these checks form.

    Returns (residual, bound, (row, column)) at one entry.  Without
    magnitude it is the entry where the residual peaks, NaN first as in
    the dense max, and bound is None.  Given magnitude, a combine of the
    operands' moduli (|Y| for Bands Y, and |A||X| for a product) that
    gives each entry's bound, it is the entry where residual / bound
    peaks: a NaN or inf residual first (NaN before inf), and where every
    residual is 0 the largest bound.  A nonzero residual over a zero bound
    is an infinite ratio.  Ties go to the first entry in (offset, row)
    order."""
    bands = [op[0] if isinstance(op, tuple) else op for op in operands]
    if magnitude is not None:
        moduli = [op[1] if isinstance(op, tuple) else _moduli(op) for op in operands]
    n = _band_dim(*bands)
    offsets = sorted(set().union(*bands))
    residuals, bounds = [], []
    for k in offsets:
        zeros = np.zeros(n - abs(k))
        residuals.append(np.abs(combine(*[band.get(k, zeros) for band in bands])))
        if magnitude is not None:  # + zeros: a fresh array, whatever magnitude returns
            bounds.append(magnitude(*[m.get(k, zeros) for m in moduli]) + zeros)
        t = -1 if exclude_column is None else exclude_column - max(k, 0)
        if 0 <= t < len(zeros):
            residuals[-1][t] = 0.0
            if magnitude is not None:
                bounds[-1][t] = 0.0
    if not offsets:
        return 0.0, None if magnitude is None else 0.0, (0, 0)
    residual = np.concatenate(residuals)
    bound = np.concatenate(bounds) if bounds else None
    at = int(residual.argmax())  # the first NaN, else the first inf or peak
    if bound is not None and residual[at] < math.inf:
        ratio = residual  # all 0 where the peak residual is 0
        if residual[at] > 0:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = residual / bound
            ratio[residual == 0] = 0.0
            at = int(ratio.argmax())  # a NaN bound first
        if ratio[at] == 0:  # every residual is 0: the largest bound
            at = int(bound.argmax())
    peak = float(residual[at]), None if bound is None else float(bound[at])
    for k, r in zip(offsets, residuals):  # entry at lies on offset k
        if at < len(r):
            row = at + max(0, -k)
            return (*peak, (row, row + k))
        at -= len(r)
