"""Independent probability oracles for the state constructors.

Everything here goes through lgamma/log-space routes, deliberately
different from the running-product and recurrence routes the package
uses, so agreement is a genuine cross-check rather than a tautology.
The squeezing reference exponentiates full-space matrices, where the
package works on one parity sector.  The support reference reads a state's occupied indices one entry at a
time, where make_state asks numpy for them.
The band references at the end walk
an operator's terms one index at a time in Python scalars, where the
package does the arithmetic around each diagonal read as array work, and
the reference band reader takes diagonals from a dense matrix's entries,
where the package reads them from the terms.
The battery references multiply dense matrices, and the moduli of
their entries for each rounding bound, where the package sums products
diagonal by diagonal.
The builder references after them write each ladder formula of the paper
entry by entry, where the package composes shared band shapes.
The closed-form references after them evaluate C(n) one index at a
time in Python scalars, and F one index at a time from them, where the
package evaluates each route as one array per index range.
The JSON reference at the end is the stdlib encoder, where the package
writes its reports in one pass of its own.
"""

import cmath
import json
import math

import numpy as np

import fockladder.states as states


def poisson_pmf(mean: float, n: int) -> float:
    if mean == 0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


def log_comb(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def binomial_pmf(M: int, eta: float, n: int) -> float:
    if not 0 <= n <= M:
        return 0.0
    return math.exp(
        log_comb(M, n) + n * math.log(eta) + (M - n) * math.log(1.0 - eta)
    )


def geometric_pmf(eta: float, n: int) -> float:
    return math.exp(math.log(eta) + n * math.log(1.0 - eta))


def negative_binomial_pmf(M: int, eta: float, n: int) -> float:
    return math.exp(
        math.lgamma(M + n)
        - math.lgamma(n + 1)
        - math.lgamma(M)
        + M * math.log(1.0 - eta)
        + n * math.log(eta)
    )


def shifted_negative_binomial_pmf(M: int, eta: float, n: int) -> float:
    if n < M:
        return 0.0
    return math.exp(
        log_comb(n, M) + (M + 1) * math.log(eta) + (n - M) * math.log(1.0 - eta)
    )


def hypergeometric_pmf(L: int, K: int, M: int, n: int) -> float:
    """P(n) = C(K, n) C(L-K, M-n) / C(L, M) for integer L and K = L eta."""
    if not 0 <= n <= min(K, M) or M - n > L - K:
        return 0.0
    return math.exp(log_comb(K, n) + log_comb(L - K, M - n) - log_comb(L, M))


def polya_pmf(M: int, eta: float, gamma: float, n: int) -> float:
    """Rising products rewritten through lgamma:
    prod_{k=1..n} (eta + (k-1) gamma) = gamma^n Gamma(eta/gamma + n) / Gamma(eta/gamma).
    """
    if not 0 <= n <= M:
        return 0.0

    def log_rising(x: float, m: int) -> float:
        if m == 0:
            return 0.0
        return m * math.log(gamma) + math.lgamma(x / gamma + m) - math.lgamma(x / gamma)

    return math.exp(
        log_comb(M, n)
        + log_rising(eta, n)
        + log_rising(1.0 - eta, M - n)
        - log_rising(1.0, M)
    )


def dense_expm(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(a) v for a strictly lower-triangular n x n matrix a: the sum over
    k < n of a^k v / k!, by numpy matvecs, every entry of a in each product.
    A matvec may round a complex product differently from CPython scalars,
    so twophoton.expm agrees with it to rounding (scalar_expm is its bits)."""
    term = total = v
    for k in range(1, a.shape[0]):
        term = a @ term / k
        total = total + term
    return total


def scalar_expm(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(a) v for a strictly lower-triangular n x n matrix a: the sum over
    k < n of a^k v / k! in CPython scalars.  Each matvec sums, row by row
    onto 0.0, the products with a's nonzero entries, each product's parts
    formed from real parts; each term is divided by k with numpy's complex
    division and added onto the sum, which starts at v."""
    n = len(v)
    if n < 2:
        return v
    entries = [(i, j, complex(a[i, j])) for i, j in zip(*np.nonzero(a))]
    term = total = v.astype(np.complex128).tolist()
    for k in range(1, n):
        re, im = [0.0] * n, [0.0] * n
        for i, j, x in entries:
            re[i] += x.real * term[j].real - x.imag * term[j].imag
            im[i] += x.real * term[j].imag + x.imag * term[j].real
        term = [complex(np.complex128(complex(p, q)) / k) for p, q in zip(re, im)]
        total = [s + t for s, t in zip(total, term)]
    return np.array(total, dtype=np.complex128)


def squeezing_reference(r: float, theta: float, dim: int, j: int):
    """exp(xi K+ - xi* K-)|j> and exp(tau K+) (cosh r)^(-2 K0) exp(-tau* K-)|j>,
    xi = r e^{i theta}, tau = e^{i theta} tanh r, by scipy's expm of full
    dim x dim matrices, with K+ = a+^2/2 and K- = a^2/2 built in numpy."""
    from scipy.linalg import expm

    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    k_plus, k_minus = a.T @ a.T / 2, a @ a / 2
    xi = r * cmath.exp(1j * theta)
    tau = cmath.exp(1j * theta) * math.tanh(r)
    generator = xi * k_plus - xi.conjugate() * k_minus
    middle = np.diag(math.cosh(r) ** -(np.arange(dim) + 0.5))
    product = expm(tau * k_plus) @ middle @ expm(-tau.conjugate() * k_minus)
    return expm(generator)[:, j], product[:, j]


def _gamma(m: int) -> float:
    # Higham's gamma_m at the float64 unit roundoff 2**-53
    u = 2.0**-53
    return m * u / (1 - m * u)


def _terms(a: np.ndarray, b: np.ndarray) -> int:
    # at most this many products meet in an entry of a @ b
    return min(len(nonzero_diagonals(a)), len(nonzero_diagonals(b)))


def ratio_peak(residual: np.ndarray, bound: np.ndarray) -> tuple:
    """(residual, bound, (row, column)) at the entry where residual / bound
    peaks, over every entry of the dense matrices in (column - row, row)
    order: the first NaN residual, else the first infinite one, else the
    first NaN ratio, else the first largest ratio, or where every ratio is
    0 the first largest bound.  A zero residual reads ratio 0, any other
    over a zero bound inf."""
    rows, cols = np.indices(residual.shape).reshape(2, -1)
    order = np.lexsort((rows, cols - rows))
    rows, cols = rows[order], cols[order]
    res, bnd = residual[rows, cols], bound[rows, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(res == 0, 0.0, res / bnd)
    faults = (np.flatnonzero(x) for x in (np.isnan(res), np.isinf(res), np.isnan(ratio)))
    faults = [at[0] for at in faults if len(at)]
    if faults:
        t = faults[0]
    elif ratio.max() > 0:
        t = np.flatnonzero(ratio == ratio.max())[0]
    else:
        t = np.flatnonzero(bnd == bnd.max())[0]
    return float(res[t]), float(bnd[t]), (int(rows[t]), int(cols[t]))


def su11_residuals(k_plus, k_minus, k_zero, number, parity_j: int) -> dict:
    """Every su11-* row of the sector battery as (residual, bound), by plain
    dense matmul of the given matrices and of their moduli, top column
    excluded as the battery does: a product row at its ratio_peak, with
    the bound of the battery's derivation, and su11-action, on the three
    diagonals the sector actions name, too; su11-sector-number at its max
    residual, with bound None."""
    dim = k_plus.shape[0]
    k = 0.25 + parity_j / 2.0
    band = np.sqrt((np.arange(dim - 1) + 1) * (np.arange(dim - 1) + parity_j + 0.5))
    P, M, Z, eye = np.abs(k_plus), np.abs(k_minus), np.abs(k_zero), np.eye(dim)
    n_pm = _terms(k_plus, k_minus)
    pm = k_plus @ k_minus - k_minus @ k_plus + 2 * k_zero
    pm_bound = _gamma(n_pm + 8) * (P @ M + M @ P + 2 * Z)
    casimir = (
        k_zero @ k_zero
        - (k_plus @ k_minus + k_minus @ k_plus) / 2
        - k * (k - 1) * eye
    )
    casimir_bound = _gamma(max(n_pm + 9, len(nonzero_diagonals(k_zero)) + 2)) * (
        Z @ Z + (P @ M + M @ P) / 2 + abs(k * (k - 1)) * eye
    )
    for x in (pm, pm_bound, casimir, casimir_bound):
        x[:, -1] = 0.0

    def commutator(x, sign):
        X = np.abs(x)
        residual = np.abs(k_zero @ x - x @ k_zero + sign * x)
        return ratio_peak(residual, _gamma(_terms(k_zero, x) + 2) * (Z @ X + X @ Z + X))

    op = np.diag(np.diag(k_plus, -1), -1) + np.diag(np.diag(k_zero)) + np.diag(np.diag(k_minus, 1), 1)
    action = np.diag(band, -1) + np.diag(np.arange(dim) + k) + np.diag(band, 1)
    return {
        "su11-action": ratio_peak(
            np.abs(op - action), _gamma(5) * (np.abs(op) + np.abs(action))
        )[:2],
        "su11-commutator-plus": commutator(k_plus, -1.0)[:2],
        "su11-commutator-minus": commutator(k_minus, 1.0)[:2],
        "su11-commutator-pm": ratio_peak(np.abs(pm), pm_bound)[:2],
        "su11-casimir": ratio_peak(np.abs(casimir), casimir_bound)[:2],
        "su11-sector-number": (
            float(np.abs(k_zero - k * eye - number).max()), None
        ),
    }


def _real_part_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (Ar@Br - Ai@Bi) + i (Ar@Bi + Ai@Br): where each entry has one
    # nonzero product, every sum is exact and each part rounds as the
    # Python complex product does, on any BLAS
    out = np.empty((len(a), len(b[0])), dtype=complex)
    out.real = a.real @ b.real - a.imag @ b.imag
    out.imag = a.real @ b.imag + a.imag @ b.real
    return out


def gdo_residuals(N, L, R, F, n_min: int = 0) -> dict:
    """Every gdo-* row of the axiom battery as (residual, bound) from the
    dense matrices N, L, R and the structure-function values F(0..dim):
    each matrix product formed from real parts and each bound from the
    plain matmul of the moduli, a product row at its ratio_peak with the
    bound of the battery's derivation, and the two rows on F alone at
    their residual with bound None.  Exact for operands whose products
    have one nonzero term per entry, such as one-band operators."""
    dim = len(N)
    NL, LN, NR, RN, RL, LR = (
        _real_part_matmul(a, b) for a, b in ((N, L), (L, N), (N, R), (R, N), (R, L), (L, R))
    )
    eye = np.eye(dim)

    def commutator(P, Q, x, sign):
        A, X = np.abs(N), np.abs(x)
        bound = _gamma(_terms(N, x) + 2) * (A @ X + X @ A + X)
        return ratio_peak(np.abs(P - Q + sign * x), bound)[:2]

    def off_diagonal(P, a, b):
        # P less its main diagonal, where an inf or NaN stays NaN
        g = math.sqrt(2) * _gamma(_terms(a, b) + 1)
        return ratio_peak(np.abs((1 - eye) * P), g * ((1 - eye) * (np.abs(a) @ np.abs(b))))[:2]

    def diagonal(P, a, b, f, top=False):
        # the real part of P's main diagonal against f
        residual = np.abs(eye * P.real - np.diag(f))
        bound = _gamma(_terms(a, b) + 2) * (eye * (np.abs(a) @ np.abs(b)) + np.diag(np.abs(f)))
        if top:
            residual[:, -1] = bound[:, -1] = 0.0
        return ratio_peak(residual, bound)[:2]

    return {
        "gdo-commutator-lowering": commutator(NL, LN, L, 1.0),
        "gdo-commutator-raising": commutator(NR, RN, R, -1.0),
        "gdo-product-diagonal-rl": off_diagonal(RL, R, L),
        "gdo-product-diagonal-lr": off_diagonal(LR, L, R),
        "gdo-structure-fn": diagonal(RL, R, L, F[:dim]),
        "gdo-shift-consistency": diagonal(LR, L, R, F[1:], top=True),
        "gdo-fock-condition": (abs(F[n_min]), None),
        "gdo-nonnegativity": (max(0.0, float(-F.min())), None),
    }


def band_product_reference(x: dict, y: dict, n: int) -> dict:
    """x @ y for n x n matrices given as offset (column - row) -> diagonal,
    entry by entry in Python scalars: entry (i, i+s) sums the complex
    products x[i, i+p] * y[i+p, i+s] over the offsets p of x in ascending
    order onto 0j.  An offset that no pair of diagonals reaches is left
    out."""

    def entry(bands, k, row):
        return complex(bands[k][row - max(0, -k)])  # row t + max(0, -k)

    out = {}
    for s in sorted({p + q for p in x for q in y}):
        values, reached = [], False
        for i in range(max(0, -s), min(n, n - s)):
            total = 0j
            for p in sorted(x):
                if s - p in y and 0 <= i + p < n:
                    total += entry(x, p, i) * entry(y, s - p, i + p)
                    reached = True
            values.append(total)
        if reached:
            out[s] = np.array(values, dtype=complex)
    return out


def nonzero_diagonals(a: np.ndarray) -> dict:
    """The reference band reader: the diagonals of a square matrix that
    hold a nonzero entry, as offset (column - row) -> a.diagonal(offset) in
    ascending order, read from the entries themselves.  A stray entry
    anywhere adds its own offset, and NaN counts as nonzero, as in
    np.nonzero."""
    n = a.shape[0]
    at = np.flatnonzero(a != 0)
    return {int(k): a.diagonal(k) for k in np.unique(at % n - at // n)}


def state_support_reference(amplitudes) -> tuple[tuple[int, int], str]:
    """The support and parity make_state derives, read one entry at a time
    in Python scalars: an entry counts when it compares unequal to 0, so
    -0.0 does not and NaN does."""
    occupied = [n for n, a in enumerate(amplitudes) if complex(a) != 0]
    if not occupied:
        return (0, -1), "full"
    if all(n % 2 == 0 for n in occupied):
        parity = "even"
    elif all(n % 2 == 1 for n in occupied):
        parity = "odd"
    else:
        parity = "full"
    return (occupied[0], occupied[-1]), parity


def _ladder_root(n: int, k: int) -> float:
    # sqrt of (n+1)...(n+k) for k >= 0, of n(n-1)...(n+k+1) for k < 0
    return math.sqrt(math.perm(n + k, k) if k >= 0 else math.perm(n, -k))


def band_image_reference(op, amplitudes) -> tuple[np.ndarray, float]:
    """The image of the amplitude vector under op's band terms and the
    squared mass past the truncation: term by term, index by index, each
    contribution amp * d(n) * ladder factor a Python complex product."""
    dim = op.domain_dim
    out = np.zeros(dim, dtype=complex)
    leak = 0.0
    for k, d in op.terms:
        for n in range(dim):
            amp = complex(amplitudes[n])
            factor = _ladder_root(n, k)
            if amp == 0 or factor == 0:
                continue
            contrib = amp * complex(d(n)) * factor
            if n + k >= dim:
                leak += abs(contrib) ** 2
            else:
                out[n + k] += contrib
    return out, leak


def structure_fn_reference(op, n: int) -> float:
    """||op|n>||^2, leak included, from the scalar image of |n>."""
    if not 0 <= n < op.domain_dim:
        return 0.0
    basis = np.zeros(op.domain_dim, dtype=complex)
    basis[n] = 1.0
    out, leak = band_image_reference(op, basis)
    return float(np.vdot(out, out).real) + leak


def matrix_reference(op) -> np.ndarray:
    """op entrywise on its truncation, one Python product per entry."""
    dim = op.domain_dim
    mat = np.zeros((dim, dim), dtype=complex)
    for k, d in op.terms:
        for n in range(max(0, -k), min(dim, dim - k)):
            mat[n + k, n] += complex(d(n)) * _ladder_root(n, k)
    return mat


# --- per-index references for the ladder builders ---
# Each writes the paper's formula entry by entry in Python scalars: f(N) a
# puts f(n-1) sqrt(n) at (n-1, n), f(N) a+ puts f(n+1) sqrt(n+1) at
# (n+1, n), and a diagonal f puts f(n) at (n, n).  A coefficient ratio
# whose numerator vanishes is 0 without reading the denominator.


def _coeff(coeffs, n: int) -> complex:
    return complex(coeffs[n]) if 0 <= n < len(coeffs) else 0.0


def _ratio(num: complex, den: complex) -> complex:
    return 0.0 if num == 0 else num / den


def _entries(dim: int, lowering=None, diagonal=None, raising=None) -> np.ndarray:
    mat = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        if diagonal is not None:
            mat[n, n] = diagonal(n)
        if lowering is not None and n >= 1:
            mat[n - 1, n] = lowering(n - 1) * math.sqrt(n)
        if raising is not None and n + 1 < dim:
            mat[n + 1, n] = raising(n + 1) * math.sqrt(n + 1)
    return mat


def general_lowering_reference(coeffs, dim: int) -> np.ndarray:
    """a - [C(N+1)/C(N)] sqrt(N+1)."""
    return _entries(
        dim,
        lowering=lambda t: 1.0,
        diagonal=lambda n: -(
            _ratio(_coeff(coeffs, n + 1), _coeff(coeffs, n)) * math.sqrt(n + 1)
        ),
    )


def added_raising_reference(coeffs, M: int, dim: int) -> np.ndarray:
    """N - [C(N-M)/C(N-M-1)] sqrt(N-M) a+, the raising part zero at N <= M."""

    def f(t: int) -> complex:
        if t <= M:
            return 0.0
        return -(
            _ratio(_coeff(coeffs, t - M), _coeff(coeffs, t - M - 1)) * math.sqrt(t - M)
        )

    return _entries(dim, diagonal=lambda n: n, raising=f)


def pair_left_reference(M: int, dim: int) -> np.ndarray:
    """(N+1-M) a, the left side of the lowered pairs."""
    return _entries(dim, lowering=lambda t: t + 1 - M)


def added_lowered_right_reference(coeffs, M: int, dim: int) -> np.ndarray:
    """[C(N+1-M)/C(N-M)] sqrt(N+1-M) (N+1), zero at N+1 <= M."""

    def right(n: int) -> complex:
        if n + 1 - M <= 0:
            return 0.0
        ratio = _ratio(_coeff(coeffs, n + 1 - M), _coeff(coeffs, n - M))
        return ratio * math.sqrt(n + 1 - M) * (n + 1)

    return _entries(dim, diagonal=right)


def shifted_lowered_right_reference(coeffs, M: int, dim: int) -> np.ndarray:
    """(N+1-M) sqrt(N+1) D(N+1)/D(N)."""

    def right(n: int) -> complex:
        num = (n + 1 - M) * _coeff(coeffs, n + 1)
        return _ratio(num, _coeff(coeffs, n)) * math.sqrt(n + 1)

    return _entries(dim, diagonal=right)


def step_down_f_reference(coeffs_M, coeffs_Mm1) -> np.ndarray:
    """f(N) a, f(N) = C(N, M-1) / (sqrt(N+1) C(N+1, M))."""
    return _entries(
        len(coeffs_M),
        lowering=lambda t: _ratio(_coeff(coeffs_Mm1, t), _coeff(coeffs_M, t + 1))
        / math.sqrt(t + 1),
    )


def step_up_f_reference(coeffs_M, coeffs_Mp1) -> np.ndarray:
    """f(N) a+, f(N) = D(N, M+1) / (sqrt(N) D(N-1, M))."""
    return _entries(
        len(coeffs_M),
        raising=lambda t: _ratio(_coeff(coeffs_Mp1, t), _coeff(coeffs_M, t - 1))
        / math.sqrt(t),
    )


def step_down_g_reference(coeffs_M, coeffs_Mm1, M: int) -> np.ndarray:
    """C(N, M-1)/C(N, M) on n <= M-1, zero above."""
    return _entries(
        len(coeffs_M),
        diagonal=lambda n: _ratio(_coeff(coeffs_Mm1, n), _coeff(coeffs_M, n))
        if n <= M - 1
        else 0.0,
    )


def step_up_g_reference(coeffs_M, coeffs_Mp1, M: int) -> np.ndarray:
    """D(N, M+1)/D(N, M) on n >= M+1, zero below."""
    return _entries(
        len(coeffs_M),
        diagonal=lambda n: _ratio(_coeff(coeffs_Mp1, n), _coeff(coeffs_M, n))
        if n >= M + 1
        else 0.0,
    )


def gs_lowering_reference(dim: int) -> np.ndarray:
    """[1/sqrt(N+1)] a."""
    return _entries(dim, lowering=lambda t: 1.0 / math.sqrt(t + 1))


def _finite_literal(g, M: int, dim: int) -> np.ndarray:
    """N + g(N) a for a state on [0, M]: g is zero at N >= M."""
    return _entries(dim, diagonal=lambda n: n, lowering=lambda t: g(t) if t < M else 0.0)


def bs_ladder_reference(eta: float, M: int, dim: int) -> np.ndarray:
    """N + sqrt((1-eta)/eta) sqrt(M-N) a."""
    return _finite_literal(
        lambda t: math.sqrt((1 - eta) / eta) * math.sqrt(M - t), M, dim
    )


def hgs_ladder_reference(L: float, eta: float, M: int, dim: int) -> np.ndarray:
    """N + sqrt((L(1-eta)-M+N+1)/(L eta-N)) sqrt(M-N) a."""
    return _finite_literal(
        lambda t: math.sqrt((L * (1 - eta) - M + t + 1) / (L * eta - t))
        * math.sqrt(M - t),
        M,
        dim,
    )


def ps_ladder_reference(
    eta: float, gamma: float, M: int, dim: int, printed: bool = False
) -> np.ndarray:
    """N + sqrt(((1-eta)+(M-N-1)gamma)/(eta+N gamma)) sqrt(M-N) a, or with
    (M+N-1)gamma in the numerator, as printed."""

    def g(t: int) -> float:
        offset = M + t - 1 if printed else M - t - 1
        return math.sqrt(((1 - eta) + offset * gamma) / (eta + t * gamma)) * math.sqrt(M - t)

    return _finite_literal(g, M, dim)


def rbs_ladder_reference(theta: float, M: int, dim: int) -> np.ndarray:
    """N + ((M-N)/(N+1)) e^{-i theta} sqrt(M-N) a."""
    phase = cmath.exp(-1j * theta)
    return _finite_literal(lambda t: (M - t) / (t + 1) * phase * math.sqrt(M - t), M, dim)


def pbps_ladder_reference(theta_m: float, M: int, dim: int) -> np.ndarray:
    """N + ((M-N)/sqrt(N+1)) e^{-i theta_m} a."""
    phase = cmath.exp(-1j * theta_m)
    return _finite_literal(lambda t: (M - t) / math.sqrt(t + 1) * phase, M, dim)


def ggs_ladder_reference(Y: complex, M: int, dim: int) -> np.ndarray:
    """N + ((M-N)/(sqrt(Y) sqrt(N+1))) a."""
    return _finite_literal(lambda t: (M - t) / (cmath.sqrt(Y) * math.sqrt(t + 1)), M, dim)


def kerr_lowering_reference(theta: float, dim: int, printed: bool = False) -> np.ndarray:
    """exp(2i theta N) a, or exp(-2i N theta) a as printed."""
    sign = -1 if printed else 1
    return _entries(dim, lowering=lambda t: cmath.exp(sign * 2j * theta * t))


def nbs_lowering_reference(M: int, dim: int) -> np.ndarray:
    """[1/sqrt(M+N)] a."""
    return _entries(dim, lowering=lambda t: 1.0 / math.sqrt(M + t))


def nnbs_lowering_reference(M: int, dim: int) -> np.ndarray:
    """[sqrt(N+1-M)/(N+1)] a, zero at N+1 < M."""
    return _entries(
        dim, lowering=lambda t: math.sqrt(t + 1 - M) / (t + 1) if t + 1 >= M else 0.0
    )


def added_coherent_lowering_reference(M: int, dim: int) -> np.ndarray:
    """[1 - M/(N+1)] a."""
    return _entries(dim, lowering=lambda t: 1.0 - M / (t + 1))


def added_coherent_right_reference(alpha: complex, dim: int) -> np.ndarray:
    """alpha (N+1), the right side of the coherent-base lowered pair."""
    return _entries(dim, diagonal=lambda n: alpha * (n + 1))


def gs_pair_right_reference(eta: float, dim: int) -> np.ndarray:
    """sqrt(1-eta) sqrt(N+1), the right side of the geometric pair."""
    return _entries(dim, diagonal=lambda n: math.sqrt(1 - eta) * math.sqrt(n + 1))


def intermediate_ladder_reference(eta: float, dim: int, f=None) -> np.ndarray:
    """sqrt(eta) N + sqrt(1-eta) f(N) a, f = 1 when none is given."""
    return _entries(
        dim,
        diagonal=lambda n: math.sqrt(eta) * n,
        lowering=lambda t: math.sqrt(1 - eta) * (1.0 if f is None else complex(f(t))),
    )


# The sector operators act on the reindexed basis ||n> of sector j:
# K+ ||n> = sqrt(n+1) sqrt(n+j+1/2) ||n+1>, K- ||n> = sqrt(n) sqrt(n+j-1/2) ||n-1>.


def su11_references(j: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K+, K- and K0 = N + j/2 + 1/4 on sector j."""
    k_plus, k_minus, k_zero = (np.zeros((dim, dim), dtype=complex) for _ in range(3))
    for n in range(dim):
        k_zero[n, n] = n + j / 2 + 1 / 4
        if n + 1 < dim:
            k_plus[n + 1, n] = math.sqrt(n + j + 0.5) * math.sqrt(n + 1)
        if n >= 1:
            k_minus[n - 1, n] = math.sqrt(n + j - 0.5) * math.sqrt(n)
    return k_plus, k_minus, k_zero


def _sector_raising_value(coeffs, j: int, t: int) -> complex:
    # sqrt(t) c(t) / (c(t-1) sqrt(t - 1/2 + j)), the diagonal in front of K+
    ratio = _ratio(_coeff(coeffs, t), _coeff(coeffs, t - 1))
    return ratio * math.sqrt(t) / math.sqrt(t - 0.5 + j)


def two_photon_raising_reference(coeffs, j: int, dim: int) -> np.ndarray:
    """[sqrt(N) c(N) / (c(N-1) sqrt(N - 1/2 + j))] K+."""
    mat = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        value = _sector_raising_value(coeffs, j, n + 1) * math.sqrt(n + j + 0.5)
        mat[n + 1, n] = value * math.sqrt(n + 1)
    return mat


def two_photon_up_reference(coeffs, j: int, dim: int) -> np.ndarray:
    """N - [sqrt(N) c(N) / (c(N-1) sqrt(N - 1/2 + j))] K+."""
    up = -two_photon_raising_reference(coeffs, j, dim)
    for n in range(dim):
        up[n, n] = n
    return up


def two_photon_down_reference(coeffs, j: int, dim: int) -> np.ndarray:
    """c(N+1) sqrt(N + 1/2 + j) (N+1) / c(N) - sqrt(N+1) K-."""
    down = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        ratio = _ratio(_coeff(coeffs, n + 1), _coeff(coeffs, n))
        down[n, n] = ratio * math.sqrt(n + 0.5 + j) * (n + 1)
        if n >= 1:
            down[n - 1, n] = -(math.sqrt(n) * math.sqrt(n + j - 0.5)) * math.sqrt(n)
    return down


def pair_lowering_over_reference(j: int, dim: int) -> np.ndarray:
    """[1/(N+1+j)] a^2: entry (t, t+2) is sqrt((t+1)(t+2)) / (t+1+j)."""
    mat = np.zeros((dim, dim), dtype=complex)
    for t in range(dim - 2):
        mat[t, t + 2] = 1.0 / (t + 1 + j) * math.sqrt((t + 1) * (t + 2))
    return mat


# --- per-index closed-form references ---
# The closed-form routes as fockladder first wrote them: one Python
# formula per index, each with its route's range rules, and the
# structure functions read from them one index at a time.


def _support(lo, hi, fn):
    def c(n: int) -> complex:
        return fn(n) if lo <= n <= hi else 0.0

    return c


def _finite_alpha(alpha: complex) -> complex:
    if not cmath.isfinite(alpha):
        raise states.ParameterError("alpha must be finite")
    return alpha


def coherent_reference(alpha: complex):
    alpha = _finite_alpha(complex(alpha))
    if alpha == 0:
        return _support(0, 0, lambda n: 1.0)
    log_a = cmath.log(alpha)
    return _support(0, math.inf, lambda n: cmath.exp(n * log_a - 0.5 * math.lgamma(n + 1)))


def kerr_reference(alpha: complex, theta: float):
    theta = states._check_angle(theta)
    base = coherent_reference(alpha)
    return lambda n: base(n) * cmath.exp(-1j * theta * n * (n - 1))


def geometric_reference(eta: float):
    eta = states._check_eta(eta)
    return _support(0, math.inf, lambda n: (1.0 - eta) ** (n / 2.0))


def squeezed_reference(r: float, theta: float, dim: int, j: int):
    states._check_r(r)
    states._check_sector_dim(dim, j)
    theta = states._check_angle(theta)
    t = math.tanh(r)
    if t / 2 == 0.0:
        return _support(0, 0, lambda n: 1.0)

    def c(n: int) -> complex:
        log_mag = (
            0.5 * math.lgamma(2 * n + 1 + j) + n * math.log(t / 2) - math.lgamma(n + 1)
        )
        return math.exp(log_mag) * cmath.exp(1j * theta * n)

    return _support(0, math.inf, c)


def coherent_sector_reference(alpha: complex, j: int):
    base = coherent_reference(states._check_pair_alpha(alpha, j))
    return lambda n: base(2 * n + j)


def binomial_reference(eta: float, M: int):
    eta, M = states._check_eta(eta), states._check_count(M, "M")

    def c(n: int) -> complex:
        return math.exp(
            0.5 * (log_comb(M, n) + n * math.log(eta) + (M - n) * math.log(1 - eta))
        )

    return _support(0, M, c)


def hypergeometric_reference(L: float, eta: float, M: int):
    eta, M = states._check_eta(eta), states._check_count(M, "M")
    L = states._check_L(L, eta, M)
    Le, Lb = L * eta, L * (1 - eta)
    logZ = log_comb(L, M)

    def c(n: int) -> complex:
        return math.exp(0.5 * (log_comb(Le, n) + log_comb(Lb, M - n) - logZ))

    return _support(0, M, c)


def polya_reference(eta: float, gamma: float, M: int):
    eta = states._check_eta(eta)
    gamma, M = states._check_gamma(gamma, M)

    def log_rising(x: float, m: int) -> float:
        if m == 0:
            return 0.0
        if x / gamma == 0:
            raise states.ParameterError(
                f"eta={eta!r} and gamma={gamma!r} round eta/gamma or (1-eta)/gamma to 0 in "
                "the polya closed form; use a smaller gamma or an eta farther from 0 and 1"
            )
        if math.isinf(x / gamma):
            raise states.ParameterError(
                f"eta={eta!r} and gamma={gamma!r} overflow eta/gamma, (1-eta)/gamma or "
                "1/gamma in the polya closed form; use a larger gamma"
            )
        return m * math.log(gamma) + math.lgamma(x / gamma + m) - math.lgamma(x / gamma)

    logZ = log_rising(1.0, M)

    def c(n: int) -> complex:
        return math.exp(
            0.5 * (log_comb(M, n) + log_rising(eta, n) + log_rising(1 - eta, M - n) - logZ)
        )

    return _support(0, M, c)


def reciprocal_binomial_reference(theta: float, M: int):
    M = states._check_count(M, "M")
    theta = states._check_angle(theta)

    def over_comb(x: complex, k: int, root: bool) -> complex:
        comb = math.comb(M, k)
        try:
            return x / (math.sqrt(comb) if root else comb)
        except OverflowError:
            return x * math.exp(-(0.5 if root else 1.0) * log_comb(M, k))

    Z = math.sqrt(sum(over_comb(1.0, k, False) for k in range(M + 1)))
    return _support(0, M, lambda n: over_comb(cmath.exp(1j * n * theta), n, True) / Z)


def phase_reference(theta_m: float, M: int):
    pref = 1.0 / math.sqrt(M + 1)
    return _support(0, M, lambda n: pref * cmath.exp(1j * n * theta_m))


def generalized_geometric_reference(Y: complex, M: int):
    Y, M = states._check_Y(Y), states._check_count(M, "M")
    if Y == 0 and M > 0:
        raise states.ParameterError(
            "Y must be nonzero for M >= 1: the ladder operators divide by "
            "C(n) = 0 at n >= 1"
        )
    root = cmath.sqrt(Y)
    mod = abs(Y)
    scale = max(1.0, abs(root))
    unit = root / scale
    if mod < 1.0:
        pref = math.sqrt((1 - mod) / (1 - mod ** (M + 1)))
    else:
        pref = math.sqrt((1 - 1 / mod) / (1 - mod ** -(M + 1)))
        if pref * scale**-M < np.finfo(float).tiny:
            raise states.ParameterError(
                f"C(0) of generalized_geometric underflows at Y={states.format_complex(Y)}, "
                f"M={M}; use a smaller |Y| or M"
            )
    return _support(0, M, lambda n: pref * scale ** (n - M) * unit**n)


def negative_binomial_reference(eta: float, M: int):
    eta, M = states._check_eta(eta), states._check_count(M, "M", minimum=1)
    log_pref = 0.5 * M * math.log(1 - eta)

    def c(n: int) -> complex:
        return math.exp(log_pref + 0.5 * (log_comb(M + n - 1, n) + n * math.log(eta)))

    return _support(0, math.inf, c)


def nnbs_reference(eta: float, M: int):
    eta, M = states._check_eta(eta), states._check_count(M, "M")
    log_pref = 0.5 * (M + 1) * math.log(eta)

    def c(n: int) -> complex:
        return math.exp(log_pref + 0.5 * (log_comb(n, M) + (n - M) * math.log(1 - eta)))

    return _support(M, math.inf, c)


def pacs_reference(alpha: complex, M: int, dim: int):
    alpha, M = complex(alpha), states._check_count(M, "M")
    dim = states._check_dim(dim, M)

    def term(n: int) -> complex:
        return cmath.exp(
            (n - M) * cmath.log(alpha) + 0.5 * math.lgamma(n + 1) - math.lgamma(n - M + 1)
        )

    raw = _support(M, M, lambda n: 1.0) if alpha == 0 else _support(M, math.inf, term)
    moduli = [abs(raw(n)) for n in range(dim)]
    e = math.frexp(max(moduli))[1]
    K = math.ldexp(1.0 / math.sqrt(sum(math.ldexp(m, -e) ** 2 for m in moduli)), -e)
    return lambda n: K * raw(n)


def _theta_m(p) -> float:
    return states.phase_point(p["theta0"], p["m"], p["M"])


# family -> (params, dim) -> the per-index route, as the family table reads
# the package's routes
CLOSED_FORM_REFERENCES = {
    "binomial": lambda p, dim: binomial_reference(p["eta"], p["M"]),
    "hypergeometric": lambda p, dim: hypergeometric_reference(p["L"], p["eta"], p["M"]),
    "polya": lambda p, dim: polya_reference(p["eta"], p["gamma"], p["M"]),
    "reciprocal_binomial": lambda p, dim: reciprocal_binomial_reference(p["theta"], p["M"]),
    "pegg_barnett_phase": lambda p, dim: phase_reference(_theta_m(p), p["M"]),
    "generalized_geometric": lambda p, dim: generalized_geometric_reference(p["Y"], p["M"]),
    "coherent": lambda p, dim: coherent_reference(p["alpha"]),
    "geometric": lambda p, dim: geometric_reference(p["eta"]),
    "negative_binomial": lambda p, dim: negative_binomial_reference(p["eta"], p["M"]),
    "new_negative_binomial": lambda p, dim: nnbs_reference(p["eta"], p["M"]),
    "kerr": lambda p, dim: kerr_reference(p["alpha"], p["theta"]),
    "svs": lambda p, dim: squeezed_reference(p["r"], p["theta"], dim, 0),
    "sfes": lambda p, dim: squeezed_reference(p["r"], p["theta"], dim, 1),
    "ecs": lambda p, dim: coherent_sector_reference(p["alpha"], 0),
    "ocs": lambda p, dim: coherent_sector_reference(p["alpha"], 1),
    "pacs": lambda p, dim: pacs_reference(p["alpha"], p["M"], dim),
}


def finite_F_reference(c, M: int, dim: int) -> np.ndarray:
    """F(n) = (M-n+1)^2 |C(n-1)/C(n)|^2 on [1, M], one index at a time;
    C(n) is read only where C(n-1) is nonzero."""
    return np.array(
        [0.0 if n < 1 or n > M else (M - n + 1) ** 2 * _ratio_sq(c, n - 1, n) for n in range(dim)]
    )


def raising_F_reference(c, M: int, dim: int) -> np.ndarray:
    """F(n) = (n-M)^2 |C(n)/C(n-1)|^2 on (M, dim), one index at a time."""
    return np.array(
        [0.0 if n <= M else (n - M) ** 2 * _ratio_sq(c, n, n - 1) for n in range(dim)]
    )


def _ratio_sq(c, num_idx: int, den_idx: int) -> float:
    num = c(num_idx)
    if num == 0:
        return 0.0
    return abs(num / c(den_idx)) ** 2


# --- report serialization ---


def _encode_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))  # "inf", "-inf", "nan", for np.float64 too
    if isinstance(value, dict):
        return {k: _encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return value


def json_reference(payload) -> str:
    """A report payload through json.dumps, non-finite floats as strings."""
    return json.dumps(
        _encode_value(payload), sort_keys=True, indent=2, allow_nan=False
    ) + "\n"
