"""The closed-form routes' array forms against their per-index references.

Every route of closedform.py evaluates C(n) over an index array in one
pass, and finite_F / raising_F form the structure functions from a table
of C.  Both must give the bits the per-index Python formulas give
(tests/_oracles.py keeps those formulas): the values, their dtype (float64
only where every per-index value is a Python float) and the signs of
zeros, and where a formula raises, the same error at the same index.  The
suites read each route as one table per suite input, evaluated once.
"""

import collections
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockladder as fl
import fockladder.closedform as closedform
import fockladder.core as core
import fockladder.verify as verify
from fockladder.cli import main
from _oracles import (
    CLOSED_FORM_REFERENCES,
    finite_F_reference,
    raising_F_reference,
)
from test_complex_arithmetic import _complex, _float
from test_properties import BOXES

ROUTED = sorted(f for f, spec in fl.FAMILY_SPECS.items() if spec.closed_form is not None)
DRAWS = 20000


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return "raises", type(exc), str(exc)


def _typed(values: list) -> np.ndarray:
    """Per-index values as the package types them: float64 when every one
    is a Python float, complex128 otherwise."""
    if all(isinstance(v, float) for v in values):
        return np.array(values, dtype=float)
    return np.array(values, dtype=complex)


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    """Same dtype and bits, signs of zeros included; a NaN matches any NaN."""
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    parts = (lambda a: (a.real, a.imag)) if got.dtype.kind == "c" else (lambda a: (a,))
    for g, w in zip(parts(got), parts(want)):
        nan = np.isnan(g) & np.isnan(w)
        if not (nan | ((g == w) & (np.signbit(g) == np.signbit(w)))).all():
            return False
    return True


def _basis(family: str, dim: int) -> int:
    spec = fl.FAMILY_SPECS[family]
    return fl.sector_dim(dim, spec.sector) if spec.kind == "two-photon" else dim


def _reference_F(family, c, p, n):
    kind = fl.FAMILY_SPECS[family].kind
    if kind == "finite":
        return finite_F_reference(c, p["M"], n)
    return raising_F_reference(c, p["M"] if kind in ("shifted", "added") else 0, n)


def _F(family, table, p):
    kind = fl.FAMILY_SPECS[family].kind
    if kind == "finite":
        return closedform.finite_F(table, p["M"])
    return closedform.raising_F(table, p["M"] if kind in ("shifted", "added") else 0)


@settings(max_examples=16 * 15)
@given(case=st.sampled_from(ROUTED).flatmap(BOXES.get))
@example(case=("negative_binomial", {"eta": 0.3, "M": 3}, 256))
@example(case=("ocs", {"alpha": 1.1 - 0.4j}, 128))
@example(case=("sfes", {"r": 0.8, "theta": -0.5}, 128))
@example(case=("kerr", {"alpha": -0.7 + 1.2j, "theta": -0.3}, 64))
@example(case=("binomial", {"eta": 0.5, "M": 0}, 1))
@example(case=("coherent", {"alpha": 0j}, 8))
@example(case=("kerr", {"alpha": 0j, "theta": 0.3}, 16))
@example(case=("coherent", {"alpha": 0.8 - 0.6j}, 64))
@example(case=("ecs", {"alpha": 0j}, 16))  # a zero numerator in F
@example(case=("pacs", {"alpha": 0.8 + 0.6j, "M": 5}, 12))
@example(case=("pacs", {"alpha": -1.5, "M": 3}, 9))
@example(case=("pacs", {"alpha": 0j, "M": 3}, 9))
@example(case=("reciprocal_binomial", {"theta": -0.7, "M": 4}, 12))
@example(case=("reciprocal_binomial", {"theta": 0.3, "M": 1100}, 1101))
@example(case=("pegg_barnett_phase", {"theta0": -0.0, "m": 0, "M": 3}, 8))
@example(case=("generalized_geometric", {"Y": 0j, "M": 0}, 4))
@example(case=("generalized_geometric", {"Y": -2.0 + 1e-3j, "M": 40}, 44))
@example(case=("svs", {"r": 0.0, "theta": 0.5}, 16))
# a zero divisor in F, real and complex
@example(case=("binomial", {"eta": 1e-8, "M": 224}, 231))
@example(case=("generalized_geometric", {"Y": -1.1e-13 - 1.1e-13j, "M": 128}, 130))
# a route that raises: past the float range, and lgamma's pole
@example(case=("coherent", {"alpha": 1e3}, 1024))
@example(case=("polya", {"eta": 5e-324, "gamma": 993471.7366795965, "M": 82}, 89))
# 1/gamma past the float range, refused by name; tanh(r)/2 rounding to 0
@example(case=("polya", {"eta": 0.5, "gamma": 5e-324, "M": 1}, 2))
@example(case=("svs", {"r": 5e-324, "theta": 0.0}, 4))
@example(case=("sfes", {"r": 5e-324, "theta": 2.0}, 4))
def test_array_route_and_F_match_the_per_index_reference(case):
    family, params, dim = case
    spec = fl.FAMILY_SPECS[family]
    route = _outcome(lambda: spec.closed_form(params, dim))
    reference = _outcome(lambda: CLOSED_FORM_REFERENCES[family](params, dim))
    if route[0] != "ok" or reference[0] != "ok":
        assert route == reference
        return
    route, reference = route[1], reference[1]
    n = _basis(family, dim)
    # the table's indices and two past its end
    ns = np.arange(n + 2)
    want = _outcome(lambda: _typed([reference(k) for k in ns.tolist()]))
    got = _outcome(lambda: route.values(ns))
    assert got[0] == want[0]
    if want[0] != "ok":
        assert got[1:] == want[1:]
        return
    assert _same(got[1], want[1])

    # index arrays inside, across and past the support, one at a time too,
    # and as the builders gather them from the table on [0, n), which
    # reads past its end only C(n)
    M = params.get("M", 0)
    gathered = verify._closed_form_diag(route, route.values(np.arange(n)))
    for picks in ([M - 1, M, M + 1], [M + 1, M + 2], [0, n - 1, n + 1], [n + 1], []):
        sub = np.array(sorted({k for k in picks if 0 <= k < n + 2}), dtype=int)
        want = _typed([reference(k) for k in sub.tolist()])
        assert _same(route.values(sub), want)
        held = sub[sub <= n]
        assert _same(gathered.values(held), _typed([reference(k) for k in held.tolist()]))
        for k in sub.tolist():
            assert _same(_typed([route(k)]), _typed([reference(k)]))
    if route.lo <= n + 1 <= route.hi:  # past C(n) a read raises, not guesses
        with pytest.raises(IndexError, match=rf"^C\({n + 1}\) is past the table's end"):
            gathered.values(np.array([n + 1]))

    # the structure function over the table, or the error it raises
    table = route.values(np.arange(n))
    p = verify._int_counts(params)
    got = _outcome(lambda: _F(family, table, p))
    want = _outcome(lambda: _reference_F(family, reference, p, n))
    assert got[0] == want[0]
    if want[0] == "ok":
        assert _same(got[1], want[1])
    else:
        assert got[1:] == want[1:]


def _two_faults(ns):
    # a formula with two faults: array order meets the later index's first,
    # since its first operation runs over every index before the second
    def late(n: int) -> float:
        if n == 5:
            raise OverflowError("at 5")
        return 1.0

    def early(n: int) -> float:
        if n == 2:
            raise ZeroDivisionError("at 2")
        return 1.0

    return closedform._each(late, ns) + closedform._each(early, ns)


@pytest.mark.parametrize("form", ["Coeffs", "_array_diag"])
def test_an_array_read_raises_the_first_fault_in_index_order(form):
    # the builders' read of either class
    if form == "Coeffs":
        d = closedform.Coeffs(0, math.inf, _two_faults)
    else:
        d = core._array_diag(_two_faults)
    with pytest.raises(ZeroDivisionError, match="^at 2$"):
        core._diag_values(d, np.arange(8), "index")
    with pytest.raises(OverflowError, match="^at 5$"):
        core._diag_values(d, np.arange(3, 8), "index")
    assert core._diag_values(d, np.arange(2), "index").tolist() == [2.0, 2.0]


def test_a_coeffs_read_runs_its_formula_once_and_raises_its_error():
    # values and c(n) are one run of the formula each, so a direct read
    # raises the formula's own first error, not the first in index order
    runs = []
    d = closedform.Coeffs(0, math.inf, lambda ns: runs.append(ns) or _two_faults(ns))
    with pytest.raises(OverflowError, match="^at 5$"):
        d.values(np.arange(8))
    with pytest.raises(ZeroDivisionError, match="^at 2$"):
        d(2)
    assert d.values(np.arange(2)).tolist() == [2.0, 2.0] and d(7) == 2.0
    assert [ns.tolist() for ns in runs] == [list(range(8)), [2], [0, 1], [7]]


def test_a_faulting_coeffs_in_a_builder_runs_at_most_three_times_an_index():
    # the numerator's and the denominator's array reads, then at most one
    # per-index re-read by _diag_values: the Coeffs re-reads nothing itself
    runs = collections.Counter()

    def formula(ns):
        runs.update(ns.tolist())
        for n in (4, 7):
            if n in ns:
                raise ZeroDivisionError(f"at {n}")
        return 1.0 + ns

    c = closedform.Coeffs(0, math.inf, formula)
    with pytest.raises(ZeroDivisionError, match="^at 4$"):
        core.to_bands(fl.general_gdo(c, 10).lowering)
    assert max(runs.values()) == 3 and runs[1] == runs[2] == 3, runs


SPECIAL_ENTRIES = {
    "f": [0.0, -0.0, 1e-320, 1.0, 1e160, -1e160, 1e308, math.inf, math.nan],
    "c": [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1e-320j, 1 + 0j, -1e160j,
          complex(1.5e308, 1.5e308), complex(math.inf, 0.0), complex(math.nan, 1.0)],
}


def _magnitude(rng: random.Random) -> float:
    return rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-300, 300)


def _table_entry(rng: random.Random, kind: str):
    if rng.random() < 0.3:
        return rng.choice(SPECIAL_ENTRIES[kind])
    if kind == "c":
        return complex(_magnitude(rng), rng.choice([0.0, -0.0, _magnitude(rng)]))
    return _magnitude(rng)


@pytest.mark.parametrize("kind", ["f", "c"])
def test_F_of_drawn_tables_matches_python_per_index(kind):
    # zeros of both signs, subnormals, squares past the float range, inf
    # and NaN: each F is Python's per-index value, or the error Python
    # raises first (ZeroDivisionError, OverflowError)
    rng = random.Random(f"F-{kind}")
    raised = set()
    for _ in range(1500):
        size = rng.randint(1, 10)
        values = [_table_entry(rng, kind) for _ in range(size)]
        table = np.array(values, dtype=complex if kind == "c" else float)
        table = table[: rng.randint(1, size)] if rng.random() < 0.2 else table
        size = len(table)
        M = rng.randint(0, size)
        scalars = table.tolist()
        c = scalars.__getitem__
        for F, reference in (
            (closedform.finite_F, lambda: finite_F_reference(c, M, size)),
            (closedform.raising_F, lambda: raising_F_reference(c, M, size)),
        ):
            got, want = _outcome(lambda: F(table, M)), _outcome(reference)
            assert got[0] == want[0], (values, M)
            if want[0] == "ok":
                assert _same(got[1], want[1]), (values, M)
            else:
                assert got[1:] == want[1:], (values, M)
                raised.add(want[1:])
    messages = {message for _, message in raised}
    assert ("absolute value too large" in messages) == (kind == "c")
    assert f"{'complex' if kind == 'c' else 'float'} division by zero" in messages
    assert "(34, 'Numerical result out of range')" in messages


# --- the scalar stand-ins, pinned to Python's operators ---


def test_hypot_is_abs_of_a_complex_with_finite_parts():
    # _ratio_F takes |q| as np.hypot(q.real, q.imag) where q's parts are
    # finite; where abs raises there (hypot is inf), or q is not finite, it
    # reads the whole table through Python's operators
    rng = random.Random("hypot")
    zs = []
    while len(zs) < DRAWS:
        z = _complex(rng)
        if math.isfinite(z.real) and math.isfinite(z.imag):
            zs.append(z)
    re, im = np.array([z.real for z in zs]), np.array([z.imag for z in zs])
    with np.errstate(all="ignore"):
        got = np.hypot(re, im)
    for z, g in zip(zs, got.tolist()):
        try:
            want = abs(z)
        except OverflowError:
            assert math.isinf(g), z
            continue
        assert g == want, z


def test_the_square_is_python_x_squared():
    # numpy's square rounds some of these differently from libm's pow
    rng = random.Random("square")
    xs, overflows = [], []
    while len(xs) < DRAWS:
        x = abs(_float(rng))
        want = _outcome(lambda: x**2)
        (xs if want[0] == "ok" else overflows).append(x)
    assert _same(closedform._square(np.array(xs)), np.array([x**2 for x in xs]))
    for x in overflows[:50]:
        assert _outcome(lambda: closedform._square(np.array([x]))) == _outcome(lambda: x**2)
    assert overflows


def test_products_and_quotients_are_python_complex_arithmetic():
    rng = random.Random("prod-quot")
    a = [_complex(rng) for _ in range(DRAWS)]
    b = [_complex(rng) for _ in range(DRAWS)]
    # divisors whose parts tie in magnitude take _Py_c_quot's first branch,
    # which signs a zero part differently from the second
    ties = [complex(x, y) for x in (1.0, -2.5, 0.0) for y in (1.0, -1.0, 0.0, -0.0)]
    a += ties * 2
    b += [complex(3.0, 3.0)] * len(ties) + [complex(-0.5, 0.5)] * len(ties)
    x = [_float(rng) for _ in range(len(b))]
    ar, ai = np.array([z.real for z in a]), np.array([z.imag for z in a])
    br, bi = np.array([z.real for z in b]), np.array([z.imag for z in b])
    with np.errstate(all="ignore"):
        products = closedform._prod(ar, ai, br, bi)
        mixed = closedform._prod(np.array(x), 0.0, br, bi)
        finite = np.isfinite(br) & np.isfinite(bi) & ((br != 0) | (bi != 0))
        quotients = closedform._quot(ar[finite], ai[finite], br[finite], bi[finite])
    assert _same(products, np.array([p * q for p, q in zip(a, b)]))
    assert _same(mixed, np.array([p * q for p, q in zip(x, b)]))
    kept = [(p, q) for p, q, f in zip(a, b, finite.tolist()) if f]
    assert len(kept) > DRAWS // 2
    assert _same(quotients, np.array([p / q for p, q in kept]))


# --- one table per suite input ---


CACHED_ROWS = [row for row in fl.EXTENDED_GRID if row[0] != "intermediate"]


@pytest.mark.parametrize(
    "family,params,dim",
    CACHED_ROWS + [("kerr", {"alpha": 1.5 + 0.0j, "theta": 0.3}, 1024)],
    ids=[row[0] for row in CACHED_ROWS] + ["kerr-1024"],
)
def test_a_suite_evaluates_each_route_once_and_a_warm_suite_none(
    monkeypatch, family, params, dim
):
    routes, evaluated, per_index = {}, [], []
    values, call = closedform.Coeffs.values, closedform.Coeffs.__call__

    def recorded(route):
        routes[id(route)] = route
        return route

    def counted_values(self, ns):
        evaluated.append((id(self), len(ns)))
        return values(self, ns)

    def counted_call(self, n):
        per_index.append((id(self), n))
        return call(self, n)

    closed_form_coeffs, coherent_coeffs = verify.closed_form_coeffs, verify.coherent_coeffs
    monkeypatch.setattr(verify, "closed_form_coeffs", lambda *a: recorded(closed_form_coeffs(*a)))
    monkeypatch.setattr(verify, "coherent_coeffs", lambda *a: recorded(coherent_coeffs(*a)))
    monkeypatch.setattr(closedform.Coeffs, "values", counted_values)
    monkeypatch.setattr(closedform.Coeffs, "__call__", counted_call)

    cold = fl.run_family_suite(family, params, dim)
    basis = _basis(family, dim)
    tables = [(i, n) for i, n in evaluated if i in routes]
    assert sorted(i for i, _ in tables) == sorted(routes)  # each route once
    assert {n for _, n in tables} == {basis}
    # no per-index read inside a table: only past its end
    assert all(n >= basis for i, n in per_index if i in routes)

    evaluated.clear()
    warm = fl.run_family_suite(family, params, dim)
    assert [i for i, _ in evaluated if i in routes] == []
    assert warm.to_json() == cold.to_json()


POLYA_POLE = (
    "eta=5e-324 and gamma=993471.7366795965 round eta/gamma or (1-eta)/gamma "
    "to 0 in the polya closed form; use a smaller gamma or an eta farther from 0 and 1"
)


@pytest.mark.parametrize(
    "family,params,dim,error,message,cli_error",
    [
        # the closed form leaves the float range
        (
            "pacs", {"alpha": 37.0, "M": 10}, 1800, OverflowError, "math range error",
            "error: a closed form of pacs leaves the float range at M=10, alpha=37.0; "
            "use parameters of moderate magnitude\n",
        ),
        # lgamma's pole, refused by name
        (
            "polya", {"eta": 5e-324, "gamma": 993471.7366795965, "M": 82}, 89,
            fl.ParameterError, POLYA_POLE, f"error: {POLYA_POLE}\n",
        ),
    ],
    ids=["pacs-overflow", "polya-pole"],
)
def test_a_route_that_raises_raises_before_the_battery(
    monkeypatch, capsys, family, params, dim, error, message, cli_error
):
    batteries = []
    monkeypatch.setattr(verify, "gdo_axiom_rows", lambda *a, **k: batteries.append(a))
    for _ in range(2):  # and again on the next call: a refusal is not kept
        with pytest.raises(error) as raised:
            fl.run_family_suite(family, params, dim)
        assert str(raised.value) == message
    assert batteries == []
    flags = [f"--{k}={v!r}" for k, v in params.items()]
    assert main(["verify", "--family", family, *flags, "--dim", str(dim)]) == 2
    assert capsys.readouterr() == ("", cli_error)


def test_polya_refuses_an_overflowing_numpy_gamma_without_a_warning():
    # the suite's warning filter would raise a numpy overflow warning
    with pytest.raises(fl.ParameterError, match="^eta=0.5 and gamma=5e-324 overflow "):
        fl.run_family_suite("polya", {"eta": 0.5, "gamma": np.float64(5e-324), "M": 1}, 2)


@pytest.mark.parametrize("error", [OverflowError("(34, 'Numerical result out of range')"),
                                   ZeroDivisionError("float division by zero")])
@pytest.mark.parametrize("family", ["binomial", "coherent", "new_negative_binomial", "svs"])
def test_the_full_width_F_check_raises_before_the_battery(monkeypatch, family, error):
    # the closed-form F is formed before the axiom battery runs, so an F
    # past the float range raises with nothing multiplied by it
    batteries = []
    monkeypatch.setattr(verify, "gdo_axiom_rows", lambda *a, **k: batteries.append(a))

    def raising(table, M):
        raise error

    monkeypatch.setattr(verify, "finite_F", raising)
    monkeypatch.setattr(verify, "raising_F", raising)
    params, dim = fl.FAMILY_SPECS[family].grid
    with pytest.raises(type(error)) as raised:
        fl.run_family_suite(family, params, dim)
    assert raised.value is error
    assert batteries == []
