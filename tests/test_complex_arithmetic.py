"""CPython's scalar complex arithmetic against the real-part formulas that
fockladder.core forms its array products and quotients from.

The band algebra reads each package diagonal as one array and must give
the bits the per-index Python scalars give, so it writes every complex
operation out in real parts, as CPython 3.10-3.13 forms it:

- a * b is (ar*br - ai*bi) + i (ar*bi + ai*br), each part rounded on its
  own;
- a float or int times a complex, and either divided by the other, first
  reads the real operand as x + 0j;
- a / b is _Py_c_quot: one branch when |br| >= |bi|, the other when
  |bi| >= |br|, NaN when neither holds, ZeroDivisionError for b = 0.

If CPython changes any of this, these tests fail here instead of the
array route silently changing the bytes it must match.  A NaN is compared
only as NaN: its sign and payload bits differ between the two routes on
some inputs.

Pure Python, no numpy: run it under pytest, or as a script on any
interpreter (python tests/test_complex_arithmetic.py).
"""

import math
import random
import struct

DRAWS = 20000
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
    1.0, -1.0, 0.5, 3.0,
]


def _float(rng: random.Random) -> float:
    if rng.random() < 0.3:
        return rng.choice(SPECIAL)
    return rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-1074, 1023)


def _int(rng: random.Random) -> int:
    return rng.choice([0, 1, -1, 7, 2**53 + 1, -(2**60) - 3, rng.randint(-10**6, 10**6)])


def _complex(rng: random.Random) -> complex:
    return complex(_float(rng), _float(rng))


def _bits(x: float):
    return "nan" if math.isnan(x) else struct.pack("<d", x)


def _same(got: complex, want: complex) -> bool:
    return (_bits(got.real), _bits(got.imag)) == (_bits(want.real), _bits(want.imag))


def product(a: complex, b: complex) -> complex:
    return complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def quotient(a: complex, b: complex) -> complex:
    abs_re, abs_im = abs(b.real), abs(b.imag)
    if abs_re >= abs_im:
        if abs_re == 0.0:
            raise ZeroDivisionError
        ratio = b.imag / b.real
        denom = b.real + b.imag * ratio
        return complex((a.real + a.imag * ratio) / denom, (a.imag - a.real * ratio) / denom)
    if abs_im >= abs_re:
        ratio = b.real / b.imag
        denom = b.real * ratio + b.imag
        return complex((a.real * ratio + a.imag) / denom, (a.imag * ratio - a.real) / denom)
    return complex(math.nan, math.nan)


def _real(x) -> complex:
    return complex(float(x), 0.0)


def _check(name, python_op, formula, draw_a, draw_b, seed):
    rng = random.Random(f"{name}:{seed}")
    mismatches = []
    for _ in range(DRAWS):
        a, b = draw_a(rng), draw_b(rng)
        try:
            want = formula(a, b)
        except ZeroDivisionError:
            try:
                python_op(a, b)
            except ZeroDivisionError:
                continue
            mismatches.append((a, b, "no ZeroDivisionError"))
            continue
        got = python_op(a, b)
        if not _same(complex(got), want):
            mismatches.append((a, b, got, want))
    assert not mismatches, (name, len(mismatches), mismatches[:5])


def test_complex_times_complex():
    _check("cc*", lambda a, b: a * b, product, _complex, _complex, 1)


def test_complex_times_float_and_float_times_complex():
    _check("cf*", lambda a, x: a * x, lambda a, x: product(a, _real(x)), _complex, _float, 2)
    _check("fc*", lambda x, a: x * a, lambda x, a: product(_real(x), a), _float, _complex, 3)


def test_int_times_complex():
    _check("ic*", lambda n, a: n * a, lambda n, a: product(_real(n), a), _int, _complex, 4)
    _check("ci*", lambda a, n: a * n, lambda a, n: product(a, _real(n)), _complex, _int, 5)


def test_quotients():
    _check("cc/", lambda a, b: a / b, quotient, _complex, _complex, 6)
    _check("cf/", lambda a, x: a / x, lambda a, x: quotient(a, _real(x)), _complex, _float, 7)
    _check("fc/", lambda x, b: x / b, lambda x, b: quotient(_real(x), b), _float, _complex, 8)
    _check("ic/", lambda n, b: n / b, lambda n, b: quotient(_real(n), b), _int, _complex, 9)


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(name, "ok")
