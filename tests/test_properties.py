"""Property tests of the constructor contract and the CLI exit contract.

Every constructor, over a box of its parameters, returns a finite state
of norm 1 or raises ParameterError, and nothing else.  The CLI, on any
flag values, exits 0, 1 or 2 without letting an exception escape, and
writes no NaN with exit 0; an exit 2 writes nothing to stdout and one
`error: ` line to stderr, never a bare arithmetic message.  The named
probes are seeded as examples.
"""

import contextlib
import io
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockladder import ParameterError
from fockladder.cli import main
from fockladder.verify import FAMILY_SPECS

NAN = float("nan")

ETA = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
ANGLE = st.floats(-1e6, 1e6)
BIG_M = st.integers(0, 1500)
SMALL_M = st.integers(0, 200)
DIM = st.integers(1, 1024)
ALPHA = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _finite_family(family, M, **params):
    """A finite family: dim runs from M + 1 to M + 9; a parameter given
    as a function of M is drawn from the strategy it returns."""

    def at(m):
        drawn = {k: v(m) if callable(v) else v for k, v in params.items()}
        return st.tuples(
            st.just(family),
            st.fixed_dictionaries({"M": st.just(m), **drawn}),
            st.integers(m + 1, m + 9),
        )

    return M.flatmap(at)


def _family(family, **params):
    return st.tuples(st.just(family), st.fixed_dictionaries(params), DIM)


BOXES = {
    "binomial": _finite_family("binomial", BIG_M, eta=ETA),
    # the literal generalized-binomial products are O(M^2)
    "hypergeometric": _finite_family(
        "hypergeometric", SMALL_M, eta=ETA, L=st.floats(0.0, 1e12)
    ),
    "polya": _finite_family("polya", BIG_M, eta=ETA, gamma=st.floats(0.0, 1e6)),
    "reciprocal_binomial": _finite_family("reciprocal_binomial", BIG_M, theta=ANGLE),
    "pegg_barnett_phase": _finite_family(
        "pegg_barnett_phase", BIG_M, theta0=ANGLE, m=lambda m: st.integers(0, m)
    ),
    "generalized_geometric": _finite_family(
        "generalized_geometric",
        BIG_M,
        Y=st.complex_numbers(max_magnitude=1e300, allow_infinity=False, allow_nan=False),
    ),
    "coherent": _family("coherent", alpha=ALPHA),
    "geometric": _family("geometric", eta=ETA),
    "negative_binomial": _family("negative_binomial", eta=ETA, M=SMALL_M),
    "new_negative_binomial": _family("new_negative_binomial", eta=ETA, M=SMALL_M),
    "kerr": _family("kerr", alpha=ALPHA, theta=ANGLE),
    "svs": _family("svs", r=st.floats(-1.0, 1e3), theta=ANGLE),
    "sfes": _family("sfes", r=st.floats(-1.0, 1e3), theta=ANGLE),
    "ecs": _family("ecs", alpha=ALPHA),
    "ocs": _family("ocs", alpha=ALPHA),
    "pacs": _family("pacs", alpha=ALPHA, M=SMALL_M),
    "intermediate": _family("intermediate", eta=ETA, alpha=ALPHA),
}


def test_every_family_has_a_box():
    assert set(BOXES) == set(FAMILY_SPECS)


@settings(max_examples=17 * 30)
@given(case=st.sampled_from(sorted(BOXES)).flatmap(BOXES.get))
@example(case=("hypergeometric", {"L": NAN, "eta": 0.5, "M": 3}, 8))
@example(case=("hypergeometric", {"L": 1e300, "eta": 0.5, "M": 3}, 8))
@example(case=("coherent", {"alpha": complex(NAN)}, 8))
@example(case=("reciprocal_binomial", {"theta": NAN, "M": 3}, 8))
@example(case=("svs", {"r": 0.5, "theta": NAN}, 16))
@example(case=("kerr", {"alpha": 1.0, "theta": NAN}, 16))
@example(case=("generalized_geometric", {"Y": 1e300, "M": 3}, 8))
@example(case=("generalized_geometric", {"Y": 2.0, "M": 1100}, 1101))
@example(case=("binomial", {"eta": 0.999999, "M": 60}, 64))
@example(case=("binomial", {"eta": 0.5, "M": 1100}, 1200))
@example(case=("polya", {"eta": 0.4, "gamma": 0.7, "M": 192}, 200))
@example(case=("polya", {"eta": 0.999, "gamma": 0.7, "M": 400}, 410))
@example(case=("negative_binomial", {"eta": 0.5, "M": 1200}, 4000))
@example(case=("new_negative_binomial", {"eta": 0.5, "M": 1100}, 4000))
@example(case=("ecs", {"alpha": 27.0}, 1024))
def test_constructor_returns_finite_normalized_state_or_parameter_error(case):
    family, params, dim = case
    try:
        s = FAMILY_SPECS[family].build(params, dim)
    except ParameterError:
        return
    assert np.all(np.isfinite(s.amplitudes))
    assert abs(s.norm - 1.0) <= 1e-12
    assert math.isfinite(s.norm_constant) and math.isfinite(s.leak)


# --- CLI fuzz ---

# CLI name (alias or full name) -> the flags its family requires
_OWN_FLAGS = {"harmonic": ("dim",), "nonesuch": ("dim",)}
for _spec in FAMILY_SPECS.values():
    for _name in filter(None, (_spec.name, _spec.alias)):
        _OWN_FLAGS[_name] = _spec.params + ("dim",)
_REAL = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "0", "-0"]),
    st.floats(0.0, 1.0).map(repr),
    st.floats(-1e3, 1e3).map(repr),
)
_COMPLEX = st.one_of(
    _REAL, st.tuples(_REAL, _REAL).map(lambda p: f"{p[0]}+{p[1]}i".replace("+-", "-"))
)
_FLAG_VALUES = {
    "eta": _REAL,
    "L": _REAL,
    "gamma": _REAL,
    "theta": _REAL,
    "theta0": _REAL,
    "r": _REAL,
    "M": st.integers(-2, 60).map(str),
    "m": st.integers(-2, 60).map(str),
    "alpha": _COMPLEX,
    "Y": _COMPLEX,
    "dim": st.integers(-1, 64).map(str),
}


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(_OWN_FLAGS)))
    subcommand = draw(st.sampled_from(["state", "verify", "structure-fn"]))
    argv = [subcommand, "--family", name]
    # mostly the family's own flags, sometimes a stray or a missing one
    flags = set(draw(st.sets(st.sampled_from(_OWN_FLAGS[name]))))
    if draw(st.integers(0, 3)):
        flags = set(_OWN_FLAGS[name])
    flags |= draw(st.sets(st.sampled_from(sorted(_FLAG_VALUES)), max_size=1))
    for flag in sorted(flags):
        argv.append(f"--{flag}={draw(_FLAG_VALUES[flag])}")  # = keeps "-1" a value
    if draw(st.booleans()):
        argv.append("--format=csv")
    if subcommand != "state" and draw(st.booleans()):
        argv.append("--compare-printed")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# what a float operation says when it meets an input no range rule caught
_BARE_ARITHMETIC = ("math domain error", "math range error", "division by zero")


@settings(max_examples=150)
@given(argv=_argv())
@example(argv="structure-fn --family ps --eta 0.4 --gamma=-1 --M 3 --dim 8".split())
@example(argv="structure-fn --family hgs --L 1 --eta 0.5 --M 3 --dim 8".split())
@example(argv="structure-fn --family ps --eta 0.4 --gamma=-1 --M 3 --dim 8 "
         "--compare-printed".split())
@example(argv="structure-fn --family nbs --eta 0.3 --M 0 --dim 8".split())
@example(argv="structure-fn --family bs --eta 0.5 --M=-1 --dim 8".split())
@example(argv="structure-fn --family nnbs --eta 0.3 --M=-1 --dim 8".split())
@example(argv="structure-fn --family rbs --theta 0.7 --M=-1 --dim 8".split())
@example(argv="structure-fn --family pacs --alpha 1 --M=-1 --dim 64".split())
@example(argv="structure-fn --family rbs --theta 1e308 --M 3 --dim 8".split())
@example(argv="structure-fn --family pbps --theta0 1e308 --m 0 --M 3 --dim 8".split())
@example(argv="structure-fn --family ks --alpha 1 --theta 1e308 --dim 8".split())
@example(argv="structure-fn --family ocs --alpha 0 --dim 8".split())
@example(argv="structure-fn --family svs --r 1000 --theta 0 --dim 8".split())
@example(argv="state --family hgs --L 1e300 --eta 0.5 --M 3 --dim 8".split())
@example(argv="state --family ggs --Y 1e300 --M 3 --dim 8".split())
@example(argv="state --family ps --eta 0.4 --gamma 0.7 --M 192 --dim 200".split())
@example(argv="state --family bs --eta 0.999999 --M 60 --dim 64".split())
@example(argv="state --family nbs --eta 0.5 --M 1200 --dim 4000".split())
@example(argv="state --family nnbs --eta 0.5 --M 1100 --dim 4000".split())
# eta / gamma rounds to 0, the pole of the Polya closed form's lgamma
@example(argv="verify --family ps --eta 5e-324 --gamma 993471.7366795965 --M 82 "
         "--dim 89".split())
# one malformed value of each kind: complex, int, float, dim, tolerance
@example(argv="verify --family cs --alpha 1+ --dim 12".split())
@example(argv="verify --family bs --eta 0.5 --M 1.5 --dim 12".split())
@example(argv="state --family bs --eta abc --M 4 --dim 12".split())
@example(argv="structure-fn --family cs --alpha 1 --dim 12.0".split())
@example(argv="verify --family cs --alpha 1 --dim 12 --tol-oracle x".split())
def test_cli_keeps_its_exit_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 0:
        assert "nan" not in out.lower()
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert not any(text in err for text in _BARE_ARITHMETIC), err
