"""The closed-form routes stay an independent oracle: closedform.py reads
only the standard library, numpy and the range rules of states.py, only
verify.py (and the package's re-exports) read closedform.py, and every
route in the family table is one of its callables.  The first two rules
are read from the sources' import statements."""

import ast
import math
from pathlib import Path

import pytest

import fockladder as fl

SRC = Path(fl.__file__).parent
ALLOWED_MODULES = {"__future__", "math", "cmath", "typing", "numpy"}
# besides these, closedform.py may take the _check_* range rules of states.py
ALLOWED_STATES_NAMES = {"ParameterError", "format_complex"}
READERS = {"verify.py", "__init__.py"}


def _import_nodes(source: str):
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def _allowed(node) -> bool:
    if isinstance(node, ast.Import):
        return all(a.name.split(".")[0] in ALLOWED_MODULES for a in node.names)
    if node.level == 0:
        return node.module.split(".")[0] in ALLOWED_MODULES
    return (node.level, node.module) == (1, "states") and all(
        a.name in ALLOWED_STATES_NAMES or a.name.startswith("_check_")
        for a in node.names
    )


def _refused_imports(source: str) -> list[str]:
    return [ast.unparse(node) for node in _import_nodes(source) if not _allowed(node)]


def _reads_closedform(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "fockladder.closedform" for a in node.names)
    module = "." * node.level + (node.module or "")
    names = {a.name for a in node.names}
    return module in (".closedform", "fockladder.closedform") or (
        module in (".", "fockladder") and "closedform" in names
    )


def test_closedform_imports_only_the_allowlist():
    assert _refused_imports((SRC / "closedform.py").read_text()) == []


@pytest.mark.parametrize(
    "line",
    [
        "from .core import FockState",
        "from .ladder import CoeffFn",
        "from .twophoton import su11",
        "from .verify import FAMILY_SPECS",
        "from .reporting import CheckResult",
        "from .cli import main",
        "from .states import coherent",
        "from .states import *",
        "from . import states",
        "from fockladder.states import _check_eta",
        "import fockladder.core",
        "import scipy.special",
    ],
)
def test_the_import_rule_refuses(line):
    assert _refused_imports(line) == [line]


def test_only_verify_and_the_package_read_closedform():
    readers = {
        path.name
        for path in SRC.glob("*.py")
        if any(_reads_closedform(node) for node in _import_nodes(path.read_text()))
    }
    assert readers == READERS


@pytest.mark.parametrize(
    "line",
    [
        "from .closedform import coherent_coeffs",
        "from . import closedform",
        "from fockladder.closedform import _cf_nnbs",
        "import fockladder.closedform",
    ],
)
def test_the_reader_rule_sees(line):
    assert [_reads_closedform(node) for node in _import_nodes(line)] == [True]


@pytest.mark.parametrize(
    "spec",
    [spec for spec in fl.FAMILY_SPECS.values() if spec.closed_form is not None],
    ids=lambda spec: spec.name,
)
def test_every_table_route_is_a_closedform_callable(spec):
    assert spec.closed_form(*spec.grid).__module__ == "fockladder.closedform"


def test_geometric_coeffs_runs_its_range_rule():
    with pytest.raises(fl.ParameterError, match=r"eta must lie in \(0,1\)"):
        fl.geometric_coeffs(1.5)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "name,route",
    [
        ("alpha", lambda: fl.coherent_coeffs(NAN)),
        ("alpha", lambda: fl.coherent_coeffs(complex(1.0, INF))),
        ("alpha", lambda: fl.kerr_coeffs(NAN, 0.3)),
        ("theta", lambda: fl.kerr_coeffs(1.0, -INF)),
        ("alpha", lambda: fl.ecs_sector_coeffs(NAN)),
        ("alpha", lambda: fl.ocs_sector_coeffs(NAN)),
        ("theta", lambda: fl.svs_sector_coeffs(0.5, NAN, 8)),
        ("theta", lambda: fl.sfes_sector_coeffs(0.5, NAN, 8)),
        ("theta", lambda: fl.svs_sector_coeffs(0.5, -INF, 8)),
        ("alpha", lambda: fl.closedform._cf_pacs(complex(INF, 0.0), 1, 16)),
        ("alpha", lambda: fl.closedform._cf_pacs(NAN, 1, 16)),
        ("alpha", lambda: fl.closedform._cf_pacs(complex(1.0, INF), 1, 16)),
    ],
    ids=[
        "coherent-nan", "coherent-inf", "kerr", "kerr-theta-inf", "ecs", "ocs",
        "svs-nan", "sfes-nan", "svs-inf", "pacs-inf", "pacs-nan", "pacs-imag-inf",
    ],
)
def test_a_public_route_refuses_a_non_finite_parameter_by_name(name, route):
    # the constructors refuse these values too, alpha as a non-finite
    # amplitude and theta by the angle rule; unrefused, the coefficients
    # are NaN and a builder fails on them later.  pacs's table route is
    # called directly: a suite refuses its alpha before reaching it
    with pytest.raises(fl.ParameterError, match=f"^{name} must be finite$"):
        route()(1)
