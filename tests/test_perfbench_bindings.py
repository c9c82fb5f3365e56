"""The benchmark's tracer wraps fockladder functions by module and name;
a rename in src/ must fail here, in the test suite, not only in the bench
run."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()
BINDINGS = sorted(
    set(_T.SPANS.values()) | set(_T.COUNTED.values()) | set(_T.GDO_BUILDERS)
)


@pytest.mark.parametrize("module,attr", BINDINGS)
def test_tracer_binding_resolves_to_a_callable(module, attr):
    target = getattr(importlib.import_module(f"fockladder.{module}"), attr, None)
    assert callable(target), f"perfbench/tracer.py wraps fockladder.{module}.{attr}"
