import sys
import tracemalloc

import pytest
from hypothesis import settings

import fockladder.core as core
import fockladder.twophoton as twophoton
import fockladder.verify as verify

# Derandomized and without an example database, so every run (CI or
# local) draws the same examples; no deadline, so a slow machine cannot
# turn a passing example into a failure.
settings.register_profile("fockladder", derandomize=True, database=None, deadline=None)
settings.load_profile("fockladder")


@pytest.fixture(autouse=True)
def empty_caches():
    """Each test starts with no cached sector representation and no cached
    suite input, and so with no operator data made under another test's
    patch."""
    twophoton._su11.cache_clear()
    verify._cached_input.cache_clear()


@pytest.fixture
def to_matrix_dims(monkeypatch):
    """The domain dims of the to_matrix calls the package makes during the
    test, spied on in every fockladder module that holds the name."""
    dims = []
    to_matrix = core.to_matrix

    def spy(op):
        dims.append(op.domain_dim)
        return to_matrix(op)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fockladder" and hasattr(module, "to_matrix"):
            monkeypatch.setattr(module, "to_matrix", spy)
    return dims


@pytest.fixture
def traced_peak():
    """Run fn() and return the peak of its traced allocations, in bytes,
    above what was allocated when it started."""

    def measure(fn) -> int:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    return measure
