"""Known-defect classes for failing checks, shared by every workload.

A failing check, or an op that raises, is explained when it matches one
of the classes below; anything else makes a run incorrect.  The classes
name the defects the benchmark leaves visible on purpose, so that a fix
shows as ``checks_failed`` dropping for a named reason.
"""

from __future__ import annotations

import math

# class name -> reason, copied into every result; see README.md
KNOWN_DEFECTS = dict((
    (
        "dense-oracle-bound",
        "ROADMAP item 4: dense commutator and Casimir products judged at the "
        "absolute 1e-12 oracle bound; residuals are rounding-sized",
    ),
    (
        "polya-overflow",
        "ROADMAP item 3: near M = 192 the Polya constructor's running products "
        "overflow, giving an all-NaN state or a misleading 'no amplitude' error",
    ),
    (
        "pacs-subnormal-coefficients",
        "pacs coefficients reach the subnormal range near n = 314, where the "
        "closed-form and operational structure functions lose all precision",
    ),
))

_DENSE_PREFIXES = ("gdo-commutator-", "su11-commutator-", "su11-casimir")
# a rounding-sized residual; a broken operator misses by far more
_ROUNDING_SCALE = 1e-8


def classify(family: str, dim: int, check: str, residual: float) -> str | None:
    """Name of the known-defect class that explains a failing check."""
    if not math.isfinite(residual):
        return "polya-overflow" if family == "polya" else None
    if check.startswith(_DENSE_PREFIXES) and residual <= _ROUNDING_SCALE:
        return "dense-oracle-bound"
    if family == "pacs" and check == "structure-fn-closed-form" and dim >= 512:
        return "pacs-subnormal-coefficients"
    return None


def classify_error(family: str, exc: Exception) -> str | None:
    """Name of the known-defect class that explains an op that raised."""
    if (
        family == "polya"
        and type(exc).__name__ == "ParameterError"
        and "no amplitude" in str(exc)
    ):
        return "polya-overflow"
    return None
