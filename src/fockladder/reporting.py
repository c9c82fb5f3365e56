"""Report value objects shared by the verification layers and the CLI.

Serialization is deterministic: identical reports produce byte-identical
output.  encode_json writes JSON in one recursive pass, with sorted keys
and a 2-space indent; each leaf's text comes from one rule, _leaf:
strings go through the json module's ASCII escaper, and numbers are
their float.__repr__ or int.__repr__, which round-trip.  Non-finite
floats (which occur when tabulating the printed structure functions) are
carried as the strings "inf", "-inf", "nan", because JSON has no bare
non-finite numbers.  The output is what json.dumps(sort_keys=True,
indent=2) gives for the same value with those strings in place; the
tests keep that stdlib route as their oracle.  The pass writes a child
whose exact type is str, float, int, bool or None in place, by _leaf's
rule for that type, and recurses only into containers; a read-only
mapping is written as the dict it views.

A report is its as_dict(): its JSON is that dict through the same pass,
and its CSV is one head line by csv_head (the rule the CLI's tables
share), the check rows by _csv_cell, and any derived_vs_printed table.
A report writes each of its two texts once, at its first use, and keeps
it; its params and derived_vs_printed rows are read-only, so a report
can be handed to many callers and the kept texts stay its own.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Any, Callable

DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_LEAK_TOL = 1e-10
DEFAULT_ORACLE_TOL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """The tolerances a report judges its checks at: residual for ladder
    relations on states, leak for truncation loss, and oracle for the
    checks that compare one formula with another entry by entry.  A
    battery row that multiplies operators is judged at its own rounding
    bound instead, which no tolerance sets."""

    residual: float = DEFAULT_RESIDUAL_TOL
    leak: float = DEFAULT_LEAK_TOL
    oracle: float = DEFAULT_ORACLE_TOL

    def __post_init__(self) -> None:
        for name in ("residual", "leak", "oracle"):
            value = getattr(self, name)
            # an int (not a bool, which every report would echo as true or
            # True) or a float, np.float64 among them: the types both
            # writers echo as a number; a chained comparison, so an int past
            # the float range still compares
            number = type(value) is int or isinstance(value, float)
            if not (number and 0 < value < math.inf):
                raise ValueError(f"{name} tolerance must be a finite positive number")

    def as_dict(self) -> dict[str, float]:
        return {"residual": self.residual, "leak": self.leak, "oracle": self.oracle}


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: its residual against the stated tolerance,
    the truncation leak it incurred, and a human-readable detail line."""

    name: str
    equation: str
    residual: float
    tolerance: float
    leak: float = 0.0
    passed: bool = True
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """One suite's checks under the head it echoes.  params and the
    derived_vs_printed rows are kept as read-only copies of the mappings
    given.  Its JSON text is as_dict() through the generic writer, its
    CSV text a csv_head line and one row per check; each is written at
    its first use and kept."""

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)
    dim: int = 0
    tolerances: Tolerances = DEFAULT_TOLERANCES
    checks: tuple[CheckResult, ...] = ()
    # optional comparison rows {n, derived, printed_re, printed_im, match};
    # mismatches here are reported, never counted as failed checks
    derived_vs_printed: tuple[Mapping[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        rows = tuple(MappingProxyType(dict(row)) for row in self.derived_vs_printed)
        object.__setattr__(self, "derived_vs_printed", rows)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def failed_checks(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def with_table(self, rows) -> "VerificationReport":
        return replace(self, derived_vs_printed=tuple(rows))

    def summary_line(self) -> str:
        if self.passed:
            return f"PASS {self.family} ({len(self.checks)} checks)"
        return f"FAIL {self.family} ({self.n_failed}/{len(self.checks)} checks failed)"

    def to_json(self) -> str:
        return encode_json(self)

    def as_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "params": dict(self.params),
            "dim": self.dim,
            "tolerances": self.tolerances.as_dict(),
            "passed": self.passed,
            "n_checks": len(self.checks),
            "n_failed": self.n_failed,
            "derived_vs_printed": [dict(r) for r in self.derived_vs_printed],
            "checks": [dict(zip(CHECK_COLUMNS, _check_fields(c))) for c in self.checks],
        }

    def to_csv(self) -> str:
        return self._csv

    @cached_property
    def _json(self) -> str:
        return _json_text(self.as_dict(), "\n") + "\n"

    @cached_property
    def _csv(self) -> str:
        head = {"family": self.family, "dim": self.dim}
        lines = [
            csv_head(head, self.params, self.tolerances),
            ",".join(CHECK_COLUMNS),
            *[",".join(map(_csv_cell, _check_fields(c))) for c in self.checks],
        ]
        if self.derived_vs_printed:
            lines.append("# derived_vs_printed")
            lines += csv_table(PRINTED_COLUMNS, self.derived_vs_printed)
        return "\n".join(lines) + "\n"


CHECK_COLUMNS = (
    "name", "equation", "residual", "tolerance", "leak", "passed", "detail"
)
# a check's fields in CHECK_COLUMNS order
_check_fields = operator.attrgetter(*CHECK_COLUMNS)
PRINTED_COLUMNS = ("n", "derived", "printed_re", "printed_im", "match")


def csv_table(columns: tuple[str, ...], rows) -> list[str]:
    """The CSV column line, then one line per row mapping."""
    return [",".join(columns)] + [
        ",".join(_csv_cell(row[c]) for c in columns) for row in rows
    ]


def csv_head(
    fields: Mapping[str, Any], params: Mapping[str, Any], tolerances: Tolerances
) -> str:
    """A CSV head line: "# ", then fields' key=value items in their own
    order, the params' in sorted key order, and each tolerance's as
    tol_key=value in sorted key order, its value by _csv_cell's rule."""
    items = [*fields.items(), *sorted(params.items())]
    items += [(f"tol_{k}", _csv_cell(v)) for k, v in sorted(tolerances.as_dict().items())]
    return "# " + " ".join([f"{k}={v}" for k, v in items])


def _csv_cell(value: Any) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):  # np.float64 too, whose repr names its type
        return repr(float(value))
    # comma-separated output quotes nothing, so cells must not carry commas
    return str(value).replace(",", ";")


_quote = json.encoder.encode_basestring_ascii
# the mapping types _write writes as JSON objects: a report's params and
# derived_vs_printed rows are read-only views
_MAPPINGS = (dict, MappingProxyType)


def encode_json(payload: Any) -> str:
    """payload as JSON text: a VerificationReport (as its as_dict(), the
    text it keeps), or str-keyed dicts or read-only mappings, lists,
    tuples, str, int, float, bool and None; anything else raises
    TypeError."""
    if isinstance(payload, VerificationReport):
        return payload._json
    return _json_text(payload, "\n") + "\n"


def _json_text(value: Any, newline: str) -> str:
    parts: list[str] = []
    _write(value, newline, parts)
    return "".join(parts)


def _write(value: Any, newline: str, parts: list[str]) -> None:
    # newline is the line break plus the indent of value's own line; a
    # child of an exact leaf type is written in place, by its _LEAF rule
    if isinstance(value, _MAPPINGS):
        if not value:
            parts.append("{}")
            return
        inner, lead = newline + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            child = value[key]
            rule = _LEAF.get(type(child))
            if rule is None:
                parts.append(f"{lead}{inner}{_quote(key)}: ")
                _write(child, inner, parts)
            else:
                parts.append(f"{lead}{inner}{_quote(key)}: {rule(child)}")
            lead = ","
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner, lead = newline + "  ", "["
        for item in value:
            rule = _LEAF.get(type(item))
            if rule is None:
                parts.append(lead + inner)
                _write(item, inner, parts)
            else:
                parts.append(lead + inner + rule(item))
            lead = ","
        parts.append(newline + "]")
    else:
        parts.append(_leaf(value))


def _float_leaf(value: float) -> str:
    text = repr(value)
    return text if math.isfinite(value) else _quote(text)


# _leaf's rule for each exact type it writes
_LEAF: dict[type, Callable[[Any], str]] = {
    str: _quote,
    float: _float_leaf,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _leaf(value: Any) -> str:
    """The JSON text of a str, float, None, bool or int; a subclass of
    str, float or int is written as its base type's value, so np.float64
    as its float."""
    rule = _LEAF.get(type(value))
    if rule is not None:
        return rule(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, float):
        return _float_leaf(float(value))
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _decode_float(value: Any) -> Any:
    if isinstance(value, str) and value in ("inf", "-inf", "nan"):
        return float(value)
    return value


def report_from_json(text: str) -> VerificationReport:
    data = json.loads(text)
    checks = tuple(
        CheckResult(
            name=c["name"],
            equation=c["equation"],
            residual=_decode_float(c["residual"]),
            tolerance=_decode_float(c["tolerance"]),
            leak=_decode_float(c["leak"]),
            passed=c["passed"],
            detail=c["detail"],
        )
        for c in data["checks"]
    )
    rows = tuple(
        {k: _decode_float(v) for k, v in row.items()}
        for row in data.get("derived_vs_printed", [])
    )
    return VerificationReport(
        family=data["family"],
        params=data["params"],
        dim=data["dim"],
        tolerances=Tolerances(**data["tolerances"]),
        checks=checks,
        derived_vs_printed=rows,
    )
