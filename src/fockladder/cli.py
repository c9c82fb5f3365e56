"""Command-line front end.

Four subcommands: `state` prints a state's amplitude table, `verify` runs
a family's check suite, `structure-fn` tabulates F(n) (optionally against
the printed closed forms), and `batch` runs a manifest of suites into a
directory of report files plus a summary.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
input (with a one-line diagnostic on stderr naming the constraint).  Flag
values and `batch` manifest values are decoded by one rule (`_decode`) and
checked by one config step (`_config`), so both front ends accept and
refuse alike.

Output carries no timestamps; a rerun with the same arguments is byte
identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Any

from .ladder import harmonic_gdo, structure_function
from .reporting import (
    DEFAULT_TOLERANCES,
    PRINTED_COLUMNS,
    Tolerances,
    _csv_cell,
    csv_table,
    encode_json,
)
from .states import ParameterError, _check_dim, format_complex
from .verify import (
    FAMILY_SPECS,
    _echo_params,
    build_gdo,
    build_state,
    derived_vs_printed_rows,
    run_family_suite,
)

COMPLEX_HELP = (
    "complex values use the a+bi grammar: '1', '-0.5', '1+0.5i', '2-i', '0.7i'"
)


def parse_complex(text: str) -> complex:
    """Parse the documented a+bi grammar; bare 'i' means 1i."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParameterError(f"invalid complex value {text!r}; {COMPLEX_HELP}")
    t = s.replace("i", "j").replace("I", "j")
    if t in ("j", "+j"):
        t = "1j"
    elif t == "-j":
        t = "-1j"
    elif t.endswith("+j") or t.endswith("-j"):
        t = t[:-1] + "1j"
    try:
        return complex(t)
    except ValueError:
        raise ParameterError(
            f"invalid complex value {text!r}; {COMPLEX_HELP}"
        ) from None


# the value flags and the kind each decodes to; a manifest's other keys read as floats
_KINDS = {
    **dict.fromkeys(("eta", "L", "gamma", "theta", "theta0", "r"), float),
    **dict.fromkeys(("M", "m"), int),
    **dict.fromkeys(("alpha", "Y"), complex),
}

# every refusal of input: exit 2 from `main`, an input-error entry in `batch`;
# a manifest value of a type that no check foresaw raises TypeError
_REFUSED = (ValueError, TypeError, OSError)


def _refuse(reason: object) -> int:
    print(f"error: {reason}", file=sys.stderr)
    return 2


def _decode(value: Any, kind: type, name: str) -> Any:
    """A flag's text or a manifest's JSON value as a float, int or complex.

    Text reads by the kind's grammar (so '4.0' is not an int, and complex
    text is a+bi); a JSON number reads as the kind, an integral float as
    an int; a boolean or anything else is refused, naming `name`."""
    if isinstance(value, str) and kind is complex:
        return parse_complex(value)
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    numbers = (int,) if kind is int else (int, float)
    if isinstance(value, (str, *numbers)) and not isinstance(value, bool):
        try:
            return kind(value)
        except (ValueError, OverflowError):
            pass
    raise ParameterError(f"{name} must be {'an integer' if kind is int else 'a number'}")


@dataclass(frozen=True)
class CliConfig:
    """The fully resolved invocation, echoed into every output header."""

    subcommand: str
    family: str
    params: dict[str, Any]
    dim: int
    fmt: str
    tolerances: Tolerances
    compare_printed: bool = False

    def header(self) -> dict[str, Any]:
        return {
            "subcommand": self.subcommand,
            "family": self.family,
            "params": _echo_params(self.family, self.params),
            "dim": self.dim,
            "format": self.fmt,
            "tolerances": self.tolerances.as_dict(),
        }

    def csv_header(self) -> str:
        echoed = _echo_params(self.family, self.params)
        parts = [
            f"subcommand={self.subcommand}",
            f"family={self.family}",
            f"dim={self.dim}",
        ]
        parts += [f"{k}={v}" for k, v in sorted(echoed.items())]
        # each tolerance by the float rule of VerificationReport.to_csv's head
        tolerances = sorted(self.tolerances.as_dict().items())
        parts += [f"tol_{k}={_csv_cell(v)}" for k, v in tolerances]
        return "# " + " ".join(parts)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a syntax error refuses in one line too
        sys.exit(_refuse(message))


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True, help="family name or alias")
    for flag, kind in _KINDS.items():
        sub.add_argument(f"--{flag}", help=COMPLEX_HELP if kind is complex else None)
    sub.add_argument("--dim", help="truncation dimension")
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", dest="fmt"
    )
    sub.add_argument("--out", default=None, help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fockladder",
        description="construct Fock-space states and verify their ladder "
        "and deformed-oscillator identities",
        epilog=COMPLEX_HELP,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_state = sub.add_parser("state", help="print a state's amplitude table")
    _add_param_flags(p_state)

    p_verify = sub.add_parser("verify", help="run a family's check suite")
    _add_param_flags(p_verify)
    for name in DEFAULT_TOLERANCES.as_dict():
        p_verify.add_argument(f"--tol-{name}")
    p_verify.add_argument(
        "--compare-printed",
        action="store_true",
        help="append the derived vs printed structure-function table",
    )

    p_fn = sub.add_parser("structure-fn", help="tabulate the structure function")
    _add_param_flags(p_fn)
    p_fn.add_argument(
        "--compare-printed",
        action="store_true",
        help="tabulate derived F(n) against the printed closed form",
    )

    p_batch = sub.add_parser("batch", help="run a manifest of suites")
    p_batch.add_argument("manifest", help="JSON list of {family, params, dim}")
    p_batch.add_argument("--out-dir", required=True)
    return parser


def _config(
    subcommand: str,
    given_family: str,
    raw_params: dict[str, Any],
    raw_dim: Any,
    raw_tolerances: dict[str, Any],
    fmt: str = "json",
    compare_printed: bool = False,
) -> CliConfig:
    """One invocation from either front end, flags or a manifest entry:
    each value decoded by one rule, then the family and dim checked.  A
    manifest entry names its dim; a flag invocation may leave it out."""
    if not isinstance(raw_params, dict):
        raise ParameterError("'params' must be a mapping")
    if "f" in raw_params:  # intermediate's nonlinearity, which no JSON value spells
        raise ParameterError("parameter 'f' is library-only: it takes a Python callable")
    params = {
        key: _decode(value, _KINDS.get(key, float), f"parameter '{key}'")
        for key, value in raw_params.items()
    }
    dim = raw_dim
    if dim is not None or subcommand == "batch":
        dim = _decode(dim, int, "'dim'")
    if not isinstance(raw_tolerances, dict):
        raise ParameterError("'tolerances' must be a mapping")
    values = DEFAULT_TOLERANCES.as_dict()
    for name, value in raw_tolerances.items():
        if name not in values:
            raise ParameterError(
                f"tolerance '{name}' must be one of {', '.join(sorted(values))}"
            )
        values[name] = _decode(value, float, f"tolerance '{name}'")
    tolerances = Tolerances(**values)
    aliased = (spec.name for spec in FAMILY_SPECS.values() if spec.alias == given_family)
    family = next(aliased, given_family)
    if family == "harmonic" and subcommand != "structure-fn":
        raise ParameterError("family 'harmonic' is tabulated only by structure-fn")
    if family != "harmonic" and family not in FAMILY_SPECS:
        raise ParameterError(f"unknown family '{given_family}'")
    if dim is None:
        spec = FAMILY_SPECS.get(family)
        dim = None if spec is None else spec.default_dim(params)
        if dim is None:
            raise ParameterError(f"--dim is required for family '{family}'")
    if family == "harmonic" and params:
        stray = sorted(params)[0]
        raise ParameterError(f"unknown parameter '{stray}' for family 'harmonic'")
    return CliConfig(subcommand, family, params, dim, fmt, tolerances, compare_printed)


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    given = {key: value for key, value in vars(args).items() if value is not None}
    return _config(
        args.subcommand,
        args.family,
        {flag: given[flag] for flag in _KINDS if flag in given},
        args.dim,
        {key[4:]: value for key, value in given.items() if key.startswith("tol_")},
        args.fmt,
        getattr(args, "compare_printed", False),
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    # opened outside the try: a temp path that cannot be opened was never ours
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        # a failed write or replace leaves no partial copy behind
        with suppress(OSError):
            os.remove(tmp)
        raise


def _emit_table(
    cfg: CliConfig, out: str | None, schema: str, columns, rows, notes=(), **extra
) -> int:
    """The config header, then one table of rows, as JSON or CSV: `extra`
    records go into the JSON, and `notes` are their CSV comment lines."""
    if cfg.fmt == "json":
        text = encode_json({"schema": schema, "config": cfg.header(), "rows": rows, **extra})
    else:
        text = "\n".join([cfg.csv_header(), *notes, *csv_table(columns, rows)]) + "\n"
    _emit(text, out)
    return 0


# --- subcommands ---


def cmd_state(cfg: CliConfig, out: str | None) -> int:
    s = build_state(cfg.family, cfg.params, cfg.dim)
    rows = [
        {
            "n": n,
            "re": float(s.amplitudes[n].real),
            "im": float(s.amplitudes[n].imag),
            "prob": float(abs(s.amplitudes[n]) ** 2),
        }
        for n in range(s.dim)
    ]
    return _emit_table(
        cfg, out, "state-1", ("n", "re", "im", "prob"), rows,
        notes=[
            f"# label={s.label} parity={s.parity} norm_constant={s.norm_constant!r} "
            f"support={s.support[0]}:{s.support[1]} leak={s.leak!r}"
        ],
        state={
            "label": s.label,
            "parity": s.parity,
            "norm_constant": s.norm_constant,
            "support": list(s.support),
            "leak": s.leak,
        },
    )


@contextmanager
def _closed_form_range(family: str, params: dict[str, Any]):
    """Around the suites and structure-function tables, which evaluate a
    family's closed forms in floats: past their range one overflows, or a
    coefficient underflows into a zero divisor.  That is an input error,
    named with the parameters; state construction needs no such guard."""
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        given = ", ".join(
            f"{k}={format_complex(v) if isinstance(v, complex) else repr(v)}"
            for k, v in params.items()
        )
        raise ParameterError(
            f"a closed form of {family} leaves the float range at {given}; "
            "use parameters of moderate magnitude"
        ) from None


def cmd_verify(cfg: CliConfig, out: str | None) -> int:
    report = run_family_suite(cfg.family, cfg.params, cfg.dim, cfg.tolerances)
    if cfg.compare_printed:
        report = report.with_table(
            derived_vs_printed_rows(cfg.family, cfg.params, cfg.dim)
        )
    _emit(report.to_json() if cfg.fmt == "json" else report.to_csv(), out)
    return 0 if report.passed else 1


def cmd_structure_fn(cfg: CliConfig, out: str | None) -> int:
    if cfg.compare_printed:
        rows = derived_vs_printed_rows(cfg.family, cfg.params, cfg.dim)
    else:
        if cfg.family == "harmonic":
            triple = harmonic_gdo(_check_dim(cfg.dim))
        else:
            triple = build_gdo(cfg.family, cfg.params, cfg.dim)
        F = structure_function(triple, range(triple.dim))
        rows = [{"n": n, "F": value} for n, value in enumerate(F.tolist())]
    key = "derived" if cfg.compare_printed else "F"
    for row in rows:
        if not math.isfinite(row[key]):
            raise ParameterError(
                f"F({row['n']}) is not finite at these parameters; reduce their magnitude"
            )
    columns = PRINTED_COLUMNS if cfg.compare_printed else ("n", "F")
    return _emit_table(cfg, out, "structure-fn-1", columns, rows)


def _manifest_config(entry: Any) -> CliConfig:
    if not isinstance(entry, dict):
        raise ParameterError("manifest entries must be mappings")
    for field in ("family", "params", "dim"):
        if field not in entry:
            raise ParameterError(f"manifest entry is missing '{field}'")
    return _config(
        "batch",
        str(entry["family"]),
        entry["params"],
        entry["dim"],
        entry.get("tolerances", {}),
    )


def cmd_batch(manifest_path: str, out_dir: str) -> int:
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, list):
        raise ParameterError("manifest must be a JSON list")
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for index, raw in enumerate(manifest):
        try:
            cfg = _manifest_config(raw)
            with _closed_form_range(cfg.family, cfg.params):
                report = run_family_suite(cfg.family, cfg.params, cfg.dim, cfg.tolerances)
        except _REFUSED as exc:
            label = raw.get("family", "entry") if isinstance(raw, dict) else "entry"
            entries.append(
                {
                    "index": index,
                    "family": str(label),
                    "status": "input-error",
                    "error": str(exc),
                }
            )
            continue
        filename = f"{index:03d}-{cfg.family}.json"
        _atomic_write(os.path.join(out_dir, filename), report.to_json())
        entries.append(
            {
                "index": index,
                "family": cfg.family,
                "status": "pass" if report.passed else "fail",
                "n_failed": report.n_failed,
                "file": filename,
            }
        )
    statuses = [entry["status"] for entry in entries]
    summary = {
        "schema": "batch-1",
        "n_entries": len(entries),
        "n_pass": statuses.count("pass"),
        "n_fail": statuses.count("fail"),
        "n_error": statuses.count("input-error"),
        "entries": entries,
    }
    _atomic_write(os.path.join(out_dir, "summary.json"), encode_json(summary))
    if "input-error" in statuses:
        return 2
    return 1 if "fail" in statuses else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "batch":
            return cmd_batch(args.manifest, args.out_dir)
        cfg = _config_from_args(args)
        if args.subcommand == "state":
            return cmd_state(cfg, args.out)
        with _closed_form_range(cfg.family, cfg.params):
            if args.subcommand == "verify":
                return cmd_verify(cfg, args.out)
            return cmd_structure_fn(cfg, args.out)
    except _REFUSED as exc:
        return _refuse(exc)


if __name__ == "__main__":
    sys.exit(main())
