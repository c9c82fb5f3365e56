"""Command-line front end.

Four subcommands: `state` prints a state's amplitude table, `verify` runs
a family's check suite, `structure-fn` tabulates F(n) (optionally against
the printed closed forms), and `batch` runs a manifest of suites into a
directory of report files plus a summary.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
input (with a one-line diagnostic on stderr naming the constraint).

Output carries no timestamps; a rerun with the same arguments is byte
identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from .ladder import harmonic_gdo
from .reporting import Tolerances, derived_vs_printed_csv, encode_json, _csv_float
from .states import ParameterError, format_complex
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


_FLOAT_FLAGS = ("eta", "L", "gamma", "theta", "theta0", "r")
_INT_FLAGS = ("M", "m")
_COMPLEX_FLAGS = ("alpha", "Y")


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
        parts += [f"tol_{k}={v!r}" for k, v in sorted(self.tolerances.as_dict().items())]
        return "# " + " ".join(parts)


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True, help="family name or alias")
    for flag in _FLOAT_FLAGS:
        sub.add_argument(f"--{flag}", type=float, default=None)
    for flag in _INT_FLAGS:
        sub.add_argument(f"--{flag}", type=int, default=None)
    for flag in _COMPLEX_FLAGS:
        sub.add_argument(f"--{flag}", type=parse_complex, default=None, help=COMPLEX_HELP)
    sub.add_argument("--dim", type=int, default=None, help="truncation dimension")
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", dest="fmt"
    )
    sub.add_argument("--out", default=None, help="write output here instead of stdout")


def _add_tolerance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol-residual", type=float, default=None)
    sub.add_argument("--tol-leak", type=float, default=None)
    sub.add_argument("--tol-oracle", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    _add_tolerance_flags(p_verify)
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


def _resolve_family(name: str) -> str:
    aliased = (spec.name for spec in FAMILY_SPECS.values() if spec.alias == name)
    return next(aliased, name)


def _collect_params(args: argparse.Namespace) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for flag in _FLOAT_FLAGS + _INT_FLAGS + _COMPLEX_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            params[flag] = value
    return params


def _resolve_dim(family: str, params: dict[str, Any], dim: int | None) -> int:
    if dim is not None:
        return dim
    spec = FAMILY_SPECS.get(family)
    if spec is not None and spec.kind == "finite" and "M" in params:
        return params["M"] + 8
    raise ParameterError(f"--dim is required for family '{family}'")


def _resolve_tolerances(args: argparse.Namespace) -> Tolerances:
    defaults = Tolerances()

    def pick(flag: str, fallback: float) -> float:
        value = getattr(args, flag, None)
        return fallback if value is None else value

    return Tolerances(
        residual=pick("tol_residual", defaults.residual),
        leak=pick("tol_leak", defaults.leak),
        oracle=pick("tol_oracle", defaults.oracle),
    )


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    family = _resolve_family(args.family)
    params = _collect_params(args)
    if family != "harmonic" and family not in FAMILY_SPECS:
        raise ParameterError(f"unknown family '{args.family}'")
    dim = _resolve_dim(family, params, args.dim)
    if family == "harmonic" and params:
        stray = sorted(params)[0]
        raise ParameterError(f"unknown parameter '{stray}' for family 'harmonic'")
    return CliConfig(
        subcommand=args.subcommand,
        family=family,
        params=params,
        dim=dim,
        fmt=args.fmt,
        tolerances=_resolve_tolerances(args),
        compare_printed=getattr(args, "compare_printed", False),
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


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
    if cfg.fmt == "json":
        payload = {
            "schema": "state-1",
            "config": cfg.header(),
            "state": {
                "label": s.label,
                "parity": s.parity,
                "norm_constant": s.norm_constant,
                "support": list(s.support),
                "leak": s.leak,
            },
            "rows": rows,
        }
        _emit(encode_json(payload), out)
    else:
        lines = [
            cfg.csv_header(),
            f"# label={s.label} parity={s.parity} "
            f"norm_constant={s.norm_constant!r} "
            f"support={s.support[0]}:{s.support[1]} leak={s.leak!r}",
            "n,re,im,prob",
        ]
        for r in rows:
            lines.append(
                ",".join(
                    [
                        str(r["n"]),
                        _csv_float(r["re"]),
                        _csv_float(r["im"]),
                        _csv_float(r["prob"]),
                    ]
                )
            )
        _emit("\n".join(lines) + "\n", out)
    return 0


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
            triple = harmonic_gdo(cfg.dim)
        else:
            triple = build_gdo(cfg.family, cfg.params, cfg.dim)
        rows = [
            {"n": n, "F": float(triple.structure_fn(n))} for n in range(triple.dim)
        ]
    key = "derived" if cfg.compare_printed else "F"
    for row in rows:
        if not math.isfinite(row[key]):
            raise ParameterError(
                f"F({row['n']}) is not finite at these parameters; reduce their magnitude"
            )
    if cfg.fmt == "json":
        payload = {"schema": "structure-fn-1", "config": cfg.header(), "rows": rows}
        _emit(encode_json(payload), out)
    else:
        if cfg.compare_printed:
            body = derived_vs_printed_csv(rows)
        else:
            body = ["n,F"] + [f"{r['n']},{_csv_float(r['F'])}" for r in rows]
        _emit("\n".join([cfg.csv_header()] + body) + "\n", out)
    return 0


def _manifest_int(value: Any, field: str) -> int:
    # JSON reads 1e999 as an infinite float, which int() cannot take
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int):
        raise ParameterError(f"{field} must be an integer")
    return int(value)


def _decode_manifest_params(raw: Any) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ParameterError("'params' must be a mapping")
    params: dict[str, Any] = {}
    for key, value in raw.items():
        if key in _INT_FLAGS:
            params[key] = _manifest_int(value, f"parameter '{key}'")
        elif key in _COMPLEX_FLAGS and isinstance(value, str):
            params[key] = parse_complex(value)
        else:
            kind = complex if key in _COMPLEX_FLAGS else float
            try:
                params[key] = kind(value)
            except (TypeError, ValueError, OverflowError):
                raise ParameterError(f"parameter '{key}' must be a number") from None
    return params


def _decode_manifest_entry(entry: Any) -> tuple[str, dict[str, Any], int, Tolerances]:
    if not isinstance(entry, dict):
        raise ParameterError("manifest entries must be mappings")
    for field in ("family", "params", "dim"):
        if field not in entry:
            raise ParameterError(f"manifest entry is missing '{field}'")
    family = _resolve_family(str(entry["family"]))
    params = _decode_manifest_params(entry["params"])
    dim = _manifest_int(entry["dim"], "'dim'")
    overrides = entry.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ParameterError("'tolerances' must be a mapping")
    values = Tolerances().as_dict()
    for name in values:
        if name in overrides:
            if not isinstance(overrides[name], (int, float)):
                raise ParameterError(f"tolerance '{name}' must be a number")
            values[name] = overrides[name]
    return family, params, dim, Tolerances(**values)


def cmd_batch(manifest_path: str, out_dir: str) -> int:
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, list):
        raise ParameterError("manifest must be a JSON list")
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    n_pass = n_fail = n_error = 0
    for index, raw in enumerate(manifest):
        label = raw.get("family", "entry") if isinstance(raw, dict) else "entry"
        try:
            family, params, dim, tolerances = _decode_manifest_entry(raw)
            with _closed_form_range(family, params):
                report = run_family_suite(family, params, dim, tolerances)
        except (ParameterError, ValueError, TypeError) as exc:
            n_error += 1
            entries.append(
                {
                    "index": index,
                    "family": str(label),
                    "status": "input-error",
                    "error": str(exc),
                }
            )
            continue
        filename = f"{index:03d}-{family}.json"
        _atomic_write(os.path.join(out_dir, filename), report.to_json())
        if report.passed:
            n_pass += 1
            status = "pass"
        else:
            n_fail += 1
            status = "fail"
        entries.append(
            {
                "index": index,
                "family": family,
                "status": status,
                "n_failed": report.n_failed,
                "file": filename,
            }
        )
    summary = {
        "schema": "batch-1",
        "n_entries": len(entries),
        "n_pass": n_pass,
        "n_fail": n_fail,
        "n_error": n_error,
        "entries": entries,
    }
    _atomic_write(os.path.join(out_dir, "summary.json"), encode_json(summary))
    if n_error:
        return 2
    return 1 if n_fail else 0


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
    except (ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
