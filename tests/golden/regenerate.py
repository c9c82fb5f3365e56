"""Rewrite grid.json, dim_sweep.json and library.json, the byte-identity
records of the registry grid, of a fixed large-truncation set and of the
two library report entry points that no registry suite is.

    PYTHONPATH=src python tests/golden/regenerate.py

For each EXTENDED_GRID report grid.json records the SHA-256 of the
report's JSON and CSV and its table of (check name, passed); it also
records the SHA-256 of errata_table()'s JSON.  dim_sweep.json records the
same for each op of the benchmark's dim-sweep pass 0 at seed 1 (46 suites
at dims 72-1024), with the inputs written into the file, so that the
test reads them without the benchmark; a complex parameter is stored as
[real, imag].  library.json records the same for verify_su11(j, n) at
j = 0, 1 and n = 1, 2, 8, 32, 64, 256, and for
verify_disentangling(0.8, 0.5, 128, excitation=j) at j = 0, 1.  Each file
also holds the Python minor version and numpy
version that made it.  tests/test_golden.py compares the hashes only
under those versions, where libm and numpy round alike, and the names
and verdicts everywhere.  Rewrite them only with a change that means to
alter the reports, and say so with the change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from fockladder import reporting, twophoton, verify

GOLDEN = Path(__file__).with_name("grid.json")
DIM_SWEEP = Path(__file__).with_name("dim_sweep.json")
LIBRARY = Path(__file__).with_name("library.json")
DIM_SWEEP_SEED = 1


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _versions() -> dict:
    return {"python": "%d.%d" % sys.version_info[:2], "numpy": np.__version__}


def _entry(report) -> dict:
    return {
        "json_sha256": _sha256(report.to_json()),
        "csv_sha256": _sha256(report.to_csv()),
        "checks": {c.name: c.passed for c in report.checks},
    }


def record() -> dict:
    """The grid's record as this interpreter and numpy give it."""
    reports = {r.family: _entry(r) for r in verify.run_grid(verify.EXTENDED_GRID)}
    return {
        **_versions(),
        "errata_sha256": _sha256(reporting.encode_json(verify.errata_table())),
        "reports": reports,
    }


def record_library() -> dict:
    """The record of verify_su11 and verify_disentangling as this
    interpreter and numpy give it."""
    reports = {
        f"verify_su11({j}, {n})": _entry(twophoton.verify_su11(j, n))
        for j in (0, 1)
        for n in (1, 2, 8, 32, 64, 256)
    }
    for j in (0, 1):
        report = twophoton.verify_disentangling(0.8, 0.5, 128, excitation=j)
        reports[f"verify_disentangling(0.8, 0.5, 128, excitation={j})"] = _entry(report)
    return {**_versions(), "reports": reports}


def _decode(params: dict) -> dict:
    return {k: complex(*v) if isinstance(v, list) else v for k, v in params.items()}


def record_dim_sweep(inputs: list[dict]) -> dict:
    """The record of the (family, params, dim) inputs, each in the file's
    form, as this interpreter and numpy give it."""
    reports = {}
    for op in inputs:
        report = verify.run_family_suite(op["family"], _decode(op["params"]), op["dim"])
        reports[f"{op['family']}@{op['dim']}"] = {**op, **_entry(report)}
    return {**_versions(), "seed": DIM_SWEEP_SEED, "reports": reports}


def _dim_sweep_inputs() -> list[dict]:
    """Pass 0 of the benchmark's dim sweep, drawn by perfbench/workloads.py."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from perfbench import workloads

    registry = {family: params for family, params, _ in verify.EXTENDED_GRID}
    return [
        {
            "family": family,
            "params": {
                k: [v.real, v.imag] if isinstance(v, complex) else v
                for k, v in params.items()
            },
            "dim": dim,
        }
        for family, params, dim in workloads.dim_sweep_pass(DIM_SWEEP_SEED, 0, registry)
    ]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=2) + "\n")
    sweep = record_dim_sweep(_dim_sweep_inputs())
    DIM_SWEEP.write_text(json.dumps(sweep, indent=2) + "\n")
    LIBRARY.write_text(json.dumps(record_library(), indent=2) + "\n")
