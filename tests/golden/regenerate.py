"""Rewrite grid.json, the byte-identity record of the registry grid.

    PYTHONPATH=src python tests/golden/regenerate.py

For each EXTENDED_GRID report it records the SHA-256 of the report's
JSON and CSV and its table of (check name, passed); it also records the
SHA-256 of errata_table()'s JSON, and the Python minor version and numpy
version that made the record.  tests/test_golden.py compares the hashes
only under those versions, where libm and numpy round alike, and the
names and verdicts everywhere.  Rewrite it only with a change that means
to alter the reports, and say so with the change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from fockladder import reporting, verify

GOLDEN = Path(__file__).with_name("grid.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record() -> dict:
    """The grid's record as this interpreter and numpy give it."""
    reports = {
        r.family: {
            "json_sha256": _sha256(r.to_json()),
            "csv_sha256": _sha256(r.to_csv()),
            "checks": {c.name: c.passed for c in r.checks},
        }
        for r in verify.run_grid(verify.EXTENDED_GRID)
    }
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "errata_sha256": _sha256(reporting.encode_json(verify.errata_table())),
        "reports": reports,
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=2) + "\n")
