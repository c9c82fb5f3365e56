"""Byte identity of the registry grid's reports and errata table, of the
dim-sweep set's reports and of the verify_su11 and verify_disentangling
reports, against the records in tests/golden/grid.json, dim_sweep.json and
library.json (rewritten by its regenerate.py)."""

import json
import math
import re
from pathlib import Path

import numpy as np

import fockladder.verify as verify
from fockladder.closedform import Coeffs
from golden.regenerate import (
    DIM_SWEEP,
    GOLDEN,
    LIBRARY,
    record,
    record_dim_sweep,
    record_library,
)


def _differences(now: dict, then: dict) -> list[str]:
    """Where record now departs from record then: the families and each
    report's check names and verdicts, in order, always; the hashes only
    where both records were made under one Python minor version and
    numpy version."""
    if list(now["reports"]) != list(then["reports"]):
        return ["families"]
    same_versions = (now["python"], now["numpy"]) == (then["python"], then["numpy"])
    hashes = ("json_sha256", "csv_sha256") if same_versions else ()
    errata_moved = now.get("errata_sha256") != then.get("errata_sha256")
    diffs = ["errata"] if same_versions and errata_moved else []
    for family, old in then["reports"].items():
        new = now["reports"][family]
        if list(new["checks"].items()) != list(old["checks"].items()):
            diffs.append(f"{family} checks")
        diffs += [f"{family} {key}" for key in hashes if new[key] != old[key]]
    return diffs


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_ci_pins_the_versions_that_made_the_golden_records():
    # the one CI job under which the hashes are compared: a regeneration
    # under other versions must move its pin too
    job = re.search(r"\n  golden-versions:\n(.*?)(?=\n  \S|\Z)", WORKFLOW.read_text(), re.S)
    assert job is not None
    python = re.findall(r'python-version: "([\d.]+)"', job.group(1))
    numpy = re.findall(r'"numpy==([\d.]+)"', job.group(1))
    for path in (GOLDEN, DIM_SWEEP, LIBRARY):
        made = json.loads(path.read_text())
        assert (python, numpy) == ([made["python"]], [made["numpy"]]), path.name


def test_grid_reports_and_errata_match_the_golden_record():
    # twice in one process: the second pass reads the cached suite inputs
    then = json.loads(GOLDEN.read_text())
    for _ in range(2):
        assert _differences(record(), then) == []
    assert verify._cached_input.cache_info().hits > 0


def test_dim_sweep_reports_match_the_golden_record():
    then = json.loads(DIM_SWEEP.read_text())
    inputs = [
        {key: entry[key] for key in ("family", "params", "dim")}
        for entry in then["reports"].values()
    ]
    assert len(inputs) == 46
    # the set's inputs and their step targets outnumber the cache, so it
    # is recorded in chunks that fit (two entries an input at most), each
    # twice in a row: the second pass reads the cached inputs
    size = verify.SUITE_CACHE_SIZE // 2
    for at in range(0, len(inputs), size):
        chunk = inputs[at : at + size]
        keys = [f"{op['family']}@{op['dim']}" for op in chunk]
        wanted = {**then, "reports": {key: then["reports"][key] for key in keys}}
        hits = verify._cached_input.cache_info().hits
        for _ in range(2):
            assert _differences(record_dim_sweep(chunk), wanted) == []
        assert verify._cached_input.cache_info().hits - hits >= len(chunk)


def test_library_reports_match_the_golden_record():
    assert _differences(record_library(), json.loads(LIBRARY.read_text())) == []


def test_a_one_ulp_change_to_a_closed_form_coefficient_fails(monkeypatch):
    unchanged = record()
    route = verify._cf_binomial

    def nudged(eta, M):
        c = route(eta, M)

        def values(ns):
            v = c.values(ns)
            return np.where(ns == 2, np.nextafter(v, math.inf), v)

        return Coeffs(c.lo, c.hi, values)

    monkeypatch.setattr(verify, "_cf_binomial", nudged)
    verify._cached_input.cache_clear()  # the clean grid's inputs are cached
    # the errata table reads binomial's structure function from C(n) too
    assert _differences(record(), unchanged) == [
        "errata",
        "binomial json_sha256",
        "binomial csv_sha256",
    ]
