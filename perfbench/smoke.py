"""Smoke test of the benchmark itself, at a tiny run length.

    python3 perfbench/smoke.py

Runs every workload traced and grid-warm untraced with ``--seconds 1``,
and asserts that each result line is well formed and correct, that the
exact counts repeat between traced passes at one seed, and that the
benchmark refuses to run in a directory without the program's sources.
Takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BARE = os.path.join(HERE, "_out", "smoke-bare")


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, spec: dict) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, (workload, trace, detail["errors"], detail["unexplained"])
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted, result["metrics"]
    if trace:
        assert detail["counts_repeat"] is True, (workload, "exact counts differ between passes")
        assert result["metrics"]["core.apply_calls"]["value"] > 0, result["metrics"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
    print(f"ok   {workload} trace={trace} attempted={result['attempted']}")


def check_refuses_without_sources() -> None:
    shutil.rmtree(BARE, ignore_errors=True)
    os.makedirs(BARE)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE)
    shutil.copytree(HERE, os.path.join(BARE, "perfbench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run("grid-warm", 0, cwd=BARE)
    shutil.rmtree(BARE)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok   refuses to run without src/")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_refuses_without_sources()
    for workload in ("cli-cold", "grid-warm", "dim-sweep"):
        check_result(workload, 1, spec)
    check_result("grid-warm", 0, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
