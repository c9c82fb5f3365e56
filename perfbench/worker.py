"""One interpreter running an in-process workload (grid-warm or dim-sweep).

Started by run.py, never imported.  It imports fockladder from the
checkout's ``src/``, generates its inputs from the seed, warms up one op
per family, prints ``ready`` (run.py times set-up up to that line), and
then, by mode:

- ``setup``: exits;
- ``run``: runs whole passes until ``--seconds`` have passed and at least
  ``--min-ops`` ops are done, timing every op;
- ``trace``: repeats (untraced pass, traced pass) pairs on the inputs of
  pass 0 until ``--seconds`` have passed, and writes the spans.

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


class Workload:
    """Ops of one workload: each op returns (report or None, output bytes)."""

    def __init__(self, name: str, seed: int):
        from fockladder.verify import EXTENDED_GRID

        self.name = name
        self.seed = seed
        self.rows = list(EXTENDED_GRID)
        self.registry = {family: params for family, params, _ in self.rows}
        # inputs are drawn here, inside the timed set-up
        self.pass0 = self._build_pass(0)
        if name == "grid-warm":
            # every family appears once in the grid, at its only size
            self.warmup = self.pass0
        else:
            warmup = workloads.dim_sweep_warmup(seed, self.registry)
            self.warmup = [_suite_op("warmup", *op) for op in warmup]

    def pass_ops(self, index: int) -> list:
        """[(key, fn, (family, dim) or None)] for one pass.

        The key names the op's inputs: ops with equal keys must give
        equal bytes.
        """
        return self.pass0 if index == 0 else self._build_pass(index)

    def _build_pass(self, index: int) -> list:
        if self.name == "grid-warm":
            order = workloads.grid_pass_order(self.seed, index, len(self.rows))
            return [_suite_op("grid", *self.rows[i]) for i in order] + [_errata_op()]
        ops = workloads.dim_sweep_pass(self.seed, index, self.registry)
        return [_suite_op(f"pass{index}", *op) for op in ops]


# Call sites look fockladder's functions up at call time, so that the
# tracer's wrappers, installed after the ops are built, see every call.


def _suite_op(prefix, family, params, dim):
    from fockladder import verify

    def op():
        report = verify.run_family_suite(family, params, dim)
        return report, (report.to_json() + report.to_csv()).encode("utf-8")

    return f"{prefix}:{family}@{dim}", op, (family, dim)


def _errata_op():
    from fockladder import reporting, verify

    def op():
        return None, reporting.encode_json(verify.errata_table()).encode("utf-8")

    return "errata", op, None


class Recorder:
    """Times ops, checks their outputs and keeps the numbers run.py needs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # every time raw and at each kernel's reference speed (speed.py)
        self.op_times: dict[str, list[float]] = {t: [] for t in speed.TIMES}  # not errata
        self.class_times: dict[str, list[float]] = {}  # raw, by inputs, errata too
        self.pass_times: dict[str, list[float]] = {t: [] for t in speed.TIMES}
        self.pass_checks: list[int] = []
        self.first_digest: dict[str, str] = {}
        self.pass0_digests: dict[str, str] = {}
        self.failing: list[list] = []
        self.unexplained: list[list] = []
        self.op_id = 0

    def run_pass(self, ops, record_pass0: bool, tracer=None) -> float:
        from fockladder.reporting import report_from_json

        elapsed = dict.fromkeys(speed.TIMES, 0.0)
        n_checks = 0
        before = speed.sample()
        for key, fn, where in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op_id = self.op_id
            self.op_id += 1
            start = time.perf_counter()
            try:
                report, data = fn()
            except Exception as exc:  # an op that raises is a failed op ...
                message = f"{type(exc).__name__}: {exc}"
                reason = checks.classify_error(where[0], exc) if where else None
                if reason is None:
                    self._fail(f"{key}: {message}")
                    before = speed.sample()
                    continue
                # ... unless a known defect explains it: then it counts
                # like a failing check and its output is the message
                report, data = None, message.encode("utf-8")
                if record_pass0:
                    self.failing.append([where[0], where[1], f"raised {message}", reason])
            raw = time.perf_counter() - start
            after = speed.sample()
            times = speed.scaled(raw, before, after)
            before = after
            for kind, duration in times.items():
                elapsed[kind] += duration
                if where is not None:
                    self.op_times[kind].append(duration)
            self.class_times.setdefault(key.split(":", 1)[-1], []).append(raw)
            digest = hashlib.sha256(data).hexdigest()
            earlier = self.first_digest.setdefault(key, digest)
            if earlier != digest:
                self._fail(f"{key}: output bytes differ from the earlier repeat")
                continue
            if record_pass0:
                self.pass0_digests[key] = digest
            if report is None:
                continue
            n_checks += len(report.checks)
            # under the tracer this would count as serialization work; the
            # untraced repeat of the same op has checked it
            if tracer is None:
                text = report.to_json()
                if report_from_json(text).to_json() != text:
                    self._fail(f"{key}: report JSON does not round-trip")
                    continue
            family, dim = where
            for c in report.failed_checks():
                reason = checks.classify(family, dim, c.name, c.residual)
                if reason is None:
                    self.unexplained.append([family, dim, c.name, repr(c.residual)])
                if record_pass0:
                    self.failing.append([family, dim, c.name, reason or "unexplained"])
        for kind, duration in elapsed.items():
            self.pass_times[kind].append(duration)
        self.pass_checks.append(n_checks)
        return elapsed["host"]

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message[:300])

    def summary(self) -> dict:
        pass0 = json.dumps(sorted(self.pass0_digests.items())).encode("utf-8")
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "op_times": self.op_times,
            "class_times": self.class_times,
            "pass_times": self.pass_times,
            "pass_checks": self.pass_checks,
            "checks_failed": len(self.failing),
            "failing": sorted(self.failing),
            "unexplained": self.unexplained[:20],
            "digest": hashlib.sha256(pass0).hexdigest(),
            "digests": dict(sorted(self.pass0_digests.items())),
        }


def _check_import() -> None:
    import fockladder

    where = os.path.realpath(fockladder.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"fockladder was imported from {where}, not from {SRC}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("grid-warm", "dim-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--spans", default=None, help="trace mode: JSON-lines output")
    args = parser.parse_args()

    _check_import()
    workload = Workload(args.workload, args.seed)
    warm = Recorder()
    warm.run_pass(workload.warmup, record_pass0=False)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    rec = Recorder()
    result: dict = {}
    start = time.perf_counter()
    if args.mode == "run":
        index = 0
        while time.perf_counter() - start < args.seconds or len(rec.op_times["raw"]) < args.min_ops:
            rec.run_pass(workload.pass_ops(index), record_pass0=index == 0)
            index += 1
    else:
        from tracer import Tracer

        tracer = Tracer()
        untraced, traced, layers = [], [], []
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(rec.run_pass(workload.pass_ops(0), record_pass0=not traced))
            tracer.reset_totals()
            tracer.install()
            try:
                traced.append(rec.run_pass(workload.pass_ops(0), False, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())
        if args.spans:
            tracer.write_jsonl(args.spans)
        result = {"untraced_pass_s": untraced, "traced_pass_s": traced, "layers": layers}
    result.update(rec.summary())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    warm_summary = warm.summary()
    result["warmup_failed"] = warm_summary["failed"]
    result["errors"] = warm_summary["errors"] + result["errors"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
