"""fockladder benchmark: one workload per invocation, one client, closed loop.

    python3 perfbench/run.py --workload {cli-cold,grid-warm,dim-sweep} \\
        --seed N --seconds T --trace {0,1}

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics; with ``--trace 1`` a separate traced run gives the
per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details (environment, output digests, failing checks), which
are also written under ``perfbench/_out/``.  README.md explains the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)
# One BLAS thread in this process and every process it starts, set before
# numpy loads: the default second OpenBLAS thread spin-waits on the other
# core after each call, which made the expm rows 2-3x slower and the pass
# times several times noisier (README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import EXACT_COUNTS, LAYER_SELF  # noqa: E402

DEFAULT_SEED = 1
# Each run must end within 180 s; every subprocess is killed past this.
RUN_LIMIT_S = 170.0
# Tail percentile per workload, fixed so that runs stay comparable; a run
# goes on until at least ten samples lie beyond it.  Each lies inside one
# class of ops, not on the edge between two: cli-cold p75 in verify-svs,
# grid-warm p95 in the svs/sfes rows, dim-sweep p90 in the svs/sfes ops at
# dim 256.
TAIL_PERCENTILE = {"cli-cold": 75, "grid-warm": 95, "dim-sweep": 90}
# The version of the times (speed.py) each timed metric is reported in
# (README.md, "Host speed").  Every cli-cold op is a process start and an
# import, which follow the memory kernel.  In process, the median and the
# throughput aggregate the bulk of the ops, which follow both kernels;
# set-up (process start, import) and the tail ops (expm, large dense
# products) follow the memory kernel.
IN_PROCESS_TIME = {"setup_s": "memory", "op_p50_s": "host", "op_tail_s": "memory", "checks_per_s": "host"}
METRIC_TIME = {
    "cli-cold": dict.fromkeys(IN_PROCESS_TIME, "memory"),
    "grid-warm": IN_PROCESS_TIME,
    "dim-sweep": IN_PROCESS_TIME,
}
SETUP_SAMPLES = {"cli-cold": 7, "grid-warm": 7, "dim-sweep": 5}
IMPORT_SAMPLES = 5
IMPORT_LAYERS = {
    "import.fockladder_s": "fockladder",
    "import.scipy_linalg_s": "scipy.linalg",
    "import.numpy_s": "numpy",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# --- small helpers ---


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = p / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def min_ops(workload: str) -> int:
    return math.ceil(10 / (1 - TAIL_PERCENTILE[workload] / 100.0) - 1e-9)


class Runner:
    """Starts subprocesses in the checkout with PYTHONPATH=src, all under
    one deadline, and waits for each to end."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left

    def run(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run one process to its end; return (its raw wall time, it)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, timeout=self._timeout()
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(argv[:4])}") from exc
        return time.perf_counter() - start, proc

    def timed(self, argv: list[str]) -> tuple[dict, subprocess.CompletedProcess]:
        """Run one process; return (its wall time, raw and at each
        kernel's reference speed, it).  The kernels run here, between
        processes, on the same core (main() pins this process and its
        children)."""
        before = speed.sample()
        raw, proc = self.run(argv)
        return speed.scaled(raw, before, speed.sample()), proc

    def setup_time(self, args: list[str]) -> dict:
        """Set-up time of one worker.py that exits once ready, raw and at
        each kernel's reference speed."""
        before = speed.sample()
        raw, _ = self.worker(args + ["--mode", "setup"])
        return speed.scaled(raw, before, speed.sample())

    def worker(self, args: list[str]) -> tuple[float, dict]:
        """Start worker.py; return (seconds until it printed ready, its result)."""
        argv = [sys.executable, os.path.join(HERE, "worker.py")] + args
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out, err = proc.communicate(timeout=self._timeout())
        except (subprocess.TimeoutExpired, BenchError) as exc:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker timed out: {' '.join(args)}") from exc
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-500:]}")
        lines = out.strip().splitlines()
        return setup, (json.loads(lines[-1]) if lines else {})


def environment(seed: int, seconds: int) -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = {}
    for package in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), f"{package.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            info = {}
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    config = getattr(lib, f"{prefix}get_config{suffix}", None)
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    if config is not None and threads is not None and not info:
                        config.restype = ctypes.c_char_p
                        info = {"config": config().decode(), "threads": threads()}
            blas[package.__name__] = info
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "seconds": seconds,
    }


def import_layers(runner: Runner) -> dict:
    """Cumulative import times from ``python -X importtime``, medians."""
    samples: dict[str, list[float]] = {metric: [] for metric in IMPORT_LAYERS}
    for _ in range(IMPORT_SAMPLES):
        _, proc = runner.run([sys.executable, "-X", "importtime", "-c", "import fockladder"])
        if proc.returncode != 0:
            raise BenchError(f"import fockladder failed: {proc.stderr.decode()[-500:]}")
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e6
                except ValueError:
                    continue  # the column header line
        for metric, module in IMPORT_LAYERS.items():
            samples[metric].append(cumulative.get(module, 0.0))
    return {metric: statistics.median(v) for metric, v in samples.items()}


def merge_layers(passes: list[dict]) -> tuple[dict, bool]:
    """Median self times over traced passes; exact counts must repeat."""
    merged = {m: statistics.median(p[m] for p in passes) for m in LAYER_SELF}
    repeat = all(p[k] == passes[0][k] for p in passes for k in EXACT_COUNTS)
    merged.update({k: passes[0][k] for k in EXACT_COUNTS})
    return merged, repeat


# --- cli-cold ---


class CliWorkload:
    """Fresh ``python -m fockladder.cli`` processes, one per op."""

    def __init__(self, runner: Runner, seed: int, work: str):
        self.runner = runner
        self.seed = seed
        self.work = work
        self.manifest = os.path.join(work, "manifest.json")
        _, proc = runner.run(
            [sys.executable, "-c",
             "import json, sys; from fockladder.verify import grid_manifest; "
             "json.dump(grid_manifest(), sys.stdout)"]
        )
        if proc.returncode != 0:
            raise BenchError(f"grid_manifest() failed: {proc.stderr.decode()[-500:]}")
        with open(self.manifest, "wb") as fh:
            fh.write(proc.stdout)
        self.op_id = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # every time raw and at each kernel's reference speed (speed.py)
        self.op_times: dict[str, list[float]] = {t: [] for t in speed.TIMES}
        self.class_times: dict[str, list[float]] = {}  # raw
        self.first_digest: dict[str, str] = {}
        self.checks: dict[str, int] = {}
        self.failing: list[list] = []
        self.unexplained: list[list] = []

    def cycle(self, number: int, layers: list | None = None) -> dict:
        """Run the six ops once in the seed's order; return the wall time,
        raw and at each kernel's reference speed.

        With a ``layers`` list the ops run under the traced launcher and
        each op's per-layer totals are appended to it.
        """
        total = dict.fromkeys(speed.TIMES, 0.0)
        for index in workloads.cli_cycle_order(self.seed, number):
            name, args = workloads.CLI_OPS[index]
            op_dir = os.path.join(self.work, f"op{self.op_id}")
            out_dir = os.path.join(op_dir, "out")
            os.makedirs(op_dir)
            argv = [a.format(manifest=self.manifest, out_dir=out_dir) for a in args]
            if layers is None:
                prefix = [sys.executable, "-m", "fockladder.cli"]
            else:
                spans = os.path.join(self.work, "spans", f"op{self.op_id}-{name}.jsonl")
                os.makedirs(os.path.dirname(spans), exist_ok=True)
                layer_file = os.path.join(op_dir, "layers.json")
                prefix = [sys.executable, os.path.join(HERE, "launch.py"),
                          "--spans", spans, "--layers", layer_file, "--"]
            self.op_id += 1
            self.attempted += 1
            times, proc = self.runner.timed(prefix + argv)
            for kind, duration in times.items():
                total[kind] += duration
            problem = self._check(name, proc, out_dir)
            if problem:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{name}: {problem}"[:300])
            elif layers is None:
                for kind, duration in times.items():
                    self.op_times[kind].append(duration)
                self.class_times.setdefault(name, []).append(times["raw"])
            else:
                with open(layer_file, encoding="utf-8") as fh:
                    layers.append(json.load(fh))
            shutil.rmtree(op_dir)
        return total

    def _check(self, name: str, proc, out_dir: str) -> str | None:
        """Why the op failed, or None: exit code, traceback, changed bytes,
        malformed output."""
        stderr = proc.stderr.decode("utf-8", "replace")
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {stderr.strip()[-200:]}"
        if "Traceback" in stderr:
            return "traceback on stderr"
        data = [proc.stdout]
        files = {}
        if os.path.isdir(out_dir):
            for fname in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    files[fname] = fh.read()
                data += [fname.encode(), files[fname]]
        digest = hashlib.sha256(b"\0".join(data)).hexdigest()
        if self.first_digest.setdefault(name, digest) != digest:
            return "output bytes differ from the earlier repeat"
        if name not in self.checks:
            try:
                self.checks[name] = self._inspect(name, proc.stdout.decode("utf-8"), files)
            except (ValueError, KeyError, TypeError) as exc:
                return f"malformed output: {exc!r}"
        return None

    def _inspect(self, name: str, stdout: str, files: dict) -> int:
        """Validate one op's output; return how many checks it reports."""
        reports = []
        if name in ("state-bs", "structure-fn-bs"):
            rows = 12 if name == "state-bs" else 5  # dim 12; n in [0, M]
            if len(json.loads(stdout)["rows"]) != rows:
                raise ValueError(f"expected {rows} rows")
        elif name == "verify-svs-csv":
            lines = stdout.splitlines()
            first = lines.index("name,equation,residual,tolerance,leak,passed,detail") + 1
            rows = []
            for line in lines[first:]:
                fields = line.split(",")
                if len(fields) != 7 or fields[5] not in ("true", "false"):
                    raise ValueError(f"bad CSV row {line!r}")
                rows.append({"name": fields[0], "residual": fields[2], "passed": fields[5] == "true"})
            reports.append(("svs", 128, rows))
        elif name == "batch":
            summary = json.loads(files["summary.json"])
            if summary["n_entries"] != 15 or summary["n_error"] != 0:
                raise ValueError("batch summary does not cover the 15 grid entries")
            for entry in summary["entries"]:
                report = json.loads(files[entry["file"]])
                reports.append((report["family"], report["dim"], report["checks"]))
        else:
            report = json.loads(stdout)
            reports.append((report["family"], report["dim"], report["checks"]))
        for family, dim, rows in reports:
            for c in rows:
                if not c["passed"]:
                    residual = float(c["residual"])
                    reason = checks.classify(family, dim, c["name"], residual)
                    if reason is None:
                        self.unexplained.append([family, dim, c["name"], repr(residual)])
                    self.failing.append([family, dim, c["name"], reason or "unexplained"])
        return sum(len(rows) for _, _, rows in reports)

    def summary(self) -> dict:
        digests = dict(sorted(self.first_digest.items()))
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "checks_per_pass": sum(self.checks.values()),
            "checks_failed": len(self.failing),
            "failing": sorted(self.failing),
            "unexplained": self.unexplained,
            "digest": hashlib.sha256(json.dumps(digests).encode()).hexdigest(),
            "digests": digests,
        }


def new_cli_workload(runner: Runner, seed: int, tag: str) -> CliWorkload:
    work = os.path.join(OUT, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return CliWorkload(runner, seed, work)


# --- metrics ---


def end_to_end(workload, setups: list[dict], op_times: dict, pass_times: dict,
               class_times, pass_checks, rss):
    """The end-to-end metrics and the details that go with them.

    ``setups`` holds one time per set-up; ``op_times`` and ``pass_times``
    one list per version of the times (speed.TIMES).  Each timed metric
    is taken in the version ``METRIC_TIME`` names for the workload; every
    version of every metric goes into the details.
    """
    p = TAIL_PERCENTILE[workload]
    by_time = {
        kind: {
            "setup_s": statistics.median(s[kind] for s in setups),
            "op_p50_s": statistics.median(op_times[kind]),
            "op_tail_s": percentile(op_times[kind], p),
            "checks_per_s": sum(pass_checks) / sum(pass_times[kind]),
        }
        for kind in speed.TIMES
    }
    metrics = {name: by_time[kind][name] for name, kind in METRIC_TIME[workload].items()}
    metrics["peak_rss_mb"] = rss
    n = len(op_times["raw"])
    detail = {
        "metric_time": METRIC_TIME[workload],
        "metrics_by_time": by_time,
        "tail": {"percentile": p, "samples": n, "beyond": n * (100 - p) / 100},
        "op_median_raw_s": {name: statistics.median(t) for name, t in sorted(class_times.items())},
        "setup_samples_raw_s": [s["raw"] for s in setups],
        "pass_raw_s": pass_times["raw"],
        "pass_checks": pass_checks,
    }
    return metrics, detail


def sum_layers(per_op: list[dict]) -> dict:
    return {k: sum(op[k] for op in per_op) for k in per_op[0]}


def traced_layers(runner, passes, untraced, traced, checks_failed) -> tuple[dict, bool]:
    merged, repeat = merge_layers(passes)
    merged.update(import_layers(runner))
    merged["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    merged["verify.checks_failed"] = checks_failed
    return merged, repeat


# --- workloads ---


def run_cli_cold(runner: Runner, seed: int, seconds: int, trace: bool) -> tuple[bool, dict, dict]:
    cli = new_cli_workload(runner, seed, f"cli-cold-seed{seed}-trace{int(trace)}")
    detail: dict = {}
    start = time.perf_counter()
    if not trace:
        setups = [
            runner.timed([sys.executable, "-c", "import fockladder"])[0]
            for _ in range(SETUP_SAMPLES["cli-cold"])
        ]
        cycles = []
        while time.perf_counter() - start < seconds or len(cli.op_times["raw"]) < min_ops("cli-cold"):
            cycles.append(cli.cycle(len(cycles)))
        summary = cli.summary()
        if not cli.op_times["raw"]:
            raise BenchError(f"every op failed: {summary['errors'][:3]}")
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        pass_times = {kind: [c[kind] for c in cycles] for kind in speed.TIMES}
        metrics, detail = end_to_end(
            "cli-cold", setups, cli.op_times, pass_times,
            cli.class_times, [summary["checks_per_pass"]] * len(cycles), rss,
        )
        repeat = True
    else:
        passes, untraced, traced = [], [], []
        # every traced cycle replays cycle 0, so its counts must repeat
        while len(traced) < 2 or time.perf_counter() - start < seconds:
            untraced.append(cli.cycle(0)["memory"])
            ops: list[dict] = []
            traced.append(cli.cycle(0, layers=ops)["memory"])
            if len(ops) != len(workloads.CLI_OPS):
                raise BenchError(f"a traced op failed: {cli.errors[:3]}")
            passes.append(sum_layers(ops))
        summary = cli.summary()
        metrics, repeat = traced_layers(runner, passes, untraced, traced, summary["checks_failed"])
        detail.update(counts_repeat=repeat, spans=os.path.relpath(os.path.join(cli.work, "spans"), ROOT))
    detail.update(summary)
    correct = summary["failed"] == 0 and not summary["unexplained"] and repeat
    return correct, metrics, detail


def run_in_process(runner: Runner, workload: str, seed: int, seconds: int, trace: bool):
    base = ["--workload", workload, "--seed", str(seed)]
    detail: dict = {}
    if not trace:
        setups = [runner.setup_time(base) for _ in range(SETUP_SAMPLES[workload])]
        _, result = runner.worker(
            base + ["--mode", "run", "--seconds", str(seconds), "--min-ops", str(min_ops(workload))]
        )
        if not result["op_times"]["raw"]:
            raise BenchError(f"every op failed: {result['errors'][:3]}")
        metrics, detail = end_to_end(
            workload, setups, result["op_times"], result["pass_times"],
            result["class_times"], result["pass_checks"], result["peak_rss_mb"],
        )
        results = [result]
        consistent = True
    else:
        results, spans = [], []
        for k in range(2):
            spans.append(os.path.join(OUT, f"trace-{workload}-seed{seed}-{k}.jsonl"))
            args = ["--mode", "trace", "--seconds", str(seconds / 2), "--spans", spans[-1]]
            results.append(runner.worker(base + args)[1])
        passes = [layer for r in results for layer in r["layers"]]
        untraced = [t for r in results for t in r["untraced_pass_s"]]
        traced = [t for r in results for t in r["traced_pass_s"]]
        metrics, repeat = traced_layers(runner, passes, untraced, traced, results[0]["checks_failed"])
        # this workload never enters the CLI, so one traced cli-cold cycle
        # supplies the CLI layer
        probe = new_cli_workload(runner, seed, f"cli-probe-{workload}-seed{seed}")
        ops: list[dict] = []
        probe.cycle(0, layers=ops)
        if len(ops) != len(workloads.CLI_OPS):
            raise BenchError(f"a traced CLI op failed: {probe.errors[:3]}")
        metrics["cli.main_self_s"] = sum_layers(ops)["cli.main_self_s"]
        detail.update(counts_repeat=repeat, spans=[os.path.relpath(s, ROOT) for s in spans])
        consistent = repeat and results[0]["digest"] == results[1]["digest"]
    first = results[0]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] + r["warmup_failed"] for r in results)
    unexplained = [u for r in results for u in r["unexplained"]]
    detail.update(
        attempted=attempted,
        failed=failed,
        errors=[e for r in results for e in r["errors"]],
        checks_failed=first["checks_failed"],
        failing=first["failing"],
        unexplained=unexplained,
        digest=first["digest"],
        digests=first["digests"],
    )
    correct = failed == 0 and not unexplained and consistent
    return correct, metrics, detail


# --- entry point ---


def baseline_diff(workload: str, failing: list[list]) -> dict:
    """Failing (family, dim, check) triples against the committed baseline."""
    with open(os.path.join(HERE, "known_failures.json"), encoding="utf-8") as fh:
        known = json.load(fh)
    base = {tuple(f[:3]) for f in known["workloads"][workload]}
    now = {tuple(f[:3]) for f in failing}
    return {
        "seed": known["seed"],
        "new": sorted(list(f) for f in now - base),
        "fixed": sorted(list(f) for f in base - now),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "fockladder", "__init__.py")):
        print(f"error: no fockladder sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(OUT, exist_ok=True)
    # One core for this process and every process it starts, so that the
    # speed kernels (speed.py) always run on the core they speak for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner()
    trace = bool(args.trace)
    try:
        if args.workload == "cli-cold":
            correct, metrics, detail = run_cli_cold(runner, args.seed, args.seconds, trace)
        else:
            correct, metrics, detail = run_in_process(runner, args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match {spec_path}",
              file=sys.stderr)
        return 1
    result = {
        "correct": bool(correct),
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, args.seconds),
        "op_error_ratio": detail["failed"] / max(detail["attempted"], 1),
        "known_failures": baseline_diff(args.workload, detail["failing"]),
        "known_defects": checks.KNOWN_DEFECTS,
        **detail,
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, sort_keys=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
