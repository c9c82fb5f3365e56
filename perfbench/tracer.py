"""Span and counter wrappers installed on fockladder's call sites at run
time, from outside the package.

A wrapper replaces every module-level binding of a function in the
``fockladder`` package, so ``core.apply`` is caught whether a call site
looks it up as ``core.apply``, ``ladder.apply``, ``verify.apply`` or
``twophoton.apply``.  Nothing under ``src/`` is edited.

Each span records (name, start, end, parent, op id).  Spans stay in
memory and are written as JSON lines by ``write_jsonl`` when the run
ends.  Self time is a span's duration minus the time its child spans
cover; it is summed per span name as spans close.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) of the function it wraps
SPANS = {
    "core.apply": ("core", "apply"),
    "core.operator": ("core", "operator"),
    "core.compose": ("core", "compose"),
    "core.adjoint": ("core", "adjoint"),
    "core.add": ("core", "add"),
    "core.sub": ("core", "sub"),
    "core.scale": ("core", "scale"),
    "core.to_matrix": ("core", "to_matrix"),
    "states.build_state": ("verify", "build_state"),
    "ladder.gdo_axiom_checks": ("ladder", "gdo_axiom_checks"),
    "ladder.eigen_check": ("ladder", "eigen_check"),
    "ladder.relation_check": ("ladder", "relation_check"),
    "twophoton.expm": ("twophoton", "expm"),
    "twophoton.su11_axiom_checks": ("twophoton", "su11_axiom_checks"),
    "twophoton.embedding_checks": ("twophoton", "embedding_checks"),
    "verify.run_family_suite": ("verify", "run_family_suite"),
    "reporting.encode_json": ("reporting", "encode_json"),
    "cli.main": ("cli", "main"),
}
# called too often for a span each; counted only
COUNTED = {
    "core.make_state": ("core", "make_state"),
    "core.ladder_factor": ("core", "ladder_factor"),
}
# builders whose returned triple gets its structure_fn wrapped
GDO_BUILDERS = (
    ("ladder", "finite_gdo"),
    ("ladder", "shifted_gdo"),
    ("ladder", "general_gdo"),
    ("ladder", "harmonic_gdo"),
    ("twophoton", "two_photon_gdo"),
)
STRUCTURE_FN = "ladder.structure_fn"
TO_CSV = "reporting.to_csv"

# per-layer metric -> span names whose self time it sums
LAYER_SELF = {
    "core.apply_s": ("core.apply",),
    "core.build_ops_s": (
        "core.operator",
        "core.compose",
        "core.adjoint",
        "core.add",
        "core.sub",
        "core.scale",
    ),
    "core.to_matrix_s": ("core.to_matrix",),
    "states.construct_s": ("states.build_state",),
    "ladder.structure_fn_s": (STRUCTURE_FN,),
    "ladder.gdo_axioms_s": ("ladder.gdo_axiom_checks",),
    "ladder.relation_checks_s": ("ladder.eigen_check", "ladder.relation_check"),
    "twophoton.expm_s": ("twophoton.expm",),
    "twophoton.su11_axioms_s": (
        "twophoton.su11_axiom_checks",
        "twophoton.embedding_checks",
    ),
    "verify.suite_self_s": ("verify.run_family_suite",),
    "reporting.serialize_s": ("reporting.encode_json", TO_CSV),
    "cli.main_self_s": ("cli.main",),
}
# exact counts: these must repeat between two traced passes at one seed
EXACT_COUNTS = (
    "core.apply_calls",
    "core.make_state_calls",
    "core.ladder_factor_calls",
    "core.to_matrix_calls",
    "core.dense_bytes",
    "states.construct_calls",
    "ladder.structure_fn_evals",
    "twophoton.expm_calls",
    "twophoton.expm_dim3",
    "reporting.bytes_out",
)


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op_id = -1
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset_totals()

    def reset_totals(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    # --- wrappers ---

    def _span(self, name, fn, on_exit=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (name, start, end, parent, self.op_id)
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_exit is not None:
                on_exit(args, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _counter(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _on_exit(self, name):
        if name == "core.apply":
            def hook(args, result):
                self.counts["core.apply_calls"] += 1
        elif name == "core.to_matrix":
            def hook(args, result):
                self.counts["core.to_matrix_calls"] += 1
                self.counts["core.dense_bytes"] += 16 * args[0].domain_dim ** 2
        elif name == "states.build_state":
            def hook(args, result):
                self.counts["states.construct_calls"] += 1
        elif name == "twophoton.expm":
            def hook(args, result):
                self.counts["twophoton.expm_calls"] += 1
                self.counts["twophoton.expm_dim3"] += int(args[0].shape[0]) ** 3
        elif name in ("reporting.encode_json", TO_CSV):
            def hook(args, result):
                self.counts["reporting.bytes_out"] += len(result.encode("utf-8"))
        else:
            hook = None
        return hook

    def _gdo_builder(self, fn):
        def count_eval(args, result):
            self.counts["ladder.structure_fn_evals"] += 1

        def built(*args, **kwargs):
            triple = fn(*args, **kwargs)
            F = self._span(STRUCTURE_FN, triple.structure_fn, count_eval)
            return dataclasses.replace(triple, structure_fn=F)

        built.__wrapped__ = fn
        return built

    # --- installation ---

    def _rebind(self, original, replacement) -> None:
        """Point every fockladder module binding of original at replacement."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fockladder" and not mod_name.startswith("fockladder."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import fockladder.cli  # noqa: F401  (every module the CLI imports)
        from fockladder import reporting

        def original(module, attr):
            return getattr(sys.modules[f"fockladder.{module}"], attr)

        for name, (module, attr) in SPANS.items():
            fn = original(module, attr)
            self._rebind(fn, self._span(name, fn, self._on_exit(name)))
        for name, (module, attr) in COUNTED.items():
            fn = original(module, attr)
            self._rebind(fn, self._counter(f"{name}_calls", fn))
        for module, attr in GDO_BUILDERS:
            fn = original(module, attr)
            self._rebind(fn, self._gdo_builder(fn))
        cls = reporting.VerificationReport
        self._saved.append((cls, "to_csv", cls.to_csv))
        cls.to_csv = self._span(TO_CSV, cls.to_csv, self._on_exit(TO_CSV))

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._saved):
            setattr(target, attr, value)
        self._saved.clear()

    # --- results ---

    def layer_metrics(self) -> dict[str, float | int]:
        """Per-layer self times and exact counts since the last reset."""
        out: dict[str, float | int] = {
            metric: sum(self.self_time.get(name, 0.0) for name in names)
            for metric, names in LAYER_SELF.items()
        }
        for key in EXACT_COUNTS:
            out[key] = int(self.counts.get(key, 0))
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
