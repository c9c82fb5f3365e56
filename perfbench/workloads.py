"""Seeded inputs for the three workloads.

Every function here is pure: the same seed gives the same inputs.  The
registry points come from ``fockladder.verify.EXTENDED_GRID`` and are
passed in by the caller, so the inputs follow the program's own grid.
"""

from __future__ import annotations

import cmath
import math
import random

# cli-cold cycles through this fixed list; the seed only orders it.  The
# batch op runs over grid_manifest(), written to a file by the caller.
CLI_OPS = (
    ("state-bs", ["state", "--family", "bs", "--eta", "0.5", "--M", "4", "--dim", "12"]),
    ("verify-ks", ["verify", "--family", "ks", "--alpha", "1", "--theta", "0.3", "--dim", "64"]),
    ("verify-pacs", ["verify", "--family", "pacs", "--alpha", "1+0.5i", "--M", "2", "--dim", "128"]),
    (
        "verify-svs-csv",
        ["verify", "--family", "svs", "--r", "0.8", "--theta", "0.5", "--dim", "128", "--format", "csv"],
    ),
    (
        "structure-fn-bs",
        ["structure-fn", "--family", "bs", "--eta", "0.5", "--M", "4", "--dim", "12", "--compare-printed"],
    ),
    ("batch", ["batch", "{manifest}", "--out-dir", "{out_dir}"]),
)

FINITE = (
    "binomial",
    "hypergeometric",
    "polya",
    "reciprocal_binomial",
    "pegg_barnett_phase",
    "generalized_geometric",
)
ONE_PHOTON = (
    "coherent",
    "geometric",
    "negative_binomial",
    "new_negative_binomial",
    "kerr",
    "pacs",
    "ecs",
    "ocs",
)
# svs and sfes stop at 512: at 1024 one suite makes three dense 1024^2
# expm calls and takes about 8 s on its own.
SQUEEZED = ("svs", "sfes")
ONE_PHOTON_DIMS = (256, 512, 1024)
SQUEEZED_DIMS = (256, 512)
FINITE_MS = (64, 128, 192)
FINITE_PAD = 8


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def cli_cycle_order(seed: int, cycle: int) -> list[int]:
    """Indices into CLI_OPS in the order one cycle runs them."""
    order = list(range(len(CLI_OPS)))
    _rng("cli-cold", seed, cycle).shuffle(order)
    return order


def grid_pass_order(seed: int, pass_index: int, n_rows: int) -> list[int]:
    """Row indices into EXTENDED_GRID in the order one pass runs them."""
    order = list(range(n_rows))
    _rng("grid-warm", seed, pass_index).shuffle(order)
    return order


def _draw_params(rng: random.Random, params: dict, M: int | None) -> dict:
    """Fresh parameters around a registry point (see README.md)."""
    out = {}
    for key, value in params.items():
        if key in ("theta", "theta0"):
            out[key] = rng.uniform(0.0, 2.0 * math.pi)
        elif key == "M":
            out[key] = value if M is None else M
        elif key == "m":
            out[key] = rng.randint(0, M if M is not None else params["M"])
        elif key == "L":
            big_m = M if M is not None else params["M"]
            out[key] = max(value, 4 * big_m) * rng.uniform(1.0, 1.2)
        elif isinstance(value, complex):
            out[key] = cmath.rect(abs(value), rng.uniform(0.0, 2.0 * math.pi))
        else:
            out[key] = value * rng.uniform(0.8, 1.2)
    return out


def _sweep_points() -> list[tuple[str, int | None, int]]:
    """(family, M override or None, dim) for every op of one pass."""
    points = [(f, None, d) for f in ONE_PHOTON for d in ONE_PHOTON_DIMS]
    points += [(f, None, d) for f in SQUEEZED for d in SQUEEZED_DIMS]
    points += [(f, m, m + FINITE_PAD) for f in FINITE for m in FINITE_MS]
    return points


def dim_sweep_pass(seed: int, pass_index: int, registry: dict) -> list[tuple[str, dict, int]]:
    """The 46 (family, params, dim) ops of one dim-sweep pass.

    Each pass draws its own parameters, so no two ops of a run share
    inputs and a cache keyed on the inputs never hits.
    """
    rng = _rng("dim-sweep", seed, pass_index)
    ops = [
        (family, _draw_params(rng, registry[family], M), dim)
        for family, M, dim in _sweep_points()
    ]
    rng.shuffle(ops)
    return ops


def dim_sweep_warmup(seed: int, registry: dict) -> list[tuple[str, dict, int]]:
    """One op per family at its smallest sweep size, on its own draws."""
    rng = _rng("dim-sweep-warmup", seed)
    seen = {}
    for family, M, dim in _sweep_points():
        if family not in seen:
            seen[family] = (family, _draw_params(rng, registry[family], M), dim)
    return list(seen.values())
