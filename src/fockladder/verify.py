"""The family table, family check suites, the derived-vs-printed
comparison, and the identity catalog.

Each family is one `FamilySpec` entry in `FAMILY_SPECS`; the registry
names, grids, constructors, closed-form routes and suites all read it.
Every family in the registry gets a consolidated suite: constructor
invariants, a distribution cross-check against a closed-form route that
is independent of the constructor's recurrences, its ladder relations in
generic and literal form, the step maps between neighboring members
where they exist, and the deformed-oscillator axiom battery.

The identity catalog assigns a tag (E1, E2, ...) to each relation the
project implements; the errata helpers evaluate the printed closed forms
that the derivation's source gets wrong and report them next to the
derived values rather than silently correcting them.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import KW_ONLY, dataclass
from typing import Any, Callable

import numpy as np

from .closedform import (
    Coeffs,
    _cf_binomial,
    _cf_generalized_geometric,
    _cf_hypergeometric,
    _cf_negative_binomial,
    _cf_nnbs,
    _cf_pacs,
    _cf_phase,
    _cf_polya,
    _cf_reciprocal_binomial,
    coherent_coeffs,
    ecs_sector_coeffs,
    finite_F,
    geometric_coeffs,
    kerr_coeffs,
    ocs_sector_coeffs,
    raising_F,
    sfes_sector_coeffs,
    svs_sector_coeffs,
)
from .core import (
    FockState,
    OperatorExpr,
    _ArrayDiag,
    _array_diag,
    _mul,
    _read,
    add,
    annihilation,
    apply,
    number_op,
    scale,
    sub,
)
from .ladder import (
    GdoTriple,
    _Row,
    _eigen_row,
    _images_row,
    _judge,
    _lowering_form,
    _relation_row,
    added_coherent_lowering,
    added_coherent_pair,
    added_lowered_pair,
    added_raising_ladder,
    bs_ladder,
    finite_gdo,
    gdo_axiom_rows,
    general_gdo,
    ggs_ladder,
    gs_lowering,
    gs_pair,
    hgs_ladder,
    kerr_lowering,
    ladder_general,
    ladder_lowering_finite,
    ladder_raising_shifted,
    nbs_lowering,
    nnbs_lowering,
    pbps_ladder,
    ps_ladder,
    rbs_ladder,
    shifted_gdo,
    shifted_lowered_pair,
    step_down_f,
    step_down_g,
    step_up_f,
    step_up_g,
)
from .reporting import DEFAULT_TOLERANCES, Tolerances, VerificationReport, _tolerance_fields
from .states import (
    NLCS_WINDOW,
    ParameterError,
    TailMassError,
    _check_angle,
    _check_dim,
    coherent,
    format_complex,
    geometric,
    intermediate_nlcs,
    kerr,
    negative_binomial,
    new_negative_binomial,
    pegg_barnett_phase,
    phase_point,
    photon_add,
    binomial,
    generalized_geometric,
    hypergeometric,
    polya,
    reciprocal_binomial,
)
from .twophoton import (
    disentangling_rows,
    even_odd_coherent,
    pair_lowering,
    sector_dim,
    sector_embed,
    sfes_lowering,
    squeezed_first_excited,
    squeezed_vacuum,
    squeezing_routes,
    su11,
    svs_lowering,
    two_photon_gdo,
    two_photon_ladder,
)

# --- identity catalog ---
# Tags are this project's stable identifiers for the relations it
# implements; the coverage meta-test in the test suite asserts that every
# tag below is exercised by at least one check over the extended grid.
# E77 and E78 name a generic two-photon nonlinear family that is not
# instantiated here, so they carry no checkable content and are absent.

EQUATION_CATALOG: dict[str, str] = {
    "E1": "deformed oscillator axioms: number commutators and F products",
    "E2": "finite expansion |x,M> = sum C(n)|n>",
    "E3": "f(N) a action on a finite expansion",
    "E4": "step-down f(N) = C(N,M-1)/(sqrt(N+1) C(N+1,M))",
    "E5": "f(N) a maps the M-member to the (M-1)-member",
    "E6": "g(N) sqrt(M-N) maps the M-member to the (M-1)-member",
    "E7": "step-down g(N) = C(N,M-1)/(sqrt(M-N) C(N,M))",
    "E8": "the two step-down routes agree on the state",
    "E9": "[N + (M-N)C(N)/(sqrt(N+1)C(N+1)) a] eigenvalue M",
    "E10": "finite lowering generator definition, raising by adjoint",
    "E11": "finite ladder algebra [N,A+-]=+-A+-, A+A-=F(N), A-A+=F(N+1)",
    "E12": "finite structure function F(N)=(M-N+1)^2 C^2(N-1)/C^2(N)",
    "E13": "(N + A-)|x,M> = M|x,M>",
    "E14": "binomial state expansion",
    "E15": "binomial state ladder identity",
    "E16": "hypergeometric state expansion",
    "E17": "generalized binomial coefficient",
    "E18": "hypergeometric state ladder identity",
    "E19": "Polya state expansion coefficients",
    "E20": "Polya normalization product",
    "E21": "Polya ladder identity (printed numerator offset corrected)",
    "E22": "reciprocal binomial expansion (printed prefactor lacks a root)",
    "E23": "reciprocal binomial ladder identity",
    "E24": "phase state expansion",
    "E25": "phase grid theta_m = theta_0 + 2 pi m/(s+1)",
    "E26": "phase state ladder identity",
    "E27": "generalized geometric expansion",
    "E28": "generalized geometric ladder identity",
    "E29": "printed finite structure functions (all six corrected)",
    "E30": "shifted expansion on n >= M",
    "E31": "photon-added state definition N_M a+^M |psi>",
    "E32": "general base expansion",
    "E33": "f(N) a+ maps the shifted M-member to the (M+1)-member",
    "E34": "g(N) sqrt(N-M) maps the shifted M-member to the (M+1)-member",
    "E35": "step-up f(N) = D(N,M+1)/(sqrt(N) D(N-1,M))",
    "E36": "step-up g(N) = D(N,M+1)/(sqrt(N-M) D(N,M))",
    "E37": "shifted raising ladder identity, eigenvalue M",
    "E38": "shifted lowered relation (N+1-M) a",
    "E39": "photon-added expansion C(n-M) sqrt(n!/(n-M)!)",
    "E40": "added raising ladder identity, eigenvalue M",
    "E41": "added lowered relation against the base-coefficient diagonal",
    "E42": "shifted raising generator definition, lowering by adjoint",
    "E43": "shifted ladder algebra with G products",
    "E44": "shifted structure function G(N)=(N-M)^2 D^2(N)/D^2(N-1)",
    "E45": "(N - B+)|x,M> = M|x,M>",
    "E46": "coherent state expansion",
    "E47": "added coherent lowered relation (N+1-M) a vs alpha (N+1)",
    "E48": "[1 - M/(N+1)] a eigenvalue alpha on the added coherent state",
    "E49": "nonlinear coherent eigen relation f(N) a",
    "E50": "shifted negative binomial expansion",
    "E51": "[sqrt(N+1-M)/(N+1)] a eigenvalue sqrt(1-eta)",
    "E52": "general raising-form relation, eigenvalue 0",
    "E53": "general lowering-form relation",
    "E54": "general GDO generators from coefficient ratios",
    "E55": "coherent annihilation eigenvalue",
    "E56": "geometric state expansion",
    "E57": "geometric pair relation a vs sqrt(1-eta) sqrt(N+1)",
    "E58": "[1/sqrt(N+1)] a eigenvalue sqrt(1-eta)",
    "E59": "negative binomial expansion",
    "E60": "[1/sqrt(M+N)] a eigenvalue sqrt(eta)",
    "E61": "Kerr state expansion",
    "E62": "Kerr lowering identity (printed exponent sign corrected)",
    "E63": "intermediate state eigen relation and recursion",
    "E64": "squeezed vacuum definition S(xi)|0>",
    "E65": "even/odd sector span",
    "E66": "su(1,1) sector actions of K+, K-, K0",
    "E67": "disentangled form of the squeezing operator",
    "E68": "squeezed vacuum expansion",
    "E69": "even/odd sector expansions",
    "E70": "even sector number operator K0 - 1/4",
    "E71": "odd sector number operator K0 - 3/4",
    "E72": "even sector raising-form ladder",
    "E73": "odd sector raising-form ladder",
    "E74": "even sector lowering-form relation",
    "E75": "odd sector lowering-form relation",
    "E76": "[1/(N+1)] a^2 eigenvalue on the squeezed vacuum",
    "E79": "squeezed first excited definition S(xi)|1>",
    "E80": "squeezed first excited expansion",
    "E81": "[1/(N+2)] a^2 eigenvalue (printed state label corrected)",
    "E82": "even coherent expansion",
    "E83": "odd coherent expansion",
    "E84": "a^2 eigenvalue alpha^2 on the even/odd coherent states",
    "E85": "even sector GDO generators",
    "E86": "odd sector GDO generators",
    "E87": "sector structure functions F_e and F_o",
}

# --- family table ---

Params = dict[str, Any]


@dataclass(frozen=True)
class FamilySpec:
    """Everything the registry knows about one family, in one place.

    ``kind`` keys the family's entry in ``_KINDS``, which holds what the
    kind adds to the one suite and its deformed-oscillator construction:
    "finite" (support [0, M]), "shifted" (support from M), "added"
    (photon-added), "general" (infinite support) or "two-photon" (one
    parity sector).  ``sector`` is that parity j for a two-photon family
    and None for the rest; it alone decides the family's basis.  Every
    callable hands the parameters to builders that run their own range
    rules, and reaches each through its module-level name, so a wrapper
    rebound on such a name sees the call.
    """

    name: str
    alias: str | None
    params: tuple[str, ...]
    kind: str
    _: KW_ONLY
    build: Callable[[Params, int], FockState]
    # a route of closedform.py, which reads no constructor or builder;
    # None when the coefficients are the recursion output itself
    closed_form: Callable[[Params, int], Coeffs] | None
    norm_eq: str
    dist_eq: str
    # the literal lowering operator and its eigenvalue on the state
    literal: Callable[[Params, int], tuple[OperatorExpr, complex]]
    literal_eq: str
    grid: tuple[Params, int]
    optional: tuple[str, ...] = ()
    sector: int | None = None
    # (check name, equation, lhs/rhs builder), checked before the literal
    pair: tuple[str, str, Callable[[Params, int], tuple]] | None = None
    # coefficients of the state before photon addition
    base: Callable[[Params], Coeffs] | None = None
    # the (M-1)-member's parameters when keeping x fixed takes more than M-1
    down: Callable[[Params], Params] | None = None
    # the source's printed structure function at n (E29)
    printed_F: Callable[[Params, int], complex] | None = None
    # the source's printed literal ladder, which fails the literal relation
    printed_literal: Callable[[Params, int], OperatorExpr] | None = None
    # derived values echoed into report headers
    echo: Callable[[Params], Params] | None = None
    # S(xi)|j>: also check the squeezing operator's disentangled form
    disentangle: bool = False

    def default_dim(self, params: Params) -> int | None:
        """The truncation when none is given: M + 8 for a finite family."""
        return params["M"] + 8 if self.kind == "finite" and "M" in params else None


def _theta_m(p: Params) -> float:
    return phase_point(p["theta0"], p["m"], p["M"])


def _squeeze_eigenvalue(p: Params) -> complex:
    return cmath.exp(1j * _check_angle(p["theta"])) * math.tanh(p["r"])


def _intermediate_ladder(p: Params, dim: int) -> OperatorExpr:
    f, root = p.get("f"), math.sqrt(1 - p["eta"])

    def d(t: np.ndarray) -> np.ndarray:
        if f is None:
            return root * np.ones(len(t))
        # f is the caller's, read one index at a time, or the suite's
        # table of it (_Tabulated), read as an array
        return _mul(root, np.asarray(_read(f, t), dtype=np.complex128))

    return add(scale(number_op(dim), math.sqrt(p["eta"])), _lowering_form(_array_diag(d), dim))


_GGS_Y = cmath.rect(0.3, math.pi / 3)


def _grid_nonlinearity(n: int) -> complex:
    return cmath.exp(-0.2j * n)


_grid_nonlinearity.label = "exp(-0.2i*n)"


# Ordered: the first fifteen entries are the canonical families the batch
# contract counts, and their grid rows are the reproducible acceptance
# run.  The grid parameters are fixed and versioned.
FAMILY_SPECS: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in (
        FamilySpec(
            "binomial", "bs", ("eta", "M"), "finite",
            build=lambda p, dim: binomial(p["eta"], p["M"], dim),
            closed_form=lambda p, dim: _cf_binomial(p["eta"], p["M"]),
            norm_eq="E2 E14", dist_eq="E14",
            literal=lambda p, dim: (bs_ladder(p["eta"], p["M"], dim), p["M"]),
            literal_eq="E15",
            printed_F=lambda p, n: (p["M"] - n + 1) ** 3 * (1 - p["eta"]) / p["eta"],
            grid=({"eta": 0.5, "M": 4}, 12),
        ),
        FamilySpec(
            "hypergeometric", "hgs", ("L", "eta", "M"), "finite",
            build=lambda p, dim: hypergeometric(p["L"], p["eta"], p["M"], dim),
            closed_form=lambda p, dim: _cf_hypergeometric(p["L"], p["eta"], p["M"]),
            norm_eq="E16 E17", dist_eq="E16 E17",
            literal=lambda p, dim: (hgs_ladder(p["L"], p["eta"], p["M"], dim), p["M"]),
            literal_eq="E18",
            printed_F=lambda p, n: (
                (p["M"] - n + 1) ** 3
                * (p["L"] * (1 - p["eta"]) - p["M"] + n)
                / (p["L"] * p["eta"] - n + 1)
            ),
            grid=({"L": 40.0, "eta": 0.5, "M": 5}, 13),
        ),
        FamilySpec(
            "polya", "ps", ("eta", "gamma", "M"), "finite",
            build=lambda p, dim: polya(p["eta"], p["gamma"], p["M"], dim),
            closed_form=lambda p, dim: _cf_polya(p["eta"], p["gamma"], p["M"]),
            norm_eq="E19 E20", dist_eq="E19 E20",
            literal=lambda p, dim: (
                ps_ladder(p["eta"], p["gamma"], p["M"], dim),
                p["M"],
            ),
            literal_eq="E21",
            printed_F=lambda p, n: (
                (p["M"] - n + 1) ** 3
                * ((1 - p["eta"]) + (p["M"] + n - 2) * p["gamma"])
                / (p["eta"] + (n - 1) * p["gamma"])
            ),
            printed_literal=lambda p, dim: ps_ladder(
                p["eta"], p["gamma"], p["M"], dim, variant="printed"
            ),
            grid=({"eta": 0.4, "gamma": 0.7, "M": 5}, 13),
        ),
        FamilySpec(
            "reciprocal_binomial", "rbs", ("theta", "M"), "finite",
            build=lambda p, dim: reciprocal_binomial(p["theta"], p["M"], dim),
            closed_form=lambda p, dim: _cf_reciprocal_binomial(p["theta"], p["M"]),
            norm_eq="E22", dist_eq="E22",
            literal=lambda p, dim: (rbs_ladder(p["theta"], p["M"], dim), p["M"]),
            literal_eq="E23",
            printed_F=lambda p, n: (
                cmath.exp(-2j * _check_angle(p["theta"])) * (p["M"] - n + 1) ** 5 / n**2
            ),
            grid=({"theta": 0.7, "M": 4}, 12),
        ),
        FamilySpec(
            "pegg_barnett_phase", "pbps", ("theta0", "m", "M"), "finite",
            build=lambda p, dim: pegg_barnett_phase(p["theta0"], p["m"], p["M"], dim),
            closed_form=lambda p, dim: _cf_phase(_theta_m(p), p["M"]),
            norm_eq="E24 E25", dist_eq="E24",
            literal=lambda p, dim: (pbps_ladder(_theta_m(p), p["M"], dim), p["M"]),
            literal_eq="E26",
            # x is theta_m itself, so the reduced member keeps it
            down=lambda p: dict(p, M=p["M"] - 1, theta0=_theta_m(p), m=0),
            printed_F=lambda p, n: (
                cmath.exp(-2j * _theta_m(p)) * (p["M"] - n + 1) ** 4 / n
            ),
            echo=lambda p: {"theta_m": _theta_m(p)},
            grid=({"theta0": 0.0, "m": 2, "M": 7}, 15),
        ),
        FamilySpec(
            "generalized_geometric", "ggs", ("Y", "M"), "finite",
            build=lambda p, dim: generalized_geometric(p["Y"], p["M"], dim),
            closed_form=lambda p, dim: _cf_generalized_geometric(p["Y"], p["M"]),
            norm_eq="E27", dist_eq="E27",
            literal=lambda p, dim: (ggs_ladder(p["Y"], p["M"], dim), p["M"]),
            literal_eq="E28",
            printed_F=lambda p, n: (p["M"] - n + 1) ** 4 / (p["Y"] * n),
            grid=({"Y": _GGS_Y, "M": 6}, 14),
        ),
        FamilySpec(
            "coherent", "cs", ("alpha",), "general",
            build=lambda p, dim: coherent(p["alpha"], dim),
            closed_form=lambda p, dim: coherent_coeffs(p["alpha"]),
            norm_eq="E46", dist_eq="E46",
            literal=lambda p, dim: (annihilation(dim), p["alpha"]),
            literal_eq="E55",
            grid=({"alpha": 1.0 + 0.0j}, 64),
        ),
        FamilySpec(
            "geometric", "gs", ("eta",), "general",
            build=lambda p, dim: geometric(p["eta"], dim),
            closed_form=lambda p, dim: geometric_coeffs(p["eta"]),
            norm_eq="E56", dist_eq="E56",
            pair=(
                "geometric-pair-relation", "E57", lambda p, dim: gs_pair(p["eta"], dim)
            ),
            literal=lambda p, dim: (gs_lowering(dim), math.sqrt(1 - p["eta"])),
            literal_eq="E58",
            grid=({"eta": 0.4}, 128),
        ),
        FamilySpec(
            "negative_binomial", "nbs", ("eta", "M"), "general",
            build=lambda p, dim: negative_binomial(p["eta"], p["M"], dim),
            closed_form=lambda p, dim: _cf_negative_binomial(p["eta"], p["M"]),
            norm_eq="E59", dist_eq="E59",
            literal=lambda p, dim: (nbs_lowering(p["M"], dim), math.sqrt(p["eta"])),
            literal_eq="E60",
            grid=({"eta": 0.3, "M": 3}, 256),
        ),
        FamilySpec(
            "new_negative_binomial", "nnbs", ("eta", "M"), "shifted",
            build=lambda p, dim: new_negative_binomial(p["eta"], p["M"], dim),
            closed_form=lambda p, dim: _cf_nnbs(p["eta"], p["M"]),
            norm_eq="E30 E50", dist_eq="E50",
            literal=lambda p, dim: (
                nnbs_lowering(p["M"], dim),
                math.sqrt(1 - p["eta"]),
            ),
            literal_eq="E51",
            grid=({"eta": 0.3, "M": 2}, 256),
        ),
        FamilySpec(
            "kerr", "ks", ("alpha", "theta"), "general",
            build=lambda p, dim: kerr(p["alpha"], p["theta"], dim),
            closed_form=lambda p, dim: kerr_coeffs(p["alpha"], p["theta"]),
            norm_eq="E61", dist_eq="E61",
            literal=lambda p, dim: (kerr_lowering(p["theta"], dim), p["alpha"]),
            literal_eq="E49 E62",
            printed_literal=lambda p, dim: kerr_lowering(p["theta"], dim, variant="printed"),
            grid=({"alpha": 1.0 + 0.0j, "theta": 0.3}, 64),
        ),
        FamilySpec(
            "svs", None, ("r", "theta"), "two-photon", sector=0,
            build=lambda p, dim: squeezed_vacuum(p["r"], p["theta"], dim),
            closed_form=lambda p, dim: svs_sector_coeffs(p["r"], p["theta"], dim),
            norm_eq="E68", dist_eq="E68",
            literal=lambda p, dim: (svs_lowering(dim), _squeeze_eigenvalue(p)),
            literal_eq="E76",
            disentangle=True,
            grid=({"r": 0.8, "theta": 0.5}, 128),
        ),
        FamilySpec(
            "sfes", None, ("r", "theta"), "two-photon", sector=1,
            build=lambda p, dim: squeezed_first_excited(p["r"], p["theta"], dim),
            closed_form=lambda p, dim: sfes_sector_coeffs(p["r"], p["theta"], dim),
            norm_eq="E79 E80", dist_eq="E79 E80",
            literal=lambda p, dim: (sfes_lowering(dim), _squeeze_eigenvalue(p)),
            literal_eq="E81",
            disentangle=True,
            grid=({"r": 0.8, "theta": 0.5}, 128),
        ),
        FamilySpec(
            "ecs", None, ("alpha",), "two-photon", sector=0,
            build=lambda p, dim: even_odd_coherent(p["alpha"], "even", dim),
            closed_form=lambda p, dim: ecs_sector_coeffs(p["alpha"]),
            norm_eq="E82", dist_eq="E82",
            literal=lambda p, dim: (pair_lowering(dim), complex(p["alpha"]) ** 2),
            literal_eq="E84",
            grid=({"alpha": 1.1 + 0.0j}, 128),
        ),
        FamilySpec(
            "ocs", None, ("alpha",), "two-photon", sector=1,
            build=lambda p, dim: even_odd_coherent(p["alpha"], "odd", dim),
            closed_form=lambda p, dim: ocs_sector_coeffs(p["alpha"]),
            norm_eq="E83", dist_eq="E83",
            literal=lambda p, dim: (pair_lowering(dim), complex(p["alpha"]) ** 2),
            literal_eq="E84",
            grid=({"alpha": 1.1 + 0.0j}, 128),
        ),
        FamilySpec(
            "pacs", None, ("alpha", "M"), "added",
            build=lambda p, dim: photon_add(coherent(p["alpha"], dim), p["M"]),
            closed_form=lambda p, dim: _cf_pacs(p["alpha"], p["M"], dim),
            norm_eq="E31 E32 E39", dist_eq="E39",
            base=lambda p: coherent_coeffs(complex(p["alpha"])),
            pair=(
                "added-coherent-relation",
                "E47",
                lambda p, dim: added_coherent_pair(complex(p["alpha"]), p["M"], dim),
            ),
            literal=lambda p, dim: (
                added_coherent_lowering(complex(p["alpha"]), p["M"], dim),
                complex(p["alpha"]),
            ),
            literal_eq="E48",
            grid=({"alpha": 1.0 + 0.0j, "M": 1}, 64),
        ),
        # the grid eigenvalue truncates the recursion, so the state is
        # exactly supported inside the window
        FamilySpec(
            "intermediate", None, ("eta", "alpha"), "general", optional=("f",),
            build=lambda p, dim: intermediate_nlcs(p["eta"], p["alpha"], dim, p.get("f")),
            closed_form=None,
            norm_eq="E63", dist_eq="E63",
            literal=lambda p, dim: (_intermediate_ladder(p, dim), p["alpha"]),
            literal_eq="E49 E63",
            grid=(
                {"eta": 0.5, "alpha": math.sqrt(0.5) * 4, "f": _grid_nonlinearity},
                16,
            ),
        ),
    )
}

FAMILIES: dict[str, tuple[str, ...]] = {
    name: spec.params for name, spec in FAMILY_SPECS.items()
}
CORE_FAMILIES: tuple[str, ...] = tuple(FAMILIES)[:15]
ACCEPTANCE_GRID: tuple[tuple[str, Params, int], ...] = tuple(
    (name, *FAMILY_SPECS[name].grid) for name in CORE_FAMILIES
)
EXTENDED_GRID: tuple[tuple[str, Params, int], ...] = tuple(
    (name, *spec.grid) for name, spec in FAMILY_SPECS.items()
)


def _spec(family: str) -> FamilySpec:
    try:
        return FAMILY_SPECS[family]
    except KeyError:
        raise ParameterError(f"unknown family '{family}'") from None


def _require(spec: FamilySpec, params: Params) -> Params:
    p = dict(params)
    for key, value in p.items():
        if key not in spec.params and key not in spec.optional:
            raise ParameterError(f"unknown parameter '{key}' for family '{spec.name}'")
        # ints are always finite; callables such as intermediate's f are
        # not checked
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise ParameterError(f"{key} must be finite")
    for key in spec.params:
        if p.get(key) is None:
            raise ParameterError(f"family '{spec.name}' requires parameter '{key}'")
    return p


def _echo_params(family: str, p: Params) -> Params:
    echo: Params = {}
    for k, v in p.items():
        if isinstance(v, complex):
            echo[k] = format_complex(v)
        elif callable(v):
            echo[k] = getattr(v, "label", getattr(v, "__name__", "callable"))
        else:
            echo[k] = v
    spec = FAMILY_SPECS.get(family)
    if spec is not None and spec.echo is not None:
        echo.update(spec.echo(p))
    return echo


def _int_counts(p: Params) -> Params:
    # p once a route has taken its counts M and m: an integral float reads as its int
    return {k: int(v) if k in ("M", "m") else v for k, v in p.items()}


# --- entry points to a family's constructor and closed form ---


def build_state(family: str, params: Params, dim: int) -> FockState:
    """Construct the named family member; the entry point the CLI uses."""
    spec = _spec(family)
    return spec.build(_require(spec, params), dim)


def closed_form_coeffs(family: str, params: Params, dim: int) -> Coeffs | None:
    """Coefficient route independent of the constructors' recurrences: a
    closedform.Coeffs.

    Two-photon families index the sector basis.  The intermediate family
    has no closed form (its coefficients are the recursion output), so it
    returns None.
    """
    spec = _spec(family)
    p = _require(spec, params)
    if spec.closed_form is None:
        return None
    return spec.closed_form(p, dim)


def _closed_form_diag(route: Coeffs, table: np.ndarray) -> _ArrayDiag:
    """The closed form as the builders read it, 0.0 off its support: a
    gather from its table on [0, n), and C(n), the one index past the
    table that a builder reads, evaluated at its first read and kept.  A
    read past C(n) raises.  The route itself, also read by array, would
    evaluate its formula at every read; and C(n) stays lazy so that a
    builder's refusal met before it (an F past the float range) raises."""
    n, past = len(table), []

    def values(ns: np.ndarray) -> np.ndarray:
        if ns[-1] < n:
            return table[ns]
        if ns[-1] > n:
            raise IndexError(f"C({ns[-1]}) is past the table's end, C({n})")
        if not past:
            past.append(np.array([route(n)]))
        return np.concatenate((table[ns[:-1]], past[0]))

    return _array_diag(values, lo=route.lo, hi=route.hi + 1)


# --- the suite inputs' cache ---

# Suite inputs whose operator data, rows and errata values _suite_input
# keeps; one pass over EXTENDED_GRID and the errata table reads 25 of them.
SUITE_CACHE_SIZE = 32


class _SuiteInput:
    """The operator data of one suite input (family, params, dim), each
    part made on its first read and kept: the state, on the full space and
    on the family's basis, the coefficients C on the basis (the closed
    form's table, else the state's amplitudes) with the closed-form
    structure function formed from them, the deformed-oscillator triple
    on the whole basis (which keeps its battery's rows), for a squeezed
    family the two operator routes to S(xi)|j>, rows, every check of the
    suite free of any tolerance, and the errata table's operator values
    on this input: a printed-F family's printed_F_rows, and the residuals
    of the printed ladder (printed_literal_residual) and of sfes's literal
    relation on the squeezed vacuum (svs_literal_residual).  Their arrays
    are read-only.  Where the family has a closed form, no part but the
    two states builds the state.  A part whose builder refuses is not
    kept, so the next read runs the builder again.  One slot keeps the
    last report made from this input (report), with the JSON and CSV
    texts it keeps once written."""

    def __init__(self, spec: FamilySpec, params: Params, dim: int) -> None:
        self.spec, self._params, self._dim = spec, params, dim
        self.kind = _KINDS[spec.kind]
        self._kept: VerificationReport | None = None

    def report(self, family: str, p: Params, tol: Tolerances) -> VerificationReport:
        """The suite's report at tol, echoing p, which then takes the slot:
        the kept report itself where the call repeats it exactly (equal
        echo, and tolerances equal in value and in type, since an int and
        a float of one value write different heads); its checks in a new
        report where only the echo or the tolerances' types differ; else
        the rows judged at tol."""
        kept = self._kept
        if kept is not None and kept.tolerances == tol:
            checks = kept.checks
        else:
            checks = tuple(_judge(row, tol) for row in self.rows)
        # read after the rows, so that a count the constructor refuses is
        # refused by it, before _int_counts reads it
        echo = _echo_params(family, _int_counts(p))
        # one entry is one family at one dim, so the head differs only by
        # the echo or by the tolerances' types
        if (
            kept is not None
            and checks is kept.checks
            and kept.params == echo
            and list(map(type, _tolerance_fields(kept.tolerances)))
            == list(map(type, _tolerance_fields(tol)))
        ):
            return kept
        self._kept = VerificationReport(family, echo, self.dim, tol, checks)
        return self._kept

    @functools.cached_property
    def state(self) -> FockState:
        return build_state(self.spec.name, self._params, self._dim)

    @functools.cached_property
    def dim(self) -> int:
        return _check_dim(self._dim)

    @functools.cached_property
    def p(self) -> Params:
        # the counts as ints, read after the route or the state checked them
        return _int_counts(self._params)

    @functools.cached_property
    def basis(self) -> int:
        """The size of the family's own basis: the sector's for two-photon."""
        j = self.spec.sector
        return self.dim if j is None else sector_dim(self.dim, j)

    @functools.cached_property
    def state_on_basis(self) -> FockState:
        """The state on the family's basis: its sector's for two-photon."""
        return self.state if self.spec.sector is None else sector_embed(self.state)

    @functools.cached_property
    def _route(self) -> Coeffs | None:
        # the raw params, so the route checks each count p takes as an int
        return closed_form_coeffs(self.spec.name, self._params, self.dim)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """C on the basis, read-only: the closed form's table, or the
        state's amplitudes where the family has none."""
        route = self._route
        if route is None:
            return self.state.amplitudes
        table = route.values(np.arange(self.basis))
        table.flags.writeable = False
        return table

    @functools.cached_property
    def coeffs(self) -> _ArrayDiag | np.ndarray:
        """C(n) as the builders read it."""
        route = self._route
        return self.table if route is None else _closed_form_diag(route, self.table)

    @functools.cached_property
    def base(self) -> _ArrayDiag:
        """The coefficients of the state before photon addition."""
        route = self.spec.base(self.p)
        return _closed_form_diag(route, route.values(np.arange(self.dim)))

    @functools.cached_property
    def F(self) -> np.ndarray:
        """The kind's closed-form structure function on the basis, formed
        from the table; read-only."""
        F = self.kind.F(self.table, self.p)
        F.flags.writeable = False
        return F

    @functools.cached_property
    def squeezing_routes(self) -> tuple[np.ndarray, np.ndarray]:
        """S(xi)|j> by the exponential and the product routes on the
        sector (twophoton.squeezing_routes), read-only."""
        rep = su11(self.spec.sector, self.basis)
        routes = squeezing_routes(self.p["r"], self.p["theta"], rep)
        for v in routes:
            v.flags.writeable = False
        return routes

    @functools.cached_property
    def triple(self) -> GdoTriple:
        """The deformed-oscillator triple on the family's whole basis."""
        return self.kind.triple(self.coeffs, self.p, self.spec.sector, self.basis)

    @functools.cached_property
    def printed_F_rows(self) -> tuple[Params, ...]:
        """derived_vs_printed_rows' rows, F read from this input: the
        grid's dim exceeds M, so F on the basis covers [0, M]."""
        return tuple(_printed_rows(self.spec, self.p, self.F[: self.p["M"] + 1]))

    @functools.cached_property
    def printed_literal_residual(self) -> float:
        """FamilySpec.printed_literal's residual on the state, at the
        literal relation's eigenvalue (E21, E62)."""
        _, eigenvalue = self.spec.literal(self.p, self.dim)
        printed = self.spec.printed_literal(self.p, self.dim)
        return _eigen_row("", "", printed, self.state, eigenvalue)[2]

    @functools.cached_property
    def svs_literal_residual(self) -> float:
        """The literal relation's residual on the squeezed vacuum of these
        parameters, the state E81's printed label names."""
        op, eigenvalue = self.spec.literal(self.p, self.dim)
        svs = _suite_input(FAMILY_SPECS["svs"], self._params, self._dim).state
        return _eigen_row("", "", op, svs, eigenvalue)[2]

    @property
    def literal_residual(self) -> float:
        """The residual of the suite's own literal eigen row."""
        return next(row[2] for row in self.rows if row[0] == self.kind.literal)

    @functools.cached_property
    def rows(self) -> tuple[_Row, ...]:
        """Every check of the suite as a row, in one order for every kind:
        normalization; the distribution against the closed form, where
        there is one, on the family's basis; the kind's ladder checks; the
        family's pair relation; the literal eigen check; the kind's step
        maps; the deformed-oscillator battery, then the operational F
        against its closed form at full width; and the disentangled
        squeezing operator for S(xi)|j>."""
        spec, kind, s = self.spec, self.kind, self.state
        p, dim = self.p, self.dim
        rows = [_norm_row(s, spec.norm_eq)]
        if spec.closed_form is not None:
            rows.append(_distribution_row(self.state_on_basis, self.table, spec.dist_eq))
        rows += kind.ladders(self)
        if spec.pair is not None:
            pair_name, equation, pair = spec.pair
            rows.append(_relation_row(pair_name, equation, *pair(p, dim), s))
        op, eigenvalue = spec.literal(p, dim)
        rows.append(_eigen_row(kind.literal, spec.literal_eq, op, s, eigenvalue))
        if kind.steps is not None:
            rows += kind.steps(self)
        # the F row is computed first, so that a closed form past the float
        # range raises before the battery multiplies its values
        closed_form = _structure_closed_form_row(self.triple, self, kind.F_eq)
        rows += gdo_axiom_rows(self.triple, kind.battery[spec.sector or 0])
        rows.append(closed_form)
        if spec.disentangle:  # s is S(xi)|j>, the oracle's closed form
            rows += disentangling_rows(s, self.squeezing_routes)
        return tuple(rows)


class _Tabulated(_ArrayDiag):
    """intermediate's f as the suite reads it: a read-only table of its
    values, of which a read past the end raises.  Two tables of the same
    bits compare equal, so the suite inputs' cache keys f by its values."""

    __slots__ = ("bits",)

    def __init__(self, table: np.ndarray) -> None:
        n = len(table)

        def values(ns: np.ndarray) -> np.ndarray:
            if len(ns) and ns[-1] >= n:
                raise IndexError(f"f({ns[-1]}) is past the table's end, f({n - 1})")
            return table[ns]

        super().__init__(values)
        self.bits = table.tobytes()

    def __eq__(self, other) -> bool:
        return type(other) is _Tabulated and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)


def _tabulated(f: Callable[[int], complex], dim) -> _Tabulated | None:
    """f read once, in index order, on [0, dim + NLCS_WINDOW - 1): the
    constructor's recursion window, which holds every index the suite
    reads.  None where a read raises or meets a zero (or dim is refused),
    so that the constructor meets the refusal itself."""
    values = []
    try:
        for n in range(_check_dim(dim) + NLCS_WINDOW - 1):
            values.append(complex(f(n)))
            if values[-1] == 0:
                return None
    except Exception:
        return None
    table = np.array(values)
    table.flags.writeable = False
    return _Tabulated(table)


def _exact(value) -> tuple | None:
    """value's type and bits, which tell apart equal values that print or
    compute differently (0.0 and -0.0, 4 and 4.0); None for any other
    type."""
    kind = type(value)
    if kind in (float, np.float64):
        return kind, float.hex(value)
    if kind in (complex, np.complex128):
        return kind, float.hex(value.real), float.hex(value.imag)
    if kind in (int, bool):
        return kind, value
    if kind is _Tabulated:
        return kind, value.bits
    return None


def _suite_input(spec: FamilySpec, params: Params, dim: int) -> _SuiteInput:
    """The input's cached data, keyed on its parameters in name order, a
    callable f by its values; fresh data when a value has no exact key."""
    exact_dim = _exact(dim)
    if exact_dim is None:
        return _SuiteInput(spec, params, dim)
    items = []
    for name in sorted(params):
        value = params[name]
        if name in spec.optional and callable(value):
            value = _tabulated(value, dim)
        exact = _exact(value)
        if exact is None:
            return _SuiteInput(spec, params, dim)
        items.append((name, exact, value))
    return _cached_input(spec.name, exact_dim, dim, tuple(items))


@functools.lru_cache(maxsize=SUITE_CACHE_SIZE)
def _cached_input(family: str, exact_dim: tuple, dim: int, items: tuple) -> _SuiteInput:
    # the key compares each exact form before its value, which it carries
    return _SuiteInput(FAMILY_SPECS[family], {k: v for k, _, v in items}, dim)


def build_gdo(family: str, params: Params, dim: int) -> GdoTriple:
    """The family's deformed-oscillator triple on its own basis at the
    given truncation (the sector's for two-photon), from the closed form
    where the family has one, so also where the state does not fit."""
    spec = _spec(family)
    data = _SuiteInput(spec, _require(spec, params), dim)
    return data.triple


# --- check helpers ---


def _norm_row(s: FockState, equation: str) -> _Row:
    residual = abs(1.0 - float(np.linalg.norm(s.amplitudes)))
    return "state-normalization", equation, residual, s.leak, "oracle", (
        f"norm_constant={s.norm_constant!r}"
    )


def _distribution_row(s: FockState, table: np.ndarray, equation: str) -> _Row:
    moduli = np.abs(np.asarray(table, dtype=complex))
    # scaled by the power of two of the largest modulus, which is exact,
    # so that no square leaves the float range
    expected = np.ldexp(moduli, -np.frexp(moduli.max())[1]) ** 2
    expected /= expected.sum()
    residual = float(np.abs(expected - np.abs(s.amplitudes) ** 2).max())
    return "distribution-crosscheck", equation, residual, 0.0, "oracle", (
        "|amplitude|^2 against the closed-form route, window-normalized"
    )


def _state_map_row(name: str, equation: str, image: FockState, target: FockState) -> _Row:
    residual = float(np.linalg.norm(image.amplitudes - target.amplitudes))
    return name, equation, residual, image.leak, "residual", (
        f"image compared to the constructed target {target.label}"
    )


def _structure_closed_form_row(t: GdoTriple, data: _SuiteInput, equation: str) -> _Row:
    values = t.structure_table
    wanted = data.F
    # F grows with n for the infinite families, so the comparison is
    # scaled; for F of order one this reduces to the absolute residual
    residual = float((np.abs(values - wanted) / np.maximum(1.0, np.abs(wanted))).max())
    return "structure-fn-closed-form", equation, residual, 0.0, "oracle", (
        "operational F against the closed coefficient-ratio form, scaled by max(1, F)"
    )


# --- what each kind adds to the suite ---


def _finite_ladders(data: _SuiteInput) -> list[_Row]:
    M, dim = data.p["M"], data.dim
    generic = add(number_op(dim), ladder_lowering_finite(data.coeffs, M, dim))
    return [_eigen_row("ladder-eigen-generic", "E9 E10 E13", generic, data.state, M)]


def _shifted_ladders(data: _SuiteInput) -> list[_Row]:
    M, dim, cf, s = data.p["M"], data.dim, data.coeffs, data.state
    generic = sub(number_op(dim), ladder_raising_shifted(cf, M, dim))
    lowered = shifted_lowered_pair(cf, M, dim)
    return [
        _eigen_row("ladder-eigen-generic", "E37 E42 E45", generic, s, M),
        _relation_row("shifted-lowered-relation", "E38", *lowered, s),
    ]


def _added_ladders(data: _SuiteInput) -> list[_Row]:
    M, dim, base, s = data.p["M"], data.dim, data.base, data.state
    raising, lowered = added_raising_ladder(base, M, dim), added_lowered_pair(base, M, dim)
    return [
        _eigen_row("ladder-eigen-raising", "E40", raising, s, M),
        _relation_row("added-lowered-relation", "E41", *lowered, s),
    ]


def _general_ladders(data: _SuiteInput) -> list[_Row]:
    raising_form, lowering_form = ladder_general(data.coeffs, data.dim)
    return [
        _eigen_row("ladder-raising-form", "E52", raising_form, data.state, 0.0),
        _eigen_row("ladder-lowering-form", "E53", lowering_form, data.state, 0.0),
    ]


def _sector_ladders(data: _SuiteInput) -> list[_Row]:
    j, sec = data.spec.sector, data.state_on_basis
    rep = su11(j, sec.dim)
    battery = rep.axiom_rows + rep.embedding_rows
    up, down = two_photon_ladder(data.coeffs, j, sec.dim)
    up_eq, down_eq = (("E69 E72", "E74"), ("E69 E73", "E75"))[j]
    return [
        *battery,
        _eigen_row("sector-raising-form", up_eq, up, sec, 0.0),
        # the lowering form references one amplitude beyond the truncation
        # at the top sector index, so that component is excluded
        _eigen_row("sector-lowering-form", down_eq, down, sec, 0.0, edge_exclude=1),
    ]


def _step_down(data: _SuiteInput) -> list[_Row]:
    # the (M-1)-member keeps x fixed; the M = 0 member (the vacuum) has
    # none, so its suite has no step-down checks
    spec, p, s, M = data.spec, data.p, data.state, data.p["M"]
    if M == 0:
        return []
    down = _suite_input(spec, spec.down(p) if spec.down else dict(p, M=M - 1), data.dim)
    target = down.state
    f_image = apply(step_down_f(data.table, down.table), s)
    g_image = apply(step_down_g(data.table, down.table, M), s)
    return [
        _state_map_row("step-down-f", "E3 E4 E5", f_image, target),
        _state_map_row("step-down-g", "E6 E7", g_image, target),
        _images_row("step-down-equality", "E8", f_image, g_image),
    ]


def _step_up(data: _SuiteInput) -> list[_Row]:
    s, M = data.state, data.p["M"]
    up = _suite_input(data.spec, dict(data.p, M=M + 1), data.dim)
    try:
        target = up.state
    except TailMassError as err:  # the state fits, its (M+1)-member does not
        raise TailMassError(f"the step-up checks need the M+1 member at this dim: {err}") from None
    f_image = apply(step_up_f(data.table, up.table), s)
    g_image = apply(step_up_g(data.table, up.table, M), s)
    return [
        _state_map_row("step-up-f", "E33 E35", f_image, target),
        _state_map_row("step-up-g", "E34 E36", g_image, target),
    ]


_Rows = Callable[[_SuiteInput], list[_Row]]


@dataclass(frozen=True)
class _Kind:
    """What one kind of family adds to the suite, and its triple."""

    triple: Callable[..., GdoTriple]  # (coeffs, p, sector, dim of the basis)
    F: Callable[[np.ndarray, Params], np.ndarray]  # closed-form F of (table, p)
    ladders: _Rows
    literal: str  # the literal eigen check's name
    battery: tuple[str, ...]  # the axiom battery's equation, one per sector
    F_eq: str
    steps: _Rows | None = None  # the maps to a neighboring member


_KINDS: dict[str, _Kind] = {
    "finite": _Kind(
        triple=lambda c, p, j, dim: finite_gdo(c, p["M"], dim),
        F=lambda table, p: finite_F(table, p["M"]),
        ladders=_finite_ladders, literal="ladder-eigen-literal",
        battery=("E1 E11",), F_eq="E12", steps=_step_down,
    ),
    "shifted": _Kind(
        triple=lambda c, p, j, dim: shifted_gdo(c, p["M"], dim),
        F=lambda table, p: raising_F(table, p["M"]),
        ladders=_shifted_ladders, literal="ladder-eigen-literal",
        battery=("E1 E43",), F_eq="E44", steps=_step_up,
    ),
    "added": _Kind(
        triple=lambda c, p, j, dim: shifted_gdo(c, p["M"], dim),
        F=lambda table, p: raising_F(table, p["M"]),
        ladders=_added_ladders, literal="ladder-eigen-lowering",
        battery=("E1 E43",), F_eq="E44",
    ),
    "general": _Kind(
        triple=lambda c, p, j, dim: general_gdo(c, dim),
        F=lambda table, p: raising_F(table, 0),
        ladders=_general_ladders, literal="ladder-eigen-literal",
        battery=("E1 E54",), F_eq="E54",
    ),
    "two-photon": _Kind(
        triple=lambda c, p, j, dim: two_photon_gdo(c, j, dim),
        F=lambda table, p: raising_F(table, 0),
        ladders=_sector_ladders, literal="pair-lowering-eigen",
        battery=("E1 E85", "E1 E86"), F_eq="E87",
    ),
}


def run_family_suite(
    family: str,
    params: Params,
    dim: int,
    tolerances: Tolerances | None = None,
) -> VerificationReport:
    """All of the family's checks at one parameter point, in the order
    _SuiteInput.rows gives: the input's rows, cached or fresh, judged at
    the call's tolerances (_SuiteInput.report).  A call that repeats the
    last one on a cached input exactly gets the report that call got,
    whose JSON and CSV texts are written once; a call at equal
    tolerances gets its checks in a new report.  The report echoes the
    call's own parameters and tolerances, so a callable f names its own
    label."""
    spec = _spec(family)
    p = _require(spec, params)
    return _suite_input(spec, p, dim).report(family, p, tolerances or DEFAULT_TOLERANCES)


def run_grid(
    grid=None, tolerances: Tolerances | None = None
) -> list[VerificationReport]:
    return [
        run_family_suite(family, params, dim, tolerances)
        for family, params, dim in (grid if grid is not None else ACCEPTANCE_GRID)
    ]


def grid_manifest() -> list[Params]:
    """The canonical grid in the batch manifest schema (JSON-ready).

    Unlike report headers, manifest entries hold exactly the parameters a
    suite accepts; complex values become a+bi text.
    """
    return [
        {
            "family": family,
            "params": {
                k: format_complex(v) if isinstance(v, complex) else v
                for k, v in params.items()
            },
            "dim": dim,
        }
        for family, params, dim in ACCEPTANCE_GRID
    ]


# --- derived vs printed comparison ---


def derived_vs_printed_rows(family: str, params: Params, dim: int) -> list[Params]:
    """Tabulate F(n) from coefficient ratios against the printed closed
    form on n in [0, M].  A vanishing printed denominator is recorded as
    an infinite magnitude."""
    spec = FAMILY_SPECS.get(family)
    if spec is None or spec.printed_F is None:
        raise ParameterError(f"no printed structure function for '{family}'")
    p = _require(spec, params)
    route = closed_form_coeffs(family, p, _check_dim(dim))
    p = _int_counts(p)
    return _printed_rows(spec, p, finite_F(route.values(np.arange(p["M"] + 1)), p["M"]))


def _printed_rows(spec: FamilySpec, p: Params, derived_F: np.ndarray) -> list[Params]:
    """The rows of derived_F, F on [0, M], against spec's printed F."""
    rows = []
    for n, derived in enumerate(derived_F.tolist()):
        try:
            printed = complex(spec.printed_F(p, n))
        except ZeroDivisionError:
            printed = complex(math.inf, 0.0)
        finite = math.isfinite(printed.real) and math.isfinite(printed.imag)
        match = bool(
            finite and abs(printed - derived) <= 1e-9 * max(1.0, abs(derived))
        )
        rows.append(
            {
                "n": n,
                "derived": float(derived),
                "printed_re": float(printed.real),
                "printed_im": float(printed.imag),
                "match": match,
            }
        )
    return rows


def _note(equation: str, family: str, text: str, **values) -> Params:
    return {"equation": equation, "family": family, "text": text, **values}


def errata_table() -> Params:
    """Every place the printed identities disagree with the derived ones,
    tabulated at the registry's grid parameters.  Reported, not corrected:
    the constructors and ladder builders use the derived forms, and this
    table is the record of what the printed source says instead.  Its
    operator values are kept on the suite inputs (printed_F_rows, the
    literal rows, printed_literal_residual and svs_literal_residual), so a
    warm call applies no operator; each call returns fresh dicts."""
    families = []
    for family, spec in FAMILY_SPECS.items():
        if spec.printed_F is None:
            continue
        params, dim = spec.grid
        if family == "pegg_barnett_phase":
            # the registry's theta0 = 0 puts theta_m at pi/2, where the
            # printed phase factor degenerates to -1; a generic offset
            # keeps the non-real printed values visible
            params = dict(params, theta0=0.3)
        data = _suite_input(spec, params, dim)
        families.append(
            {
                "family": family,
                "equation": "E12 E29",
                "params": _echo_params(family, params),
                "M": params["M"],
                "rows": [dict(row) for row in data.printed_F_rows],
            }
        )

    polya, rbs, kerr, sfes = (
        _suite_input(FAMILY_SPECS[family], *FAMILY_SPECS[family].grid)
        for family in ("polya", "reciprocal_binomial", "kerr", "sfes")
    )
    M = rbs.p["M"]
    inv_sum = sum(1.0 / math.comb(M, k) for k in range(M + 1))
    notes = [
        _note(
            "E21", "polya",
            "the printed ladder numerator offset (M+N-1)gamma fails the "
            "eigenvalue relation; it holds with (M-N-1)gamma",
            residual_printed=polya.printed_literal_residual,
            residual_derived=polya.literal_residual,
        ),
        _note(
            "E22", "reciprocal_binomial",
            "the printed prefactor 1/sum C(M,n)^-1 is the square of the "
            "normalizing constant; constructors renormalize numerically "
            "and record the constant",
            printed_prefactor=1.0 / inv_sum,
            printed_prefactor_norm=1.0 / inv_sum * math.sqrt(inv_sum),
            recorded_constant=float(rbs.state.norm_constant),
        ),
        _note(
            "E62", "kerr",
            "the printed lowering identity carries exp(-2i N theta); the "
            "relation holds with exp(+2i theta N)",
            residual_printed=kerr.printed_literal_residual,
            residual_derived=kerr.literal_residual,
        ),
        _note(
            "E81", "sfes",
            "the printed relation names the squeezed vacuum on its "
            "left-hand side; it holds on the squeezed first excited state",
            residual_labeled_state=sfes.svs_literal_residual,
            residual_intended_state=sfes.literal_residual,
        ),
    ]

    return {
        "schema": "errata-1",
        "derived_form": "F(n) = (M-n+1)^2 |C(n-1)/C(n)|^2 with F(0) = 0",
        "families": families,
        "notes": notes,
    }
