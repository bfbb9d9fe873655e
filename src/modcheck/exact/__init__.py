"""Exact-arithmetic backend: the localization module U = R/L and the
infinite-module checks that the finite backend cannot express."""

from .counterexample import (
    CaseReport,
    FiepFailureReport,
    GeneratedSubmodule,
    case_runners,
    default_x_submodule,
    default_xs,
    f_of,
    fiep_failure_report,
    representing_r,
    verify_direct_case,
    verify_graph_decomposition,
    verify_partial_case,
)
from .endos import (
    MultEndo,
    PartialHom,
    UnitCertificate,
    endo_is_unit,
    nonlocal_witness,
)
from .pruefer import PrueferElement
from .rationals import (
    as_fraction,
    decompose_x,
    in_localization,
    valuation,
    xgcd,
)
from .ring import (
    RElement,
    SAMPLE_SEED,
    SAMPLE_SIZE,
    UElement,
    sample_relements,
    sample_uelements,
)
from .zext import RouteReport, brute_route_scan, z_extension_routes

__all__ = [
    "CaseReport",
    "FiepFailureReport",
    "GeneratedSubmodule",
    "MultEndo",
    "PartialHom",
    "PrueferElement",
    "RElement",
    "RouteReport",
    "SAMPLE_SEED",
    "SAMPLE_SIZE",
    "UElement",
    "UnitCertificate",
    "as_fraction",
    "brute_route_scan",
    "case_runners",
    "decompose_x",
    "default_x_submodule",
    "default_xs",
    "endo_is_unit",
    "f_of",
    "fiep_failure_report",
    "in_localization",
    "nonlocal_witness",
    "representing_r",
    "sample_relements",
    "sample_uelements",
    "valuation",
    "verify_direct_case",
    "verify_graph_decomposition",
    "verify_partial_case",
    "xgcd",
    "z_extension_routes",
]
