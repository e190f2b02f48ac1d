"""Revenue-optimal two-good menus for one buyer on rectangular supports."""

from .geometry import best_response_regions
from .linear import (
    C_MAX,
    LinearSolution,
    NoConvergence,
    OutOfRange,
    linear_revenue,
    solve_linear,
)
from .measures import MuBar
from .mechanism import build_mechanism, expected_revenue
from .oracle import CertificateReport, brute_force_menu_search, certificate_check
from .solver import NoRoot, PhaseRegion, classify, solve
from .types import (
    NULL_ITEM,
    Mechanism,
    MenuItem,
    Rectangle,
    SolveParams,
    StructureKind,
)

__version__ = "0.1.0"

__all__ = [
    "C_MAX",
    "NULL_ITEM",
    "CertificateReport",
    "LinearSolution",
    "Mechanism",
    "MenuItem",
    "MuBar",
    "NoConvergence",
    "NoRoot",
    "OutOfRange",
    "PhaseRegion",
    "Rectangle",
    "SolveParams",
    "StructureKind",
    "best_response_regions",
    "brute_force_menu_search",
    "build_mechanism",
    "certificate_check",
    "classify",
    "expected_revenue",
    "linear_revenue",
    "solve",
    "solve_linear",
    "__version__",
]
