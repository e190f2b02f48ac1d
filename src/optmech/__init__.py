"""Revenue-optimal two-good menus for one buyer on rectangular supports."""

from .geometry import HalfPlane, Polygon, best_response_regions, clip, rect_polygon
from .linear import (
    C_MAX,
    GenShuffleAlpha,
    LinearDensityInstance,
    LinearSolution,
    NoConvergence,
    OutOfRange,
    linear_revenue,
    solve_linear,
)
from .measures import MuBar, ShuffleAlpha, ShuffleBeta, ShuffleBetaE, alpha_params, beta_p_of
from .mechanism import build_mechanism, expected_revenue, menu_from_structure, utility
from .oracle import (
    CertificateReport,
    brute_force_menu_search,
    certificate_check,
    local_max_check,
    price_gradient,
)
from .solver import (
    NoRoot,
    PhaseRegion,
    classify,
    critical_constants,
    solve,
)
from .types import (
    NULL_ITEM,
    Mechanism,
    MenuItem,
    Rectangle,
    SolveParams,
    StructureKind,
    validate_rectangle,
)

__version__ = "0.1.0"

__all__ = [
    "C_MAX",
    "NULL_ITEM",
    "CertificateReport",
    "GenShuffleAlpha",
    "HalfPlane",
    "LinearDensityInstance",
    "LinearSolution",
    "Mechanism",
    "MenuItem",
    "MuBar",
    "NoConvergence",
    "NoRoot",
    "OutOfRange",
    "PhaseRegion",
    "Polygon",
    "Rectangle",
    "ShuffleAlpha",
    "ShuffleBeta",
    "ShuffleBetaE",
    "SolveParams",
    "StructureKind",
    "alpha_params",
    "best_response_regions",
    "beta_p_of",
    "brute_force_menu_search",
    "build_mechanism",
    "certificate_check",
    "classify",
    "clip",
    "critical_constants",
    "expected_revenue",
    "linear_revenue",
    "local_max_check",
    "menu_from_structure",
    "price_gradient",
    "rect_polygon",
    "solve",
    "solve_linear",
    "utility",
    "validate_rectangle",
    "__version__",
]
