"""Independent numerical verification of solved mechanisms.

Three unrelated lines of evidence back every solve: a deterministic grid
search over the four-item menu family, measure certificates (region masses
and shuffle mass/moment conditions), and finite-difference stationarity of
the expected revenue in each free menu parameter.

The grid search scores a batch of menus at once.  Each item's
best-response region is the support box cut by three half-planes, and its
area is read off the seven boundary lines alone: with unit normals and
coordinates centred on the box, twice the area is the sum over the lines
of minus the line's offset times the length of the line that the other
six leave.  The five menu parameters lie on five broadcast axes, so each
line is built only over the parameters it uses, each pair term over the
union of its two lines' parameters, and only the sums span the whole
batch; no polygon vertices are ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import best_response_regions
from .measures import MuBar, Shuffle
from .mechanism import Menu, expected_revenue
from .types import NULL_ITEM, Mechanism, MenuItem, Rectangle, SolveParams, StructureKind

# Verification tolerances.  Region masses are judged relative to the support
# area; the total measure relative to its terms' total variation
# 6 + 2 (c1/b1 + c2/b2), at 1e-12 for zero offsets; the solver's closed-form
# revenue against the menu's polygon revenue relative to the revenue, with
# the same offset scaling; the rest are absolute on O(1) dimensionless
# quantities.
MU_D_TOL = 1e-12
REVENUE_TOL_REL = 1e-11
REGION_TOL_REL = 1e-9
SHUFFLE_TOL = 1e-10
FD_STEP = 1e-5
GRAD_TOL = 1e-3
HESS_TOL = 1e-4
GAP_SHORTFALL_REL = 5e-3  # grid may trail the solver by this much
GAP_EXCESS_REL = 1e-3  # grid may beat the solver by at most this much

_CHUNK = 65536  # element cap on one block of a1 values in the grid search
_REFINE_POINTS = 9  # per-dimension points per refinement round (spacing /4)


@dataclass(frozen=True)
class CertificateReport:
    """Certificate values for one solved mechanism.

    Masses are of the transformed boundary measure over the best-response
    regions (Z exclusion, A fractional good 1, B fractional good 2, W
    bundle); shuffle fields hold the largest deviation of any applicable
    shuffle's mass/moment condition; revenue_gap is the solver's
    closed-form revenue minus the polygon revenue of its menu; oracle_gap
    is solver revenue minus the best grid-search revenue when a search was
    run.
    """

    mu_D: float
    mu_Z: float
    mu_W: float
    mu_A: float
    mu_B: float
    shuffle_mass: float
    shuffle_moment: float
    foc_gradient_norm: float
    revenue_gap: float
    oracle_gap: float | None
    passed: bool
    failures: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Half-plane area kernel for the menu grid search
# ---------------------------------------------------------------------------

def _unit_form(
    al: np.ndarray, be: np.ndarray, ga: np.ndarray, cx: float, cy: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nx, ny, g) with nx*x + ny*y >= g the half-plane al*z1 + be*z2 >= ga,
    (nx, ny) a unit normal and (x, y) = (z1 - cx, z2 - cy).  (al, be) != 0;
    the inputs broadcast against each other."""
    norm = np.hypot(al, be)
    return al / norm, be / norm, (ga - al * cx - be * cy) / norm


def _twice_area(lines: list[tuple]) -> np.ndarray:
    """Twice the area of the polygon {nx*x + ny*y >= g for every line}, per row.

    Each line is (nx, ny, g) with (nx, ny) a unit normal; entries are floats
    or arrays that broadcast against each other, each pair term takes the
    union of its two lines' shapes, and the polygon is bounded in every
    row.  By the divergence theorem twice the area is sum_i (-g_i) * len_i,
    where len_i is the length of line i that the other lines leave.  Points
    of line i are g_i n_i + s (-ny_i, nx_i), so each line j not parallel to
    it bounds s from one side.  A parallel line is judged by comparing
    offsets, never by a computed residual, so of two coincident lines
    exactly one keeps its edge: the earlier one.
    """
    twice = 0.0
    for i, (nxi, nyi, gi) in enumerate(lines):
        lo, hi, cut = -np.inf, np.inf, False
        for j, (nxj, nyj, gj) in enumerate(lines):
            if j == i:
                continue
            cos = nxj * nxi + nyj * nyi
            den = nyj * nxi - nxj * nyi
            parallel = den == 0.0
            s = (gj - gi * cos) / np.where(parallel, 1.0, den)
            lo = np.maximum(lo, np.where(den > 0.0, s, -np.inf))
            hi = np.minimum(hi, np.where(den < 0.0, s, np.inf))
            level = gj >= gi if j < i else gj > gi
            cut = cut | (parallel & np.where(cos > 0.0, level, gj > -gi))
        twice = twice - gi * np.where(cut, 0.0, np.maximum(hi - lo, 0.0))
    return twice


def _family_revenue(
    rect: Rectangle,
    a1: np.ndarray, a2: np.ndarray,
    t1: np.ndarray, t2: np.ndarray, tb: np.ndarray,
) -> np.ndarray:
    """Exact expected revenue of each menu {null,(a1,1,t1),(1,a2,t2),(1,1,tb)}.

    The five parameters broadcast against each other; the search places
    each on its own axis, so the result spans the outer product of the
    five grids.  Item k's best-response region is the support box cut by
    the three half-planes (q_k - q_j).z >= t_k - t_j, j != k, and its area
    is _twice_area / 2 of the seven lines in unit-normal form, centred on
    the box.  A line spans only the parameters it uses: item 1 against the
    null item (a1, t1), against the bundle (a1, t1, tb), against item 2
    all but tb.  Identical allocations (q_k == q_j) give no line: the
    cheaper item wins and the lower index wins an exact price tie, so the
    loser's region is empty and the winner's constraint becomes a copy of
    the box's first edge, which the coincident-edge rule then drops.
    """
    q1s = (0.0, a1, 1.0, 1.0)
    q2s = (0.0, 1.0, a2, 1.0)
    ts = (0.0, t1, t2, tb)
    cx = rect.c1 + 0.5 * rect.b1
    cy = rect.c2 + 0.5 * rect.b2
    box = _unit_form(
        np.array([1.0, -1.0, 0.0, 0.0]),
        np.array([0.0, 0.0, 1.0, -1.0]),
        np.array([rect.c1, -rect.z1_max, rect.c2, -rect.z2_max]),
        cx, cy,
    )

    revenue = 0.0
    for k in (1, 2, 3):
        lines = list(zip(*box))
        empty = False
        for j in range(4):
            if j == k:
                continue
            al = q1s[k] - q1s[j]
            be = q2s[k] - q2s[j]
            ga = ts[k] - ts[j]
            same = (al == 0.0) & (be == 0.0)
            empty = empty | (same & (ga >= 0.0 if k > j else ga > 0.0))
            unit = _unit_form(np.where(same, 1.0, al), be, ga, cx, cy)
            lines.append(tuple(np.where(same, edge, v) for edge, v in zip(lines[0], unit)))
        area = np.maximum(0.5 * _twice_area(lines), 0.0)
        revenue = revenue + ts[k] * np.where(empty, 0.0, area)
    return revenue / rect.area


def brute_force_menu_search(
    rect: Rectangle, coarse: int = 16, refine_rounds: int = 4
) -> tuple[Menu, float]:
    """Best four-item menu found by a deterministic grid search.

    Parameters
    ----------
    rect : Rectangle
        Support of the valuation density.
    coarse : int
        Points per dimension of the initial grid over the five menu
        parameters (a1, a2, t1, t2, t_bundle); allocations range over
        [0, 1] and prices over [0, c1+c2+b1+b2].  Must be at least 8.
    refine_rounds : int
        Rounds of local refinement; each re-grids a window of one old cell
        around the incumbent, shrinking the spacing by a factor of 4.

    Returns
    -------
    (menu, revenue)
        The best menu found, with never-chosen items dropped, and its
        exact expected revenue.

    Notes
    -----
    Fully deterministic: ties keep the earliest grid point scanned, and the
    scan order is fixed, so repeated runs return identical menus.
    """
    if coarse < 8:
        raise ValueError(f"coarse must be at least 8, got {coarse}")
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be nonnegative, got {refine_rounds}")
    t_hi = rect.z1_max + rect.z2_max
    domains = ((0.0, 1.0), (0.0, 1.0), (0.0, t_hi), (0.0, t_hi), (0.0, t_hi))

    best_rev = -math.inf
    best: tuple[float, ...] | None = None

    def sweep(grids: list[np.ndarray]) -> None:
        nonlocal best_rev, best
        block = max(1, _CHUNK // math.prod(g.size for g in grids[1:]))
        for start in range(0, grids[0].size, block):
            part = [grids[0][start : start + block], *grids[1:]]
            axes = [g.reshape([-1 if d == i else 1 for d in range(5)]) for i, g in enumerate(part)]
            rev = _family_revenue(rect, *axes)
            k = int(np.argmax(rev))
            if rev.flat[k] > best_rev:
                best_rev = float(rev.flat[k])
                best = tuple(float(g[i]) for g, i in zip(part, np.unravel_index(k, rev.shape)))

    sweep([np.linspace(lo, hi, coarse) for lo, hi in domains])
    spacing = [(hi - lo) / (coarse - 1) for lo, hi in domains]
    for _ in range(refine_rounds):
        assert best is not None
        windows = [
            (max(dlo, center - h), min(dhi, center + h))
            for (dlo, dhi), h, center in zip(domains, spacing, best)
        ]
        sweep([np.linspace(lo, hi, _REFINE_POINTS) for lo, hi in windows])
        spacing = [(hi - lo) / (_REFINE_POINTS - 1) for lo, hi in windows]

    assert best is not None
    a1, a2, t1, t2, tb = best
    items = (
        NULL_ITEM,
        MenuItem(a1, 1.0, t1),
        MenuItem(1.0, a2, t2),
        MenuItem(1.0, 1.0, tb),
    )
    regions = best_response_regions(rect, items)
    menu = tuple(
        it
        for it, poly in zip(items, regions)
        if it.is_null or poly.area() > 1e-12 * rect.area
    )
    return menu, expected_revenue(menu, rect)


# ---------------------------------------------------------------------------
# Measure certificates
# ---------------------------------------------------------------------------

def _region_field(item: MenuItem) -> str | None:
    if item.is_null:
        return "Z"
    if item.q1 == 1.0 and item.q2 == 1.0:
        return "W"
    if item.q2 == 1.0:
        return "A"
    if item.q1 == 1.0:
        return "B"
    return None


def _region_masses(rect: Rectangle, menu: Menu) -> dict[str, float]:
    mu = MuBar(rect)
    masses = {"Z": 0.0, "A": 0.0, "B": 0.0, "W": 0.0}
    for item, poly in zip(menu, best_response_regions(rect, menu)):
        key = _region_field(item)
        if key is not None and not poly.is_empty:
            masses[key] += mu.mass(poly)
    return masses


def _top_shuffle(kind: StructureKind, q: SolveParams, rect: Rectangle) -> Shuffle:
    """Top-edge shuffle of the (a1, 1) lottery of kind A, B or D, or the
    two-step shuffle of kind E.

    A lottery ending inside the edge at m1 carries a ramp, which is zero
    for the flat price (a1 = 0) of a zero offset; a ramp-lottery
    structure's ramp goes flat past p_a1/a1 up to the bundle offset p.
    A flat ramp-lottery price, and kind E, has the two-step shuffle up to
    the midpoint (b1 - c1)/2.
    """
    if kind is StructureKind.A or kind is StructureKind.B:
        return Shuffle(rect, q.p_a1, q.a1, q.m1, q.m1)
    if kind is StructureKind.D and q.a1 > 0.0:
        return Shuffle(rect, q.p_a1, q.a1, min(q.p_a1 / q.a1, q.p), q.p)
    half = 0.5 * (rect.b1 - rect.c1)
    return Shuffle(rect, 0.0, 0.0, min(rect.b1 * rect.b2 / rect.c2, half), half)


def _shuffle_deviations(mech: Mechanism, rect: Rectangle) -> tuple[float, float, bool]:
    """Largest |mass| and moment deviation, and the sign-pattern flag, of
    the structure's shuffles.

    Kind A's good-2 lottery is certified on the swapped support, and kinds
    F/G/H as their mirrors B/D/E.  The two-step first moment of kind E
    certifies with any nonnegative value.
    """
    kind = mech.kind
    if kind is StructureKind.C:
        return 0.0, 0.0, True
    if kind not in (StructureKind.A, StructureKind.B, StructureKind.D, StructureKind.E):
        return _shuffle_deviations(mech.swapped(), rect.swapped())
    shuffles = [_top_shuffle(kind, mech.params, rect)]
    if kind is StructureKind.A:
        shuffles.append(_top_shuffle(kind, mech.params.swapped(), rect.swapped()))
    moment = (lambda m: max(0.0, -m)) if kind is StructureKind.E else abs
    return (
        max(abs(sh.mass()) for sh in shuffles),
        max(moment(sh.first_moment()) for sh in shuffles),
        all(sh.sign_pattern_ok() for sh in shuffles),
    )


# ---------------------------------------------------------------------------
# First-order conditions
# ---------------------------------------------------------------------------

def _free_coordinates(menu: Menu, step: float) -> list[tuple[int, str]]:
    """Menu coordinates with two-sided room to differentiate."""
    coords: list[tuple[int, str]] = []
    for i, item in enumerate(menu):
        if item.is_null:
            continue
        coords.append((i, "t"))
        for attr in ("q1", "q2"):
            v = getattr(item, attr)
            if step < v < 1.0 - step:
                coords.append((i, attr))
    return coords


def _perturbed(menu: Menu, i: int, attr: str, value: float) -> Menu:
    return menu[:i] + (replace(menu[i], **{attr: value}),) + menu[i + 1 :]


def _stationarity(
    menu: Menu, rect: Rectangle, step: float, base: float
) -> tuple[float, float]:
    """(ascent-rate norm, largest second difference) over free menu coordinates.

    One-sided slopes are judged separately: a coordinate contributes only
    the rate at which revenue rises in some direction, so a maximum at a
    kink (one-sided derivatives of opposite sign, as for the pinned
    lottery price of the two-item structures) certifies cleanly while any
    strictly improving move is flagged.  base is the menu's own revenue.
    """
    grad_sq = 0.0
    max_hess = -math.inf
    for i, attr in _free_coordinates(menu, step):
        v = getattr(menu[i], attr) if attr != "t" else menu[i].t
        hi = expected_revenue(_perturbed(menu, i, attr, v + step), rect)
        up = (hi - base) / step
        if attr == "t" and v < step:
            grad_sq += max(0.0, up) ** 2
            continue
        lo = expected_revenue(_perturbed(menu, i, attr, v - step), rect)
        down = (lo - base) / step
        grad_sq += max(0.0, up, down) ** 2
        max_hess = max(max_hess, (hi - 2.0 * base + lo) / (step * step))
    if max_hess == -math.inf:
        max_hess = 0.0
    return math.sqrt(grad_sq), max_hess


def certificate_check(
    mech: Mechanism,
    rect: Rectangle,
    *,
    oracle_gap: float | None = None,
    fd_step: float = FD_STEP,
    grad_tol: float = GRAD_TOL,
    hess_tol: float = HESS_TOL,
    region_tol_rel: float = REGION_TOL_REL,
    shuffle_tol: float = SHUFFLE_TOL,
) -> CertificateReport:
    """Measure and stationarity certificates for a solved mechanism.

    Parameters
    ----------
    mech : Mechanism
        Solver output to verify.
    rect : Rectangle
        Support the mechanism was solved on.
    oracle_gap : float, optional
        Solver revenue minus the best revenue from
        brute_force_menu_search, when the caller ran one; judged against
        the relative gap tolerances.

    Returns
    -------
    CertificateReport
        Raw certificate values plus the pass verdict; ``failures`` names
        each violated check.

    Notes
    -----
    The checks are independent of the solver's internals: region masses
    integrate the transformed measure over best-response polygons of the
    extracted menu, shuffle conditions re-evaluate the closed-form mass
    and moment of the structure's shuffling measure, and stationarity
    differentiates the expected revenue numerically in every free menu
    coordinate (step ``fd_step``, one-sided slopes judged separately so
    kink maxima certify).  The reported revenue must equal the polygon
    revenue of the menu, so a wrong closed form fails ``revenue_form``.
    """
    menu = mech.menu
    mu_total = MuBar(rect).total()
    masses = _region_masses(rect, menu)
    shuffle_mass, shuffle_moment, signs_ok = _shuffle_deviations(mech, rect)
    polygon_revenue = expected_revenue(menu, rect)
    grad_norm, max_hess = _stationarity(menu, rect, fd_step, polygon_revenue)
    revenue_gap = mech.revenue - polygon_revenue

    failures: list[str] = []
    offsets = 1.0 + rect.c1 / rect.b1 + rect.c2 / rect.b2
    if abs(mu_total) > MU_D_TOL * offsets:
        failures.append("mu_D")
    if abs(revenue_gap) > REVENUE_TOL_REL * offsets * abs(mech.revenue):
        failures.append("revenue_form")
    region_tol = region_tol_rel * rect.area
    for key in ("Z", "A", "B", "W"):
        if abs(masses[key]) > region_tol:
            failures.append(f"mu_{key}")
    if shuffle_mass > shuffle_tol:
        failures.append("shuffle_mass")
    if shuffle_moment > shuffle_tol:
        failures.append("shuffle_moment")
    if not signs_ok:
        failures.append("shuffle_sign")
    if grad_norm >= grad_tol:
        failures.append("foc_gradient")
    if max_hess > hess_tol * max(1.0, abs(mech.revenue)):
        failures.append("foc_curvature")
    if oracle_gap is not None:
        scale = max(abs(mech.revenue), 1e-12)
        if oracle_gap > GAP_SHORTFALL_REL * scale:
            failures.append("oracle_gap_shortfall")
        if oracle_gap < -GAP_EXCESS_REL * scale:
            failures.append("oracle_gap_beaten")

    return CertificateReport(
        mu_D=mu_total,
        mu_Z=masses["Z"],
        mu_W=masses["W"],
        mu_A=masses["A"],
        mu_B=masses["B"],
        shuffle_mass=shuffle_mass,
        shuffle_moment=shuffle_moment,
        foc_gradient_norm=grad_norm,
        revenue_gap=revenue_gap,
        oracle_gap=oracle_gap,
        passed=not failures,
        failures=tuple(failures),
    )
