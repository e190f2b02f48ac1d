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
six leave.  Every array in that sum has the batch's shape, so no polygon
vertices are ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import best_response_regions
from .measures import MuBar, ShuffleAlpha, ShuffleBeta, ShuffleBetaE
from .mechanism import Menu, expected_revenue
from .types import NULL_ITEM, Mechanism, MenuItem, Rectangle, StructureKind

# Verification tolerances.  Region masses are judged relative to the support
# area; the rest are absolute on O(1) dimensionless quantities.
MU_D_TOL = 1e-12
REGION_TOL_REL = 1e-9
SHUFFLE_TOL = 1e-10
FD_STEP = 1e-5
GRAD_TOL = 1e-3
HESS_TOL = 1e-4
GAP_SHORTFALL_REL = 5e-3  # grid may trail the solver by this much
GAP_EXCESS_REL = 1e-3  # grid may beat the solver by at most this much

_CHUNK = 65536
_REFINE_POINTS = 9  # per-dimension points per refinement round (spacing /4)


@dataclass(frozen=True)
class CertificateReport:
    """Certificate values for one solved mechanism.

    Masses are of the transformed boundary measure over the best-response
    regions (Z exclusion, A fractional good 1, B fractional good 2, W
    bundle); shuffle fields hold the largest deviation of any applicable
    shuffle's mass/moment condition; oracle_gap is solver revenue minus the
    best grid-search revenue when a search was run.
    """

    mu_D: float
    mu_Z: float
    mu_W: float
    mu_A: float
    mu_B: float
    shuffle_mass: float
    shuffle_moment: float
    foc_gradient_norm: float
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
    (nx, ny) a unit normal and (x, y) = (z1 - cx, z2 - cy).  (al, be) != 0."""
    norm = np.hypot(al, be)
    return al / norm, be / norm, (ga - al * cx - be * cy) / norm


def _twice_area(lines: list[tuple]) -> np.ndarray:
    """Twice the area of the polygon {nx*x + ny*y >= g for every line}, per row.

    Each line is (nx, ny, g) with (nx, ny) a unit normal; entries are floats
    or (B,) arrays, and the polygon is bounded in every row.  By the
    divergence theorem twice the area is sum_i (-g_i) * len_i, where len_i
    is the length of line i that the other lines leave.  Points of line i
    are g_i n_i + s (-ny_i, nx_i), so each line j not parallel to it bounds
    s from one side.  A parallel line is judged by comparing offsets, never
    by a computed residual, so of two coincident lines exactly one keeps
    its edge: the earlier one.
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

    Item k's best-response region is the support box cut by the three
    half-planes (q_k - q_j).z >= t_k - t_j, j != k, and its area is
    _twice_area / 2 of the seven lines in unit-normal form, centred on the
    box.  Every array keeps the batch's shape: no vertex lists, no per-row
    counts.  Identical allocations (q_k == q_j) give no line: the cheaper
    item wins and the lower index wins an exact price tie, so the loser's
    region is empty and the winner's constraint becomes a copy of the box's
    first edge, which the coincident-edge rule then drops.
    """
    bsz = a1.size
    zeros = np.zeros(bsz)
    ones = np.ones(bsz)
    q1s = (zeros, a1, ones, ones)
    q2s = (zeros, ones, a2, ones)
    ts = (zeros, t1, t2, tb)
    cx = rect.c1 + 0.5 * rect.b1
    cy = rect.c2 + 0.5 * rect.b2
    box = _unit_form(
        np.array([1.0, -1.0, 0.0, 0.0]),
        np.array([0.0, 0.0, 1.0, -1.0]),
        np.array([rect.c1, -rect.z1_max, rect.c2, -rect.z2_max]),
        cx, cy,
    )

    revenue = np.zeros(bsz)
    for k in (1, 2, 3):
        lines = list(zip(*box))
        empty = np.zeros(bsz, dtype=bool)
        for j in range(4):
            if j == k:
                continue
            al = q1s[k] - q1s[j]
            be = q2s[k] - q2s[j]
            ga = ts[k] - ts[j]
            same = (al == 0.0) & (be == 0.0)
            empty |= same & (ga >= 0.0 if k > j else ga > 0.0)
            unit = _unit_form(np.where(same, 1.0, al), be, ga, cx, cy)
            lines.append(tuple(np.where(same, edge, v) for edge, v in zip(lines[0], unit)))
        area = np.maximum(0.5 * _twice_area(lines), 0.0)
        revenue += ts[k] * np.where(empty, 0.0, area)
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
        mesh = np.meshgrid(*grids, indexing="ij")
        flat = [m.reshape(-1) for m in mesh]
        total = flat[0].size
        for start in range(0, total, _CHUNK):
            sl = slice(start, start + _CHUNK)
            chunk = [f[sl] for f in flat]
            rev = _family_revenue(rect, *chunk)
            k = int(np.argmax(rev))
            if rev[k] > best_rev:
                best_rev = float(rev[k])
                best = tuple(float(p[k]) for p in chunk)

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


def _beta_deviation(
    rect: Rectangle, side: str, p_a: float, a: float, p: float
) -> tuple[float, float, bool]:
    """(mass, |moment|, sign ok) of a ramp-then-flat shuffle, handling a=0.

    The a=0 limit is the two-step shuffle when the corner offset is
    positive, and a flat zero ramp over the whole segment when it vanishes.
    """
    if a > 0.0:
        sh = ShuffleBeta(rect, side, p_a, a, p)
        return abs(sh.mass()), abs(sh.first_moment()), sh.sign_pattern_ok()
    eff = rect if side == "top" else rect.swapped()
    if eff.c1 == 0.0:
        base = 2.0 * eff.b2 - eff.c2 - 3.0 * p_a
        mass = p * base / rect.area
        moment = 0.5 * p * p * base / rect.area
        return abs(mass), abs(moment), base <= 1e-9
    sh_e = ShuffleBetaE(rect, side)
    return abs(sh_e.mass()), abs(sh_e.first_moment()), sh_e.sign_pattern_ok()


def _shuffle_deviations(mech: Mechanism, rect: Rectangle) -> tuple[float, float, bool]:
    """Largest mass/moment deviation (and sign-pattern flag) per structure."""
    kind = mech.kind
    q = mech.params
    rows: list[tuple[float, float, bool]] = []
    if kind is StructureKind.A:
        for side, p_a, a, m in (
            ("top", q.p_a1, q.a1, q.m1),
            ("right", q.p_a2, q.a2, q.m2),
        ):
            sh = ShuffleAlpha(rect, side, p_a, a, m)
            rows.append((abs(sh.mass()), abs(sh.first_moment()), sh.sign_pattern_ok()))
    elif kind in (StructureKind.B, StructureKind.F):
        # the lone lottery ends interior at m, so it carries the same ramp
        # shuffle as the two-lottery structure; only the degenerate flat
        # price (a == 0) spans the whole bundle offset
        side = "top" if kind is StructureKind.B else "right"
        p_a, a, m = (
            (q.p_a1, q.a1, q.m1) if kind is StructureKind.B else (q.p_a2, q.a2, q.m2)
        )
        if a > 0.0:
            sh = ShuffleAlpha(rect, side, p_a, a, m)
            rows.append((abs(sh.mass()), abs(sh.first_moment()), sh.sign_pattern_ok()))
        else:
            rows.append(_beta_deviation(rect, side, p_a, a, q.p))
    elif kind is StructureKind.D:
        rows.append(_beta_deviation(rect, "top", q.p_a1, q.a1, q.p))
    elif kind is StructureKind.G:
        rows.append(_beta_deviation(rect, "right", q.p_a2, q.a2, q.p))
    elif kind in (StructureKind.E, StructureKind.H):
        side = "top" if kind is StructureKind.E else "right"
        sh = ShuffleBetaE(rect, side)
        # the two-step first moment certifies with any nonnegative value
        rows.append((abs(sh.mass()), max(0.0, -sh.first_moment()), sh.sign_pattern_ok()))
    if not rows:
        return 0.0, 0.0, True
    return (
        max(r[0] for r in rows),
        max(r[1] for r in rows),
        all(r[2] for r in rows),
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


def price_gradient(menu: Menu, rect: Rectangle, index: int, step: float = FD_STEP) -> float:
    """Central-difference derivative of expected revenue in one item's price."""
    t = menu[index].t
    hi = expected_revenue(_perturbed(menu, index, "t", t + step), rect)
    lo = expected_revenue(_perturbed(menu, index, "t", t - step), rect)
    return (hi - lo) / (2.0 * step)


def _stationarity(
    menu: Menu, rect: Rectangle, step: float
) -> tuple[float, float]:
    """(ascent-rate norm, largest second difference) over free menu coordinates.

    One-sided slopes are judged separately: a coordinate contributes only
    the rate at which revenue rises in some direction, so a maximum at a
    kink (one-sided derivatives of opposite sign, as for the pinned
    lottery price of the two-item structures) certifies cleanly while any
    strictly improving move is flagged.
    """
    base = expected_revenue(menu, rect)
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
    kink maxima certify).
    """
    menu = mech.menu
    mu_total = MuBar(rect).total()
    masses = _region_masses(rect, menu)
    shuffle_mass, shuffle_moment, signs_ok = _shuffle_deviations(mech, rect)
    grad_norm, max_hess = _stationarity(menu, rect, fd_step)

    failures: list[str] = []
    if abs(mu_total) > MU_D_TOL:
        failures.append("mu_D")
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
        oracle_gap=oracle_gap,
        passed=not failures,
        failures=tuple(failures),
    )


def local_max_check(menu: Menu, rect: Rectangle, eps: float) -> bool:
    """True iff no single-coordinate +-eps perturbation gains revenue.

    Perturbations leaving the valid parameter box (allocations in [0, 1],
    prices nonnegative) are skipped, so boundary parameters are tested
    one-sided.  Gains up to 1e-10 are attributed to round-off.
    """
    if not 0.0 < eps < 0.1:
        raise ValueError(f"eps must lie in (0, 0.1), got {eps!r}")
    base = expected_revenue(menu, rect)
    for i, item in enumerate(menu):
        if item.is_null:
            continue
        for attr, lo, hi in (("q1", 0.0, 1.0), ("q2", 0.0, 1.0), ("t", 0.0, math.inf)):
            v = getattr(item, attr)
            for sign in (1.0, -1.0):
                w = v + sign * eps
                if w < lo or w > hi:
                    continue
                if expected_revenue(_perturbed(menu, i, attr, w), rect) > base + 1e-10:
                    return False
    return True
