"""Helpers that only the tests use: a support's corners and polygon, maps
between the value frame z and the verifier's unit frame u = (z - c)/b, a
mechanism's JSON read back, the goods-swap mirror of a menu item and of a
mechanism, a menu item's utility, the bundle entry of a mechanism, random
menus, polygon intersection, the non-participation region, a shuffle
report, the closed-form shuffle parameters of the lottery structures, the
simple menus every optimum must match, finite-difference checks of a
menu's revenue, the buyer's best entry at a type, the duality-side revenue
pairing, a payment-monotonicity check, one support per kind, the linear
family's boundary measure, clipped-polygon revenue and looped balance
kernel, a log-uniform draw, the companion-matrix root finder the solver's
is checked against, every admissible structure of a support, and the
eager grid-search kernel the oracle's lazy one is checked against."""

import json
import math
import random
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial import polynomial as npoly

from optmech.geometry import EMPTY_POLYGON, HalfPlane, Polygon, best_response_regions, clip
from optmech.linear import LinearDensityInstance, LinearSolution, _xy_moment
from optmech.measures import MuBar, Shuffle
from optmech.mechanism import build_mechanism, expected_revenue
from optmech.oracle import FD_STEP, _clip, _cut, _perturbed
from optmech.solver import (
    ROOT_DOUBLE_ULPS,
    ROOT_END_REL_TOL,
    ROOT_REL_TOL,
    PhaseRegion,
    _horner,
    _kind_b_cubic,
    _kind_b_params,
    _kind_d_cubic,
    _kind_d_params,
    _root_in_bracket,
    _solve_ss_kind_a,
    _sweep_kinks,
    classify,
    solve_bundling,
)
from optmech.types import NULL_ITEM, Mechanism, MenuItem, Rectangle, SolveParams, StructureKind

#: One support deep in each kind's zone: b2 = 1, c1/b1 and c2/b2 as in the
#: ``verify`` benchmark workload's centres.
VERIFY_CENTRES = {
    kind: Rectangle(r1 * b1, r2, b1, 1.0)
    for kind, (r1, r2, b1) in {
        "A": (0.05, 0.05, 1.0),
        "B": (0.04, 1.2, 1.3),
        "C": (2.9, 2.1, 0.9),
        "D": (0.2, 2.275, 1.653),
        "E": (0.04, 2.512, 1.267),
        "F": (0.469, 0.127, 0.767),
        "G": (1.9, 0.18, 0.314),
        "H": (2.42, 0.03, 0.595),
    }.items()
}

#: Companion-matrix root estimates this close to the real axis and to each
#: other, relative to the interval magnitude, form one cluster: rounding the
#: coefficients splits a double root into a pair about 1e-8 apart, real or
#: complex.
ROOT_MERGE_REL_TOL = 1e-6


def corners(rect: Rectangle) -> tuple[tuple[float, float], ...]:
    """Vertices of the support in counterclockwise order from the lower-left."""
    return (
        (rect.c1, rect.c2),
        (rect.z1_max, rect.c2),
        (rect.z1_max, rect.z2_max),
        (rect.c1, rect.z2_max),
    )


def rect_polygon(rect: Rectangle) -> Polygon:
    return Polygon(corners(rect))


def to_unit(rect: Rectangle, poly: Polygon) -> Polygon:
    """A polygon in the value frame z, mapped to u = (z - c)/b."""
    return Polygon(tuple(((x - rect.c1) / rect.b1, (y - rect.c2) / rect.b2) for x, y in poly.vertices))


def to_values(rect: Rectangle, poly: Polygon) -> Polygon:
    """A polygon in the unit frame u, mapped back to z = c + b u."""
    return Polygon(tuple((rect.c1 + rect.b1 * x, rect.c2 + rect.b2 * y) for x, y in poly.vertices))


def value_moments(rect: Rectangle, poly: Polygon) -> tuple[float, float, float]:
    """``MuBar.moments`` of a unit-frame polygon, as (mass, integral of z1,
    integral of z2): each z-moment is b times the u-moment plus c times
    the mass."""
    mass, m1, m2 = MuBar(rect).moments(poly)
    return mass, rect.b1 * m1 + rect.c1 * mass, rect.b2 * m2 + rect.c2 * mass


def solve_params_from_dict(d: dict) -> SolveParams:
    """``SolveParams.to_dict`` read back, with the roof points as tuples."""
    kw = dict(d)
    for key in ("P", "Q"):
        if kw.get(key) is not None:
            kw[key] = tuple(float(x) for x in kw[key])
    return SolveParams(**kw)


def mechanism_from_json(text: str) -> Mechanism:
    """``Mechanism.to_json`` read back."""
    d = json.loads(text)
    params = d.get("params")
    return Mechanism(
        kind=StructureKind(d["kind"]),
        params=solve_params_from_dict(params) if params is not None else None,
        menu=tuple(MenuItem(i["q1"], i["q2"], i["t"]) for i in d["menu"]),
        revenue=float(d["revenue"]),
    )


def mirror_item(item: MenuItem) -> MenuItem:
    """The same lottery with the two goods exchanged."""
    return MenuItem(item.q2, item.q1, item.t)


def mirror(mech: Mechanism) -> Mechanism:
    """The mechanism for the support with the two goods exchanged, made
    from the record alone: the reference the solver's mirrored records are
    compared against.

    Each menu item trades its two allocations; prices, net prices and
    revenue stay.  A kind-A menu keeps its order null, (a1, 1), (1, a2),
    bundle, so its two lotteries also trade places, and their nets with
    them.
    """
    order = (0, 2, 1, 3) if mech.kind is StructureKind.A else range(len(mech.menu))
    menu = tuple(mirror_item(mech.menu[i]) for i in order)
    nets = None if mech.net_prices is None else tuple(mech.net_prices[i] for i in order)
    params = SolveParams.mirrored(**vars(mech.params)) if mech.params is not None else None
    return Mechanism(mech.kind.swapped(), params, menu, mech.revenue, nets)


def item_utility(item: MenuItem, z1: float, z2: float) -> float:
    return item.q1 * z1 + item.q2 * z2 - item.t


def bundle_item(mech: Mechanism) -> MenuItem:
    return next(item for item in mech.menu if item.is_bundle)


def random_menu(rng, rect: Rectangle, n_items: int | None = None) -> tuple[MenuItem, ...]:
    """A random menu (always containing the null item) for partition tests."""
    if n_items is None:
        n_items = int(rng.integers(2, 5))
    t_max = rect.z1_max + rect.z2_max
    items = [MenuItem(0.0, 0.0, 0.0)]
    for _ in range(n_items - 1):
        items.append(
            MenuItem(
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, t_max)),
            )
        )
    return tuple(items)


def polygon_intersection(a: Polygon, b: Polygon) -> Polygon:
    """Intersection of two convex polygons (clip a by b's edges)."""
    vs = b.vertices
    if a.is_empty or not vs:
        return EMPTY_POLYGON
    out = a
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        # interior of a CCW polygon is to the left of each directed edge
        out = clip(out, HalfPlane(y1 - y0, -(x1 - x0), (y1 - y0) * x0 - (x1 - x0) * y0))
        if out.is_empty:
            break
    return out


def non_participation_region(rect: Rectangle, menu: tuple[MenuItem, ...]) -> Polygon:
    """Types preferring the outside option to every menu item."""
    poly = rect_polygon(rect)
    for it in menu:
        if it.q1 == 0.0 and it.q2 == 0.0:
            # a free null item ties the outside option; only a subsidized
            # one (t < 0) strictly dominates it everywhere
            if it.t < 0.0:
                return EMPTY_POLYGON
            continue
        poly = clip(poly, HalfPlane(it.q1, it.q2, it.t))
        if poly.is_empty:
            break
    return poly


def mu_bar_of_polygon(rect: Rectangle, poly: Polygon) -> float:
    """Total transformed measure of a convex polygon in z (clipped to the support)."""
    return MuBar(rect).mass(to_unit(rect, poly))


def check_interval_measure_cvx_zero(
    measure: Shuffle, tol: float = 1e-9
) -> dict:
    """Mass, first moment, and sign-pattern flag of a shuffling measure.

    A shuffle certifies its structure when the mass vanishes, the first
    moment vanishes (or is nonnegative, for the two-step shuffle), and the
    density runs negative-to-positive after a nonnegative atom.
    """
    return {
        "total_mass": measure.mass(),
        "first_moment": measure.first_moment(),
        "sign_pattern_ok": measure.sign_pattern_ok(tol),
    }


def alpha_params(rect: Rectangle, p_a: float) -> Shuffle:
    """Ramp shuffle of a lottery ending inside the top edge at edge price p_a.

    Its slope a and span m zero the mass and first moment; requires a
    positive own-axis corner offset and p_a strictly inside
    ((2 b2 - c2)/3, b2).
    """
    c, big_c, big_b = rect.c1, rect.c2, rect.b2
    lo = (2.0 * big_b - big_c) / 3.0
    if not (lo < p_a < big_b):
        raise ValueError(f"p_a must lie in ({lo!r}, {big_b!r}), got {p_a!r}")
    d = big_c - 2.0 * big_b + 3.0 * p_a
    m = 4.0 * c * (big_b - p_a) / d
    return Shuffle(rect, p_a, d * d / (8.0 * c * (big_b - p_a)), m, m)


def beta_p_of(rect: Rectangle, p_a: float, a: float) -> tuple[float, float]:
    """Segment lengths p at which the top-edge ramp-then-flat shuffle of
    slope a > 0 has zero mass and zero first moment, respectively.  The
    two agree exactly when the structure's free parameters are consistent.
    """
    c, big_c, big_b = rect.c1, rect.c2, rect.b2
    length = p_a / a
    p_from_mass = (1.5 * p_a * p_a / a + big_c * p_a / a - c * (big_b - p_a)) / (2.0 * big_b)
    return p_from_mass, length * math.sqrt((p_a + big_c) / (2.0 * big_b))


def rival_revenue(rect: Rectangle) -> float:
    """Best revenue of the simple menus that every optimum must match.

    Pure bundling at each stationary price of the bundle revenue (one per
    piece of the distribution of z1 + z2, plus its kinks), separate sale at
    each good's own optimal price, and the E and H menus (one good at its
    lowest value, the other as an upgrade at its own optimal price); each
    menu is evaluated by ``expected_revenue``.
    """
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    s0, short, long_ = c1 + c2, min(b1, b2), max(b1, b2)
    offsets = (
        (math.sqrt(s0 * s0 + 6.0 * b1 * b2) - s0) / 3.0,
        (2.0 * long_ + short - 2.0 * s0) / 4.0,
        (b1 + b2 - 2.0 * s0) / 3.0,
        short,
        long_,
    )
    t1, t2 = max(c1, 0.5 * (c1 + rect.z1_max)), max(c2, 0.5 * (c2 + rect.z2_max))
    menus = [(NULL_ITEM, MenuItem(1.0, 1.0, s0 + min(max(u, 0.0), b1 + b2))) for u in offsets]
    menus += [
        (NULL_ITEM, MenuItem(1.0, 0.0, t1), MenuItem(0.0, 1.0, t2), MenuItem(1.0, 1.0, t1 + t2)),
        (NULL_ITEM, MenuItem(0.0, 1.0, c2), MenuItem(1.0, 1.0, c2 + t1)),
        (NULL_ITEM, MenuItem(1.0, 0.0, c1), MenuItem(1.0, 1.0, c1 + t2)),
    ]
    return max(expected_revenue(menu, rect) for menu in menus)


def price_gradient(menu: tuple[MenuItem, ...], rect: Rectangle, index: int, step: float = FD_STEP) -> float:
    """Central-difference derivative of expected revenue in one item's price."""
    t = menu[index].t
    hi = expected_revenue(_perturbed(menu, index, "t", t + step), rect)
    lo = expected_revenue(_perturbed(menu, index, "t", t - step), rect)
    return (hi - lo) / (2.0 * step)


def local_max_check(menu: tuple[MenuItem, ...], rect: Rectangle, eps: float) -> bool:
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


def utility(menu: tuple[MenuItem, ...], z: tuple[float, float]) -> tuple[float, MenuItem]:
    """Buyer's value at type z and the entry achieving it.

    The outside option (0 at the null lottery) is always available; exact
    ties are broken toward the higher price, matching the closed-region
    convention used for the best-response polygons.
    """
    best_u = 0.0
    best_item = NULL_ITEM
    for item in menu:
        u = item_utility(item, z[0], z[1])
        if u > best_u or (u == best_u and item.t > best_item.t):
            best_u = u
            best_item = item
    return best_u, best_item


def primal_objective(menu: tuple[MenuItem, ...], rect: Rectangle) -> float:
    """Integral of the buyer's utility against the transformed measure.

    The corner atom counts the utility of the cheapest type once more than
    the integration by parts produces, so that term is subtracted; the
    result equals the expected revenue for every menu, which the invariant
    tests verify independently.
    """
    regions = best_response_regions(rect, menu)
    total = 0.0
    for item, region in zip(menu, regions):
        if region.is_empty:
            continue
        mass, m1, m2 = value_moments(rect, region)
        total += item.q1 * m1 + item.q2 * m2 - item.t * mass
    corner_u, _ = utility(menu, (rect.c1, rect.c2))
    return total - corner_u


def revenue_monotonicity_check(menu: tuple[MenuItem, ...], rect: Rectangle, n: int) -> bool:
    """True iff componentwise-larger types never pay strictly less.

    Payments are sampled on an n x n grid; monotonicity along both grid
    axes is equivalent to monotonicity over all comparable grid pairs.
    Choices within a few ulps of the maximum utility resolve toward the
    higher price, so grid points sitting on an indifference line cannot
    register rounding noise as a violation.
    """
    if n < 2:
        raise ValueError(f"grid size must be at least 2, got {n}")
    tol = 1e-9
    pay = [[0.0] * n for _ in range(n)]
    for i in range(n):
        z1 = rect.c1 + rect.b1 * i / (n - 1)
        for j in range(n):
            z2 = rect.c2 + rect.b2 * j / (n - 1)
            tie_eps = 1e-12 * (1.0 + abs(z1) + abs(z2))
            best_u = max(0.0, max(item_utility(item, z1, z2) for item in menu))
            near_best = [
                item.t for item in menu if item_utility(item, z1, z2) >= best_u - tie_eps
            ]
            pay[i][j] = max(near_best, default=0.0)
    for i in range(n):
        for j in range(n):
            if i + 1 < n and pay[i + 1][j] < pay[i][j] - tol:
                return False
            if j + 1 < n and pay[i][j + 1] < pay[i][j] - tol:
                return False
    return True


# The linear family's first two balance equations, in the unnormalized
# scale where the density carries no 1/(2c+1)^2 factor.


def _marginal(c: float, pa: float, a: float, P1: float) -> float:
    """Transported mass: point term plus the boundary density integral."""
    k = (c + 1.0) ** 2
    u = c + pa
    a0 = u + a * c
    k2 = 3.0 * k - 5.0 * a0 * a0
    k3 = 20.0 * a0 * a / 3.0
    k4 = -2.5 * a * a
    point = 2.0 * c * c * (k - u * u)
    return (
        point
        + k2 * (P1 * P1 - c * c)
        + k3 * (P1**3 - c**3)
        + k4 * (P1**4 - c**4)
    )


def _expectation(c: float, pa: float, a: float, P1: float) -> float:
    """First moment of the boundary density about z1 = c."""
    k = (c + 1.0) ** 2
    a0 = c + pa + a * c
    c0 = 3.0 * k - 5.0 * a0 * a0
    k1 = -2.0 * c * c0
    k2 = 2.0 * c0 - 20.0 * c * a0 * a
    k3 = 20.0 * a0 * a + 10.0 * c * a * a
    k4 = -10.0 * a * a

    def anti(z: float) -> float:
        return k1 * z * z / 2.0 + k2 * z**3 / 3.0 + k3 * z**4 / 4.0 + k4 * z**5 / 5.0

    return anti(P1) - anti(c)



@dataclass(frozen=True)
class GenShuffleAlpha:
    """Linear-family boundary measure: a point mass at z1=c and a density
    on (c, P1].

    Its total mass and its first moment about z1=c both vanish at a
    solution of the balance equations.
    """

    c: float
    p_a1: float
    a1: float
    P1: float

    def __post_init__(self) -> None:
        if self.c < 0.0:
            raise ValueError(f"c must be nonnegative, got {self.c!r}")
        if not self.c < self.P1 <= self.c + 1.0:
            raise ValueError(f"P1={self.P1!r} outside (c, c+1]")
        if self.a1 < 0.0:
            raise ValueError(f"a1 must be nonnegative, got {self.a1!r}")
        if self.p_a1 <= 0.0:
            raise ValueError(f"p_a1 must be positive, got {self.p_a1!r}")

    def point_mass(self) -> float:
        c = self.c
        u = c + self.p_a1
        return 2.0 * c * c * ((c + 1.0) ** 2 - u * u) / (2.0 * c + 1.0) ** 2

    def density(self, z1: float) -> float:
        c = self.c
        w = c + self.p_a1 - self.a1 * (z1 - c)
        return 2.0 * z1 * (3.0 * (c + 1.0) ** 2 - 5.0 * w * w) / (2.0 * c + 1.0) ** 2

    def mass(self) -> float:
        scale = (2.0 * self.c + 1.0) ** 2
        return _marginal(self.c, self.p_a1, self.a1, self.P1) / scale

    def first_moment(self) -> float:
        scale = (2.0 * self.c + 1.0) ** 2
        return _expectation(self.c, self.p_a1, self.a1, self.P1) / scale


def clipped_linear_revenue(sol: LinearSolution, c: float) -> float:
    """``linear.linear_revenue`` by clipping the four best-response polygons
    out of the support: the reference its closed form is checked against."""
    inst = LinearDensityInstance(c)
    menu = sol.menu()
    rect = Rectangle(inst.c, inst.c, 1.0, 1.0)
    regions = best_response_regions(rect, menu)
    scale = 4.0 / (2.0 * inst.c + 1.0) ** 2
    return sum(
        item.t * scale * _xy_moment(to_values(rect, region).vertices) for item, region in zip(menu, regions)
    )


# The linear family's balance kernel with each polynomial in (c, s) summed
# by a Horner loop and the bundle region's antiderivative as a closure: the
# reference the straight-line ``linear._boundary_branch`` and
# ``linear._mu_w`` must equal bit for bit.


def _homogeneous(coeffs: tuple[float, ...], c: float, s: float) -> float:
    """sum_i coeffs[i] * c^(n-i) * s^i, by Horner in c."""
    acc = 0.0
    s_pow = 1.0
    for co in coeffs:
        acc = acc * c + co * s_pow
        s_pow *= s
    return acc


def looped_boundary_branch(c: float, P1: float) -> tuple[float, float]:
    s = P1 - c
    k = (c + 1.0) ** 2
    q0 = 16.0 * (c * c * k * (3.0 * c + 2.0 * s)) ** 2 / 9.0
    q1 = (
        -s * s * k
        * _homogeneous((3720.0, 13416.0, 20304.0, 16160.0, 6960.0, 1500.0, 125.0), c, s)
        / 27.0
    )
    q2 = s**4 * _homogeneous((1350.0, 4660.0, 6614.0, 4840.0, 1870.0, 350.0, 25.0), c, s) / 54.0
    x = 2.0 * q0 / (-q1 + math.sqrt(q1 * q1 - 4.0 * q0 * q2))
    a = math.sqrt(x)
    m2 = _homogeneous((2.0, 10.0, 5.0), c, s)
    m1 = 4.0 * a * _homogeneous((3.0, 15.0, 15.0, 5.0), c, s) / 3.0
    m0 = k * _homogeneous((2.0, 6.0, 3.0), c, s) - 0.5 * x * _homogeneous(
        (4.0, 20.0, 30.0, 20.0, 5.0), c, s
    )
    a0 = (m1 + math.sqrt(m1 * m1 + 4.0 * m2 * m0)) / (2.0 * m2)
    return a0 - c - a * c, a


def looped_mu_w(c: float, pa: float, a: float, P1: float) -> float:
    k = (c + 1.0) ** 2
    s = 2.0 * c + 1.0
    a0 = c + pa + a * c
    P2 = a0 - a * P1
    p = P1 + P2
    onem = (k - P1 * P1) / s
    edge = 2.0 * (2.0 * k / s) * onem
    interior = -5.0 * onem * onem

    def anti(z: float) -> float:
        return ((p * p - P1 * P1) * z * z - (4.0 * p / 3.0) * z**3 + 0.5 * z**4) / (s * s)

    return edge + interior + 5.0 * (anti(P2) - anti(P1))


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def polyroots_real_roots_in_interval(coeffs, lo: float, hi: float) -> list[float]:
    """Real roots in [lo, hi] from numpy's companion-matrix eigenvalues
    (``polyroots``), each cluster of estimates polished in its bracket, with
    the zero factoring and end clamp of ``solver.real_roots_in_interval``:
    the reference that function is checked against."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    if hi < lo or len(coeffs) < 2:
        return []
    mag = max(abs(lo), abs(hi))
    near, end = ROOT_MERGE_REL_TOL * mag, ROOT_END_REL_TOL * mag
    order = next(i for i, a in enumerate(coeffs) if a != 0.0)
    roots = [min(max(0.0, lo), hi)] if order and lo - end <= 0.0 <= hi + end else []
    coeffs = coeffs[order:]
    poly = partial(_horner, coeffs)
    slope = partial(_horner, [i * a for i, a in enumerate(coeffs)][1:])
    estimates = sorted(
        float(r.real)
        for r in npoly.polyroots(coeffs)
        if abs(r.imag) <= near and lo - near <= r.real <= hi + near
    )
    groups: list[list[float]] = []
    for x in estimates:
        if groups and x - groups[-1][1] <= near:
            groups[-1][1] = x
        else:
            groups.append([x, x])
    for first, last in groups:
        a, b = first - 0.5 * near, last + 0.5 * near
        fa, fb, sa, sb = poly(a), poly(b), slope(a), slope(b)
        found: list[float] = []
        if fa <= 0.0 <= fb or fb <= 0.0 <= fa:
            found = [_root_in_bracket(poly, a, b, fa, fb)]
        elif (sa > 0.0) != (sb > 0.0):
            x = _root_in_bracket(slope, a, b, sa, sb)
            fx = poly(x)
            scale = _horner([abs(c) for c in coeffs], abs(x))
            if abs(fx) <= ROOT_DOUBLE_ULPS * sys.float_info.epsilon * scale:
                found = [x]
            elif (fx > 0.0) != (fa > 0.0):
                found = [_root_in_bracket(poly, a, x, fa, fx), _root_in_bracket(poly, x, b, fx, fb)]
        roots.extend(min(max(x, lo), hi) for x in found if lo - end <= x <= hi + end)
    return sorted(roots)


def admissible_structures(rect: Rectangle) -> dict[StructureKind, list[Mechanism]]:
    """Every structure that can exist in the phase region of ``rect``, a
    support ``solve`` runs at its own size, with one mechanism for each of
    its admissible roots, priced by ``build_mechanism``.

    In SmallSmall: kind A, kinds B and F from every companion-matrix root
    of ``_kind_b_cubic`` that clears the solver's kink floor and that
    ``_kind_b_params`` admits, and pure bundling C.  In SmallLarge and
    LargeSmall: kind D or G from every companion-matrix root of
    ``_kind_d_cubic`` that ``_kind_d_params`` admits, and C.  Elsewhere C
    alone.  Each structure has at most one admissible root, and ``solve``
    earns at least the best of them: the evidence that it may take the
    first structure that exists and each cubic's first admissible root.
    """
    K = StructureKind
    region = classify(rect)
    found = {K.C: [build_mechanism(solve_bundling(rect), rect)]}
    if region is PhaseRegion.SMALL_SMALL:
        structure = _solve_ss_kind_a(rect)
        found[K.A] = [build_mechanism(structure, rect)] if structure is not None else []
        for swap in (False, True):
            frame = rect.swapped() if swap else rect
            lo, hi = _sweep_kinks(frame.c1, frame.c2, frame.b1, frame.b2)
            roots = polyroots_real_roots_in_interval(_kind_b_cubic(frame), 0.0, hi) if lo <= hi else []
            floor = max(lo * (1.0 - ROOT_END_REL_TOL), ROOT_REL_TOL * hi)
            fields = [_kind_b_params(frame, max(m1, lo)) for m1 in roots if m1 > floor]
            found[K.F if swap else K.B] = [build_mechanism((K.B, f, swap), rect) for f in fields if f is not None]
    elif region in (PhaseRegion.SMALL_LARGE, PhaseRegion.LARGE_SMALL):
        swap = region is PhaseRegion.LARGE_SMALL
        frame = rect.swapped() if swap else rect
        lo = max(2.0 * frame.b2 - frame.c2, 0.0)
        roots = polyroots_real_roots_in_interval(_kind_d_cubic(frame), lo, frame.b2)
        fields = [_kind_d_params(frame, p_a1) for p_a1 in roots]
        found[K.G if swap else K.D] = [build_mechanism((K.D, f, swap), rect) for f in fields if f is not None]
    return found


def _eager_ramp(y0, y1, h, length, inv_slope):
    lo, hi = _clip(y0, h), _clip(y1, h)
    twice_rise = (hi - lo) * (hi + lo) + 2.0 * h * np.maximum(y1 - h, 0.0)
    inside = (y0 > 0.0) & (y1 < h)
    return np.where(y0 >= h, h * length, np.where(inside, (y0 + y1) * length, twice_rise * inv_slope) * 0.5)


def _eager_full_area(rect: Rectangle, p, x, y):
    x0 = _clip(x, rect.b1)
    top = rect.b2 + rect.c1 + rect.c2 - p
    return _eager_ramp(top + x0, top + rect.b1, rect.b2 - _clip(y, rect.b2), rect.b1 - x0, 1.0)


def _eager_lottery_area(rect: Rectangle, a, a_other, t, t_other, tb):
    c, b, c_other, b_other = rect.c1, rect.b1, rect.c2, rect.b2
    null0 = b_other + c_other - t + a * c
    inv_a = 1.0 / np.where(a > 0.0, a, 1.0)
    end = _clip(_cut(a, t, tb, c, True), b)
    null_end = null0 + a * end
    dup_end = _clip(_cut(a, t, np.minimum(t_other, tb), c, True), b)
    apart = a_other < 1.0
    gap = np.where(apart, 1.0 - a_other, 1.0)
    den = 1.0 - a * a_other
    cross = (t_other - a_other * t - den * c) / np.where(den > 0.0, den, 1.0)
    mid = _clip(cross, b)
    other0 = b_other + c_other - (t - t_other + (1.0 - a) * c) / gap
    fall = (1.0 - a) / gap
    other_end = other0 - fall * end
    split = _eager_ramp(null0, null0 + a * mid, b_other, mid, inv_a) + _eager_ramp(
        other_end, other0 - fall * mid, b_other, end - mid, 1.0 / np.where(fall > 0.0, fall, 1.0)
    )
    idle = (cross >= end) | (null_end <= 0.0) | (other_end >= b_other)
    return np.where(
        apart,
        np.where(idle, _eager_ramp(null0, null_end, b_other, end, inv_a), split),
        _eager_ramp(null0, null0 + a * dup_end, b_other, dup_end, inv_a),
    )


def eager_family_revenue(rect: Rectangle, a1, a2, t1, t2, tb):
    """``oracle._family_revenue`` with every branch computed over the whole
    batch and chosen by ``np.where``: the reference the oracle's kernel,
    which computes only the branches some menu takes, must equal bit for
    bit."""
    c1, c2 = rect.c1, rect.c2
    full1 = np.where(t1 <= tb, _eager_full_area(rect, t1, -np.inf, _cut(a2, t2, t1, c2, t2 < t1)), 0.0)
    full2 = np.where(t2 <= tb, _eager_full_area(rect, t2, _cut(a1, t1, t2, c1, t1 <= t2), -np.inf), 0.0)
    area1 = np.where(a1 >= 1.0, full1, _eager_lottery_area(rect, a1, a2, t1, t2, tb))
    area2 = np.where(a2 >= 1.0, full2, _eager_lottery_area(rect.swapped(), a2, a1, t2, t1, tb))
    area_b = _eager_full_area(rect, tb, _cut(a1, t1, tb, c1, t1 <= tb), _cut(a2, t2, tb, c2, t2 <= tb))
    return (t1 * area1 + t2 * area2 + tb * area_b) / rect.area
