"""Independent numerical verification of solved mechanisms.

Three unrelated lines of evidence back every solve: a deterministic grid
search over the four-item menu family, measure certificates (region masses
and shuffle mass/moment conditions), and finite-difference stationarity of
the expected revenue in each free menu parameter.  The certificate reads
the menu, its net prices, the revenue and the support, never the solver's
structure kind or parameters: every shuffle is built from a lottery item
of the menu and its best-response region.  A region's mass reads its
sides and the corner by exact comparison (see ``geometry``), so a sliver
next to the corner takes the atom and the sides it touches, and its
neighbour takes neither.

The grid search scores a batch of menus at once, with every region's area
in closed form: in u = z - c each region is a strip of the support under
at most two lines, and its area a sum of integrals of a clipped linear
height.  The five menu parameters lie on five broadcast axes, and each
intermediate spans only the axes it uses.  Where a region's area has
cases, a case that no menu in the block takes is not computed, and each
element of a mixed block comes from the same operations either way, so
the scores are those of computing every case everywhere, bit for bit.
A sweep splits its a1 grid into the fewest blocks of at most ``_CHUNK``
menus, of sizes that differ by at most one a1 value, and scans them in
order, so the first maximum it keeps is the one of an unsplit sweep.
The cap is one refinement window, so at coarse 8 the coarse grid and
each window are one block.  For memory, ``_pick`` computes a mixed
mask's no branch, which is the nested case at every call site, before
its flat yes branch, so the flat branch's values are not held while the
nested one runs.
A block lays its axes out as (tb, a1, t1, a2, t2) (``_AXES``), where
numpy runs a full-size operation between two intermediates in fewer,
longer inner loops than in the scan order (a1, a2, t1, t2, tb); its
maximum is found on a view transposed back to scan order.
Every menu of the family earns at most its bundle price tb: an item
dearer than the bundle is never bought, and its region's area is then
exactly 0, while the areas sum to the support.  So a tb value with
tb (1 + ``_BOUND_SLACK``) below a score some grid point already reached
holds no maximum, and each sweep drops those values, a prefix of its
rising tb grid, before it blocks.  It keeps the top one, which rounding
can put under the floor at offsets of about 2e15 sides or more, where
scores break the bound.  The coarse sweep's floor is the best score of
its pure-bundle line (a1 = a2 = 1, t1 = t2 = t_hi, every coarse tb), one
kernel call on ``coarse`` menus; a window's is the
best score so far.  The floor is kept apart from the best score, which only a scored
point sets, so a coarse maximum on that line is still kept.  Each kept
menu is scored by the same operations as without the floor, so the scores
and the menu returned are the same bit for bit.
The search raises glibc's malloc thresholds before it sweeps, so the
blocks' temporaries stay in the heap instead of being handed back to the
kernel and faulted in again on the next block.  It sweeps with numpy's
overflow and invalid flags calling ``_overflow``, which raises
``PriceOverflow``: near the top of the float range a price over a lottery
weight, or times the area, overflows, and the scores there mean nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Polygon, best_response_regions, boundary_sections, net_prices
from .measures import MuBar, Shuffle
from .mechanism import Menu, expected_revenue
from .types import NULL_ITEM, Mechanism, MenuItem, PriceOverflow, Rectangle, UnitSizeOverflow, unit_scale

# Verification tolerances.  Region masses and shuffle masses are
# dimensionless (the corner atom is 1), and shuffle first moments are judged
# over their edge's side, so the shuffle tolerances are absolute; the total
# measure is judged relative to its terms' total variation
# 6 + 2 (c1/b1 + c2/b2), at 1e-12 for zero offsets; a region's mass
# relative to the same offsets factor, capped at 1e-9; the solver's
# closed-form revenue against the menu's polygon revenue relative to the
# revenue, with the same offset scaling; stationarity moves prices by
# FD_STEP (b1 + b2) and reads revenues over b1 + b2, so its step and
# tolerances carry no units.
# Solved menus price each item within 2 ulps of its net price plus q.c on
# 32,000 seeded supports with zero, tiny, huge and lopsided offsets and
# sides, and their regions read masses within 3e-15 of the offsets factor
# on seeded sweeps with offsets up to 1e4 sides.
MU_D_TOL = 1e-12
REVENUE_TOL_REL = 1e-11
REGION_TOL_REL = 1e-9
REGION_TOL_OFFSETS = 1e-13
SHUFFLE_TOL = 1e-10
PRICE_FORM_ULPS = 4
FD_STEP = 1e-5
GRAD_TOL = 1e-3
HESS_TOL = 1e-4
GAP_SHORTFALL_REL = 5e-3  # grid may trail the solver by this much
GAP_EXCESS_REL = 1e-3  # grid may beat the solver by at most this much

# Menu cap on one block of a1 values in the grid search: one refinement
# window.  A kernel call costs about 0.6 ms of small-array overhead
# besides 45-58 ns a menu, so a 9^5 window scores in 3.3-4.1 ms as one
# block against 4.3-5.4 ms as blocks of 5 and 4 a1 values (medians of
# the bench's windows, best of 9, one core of a 2-CPU x86-64 host).  A
# block holds at least one a1 value, at coarse 16 one of 16^3 menus for
# each tb value the coarse sweep keeps; that sweep kept at most 12 of 16
# on 3,000 seeded supports (sides 0.01-100; zero offsets, offsets up to
# 4 sides or one offset up to 1e8 sides), so the cap bounds every block
# there too.
_REFINE_POINTS = 9  # per-dimension points per refinement round (spacing /4)
_CHUNK = _REFINE_POINTS**5
# Relative slack on the bound that a menu earns at most its bundle price
# tb.  On full coarse 8^5 grids of 1,000 seeded supports, a third each
# with zero offsets, offsets up to 2 sides and one offset up to 1e8
# sides, _family_revenue / tb peaked at 1 + 2.2e-16.
_BOUND_SLACK = 1e-9
# The dimension of a1, a2, t1, t2 and tb in a block: the layout
# (tb, a1, t1, a2, t2).
_AXES = (1, 3, 2, 4, 0)


class UncertifiedItem(ValueError):
    """A menu item whose allocation is none of (0, 0), (1, 1), (a, 1) and
    (1, a): the certificate has no region mass or shuffle to judge it by."""


@dataclass(frozen=True)
class CertificateReport:
    """Certificate values for one solved mechanism.

    Masses are of the transformed boundary measure over the best-response
    regions (Z exclusion, A fractional good 1, B fractional good 2, W
    bundle); shuffle fields hold the largest deviation of any lottery
    item's shuffle mass condition and of its first moment over the side of
    its edge, both dimensionless; revenue_gap is the solver's closed-form
    revenue minus the menu's over the polygons its nets place; oracle_gap
    is solver revenue minus the best grid-search revenue when a search was
    run.  ``failures`` names each violated check; ``price_form`` is a price
    t off its net price plus q1 c1 + q2 c2 by over ``PRICE_FORM_ULPS`` ulps.
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
# Closed-form region areas for the menu grid search
# ---------------------------------------------------------------------------

def _clip(x, hi) -> np.ndarray:
    return np.minimum(np.maximum(x, 0.0), hi)


def _pick(mask, yes, no):
    """np.where(mask, yes(), no()), calling only a branch some element takes.

    Each element comes from the same operations on the same inputs either
    way, so the values are bit for bit those of the eager np.where; a
    uniform mask returns its branch's own, possibly lower, shape.  A mixed
    mask calls no() first."""
    taken = np.count_nonzero(mask)
    if taken == np.size(mask):
        return yes()
    if not taken:
        return no()
    other = no()
    return np.where(mask, yes(), other)


def _ramp(y0, y1, h, length, inv_slope) -> np.ndarray:
    """Integral of clip(y, 0, h) along a length over which y rises linearly
    from y0 to y1 at slope 1/inv_slope (any finite value where y0 == y1):
    the trapezoid with both ends inside (0, h), the full strip with both at
    or above it, and else the primitive's rise (hi^2 - lo^2)/2 + h (y1 - h)+
    over the slope, factored to cancel nowhere.  So an end at or below 0
    adds exactly nothing, wherever it lies.  A case no element is in is not
    computed."""

    def rise():
        lo, hi = _clip(y0, h), _clip(y1, h)
        return ((hi - lo) * (hi + lo) + 2.0 * h * np.maximum(y1 - h, 0.0)) * inv_slope

    def part():
        return _pick((y0 > 0.0) & (y1 < h), lambda: (y0 + y1) * length, rise) * 0.5

    return _pick(y0 >= h, lambda: h * length, part)


def _cut(a, t, p, c: float, wins) -> np.ndarray:
    """u = z - c along the first good of the lottery (a, 1, t) where the
    buyer turns from it to the item (1, 1, p).  At a = 1 the allocations
    coincide: +inf where the lottery wins (mask wins), else -inf."""
    frac = a < 1.0
    cut = (p - t) / np.where(frac, 1.0 - a, 1.0)
    return np.where(frac, cut, np.where(wins, np.inf, -np.inf)) - c


def _full_area(rect: Rectangle, p, x, y) -> np.ndarray:
    """Area of the region of an item (1, 1, p) cut at u1 >= x and u2 >= y:
    the box corner above the line u1 + u2 = p - c1 - c2, along u1."""
    x0 = _clip(x, rect.b1)
    top = rect.b2 + rect.c1 + rect.c2 - p  # top edge over the line at u1 = 0
    return _ramp(top + x0, top + rect.b1, rect.b2 - _clip(y, rect.b2), rect.b1 - x0, 1.0)


def _lottery_area(rect: Rectangle, a, a_other, t, t_other, tb) -> np.ndarray:
    """Area of the region of the lottery (a, 1, t), a < 1, against the
    lottery (1, a_other, t_other) and the bundle at tb.

    In u = z - c it is the strip 0 <= u1 <= end (the bundle's cut) under
    the top edge and above the null line (slope -a) left of the point x*
    where that meets the other lottery's line (slope (1 - a)/(1 - a_other)),
    above the latter right of x*.  If the other line cuts nothing the area
    is the null ramp over the strip (idle), which t_other does not move; if
    the bundle cuts nothing the other ramp ends at or below 0, which tb does
    not move.  At a_other = 1 the other lottery is an item (1, 1, t_other)
    (dup).  Of the idle, split and dup areas, one that no menu takes is not
    computed.
    """
    c, b, c_other, b_other = rect.c1, rect.b1, rect.c2, rect.b2
    null0 = b_other + c_other - t + a * c  # top edge over the null line at u1 = 0
    inv_a = 1.0 / np.where(a > 0.0, a, 1.0)
    apart = a_other < 1.0

    def dup():
        dup_end = _clip(_cut(a, t, np.minimum(t_other, tb), c, True), b)
        return _ramp(null0, null0 + a * dup_end, b_other, dup_end, inv_a)

    def distinct():
        end = _clip(_cut(a, t, tb, c, True), b)
        null_end = null0 + a * end
        gap = np.where(apart, 1.0 - a_other, 1.0)
        den = 1.0 - a * a_other
        cross = (t_other - a_other * t - den * c) / np.where(den > 0.0, den, 1.0)
        other0 = b_other + c_other - (t - t_other + (1.0 - a) * c) / gap
        fall = (1.0 - a) / gap  # the top edge's height over the other line falls
        other_end = other0 - fall * end

        def split():
            mid = _clip(cross, b)
            return _ramp(null0, null0 + a * mid, b_other, mid, inv_a) + _ramp(
                other_end, other0 - fall * mid, b_other, end - mid, 1.0 / np.where(fall > 0.0, fall, 1.0)
            )

        idle = (cross >= end) | (null_end <= 0.0) | (other_end >= b_other)
        return _pick(idle, lambda: _ramp(null0, null_end, b_other, end, inv_a), split)

    return _pick(apart, distinct, dup)


def _family_revenue(rect: Rectangle, a1, a2, t1, t2, tb) -> np.ndarray:
    """Exact expected revenue of each menu {null,(a1,1,t1),(1,a2,t2),(1,1,tb)}.

    The parameters broadcast, and so does the result, to their full shape.
    The bundle's region is the box corner past its cuts at the lotteries;
    item 2's is item 1's on the swapped support.  A lottery at a_i = 1 is
    an item (1, 1, t_i): the cheapest such wins, the lowest index on a tie,
    with the bundle's region at its price.  So an item no type chooses
    moves no other area, and menus that differ only in it score exactly
    alike.  The item's and the lottery's areas are each computed only
    where some menu takes them.
    """
    c1, c2 = rect.c1, rect.c2

    def full1():
        return _pick(t1 <= tb, lambda: _full_area(rect, t1, -np.inf, _cut(a2, t2, t1, c2, t2 < t1)), lambda: 0.0)

    def full2():
        return _pick(t2 <= tb, lambda: _full_area(rect, t2, _cut(a1, t1, t2, c1, t1 <= t2), -np.inf), lambda: 0.0)

    area1 = _pick(a1 >= 1.0, full1, lambda: _lottery_area(rect, a1, a2, t1, t2, tb))
    area2 = _pick(a2 >= 1.0, full2, lambda: _lottery_area(rect.swapped(), a2, a1, t2, t1, tb))
    area_b = _full_area(rect, tb, _cut(a1, t1, tb, c1, t1 <= tb), _cut(a2, t2, tb, c2, t2 <= tb))
    rev = (t1 * area1 + t2 * area2 + tb * area_b) / rect.area
    return np.broadcast_to(rev, np.broadcast_shapes(*map(np.shape, (a1, a2, t1, t2, tb))))


def _overflow(error: str, flag: int) -> None:
    """numpy's error callback in the grid search: its prices, over their
    lottery weights or times the area, overflow the float range."""
    raise PriceOverflow(f"the grid search's prices overflow the float range ({error} in its arithmetic)")


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
    scan order is fixed, so repeated runs return identical menus.  A menu
    earns at most its bundle price, so each sweep skips the bundle prices
    that cannot reach the best score already found, on the coarse grid
    that of its pure-bundle line; the menu returned is the one a search
    scoring every grid point finds.  A
    support with b1 + b2 outside [4^-20, 4^20] is searched at unit size
    and the result scaled back exactly (``unit_scale``).  Raises
    ``UnitSizeOverflow`` where ``unit_scale`` refuses the support, and
    ``PriceOverflow`` where the search's arithmetic overflows.
    """
    if coarse < 8:
        raise ValueError(f"coarse must be at least 8, got {coarse}")
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be nonnegative, got {refine_rounds}")
    lam = unit_scale(rect)
    if lam != 1.0:
        menu, revenue = brute_force_menu_search(rect.scaled(1.0 / lam), coarse, refine_rounds)
        return tuple(replace(item, t=lam * item.t) for item in menu), lam * revenue
    t_hi = rect.z1_max + rect.z2_max
    if t_hi == math.inf:
        raise PriceOverflow("the price range [0, z1_max + z2_max] overflows the float range")
    # Each block allocates and frees 1 MB or more of 100-512 KiB temporaries.
    # By default glibc serves arrays of 128 KiB or more with fresh mmaps and
    # gives the heap back once 256 KiB lies free at its top, so every block
    # faulted its working set in again: about 2,800 minor faults a search at
    # coarse 8 with 2 rounds, 36,000 at the defaults.  Freeing an mmapped
    # block raises the mmap threshold to its size and the trim threshold to
    # twice that (mallopt(3)), after which a repeated search faults about
    # none.  Other allocators just allocate and free it; the mapping is
    # never touched, so it costs no page.
    np.empty(16 << 20, np.uint8)
    domains = ((0.0, 1.0), (0.0, 1.0), (0.0, t_hi), (0.0, t_hi), (0.0, t_hi))

    best_rev = -math.inf
    best: tuple[float, ...] | None = None

    def sweep(grids: list[np.ndarray], floor: float) -> None:
        nonlocal best_rev, best
        # A menu earns at most its bundle price, so a tb value under the
        # floor by more than the bound's slack holds no maximum; the grid
        # rises, so those values are a prefix.  Where rounding breaks the
        # bound, the prefix could be the whole grid, so the top is kept.
        tb = grids[4]
        grids = [*grids[:4], tb[min(np.count_nonzero(tb * (1.0 + _BOUND_SLACK) < floor), tb.size - 1) :]]
        fits = max(1, _CHUNK // math.prod(g.size for g in grids[1:]))
        for a1 in np.array_split(grids[0], -(-grids[0].size // fits)):
            part = [a1, *grids[1:]]
            axes = [g.reshape([-1 if d == dim else 1 for d in range(5)]) for g, dim in zip(part, _AXES)]
            rev = _family_revenue(rect, *axes).transpose(_AXES)
            k = int(np.argmax(rev))
            if rev.flat[k] > best_rev:
                best_rev = float(rev.flat[k])
                best = tuple(float(g[i]) for g, i in zip(part, np.unravel_index(k, rev.shape)))

    with np.errstate(over="call", invalid="call", call=_overflow):
        grids = [np.linspace(lo, hi, coarse) for lo, hi in domains]
        sweep(grids, float(np.max(_family_revenue(rect, 1.0, 1.0, t_hi, t_hi, grids[4]))))
        spacing = [(hi - lo) / (coarse - 1) for lo, hi in domains]
        for _ in range(refine_rounds):
            assert best is not None
            windows = [
                (max(dlo, center - h), min(dhi, center + h))
                for (dlo, dhi), h, center in zip(domains, spacing, best)
            ]
            sweep([np.linspace(lo, hi, _REFINE_POINTS) for lo, hi in windows], best_rev)
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
        if it.is_null or poly.area() > 1e-12
    )
    return menu, expected_revenue(menu, rect)


# ---------------------------------------------------------------------------
# Measure certificates
# ---------------------------------------------------------------------------

def _worst(a: float, b: float) -> float:
    """max(a, b), a on a tie, and NaN where either is NaN: a deviation that
    is NaN stays the largest, so the check that reads it fails."""
    return b if b > a or b != b else a


def _lottery_shuffle(rect: Rectangle, item: MenuItem, net: float, region: Polygon) -> Shuffle | None:
    """Shuffle of a lottery item (a, 1), a < 1, at net price ``net`` over its
    region's section of the top edge; of an item (1, a) on the swapped
    support, whose top edge is the right edge; else None.  The ramp ends
    where the line u2 = p_a - a u1 meets the bottom edge, or at the end for
    a flat price (a = 0); p_a = a = 0 is the two-step shuffle, broken at
    b1 b2 / c2."""
    if item.q2 == 1.0 and item.q1 < 1.0:
        frame, a, top = rect, item.q1, boundary_sections(region, 1, 1.0)
    elif item.q1 == 1.0 and item.q2 < 1.0:
        frame, a, top = rect.swapped(), item.q2, boundary_sections(region, 0, 1.0)
    else:
        return None
    end = frame.b1 * top[1] if top else 0.0
    if a > 0.0:
        ramp_end = min(net / a, end)
    elif net > 0.0 or frame.c2 == 0.0:
        ramp_end = end
    else:
        ramp_end = min(frame.b1 * frame.b2 / frame.c2, end)
    return Shuffle(frame, net, a, ramp_end, end)


def _measure_certificate(rect: Rectangle, menu: Menu, nets: tuple[float, ...]) -> tuple[dict, float, float, bool, float]:
    """Transformed-measure masses of the Z, A, B and W regions placed by
    the nets, the largest |mass| and moment deviation and the sign-pattern
    flag of the lotteries' shuffles, and the menu's revenue over the same
    regions.  Each first moment is a length, judged over the side of its
    edge; the two-step one certifies with any nonnegative value.  An item
    no type buys (an empty region) has neither mass nor shuffle."""
    mu = MuBar(rect)
    masses = dict.fromkeys("ZABW", 0.0)
    mass = moment = 0.0
    signs_ok = True
    regions = best_response_regions(rect, menu, nets)
    for item, net, region in zip(menu, nets, regions):
        key = "Z" if item.q1 == item.q2 == 0.0 else "W" if item.is_bundle else "A" if item.q2 == 1.0 else "B" if item.q1 == 1.0 else ""
        if not key:
            raise UncertifiedItem(f"no certificate judges the item {item}")
        if region.is_empty:  # no type buys the item
            continue
        masses[key] += mu.mass(region)
        sh = _lottery_shuffle(rect, item, net, region)
        if sh is not None:
            m = sh.first_moment() / sh.rect.b1
            mass = _worst(mass, abs(sh.mass()))
            moment = _worst(moment, _worst(0.0, -m) if sh.a == sh.p_a == 0.0 else abs(m))
            signs_ok = signs_ok and sh.sign_pattern_ok()
    return masses, mass, moment, signs_ok, sum(item.t * region.area() for item, region in zip(menu, regions))


# ---------------------------------------------------------------------------
# First-order conditions
# ---------------------------------------------------------------------------

def _free_coordinates(menu: Menu) -> list[tuple[int, str]]:
    """Menu coordinates with two-sided room to differentiate."""
    coords: list[tuple[int, str]] = []
    for i, item in enumerate(menu):
        if item.is_null:
            continue
        coords.append((i, "t"))
        for attr in ("q1", "q2"):
            v = getattr(item, attr)
            if FD_STEP < v < 1.0 - FD_STEP:
                coords.append((i, attr))
    return coords


def _perturbed(menu: Menu, i: int, attr: str, value: float) -> Menu:
    return menu[:i] + (replace(menu[i], **{attr: value}),) + menu[i + 1 :]


def _stationarity(menu: Menu, rect: Rectangle) -> tuple[float, float]:
    """(ascent-rate norm, largest second difference) over free menu coordinates.

    A price moves by ``FD_STEP`` (b1 + b2), a weight by ``FD_STEP``, and a
    revenue is read over b1 + b2.  One-sided slopes are judged separately:
    a coordinate contributes only the rate at which revenue rises in some
    direction, so a maximum at a kink (one-sided derivatives of opposite
    sign, as for the pinned lottery price of the two-item structures)
    certifies cleanly while any strictly improving move is flagged.
    """
    length = rect.b1 + rect.b2
    base = expected_revenue(menu, rect) / length
    grad_sq = 0.0
    max_hess = -math.inf
    for i, attr in _free_coordinates(menu):
        v = getattr(menu[i], attr)
        step = FD_STEP * length if attr == "t" else FD_STEP
        hi = expected_revenue(_perturbed(menu, i, attr, v + step), rect) / length
        up = (hi - base) / FD_STEP
        if attr == "t" and v < step:
            grad_sq += _worst(0.0, up) ** 2
            continue
        lo = expected_revenue(_perturbed(menu, i, attr, v - step), rect) / length
        down = (lo - base) / FD_STEP
        grad_sq += _worst(_worst(0.0, up), down) ** 2
        max_hess = _worst(max_hess, (hi - 2.0 * base + lo) / (FD_STEP * FD_STEP))
    if max_hess == -math.inf:
        max_hess = 0.0
    return math.sqrt(grad_sq), max_hess


def certificate_check(
    mech: Mechanism,
    rect: Rectangle,
    *,
    oracle_gap: float | None = None,
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
    The checks read the menu, its net prices (``mech.net_prices``, or
    t - q1 c1 - q2 c2 where the record has none), the revenue and the
    support, and nothing of the solver's kind or parameters.  The nets
    place the best-response polygons, over which the region masses
    integrate the transformed measure, and each price must equal its net
    plus its value at the corner (``price_form``).  Each lottery item's
    shuffle is built from its weight, its net and its region, and its
    closed-form mass and moment are checked; an item with neither a region
    mass nor a shuffle raises ``UncertifiedItem``; an item no type buys is
    not judged.  Stationarity differentiates the expected revenue
    numerically in every free menu coordinate (one-sided slopes judged
    separately so kink maxima certify), with prices moved by ``FD_STEP``
    (b1 + b2) and revenues read over b1 + b2, so that neither the step nor
    the verdict carries units.  The reported revenue must equal the menu's
    over the masses' polygons, so a wrong closed form fails
    ``revenue_form``.  A check fails where its value is NaN.  The checks
    run on the menu and support as given; one with b1 + b2 outside
    [4^-20, 4^20] is checked at unit size (``unit_scale``), with the
    revenue gap scaled back.  Raises ``UnitSizeOverflow`` where
    ``unit_scale`` refuses the support, and where the offsets factor
    1 + c1/b1 + c2/b2 overflows at the size checked, where the transformed
    measure's masses would read NaN.
    """
    lam = unit_scale(rect)
    if lam != 1.0:
        gap = None if oracle_gap is None else oracle_gap / lam
        report = certificate_check(mech.scaled(1.0 / lam), rect.scaled(1.0 / lam), oracle_gap=gap)
        return replace(report, revenue_gap=lam * report.revenue_gap, oracle_gap=oracle_gap)
    offsets = 1.0 + rect.c1 / rect.b1 + rect.c2 / rect.b2
    if offsets == math.inf:
        raise UnitSizeOverflow(
            f"the offsets ({rect.c1!r}, {rect.c2!r}) over the sides ({rect.b1!r}, {rect.b2!r}) "
            "overflow the transformed measure at the size the support is checked at"
        )
    menu = mech.menu
    nets = net_prices(rect, menu) if mech.net_prices is None else mech.net_prices
    mu_total = MuBar(rect).total()
    masses, shuffle_mass, shuffle_moment, signs_ok, revenue = _measure_certificate(rect, menu, nets)
    grad_norm, max_hess = _stationarity(menu, rect)
    revenue_gap = mech.revenue - revenue
    checks = {
        "price_form": any(
            not abs(item.t - (net + (item.q1 * rect.c1 + item.q2 * rect.c2))) <= PRICE_FORM_ULPS * math.ulp(item.t)
            for item, net in zip(menu, nets)
        ),
        "mu_D": not abs(mu_total) <= MU_D_TOL * offsets,
        "revenue_form": not abs(revenue_gap) <= REVENUE_TOL_REL * offsets * abs(mech.revenue),
        **{f"mu_{key}": not abs(masses[key]) <= min(REGION_TOL_REL, REGION_TOL_OFFSETS * offsets) for key in "ZABW"},
        "shuffle_mass": not shuffle_mass <= SHUFFLE_TOL,
        "shuffle_moment": not shuffle_moment <= SHUFFLE_TOL,
        "shuffle_sign": not signs_ok,
        "foc_gradient": not grad_norm < GRAD_TOL,
        "foc_curvature": not max_hess <= HESS_TOL * max(1.0, abs(mech.revenue) / (rect.b1 + rect.b2)),
        "oracle_gap_shortfall": oracle_gap is not None and not oracle_gap <= GAP_SHORTFALL_REL * abs(mech.revenue),
        "oracle_gap_beaten": oracle_gap is not None and not oracle_gap >= -GAP_EXCESS_REL * abs(mech.revenue),
    }
    failures = tuple(name for name, failed in checks.items() if failed)

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
        failures=failures,
    )
