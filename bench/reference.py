"""Independent revenue references for the benchmark's correctness checks.

Nothing here imports ``optmech``: every figure is computed from first
principles, so a check that compares the program against this module
cannot pass merely because both share a faulty code path.

A valuation density is a product of two marginals, each either uniform on
[c, c+b] (density 1/b) or linear on [c, c+1] (density 2z/(2c+1)).  For such
a product this module gives

* the best pure-bundle revenue, from the probability mass above the line
  z1 + z2 = s and a search over the bundle price s;
* the best separate-sale revenue, each good at its own optimal price;
* the full-surplus upper bound E[z1 + z2];
* the revenue of an arbitrary menu, by buyer argmax on an adaptively
  refined type grid, together with a rigorous bound on its error.
"""

from __future__ import annotations

import math

import numpy as np

# Gauss-Legendre nodes and weights on [-1, 1]; three nodes integrate
# polynomials up to degree 5 exactly, and every integrand below is a
# polynomial of degree at most 3 on each piece.
_GL_NODES = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
_GL_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Width, relative to the top of the price range, at which the bundle
#: price search stops.
_BUNDLE_REL_TOL = 1e-12

#: Menu grid: _GRID_BASE x _GRID_BASE cells, each still-mixed cell cut
#: into _GRID_SPLIT x _GRID_SPLIT sub-cells, _GRID_LEVELS times.
_GRID_BASE = 32
_GRID_SPLIT = 4
_GRID_LEVELS = 3


class Uniform:
    """Uniform marginal on [c, c+b]."""

    def __init__(self, c: float, b: float) -> None:
        if not (c >= 0.0 and b > 0.0):
            raise ValueError(f"need c >= 0 and b > 0, got c={c!r}, b={b!r}")
        self.lo, self.hi = c, c + b

    def pdf(self, z: float) -> float:
        return 1.0 / (self.hi - self.lo) if self.lo <= z <= self.hi else 0.0

    def sf(self, z: float) -> float:
        return min(1.0, max(0.0, (self.hi - z) / (self.hi - self.lo)))

    def cdf(self, z):
        return np.clip((np.asarray(z, float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def best_price(self) -> float:
        # p (hi - p) / b is maximised at hi/2, or at lo when that is higher
        return max(self.lo, 0.5 * self.hi)


class Linear:
    """Linear marginal with density 2z/(2c+1) on [c, c+1]."""

    def __init__(self, c: float) -> None:
        if not c >= 0.0:
            raise ValueError(f"need c >= 0, got {c!r}")
        self.lo, self.hi = c, c + 1.0
        self._norm = 2.0 * c + 1.0

    def pdf(self, z: float) -> float:
        return 2.0 * z / self._norm if self.lo <= z <= self.hi else 0.0

    def sf(self, z: float) -> float:
        z = min(self.hi, max(self.lo, z))
        return (self.hi * self.hi - z * z) / self._norm

    def cdf(self, z):
        z = np.clip(np.asarray(z, float), self.lo, self.hi)
        return (z * z - self.lo * self.lo) / self._norm

    def mean(self) -> float:
        return 2.0 * (self.hi**3 - self.lo**3) / (3.0 * self._norm)

    def best_price(self) -> float:
        # p ((c+1)^2 - p^2) has its stationary point at (c+1)/sqrt(3)
        return max(self.lo, self.hi / math.sqrt(3.0))


def separate_revenue(m1, m2) -> float:
    """Best revenue from pricing each good on its own."""
    return sum(m.best_price() * m.sf(m.best_price()) for m in (m1, m2))


def upper_bound(m1, m2) -> float:
    """E[z1 + z2]: no mechanism can extract more than the whole surplus."""
    return m1.mean() + m2.mean()


def bundle_sale_probability(m1, m2, s: float) -> float:
    """P(z1 + z2 >= s), integrating f1(z1) P(z2 >= s - z1) piece by piece."""
    def clamp(z1: float) -> float:
        return min(max(z1, m1.lo), m1.hi)

    # the integrand's breakpoints, where z2 = s - z1 leaves the support
    cuts = sorted({m1.lo, m1.hi, clamp(s - m2.hi), clamp(s - m2.lo)})
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        for x, w in zip(_GL_NODES, _GL_WEIGHTS):
            z1 = mid + half * x
            total += w * half * m1.pdf(z1) * m2.sf(s - z1)
    return total


def bundle_revenue(m1, m2) -> tuple[float, float]:
    """Best pure-bundle (price, revenue).

    The sum of two independent log-concave valuations is log-concave, so
    s P(z1 + z2 >= s) is unimodal in s and a golden-section search finds
    its maximum.  The price returned is feasible, so the revenue is an
    achievable lower bound on the optimum.
    """
    lo, hi = m1.lo + m2.lo, m1.hi + m2.hi

    def rev(s: float) -> float:
        return s * bundle_sale_probability(m1, m2, s)

    a, b = lo, hi
    x1, x2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f1, f2 = rev(x1), rev(x2)
    while b - a > _BUNDLE_REL_TOL * hi:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = rev(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = rev(x1)
    return max((lo, rev(lo)), (x1, f1), (x2, f2), key=lambda sv: sv[1])


def lower_bound(m1, m2) -> float:
    """The larger of the best bundle and the best separate-sale revenue."""
    return max(bundle_revenue(m1, m2)[1], separate_revenue(m1, m2))


def menu_revenue(menu, m1, m2) -> tuple[float, float]:
    """Revenue of a menu of (q1, q2, t) lotteries, with an error bound.

    Types choose the utility-maximising item, or nothing at utility 0.
    The support is cut into _GRID_BASE x _GRID_BASE cells.  A cell whose
    four corners choose the same item lies wholly in that item's region
    (each region {u_k >= u_j for all j} is convex), so it is counted
    exactly with the cell's probability mass.  Mixed cells are cut into
    _GRID_SPLIT x _GRID_SPLIT sub-cells, _GRID_LEVELS times; a cell still
    mixed at the end is counted
    at its centre's choice, and contributes its mass times the spread of
    the menu's prices to the returned error bound.

    Returns
    -------
    (revenue, error_bound)
        The estimate and a bound on |estimate - exact revenue|.
    """
    items = sorted(((float(q1), float(q2), float(t)) for q1, q2, t in menu), key=lambda it: -it[2])
    items.append((0.0, 0.0, 0.0))  # the outside option
    q1 = np.array([it[0] for it in items])[:, None]
    q2 = np.array([it[1] for it in items])[:, None]
    price = np.array([it[2] for it in items])
    spread = float(price.max() - price.min())

    def choice(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
        # items are sorted by descending price, so argmax breaks exact ties
        # toward the dearer item, as a buyer indifferent between them may
        z1, z2 = np.broadcast_arrays(z1, z2)
        u = q1 * z1.ravel()[None, :] + q2 * z2.ravel()[None, :] - price[:, None]
        return np.argmax(u, axis=0).reshape(z1.shape)

    def mass(x0, x1, y0, y1):
        return (m1.cdf(x1) - m1.cdf(x0)) * (m2.cdf(y1) - m2.cdf(y0))

    # Level 0 is the base grid of cells; each later level cuts every
    # still-mixed cell into sub-cells.  Choices are evaluated
    # once per grid node, so a cell reads its four corners from a shared
    # (n+1) x (n+1) block of nodes.
    w = (m1.hi - m1.lo) / _GRID_BASE
    h = (m2.hi - m2.lo) / _GRID_BASE
    x0 = np.array([m1.lo])
    y0 = np.array([m2.lo])
    n = _GRID_BASE
    revenue = 0.0
    for level in range(_GRID_LEVELS + 1):
        steps = np.arange(n + 1)
        nodes = choice(
            x0[:, None, None] + w * steps[None, :, None],
            y0[:, None, None] + h * steps[None, None, :],
        )
        corner = nodes[:, :-1, :-1]
        uniform = (
            (corner == nodes[:, 1:, :-1]) & (corner == nodes[:, :-1, 1:]) & (corner == nodes[:, 1:, 1:])
        )
        cx = x0[:, None, None] + w * steps[None, :-1, None]
        cy = y0[:, None, None] + h * steps[None, None, :-1]
        cx, cy = np.broadcast_to(cx, corner.shape), np.broadcast_to(cy, corner.shape)
        xs, ys = cx[uniform], cy[uniform]
        revenue += float(np.dot(price[corner[uniform]], mass(xs, xs + w, ys, ys + h)))
        x0, y0 = cx[~uniform], cy[~uniform]
        if x0.size == 0:
            return revenue, 0.0
        if level < _GRID_LEVELS:
            w, h, n = w / _GRID_SPLIT, h / _GRID_SPLIT, _GRID_SPLIT
    centre = choice(x0 + 0.5 * w, y0 + 0.5 * h)
    cells = mass(x0, x0 + w, y0, y0 + h)
    revenue += float(np.dot(price[centre], cells))
    return revenue, spread * float(cells.sum())
