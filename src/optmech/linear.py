"""Optimal menus for the symmetric linear-density family.

Each valuation is drawn independently with density f(z) = 2z/(2c+1) on
[c, c+1].  The optimal menu keeps the four-item structure with one sloped
boundary segment per side; three balance equations (transported mass of
the boundary segment, its first moment, and the mass balance of the
bundle region) pin down the parameters (p_a1, a1, P1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import Polygon, best_response_regions
from .types import NULL_ITEM, MenuItem, Rectangle

__all__ = [
    "C_MAX",
    "GenShuffleAlpha",
    "LinearDensityInstance",
    "LinearSolution",
    "NoConvergence",
    "OutOfRange",
    "linear_revenue",
    "solve_linear",
]

#: Largest lower endpoint for which the sloped-boundary structure holds;
#: at this value the boundary slope a1 reaches 1 and the sloped segment
#: becomes parallel to the bundle boundary.
C_MAX = 0.250116

_SQRT06 = math.sqrt(0.6)

# Newton seeds transition from the small-c expansion to stepwise
# continuation above this lower endpoint.
_ANCHOR_C = 0.15

_REL_TOL = 1e-11
_MAX_NEWTON = 60


class OutOfRange(ValueError):
    """Lower endpoint outside the supported interval [0, C_MAX]."""


class NoConvergence(RuntimeError):
    """The balance-equation solver failed to reach the requested accuracy."""


@dataclass(frozen=True)
class LinearDensityInstance:
    """One-parameter family member: density 2z/(2c+1) on [c, c+1]."""

    c: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.c):
            raise OutOfRange(f"c must be finite, got {self.c!r}")
        if self.c < 0.0 or self.c > C_MAX:
            raise OutOfRange(f"c={self.c!r} outside [0, {C_MAX}]")

    @property
    def z_min(self) -> float:
        return self.c

    @property
    def z_max(self) -> float:
        return self.c + 1.0

    def density(self, z: float) -> float:
        return 2.0 * z / (2.0 * self.c + 1.0)

    def cdf(self, z: float) -> float:
        return (z * z - self.c * self.c) / (2.0 * self.c + 1.0)


@dataclass(frozen=True)
class GenShuffleAlpha:
    """Boundary measure with a point mass at z1=c and a density on (c, P1].

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


@dataclass(frozen=True)
class LinearSolution:
    """Solved menu parameters for one family member.

    The menu is symmetric: the sloped boundary on the other side uses the
    same (p_a1, a1) and the kink points mirror, Q = (P2, P1).
    """

    c: float
    p_a1: float
    a1: float
    P1: float
    P2: float
    p: float

    @property
    def t_a1(self) -> float:
        """Price of the partial item with allocation (a1, 1)."""
        return self.c * (1.0 + self.a1) + self.p_a1

    @property
    def t_bundle(self) -> float:
        return self.p

    def menu(self) -> tuple[MenuItem, ...]:
        """Menu items; allocation components are clipped to [0, 1]."""
        a = min(max(self.a1, 0.0), 1.0)
        return (
            NULL_ITEM,
            MenuItem(a, 1.0, self.t_a1),
            MenuItem(1.0, a, self.t_a1),
            MenuItem(1.0, 1.0, self.p),
        )

    def to_dict(self) -> dict[str, float]:
        return {
            "c": self.c,
            "p_a1": self.p_a1,
            "a1": self.a1,
            "P1": self.P1,
            "P2": self.P2,
            "p": self.p,
        }


# ---------------------------------------------------------------------------
# balance equations (all polynomial in their arguments, written in the
# unnormalized scale where the density carries no 1/(2c+1)^2 factor)


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


def _mu_w(c: float, pa: float, a: float, P1: float) -> float:
    """Mass balance of the bundle region (edge, interior, and the add-back
    triangle below the bundle boundary)."""
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


def _mu_w_coeffs(c: float, pa: float, a: float) -> np.ndarray:
    """Ascending quartic coefficients of s^2 * _mu_w as a polynomial in P1."""
    k = (c + 1.0) ** 2
    a0 = c + pa + a * c
    x = np.array([0.0, 1.0])
    p2 = np.array([a0, -a])
    p = npoly.polyadd(p2, x)
    kmx2 = np.array([k, 0.0, -1.0])
    out = npoly.polymul(np.array([4.0 * k]), kmx2)
    out = npoly.polyadd(out, -5.0 * npoly.polymul(kmx2, kmx2))
    x2 = npoly.polymul(x, x)
    p2sq = npoly.polymul(p2, p2)
    tri = npoly.polymul(npoly.polysub(npoly.polymul(p, p), x2), npoly.polysub(p2sq, x2))
    tri = npoly.polysub(
        tri,
        npoly.polymul((4.0 / 3.0) * p, npoly.polysub(npoly.polymul(p2sq, p2), npoly.polymul(x2, x))),
    )
    tri = npoly.polyadd(
        tri,
        0.5 * npoly.polysub(npoly.polymul(p2sq, p2sq), npoly.polymul(x2, x2)),
    )
    out = npoly.polyadd(out, 5.0 * tri)
    full = np.zeros(5)
    full[: out.size] = out
    return full


def _P1_candidates(c: float, pa: float, a: float) -> list[float]:
    """Real roots of the bundle-region balance that give a valid kink pair."""
    coeffs = _mu_w_coeffs(c, pa, a)
    a0 = c + pa + a * c
    top = c + 1.0
    out = []
    for r in npoly.polyroots(coeffs):
        if abs(r.imag) > 1e-9 * max(1.0, abs(r.real)):
            continue
        x = float(r.real)
        if not c < x <= top + 1e-12:
            continue
        p2 = a0 - a * x
        if p2 < x - 1e-10 or p2 > top + 1e-9:
            continue
        out.append(x)
    return sorted(out)


def _residual_scales(c: float, pa: float, a: float, P1: float) -> tuple[float, float, float]:
    """Natural magnitudes of the three balance equations, for relative tests."""
    k = (c + 1.0) ** 2
    s = 2.0 * c + 1.0
    u = c + pa
    a0 = u + a * c
    k2 = abs(3.0 * k - 5.0 * a0 * a0)
    k3 = abs(20.0 * a0 * a / 3.0)
    k4 = abs(2.5 * a * a)
    tm = 2.0 * c * c * abs(k - u * u) + k2 * P1 * P1 + k3 * P1**3 + k4 * P1**4
    te = (k2 + k3 * P1 + k4 * P1 * P1) * P1**3
    onem = (k - P1 * P1) / s
    tw = 4.0 * k * abs(onem) / s + 5.0 * onem * onem + 1.0
    # floor the scales so rounding noise in the 3k - 5*a0^2 cancellation
    # (absolute size ~eps*k) cannot dominate the relative test at small c
    floor = 1e-4 * k * max(P1, c) ** 2
    return max(tm, floor), max(te, floor * max(P1, c)), tw


def _relative_residual(c: float, pa: float, a: float, P1: float) -> float:
    tm, te, tw = _residual_scales(c, pa, a, P1)
    return max(
        abs(_marginal(c, pa, a, P1)) / tm,
        abs(_expectation(c, pa, a, P1)) / te,
        abs(_mu_w(c, pa, a, P1)) / tw,
    )


def _newton3(
    c: float, pa: float, a: float, P1: float
) -> tuple[float, float, float, float] | None:
    """Damped Newton on the three balance equations; returns the iterate
    and its relative residual, or None if it left the valid domain."""

    def f(v: np.ndarray) -> np.ndarray:
        return np.array(
            [
                _marginal(c, v[0], v[1], v[2]),
                _expectation(c, v[0], v[1], v[2]),
                _mu_w(c, v[0], v[1], v[2]),
            ]
        )

    v = np.array([pa, a, P1])
    best: tuple[float, np.ndarray] = (math.inf, v)
    for _ in range(_MAX_NEWTON):
        r = f(v)
        rel = _relative_residual(c, *v)
        if rel < best[0]:
            best = (rel, v.copy())
        jac = np.zeros((3, 3))
        for j in range(3):
            h = 1e-8 * max(0.05, abs(v[j]))
            vp = v.copy()
            vm = v.copy()
            vp[j] += h
            vm[j] -= h
            jac[:, j] = (f(vp) - f(vm)) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            break
        nrm = float(np.max(np.abs(step)))
        if nrm > 0.03:
            step *= 0.03 / nrm
        v = v - step
        if not (0.0 < v[0] < 1.5 and -0.5 < v[1] < 2.0 and c < v[2] < c + 1.0):
            break
        if nrm < 1e-14:
            rel = _relative_residual(c, *v)
            if rel < best[0]:
                best = (rel, v.copy())
            break
    rel, v = best
    if not math.isfinite(rel):
        return None
    return float(v[0]), float(v[1]), float(v[2]), rel


def _seed(c: float) -> tuple[float, float, float]:
    """Small-c expansion of the solution, refined through the kink root."""
    wstar = _SQRT06 * (c + 1.0)
    big_l = 0.3163 * (c + 1.0)
    pa, a = wstar - c, 0.0
    for _ in range(3):
        y = (
            12.0
            * ((c + 1.0) ** 2 - wstar * wstar)
            / (5.0 * wstar * big_l**3 * (1.0 + 6.0 * c / big_l))
        )
        a = y * c * c
        pa = wstar - c + 0.75 * y * big_l * c * c
        cands = _P1_candidates(c, pa, a)
        if not cands:
            break
        big_l = cands[0] - c
    return pa, a, c + big_l


def _solve_positive(c: float) -> tuple[float, float, float]:
    """Solve the three balance equations for 0 < c <= C_MAX."""
    if c <= _ANCHOR_C:
        got = _newton3(c, *_seed(c))
        if got is None or got[3] > _REL_TOL:
            rel = "none" if got is None else f"{got[3]:.2e}"
            raise NoConvergence(f"direct solve failed at c={c!r} (residual {rel})")
        return got[0], got[1], got[2]

    pa, a, P1 = _solve_positive(_ANCHOR_C)
    cur = _ANCHOR_C
    step = 0.01
    while cur < c:
        nxt = min(cur + step, c)
        got = _newton3(nxt, pa, a, P1)
        if got is None or got[3] > _REL_TOL or abs(got[1] - a) > 0.2:
            step *= 0.5
            if step < 1e-7:
                raise NoConvergence(
                    f"continuation stalled at c={cur!r} heading to {c!r}"
                )
            continue
        pa, a, P1 = got[0], got[1], got[2]
        cur = nxt
        step = min(step * 1.5, 0.01)
    return pa, a, P1


def solve_linear(c: float, *, root: str = "above_flat") -> LinearSolution:
    """Solve the balance equations for the linear-density family.

    Parameters
    ----------
    c : float
        Lower endpoint of the support, in [0, C_MAX].
    root : {"above_flat", "interior"}, optional
        Only used at c=0, where the boundary is flat (a1=0) and the
        bundle-region balance is a quartic with two positive roots.
        "above_flat" selects the root exceeding the flat boundary height
        sqrt(0.6) and reads it as the bundle price.  "interior" selects
        the root inside the valuation square and reads it as the kink
        coordinate P1, which is the reading that zeroes the bundle-region
        balance.  Ignored for c > 0.

    Returns
    -------
    LinearSolution
        Parameters (p_a1, a1, P1, P2, p) with p = P1 + P2 the bundle
        price and t_a1 = c*(1+a1) + p_a1 the partial-item price.

    Raises
    ------
    OutOfRange
        If c is outside [0, C_MAX].
    NoConvergence
        If the Newton continuation cannot reach the requested accuracy.
    """
    inst = LinearDensityInstance(c)
    if root not in ("above_flat", "interior"):
        raise ValueError(f"unknown root selection {root!r}")
    if inst.c == 0.0:
        coeffs = _mu_w_coeffs(0.0, _SQRT06, 0.0)
        reals = sorted(
            float(r.real) for r in npoly.polyroots(coeffs) if abs(r.imag) < 1e-9
        )
        if root == "above_flat":
            above = [r for r in reals if r > _SQRT06]
            if not above:
                raise NoConvergence("no balance root above the flat boundary at c=0")
            p = above[0]
            P1 = p - _SQRT06
        else:
            inside = [r for r in reals if 0.0 < r <= 1.0]
            if not inside:
                raise NoConvergence("no interior balance root at c=0")
            P1 = inside[0]
            p = P1 + _SQRT06
        return LinearSolution(c=0.0, p_a1=_SQRT06, a1=0.0, P1=P1, P2=_SQRT06, p=p)

    pa, a, P1 = _solve_positive(inst.c)
    rel = _relative_residual(inst.c, pa, a, P1)
    if rel > 1e-9:
        raise NoConvergence(f"residual {rel:.2e} at c={c!r} after continuation")
    P2 = inst.c + pa - a * (P1 - inst.c)
    return LinearSolution(c=inst.c, p_a1=pa, a1=a, P1=P1, P2=P2, p=P1 + P2)


def _xy_moment(poly: Polygon) -> float:
    """Exact integral of z1*z2 over a polygon, by the boundary formula."""
    if poly.is_empty:
        return 0.0
    vs = poly.vertices
    total = 0.0
    for i in range(len(vs)):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % len(vs)]
        dx = x1 - x0
        dy = y1 - y0
        inner = (
            x0 * x0 * y0
            + 0.5 * (x0 * x0 * dy + 2.0 * x0 * dx * y0)
            + (2.0 * x0 * dx * dy + dx * dx * y0) / 3.0
            + 0.25 * dx * dx * dy
        )
        total += 0.5 * dy * inner
    return total


def linear_revenue(params: LinearSolution | tuple[float, float, float, float], c: float) -> float:
    """Expected revenue of the solved menu under the linear density.

    Parameters
    ----------
    params : LinearSolution or (p_a1, a1, P1, p) tuple
        Menu parameters.  A tuple is completed symmetrically.
    c : float
        Lower endpoint of the support, in [0, C_MAX].

    Returns
    -------
    float
        Expected revenue, computed from exact polygon moments of the
        bilinear density 4*z1*z2/(2c+1)^2 over the best-response regions.
    """
    inst = LinearDensityInstance(c)
    if isinstance(params, LinearSolution):
        sol = params
    else:
        pa, a1, P1, p = params
        P2 = p - P1
        sol = LinearSolution(c=inst.c, p_a1=pa, a1=a1, P1=P1, P2=P2, p=p)
    rect = Rectangle(inst.c, inst.c, 1.0, 1.0)
    menu = sol.menu()
    regions = best_response_regions(rect, menu)
    scale = 4.0 / (2.0 * inst.c + 1.0) ** 2
    total = 0.0
    for item, region in zip(menu, regions):
        if item.is_null:
            continue
        total += item.t * scale * _xy_moment(region)
    return total
