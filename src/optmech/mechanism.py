"""From solved structure parameters to an explicit menu and its revenue.

The menu is the mechanism: the buyer picks the utility-maximizing entry
(or nothing).  Region areas under the uniform density give the revenue
exactly; no quadrature is involved anywhere.
"""

from __future__ import annotations

import math

from .geometry import best_response_regions
from .types import (
    NULL_ITEM,
    MenuItem,
    Mechanism,
    Rectangle,
    SolveParams,
    StructureKind,
)

Menu = tuple[MenuItem, ...]


class IncompleteParams(ValueError):
    """The structure parameters lack a field the requested kind needs."""


def _require(params: SolveParams | None, kind: StructureKind, *names: str) -> list[float]:
    if params is None:
        raise IncompleteParams(f"kind {kind.value} requires parameters {names}")
    out = []
    for name in names:
        v = getattr(params, name)
        if v is None:
            raise IncompleteParams(f"kind {kind.value} requires parameter {name!r}")
        out.append(v)
    return out


def menu_from_structure(kind: StructureKind, params: SolveParams | None, rect: Rectangle) -> Menu:
    """Explicit menu for a solved structure of kind A-E.

    Partial-lottery prices come from utility continuity across the
    exclusion boundary (t = c2 + p_a1 + a1 c1 and its mirror); the
    bundle price is c1 + c2 + p except for kind D, where continuity
    across the vertical boundary z1 = c1 + p forces
    t_bundle = t_a1 + (1 - a1)(c1 + p).  Kinds F, G and H are B, D and E
    with the goods exchanged; ``build_mechanism`` mirrors them.
    """
    c1, c2 = rect.c1, rect.c2
    K = StructureKind
    if kind is K.A:
        p_a1, p_a2, a1, a2, p = _require(params, kind, "p_a1", "p_a2", "a1", "a2", "p")
        return (
            NULL_ITEM,
            MenuItem(a1, 1.0, c2 + p_a1 + a1 * c1),
            MenuItem(1.0, a2, c1 + p_a2 + a2 * c2),
            MenuItem(1.0, 1.0, c1 + c2 + p),
        )
    if kind is K.B:
        p_a1, a1, p = _require(params, kind, "p_a1", "a1", "p")
        return (
            NULL_ITEM,
            MenuItem(a1, 1.0, c2 + p_a1 + a1 * c1),
            MenuItem(1.0, 1.0, c1 + c2 + p),
        )
    if kind is K.C:
        (p,) = _require(params, kind, "p")
        return (NULL_ITEM, MenuItem(1.0, 1.0, c1 + c2 + p))
    if kind is K.D:
        p_a1, a1, p = _require(params, kind, "p_a1", "a1", "p")
        t_a1 = c2 + p_a1 + a1 * c1
        return (
            NULL_ITEM,
            MenuItem(a1, 1.0, t_a1),
            MenuItem(1.0, 1.0, t_a1 + (1.0 - a1) * (c1 + p)),
        )
    if kind is K.E:
        return (
            MenuItem(0.0, 1.0, c2),
            MenuItem(1.0, 1.0, c2 + 0.5 * (c1 + rect.b1)),
        )
    raise IncompleteParams(
        f"kind {kind.value} is a mirrored structure; build it with build_mechanism"
    )


def utility(menu: Menu, z: tuple[float, float]) -> tuple[float, MenuItem]:
    """Buyer's value at type z and the entry achieving it.

    The outside option (0 at the null lottery) is always available; exact
    ties are broken toward the higher price, matching the closed-region
    convention used for the best-response polygons.
    """
    best_u = 0.0
    best_item = NULL_ITEM
    for item in menu:
        u = item.utility(z[0], z[1])
        if u > best_u or (u == best_u and item.t > best_item.t):
            best_u = u
            best_item = item
    return best_u, best_item


def expected_revenue(menu: Menu, rect: Rectangle) -> float:
    """Expected payment under the uniform density, from exact region areas."""
    regions = best_response_regions(rect, menu)
    total = 0.0
    for item, region in zip(menu, regions):
        if item.t != 0.0:
            total += item.t * region.area()
    return total / rect.area


def build_mechanism(kind: StructureKind, params: SolveParams | None, rect: Rectangle) -> Mechanism:
    """Assemble the full record: menu from the structure, revenue from the menu.

    Kinds F, G and H are built as B, D and E on the swapped support and
    mirrored back, so the menu formulas exist for kinds A-E only.
    """
    if kind in (StructureKind.F, StructureKind.G, StructureKind.H):
        mirrored = params.swapped() if params is not None else None
        return build_mechanism(kind.swapped(), mirrored, rect.swapped()).swapped()
    menu = menu_from_structure(kind, params, rect)
    return Mechanism(kind=kind, params=params, menu=menu, revenue=expected_revenue(menu, rect))
