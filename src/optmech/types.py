"""Core value types shared by every other module.

Everything here is an immutable record: a value rectangle, a menu entry,
the structural kind of a solution, a structure as the solver returns it,
the solved geometric parameters, and the final mechanism bundle; and
``unit_scale``, the exact power-of-4 scale at which the solver and the
verifier each run a support far from unit size.  JSON serialization
writes each float in its shortest repr, which reads back exactly.

Each record is a frozen dataclass with its own ``__init__``: it checks
the arguments, then sets the instance ``__dict__`` to a new dict of the
fields in declaration order, in one ``object.__setattr__`` call where
the generated one makes a call per field.  (Filling the dict the
instance already has would be cheaper still, but on CPython 3.11 it
leaves every later attribute read about four times slower.)  The
dataclass still gives the equality, hash, repr, ``fields`` and
``replace`` (which re-runs the checks); pickling and copying restore
``__dict__`` as before.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass, field, fields


#: Writes a record's whole ``__dict__`` past the frozen ``__setattr__``.
_set = object.__setattr__


class NonPositiveSide(ValueError):
    """A rectangle side length b1 or b2 is zero or negative."""


class NegativeCorner(ValueError):
    """A rectangle corner coordinate c1 or c2 is negative."""


class PriceOverflow(ValueError):
    """A price overflows the float range: the support's values lie too near
    its top for the menu to be written."""


class UnitSizeOverflow(ValueError):
    """A corner offset overflows when a support with tiny sides is brought to
    unit size (``unit_scale``), the area b1 b2 is subnormal at the size the
    support runs at, or an offset over its side overflows where the
    certificate checks it: its offsets, or one side, lie too far from the
    other side for the solver and the verifier to run it."""


@dataclass(frozen=True, init=False)
class Rectangle:
    """Axis-aligned value support [c1, c1+b1] x [c2, c2+b2].

    Parameters
    ----------
    c1, c2 : float
        Lower-left corner, must be >= 0.
    b1, b2 : float
        Side lengths, must be > 0.
    """

    c1: float
    c2: float
    b1: float
    b2: float

    def __init__(self, c1: float, c2: float, b1: float, b2: float) -> None:
        # each comparison is False for NaN
        if not 0.0 < b1 < math.inf:
            raise NonPositiveSide(f"b1 must be finite and > 0, got {b1!r}")
        if not 0.0 < b2 < math.inf:
            raise NonPositiveSide(f"b2 must be finite and > 0, got {b2!r}")
        if not 0.0 <= c1 < math.inf:
            raise NegativeCorner(f"c1 must be finite and >= 0, got {c1!r}")
        if not 0.0 <= c2 < math.inf:
            raise NegativeCorner(f"c2 must be finite and >= 0, got {c2!r}")
        _set(self, "__dict__", {"c1": c1, "c2": c2, "b1": b1, "b2": b2})

    @property
    def z1_max(self) -> float:
        return self.c1 + self.b1

    @property
    def z2_max(self) -> float:
        return self.c2 + self.b2

    @property
    def area(self) -> float:
        return self.b1 * self.b2

    def swapped(self) -> "Rectangle":
        """The same support with the two goods exchanged."""
        return Rectangle(self.c2, self.c1, self.b2, self.b1)

    def scaled(self, lam: float) -> "Rectangle":
        """The support with all coordinates multiplied by lam > 0."""
        return Rectangle(lam * self.c1, lam * self.c2, lam * self.b1, lam * self.b2)


#: The least area b1 b2 a support runs at.
_MIN_AREA = sys.float_info.min


def unit_scale(rect: Rectangle) -> float:
    """The power of 4 that brings b1 + b2 into [1, 4), or 1.0 while b1 + b2
    lies in [4^-20, 4^20], where the solver and the verifier run on the
    support as given.

    Multiplying by a power of 4 is exact in floats, square roots included,
    so a result computed on ``rect.scaled(1 / unit_scale(rect))`` and
    scaled back is the unit-size one to the bit while it stays in the
    normal range, free of the overflow and underflow of the support's
    squares and products.  The power stays within 4^-511 and 4^511, so it
    and its inverse are finite.  Raises ``UnitSizeOverflow`` where a corner
    offset overflows at unit size, or where the area b1 b2 at the size the
    support runs at is subnormal, below ``sys.float_info.min``: there the
    solver's coefficients, products of the sides, lose digits, and its
    prices with them.  So every support that runs has a normal area, which
    each division by the area, and each test against a multiple of it,
    rests on.
    """
    b1, b2 = rect.b1, rect.b2
    width = b1 + b2
    if 4.0**-20 <= width <= 4.0**20:
        if b1 * b2 >= _MIN_AREA:
            return 1.0
    else:
        # width in [2^(e-1), 2^e); an overflowed sum lies in [2^1024, 2^1025)
        e = math.frexp(width)[1] if width < math.inf else 1025
        lam = math.ldexp(1.0, 2 * min(max((e - 1) // 2, -511), 511))
        if max(rect.c1, rect.c2) / lam == math.inf:
            raise UnitSizeOverflow(
                f"the corner ({rect.c1!r}, {rect.c2!r}) overflows at unit size, "
                f"scaled by {1.0 / lam!r} to bring the sides to about 1"
            )
        if b1 / lam * (b2 / lam) >= _MIN_AREA:
            return lam
    raise UnitSizeOverflow(f"the sides ({b1!r}, {b2!r}) leave a subnormal area at the size the support runs at")


@dataclass(frozen=True, init=False)
class MenuItem:
    """One lottery on the menu: win good i with probability q_i, pay t."""

    q1: float
    q2: float
    t: float

    def __init__(self, q1: float, q2: float, t: float) -> None:
        if not 0.0 <= q1 <= 1.0:
            raise ValueError(f"q1 must lie in [0, 1], got {q1!r}")
        if not 0.0 <= q2 <= 1.0:
            raise ValueError(f"q2 must lie in [0, 1], got {q2!r}")
        if not 0.0 <= t < math.inf:
            if t == math.inf:
                raise PriceOverflow("a menu price overflows the float range")
            raise ValueError(f"t must be finite and >= 0, got {t!r}")
        _set(self, "__dict__", {"q1": q1, "q2": q2, "t": t})

    @property
    def is_null(self) -> bool:
        return self.q1 == 0.0 and self.q2 == 0.0 and self.t == 0.0

    @property
    def is_bundle(self) -> bool:
        return self.q1 == 1.0 and self.q2 == 1.0


NULL_ITEM = MenuItem(0.0, 0.0, 0.0)


class StructureKind(enum.Enum):
    """Structural shape of the optimal mechanism."""

    A = "A"  # two partial single-good lotteries plus the bundle
    B = "B"  # partial lottery on good 1 plus the bundle
    F = "F"  # partial lottery on good 2 plus the bundle
    C = "C"  # pure bundling
    D = "D"  # good-2 lottery with a partial good-1 component, plus the bundle
    E = "E"  # deterministic good 2 alone, plus the bundle
    G = "G"  # mirror of D
    H = "H"  # mirror of E

    # members are singletons compared by identity: hash them as objects,
    # not by name through the Python-level ``Enum.__hash__``
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    def swapped(self) -> "StructureKind":
        """The kind of the same structure with the two goods exchanged
        (A and C are their own mirrors)."""
        return _MIRROR_KIND[self]


_MIRROR_KIND = {
    StructureKind(kind): StructureKind(mirror)
    for kind, mirror in ("AA", "BF", "CC", "DG", "EH", "FB", "GD", "HE")
}

#: A structure as the solver returns it: (kind, ``SolveParams`` fields,
#: swap), with kind one of A-E and the fields in the frame it was solved
#: in; with ``swap``, the goods were exchanged, and the structure is its
#: mirror, of kind ``kind.swapped()``.
Structure = tuple[StructureKind, dict, bool]


@dataclass(frozen=True, init=False)
class SolveParams:
    """Geometric parameters of a solved structure.

    Fields not meaningful for a given kind are None.  P and Q are the
    corner points of the exclusion-region roof, in absolute coordinates.
    """

    p_a1: float | None = None
    p_a2: float | None = None
    a1: float | None = None
    a2: float | None = None
    m1: float | None = None
    m2: float | None = None
    p: float | None = None
    P: tuple[float, float] | None = None
    Q: tuple[float, float] | None = None

    def __init__(
        self,
        p_a1: float | None = None,
        p_a2: float | None = None,
        a1: float | None = None,
        a2: float | None = None,
        m1: float | None = None,
        m2: float | None = None,
        p: float | None = None,
        P: tuple[float, float] | None = None,
        Q: tuple[float, float] | None = None,
    ) -> None:
        _set(self, "__dict__", {
            "p_a1": p_a1, "p_a2": p_a2, "a1": a1, "a2": a2, "m1": m1, "m2": m2, "p": p, "P": P, "Q": Q,
        })

    def scaled(self, lam: float) -> "SolveParams":
        """The parameters on the support scaled by lam > 0: edge prices,
        kinks, the bundle offset and the roof points scale; the lottery
        weights a1 and a2 do not."""

        def times(v: float | None) -> float | None:
            return None if v is None else lam * v

        P, Q = self.P, self.Q
        # positional, in field order: p_a1, p_a2, a1, a2, m1, m2, p, P, Q
        return SolveParams(
            times(self.p_a1), times(self.p_a2), self.a1, self.a2, times(self.m1), times(self.m2),
            times(self.p),
            None if P is None else (lam * P[0], lam * P[1]),
            None if Q is None else (lam * Q[0], lam * Q[1]),
        )

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    @classmethod
    def mirrored(
        cls,
        p_a1: float | None = None,
        p_a2: float | None = None,
        a1: float | None = None,
        a2: float | None = None,
        m1: float | None = None,
        m2: float | None = None,
        p: float | None = None,
        P: tuple[float, float] | None = None,
        Q: tuple[float, float] | None = None,
    ) -> "SolveParams":
        """The parameters of the mirror of the structure with these
        parameters, made in one step from its fields (``mirrored(**vars(q))``
        mirrors a ``SolveParams`` q).  Indices 1 and 2 trade places, and the
        roof corners P and Q trade places and coordinates."""
        # positional, in field order: p_a1, p_a2, a1, a2, m1, m2, p, P, Q
        return cls(
            p_a2, p_a1, a2, a1, m2, m1, p,
            None if Q is None else (Q[1], Q[0]),
            None if P is None else (P[1], P[0]),
        )


@dataclass(frozen=True, init=False)
class Mechanism:
    """A selling mechanism: structural kind, parameters, menu, revenue, and
    each item's net price t - q1 c1 - q2 c2 in menu order as the solver
    formed it (None where unknown; not in equality, JSON or ``pretty``).
    It holds any menu; the shape of ``solve``'s menus is tested, not
    checked here."""

    kind: StructureKind
    params: SolveParams | None
    menu: tuple[MenuItem, ...]
    revenue: float
    net_prices: tuple[float, ...] | None = field(default=None, compare=False)

    def __init__(
        self,
        kind: StructureKind,
        params: SolveParams | None,
        menu: tuple[MenuItem, ...],
        revenue: float,
        net_prices: tuple[float, ...] | None = None,
    ) -> None:
        if net_prices is not None and len(net_prices) != len(menu):
            raise ValueError(f"{len(net_prices)} net prices for {len(menu)} menu items")
        _set(self, "__dict__", {
            "kind": kind, "params": params, "menu": menu, "revenue": revenue, "net_prices": net_prices,
        })

    def scaled(self, lam: float) -> "Mechanism":
        """The mechanism for the support scaled by lam > 0: prices, net
        prices, the scaled parameters and revenue; allocations stay."""
        menu = tuple(MenuItem(item.q1, item.q2, lam * item.t) for item in self.menu)
        params = self.params.scaled(lam) if self.params is not None else None
        nets = None if self.net_prices is None else tuple(lam * net for net in self.net_prices)
        return Mechanism(self.kind, params, menu, lam * self.revenue, nets)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "params": self.params.to_dict() if self.params is not None else None,
            "menu": [{"q1": i.q1, "q2": i.q2, "t": i.t} for i in self.menu],
            "revenue": self.revenue,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def pretty(self) -> str:
        """Human-readable summary, values rounded to 6 significant digits."""

        def fmt(v: float) -> str:
            return f"{v:.6g}"

        lines = [f"kind: {self.kind.value}", f"revenue: {fmt(self.revenue)}", "menu:"]
        for item in self.menu:
            lines.append(
                f"  (q1={fmt(item.q1)}, q2={fmt(item.q2)}) at t={fmt(item.t)}"
            )
        if self.params is not None:
            shown = []
            for f in fields(self.params):
                v = getattr(self.params, f.name)
                if v is None:
                    continue
                if isinstance(v, tuple):
                    shown.append(f"{f.name}=({fmt(v[0])}, {fmt(v[1])})")
                else:
                    shown.append(f"{f.name}={fmt(v)}")
            if shown:
                lines.append("params: " + ", ".join(shown))
        return "\n".join(lines)
