"""``real_roots_in_interval`` against the companion-matrix reference.

``helpers.polyroots_real_roots_in_interval`` polishes numpy's companion
eigenvalues in clusters.  Seeded polynomials check that Newton's method on
the monotone pieces finds the same roots, and seeded supports that
``solve`` returns the same mechanism with either root finder.
"""

import math
import random
import sys
import warnings
from fractions import Fraction

import pytest

import optmech.solver
from helpers import log_uniform, polyroots_real_roots_in_interval
from optmech.solver import ROOT_DOUBLE_ULPS, ROOT_REL_TOL, real_roots_in_interval, solve
from optmech.types import Rectangle


def _spaced(rng, n, gap):
    while True:
        roots = sorted(rng.uniform(-1.5, 1.5) for _ in range(n))
        if all(b - a >= gap for a, b in zip(roots, roots[1:])):
            return rng.sample(roots, n)


def _product(*factors):
    """Ascending coefficients of a product of polynomials."""
    out = [1.0]
    for f in factors:
        prod = [0.0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _pair(a, d):
    """(x - a)^2 + d^2: a complex pair d off the real axis."""
    return [a * a + d * d, -2.0 * a, 1.0]


# Roots are 0.01 apart or more, or exactly double; complex pairs lie
# 3e-7..1e-6 off the axis (the polynomial's minimum there, d^2, is far
# above rounding) or within 1e-9 (far below it: a double root).  A small
# real root beside a larger pair is the one case deflated forward.
FAMILIES = (
    "three real",
    "small leading",
    "double and simple",
    "near-real pair",
    "touching pair",
    "small root and touching pair",
    "two real",
    "quadratic pair",
    "quadratic double",
)


def _polynomial(rng, family):
    """Ascending coefficients of a seeded member of the family, each factor
    rounded before the product is."""
    if family == "small leading":
        lead = rng.choice((-1.0, 1.0)) * log_uniform(rng, 1e-28, 1.0)
        return [rng.uniform(-1.0, 1.0) for _ in range(3)] + [lead]
    if family in ("three real", "two real"):
        return _product(*[[-r, 1.0] for r in _spaced(rng, 3 if family == "three real" else 2, 1e-2)])
    if family == "double and simple":
        a, q = _spaced(rng, 2, 0.05)
        return _product([-a, 1.0], [-a, 1.0], [-q, 1.0])
    if family == "small root and touching pair":
        r = rng.choice((-1.0, 1.0)) * log_uniform(rng, 1e-9, 1e-3)
        return _product([-r, 1.0], _pair(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.5), log_uniform(rng, 1e-12, 1e-9)))
    if family in ("near-real pair", "touching pair"):
        a, r = _spaced(rng, 2, 0.1)
        d = log_uniform(rng, 3e-7, 1e-6) if family == "near-real pair" else log_uniform(rng, 1e-12, 1e-9)
        return _product(_pair(a, d), [-r, 1.0])
    a = rng.uniform(-1.5, 1.5)
    return _pair(a, log_uniform(rng, 3e-7, 1e-6)) if family == "quadratic pair" else _product([-a, 1.0], [-a, 1.0])


def _rounding_band(coeffs, x):
    """Distance from x over which the polynomial stays within
    ``ROOT_DOUBLE_ULPS`` rounding units of its Horner scale sum |a_i| |x|^i
    (for a double root, that of its derivative)."""
    band = math.inf
    for _ in range(2):
        slope = [i * a for i, a in enumerate(coeffs)][1:]
        value = sum(a * x**i for i, a in enumerate(slope))
        scale = sum(abs(a) * abs(x) ** i for i, a in enumerate(coeffs))
        if value != 0.0:
            band = min(band, ROOT_DOUBLE_ULPS * sys.float_info.epsilon * scale / abs(value))
        coeffs = slope
    return band


def _assert_same_roots(coeffs, lo, hi, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = real_roots_in_interval(coeffs, lo, hi)
    assert len(roots) == len(expected), (coeffs, lo, hi, roots, expected)
    mag = max(abs(lo), abs(hi))
    for x, ref in zip(roots, expected):
        # each resolves its root to ROOT_REL_TOL of its bracket; where the
        # polynomial is flat, anywhere its sign is rounding noise
        tol = ROOT_REL_TOL * (mag + abs(x)) + 2.0 * _rounding_band(coeffs, x)
        assert abs(x - ref) <= tol, (coeffs, lo, hi, roots, expected)


def _seeded(family):
    """300 seeded (coefficients, lo, hi) of the family, scaled by 1e-6..1e6."""
    rng = random.Random(f"roots {family}")
    for _ in range(300):
        lam = log_uniform(rng, 1e-6, 1e6)
        coeffs = [lam * a for a in _polynomial(rng, family)]
        lo = rng.choice((0.0, rng.uniform(-1.6, 0.5)))
        yield coeffs, lo, lo + rng.uniform(0.2, 2.5)


@pytest.mark.parametrize("family", FAMILIES)
def test_newton_roots_match_the_companion_roots(family):
    for coeffs, lo, hi in _seeded(family):
        _assert_same_roots(coeffs, lo, hi, polyroots_real_roots_in_interval(coeffs, lo, hi))


def test_newton_never_falls_back_to_the_bracket_search(monkeypatch):
    # Newton's method from the Fourier end stays on its monotone piece, so
    # the slower bracket search is only a safety net
    calls = []
    search = optmech.solver._root_in_bracket
    monkeypatch.setattr(optmech.solver, "_root_in_bracket", lambda *args: calls.append(args) or search(*args))
    for family in FAMILIES:
        for coeffs, lo, hi in _seeded(family):
            real_roots_in_interval(coeffs, lo, hi)
    assert not calls, calls[:3]


def test_a_vanishing_leading_coefficient_keeps_the_quadratic_roots():
    # below about 1e-30 of the others the companion matrix loses the small
    # roots; they are the quadratic part's to far below rounding
    rng = random.Random(20261018)
    for _ in range(300):
        quadratic = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        coeffs = quadratic + [rng.choice((-1.0, 1.0)) * log_uniform(rng, 1e-34, 1e-28)]
        lo = rng.choice((0.0, rng.uniform(-1.6, 0.5)))
        hi = lo + rng.uniform(0.2, 2.5)
        _assert_same_roots(coeffs, lo, hi, polyroots_real_roots_in_interval(quadratic, lo, hi))


def test_a_small_root_keeps_its_relative_accuracy():
    # (x - r) times a quadratic with real roots, a complex pair, a pair
    # 3e-7..1e-6 off the axis or one within 1e-9 (a double root), r down
    # to 1e-200: the polynomial, evaluated exactly, changes sign within
    # 1e-15 of the returned root
    rng = random.Random(20261020)
    for i in range(400):
        r = log_uniform(rng, 1e-200, 1e-3)
        a, b = (rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.5) for _ in range(2))
        if i % 4 == 0:
            quadratic = _product([-a, 1.0], [-b, 1.0])
        else:
            quadratic = _pair(a, (rng.uniform(0.1, 1.0), log_uniform(rng, 3e-7, 1e-6), log_uniform(rng, 1e-12, 1e-9))[i % 4 - 1])
        lam = log_uniform(rng, 1e-6, 1e6)
        coeffs = [lam * c for c in _product([-r, 1.0], quadratic)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small = [x for x in real_roots_in_interval(coeffs, 0.0, 2.0) if x < 0.1]
        assert len(small) == 1, (coeffs, small)
        lo, hi = (Fraction(small[0]) * (1 + Fraction(k, 10**15)) for k in (-1, 1))
        values = [sum(Fraction(c) * x**k for k, c in enumerate(coeffs)) for x in (lo, hi)]
        assert min(values) <= 0 <= max(values), (coeffs, small)


def test_a_double_root_on_a_bracket_end_counts_once():
    # (x - 0.25)^2 (x - 3): the cubic rounds to 0 at the widened end
    # 0.25 - 1e-10 as well as at its minimum, one double root
    coeffs = _product([-0.25, 1.0], [-0.25, 1.0], [-3.0, 1.0])
    assert real_roots_in_interval(coeffs, 0.25, 1.0) == [0.25]


def test_a_triple_root_counts_once():
    # rounding the coefficients of (x - r)^3 leaves two critical points
    # zero to rounding or none; either way one root, within the cube root
    # of the rounding of r
    rng = random.Random("triple")
    for _ in range(300):
        r, lam = rng.uniform(0.05, 0.95), log_uniform(rng, 1e-6, 1e6)
        coeffs = [lam * a for a in _product([-r, 1.0], [-r, 1.0], [-r, 1.0])]
        roots = real_roots_in_interval(coeffs, 0.0, 1.0)
        assert len(roots) == 1 and abs(roots[0] - r) <= 3e-5, (coeffs, r, roots)


def test_roots_closer_than_a_millionth_of_the_interval_are_each_found():
    # 1e20 x^3 - x + 1e-20, with its roots from mpmath's polyroots at 60
    # digits: each monotone piece holds one, however close they sit
    coeffs = [1e-20, -1.0, 0.0, 1e20]
    roots = [-1.00000000005e-10, 1e-20, 9.9999999995e-11]
    assert real_roots_in_interval(coeffs, -1.0, 1.0) == pytest.approx(roots, rel=1e-15, abs=0.0)
    assert real_roots_in_interval(coeffs, 0.0, 1.0) == pytest.approx(roots[1:], rel=1e-15, abs=0.0)


def _threshold_supports(rng, n):
    """Supports at 1e-14..1e-2 relative of the SmallSmall, SmallLarge and
    c1 = b1 thresholds, on the diagonal kind change and at zero and tiny
    offsets, half of them with the goods swapped."""
    out = []
    for i in range(n):
        b1, b2 = log_uniform(rng, 0.3, 3.0), log_uniform(rng, 0.3, 3.0)
        near = 1.0 + rng.choice((-1.0, 1.0)) * log_uniform(rng, 1e-14, 1e-2)
        c1 = b1 * rng.choice((rng.uniform(0.0, 1.0), log_uniform(rng, 1e-12, 1e-3)))
        c2 = [
            2.0 * b2 * (b1 + c1) / (b1 + 3.0 * c1) * near,
            2.0 * b2 * (b1 / (b1 - c1)) ** 2 * near if c1 < 0.9 * b1 else b2,
            b2 * log_uniform(rng, 1e-3, 10.0),
        ][i % 3]
        rect = [
            (c1, c2, b1, b2),
            (b1 * near, rng.uniform(0.0, 6.0) * b2, b1, b2),
            (0.0765564 * b1 * near, 0.0765564 * b1 * near, b1, b1),
            (rng.choice((0.0, 1e-10 * b1 * near)), rng.uniform(0.0, 3.0) * b2, b1, b2),
        ][i % 4]
        out.append(Rectangle(*rect) if i % 2 else Rectangle(*rect).swapped())
    return out


def _ramp_supports(rng, n):
    """SmallLarge and LargeSmall supports at scale 1e-6..1e6, side ratio
    up to 1e+-12 and c1/b1 down to 1e-16."""
    out = []
    for i in range(n):
        b1 = log_uniform(rng, 1e-6, 1e6)
        b2 = b1 * log_uniform(rng, 1e-12, 1e12)
        c1 = b1 * log_uniform(rng, 1e-16, 1.0) * rng.uniform(0.5, 1.0)
        lo, hi = 2.0 * b2 * (b1 + c1) / (b1 + 3.0 * c1), 2.0 * b2 * (b1 / (b1 - c1)) ** 2
        rect = Rectangle(c1, lo + (hi - lo) * rng.uniform(0.0, 1.0) ** rng.choice((1, 3, 8)), b1, b2)
        out.append(rect if i % 2 else rect.swapped())
    return out


@pytest.mark.parametrize("supports", [_threshold_supports, _ramp_supports])
def test_solve_matches_the_companion_roots_over_seeded_supports(monkeypatch, supports):
    rects = supports(random.Random(supports.__name__), 1500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [solve(rect) for rect in rects]
    monkeypatch.setattr(optmech.solver, "real_roots_in_interval", polyroots_real_roots_in_interval)
    for rect, mech in zip(rects, got):
        ref = solve(rect)
        assert mech.kind is ref.kind, rect
        assert mech.revenue == pytest.approx(ref.revenue, rel=1e-14, abs=0.0), rect


def test_solve_runs_on_the_python_3_10_math_module(monkeypatch):
    # pyproject allows Python 3.10, whose math module has no cbrt or exp2
    rng = random.Random("python 3.10")
    rects = _ramp_supports(rng, 200) + _threshold_supports(rng, 200)
    before = [solve(rect) for rect in rects]
    for name in ("cbrt", "exp2"):
        monkeypatch.delattr(math, name, raising=False)
    assert [solve(rect) for rect in rects] == before
