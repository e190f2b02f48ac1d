"""The solver's hand-expanded residual cubics, derived with sympy from the
transformed measure of the uniform density.

In u = z - c on [0, b1] x [0, b2], b1 b2 times the transformed measure
has density -3 inside, line densities -c2 on the bottom edge, -c1 on the
left, b2 + c2 on the top and b1 + c1 on the right, and a point mass b1 b2
at the corner u = 0.  Each derivation integrates it over a structure's
region polygon and compares the result, coefficient for coefficient, with
the solver's own function evaluated on sympy symbols through a duck-typed
support.
"""

from types import SimpleNamespace

import sympy as sp

from optmech.solver import _kind_b_cubic, _kind_d_cubic

c1, c2, b1, b2, u1, u2 = sp.symbols("c1 c2 b1 b2 u1 u2", positive=True)
SUPPORT = SimpleNamespace(c1=c1, c2=c2, b1=b1, b2=b2)

#: Line density of each edge, and the coordinate that runs along it.
EDGES = {"bottom": (-c2, u1), "left": (-c1, u2), "top": (b2 + c2, u1), "right": (b1 + c1, u2)}
#: Where each edge lies, as a substitution.
ON_EDGE = {"bottom": {u2: 0}, "left": {u1: 0}, "top": {u2: b2}, "right": {u1: b1}}


def measure(slabs, edges, corner=False, weight=sp.Integer(1)):
    """b1 b2 times the integral of ``weight`` (in u1, u2) against the
    transformed measure over a region: the vertical slabs
    (u1 from, u1 to, u2 from, u2 to) that tile it, the boundary segments
    (edge, from, to) it holds, and whether it holds the corner."""
    total = sum(-3 * sp.integrate(weight, (u2, lo2, hi2), (u1, lo1, hi1)) for lo1, hi1, lo2, hi2 in slabs)
    for edge, lo, hi in edges:
        density, along = EDGES[edge]
        total += density * sp.integrate(weight.subs(ON_EDGE[edge]), (along, lo, hi))
    if corner:
        total += b1 * b2 * weight.subs({u1: 0, u2: 0})
    return total


def assert_same_polynomial(code_coeffs, derived, x):
    """The solver's ascending coefficients, read as exact rationals, equal
    those of ``derived``, a polynomial in x, one by one."""
    code = [sp.nsimplify(sp.expand(c), rational=True) for c in code_coeffs]
    want = sp.Poly(sp.cancel(derived), x).all_coeffs()[::-1]
    assert len(code) == len(want)
    for i, (got, ref) in enumerate(zip(code, want)):
        assert sp.expand(got - ref) == 0, f"coefficient of {x}^{i}: {got} != {ref}"


def test_kind_b_cubic_is_the_bundle_region_measure():
    # the lottery with kink m1 has edge offset D1 = 4 c1 (b2 + c2)/(3 m1 + 4 c1),
    # its corner point P sits (4 b2 - 2 c2 - D1)/6 above the bottom edge, and
    # the bundle is the region right of the kink above u1 + u2 = p, p = m1 + P2
    m1 = sp.Symbol("m1", positive=True)
    d1 = 4 * c1 * (b2 + c2) / (3 * m1 + 4 * c1)
    p = m1 + (4 * b2 - 2 * c2 - d1) / 6
    bundle = measure(
        slabs=[(m1, p, p - u1, b2), (p, b1, 0, b2)],
        edges=[("top", m1, b1), ("right", 0, b2), ("bottom", p, b1)],
    )
    assert_same_polynomial(_kind_b_cubic(SUPPORT), -2 * (3 * m1 + 4 * c1) ** 2 * bundle, m1)


def test_kind_d_cubic_is_the_lottery_region_moment():
    # the ramp structure sells the lottery (a1, 1) above u2 = p_a1 - a1 u1
    # left of the cut u1 = p and the bundle right of it; the lottery line
    # meets u2 = 0 at m1 = p_a1/a1 <= p
    x, a1 = sp.symbols("p_a1 a1", positive=True)
    m1 = x / a1
    p = (b1 - c1) / 2
    # the cut leaves the bundle region a zero measure
    bundle = measure(slabs=[(p, b1, 0, b2)], edges=[("top", p, b1), ("right", 0, b2), ("bottom", p, b1)])
    assert sp.expand(bundle) == 0
    # the null region's zero measure fixes the weight
    null = measure(slabs=[(0, m1, 0, x - a1 * u1)], edges=[("bottom", 0, m1), ("left", 0, x)], corner=True)
    (weight,) = sp.solve(null, a1)
    assert sp.simplify(weight - x * (sp.Rational(3, 2) * x + c2) / (b1 * b2 - c1 * x)) == 0
    # and the lottery region's first moment in u1 vanishes at the optimum
    lottery = measure(
        slabs=[(0, m1, x - a1 * u1, b2), (m1, p, 0, b2)],
        edges=[("top", 0, p), ("left", x, b2), ("bottom", m1, p)],
        weight=u1,
    )
    assert_same_polynomial(_kind_d_cubic(SUPPORT), (3 * x + 2 * c2) ** 2 * lottery.subs(a1, weight), x)


def test_the_ramp_weight_reaches_1_at_the_bundling_offset():
    # a1 - 1 is 3/2 of pure bundling's quadratic in p_a1 over the weight's
    # denominator, so where that is positive a1 <= 1 exactly up to p*, the
    # quadratic's positive root: the ramp search ends there
    x = sp.Symbol("p_a1", positive=True)
    weight = x * (sp.Rational(3, 2) * x + c2) / (b1 * b2 - c1 * x)
    bundling = x**2 + 2 * (c1 + c2) / 3 * x - 2 * b1 * b2 / 3
    assert sp.simplify(weight - 1 - sp.Rational(3, 2) * bundling / (b1 * b2 - c1 * x)) == 0
    s = c1 + c2
    p_star = (sp.sqrt(s**2 + 6 * b1 * b2) - s) / 3
    assert sp.simplify(bundling.subs(x, p_star)) == 0


def test_the_ramp_cubic_has_a_double_root_at_b2_where_c1_is_b1():
    # as c1 tends to b1 the ramp cubic tends to 2 b1^2 (p_a1 - b2)^2 (p_a1 + c2),
    # whose double root b2 lies above p*: Newton's method converges only
    # linearly there, and the ramp search ends below it
    x = sp.Symbol("p_a1", positive=True)
    at_edge = [sp.expand(coeff.subs(c1, b1)) for coeff in _kind_d_cubic(SUPPORT)]
    assert_same_polynomial(at_edge, 2 * b1**2 * (x - b2) ** 2 * (x + c2), x)
    # pure bundling's quadratic is positive at b2 there, so p* < b2
    bundling = x**2 + 2 * (b1 + c2) / 3 * x - 2 * b1 * b2 / 3
    assert sp.expand(bundling.subs(x, b2) - b2 * (b2 + 2 * c2 / 3)) == 0
