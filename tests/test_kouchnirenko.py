"""Milnor numbers of plane curve singularities against Kouchnirenko's formula.

For f in two variables that is convenient (its support meets both axes)
and nondegenerate with respect to its Newton polygon, the Milnor number at
the origin is mu = 2V - a - b + 1 (Kouchnirenko, "Polyedres de Newton et
nombres de Milnor", Invent. Math. 1976). V is the area between the axes
and the Newton boundary, and a and b are where the boundary meets the x
and y axes. In two variables nondegeneracy is a check on each compact
edge: its terms, read as a univariate polynomial along the edge, must be
square-free with no zero root.

The oracle below computes the polygon, the area and that check with
`Fraction` arithmetic alone; it imports nothing from parastd. The test
compares it with `hilbert_partition` on the Jacobian ideal under
neg_grevlex, which runs the engine on the homogenized ideal.
"""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from parastd.hilbert import hilbert_partition
from parastd.orders import neg_grevlex
from parastd.polyring import ParamPoly, ParamScalar


# ---------------------------------------------------------------------------
# the oracle: Newton boundary, area, edge check


def newton_boundary(support) -> list[tuple[int, int]]:
    """Vertices of the Newton boundary of a convenient support, from the
    y axis to the x axis.

    From the vertex on the y axis, the next vertex is the support point to
    the right and below with the steepest slope (the farthest one on a
    tie), until the x axis is reached.
    """
    b = min(j for i, j in support if i == 0)
    v, out = (0, b), [(0, b)]
    while v[1] > 0:
        below = [w for w in support if w[0] > v[0] and w[1] < v[1]]
        v = min(below, key=lambda w: (Fraction(w[1] - v[1], w[0] - v[0]), -w[0]))
        out.append(v)
    return out


def kouchnirenko_number(support) -> int:
    """2V - a - b + 1 for the Newton boundary of a convenient support."""
    vs = newton_boundary(support)
    twice_area = sum((x2 - x1) * (y1 + y2) for (x1, y1), (x2, y2) in zip(vs, vs[1:]))
    return twice_area - vs[-1][0] - vs[0][1] + 1


def _derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:]


def _remainder(p: list, q: list) -> list:
    """Remainder of p by q (coefficient lists, constant first, q's top nonzero)."""
    p = list(p)
    while len(p) >= len(q):
        c = p[-1] / q[-1]
        shift = len(p) - len(q)
        for k, d in enumerate(q):
            p[shift + k] -= c * d
        p.pop()
        while p and not p[-1]:
            p.pop()
    return p


def is_square_free(p: list) -> bool:
    """gcd(p, p') is a constant, by Euclid on Fraction coefficient lists."""
    a, b = p, _derivative(p)
    while b:
        a, b = b, _remainder(a, b)
    return len(a) == 1


def edge_polynomials(terms: dict) -> list[list]:
    """For each compact edge of the Newton boundary, the coefficients of f
    at the lattice points along it, from its upper end."""
    vs = newton_boundary(terms)
    out = []
    for (x1, y1), (x2, y2) in zip(vs, vs[1:]):
        g = gcd(x2 - x1, y1 - y2)
        dx, dy = (x2 - x1) // g, (y1 - y2) // g
        out.append([terms.get((x1 + k * dx, y1 - k * dy), Fraction(0))
                    for k in range(g + 1)])
    return out


def is_newton_nondegenerate(terms: dict) -> bool:
    return all(p[0] and is_square_free(p) for p in edge_polynomials(terms))


# ---------------------------------------------------------------------------
# the oracle on known cases


def test_oracle_on_known_singularities():
    one = Fraction(1)
    # A_(k-1): x^2 + y^k, mu = k - 1; E6: x^3 + y^4, mu = 6
    assert kouchnirenko_number({(2, 0): one, (0, 5): one}) == 4
    assert kouchnirenko_number({(3, 0): one, (0, 4): one}) == 6
    # x^4 + x^2*y^2 + y^4: one edge, 1 + t + t^2 square-free; mu = 9
    t4 = {(4, 0): one, (2, 2): one, (0, 4): one}
    assert is_newton_nondegenerate(t4) and kouchnirenko_number(t4) == 9
    # (x^2 + y^2)^2 is degenerate: 1 + 2t + t^2 has a double root
    assert not is_newton_nondegenerate({(4, 0): one, (2, 2): 2 * one, (0, 4): one})
    # x^5 + x*y + y^5: two edges through (1, 1), a node, mu = 1
    node = {(5, 0): one, (1, 1): one, (0, 5): one}
    assert newton_boundary(node) == [(0, 5), (1, 1), (5, 0)]
    assert is_newton_nondegenerate(node) and kouchnirenko_number(node) == 1


# ---------------------------------------------------------------------------
# against the engine


_T = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def plane_curves(draw):
    """x^p + y^q + sum t_i x^a_i y^b_i with 2 <= a_i + b_i, a_i <= p, b_i <= q."""
    p, q = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    exps = st.tuples(st.integers(0, p), st.integers(0, q)).filter(
        lambda e: sum(e) >= 2 and e not in ((p, 0), (0, q)))
    terms = draw(st.dictionaries(exps, _T, max_size=3))
    terms.update({(p, 0): Fraction(1), (0, q): Fraction(1)})
    return terms


def _jacobian(terms: dict) -> list[ParamPoly]:
    out = []
    for i in range(2):
        d = {}
        for e, c in terms.items():
            if e[i]:
                d[e[:i] + (e[i] - 1,) + e[i + 1:]] = ParamScalar.const(e[i] * c, 0)
        out.append(ParamPoly(d, 2, 0))
    return out


@settings(max_examples=25)
@given(plane_curves())
def test_milnor_number_is_the_kouchnirenko_number(terms):
    assume(is_newton_nondegenerate(terms))
    strata = hilbert_partition(_jacobian(terms), neg_grevlex(2))
    assert [s.data.milnor for s in strata] == [kouchnirenko_number(terms)]
