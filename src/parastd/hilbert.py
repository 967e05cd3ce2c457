"""Staircase combinatorics: Hilbert-Samuel data and Milnor numbers.

The Hilbert-Samuel function of a monomial staircase counts lattice points
of bounded degree outside every generator cone. Inclusion-exclusion over
the generators gives it as a signed sum of binomials C(r - d + n, n), one
per lcm degree d (Bayer-Stillman, "Computation of Hilbert functions",
JSC 1992). Read as polynomials in r, the same binomials give the eventual
polynomial exactly, with no fit on a window of values; it is summed in
integers, over n! times each binomial, with one division by n! at the
end. The index from which the two agree is closed-form and can lie past
the printed window.
The Milnor number is the polynomial when it is constant, else inf.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, inf

from .errors import ProblemSyntaxError
from .orders import MonomialOrder, Staircase, exp_lcm, is_degree_compatible_local
from .polyring import add_term, monomial_text, render_fraction
from .comprehensive import MAX_DEPTH, Cell, ComprehensiveResult, comprehensive_basis


def _lcm_degrees(E: Staircase) -> dict[int, int]:
    """Signed number of generator subsets per degree of their lcm.

    Generators are added one at a time; subsets sharing an lcm are merged
    into one signed count, so the table never outgrows the lcm lattice.
    The empty subset has lcm 1 and sign +1.
    """
    joins = {(0,) * E.n: 1}
    for g in E.generators:
        grown = dict(joins)
        for e, c in joins.items():
            j = exp_lcm(e, g)
            grown[j] = grown.get(j, 0) - c
        joins = {e: c for e, c in grown.items() if c}
    table: dict[int, int] = {}
    for e, c in joins.items():
        d = sum(e)
        table[d] = table.get(d, 0) + c
    return {d: c for d, c in table.items() if c}


def _count(table: dict[int, int], n: int, r: int) -> int:
    """hsf at degree r from the table of _lcm_degrees."""
    return sum(c * comb(r - d + n, n) for d, c in table.items() if d <= r)


def hsf(E: Staircase, r: int) -> int:
    """Count exponents of degree <= r outside every cone of the staircase."""
    return _count(_lcm_degrees(E), E.n, r)


class HilbertData:
    """Value table of the Hilbert-Samuel function, its eventual polynomial,
    the index from which they agree, and the Milnor number it gives."""

    def __init__(self, values: list[int], coefficients: tuple[Fraction, ...],
                 stabilization_index: int):
        self.values = values
        self.coefficients = coefficients  # polynomial in r, constant term first
        self.stabilization_index = stabilization_index

    def polynomial_text(self) -> str:
        """The polynomial in r, terms by falling degree; a fractional
        coefficient is parenthesized, (1/2)*r^2."""
        parts: list = []
        for k, c in reversed(list(enumerate(self.coefficients))):
            if c:
                text = render_fraction(abs(c))
                add_term(parts, c < 0, f"({text})" if "/" in text else text,
                         monomial_text((k,), ("r",)))
        return "".join(parts) or "0"

    @property
    def milnor(self):
        """The value of a constant polynomial (a finite colength), else inf."""
        return int(self.coefficients[0]) if len(self.coefficients) == 1 else inf


def _falling_poly(shift: int, n: int) -> list[int]:
    """Integer coefficients in r of n! * C(r - shift, n), the product of
    r - shift - j over j < n; constant term first."""
    coeffs = [1]
    for j in range(n):
        root = shift + j
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= c * root
        coeffs = nxt
    return coeffs


def hilbert_polynomial(E: Staircase, r_max: int) -> HilbertData:
    """Values of hsf on 0..r_max, its eventual polynomial and where it starts.

    Each lcm degree d contributes c_d * C(r - d + n, n); the polynomial
    reads every binomial as a polynomial in r. The sum is taken in
    integers, over n! times each binomial, and divided by n! once at the
    end. With D the largest d, hsf and the polynomial agree from the
    stabilization index max(D - n, 0) on and not one below, where they
    differ by c_D * C(-1, n) != 0 (each other binomial left out is C(x, n)
    with 0 <= x < n). It can exceed r_max, which only bounds the value
    table.
    """
    n = E.n
    table = _lcm_degrees(E)
    poly = [0] * (n + 1)
    for d, c in table.items():
        for k, b in enumerate(_falling_poly(d - n, n)):
            poly[k] += c * b
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    fact = factorial(n)
    return HilbertData([_count(table, n, r) for r in range(r_max + 1)],
                       tuple(Fraction(c, fact) for c in poly),
                       max(max(table, default=0) - n, 0))


def milnor_number(E: Staircase):
    """Cardinality of the staircase complement: the constant polynomial, else inf."""
    return hilbert_polynomial(E, 0).milnor


def default_r_max(staircases, n: int) -> int:
    top = max((s.max_generator_degree() for s in staircases), default=0)
    return n + top + 2


class HilbertStratum:
    """Constructible union of cells sharing one Hilbert-Samuel polynomial;
    its Milnor number is data.milnor."""

    def __init__(self, cells: tuple[Cell, ...], data: HilbertData):
        self.cells, self.data = cells, data


def hilbert_partition(F, order: MonomialOrder,
                      max_depth: int = MAX_DEPTH) -> list[HilbertStratum]:
    """Partition parameter space by the local Hilbert-Samuel polynomial.

    Needs a degree-compatible local order (first weight row a negative
    constant), so leading-exponent staircases compute the right dimensions;
    any other order is an input error (ProblemSyntaxError, which the CLI
    reports as `error[input]`). Cells of the comprehensive partition with
    equal polynomials are merged.
    """
    if not is_degree_compatible_local(order):
        raise ProblemSyntaxError(
            "hilbert_partition needs a degree-compatible local order")
    result = comprehensive_basis(F, order, max_depth=max_depth)
    return strata_from_cells(result)


def strata_from_cells(result: ComprehensiveResult) -> list[HilbertStratum]:
    """Merge cells with equal Hilbert-Samuel polynomials; mu is a constant one."""
    n = result.cells[0].basis.staircase.n if result.cells else 0
    r_max = default_r_max([e.basis.staircase for e in result.cells], n)
    groups: dict[tuple[Fraction, ...], tuple[HilbertData, list[Cell]]] = {}
    for entry in result.cells:
        data = hilbert_polynomial(entry.basis.staircase, r_max)
        groups.setdefault(data.coefficients, (data, []))[1].append(entry.cell)
    return [HilbertStratum(tuple(cells), data)
            for data, cells in groups.values()]
