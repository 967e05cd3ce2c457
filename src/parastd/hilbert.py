"""Staircase combinatorics: Hilbert-Samuel data and Milnor numbers.

The Hilbert-Samuel function of a monomial staircase counts lattice points
of bounded degree outside every generator cone; inclusion-exclusion over
the generators with join pruning makes this exact and fast at desk scale.
The eventual polynomial is recovered from the value table by finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf

from .errors import NoStabilization, ParastdError
from .orders import MonomialOrder, exp_lcm, is_degree_compatible_local
from .polyring import render_fraction, render_terms
from .genstd import Staircase
from .comprehensive import Cell, ComprehensiveResult, comprehensive_basis


def hsf(E: Staircase, r: int) -> int:
    """Count exponents of degree <= r outside every cone of the staircase.

    Inclusion-exclusion over generator subsets, organized as a subset tree
    pruned as soon as the running join exceeds degree r (joins only grow),
    which also keeps generator counts beyond the naive 2^k range feasible.
    """
    n = E.n
    if r < 0:
        return 0
    total = comb(r + n, n)
    gens = sorted(E.generators, key=sum)

    def cone_count(beta):
        d = sum(beta)
        return comb(r - d + n, n) if d <= r else 0

    acc = 0

    def walk(i, join, sign):
        nonlocal acc
        for j in range(i, len(gens)):
            nj = exp_lcm(join, gens[j]) if join is not None else gens[j]
            if sum(nj) > r:
                continue
            acc += sign * cone_count(nj)
            walk(j + 1, nj, -sign)

    walk(0, None, -1)
    return total + acc


@dataclass
class HilbertData:
    """Value table of the Hilbert-Samuel function and its eventual polynomial."""

    values: list[int]
    coefficients: tuple[Fraction, ...]  # polynomial in r, constant term first
    stabilization_index: int

    def polynomial_value(self, r) -> Fraction:
        return sum(c * Fraction(r) ** k for k, c in enumerate(self.coefficients))

    def polynomial_text(self) -> str:
        def mag(c):
            text = render_fraction(abs(c))
            return f"({text})" if "/" in text else text

        return render_terms(((c < 0, mag(c), (k,))
                             for k, c in reversed(list(enumerate(self.coefficients)))
                             if c), ("r",))

    def is_constant(self) -> bool:
        return len(self.coefficients) <= 1

    def __eq__(self, other):
        return (isinstance(other, HilbertData)
                and self.coefficients == other.coefficients)


def _binomial_poly(shift: int, i: int) -> list[Fraction]:
    """Coefficients of binomial(r - shift, i) as a polynomial in r."""
    coeffs = [Fraction(1)]
    for j in range(i):
        root = Fraction(shift + j)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= c * root
        coeffs = nxt
    fact = 1
    for j in range(2, i + 1):
        fact *= j
    return [c / fact for c in coeffs]


def hilbert_polynomial(E: Staircase, r_max: int) -> HilbertData:
    """Fit the eventual polynomial of hsf by finite differences on the tail.

    Reports the first index from which the (degree+1)-st differences vanish.
    Degree is at most n (equal to n only for the empty staircase). Raises
    NoStabilization when r_max leaves no stable tail.
    """
    values = [hsf(E, r) for r in range(r_max + 1)]
    if any(b < a for a, b in zip(values, values[1:])):
        raise ParastdError("Hilbert-Samuel values must be nondecreasing")
    for d in range(E.n + 1):
        diffs = values
        for _ in range(d + 1):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if not diffs:
            break
        r0 = len(diffs)
        while r0 > 0 and diffs[r0 - 1] == 0:
            r0 -= 1
        if r0 == len(diffs):
            continue  # no zero tail at this order
        if r0 + d > r_max:
            continue  # not enough points to interpolate
        # Newton forward interpolation from r0
        level = values[r0:]
        poly = [Fraction(0)] * (d + 1)
        for i in range(d + 1):
            for k, c in enumerate(_binomial_poly(r0, i)):
                poly[k] += c * level[0]
            level = [b - a for a, b in zip(level, level[1:])]
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
        data = HilbertData(values, tuple(poly), r0)
        if all(data.polynomial_value(r) == values[r] for r in range(r0, r_max + 1)):
            return data
    raise NoStabilization(f"no stable tail up to r_max={r_max}")


def milnor_number(E: Staircase):
    """Cardinality of the staircase complement, or inf when it is infinite.

    Finite exactly when every coordinate axis carries a pure-power
    generator; then the complement sits inside the box they bound.
    """
    n = E.n
    if n == 0:
        return 0 if E.contains(()) else inf
    bounds = []
    for i in range(n):
        pure = [g[i] for g in E.generators
                if all(k == 0 for j, k in enumerate(g) if j != i)]
        if not pure:
            return inf
        bounds.append(min(pure))
    return hsf(E, sum(b - 1 for b in bounds))


def default_r_max(staircases, n: int) -> int:
    top = max((s.max_generator_degree() for s in staircases), default=0)
    return n + top + 2


@dataclass
class HilbertStratum:
    """Constructible union of cells sharing one Hilbert-Samuel polynomial."""

    cells: tuple[Cell, ...]
    data: HilbertData
    milnor: object  # int or math.inf


def hilbert_partition(F, order: MonomialOrder, max_depth: int = 12,
                      seed: int = 0) -> list[HilbertStratum]:
    """Partition parameter space by the local Hilbert-Samuel polynomial.

    Needs a degree-compatible local order (first weight row a negative
    constant), so leading-exponent staircases compute the right dimensions.
    Cells of the comprehensive partition with equal polynomials are merged.
    """
    if not is_degree_compatible_local(order):
        raise ParastdError(
            "hilbert_partition needs a degree-compatible local order")
    result = comprehensive_basis(F, order, max_depth=max_depth, seed=seed)
    return strata_from_cells(result)


def strata_from_cells(result: ComprehensiveResult) -> list[HilbertStratum]:
    n = result.cells[0].staircase.n if result.cells else 0
    r_max = default_r_max([e.staircase for e in result.cells], n)
    groups: list[tuple[HilbertData, list[Cell]]] = []
    for entry in result.cells:
        data = hilbert_polynomial(entry.staircase, r_max)
        for gd, cells in groups:
            if gd == data:
                cells.append(entry.cell)
                break
        else:
            groups.append((data, [entry.cell]))
    out = []
    for data, cells in groups:
        mu = data.polynomial_value(0) if data.is_constant() else inf
        mu = int(mu) if mu is not inf else inf
        out.append(HilbertStratum(tuple(cells), data, mu))
    return out
