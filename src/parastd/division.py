"""Division with unique quotients and remainder, truncated and series variants.

The engine is the classical iterative loop: repeatedly inspect the leading
exponent of the current iterate; if it lies in some divisor's region of the
exponent partition, reduce by that divisor (smallest index wins), otherwise
move the leading monomial to the remainder. Full division needs a well
order or homogeneous data to terminate; the truncated variant stops the
first time the leading exponent escapes every divisor cone; the series
variant discards generated terms above a degree cutoff, which is the
computable stand-in for power-series division under local orders.

A series division asked for its remainder only also discards every term
below the highest corner: the order-least exponent of degree at most the
cutoff that lies in no divisor cone. Leading exponents strictly decrease,
and every exponent below the corner within the cutoff lies in some cone,
so such a term could only be reduced into still smaller terms; it never
reaches the remainder or changes a coefficient at or above the corner.
The remainder is the one the full series division computes, term by term,
while the quotients stop at the corner.

Dividends and divisors are ParamPoly or AScalar (one ring per call): the
loop reads only `terms`, `is_zero`, `leading(order)` and `with_terms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    NonTerminatingDivision,
    NonTerminatingOrder,
    TruncationTooSmall,
    ZeroPolynomialError,
)
from .orders import (
    Exponent,
    MonomialOrder,
    exp_add,
    exp_degree,
    exp_divides,
    exp_lcm,
    exp_sub,
    is_global,
)

TRUNCATION_STEP_GUARD = 20000


@dataclass(frozen=True)
class Partition:
    """Regions of N^n carved by divisor leading exponents, in order."""

    exponents: tuple[Exponent, ...]

    def region_of(self, e: Exponent) -> int | None:
        """Index of the first divisor whose cone contains e, None if escaped."""
        for j, d in enumerate(self.exponents):
            if exp_divides(d, e):
                return j
        return None


@dataclass
class DivisionResult:
    quotients: list
    remainder: object
    cofactor_ok: bool = True
    steps: int = field(default=0, repr=False)

    def check_identity(self, f, divisors) -> bool:
        acc = self.remainder
        for q, g in zip(self.quotients, divisors):
            acc = acc + q * g
        return acc == f


FULL = "full"
TRUNCATED = "truncated"
SERIES = "series"


def highest_corner(part: Partition, n: int, order: MonomialOrder,
                   max_degree: int) -> Exponent | None:
    """Order-least exponent of degree <= max_degree in no cone of part.

    None when every such exponent lies in a cone. The standard monomials
    are closed under division, so a walk up from 0 that raises one entry
    at a time and never leaves them visits each of them and nothing else.
    """
    zero = (0,) * n
    if part.region_of(zero) is not None:
        return None
    best, best_key = zero, order.key(zero)
    seen = {zero}
    stack = [zero]
    while stack:
        e = stack.pop()
        if exp_degree(e) == max_degree:
            continue
        for i in range(n):
            u = e[:i] + (e[i] + 1,) + e[i + 1:]
            if u in seen or part.region_of(u) is not None:
                continue
            seen.add(u)
            stack.append(u)
            k = order.key(u)
            if k < best_key:
                best, best_key = u, k
    return best


def _division_loop(f, divisors, order, mode, max_degree=None, guard=None,
                   remainder_only=False):
    leads = []
    for g in divisors:
        if g.is_zero():
            raise ZeroPolynomialError("zero divisor")
        leads.append(g.leading(order))
    part = Partition(tuple(e for e, _ in leads))
    # iterate, quotients and remainder are plain dicts updated in place; the
    # ring elements are built once at the end
    quotients: list[dict] = [{} for _ in divisors]
    remainder: dict = {}
    iterate = dict(f.terms)
    exact = True
    floor = None
    if remainder_only:
        # series mode only: terms below the highest corner never reach the
        # remainder (module docstring); with no corner, nothing does
        corner = highest_corner(part, len(next(iter(iterate))), order,
                                max_degree)
        if corner is None:
            kept = {}
        else:
            floor = order.key(corner)
            kept = {e: c for e, c in iterate.items() if order.key(e) >= floor}
        exact = len(kept) == len(iterate)
        iterate = kept
    steps = 0
    while iterate:
        steps += 1
        if guard is not None and steps > guard:
            raise NonTerminatingDivision(
                f"no stopping state after {guard} reduction steps")
        e = max(iterate, key=order.key)
        j = part.region_of(e)
        if j is None:
            if mode == TRUNCATED:
                remainder = iterate
                break
            remainder[e] = iterate.pop(e)
            continue
        de, dc = leads[j]
        shift = exp_sub(e, de)
        coeff = iterate[e] / dc
        # leading exponents strictly decrease, so quotient terms never collide
        quotients[j][shift] = coeff
        for e0, c0 in divisors[j].terms.items():
            ee = exp_add(e0, shift)
            if ee in iterate:
                v = iterate[ee] - c0 * coeff
                if v:
                    iterate[ee] = v
                else:
                    del iterate[ee]
            elif mode == SERIES and (exp_degree(ee) > max_degree or (
                    floor is not None and order.key(ee) < floor)):
                exact = False
            else:
                iterate[ee] = -(c0 * coeff)
    return ([f.with_terms(q) for q in quotients], f.with_terms(remainder),
            exact, steps)


def full_division_terminates(f, G, order: MonomialOrder) -> bool:
    """True under a global order, or when f and every divisor are homogeneous."""
    return is_global(order) or (f.is_homogeneous()
                                and all(g.is_homogeneous() for g in G))


def divide(f, G, order: MonomialOrder) -> DivisionResult:
    """Full division of f by the list G: unique quotients and remainder.

    Requires a global order, or homogeneous data (any order); otherwise the
    loop need not terminate and NonTerminatingOrder is raised. The result
    satisfies the exact identity f = sum(q_j g_j) + R, the support conditions
    on quotients and remainder, and the max property on leading exponents.
    """
    if f.is_zero():
        return DivisionResult([f.with_terms({}) for _ in G], f.with_terms({}))
    if not full_division_terminates(f, G, order):
        raise NonTerminatingOrder(
            "full division needs a well order or homogeneous data; "
            "use divide_truncated or divide_series")
    q, r, exact, steps = _division_loop(f, list(G), order, FULL)
    return DivisionResult(q, r, exact, steps)


def divide_truncated(f, G, order: MonomialOrder) -> DivisionResult:
    """Division stopped at the first iterate escaping every divisor cone.

    When the full remainder would be zero this coincides with full division;
    otherwise the remainder is the whole iterate at the stopping index and
    the quotients are polynomial. The support conditions of full division
    are not guaranteed, but the exact identity and the max property hold.
    """
    if f.is_zero():
        return DivisionResult([f.with_terms({}) for _ in G], f.with_terms({}))
    guard = None if full_division_terminates(f, G, order) else TRUNCATION_STEP_GUARD
    q, r, exact, steps = _division_loop(f, list(G), order, TRUNCATED, guard=guard)
    return DivisionResult(q, r, exact, steps)


def divide_series(f, G, order: MonomialOrder, max_degree: int, *,
                  remainder_only: bool = False) -> DivisionResult:
    """Degree-bounded division: terms above max_degree are discarded.

    Computable stand-in for power-series division under local orders; the
    identity holds modulo terms of total degree above the cutoff, signalled
    by cofactor_ok=False whenever anything was discarded. With
    remainder_only, terms below the highest corner are discarded too (see
    the module docstring): the remainder is unchanged, the quotients stop
    at the corner, and the identity holds modulo terms above the cutoff or
    below the corner. A negative max_degree raises TruncationTooSmall.
    """
    if max_degree < 0:
        raise TruncationTooSmall(f"truncation degree {max_degree} is negative")
    if f.is_zero():
        return DivisionResult([f.with_terms({}) for _ in G], f.with_terms({}))
    start = {e: c for e, c in f.terms.items() if exp_degree(e) <= max_degree}
    exact0 = len(start) == len(f.terms)
    f0 = f.with_terms(start)
    if f0.is_zero():
        return DivisionResult([f.with_terms({}) for _ in G], f.with_terms({}), exact0)
    q, r, exact, steps = _division_loop(f0, list(G), order, SERIES,
                                        max_degree=max_degree,
                                        remainder_only=remainder_only)
    return DivisionResult(q, r, exact and exact0, steps)


def s_function(f, g, order: MonomialOrder):
    """Head-cancelling combination lc(g)*m*f - lc(f)*m'*g.

    m and m' lift the leading terms of f and g to their least common
    multiple, so the two head monomials cancel.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("S-function of zero polynomial")
    ef, cf = f.leading(order)
    eg, cg = g.leading(order)
    lcm = exp_lcm(ef, eg)
    left = f.mul_monomial(exp_sub(lcm, ef), cg)
    right = g.mul_monomial(exp_sub(lcm, eg), cf)
    return left - right
