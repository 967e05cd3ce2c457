"""Division with unique quotients and remainder, truncated and series variants.

The engine is the classical iterative loop: repeatedly inspect the leading
exponent of the current iterate; if it lies in some divisor's region of the
exponent partition, reduce by that divisor (smallest index wins), otherwise
move the leading monomial to the remainder. Full division needs a well
order or homogeneous data to terminate; the truncated variant stops the
first time the leading exponent escapes every divisor cone; the series
variant discards every term above a degree cutoff, the dividend's too,
which is the computable stand-in for power-series division under local
orders. A zero dividend, or one the cutoff removes whole, runs the same
loop: it gives zero quotients and remainder and reads no divisor.

A series division asked for its remainder only also discards every term
below the highest corner: the order-least exponent of degree at most the
cutoff that lies in no divisor cone. Leading exponents strictly decrease,
and every exponent below the corner within the cutoff lies in some cone,
so such a term could only be reduced into still smaller terms; it never
reaches the remainder or changes a coefficient at or above the corner.
The remainder is the one the full series division computes, term by term,
while the quotients stop at the corner.

The loop runs on order keys, not exponents. MonomialOrder.key is linear
in the exponent and ends with the exponent itself, so the iterate is a dict
from keys to coefficients: the leading term is the largest key, the
exponent is the key's tail, and the key of a term generated by a reduction
is the entrywise sum of the divisor term's key and the shift's key. Each
term's key is computed once, by `orders.keyed_terms`, which caches it on
the immutable dividend and divisors; the loop itself computes none.

Dividends and divisors share one ring per call, AScalar or ParamPoly,
the two instances of polyring's sparse core: the loop reads only
`keyed_terms`, `is_zero` and `with_terms`, and tests coefficients for
zero by truth value. It is the package's only division algorithm (exact
division and the square-free gcd in Q[a] call it too), and it builds the
DivisionResult that divide, divide_truncated and divide_series return.

A reduction step whose head coefficient c and divisor lead dc are both
`int` (the basis engine's primitive integer polynomials) stays in the
integers, as a pseudo-division step does: with g = gcd(c, dc) it first
scales the iterate by a = |dc|/g, then subtracts sign(dc)*c/g times the
shifted divisor, and multiplies the running multiplier by a. Quotient and
remainder terms are stored with the multiplier current at the time and
scaled up to the final one at the end. The result's `multiplier` is the
positive integer with multiplier*f = sum(q_j g_j) + R; scaling never
changes the iterate's support, so the steps, divisor choices and supports
are those of division over Q, and every output is `multiplier` times its
field counterpart. Every other coefficient type (Fraction, ParamScalar)
takes the field step c/dc, and its multiplier is 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import add, sub

from .errors import (
    NonTerminatingDivision,
    NonTerminatingOrder,
    TruncationTooSmall,
    ZeroPolynomialError,
)
from .orders import (
    Exponent,
    MonomialOrder,
    exp_degree,
    exp_lcm,
    exp_sub,
    is_global,
    keyed_terms,
    region_of,
)

TRUNCATION_STEP_GUARD = 20000


@dataclass
class DivisionResult:
    quotients: list
    remainder: object
    cofactor_ok: bool = True
    steps: int = field(default=0, repr=False)
    multiplier: int = 1


FULL = "full"
TRUNCATED = "truncated"
SERIES = "series"


def highest_corner(leads, n: int, order: MonomialOrder,
                   max_degree: int) -> Exponent | None:
    """Order-least exponent of degree <= max_degree in no cone of leads.

    None when every such exponent lies in a cone. The standard monomials
    are closed under division, so a walk up from 0 that raises one entry
    at a time and never leaves them visits each of them and nothing else.
    """
    zero = (0,) * n
    if region_of(leads, zero) is not None:
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
            if u in seen or region_of(leads, u) is not None:
                continue
            seen.add(u)
            stack.append(u)
            k = order.key(u)
            if k < best_key:
                best, best_key = u, k
    return best


def _division_loop(f, divisors, order, mode, max_degree=None, guard=None,
                   remainder_only=False):
    # terms are keyed by order key, not exponent (module docstring); an
    # exponent is the tail k[r:] of its key
    r = len(order.rows)
    iterate = dict(keyed_terms(f, order))
    exact = True
    if mode == SERIES:
        # the degree cut applies to the dividend as to every generated term
        kept = {k: c for k, c in iterate.items() if sum(k[r:]) <= max_degree}
        exact = len(kept) == len(iterate)
        iterate = kept
    # polynomials are immutable, so every empty quotient shares one zero
    zero = f.with_terms({})
    if not iterate:  # nothing to divide: the divisors are not read
        return DivisionResult([zero] * len(divisors), zero, exact)
    keyed = []
    for g in divisors:
        if g.is_zero():
            raise ZeroPolynomialError("zero divisor")
        keyed.append(keyed_terms(g, order))
    leads = [kg[0][0][r:] for kg in keyed]
    # iterate, quotients and remainder are plain dicts updated in place; the
    # ring elements are built once at the end
    quotients: list[dict] = [{} for _ in divisors]
    remainder: dict = {}
    floor = None
    if remainder_only:
        # series mode only: terms below the highest corner never reach the
        # remainder (module docstring); with no corner, nothing does
        corner = highest_corner(leads, order.n, order, max_degree)
        if corner is None:
            kept = {}
        else:
            floor = order.key(corner)
            kept = {k: c for k, c in iterate.items() if k >= floor}
        exact &= len(kept) == len(iterate)
        iterate = kept
    steps, lam = 0, 1
    while iterate:
        steps += 1
        if guard is not None and steps > guard:
            raise NonTerminatingDivision(
                f"no stopping state after {guard} reduction steps")
        k = max(iterate)
        e = k[r:]
        j = region_of(leads, e)
        if j is None:
            if mode == TRUNCATED:
                remainder = {kk[r:]: (c, lam) for kk, c in iterate.items()}
                break
            remainder[e] = (iterate.pop(k), lam)
            continue
        kd, dc = keyed[j][0]
        shift = tuple(map(sub, k, kd))
        c = iterate[k]
        if type(c) is int and type(dc) is int:
            # integer step (module docstring): a*c - dc*coeff == 0, a > 0
            g = gcd(c, dc)
            a, coeff = abs(dc) // g, (c if dc > 0 else -c) // g
            if a != 1:
                iterate = {kk: v * a for kk, v in iterate.items()}
                lam *= a
        else:
            coeff = c / dc
        # leading exponents strictly decrease, so quotient terms never collide
        quotients[j][shift[r:]] = (coeff, lam)
        for k0, c0 in keyed[j]:
            kk = tuple(map(add, k0, shift))
            if kk in iterate:
                v = iterate[kk] - c0 * coeff
                if v:
                    iterate[kk] = v
                else:
                    del iterate[kk]
            elif mode == SERIES and (sum(kk[r:]) > max_degree or (
                    floor is not None and kk < floor)):
                exact = False
            else:
                iterate[kk] = -(c0 * coeff)

    def scaled(terms):  # each term times the factor lam gained after its stamp
        if not terms:
            return zero
        return f.with_terms({e: c if s == lam else c * (lam // s)
                             for e, (c, s) in terms.items()})

    return DivisionResult([scaled(q) for q in quotients], scaled(remainder),
                          exact, steps, lam)


def full_division_terminates(f, G, order: MonomialOrder) -> bool:
    """True under a global order, or when f and every divisor are homogeneous."""
    return is_global(order) or (f.is_homogeneous()
                                and all(g.is_homogeneous() for g in G))


def divide(f, G, order: MonomialOrder) -> DivisionResult:
    """Full division of f by the list G: unique quotients and remainder.

    A nonzero f needs a global order, or homogeneous data (any order);
    otherwise NonTerminatingOrder is raised. The result satisfies the exact
    identity multiplier*f = sum(q_j g_j) + R (multiplier 1 unless f and G
    have int coefficients, see the module docstring), the support
    conditions on quotients and remainder, and the max property on leading
    exponents.
    """
    if not f.is_zero() and not full_division_terminates(f, G, order):
        raise NonTerminatingOrder(
            "full division needs a well order or homogeneous data; "
            "use divide_truncated or divide_series")
    return _division_loop(f, list(G), order, FULL)


def divide_truncated(f, G, order: MonomialOrder) -> DivisionResult:
    """Division stopped at the first iterate escaping every divisor cone.

    When the full remainder would be zero this coincides with full division;
    otherwise the remainder is the whole iterate at the stopping index and
    the quotients are polynomial. The support conditions of full division
    are not guaranteed, but the exact identity and the max property hold.
    """
    guard = None if full_division_terminates(f, G, order) else TRUNCATION_STEP_GUARD
    return _division_loop(f, list(G), order, TRUNCATED, guard=guard)


def divide_series(f, G, order: MonomialOrder, max_degree: int, *,
                  remainder_only: bool = False) -> DivisionResult:
    """Degree-bounded division: terms above max_degree are discarded.

    Computable stand-in for power-series division under local orders; the
    loop cuts the dividend's terms above the cutoff like generated ones,
    and the identity holds modulo terms of total degree above the cutoff,
    signalled by cofactor_ok=False whenever anything was discarded. With
    remainder_only, terms below the highest corner are discarded too (see
    the module docstring): the remainder is unchanged, the quotients stop
    at the corner, and the identity holds modulo terms above the cutoff or
    below the corner. A negative max_degree raises TruncationTooSmall.
    """
    if max_degree < 0:
        raise TruncationTooSmall(f"truncation degree {max_degree} is negative")
    return _division_loop(f, list(G), order, SERIES, max_degree=max_degree,
                          remainder_only=remainder_only)


def s_combination(f, g, lead_f, lead_g):
    """cg*m*f - cf*m'*g for the head terms lead_f = (ef, cf), lead_g = (eg, cg).

    m and m' lift ef and eg to their least common multiple, so the two
    head terms cancel when they are the leading terms of f and g.
    """
    (ef, cf), (eg, cg) = lead_f, lead_g
    lcm = exp_lcm(ef, eg)
    return f.mul_monomial(exp_sub(lcm, ef), cg) - g.mul_monomial(exp_sub(lcm, eg), cf)


def s_function(f, g, order: MonomialOrder):
    """Head-cancelling combination lc(g)*m*f - lc(f)*m'*g (s_combination)."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("S-function of zero polynomial")
    return s_combination(f, g, f.leading(order), g.leading(order))
