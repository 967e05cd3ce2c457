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

The loop runs on order keys, not exponents. MonomialOrder.key packs an
exponent into one int and is linear in it (orders module docstring), so
the iterate is a dict from keys to coefficients: the leading term is the
largest key, a reduction step's shift is the difference of two keys, the
key of each term it generates is the divisor term's key plus the shift,
and the divisor is found by the guard-bit test `order.region` against the
divisors' cached cones. Each generated key is tested against
`order.overflow` with one AND; an entry that reaches 2^31 raises
ExponentOverflow.

The loop is a kernel in key space, `divide_keyed`: the iterate, a dict
from keys to coefficients, goes in with each divisor's keyed terms and
the cone of its leading key; quotient and remainder terms, the step
count and the multiplier come out, still keyed. It computes no key and
unpacks no exponent, and it is the package's only division algorithm.
`divide`, `divide_truncated` and `divide_series` wrap it for ring
elements: they read each term's key from `orders.keyed_terms`, which
caches it on the immutable dividend and divisors, and build the
DivisionResult, unpacking exponents for the terms of the quotients and
the remainder only; the remainder keeps its keyed terms as its cache.
The S-function has a kernel in key space too, `s_function_keyed`: each
term's key is its parent term's key plus the parent's shift to the lcm,
so only the lcm is keyed, and `s_function` wraps it. The basis engine
calls the two kernels directly, on keyed term lists it keeps from input
to return, so it builds no ring element per S-pair.

Dividends and divisors share one ring per call, AScalar or ParamPoly,
the two instances of polyring's sparse core: the wrappers read only
`keyed_terms`, `is_zero` and `with_terms`, and the kernel tests
coefficients for zero by truth value. Exact division and the square-free
gcd in Q[a] call the wrappers too.

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

from functools import reduce
from math import gcd
from operator import itemgetter, or_

from .errors import (
    ExponentOverflow,
    NonTerminatingDivision,
    NonTerminatingOrder,
    TruncationTooSmall,
    ZeroPolynomialError,
)
from .orders import (
    MonomialOrder,
    exp_lcm,
    exp_sub,
    is_global,
    keyed_terms,
    with_keyed_terms,
)

TRUNCATION_STEP_GUARD = 20000


class DivisionResult:
    def __init__(self, quotients: list, remainder, cofactor_ok: bool = True, steps: int = 0,
                 multiplier: int = 1):
        self.quotients, self.remainder, self.cofactor_ok = quotients, remainder, cofactor_ok
        self.steps, self.multiplier = steps, multiplier


FULL = "full"
TRUNCATED = "truncated"
SERIES = "series"


def highest_corner(cones: list, order: MonomialOrder, max_degree: int) -> int | None:
    """Key of the order-least exponent of degree <= max_degree in none of
    the cones (`order.cone` of the divisors' leading keys).

    None when every such exponent lies in a cone. The standard monomials
    are closed under division, so a walk up from `order.origin` that adds
    one variable's key shift at a time and never leaves them visits each
    of them and nothing else; it tests `order.region` and `order.degree`
    on keys and unpacks no exponent.
    """
    region, degree, origin = order.region, order.degree, order.origin
    if region(cones, origin) is not None:
        return None
    shifts = [order.key(tuple(int(i == j) for j in range(order.n))) - origin
              for i in range(order.n)]
    seen = {origin}
    stack = [origin]
    while stack:
        k = stack.pop()
        if degree(k) == max_degree:
            continue
        for s in shifts:
            u = k + s
            if u not in seen and region(cones, u) is None:
                seen.add(u)
                stack.append(u)
    return min(seen)


def divide_keyed(iterate: dict, keyed: list, cones: list, order: MonomialOrder,
                 mode: str = FULL, max_degree: int | None = None,
                 floor: int | None = None, guard: int | None = None):
    """The division kernel, in key space: divide the iterate by the divisors.

    `iterate` maps keys to nonzero coefficients and is consumed. Divisor j
    is given by its keyed terms `keyed[j]`, largest key first, and by the
    cone of its leading key, `cones[j]`. In SERIES mode a generated term of
    degree above max_degree, or with a key below floor, is dropped. Returns
    (quotients, remainder, exact, steps, multiplier): quotients maps the
    index j of each divisor that took a step to its quotient terms, pairs
    (shift, coefficient) with key(e) = shift + order.origin for the term
    x^e; the remainder lists pairs (key, coefficient), largest key first;
    exact is False when SERIES mode dropped a term.
    """
    degree, region, overflow = order.degree, order.region, order.overflow
    quotients: dict = {}
    remainder: dict = {}
    exact = True
    steps, lam = 0, 1
    while iterate:
        steps += 1
        if guard is not None and steps > guard:
            raise NonTerminatingDivision(
                f"no stopping state after {guard} reduction steps")
        k = max(iterate)
        j = region(cones, k)
        if j is None:
            if mode == TRUNCATED:
                remainder = {kk: (c, lam) for kk, c in iterate.items()}
                break
            remainder[k] = (iterate.pop(k), lam)
            continue
        kd, dc = keyed[j][0]
        shift = k - kd
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
        # leading keys strictly decrease, so quotient terms never collide
        q = quotients.get(j)
        if q is None:
            q = quotients[j] = {}
        q[shift] = (coeff, lam)
        for k0, c0 in keyed[j]:
            kk = k0 + shift
            if kk in iterate:
                v = iterate[kk] - c0 * coeff
                if v:
                    iterate[kk] = v
                else:
                    del iterate[kk]
            elif mode == SERIES and (degree(kk) > max_degree or (
                    floor is not None and kk < floor)):
                exact = False
            elif kk & overflow:
                raise ExponentOverflow("division generated an exponent entry of 2^31 or more")
            else:
                iterate[kk] = -(c0 * coeff)

    def scaled(terms):  # each term times the factor lam gained after its stamp
        return [(k, c if s == lam else c * (lam // s)) for k, (c, s) in terms.items()]

    return ({j: scaled(q) for j, q in quotients.items()},
            sorted(scaled(remainder), key=itemgetter(0), reverse=True), exact, steps, lam)


def _division_loop(f, divisors, order, mode, max_degree=None, guard=None,
                   remainder_only=False):
    # terms are keyed by order key, not exponent (module docstring); remainder_only
    # builds no quotients in full division and cuts below the corner in series
    iterate = dict(keyed_terms(f, order))
    exact = True
    if mode == SERIES:
        # the degree cut applies to the dividend as to every generated term
        degree = order.degree
        kept = {k: c for k, c in iterate.items() if degree(k) <= max_degree}
        exact = len(kept) == len(iterate)
        iterate = kept
    # polynomials are immutable, so every empty quotient shares one zero
    zero = f.with_terms({})
    no_quotients = remainder_only and mode == FULL
    if not iterate:  # nothing to divide: the divisors are not read
        return DivisionResult([] if no_quotients else [zero] * len(divisors), zero, exact)
    keyed = []
    for g in divisors:
        if g.is_zero():
            raise ZeroPolynomialError("zero divisor")
        keyed.append(keyed_terms(g, order))
    cones = [order.cone(kg[0][0]) for kg in keyed]
    floor = None
    if remainder_only and mode == SERIES:
        # terms below the highest corner never reach the remainder (module
        # docstring); with no corner, nothing does
        floor = highest_corner(cones, order, max_degree)
        kept = {} if floor is None else {k: c for k, c in iterate.items() if k >= floor}
        exact &= len(kept) == len(iterate)
        iterate = kept
    quotients, remainder, loop_exact, steps, lam = divide_keyed(
        iterate, keyed, cones, order, mode, max_degree, floor, guard)
    return DivisionResult([] if no_quotients else
                          [quotient_poly(f, order, quotients[j]) if j in quotients else zero
                           for j in range(len(keyed))],
                          with_keyed_terms(f, order, remainder),
                          exact and loop_exact, steps, lam)


def quotient_poly(p, order: MonomialOrder, terms: list):
    """Element of p's ring with the quotient terms (shift, coefficient)
    of `divide_keyed`."""
    origin, exponent = order.origin, order.exponent
    return p.with_terms({exponent(s + origin): c for s, c in terms})


def full_division_terminates(f, G, order: MonomialOrder) -> bool:
    """True under a global order, or when f and every divisor are homogeneous."""
    return is_global(order) or (f.is_homogeneous()
                                and all(g.is_homogeneous() for g in G))


def divide(f, G, order: MonomialOrder, *, remainder_only: bool = False) -> DivisionResult:
    """Full division of f by the list G: unique quotients and remainder.

    A nonzero f needs a global order, or homogeneous data (any order);
    otherwise NonTerminatingOrder is raised. The result satisfies the exact
    identity multiplier*f = sum(q_j g_j) + R (multiplier 1 unless f and G
    have int coefficients, see the module docstring), the support
    conditions on quotients and remainder, and the max property on leading
    exponents. With remainder_only the loop is the same, but no quotient
    is built: the result's quotients are [].
    """
    if not f.is_zero() and not full_division_terminates(f, G, order):
        raise NonTerminatingOrder(
            "full division needs a well order or homogeneous data; "
            "use divide_truncated or divide_series")
    return _division_loop(f, list(G), order, FULL, remainder_only=remainder_only)


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
    head terms cancel when they are the leading terms of f and g. Zero
    when f and g are both zero, without touching the heads.
    """
    if f.is_zero() and g.is_zero():
        return f
    (ef, cf), (eg, cg) = lead_f, lead_g
    lcm = exp_lcm(ef, eg)
    return f.mul_monomial(exp_sub(lcm, ef), cg) - g.mul_monomial(exp_sub(lcm, eg), cf)


def s_function_keyed(kf: list, kg: list, top: int, order: MonomialOrder) -> dict:
    """The S-function kernel, in key space: lc(g)*m*f - lc(f)*m'*g as a
    dict from keys to nonzero coefficients.

    kf and kg are the keyed terms of f and g, largest key first, and top is
    the key of the lcm of their leading exponents. Each term's key is its
    parent term's key plus the parent's shift to the lcm.
    """
    (hf, cf), (hg, cg) = kf[0], kg[0]
    shift = top - hf
    acc = {k + shift: c * cg for k, c in kf}
    shift = top - hg
    for k, c in kg:
        kk = k + shift
        if kk in acc:
            v = acc[kk] + -(c * cf)
            if v:
                acc[kk] = v
            else:
                del acc[kk]
        else:
            acc[kk] = -(c * cf)
    # keys are nonnegative, so their OR meets the mask iff one of them does
    if reduce(or_, acc, 0) & order.overflow:
        raise ExponentOverflow("S-function with an exponent entry of 2^31 or more")
    return acc


def s_function(f, g, order: MonomialOrder):
    """Head-cancelling combination lc(g)*m*f - lc(f)*m'*g (s_combination),
    built from the cached keyed terms of f and g by `s_function_keyed`."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("S-function of zero polynomial")
    kf, kg = keyed_terms(f, order), keyed_terms(g, order)
    top = order.key(exp_lcm(order.exponent(kf[0][0]), order.exponent(kg[0][0])))
    acc = s_function_keyed(kf, kg, top, order)
    return with_keyed_terms(f, order, sorted(acc.items(), key=itemgetter(0), reverse=True))
