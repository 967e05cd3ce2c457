"""Seeded rational sample points, on all of parameter space or on a variety.

With no conditions, points are drawn from a fixed pool and filtered by
`avoid`. Otherwise `variety_points` takes the variety's reduced lex
Groebner basis (as `PrimeContext.qbasis` holds it) and walks it from the
last parameter to the first (extension theorem, Cox-Little-O'Shea 3.1;
Lazard, JSC 1992). An element's level is the first parameter it uses;
the elements of level >= k generate the ideal's part in Q[a_k..a_m]. With
a_(k+1).. chosen, a_k ranges over the common rational roots of the level-k
elements, or is drawn from the pool when they all vanish. Walks repeat
until `count` points are found or MAX_TRIES draws are spent; a walk that
draws nothing has visited every rational point. A free parameter drawn
from the pool may still not extend to a rational point, so callers must
cope with fewer points than requested.

Roots come from `polyring.rational_roots` (a quadratic from its
discriminant; from degree 3 on, integer candidates p/q tested by integer
Horner, a divisor walk of O(sqrt|c_0| + sqrt|c_n|) steps), memoized within
a call on the substituted coefficients. Root finding draws nothing from the
rng, so the points for a seed depend only on the draws and the roots.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .polyring import AScalar, rational_roots, univariate_coefficients

_POOL = [Fraction(k) for k in (1, -1, 2, -2, 3, -3, 5, -5, 7, 4, -4, 9)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(2, 3),
    Fraction(-5, 3), Fraction(7, 2),
]
MAX_TRIES = 400  # random draws per variety_points call


def variety_points(basis, m: int, rng: Random, count: int, avoid=()):
    """Up to `count` rational points where every element of the reduced
    lex basis vanishes and none of `avoid` does. Deterministic for a fixed
    rng state."""
    basis = [c for c in basis if not c.is_zero()]
    if any(c.is_constant() for c in basis):
        return []  # a nonzero constant vanishes nowhere
    avoid = [a for a in avoid if not a.is_constant()]
    found: list[tuple[Fraction, ...]] = []

    def push(p):
        if p not in found and all(c.vanishes_at(p) for c in basis) \
                and not any(a.vanishes_at(p) for a in avoid):
            found.append(p)

    if not basis:
        tries = 0
        while len(found) < count and tries < MAX_TRIES:
            tries += 1
            push(tuple(rng.choice(_POOL) for _ in range(m)))
        return found

    levels: list[list[AScalar]] = [[] for _ in range(m)]
    for c in basis:
        levels[min(i for e in c.terms for i, k in enumerate(e) if k)].append(c)
    values: list = [None] * m
    memo: dict = {}
    tries = 0

    def walk(k):
        nonlocal tries
        if k < 0:
            return push(tuple(values))
        key = tuple(cs for cs in (tuple(univariate_coefficients(c, k, values))
                                  for c in levels[k]) if any(cs))
        if not key:
            if tries >= MAX_TRIES:
                return
            tries += 1
            roots = [rng.choice(_POOL)]
        elif key in memo:
            roots = memo[key]
        else:
            first = AScalar({(d,): c for d, c in enumerate(key[0]) if c}, 1)
            roots = memo[key] = [r for r in rational_roots(first) if all(
                sum(c * r ** d for d, c in enumerate(cs)) == 0 for cs in key[1:])]
        for r in roots:
            if len(found) >= count:
                return
            values[k] = r
            walk(k - 1)

    while len(found) < count and tries < MAX_TRIES:
        before = tries
        walk(m - 1)
        if tries == before:
            break  # no free parameter: every rational point was visited
    return found
