"""Seeded rational sample points, on all of parameter space or on a variety.

Finding rational points on an arbitrary variety is out of reach; the
strategies here cover what the desk-scale pipelines need: no conditions
(rejection sampling), univariate condition sets (rational roots), and a
substitute-then-solve heuristic for the rest. Callers must cope with
fewer points than requested.
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


def random_point(m: int, rng: Random) -> tuple[Fraction, ...]:
    return tuple(rng.choice(_POOL) for _ in range(m))


def _admissible(point, avoid) -> bool:
    return all(a.evaluate(point) != 0 for a in avoid)


def variety_points(conditions, m: int, rng: Random, count: int, avoid=()):
    """Up to `count` rational points where all conditions vanish, none of
    `avoid` does. Deterministic for a fixed rng state."""
    conditions = [c for c in conditions if not c.is_zero()]
    if any(c.is_constant() for c in conditions):
        return []  # a nonzero constant vanishes nowhere
    avoid = [a for a in avoid if not a.is_constant()]
    found: list[tuple[Fraction, ...]] = []

    def push(p):
        if p not in found and all(c.evaluate(p) == 0 for c in conditions) \
                and _admissible(p, avoid):
            found.append(p)

    if not conditions:
        tries = 0
        while len(found) < count and tries < MAX_TRIES:
            tries += 1
            push(random_point(m, rng))
        return found

    if m == 1:
        for r in rational_roots(conditions[0]):
            push((r,))
        return found[:count]

    # substitute random values into all variables but one, solve the last
    used = sorted({i for c in conditions for e in c.terms for i, k in
                   enumerate(e) if k})
    tries = 0
    while len(found) < count and tries < MAX_TRIES:
        tries += 1
        i = used[tries % len(used)]
        values = list(random_point(m, rng))
        coeffs = univariate_coefficients(conditions[0], i, values)
        if all(c == 0 for c in coeffs):
            roots = [values[i]]
        else:
            poly = AScalar({(k,): c for k, c in enumerate(coeffs) if c}, 1)
            if poly.is_constant():
                continue
            roots = rational_roots(poly)
        for r in roots:
            values[i] = r
            push(tuple(values))
            if len(found) >= count:
                break
    return found
