"""Output checks that do not share code with parastd: sympy recomputes them.

`generic_staircase` specializes a generic standard basis problem at
admissible rational points and compares the staircase with the leading
monomials of `sympy.groebner`. `milnor_strata` finds a rational point on
each finite-mu stratum and checks mu = dim_Q Q[x]/(I + m^(mu+1)); when the
local Milnor number is mu, m^mu lies in I locally (Nakayama), so the
quotient by I + m^(mu+1) has exactly dimension mu.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random

import sympy as sp
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import monomial_key

POOL = [Fraction(k) for k in (0, 1, -1, 2, -2, 3, -3, 5, 7)] + [
    Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2), Fraction(-5, 2), Fraction(2, 3)]
MAX_TRIES = 200


class Problem:
    """params, vars and ideal of a problem file, as sympy objects."""

    def __init__(self, lines):
        sections = {}
        for line in lines:
            line = line.split("#", 1)[0].strip()
            if ":" in line:
                key, value = line.split(":", 1)
                sections[key.strip()] = value.strip()
        self.params = sp.symbols(_names(sections.get("params", "")))
        self.vars = sp.symbols(_names(sections["vars"]))
        self.ideal = [self.expr(t) for t in sections["ideal"].split(",")]

    def expr(self, text):
        names = {str(s): s for s in (*self.params, *self.vars)}
        return sp.parse_expr(text.replace("^", "**"), local_dict=names)

    def at(self, point) -> dict:
        return {s: sp.Rational(v.numerator, v.denominator) for s, v in zip(self.params, point)}


def _names(text):
    return tuple(n.strip() for n in text.split(",") if n.strip())


def _leading_monomials(polys, xs):
    basis = sp.groebner(polys, *xs, order="grevlex")
    return [max(p.monoms(), key=monomial_key("grevlex")) for p in basis.polys]


def _minimal(exps):
    exps = sorted(set(exps))
    return sorted(e for e in exps
                  if not any(f != e and all(a <= b for a, b in zip(f, e)) for f in exps))


def _points(rng: Random, m: int):
    pool = list(POOL)
    rng.shuffle(pool)
    cands = list(product(pool, repeat=m))
    rng.shuffle(cands)
    return cands[:MAX_TRIES]


def generic_staircase(lines, result, rng: Random, count: int = 2) -> tuple[int, list[str]]:
    """Compare a gsb result's staircase with sympy at `count` admissible points."""
    prob = Problem(lines)
    h = prob.expr(result["h"])
    qs = [prob.expr(q) for q in result["q"]]
    want = sorted(tuple(e) for e in result["staircase"])
    checks, failures = 0, []
    for point in _points(rng, len(prob.params)):
        sub = prob.at(point)
        if h.subs(sub) == 0 or any(q.subs(sub) != 0 for q in qs):
            continue
        spec = [f.subs(sub) for f in prob.ideal]
        got = _minimal(_leading_monomials([f for f in spec if f != 0], prob.vars))
        checks += 1
        if got != want:
            failures.append(f"staircase at {point} is {got}, gsb says {want}")
        if checks == count:
            break
    return checks, failures


def _cell_point(prob: Problem, cell, rng: Random):
    """A rational point of the cell, from a bounded search, or None."""
    vanish = [prob.expr(v) for v in cell["vanish"]]
    nonvanish = [prob.expr(v) for v in cell["nonvanish"]]

    def inside(point):
        sub = prob.at(point)
        return (all(v.subs(sub) == 0 for v in vanish)
                and all(v.subs(sub) != 0 for v in nonvanish))

    if not vanish:
        return next((p for p in _points(rng, len(prob.params)) if inside(p)), None)
    # fix all parameters but one from the pool, solve the first condition for it
    free = [i for i, s in enumerate(prob.params) if vanish[0].has(s)]
    if not free:
        return None
    for k, point in enumerate(_points(rng, len(prob.params))):
        i = free[k % len(free)]
        sub = {s: sp.Rational(v.numerator, v.denominator)
               for j, (s, v) in enumerate(zip(prob.params, point)) if j != i}
        uni = sp.Poly(vanish[0].subs(sub), prob.params[i])
        if uni.is_zero:
            continue
        for root in uni.ground_roots():
            cand = list(point)
            cand[i] = Fraction(int(root.p), int(root.q))
            if inside(cand):
                return tuple(cand)
    return None


def _exponents(n: int, top: int):
    """Exponent tuples of total degree at most top."""
    if n == 0:
        yield ()
        return
    for k in range(top + 1):
        for rest in _exponents(n - 1, top - k):
            yield (k, *rest)


def _quotient_dim(polys, xs, top: int) -> int:
    """dim_Q Q[x]/(polys + m^(top+1)), by linear algebra below degree top+1.

    Modulo m^(top+1) the ideal is spanned by the truncations of x^alpha * f
    with |alpha| <= top, so the dimension is the number of monomials of
    degree <= top minus the rank of those truncations.
    """
    monos = list(_exponents(len(xs), top))
    col = {e: i for i, e in enumerate(monos)}
    rows = {}
    for f in polys:
        terms = sp.Poly(f, *xs).terms()
        for alpha in monos:
            row = {}
            for e, c in terms:
                shifted = tuple(a + b for a, b in zip(alpha, e))
                if sum(shifted) <= top:
                    row[col[shifted]] = sp.QQ(int(c.p), int(c.q))
            if row:
                rows[len(rows)] = row
    if not rows:
        return len(monos)
    return len(monos) - DomainMatrix(rows, (len(rows), len(monos)), sp.QQ).rank()


def milnor_strata(lines, result, rng: Random) -> tuple[int, list[str]]:
    """Check mu on every finite-mu stratum where a rational point is found."""
    prob = Problem(lines)
    checks, failures = 0, []
    for stratum in result["strata"]:
        if stratum["milnor"] == "infinite":
            continue
        mu = int(stratum["milnor"])
        point = next((p for p in (_cell_point(prob, c, rng) for c in stratum["cells"])
                      if p is not None), None)
        if point is None:
            continue
        sub = prob.at(point)
        spec = [f.subs(sub) for f in prob.ideal]
        got = _quotient_dim([f for f in spec if f != 0], prob.vars, mu)
        checks += 1
        if got != mu:
            failures.append(f"mu at {point} is {got}, hilbert says {mu}")
    return checks, failures
