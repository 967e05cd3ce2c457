"""Buchberger's algorithm with cofactor tracking, minimalization, reduction.

Every basis element carries its expression in the input generators, so
membership certificates survive minimalization. The pair queue runs the
normal strategy (smallest lcm under the active order) and skips coprime
pairs. New elements have their rational content divided out, which keeps
coefficients small.

The engine runs over Q on AScalar polynomials: the parametric pipelines
use it in the combined ring Q[x, a] and, for parameter ideals, in Q[a]
under lex.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import NonTerminatingOrder, ZeroPolynomialError
from .orders import MonomialOrder, exp_add, exp_lcm, is_global, keyed_terms, lex
from .division import divide, region_of, s_combination, s_function
from .polyring import AScalar, fraction_content


@dataclass
class BasisResult:
    generators: list
    cofactors: list[list]
    order: MonomialOrder

    def leading_exponents(self):
        return [g.leading(self.order)[0] for g in self.generators]


def buchberger(F, order: MonomialOrder) -> BasisResult:
    """Compute a standard basis of the ideal generated by F.

    F is a list of AScalar, all in one ring. Terminates for a global
    order, or for homogeneous input under any order (the staircase grows
    strictly inside a noetherian lattice). S-functions are reduced by full
    division.
    """
    F = list(F)
    nonzero = [f for f in F if not f.is_zero()]
    if not nonzero:
        raise ZeroPolynomialError("buchberger needs at least one nonzero input")
    if not is_global(order) and not all(f.is_homogeneous() for f in nonzero):
        raise NonTerminatingOrder(
            "basis computation needs a well order or homogeneous input; "
            "route local orders through homogenization")

    zero, one = AScalar.zero(nonzero[0].m), AScalar.one(nonzero[0].m)
    gens: list = []
    cofs: list[list] = []
    leads = []
    for i, f in enumerate(F):
        if f.is_zero():
            continue
        unit = [zero] * len(F)
        unit[i] = one
        g, c = _shrink(f, unit)
        gens.append(g)
        cofs.append(c)
        leads.append(g.leading(order)[0])

    # normal strategy: pop the pair with the smallest lcm, ties by (i, j)
    def entry(i, j):
        return order.key(exp_lcm(leads[i], leads[j])), i, j

    pairs = [entry(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    heapify(pairs)
    while pairs:
        _, i, j = heappop(pairs)
        li, lj = leads[i], leads[j]
        if exp_lcm(li, lj) == exp_add(li, lj):
            continue  # coprime heads: S reduces to zero
        s = s_function(gens[i], gens[j], order)
        if s.is_zero():
            continue
        res = divide(s, gens, order)
        r = res.remainder
        if r.is_zero():
            continue
        # cofactors of the S-function, then subtract the division quotients
        lead_i, lead_j = gens[i].leading(order), gens[j].leading(order)
        rc = [s_combination(a, b, lead_i, lead_j) for a, b in zip(cofs[i], cofs[j])]
        for q, gc in zip(res.quotients, cofs):
            if q.is_zero():
                continue
            rc = [a - q * b for a, b in zip(rc, gc)]
        r, rc = _shrink(r, rc)
        gens.append(r)
        cofs.append(rc)
        leads.append(r.leading(order)[0])
        k = len(gens) - 1
        for i2 in range(k):
            heappush(pairs, entry(i2, k))

    return BasisResult(gens, cofs, order)


def _shrink(g, cofs):
    """Divide g and its cofactors by the positive content of g."""
    cont = fraction_content(g.terms.values())
    if cont == 1:
        return g, cofs
    q = 1 / cont
    return g.scale(q), [p.scale(q) for p in cofs]


def minimalize(B: BasisResult) -> BasisResult:
    """Drop generators whose leading exponent lies in another's cone."""
    leads = B.leading_exponents()
    idx = sorted(range(len(leads)),
                 key=lambda i: keyed_terms(B.generators[i], B.order)[0][0])
    keep: list[int] = []
    kept_exps = []
    for i in idx:
        if region_of(kept_exps, leads[i]) is not None:
            continue
        keep.append(i)
        kept_exps.append(leads[i])
    keep.sort()
    return BasisResult([B.generators[i] for i in keep],
                       [B.cofactors[i] for i in keep], B.order)


def reduce_basis(gens: list, order: MonomialOrder) -> list:
    """Monic, tail-reduced generators; unique for the ideal and order.

    Expects the generators of a minimal basis under a global order (or
    homogeneous data). Each generator is divided by the other generators
    and the remainder is scaled monic.
    """
    out = []
    for i, g in enumerate(gens):
        others = gens[:i] + gens[i + 1:]
        r = divide(g, others, order).remainder if others else g
        out.append(r.scale(1 / r.leading(order)[1]))
    return out


def parameter_groebner(gens: list[AScalar]) -> list[AScalar]:
    """Reduced lex Groebner basis of an ideal inside the parameter ring.

    Runs the engine on the AScalars themselves, over Q with lex on the m
    parameters. Returns [] for the zero ideal.
    """
    nz = [g for g in gens if not g.is_zero()]
    if not nz:
        return []
    order = lex(nz[0].m)
    return reduce_basis(minimalize(buchberger(nz, order)).generators, order)


def normal_form_param(s: AScalar, basis: list[AScalar]) -> AScalar:
    """Remainder modulo a basis from parameter_groebner (lex division)."""
    if s.is_zero() or not basis:
        return s
    return divide(s, basis, lex(s.m)).remainder
