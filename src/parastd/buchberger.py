"""Buchberger's algorithm with cofactor tracking, minimalization, reduction.

Every basis element carries its expression in the input generators, so
membership certificates survive minimalization and interreduction. The
pair queue runs the normal strategy (smallest lcm under the active order)
and skips coprime pairs. New elements have their denominators cleared and
their rational content divided out, which keeps coefficients small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonTerminatingOrder, ZeroPolynomialError
from .orders import MonomialOrder, exp_add, exp_divides, exp_lcm, exp_sub, is_global, lex
from .division import divide, s_function
from .polyring import AScalar, ParamPoly, ParamScalar


@dataclass
class BasisResult:
    generators: list[ParamPoly]
    cofactors: list[list[ParamPoly]]
    order: MonomialOrder
    homogeneous: bool

    def leading_exponents(self):
        return [g.leading(self.order)[0] for g in self.generators]


def _clear_and_shrink(g: ParamPoly, cofs: list[ParamPoly]):
    """Integralize g (and its cofactors identically), divide out content."""
    dens: list[AScalar] = []
    for p in [g] + cofs:
        for d in p.coefficient_denominators():
            if all(d != d0 for d0 in dens):
                dens.append(d)
    if dens:
        mult = AScalar.one(g.m)
        for d in dens:
            mult = mult * d
        s = ParamScalar(mult)
        g = g.scale(s).map_coeffs(lambda c: c.reduced())
        cofs = [p.scale(s).map_coeffs(lambda c: c.reduced()) for p in cofs]
    cont = g.rational_content()
    if cont != 1:
        s = ParamScalar.const(1 / cont, g.m)
        g = g.scale(s)
        cofs = [p.scale(s) for p in cofs]
    return g, cofs


def buchberger(F, order: MonomialOrder,
               degree_dims: int | None = None) -> BasisResult:
    """Compute a standard basis of the ideal generated by F.

    Terminates for a global order, or for homogeneous input under any
    order (the staircase grows strictly inside a noetherian lattice).
    S-functions are reduced by full division. degree_dims restricts the
    homogeneity bookkeeping to the first coordinates (the (x, z) slice of
    a combined ring).
    """
    F = list(F)
    nonzero = [f for f in F if not f.is_zero()]
    if not nonzero:
        raise ZeroPolynomialError("buchberger needs at least one nonzero input")
    n, m = nonzero[0].n, nonzero[0].m
    homog = all(f.is_homogeneous(degree_dims) for f in nonzero)
    if not is_global(order) and not homog:
        raise NonTerminatingOrder(
            "basis computation needs a well order or homogeneous input; "
            "route local orders through homogenization")

    gens: list[ParamPoly] = []
    cofs: list[list[ParamPoly]] = []
    leads = []
    for i, f in enumerate(F):
        if f.is_zero():
            continue
        unit = [ParamPoly.zero(n, m) for _ in F]
        unit[i] = ParamPoly.constant(1, n, m)
        g, c = _clear_and_shrink(f, unit)
        gens.append(g)
        cofs.append(c)
        leads.append(g.leading(order)[0])

    def pair_key(i, j):
        return order.key(exp_lcm(leads[i], leads[j])) + (i, j)

    pairs = {(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))}
    while pairs:
        i, j = min(pairs, key=lambda p: pair_key(*p))
        pairs.discard((i, j))
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
        ei, ci = gens[i].leading(order)
        ej, cj = gens[j].leading(order)
        lcm = exp_lcm(ei, ej)
        rc = [a.mul_monomial(exp_sub(lcm, ei), cj) - b.mul_monomial(exp_sub(lcm, ej), ci)
              for a, b in zip(cofs[i], cofs[j])]
        for q, gc in zip(res.quotients, cofs):
            if q.is_zero():
                continue
            rc = [a - q * b for a, b in zip(rc, gc)]
        r, rc = _clear_and_shrink(r, rc)
        gens.append(r)
        cofs.append(rc)
        leads.append(r.leading(order)[0])
        k = len(gens) - 1
        pairs.update((i2, k) for i2 in range(k))

    return BasisResult(gens, cofs, order,
                       homog and all(g.is_homogeneous(degree_dims) for g in gens))


def minimalize(B: BasisResult) -> BasisResult:
    """Drop generators whose leading exponent lies in another's cone."""
    leads = B.leading_exponents()
    idx = sorted(range(len(leads)), key=lambda i: B.order.key(leads[i]))
    keep: list[int] = []
    kept_exps = []
    for i in idx:
        if any(exp_divides(e, leads[i]) for e in kept_exps):
            continue
        keep.append(i)
        kept_exps.append(leads[i])
    keep.sort()
    return BasisResult([B.generators[i] for i in keep],
                       [B.cofactors[i] for i in keep],
                       B.order, B.homogeneous)


def reduce_basis(B: BasisResult, order: MonomialOrder) -> BasisResult:
    """Monic, tail-reduced basis; unique for the ideal and order.

    Expects a minimal basis under a global order (or homogeneous data).
    Each generator's tail is divided by the other generators and the
    result is scaled monic; cofactors follow every step.
    """
    gens = list(B.generators)
    cofs = [list(c) for c in B.cofactors]
    out_g: list[ParamPoly] = []
    out_c: list[list[ParamPoly]] = []
    for i, g in enumerate(gens):
        others = gens[:i] + gens[i + 1:]
        others_c = cofs[:i] + cofs[i + 1:]
        if others:
            res = divide(g, others, order)
            r = res.remainder
            rc = list(cofs[i])
            for q, gc in zip(res.quotients, others_c):
                if q.is_zero():
                    continue
                rc = [a - q * b for a, b in zip(rc, gc)]
        else:
            r, rc = g, list(cofs[i])
        _, lc = r.leading(order)
        inv = ParamScalar.one(r.m) / lc
        r = r.scale(inv).map_coeffs(lambda c: c.reduced())
        rc = [p.scale(inv).map_coeffs(lambda c: c.reduced()) for p in rc]
        out_g.append(r)
        out_c.append(rc)
    return BasisResult(out_g, out_c, B.order, B.homogeneous)


def parameter_groebner(gens: list[AScalar]) -> list[AScalar]:
    """Reduced lex Groebner basis of an ideal inside the parameter ring.

    The parameters are treated as main variables with an empty parameter
    block, reusing the one engine. Returns [] for the zero ideal.
    """
    nz = [g for g in gens if not g.is_zero()]
    if not nz:
        return []
    m = nz[0].m
    order = lex(m)
    polys = [ParamPoly({e: ParamScalar.const(c, 0) for e, c in g.terms.items()}, m, 0)
             for g in nz]
    res = reduce_basis(minimalize(buchberger(polys, order)), order)
    out = []
    for g in res.generators:
        out.append(AScalar({e: c.num.constant_value() / c.den.constant_value()
                            for e, c in g.terms.items()}, m))
    return out


def normal_form_param(s: AScalar, basis: list[AScalar]) -> AScalar:
    """Remainder modulo a basis from parameter_groebner (lex division)."""
    if s.is_zero() or not basis:
        return s
    m = s.m
    order = lex(m)
    f = ParamPoly({e: ParamScalar.const(c, 0) for e, c in s.terms.items()}, m, 0)
    G = [ParamPoly({e: ParamScalar.const(c, 0) for e, c in g.terms.items()}, m, 0)
         for g in basis]
    r = divide(f, G, order).remainder
    return AScalar({e: c.num.constant_value() / c.den.constant_value()
                    for e, c in r.terms.items()}, m)
