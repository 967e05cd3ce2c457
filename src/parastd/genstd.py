"""Generic standard bases on the vanishing locus of a parameter ideal.

Everything "mod Q": leading data after discarding coefficients whose
numerator lies in Q, division modulo Q (f = sum(q_j g1_j) + R, with g1_j
the part of g_j that survives mod Q), one construction of a generic
standard basis whose route the order picks (block order on Q[x, a] for
well orders, homogenization for the rest), truncated generic reduced
bases, and specialization checks.

A generic standard basis is a pair (generators, h): specializing the
generators at any parameter point where Q vanishes and h does not yields a
standard basis of the specialized ideal, with the recorded staircase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    AllCoefficientsInQ,
    DenominatorInQ,
    NonTerminatingOrder,
    QContainsOne,
    SampleOffVariety,
    SampleOnExcludedLocus,
    TruncationTooSmall,
    ZeroPolynomialError,
)
from .orders import (Exponent, MonomialOrder, combined_order, exp_divides, is_global,
                     keyed_terms)
from .polyring import (
    AScalar,
    ParamPoly,
    ParamScalar,
    common_factor,
    divide_out,
    embed_params_as_vars,
    factor_order,
    fraction_content,
    split_params,
    squarefree_factors,
)
from .division import (DivisionResult, divide, divide_series, full_division_terminates,
                       region_of, s_combination)
from .buchberger import buchberger, minimalize, normal_form_param, parameter_groebner


# ---------------------------------------------------------------------------
# prime context and staircases


@dataclass
class PrimeContext:
    """A prime ideal Q of the parameter ring, held as its reduced lex basis.

    Primality is asserted by the caller, not verified; every mod-Q test
    only needs zero normal forms plus the domain property of the quotient.
    """

    qbasis: tuple[AScalar, ...]
    m: int

    @classmethod
    def from_generators(cls, qgens, m) -> "PrimeContext":
        basis = tuple(parameter_groebner(list(qgens)))
        if any(g.is_constant() for g in basis):
            raise QContainsOne("the parameter ideal contains 1")
        return cls(basis, m)

    @classmethod
    def trivial(cls, m) -> "PrimeContext":
        return cls((), m)

    def contains(self, s: AScalar) -> bool:
        return normal_form_param(s, list(self.qbasis)).is_zero()


def coeff_in_q(s: ParamScalar, ctx: PrimeContext) -> bool:
    """Membership of a fraction's numerator in Q; the denominator must stay out."""
    if ctx.contains(s.den):
        raise DenominatorInQ("coefficient denominator reduces to zero mod Q")
    return ctx.contains(s.num)


@dataclass(frozen=True)
class Staircase:
    """Minimal generators (an antichain) of a sum-stable subset of N^n."""

    n: int
    generators: tuple[Exponent, ...]

    @classmethod
    def from_exponents(cls, n, exponents) -> "Staircase":
        exps = sorted(set(tuple(e) for e in exponents))
        keep = [e for e in exps
                if not any(f != e and exp_divides(f, e) for f in exps)]
        return cls(n, tuple(sorted(keep)))

    def contains(self, e: Exponent) -> bool:
        return region_of(self.generators, e) is not None

    def max_generator_degree(self) -> int:
        return max((sum(e) for e in self.generators), default=0)


# ---------------------------------------------------------------------------
# leading data and division modulo Q


def leading_mod_q(f: ParamPoly, order: MonomialOrder,
                  ctx: PrimeContext) -> tuple[Exponent, ParamScalar]:
    """Order-maximum exponent among terms whose coefficient survives mod Q."""
    r = len(order.rows)
    for k, c in keyed_terms(f, order):
        if not coeff_in_q(c, ctx):
            return k[r:], c
    raise AllCoefficientsInQ("no term survives reduction mod Q")


def drop_q_terms(f: ParamPoly, ctx: PrimeContext) -> ParamPoly:
    """Part of f whose coefficient numerators do not reduce to zero mod Q."""
    kept = {e: c for e, c in f.terms.items() if not coeff_in_q(c, ctx)}
    return ParamPoly(kept, f.n, f.m, _prune=False)


def divide_mod_q(f: ParamPoly, G, order: MonomialOrder, ctx: PrimeContext,
                 trunc_degree: int | None = None) -> DivisionResult:
    """Division of f by G modulo Q: f = sum(q_j g1_j) + R.

    g1_j = drop_q_terms(g_j) is the part of g_j that survives mod Q, so
    f - sum(q_j g_j) - R = sum(q_j (g1_j - g_j)) has every coefficient
    numerator in Q. Under a global order, or on homogeneous data, the
    division is exact; otherwise the degree cutoff trunc_degree is required
    and the series division runs remainder-only: R is the full truncated
    remainder, while the quotients stop at the highest corner, so the
    identity holds modulo terms above the cutoff or below the corner.
    """
    g1s = []
    for g in G:
        g1 = drop_q_terms(g, ctx)
        if g1.is_zero():
            raise AllCoefficientsInQ("divisor vanishes mod Q")
        g1s.append(g1)
    if full_division_terminates(f, g1s, order):
        return divide(f, g1s, order)
    if trunc_degree is None:
        raise NonTerminatingOrder(
            "division mod Q under a local order needs trunc_degree")
    return divide_series(f, g1s, order, trunc_degree, remainder_only=True)


# ---------------------------------------------------------------------------
# generic standard bases


@dataclass
class GenericBasis:
    """Finite set plus excluded parameter polynomial h, stored factored.

    Specializations at points of V(Q) off V(h) are standard bases of the
    specialized ideal. `leads[i]` is leading_mod_q(gens[i]), read off the
    engine when the basis is built; its exponents generate the staircase.
    Each generator lies in the ideal of the recorded inputs (with
    denominators cleared); no certificate of that is stored.
    """

    gens: list[ParamPoly]
    leads: list[tuple[Exponent, ParamScalar]]
    h_factors: list[tuple[AScalar, int]]
    ctx: PrimeContext
    staircase: Staircase
    order: MonomialOrder
    inputs: list[ParamPoly] = field(default_factory=list)

    def h_poly(self) -> AScalar:
        h = AScalar.one(self.ctx.m)
        for fac, k in self.h_factors:
            for _ in range(k):
                h = h * fac
        return h


def _normalize_h_factors(factors) -> list[tuple[AScalar, int]]:
    """Coprime, square-free factors with exact powers of the product h of `factors`.

    Splits each factor by `squarefree_factors`, then refines (Bach, Driscoll
    and Shallit, J. Algorithms 1993): while two stored factors b^i, c^j
    share a `common_factor` g, they become (b/g)^i, g^(i+j) and (c/g)^j.
    Exact in one parameter, like the two helpers.
    """
    counts: dict[AScalar, int] = {}
    for f in factors:
        if f.is_zero():
            raise ZeroPolynomialError("zero factor in h")
        p = f.primitive()
        for sf in squarefree_factors(p):
            p, k = divide_out(p, sf)
            if k:
                counts[sf] = counts.get(sf, 0) + k
        if not p.is_constant():
            counts[p] = counts.get(p, 0) + 1
    todo, base = list(counts.items()), []
    while todo:
        p, k = todo.pop()
        if p.is_constant():
            continue
        for idx, (b, j) in enumerate(base):
            g = common_factor(p, b)
            if not g.is_constant():
                del base[idx]
                todo += [(p.exact_div(g).primitive(), k), (g, k + j),
                         (b.exact_div(g).primitive(), j)]
                break
        else:
            base.append((p, k))
    return sorted(base, key=lambda fk: factor_order(fk[0]))


def generic_basis(F, order: MonomialOrder, ctx: PrimeContext) -> GenericBasis:
    """Generic standard basis in the combined ring Q[x, a] (AScalars over Q).

    Under a well order, Buchberger runs on the input plus the Q generators
    under the block order (x first, then a). Under any other order, the
    inputs are first reduced mod Q termwise and homogenized with a fresh
    balancing variable, and the basis is computed under the degree-first
    combined order; h then also collects the coefficients of the
    maximal-degree terms of each input (a safe over-exclusion that keeps
    specialization from dropping the input degrees). Either way the basis
    is minimalized, elements of Q are filtered out by the leading
    coefficient test, and each survivor g is rewritten into the input
    ideal as g minus its engine image (then dehomogenized). h is the
    product of the surviving leading coefficient numerators, times any
    cleared input denominators.
    """
    homogeneous_route = not is_global(order)
    inputs = list(F)
    nonzero = [f for f in inputs if not f.is_zero()]
    if not nonzero:
        raise ZeroPolynomialError("generic basis of the zero ideal")
    n, m = nonzero[0].n, nonzero[0].m
    if m != ctx.m:
        raise AllCoefficientsInQ(
            f"parameter count mismatch: inputs have {m}, context has {ctx.m}")

    # clear coefficient denominators; the nonconstant ones are excluded
    cleared, multipliers = zip(*(f.clear_denominators() for f in inputs))
    den_factors = [mult for mult in multipliers if not mult.is_constant()]

    # everything below runs over Q in the combined ring: x (then z), then a.
    # g - image rewrites an engine generator g into the cleared inputs: a Q
    # generator's image is itself, an input's is minus its terms dropped mod Q
    work, images = [], []
    hprime: list[AScalar] = []
    for g in cleared:
        if g.is_zero():
            continue
        emb = embed_params_as_vars(g)
        if homogeneous_route:
            g2 = drop_q_terms(g, ctx)
            if g2.is_zero():
                continue
            d = g2.total_degree()
            hprime.extend(c.num for e, c in g2.terms.items() if sum(e) == d)
            kept = emb.with_terms({e: c for e, c in emb.terms.items()
                                   if e[:n] in g2.terms})
            work.append(kept.homogenize(n))
            images.append(_pad(kept - emb, n, 1))
        else:
            work.append(emb)
            images.append(AScalar.zero(n + m))

    n_main = n + 1 if homogeneous_route else n
    comb_order = combined_order(order, m, homogeneous_route)
    qcomb = [_pad(q, 0, n_main) for q in ctx.qbasis]
    basis = minimalize(buchberger(work + qcomb, comb_order, images + qcomb))

    gens, leads = [], []
    for g, im, lead in zip(basis.generators, basis.images, basis.leading_exponents()):
        # the combined order compares x (and z) first, so the leading
        # coefficient in Q[a] collects the terms on the leading x exponent
        lc = AScalar({e[n_main:]: c for e, c in g.terms.items()
                      if e[:n_main] == lead[:n_main]}, m, _prune=False)
        if ctx.contains(lc):
            continue  # minimal basis: leading coefficient in Q iff g is in Q
        # rewrite into the ORIGINAL ideal (differs from g by Q-coefficient terms)
        ghat = g - im
        if homogeneous_route:
            ghat = ghat.dehomogenize(n)
        ghat = split_params(ghat.scale(1 / fraction_content(ghat.terms.values())), n, m)
        gens.append(ghat)
        # ghat - g has coefficients in Q only, so the x part of lead is its lead mod Q
        leads.append((lead[:n], ghat.terms[lead[:n]]))

    h_factors = _normalize_h_factors([c.num for _, c in leads] + hprime + den_factors)
    staircase = Staircase.from_exponents(n, [e for e, _ in leads])
    return GenericBasis(gens, leads, h_factors, ctx, staircase, order, inputs)


def _pad(s: AScalar, at: int, width: int) -> AScalar:
    """s with `width` zero coordinates inserted at position `at`."""
    pad = (0,) * width
    return AScalar({e[:at] + pad + e[at:]: c for e, c in s.terms.items()},
                   s.m + width, _prune=False)


# ---------------------------------------------------------------------------
# generic reduced standard bases


def generic_reduced_basis(B: GenericBasis, trunc_degree: int) -> GenericBasis:
    """Minimal, monic mod Q, tail-reduced basis; truncated for local orders.

    For a local order the exact reduced basis is in general an infinite
    series; the output is its truncation at total degree trunc_degree,
    with coefficients in Q[a] localized at h. For a global order the
    output is exact. The staircase is unchanged.
    """
    ctx = B.ctx
    order = B.order
    need = B.staircase.max_generator_degree()
    if trunc_degree < need:
        raise TruncationTooSmall(
            f"trunc_degree {trunc_degree} below staircase degree {need}")
    n, m = B.staircase.n, ctx.m

    # the first generator on each staircase corner, made monic mod Q
    first: dict[Exponent, tuple[ParamPoly, ParamScalar]] = {}
    for g, (e, lc) in zip(B.gens, B.leads):
        first.setdefault(e, (g, lc))
    chosen = [g.scale(ParamScalar.one(m) / lc).map_coeffs(lambda c: c.reduced())
              for g, lc in map(first.get, B.staircase.generators)]

    out: list[ParamPoly] = []
    for e, g in zip(B.staircase.generators, chosen):
        head = ParamPoly.monomial(e, ParamScalar.one(m), n, m)
        tail = g - head
        if tail.is_zero():
            out.append(head)
            continue
        res = divide_mod_q(tail, chosen, order, ctx, trunc_degree)
        out.append(head + res.remainder.map_coeffs(lambda c: c.reduced()))
    # monic at each corner; terms above it stem from terms in Q, so stay in Q (Q prime)
    leads = [(e, ParamScalar.one(m)) for e in B.staircase.generators]
    return GenericBasis(out, leads, list(B.h_factors), ctx, B.staircase, order,
                        list(B.inputs))


# ---------------------------------------------------------------------------
# specialization checks


def plain_staircase(F, order: MonomialOrder) -> Staircase:
    """Staircase of a parameter-free ideal: the engine run on the ideal itself.

    Under a global order the engine runs on the inputs as they are; under
    any other order on their homogenizations, under the degree-first
    combined order.
    """
    n = F[0].n if F else 0
    nonzero = [embed_params_as_vars(f) for f in F if not f.is_zero()]
    if not nonzero:
        return Staircase(n, ())
    if is_global(order):
        basis = buchberger(nonzero, order)
    else:
        basis = buchberger([f.homogenize(n) for f in nonzero],
                           combined_order(order, 0, True))
    return Staircase.from_exponents(n, [e[:n] for e in basis.leading_exponents()])


@dataclass
class SampleCheck:
    point: tuple
    ok: bool
    got: Staircase
    note: str = ""


def _leading_exponent_at(g: ParamPoly, order: MonomialOrder, point) -> Exponent | None:
    """Leading exponent of g specialized at point, None when it vanishes there."""
    r = len(order.rows)
    return next((k[r:] for k, c in keyed_terms(g, order) if c.evaluate(point)), None)


def verify_specialization(B: GenericBasis, samples) -> list[SampleCheck]:
    """Specialize the inputs at admissible points and recompute from scratch.

    Each sample must lie on V(Q) and off V(h). The from-scratch staircase
    of the specialized ideal must equal the recorded one, and each
    generator must keep its recorded leading exponent after specialization.
    Returns one SampleCheck per sample.
    """
    checks = []
    h = B.h_poly()
    for point in samples:
        for q in B.ctx.qbasis:
            if q.evaluate(point) != 0:
                raise SampleOffVariety(f"point {point} is not on V(Q)")
        if h.evaluate(point) == 0:
            raise SampleOnExcludedLocus(f"point {point} lies on V(h)")
        got = plain_staircase([f.specialize(point) for f in B.inputs], B.order)
        lost = any(_leading_exponent_at(g, B.order, point) != e
                   for g, (e, _) in zip(B.gens, B.leads))
        checks.append(SampleCheck(tuple(point), got == B.staircase and not lost, got,
                                  "generator lost its leading exponent" if lost else ""))
    return checks


def s_criterion_mod_q(B: GenericBasis, trunc_degree: int | None = None) -> bool:
    """Check that every mod-Q S-function of two generators reduces to 0 mod Q."""
    ctx, order = B.ctx, B.order
    gens = B.gens
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_combination(gens[i], gens[j], B.leads[i], B.leads[j])
            if s.is_zero():
                continue
            res = divide_mod_q(s, gens, order, ctx, trunc_degree=trunc_degree)
            r = drop_q_terms(res.remainder, ctx)
            if not r.is_zero():
                return False
    return True

