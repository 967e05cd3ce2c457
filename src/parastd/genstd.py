"""Generic standard bases on the vanishing locus of a parameter ideal.

Everything "mod Q": leading data after discarding coefficients whose
numerator lies in Q, division modulo Q (f = sum(q_j g1_j) + R, with g1_j
the part of g_j that survives mod Q), generic standard bases, truncated
generic reduced bases, and specialization checks. One runner, `_engine`,
picks the engine's route from the order (block order on Q[x, a] for well
orders, homogenization for the rest); generic bases and the staircases of
specialized ideals, which are elements of Q[x], both go through it. The
rewrite of each basis element into the input ideal (generator minus
image, dehomogenization, content) runs in Q[x, a] too; only its result is
split back into ParamPolys, whose coefficients keep explicit denominators.
The specialization checks build no ParamScalar: a specialized ideal is a
list of AScalars.

A generic standard basis is a pair (generators, h): specializing the
generators at any parameter point where Q vanishes and h does not yields a
standard basis of the specialized ideal, with the recorded staircase
(`orders.Staircase`) of leading exponents mod Q; the reduced basis starts
from the first generator on each of its corners.
"""

from __future__ import annotations

from .errors import (
    AllCoefficientsInQ,
    DenominatorInQ,
    DimensionMismatch,
    NonTerminatingOrder,
    QContainsOne,
    SampleOffVariety,
    SampleOnExcludedLocus,
    TruncationTooSmall,
    ZeroPolynomialError,
)
from .orders import (Exponent, MonomialOrder, Staircase, combined_order, is_global,
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
    pad,
    split_params,
    squarefree_factors,
)
from .division import DivisionResult, divide, divide_series, full_division_terminates
from .buchberger import buchberger, minimalize, normal_form_param, parameter_groebner


# ---------------------------------------------------------------------------
# prime context


class PrimeContext:
    """An ideal Q of the parameter ring, held as its reduced lex basis.

    Primality is asserted by the caller, not verified. Membership in Q is
    a zero normal form; `generic_basis` needs nothing more, so the
    comprehensive tree passes node ideals that need not be prime (the
    `comprehensive` docstring shows why its cells stay correct).
    `contains` keeps its answers for the life of the context; under Q = 0
    (an empty basis) it answers by the zero test and keeps nothing.
    """

    def __init__(self, qbasis: tuple[AScalar, ...], m: int):
        self.qbasis, self.m = qbasis, m
        self._known: dict = {}  # s -> whether s lies in Q

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
        if not self.qbasis:
            return s.is_zero()
        known = self._known.get(s)
        if known is None:
            known = self._known[s] = normal_form_param(s, list(self.qbasis)).is_zero()
        return known


def coeff_in_q(s: ParamScalar, ctx: PrimeContext) -> bool:
    """Membership of a fraction's numerator in Q; the denominator must stay out.

    A constant denominator is nonzero, so it stays out of the proper ideal Q
    (`from_generators` refuses Q = (1)) and is not tested.
    """
    if not s.den.is_constant() and ctx.contains(s.den):
        raise DenominatorInQ("coefficient denominator reduces to zero mod Q")
    return ctx.contains(s.num)


# ---------------------------------------------------------------------------
# division modulo Q


def drop_q_terms(f: ParamPoly, ctx: PrimeContext) -> ParamPoly:
    """Part of f whose coefficient numerators do not reduce to zero mod Q;
    f itself, with its cached keyed terms, when no term drops."""
    kept = {e: c for e, c in f.terms.items() if not coeff_in_q(c, ctx)}
    return f if len(kept) == len(f.terms) else ParamPoly(kept, f.n, f.m, _prune=False)


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


class GenericBasis:
    """Finite set plus excluded parameter polynomial h, stored factored.

    Specializations at points of V(Q) off V(h) are standard bases of the
    specialized ideal. `leads[i]` is the leading term of gens[i] among the
    terms whose coefficient survives mod Q, read off the engine when the
    basis is built; its exponents generate the staircase.
    Each generator lies in the ideal of the recorded inputs (with
    denominators cleared); no certificate of that is stored.
    """

    def __init__(self, gens: list[ParamPoly], leads: list[tuple[Exponent, ParamScalar]],
                 h_factors: list[tuple[AScalar, int]], ctx: PrimeContext,
                 staircase: Staircase, order: MonomialOrder,
                 inputs: list[ParamPoly] | None = None):
        self.gens, self.leads, self.h_factors, self.ctx = gens, leads, h_factors, ctx
        self.staircase, self.order = staircase, order
        self.inputs = [] if inputs is None else inputs

    def h_poly(self) -> AScalar:
        h = AScalar.one(self.ctx.m)
        for fac, k in self.h_factors:
            for _ in range(k):
                h = h * fac
        return h


def _normalize_h_factors(factors) -> list[tuple[AScalar, int]]:
    """Coprime, square-free factors with exact powers of the product h of `factors`.

    Constant factors are skipped. Each distinct primitive part, in the
    order it first occurs, is split once by `squarefree_factors` (so
    associates such as a + b and -3*a - 3*b share one split), then the
    parts are refined (Bach, Driscoll and Shallit, J. Algorithms 1993):
    while two stored factors b^i, c^j share a `common_factor` g, they
    become (b/g)^i, g^(i+j) and (c/g)^j. Exact in one parameter, like the
    two helpers.
    """
    repeats: dict[AScalar, int] = {}
    for f in factors:
        if f.is_zero():
            raise ZeroPolynomialError("zero factor in h")
        if not f.is_constant():
            p = f.primitive()
            repeats[p] = repeats.get(p, 0) + 1
    counts: dict[AScalar, int] = {}
    for p, r in repeats.items():
        for sf in squarefree_factors(p):
            p, k = divide_out(p, sf)
            if k:
                counts[sf] = counts.get(sf, 0) + k * r
        if not p.is_constant():
            counts[p] = counts.get(p, 0) + r
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


def _engine(F, order: MonomialOrder, m: int, images=None):
    """`buchberger` on F in Q[x, a] (order.n x slots, then m parameters).

    A global order runs F under the block order; any other runs the
    homogenizations (z after x, a zero z slot on the images) under the
    degree-first combined order. Returns the unminimalized result and the
    width of its x block, n or n + 1.
    """
    n = order.n
    if is_global(order):
        return buchberger(F, combined_order(order, m, False), images), n
    if images is not None:
        images = [pad(im, n, 1) for im in images]
    return buchberger([f.homogenize(n) for f in F], combined_order(order, m, True),
                      images), n + 1


def generic_basis(F, order: MonomialOrder, ctx: PrimeContext) -> GenericBasis:
    """Generic standard basis in the combined ring Q[x, a] (AScalars over Q).

    Buchberger runs on the inputs plus the Q generators by the route the
    order picks (`_engine`). Under an order that is not global, each input
    is first reduced mod Q termwise, and h also collects the coefficients
    of its maximal-degree terms (a safe over-exclusion that keeps
    specialization from dropping the input degrees). The basis is
    minimalized, elements of Q are filtered out by the leading coefficient
    test, and each survivor g is rewritten into the input ideal as g minus
    its engine image (then dehomogenized). h is the product of the
    surviving leading coefficient numerators, times any cleared input
    denominators.
    """
    homogeneous_route = not is_global(order)
    inputs = list(F)
    nonzero = [f for f in inputs if not f.is_zero()]
    if not nonzero:
        raise ZeroPolynomialError("generic basis of the zero ideal")
    n, m = nonzero[0].n, nonzero[0].m
    if m != ctx.m:
        raise DimensionMismatch(f"parameter count mismatch: inputs have {m}, context has {ctx.m}")

    # clear coefficient denominators; the nonconstant ones are excluded
    cleared, multipliers = zip(*(f.clear_denominators() for f in inputs))
    den_factors = [mult for mult in multipliers if not mult.is_constant()]

    # everything below runs over Q in the combined ring: x (then z), then a.
    # g - image rewrites an engine generator g into the cleared inputs: a Q
    # generator's image is itself, an input's is minus its terms dropped mod Q
    # (zero when none is dropped, as always on the global route)
    zero = AScalar.zero(n + m)
    work, images, hprime = [], [], []
    for g in cleared:
        kept = drop_q_terms(g, ctx) if homogeneous_route else g
        if kept.is_zero():
            continue
        if homogeneous_route:
            d = kept.total_degree()
            hprime.extend(c.num for e, c in kept.terms.items() if sum(e) == d)
        work.append(embed_params_as_vars(kept))
        images.append(zero if len(kept.terms) == len(g.terms)
                      else work[-1] - embed_params_as_vars(g))

    qgens = [pad(q, 0, n) for q in ctx.qbasis]
    result, width = _engine(work + qgens, order, m, images + qgens)
    basis = minimalize(result)
    gens, leads = [], []
    for g, im, lead in zip(basis.generators, basis.images, basis.leads):
        # the combined order compares x (and z) first, so the leading
        # coefficient in Q[a] collects the terms on the leading x exponent
        lc = AScalar({e[width:]: c for e, c in g.terms.items()
                      if e[:width] == lead[:width]}, m, _prune=False)
        if ctx.contains(lc):
            # the Q generators are in the input and the order eliminates x
            # (and z), so a lead of the minimal basis inside Q[a] divides
            # this one: g lies in Q[a], and in Q (no primality needed)
            continue
        # rewrite into the ORIGINAL ideal (differs from g by Q-coefficient terms)
        ghat = g if im.is_zero() else g - im
        if homogeneous_route:
            ghat = ghat.dehomogenize(n)
        cont = fraction_content(ghat.terms.values())
        ghat = split_params(ghat if cont == 1 else ghat.scale(1 / cont), n, m)
        gens.append(ghat)
        # ghat - g has coefficients in Q only, so the x part of lead is its lead mod Q
        leads.append((lead[:n], ghat.terms[lead[:n]]))

    h_factors = _normalize_h_factors([c.num for _, c in leads] + hprime + den_factors)
    staircase = Staircase.from_exponents(n, [e for e, _ in leads])
    return GenericBasis(gens, leads, h_factors, ctx, staircase, order, inputs)


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
    corners = [e for e, _ in B.leads]
    chosen = [B.gens[i].scale(ParamScalar.one(m) / B.leads[i][1]).map_coeffs(
        lambda c: c.reduced()) for i in map(corners.index, B.staircase.generators)]

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
    """Staircase of an ideal of Q[x] (AScalars, as `ParamPoly.specialize`
    returns): the engine run on the ideal itself, by `generic_basis`'s route."""
    n = order.n
    nonzero = [f for f in F if not f.is_zero()]
    if not nonzero:
        return Staircase(n, ())
    basis, _ = _engine(nonzero, order, 0)
    return Staircase.from_exponents(n, [e[:n] for e in basis.leads])


class SampleCheck:
    def __init__(self, point: tuple, ok: bool, got: Staircase, note: str = ""):
        self.point, self.ok, self.got, self.note = point, ok, got, note


def _leading_exponent_at(g: ParamPoly, order: MonomialOrder, point) -> Exponent | None:
    """Leading exponent of g specialized at point, None when it vanishes there."""
    return next((order.exponent(k) for k, c in keyed_terms(g, order)
                 if not c.vanishes_at(point)), None)


def verify_specialization(B: GenericBasis, samples) -> list[SampleCheck]:
    """Specialize the inputs at admissible points and recompute from scratch.

    Each sample must lie on V(Q) and off V(h); h is tested factor by
    factor, on its stored factors, and never expanded. The from-scratch
    staircase of the specialized ideal must equal the recorded one, and
    each generator must keep its recorded leading exponent after
    specialization. Returns one SampleCheck per sample.
    """
    checks = []
    for point in samples:
        for q in B.ctx.qbasis:
            if not q.vanishes_at(point):
                raise SampleOffVariety(f"point {point} is not on V(Q)")
        if any(fac.vanishes_at(point) for fac, _ in B.h_factors):
            raise SampleOnExcludedLocus(f"point {point} lies on V(h)")
        got = plain_staircase([f.specialize(point) for f in B.inputs], B.order)
        lost = any(_leading_exponent_at(g, B.order, point) != e
                   for g, (e, _) in zip(B.gens, B.leads))
        checks.append(SampleCheck(tuple(point), got == B.staircase and not lost, got,
                                  "generator lost its leading exponent" if lost else ""))
    return checks
