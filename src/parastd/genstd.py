"""Generic standard bases on the vanishing locus of a parameter ideal.

Everything "mod Q": leading data after discarding coefficients whose
numerator lies in Q, division modulo Q, the two constructions of a generic
standard basis (block order on Q[x, a] for well orders, homogenization
for the rest), truncated generic reduced bases, and specialization checks.

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
from .orders import Exponent, MonomialOrder, combined_order, exp_divides, is_global
from .polyring import (
    AScalar,
    ParamPoly,
    ParamScalar,
    embed_params_as_vars,
    fraction_content,
    split_params,
)
from .division import divide, divide_series, full_division_terminates
from .buchberger import buchberger, minimalize, normal_form_param, parameter_groebner


# ---------------------------------------------------------------------------
# prime context and staircases


@dataclass
class PrimeContext:
    """A prime ideal Q of the parameter ring, with its lex Groebner basis.

    Primality is asserted by the caller, not verified; every mod-Q test
    only needs zero normal forms plus the domain property of the quotient.
    """

    qgens: tuple[AScalar, ...]
    qbasis: tuple[AScalar, ...]
    m: int

    @classmethod
    def from_generators(cls, qgens, m) -> "PrimeContext":
        qgens = tuple(g for g in qgens if not g.is_zero())
        basis = tuple(parameter_groebner(list(qgens)))
        if any(g.is_constant() for g in basis):
            raise QContainsOne("the parameter ideal contains 1")
        return cls(qgens, basis, m)

    @classmethod
    def trivial(cls, m) -> "PrimeContext":
        return cls((), (), m)

    def normal_form(self, s: AScalar) -> AScalar:
        return normal_form_param(s, list(self.qbasis))

    def contains(self, s: AScalar) -> bool:
        return self.normal_form(s).is_zero()

    def is_zero_ideal(self) -> bool:
        return not self.qbasis


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
        return any(exp_divides(g, e) for g in self.generators)

    def is_empty(self) -> bool:
        return not self.generators

    def max_generator_degree(self) -> int:
        return max((sum(e) for e in self.generators), default=0)


# ---------------------------------------------------------------------------
# leading data and division modulo Q


def leading_mod_q(f: ParamPoly, order: MonomialOrder,
                  ctx: PrimeContext) -> tuple[Exponent, ParamScalar]:
    """Order-maximum exponent among terms whose coefficient survives mod Q."""
    best = None
    for e, c in f.terms.items():
        if coeff_in_q(c, ctx):
            continue
        if best is None or order.key(e) > order.key(best):
            best = e
    if best is None:
        raise AllCoefficientsInQ("no term survives reduction mod Q")
    return best, f.terms[best]


def drop_q_terms(f: ParamPoly, ctx: PrimeContext) -> ParamPoly:
    """Part of f whose coefficient numerators do not reduce to zero mod Q."""
    kept = {e: c for e, c in f.terms.items() if not coeff_in_q(c, ctx)}
    return ParamPoly(kept, f.n, f.m, _prune=False)


@dataclass
class ModQDivision:
    quotients: list[ParamPoly]
    remainder: ParamPoly
    q_part: ParamPoly
    exact: bool


def divide_mod_q(f: ParamPoly, G, order: MonomialOrder, ctx: PrimeContext,
                 trunc_degree: int | None = None) -> ModQDivision:
    """Division of f by G modulo Q: f = sum(q_j g_j) + R + T.

    Each divisor splits into its surviving part (used for the actual
    division) and a part with coefficient numerators in Q; T collects the
    quotients times the latter, so every coefficient numerator of T lies
    in Q. Under a global order, or on homogeneous data, the division is
    exact; otherwise the degree cutoff trunc_degree is required.
    """
    G = list(G)
    g1s, g2s = [], []
    for g in G:
        g1 = drop_q_terms(g, ctx)
        if g1.is_zero():
            raise AllCoefficientsInQ("divisor vanishes mod Q")
        g1s.append(g1)
        g2s.append(g1 - g)
    if full_division_terminates(f, g1s, order):
        res = divide(f, g1s, order)
    else:
        if trunc_degree is None:
            raise NonTerminatingOrder(
                "division mod Q under a local order needs trunc_degree")
        res = divide_series(f, g1s, order, trunc_degree)
    t = ParamPoly.zero(f.n, f.m)
    for q, g2 in zip(res.quotients, g2s):
        if not q.is_zero() and not g2.is_zero():
            t = t + q * g2
    return ModQDivision(res.quotients, res.remainder, t, res.cofactor_ok)


# ---------------------------------------------------------------------------
# generic standard bases


@dataclass
class GenericBasis:
    """Finite set plus excluded parameter polynomial h, stored factored.

    Specializations at points of V(Q) off V(h) are standard bases of the
    specialized ideal. Cofactors (when present) express each generator in
    the recorded inputs exactly.
    """

    gens: list[ParamPoly]
    h_factors: list[tuple[AScalar, int]]
    ctx: PrimeContext
    staircase: Staircase
    order: MonomialOrder
    inputs: list[ParamPoly] = field(default_factory=list)
    cofactors: list[list[ParamPoly]] | None = None
    reduced: bool = False
    trunc_degree: int | None = None

    def h_poly(self) -> AScalar:
        h = AScalar.one(self.ctx.m)
        for fac, k in self.h_factors:
            for _ in range(k):
                h = h * fac
        return h


def _normalize_h_factors(factors) -> list[tuple[AScalar, int]]:
    from .polyring import squarefree_factors

    counts: list[tuple[AScalar, int]] = []

    def add(g, k):
        for i, (g0, k0) in enumerate(counts):
            if g0 == g:
                counts[i] = (g0, k0 + k)
                return
        counts.append((g, k))

    for f in factors:
        if f.is_zero():
            raise ZeroPolynomialError("zero factor in h")
        p = f.primitive()
        if p.is_constant():
            continue
        # split into square-free parts, keeping exact multiplicities so the
        # product of the stored factors is still divisible by every numerator
        for sf in squarefree_factors(p):
            k = 0
            q = p.exact_div(sf)
            while q is not None:
                k += 1
                p = q.primitive() if not q.is_zero() else q
                q = p.exact_div(sf) if not p.is_constant() else None
            if k:
                add(sf, k)
        if not p.is_constant():
            add(p, 1)
    counts.sort(key=lambda t: (t[0].total_degree(), sorted(t[0].terms.items())))
    return counts


def _prepare_inputs(F, ctx):
    """Clear coefficient denominators; collect them as excluded factors."""
    cleared, multipliers, den_factors = [], [], []
    for f in F:
        g, mult = f.clear_denominators()
        cleared.append(g)
        multipliers.append(mult)
        if not mult.is_constant():
            den_factors.append(mult)
    return cleared, multipliers, den_factors


def generic_basis_well_order(F, order: MonomialOrder,
                             ctx: PrimeContext) -> GenericBasis:
    """Generic standard basis via the block order (x first, then a).

    Runs Buchberger on the input plus the Q generators inside the combined
    polynomial ring Q[x, a] (AScalars over Q), minimalizes, filters out
    elements of Q by the leading coefficient test, and rewrites survivors
    into the input ideal through the tracked cofactors, still in Q[x, a].
    h is the product of the surviving leading coefficient numerators (times
    any cleared input denominators).
    """
    if not is_global(order):
        raise NonTerminatingOrder("generic_basis_well_order needs a well order")
    return _generic_basis_combined(F, order, ctx, homogeneous_route=False)


def generic_basis_local(F, order: MonomialOrder,
                        ctx: PrimeContext) -> GenericBasis:
    """Generic standard basis for arbitrary orders via homogenization.

    Inputs are reduced mod Q termwise, homogenized with a fresh balancing
    variable, and a homogeneous basis is computed under the degree-first
    combined order. Survivors outside Q are dehomogenized and rewritten
    into the original ideal; h additionally collects one coefficient of a
    maximal-degree term per input (all of them, a safe over-exclusion),
    which keeps specialization from dropping the input degrees.
    """
    return _generic_basis_combined(F, order, ctx, homogeneous_route=True)


def _generic_basis_combined(F, order, ctx, homogeneous_route):
    inputs = list(F)
    nonzero = [f for f in inputs if not f.is_zero()]
    if not nonzero:
        raise ZeroPolynomialError("generic basis of the zero ideal")
    n, m = nonzero[0].n, nonzero[0].m
    if m != ctx.m:
        raise AllCoefficientsInQ(
            f"parameter count mismatch: inputs have {m}, context has {ctx.m}")

    cleared, multipliers, den_factors = _prepare_inputs(inputs, ctx)

    # everything below runs over Q in the combined ring: x (then z), then a
    embedded = [embed_params_as_vars(g) for g in cleared]
    work = []          # (input index, polynomial fed to the basis engine)
    hprime: list[AScalar] = []
    for idx, (g, emb) in enumerate(zip(cleared, embedded)):
        if g.is_zero():
            continue
        if homogeneous_route:
            g2 = drop_q_terms(g, ctx)
            if g2.is_zero():
                continue
            d = g2.total_degree()
            hprime.extend(c.num for e, c in g2.terms.items() if sum(e) == d)
            emb = emb.with_terms({e: c for e, c in emb.terms.items()
                                  if e[:n] in g2.terms})
            work.append((idx, emb.homogenize(n)))
        else:
            work.append((idx, emb))

    if not work:
        return GenericBasis([], _normalize_h_factors(den_factors), ctx,
                            Staircase(n, ()), order, inputs,
                            cofactors=[])

    n_main = n + 1 if homogeneous_route else n
    comb_order = combined_order(order, m, homogeneous_route)
    qcomb = [_lift_params(q, n_main) for q in ctx.qbasis]
    lifted = [_lift_params(mult, n) for mult in multipliers]
    basis = minimalize(buchberger([g for _, g in work] + qcomb, comb_order,
                                  degree_dims=n_main))

    gens, cofs, exps, lead_nums = [], [], [], []
    for g, cof, lead in zip(basis.generators, basis.cofactors,
                            basis.leading_exponents()):
        # the combined order compares x (and z) first, so the leading
        # coefficient in Q[a] collects the terms on the leading x exponent
        lc = AScalar({e[n_main:]: c for e, c in g.terms.items()
                      if e[:n_main] == lead[:n_main]}, m, _prune=False)
        if ctx.contains(lc):
            continue  # minimal basis: leading coefficient in Q iff g is in Q
        # rewrite into the ORIGINAL ideal: sum of cofactors times the
        # undropped cleared inputs (differs from g by Q-coefficient terms)
        us = cof[:len(work)]
        if homogeneous_route:
            us = [u.dehomogenize(n) for u in us]
        ghat = AScalar.zero(n + m)
        for (idx, _), u in zip(work, us):
            if not u.is_zero():
                ghat = ghat + u * embedded[idx]
        if ghat.is_zero():
            raise AllCoefficientsInQ("reconstructed generator vanished")
        inv = 1 / fraction_content(ghat.terms.values())
        ghat = split_params(ghat.scale(inv), n, m)
        e, c = leading_mod_q(ghat, order, ctx)
        cof_user = [ParamPoly.zero(n, m) for _ in inputs]
        for (idx, _), u in zip(work, us):
            cof_user[idx] = split_params((u * lifted[idx]).scale(inv), n, m)
        gens.append(ghat)
        cofs.append(cof_user)
        exps.append(e)
        lead_nums.append(c.num)

    h_factors = _normalize_h_factors(lead_nums + hprime + den_factors)
    staircase = Staircase.from_exponents(n, exps)
    return GenericBasis(gens, h_factors, ctx, staircase, order, inputs, cofs)


def _lift_params(s: AScalar, width: int) -> AScalar:
    """A parameter polynomial as an element of the combined ring (x part 0)."""
    pad = (0,) * width
    return AScalar({pad + e: c for e, c in s.terms.items()}, width + s.m, _prune=False)


def generic_basis(F, order: MonomialOrder, ctx: PrimeContext) -> GenericBasis:
    """Dispatch on the order kind: block construction for well orders,
    homogenization otherwise."""
    if is_global(order):
        return generic_basis_well_order(F, order, ctx)
    return generic_basis_local(F, order, ctx)


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
    if not B.gens:
        return GenericBasis([], list(B.h_factors), ctx, B.staircase, order,
                            list(B.inputs), None, reduced=True,
                            trunc_degree=trunc_degree)
    n, m = B.gens[0].n, B.gens[0].m

    chosen: list[ParamPoly] = []
    for e in B.staircase.generators:
        for g in B.gens:
            ge, lc = leading_mod_q(g, order, ctx)
            if ge == e:
                monic = g.scale(ParamScalar.one(m) / lc)
                chosen.append(monic.map_coeffs(lambda c: c.reduced()))
                break

    exact_mode = is_global(order)
    out: list[ParamPoly] = []
    for e, g in zip(B.staircase.generators, chosen):
        head = ParamPoly.monomial(e, ParamScalar.one(m), n, m)
        tail = g - head
        if tail.is_zero():
            out.append(head)
            continue
        res = divide_mod_q(tail, chosen, order, ctx,
                           trunc_degree=None if exact_mode else trunc_degree)
        reduced = head + res.remainder.map_coeffs(lambda c: c.reduced())
        out.append(reduced)
    return GenericBasis(out, list(B.h_factors), ctx, B.staircase, order,
                        list(B.inputs), None, reduced=True,
                        trunc_degree=trunc_degree)


# ---------------------------------------------------------------------------
# specialization checks


def plain_staircase(F, order: MonomialOrder) -> Staircase:
    """Staircase of a parameter-free ideal, computed from scratch."""
    nonzero = [f for f in F if not f.is_zero()]
    if not nonzero:
        n = F[0].n if F else 0
        return Staircase(n, ())
    ctx = PrimeContext.trivial(nonzero[0].m)
    return generic_basis(nonzero, order, ctx).staircase


@dataclass
class SampleCheck:
    point: tuple
    ok: bool
    expected: Staircase
    got: Staircase
    note: str = ""


@dataclass
class VerificationReport:
    checks: list[SampleCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_specialization(B: GenericBasis, samples) -> VerificationReport:
    """Specialize the inputs at admissible points and recompute from scratch.

    Each sample must lie on V(Q) and off V(h). The from-scratch staircase
    of the specialized ideal must equal the recorded one, and each
    generator must keep its recorded leading exponent after specialization.
    """
    checks = []
    h = B.h_poly()
    for point in samples:
        for q in B.ctx.qgens:
            if q.evaluate(point) != 0:
                raise SampleOffVariety(f"point {point} is not on V(Q)")
        if h.evaluate(point) == 0:
            raise SampleOnExcludedLocus(f"point {point} lies on V(h)")
        spec = [f.specialize(point) for f in B.inputs]
        spec = [f for f in spec if not f.is_zero()]
        if spec:
            got = plain_staircase(spec, B.order)
        else:
            got = Staircase(B.staircase.n, ())
        note = ""
        ok = got == B.staircase
        for g in B.gens:
            e, _ = leading_mod_q(g, B.order, B.ctx)
            ge = g.specialize(point)
            if ge.is_zero() or ge.leading(B.order)[0] != e:
                ok = False
                note = "generator lost its leading exponent"
                break
        checks.append(SampleCheck(tuple(point), ok, B.staircase, got, note))
    return VerificationReport(checks)


def s_criterion_mod_q(B: GenericBasis, trunc_degree: int | None = None) -> bool:
    """Check that every mod-Q S-function of two generators reduces to 0 mod Q."""
    ctx, order = B.ctx, B.order
    gens = B.gens
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = _s_function_mod_q(gens[i], gens[j], order, ctx)
            if s.is_zero():
                continue
            res = divide_mod_q(s, gens, order, ctx, trunc_degree=trunc_degree)
            r = drop_q_terms(res.remainder, ctx)
            if not r.is_zero():
                return False
    return True


def _s_function_mod_q(f, g, order, ctx):
    from .orders import exp_lcm, exp_sub

    ef, cf = leading_mod_q(f, order, ctx)
    eg, cg = leading_mod_q(g, order, ctx)
    lcm = exp_lcm(ef, eg)
    return (f.mul_monomial(exp_sub(lcm, ef), cg)
            - g.mul_monomial(exp_sub(lcm, eg), cf))


def certify_membership(B: GenericBasis) -> list[ParamPoly]:
    """Defects g - sum(cofactor*input); all zero when certificates are exact."""
    if B.cofactors is None:
        raise ValueError("basis carries no cofactors")
    defects = []
    for g, cof in zip(B.gens, B.cofactors):
        acc = g
        for u, f in zip(cof, B.inputs):
            if not u.is_zero() and not f.is_zero():
                acc = acc - u * f
        defects.append(acc)
    return defects
