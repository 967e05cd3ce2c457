"""Constructible partition of parameter space with a basis per cell.

A branching tree on excluded polynomials: at each node, compute a generic
standard basis with Q generated by the node's vanishing conditions, emit
the generic cell (h added to the non-vanishing side), and recurse into the
vanishing locus of each square-free factor of h. Sibling branches exclude
the earlier factors, so the emitted cells are pairwise disjoint and cover
parameter space.

Prime decomposition is out of scope: the vanishing conditions E of a node
need not generate a prime ideal. Each cell is still right at each of its
points s without sampling: F(s) has the recorded staircase and every
generator keeps its recorded lead at s, as `verify_specialization` checks.
1. `generic_basis` minimalizes a basis M of <F, E> under a block order, x
   (and z) before a, so the elements of M in Q[a] form a Groebner basis of
   <F, E> meet Q[a], which contains E. If g in M has its leading
   coefficient lc in <E>, some lead of M in Q[a] divides that of lc, so
   that of g; M is minimal, so g is that element. `ctx.contains(lc)` thus
   drops exactly the elements of M in <E>, with no primality needed.
2. A cell is emitted only when no h factor lies in the radical of <E>, so
   h(s) != 0. A kept element of M in Q[a] is then a nonzero constant at s:
   <F(s)> = (1), and the recorded staircase has a lead at the origin. Else
   M's elements in Q[a] vanish at s and the others keep nonzero leading
   coefficients, so by the stability theorem (Kalkbrener, JSC 1997;
   Kapur-Sun-Wang, ISSAC 2010, section 3, minimal Dickson bases) the kept
   generators at s are a Groebner basis of <F(s)> with the recorded leads.
3. On the local route the input terms with coefficients in <E> are dropped
   first (no change at s), and `hprime` puts the coefficients of each
   input's top-degree terms into h, so s maps f^h to (f(s))^h: step 2 then
   holds for the homogeneous ideal that `plain_staircase` builds.
4. A printed generator is an engine element minus its image (`ghat`), whose
   terms have coefficients in <E>: at s they vanish, and the lead stays.

The radical check (`in_radical`) first tries ideal membership, one division
by the cell's generators, and only when that leaves a remainder runs the
engine in Q[a, t], the t slot added by `pad`. One call asks each question
(a polynomial against a cell's Q basis) once.
"""

from __future__ import annotations

from .errors import (DepthExceeded, MultipleCells, NoCell, ParastdError, ProblemSyntaxError,
                     QContainsOne)
from .orders import MonomialOrder, lex
from .polyring import AScalar, pad
from .buchberger import buchberger, normal_form_param
from .genstd import GenericBasis, PrimeContext, generic_basis

MAX_DEPTH = 12  # default guard on the depth of the tree


class Cell:
    """Points where every `vanish` polynomial is zero and no `nonvanish` is.
    A value: equal and hashed on (vanish, nonvanish)."""

    def __init__(self, vanish: tuple[AScalar, ...], nonvanish: tuple[AScalar, ...]):
        self.vanish, self.nonvanish = vanish, nonvanish

    def __eq__(self, other):
        if other.__class__ is not Cell:
            return NotImplemented
        return self.vanish == other.vanish and self.nonvanish == other.nonvanish

    def __hash__(self):
        return hash((self.vanish, self.nonvanish))

    def contains(self, point) -> bool:
        return (all(v.vanishes_at(point) for v in self.vanish)
                and not any(nv.vanishes_at(point) for nv in self.nonvanish))


class CellEntry:
    """A cell with its generic basis; the cell's staircase is basis.staircase."""

    def __init__(self, cell: Cell, basis: GenericBasis):
        self.cell, self.basis = cell, basis


class ComprehensiveResult:
    def __init__(self, cells: list[CellEntry]):
        self.cells = cells


def in_radical(p: AScalar, egens) -> bool:
    """Whether p vanishes wherever all of egens do: p in the radical of <egens>.

    Membership is tried first: a zero remainder on division by egens
    proves p in <egens>, Groebner basis or not. Only otherwise runs the
    Rabinowitsch check: p is in the radical iff <egens, 1 - t*p> is the
    whole ring, so iff any Groebner basis of it holds a nonzero constant
    (Cox-Little-O'Shea, 4.2); a constant p is so exactly when egens
    generate the unit ideal.
    """
    egens = [g for g in egens if not g.is_zero()]
    if not egens:
        return p.is_zero()
    if normal_form_param(p, egens).is_zero():
        return True
    m = p.m
    ext = [pad(g, m, 1) for g in egens]
    # 1 - t*p with t the appended variable
    one_tp = AScalar.one(m + 1) + pad(p, m, 1).mul_monomial((0,) * m + (1,), -1)
    # under lex a generator is a nonzero constant iff its lead is the origin
    return any(not any(e) for e in buchberger(ext + [one_tp], lex(m + 1)).leads)


def comprehensive_basis(F, order: MonomialOrder,
                        max_depth: int = MAX_DEPTH) -> ComprehensiveResult:
    """Partition parameter space into cells of constant staircase.

    Tree recursion on (vanish, nonvanish) condition sets; every root-to-leaf
    path strictly increases the vanishing ideal, so max_depth is a guard,
    not the usual stopping reason. Inconsistent cells are pruned. A
    parameter denominator, which could lie in a cell's ideal, is refused.
    """
    F = [f for f in F if not f.is_zero()]
    if not F:
        raise ParastdError("comprehensive basis of the zero ideal")
    if any(not c.den.is_constant() for f in F for c in f.terms.values()):
        raise ProblemSyntaxError("ideal coefficients must be polynomials in the parameters")
    m = F[0].m
    entries: list[CellEntry] = []
    frontier: list[tuple] = []
    answers: dict = {}  # (p, Q basis) -> in_radical(p, Q basis), for this call only

    def radical(p: AScalar, qbasis: tuple) -> bool:
        key = p, qbasis
        if key not in answers:
            answers[key] = in_radical(p, qbasis)
        return answers[key]

    def process(evanish: tuple, navoid: tuple, depth: int):
        if depth > max_depth:
            frontier.append((evanish, navoid))
            return
        try:
            ctx = PrimeContext.from_generators(evanish, m)
        except QContainsOne:
            return  # empty locus
        if any(radical(nv, ctx.qbasis) for nv in navoid):
            return  # a non-vanishing condition is identically zero here
        basis = generic_basis(F, order, ctx)

        # the stored h factors are square-free and coprime: branch on them
        in_rad = {fac: radical(fac, ctx.qbasis) for fac, _ in basis.h_factors}
        branch = [fac for fac, d in in_rad.items() if not d]
        dead = [fac for fac, d in in_rad.items() if d]

        if dead:
            # h vanishes on all of V(E): saturate E and retry; the region is the
            # same, E grows: each factor divides a coefficient outside E
            process(evanish + tuple(dead), navoid, depth + 1)
            return

        entries.append(CellEntry(Cell(evanish, navoid + tuple(branch)), basis))
        excluded: list[AScalar] = []
        for fac in branch:
            process(evanish + (fac,), navoid + tuple(excluded), depth + 1)
            excluded.append(fac)

    process((), (), 0)
    if frontier:
        raise DepthExceeded(
            f"{len(frontier)} cells unresolved at depth {max_depth}", frontier)
    return ComprehensiveResult(entries)


def locate(result: ComprehensiveResult, point) -> int:
    """Index of the unique cell containing the point."""
    hits = [i for i, e in enumerate(result.cells) if e.cell.contains(point)]
    if not hits:
        raise NoCell(f"no cell contains {tuple(point)}")
    if len(hits) > 1:
        raise MultipleCells(f"{len(hits)} cells contain {tuple(point)}")
    return hits[0]
