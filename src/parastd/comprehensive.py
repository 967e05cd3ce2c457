"""Constructible partition of parameter space with a basis per cell.

A branching tree on excluded polynomials: at each node, compute a generic
standard basis with Q generated by the node's vanishing conditions, emit
the generic cell (h added to the non-vanishing side), and recurse into the
vanishing locus of each square-free factor of h. Sibling branches exclude
the earlier factors, so the emitted cells are pairwise disjoint and cover
parameter space.

Prime decomposition is out of scope: the vanishing conditions need not be
prime, so leading data mod the cell ideal can be coarser than on its
components. Cells are therefore verified on admissible sample points when
such points can be generated, by the check `verify` runs: the staircase of
the specialized ideal in Q[x] and each generator's leading exponent
(verify_specialization). A failing cell is split on a square-free factor of
an offending coefficient that vanishes at the bad sample. The radical
check (`in_radical`) first tries ideal membership, one division by the
cell's generators, and only when that leaves a remainder runs the engine
in Q[a, t], the t slot added by `pad`. One call asks each question (a
polynomial against a cell's Q basis) once.
"""

from __future__ import annotations

from random import Random

from .errors import (DepthExceeded, MultipleCells, NoCell, ParastdError, ProblemSyntaxError,
                     QContainsOne)
from .orders import MonomialOrder, lex
from .polyring import AScalar, factor_order, pad, squarefree_factors
from .buchberger import buchberger, normal_form_param
from .genstd import (
    GenericBasis,
    PrimeContext,
    generic_basis,
    verify_specialization,
)
from .sampling import variety_points

VERIFY_SAMPLES = 3  # sample points checked per emitted cell
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


def comprehensive_basis(F, order: MonomialOrder, max_depth: int = MAX_DEPTH,
                        seed: int = 0) -> ComprehensiveResult:
    """Partition parameter space into cells of constant staircase.

    Tree recursion on (vanish, nonvanish) condition sets; every root-to-leaf
    path strictly increases the vanishing ideal, so max_depth is a guard,
    not the usual stopping reason. Inconsistent cells are pruned. Each
    emitted cell is checked on up to VERIFY_SAMPLES sample points. A
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
    rng = Random(seed)
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

        cell = Cell(evanish, navoid + tuple(branch))
        points = variety_points(ctx.qbasis, m, rng, VERIFY_SAMPLES, avoid=list(cell.nonvanish))
        bad = next((c.point for c in verify_specialization(basis, points) if not c.ok),
                   None)
        if bad is not None:
            split = _offending_factor(basis, bad, ctx, radical)
            if split is None:
                raise ParastdError(
                    f"cell verification failed at {bad} with no offending "
                    "coefficient to split on")
            process(evanish + (split,), navoid, depth + 1)
            process(evanish, navoid + (split,), depth + 1)
            return
        entries.append(CellEntry(cell, basis))
        excluded: list[AScalar] = []
        for fac in branch:
            process(evanish + (fac,), navoid + tuple(excluded), depth + 1)
            excluded.append(fac)

    process((), (), 0)
    if frontier:
        raise DepthExceeded(
            f"{len(frontier)} cells unresolved at depth {max_depth}", frontier)
    return ComprehensiveResult(entries)


def _offending_factor(basis, point, ctx, radical):
    """Least square-free factor of a generator coefficient that vanishes at
    point and is outside the radical of Q, by the radical test `radical`."""
    cands: dict[AScalar, None] = {}
    for g in basis.gens:
        for c in g.terms.values():
            for sf in squarefree_factors(c.num):
                if sf not in cands and sf.vanishes_at(point) \
                        and not radical(sf, ctx.qbasis):
                    cands[sf] = None
    return min(cands, key=factor_order, default=None)


def locate(result: ComprehensiveResult, point) -> int:
    """Index of the unique cell containing the point."""
    hits = [i for i, e in enumerate(result.cells) if e.cell.contains(point)]
    if not hits:
        raise NoCell(f"no cell contains {tuple(point)}")
    if len(hits) > 1:
        raise MultipleCells(f"{len(hits)} cells contain {tuple(point)}")
    return hits[0]
