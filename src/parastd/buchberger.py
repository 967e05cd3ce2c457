"""Buchberger's algorithm with one image per generator, minimalization, reduction.

Each basis element carries one image polynomial, not a cofactor vector
(Singular's `std` keeps no transformation matrix either): the caller
gives the inputs' images, and a new element's image takes the same linear
steps as the element. The pair queue runs the normal strategy (smallest
lcm under the active order, ties by (i, j)).
Pairs are pruned by the Gebauer-Moeller update (JSC 1988) as each
generator comes in: Buchberger's chain criterion drops queued pairs the
new lead splits (B), and of the new pairs only one per minimal lcm stays
(M, F), none where some pair with that lcm has coprime heads. Every
generator stays a divisor and a pair partner, even when a later lead
divides its own: the printed bases are minimal but not reduced, so
dropping one would change which generators print. New elements have
their rational content divided out, which keeps coefficients small.

The engine runs over Q on AScalar polynomials: the parametric pipelines
use it in the combined ring Q[x, a] and, for parameter ideals, in Q[a]
under lex. Between `_shrink` and the return, generators are primitive
polynomials with `int` coefficients, so S-functions and their reductions
run the division loop's integer step (Collins' primitive
pseudo-remainders, JACM 1967, as Singular and CoCoA compute over Q). A
remainder is then `multiplier` times the one over Q, with multiplier > 0,
so `_shrink` turns it into the same generator; the S-function's image is
scaled by the multiplier before the quotients' images are subtracted, so
every image is the one over Q too.

The engine works in key space from input to return. Each generator is
held as its keyed terms, pairs (order key, int) largest first as
`orders.keyed_terms` yields them, with its leading exponent and the cone
of its leading key, all computed once when it comes in. Each S-function
is formed by the division module's S-function kernel (`s_function_keyed`,
whose lcm key is the pair's heap key) and reduced by its division kernel
(`divide_keyed`) against those lists and cones: these are the only two
division functions the engine calls, so it holds no reduction loop of
its own. Images are tracked only when some input image is nonzero (the
map is linear, so otherwise all stay zero); a quotient then becomes a
polynomial only when its divisor's image is nonzero. Ring elements, with
Fraction coefficients and their keyed terms as cache, are built on each
read of `BasisResult.generators` (every caller reads it once), so a reader
of the leads alone builds none; images keep Fraction coefficients:
callers see no `int`.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import le

from .errors import NonTerminatingOrder, ZeroPolynomialError
from .orders import MonomialOrder, keyed_terms, lex, minimal_exponents, with_keyed_terms
from .division import (divide, divide_keyed, full_division_terminates, quotient_poly,
                       s_combination, s_function_keyed)
from .polyring import AScalar


class BasisResult:
    """The engine's return: generator i has the leading exponent `leads[i]`
    under the engine's order, the image `images[i]` and the keyed terms
    `keyed[i]` (int coefficients). Each read of `generators` builds the
    ring elements anew."""

    def __init__(self, keyed: list, images: list, leads: list, zero, order: MonomialOrder):
        self.keyed, self.images, self.leads = keyed, images, leads
        self._zero, self._order = zero, order

    @property
    def generators(self) -> list:
        return [with_keyed_terms(self._zero, self._order, [(k, Fraction(c)) for k, c in g])
                for g in self.keyed]


def buchberger(F, order: MonomialOrder, images=None) -> BasisResult:
    """Compute a standard basis of the ideal generated by F.

    F is a list of AScalar, all in one ring. `images[i]` (default 0) is the
    image of F[i] under a linear map; each generator's image is its own
    image under that map. Terminates for a global order, or for
    homogeneous input under any order (the staircase grows strictly inside
    a noetherian lattice). S-functions are reduced by full division.
    """
    F = list(F)
    nonzero = [f for f in F if not f.is_zero()]
    if not nonzero:
        raise ZeroPolynomialError("buchberger needs at least one nonzero input")
    if not full_division_terminates(nonzero[0], nonzero[1:], order):
        raise NonTerminatingOrder(
            "basis computation needs a well order or homogeneous input; "
            "route local orders through homogenization")

    zero = AScalar.zero(nonzero[0].m)
    gens: list = []  # keyed terms of each generator, int coefficients
    cones: list = []  # order.cone of each generator's leading key
    ims: list = []
    leads: list = []  # leading exponent of each generator
    degrees: list = []  # and its total degree
    pending: dict = {}  # (i, j) -> lcm of the heads, for pairs still to run
    heap: list = []  # (key of the lcm, i, j): smallest lcm first, ties by (i, j)

    def add(g, im):
        lk = order.exponent(g[0][0])
        # the pairs (i, k) of the new generator k, by their lcms
        new = [tuple(map(max, li, lk)) for li in leads]
        k, dk = len(leads), sum(lk)
        gens.append(g)
        cones.append(order.cone(g[0][0]))
        ims.append(im)
        leads.append(lk)
        degrees.append(dk)
        if not k:
            return
        # criterion B: a pending pair whose lcm lk divides, and that k splits
        for (i, j), l in list(pending.items()):
            if l != new[i] and l != new[j] and all(map(le, lk, l)):
                del pending[i, j]
        # criterion M: keep the minimal lcms; criterion F: one pair per lcm,
        # the smallest i, and none where some pair with it has coprime heads
        # (coprime: the lcm's degree is the sum of the heads' degrees)
        lcms = set(new)
        skip = lcms.difference(minimal_exponents(lcms))
        skip.update(l for di, l in zip(degrees, new) if sum(l) == di + dk)
        for i, l in enumerate(new):
            if l not in skip:
                skip.add(l)
                pending[i, k] = l
                heappush(heap, (order.key(l), i, k))

    # a zero image map keeps every image zero (module docstring)
    track = images is not None and not all(im.is_zero() for im in images)
    for i, f in enumerate(F):
        if f.is_zero():
            continue
        add(*_shrink(keyed_terms(f, order), images[i] if track else zero))

    while heap:
        top, i, j = heappop(heap)
        if pending.pop((i, j), None) is None:
            continue  # pruned after it was queued
        s = s_function_keyed(gens[i], gens[j], top, order)
        if not s:
            continue
        quotients, r, _, _, multiplier = divide_keyed(s, gens, cones, order)
        if not r:
            continue
        im = zero
        if track:
            # image of multiplier * S-function, minus the quotients times their images
            im = s_combination(ims[i], ims[j], (leads[i], gens[i][0][1]),
                               (leads[j], gens[j][0][1]))
            if multiplier != 1:
                im = im.scale(multiplier)
            for d in sorted(quotients):
                if not ims[d].is_zero():
                    im = im - quotient_poly(zero, order, quotients[d]) * ims[d]
        add(*_shrink(r, im))

    return BasisResult(gens, ims, leads, zero, order)


def _shrink(g, im):
    """Divide the keyed terms g and the image im by the positive content
    num/den of g; g comes back with int coefficients, im keeps its own.
    A primitive int g, as most remainders are, and a zero im are kept."""
    num = gcd(*(c.numerator for _, c in g))
    den = lcm(*(c.denominator for _, c in g))
    if num != 1 or type(g[0][1]) is not int:  # the terms share one type
        g = [(k, c.numerator // num * (den // c.denominator)) for k, c in g]
    return g, im if num == den == 1 or im.is_zero() else im.scale(Fraction(den, num))


def minimalize(B: BasisResult) -> BasisResult:
    """Keep, in index order, the first generator on each minimal lead
    (`minimal_exponents` of all leads, so under any order)."""
    keep = sorted(map(B.leads.index, minimal_exponents(B.leads)))
    return BasisResult([B.keyed[i] for i in keep], [B.images[i] for i in keep],
                       [B.leads[i] for i in keep], B._zero, B._order)


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
    """Remainder modulo a basis from parameter_groebner (lex division,
    remainder only: no quotient is built)."""
    return divide(s, basis, lex(s.m), remainder_only=True).remainder
