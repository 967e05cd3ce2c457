"""Monomial orders as integer weight-row matrices with a lexicographic tail.

An order is given by a list of integer weight rows; ties surviving every row
are broken by plain lex on the exponent tuple, so any row matrix yields a
total order. The orders of the combined ring Q[x, a] used by the parametric
pipelines (block order on x then parameters, and the degree-first
homogenized order) are ordinary weight matrices on the concatenated exponent,
built by `combined_order`.

Order keys live here only: `MonomialOrder.key`, and `keyed_terms` /
`leading_term`, which read a polynomial's terms in key order, cached per
order object. So `lex` and `combined_order` are memoized: equal arguments
give one object.

A key is one packed int (Bachmann and Schoenemann, ISSAC 1998; Monagan and
Pearce, CASC 2007): one 64-bit field per weight row, holding W.e plus a
bias of 2^62, then one per exponent entry, then one for the total degree,
most significant first. Comparing two keys is comparing (W.e, e)
lexicographically, so the order is the weight rows with a lex tiebreak.
The key is linear, bias + sum(e_i * w_i) with one int w_i per variable,
so key(a + b) - key(b) == key(a) - key(0): a division step adds a shift to
a key. The layout is private to this module; the rest of the package
reads a key through `exponent`, `degree`, `cone` / `region` (divisibility
by guard bits: with bit 63 set in every entry and degree field, d divides
e iff subtracting cone(d) from key(e) | guard clears none of them) and
`overflow` (a mask that a sum of keys meets when an entry reaches 2^31).
`key` raises ExponentOverflow for an entry of at least 2^31, and building
an order with a row whose absolute weights sum to at least 2^30 raises it
too; below both caps every field of a sum key(e0) + key(e) - key(d), with
d dividing e, stays in range (entries below 2^32, row values below 2^62 in
size). The tables are built once per (rows, n).

Staircases live here too: `minimal_exponents` is the one routine for the
minimal generators of a monomial ideal (`Staircase`, `buchberger.minimalize`
and criterion M call it), and `region_of` finds the cone holding an exponent.
Its cost follows its output: taken by increasing total degree, an exponent
is tested only against the minimal ones already kept, since a proper divisor
has smaller degree. The exponent kernels (`exp_add`, `exp_sub`,
`exp_divides`, `exp_lcm`) run on C-level `map`; like `zip`, it stops at the
shorter tuple.
"""

from __future__ import annotations

import struct
from functools import cache
from operator import add, itemgetter, le, mul, sub

from .errors import DimensionMismatch, ExponentOverflow, ZeroPolynomialError

Exponent = tuple[int, ...]

GLOBAL = "global"
LOCAL = "local"
MIXED = "mixed"


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def exp_divides(a: Exponent, b: Exponent) -> bool:
    """True when x^a divides x^b, i.e. a <= b componentwise."""
    return all(map(le, a, b))


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def exp_degree(a: Exponent, dims: int | None = None) -> int:
    return sum(a) if dims is None else sum(a[:dims])


def region_of(leads, e: Exponent) -> int | None:
    """Index of the first divisor lead whose cone contains e, None if escaped."""
    for j, d in enumerate(leads):
        if all(map(le, d, e)):  # exp_divides, inline on the hot path
            return j
    return None


def minimal_exponents(exponents) -> list:
    """The distinct exponents that no other one divides, in no particular order.

    The distinct exponents are taken by increasing total degree, and each is
    tested only against the minimal ones kept so far. That is exact: a proper
    divisor of e has smaller degree, so it came earlier, and some kept
    exponent divides it and hence e. For k distinct exponents with m minimal
    ones the cost is a sort plus at most k*m divisibility tests, not k^2.
    """
    kept: list = []
    for e in sorted(set(exponents), key=sum):
        if not any(all(map(le, f, e)) for f in kept):
            kept.append(e)
    return kept


class Staircase:
    """Minimal generators (an antichain) of a sum-stable subset of N^n.
    A value: equal and hashed on (n, generators)."""

    def __init__(self, n: int, generators: tuple[Exponent, ...]):
        self.n, self.generators = n, generators

    def __eq__(self, other):
        if other.__class__ is not Staircase:
            return NotImplemented
        return self.n == other.n and self.generators == other.generators

    def __hash__(self):
        return hash((self.n, self.generators))

    def __repr__(self):
        return f"Staircase(n={self.n!r}, generators={self.generators!r})"

    @classmethod
    def from_exponents(cls, n, exponents) -> "Staircase":
        return cls(n, tuple(sorted(minimal_exponents(exponents))))

    def contains(self, e: Exponent) -> bool:
        return region_of(self.generators, e) is not None

    def max_generator_degree(self) -> int:
        return max((sum(e) for e in self.generators), default=0)


_FIELD_BITS = 64
ENTRY_CAP = 1 << 31  # every exponent entry of a key stays below
ROW_WEIGHT_CAP = 1 << 30  # every row's absolute weights sum to less
_FIELD = (1 << _FIELD_BITS) - 1
_ROW_BIAS = 1 << 62
_GUARD = 1 << 63


class _Layout:
    """Packing tables of the orders with one (rows, n); `_layout` memoizes them."""

    __slots__ = ("weights", "origin", "low", "guard", "overflow", "nbytes", "unpack")

    def __init__(self, rows, n):
        if any(sum(map(abs, row)) >= ROW_WEIGHT_CAP for row in rows):
            raise ExponentOverflow("a weight row of the order has absolute weights "
                                   "summing to 2^30 or more")
        r = len(rows)

        def at(field):  # bit offset of a field, 0 the most significant
            return (r + n - field) * _FIELD_BITS

        # key(e) = origin + sum(e_i * weights[i])
        self.weights = tuple(sum(row[i] << at(j) for j, row in enumerate(rows))
                             + (1 << at(r + i)) + 1 for i in range(n))
        self.origin = sum(_ROW_BIAS << at(j) for j in range(r))  # key of the zero exponent
        self.low = (1 << at(r - 1)) - 1  # the entry and degree fields
        self.guard = sum(_GUARD << at(f) for f in range(r, r + n + 1))  # bit 63 of each
        # bits 31 to 63 of each entry field
        self.overflow = sum((_FIELD ^ (ENTRY_CAP - 1)) << at(r + i) for i in range(n))
        self.nbytes = (r + n + 1) * _FIELD_BITS // 8
        # bytes of a key -> its entries
        self.unpack = struct.Struct(f">{r * _FIELD_BITS // 8}x{n}Q{_FIELD_BITS // 8}x").unpack


_layout = cache(_Layout)


class MonomialOrder:
    """Total order on exponents: weight rows first, then lex tiebreak.
    A value: equal and hashed on (rows, n), as the memos keyed on orders
    (`classify`, `combined_order`) need."""

    __slots__ = ("rows", "n", "_lay")

    def __init__(self, rows: tuple[tuple[int, ...], ...], n: int):
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch(f"weight row of length {len(row)} in dimension {n}")
        self.rows, self.n, self._lay = rows, n, _layout(rows, n)

    def __eq__(self, other):
        if other.__class__ is not MonomialOrder:
            return NotImplemented
        return self.rows == other.rows and self.n == other.n

    def __hash__(self):
        return hash((self.rows, self.n))

    def __repr__(self):
        return f"MonomialOrder(rows={self.rows!r}, n={self.n!r})"

    def __reduce__(self):  # copies and pickles rebuild the layout from the fields
        return MonomialOrder, (self.rows, self.n)

    def key(self, e: Exponent) -> int:
        """Sort key, one int: bigger key means bigger monomial.

        The key packs (W.e, e, |e|) (module docstring), so it is linear in
        e and `exponent` and `degree` read e and |e| back.
        """
        if len(e) != self.n:
            raise DimensionMismatch(f"exponent {e} in dimension {self.n}")
        if max(e, default=0) >= ENTRY_CAP:
            raise ExponentOverflow(f"exponent {e} has an entry of 2^31 or more")
        lay = self._lay
        return sum(map(mul, e, lay.weights), lay.origin)

    def exponent(self, k: int) -> Exponent:
        """The exponent whose key is k."""
        lay = self._lay
        return lay.unpack(k.to_bytes(lay.nbytes, "big"))

    @staticmethod
    def degree(k: int) -> int:
        """Total degree of the exponent whose key is k."""
        return k & _FIELD

    def cone(self, k: int) -> int:
        """The divisibility tag of the exponent whose key is k, for `region`."""
        return k & self._lay.low

    def region(self, cones, k: int) -> int | None:
        """Index of the first cone (`cone` of a key) whose exponent divides
        the exponent of key k, None if escaped (`region_of` on keys)."""
        g = self._lay.guard
        kg = k | g
        for j, c in enumerate(cones):
            if (kg - c) & g == g:
                return j
        return None

    @property
    def origin(self) -> int:
        """Key of the zero exponent: key(a) - origin is the shift that
        multiplies by x^a, so exponent(k - key(d) + origin) is e - d."""
        return self._lay.origin

    @property
    def overflow(self) -> int:
        """Mask that a key formed by adding shifts to keys meets when an
        entry has reached ENTRY_CAP: such a key lies beyond `key`'s range."""
        return self._lay.overflow


def compare(order: MonomialOrder, a: Exponent, b: Exponent) -> int:
    """Return -1, 0 or 1 as x^a precedes, equals or exceeds x^b."""
    ka, kb = order.key(a), order.key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def keyed_terms(p, order: MonomialOrder) -> list:
    """The pairs (order.key(e), coefficient) of p, largest key first.

    Cached in p's `_kc` slot for the order object it was last asked for;
    asking under another order object rebuilds the list.
    """
    kc = p._kc
    if kc is None or kc[0] is not order:
        kc = p._kc = (order, sorted([(order.key(e), c) for e, c in p.terms.items()],
                                    key=itemgetter(0), reverse=True))
    return kc[1]


def leading_term(p, order: MonomialOrder):
    """Order-maximum term (exponent, coefficient) of a nonzero p."""
    if not p.terms:
        raise ZeroPolynomialError("leading term of zero polynomial")
    k, c = keyed_terms(p, order)[0]
    return order.exponent(k), c


def with_keyed_terms(p, order: MonomialOrder, keyed: list):
    """Element of p's ring whose terms are `keyed`, pairs (order.key(e), c)
    with c nonzero, largest key first; the list becomes its cached keyed terms."""
    out = p.with_terms({order.exponent(k): c for k, c in keyed})
    out._kc = (order, keyed)
    return out


@cache
def classify(order: MonomialOrder) -> str:
    """GLOBAL if every variable exceeds 1, LOCAL if every one precedes 1.

    Memoized: orders are frozen, and equal orders share one answer.
    """
    origin = (0,) * order.n
    signs = []
    for i in range(order.n):
        unit = tuple(1 if j == i else 0 for j in range(order.n))
        signs.append(compare(order, unit, origin))
    if all(s > 0 for s in signs):
        return GLOBAL
    if all(s < 0 for s in signs):
        return LOCAL
    return MIXED


def is_global(order: MonomialOrder) -> bool:
    return classify(order) == GLOBAL


def is_degree_compatible_local(order: MonomialOrder) -> bool:
    """Validated sufficient condition for |a| < |b| implying x^a > x^b.

    Requires a first weight row that is strictly negative and constant;
    covers neg_grevlex and every matrix order whose leading row is a
    negative multiple of the all-ones vector.
    """
    if not order.rows:
        return False
    row = order.rows[0]
    return row[0] < 0 and all(w == row[0] for w in row) and classify(order) == LOCAL


@cache
def combined_order(main: MonomialOrder, m: int, homogenized: bool) -> MonomialOrder:
    """Weight-matrix order on the combined exponent (x, [z], a), memoized.

    The x part is compared first and the m parameters break the remaining
    ties by lex, so with a well order on x this is the block (elimination)
    order. When `homogenized`, a balancing slot z follows x and the first
    row is total degree over (x, z), then come the main rows with 0 in that
    slot; that order is a well order for any main order.
    """
    rows, n = main.rows, main.n
    if homogenized:
        rows = ((1,) * (n + 1),) + tuple(r + (0,) for r in rows)
        n += 1
    return MonomialOrder(rows=tuple(r + (0,) * m for r in rows), n=n + m)


@cache
def lex(n: int) -> MonomialOrder:
    """Pure lexicographic order, x1 largest (memoized)."""
    return MonomialOrder(rows=(), n=n)


def grevlex(n: int) -> MonomialOrder:
    """Degree reverse lexicographic order."""
    rows = [(1,) * n]
    for i in range(n - 1, 0, -1):
        rows.append(tuple(-1 if j == i else 0 for j in range(n)))
    return MonomialOrder(rows=tuple(rows), n=n)


def neg_grevlex(n: int) -> MonomialOrder:
    """Local order: degree-first descending, grevlex's ties among equal degree."""
    return MonomialOrder(rows=((-1,) * n,) + grevlex(n).rows[1:], n=n)


def matrix_order(rows, n: int | None = None) -> MonomialOrder:
    rows = tuple(tuple(int(w) for w in row) for row in rows)
    if n is None:
        if not rows:
            raise ValueError("matrix order needs rows or an explicit dimension")
        n = len(rows[0])
    return MonomialOrder(rows=rows, n=n)
