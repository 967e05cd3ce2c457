"""Monomial orders as integer weight-row matrices with a lexicographic tail.

An order is given by a list of integer weight rows; ties surviving every row
are broken by plain lex on the exponent tuple, so any row matrix yields a
total order. Composite orders used by the parametric pipelines (block order
on x then parameters, and the degree-first homogenized order) are flattened
to ordinary weight matrices on the concatenated exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import DimensionMismatch

Exponent = tuple[int, ...]

GLOBAL = "global"
LOCAL = "local"
MIXED = "mixed"


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def exp_divides(a: Exponent, b: Exponent) -> bool:
    """True when x^a divides x^b, i.e. a <= b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def exp_degree(a: Exponent, dims: int | None = None) -> int:
    return sum(a) if dims is None else sum(a[:dims])


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on exponents: weight rows first, then lex tiebreak."""

    rows: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.n:
                raise DimensionMismatch(
                    f"weight row of length {len(row)} in dimension {self.n}")

    def key(self, e: Exponent):
        """Sort key: bigger key means bigger monomial."""
        if len(e) != self.n:
            raise DimensionMismatch(f"exponent {e} in dimension {self.n}")
        return tuple(sum(map(mul, row, e)) for row in self.rows) + e


def compare(order: MonomialOrder, a: Exponent, b: Exponent) -> int:
    """Return -1, 0 or 1 as x^a precedes, equals or exceeds x^b."""
    ka, kb = order.key(a), order.key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def classify(order: MonomialOrder) -> str:
    """GLOBAL if every variable exceeds 1, LOCAL if every one precedes 1."""
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


def homogenized_order(main: MonomialOrder) -> MonomialOrder:
    """Degree-first order on (x, z) exponents that restricts to `main` on x.

    First row is total degree including the homogenization slot (appended
    last), then the main rows with 0 in that slot, then the lex tail. The
    result is always a well order.
    """
    n = main.n
    rows = ((1,) * (n + 1),) + tuple(r + (0,) for r in main.rows)
    return MonomialOrder(rows=rows, n=n + 1)


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


BLOCK = "block"
HOMOGENIZED = "homogenized"


@dataclass(frozen=True)
class CompositeOrder:
    """Order on parameter+main exponents: main part first, then params by lex.

    The block variant is the elimination order used for parametric Groebner
    runs with a well order on x; the homogenized variant compares the
    (x, z) part degree-first and is a well order for any main order.
    """

    main: MonomialOrder
    param_dims: int
    variant: str = BLOCK

    def __post_init__(self):
        if self.variant not in (BLOCK, HOMOGENIZED):
            raise ValueError(f"unknown composite variant {self.variant!r}")

    @property
    def main_dims(self) -> int:
        return self.main.n + (1 if self.variant == HOMOGENIZED else 0)

    def flatten(self) -> MonomialOrder:
        """Weight-matrix order on the concatenated (x, [z], a) exponent."""
        m = self.param_dims
        base = self.main if self.variant == BLOCK else homogenized_order(self.main)
        rows = tuple(r + (0,) * m for r in base.rows)
        return MonomialOrder(rows=rows, n=base.n + m)


def composite_compare(order: CompositeOrder, pa, pb) -> int:
    """Compare (param_exp, main_exp) pairs under the composite order."""
    (ga, aa), (gb, ab) = pa, pb
    if len(ga) != order.param_dims or len(gb) != order.param_dims:
        raise DimensionMismatch("parameter exponent dimension")
    if len(aa) != order.main_dims or len(ab) != order.main_dims:
        raise DimensionMismatch("main exponent dimension")
    flat = order.flatten()
    return compare(flat, tuple(aa) + tuple(ga), tuple(ab) + tuple(gb))


def lex(n: int) -> MonomialOrder:
    """Pure lexicographic order, x1 largest."""
    return MonomialOrder(rows=(), n=n)


def grevlex(n: int) -> MonomialOrder:
    """Degree reverse lexicographic order."""
    rows = [(1,) * n]
    for i in range(n - 1, 0, -1):
        rows.append(tuple(-1 if j == i else 0 for j in range(n)))
    return MonomialOrder(rows=tuple(rows), n=n)


def neg_grevlex(n: int) -> MonomialOrder:
    """Local order: degree-first descending, grevlex-style among equal degree."""
    rows = [(-1,) * n]
    for i in range(n - 1, 0, -1):
        rows.append(tuple(-1 if j == i else 0 for j in range(n)))
    return MonomialOrder(rows=tuple(rows), n=n)


def matrix_order(rows, n: int | None = None) -> MonomialOrder:
    rows = tuple(tuple(int(w) for w in row) for row in rows)
    if n is None:
        if not rows:
            raise ValueError("matrix order needs rows or an explicit dimension")
        n = len(rows[0])
    return MonomialOrder(rows=rows, n=n)
