"""Monomial orders as integer weight-row matrices with a lexicographic tail.

An order is given by a list of integer weight rows; ties surviving every row
are broken by plain lex on the exponent tuple, so any row matrix yields a
total order. The orders of the combined ring Q[x, a] used by the parametric
pipelines (block order on x then parameters, and the degree-first
homogenized order) are ordinary weight matrices on the concatenated exponent,
built by `combined_order`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
        """Sort key: bigger key means bigger monomial.

        The key is (W.e) + e: linear in e, so key(a + b) is the entrywise
        sum key(a) + key(b), and e is its tail key[len(rows):].
        """
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


def combined_order(main: MonomialOrder, m: int, homogenized: bool) -> MonomialOrder:
    """Weight-matrix order on the combined exponent (x, [z], a).

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
    """Local order: degree-first descending, grevlex's ties among equal degree."""
    return MonomialOrder(rows=((-1,) * n,) + grevlex(n).rows[1:], n=n)


def matrix_order(rows, n: int | None = None) -> MonomialOrder:
    rows = tuple(tuple(int(w) for w in row) for row in rows)
    if n is None:
        if not rows:
            raise ValueError("matrix order needs rows or an explicit dimension")
        n = len(rows[0])
    return MonomialOrder(rows=rows, n=n)
