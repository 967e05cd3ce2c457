"""Exact arithmetic for parameter scalars and main-variable polynomials.

Two polynomial rings share one sparse core, `_Sparse`: a dict from
exponent tuples to nonzero coefficients, with the ring arithmetic (+, -,
*, scale, mul_monomial, ==), degrees and leading terms written once. It
tests coefficients for zero by truth value and builds every result with
the subclass's `with_terms`; `_chk` refuses operands whose `ring` differs.

* AScalar: the core over Fraction coefficients, ring value m. It is the
  parameter ring Q[a1..am], and also the ring the basis engine runs in
  for the combined ring Q[x, a] and for lex runs in the parameter ring.
  It adds hashing, a constant fast path for *, lex `lead`, content,
  exact division, homogenize/dehomogenize and evaluation.
* ParamPoly: the core over ParamScalar coefficients, ring value (n, m):
  polynomials in n main variables over Frac(Q[a1..am]). It adds
  specialization at a parameter point, coefficient maps and clearing
  denominators.
* ParamScalar: a fraction num/den of AScalars. Fractions are not
  gcd-reduced (multivariate gcd is out of scope); equality is by cross
  multiplication and a cheap content/monomial normalization plus an
  exact-division attempt keep sizes bounded at desk scale.

Both polynomial classes are immutable once built: nothing writes to
`terms` after construction. So each caches, in its `_kc` slot, its terms
keyed by one order (`keyed_terms`), and `leading` reads the first of them
(`leading_term`).

The division loop runs on either ring through the core: it reads only
`keyed_terms`, `is_zero` and `with_terms`, and tests coefficients for
zero by truth value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .errors import (
    DenominatorVanishes,
    DimensionMismatch,
    ZeroPolynomialError,
)
from .orders import Exponent, MonomialOrder, exp_add, exp_degree


# ---------------------------------------------------------------------------
# order keys and leading terms, shared by AScalar and ParamPoly


def keyed_terms(p, order: MonomialOrder) -> list:
    """The pairs (order.key(e), coefficient) of p, largest key first.

    Cached on p for the order object it was last asked for; asking under
    another order object rebuilds the list.
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
    return k[len(order.rows):], c


# ---------------------------------------------------------------------------
# the sparse core shared by AScalar and ParamPoly


class _Sparse:
    """Ring arithmetic on a dict {exponent tuple: nonzero coefficient}.

    A subclass supplies `ring` (the value two operands must share) and
    `with_terms` (an element of the same ring with the given nonzero
    terms). Coefficients are tested for zero by truth value, so one body
    serves Fraction and ParamScalar coefficients.
    """

    __slots__ = ("terms", "_kc")

    def _chk(self, other):
        if self.ring != other.ring:
            raise DimensionMismatch(f"ring mismatch: {self.ring} vs {other.ring}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._chk(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                v = out[e] + c
                if v:
                    out[e] = v
                else:
                    del out[e]
            else:
                out[e] = c
        return self.with_terms(out)

    def __neg__(self):
        return self.with_terms({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._chk(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = exp_add(e1, e2)
                v = c1 * c2
                if e in out:
                    v = out[e] + v
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return self.with_terms(out)

    def scale(self, c):
        if not c:
            return self.with_terms({})
        return self.with_terms({e: v * c for e, v in self.terms.items()})

    def mul_monomial(self, e: Exponent, c):
        if not c:
            return self.with_terms({})
        return self.with_terms({exp_add(e0, e): v * c for e0, v in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    leading = leading_term

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self, dims: int | None = None) -> bool:
        """All terms share one degree over the first dims coordinates."""
        return len({exp_degree(e, dims) for e in self.terms}) <= 1


# ---------------------------------------------------------------------------
# AScalar: element of Q[a1..am]


class AScalar(_Sparse):
    """Sparse parameter-ring polynomial with Fraction coefficients."""

    __slots__ = ("m",)

    def __init__(self, terms, m, _prune=True):
        self.terms = {e: c for e, c in terms.items() if c} if _prune else terms
        self.m = m
        self._kc = None

    @classmethod
    def const(cls, value, m) -> "AScalar":
        q = Fraction(value)
        return cls({(0,) * m: q} if q else {}, m)

    @classmethod
    def zero(cls, m) -> "AScalar":
        return cls({}, m)

    @classmethod
    def one(cls, m) -> "AScalar":
        return cls.const(1, m)

    @classmethod
    def var(cls, i, m) -> "AScalar":
        e = tuple(1 if j == i else 0 for j in range(m))
        return cls({e: Fraction(1)}, m)

    @property
    def ring(self) -> int:
        return self.m

    def with_terms(self, terms) -> "AScalar":
        """Element of the same ring with the given nonzero terms."""
        return AScalar(terms, self.m, _prune=False)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return self.terms[(0,) * self.m]

    def __mul__(self, other):
        # constant fast path (terms are never mutated, so 1*x can be x)
        if len(self.terms) == 1 and not any(next(iter(self.terms))):
            self, other = other, self
        if len(other.terms) == 1 and not any(next(iter(other.terms))):
            self._chk(other)
            c = next(iter(other.terms.values()))
            return self if c == 1 else self.scale(c)
        return _Sparse.__mul__(self, other)

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __repr__(self):
        return f"AScalar({self.terms!r})"

    def lead(self) -> tuple[Exponent, Fraction]:
        """Leading term under lex on the parameter exponents."""
        if not self.terms:
            raise ZeroPolynomialError("lead of zero scalar")
        e = max(self.terms)
        return e, self.terms[e]

    def homogenize(self, dims: int) -> "AScalar":
        """Insert a balancing slot z after the first dims coordinates.

        z lifts every term to the top degree over those coordinates.
        """
        if not self.terms:
            raise ZeroPolynomialError("homogenize of zero polynomial")
        d = max(exp_degree(e, dims) for e in self.terms)
        return AScalar({e[:dims] + (d - exp_degree(e, dims),) + e[dims:]: c
                        for e, c in self.terms.items()}, self.m + 1, _prune=False)

    def dehomogenize(self, dims: int) -> "AScalar":
        """Substitute 1 for the slot after the first dims coordinates."""
        out: dict = {}
        for e, c in self.terms.items():
            e2 = e[:dims] + e[dims + 1:]
            v = out.get(e2, 0) + c
            if v:
                out[e2] = v
            else:
                out.pop(e2, None)
        return AScalar(out, self.m - 1, _prune=False)

    def evaluate(self, point) -> Fraction:
        out = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= Fraction(x) ** k
            out += v
        return out

    def content(self) -> Fraction:
        """Positive rational content, sign taken from the lex leading term."""
        if not self.terms:
            return Fraction(1)
        if len(self.terms) == 1:
            return next(iter(self.terms.values()))
        cont = fraction_content(self.terms.values())
        return -cont if self.lead()[1] < 0 else cont

    def primitive(self) -> "AScalar":
        """Divide out the content; leading lex coefficient becomes positive."""
        if not self.terms:
            return self
        return self.scale(1 / self.content())

    def exact_div(self, other: "AScalar") -> "AScalar | None":
        """Exact quotient self/other in Q[a], or None when not divisible."""
        self._chk(other)
        if other.is_zero():
            return None
        if self.is_zero():
            return AScalar.zero(self.m)
        le, lc = other.lead()
        rem = dict(self.terms)
        quo: dict = {}
        while rem:
            e = max(rem)
            c = rem[e]
            d = tuple(x - y for x, y in zip(e, le))
            if any(x < 0 for x in d):
                return None
            q = c / lc
            quo[d] = q
            for e2, c2 in other.terms.items():
                ee = exp_add(d, e2)
                v = rem.get(ee, 0) - q * c2
                if v:
                    rem[ee] = v
                else:
                    rem.pop(ee, None)
        return AScalar(quo, self.m)


def fraction_content(values) -> Fraction:
    """Gcd of the numerators over the lcm of the denominators (0 when all are 0).

    `values` is a collection of Fractions; it is iterated twice.
    """
    return Fraction(gcd(*(q.numerator for q in values)),
                    lcm(*(q.denominator for q in values)))


def factor_order(f: AScalar):
    """Sort key of a factor: total degree, then its sorted terms."""
    return f.total_degree(), sorted(f.terms.items())


def divide_out(p: AScalar, f: AScalar) -> tuple[AScalar, int]:
    """(primitive cofactor, count) after dividing the nonconstant f out of
    the nonzero p as often as it goes, or until the cofactor is constant."""
    k = 0
    while not p.is_constant():
        q = p.exact_div(f)
        if q is None:
            break
        p, k = q.primitive(), k + 1
    return p, k


def divides_factor_power(num: AScalar, factors) -> bool:
    """True when num divides a product of powers of the given factors.

    Divides out each nonconstant factor once in turn (in the factorial
    ring Q[a], dividing out a later factor cannot make an earlier one
    divide again); succeeds when a constant remains. Used for the
    "denominator divides a power of h" invariant.
    """
    if num.is_zero():
        return False
    cur = num.primitive()
    for f in factors:
        if not f.is_constant():
            cur, _ = divide_out(cur, f)
    return cur.is_constant()


# ---------------------------------------------------------------------------
# univariate helpers on AScalar (square-free split, rational roots)


def univariate_coefficients(s: AScalar, i: int, values=()) -> list[Fraction]:
    """Coefficient list of s in parameter i, constant term first.

    With `values`, every other parameter j is first replaced by values[j];
    without, s must involve no parameter but i.
    """
    acc: dict[int, Fraction] = {}
    for e, c in s.terms.items():
        for j, k in enumerate(e):
            if k and j != i:
                c *= values[j] ** k
        acc[e[i]] = acc[e[i]] + c if e[i] in acc else c
    zero = Fraction(0)
    return [acc.get(k, zero) for k in range(max(acc, default=0) + 1)]


def _univariate_profile(s: AScalar):
    """Return (index, coeff list) when s involves at most one parameter."""
    used = [i for i in range(s.m) if any(e[i] for e in s.terms)]
    if len(used) > 1:
        return None
    i = used[0] if used else 0
    return i, univariate_coefficients(s, i)


def _poly_gcd_1d(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    def deg(p):
        return len(p) - 1

    def rem(p, q):
        p = p[:]
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        while deg(p) >= deg(q) and any(p):
            f = p[-1] / q[-1]
            sh = deg(p) - deg(q)
            for k, c in enumerate(q):
                p[k + sh] -= f * c
            while len(p) > 1 and p[-1] == 0:
                p.pop()
        return p

    a, b = a[:], b[:]
    while any(b):
        a, b = b, rem(a, b)
        while len(b) > 1 and b[-1] == 0:
            b.pop()
    lead = a[-1]
    return [c / lead for c in a] if any(a) else [Fraction(1)]


def squarefree_factors(s: AScalar) -> list[AScalar]:
    """Distinct square-free-ish factors of s, constants dropped.

    Complete for univariate inputs (gcd with the derivative); a genuinely
    multivariate irreducible part is returned whole, which only refines the
    comprehensive tree, never breaks it. Monomial content splits into the
    individual variables.
    """
    if s.is_zero() or s.is_constant():
        return []
    out: list[AScalar] = []
    # split off the monomial content
    mins = [min(e[i] for e in s.terms) for i in range(s.m)]
    if any(mins):
        out += [AScalar.var(i, s.m) for i, k in enumerate(mins) if k]
        s = AScalar({tuple(x - y for x, y in zip(e, mins)): c
                     for e, c in s.terms.items()}, s.m)
    if not s.is_constant():
        prof = _univariate_profile(s)
        if prof is not None:
            i, coeffs = prof
            g = _poly_gcd_1d(coeffs, [k * coeffs[k] for k in range(1, len(coeffs))])
            if len(g) > 1:
                # square-free part = s / gcd(s, s')
                s = s.exact_div(AScalar({tuple(k if j == i else 0 for j in range(s.m)): c
                                         for k, c in enumerate(g) if c}, s.m))
        out.append(s.primitive())
    return list(dict.fromkeys(out))


def rational_roots(s: AScalar) -> list[Fraction]:
    """All rational roots of a univariate AScalar (exact)."""
    prof = _univariate_profile(s)
    if prof is None:
        raise ValueError("rational_roots needs a univariate scalar")
    _, coeffs = prof
    if len(coeffs) == 1:
        return []
    roots = []
    # strip zero roots
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low:
        roots.append(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return roots
    mult = fraction_content(coeffs).denominator
    ints = [int(c * mult) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(k):
        out = []
        d = 1
        while d * d <= k:
            if k % d == 0:
                out.append(d)
                out.append(k // d)
            d += 1
        return out

    cands = set()
    for p in divisors(a0):
        for q in divisors(an):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    for r in sorted(cands):
        if sum(c * r ** k for k, c in enumerate(ints)) == 0:
            roots.append(r)
    return sorted(set(roots))


# ---------------------------------------------------------------------------
# ParamScalar: element of Frac(Q[a])


class ParamScalar:
    """Fraction of parameter polynomials with a tracked denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: AScalar, den: AScalar | None = None, _norm=True):
        if den is None:
            den = AScalar.one(num.m)
        if den.is_zero():
            raise ZeroDivisionError("ParamScalar with zero denominator")
        if _norm:
            num, den = _normalize_fraction(num, den)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, value, m) -> "ParamScalar":
        return cls(AScalar.const(value, m))

    @classmethod
    def zero(cls, m) -> "ParamScalar":
        return cls(AScalar.zero(m))

    @classmethod
    def one(cls, m) -> "ParamScalar":
        return cls(AScalar.one(m))

    @property
    def m(self) -> int:
        return self.num.m

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other):
        if self.den == other.den:
            return ParamScalar(self.num + other.num, self.den)
        return ParamScalar(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    def __neg__(self):
        return ParamScalar(-self.num, self.den, _norm=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return ParamScalar.zero(self.m)
        return ParamScalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero ParamScalar")
        return ParamScalar(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if not isinstance(other, ParamScalar):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        return f"ParamScalar({self.num.terms!r} / {self.den.terms!r})"

    def reduced(self) -> "ParamScalar":
        """Try exact polynomial division of num by den (and den by num)."""
        if self.den.is_constant() or self.is_zero():
            return self
        q = self.num.exact_div(self.den)
        if q is not None:
            return ParamScalar(q)
        q = self.den.exact_div(self.num)
        if q is not None:
            return ParamScalar(AScalar.one(self.m), q)
        return self

    def evaluate(self, point) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise DenominatorVanishes(f"denominator vanishes at {point}")
        return self.num.evaluate(point) / d


def _normalize_fraction(num: AScalar, den: AScalar):
    """Cheap canonicalization: contents, denominator sign, monomial gcd."""
    if num.is_zero():
        return num, AScalar.one(num.m)
    cd = den.content()
    if cd != 1:
        den = den.scale(1 / cd)
        num = num.scale(1 / cd)
    m = num.m
    if m:
        mins = [min(min(e[i] for e in num.terms), min(e[i] for e in den.terms))
                for i in range(m)]
        if any(mins):
            shift = lambda t: {tuple(x - y for x, y in zip(e, mins)): c
                               for e, c in t.items()}
            num = AScalar(shift(num.terms), m)
            den = AScalar(shift(den.terms), m)
    return num, den


# ---------------------------------------------------------------------------
# ParamPoly: polynomial in the main variables over Frac(Q[a])


class ParamPoly(_Sparse):
    """Sparse polynomial in n main variables with ParamScalar coefficients."""

    __slots__ = ("n", "m")

    def __init__(self, terms, n, m, _prune=True):
        self.terms = {e: c for e, c in terms.items() if c} if _prune else terms
        self.n = n
        self.m = m
        self._kc = None

    @classmethod
    def zero(cls, n, m) -> "ParamPoly":
        return cls({}, n, m)

    @classmethod
    def constant(cls, value, n, m) -> "ParamPoly":
        return cls({(0,) * n: ParamScalar.const(value, m)}, n, m)

    @classmethod
    def monomial(cls, e: Exponent, coeff: ParamScalar, n, m) -> "ParamPoly":
        return cls({tuple(e): coeff}, n, m)

    @classmethod
    def var(cls, i, n, m) -> "ParamPoly":
        e = tuple(1 if j == i else 0 for j in range(n))
        return cls({e: ParamScalar.one(m)}, n, m)

    @property
    def ring(self) -> tuple[int, int]:
        return self.n, self.m

    def with_terms(self, terms) -> "ParamPoly":
        """Element of the same ring with the given nonzero terms."""
        return ParamPoly(terms, self.n, self.m, _prune=False)

    def __repr__(self):
        return f"ParamPoly({self.terms!r})"

    def specialize(self, point) -> "ParamPoly":
        """Evaluate all coefficients at a parameter point; result has m=0."""
        out: dict = {}
        for e, c in self.terms.items():
            q = c.evaluate(point)
            if q:
                out[e] = ParamScalar.const(q, 0)
        return ParamPoly(out, self.n, 0, _prune=False)

    def map_coeffs(self, fn) -> "ParamPoly":
        return ParamPoly({e: fn(c) for e, c in self.terms.items()}, self.n, self.m)

    def clear_denominators(self) -> tuple["ParamPoly", AScalar]:
        """Scale by a parameter polynomial so every coefficient is integral.

        Returns (scaled poly, multiplier). The multiplier is the product of
        the distinct nonconstant denominators.
        """
        dens = dict.fromkeys(c.den for c in self.terms.values()
                             if not c.den.is_constant())
        mult = AScalar.one(self.m)
        for d in dens:
            mult = mult * d
        if mult.is_constant():
            return self, AScalar.one(self.m)
        return self.scale(ParamScalar(mult)).map_coeffs(
            lambda c: c.reduced()), mult


# ---------------------------------------------------------------------------
# embeddings between the parametric ring and the combined ring


def embed_params_as_vars(f: ParamPoly) -> AScalar:
    """Flatten a parametric polynomial into the combined ring Q[x.., a..].

    Coefficients must be integral (clear denominators first).
    """
    out: dict = {}
    for e, c in f.terms.items():
        if not c.den.is_constant():
            raise ValueError("embed_params_as_vars needs integral coefficients")
        d = c.den.constant_value()
        for ge, q in c.num.terms.items():
            out[e + ge] = q / d
    return AScalar(out, f.n + f.m, _prune=False)


def split_params(f: AScalar, n: int, m: int) -> ParamPoly:
    """Inverse of embed_params_as_vars: last m coordinates become parameters."""
    acc: dict = {}
    for e, c in f.terms.items():
        acc.setdefault(e[:n], {})[e[n:]] = c
    return ParamPoly({xe: ParamScalar(AScalar(terms, m, _prune=False))
                      for xe, terms in acc.items()}, n, m, _prune=False)


# ---------------------------------------------------------------------------
# rendering


def render_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_terms(terms, names) -> str:
    """Sign-joined text of (negative, magnitude text, exponent) terms.

    Each body is the magnitude times the monomial in `names`; a magnitude
    of "1" is left out before a monomial. No terms render as "0".
    """
    out = ""
    for negative, mag, e in terms:
        mono = "*".join(f"{names[i]}^{k}" if k > 1 else names[i]
                        for i, k in enumerate(e) if k)
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        if out:
            out += f" {'-' if negative else '+'} {body}"
        else:
            out = ("-" if negative else "") + body
    return out or "0"


def render_ascalar(s: AScalar, names) -> str:
    return render_terms(((c < 0, render_fraction(abs(c)), e)
                         for e, c in sorted(s.terms.items(), reverse=True)),
                        names)


def _is_simple_product(s: AScalar) -> bool:
    """Single term with positive coefficient renders without parentheses."""
    if len(s.terms) != 1:
        return False
    return next(iter(s.terms.values())) > 0


def render_scalar(c: ParamScalar, names) -> tuple[int, str, bool]:
    """Return (sign, magnitude string, needs_parens_when_factor)."""
    num, den = c.num, c.den
    _, lead = num.lead()
    sign = -1 if lead < 0 else 1
    if sign < 0:
        num = -num
    if den.is_constant() and den.constant_value() == 1:
        if num.is_constant():
            return sign, render_fraction(num.constant_value()), "/" in render_fraction(num.constant_value())
        s = render_ascalar(num, names)
        return sign, s, not _is_simple_product(num)
    ns = render_ascalar(num, names)
    if not _is_simple_product(num) and not num.is_constant():
        ns = f"({ns})"
    ds = render_ascalar(den, names)
    if not _is_simple_product(den):
        ds = f"({ds})"
    return sign, f"{ns}/{ds}", True


def render_poly(f: ParamPoly, order: MonomialOrder, var_names, param_names) -> str:
    """Canonical text: terms sorted descending by the active order."""
    def term(e):
        sign, mag, parens = render_scalar(f.terms[e], param_names)
        return sign < 0, f"({mag})" if parens and any(e) else mag, e

    return render_terms(map(term, sorted(f.terms, key=order.key, reverse=True)),
                        var_names)
