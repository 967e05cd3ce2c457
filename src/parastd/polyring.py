"""Exact arithmetic for parameter scalars and main-variable polynomials.

Three layers, all sparse dicts keyed by exponent tuples:

* AScalar: a polynomial over Q with Fraction coefficients. It is the
  parameter ring Q[a1..am], and also the ring the basis engine runs in
  for the combined ring Q[x, a] and for lex runs in the parameter ring.
* ParamScalar: a fraction num/den of AScalars. Fractions are not
  gcd-reduced (multivariate gcd is out of scope); equality is by cross
  multiplication and a cheap content/monomial normalization plus an
  exact-division attempt keep sizes bounded at desk scale.
* ParamPoly: finite map from main-variable exponents to ParamScalars.

The division loop takes either AScalar or ParamPoly: it reads only
`terms`, `is_zero`, `leading(order)` and `with_terms` (same ring, given
terms), and tests coefficients for zero by truth value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DenominatorVanishes,
    DimensionMismatch,
    ZeroPolynomialError,
)
from .orders import Exponent, MonomialOrder, exp_add, exp_degree


# ---------------------------------------------------------------------------
# AScalar: element of Q[a1..am]


class AScalar:
    """Sparse parameter-ring polynomial with Fraction coefficients."""

    __slots__ = ("terms", "m")

    def __init__(self, terms, m, _prune=True):
        self.terms = {e: c for e, c in terms.items() if c} if _prune else terms
        self.m = m

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

    def _chk(self, other):
        if self.m != other.m:
            raise DimensionMismatch("parameter-ring dimension mismatch")

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return self.terms[(0,) * self.m]

    def __add__(self, other):
        self._chk(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return AScalar(out, self.m, _prune=False)

    def __neg__(self):
        return AScalar({e: -c for e, c in self.terms.items()}, self.m, _prune=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._chk(other)
        if not self.terms or not other.terms:
            return AScalar.zero(self.m)
        # constant fast path (terms are never mutated, so 1*x can be x)
        if len(self.terms) == 1 and not any(next(iter(self.terms))):
            c = self.constant_value()
            if c == 1:
                return other
            return AScalar({e: c * v for e, v in other.terms.items()}, self.m, _prune=False)
        if len(other.terms) == 1 and not any(next(iter(other.terms))):
            c = other.constant_value()
            if c == 1:
                return self
            return AScalar({e: c * v for e, v in self.terms.items()}, self.m, _prune=False)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = exp_add(e1, e2)
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return AScalar(out, self.m, _prune=False)

    def scale(self, q: Fraction) -> "AScalar":
        if q == 0:
            return AScalar.zero(self.m)
        return AScalar({e: c * q for e, c in self.terms.items()}, self.m, _prune=False)

    def mul_monomial(self, e: Exponent, q: Fraction) -> "AScalar":
        if q == 0:
            return AScalar.zero(self.m)
        return AScalar({exp_add(e0, e): c * q for e0, c in self.terms.items()},
                       self.m, _prune=False)

    def with_terms(self, terms) -> "AScalar":
        """Element of the same ring with the given nonzero terms."""
        return AScalar(terms, self.m, _prune=False)

    def __eq__(self, other):
        return isinstance(other, AScalar) and self.m == other.m and self.terms == other.terms

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

    def leading(self, order: MonomialOrder) -> tuple[Exponent, Fraction]:
        """Order-maximum term under a monomial order on the m variables."""
        if not self.terms:
            raise ZeroPolynomialError("leading term of zero polynomial")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self, dims: int | None = None) -> bool:
        return len({exp_degree(e, dims) for e in self.terms}) <= 1

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


def divides_factor_power(num: AScalar, factors) -> bool:
    """True when num divides a product of powers of the given factors.

    Repeatedly divides out each factor; succeeds when a nonzero constant
    remains. Used for the "denominator divides a power of h" invariant.
    """
    if num.is_zero():
        return False
    cur = num.primitive()
    progress = True
    while progress and not cur.is_constant():
        progress = False
        for f in factors:
            if f.is_constant():
                continue
            q = cur.exact_div(f)
            while q is not None:
                cur = q.primitive() if not q.is_zero() else q
                progress = True
                if cur.is_constant() or cur.is_zero():
                    break
                q = cur.exact_div(f)
            if cur.is_constant():
                break
    return cur.is_constant() and not cur.is_zero()


# ---------------------------------------------------------------------------
# univariate helpers on AScalar (square-free split, rational roots)


def _univariate_profile(s: AScalar):
    """Return (index, coeff list) when s involves at most one parameter."""
    used = [i for i in range(s.m) if any(e[i] for e in s.terms)]
    if len(used) > 1:
        return None
    i = used[0] if used else 0
    deg = max((e[i] for e in s.terms), default=0)
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in s.terms.items():
        coeffs[e[i]] = c
    return i, coeffs


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
        for i, k in enumerate(mins):
            if k:
                out.append(AScalar.var(i, s.m))
        s = AScalar({tuple(x - y for x, y in zip(e, mins)): c
                     for e, c in s.terms.items()}, s.m)
        if s.is_constant():
            return _dedupe(out)
    prof = _univariate_profile(s)
    if prof is None:
        out.append(s.primitive())
        return _dedupe(out)
    i, coeffs = prof
    d = [k * coeffs[k] for k in range(1, len(coeffs))]
    g = _poly_gcd_1d(coeffs, d) if any(d) else [Fraction(1)]
    sf = coeffs
    if len(g) > 1:
        # square-free part = s / gcd(s, s')
        sf = _exact_div_1d(coeffs, g)
    poly = AScalar({tuple(k if j == i else 0 for j in range(s.m)): c
                    for k, c in enumerate(sf) if c != 0}, s.m)
    if not poly.is_constant():
        out.append(poly.primitive())
    return _dedupe(out)


def _exact_div_1d(p, q):
    out = [Fraction(0)] * (len(p) - len(q) + 1)
    p = p[:]
    for k in range(len(out) - 1, -1, -1):
        f = p[k + len(q) - 1] / q[-1]
        out[k] = f
        for j, c in enumerate(q):
            p[k + j] -= f * c
    return out


def _dedupe(factors):
    seen = []
    for f in factors:
        if all(f != g for g in seen):
            seen.append(f)
    return seen


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


class ParamPoly:
    """Sparse polynomial in n main variables with ParamScalar coefficients."""

    __slots__ = ("terms", "n", "m")

    def __init__(self, terms, n, m, _prune=True):
        if _prune:
            terms = {e: c for e, c in terms.items() if not c.is_zero()}
        self.terms = terms
        self.n = n
        self.m = m

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

    def _chk(self, other):
        if self.n != other.n or self.m != other.m:
            raise DimensionMismatch(
                f"ring mismatch: ({self.n},{self.m}) vs ({other.n},{other.m})")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._chk(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                v = out[e] + c
                if v.is_zero():
                    del out[e]
                else:
                    out[e] = v
            else:
                out[e] = c
        return ParamPoly(out, self.n, self.m, _prune=False)

    def __neg__(self):
        return ParamPoly({e: -c for e, c in self.terms.items()},
                         self.n, self.m, _prune=False)

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
                if v.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = v
        return ParamPoly(out, self.n, self.m, _prune=False)

    def scale(self, c: ParamScalar) -> "ParamPoly":
        if c.is_zero():
            return ParamPoly.zero(self.n, self.m)
        return ParamPoly({e: v * c for e, v in self.terms.items()},
                         self.n, self.m, _prune=False)

    def mul_monomial(self, e: Exponent, c: ParamScalar) -> "ParamPoly":
        if c.is_zero():
            return ParamPoly.zero(self.n, self.m)
        return ParamPoly({exp_add(e0, e): v * c for e0, v in self.terms.items()},
                         self.n, self.m, _prune=False)

    def with_terms(self, terms) -> "ParamPoly":
        """Element of the same ring with the given nonzero terms."""
        return ParamPoly(terms, self.n, self.m, _prune=False)

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    def __repr__(self):
        return f"ParamPoly({self.terms!r})"

    def leading(self, order: MonomialOrder) -> tuple[Exponent, ParamScalar]:
        """Order-maximum of the Newton diagram with its coefficient."""
        if not self.terms:
            raise ZeroPolynomialError("leading term of zero polynomial")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def specialize(self, point) -> "ParamPoly":
        """Evaluate all coefficients at a parameter point; result has m=0."""
        out: dict = {}
        for e, c in self.terms.items():
            q = c.evaluate(point)
            if q:
                out[e] = ParamScalar.const(q, 0)
        return ParamPoly(out, self.n, 0, _prune=False)

    def map_coeffs(self, fn) -> "ParamPoly":
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[e] = v
        return ParamPoly(out, self.n, self.m, _prune=False)

    def clear_denominators(self) -> tuple["ParamPoly", AScalar]:
        """Scale by a parameter polynomial so every coefficient is integral.

        Returns (scaled poly, multiplier). The multiplier is the product of
        the distinct nonconstant denominators.
        """
        dens = []
        for c in self.terms.values():
            if not c.den.is_constant() and all(c.den != d for d in dens):
                dens.append(c.den)
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
