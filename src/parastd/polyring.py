"""Exact arithmetic for parameter scalars and main-variable polynomials.

Two polynomial rings share one sparse core, `_Sparse`: a dict from
exponent tuples to nonzero coefficients, with the ring arithmetic (+, -,
*, scale, mul_monomial, ==), degrees and leading terms written once. It
tests coefficients for zero by truth value and builds every result with
the subclass's `with_terms`; `_chk` refuses operands whose `ring` differs.

* AScalar: the core over Fraction coefficients, ring value m. It is the
  parameter ring Q[a1..am], and also the ring the basis engine runs in
  for the combined ring Q[x, a] and for lex runs in the parameter ring.
  It adds hashing, a constant fast path for *, content, exact division,
  homogenize/dehomogenize and evaluation. Evaluation runs in integers:
  terms are summed over one common denominator from the numerators and
  denominators of the coefficients and coordinates, and only the sum
  becomes a Fraction; a zero test at a point reads the sum's numerator.
* ParamPoly: the core over ParamScalar coefficients, ring value (n, m):
  polynomials in n main variables over Frac(Q[a1..am]). It adds
  specialization at a parameter point (an AScalar in the n main variables,
  so a specialized ideal lives in Q[x]), coefficient maps and clearing
  denominators.
* ParamScalar: a fraction num/den of AScalars. Fractions are not
  gcd-reduced (multivariate gcd is out of scope); equality is by cross
  multiplication and a cheap content/monomial normalization plus an
  exact-division attempt keep sizes bounded at desk scale.

Both polynomial classes are immutable once built: nothing writes to
`terms` after construction. So each caches, in its `_kc` slot, its terms
keyed by one order (`orders.keyed_terms`, or handed over when it is built
by `orders.with_keyed_terms`), and `leading` reads the first of them
(`orders.leading_term`); a lex leading term is `leading(lex(m))`.

Exact division and the gcd of the square-free split run the `division`
loop under lex; it reads only `keyed_terms`, `is_zero` and `with_terms`.
Where the exponents settle the answer, they read it off them instead:
exact division by a one-term divisor (so `divide_out` of a monomial too),
refused on lex heads, tails and degrees, or at equal total degree a test
of proportionality (`exact_div`), and a gcd with a one-term side.
`embed_params_as_vars`, `split_params` and `pad` move between the rings.

Rendering sorts each AScalar's terms once, descending, which is lex order;
a ParamScalar takes its sign from the first of its numerator's sorted
terms, the lex leading one, and prints the numerator times that sign.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt, lcm, log10

from .errors import (
    DenominatorVanishes,
    DimensionMismatch,
    ParastdError,
    ZeroPolynomialError,
)
from .orders import (Exponent, MonomialOrder, exp_add, exp_degree, exp_divides, exp_sub,
                     leading_term, lex)
from .division import divide, divide_truncated


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

    def __add__(self, other, _sub=False):
        self._chk(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                v = out[e] - c if _sub else out[e] + c
                if v:
                    out[e] = v
                else:
                    del out[e]
            else:
                out[e] = -c if _sub else c
        return self.with_terms(out)

    def __neg__(self):
        return self.with_terms({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(other, True)

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

    def div_monomial(self, e: Exponent):
        """Exact quotient by the monomial with exponent e (e divides every term)."""
        return self.with_terms({exp_sub(e0, e): v for e0, v in self.terms.items()})

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
        return cls({(0,) * m: Fraction(value)}, m)

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
        """Value at a point of Fraction or int entries.

        Each term's numerator and denominator are ints, read off the
        coefficient and the coordinates; the terms are summed over one
        common denominator and only the sum becomes a Fraction.
        """
        return Fraction(*self._sum_at(point))

    def vanishes_at(self, point) -> bool:
        """Whether the value at point is 0: `evaluate`'s sum has numerator 0."""
        return not self._sum_at(point)[0]

    def _sum_at(self, point) -> tuple[int, int]:
        """(num, den), ints with den > 0, whose quotient is the value at point."""
        num, den = 0, 1
        for e, c in self.terms.items():
            tn, td = c.numerator, c.denominator
            for x, k in zip(point, e):
                if k:
                    tn *= x.numerator ** k
                    td *= x.denominator ** k
            if td == den:
                num += tn
            else:
                num, den = num * td + tn * den, den * td
        return num, den

    def content(self) -> Fraction:
        """Positive rational content, sign taken from the lex leading term,
        the one at the largest exponent tuple (lex compares tuples as such)."""
        if not self.terms:
            return Fraction(1)
        if len(self.terms) == 1:
            return next(iter(self.terms.values()))
        cont = fraction_content(self.terms.values())
        return -cont if self.terms[max(self.terms)] < 0 else cont

    def primitive(self) -> "AScalar":
        """Divide out the content (self if it is 1); the lex lead becomes positive."""
        c = self.content()
        return self if c == 1 else self.scale(1 / c)

    def exact_div(self, other: "AScalar") -> "AScalar | None":
        """Exact quotient self/other in Q[a], or None when not divisible.

        A one-term other c*a^d divides when d divides every term, and the
        quotient is read off the exponents. A longer other is refused before
        any division when self is one term, or when other's lex head or lex
        tail (largest, smallest exponent tuple) does not divide self's, or
        some variable's degree is larger in other: in a product these add
        up. At equal total degrees the quotient is the ratio c of the lex
        head coefficients, if self == c*other. Otherwise lex division stops
        where the leading exponent first escapes other's cone; other
        divides self when nothing is left there.
        """
        self._chk(other)
        if len(other.terms) == 1:
            (d, c), = other.terms.items()
            if not all(exp_divides(d, e) for e in self.terms):
                return None
            return self.div_monomial(d).scale(1 / c)
        if len(self.terms) == 1 or other.is_zero():
            return None
        if not self.terms:
            return self
        hs, ho = max(self.terms), max(other.terms)
        if not (exp_divides(ho, hs) and exp_divides(min(other.terms), min(self.terms))
                and exp_divides(tuple(map(max, *other.terms)), tuple(map(max, *self.terms)))):
            return None
        if self.total_degree() == other.total_degree():
            c = self.terms[hs] / other.terms[ho]
            return AScalar.const(c, self.m) if other.scale(c) == self else None
        res = divide_truncated(self, [other], lex(self.m))
        return None if res.remainder.terms else res.quotients[0]


def _monomial_gcd(*polys) -> Exponent:
    """Entrywise least exponent over all terms of the polys."""
    return tuple(map(min, zip(*(e for p in polys for e in p.terms))))


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
    the nonzero p as often as it goes, or until the cofactor is constant,
    by repeated `exact_div`; a one-term f is divided off the exponents
    there. A count of 0 leaves p as it is.
    """
    k = 0
    while not p.is_constant():
        q = p.exact_div(f)
        if q is None:
            break
        p, k = q.primitive(), k + 1
    return p, k


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


def _used_parameters(s: AScalar) -> list[int]:
    """Indices of the parameters that occur in s."""
    return [i for i in range(s.m) if any(e[i] for e in s.terms)]


def squarefree_factors(s: AScalar) -> list[AScalar]:
    """Distinct square-free-ish factors of s, constants dropped.

    Complete for univariate inputs: the square-free part is s / gcd(s, s'),
    the gcd taken by Euclid with lex division remainders. A genuinely
    multivariate irreducible part is returned whole, which only refines the
    comprehensive tree, never breaks it. Monomial content splits into the
    individual variables.
    """
    out: list[AScalar] = []
    # split off the monomial content
    mins = _monomial_gcd(s)
    if any(mins):
        out += [AScalar.var(i, s.m) for i, k in enumerate(mins) if k]
        s = s.div_monomial(mins)
    if not s.is_constant():
        used = _used_parameters(s)
        if len(used) == 1:
            i = used[0]
            g = common_factor(s, AScalar({e[:i] + (e[i] - 1,) + e[i + 1:]: e[i] * c
                                          for e, c in s.terms.items() if e[i]}, s.m))
            if not g.is_constant():
                s = s.exact_div(g)
        out.append(s.primitive())
    return out  # distinct: the last part has no monomial content, so it is no variable


def common_factor(f: AScalar, g: AScalar) -> AScalar:
    """Primitive common factor of the nonzero f and g (1 when none is found).
    In one parameter between them it is their gcd: the monomial gcd when f
    or g is one term, else by Euclid on lex remainders. In more, it is f or
    g when it divides the other."""
    if len(set(_used_parameters(f) + _used_parameters(g))) > 1:
        return next((x.primitive() for x, y in ((f, g), (g, f))
                     if y.exact_div(x) is not None), AScalar.one(f.m))
    if len(f.terms) == 1 or len(g.terms) == 1:
        return AScalar({_monomial_gcd(f, g): Fraction(1)}, f.m, _prune=False)
    order = lex(f.m)
    while g.terms:
        f, g = g, divide(f, [g], order).remainder
    return f.primitive()


def _divisors(k: int) -> set[int]:
    """Positive divisors of k > 0, by trial division up to isqrt(k)."""
    return {e for d in range(1, isqrt(k) + 1) if k % d == 0 for e in (d, k // d)}


def rational_roots(s: AScalar) -> list[Fraction]:
    """All rational roots of a univariate AScalar, sorted (exact).

    Zero roots are split off, and the rest is scaled once to integer
    coefficients c_0..c_n; a linear polynomial is solved directly, and a
    quadratic from its discriminant D = c_1^2 - 4*c_0*c_2, which has
    rational roots only when it is a square (`isqrt`). Otherwise every
    candidate +-p/q in lowest terms with p | c_0 and q | c_n (rational
    root theorem) is tested in integers by homogeneous Horner,
    sum c_k p^k q^(n-k) == 0, and only roots found become Fractions. The
    divisor walk costs O(sqrt|c_0| + sqrt|c_n|) steps, so a huge constant
    term is slow from degree 3 on.
    """
    used = _used_parameters(s)
    if len(used) > 1:
        raise ValueError("rational_roots needs a univariate scalar")
    coeffs = univariate_coefficients(s, used[0] if used else 0)
    low = 0
    while low < len(coeffs) - 1 and not coeffs[low]:
        low += 1
    roots = [Fraction(0)] if low else []
    coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return roots
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    if len(ints) == 2:
        roots.append(Fraction(-ints[0], ints[1]))
    elif len(ints) == 3:
        c0, c1, c2 = ints
        disc = c1 * c1 - 4 * c0 * c2
        if disc >= 0 and (r := isqrt(disc)) * r == disc:
            roots += {Fraction(-c1 + r, 2 * c2), Fraction(-c1 - r, 2 * c2)}
    else:
        top, rest = ints[-1], ints[-2::-1]
        qs = _divisors(abs(top))
        for p in _divisors(abs(ints[0])):
            for q in qs:
                if gcd(p, q) != 1:
                    continue
                for sp in (p, -p):
                    acc, qk = top, 1
                    for c in rest:
                        qk *= q
                        acc = acc * sp + c * qk
                    if not acc:
                        roots.append(Fraction(sp, q))
    return sorted(roots)


# ---------------------------------------------------------------------------
# ParamScalar: element of Frac(Q[a])


class ParamScalar:
    """Fraction num/den of parameter polynomials with a tracked denominator.

    A constant denominator is exactly AScalar.one(m): `_normalize_fraction`
    divides num and den by den's content, and the two constructions that
    skip it, `__neg__` and `split_params`, pass on a denominator that is 1
    already. So a reader takes num itself as the value of a fraction with
    a constant denominator.
    """

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
        if self.den.is_constant():  # the denominator 1 (class docstring)
            return self.num.evaluate(point)
        d = self.den.evaluate(point)
        if d == 0:
            raise DenominatorVanishes(f"denominator vanishes at {point}")
        return self.num.evaluate(point) / d

    def vanishes_at(self, point) -> bool:
        """Whether the value at point is 0; raises where `evaluate` does."""
        if not self.den.is_constant() and self.den.vanishes_at(point):
            raise DenominatorVanishes(f"denominator vanishes at {point}")
        return self.num.vanishes_at(point)


def _normalize_fraction(num: AScalar, den: AScalar):
    """Cheap canonicalization: contents, denominator sign, monomial gcd.
    The identity when den is the constant 1."""
    if len(den.terms) == 1 and den.terms.get((0,) * den.m) == 1:
        return num, den
    if num.is_zero():
        return num, AScalar.one(num.m)
    cd = den.content()
    if cd != 1:
        den = den.scale(1 / cd)
        num = num.scale(1 / cd)
    mins = _monomial_gcd(num, den)
    if any(mins):
        num, den = num.div_monomial(mins), den.div_monomial(mins)
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

    @property
    def ring(self) -> tuple[int, int]:
        return self.n, self.m

    def with_terms(self, terms) -> "ParamPoly":
        """Element of the same ring with the given nonzero terms."""
        return ParamPoly(terms, self.n, self.m, _prune=False)

    def __repr__(self):
        return f"ParamPoly({self.terms!r})"

    def specialize(self, point) -> AScalar:
        """Evaluate all coefficients at a parameter point: an element of Q[x]."""
        return AScalar({e: c.evaluate(point) for e, c in self.terms.items()}, self.n)

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
# maps between the parametric ring, the combined ring and their paddings


def embed_params_as_vars(f: ParamPoly) -> AScalar:
    """Flatten a parametric polynomial into the combined ring Q[x.., a..].

    Coefficients must be integral (clear denominators first).
    """
    out: dict = {}
    for e, c in f.terms.items():
        if not c.den.is_constant():
            raise ValueError("embed_params_as_vars needs integral coefficients")
        for ge, q in c.num.terms.items():  # over the denominator 1
            out[e + ge] = q
    return AScalar(out, f.n + f.m, _prune=False)


def split_params(f: AScalar, n: int, m: int) -> ParamPoly:
    """Inverse of embed_params_as_vars: last m coordinates become parameters.
    Every coefficient shares the denominator 1 and is not normalized again."""
    acc: dict = {}
    for e, c in f.terms.items():
        acc.setdefault(e[:n], {})[e[n:]] = c
    one = AScalar.one(m)
    return ParamPoly({xe: ParamScalar(AScalar(terms, m, _prune=False), one, _norm=False)
                      for xe, terms in acc.items()}, n, m, _prune=False)


def pad(s: AScalar, at: int, width: int) -> AScalar:
    """s with `width` zero coordinates inserted at position `at`."""
    zeros = (0,) * width
    return AScalar({e[:at] + zeros + e[at:]: c for e, c in s.terms.items()},
                   s.m + width, _prune=False)


# ---------------------------------------------------------------------------
# rendering


def render_fraction(q: Fraction) -> str:
    """q as text, p or p/q; a part longer than the interpreter prints
    (sys.get_int_max_str_digits) raises ParastdError with its digit count."""
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        big = max(abs(q.numerator), q.denominator)
        digits = int(big.bit_length() * log10(2))  # the digit count or one less
        digits += 10 ** digits <= big
        raise ParastdError(f"a coefficient has {digits} digits, more than the "
                           f"{sys.get_int_max_str_digits()} that can be printed") from None


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


def _render_sorted(items, names, negate=False) -> str:
    """Text of the (exponent, coefficient) pairs `items`, sorted descending;
    with negate, of their negation."""
    return render_terms((((c.numerator < 0) != negate, render_fraction(abs(c)), e)
                         for e, c in items), names)


def render_ascalar(s: AScalar, names) -> str:
    return _render_sorted(sorted(s.terms.items(), reverse=True), names)


def _is_simple_product(s: AScalar) -> bool:
    """A single term with positive coefficient in at most one parameter
    renders as a denominator without parentheses: `/a^2` reads back as
    printed, `/a*b` would read as a division by a times b."""
    if len(s.terms) != 1:
        return False
    (e, c), = s.terms.items()
    return c > 0 and sum(map(bool, e)) <= 1


def render_scalar(c: ParamScalar, names) -> tuple[int, str, bool]:
    """Return (sign, magnitude string, needs_parens_when_factor); the sign is
    the numerator's lex leading coefficient's, so a one-term numerator prints
    as a simple product."""
    num, den = c.num, c.den
    items = sorted(num.terms.items(), reverse=True)
    negative = items[0][1].numerator < 0
    sign = -1 if negative else 1
    ns = _render_sorted(items, names, negative)
    if den.is_constant():  # normalization makes a constant denominator 1
        return sign, ns, "/" in ns if num.is_constant() else len(items) > 1
    if len(items) > 1:
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
