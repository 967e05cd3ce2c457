"""Problem files: sections, expression grammar, and evaluation.

A problem file has one section per line (`#` starts a comment):

    params: a, b
    vars: x1, x2
    order: matrix [[-1,-1],[-1,0]]      (or grevlex | lex | neg_grevlex)
    ideal: a*x2 - x1*x2 + x1, 3*x1^2 + a*x2
    Q: a
    options: trunc_degree = 3, samples = 10, seed = 7

Expressions: expr := '-'? term (('+'|'-') term)*; term := factor (('*'|'/')
factor)*; factor := atom ('^' natural)?; atom := identifier | integer |
'(' expr ')'. Division is exact and only by x-free subexpressions, which
is how fraction coefficients like (1/a) round-trip.

A parsed value has one of two representations. A term whose factors are
integers and names, each to a natural power, is a monomial: an int
coefficient and an exponent list over the combined ring Q[x, a] (the
variables before the parameters), a name's power added to its exponent.
An expression's monomial terms sum into one dict, which becomes one
ParamPoly by `polyring.split_params`, with no ring arithmetic. From a
parenthesized factor or a division on, a term is a ParamPoly over
Frac(Q[a]) built operand by operand with ParamScalar arithmetic, whose
fractions are not gcd-reduced, and so is the sum from the first such
term on.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import DuplicateSection, ProblemSyntaxError, UnknownIdentifier
from .orders import MonomialOrder, grevlex, lex, matrix_order, neg_grevlex
from .polyring import AScalar, ParamPoly, ParamScalar, split_params

_SECTIONS = ("params", "vars", "order", "ideal", "Q", "options")
OPTION_KEYS = ("trunc_degree", "max_depth", "samples", "seed")


class Problem:
    def __init__(self, params: tuple[str, ...], vars: tuple[str, ...], order: MonomialOrder,
                 ideal: list[ParamPoly], qgens: list[AScalar] | None = None,
                 options: dict | None = None):
        self.params, self.vars, self.order, self.ideal = params, vars, order, ideal
        self.qgens = [] if qgens is None else qgens
        self.options = {} if options is None else options

    @property
    def m(self) -> int:
        return len(self.params)


# ---------------------------------------------------------------------------
# tokenizer

# a token is a tuple (kind, text, column, value): kind "int" (value the
# integer), "ident" or "sym"; a line's tokens end in _END
_END = ("end", "end of line", 0, 0)

_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<ident>\w+)|(?P<sym>[-+*/^(),\[\]=])|\S")


def _tokenize(text: str, line: int) -> list[tuple]:
    """Split a line into tokens; any whitespace separates them. Integers
    are ASCII digits only: str.isdigit also takes superscripts and other
    scripts' digits, which int() refuses or reads silently. A word must
    start with a letter or '_'."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind, word, col = m.lastgroup, m.group(), m.start() + 1
        if kind == "int":
            try:
                value = int(word)
            except ValueError:  # past the interpreter's digit limit
                raise ProblemSyntaxError(
                    f"integer literal of {len(word)} digits is too long", line, col) from None
            toks.append((kind, word, col, value))
        elif kind == "sym" or (kind == "ident" and (word[0].isalpha() or word[0] == "_")):
            toks.append((kind, word, col, 0))
        else:
            raise ProblemSyntaxError(f"unexpected character {word[0]!r}", line, col)
    toks.append(_END)
    return toks


class _Stream:
    """The tokens of one line, read by index: toks[pos] is the next one.
    A symbol is matched by its text alone, which no word or integer has."""

    def __init__(self, text: str, line: int):
        self.toks = _tokenize(text, line)
        self.pos = 0
        self.line = line

    def at_end(self) -> bool:
        return self.toks[self.pos] is _END

    def next(self) -> tuple:
        t = self.toks[self.pos]
        if t is _END:
            raise ProblemSyntaxError("unexpected end of expression", self.line, 0)
        self.pos += 1
        return t

    def accept(self, text) -> bool:
        if self.toks[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text):
        if not self.accept(text):
            _, got, col, _ = self.toks[self.pos]
            raise ProblemSyntaxError(f"expected {text!r}, got {got!r}", self.line, col)

    def end(self):
        """Refuse any token left over."""
        if not self.at_end():
            _, got, col, _ = self.toks[self.pos]
            raise ProblemSyntaxError(f"trailing input {got!r}", self.line, col)


# ---------------------------------------------------------------------------
# expression parser

MAX_NESTING = 200  # parentheses inside one another; deeper is an input error


class _ExprParser(_Stream):
    """Expressions of one line; a monomial's exponent list runs over the
    combined ring Q[x, a] of `width` coordinates (the variables, then the
    parameters)."""

    def __init__(self, text: str, line: int, params, vars):
        super().__init__(text, line)
        self.n, self.m = len(vars), len(params)
        self.width = self.n + self.m
        # a name's coordinate; a variable wins over a parameter of its name
        self.slots = {**{name: self.n + i for i, name in enumerate(params)},
                      **{name: i for i, name in enumerate(vars)}}
        self.depth = 0

    def _sum_ring(self, acc: dict) -> ParamPoly:
        """The sum of monomials {exponent: nonzero int} as a ParamPoly."""
        return split_params(AScalar({e: Fraction(c) for e, c in acc.items()}, self.width,
                                    _prune=False), self.n, self.m)

    def _ring(self, coef: int, exps) -> ParamPoly:
        """The monomial coef * x^exps as a ParamPoly."""
        return self._sum_ring({tuple(exps): coef} if coef else {})

    def parse_top(self) -> ParamPoly:
        """One expression; nesting deeper than MAX_NESTING, or too deep for
        the stack, is an input error."""
        try:
            return self.expr()
        except RecursionError:
            raise ProblemSyntaxError("expression nested too deeply", self.line, 0) from None

    def expr(self) -> ParamPoly:
        """'-'? term (('+'|'-') term)*.

        While every term is a monomial, the terms sum into one dict of int
        coefficients. From the first term that is a ParamPoly on, the sum
        so far becomes one and the rest is added to it.
        """
        toks = self.toks
        sign = 1
        if toks[self.pos][1] == "-":
            self.pos += 1
            sign = -1
        acc: dict = {}  # exponent -> nonzero int coefficient
        ring = None  # the sum as a ParamPoly, once a term is one
        while True:
            t = self.term()
            if ring is None and type(t) is tuple:
                c, e = t
                v = acc.get(e, 0) + sign * c
                if v:
                    acc[e] = v
                else:
                    acc.pop(e, None)
            else:
                if type(t) is tuple:
                    t = self._ring(*t)
                if ring is None:
                    ring = self._sum_ring(acc)
                ring = ring + t if sign > 0 else ring - t
            op = toks[self.pos][1]
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                return self._sum_ring(acc) if ring is None else ring
            self.pos += 1

    def term(self):
        """factor (('*'|'/') factor)*: (int coefficient, exponent tuple) while
        every factor is an integer or a name, to a power; from a
        parenthesized factor or a division on, a ParamPoly."""
        toks = self.toks
        if toks[self.pos][1] == "(":
            acc = self.factor()
        else:
            coef, exps = 1, [0] * self.width
            while True:
                coef = self._monomial_factor(coef, exps)
                op = toks[self.pos][1]
                if op == "/" or op == "*" and toks[self.pos + 1][1] == "(":
                    break
                if op != "*":
                    return coef, tuple(exps)
                self.pos += 1
            acc = self._ring(coef, exps)
        while True:
            op = toks[self.pos][1]
            if op == "*":
                self.pos += 1
                acc = acc * self.factor()
            elif op == "/":
                self.pos += 1
                col = toks[self.pos][2]
                acc = self._divide(acc, self.factor(), col)
            else:
                return acc

    def _divide(self, num: ParamPoly, den: ParamPoly, col) -> ParamPoly:
        if den.is_zero():
            raise ProblemSyntaxError("division by zero", self.line, col)
        if any(any(e) for e in den.terms):
            raise ProblemSyntaxError(
                "division only by parameter/constant expressions", self.line, col)
        scalar = den.terms[(0,) * self.n]
        return num.scale(ParamScalar.one(self.m) / scalar)

    def factor(self) -> ParamPoly:
        """One factor; a parenthesized one to a power by squaring and
        multiplying."""
        if self.toks[self.pos][1] != "(":
            exps = [0] * self.width
            return self._ring(self._monomial_factor(1, exps), exps)
        self.pos += 1
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ProblemSyntaxError("expression nested too deeply", self.line, 0)
        atom = self.expr()
        self.depth -= 1
        self.expect(")")
        if self.toks[self.pos][1] != "^":
            return atom
        out = ParamPoly.constant(1, self.n, self.m)
        k = self._exponent()
        while k:  # square and multiply
            if k & 1:
                out = out * atom
            k >>= 1
            if k:
                atom = atom * atom
        return out

    def _monomial_factor(self, coef: int, exps: list) -> int:
        """Read an integer or a name, to a power, into the monomial coef *
        x^exps: a name's power adds to its exponent in place. Returns the
        new coefficient."""
        kind, text, col, value = self.next()
        if kind == "ident":
            slot = self.slots.get(text)
            if slot is None:
                raise UnknownIdentifier(f"unknown identifier {text!r}", self.line, col)
        elif kind != "int":
            raise ProblemSyntaxError(f"unexpected token {text!r}", self.line, col)
        k = self._exponent() if self.toks[self.pos][1] == "^" else 1
        if kind == "int":
            # refuse a power with more digits than a literal may have: by
            # 2^10 > 10^3, 3*(bits - 1)*k >= 10*limit gives value^k >= 10^limit
            limit = sys.get_int_max_str_digits()
            if limit and 3 * (value.bit_length() - 1) * k >= 10 * limit:
                raise ProblemSyntaxError(
                    f"integer power has more than {limit} digits", self.line, col)
            return coef * value ** k
        exps[slot] += k
        return coef

    def _exponent(self) -> int:
        """The natural number after the '^' at the current token."""
        self.pos += 1
        kind, _, col, value = self.next()
        if kind != "int":
            raise ProblemSyntaxError("exponent must be a natural number", self.line, col)
        return value


def poly_from_string(text: str, params, vars, line: int = 1) -> ParamPoly:
    parser = _ExprParser(text, line, params, vars)
    p = parser.parse_top()
    parser.end()
    return p


def _parse_poly_list(text: str, params, vars, line: int) -> list[ParamPoly]:
    parser = _ExprParser(text, line, params, vars)
    out = [parser.parse_top()]
    while parser.accept(","):
        out.append(parser.parse_top())
    parser.end()
    return out


# ---------------------------------------------------------------------------
# sections


def _comma_list(stream: _Stream, read, close: str | None = None) -> list:
    """Items from `read()`, separated by commas, then the symbol `close`.
    With close None the list runs to the end of the line, and may be empty
    or end in a comma."""
    items = []
    while close or not stream.at_end():
        items.append(read())
        if not stream.accept(","):
            break
    if close:
        stream.expect(close)
    elif not stream.at_end():
        stream.expect(",")  # refuses the leftover token, naming the separator
    return items


def _signed_int(stream: _Stream, message: str) -> tuple[int, int]:
    """An optionally negated integer, and the column of its digits."""
    neg = stream.accept("-")
    kind, _, col, value = stream.next()
    if kind != "int":
        raise ProblemSyntaxError(message, stream.line, col)
    return (-value if neg else value), col


def _assignments(stream: _Stream, keys: tuple, what: str, read_value,
                 unknown=ProblemSyntaxError) -> dict:
    """Comma-separated `name = value` pairs to the end of the line, each
    name one of `keys` and none twice; `read_value(name)` reads the value."""
    out = {}

    def pair():
        kind, name, col, _ = stream.next()
        if kind != "ident" or name not in keys:
            raise unknown(f"unknown {what} {name!r} (expected one of {keys})",
                          stream.line, col)
        if name in out:
            raise ProblemSyntaxError(f"duplicate {what} {name!r}", stream.line, col)
        stream.expect("=")
        out[name] = read_value(name)

    _comma_list(stream, pair)
    return out


def _parse_names(text: str, line: int) -> tuple[str, ...]:
    stream = _Stream(text, line)

    def name():
        kind, text, col, _ = stream.next()
        if kind != "ident":
            raise ProblemSyntaxError(f"expected a name, got {text!r}", line, col)
        return text

    return tuple(_comma_list(stream, name))


def parse_order_spec(text: str, n: int, line: int = 1) -> MonomialOrder:
    """The order `text` names. Error columns count from the start of `text`,
    whose leading blanks stand for the blanked section name."""
    spec = text.strip()
    presets = {"grevlex": grevlex, "lex": lex, "neg_grevlex": neg_grevlex}
    if spec in presets:
        return presets[spec](n)
    if spec.startswith("matrix"):
        stream = _Stream(text.replace("matrix", " " * len("matrix"), 1), line)

        def row():
            stream.expect("[")
            return tuple(_comma_list(
                stream, lambda: _signed_int(stream, "matrix entries must be integers")[0],
                "]"))

        stream.expect("[")
        rows = _comma_list(stream, row, "]")
        stream.end()
        if any(len(r) != n for r in rows):
            raise ProblemSyntaxError(
                f"matrix rows must have {n} entries", line, 0)
        return matrix_order(rows, n)
    raise ProblemSyntaxError(
        f"unknown order {spec!r} (grevlex, lex, neg_grevlex or matrix [[..]])",
        line, 0)


def check_option(key: str, value: int, line=None, col=None) -> None:
    """Every option (a degree, a depth, a count or a seed) is nonnegative."""
    if value < 0:
        raise ProblemSyntaxError(f"{key} must be nonnegative", line, col)


def _parse_options(text: str, line: int) -> dict:
    stream = _Stream(text, line)

    def value(key):
        val, col = _signed_int(stream, "option values must be integers")
        check_option(key, val, line, col)
        return val

    return _assignments(stream, OPTION_KEYS, "option", value)


def parse_problem(text: str) -> Problem:
    sections: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise ProblemSyntaxError("expected 'section: content'", lineno, 1)
        head, _, payload = line.partition(":")
        name = head.strip()
        if name not in _SECTIONS:
            raise ProblemSyntaxError(f"unknown section {name!r}", lineno, 1)
        if name in sections:
            raise DuplicateSection(f"duplicate section {name!r}", lineno, 1)
        # blank the section name, so that token columns count from the line start
        sections[name] = (" " * (len(head) + 1) + payload, lineno)

    for name in ("vars", "order", "ideal"):
        if name not in sections:
            raise ProblemSyntaxError(f"missing {name!r} section")

    params = _parse_names(*sections.get("params", ("", 0)))
    vars_ = _parse_names(*sections["vars"])
    if not vars_:
        raise ProblemSyntaxError("'vars' must declare at least one variable",
                                 sections["vars"][1], 1)
    clash = set(params) & set(vars_)
    if clash or len(set(params)) != len(params) or len(set(vars_)) != len(vars_):
        raise ProblemSyntaxError(
            f"parameter and variable names must be distinct (check {sorted(clash) or 'duplicates'})",
            sections["vars"][1], 1)

    order = parse_order_spec(sections["order"][0], len(vars_),
                             sections["order"][1])
    ideal_text, ideal_line = sections["ideal"]
    if not ideal_text.strip():
        raise ProblemSyntaxError("'ideal' section is empty", ideal_line, 1)
    ideal = _parse_poly_list(ideal_text, params, vars_, ideal_line)

    qgens: list[AScalar] = []
    if "Q" in sections and sections["Q"][0].strip():
        qtext, qline = sections["Q"]
        for p in _parse_poly_list(qtext, params, vars_, qline):
            if any(any(e) for e in p.terms):
                raise ProblemSyntaxError(
                    "Q generators must not involve main variables", qline, 1)
            if p.is_zero():
                continue
            scalar = p.terms[(0,) * len(vars_)]
            if not scalar.den.is_constant():
                raise ProblemSyntaxError(
                    "Q generators must be polynomials in the parameters", qline, 1)
            qgens.append(scalar.num)  # over the denominator 1

    options = _parse_options(*sections.get("options", ("", 0)))
    return Problem(params, vars_, order, ideal, qgens, options)


def parse_point(text: str, params, line: int = 1) -> tuple[Fraction, ...]:
    """Parse 'a=2,b=-1/3' into a parameter point in declared order."""
    stream = _Stream(text, line)

    def value(_):
        val = Fraction(_signed_int(stream, "point values must be rationals")[0])
        if stream.accept("/"):
            kind, _, col, d = stream.next()
            if kind != "int" or d == 0:
                raise ProblemSyntaxError("bad rational value", line, col)
            val /= d
        return val

    values = _assignments(stream, tuple(params), "parameter", value, UnknownIdentifier)
    missing = [p for p in params if p not in values]
    if missing:
        raise ProblemSyntaxError(f"point misses parameters {missing}", line, 0)
    return tuple(values[p] for p in params)
