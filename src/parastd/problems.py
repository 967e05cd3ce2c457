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

Values live in the combined ring Q[x, a] (AScalars, the variables before
the parameters) until a division by a nonconstant parameter expression:
there the value, and every operand it meets from then on, is a ParamPoly
over Frac(Q[a]) with ParamScalar arithmetic, whose fractions are not
gcd-reduced. Each parsed expression becomes a ParamPoly once, by
`polyring.split_params`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, mul, sub

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


class _Tok:
    __slots__ = ("kind", "text", "line", "col", "value")

    def __init__(self, kind: str, text: str, line: int, col: int, value: int = 0):
        self.kind = kind  # ident | int | sym
        self.text, self.line, self.col = text, line, col
        self.value = value  # an int token's value


_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<ident>\w+)|(?P<sym>[-+*/^(),\[\]=])|\S")


def _tokenize(text: str, line: int) -> list[_Tok]:
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
            toks.append(_Tok(kind, word, line, col, value))
        elif kind == "sym" or (kind == "ident" and (word[0].isalpha() or word[0] == "_")):
            toks.append(_Tok(kind, word, line, col))
        else:
            raise ProblemSyntaxError(f"unexpected character {word[0]!r}", line, col)
    return toks


class _Stream:
    def __init__(self, text: str, line: int):
        self.toks = _tokenize(text, line)
        self.pos = 0
        self.line = line

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ProblemSyntaxError("unexpected end of expression", self.line, 0)
        self.pos += 1
        return t

    def accept(self, text):
        t = self.peek()
        if t and t.kind == "sym" and t.text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text):
        if not self.accept(text):
            t = self.peek() or _Tok("sym", "end of line", self.line, 0)
            raise ProblemSyntaxError(f"expected {text!r}, got {t.text!r}", t.line, t.col)

    def end(self):
        """Refuse any token left over."""
        t = self.peek()
        if t is not None:
            raise ProblemSyntaxError(f"trailing input {t.text!r}", t.line, t.col)


# ---------------------------------------------------------------------------
# expression parser


class _ExprParser:
    def __init__(self, stream: _Stream, params, vars):
        self.s = stream
        self.params = {name: i for i, name in enumerate(params)}
        self.vars = {name: i for i, name in enumerate(vars)}
        self.n = len(vars)
        self.m = len(params)

    def _poly(self, v) -> ParamPoly:
        return v if type(v) is ParamPoly else split_params(v, self.n, self.m)

    def _apply(self, op, u, v):
        """op(u, v), on ParamPolys when either operand is one."""
        if type(u) is not type(v):
            u, v = self._poly(u), self._poly(v)
        return op(u, v)

    def parse_top(self) -> ParamPoly:
        """One expression; nesting too deep for the stack is an input error."""
        try:
            return self._poly(self.parse_expr())
        except RecursionError:
            raise ProblemSyntaxError("expression nested too deeply",
                                     self.s.line, 0) from None

    def parse_expr(self):
        negate = self.s.accept("-")
        acc = self.parse_term()
        if negate:
            acc = -acc
        while True:
            if self.s.accept("+"):
                acc = self._apply(add, acc, self.parse_term())
            elif self.s.accept("-"):
                acc = self._apply(sub, acc, self.parse_term())
            else:
                return acc

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            if self.s.accept("*"):
                acc = self._apply(mul, acc, self.parse_factor())
            elif self.s.accept("/"):
                tok = self.s.peek()
                div = self.parse_factor()
                acc = self._divide(acc, div, tok)
            else:
                return acc

    def _divide(self, num, den, tok):
        line = tok.line if tok else self.s.line
        col = tok.col if tok else 0
        if den.is_zero():
            raise ProblemSyntaxError("division by zero", line, col)
        if type(num) is type(den) is AScalar and den.is_constant():
            return num.scale(1 / den.constant_value())
        num, den = self._poly(num), self._poly(den)
        if any(any(e) for e in den.terms):
            raise ProblemSyntaxError(
                "division only by parameter/constant expressions", line, col)
        scalar = den.terms[(0,) * self.n]
        return num.scale(ParamScalar.one(self.m) / scalar)

    def parse_factor(self):
        atom = self.parse_atom()
        if self.s.accept("^"):
            t = self.s.next()
            if t.kind != "int":
                raise ProblemSyntaxError("exponent must be a natural number",
                                         t.line, t.col)
            out = (ParamPoly.constant(1, self.n, self.m) if type(atom) is ParamPoly
                   else AScalar.one(self.n + self.m))
            k = t.value
            while k:  # square and multiply
                if k & 1:
                    out = out * atom
                k >>= 1
                if k:
                    atom = atom * atom
            return out
        return atom

    def parse_atom(self):
        t = self.s.next()
        if t.kind == "int":
            return AScalar.const(t.value, self.n + self.m)
        if t.kind == "ident":
            if t.text in self.vars:
                return AScalar.var(self.vars[t.text], self.n + self.m)
            if t.text in self.params:
                return AScalar.var(self.n + self.params[t.text], self.n + self.m)
            raise UnknownIdentifier(f"unknown identifier {t.text!r}",
                                    t.line, t.col)
        if t.kind == "sym" and t.text == "(":
            e = self.parse_expr()
            self.s.expect(")")
            return e
        raise ProblemSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)


def poly_from_string(text: str, params, vars, line: int = 1) -> ParamPoly:
    stream = _Stream(text, line)
    p = _ExprParser(stream, params, vars).parse_top()
    stream.end()
    return p


def _parse_poly_list(text: str, params, vars, line: int) -> list[ParamPoly]:
    stream = _Stream(text, line)
    parser = _ExprParser(stream, params, vars)
    out = [parser.parse_top()]
    while stream.accept(","):
        out.append(parser.parse_top())
    stream.end()
    return out


# ---------------------------------------------------------------------------
# sections


def _comma_list(stream: _Stream, read, close: str | None = None) -> list:
    """Items from `read()`, separated by commas, then the symbol `close`.
    With close None the list runs to the end of the line, and may be empty
    or end in a comma."""
    items = []
    while close or stream.peek() is not None:
        items.append(read())
        if not stream.accept(","):
            break
    if close:
        stream.expect(close)
    elif stream.peek() is not None:
        stream.expect(",")  # refuses the leftover token, naming the separator
    return items


def _signed_int(stream: _Stream, message: str) -> tuple[int, _Tok]:
    """An optionally negated integer, and the token of its digits."""
    neg = stream.accept("-")
    t = stream.next()
    if t.kind != "int":
        raise ProblemSyntaxError(message, t.line, t.col)
    return (-t.value if neg else t.value), t


def _assignments(stream: _Stream, keys: tuple, what: str, read_value,
                 unknown=ProblemSyntaxError) -> dict:
    """Comma-separated `name = value` pairs to the end of the line, each
    name one of `keys` and none twice; `read_value(name)` reads the value."""
    out = {}

    def pair():
        t = stream.next()
        if t.kind != "ident" or t.text not in keys:
            raise unknown(f"unknown {what} {t.text!r} (expected one of {keys})",
                          t.line, t.col)
        if t.text in out:
            raise ProblemSyntaxError(f"duplicate {what} {t.text!r}", t.line, t.col)
        stream.expect("=")
        out[t.text] = read_value(t.text)

    _comma_list(stream, pair)
    return out


def _parse_names(text: str, line: int) -> tuple[str, ...]:
    stream = _Stream(text, line)

    def name():
        t = stream.next()
        if t.kind != "ident":
            raise ProblemSyntaxError(f"expected a name, got {t.text!r}",
                                     t.line, t.col)
        return t.text

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
        val, t = _signed_int(stream, "option values must be integers")
        check_option(key, val, t.line, t.col)
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
            d = stream.next()
            if d.kind != "int" or d.value == 0:
                raise ProblemSyntaxError("bad rational value", d.line, d.col)
            val /= d.value
        return val

    values = _assignments(stream, tuple(params), "parameter", value, UnknownIdentifier)
    missing = [p for p in params if p not in values]
    if missing:
        raise ProblemSyntaxError(f"point misses parameters {missing}", line, 0)
    return tuple(values[p] for p in params)
