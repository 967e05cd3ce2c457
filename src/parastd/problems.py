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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DuplicateSection, ProblemSyntaxError, UnknownIdentifier
from .orders import MonomialOrder, grevlex, lex, matrix_order, neg_grevlex
from .polyring import AScalar, ParamPoly, ParamScalar

_SECTIONS = ("params", "vars", "order", "ideal", "Q", "options")
OPTION_KEYS = ("trunc_degree", "max_depth", "samples", "seed")


@dataclass
class Problem:
    params: tuple[str, ...]
    vars: tuple[str, ...]
    order: MonomialOrder
    ideal: list[ParamPoly]
    qgens: list[AScalar] = field(default_factory=list)
    options: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.params)


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Tok:
    kind: str  # ident | int | sym
    text: str
    line: int
    col: int


def _tokenize(text: str, line: int) -> list[_Tok]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        col = i + 1
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], line, col))
            i = j
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], line, col))
            i = j
        elif ch in "+-*/^(),[]=":
            toks.append(_Tok("sym", ch, line, col))
            i += 1
        else:
            raise ProblemSyntaxError(f"unexpected character {ch!r}", line, col)
    return toks


class _Stream:
    def __init__(self, toks, line):
        self.toks = toks
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
        t = self.peek()
        if not (t and t.kind == "sym" and t.text == text):
            got = t.text if t else "end of line"
            line = t.line if t else self.line
            col = t.col if t else 0
            raise ProblemSyntaxError(f"expected {text!r}, got {got!r}", line, col)
        self.pos += 1

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

    def parse_top(self) -> ParamPoly:
        """One expression; nesting too deep for the stack is an input error."""
        try:
            return self.parse_expr()
        except RecursionError:
            raise ProblemSyntaxError("expression nested too deeply",
                                     self.s.line, 0) from None

    def parse_expr(self) -> ParamPoly:
        negate = self.s.accept("-")
        acc = self.parse_term()
        if negate:
            acc = -acc
        while True:
            if self.s.accept("+"):
                acc = acc + self.parse_term()
            elif self.s.accept("-"):
                acc = acc - self.parse_term()
            else:
                return acc

    def parse_term(self) -> ParamPoly:
        acc = self.parse_factor()
        while True:
            if self.s.accept("*"):
                acc = acc * self.parse_factor()
            elif self.s.accept("/"):
                tok = self.s.peek()
                div = self.parse_factor()
                acc = self._divide(acc, div, tok)
            else:
                return acc

    def _divide(self, num: ParamPoly, den: ParamPoly, tok) -> ParamPoly:
        line = tok.line if tok else self.s.line
        col = tok.col if tok else 0
        if den.is_zero():
            raise ProblemSyntaxError("division by zero", line, col)
        if any(any(e) for e in den.terms):
            raise ProblemSyntaxError(
                "division only by parameter/constant expressions", line, col)
        scalar = den.terms[(0,) * self.n]
        return num.scale(ParamScalar.one(self.m) / scalar)

    def parse_factor(self) -> ParamPoly:
        atom = self.parse_atom()
        if self.s.accept("^"):
            t = self.s.next()
            if t.kind != "int":
                raise ProblemSyntaxError("exponent must be a natural number",
                                         t.line, t.col)
            out = ParamPoly.constant(1, self.n, self.m)
            for _ in range(int(t.text)):
                out = out * atom
            return out
        return atom

    def parse_atom(self) -> ParamPoly:
        t = self.s.next()
        if t.kind == "int":
            return ParamPoly.constant(int(t.text), self.n, self.m)
        if t.kind == "ident":
            if t.text in self.vars:
                return ParamPoly.var(self.vars[t.text], self.n, self.m)
            if t.text in self.params:
                c = ParamScalar(AScalar.var(self.params[t.text], self.m))
                return ParamPoly({(0,) * self.n: c}, self.n, self.m)
            raise UnknownIdentifier(f"unknown identifier {t.text!r}",
                                    t.line, t.col)
        if t.kind == "sym" and t.text == "(":
            e = self.parse_expr()
            self.s.expect(")")
            return e
        raise ProblemSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)


def poly_from_string(text: str, params, vars, line: int = 1) -> ParamPoly:
    stream = _Stream(_tokenize(text, line), line)
    p = _ExprParser(stream, params, vars).parse_top()
    stream.end()
    return p


def _parse_poly_list(text: str, params, vars, line: int) -> list[ParamPoly]:
    stream = _Stream(_tokenize(text, line), line)
    parser = _ExprParser(stream, params, vars)
    out = [parser.parse_top()]
    while stream.accept(","):
        out.append(parser.parse_top())
    stream.end()
    return out


# ---------------------------------------------------------------------------
# sections


def _parse_names(text: str, line: int) -> tuple[str, ...]:
    stream = _Stream(_tokenize(text, line), line)
    names = []
    while stream.peek() is not None:
        t = stream.next()
        if t.kind != "ident":
            raise ProblemSyntaxError(f"expected a name, got {t.text!r}",
                                     t.line, t.col)
        names.append(t.text)
        if stream.peek() is not None:
            stream.expect(",")
    return tuple(names)


def parse_order_spec(text: str, n: int, line: int = 1) -> MonomialOrder:
    text = text.strip()
    presets = {"grevlex": grevlex, "lex": lex, "neg_grevlex": neg_grevlex}
    if text in presets:
        return presets[text](n)
    if text.startswith("matrix"):
        stream = _Stream(_tokenize(text[len("matrix"):], line), line)
        stream.expect("[")
        rows = []
        while True:
            stream.expect("[")
            row = []
            while True:
                neg = stream.accept("-")
                t = stream.next()
                if t.kind != "int":
                    raise ProblemSyntaxError("matrix entries must be integers",
                                             t.line, t.col)
                row.append(-int(t.text) if neg else int(t.text))
                if not stream.accept(","):
                    break
            stream.expect("]")
            rows.append(tuple(row))
            if not stream.accept(","):
                break
        stream.expect("]")
        stream.end()
        if any(len(r) != n for r in rows):
            raise ProblemSyntaxError(
                f"matrix rows must have {n} entries", line, 0)
        return matrix_order(rows, n)
    raise ProblemSyntaxError(
        f"unknown order {text!r} (grevlex, lex, neg_grevlex or matrix [[..]])",
        line, 0)


def check_option(key: str, value: int, line=None, col=None) -> None:
    """Every option (a degree, a depth, a count or a seed) is nonnegative."""
    if value < 0:
        raise ProblemSyntaxError(f"{key} must be nonnegative", line, col)


def _parse_options(text: str, line: int) -> dict:
    stream = _Stream(_tokenize(text, line), line)
    opts = {}
    while stream.peek() is not None:
        t = stream.next()
        if t.kind != "ident" or t.text not in OPTION_KEYS:
            raise ProblemSyntaxError(
                f"unknown option {t.text!r} (expected one of {OPTION_KEYS})",
                t.line, t.col)
        if t.text in opts:
            raise ProblemSyntaxError(f"duplicate option {t.text!r}", t.line, t.col)
        stream.expect("=")
        neg = stream.accept("-")
        v = stream.next()
        if v.kind != "int":
            raise ProblemSyntaxError("option values must be integers",
                                     v.line, v.col)
        val = -int(v.text) if neg else int(v.text)
        check_option(t.text, val, v.line, v.col)
        opts[t.text] = val
        if stream.peek() is not None:
            stream.expect(",")
    return opts


def parse_problem(text: str) -> Problem:
    sections: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise ProblemSyntaxError("expected 'section: content'", lineno, 1)
        name, _, payload = line.partition(":")
        name = name.strip()
        if name not in _SECTIONS:
            raise ProblemSyntaxError(f"unknown section {name!r}", lineno, 1)
        if name in sections:
            raise DuplicateSection(f"duplicate section {name!r}", lineno, 1)
        sections[name] = (payload.strip(), lineno)

    if "vars" not in sections:
        raise ProblemSyntaxError("missing 'vars' section")
    if "order" not in sections:
        raise ProblemSyntaxError("missing 'order' section")
    if "ideal" not in sections:
        raise ProblemSyntaxError("missing 'ideal' section")

    params = _parse_names(*sections["params"]) if "params" in sections else ()
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
    if not ideal_text:
        raise ProblemSyntaxError("'ideal' section is empty", ideal_line, 1)
    ideal = _parse_poly_list(ideal_text, params, vars_, ideal_line)

    qgens: list[AScalar] = []
    if "Q" in sections and sections["Q"][0]:
        qtext, qline = sections["Q"]
        for p in _parse_poly_list(qtext, params, vars_, qline):
            if any(any(e) for e in p.terms):
                raise ProblemSyntaxError(
                    "Q generators must not involve main variables", qline, 1)
            if p.is_zero():
                continue
            scalar = p.terms[(0,) * len(vars_)]
            qgens.append(scalar.num.scale(1 / scalar.den.constant_value())
                         if scalar.den.is_constant() else scalar.num)

    options = _parse_options(*sections["options"]) if "options" in sections else {}
    return Problem(params, vars_, order, ideal, qgens, options)


def parse_point(text: str, params, line: int = 1) -> tuple[Fraction, ...]:
    """Parse 'a=2,b=-1/3' into a parameter point in declared order."""
    stream = _Stream(_tokenize(text, line), line)
    values: dict[str, Fraction] = {}
    index = {name: i for i, name in enumerate(params)}
    while stream.peek() is not None:
        t = stream.next()
        if t.kind != "ident" or t.text not in index:
            raise UnknownIdentifier(f"unknown parameter {t.text!r}",
                                    t.line, t.col)
        if t.text in values:
            raise ProblemSyntaxError(f"duplicate parameter {t.text!r}",
                                     t.line, t.col)
        stream.expect("=")
        neg = stream.accept("-")
        v = stream.next()
        if v.kind != "int":
            raise ProblemSyntaxError("point values must be rationals",
                                     v.line, v.col)
        val = Fraction(int(v.text))
        if stream.accept("/"):
            d = stream.next()
            if d.kind != "int" or int(d.text) == 0:
                raise ProblemSyntaxError("bad rational value", d.line, d.col)
            val /= int(d.text)
        values[t.text] = -val if neg else val
        if stream.peek() is not None:
            stream.expect(",")
    missing = [p for p in params if p not in values]
    if missing:
        raise ProblemSyntaxError(f"point misses parameters {missing}", line, 0)
    return tuple(values[p] for p in params)
