"""Expression language for crossed-product elements.

Grammar (whitespace-insensitive between tokens)::

    expr   := term { ("+"|"-") term }
    term   := factor { "*" factor }
    factor := scalar | "chi" "(" int ";" word ")" | "t" [ "^" int ]
            | "(" expr ")" [ "^" nat ] | factor "'"
    scalar := ["-"] nat [ "/" nat ]
    word   := letter+        (single digits < m)

Postfix ``'`` is the involution; ``t^-k`` and ``(t')^k`` denote the same
element.  A power on a parenthesized group is repeated multiplication and
must be nonnegative (general elements have no inverse) and at most
MAX_GROUP_POWER, so that parsing stays cheap.  Parsing then rendering then
parsing is a fixed point.
"""

from __future__ import annotations

from fractions import Fraction

from .crossed import CrossedElement
from .errors import DivisionByZero, ExprSyntaxError
from .fields import Field, PrimeField
from .space import LocallyConstantFn, SystemConfig, cylinder

MAX_GROUP_POWER = 64


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("nat", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/();^'":
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, config: SystemConfig, field: Field):
        self.toks = _tokenize(text)
        self.i = 0
        self.config = config
        self.field = field

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self, kind=None) -> _Token:
        tok = self.toks[self.i]
        if kind is not None and tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def parse(self) -> CrossedElement:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return e

    def expr(self) -> CrossedElement:
        acc = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> CrossedElement:
        acc = self.factor()
        while self.peek().kind == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> CrossedElement:
        e = self.primary()
        while self.peek().kind == "'":
            self.take()
            e = e.adjoint()
        return e

    def primary(self) -> CrossedElement:
        tok = self.peek()
        if tok.kind == "-" or tok.kind == "nat":
            return CrossedElement.from_scalar(
                self.config, self.field, self.field.from_fraction(self.scalar())
            )
        if tok.kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            if self.peek().kind == "^":
                caret = self.take()
                power = self.int_literal()
                if not 0 <= power <= MAX_GROUP_POWER:
                    raise ExprSyntaxError(
                        f"power {power} of a parenthesized factor is outside "
                        f"0..{MAX_GROUP_POWER}", caret.pos
                    )
                acc = CrossedElement.one(self.config, self.field)
                for _ in range(power):
                    acc = acc * e
                return acc
            return e
        if tok.kind == "name" and tok.text == "t":
            self.take()
            power = 1
            if self.peek().kind == "^":
                self.take()
                power = self.int_literal()
            return CrossedElement.shift_unit(self.config, self.field, power)
        if tok.kind == "name" and tok.text == "chi":
            self.take()
            self.take("(")
            offset = self.int_literal()
            self.take(";")
            word = self.take("nat").text
            self.take(")")
            u = cylinder(self.config, offset, word)
            return CrossedElement.from_clopen(u, self.field)
        raise ExprSyntaxError(f"expected a factor, found {tok.text!r}", tok.pos)

    def scalar(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        num = int(self.take("nat").text)
        den = 1
        if self.peek().kind == "/":
            self.take()
            dtok = self.take("nat")
            den = int(dtok.text)
            if den == 0:
                raise DivisionByZero("zero denominator in scalar literal")
        return Fraction(sign * num, den)

    def int_literal(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        return sign * int(self.take("nat").text)


def parse_expr(text: str, config: SystemConfig, field: Field) -> CrossedElement:
    """Parse expression text into a crossed-product element."""
    return _Parser(text, config, field).parse()


def _scalar_factor(field: Field, value):
    """Split a scalar into (is_negative, grammar text of |value|)."""
    if isinstance(field, PrimeField):
        return False, str(value.value)
    if value < 0:
        value = -value
        neg = True
    else:
        neg = False
    if value.denominator == 1:
        return neg, str(value.numerator)
    return neg, f"{value.numerator}/{value.denominator}"


def render_element(e: CrossedElement) -> str:
    """Canonical grammar-conformant text; parse(render(e)) == e."""
    terms: list[tuple[bool, str]] = []
    one = e.field.one
    for d in e.degrees():
        f: LocallyConstantFn = e.coeffs[d]
        if f.hi < f.lo:
            entries = [(None, f.values[""])]
        else:
            entries = [((f.lo, w), f.values[w]) for w in sorted(f.values)]
        for chi_part, value in entries:
            neg, scalar_text = _scalar_factor(e.field, value)
            factors = []
            if chi_part is not None:
                factors.append(f"chi({chi_part[0]};{chi_part[1]})")
            if d == 1:
                factors.append("t")
            elif d != 0:
                factors.append(f"t^{d}")
            if value != one or not factors:
                factors.insert(0, scalar_text)
            terms.append((neg, " * ".join(factors)))
    if not terms:
        return "0"
    neg, text = terms[0]
    out = ("-" + text) if neg else text
    for neg, text in terms[1:]:
        out += (" - " if neg else " + ") + text
    return out
