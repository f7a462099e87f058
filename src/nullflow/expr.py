"""Text form of differential polynomials: parsing and rendering.

The plain syntax is exactly what DiffPoly.__str__ emits, so parse and render
are mutually inverse on canonical text.  Grammar, loosest to tightest:

    expr   :=  term (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' ['-'] INT)?
    atom   :=  INT | '(' expr ')' | 'D' '(' expr ')' | 'Dinv' '(' expr ')'
            |  IDENT                      -- parameter, eps sign, or generator
            |  GEN ('\'')+                -- primes mark derivative orders 1..3
            |  GEN '^' '(' INT ')'        -- explicit derivative order
    INT    :=  ('0' .. '9')+              -- ASCII digits only

Primes bind tighter than '^', so k1'^2 is the square of k1'.  A power suffix
may follow an explicit derivative order (k1^(4)^2).  Division is restricted
to invertible coefficient monomials (rationals, powers of a, eps signs);
everything else is a parse error.  D evaluates the total derivative and Dinv
the exact anti-derivative, so Dinv of a non-derivative raises NotExact from
the algebra layer rather than a ParseError.  Parentheses, D/Dinv and unary
minus nest at most MAX_NESTING deep; deeper input is a parse error, and so
is an INT longer than int() converts, a power whose exponent exceeds
diffalg.MAX_EXPONENT and one whose result leaves an exponent field
(diffalg.ExponentLimitError).

A flow pair is two expressions separated by ',' and a frame field four
separated by ';'.  The separators are tokens of one parse over the whole
text, so every error offset points into the text as given.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .diffalg import (
    MAX_EXPONENT,
    DiffAlgError,
    DiffPoly,
    ExponentLimitError,
    FlowPair,
    anti_derivative,
    const,
    format_terms,
    gen,
    one,
    param,
    total_derivative,
)


class ParseError(ValueError):
    """Syntax or symbol error, with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s (offset %d)" % (message, offset))
        self.offset = offset


_ONE_CHAR = set("+-*/^()',;")
_DIGITS = set("0123456789")

#: Deepest nesting of parentheses, D/Dinv and unary minus that parses.  Each
#: level costs the parser about five stack frames, well under the limit.
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in _ONE_CHAR:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % (ch,), i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.variables = variables
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = -1  # unary() runs once per nesting level; the outermost is 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                "expected %r, found %r" % (kind, tok[1] or "end of input"), tok[2]
            )
        return tok

    # ----- grammar ---------------------------------------------------------

    def parse(self, count: int = 1, separator: str = ",") -> list[DiffPoly]:
        """count expressions separated by separator tokens, then the end."""
        values = [self.expr()]
        while len(values) < count:
            kind, text, offset = self.next()
            if kind != separator:
                raise ParseError(
                    "expected %d %r-separated components, found %r"
                    % (count, separator, text or "end of input"),
                    offset,
                )
            values.append(self.expr())
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % (tok[1],), tok[2])
        return values

    def expr(self) -> DiffPoly:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> DiffPoly:
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.next()
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                value = value * _inverted(rhs, offset)
        return value

    def unary(self) -> DiffPoly:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("nesting deeper than %d" % (MAX_NESTING,), self.peek()[2])
        if self.peek()[0] == "-":
            self.next()
            value = -self.unary()
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> DiffPoly:
        value = self.atom()
        if self.peek()[0] == "^":
            _, _, offset = self.next()
            at = self.peek()[2]
            exponent = self.signed_int()
            if abs(exponent) > MAX_EXPONENT:
                raise ParseError("exponent beyond MAX_EXPONENT=%d" % (MAX_EXPONENT,), at)
            try:
                value = value**exponent if exponent >= 0 else _inverted(value, offset) ** -exponent
            except ExponentLimitError as exc:
                raise ParseError(str(exc), at) from None
        return value

    def signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        return sign * _int_value(self.expect("int"))

    def atom(self) -> DiffPoly:
        kind, text, offset = self.next()
        if kind == "int":
            return const(_int_value((kind, text, offset)))
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        if kind == "ident":
            if text in ("D", "Dinv"):
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return total_derivative(inner) if text == "D" else anti_derivative(inner)
            if text in self.variables:
                return self.generator_suffix(text)
            try:
                return param(text)
            except DiffAlgError:
                raise ParseError("unknown symbol %r" % (text,), offset) from None
        raise ParseError("unexpected %r" % (text or "end of input"), offset)

    def generator_suffix(self, variable: str) -> DiffPoly:
        order = 0
        while self.peek()[0] == "'":
            self.next()
            order += 1
        if order == 0 and self.peek()[0] == "^" and self.tokens[self.pos + 1][0] == "(":
            self.next()
            self.expect("(")
            order = _int_value(self.expect("int"))
            self.expect(")")
        return gen(variable, order)


def _int_value(token: tuple[str, str, int]) -> int:
    try:
        return int(token[1])
    except ValueError:  # more digits than int() converts
        raise ParseError("integer of %d digits is too long" % len(token[1]), token[2]) from None


def _inverted(value: DiffPoly, offset: int) -> DiffPoly:
    """Invert a coefficient monomial; ParseError when not invertible."""
    terms = list(value.terms())
    if len(terms) != 1 or terms[0][0]:
        raise ParseError("divisor must be a coefficient monomial", offset)
    _, rational, powers, eps1, eps2 = terms[0]
    # The signs square to one, so each is its own inverse.
    flipped = const(1 / rational) * param("eps1", eps1) * param("eps2", eps2)
    try:
        for name, exp in powers:
            flipped = flipped * param(name, -exp)
    except DiffAlgError:
        raise ParseError("divisor is not invertible here", offset) from None
    return flipped


def parse_expr(text: str, variables: tuple[str, ...] = ("k1", "k2")) -> DiffPoly:
    """Parse text to a canonical DiffPoly; D and Dinv are evaluated eagerly."""
    return _Parser(text, variables).parse()[0]


def parse_flow(text: str, variables: tuple[str, str] = ("k1", "k2")) -> FlowPair:
    """Parse 'expr , expr' into a FlowPair."""
    return FlowPair(*_Parser(text, variables).parse(2, ","), variables)


def parse_field(text: str) -> list[DiffPoly]:
    """Parse 'f ; h ; g ; l', the four components of a frame field."""
    return _Parser(text, ("k1", "k2")).parse(4, ";")


# ----- rendering ------------------------------------------------------------


def render(value: Union[DiffPoly, FlowPair], fmt: str = "plain") -> str:
    """Render to canonical text ('plain', parseable) or LaTeX ('latex')."""
    if fmt == "plain":
        if isinstance(value, FlowPair):
            return "%s, %s" % (value.p1, value.p2)
        return str(value)
    if fmt == "latex":
        if isinstance(value, FlowPair):
            return "\\left( %s,\\; %s \\right)" % (
                _latex_poly(value.p1),
                _latex_poly(value.p2),
            )
        return _latex_poly(value)
    raise ValueError("unknown render format %r" % (fmt,))


def _latex_poly(poly: DiffPoly) -> str:
    return format_terms(poly, _latex_number, _latex_symbol, _latex_gen, " ")


def _latex_number(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "\\frac{%d}{%d}" % (q.numerator, q.denominator)


def _latex_name(name: str) -> str:
    base, sub = ("\\varepsilon", name[3:]) if name in ("eps1", "eps2") else (name[0], name[1:])
    if not sub.isdigit():
        return name
    return "%s_%s" % (base, sub) if len(sub) == 1 else "%s_{%s}" % (base, sub)


def _latex_symbol(name: str, exp: int) -> str:
    base = _latex_name(name)
    return base if exp == 1 else "%s^{%d}" % (base, exp)


def _latex_gen(variable: str, order: int, exp: int) -> str:
    base = _latex_name(variable) + ("'" * order if order <= 3 else "^{(%d)}" % (order,))
    if exp == 1:
        return base
    return ("\\left(%s\\right)^{%d}" if order else "%s^{%d}") % (base, exp)
