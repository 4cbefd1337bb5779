"""Expression grammar for series and differential polynomials.

Infix grammar, whitespace-insensitive:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom
    atom   := primary ['^' exponent]
    primary:= RATIONAL | NAME | Y-symbol | '(' expr ')'

Rational literals and exponents are written p or p/q; exponents may be
negative (t^-1, e_x^1/2).  The indeterminate Y takes derivative marks
as apostrophes (Y'') or as a parenthesized order (Y^(3)); a
parenthesized number after ^ is only legal as a derivative order on Y.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .diffpoly import DiffPoly, _sum_terms
from .errors import ParseError, UnboundSymbol, VdfError
from .gridseries import FieldInstance, Series
from .records import FrozenRecord, Record
from .valgroup import INFINITY


# The largest integer exponent lower_poly expands by repeated
# multiplication (a power of a single monomial is exact at any size).
MAX_POWER = 64
# The largest derivative order, Y^(N) or N apostrophes: the conjugations
# of an order-N polynomial expand kernels whose size grows quickly in N.
MAX_ORDER = 16
# The most digits of the numerator or denominator of a coefficient power
# c^n, as of the interpreter's default int-to-str limit: a larger one
# could not be printed.  Powers of +-1 are free of it (t^1000).
MAX_COEFF_DIGITS = 4300


# -- AST ----------------------------------------------------------------------


class Lit(FrozenRecord):
    _fields = __slots__ = ("value",)

    def __init__(self, value: Fraction):  # nonnegative by construction
        object.__setattr__(self, "value", value)


class Sym(FrozenRecord):
    _fields = __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class DY(FrozenRecord):
    """The indeterminate Y differentiated `order` times."""

    _fields = __slots__ = ("order",)

    def __init__(self, order: int):
        object.__setattr__(self, "order", order)


class Pow(FrozenRecord):
    _fields = __slots__ = ("base", "exponent")

    def __init__(self, base: "Node", exponent: Fraction):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class Neg(FrozenRecord):
    _fields = __slots__ = ("operand",)

    def __init__(self, operand: "Node"):
        object.__setattr__(self, "operand", operand)


class Mul(FrozenRecord):
    _fields = __slots__ = ("factors",)

    def __init__(self, factors: Tuple["Node", ...]):
        object.__setattr__(self, "factors", factors)


class Add(FrozenRecord):
    _fields = __slots__ = ("terms",)

    def __init__(self, terms: Tuple["Node", ...]):
        object.__setattr__(self, "terms", terms)


Node = Union[Lit, Sym, DY, Pow, Neg, Mul, Add]


# -- tokenizer ------------------------------------------------------------------


class Token(Record):
    _fields = __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # num, name, op, end
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    line, col = 1, 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()/'":
            toks.append(Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("end", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.col)
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def integer(self, tok: Token) -> int:
        """The value of a num token; one too long for int() is a parse error."""
        try:
            return int(tok.text)
        except ValueError:
            raise ParseError(f"number literal of {len(tok.text)} digits is too long",
                             tok.line, tok.col)

    def order(self, digits: str, tok: Token) -> int:
        """A derivative order in decimal digits; the length check refuses
        one above MAX_ORDER before int() converts it."""
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(MAX_ORDER)) or int(digits) > MAX_ORDER:
            raise ParseError(f"derivative order exceeds {MAX_ORDER}", tok.line, tok.col)
        return int(digits)

    # grammar ------------------------------------------------------------

    def parse(self) -> Node:
        node = self.expr()
        if self.peek().kind != "end":
            self.fail(f"trailing input {self.peek().text!r}")
        return node

    def expr(self) -> Node:
        terms = [self.term()]
        while self.peek().text in ("+", "-"):
            op = self.next().text
            t = self.term()
            terms.append(Neg(t) if op == "-" else t)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> Node:
        factors = [self.factor()]
        while self.peek().text == "*":
            self.next()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def factor(self) -> Node:
        if self.peek().text == "-":
            self.next()
            return Neg(self.factor())
        return self.atom()

    def atom(self) -> Node:
        base = self.primary()
        if self.peek().text == "^":
            if self.toks[self.pos + 1].text == "(":
                # parenthesized exponent: legal only as a derivative mark,
                # which self.primary() already consumed for Y
                self.fail("parenthesized exponent is only a derivative order on Y")
            self.next()
            return Pow(base, self.rational_exponent())
        return base

    def rational_exponent(self) -> Fraction:
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        tok = self.next()
        if tok.kind != "num":
            raise ParseError(f"expected a rational exponent, found {tok.text!r}",
                             tok.line, tok.col)
        num = self.integer(tok)
        if self.peek().text == "/":
            self.next()
            return Fraction(sign * num, self.denominator())
        return Fraction(sign * num)

    def denominator(self) -> int:
        """The nonzero natural after a consumed '/'."""
        tok = self.next()
        if tok.kind != "num":
            raise ParseError("expected a denominator", tok.line, tok.col)
        den = self.integer(tok)
        if den == 0:
            raise ParseError("zero denominator", tok.line, tok.col)
        return den

    def primary(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            num = self.integer(tok)
            if self.peek().text == "/":
                self.next()
                return Lit(Fraction(num, self.denominator()))
            return Lit(Fraction(num))
        if tok.kind == "name":
            if tok.text == "Y":
                marks = self.peek()
                order = 0
                while self.peek().text == "'":
                    self.next()
                    order += 1
                order = self.order(str(order), marks)
                if order == 0 and self.peek().text == "^" \
                        and self.toks[self.pos + 1].text == "(":
                    self.next()
                    self.next()
                    otok = self.next()
                    if otok.kind != "num":
                        raise ParseError("expected a derivative order",
                                         otok.line, otok.col)
                    self.expect(")")
                    order = self.order(otok.text, otok)
                return DY(order)
            return Sym(tok.text)
        if tok.text == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_expr(text: str) -> Node:
    return _Parser(text).parse()


# -- printer ---------------------------------------------------------------------


def _needs_parens_in_mul(node: Node) -> bool:
    return isinstance(node, (Add, Neg))


def _needs_parens_in_pow(node: Node) -> bool:
    return isinstance(node, (Add, Neg, Mul, Pow))


def print_expr(node: Node) -> str:
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, DY):
        if node.order <= 3:
            return "Y" + "'" * node.order
        return f"Y^({node.order})"
    if isinstance(node, Pow):
        base = print_expr(node.base)
        if _needs_parens_in_pow(node.base):
            base = f"({base})"
        e = node.exponent
        etext = str(e) if e >= 0 else f"-{-e}"
        return f"{base}^{etext}"
    if isinstance(node, Neg):
        inner = print_expr(node.operand)
        if isinstance(node.operand, (Add, Mul)):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Mul):
        parts = []
        for f in node.factors:
            s = print_expr(f)
            if _needs_parens_in_mul(f):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(node, Add):
        out = print_expr(node.terms[0])
        for t in node.terms[1:]:
            if isinstance(t, Neg) and not isinstance(t.operand, (Add, Mul)):
                out += f" - {print_expr(t.operand)}"
            else:
                out += f" + {print_expr(t)}"
        return out
    raise VdfError(f"unknown AST node {node!r}")


# -- lowering ---------------------------------------------------------------------


def lower_poly(node: Node, field: FieldInstance) -> DiffPoly:
    """AST to differential polynomial (series are order-0 polynomials)."""
    if isinstance(node, Lit):
        return DiffPoly.from_coeff(field, field.constant(node.value))
    if isinstance(node, Sym):
        if node.name not in field._index:
            raise UnboundSymbol(f"unknown generator {node.name!r}")
        return DiffPoly.from_coeff(field, field.gen(node.name))
    if isinstance(node, DY):
        return DiffPoly.variable(field, node.order)
    if isinstance(node, Neg):
        return -lower_poly(node.operand, field)
    if isinstance(node, Add):
        parts = [lower_poly(t, field) for t in node.terms]
        return _sum_terms(field, (kv for P in parts for kv in P.terms.items()),
                          max(P.order for P in parts))
    if isinstance(node, Mul):
        out = lower_poly(node.factors[0], field)
        for f in node.factors[1:]:
            out = out * lower_poly(f, field)
        return out
    if isinstance(node, Pow):
        base = lower_poly(node.base, field)
        e = node.exponent
        if _is_constant_poly(base) and len(base.terms) == 1:
            coeff = next(iter(base.terms.values()))
            if len(coeff.terms) == 1:
                new = _monomial_pow(coeff, e)
                if new is not None:
                    return DiffPoly.from_coeff(field, new)
        if e.denominator != 1 or e < 0:
            raise ParseError(f"exponent {e} is only legal on a single monomial")
        if e > MAX_POWER:
            raise ParseError(f"exponent {e} exceeds {MAX_POWER}, the limit "
                             "for a base that is not a single monomial")
        out = DiffPoly.from_coeff(field, field.one())
        for _ in range(int(e)):
            out = out * base
        return out
    raise VdfError(f"unknown AST node {node!r}")


def _is_constant_poly(P: DiffPoly) -> bool:
    return all(all(x == 0 for x in i) for i in P.terms)


def _monomial_pow(coeff: Series, e: Fraction) -> Optional[Series]:
    """Exact rational power of a single-term series, when the
    coefficient power stays rational."""
    (v, c), = coeff.sorted_terms()
    if e.denominator == 1:
        _check_coeff_power(c, e.numerator)
        return Series(coeff.field, {v.scale(e): c ** e.numerator}, INFINITY)
    if c == 1:
        return Series(coeff.field, {v.scale(e): c}, INFINITY)
    return None


def _check_coeff_power(c: Fraction, n: int) -> None:
    """Refuse c^n when its numerator or denominator would pass
    MAX_COEFF_DIGITS digits, before computing it.  For x >= 2,
    x^|n| >= 2^(|n| * (bit_length(x) - 1)), and 2^(4D) > 10^D: a large
    |n| is refused on that count, and otherwise x^|n| < 2^(8D) is cheap
    to compare with 10^D exactly."""
    for x in (abs(c.numerator), c.denominator):
        if x > 1 and (abs(n) * (x.bit_length() - 1) >= 4 * MAX_COEFF_DIGITS
                      or x ** abs(n) >= 10 ** MAX_COEFF_DIGITS):
            raise ParseError(f"a coefficient power with exponent {n} exceeds "
                             f"{MAX_COEFF_DIGITS} digits")


def lower_series(node: Node, field: FieldInstance) -> Series:
    P = lower_poly(node, field)
    if not _is_constant_poly(P):
        raise ParseError("expression contains the indeterminate Y")
    # a constant polynomial has at most one index, the zero one
    return next(iter(P.terms.values()), field.zero_series())


def parse_poly(text: str, field: FieldInstance) -> DiffPoly:
    return lower_poly(parse_expr(text), field)


def parse_series(text: str, field: FieldInstance) -> Series:
    return lower_series(parse_expr(text), field)
