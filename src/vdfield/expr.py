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

import re
from fractions import Fraction
from math import lcm
from typing import List, Optional, Union

from .diffpoly import DiffPoly, _padded, _sum_terms
from .errors import ParseError, UnboundSymbol, VdfError
from .gridseries import FieldInstance, Series, _is_name
from .records import FrozenRecord, Record


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
# The deepest nesting the parser takes, in its own recursive calls: five
# per parenthesis (expr, term, factor, atom, primary), one per unary minus.
MAX_NESTING = 800
# The most coefficient term pairs lower_poly multiplies in one product and in all.
MAX_TERM_PAIRS = 300_000
MAX_EXPR_TERM_PAIRS = 1_000_000


# -- AST ----------------------------------------------------------------------


class Lit(FrozenRecord):
    # value is a Fraction, nonnegative by construction
    _fields = __slots__ = ("value",)


class Sym(FrozenRecord):
    _fields = __slots__ = ("name",)


class DY(FrozenRecord):
    """The indeterminate Y differentiated `order` times."""

    _fields = __slots__ = ("order",)


class Pow(FrozenRecord):
    _fields = __slots__ = ("base", "exponent")


class Neg(FrozenRecord):
    _fields = __slots__ = ("operand",)


class Mul(FrozenRecord):
    _fields = __slots__ = ("factors",)


class Add(FrozenRecord):
    _fields = __slots__ = ("terms",)


Node = Union[Lit, Sym, DY, Pow, Neg, Mul, Add]


# -- tokenizer ------------------------------------------------------------------


class Token(Record):
    # kind is num, name, op or end
    _fields = __slots__ = ("kind", "text", "line", "col")


# a number is decimal digits; a word must be a name (gridseries._is_name)
_TOKEN = re.compile(r"(\d+)|(\w+)|([-+*^()/'])|(\S)")
_KINDS = (None, "num", "name", "op")


def _tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    lines = text.split("\n")
    for line, chars in enumerate(lines, 1):
        for m in _TOKEN.finditer(chars):
            if m.lastindex == 4 or m.lastindex == 2 and not _is_name(m[0]):
                raise ParseError(f"unexpected character {m[0][0]!r}", line, m.start())
            toks.append(Token(_KINDS[m.lastindex], m[0], line, m.start()))
    toks.append(Token("end", "", len(lines), len(lines[-1])))
    return toks


def bounded_decimal(digits: str, limit: int) -> Optional[int]:
    """The value of a string of decimal digits, or None above limit; the
    length check refuses a huge one before int() converts it."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        return None
    return int(digits)


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

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
        """A derivative order in decimal digits, at most MAX_ORDER."""
        order = bounded_decimal(digits, MAX_ORDER)
        if order is None:
            raise ParseError(f"derivative order exceeds {MAX_ORDER}", tok.line, tok.col)
        return order

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
        # one call deeper; primary adds the four more calls of a parenthesis
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} parser calls")
        if self.peek().text == "-":
            self.next()
            node = Neg(self.factor())
        else:
            node = self.atom()
        self.depth -= 1
        return node

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
        return sign * self.rational(tok)

    def rational(self, tok: Token) -> Fraction:
        """The value of a num token, over the nonzero natural after a '/'
        when one follows."""
        num = self.integer(tok)
        if self.peek().text != "/":
            return Fraction(num)
        self.next()
        tok = self.next()
        if tok.kind != "num":
            raise ParseError("expected a denominator", tok.line, tok.col)
        den = self.integer(tok)
        if den == 0:
            raise ParseError("zero denominator", tok.line, tok.col)
        return Fraction(num, den)

    def primary(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            return Lit(self.rational(tok))
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
            self.depth += 4
            inner = self.expr()
            self.depth -= 4
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_expr(text: str) -> Node:
    return _Parser(text).parse()


# -- printer ---------------------------------------------------------------------


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
        return f"{_wrapped(node.base, (Add, Neg, Mul, Pow))}^{node.exponent}"
    if isinstance(node, Neg):
        return "-" + _wrapped(node.operand, (Add, Mul))
    if isinstance(node, Mul):
        return "*".join(_wrapped(f, (Add, Neg)) for f in node.factors)
    if isinstance(node, Add):
        out = print_expr(node.terms[0])
        for t in node.terms[1:]:
            if isinstance(t, Neg) and not isinstance(t.operand, (Add, Mul)):
                out += f" - {print_expr(t.operand)}"
            else:
                out += f" + {print_expr(t)}"
        return out
    raise VdfError(f"unknown AST node {node!r}")


def _wrapped(node: Node, kinds: tuple) -> str:
    """print_expr's one parenthesis rule: node printed, in parentheses
    when it is one of kinds."""
    text = print_expr(node)
    return f"({text})" if isinstance(node, kinds) else text


# -- lowering ---------------------------------------------------------------------


def lower_poly(node: Node, field: FieldInstance, spent: Optional[List[int]] = None) -> DiffPoly:
    """AST to differential polynomial (series are order-0 polynomials);
    spent[0] counts the term pairs of its products, from 0 at the top."""
    spent = [0] if spent is None else spent
    if isinstance(node, Lit):
        return DiffPoly.from_coeff(field, field.constant(node.value))
    if isinstance(node, Sym):
        if node.name not in field._index:
            raise UnboundSymbol(f"unknown generator {node.name!r} in field {field.name!r}")
        return DiffPoly.from_coeff(field, field.gen(node.name))
    if isinstance(node, DY):
        return DiffPoly.variable(field, node.order)
    if isinstance(node, Neg):
        return -lower_poly(node.operand, field, spent)
    if isinstance(node, Add):
        parts = [lower_poly(t, field, spent) for t in node.terms]
        order = max(P.order for P in parts)
        return _sum_terms(field, (kv for P in parts for kv in _padded(P.terms, order)), order)
    if isinstance(node, Mul):
        out = lower_poly(node.factors[0], field, spent)
        for f in node.factors[1:]:
            out = _times(out, lower_poly(f, field, spent), spent)
        return out
    if isinstance(node, Pow):
        base = lower_poly(node.base, field, spent)
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
            out = _times(out, base, spent)
        return out
    raise VdfError(f"unknown AST node {node!r}")


def _times(P: DiffPoly, Q: DiffPoly, spent: List[int]) -> DiffPoly:
    """P * Q, refused before it is built past MAX_TERM_PAIRS or MAX_EXPR_TERM_PAIRS in
    spent[0], or when a numerator or denominator of it could pass MAX_COEFF_DIGITS digits."""
    size = [sum(len(c.terms) for c in R.terms.values()) for R in (P, Q)]
    if size[0] * size[1] > MAX_TERM_PAIRS:
        raise ParseError(f"a product of {size[0]} by {size[1]} terms exceeds "
                         f"{MAX_TERM_PAIRS} term pairs")
    spent[0] += size[0] * size[1]
    if spent[0] > MAX_EXPR_TERM_PAIRS:
        raise ParseError(f"the products of one expression exceed "
                         f"{MAX_EXPR_TERM_PAIRS} term pairs")
    # a coefficient of P * Q sums at most size[0] * size[1] products n_P * n_Q over D_P * D_Q
    num, den = size[0] * size[1], 1
    for cs in (P.terms.values(), Q.terms.values()):
        D = lcm(*(c.cden for c in cs))
        num *= max((abs(n) * (D // c.cden) for c in cs for n in c.terms.values()), default=0)
        den *= D
    if max(num, den) >= 10 ** MAX_COEFF_DIGITS:
        raise ParseError(f"a product's coefficients could exceed {MAX_COEFF_DIGITS} digits")
    return P * Q


def _is_constant_poly(P: DiffPoly) -> bool:
    return all(all(x == 0 for x in i) for i in P.terms)


def _monomial_pow(coeff: Series, e: Fraction) -> Optional[Series]:
    """Exact rational power of a single-term series, when the
    coefficient power stays rational."""
    (v, c), = coeff.sorted_terms()
    if e.denominator == 1:
        _check_coeff_power(c, e.numerator)
        return coeff.field.term(v.scale(e), c ** e.numerator)
    if c == 1:
        return coeff.field.term(v.scale(e), c)
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


def parse_poly(text: str, field: FieldInstance) -> DiffPoly:
    return lower_poly(parse_expr(text), field)


def parse_series(text: str, field: FieldInstance) -> Series:
    P = lower_poly(parse_expr(text), field)
    if not _is_constant_poly(P):
        raise ParseError("expression contains the indeterminate Y")
    # a constant polynomial has at most one index, the zero one
    return next(iter(P.terms.values()), field.zero_series())
