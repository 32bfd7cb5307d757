"""Tokenizer and recursive-descent parser for polynomial expressions.

Tokens are ASCII names [A-Za-z_][A-Za-z0-9_]*, integers [0-9]+, and the
symbols -> == != + - * ^ / ( ) [ ] { } , ; : =.  Blanks, tabs and
carriage returns separate them; '#' starts a comment to end of line.  Errors
carry 1-based line and column positions, one column per character; a
comment takes none.  The grammar of expressions:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' INT)?
    base   := INT ('/' INT)? | NAME | '(' expr ')'

'^' binds tighter than '*', which binds tighter than '+' and '-'.  There
is no implicit multiplication and no division operator; 'p/q' is only a
rational literal with integer parts.

Chains of '+', '-' and '*' may be arbitrarily long: they parse into
left-nested trees, which `to_polynomial` and `expr_text` walk without
recursion.  Parentheses and unary minus nest at most MAX_NESTING deep.
`to_polynomial` charges each product a*b len(a)*len(b) term products.
A chain of products a*b*c*... is charged like a power f^e of a sum,
whose e products form one chain: a chain that would spend more than
MAX_TERMS in all is a parse error, and a '+' or '-' ends the chain.  The
charge bounds both the work and the result's term count.  A chain of
sums is added into one term map in place, so it takes time linear in its
length, and a power of a single term is built directly, not by repeated
products.

Integer literals have at most MAX_DIGITS digits, and so may every
coefficient a product or power is computed from: a power c*m^e of a
term is charged about e*log10 max(|num|, den) digits, and each product
a*b, also each of the e products of a power of a sum, the digits of a's
largest coefficient plus those of b's.  A sum or difference a + b is
charged the digits of each coefficient it changes, those at b's
monomials, so a long sum of fractions cannot grow a common denominator
without bound.  Scripts bound declared module ranks by MAX_RANK and Tor
indices by MAX_INDEX.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import groupby
from operator import add, sub

from .poly import AlgebraError, Polynomial, RingSignature, add_terms
from .record import record


class ParseError(AlgebraError):
    """Syntax error with a source position.  `source` names text that is
    not a script, such as a command-line argument; its line 1 is left
    out of the message."""

    def __init__(self, message: str, line: int, col: int, source: str = ""):
        place = f"line {line}"
        if source:
            place = source if line == 1 else f"{source}, {place}"
        super().__init__(f"parse error at {place}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@record
class Token:
    kind: str  # "name", "int", "eof", or the symbol text itself
    text: str
    line: int
    col: int


MAX_NESTING = 100
MAX_TERMS = 20_000
MAX_DIGITS = 4_300
MAX_RANK = 25
MAX_INDEX = 100

_TOKEN_RE = re.compile(
    r"""(?P<newline>\n)
      | (?P<skip>[ \t\r]+|\#[^\n]*)
      | (?P<symbol>->|==|!=|[-+*^/()\[\]{},;:=])
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<bad>.)""",
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {word!r}", line, col)
        elif kind == "int" and len(word) > MAX_DIGITS:
            raise ParseError(f"integer longer than {MAX_DIGITS} digits", line, col)
        elif kind != "skip":
            tokens.append(Token(word if kind == "symbol" else kind, word, line, col))
    # '#' appears in no token, so the first one on the last line starts
    # its comment, which takes no columns.
    end_col = len(text[line_start:].split("#", 1)[0]) + 1
    tokens.append(Token("eof", "", line, end_col))
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses and unary minuses

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise unexpected(tok, what or f"{kind!r}")
        return self.next()


def unexpected(tok: Token, what: str) -> ParseError:
    """The error for finding `tok` where `what` was expected."""
    found = tok.text or "end of input"
    return ParseError(f"expected {what}, found {found!r}", tok.line, tok.col)


# Expression AST.  Positions are carried for error reporting but ignored
# by equality so that pretty-printed scripts reparse to equal trees.


@record(uncompared=("line", "col"))
class Num:
    value: Fraction
    line: int = 0
    col: int = 0


@record(uncompared=("line", "col"))
class Var:
    name: str
    line: int = 0
    col: int = 0


@record(uncompared=("line", "col"))
class Neg:
    operand: "Expr"
    line: int = 0
    col: int = 0


@record(uncompared=("line", "col"))
class BinOp:
    op: str  # "+", "-", or "*"
    left: "Expr"
    right: "Expr"
    line: int = 0
    col: int = 0


@record(uncompared=("line", "col"))
class Pow:
    base: "Expr"
    exponent: int
    line: int = 0
    col: int = 0


Expr = Num | Var | Neg | BinOp | Pow


def parse_expression(ts: TokenStream) -> Expr:
    tok = ts.peek()
    if tok.kind == "-":
        ts.next()
        node: Expr = Neg(_term(ts), tok.line, tok.col)
    else:
        node = _term(ts)
    while ts.peek().kind in ("+", "-"):
        op = ts.next()
        node = BinOp(op.kind, node, _term(ts), op.line, op.col)
    return node


def _term(ts: TokenStream) -> Expr:
    node = _factor(ts)
    while ts.peek().kind == "*":
        op = ts.next()
        node = BinOp("*", node, _factor(ts), op.line, op.col)
    return node


def _nested(
    ts: TokenStream, opener: Token, parse: Callable[[TokenStream], Expr]
) -> Expr:
    """parse(ts) one nesting level below `opener`."""
    if ts.depth >= MAX_NESTING:
        raise ParseError(
            f"expression nested more than {MAX_NESTING} deep", opener.line, opener.col
        )
    ts.depth += 1
    node = parse(ts)
    ts.depth -= 1
    return node


def _factor(ts: TokenStream) -> Expr:
    tok = ts.peek()
    if tok.kind == "-":
        ts.next()
        return Neg(_nested(ts, tok, _factor), tok.line, tok.col)
    node = _base(ts)
    if ts.peek().kind == "^":
        caret = ts.next()
        tok = ts.peek()
        if tok.kind != "int":
            raise ParseError("malformed exponent", tok.line, tok.col)
        ts.next()
        node = Pow(node, int(tok.text), caret.line, caret.col)
    return node


def _base(ts: TokenStream) -> Expr:
    tok = ts.peek()
    if tok.kind == "int":
        ts.next()
        value = Fraction(int(tok.text))
        if ts.peek().kind == "/":
            ts.next()
            den = ts.peek()
            if den.kind != "int":
                raise ParseError("malformed rational literal", den.line, den.col)
            ts.next()
            if int(den.text) == 0:
                raise ParseError("zero denominator", den.line, den.col)
            value = Fraction(int(tok.text), int(den.text))
        return Num(value, tok.line, tok.col)
    if tok.kind == "name":
        ts.next()
        return Var(tok.text, tok.line, tok.col)
    if tok.kind == "(":
        ts.next()
        node = _nested(ts, tok, parse_expression)
        ts.expect(")")
        return node
    raise unexpected(tok, "a number, variable, or '('")


def to_polynomial(node: Expr, sig: RingSignature) -> Polynomial:
    if isinstance(node, Num):
        return Polynomial.constant(sig, node.value)
    if isinstance(node, Var):
        if node.name not in sig.variables:
            raise ParseError(f"unknown variable {node.name!r}", node.line, node.col)
        return Polynomial.variable(sig, node.name)
    if isinstance(node, Neg):
        return -to_polynomial(node.operand, sig)
    if isinstance(node, BinOp):
        spine = _left_spine(node)
        acc = to_polynomial(spine[-1].left, sig)
        # A run of '*' steps is one product chain; a run of '+' and '-'
        # steps is one sum, added into a single term map.
        for is_product, steps in groupby(reversed(spine), lambda s: s.op == "*"):
            if is_product:
                spent = 0
                for step in steps:
                    right = to_polynomial(step.right, sig)
                    acc, spent = _charged_product(acc, right, spent, step)
            else:
                out = dict(acc.terms)
                for step in steps:
                    right = to_polynomial(step.right, sig)
                    add_terms(out, right.terms, add if step.op == "+" else sub)
                    # Only the coefficients at right's monomials changed, so
                    # a long sum is charged in time linear in its length.
                    changed = (out[m] for m in right.terms if m in out)
                    _charge(_digits(changed), MAX_DIGITS, "digits", step)
                acc = Polynomial(sig, out)
        return acc
    if isinstance(node, Pow):
        base = to_polynomial(node.base, sig)
        if len(base.terms) <= 1:
            digits = node.exponent * _digits(base.terms.values())
            _charge(digits, MAX_DIGITS, "digits", node)
            return base ** node.exponent
        # A power of a sum is expanded as one product chain: the exponent,
        # not the input's length, sets how many products it takes.
        acc, spent = Polynomial.constant(sig, 1), 0
        for _ in range(node.exponent):
            acc, spent = _charged_product(acc, base, spent, node)
        return acc
    raise AlgebraError("unknown expression node")  # pragma: no cover


def _charged_product(
    acc: Polynomial, right: Polynomial, spent: int, node: BinOp | Pow
) -> tuple[Polynomial, int]:
    """acc*right, with the term products its chain has spent so far."""
    spent += len(acc.terms) * len(right.terms)
    _charge(spent, MAX_TERMS, "term products", node)
    digits = _digits(acc.terms.values()) + _digits(right.terms.values())
    _charge(digits, MAX_DIGITS, "digits", node)
    return acc * right, spent


def _digits(coefficients: Iterable[Fraction]) -> float:
    """About the digits of the largest coefficient: log10 max(|num|, den)."""
    top = 1
    for c in coefficients:
        top = max(top, abs(c.numerator), c.denominator)
    return math.log10(top)


def _charge(spent: float, limit: int, unit: str, node: BinOp | Pow) -> None:
    if spent > limit:
        raise ParseError(
            f"expansion too large: more than {limit} {unit}", node.line, node.col
        )


def _left_spine(node: BinOp) -> list[BinOp]:
    """The chain of BinOps from node down its left children, outermost
    first."""
    spine = [node]
    while isinstance(spine[-1].left, BinOp):
        spine.append(spine[-1].left)
    return spine


def parse_polynomial(text: str, sig: RingSignature) -> Polynomial:
    """Parse `text` as a polynomial over `sig` (canonical-form friendly)."""
    ts = TokenStream(tokenize(text))
    node = parse_expression(ts)
    ts.expect("eof", "end of input")
    return to_polynomial(node, sig)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2}


def expr_text(node: Expr, parent_prec: int = 0) -> str:
    """Minimal-parenthesis rendering; reparses to an equal tree."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        text = f"-{expr_text(node.operand, 2)}"
        return f"({text})" if parent_prec > 1 else text
    if isinstance(node, BinOp):
        spine = _left_spine(node)
        text = expr_text(spine[-1].left, _PRECEDENCE[spine[-1].op])
        while spine:
            step = spine.pop()
            prec = _PRECEDENCE[step.op]
            right = expr_text(step.right, prec + 1)
            op = step.op
            joint = f"{text}{op}{right}" if op == "*" else f"{text} {op} {right}"
            outer = _PRECEDENCE[spine[-1].op] if spine else parent_prec
            text = f"({joint})" if prec < outer else joint
        return text
    if isinstance(node, Pow):
        if isinstance(node.base, Var) or (isinstance(node.base, Num)
                                          and node.base.value >= 0):
            base = expr_text(node.base, 3)
        else:
            base = f"({expr_text(node.base)})"
        return f"{base}^{node.exponent}"
    raise AlgebraError("unknown expression node")  # pragma: no cover
