"""Tokenizer, polynomial expression parser, and pretty-printer."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatcert as fc
from flatcert import ParseError, parse_polynomial
from flatcert.parse import (
    MAX_DIGITS,
    MAX_NESTING,
    MAX_TERMS,
    Token,
    TokenStream,
    expr_text,
    parse_expression,
    to_polynomial,
    tokenize,
)
from helpers import random_poly


def test_tokenize_positions_and_comments():
    toks = tokenize("x + y # trailing comment\n  z")
    kinds = [(t.kind, t.text, t.line, t.col) for t in toks]
    assert kinds[0] == ("name", "x", 1, 1)
    assert kinds[1] == ("+", "+", 1, 3)
    assert kinds[2] == ("name", "y", 1, 5)
    assert kinds[3] == ("name", "z", 2, 3)
    assert toks[-1].kind == "eof"


def test_tokenize_two_char_operators():
    toks = tokenize("-> == !=")
    assert [t.kind for t in toks[:3]] == ["->", "==", "!="]


def test_tokenize_rejects_garbage():
    with pytest.raises(ParseError) as err:
        tokenize("x @ y")
    assert "line 1" in str(err.value)
    assert "col 3" in str(err.value)


def test_parse_simple_polynomials(qq_xyz):
    sig = qq_xyz.signature
    x = fc.poly("x", qq_xyz)
    y = fc.poly("y", qq_xyz)
    z = fc.poly("z", qq_xyz)
    assert parse_polynomial("x*y - z^2", sig) == x * y - z**2
    assert parse_polynomial("-x + 2", sig) == -x + 2
    assert parse_polynomial("(x + y)^2", sig) == (x + y) ** 2
    assert parse_polynomial("1/2*x", sig) == x.scale(Fraction(1, 2))
    assert parse_polynomial("0", sig) == fc.Polynomial.zero(sig)
    assert parse_polynomial("x - - y", sig) == x + y


def test_parse_precedence(qq_xyz):
    sig = qq_xyz.signature
    # '*' binds tighter than '+', '^' tighter than '*', unary '-' weakest
    assert parse_polynomial("x + y*z", sig) == parse_polynomial("x + (y*z)", sig)
    assert parse_polynomial("x*y^2", sig) == parse_polynomial("x*(y^2)", sig)
    assert parse_polynomial("-x^2", sig) == -parse_polynomial("x^2", sig)


def test_parse_errors_carry_positions(qq_xy):
    sig = qq_xy.signature
    # double star is not a polynomial operator
    with pytest.raises(ParseError) as err:
        parse_polynomial("x ** y", sig)
    assert "col 4" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("x +", sig)
    with pytest.raises(ParseError):
        parse_polynomial("x y", sig)  # trailing input
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + w", sig)  # unknown variable
    assert "w" in str(err.value) and "col 5" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("x^y", sig)  # malformed exponent
    with pytest.raises(ParseError):
        parse_polynomial("1/0", sig)  # zero denominator


def test_rationals(qq_xy):
    sig = qq_xy.signature
    f = parse_polynomial("2/3*x + 5", sig)
    assert f.terms[(1, 0)] == Fraction(2, 3)
    assert f.terms[(0, 0)] == Fraction(5)


def test_expr_text_round_trip_random(qq_xyz):
    # printing a random polynomial and reparsing is the identity
    sig = qq_xyz.signature
    rng = random.Random(23)
    for _ in range(80):
        f = random_poly(rng, sig, max_deg=3, max_terms=4)
        assert parse_polynomial(str(f), sig) == f


def test_expr_text_matches_source_shape():
    ts = TokenStream(tokenize("(x + y)*z^2 - 3"))
    node = parse_expression(ts)
    text = expr_text(node)
    ts2 = TokenStream(tokenize(text))
    assert parse_expression(ts2) == node
    sig = fc.RingSignature(("x", "y", "z"))
    assert to_polynomial(node, sig) == parse_polynomial("(x + y)*z^2 - 3", sig)


def test_long_chains_evaluate_and_print_without_recursion(qq_xy):
    # 3,000 operands form a left-nested tree 3,000 levels deep
    sig = qq_xy.signature
    x = fc.poly("x", qq_xy)
    assert parse_polynomial(" + ".join(["x"] * 3000), sig) == x.scale(3000)
    assert parse_polynomial("*".join(["x"] * 3000), sig) == x**3000
    text = " - ".join(["x*y"] * 3000)
    assert expr_text(parse_expression(TokenStream(tokenize(text)))) == text
    assert fc.poly("x - " + text, qq_xy) == x - fc.poly("x*y", qq_xy).scale(3000)


def test_deep_nesting_is_a_parse_error(qq_xy):
    sig = qq_xy.signature
    depth = MAX_NESTING
    ok = "(" * depth + "x" + ")" * depth
    assert parse_polynomial(ok, sig) == fc.poly("x", qq_xy)
    with pytest.raises(ParseError) as err:
        parse_polynomial("(" * 2000 + "x" + ")" * 2000, sig)
    assert f"col {depth + 1}" in str(err.value)
    with pytest.raises(ParseError) as err:
        fc.poly("x*" + "-" * 2000 + "y", qq_xy)
    assert f"col {depth + 3}" in str(err.value)


def _sum_of_powers(name, count):
    return "(" + " + ".join(f"{name}^{k}" for k in range(count)) + ")"


def _squares_nested(depth):
    text = "x"
    for _ in range(depth):
        text = f"(x + y*-({text}))^2"
    return text


@pytest.mark.parametrize(
    "text, col",
    [
        ("(x + y + z + 1)^400", 16),  # 10.8 million terms
        (_squares_nested(7), 87),  # each level squares the one inside
        ("(x + 1)^9999", 8),  # few terms, but 5,000 multiplications
        (_sum_of_powers("x", 150) + "*" + _sum_of_powers("y", 150), 1090),
        ("*".join(["(x + 1)"] * 2000), 1120),  # charged like (x + 1)^2000
    ],
    ids=["large-power", "nested-squares", "many-multiplications", "product",
         "product-chain"],
)
def test_oversized_expansions_are_parse_errors(qq_xyz, text, col):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, qq_xyz.signature)
    assert time.perf_counter() - start < 1.0
    assert f"line 1, col {col}:" in str(err.value)
    assert f"more than {MAX_TERMS}" in str(err.value)


def test_expansions_within_the_bound(qq_xyz):
    sig = qq_xyz.signature
    assert len(parse_polynomial("(x + y + z + 1)^12", sig).terms) == 455
    assert len(parse_polynomial("(x + 1)^100*(y + 1)^100", sig).terms) == 101**2
    # a sum ends a product chain: each factor here starts a fresh budget
    text = "(x + 1)^100*(y + 1)^100 + (x + 1)^100"
    assert len(parse_polynomial(text, sig).terms) == 101**2
    assert parse_polynomial("*".join(["x"] * 3000), sig).terms == {(3000, 0, 0): 1}
    assert parse_polynomial("x^1000000*y", sig).terms == {(1000000, 1, 0): 1}


def test_digit_bound_on_literals_and_powers_of_terms(qq_xy):
    sig = qq_xy.signature
    digits = "9" * MAX_DIGITS
    assert parse_polynomial(digits + "*x", sig).terms == {(1, 0): int(digits)}
    with pytest.raises(ParseError) as err:
        tokenize("x + 1" + digits)
    assert "col 5:" in str(err.value)
    assert len(str(parse_polynomial("2^14000", sig).terms[(0, 0)])) == 4215
    for text, col in [("2^14300", 2), ("x*(1/3*y)^10000", 10)]:
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, sig)
        assert time.perf_counter() - start < 1.0
        assert f"col {col}: expansion too large: more than {MAX_DIGITS} digits" in str(
            err.value
        )
    assert parse_polynomial("x^100000", sig).terms == {(100000, 0): 1}


def test_digit_bound_on_products_of_sums(qq_xy):
    sig = qq_xy.signature
    # each factor brings 1,205 digits: three fit, the fourth product does not
    big = "(2^4000*x + 1)"
    assert len(parse_polynomial(f"{big}^3", sig).terms) == 4
    assert len(parse_polynomial(f"{big}*{big}*(2^4000*y + 1)", sig).terms) == 6
    for text, col in [(f"{big}^4", 15), (f"{big}*{big}*{big}*{big}", 45)]:
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, sig)
        assert time.perf_counter() - start < 1.0
        assert f"col {col}: expansion too large: more than {MAX_DIGITS} digits" in str(
            err.value
        )


def test_digit_bound_on_sums(qq_xy):
    sig = qq_xy.signature
    # distinct 1,500-digit denominators: two fractions fit, their common
    # denominator with a third does not
    fracs = [f"1/{10**1499 + 2*k + 1}" for k in range(3)]
    assert len(parse_polynomial(" + ".join(fracs[:2]), sig).terms) == 1
    col = len(fracs[0]) + len(fracs[1]) + 5
    for op in "+-":
        with pytest.raises(ParseError) as err:
            parse_polynomial(f"{fracs[0]} + {fracs[1]} {op} {fracs[2]}", sig)
        assert f"col {col}: expansion too large: more than {MAX_DIGITS} digits" in str(
            err.value
        )
    # only the coefficients a step changes count
    c = "9" * 4000
    assert len(parse_polynomial(f"{c}*x + {c}*y - {c}", sig).terms) == 3
    assert parse_polynomial(f"{c}*x - {c}*x + y", sig).terms == {(0, 1): 1}


def test_long_sums_parse_in_linear_time(qq_xy):
    # 20,000 distinct terms, about 170 KB: once quadratic, several seconds
    sig = qq_xy.signature
    for op in "+-":
        text = f" {op} ".join(f"x^{k}*y" for k in range(20_000))
        start = time.perf_counter()
        f = parse_polynomial(text, sig)
        assert time.perf_counter() - start < 3.0
        assert len(f.terms) == 20_000
        assert f.terms[(19_999, 1)] == (1 if op == "+" else -1)


def test_powers_of_terms(qq_xy):
    sig = qq_xy.signature
    assert parse_polynomial("(-2/3*x*y^2)^3", sig).terms == {(3, 6): Fraction(-8, 27)}
    assert parse_polynomial("0^0", sig).terms == {(0, 0): 1}
    assert parse_polynomial("(3*x)^0", sig).terms == {(0, 0): 1}
    assert parse_polynomial("0^5 + x^0", sig).terms == {(0, 0): 1}


def test_long_sums_of_small_terms_parse(qq_xy):
    text = " + ".join(["3*x^2*y - 1/2"] * 2000)
    assert parse_polynomial(text, qq_xy.signature).terms == {
        (2, 1): 6000,
        (0, 0): -1000,
    }


# The tokenizer, pinned by rendering random token sequences and computing
# each token's expected place while the text is written out.

SYMBOLS = ["->", "==", "!=", *"+-*^/()[]{},;:="]
_WORD = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")
_NAME_HEAD = "abcxyzXYZ_"
_NAME_TAIL = _NAME_HEAD + "0123456789"
_BAD = "$@?~`!\"'%&|<>.\\\f\v\x00é²٣"

names = st.builds(
    lambda head, tail: ("name", head + tail),
    st.sampled_from(_NAME_HEAD),
    st.text(_NAME_TAIL, max_size=6),
)


def _digits(draw, low, high):
    size = draw(st.one_of(st.integers(low, min(high, low + 5)),
                          st.integers(low, high), st.just(high)))
    # A short random head, repeated: long digit runs stay cheap to draw.
    head = draw(st.text("0123456789", min_size=1, max_size=8))
    return (head * size)[:size]


ints = st.composite(lambda draw: ("int", _digits(draw, 1, MAX_DIGITS)))()
tokens = st.one_of(names, ints, st.sampled_from(SYMBOLS).map(lambda s: (s, s)))
comments = st.text(
    st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
    max_size=8,
).map(lambda body: "#" + body)
# One separator piece: a blank, a tab, a carriage return, a newline, or
# a comment, which the renderer always ends with a newline.
pieces = st.one_of(st.sampled_from([" ", "\t", "\r", "\n"]), comments)


def _merges(left, right):
    """Whether `left` written right before `right` would lex otherwise."""
    if left[-1] + right[0] in ("->", "==", "!="):
        return True
    return left[-1] in _WORD and right[0] in _WORD and not (
        left[0].isdigit() and not right[0].isdigit()
    )


class _Renderer:
    """Writes text piece by piece and tracks the line and column that the
    next character takes; a comment moves neither."""

    def __init__(self):
        self.parts, self.line, self.col, self.last = [], 1, 1, " "

    def write(self, text):
        self.parts.append(text)
        self.col += len(text)
        self.last = text

    def separate(self, draw, required, final=False):
        chosen = draw(st.lists(pieces, min_size=int(required), max_size=3))
        for i, piece in enumerate(chosen):
            if piece == "\n":
                self.parts.append(piece)
                self.line, self.col = self.line + 1, 1
            elif piece.startswith("#"):
                self.parts.append(piece)
                if not (final and i == len(chosen) - 1):
                    self.parts.append("\n")
                    self.line, self.col = self.line + 1, 1
            else:
                self.write(piece)
            self.last = " "

    def tokens(self, draw, count):
        expected = []
        for _ in range(count):
            kind, text = draw(tokens)
            self.separate(draw, _merges(self.last, text))
            expected.append((kind, text, self.line, self.col))
            self.write(text)
        return expected

    @property
    def text(self):
        return "".join(self.parts)


@st.composite
def token_texts(draw):
    out = _Renderer()
    expected = out.tokens(draw, draw(st.integers(0, 12)))
    out.separate(draw, False, final=True)
    expected.append(("eof", "", out.line, out.col))
    return out.text, expected


@st.composite
def bad_texts(draw):
    """Valid tokens, then an unexpected character or an over-long
    integer, then anything; the error is at the bad spot."""
    out = _Renderer()
    out.tokens(draw, draw(st.integers(0, 6)))
    if draw(st.booleans()):
        bad = draw(st.sampled_from(_BAD))
        message = f"unexpected character {bad!r}"
    else:
        bad = _digits(draw, MAX_DIGITS + 1, MAX_DIGITS + 40)
        message = f"integer longer than {MAX_DIGITS} digits"
    out.separate(draw, _merges(out.last, bad))
    line, col = out.line, out.col
    out.write(bad)
    out.separate(draw, True)
    out.tokens(draw, draw(st.integers(0, 3)))
    return out.text, f"parse error at line {line}, col {col}: {message}"


@settings(derandomize=True, deadline=None, max_examples=400)
@given(token_texts())
def test_tokenize_kinds_texts_and_positions(case):
    text, expected = case
    got = [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    assert got == expected


@settings(derandomize=True, deadline=None, max_examples=300)
@given(bad_texts())
def test_tokenize_refuses_at_the_bad_spot(case):
    text, error = case
    with pytest.raises(ParseError) as err:
        tokenize(text)
    assert str(err.value) == error


def test_tokenize_trailing_comment_keeps_the_eof_column():
    assert tokenize("x  # end")[-1] == Token("eof", "", 1, 4)
    assert tokenize("x\t\r#\n#")[-1] == Token("eof", "", 2, 1)
