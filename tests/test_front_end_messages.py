"""Exact error text of the script front end.

Each entry maps a malformed input to the exact `report.error` of
`execute_text`, the exact stderr of `flatcert tor`, or the exact message
of `parse_polynomial`, together with the exit status.  The table pins the
messages so that a restructured parser or interpreter keeps them.
"""

import pytest

from flatcert.cli import main
from flatcert.parse import ParseError, parse_polynomial
from flatcert.poly import RingSignature
from flatcert.script import execute_text

DECLS = "ring R = QQ[x,y];\nideal J = (x) in R;\n"
RING_X = "ring R = QQ[x];\n"

# (id, script text, status, report.error)
SCRIPT_MESSAGES = [
    ("missing-semicolon", "ring R = QQ[x]\nideal J = (x) in R;\n", 2,
     "parse error at line 2, col 1: expected ';', found 'ideal'"),
    ("missing-semicolon-at-end", "ring R = QQ[x]", 2,
     "parse error at line 1, col 15: expected ';', found 'end of input'"),
    ("unknown-statement", "let x = 1;\n", 2,
     "parse error at line 1, col 1: unknown statement 'let'"),
    ("assert-head", DECLS + "assert J;\n", 2,
     "parse error at line 3, col 8: expected tor(...) or flat(...), found 'J'"),
    ("assert-head-at-end", DECLS + "assert", 2,
     "parse error at line 3, col 7: expected tor(...) or flat(...), "
     "found 'end of input'"),
    ("missing-operator", DECLS + "assert tor(1, J, J) 0;\n", 2,
     "parse error at line 3, col 21: expected '==' or '!=', found '0'"),
    ("missing-operator-at-end", DECLS + "assert tor(1, J, J)", 2,
     "parse error at line 3, col 20: expected '==' or '!=', found 'end of input'"),
    ("compare-with-one", DECLS + "assert tor(1, J, J) == 1;\n", 2,
     "parse error at line 3, col 24: expected 0"),
    ("rank-too-large", "ring R = QQ[x];\nmodule M = R^26 / ();\n", 2,
     "parse error at line 2, col 14: rank larger than 25"),
    ("duplicate-variable", "ring R = QQ[x, y, x];\n", 2,
     "parse error at line 1, col 19: duplicate variable 'x'"),
    ("unknown-variable", "ring R = QQ[x];\nideal J = (y) in R;\n", 2,
     "parse error at line 2, col 12: unknown variable 'y'"),
    ("reserved-variable", "ring R = QQ[x, flat];\n", 2,
     "parse error at line 1, col 16: 'flat' is a reserved word"),
    ("print-reserved-ideal",
     "ring R = QQ[x];\nideal tor = (x) in R;\nprint tor;\n", 2,
     "parse error at line 2, col 7: 'tor' is a reserved word"),
    ("expected-name", "ring R = QQ[x];\nideal 3 = (x) in R;\n", 2,
     "parse error at line 2, col 7: expected an ideal name, found '3'"),
    ("expected-keyword", DECLS + "assert flat(J on (x, y));\n", 2,
     "parse error at line 3, col 15: expected 'at', found 'on'"),
    ("undeclared-name", "ideal J = (x) in R;\n", 3,
     "line 1: undeclared name 'R'"),
    ("undeclared-in-tor", DECLS + "assert tor(1, J, K) == 0;\n", 3,
     "line 3: undeclared name 'K'"),
    ("undeclared-in-print", DECLS + "print K;\n", 3,
     "line 3: undeclared name 'K'"),
    ("not-a-ring", DECLS + "ideal K = (x) in J;\n", 3,
     "line 3: 'J' is not a ring"),
    ("not-a-ring-in-free", DECLS + "assert tor(0, J, free(J, 1)) == 0;\n", 3,
     "line 3: 'J' is not a ring"),
    ("not-a-map", DECLS + "ring V = image R;\n", 3,
     "line 3: 'R' is not a map"),
    ("undeclared-map", DECLS + "ring V = image G;\n", 3,
     "line 3: undeclared name 'G'"),
    ("not-an-ideal-or-module", DECLS + "assert tor(0, R, J) == 0;\n", 3,
     "line 3: 'R' is not an ideal or module"),
    ("not-an-ideal-or-module-in-flat", DECLS + "assert flat(R at (x, y));\n", 3,
     "line 3: 'R' is not an ideal or module"),
    ("wrong-row-length", "ring R = QQ[x];\nmodule M = R^2 / ((x, 1), (x));\n", 3,
     "line 2: relation has 1 entries, expected 2"),
    ("wrong-image-count", DECLS + "map F : R -> R = {x};\n", 3,
     "line 3: expected 2 images, got 1"),
    ("ill-defined-map",
     "ring R = QQ[x] / (x^2);\nring S = QQ[t];\nmap F : R -> S = {t};\n", 3,
     "line 3: map does not kill the defining relation x^2"),
    ("improper-point", DECLS + "print flat(J at (1, y));\n", 3,
     "line 3: point ideal is improper (contains 1)"),
    ("not-a-point", "ring R = QQ[x,y];\nideal J = (x, y) in R;\nprint flat(J at (x*y));\n", 3,
     "line 3: point ideal is not a point (reduced basis of degree above 1)"),
    ("ring-not-flat-over-point",
     "ring R = QQ[x,y] / (x*y);\nideal J = (x + y) in R;\nassert flat(J at (x));\n", 3,
     "line 3: relation x*y ties the point's variables to others; the ring need "
     "not be flat over the point's base"),
    ("tor-over-different-rings",
     "ring R = QQ[x];\nring S = QQ[y];\nideal J = (x) in R;\n"
     "module K = S^1 / ((y));\nassert tor(1, J, K) == 0;\n", 3,
     "line 5: modules over different rings"),
    # one malformed list per bracketed site
    ("variables-without-comma", "ring R = QQ[x y];", 2,
     "parse error at line 1, col 15: expected ']', found 'y'"),
    ("variables-trailing-comma", "ring R = QQ[x,];", 2,
     "parse error at line 1, col 15: expected a variable name, found ']'"),
    ("variables-duplicate-before-junk", "ring R = QQ[x, x, 1];", 2,
     "parse error at line 1, col 16: duplicate variable 'x'"),
    ("quotient-unclosed", "ring R = QQ[x] / (x;", 2,
     "parse error at line 1, col 20: expected ')', found ';'"),
    ("generators-trailing-comma", RING_X + "ideal K = (x,) in R;", 2,
     "parse error at line 2, col 14: expected a number, variable, or '(', "
     "found ')'"),
    ("rows-without-comma", RING_X + "module M = R^1 / ((x) (y));", 2,
     "parse error at line 2, col 23: expected ')', found '('"),
    ("row-not-bracketed", RING_X + "module M = R^1 / (x);", 2,
     "parse error at line 2, col 19: expected '(', found 'x'"),
    ("images-unclosed", DECLS + "map F : R -> R = {x, y;", 2,
     "parse error at line 3, col 23: expected '}', found ';'"),
    ("point-without-comma", DECLS + "assert flat(J at (x y));", 2,
     "parse error at line 3, col 21: expected ')', found 'y'"),
    # lexical errors and positions
    ("unexpected-character-after-tab", "ring R = QQ[x];\t$", 2,
     "parse error at line 1, col 17: unexpected character '$'"),
    ("integer-too-long", "ring R = QQ[x] / (" + "7" * 4301 + ");", 2,
     "parse error at line 1, col 19: integer longer than 4300 digits"),
    ("comment-keeps-the-end-column", "ring R = QQ[x]  # no semicolon", 2,
     "parse error at line 1, col 17: expected ';', found 'end of input'"),
    ("tor-index-too-large", DECLS + "assert tor(101, J, J) == 0;\n", 2,
     "parse error at line 3, col 12: Tor index larger than 100"),
    ("carriage-return-and-tab-columns", "ring R = QQ[x]\r\n\t@", 2,
     "parse error at line 2, col 2: unexpected character '@'"),
]

# (id, the two Tor arguments of `flatcert tor CASE 1 ...`, status, stderr)
CLI_MESSAGES = [
    ("cli-free-rank-too-large", ["J", "free(R, 26)"], 2,
     "parse error at argument 2, col 9: rank larger than 25\n"),
    ("cli-left-free-rank-too-large", ["free(R, 26)", "J"], 2,
     "parse error at argument 1, col 9: rank larger than 25\n"),
    ("cli-left-multiline", ["free(R,\n 26)", "J"], 2,
     "parse error at argument 1, line 2, col 2: rank larger than 25\n"),
    ("cli-undeclared-name", ["J", "Q"], 3,
     "undeclared name 'Q'\n"),
    ("cli-not-an-ideal-or-module", ["J", "R"], 3,
     "'R' is not an ideal or module\n"),
    ("cli-trailing-input", ["J", "J K"], 2,
     "parse error at argument 2, col 3: expected end of input, found 'K'\n"),
]

# (id, the index argument of `flatcert tor CASE I J J`, status, stderr)
CLI_INDEX_MESSAGES = [
    ("cli-tor-index-too-large", "101", 2,
     "parse error at the index, col 1: Tor index larger than 100\n"),
    ("cli-negative-tor-index", "-1", 2,
     "parse error at the index, col 1: negative Tor index\n"),
]

# (polynomial text over QQ[x,y], ParseError text)
POLYNOMIAL_MESSAGES = [
    ("x y",
     "parse error at line 1, col 3: expected end of input, found 'y'"),
    ("x +", "parse error at line 1, col 4: expected a number, variable, "
     "or '(', found 'end of input'"),
    ("x ** y", "parse error at line 1, col 4: expected a number, variable, "
     "or '(', found '*'"),
    ("(x", "parse error at line 1, col 3: expected ')', found 'end of input'"),
]


@pytest.mark.parametrize(
    "text, status, error",
    [case[1:] for case in SCRIPT_MESSAGES],
    ids=[case[0] for case in SCRIPT_MESSAGES],
)
def test_script_error_text(text, status, error):
    report, _ = execute_text(text)
    assert (report.status, report.error) == (status, error)


@pytest.mark.parametrize(
    "args, status, stderr",
    [case[1:] for case in CLI_MESSAGES],
    ids=[case[0] for case in CLI_MESSAGES],
)
def test_cli_tor_error_text(args, status, stderr, tmp_path, capsys):
    path = tmp_path / "case.fc"
    path.write_text(DECLS, encoding="utf-8")
    assert main(["tor", str(path), "1", *args]) == status
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)


@pytest.mark.parametrize(
    "index, status, stderr",
    [case[1:] for case in CLI_INDEX_MESSAGES],
    ids=[case[0] for case in CLI_INDEX_MESSAGES],
)
def test_cli_tor_index_error_text(index, status, stderr, tmp_path, capsys):
    path = tmp_path / "case.fc"
    path.write_text(DECLS, encoding="utf-8")
    assert main(["tor", str(path), index, "J", "J"]) == status
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)


@pytest.mark.parametrize("index", ["-1", "101"])
def test_cli_tor_index_is_refused_before_the_declarations_run(
    index, tmp_path, capsys
):
    # The map does not kill x, so running the declarations would exit 3.
    path = tmp_path / "case.fc"
    path.write_text(
        "ring R = QQ[x] / (x);\nring S = QQ[t];\nmap f : R -> S = {t};\n",
        encoding="utf-8",
    )
    assert main(["tor", str(path), "1", "f", "f"]) == 3
    capsys.readouterr()
    assert main(["tor", str(path), index, "f", "f"]) == 2
    assert capsys.readouterr().err.startswith("parse error at the index")


@pytest.mark.parametrize(
    "text, error", POLYNOMIAL_MESSAGES, ids=[case[0] for case in POLYNOMIAL_MESSAGES]
)
def test_parse_polynomial_error_text(text, error):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, RingSignature(("x", "y")))
    assert str(err.value) == error
