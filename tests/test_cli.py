"""Command-line interface: subcommands, exit statuses, report formats."""

import re
import time
from pathlib import Path

import pytest

from flatcert.cli import (
    REPRO_CHECKS,
    ReproCheck,
    ReproReport,
    bundled_case_text,
    format_repro_table,
    main,
    strip_timing_column,
)

ROOT = Path(__file__).resolve().parents[1]

PASSING = """\
ring R = QQ[x,y,z,u,v] / (x*y - z^2);
ideal J = (x - u, z - u*v, y - u*v^2) in R;
module K = R^1 / ((x), (y), (z));
assert tor(1, J, K) != 0;
"""


@pytest.fixture
def passing_script(tmp_path):
    path = tmp_path / "case.fc"
    path.write_text(PASSING, encoding="utf-8")
    return str(path)


def test_run_pass(passing_script, capsys):
    assert main(["run", passing_script]) == 0
    out = capsys.readouterr().out
    assert "assert@4" in out and "pass" in out


def test_run_assertion_failure(tmp_path, capsys):
    path = tmp_path / "bad.fc"
    path.write_text(
        PASSING.replace("!= 0", "== 0"), encoding="utf-8"
    )
    assert main(["run", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_parse_error(tmp_path, capsys):
    path = tmp_path / "syntax.fc"
    path.write_text("ring R = QQ[x x];\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "col 15" in capsys.readouterr().err


def test_run_computation_error(tmp_path, capsys):
    path = tmp_path / "wrongring.fc"
    path.write_text(
        "ring R = QQ[x];\nring S = QQ[y];\nideal J = (x) in R;\n"
        "module K = S^1 / ((y));\nassert tor(1, J, K) == 0;\n",
        encoding="utf-8",
    )
    assert main(["run", str(path)]) == 3
    assert "line 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr",
    ["(x + y + z + 1)^400", "(x + y*-(" * 7 + "x" + "))^2" * 7],
    ids=["large-power", "nested-squares"],
)
def test_run_oversized_expansion_exits_2(expr, tmp_path, capsys):
    path = tmp_path / "huge.fc"
    path.write_text(f"ring R = QQ[x,y,z];\nideal J = ({expr}) in R;\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "line 2" in err and "expansion too large" in err


_LONG_INT = "7" * 5000


@pytest.mark.parametrize(
    "body, where, message",
    [
        (f"ideal J = ({_LONG_INT}*x) in R;", "line 2, col 12", "integer longer"),
        (f"ideal J = (x^{_LONG_INT}) in R;", "line 2, col 14", "integer longer"),
        (f"module M = R^{_LONG_INT} / ((x));", "line 2, col 14", "integer longer"),
        (
            f"ideal J = (x) in R;\nassert tor({_LONG_INT}, J, J) == 0;",
            "line 3, col 12",
            "integer longer",
        ),
        (
            "ideal J = (123456789/987654321^400000) in R;",
            "line 2, col 31",
            "more than 4300 digits",
        ),
        (
            "ideal J = (2^20000*x - 1) in R;\nprint J;",
            "line 2, col 13",
            "more than 4300 digits",
        ),
        (
            "ideal J = ((2^4000*x + 1)^140) in R;",
            "line 2, col 26",
            "more than 4300 digits",
        ),
        (
            "ideal J = ((2^4000*x + 1)^190) in R;",
            "line 2, col 26",
            "more than 4300 digits",
        ),
        (
            "ideal J = ("
            + " + ".join(f"1/{10**3999 + 2*k + 1}" for k in range(60))
            + ") in R;",
            "line 2, col 4015",
            "more than 4300 digits",
        ),
        (
            "ideal J = (x) in R;\nmodule M = R^10000000 / ();\n"
            "assert tor(0, M, J) != 0;",
            "line 3, col 14",
            "rank larger than 25",
        ),
        (
            "ideal J = (x) in R;\nassert tor(0, free(R, 26), J) != 0;",
            "line 3, col 23",
            "rank larger than 25",
        ),
    ],
    ids=[
        "coefficient",
        "exponent",
        "rank",
        "tor-index",
        "rational-power",
        "print",
        "power-of-sum-140",
        "power-of-sum-190",
        "sum-of-fractions",
        "module-rank",
        "free-rank",
    ],
)
def test_run_huge_numbers_exit_2(body, where, message, tmp_path, capsys):
    path = tmp_path / "huge.fc"
    path.write_text(f"ring R = QQ[x,y];\n{body}\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert where in err and message in err


def test_gb_prints_coefficients_past_the_input_digit_bound(tmp_path, capsys):
    path = tmp_path / "long.fc"
    path.write_text(
        "ring R = QQ[x,y];\nideal J = (x - 3^1500*y, x^7 - y^6) in R;\n",
        encoding="utf-8",
    )
    start = time.perf_counter()
    assert main(["gb", str(path), "J"]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    # 3^10500 has 5,010 digits, more than Python prints by default.
    assert lines == [f"y^7 - 1/{3**10500}*y^6", f"x - {3**1500}*y"]


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent/case.fc"]) == 2


def test_run_quiet_suppresses_output(passing_script, capsys):
    assert main(["run", "--quiet", passing_script]) == 0
    assert capsys.readouterr().out == ""


def test_run_writes_the_print_lines_before_the_assertion_lines(tmp_path, capsys):
    path = tmp_path / "prints.fc"
    prints = "print J;\nprint tor(1, J, K);\nprint flat(J at (x, y, z));\n"
    path.write_text(PASSING + prints, encoding="utf-8")
    assert main(["run", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    witnesses = "witnesses: (0, 1, 0, 0, 0); (0, 0, 0, v, 1)"
    # The assertion on line 4 is reported after the prints of lines 5-7.
    assert lines[:3] == [
        "J = ideal(x - u, -u*v + z, -u*v^2 + y)",
        f"tor(1, J, K): Tor_1 != 0, {witnesses}",
        f"flat(J at (x, y, z)): not flat (Tor_1 != 0, {witnesses})",
    ]
    assertion = r"assert@4: tor\(1, J, K\) != 0 \.\.\. pass \(\d+\.\d\ds\)"
    assert len(lines) == 4 and re.fullmatch(assertion, lines[3])
    assert main(["run", "--quiet", str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_gb_subcommand(passing_script, capsys):
    assert main(["gb", passing_script, "J"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["z^2 - y*u", "z*v - y", "u*v - z", "x - u"]


def test_gb_unknown_name(passing_script, capsys):
    assert main(["gb", passing_script, "K"]) == 3  # a module, not an ideal
    assert "not an ideal" in capsys.readouterr().err


def test_tor_subcommand(passing_script, capsys):
    assert main(["tor", passing_script, "1", "J", "K"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Tor_1 != 0, witnesses:")
    assert main(["tor", passing_script, "1", "free(R, 1)", "K"]) == 0
    assert capsys.readouterr().out.strip() == "Tor_1 = 0"


def test_tor_bad_argument(passing_script, capsys):
    assert main(["tor", passing_script, "1", "J", "x + y"]) == 2


def test_tor_undeclared_argument_has_no_line_number(capsys):
    case = "src/flatcert/cases/neg2_graph.fc"
    assert main(["tor", str(ROOT / case), "1", "J", "Q"]) == 3
    assert capsys.readouterr().err == "undeclared name 'Q'\n"


@pytest.mark.parametrize("argv", [["gb", "J"], ["tor", "1", "J", "J"]])
def test_script_syntax_error_exits_2_under_gb_and_tor(argv, tmp_path, capsys):
    path = tmp_path / "syntax.fc"
    path.write_text("ring R = QQ[x x];\n", encoding="utf-8")
    assert main([argv[0], str(path)] + argv[1:]) == 2
    assert "col 15" in capsys.readouterr().err


def test_script_computation_error_exits_3_under_gb_and_tor(tmp_path, capsys):
    path = tmp_path / "undeclared.fc"
    path.write_text("ideal J = (x) in R;\n", encoding="utf-8")
    assert main(["gb", str(path), "J"]) == 3
    assert main(["tor", str(path), "1", "J", "J"]) == 3
    assert "undeclared name" in capsys.readouterr().err


def test_gb_and_tor_skip_assertions_and_prints(tmp_path, capsys):
    # each assertion and print here would fail or raise if it ran
    path = tmp_path / "directives.fc"
    path.write_text(
        PASSING.replace("!= 0", "== 0")
        + "assert tor(1, J, Missing) == 0;\n"
        + "assert flat(J at (x, y, z));\n"
        + "print Missing;\n",
        encoding="utf-8",
    )
    assert main(["run", str(path)]) == 3
    capsys.readouterr()
    assert main(["gb", str(path), "J"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["z^2 - y*u", "z*v - y", "u*v - z", "x - u"]
    assert captured.err == ""
    assert main(["tor", str(path), "1", "J", "K"]) == 0
    assert capsys.readouterr().out.startswith("Tor_1 != 0, witnesses:")


@pytest.mark.parametrize("argv", [["gb", "J"], ["tor", "1", "J", "J"]])
def test_missing_file_exits_2_under_gb_and_tor(argv, capsys):
    assert main([argv[0], "/nonexistent/case.fc"] + argv[1:]) == 2
    assert "cannot read /nonexistent/case.fc" in capsys.readouterr().err


def test_order_flag_changes_basis(passing_script, capsys):
    assert main(["gb", "--order", "lex", passing_script, "J"]) == 0
    lex_lines = capsys.readouterr().out.splitlines()
    assert main(["gb", passing_script, "J"]) == 0
    grevlex_lines = capsys.readouterr().out.splitlines()
    assert lex_lines != grevlex_lines


def test_repro_checks_cover_six_cases():
    rows = [row for _, rows in REPRO_CHECKS for row in rows]
    assert [r[0] for r in rows] == [
        "neg2-graph",
        "francia-plus",
        "francia-minus",
        "smooth-chart",
        "neg2-fiber",
        "segre-chart",
    ]
    assert [r[1] for r in rows] == [
        "nonzero",
        "zero",
        "nonzero",
        "zero",
        "zero",
        "zero",
    ]


def test_bundled_case_texts_parse():
    from flatcert import parse_script

    for filename, _ in REPRO_CHECKS:
        parse_script(bundled_case_text(filename))


def test_format_repro_table_fixed_width():
    report = ReproReport(
        (
            ReproCheck("neg2-graph", "nonzero", "nonzero", 0.01),
            ReproCheck("smooth-chart", "zero", "nonzero", 1.5),
        )
    )
    table = format_repro_table(report)
    lines = table.splitlines()
    assert lines[0] == "check           expected   actual     status  time"
    assert lines[1] == "neg2-graph      nonzero    nonzero    PASS    0.01s"
    assert lines[2] == "smooth-chart    zero       nonzero    FAIL    1.50s"
    assert lines[3] == "1/2 checks passed"
    assert not report.ok


def test_repro_subcommand(capsys):
    assert main(["repro"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "check           expected   actual     status  time"
    assert len(lines) == 8
    assert lines[-1] == "6/6 checks passed"
    for line in lines[1:-1]:
        assert line[:46].rstrip().endswith("PASS")
        assert line.endswith("s")


def test_strip_timing_column():
    table = (
        "check           expected   actual     status  time\n"
        "neg2-graph      nonzero    nonzero    PASS    0.01s\n"
        "6/6 checks passed\n"
    )
    stripped = strip_timing_column(table)
    assert stripped == (
        "check           expected   actual     status\n"
        "neg2-graph      nonzero    nonzero    PASS\n"
        "6/6 checks passed\n"
    )
