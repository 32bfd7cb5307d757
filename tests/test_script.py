"""The .fc script language: grammar, round trip, and execution."""

import time

import pytest

import flatcert as fc
from flatcert import parse_script, pretty_script
from flatcert.cli import main
from flatcert.parse import MAX_INDEX, MAX_RANK, ParseError
from flatcert.script import (
    AssertFlat,
    AssertTor,
    FreeModuleArg,
    IdealDecl,
    Interpreter,
    MapDecl,
    ModuleDecl,
    PrintStmt,
    RingDecl,
    TensorRingDecl,
    TorCall,
    execute_text,
    resolve_tor_argument,
    run_script,
)

NEG2 = """\
ring R = QQ[x,y,z,u,v] / (x*y - z^2);
ideal J = (x - u, z - u*v, y - u*v^2) in R;
module K = R^1 / ((x), (y), (z));
assert tor(1, J, K) != 0;
"""


def test_parse_statements():
    script = parse_script(NEG2)
    kinds = [type(s) for s in script.statements]
    assert kinds == [RingDecl, IdealDecl, ModuleDecl, AssertTor]
    ring_decl = script.statements[0]
    assert ring_decl.name == "R"
    assert ring_decl.variables == ("x", "y", "z", "u", "v")
    assert len(ring_decl.quotient) == 1
    tor_stmt = script.statements[3]
    assert tor_stmt.nonzero
    assert tor_stmt.call == TorCall(1, "J", "K")


def test_parse_map_image_tensor_flat_print():
    text = (
        "ring R = QQ[a];\n"
        "ring S = QQ[t];\n"
        "map F : R -> S = {t^2};\n"
        "ring V = image F;\n"
        "ring T = R ** V;\n"
        "ideal J = (a) in T;\n"
        "assert flat(J at (a));\n"
        "print J;\n"
        "print tor(1, J, free(T, 2));\n"
    )
    script = parse_script(text)
    kinds = [type(s) for s in script.statements]
    assert kinds[2] is MapDecl
    assert kinds[4] is TensorRingDecl
    assert kinds[6] is AssertFlat
    assert kinds[7] is PrintStmt and kinds[8] is PrintStmt
    call = script.statements[8].subject
    assert call.right == FreeModuleArg("T", 2)
    # `**` renames both factors' variables, so `a` is unknown in T.
    assert "unknown variable 'a'" in execute_text(text)[0].error
    # The same script over T's own names runs.  By hand: F sends a to
    # t^2, so V = image F is QQ[a] (t^2 satisfies no relation) and
    # T = QQ[a1, a2], a domain.  There J = (a1) is principal, so J is
    # isomorphic to T, free of rank 1: J is flat at every point, and
    # Tor_1 of J against any module, free(T, 2) too, is 0.
    report, env = execute_text(text.replace("(a)", "(a1)"))
    T = env["T"]
    assert T.signature.variables == ("a1", "a2") and not T.is_quotient
    assert report.status == 0 and report.error is None
    [flat] = report.assertions
    assert flat.description == "flat(J at (a1))" and flat.passed
    assert report.prints == ["J = ideal(a1)", "tor(1, J, free(T, 2)): Tor_1 = 0"]


def test_pretty_round_trip():
    script = parse_script(NEG2)
    text = pretty_script(script)
    assert parse_script(text) == script
    assert pretty_script(parse_script(text)) == text


def test_pretty_round_trip_all_statement_forms():
    text = (
        "ring R = QQ[x,y];\n"
        "ring Q = QQ[z] / (z^2);\n"
        "ring T = R ** Q;\n"
        "map F : R -> Q = {z, 1/2*z};\n"
        "ring V = image F;\n"
        "ideal J = (x - y) in R;\n"
        "module M = R^2 / ((x, y), (0, x^2));\n"
        "assert tor(2, M, free(R, 1)) == 0;\n"
        "assert flat(J at (x, y));\n"
        "print M;\n"
        "print flat(J at (x, y));\n"
    )
    script = parse_script(text)
    assert parse_script(pretty_script(script)) == script


def test_reserved_words_rejected():
    with pytest.raises(ParseError):
        parse_script("ring R = QQ[ring];")
    with pytest.raises(ParseError):
        parse_script("ring R = QQ[x, x];")
    # every declared name is refused at its own token
    for text, col in [
        ("ring QQ = QQ[x];", 6),
        ("ideal tor = (x) in R;", 7),
        ("ideal free = (x) in R;", 7),
        ("module flat = R^1 / ();", 8),
        ("map image : R -> R = {x};", 5),
    ]:
        with pytest.raises(ParseError, match=f"line 1, col {col}: .* is a reserved"):
            parse_script(text)


def test_end_of_input_is_named():
    report, _ = execute_text(NEG2.replace("!= 0;\n", ""))
    assert report.status == 2
    assert report.error.endswith("expected '==' or '!=', found 'end of input'")


def test_module_rank_bound():
    script = parse_script(f"ring R = QQ[x];\nmodule M = R^{MAX_RANK} / ();")
    assert script.statements[1].rank == MAX_RANK
    with pytest.raises(ParseError, match="line 2, col 14: rank larger than"):
        parse_script(f"ring R = QQ[x];\nmodule M = R^{MAX_RANK + 1} / ();")


def test_tor_index_bound(tmp_path, capsys):
    """Over the cone ring a resolution never ends, so each index costs a
    syzygy step: a large index is refused before any of them is taken."""
    report, _ = execute_text(NEG2.replace("tor(1,", f"tor({MAX_INDEX},"))
    assert report.status == 0 and report.assertions[0].actual == "nonzero"
    path = tmp_path / "neg2.fc"
    path.write_text(NEG2, encoding="utf-8")
    start = time.perf_counter()
    report, _ = execute_text(NEG2.replace("tor(1,", "tor(3000,"))
    assert main(["tor", str(path), "3000", "J", "K"]) == 2
    assert time.perf_counter() - start < 1.0
    assert report.status == 2
    assert report.error.endswith(f"Tor index larger than {MAX_INDEX}")
    assert capsys.readouterr().err.endswith(f"Tor index larger than {MAX_INDEX}\n")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_script("ring R = QQ[x x];")
    assert "line 1" in str(err.value) and "col 15" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_script("ideal J = (x) in R")  # missing semicolon
    assert "';'" in str(err.value)


def test_execute_neg2():
    report, env = execute_text(NEG2)
    assert report.status == 0
    assert len(report.assertions) == 1
    record = report.assertions[0]
    assert record.label == "assert@4"
    assert record.expected == "nonzero" and record.actual == "nonzero"
    assert record.passed and record.seconds >= 0
    assert "R" in env and "J" in env and "K" in env


def test_execute_free_module_assertion():
    text = NEG2.replace(
        "assert tor(1, J, K) != 0;", "assert tor(1, free(R, 1), K) == 0;"
    )
    report, _ = execute_text(text)
    assert report.status == 0


def test_execute_assertion_failure_continues():
    text = NEG2 + "assert tor(1, J, K) == 0;\nprint K;\n"
    report, _ = execute_text(text)
    assert report.status == 1
    assert [a.passed for a in report.assertions] == [True, False]
    assert report.prints  # the trailing print still ran


def test_execute_parse_error_status():
    report, _ = execute_text("ring R = QQ[x x];")
    assert report.status == 2
    assert "col 15" in report.error


def test_execute_undeclared_name_status():
    report, _ = execute_text("ideal J = (x) in R;")
    assert report.status == 3
    assert "line 1" in report.error


def test_execute_unknown_variable_is_parse_error():
    report, _ = execute_text("ring R = QQ[x];\nideal J = (y) in R;")
    assert report.status == 2
    assert "line 2" in report.error


def test_execute_wrong_row_length():
    report, _ = execute_text("ring R = QQ[x];\nmodule M = R^2 / ((x));")
    assert report.status == 3


def test_execute_ill_defined_map():
    text = "ring R = QQ[x] / (x^2);\nring S = QQ[t];\nmap F : R -> S = {t};\n"
    report, _ = execute_text(text)
    assert report.status == 3


def test_execute_print_forms():
    text = (
        "ring R = QQ[x,y];\n"
        "ideal J = (x) in R;\n"
        "module K = R^1 / ((y));\n"
        "print R;\n"
        "print tor(1, J, K);\n"
        "print flat(J at (x, y));\n"
    )
    report, _ = execute_text(text)
    assert report.status == 0
    assert report.prints[0] == "R = QQ[x,y]"
    assert report.prints[1] == "tor(1, J, K): Tor_1 = 0"
    assert report.prints[2] == "flat(J at (x, y)): flat"


def test_interpreter_order_flag():
    interp = Interpreter(fc.LEX)
    script = parse_script("ring R = QQ[x,y];")
    interp.execute(script)
    assert interp.env["R"].signature.order == fc.LEX


def test_run_script_reads_file(tmp_path):
    path = tmp_path / "case.fc"
    path.write_text(NEG2, encoding="utf-8")
    report = run_script(str(path))
    assert report.status == 0


def test_resolve_tor_argument():
    _, env = execute_text(NEG2)
    assert resolve_tor_argument("J", env) is env["J"]
    free = resolve_tor_argument("free(R, 2)", env)
    assert free.rank == 2 and free.ring == env["R"]
    assert resolve_tor_argument(f"free(R, {MAX_RANK})", env).rank == MAX_RANK
    with pytest.raises(ParseError, match=f"col 9: rank larger than {MAX_RANK}"):
        resolve_tor_argument(f"free(R, {MAX_RANK + 1})", env)
    with pytest.raises(ParseError):
        resolve_tor_argument("J K", env)
    with pytest.raises(fc.ArgumentError, match="undeclared"):
        resolve_tor_argument("Z", env)
    with pytest.raises(fc.ArgumentError, match="not an ideal or module"):
        resolve_tor_argument("R", env)


def test_long_and_deep_expressions_in_scripts():
    long_sum = " + ".join(["x"] * 3000)
    report, env = execute_text(
        f"ring R = QQ[x];\nideal J = ({long_sum}) in R;\nprint J;\n"
    )
    assert report.status == 0
    assert env["J"].generators == (fc.poly("3000*x", env["R"]),)
    deep = "(" * 2000 + "x" + ")" * 2000
    report, _ = execute_text(f"ring R = QQ[x];\nideal J = ({deep}) in R;\n")
    assert report.status == 2
    assert "line 2" in report.error and "nested" in report.error
