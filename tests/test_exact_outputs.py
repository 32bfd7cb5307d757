"""Exact CLI outputs that performance work must not move.

`tests/data/exact_outputs_golden.txt` holds, under grevlex and lex, the
`flatcert tor` witness text of francia `tor(2, J, L)` and neg2
`tor(3, J, K)`, and the `flatcert gb` basis of every ideal declared in
every bundled case.  `tests/data/resolution_pins.txt` holds the
resolutions behind those witnesses: for francia `J` to d3 and neg2-graph
`J` to d4, under grevlex and lex, the ranks and a sha256 of each printed
differential.  `tests/data/engine_pins.txt` pins the module engine on
every bundled Tor and flat assertion, the two deep queries and
`tor(4, k, k)` over the cone on the Veronese surface of degree 2 (six
quadric relations), under grevlex and lex, each in a fresh
environment: for each run of
`syzygy_entries`, `kernel_generators` and `capped_step` (`cap`, a
Schreyer step built only below its frame floor), in call order, the
number of `_vp_normal_form` calls the run makes and a sha256 of its
printed output, and for each table that `homology_witnesses` builds (`tab`
lines, the image's and, when the homology is nonzero, that of kernel +
image) the number of `_vp_normal_form` calls its build makes.  Each
query's witnesses are read before the count ends, since a `tor` report
builds the kernel + image table on that first read.  A ring's
defining table is built before the run it would otherwise be built in,
so its normal forms are not counted.  An engine change that keeps every
S-pair and reducer choice leaves this file unchanged.  The tests compare
all three files byte for byte, each built in a child process under
`helpers.run_with_deadline`, so an engine that loops fails instead of
stalling the suite.  After a
change that is meant to move these outputs, regenerate them with

    PYTHONPATH=src python3 tests/test_exact_outputs.py

and say in the change why they moved.  With `--check` the script writes
nothing: it prints a unified diff of each file against the current
outputs and exits 1 when any differs, 0 when all match.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import sys
from importlib import resources
from pathlib import Path

import flatcert.homology as homology
import flatcert.modules as modules
from flatcert import (
    GREVLEX,
    IdealHandle,
    LEX,
    PointSpec,
    PolyMatrix,
    flat_at_point,
    free_resolution,
    tor,
)
from flatcert.cli import REPRO_CHECKS, bundled_case_text, main
from flatcert.parse import to_polynomial
from flatcert.script import AssertFlat, AssertTor, execute_text, parse_script
from helpers import run_with_deadline

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "exact_outputs_golden.txt"
RESOLUTION_PINS = DATA / "resolution_pins.txt"
ENGINE_PINS = DATA / "engine_pins.txt"

TOR_QUERIES = (
    ("francia.fc", "2", "J", "L"),
    ("neg2_graph.fc", "3", "J", "K"),
)

# (case, module, number of differentials) of each pinned resolution.
RESOLUTIONS = (
    ("francia.fc", "J", 3),
    ("neg2_graph.fc", "J", 4),
)


def _case_path(filename: str) -> str:
    return str(resources.files("flatcert").joinpath("cases", filename))


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return f"[exit {status}]\n{out.getvalue()}"


def exact_outputs() -> str:
    """Every pinned CLI output, one headed block per command."""
    blocks = []
    for order in (GREVLEX, LEX):
        for filename, index, left, right in TOR_QUERIES:
            argv = ["tor", "--order", order, _case_path(filename), index, left, right]
            blocks.append((f"tor --order {order} {filename} {index} {left} {right}", argv))
        for filename, _ in REPRO_CHECKS:
            _, env = execute_text(bundled_case_text(filename), order)
            for name, obj in env.items():
                if isinstance(obj, IdealHandle):
                    argv = ["gb", "--order", order, _case_path(filename), name]
                    blocks.append((f"gb --order {order} {filename} {name}", argv))
    return "".join(f"== {title}\n{_cli(argv)}" for title, argv in blocks)


def _digest(columns) -> str:
    """The sha256 of the columns as text: one line per column, entries
    printed."""
    text = "".join("(" + ", ".join(str(e) for e in col) + ")\n" for col in columns)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def resolution_pins() -> str:
    """The ranks and each differential's sha256 of every pinned resolution."""
    lines = []
    for order in (GREVLEX, LEX):
        for filename, name, length in RESOLUTIONS:
            text = bundled_case_text(filename)
            _, env = execute_text(text, order, declarations_only=True)
            res = free_resolution(env[name], length)
            ranks = " ".join(map(str, res.ranks))
            lines.append(f"== {order} {filename} {name} ranks {ranks}")
            for k, d in enumerate(res.differentials, start=1):
                lines.append(f"d{k} {d.nrows}x{d.ncols} {_digest(d.columns)}")
    return "".join(line + "\n" for line in lines)


def _engine_queries(filename: str):
    """(title, query) of each bundled tor and flat assertion of a case
    and of its deep query: a (index, left, right) tuple or a `FlatCall`."""
    text = bundled_case_text(filename)
    statements = [
        stmt
        for stmt in parse_script(text).statements
        if isinstance(stmt, (AssertTor, AssertFlat))
    ]
    for stmt in statements:
        if isinstance(stmt, AssertTor):
            c = stmt.call
            yield f"tor {c.index} {c.left} {c.right}", (c.index, c.left, c.right)
        else:
            yield f"flat {stmt.call.name}", stmt.call
    for query_file, index, left, right in TOR_QUERIES:
        if query_file == filename:
            yield f"tor {index} {left} {right}", (int(index), left, right)


# The cone on the degree-2 Veronese surface, V = QQ[e^2, ..., h^2], and
# its residue field k: a quotient ring of six quadrics.
VERONESE = """\
ring R = QQ[m0, m1, m2, m3, m4, m5];
ring S = QQ[e, g, h];
map F : R -> S = {e^2, e*g, e*h, g^2, g*h, h^2};
ring V = image F;
module k = V^1 / ((m0), (m1), (m2), (m3), (m4), (m5));
"""


def _engine_runs(text: str, order: str, query) -> list[str]:
    """One line per `_syzygies` run and capped step of the query over a
    fresh environment: its kind, shape, normal-form count and the sha256
    of its printed output; and one per table that `homology_witnesses` builds:
    its rank, column count and the normal-form count of its build."""
    _, env = execute_text(text, order, declarations_only=True)
    lines: list[str] = []
    calls = [0]
    real_nf, real_syzygies = modules._vp_normal_form, modules._syzygies
    real_table, real_capped = homology.MembershipBasis, homology.capped_step

    def counted_nf(*args):
        calls[0] += 1
        return real_nf(*args)

    def counted_run(kind, ring, shape, run):
        if ring.is_quotient:
            ring.defining_basis()  # its table's normal forms are not counted
        calls[0] = 0
        out = run()
        if out is not None:
            step = out[0] if kind == "cap" else out
            lines.append(f"{kind} {shape} nf {calls[0]} {_digest(step)}")
        return out

    def counted_syzygies(columns, nrows, ring, extra_relations, generators):
        return counted_run(
            "ker" if generators else "syz",
            ring,
            f"{nrows}x{len(columns)}+{len(extra_relations)}",
            lambda: real_syzygies(columns, nrows, ring, extra_relations, generators),
        )

    def counted_capped(matrix, weights, degrees):
        return counted_run(
            "cap",
            matrix.ring,
            f"{matrix.nrows}x{matrix.ncols}+0",
            lambda: real_capped(matrix, weights, degrees),
        )

    def counted_table(ring, rank, columns):
        if ring.is_quotient:
            ring.defining_basis()  # as above
        calls[0] = 0
        table = real_table(ring, rank, columns)
        ncols = columns.ncols if isinstance(columns, PolyMatrix) else len(columns)
        lines.append(f"tab {rank}x{ncols} nf {calls[0]}")
        return table

    modules._vp_normal_form, modules._syzygies = counted_nf, counted_syzygies
    homology.MembershipBasis, homology.capped_step = counted_table, counted_capped
    try:
        if isinstance(query, tuple):
            index, left, right = query
            report = tor(index, env[left], env[right])
        else:
            M = env[query.name]
            gens = [to_polynomial(e, M.ring.signature) for e in query.point]
            point = PointSpec(M.ring, IdealHandle(M.ring, gens))
            report = flat_at_point(M, point).tor_witness
        # A nonzero report builds its witnesses, and so its span table,
        # on first read: read them here, while the engine is counted.
        report.witness_generators
    finally:
        modules._vp_normal_form, modules._syzygies = real_nf, real_syzygies
        homology.MembershipBasis, homology.capped_step = real_table, real_capped
    return lines


def engine_pins() -> str:
    """The engine runs of every bundled tor and flat assertion, of the
    deep queries and of the Veronese `tor(4, k, k)`, under grevlex and
    lex."""
    lines = []
    for order in (GREVLEX, LEX):
        for filename, _ in REPRO_CHECKS:
            text = bundled_case_text(filename)
            for title, query in _engine_queries(filename):
                lines.append(f"== {order} {filename} {title}")
                lines.extend(_engine_runs(text, order, query))
    for order in (GREVLEX, LEX):
        lines.append(f"== {order} veronese-2 tor 4 k k")
        lines.extend(_engine_runs(VERONESE, order, (4, "k", "k")))
    return "".join(line + "\n" for line in lines)


# Each pin set takes seconds; the deadline turns an engine that loops
# into a failure instead of a stalled suite.
DEADLINE = 120


def test_exact_outputs_match_golden():
    got = run_with_deadline(DEADLINE, exact_outputs)
    assert got == GOLDEN.read_text(encoding="utf-8")


def test_resolutions_match_pins():
    got = run_with_deadline(DEADLINE, resolution_pins)
    assert got == RESOLUTION_PINS.read_text(encoding="utf-8")


def test_engine_runs_match_pins():
    got = run_with_deadline(DEADLINE, engine_pins)
    assert got == ENGINE_PINS.read_text(encoding="utf-8")


def regenerate(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden files.")
    parser.add_argument(
        "--check", action="store_true", help="print a diff and write nothing"
    )
    args = parser.parse_args(argv)
    differs = False
    files = (
        (GOLDEN, exact_outputs()),
        (RESOLUTION_PINS, resolution_pins()),
        (ENGINE_PINS, engine_pins()),
    )
    for path, text in files:
        if not args.check:
            path.write_text(text, encoding="utf-8")
            continue
        old = path.read_text(encoding="utf-8")
        sys.stdout.writelines(
            difflib.unified_diff(
                old.splitlines(True), text.splitlines(True), path.name, "now"
            )
        )
        differs |= old != text
    return int(differs)


def test_check_prints_a_diff_and_writes_nothing(tmp_path, monkeypatch, capsys):
    module = sys.modules[__name__]
    golden, pins = tmp_path / "golden.txt", tmp_path / "pins.txt"
    engine = tmp_path / "engine.txt"
    golden.write_text("same\n", encoding="utf-8")
    pins.write_text("old\n", encoding="utf-8")
    engine.write_text("same\n", encoding="utf-8")
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(module, "RESOLUTION_PINS", pins)
    monkeypatch.setattr(module, "ENGINE_PINS", engine)
    monkeypatch.setattr(module, "exact_outputs", lambda: "same\n")
    monkeypatch.setattr(module, "resolution_pins", lambda: "new\n")
    monkeypatch.setattr(module, "engine_pins", lambda: "same\n")
    assert regenerate(["--check"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == ["-old", "+new"]
    assert pins.read_text(encoding="utf-8") == "old\n"
    monkeypatch.setattr(module, "resolution_pins", lambda: "old\n")
    assert regenerate(["--check"]) == 0
    assert capsys.readouterr().out == ""
    assert regenerate([]) == 0
    assert pins.read_text(encoding="utf-8") == "old\n"


if __name__ == "__main__":
    sys.exit(regenerate())
