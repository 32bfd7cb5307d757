"""Exact CLI outputs that performance work must not move.

`tests/data/exact_outputs_golden.txt` holds, under grevlex and lex, the
`flatcert tor` witness text of francia `tor(2, J, L)` and neg2
`tor(3, J, K)`, and the `flatcert gb` basis of every ideal declared in
every bundled case.  `tests/data/resolution_pins.txt` holds the
resolutions behind those witnesses: for francia `J` to d3 and neg2-graph
`J` to d4, under grevlex and lex, the ranks and a sha256 of each printed
differential.  The tests compare both files byte for byte.  After a
change that is meant to move these outputs, regenerate both files with

    PYTHONPATH=src python3 tests/test_exact_outputs.py

and say in the change why they moved.  With `--check` the script writes
nothing: it prints a unified diff of each file against the current
outputs and exits 1 when either differs, 0 when both match.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import sys
from importlib import resources
from pathlib import Path

from flatcert import GREVLEX, IdealHandle, LEX, free_resolution
from flatcert.cli import REPRO_CHECKS, bundled_case_text, main
from flatcert.script import execute_text

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "exact_outputs_golden.txt"
RESOLUTION_PINS = DATA / "resolution_pins.txt"

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


def _printed(d) -> str:
    """A differential as text: one line per column, entries printed."""
    return "".join(
        "(" + ", ".join(str(e) for e in col) + ")\n" for col in d.columns
    )


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
                digest = hashlib.sha256(_printed(d).encode("utf-8")).hexdigest()
                lines.append(f"d{k} {d.nrows}x{d.ncols} {digest}")
    return "".join(line + "\n" for line in lines)


def test_exact_outputs_match_golden():
    assert exact_outputs() == GOLDEN.read_text(encoding="utf-8")


def test_resolutions_match_pins():
    assert resolution_pins() == RESOLUTION_PINS.read_text(encoding="utf-8")


def regenerate(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden files.")
    parser.add_argument(
        "--check", action="store_true", help="print a diff and write nothing"
    )
    args = parser.parse_args(argv)
    differs = False
    for path, text in ((GOLDEN, exact_outputs()), (RESOLUTION_PINS, resolution_pins())):
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
    golden.write_text("same\n", encoding="utf-8")
    pins.write_text("old\n", encoding="utf-8")
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(module, "RESOLUTION_PINS", pins)
    monkeypatch.setattr(module, "exact_outputs", lambda: "same\n")
    monkeypatch.setattr(module, "resolution_pins", lambda: "new\n")
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
