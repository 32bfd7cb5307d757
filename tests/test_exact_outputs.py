"""Exact CLI outputs that performance work must not move.

`tests/data/exact_outputs_golden.txt` holds, under grevlex and lex, the
`flatcert tor` witness text of francia `tor(2, J, L)` and neg2
`tor(3, J, K)`, and the `flatcert gb` basis of every ideal declared in
every bundled case.  The test compares it byte for byte.  After a change
that is meant to move these outputs, regenerate the file with

    PYTHONPATH=src python3 tests/test_exact_outputs.py

and say in the change why they moved.
"""

import contextlib
import io
from importlib import resources
from pathlib import Path

from flatcert import GREVLEX, IdealHandle, LEX
from flatcert.cli import REPRO_CHECKS, bundled_case_text, main
from flatcert.script import execute_text

GOLDEN = Path(__file__).resolve().parent / "data" / "exact_outputs_golden.txt"

TOR_QUERIES = (
    ("francia.fc", "2", "J", "L"),
    ("neg2_graph.fc", "3", "J", "K"),
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


def test_exact_outputs_match_golden():
    assert exact_outputs() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(exact_outputs(), encoding="utf-8")
