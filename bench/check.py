"""References and output checks for the benchmark's workloads.

repro: the timing-stripped table must equal tests/data/repro_golden.txt
byte for byte.  tor-deep: each verdict must equal refs/tor_deep.json,
whose `source` field records where each value came from.  ideal-gb: each
basis, as a set of {exponent tuple: Fraction} maps, must equal the sympy
basis in refs/ideal_gb.json (see make_refs.py).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import workloads

REFS = Path(__file__).resolve().parent / "refs"
GOLDEN = Path("tests") / "data" / "repro_golden.txt"

# Column slice of the verdict in a timing-stripped repro row: the table's
# widths are 16 (check), 11 (expected), 11 (actual), 8 (status).
_ACTUAL = slice(27, 38)


def load_references(root: Path) -> dict:
    """Reference outputs per workload, keyed by operation id."""
    golden = (root / GOLDEN).read_text("utf-8")
    tor_ref = json.loads((REFS / "tor_deep.json").read_text("utf-8"))
    gb_ref = json.loads((REFS / "ideal_gb.json").read_text("utf-8"))
    return {
        "repro": {"repro": golden},
        "tor-deep": tor_ref["verdicts"],
        "ideal-gb": {op: _basis_set(b) for op, b in gb_ref["bases"].items()},
    }


def _basis_set(basis: list) -> frozenset:
    return frozenset(
        frozenset((tuple(m), Fraction(c)) for m, c in element) for element in basis
    )


def failures(workload: str, outputs: list[dict], references: dict) -> list[str]:
    """One message per failed operation of a sample; empty when every
    output matches its reference.  A repro sample holds six operations,
    one per check row."""
    refs = references[workload]
    messages = []
    for item in outputs:
        op = item["op"]
        if "error" in item:
            count = workloads.REPRO_CHECK_COUNT if workload == "repro" else 1
            messages += [f"{op}: {item['error']}"] * count
        elif workload == "repro":
            messages += _repro_failures(item["output"], refs["repro"])
        elif workload == "tor-deep" and item["output"] != refs[op]:
            messages.append(f"{op}: verdict {item['output']}, expected {refs[op]}")
        elif workload == "ideal-gb" and _basis_set(item["output"]) != refs[op]:
            messages.append(f"{op}: basis differs from the sympy reference")
    return messages


def _repro_failures(table: str, golden: str) -> list[str]:
    if table == golden:
        return []
    got, want = table.splitlines(), golden.splitlines()
    rows = range(1, 1 + workloads.REPRO_CHECK_COUNT)
    bad = [
        f"repro row {i}: {got[i] if i < len(got) else ''!r}"
        for i in rows
        if i >= len(got) or got[i] != want[i]
    ]
    # A table that differs only outside the check rows fails as a whole.
    return bad or ["repro: table differs from the golden file"] * len(rows)


def corrupt(workload: str, outputs: list[dict]) -> list[dict]:
    """Outputs with every operation's result damaged: one coefficient of
    each basis changed, each verdict flipped.  Used by the self-test."""
    damaged = []
    for item in outputs:
        item = dict(item)
        if "output" in item:
            if workload == "repro":
                lines = item["output"].splitlines()
                for i in range(1, 1 + workloads.REPRO_CHECK_COUNT):
                    line = lines[i].ljust(_ACTUAL.stop)
                    actual = _flip(line[_ACTUAL].strip()).ljust(_ACTUAL.stop - _ACTUAL.start)
                    lines[i] = (line[: _ACTUAL.start] + actual + line[_ACTUAL.stop :]).rstrip()
                item["output"] = "\n".join(lines) + "\n"
            elif workload == "tor-deep":
                item["output"] = _flip(item["output"])
            elif workload == "ideal-gb":
                basis = [list(element) for element in item["output"]]
                mono, coeff = basis[0][0]
                basis[0][0] = [mono, str(Fraction(coeff) + 1)]
                item["output"] = basis
        damaged.append(item)
    return damaged


def _flip(verdict: str) -> str:
    return "zero" if verdict == "nonzero" else "nonzero"
