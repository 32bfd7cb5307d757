"""The benchmark's workloads: inputs derived from a seed, the set-up that
builds them, and the timed section that computes the verdicts or bases.

Each workload is a list of operations.  An operation yields one output
that is checked against a reference: one repro check row, one Tor
verdict, or one reduced Groebner basis.

This module imports only the standard library at load time; `flatcert`
is imported inside `setup`, so a worker pays for that import inside its
measured set-up time, as a `flatcert` CLI invocation does.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("repro", "tor-deep", "ideal-gb")

# repro: the six bundled checks, in the CLI's report order.
REPRO_CHECK_COUNT = 6

# tor-deep: (operation id, bundled case, Tor index, left name, right name).
TOR_CALLS = (
    ("francia-tor2", "francia.fc", 2, "J", "L"),
    ("neg2-tor3", "neg2_graph.fc", 3, "J", "K"),
)


def cyclic(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Variables and equations of the cyclic-n system."""
    xs = tuple(f"x{i}" for i in range(n))
    eqs = []
    for k in range(1, n):
        terms = ("*".join(xs[(i + j) % n] for j in range(k)) for i in range(n))
        eqs.append(" + ".join(terms))
    eqs.append("*".join(xs) + " - 1")
    return xs, tuple(eqs)


def katsura(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Variables and equations of the katsura-n system (n + 1 variables)."""
    xs = tuple(f"x{i}" for i in range(n + 1))
    eqs = [" + ".join((xs[0],) + tuple(f"2*{x}" for x in xs[1:])) + " - 1"]
    for m in range(n):
        terms = [
            f"{xs[abs(l)]}*{xs[abs(m - l)]}"
            for l in range(-n, n + 1)
            if abs(m - l) <= n
        ]
        eqs.append(" + ".join(terms) + f" - {xs[m]}")
    return xs, tuple(eqs)


# ideal-gb: (operation id, monomial order, (variables, equations)).  The
# lex systems are small on purpose: cyclic-5 and katsura-4/5 under lex do
# not finish in usable time.
GB_SYSTEMS = (
    ("cyclic-5/grevlex", "grevlex", cyclic(5)),
    ("katsura-4/grevlex", "grevlex", katsura(4)),
    ("katsura-5/grevlex", "grevlex", katsura(5)),
    ("cyclic-4/lex", "lex", cyclic(4)),
    ("katsura-3/lex", "lex", katsura(3)),
)


def plan(workload: str, seed: int) -> dict:
    """The inputs a seed selects, as plain data.

    repro has no free input: the CLI fixes its cases and their order.
    tor-deep runs its calls in a seeded order.  ideal-gb runs its systems
    in a seeded order and multiplies every generator by a seeded nonzero
    rational; the reduced basis is unique, so the reference is the same
    for every seed while the input the program sees differs.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "repro":
        return {}
    if workload == "tor-deep":
        order = [op for op, *_ in TOR_CALLS]
        rng.shuffle(order)
        return {"order": order}
    if workload == "ideal-gb":
        order = [op for op, _, _ in GB_SYSTEMS]
        rng.shuffle(order)
        scales = {
            op: [
                str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
                for _ in eqs
            ]
            for op, _, (_, eqs) in GB_SYSTEMS
        }
        return {"order": order, "scales": scales}
    raise ValueError(f"unknown workload {workload!r}")


def operation_count(workload: str) -> int:
    """Checked outputs per sample."""
    return {
        "repro": REPRO_CHECK_COUNT,
        "tor-deep": len(TOR_CALLS),
        "ideal-gb": len(GB_SYSTEMS),
    }[workload]


def setup(workload: str, inputs: dict) -> list:
    """Build the workload's inputs; return the timed section as a list of
    (operation id, thunk) pairs in run order."""
    if workload == "repro":
        from flatcert.cli import repro_suite

        return [("repro", repro_suite)]
    if workload == "tor-deep":
        return _setup_tor(inputs["order"])
    if workload == "ideal-gb":
        return _setup_gb(inputs["order"], inputs["scales"])
    raise ValueError(f"unknown workload {workload!r}")


def _setup_tor(order: list[str]) -> list:
    from flatcert.cli import bundled_case_text
    from flatcert.homology import tor
    from flatcert.script import (
        AssertFlat,
        AssertTor,
        Interpreter,
        PrintStmt,
        Script,
        parse_script,
    )

    envs = {}
    for filename in sorted({case for _, case, *_ in TOR_CALLS}):
        script = parse_script(bundled_case_text(filename))
        declarations = tuple(
            stmt
            for stmt in script.statements
            if not isinstance(stmt, (AssertTor, AssertFlat, PrintStmt))
        )
        interpreter = Interpreter()
        report = interpreter.execute(Script(declarations))
        if report.status != 0:
            raise RuntimeError(f"{filename}: {report.error}")
        envs[filename] = interpreter.env
    calls = {op: (case, i, a, b) for op, case, i, a, b in TOR_CALLS}
    thunks = []
    for op in order:
        case, i, left, right = calls[op]
        env = envs[case]
        thunks.append((op, lambda i=i, m=env[left], n=env[right]: tor(i, m, n)))
    return thunks


def _setup_gb(order: list[str], scales: dict[str, list[str]]) -> list:
    from flatcert.groebner import reduced_basis
    from flatcert.parse import parse_polynomial
    from flatcert.poly import RingSignature

    systems = {op: (o, system) for op, o, system in GB_SYSTEMS}
    thunks = []
    for op in order:
        monomial_order, (variables, equations) = systems[op]
        sig = RingSignature(variables, monomial_order)
        gens = [
            parse_polynomial(eq, sig).scale(Fraction(c))
            for eq, c in zip(equations, scales[op])
        ]
        thunks.append((op, lambda gens=gens: reduced_basis(gens)))
    return thunks


def serialize(workload: str, result) -> object:
    """A JSON-ready form of one timed result, made outside the timed
    section."""
    if workload == "repro":
        from flatcert.cli import format_repro_table, strip_timing_column

        return strip_timing_column(format_repro_table(result))
    if workload == "tor-deep":
        return "zero" if result.is_zero else "nonzero"
    if workload == "ideal-gb":
        return [
            sorted([list(m), str(c)] for m, c in g.terms.items()) for g in result
        ]
    raise ValueError(f"unknown workload {workload!r}")
