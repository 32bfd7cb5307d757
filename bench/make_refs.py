"""Regenerate bench/refs/ideal_gb.json from sympy's `groebner`.

The ideal-gb references are independent of flatcert: each basis is
computed by sympy and normalised here to be monic in the active monomial
order.  sympy returns primitive integer polynomials, and `Poly.monic()`
divides by the lex leading coefficient, so the leading term is taken
from `Poly.terms(order=...)` instead.

Run from the repository root (takes a few seconds):

    python3 bench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import sympy

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import GB_SYSTEMS  # noqa: E402

OUT = Path(__file__).resolve().parent / "refs" / "ideal_gb.json"


def monic_terms(poly: sympy.Poly, order: str) -> list:
    terms = poly.terms(order=order)
    lead = Fraction(int(terms[0][1].p), int(terms[0][1].q))
    return sorted(
        [list(m), str(Fraction(int(c.p), int(c.q)) / lead)] for m, c in terms
    )


def main() -> int:
    bases = {}
    for op, order, (variables, equations) in GB_SYSTEMS:
        gens = sympy.symbols(variables)
        exprs = [sympy.sympify(eq.replace("^", "**")) for eq in equations]
        basis = sympy.groebner(exprs, *gens, order=order)
        bases[op] = sorted(monic_terms(p, order) for p in basis.polys)
    source = (
        f"sympy {sympy.__version__} groebner, made monic by the leading "
        "coefficient in the active order"
    )
    # One basis element per line keeps the file small and diffable.
    blocks = []
    for op, basis in bases.items():
        elements = ",\n".join(f"   {json.dumps(g, separators=(',', ':'))}" for g in basis)
        blocks.append(f"  {json.dumps(op)}: [\n{elements}\n  ]")
    OUT.write_text(
        "{\n"
        f' "source": {json.dumps(source)},\n'
        ' "bases": {\n' + ",\n".join(blocks) + "\n }\n}\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
