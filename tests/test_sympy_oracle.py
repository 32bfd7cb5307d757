"""Reduced Groebner bases checked against sympy's `groebner`.

sympy returns primitive integer polynomials, so each of its basis
elements is divided by its leading coefficient in the active order before
the comparison; reduced bases are unique, so the two must then agree.
"""

import random

import pytest

import flatcert as fc
from flatcert import RingSignature, reduced_basis
from helpers import basis_set, random_poly, sympy_reduced_basis, to_sympy

sympy = pytest.importorskip("sympy")


@pytest.mark.parametrize("order", [fc.GREVLEX, fc.LEX])
@pytest.mark.parametrize("seed", range(10))
def test_random_ideals_match_sympy(order, seed):
    rng = random.Random(f"{order}:{seed}")
    names = ("x", "y", "z", "w")[: rng.randint(2, 4)]
    sig = RingSignature(names, order)
    count = rng.randint(2, 3)
    gens = [random_poly(rng, sig, max_deg=3, max_terms=3) for _ in range(count)]
    gens = [g for g in gens if not g.is_zero()]
    symbols = sympy.symbols(names)
    expected = sympy_reduced_basis([to_sympy(g, symbols) for g in gens], symbols, order)
    assert basis_set(reduced_basis(gens)) == expected


def test_elimination_part_matches_sympy():
    # graph of (u, v) -> (u^2 + v, u*v, v^2 - u); eliminate u, v
    sig = RingSignature(("u", "v", "x", "y", "z"), fc.BLOCK, block=2)
    gens = [
        fc.parse_polynomial(text, sig)
        for text in ("x - u^2 - v", "y - u*v", "z - v^2 + u")
    ]
    eliminated = [
        b for b in reduced_basis(gens) if all(m[:2] == (0, 0) for m in b.terms)
    ]
    assert eliminated
    symbols = sympy.symbols(sig.variables)
    lex = sympy.groebner([to_sympy(g, symbols) for g in gens], *symbols, order="lex")
    u, v = symbols[:2]
    kept = [p for p in lex.exprs if not p.has(u, v)]
    expected = sympy_reduced_basis(kept, symbols[2:], "grevlex")
    assert basis_set(eliminated, drop=2) == expected
