"""Reduced Groebner bases checked against sympy's `groebner`.

sympy returns primitive integer polynomials, so each of its basis
elements is divided by its leading coefficient in the active order before
the comparison; reduced bases are unique, so the two must then agree.
"""

import random
from fractions import Fraction

import pytest

import flatcert as fc
from flatcert import RingSignature, reduced_basis
from helpers import random_poly

sympy = pytest.importorskip("sympy")


def _to_sympy(p, gens):
    return sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(g**e for g, e in zip(gens, m)))
        for m, c in p.terms.items()
    )


def _sympy_basis(exprs, gens, order):
    """sympy's reduced basis as a set of monic term maps in `order`."""
    out = set()
    for p in sympy.groebner(exprs, *gens, order=order).polys:
        terms = p.terms(order=order)
        lc = Fraction(int(terms[0][1].p), int(terms[0][1].q))
        out.add(
            frozenset(
                (m, Fraction(int(c.p), int(c.q)) / lc) for m, c in terms
            )
        )
    return out


def _basis_set(basis, drop=0):
    return {frozenset((m[drop:], c) for m, c in b.terms.items()) for b in basis}


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
    expected = _sympy_basis([_to_sympy(g, symbols) for g in gens], symbols, order)
    assert _basis_set(reduced_basis(gens)) == expected


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
    lex = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols, order="lex")
    u, v = symbols[:2]
    kept = [p for p in lex.exprs if not p.has(u, v)]
    expected = _sympy_basis(kept, symbols[2:], "grevlex")
    assert _basis_set(eliminated, drop=2) == expected
