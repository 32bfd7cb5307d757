"""Lex bases of the classic benchmark systems finish, and are right.

The engine picks S-pairs by sugar (Giovini, Mora, Niesi, Robbiano and
Traverso, 1991).  Selection by lcm degree alone ran cyclic-5 under lex
for minutes; with sugar it takes well under a second.  Every engine call
here runs in a child process under `helpers.run_with_deadline`, so a
selection strategy that stops finishing fails these tests instead of
stalling the suite.

cyclic-5's basis is checked by the package's own oracles: reduced,
Buchberger's S-pair criterion through `groebner.divide` (which the
arithmetic tests verify independently), and every input dividing to
zero.  katsura-3 and cyclic-4 are compared with sympy's reduced basis.
"""

import pytest

from flatcert import LEX, RingSignature, reduced_basis
from flatcert.groebner import divide
from flatcert.parse import parse_polynomial
from helpers import (
    basis_set,
    is_reduced_basis,
    run_with_deadline,
    spolynomial_certificate,
    sympy_reduced_basis,
    to_sympy,
)

DEADLINE = 30  # seconds; each basis takes well under one


def cyclic(n: int) -> tuple[tuple[str, ...], list[str]]:
    xs = tuple(f"x{i}" for i in range(n))
    eqs = [
        " + ".join("*".join(xs[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    return xs, eqs + ["*".join(xs) + " - 1"]


def katsura(n: int) -> tuple[tuple[str, ...], list[str]]:
    xs = tuple(f"x{i}" for i in range(n + 1))
    eqs = [" + ".join([xs[0]] + [f"2*{x}" for x in xs[1:]]) + " - 1"]
    for m in range(n):
        terms = [
            f"{xs[abs(k)]}*{xs[abs(m - k)]}"
            for k in range(-n, n + 1)
            if abs(m - k) <= n
        ]
        eqs.append(" + ".join(terms) + f" - {xs[m]}")
    return xs, eqs


def _generators(system):
    variables, equations = system
    sig = RingSignature(variables, LEX)
    return [parse_polynomial(e, sig) for e in equations]


def _cyclic5_checks() -> None:
    gens = _generators(cyclic(5))
    basis = reduced_basis(gens)
    assert len(basis) == 11
    assert is_reduced_basis(basis)
    assert spolynomial_certificate(basis, divide)
    assert all(divide(g, basis)[1].is_zero() for g in gens)


def _basis_set(system) -> set[frozenset]:
    return basis_set(reduced_basis(_generators(system)))


def test_cyclic5_lex_finishes_with_a_certified_basis():
    run_with_deadline(DEADLINE, _cyclic5_checks)


@pytest.mark.parametrize(
    "system", [katsura(3), cyclic(4)], ids=["katsura-3", "cyclic-4"]
)
def test_small_lex_systems_match_sympy(system):
    sympy = pytest.importorskip("sympy")
    got = run_with_deadline(DEADLINE, _basis_set, system)
    symbols = sympy.symbols(system[0])
    exprs = [to_sympy(g, symbols) for g in _generators(system)]
    assert got == sympy_reduced_basis(exprs, symbols, LEX)
