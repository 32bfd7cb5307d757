"""Coefficients and monomials at the boundary of the module engine.

Inside `modules` an integral coefficient is a Python int and any other a
`Fraction`; every polynomial that leaves the engine carries `Fraction`
coefficients.  An int that leaked out would print like the equal
`Fraction`, so no golden file can catch it.  These tests check the type
of every coefficient that the public entry points return, on seeded
columns at ranks 1-3 over QQ[x,y,z] and over the cone x*y - z^2.  No
lead coefficient is a unit and several coefficients are not integral,
so making an element monic divides through `Fraction`.  Inside the
engine a term is also one packed int; every polynomial built keys its
terms by tuples of exponents.  The values are checked too: syzygies
compose to zero in the ring, normal forms equal the remainder of
`divide` against the reduced basis, and at rank 1 the reduced basis
equals sympy's.  Sparse columns of rank 1-80 with at most three nonzero
entries, the shape of a tensored differential's columns, round-trip
through the packing with the same types and one shared zero.
"""

import random
from fractions import Fraction

import pytest

import flatcert as fc
from flatcert import (
    BLOCK,
    GREVLEX,
    LEX,
    MembershipBasis,
    PolyMatrix,
    Polynomial,
    PresentedModule,
    RingSignature,
    SubmodulePresentation,
    divide,
    module_reduced_gb,
    tor,
)
from flatcert.cli import bundled_case_text
from flatcert.modules import (
    _entries_from_vp,
    _packing,
    _vp_from_entries,
    syzygy_entries,
)
from flatcert.script import execute_text
from helpers import basis_set, monomials_up_to, sympy_reduced_basis, to_sympy

RANKS = (1, 2, 3)
SEEDS = range(3)
ORDERS = (GREVLEX, LEX)
RINGS = {"free": (), "cone": ("x*y - z^2",)}

# Non-unit coefficients, three of them not integral.
COEFFICIENTS = (Fraction(2, 3), -7, 5, Fraction(1, 2), Fraction(-3, 4), 4)
# Head entries: under both orders their lead coefficient is not a unit.
HEADS = ("2/3*x - 7*y", "5*x*y + 1/2", "-3/4*y*z + 2*x", "7/2*z^2 - 5*y")


def _case(seed, order, ring_name, rank):
    """A ring and two or three seeded columns of length `rank`; column j
    has its head entry at position j mod rank, zeros above it."""
    rng = random.Random(f"{seed}:{order}:{ring_name}:{rank}")
    R = fc.ring("x,y,z", RINGS[ring_name], order=order)
    monos = monomials_up_to(3, 2)

    def entry():
        terms = {rng.choice(monos): rng.choice(COEFFICIENTS) for _ in range(2)}
        return Polynomial(R.signature, terms)

    columns = []
    for j in range(rng.randint(2, 3)):
        head = j % rank
        column = [R.zero()] * head + [fc.poly(rng.choice(HEADS), R)]
        column += [entry() for _ in range(rank - head - 1)]
        columns.append(tuple(column))
    vectors = [tuple(entry() for _ in range(rank)) for _ in range(2)]
    return R, columns, vectors


CASES = [
    (seed, order, ring_name, rank)
    for seed in SEEDS
    for order in ORDERS
    for ring_name in RINGS
    for rank in RANKS
]


def _ids(case):
    return "-".join(map(str, case))


def _all_fractions(polys) -> bool:
    return all(type(c) is Fraction for p in polys for c in p.terms.values())


def _encoder(R, rank):
    """Vectors of R^rank as polynomials linear in new leading variables
    e0, e1, ...  Position over term becomes a monomial order: lex with
    the e's first for a lex ring, and for a grevlex ring a block order
    whose leading block is the e's.  `divide` then divides vectors."""
    sig = R.signature
    names = tuple(f"e{i}" for i in range(rank)) + sig.variables
    if sig.order == LEX:
        big = RingSignature(names, LEX)
    else:
        big = RingSignature(names, BLOCK, rank)

    def encode(entries):
        terms = {}
        for i, e in enumerate(entries):
            unit = tuple(int(k == i) for k in range(rank))
            terms.update((unit + m, c) for m, c in e.terms.items())
        return Polynomial(big, terms)

    return encode


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_membership_table_coefficients_and_normal_forms(case):
    R, columns, vectors = _case(*case)
    rank = case[3]
    table = MembershipBasis(R, rank, columns)
    reduced = table.reduced()
    assert all(_all_fractions(b) for b in reduced)
    encode = _encoder(R, rank)
    divisors = [encode(b) for b in reduced]
    for v in vectors + columns:
        nf = table.normal_form(v)
        assert _all_fractions(nf)
        assert encode(nf) == divide(encode(v), divisors)[1]
    for c in columns:
        assert all(e.is_zero() for e in table.normal_form(c))


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_syzygies_compose_to_zero_with_fraction_coefficients(case):
    R, columns, _ = _case(*case)
    rank = case[3]
    syzygies = syzygy_entries(columns, rank, R)
    for s in syzygies:
        assert _all_fractions(s)
        image = PolyMatrix(R, rank, columns).apply(s)
        # The cone's one defining generator is a Groebner basis by itself.
        assert all(divide(e, list(R.defining))[1].is_zero() for e in image)
    gb = module_reduced_gb(SubmodulePresentation(R, rank, columns))
    assert gb and all(_all_fractions(g.entries) for g in gb)


@pytest.mark.parametrize("case", [c for c in CASES if c[3] == 1], ids=_ids)
def test_rank_one_reduced_basis_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    R, columns, _ = _case(*case)
    symbols = sympy.symbols(R.signature.variables)
    gens = [c[0] for c in columns] + list(R.defining)
    expected = sympy_reduced_basis(
        [to_sympy(g, symbols) for g in gens], symbols, R.signature.order
    )
    reduced = MembershipBasis(R, 1, columns).reduced()
    assert basis_set(b[0] for b in reduced) == expected


@pytest.mark.parametrize(
    "case", [c for c in CASES if c[0] == 0 and c[2] == "cone"], ids=_ids
)
def test_tor_witnesses_carry_fractions(case):
    # Tor_1 vanishes on these cases.  M tensor N does not: M is a nonzero
    # submodule of a free module over a domain, and N is nonzero at the
    # origin.
    R, columns, _ = _case(*case)
    rank = case[3]
    x, y, z = (fc.poly(v, R) for v in "xyz")
    M = SubmodulePresentation(R, rank, columns)
    cyclic = PresentedModule.cyclic(R, [x, y, z])
    two = PresentedModule(R, 2, PolyMatrix(R, 2, [(x, R.zero()), (z, y)]))
    for N in (cyclic, two):
        report = tor(0, M, N)
        assert not report.is_zero
        assert all(_all_fractions(w.entries) for w in report.witness_generators)


def _build_through_the_engine(monkeypatch, check):
    """A seeded module run and a bundled Tor query with witnesses, with
    `check(sig, terms)` called on every polynomial built meanwhile."""
    raw = Polynomial._raw

    def checked(sig, terms):
        check(sig, terms)
        return raw(sig, terms)

    monkeypatch.setattr(Polynomial, "_raw", staticmethod(checked))
    R, columns, vectors = _case(0, GREVLEX, "cone", 2)
    table = MembershipBasis(R, 2, columns)
    table.reduced()
    [table.normal_form(v) for v in vectors]
    syzygy_entries(columns, 2, R)
    _, env = execute_text(bundled_case_text("neg2_graph.fc"), declarations_only=True)
    report = tor(3, env["J"], env["K"])
    assert report.witness_generators
    return report


def test_no_polynomial_is_built_with_int_coefficients(monkeypatch):
    """Every polynomial built anywhere during a seeded module run and a
    bundled Tor query with witnesses has only `Fraction` coefficients."""

    def check(sig, terms):
        assert all(type(c) is Fraction for c in terms.values())

    report = _build_through_the_engine(monkeypatch, check)
    assert all(_all_fractions(w.entries) for w in report.witness_generators)


def test_no_polynomial_is_built_with_packed_monomials(monkeypatch):
    """Inside `modules` a term is one packed int; every polynomial built
    during the same runs keys its terms by tuples of `nvars` ints."""
    built = []

    def check(sig, terms):
        built.append(len(terms))
        for m in terms:
            assert type(m) is tuple and len(m) == sig.nvars
            assert all(type(e) is int for e in m)

    _build_through_the_engine(monkeypatch, check)
    assert sum(built) > 100


@pytest.mark.parametrize("order", ORDERS)
def test_sparse_columns_round_trip_through_the_packing(order):
    rng = random.Random(f"sparse:{order}")
    R = fc.ring("x,y,z", order=order)
    sig = R.signature
    monos = monomials_up_to(3, 3)
    pk = _packing(sig.order, sig.block, sig.nvars, 16)
    for rank in range(1, 81):
        for nonzero in range(min(rank, 3) + 1):
            column = [R.zero()] * rank
            for i in rng.sample(range(rank), nonzero):
                k = rng.randint(1, 3)
                terms = {rng.choice(monos): rng.choice(COEFFICIENTS) for _ in range(k)}
                column[i] = Polynomial(sig, terms)
            vp = _vp_from_entries(column, pk)
            assert len(vp) == sum(len(e.terms) for e in column)
            back = _entries_from_vp(vp, pk, sig, rank)
            assert back == tuple(column)
            assert _all_fractions(back)
            assert all(type(m) is tuple for e in back for m in e.terms)
            zeros = {id(e) for e in back if not e.terms}
            assert len(zeros) == (rank > nonzero)
