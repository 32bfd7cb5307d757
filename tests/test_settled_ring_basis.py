"""A membership table over a quotient ring against explicit relations.

A `MembershipBasis` over a quotient ring, with or without columns,
enters the ring's reduced defining basis first, once, as the run's
relations, and carries it in every coordinate: it is a Groebner basis,
so no pair is formed among it.  A table over the polynomial ring of the same signature,
given the columns and every defining relation in every coordinate as
explicit columns, spans the same submodule.  Reduced bases and normal
forms are unique for a submodule, so the two tables must give the same
`reduced()`, `normal_form` and `contains`.  This is checked over every
quotient ring of the bundled cases (the declared rings and the fiber
rings their Tor and flat assertions take homology over), under grevlex
and lex, with no columns too (`homology_witnesses` builds such a table
as the image when d_(i+1) is zero), over the rings of
`test_syzygy_reduction`, under its four orders, and over a ring whose
relations are no Groebner basis.
"""

import pytest

import flatcert as fc
from flatcert import (
    GREVLEX,
    LEX,
    IdealHandle,
    MembershipBasis,
    PresentedModule,
    PresentedRing,
    mono_divides,
)
from flatcert.cli import REPRO_CHECKS, bundled_case_text
from flatcert.script import execute_text
from test_syzygy_reduction import ORDERS, _cases, _parse


def _variable_columns(ring, rank):
    """A few columns of degree one and two in the ring's variables."""
    xs = [ring.var(v) for v in ring.signature.variables]
    xs += xs[:2]  # rings of one or two variables
    zero = ring.zero()
    if rank == 1:
        return [(xs[0] + xs[1],), (xs[1] * xs[2] - xs[0],)]
    cols = [(xs[0], xs[1]), (xs[1], xs[2] - xs[0]), (xs[2] * xs[0], zero)]
    return [col + (zero,) * (rank - 2) for col in cols]


def _bundled_tables(order):
    """(ring, rank, columns) over every quotient ring of the bundled
    cases: their ideals' generators, no columns and the ring's variables
    at ranks 1 and 2, and for each cyclic module its fiber ring."""
    for filename, _ in REPRO_CHECKS:
        text = bundled_case_text(filename)
        _, env = execute_text(text, order, declarations_only=True)
        rings = [obj for obj in env.values() if isinstance(obj, PresentedRing)]
        for obj in env.values():
            if isinstance(obj, PresentedModule) and obj.rank == 1:
                gens = [col[0] for col in obj.relations.columns]
                rings.append(obj.ring.quotient(gens)[0])
        for ring in rings:
            if not ring.is_quotient:
                continue
            for obj in env.values():
                if isinstance(obj, IdealHandle) and obj.ring is ring:
                    yield ring, 1, [(g,) for g in obj.generators]
            for rank in (1, 2):
                yield ring, rank, []
                yield ring, rank, _variable_columns(ring, rank)


def _reduction_tables(order, block):
    for ring, nrows, columns, extra in _cases(order, block):
        yield ring, nrows, _parse(ring, columns) + _parse(ring, extra)


def _assert_settled_matches_explicit(ring, rank, columns):
    flat = PresentedRing(ring.signature)
    zero = ring.zero()
    relations = [
        tuple(q if k == i else zero for k in range(rank))
        for q in ring.defining
        for i in range(rank)
    ]
    settled = MembershipBasis(ring, rank, columns)
    explicit = MembershipBasis(flat, rank, columns + relations)
    reduced = explicit.reduced()
    assert settled.reduced() == reduced
    xs = [ring.var(v) for v in ring.signature.variables] or [ring.one()]
    queries = list(columns) + list(reduced)
    for i in range(rank):
        quadrics = [x * y for x in xs for y in xs[:3]]
        cubics = [q * y for q in quadrics for y in xs[:2]]
        for x in [ring.one(), *xs, *quadrics, *cubics]:
            queries.append(tuple(x if k == i else zero for k in range(rank)))
    for v in queries:
        assert settled.normal_form(v) == explicit.normal_form(v)
        assert settled.contains(v) == explicit.contains(v)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_bundled_quotient_rings(order):
    tables = list(_bundled_tables(order))
    # francia's V, T and T's fiber at K; L's and neg2-graph's K's fibers
    # are polynomial rings.
    assert len({id(ring) for ring, *_ in tables}) == 4
    for table in tables:
        _assert_settled_matches_explicit(*table)


@pytest.mark.parametrize("order,block", ORDERS)
def test_syzygy_reduction_rings(order, block):
    for table in _reduction_tables(order, block):
        _assert_settled_matches_explicit(*table)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_relations_that_are_no_groebner_basis(order):
    """Settling the relations themselves would lose S-pairs among them."""
    R = fc.ring("x,y,z", ["x*y - z^2", "x^2 - y*z"], order=order)
    assert len(R.defining_basis()) > len(R.defining)
    x, z = fc.poly("x", R), fc.poly("z^4", R)
    # Columns that leave low degrees, or a whole coordinate, to the ring.
    _assert_settled_matches_explicit(R, 1, [(z,)])
    _assert_settled_matches_explicit(R, 2, [(x, R.zero())])
    for rank in (1, 2):
        _assert_settled_matches_explicit(R, rank, [])
        _assert_settled_matches_explicit(R, rank, _variable_columns(R, rank))


def test_the_defining_ideal_table_does_not_recurse(monkeypatch):
    """The ring's own table is its defining ideal's, over the polynomial
    ring of the same signature; a table over the ring builds it first,
    once."""
    import flatcert.modules as modules

    relations = []
    engine = modules._module_buchberger

    def counted(gens, pk, rank, head, count):
        relations.append(count)
        return engine(gens, pk, rank, head, count)

    monkeypatch.setattr(modules, "_module_buchberger", counted)
    R = fc.ring("x,y,z", ["x*y - z^2", "x^2 - y*z"])
    x, z = fc.poly("x", R), fc.poly("z", R)
    MembershipBasis(R, 2, [(x, z)])
    MembershipBasis(R, 1, [(z,)])
    MembershipBasis(R, 2, [])
    # The ring's run has no relations; each table, with columns or
    # without and at any rank, enters the ring's reduced basis once.
    basis = R.defining_basis()
    assert relations == [0, len(basis), len(basis), len(basis)]


def _lead(vector):
    """(position, leading monomial) of a vector: the first nonzero
    position dominates."""
    p = next(i for i, e in enumerate(vector) if not e.is_zero())
    return p, vector[p].leading_monomial()


@pytest.mark.parametrize("order", [GREVLEX, LEX])
@pytest.mark.parametrize("rank", [2, 3])
def test_reduced_lists_every_minimal_relation_copy(order, rank):
    """A table enters each ring relation g once; its reduced basis still
    holds an element with lead lt(g)*e_p at every position p where that
    lead is minimal, and g*e_p itself at a position no column reaches.
    The column (0, y, z), cut to the rank, is zero at position 0, and no
    S-pair brings an element there, so position 0 holds the ring's
    reduced basis alone; at position 1 the column's lead y divides x*y,
    so x*y - z^2 does not survive there."""
    R = fc.ring("x,y,z", ["x*y - z^2", "x^2 - y*z"], order=order)
    y, z, zero = fc.poly("y", R), fc.poly("z", R), R.zero()
    columns = [(zero, y, z)[:rank]]
    basis = R.defining_basis()
    xy = fc.poly("x*y - z^2", R)
    assert xy in basis
    reduced = MembershipBasis(R, rank, columns).reduced()
    _assert_settled_matches_explicit(R, rank, columns)
    at_zero = [v for v in reduced if _lead(v)[0] == 0]
    assert at_zero == [(g,) + (zero,) * (rank - 1) for g in basis]
    leads = {_lead(v) for v in reduced}
    for p in range(rank):
        for g in basis:
            lt = g.leading_monomial()
            below = [m for q, m in leads if q == p and m != lt and mono_divides(m, lt)]
            assert ((p, lt) in leads) == (not below)
    assert (zero, xy, zero)[:rank] not in reduced
