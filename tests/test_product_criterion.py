"""The product criterion for ring relations, against tables that never use it.

Over a quotient ring a `MembershipBasis` enters each of the ring's
relations g once and carries it as g*e_q in every coordinate q, and
the engine pushes no pair between g*e_q
and an element whose lead at q is coprime to lt(g).  Over the polynomial
ring of the same signature the same submodule is the table of the same
columns plus each relation g*e_q as an ordinary column; there the
criterion never fires, so that table is an independent check.  A
reduced Groebner basis and every normal form are unique for a
submodule, so both tables must answer alike.  The columns here have
leads coprime to a relation's lead and nonzero entries below their lead
position, which is where the criterion's standard representation uses
the relations in the other coordinates.  The criterion skips only pairs
with a ring relation, never a pair of two columns: the S-pair of (w, z)
and (z, 0) gives (0, z^2), which neither column spans alone.
"""

import pytest

from flatcert import MembershipBasis, PresentedRing
from test_syzygy_reduction import ORDERS, _parse, _ring

CONE = ("xyzw", ["x*y - z^2"])
CUBIC = ("xyzw", ["x*y - z^2", "y*w - z^2", "x*w - y^2"])

# (ring, rank, columns, queries) as polynomial text.
CASES = (
    (
        CONE,
        2,
        [["w^2 + z", "x"], ["z*w", "y^2 - x"], ["0", "w*z + y"]],
        [["x*w", "y*z"], ["z^3", "w^3"], ["w^2*y", "x*z"], ["0", "z^2"]],
    ),
    (
        CUBIC,
        2,
        [["w", "z"], ["z", "0"], ["z^2 + w", "x*w"]],
        [["x^2", "y^2"], ["0", "z^2"], ["w^3", "z*y"]],
    ),
    (
        CUBIC,
        1,
        [["w^2 + z"], ["z*w - 1"]],
        [["x^3"], ["y*z*w"], ["w^4 + 2"]],
    ),
)


def _units(ring, rank):
    one, zero = ring.one(), ring.zero()
    return [tuple(one if k == j else zero for k in range(rank)) for j in range(rank)]


def _relation_columns(ring, rank):
    """Each defining relation of the ring in each coordinate."""
    zero = ring.zero()
    return [
        tuple(g if k == q else zero for k in range(rank))
        for g in ring.defining
        for q in range(rank)
    ]


def _assert_alike(table, plain, vectors):
    assert table.reduced() == plain.reduced()
    for v in vectors:
        assert table.normal_form(v) == plain.normal_form(v)
        assert table.contains(v) == plain.contains(v)


@pytest.mark.parametrize("order,block", ORDERS)
def test_quotient_tables_match_polynomial_tables(order, block):
    for (variables, defining), rank, columns, queries in CASES:
        R = _ring(variables, defining, order, block)
        P = PresentedRing(R.signature)
        cols = _parse(R, columns)
        table = MembershipBasis(R, rank, cols)
        plain = MembershipBasis(P, rank, cols + _relation_columns(R, rank))
        _assert_alike(table, plain, [*_parse(R, queries), *cols, *_units(R, rank)])


@pytest.mark.parametrize("order,block", ORDERS)
def test_tables_keep_pairs_between_columns(order, block):
    R = _ring(*CONE, order, block)
    P = PresentedRing(R.signature)
    cols = _parse(R, [["w", "z"], ["z", "0"]])
    table = MembershipBasis(R, 2, cols)
    plain = MembershipBasis(P, 2, cols + _relation_columns(R, 2))
    (z2,) = _parse(R, [["0", "z^2"]])
    assert table.contains(z2)
    assert not any(MembershipBasis(R, 2, [c]).contains(z2) for c in cols)
    _assert_alike(table, plain, [z2, *_units(R, 2)])
