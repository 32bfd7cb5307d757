"""Syzygies do not depend on the order of the generators behind them.

`syzygy_entries` returns the reduced Groebner basis of the syzygy
module, unique for a monomial order, and every engine run enters the
ring's reduced defining basis, never the defining generators as given.
So a quotient ring's defining generators, and the extra relations, in
any order give the same syzygies, the same resolution and the same Tor
witness text.  francia's `T = Q ** V`, whose six relations are the
quadrics of the cone V, is a case where an unreduced basis moved with
the order that `random.Random(0)` shuffles them into.
"""

import random

import pytest

from flatcert import (
    GREVLEX,
    IdealHandle,
    LEX,
    PolyMatrix,
    PresentedModule,
    PresentedRing,
    free_resolution,
    tor,
)
from flatcert.cli import bundled_case_text
from flatcert.modules import syzygy_entries
from flatcert.script import execute_text


def _shuffled(items):
    items = list(items)
    random.Random(0).shuffle(items)
    return items


def _francia(order):
    """francia's J and L over T, and over T with its relations shuffled."""
    _, env = execute_text(bundled_case_text("francia.fc"), order, declarations_only=True)
    T, J, L = env["T"], env["J"], env["L"]
    shuffled = PresentedRing(T.signature, _shuffled(T.defining))
    assert list(shuffled.defining) != list(T.defining)
    moved = (
        IdealHandle(shuffled, J.generators),
        PresentedModule(shuffled, L.rank, PolyMatrix(shuffled, L.rank, L.relations.columns)),
    )
    return (T, J, L), (shuffled, *moved)


@pytest.mark.parametrize("order", (GREVLEX, LEX))
def test_syzygies_do_not_depend_on_the_order_of_relations(order):
    (T, J, L), (shuffled, _, _) = _francia(order)
    columns = [(g,) for g in J.generators]
    d2 = syzygy_entries(columns, 1, T)
    assert d2 == syzygy_entries(columns, 1, shuffled)
    assert syzygy_entries(d2, 5, T) == syzygy_entries(d2, 5, shuffled)
    # Relative to A, L's first relation, in each of the five coordinates.
    a, zero = L.relations.columns[0][0], T.zero()
    extra = [tuple(a if k == i else zero for k in range(5)) for i in range(5)]
    relative = syzygy_entries(d2, 5, T, extra)
    assert relative == syzygy_entries(d2, 5, T, _shuffled(extra))
    assert relative == syzygy_entries(d2, 5, shuffled, _shuffled(extra))


@pytest.mark.parametrize("order", (GREVLEX, LEX))
def test_resolutions_and_tor_do_not_depend_on_the_order_of_relations(order):
    (_, J, L), (_, J2, L2) = _francia(order)
    res, res2 = free_resolution(J, 3), free_resolution(J2, 3)
    assert res.ranks == res2.ranks
    assert [d.columns for d in res.differentials] == [
        d.columns for d in res2.differentials
    ]
    assert str(tor(2, J, L)) == str(tor(2, J2, L2))
