"""`kernel_generators` takes syzygies as generators: the module engine's
generator mode collects each element whose lead falls in the tracker
block instead of adding it to the basis.  `syzygy_entries` returns the
syzygy module's reduced Groebner basis, from a table of those syzygies.
Both must span one submodule, checked by membership both ways, over the
rings, orders and extra relations of `test_syzygy_reduction` (each also
with a zero column, which only generator mode collects as an input) and
over every kernel that `tor` asks for on the bundled Tor inputs.

A lex case that used to run for minutes in the syzygy basis now answers
at once; it runs in a child process with a deadline, so a regression
fails instead of hanging the suite.
"""

import time

import pytest

import flatcert as fc
import flatcert.homology as homology
from flatcert import (
    GREVLEX,
    LEX,
    MembershipBasis,
    PolyMatrix,
    PresentedModule,
    kernel_generators,
    tor,
)
from flatcert.modules import syzygy_entries
from helpers import run_with_deadline
from test_fiber_route import _bundled_calls
from test_syzygy_reduction import ORDERS, _cases, _parse, _ring


def _assert_same_span(ring, rank, left, right):
    left_table = MembershipBasis(ring, rank, left)
    right_table = MembershipBasis(ring, rank, right)
    assert all(right_table.contains(v) for v in left)
    assert all(left_table.contains(v) for v in right)


def _assert_routes_span_alike(matrix, extra=()):
    generators = kernel_generators(matrix, extra)
    basis = syzygy_entries(matrix.columns, matrix.nrows, matrix.ring, extra)
    _assert_same_span(matrix.ring, matrix.ncols, generators, basis)
    return generators


@pytest.mark.parametrize("order,block", ORDERS)
def test_generators_span_the_syzygy_basis(order, block):
    seen = 0
    for ring, nrows, columns, extra in _cases(order, block):
        relations = _parse(ring, extra)
        zero = ("0",) * nrows
        for texts in (columns, [*columns, zero]):
            matrix = PolyMatrix(ring, nrows, _parse(ring, texts))
            for rels in ((), relations):
                generators = _assert_routes_span_alike(matrix, rels)
                if texts[-1] == zero:
                    # the zero column's unit vector is a syzygy
                    unit = tuple(ring.zero() for _ in columns) + (ring.one(),)
                    assert unit in generators
                seen += 1
    assert seen == 20


@pytest.mark.parametrize("order,block", ORDERS)
def test_generators_span_the_basis_where_relation_pairs_are_skipped(order, block):
    """Generator mode skips the pairs between the ring's relation and a
    head element whose lead is coprime to the relation's lead, for the
    syzygy basis as for the kernel generators; the basis's table of
    syzygies then carries the relation in every position, where the
    criterion holds.  These columns have such leads and entries
    below them, and the extra relations add head elements of their own."""
    ring = _ring("xyzw", ["x*y - z^2"], order, block)
    columns = [["w^2 + z", "x"], ["z*w", "y^2 - x"], ["0", "w*z + y"], ["w", "z"]]
    matrix = PolyMatrix(ring, 2, _parse(ring, columns))
    for extra in ((), _parse(ring, [["z", "0"], ["0", "w^2"]])):
        assert _assert_routes_span_alike(matrix, extra)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_tor_kernels_span_the_syzygy_basis(order, monkeypatch):
    asked = []
    real = homology.kernel_generators

    def recorded(matrix, extra_relations=()):
        asked.append((matrix, tuple(extra_relations)))
        return real(matrix, extra_relations)

    monkeypatch.setattr(homology, "kernel_generators", recorded)
    # Running each case's script asks its tor and flat assertions.
    for i, M, N, _ in _bundled_calls(order):
        tor(i, M, N)
    monkeypatch.undo()
    # Two next resolution steps over a case's ring (the memo serves the
    # repeats) and fourteen kernels of tensored differentials.  The
    # three nonzero verdicts that weighted degrees answer (neg2 Tor_1
    # and Tor_3, francia Tor_2) and the smooth chart's flat probe, whose
    # tensored kernel is zero, take no next step.
    assert len(asked) == 16
    for matrix, extra in asked:
        _assert_routes_span_alike(matrix, extra)


def _found_15_verdicts() -> tuple[bool, bool, bool]:
    """Over lex QQ[x,y,z,w]/(x*y - z^2), with J = (2x - 3y^2, -y^2) and
    I = (3y^2 - yz, x^2 + 2x - 3z): Tor_1(J, R/I), Tor_1(R/I, J) and
    Tor_2(R/J, R/I), which balance and dimension shifting make agree."""
    R = fc.ring("x,y,z,w", defining=("x*y - z^2",), order=LEX)
    J = fc.ideal(R, "2*x - 3*y^2", "-y^2")
    I = [fc.poly(g, R) for g in ("3*y^2 - y*z", "x^2 + 2*x - 3*z")]
    R_mod_I = PresentedModule.cyclic(R, I)
    R_mod_J = PresentedModule.cyclic(R, J.generators)
    return (
        tor(1, J, R_mod_I).is_zero,
        tor(1, R_mod_I, J).is_zero,
        tor(2, R_mod_J, R_mod_I).is_zero,
    )


def test_a_lex_tor_that_used_to_hang_answers_and_balances():
    assert run_with_deadline(20, _found_15_verdicts) == (False, False, False)


def test_the_deadline_ends_a_hanging_call():
    with pytest.raises(AssertionError, match="ran past"):
        run_with_deadline(0.5, time.sleep, 60)
    assert run_with_deadline(20, sum, (1, 2)) == 3
