"""A membership table grown from another one against a fresh table.

`homology_witnesses` builds the image's table first and, when Tor is
nonzero, grows the table of kernel + image from it: the image table's
basis enters settled, and only the kernel generators form pairs
(`MembershipBasis(..., base=image)`).  The reduced basis and every
normal form are unique for a submodule, so the grown table must answer
exactly as a table built from scratch on all the columns.  This is
checked on the kernel and image of every bundled Tor and flat assertion
and the deep queries, under grevlex and lex, whatever the verdict.  A
grown table starts at its base's width; with every engine run started
at width 2 and widened one bit per overflow (each then packs at the
narrowest width that holds it), a constructed case makes it rebuild its
base's table wider, once for its own columns and again for a query.
The base keeps each wider rebuild, so a second grown table starts at
that width and does not rebuild the base again.  Those cases run in a
child process with a deadline: a table that mixed two widths could loop
instead of failing.
"""

import pytest

import flatcert as fc
import flatcert.homology as homology
import flatcert.modules as modules
from flatcert import GREVLEX, LEX, MembershipBasis, kernel_generators, tor
from helpers import run_with_deadline
from test_fiber_route import _bundled_calls
from test_huge_exponents import _narrowest_packed_run


def _homology_questions(calls, monkeypatch):
    """(complex, position, relations, answer) of every homology that the
    given Tor calls ask."""
    asked = []
    real = homology.homology_witnesses

    def recorded(complex_, i, relations=()):
        answer = real(complex_, i, relations)
        asked.append((complex_, i, relations, answer))
        return answer

    with monkeypatch.context() as patch:
        patch.setattr(homology, "homology_witnesses", recorded)
        for i, M, N in calls:
            tor(i, M, N)
    return asked


def _kernel_and_image(complex_, i, relations):
    """The kernel generators and image columns at position i, as
    `homology_witnesses` reads them."""
    ring, rank = complex_.ring, complex_.ranks[i]
    if i == 0:
        one, zero = ring.one(), ring.zero()
        ker = [tuple(one if k == j else zero for k in range(rank)) for j in range(rank)]
    else:
        ker = kernel_generators(complex_.differential(i), relations[i - 1])
    image_cols = []
    if i < complex_.length:
        image_cols += complex_.differential(i + 1).columns
    image_cols += relations[i]
    return ring, rank, ker, image_cols


def _assert_grown_matches_fresh(complex_, i, relations, answer):
    ring, rank, ker, image_cols = _kernel_and_image(complex_, i, relations)
    image = MembershipBasis(ring, rank, image_cols)
    grown = MembershipBasis(ring, rank, ker, base=image)
    fresh = MembershipBasis(ring, rank, ker + image_cols)
    reduced = fresh.reduced()
    assert grown.reduced() == reduced
    for v in [*ker, *reduced]:
        assert grown.contains(v) == fresh.contains(v)
    one, zero = ring.one(), ring.zero()
    for j in range(rank):
        unit = tuple(one if k == j else zero for k in range(rank))
        assert grown.normal_form(unit) == fresh.normal_form(unit)
    # The witnesses are the reduced elements outside the image.
    is_zero, found = answer
    witnesses = [v for v in reduced if not image.contains(v)]
    assert is_zero == (not witnesses)
    assert [w.entries for w in found] == witnesses


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_grown_span_tables_match_fresh_ones(order, monkeypatch):
    calls = [(i, M, N) for i, M, N, _ in _bundled_calls(order)]
    asked = _homology_questions(calls, monkeypatch)
    # Six assertions and the two deep queries; segre-chart's J is
    # principal, hence free, and its Tor_1 is zero without a homology.
    assert len(asked) == 7
    assert sum(not answer[0] for *_, answer in asked) >= 3
    for question in asked:
        _assert_grown_matches_fresh(*question)


def _grown_and_fresh_at_narrow_widths(order):
    """Run in a child process, so the patched widths stay there.  At the
    narrowest widths the image's table of degree-1 columns over the cone
    is narrower than the degree-33 kernel column needs, and a degree-70
    query rebuilds the grown table wider still.  Returns the base's first
    width and the (asked, built) width of every rebuild of its table."""
    R = fc.ring("x,y,z", ["x*y - z^2"], order=order)
    x, y, z = (fc.poly(v, R) for v in "xyz")
    image_cols = [(x, y - z), (z, x + y)]
    ker = [(fc.poly("y^32 + x*z^30", R), fc.poly("x*z^32 - y^33", R))]
    wide = (fc.poly("y^70 + z^67", R), fc.poly("x^69*z", R))
    builds = []

    def recorded(ring, run, width=2):
        table = _narrowest_packed_run(ring, run, width)
        builds.append((run, width, table[0].width))
        return table

    modules._packed_run = recorded
    image = MembershipBasis(R, 2, image_cols)
    base_width = image._table[0].width
    grown = MembershipBasis(R, 2, ker, base=image)
    fresh = MembershipBasis(R, 2, ker + image_cols)
    assert grown.normal_form(wide) == fresh.normal_form(wide)
    assert grown.reduced() == fresh.reduced()
    for v in [*ker, *image_cols, *fresh.reduced()]:
        assert grown.contains(v) and fresh.contains(v)
    assert not grown.contains(wide)
    base_run = image._build.args[1]
    rebuilds = [(asked, built) for run, asked, built in builds if run is base_run]
    return base_width, rebuilds[1:]  # the first built the base


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_a_grown_table_rebuilds_its_base_wider(order):
    case = _grown_and_fresh_at_narrow_widths
    base_width, rebuilds = run_with_deadline(20, case, order)
    # Each rebuild packs at exactly the width the grown run asked for:
    # once for the kernel column, once for the query.
    assert all(asked == built for asked, built in rebuilds)
    assert len({asked for asked, _ in rebuilds if asked > base_width}) >= 2


def _second_grown_table_at_narrow_widths(order):
    """Run in a child process, as above.  Returns the base's width before
    and after the first grown table, that table's width, and the number
    of runs of the base's table that a second grown table made."""
    R = fc.ring("x,y,z", ["x*y - z^2"], order=order)
    x, y, z = (fc.poly(v, R) for v in "xyz")
    image_cols = [(x, y - z), (z, x + y)]
    ker = [(fc.poly("y^32 + x*z^30", R), fc.poly("x*z^32 - y^33", R))]
    runs = []

    def recorded(ring, run, width=2):
        runs.append(run)
        return _narrowest_packed_run(ring, run, width)

    modules._packed_run = recorded
    image = MembershipBasis(R, 2, image_cols)
    before = image._table[0].width
    first = MembershipBasis(R, 2, ker, base=image)
    after = image._table[0].width
    base_run = image._build.args[1]
    runs.clear()
    second = MembershipBasis(R, 2, ker, base=image)
    assert second.reduced() == first.reduced()
    assert second._table[0].width == first._table[0].width
    return before, after, first._table[0].width, runs.count(base_run)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_a_grown_table_keeps_its_base_rebuild(order):
    case = _second_grown_table_at_narrow_widths
    before, after, width, base_runs = run_with_deadline(20, case, order)
    # The first grown table rebuilt its base at its own, wider width and
    # left it there, so the second one reuses it.
    assert before < after == width
    assert base_runs == 0
