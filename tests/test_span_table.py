"""Homology witnesses against a span table built here, kernel first.

`homology_witnesses` builds the image's table and, when Tor is nonzero,
a table of image + kernel; its witnesses are the elements of that
table's reduced basis outside the image.  The reduced basis is unique
for a submodule and order, so a table built here from the kernel
generators first and the image columns after must give the same
elements, and the witnesses must be exactly those outside the image.
This is checked on the kernel and image of every bundled Tor and flat
assertion and the deep queries, under grevlex and lex, whatever the
verdict.  A table widens only through its own `_query` rebuild: with
every engine run started at width 2 and widened one bit per overflow
(each then packs at the narrowest width that holds it), a constructed
case makes the span table rebuild itself wider for a query, while the
image table keeps its own packed table.  That case runs in a child
process with a deadline: a table that mixed two widths could loop
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
        ker = list(kernel_generators(complex_.differential(i), relations[i - 1]))
    image_cols = []
    if i < complex_.length:
        image_cols += complex_.differential(i + 1).columns
    image_cols += relations[i]
    return ring, rank, ker, image_cols


def _assert_witnesses_outside_the_image(complex_, i, relations, answer):
    ring, rank, ker, image_cols = _kernel_and_image(complex_, i, relations)
    image = MembershipBasis(ring, rank, image_cols)
    reduced = MembershipBasis(ring, rank, ker + image_cols).reduced()
    is_zero, found = answer
    witnesses = [v for v in reduced if not image.contains(v)]
    assert is_zero == (not witnesses)
    assert [w.entries for w in found] == witnesses


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_witnesses_are_the_span_tables_reduced_elements_outside_the_image(
    order, monkeypatch
):
    calls = [(i, M, N) for i, M, N, _ in _bundled_calls(order)]
    asked = _homology_questions(calls, monkeypatch)
    # Six assertions and the two deep queries; segre-chart's J is
    # principal, hence free, and its Tor_1 is zero without a homology.
    assert len(asked) == 7
    assert sum(not answer[0] for *_, answer in asked) >= 3
    for question in asked:
        _assert_witnesses_outside_the_image(*question)


def _span_table_at_narrow_widths(order):
    """Run in a child process, so the patched widths stay there.  At the
    narrowest widths the image's table of degree-1 columns over the cone
    is narrower than the degree-33 kernel column needs, and a degree-70
    query makes the span table rebuild itself wider still.  Returns the
    (asked, built) width of each of the span table's builds, whether the
    image table still holds its first packed table, how many times the
    image's run ran, and the image and span widths at the end."""
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
    image_table = image._table
    span = MembershipBasis(R, 2, [*image_cols, *ker])
    fresh = MembershipBasis(R, 2, [*ker, *image_cols])
    assert span.normal_form(wide) == fresh.normal_form(wide)
    assert span.reduced() == fresh.reduced()
    for v in [*ker, *image_cols, *fresh.reduced()]:
        assert span.contains(v)
    assert not span.contains(wide)
    span_run, image_run = span._build.args[1], image._build.args[1]
    return {
        "span": [(asked, built) for run, asked, built in builds if run is span_run],
        "image kept": image._table is image_table,
        "image runs": sum(run is image_run for run, *_ in builds),
        "widths": (image._table[0].width, span._table[0].width),
    }


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_a_span_table_rebuilds_itself_wider_for_a_query(order):
    facts = run_with_deadline(20, _span_table_at_narrow_widths, order)
    (first, _), *rebuilds = facts["span"]
    # Each rebuild is the span table's own `_query` rebuild, at double
    # the width that overflowed, and packs at exactly that width.
    assert rebuilds
    assert all(asked == built for asked, built in rebuilds)
    assert rebuilds[0][0] > first
    assert facts["widths"][1] == rebuilds[-1][1]


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_a_span_table_leaves_the_image_table_alone(order):
    facts = run_with_deadline(20, _span_table_at_narrow_widths, order)
    # The span table recomputes the image's basis in its own run: the
    # image table ran once, keeps its narrower packed table, and is
    # neither read nor rebuilt by the span table.
    assert facts["image kept"]
    assert facts["image runs"] == 1
    image_width, span_width = facts["widths"]
    assert image_width < span_width
