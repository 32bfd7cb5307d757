"""Resolution steps in the induced (Schreyer) order.

A differential whose columns are a reduced basis the engine made (a
`syzygy_entries` table, or an earlier such step) records the order they
are a basis for, and its next resolution step is the reduced basis of
its syzygies in the order its leads induce, made from a frame of lcm
quotients with no Buchberger run.  `helpers.schreyer_certificate` checks
each step against the definition of that order (`helpers.induced_orders`):
every S-pair of the step's columns, and of a column with a ring relation,
reduces to zero; d_k * d_(k+1) = 0 in the ring; and the step spans what
the table route of `syzygy_entries` gives for d_k's columns.
"""

import pytest

import flatcert.modules as modules
from flatcert import GREVLEX, LEX, PolyMatrix, free_resolution, kernel_generators
from flatcert.cli import bundled_case_text
from flatcert.modules import syzygy_entries
from flatcert.script import execute_text
from helpers import induced_orders, schreyer_certificate
from test_homology import _veronese_residue_field

# (case, module, ranks to d_4): d_1 is a presentation, a table's basis,
# so d_2 onward are Schreyer steps.
RESOLUTIONS = {
    (GREVLEX, "francia.fc"): (5, 17, 53, 160, 480),
    (LEX, "francia.fc"): (5, 17, 53, 160, 480),
    (GREVLEX, "neg2_graph.fc"): (3, 5, 6, 6, 6),
    (LEX, "neg2_graph.fc"): (3, 5, 6, 6, 6),
}


@pytest.mark.parametrize("order,filename", sorted(RESOLUTIONS))
def test_every_step_is_a_basis_for_the_induced_order(order, filename):
    _, env = execute_text(bundled_case_text(filename), order, declarations_only=True)
    res = free_resolution(env["J"], 4)
    assert res.ranks == RESOLUTIONS[order, filename]
    d = res.differentials
    levels = induced_orders(d, order)
    for k in range(1, len(d)):
        assert schreyer_certificate(d[k - 1], d[k], levels[k], order), k + 1


def _spy_schreyer_buckets(monkeypatch) -> list[set[int]]:
    """For each bucket of each normal form a Schreyer step (`_Induced`)
    takes, the tie ranks of its reducers other than the ring's relations,
    which alone have both rank fields zero."""
    seen, real = [], modules._vp_normal_form

    def spied(vp, tails, leads, buckets, pk):
        if isinstance(pk, modules._Induced):
            low, fields = pk.top - 2 * pk.width, (1 << 2 * pk.width) - 1
            for bucket in buckets.values():
                seen.append({pk.rank(leads[k]) for k in bucket if leads[k] >> low & fields})
        return real(vp, tails, leads, buckets, pk)

    monkeypatch.setattr(modules, "_vp_normal_form", spied)
    return seen


@pytest.mark.parametrize("order", [GREVLEX, LEX])
@pytest.mark.parametrize("case", ["francia", "veronese-2"])
def test_a_schreyer_bucket_holds_one_basis_vectors_reducers(case, order, monkeypatch):
    # francia J's d_2..d_4 and the Veronese k's d_3..d_5 are Schreyer
    # steps whose leads share F_0 positions across tie ranks (k is
    # cyclic: one position); each lift and interreduction searches one
    # basis vector's reducers, never another tie rank's.
    if case == "francia":
        _, env = execute_text(bundled_case_text("francia.fc"), order, declarations_only=True)
        module, top = env["J"], 4
    else:
        module, top = _veronese_residue_field(2, order), 5
    seen = _spy_schreyer_buckets(monkeypatch)
    free_resolution(module, top)
    assert any(seen), "no Schreyer step reduced"
    assert all(len(ranks) <= 1 for ranks in seen)


def test_a_user_matrix_takes_the_table_route_first():
    # k's d_1 is the user's relation matrix, which records no order: d_2
    # is the table route's basis, which F_1 is position-over-term for, and
    # d_3 and d_4 are Schreyer steps over it.
    k = _veronese_residue_field(2)
    d = free_resolution(k, 4).differentials
    assert d[0]._order is None
    assert d[1] == syzygy_entries(list(d[0]), d[0].nrows, k.ring)
    levels = induced_orders(d[1:], GREVLEX)
    for j in (2, 3):
        assert schreyer_certificate(d[j - 1], d[j], levels[j - 1], GREVLEX), j + 1


def test_only_a_recorded_order_selects_the_route():
    _, env = execute_text(bundled_case_text("neg2_graph.fc"), declarations_only=True)
    d1, d2 = free_resolution(env["J"], 2).differentials
    ring = d1.ring
    # A presentation is a table's basis, for position-over-term on F_0.
    assert d1._order is not None and d1._order[0] == tuple(range(d1.nrows))
    assert d2._order is not None and len(d2._order[0]) == d1.ncols
    # The same columns with no recorded order take the table route.
    plain = PolyMatrix(ring, d1.nrows, list(d1))
    assert plain._order is None
    assert syzygy_entries(plain, plain.nrows, ring) == syzygy_entries(
        list(d1), d1.nrows, ring
    )
    assert syzygy_entries(d1, d1.nrows, ring) == d2
    # Generators of a kernel are no basis: they record no order.
    assert kernel_generators(d1)._order is None
