"""No query changes a table or its caller's input.

`_vp_normal_form` takes the top term off its work set, and its work set
is its input, so it must never be handed a dict someone else holds: a
table's tails, leads and buckets, and the caller's own columns must come
out of every query as they went in.  Every caller passes a fresh dict
(packed entries, an S-polynomial, a negated tail or a shifted syzygy),
which these tests keep true.
These tests snapshot a table over a quotient ring (where the ring's
reduced basis enters settled) and the columns behind it, run each query
twice, and check that nothing moved and that the second answers equal
the first.
"""

import flatcert as fc
from flatcert import MembershipBasis, PolyMatrix, kernel_generators
from flatcert.modules import syzygy_entries


def _table_state(table):
    """A deep copy of a table's packing, tails, leads and buckets, and the
    identities of its containers."""
    pk, tails, leads, buckets = table._table
    copy = (
        pk,
        [list(tail) for tail in tails],
        list(leads),
        {k: list(v) for k, v in buckets.items()},
    )
    return copy, [id(tail) for tail in tails], id(leads), id(buckets)


def _terms(columns):
    return [[dict(e.terms) for e in col] for col in columns]


def test_queries_leave_tables_and_inputs_unchanged():
    R = fc.ring("x,y,z", defining=("x*y - z^2",))
    p = lambda text: fc.poly(text, R)  # noqa: E731
    columns = [(p("x"), p("z")), (p("z"), p("y")), (p("x^2 - y"), p("x*z + 2"))]
    queries = [(p("x*z"), p("y*z")), (p("x^3"), p("1/2*z")), (R.zero(), p("y^2 - z"))]
    saved_columns, saved_queries = _terms(columns), _terms(queries)
    table = MembershipBasis(R, 2, columns)
    ring_table = R._defining_ideal()._groebner_table()
    state, ring_state = _table_state(table), _table_state(ring_table)

    answers = []
    for _ in range(2):
        answers.append(
            (
                [table.normal_form(q) for q in queries],
                [table.contains(q) for q in queries + columns],
                table.reduced(),
                [R.reduce(q[0] * q[1]) for q in queries],
            )
        )
    assert answers[0] == answers[1]
    assert all(answers[0][1][len(queries):])  # every column is a member
    assert _table_state(table) == state
    assert _table_state(ring_table) == ring_state
    assert _terms(columns) == saved_columns and _terms(queries) == saved_queries


def test_syzygy_runs_leave_their_columns_unchanged():
    R = fc.ring("x,y,z", defining=("x*y - z^2",))
    p = lambda text: fc.poly(text, R)  # noqa: E731
    columns = ((p("x"), p("z")), (p("z"), p("y")), (p("x*z"), p("y*z + z")))
    relations = ((p("y"), p("x")),)
    saved, saved_relations = _terms(columns), _terms(relations)
    matrix = PolyMatrix(R, 2, columns)
    ring_state = _table_state(R._defining_ideal()._groebner_table())
    runs = [
        (syzygy_entries(columns, 2, R, relations), kernel_generators(matrix, relations))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0][0] and runs[0][1]
    assert _terms(columns) == saved and _terms(relations) == saved_relations
    assert _terms(matrix.columns) == saved
    assert _table_state(R._defining_ideal()._groebner_table()) == ring_state
    # The answers are unchanged by the runs as well: every syzygy maps to
    # zero modulo the relations and the ring.
    image = MembershipBasis(R, 2, relations)
    for syz in runs[0][0] + runs[0][1]:
        assert image.contains(matrix.apply(syz))
