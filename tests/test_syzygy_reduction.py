"""Syzygies leave the module engine reduced modulo their ring.

Over a quotient ring `syzygy_entries` reduces each syzygy against the
ring's reduced defining basis inside the engine run.  These tests check,
over the cone, francia's ring T and a fiber ring from
`PresentedRing.quotient`, under grevlex, lex and a block order, with and
without extra relations, that every output entry is its own
`ring.reduce`, that no output vector is zero in the ring, that each
output is a syzygy, and that resolutions built from them compose to
zero.  A last test counts the table queries one call makes.
"""

import pytest

import flatcert as fc
from flatcert import (
    BLOCK,
    GREVLEX,
    LEX,
    MembershipBasis,
    PolyMatrix,
    PresentedModule,
    PresentedRing,
    RingSignature,
    free_resolution,
    kernel_generators,
    parse_polynomial,
)
from flatcert.cli import bundled_case_text
from flatcert.modules import syzygy_entries
from flatcert.script import execute_text

ORDERS = ((GREVLEX, 0), (LEX, 0), (BLOCK, 1), (BLOCK, 2))


def _francia_t() -> tuple[tuple[str, ...], list[str], list[str]]:
    """Variables and defining relations of francia's T, and J's generators."""
    _, env = execute_text(bundled_case_text("francia.fc"), declarations_only=True)
    T = env["T"]
    return (
        T.signature.variables,
        [str(p) for p in T.defining],
        [str(g) for g in env["J"].generators],
    )


FRANCIA = _francia_t()


def _ring(variables, defining, order, block) -> PresentedRing:
    sig = RingSignature(tuple(variables), order, block)
    return PresentedRing(sig, [parse_polynomial(p, sig) for p in defining])


def _cases(order, block):
    """(ring, nrows, columns, extra relations) as polynomial text."""
    cone = _ring("xyz", ["x*y - z^2"], order, block)
    yield cone, 2, [["x", "z"], ["z", "y"], ["y^2", "x*z"]], [["z", "0"]]
    yield cone, 1, [["x"], ["z"], ["x*z - y"]], [["y^2"]]
    variables, defining, j_gens = FRANCIA
    T = _ring(variables, defining, order, block)
    yield T, 1, [[g] for g in j_gens], [["a*c"]]
    wide = _ring("xyzw", ["x*y - z^2", "y*w - z^2", "x*w - y^2"], order, block)
    fiber, _ = wide.quotient([fc.poly("w", wide)])
    assert fiber.is_quotient and fiber.signature.variables == ("x", "y", "z")
    yield fiber, 2, [["x", "y"], ["z", "x"], ["y", "z^2"]], [["y", "x"]]
    line, _ = cone.quotient([fc.poly("x - y", cone)])
    yield line, 1, [["x"], ["y^2 - z"]], [["z^3"]]


def _parse(ring, texts):
    return [tuple(fc.poly(t, ring) for t in col) for col in texts]


def _check_reduced(ring, vectors):
    for v in vectors:
        assert all(e == ring.reduce(e) for e in v)
        assert any(not e.is_zero() for e in v)


@pytest.mark.parametrize("order,block", ORDERS)
def test_syzygies_are_reduced_and_nonzero_in_the_ring(order, block):
    seen = 0
    for ring, nrows, columns, extra in _cases(order, block):
        matrix = PolyMatrix(ring, nrows, _parse(ring, columns))
        relations = _parse(ring, extra)
        # Relative to the extra relations, a syzygy's image lies in
        # their span (the defining generators are adjoined in the table).
        span = MembershipBasis(ring, nrows, relations)
        for rels in ((), relations):
            for out in (
                syzygy_entries(matrix.columns, nrows, ring, rels),
                kernel_generators(matrix, rels),
            ):
                assert out
                _check_reduced(ring, out)
                for v in out:
                    image = matrix.apply(v)
                    if rels:
                        assert span.contains(image)
                    else:
                        assert all(ring.reduce(e).is_zero() for e in image)
                seen += 1
    assert seen == 20


@pytest.mark.parametrize("order,block", ORDERS)
def test_resolutions_of_reduced_syzygies_compose_to_zero(order, block):
    for ring, nrows, columns, _ in _cases(order, block):
        relations = PolyMatrix(ring, nrows, _parse(ring, columns))
        res = free_resolution(PresentedModule(ring, nrows, relations), 3)
        assert res.composition_is_zero()
        for d in res.differentials[1:]:
            _check_reduced(ring, d.columns)


def test_a_syzygy_call_makes_no_table_queries(monkeypatch):
    R = fc.ring("x,y,z", ["x*y - z^2"])
    columns = _parse(R, [["x", "z"], ["z", "y"], ["y^2", "x*z"]])
    R.defining_basis()  # the ring's table, built once per ring
    calls = []
    normal_form = MembershipBasis.normal_form

    def counted(self, entries):
        calls.append(entries)
        return normal_form(self, entries)

    monkeypatch.setattr(MembershipBasis, "normal_form", counted)
    out = syzygy_entries(columns, 2, R)
    assert calls == []
    # Reducing the same output entry by entry queries the table once per
    # nonzero entry.
    assert [tuple(R.reduce(e) for e in v) for v in out] == out
    assert len(calls) == sum(not e.is_zero() for v in out for e in v) > 0
