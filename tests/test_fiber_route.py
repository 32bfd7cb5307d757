"""Tor against a cyclic module R/I is taken over the fiber ring R/I; the
relation-column route over R (`helpers.RelationColumnTor`) must give the
same verdicts and the same canonical witnesses, and every witness must
lie in that route's kernel and outside its image."""

import random

import pytest

import flatcert as fc
from flatcert import (
    BLOCK,
    GREVLEX,
    LEX,
    IdealHandle,
    PointSpec,
    PresentedModule,
    PresentedRing,
    RingSignature,
    flat_at_point,
    tor,
)
from flatcert.cli import REPRO_CHECKS, bundled_case_text
from flatcert.parse import to_polynomial
from flatcert.script import AssertFlat, AssertTor, execute_text, parse_script
from helpers import RelationColumnTor, random_poly, run_with_deadline

# The two deep queries of the benchmark, beside every bundled assertion.
DEEP_QUERIES = {"francia.fc": (2, "J", "L"), "neg2_graph.fc": (3, "J", "K")}


def _assert_routes_agree(report, i, M, N):
    old = RelationColumnTor(i, M, N)
    assert report.is_zero == old.is_zero
    new = [w.entries for w in report.witness_generators]
    assert [tuple(map(str, w)) for w in new] == [
        tuple(map(str, w)) for w in old.witnesses
    ]
    for w in new:
        assert old.in_kernel(w)
        assert not old.in_image(w)


def _bundled_calls(order):
    """(index, M, N, flat verdict or None) for every bundled tor and flat
    assertion and the deep queries, in the environment of their case."""
    for filename, _ in REPRO_CHECKS:
        text = bundled_case_text(filename)
        _, env = execute_text(text, order)
        calls = []
        for stmt in parse_script(text).statements:
            if isinstance(stmt, AssertTor):
                c = stmt.call
                calls.append((c.index, env[c.left], env[c.right], None))
            elif isinstance(stmt, AssertFlat):
                M = env[stmt.call.name]
                ring = M.ring
                gens = [to_polynomial(e, ring.signature) for e in stmt.call.point]
                verdict = flat_at_point(M, PointSpec(ring, IdealHandle(ring, gens)))
                calls.append((1, M, PresentedModule.cyclic(ring, gens), verdict))
        if filename in DEEP_QUERIES:
            i, left, right = DEEP_QUERIES[filename]
            calls.append((i, env[left], env[right], None))
        yield from calls


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_bundled_calls_agree_with_relation_columns(order):
    seen = 0
    for i, M, N, verdict in _bundled_calls(order):
        report = tor(i, M, N)
        _assert_routes_agree(report, i, M, N)
        if verdict is not None:
            assert verdict.tor_witness == report
        seen += 1
    assert seen == 8  # six assertions and the two deep queries


# Random generators have up to three terms.  Under lex, such generators
# are where a weak S-pair selection (by lcm degree alone) runs for
# minutes on either route, so each random test runs under a deadline:
# such a regression fails instead of stalling the suite.


def _random_ring(rng, order, cone):
    n = rng.choice((3, 4))
    names = ("x", "y", "z", "w")[:n]
    block = rng.randint(1, n - 1) if order == BLOCK else 0
    sig = RingSignature(names, order, block)
    defining = [fc.poly("x*y - z^2", PresentedRing(sig))] if cone else []
    return PresentedRing(sig, defining)


def _random_fiber(rng, ring, variables):
    """Scalar multiples of a random variable subset, sometimes with one
    more random generator; or one or two random generators, none of
    them a scalar multiple of a variable."""
    sig = ring.signature
    if variables:
        names = rng.sample(sig.variables, rng.randint(1, sig.nvars))
        gens = [ring.var(v).scale(rng.choice((1, -2, 3))) for v in names]
        if rng.random() < 0.5:
            gens.append(random_poly(rng, sig, max_deg=2, max_terms=3))
        return gens
    gens, count = [], rng.randint(1, 2)
    while len(gens) < count:
        g = random_poly(rng, sig, max_deg=2, max_terms=3)
        if len(g.terms) > 1 or g.terms and sum(next(iter(g.terms))) != 1:
            gens.append(g)
    return gens


def _random_fibers_agree(order, cone):
    rng = random.Random(f"fiber-{order}-{cone}")
    for _ in range(20):
        ring = _random_ring(rng, order, cone)
        sig = ring.signature
        J = IdealHandle(
            ring,
            [random_poly(rng, sig, max_deg=2, max_terms=3)
             for _ in range(rng.randint(1, 3))],
        )
        i = rng.randint(0, 2)
        for variables in (True, False):
            N = PresentedModule.cyclic(ring, _random_fiber(rng, ring, variables))
            _assert_routes_agree(tor(i, J, N), i, J, N)


@pytest.mark.parametrize("order", [GREVLEX, LEX, BLOCK])
@pytest.mark.parametrize("cone", [False, True], ids=["polynomial", "cone"])
def test_random_fibers_agree_with_relation_columns(order, cone):
    run_with_deadline(60, _random_fibers_agree, order, cone)


def test_restricted_block_order_sets_witness_leads():
    # With (x, y) the leading block of QQ[x,y,z,w], R/(x) is the ring in
    # y, z, w with y alone leading, where y > z^2: the witness of
    # Tor_1(R/(w), R/(x, (y - z^2)*w)), the annihilator of w, is y - z^2.
    R = PresentedRing(RingSignature(("x", "y", "z", "w"), BLOCK, 2))
    M = PresentedModule.cyclic(R, [fc.poly("w", R)])
    N = PresentedModule.cyclic(R, [fc.poly("x", R), fc.poly("y*w - z^2*w", R)])
    report = tor(1, M, N)
    assert str(report) == "Tor_1 != 0, witnesses: (y - z^2)"
    _assert_routes_agree(report, 1, M, N)
