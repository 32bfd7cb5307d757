"""Koszul oracle for the flatness verdicts.

When the point ideal p = (p_1, ..., p_n) is generated by a regular
sequence on R, Tor_i^R(R/J, R/p) = H_i(K(p; R/J)), the Koszul homology
over R/(defining + J) (Eisenbud, Commutative Algebra, ch. 17), and
Tor_1(J, R/p) = Tor_2(R/J, R/p) because R is free.  The Koszul complex
shares no code with `as_presented_module`, `free_resolution` or the
tensor step, so agreement checks every verdict those feed.
"""

import random

import pytest

import flatcert as fc
from flatcert import (
    IdealHandle,
    PresentedModule,
    PresentedRing,
    homology_witnesses,
    koszul,
    tor,
)
from flatcert.cli import bundled_case_text
from flatcert.script import execute_text
from helpers import random_poly


def _koszul_homology(J, point):
    """H_i(K(point; R/J)) == 0 for i = 0..len(point)."""
    ring = J.ring
    quotient = PresentedRing(ring.signature, ring.defining + J.generators)
    complex_ = koszul(point, quotient)
    return [homology_witnesses(complex_, i)[0] for i in range(len(point) + 1)]


def _assert_koszul_agrees(J, point):
    ring = J.ring
    homology = _koszul_homology(J, point)
    fiber = PresentedModule.cyclic(ring, point)
    quotient = PresentedModule.cyclic(ring, J.generators)
    for i in range(1, len(point) + 1):
        assert tor(i, quotient, fiber).is_zero == homology[i]
    assert tor(1, J, fiber).is_zero == (len(point) < 2 or homology[2])
    return homology


# (case, ideal, point): every bundled flatness question whose point ideal
# is a set of variables of a polynomial factor of the ring.
BUNDLED = [
    ("smooth_chart.fc", "J", ("x", "y")),
    ("segre_chart.fc", "J", ("x", "y")),
    ("neg2_fiber.fc", "J", ("u1", "v1")),
    ("francia.fc", "J", ("a", "b", "c")),
]


@pytest.mark.parametrize("order", [fc.GREVLEX, fc.LEX])
@pytest.mark.parametrize("case", BUNDLED, ids=[c[0] for c in BUNDLED])
def test_bundled_flatness_verdicts_match_koszul_homology(case, order):
    filename, name, variables = case
    _, env = execute_text(bundled_case_text(filename), order)
    J = env[name]
    point = [J.ring.var(v) for v in variables]
    homology = _assert_koszul_agrees(J, point)
    # Tor_1(J, R/p) vanishes in all four, Tor_1(R/J, R/p) in none of them.
    assert homology[2] and not homology[1]


def _random_regular_sequence(rng, ring, names):
    """Upper-triangular linear forms in the named variables: name_k plus
    a combination of the later names, a regular sequence on any ring
    that is a polynomial ring over the other variables."""
    point = []
    for k, v in enumerate(names):
        p = ring.var(v)
        for w in names[k + 1 :]:
            p = p + ring.var(w).scale(rng.choice((0, 0, 1, -2)))
        point.append(p)
    return point


@pytest.mark.parametrize("cone", [False, True], ids=["polynomial", "cone"])
def test_random_regular_sequences_match_koszul_homology(cone):
    rng = random.Random(f"koszul-{cone}")
    if cone:
        ring = fc.ring("x,y,z,u,v", defining=("x*y - z^2",))
        free_names = ("u", "v")
    else:
        ring = fc.ring("x,y,z,w")
        free_names = ring.signature.variables
    sig = ring.signature
    for _ in range(12):
        gens = []
        while not gens:
            gens = [
                g
                for g in (
                    random_poly(rng, sig, max_deg=2, max_terms=2)
                    for _ in range(rng.randint(1, 3))
                )
                if g.terms
            ]
        J = IdealHandle(ring, gens)
        names = rng.sample(free_names, rng.randint(1, min(3, len(free_names))))
        _assert_koszul_agrees(J, _random_regular_sequence(rng, ring, names))
