"""Exact kernel generators and image-ring text of seeded random ring maps.

`tests/data/map_kernel_pins.txt` holds, under grevlex and lex, the
`map_kernel` generators and `RingMap.image()` text of random maps with
free sources, quotient sources (two kernel elements of a free map taken
as relations), quotient targets, and source and target names that
clash.  The test compares the file byte for byte.  After a change that
is meant to move these outputs, regenerate the file with

    PYTHONPATH=src python3 tests/test_map_kernel_pins.py

and say in the change why it moved.
"""

import random
from pathlib import Path

import flatcert as fc
from flatcert import GREVLEX, LEX, AffineMorphism, RingMap, graph_ideal, map_kernel

PINS = Path(__file__).resolve().parent / "data" / "map_kernel_pins.txt"

CASES_PER_KIND = 15
COEFFICIENTS = ("1", "-1", "2", "-3", "1/2")


def _random_poly(rng, names):
    """One to three terms, each of total degree at most 2."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        mono = "*".join(rng.choice((*names, "1")) for _ in range(2))
        terms.append(f"({rng.choice(COEFFICIENTS)})*{mono}")
    return " + ".join(terms)


def _random_map(rng, source, target):
    names = target.signature.variables
    images = [
        fc.poly(_random_poly(rng, names), target) for _ in source.signature.variables
    ]
    return RingMap(source, target, images)


def random_maps(order):
    """(kind, map) pairs, CASES_PER_KIND of each kind, seeded per order."""

    def ring(names, defining=()):
        return fc.ring(names, defining, order=order)

    rng = random.Random(f"map-kernel-{order}")
    out = []
    for _ in range(CASES_PER_KIND):
        free = _random_map(rng, ring("a,b,c"), ring("s,t"))
        out.append(("free source", free))
        kernel = map_kernel(free).generators
        a = free.source.var("a")
        source = ring("a,b,c", [kernel[0], a * kernel[-1]])
        out.append(("quotient source", RingMap(source, free.target, free.images)))
        target = ring("s,t", [_random_poly(rng, ("s", "t"))])
        out.append(("quotient target", _random_map(rng, ring("a,b"), target)))
        out.append(("clashing names", _random_map(rng, ring("x,y,t"), ring("t,x"))))
    return out


def map_kernel_pins() -> str:
    lines = []
    for order in (GREVLEX, LEX):
        for k, (kind, F) in enumerate(random_maps(order)):
            kernel = ", ".join(str(g) for g in map_kernel(F).generators)
            lines.append(f"== {order} {k} {kind}: {F}")
            lines.append(f"kernel: {kernel}")
            lines.append(f"image: {F.image()}")
    return "".join(line + "\n" for line in lines)


def test_map_kernel_matches_pins():
    assert map_kernel_pins() == PINS.read_text(encoding="utf-8")


def test_graph_ideal_is_the_pullback_graph():
    for order in (GREVLEX, LEX):
        for _, F in random_maps(order):
            graph, morphism_graph = F.graph(), graph_ideal(AffineMorphism(F))
            assert morphism_graph.ring == graph.ring
            assert morphism_graph.generators == graph.generators


if __name__ == "__main__":
    PINS.write_text(map_kernel_pins(), encoding="utf-8")
