"""Exact generator and witness text of `map_kernel` and `tor` on inputs
that the golden files do not reach.

The kernels cover clashing variable names, quotient sources and
targets, and mixed orders, under grevlex and lex.  The Tor cases take
a non-cyclic second argument, which `tor` tensors coordinate block by
coordinate block rather than through the fiber ring.  The expected text
was recorded before the renamed product ring and the single tensor step
replaced their hand-written copies, and must not move.  One entry,
`tor(2, K, J)`, moved once, when the resolution's differentials became
reduced syzygy bases, which fix the basis of F_2 and so the witnesses'
coordinates.
"""

import pytest

import flatcert as fc
from flatcert import GREVLEX, LEX, PolyMatrix, PresentedModule, RingMap, map_kernel, tor


def _kernel_maps(order):
    def ring(names, defining=(), ring_order=order):
        return fc.ring(names, defining, order=ring_order)

    def ring_map(R, S, images):
        return RingMap(R, S, [fc.poly(t, S) for t in images])

    return {
        "clashing names": ring_map(ring("x,y"), ring("x"), ["x", "x^2"]),
        "veronese quadrics": ring_map(
            ring("E,G,H,A,B,C"),
            ring("e,g,h"),
            ["e^2", "g^2", "h^2", "e*g", "e*h", "g*h"],
        ),
        "quotient source": ring_map(
            ring("x,y,z", ["x*y - z^2"]), ring("u,v"), ["u^2", "v^2", "u*v"]
        ),
        "quotient target": ring_map(
            ring("a,b,c"), ring("x,y,z", ["x*y - z^2"]), ["x", "y", "z"]
        ),
        "cusp": ring_map(
            ring("u,v,w"), ring("u,v", ["u^3 - v^2"]), ["u", "v", "u*v"]
        ),
        "lex into grevlex": ring_map(
            ring("x,y", ring_order=LEX), ring("t", ring_order=GREVLEX), ["t^2", "t^3"]
        ),
    }


KERNELS = {
    GREVLEX: {
        "clashing names": ["x^2 - y"],
        "veronese quadrics": [
            "E*G - A^2", "E*H - B^2", "G*H - C^2",
            "H*A - B*C", "G*B - A*C", "A*B - E*C",
        ],
        "quotient source": ["x*y - z^2"],
        "quotient target": ["a*b - c^2"],
        "cusp": ["u^3 - v^2", "v^3 - u^2*w", "u*v - w"],
        "lex into grevlex": ["x^3 - y^2"],
    },
    LEX: {
        "clashing names": ["x^2 - y"],
        "veronese quadrics": [
            "E*G - A^2", "E*H - B^2", "G*H - C^2",
            "H*A - B*C", "G*B - A*C", "-E*C + A*B",
        ],
        "quotient source": ["x*y - z^2"],
        "quotient target": ["a*b - c^2"],
        "cusp": ["u^3 - v^2", "-u^2*w + v^3", "u*v - w"],
        "lex into grevlex": ["x^3 - y^2"],
    },
}


@pytest.mark.parametrize("order", (GREVLEX, LEX))
def test_map_kernel_generator_text(order):
    got = {
        name: [str(g) for g in map_kernel(F).generators]
        for name, F in _kernel_maps(order).items()
    }
    assert got == KERNELS[order]


def _tor_cases(order):
    R = fc.ring("x,y,z,u,v", ["x*y - z^2"], order=order)
    J = fc.ideal(R, "x - u", "z - u*v", "y - u*v^2")
    K = PresentedModule.cyclic(R, [fc.poly(g, R) for g in ("x", "y", "z")])
    S = fc.ring("x,y", order=order)
    x, y, x2, zero = (fc.poly(t, S) for t in ("x", "y", "x^2", "0"))
    M = PresentedModule(S, 2, PolyMatrix(S, 2, [(x, y), (zero, x2)]))
    return {
        "tor(1, K, J)": (1, K, J),
        "tor(2, K, J)": (2, K, J),
        "tor(1, M, M)": (1, M, M),
        "tor(0, M, free(2))": (0, M, PresentedModule.free(S, 2)),
    }


# The same text under both orders.
TORS = {
    "tor(1, K, J)": "Tor_1 != 0, witnesses: "
    "(0, v, -1, 0, 0, 0, -v, 1, 0); (0, 0, 0, v, -1, 0, 0, -v, 1)",
    "tor(2, K, J)": "Tor_2 != 0, witnesses: "
    "(v, -1, 0, 0, -v, 1, 0, 0, 0, 0, 0, 0); (0, 0, 0, 0, 0, 0, 0, v, -1, -v, 1, 0)",
    "tor(1, M, M)": "Tor_1 != 0, witnesses: (0, x, 1, 0); (0, 0, x, 0); (0, 0, 0, 1)",
    "tor(0, M, free(2))": "Tor_0 != 0, witnesses: "
    "(1, 0, 0, 0); (0, 1, 0, 0); (0, 0, 1, 0); (0, 0, 0, 1)",
}


@pytest.mark.parametrize("order", (GREVLEX, LEX))
def test_tor_witness_text_against_non_cyclic_modules(order):
    got = {name: str(tor(*args)) for name, args in _tor_cases(order).items()}
    assert got == TORS
