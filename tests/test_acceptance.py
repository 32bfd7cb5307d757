"""Acceptance gate: the eight end-to-end criteria with their runtime
bounds.  Each test prints one pass/fail line (visible with pytest -s)."""

import random
import time
from pathlib import Path

import flatcert as fc
from flatcert import (
    AffineMorphism,
    PointSpec,
    PolyMatrix,
    PresentedModule,
    PresentedRing,
    RingMap,
    divide,
    fibered_product_ideal,
    flat_at_point,
    graph_ideal,
    homology_witnesses,
    koszul,
    map_kernel,
    syzygy_matrix,
    tensor_with_renaming,
    tor,
)
from flatcert.cli import format_repro_table, main, repro_suite, strip_timing_column

from helpers import random_poly, spolynomial_certificate

GOLDEN = Path(__file__).parent / "data" / "repro_golden.txt"


def _report(num, text, ok, seconds, bound):
    status = "PASS" if ok and seconds < bound else "FAIL"
    print(f"{status} criterion {num}: {text} ({seconds:.2f}s, bound {bound:.0f}s)")
    assert ok, text
    assert seconds < bound, f"criterion {num} took {seconds:.2f}s"


def _cone_graph_data():
    R = fc.ring("x,y,z,u,v", defining=("x*y - z^2",))
    J = fc.ideal(R, "x - u", "z - u*v", "y - u*v^2")
    K = PresentedModule.cyclic(R, [fc.poly(s, R) for s in ("x", "y", "z")])
    return R, J, K


def _squares_products_map():
    R6 = fc.ring("E,G,H,A,B,C")
    S3 = fc.ring("e,g,h")
    images = [
        fc.poly(s, S3) for s in ("e^2", "g^2", "h^2", "e*g", "e*h", "g*h")
    ]
    return R6, RingMap(R6, S3, images)


def test_criterion_1_cone_graph_not_flat():
    t0 = time.perf_counter()
    _, J, K = _cone_graph_data()
    report = tor(1, J, K)
    dt = time.perf_counter() - t0
    _report(
        1,
        "graph ideal on the quadric cone has Tor_1 != 0 against the origin fiber",
        not report.is_zero,
        dt,
        10.0,
    )


def test_criterion_2_index_two_flip_pair():
    t0 = time.perf_counter()
    R6, F = _squares_products_map()
    kernel = map_kernel(F)
    V = PresentedRing(R6.signature, list(kernel.generators))
    T = tensor_with_renaming(fc.ring("a,b,c"), V)[0]
    J = fc.ideal(T, "E - a^2*c", "G - c", "A - a*c", "C - b", "B - a*b")
    K = PresentedModule.cyclic(T, [fc.poly(s, T) for s in ("a", "b", "c")])
    L = PresentedModule.cyclic(
        T, [fc.poly(s, T) for s in ("A", "B", "C", "E", "G", "H")]
    )
    plus = tor(1, J, K)
    minus = tor(1, J, L)
    dt = time.perf_counter() - t0
    ok = (
        len(kernel.generators) == 6
        and plus.is_zero
        and not minus.is_zero
    )
    _report(
        2,
        "flip chart is flat over the smooth factor, not over the cone factor",
        ok,
        dt,
        60.0,
    )


def test_criterion_3_smooth_charts_flat():
    t0 = time.perf_counter()
    charts = (("u", "u*v"), ("u*v", "v"), ("u", "v"), ("u^2", "v"), ("u", "u*v^2"))
    base = fc.ring("x,y")
    source = fc.ring("u,v")
    spec = PointSpec(base, fc.ideal(base, "x", "y"))
    ok = True
    for f1, f2 in charts:
        f = AffineMorphism(
            RingMap(base, source, [fc.poly(f1, source), fc.poly(f2, source)])
        )
        ok = ok and flat_at_point(graph_ideal(f), spec).flat
    dt = time.perf_counter() - t0
    _report(3, "five plane chart graph ideals are flat at (x, y)", ok, dt, 5.0)


def test_criterion_4_cone_fibered_product():
    t0 = time.perf_counter()
    X1 = fc.ring("u1,v1")
    X2 = fc.ring("u2,v2")
    Y = fc.ring("x,y,z", defining=("x*y - z^2",))
    f = AffineMorphism(
        RingMap(Y, X1, [fc.poly(s, X1) for s in ("u1", "u1*v1^2", "u1*v1")])
    )
    g = AffineMorphism(
        RingMap(Y, X2, [fc.poly(s, X2) for s in ("u2", "u2*v2^2", "u2*v2")])
    )
    J = fibered_product_ideal(f, g)
    origin1 = PointSpec(X1, fc.ideal(X1, "u1", "v1"))
    origin2 = PointSpec(X2, fc.ideal(X2, "u2", "v2"))
    flat1 = flat_at_point(J, origin1).flat
    flat2 = flat_at_point(J, origin2).flat
    dt = time.perf_counter() - t0
    ok = len(J.generators) == 2 and flat1 and flat2
    _report(
        4,
        "cone resolution fibered product trims to 2 generators, flat over both factors",
        ok,
        dt,
        10.0,
    )


def test_criterion_5_ruled_cone_charts():
    t0 = time.perf_counter()
    base = fc.ring("x,y")
    spec = PointSpec(base, fc.ideal(base, "x", "y"))
    ok = True
    for k in (0, 1, 2):
        names = [f"z{i + 1}" for i in range(k)] + ["x", "y", "t"]
        A = fc.ring(names)
        J = fc.ideal(A, "y - x*t")
        ok = ok and flat_at_point(J, spec).flat
    dt = time.perf_counter() - t0
    _report(
        5,
        "chart ideal (y - x*t) is flat at (x, y) with 0, 1, 2 extra variables",
        ok,
        dt,
        5.0,
    )


def test_criterion_6_invariant_ring_kernel():
    t0 = time.perf_counter()
    R6, F = _squares_products_map()
    kernel = map_kernel(F)
    relations = (
        "A^2 - E*G",
        "B^2 - E*H",
        "C^2 - G*H",
        "A*B - E*C",
        "A*C - G*B",
        "B*C - H*A",
    )
    ok = all(kernel.contains(fc.poly(t, R6)) for t in relations)
    dt = time.perf_counter() - t0
    _report(6, "all six quadric relations lie in the map kernel", ok, dt, 10.0)


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(97)
    ok = True

    # reduced-GB uniqueness under 50 shufflings, Buchberger certificate on
    # every computed basis
    for _ in range(10):
        ring = fc.ring(rng.choice(("x,y", "x,y,z")))
        sig = ring.signature
        gens = [
            random_poly(rng, sig, max_deg=2, max_terms=3)
            for _ in range(rng.randint(2, 3))
        ]
        reference = fc.ideal(ring, *gens).groebner_basis()
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            basis = fc.ideal(ring, *shuffled).groebner_basis()
            ok = ok and basis == reference
            ok = ok and spolynomial_certificate(basis, divide)

    # syzygy soundness M * S = 0 on 50 random matrices
    for _ in range(50):
        ring = fc.ring(rng.choice(("x,y", "x,y,z")))
        sig = ring.signature
        nrows = rng.randint(1, 3)
        cols = [
            tuple(random_poly(rng, sig, max_deg=2, max_terms=2) for _ in range(nrows))
            for _ in range(rng.randint(1, 3))
        ]
        m = PolyMatrix(ring, nrows, cols)
        syz = syzygy_matrix(m)
        if syz.columns:
            ok = ok and m.compose(syz).is_zero_in_ring()

    # Tor balance on the four bundled geometry cases
    _, J, K = _cone_graph_data()
    balanced = [(J, K)]
    R6, F = _squares_products_map()
    V = PresentedRing(R6.signature, list(map_kernel(F).generators))
    T = tensor_with_renaming(fc.ring("a,b,c"), V)[0]
    Jf = fc.ideal(T, "E - a^2*c", "G - c", "A - a*c", "C - b", "B - a*b")
    balanced.append(
        (Jf, PresentedModule.cyclic(T, [fc.poly(s, T) for s in ("a", "b", "c")]))
    )
    balanced.append(
        (
            Jf,
            PresentedModule.cyclic(
                T, [fc.poly(s, T) for s in ("A", "B", "C", "E", "G", "H")]
            ),
        )
    )
    P = fc.ring("x,y,u,v")
    balanced.append(
        (
            fc.ideal(P, "x - u", "y - u*v"),
            PresentedModule.cyclic(P, [fc.poly("x", P), fc.poly("y", P)]),
        )
    )
    for a, b in balanced:
        ok = ok and tor(1, a, b).is_zero == tor(1, b, a).is_zero

    # Tor balance on 20 random small instances
    plane = fc.ring("x,y")
    for _ in range(20):
        a = PresentedModule.cyclic(
            plane, [random_poly(rng, plane.signature, max_deg=2, max_terms=2)]
        )
        b = PresentedModule.cyclic(
            plane, [random_poly(rng, plane.signature, max_deg=2, max_terms=2)]
        )
        ok = ok and tor(1, a, b).is_zero == tor(1, b, a).is_zero

    # Koszul H_{i>=1} = 0 on 30 random regular sequences of linear forms
    for _ in range(30):
        n = rng.randint(2, 3)
        ring = fc.ring(",".join(f"x{i}" for i in range(n)))
        seq = []
        for i in range(n):
            text = f"x{i}"
            for j in range(i + 1, n):
                c = rng.randint(-2, 2)
                if c:
                    text += f" + {c}*x{j}" if c > 0 else f" - {-c}*x{j}"
            seq.append(fc.poly(text, ring))
        complex_ = koszul(seq, ring)
        ok = ok and complex_.composition_is_zero()
        for i in range(1, n + 1):
            ok = ok and homology_witnesses(complex_, i)[0]

    dt = time.perf_counter() - t0
    _report(7, "property suites: GB uniqueness, syzygies, balance, Koszul", ok, dt, 300.0)


def test_criterion_8_repro_golden(capsys):
    t0 = time.perf_counter()
    table = strip_timing_column(format_repro_table(repro_suite()))
    status = main(["repro"])
    capsys.readouterr()
    dt = time.perf_counter() - t0
    ok = table == GOLDEN.read_text(encoding="utf-8") and status == 0
    _report(8, "repro table matches the golden file, exit status 0", ok, dt, 300.0)
