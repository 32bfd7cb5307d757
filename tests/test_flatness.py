"""Ring tensor products, graph and fibered-product ideals, flatness."""

import pytest

import flatcert as fc
from flatcert import (
    AffineMorphism,
    ArgumentError,
    PointSpec,
    RingMap,
    fibered_product_ideal,
    flat_at_point,
    graph_ideal,
    invariant_presentation,
    tensor_with_renaming,
    trim_generators,
)


def test_tensor_without_clash():
    A = fc.ring("a,b")
    B = fc.ring("x,y")
    T, ra, rb = tensor_with_renaming(A, B)
    assert T.signature.variables == ("a", "b", "x", "y")
    assert ra == {"a": "a", "b": "b"}
    assert rb == {"x": "x", "y": "y"}


def test_tensor_with_clash():
    A = fc.ring("x,y")
    B = fc.ring("y,z")
    T, ra, rb = tensor_with_renaming(A, B)
    assert ra["x"] == "x" and rb["z"] == "z"
    assert ra["y"] == "y1" and rb["y"] == "y2"
    assert T.signature.variables == ("x", "y1", "y2", "z")


def test_tensor_clash_suffix_collision():
    # y1 is taken in A, so A's clashing y becomes y1_1
    T, ra, rb = tensor_with_renaming(fc.ring("y,y1"), fc.ring("y"))
    assert ra == {"y": "y1_1", "y1": "y1"}
    assert rb == {"y": "y2"}
    assert T.signature.variables == ("y1_1", "y1", "y2")


def test_tensor_carries_defining_ideals():
    A = fc.ring("x,y,z", defining=("x*y - z^2",))
    B = fc.ring("u,v")
    T = tensor_with_renaming(A, B)[0]
    assert [str(g) for g in T.defining] == ["x*y - z^2"]
    assert T.signature.variables == ("x", "y", "z", "u", "v")


def test_graph_ideal_blowup_chart():
    X = fc.ring("u,v")
    Y = fc.ring("x,y")
    f = AffineMorphism(
        RingMap(Y, X, [fc.poly("u", X), fc.poly("u*v", X)])
    )
    J = graph_ideal(f)
    # target coordinates first, matching the base-then-chart convention
    assert J.ring.signature.variables == ("x", "y", "u", "v")
    assert [str(g) for g in J.generators] == ["x - u", "-u*v + y"]


def test_trim_generators(cone_ring):
    gens = [
        fc.poly("x", cone_ring),
        fc.poly("y", cone_ring),
        fc.poly("x + y", cone_ring),
        fc.poly("0", cone_ring),
    ]
    trimmed = trim_generators(cone_ring, gens)
    assert [str(g) for g in trimmed] == ["x", "y"]
    assert trim_generators(cone_ring, []) == []


def test_fibered_product_trims_to_two_generators():
    # both factors are charts of the cone resolution; the third pullback
    # difference is a combination of the first two
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
    assert len(J.generators) == 2
    assert [str(p) for p in J.generators] == ["u1 - u2", "u1*v1 - u2*v2"]
    # the dropped generator is still a member
    assert J.contains(fc.poly("u1*v1^2 - u2*v2^2", J.ring))


def test_fibered_product_requires_common_target():
    X = fc.ring("u")
    Y = fc.ring("x")
    Z = fc.ring("z")
    f = AffineMorphism(RingMap(Y, X, [fc.poly("u", X)]))
    g = AffineMorphism(RingMap(Z, X, [fc.poly("u^2", X)]))
    with pytest.raises(ArgumentError):
        fibered_product_ideal(f, g)


def test_invariant_presentation_round_trip():
    S = fc.ring("e,g,h")
    images = [fc.poly(t, S) for t in ("e^2", "g^2", "h^2", "e*g", "e*h", "g*h")]
    presented, onto = invariant_presentation(
        images, ("E", "G", "H", "A", "B", "C")
    )
    assert len(presented.defining) == 6
    # the presentation map really sends generators to the invariants
    for name, img in zip(presented.signature.variables, images):
        assert onto.apply(fc.poly(name, presented)) == img
    # relations die under the map
    for rel in presented.defining:
        lifted = fc.Polynomial(
            presented.signature, dict(rel.terms)
        )
        assert onto.apply(lifted).is_zero()


def test_script_image_ring_is_the_invariant_presentation():
    from flatcert.script import execute_text

    _, env = execute_text(
        "ring R = QQ[E,G,H,A,B,C];\n"
        "ring S = QQ[e,g,h];\n"
        "map F : R -> S = {e^2, g^2, h^2, e*g, e*h, g*h};\n"
        "ring V = image F;\n"
    )
    S = env["S"]
    images = [fc.poly(t, S) for t in ("e^2", "g^2", "h^2", "e*g", "e*h", "g*h")]
    presented, _ = invariant_presentation(images, ("E", "G", "H", "A", "B", "C"), S)
    assert presented.signature == env["V"].signature
    assert presented.defining == env["V"].defining
    assert env["F"].image().defining == presented.defining


def test_point_spec_requires_proper_ideal(qq_xy):
    with pytest.raises(ArgumentError):
        PointSpec(qq_xy, fc.ideal(qq_xy, fc.poly("1", qq_xy)))
    spec = PointSpec(qq_xy, fc.ideal(qq_xy, fc.poly("x", qq_xy), fc.poly("y", qq_xy)))
    assert spec.ring is qq_xy


# (variables, defining relations, point generators) of points like the
# bundled and tested ones, each with a reduced basis of I + D of degree 1.
POINTS = (
    ("x,y", (), ("x", "y")),
    ("u1,v1,u2,v2", (), ("u1", "v1")),
    ("x,y", (), ("x", "y - 1")),
    ("a,b,c", (), ("a",)),
    ("x,y,z", ("x*y - z^2",), ("x", "y", "z")),
)


@pytest.mark.parametrize(("variables", "defining", "point"), POINTS)
def test_a_point_ideal_of_degree_one_is_a_point(variables, defining, point):
    R = fc.ring(variables, defining=defining)
    spec = PointSpec(R, fc.ideal(R, *point))
    assert all(sum(m) <= 1 for g in spec.point_ideal.groebner_basis() for m in g.terms)


@pytest.mark.parametrize(
    ("defining", "point"),
    # The origin lies on V(x*y), where J = (x, y) is not flat, yet
    # Tor_1(J, R/(x*y)) vanishes.  Over QQ[x,y]/(x*y), R/(x - y) is
    # QQ[x]/(x^2): I + D has the basis x - y, y^2.
    [((), "x*y"), (("x*y",), "x - y")],
)
def test_a_point_ideal_that_is_not_a_point_is_refused(defining, point):
    R = fc.ring("x,y", defining=defining)
    with pytest.raises(ArgumentError, match="point ideal is not a point"):
        PointSpec(R, fc.ideal(R, point))


def test_flat_at_point_identity_extension(qq_xy):
    # a free (principal over a domain) ideal is flat everywhere
    P = fc.ring("x,y,t")
    J = fc.ideal(P, fc.poly("y - x*t", P))
    spec = PointSpec(P, fc.ideal(P, fc.poly("x", P), fc.poly("y", P)))
    verdict = flat_at_point(J, spec)
    assert verdict.flat
    assert verdict.tor_witness.is_zero
    assert str(verdict) == "flat"


def test_flat_at_point_name_inclusion():
    # base variables included by name into the chart's coordinate ring
    base = fc.ring("x,y")
    P = fc.ring("x,y,u,v")
    J = fc.ideal(P, fc.poly("x - u", P), fc.poly("y - u*v", P))
    spec = PointSpec(base, fc.ideal(base, fc.poly("x", base), fc.poly("y", base)))
    assert flat_at_point(J, spec).flat


def test_flat_at_point_along_map():
    base = fc.ring("s,t")
    P = fc.ring("x,y,u,v")
    J = fc.ideal(P, fc.poly("x - u", P), fc.poly("y - u*v", P))
    spec = PointSpec(base, fc.ideal(base, fc.poly("s", base), fc.poly("t", base)))
    along = RingMap(base, P, [fc.poly("x", P), fc.poly("y", P)])
    assert flat_at_point(J, spec, along=along).flat


def test_flat_at_point_detects_non_flatness(cone_ring):
    J = fc.ideal(
        cone_ring,
        fc.poly("x - u", cone_ring),
        fc.poly("z - u*v", cone_ring),
        fc.poly("y - u*v^2", cone_ring),
    )
    spec = PointSpec(
        cone_ring,
        fc.ideal(
            cone_ring,
            fc.poly("x", cone_ring),
            fc.poly("y", cone_ring),
            fc.poly("z", cone_ring),
        ),
    )
    verdict = flat_at_point(J, spec)
    assert not verdict.flat
    assert len(verdict.tor_witness.witness_generators) > 0


def test_flat_at_point_rejects_unrelated_base(qq_xy):
    P = fc.ring("u,v")
    J = fc.ideal(P, fc.poly("u", P))
    spec = PointSpec(qq_xy, fc.ideal(qq_xy, fc.poly("x", qq_xy)))
    with pytest.raises(ArgumentError):
        flat_at_point(J, spec)


def test_flat_at_point_checks_base_relations():
    # x*y - z^2 does not hold in the plain ring QQ[x,y,z,u,v], so the
    # cone's point cannot be included there: refuse, do not answer over
    # the polynomial ring instead
    cone = fc.ring("x,y,z", defining=("x*y - z^2",))
    spec = PointSpec(cone, fc.ideal(cone, "x", "y", "z"))
    P = fc.ring("x,y,z,u,v")
    J = fc.ideal(P, "x - u", "y - u*v")
    with pytest.raises(ArgumentError, match="x\\*y - z\\^2"):
        flat_at_point(J, spec)


def test_flat_at_point_includes_base_into_quotient():
    # the same base and ideal over QQ[x,y,z,u,v]/(x*y - z^2) still answer,
    # exactly as with the point given in the quotient ring itself
    cone = fc.ring("x,y,z", defining=("x*y - z^2",))
    R = fc.ring("x,y,z,u,v", defining=("x*y - z^2",))
    J = fc.ideal(R, "x - u", "y - u*v")
    verdict = flat_at_point(J, PointSpec(cone, fc.ideal(cone, "x", "y", "z")))
    same_ring = flat_at_point(J, PointSpec(R, fc.ideal(R, "x", "y", "z")))
    assert verdict.flat
    assert str(verdict) == str(same_ring)


@pytest.mark.parametrize(("generator", "flat_over_r"), [("x + y", True), ("1", True), ("y", False)])
def test_flat_at_point_refuses_a_ring_not_flat_over_the_point(generator, flat_over_r):
    # R = QQ[x,y]/(x*y) is not flat over QQ[x]: y is x-torsion.  So
    # Tor^R(J, R/xR) need not be Tor over QQ[x], and without a map the
    # probe refuses, whether the point lies in R or in QQ[x] by name.
    # J = (x + y) is not flat over QQ[x] (x*y^2 = 0 with y^2 in J), nor
    # is R itself; a probe that answered would read "flat" for both.
    R = fc.ring("x,y", defining=("x*y",))
    J = fc.ideal(R, generator)
    base = fc.ring("x")
    for spec in (PointSpec(R, fc.ideal(R, "x")), PointSpec(base, fc.ideal(base, "x"))):
        with pytest.raises(ArgumentError, match="ties the point's variables to others"):
            flat_at_point(J, spec)
    # An explicit map keeps its meaning: Tor over R against R/xR.
    along = RingMap(base, R, [fc.poly("x", R)])
    verdict = flat_at_point(J, PointSpec(base, fc.ideal(base, "x")), along=along)
    assert verdict.flat is flat_over_r


def test_flat_at_point_rejects_improper_extension():
    # the point ideal extends to the unit ideal: no fiber to test against
    base = fc.ring("x")
    P = fc.ring("x", defining=("x - 1",))
    J = fc.ideal(P, fc.poly("x", P))
    spec = PointSpec(base, fc.ideal(base, fc.poly("x", base)))
    with pytest.raises(ArgumentError):
        flat_at_point(J, spec)


def test_smooth_charts_are_flat():
    # five chart maps of the plane, all flat at the blown-up point
    charts = (("u", "u*v"), ("u*v", "v"), ("u", "v"), ("u^2", "v"), ("u", "u*v^2"))
    P = fc.ring("x,y,u,v")
    spec = PointSpec(P, fc.ideal(P, fc.poly("x", P), fc.poly("y", P)))
    for f1, f2 in charts:
        J = fc.ideal(P, fc.poly(f"x - ({f1})", P), fc.poly(f"y - ({f2})", P))
        assert flat_at_point(J, spec).flat, (f1, f2)


def test_affine_morphism_direction():
    X = fc.ring("u,v")
    Y = fc.ring("x,y")
    f = AffineMorphism(RingMap(Y, X, [fc.poly("u", X), fc.poly("u*v", X)]))
    assert f.source_ring is X
    assert f.target_ring is Y


def test_tensor_keeps_a_common_order():
    lex = tensor_with_renaming(
        fc.ring("a", order=fc.LEX), fc.ring("x,y", order=fc.LEX)
    )[0]
    assert lex.signature.order == fc.LEX
    mixed = tensor_with_renaming(fc.ring("a", order=fc.LEX), fc.ring("x,y"))[0]
    assert mixed.signature.order == fc.GREVLEX
    block = fc.RingSignature(("x", "y"), fc.BLOCK, block=1)
    blocked = tensor_with_renaming(
        fc.PresentedRing(block), fc.PresentedRing(block)
    )[0]
    assert blocked.signature.order == fc.GREVLEX


def test_script_order_reaches_tensor_rings():
    from flatcert.cli import bundled_case_text
    from flatcert.script import execute_text

    report, env = execute_text(bundled_case_text("francia.fc"), fc.LEX)
    assert report.status == 0
    assert env["T"].signature.order == fc.LEX
    assert env["V"].signature.order == fc.LEX
