"""Division, Buchberger, reduced bases, elimination, and ring maps."""

import random

import pytest

import flatcert as fc
from flatcert import (
    ArgumentError,
    IdealHandle,
    RingMap,
    divide,
    eliminate,
    map_kernel,
    reduced_basis,
)
from helpers import (
    brute_membership,
    is_reduced_basis,
    random_poly,
    spolynomial_certificate,
)


def test_divide_reconstruction_identity(qq_xyz):
    # f = sum(q_i d_i) + r exactly, and no r-term divisible by any lead
    sig = qq_xyz.signature
    rng = random.Random(7)
    for _ in range(60):
        f = random_poly(rng, sig, max_deg=3, max_terms=4)
        divisors = tuple(
            random_poly(rng, sig, max_deg=2, max_terms=3) for _ in range(2)
        )
        divisors = tuple(d for d in divisors if not d.is_zero())
        if not divisors:
            continue
        quots, rem = divide(f, divisors)
        recombined = rem
        for q, d in zip(quots, divisors):
            recombined = recombined + q * d
        assert recombined == f
        for m in rem.terms:
            assert not any(
                fc.mono_divides(d.leading_monomial(), m) for d in divisors
            )


def test_divide_examples(qq_xyz):
    x = fc.poly("x", qq_xyz)
    y = fc.poly("y", qq_xyz)
    z = fc.poly("z", qq_xyz)
    quots, rem = divide(x * y, (x * y - z**2,))
    assert [str(q) for q in quots] == ["1"]
    assert rem == z**2
    # remainder of x^2 by (x) is zero
    _, rem = divide(x**2, (x,))
    assert rem.is_zero()
    with pytest.raises(ArgumentError):
        divide(x, (fc.Polynomial.zero(qq_xyz.signature),))


def test_divide_depends_on_divisor_order(qq_xy):
    # first-match selection: quotients differ, remainder contract holds
    x = fc.poly("x", qq_xy)
    y = fc.poly("y", qq_xy)
    f = x * y
    qa, ra = divide(f, (x, y))
    qb, rb = divide(f, (y, x))
    assert ra.is_zero() and rb.is_zero()
    assert [str(q) for q in qa] == ["y", "0"]
    assert [str(q) for q in qb] == ["x", "0"]


def test_reduced_groebner_examples(qq_xy, qq_xyz):
    x = fc.poly("x", qq_xy)
    y = fc.poly("y", qq_xy)
    # already a reduced basis, kept as is
    gb = fc.ideal(qq_xy, x**2, x * y).groebner_basis()
    assert [str(g) for g in gb] == ["x^2", "x*y"]
    # classic intersection: leads produce a new generator
    gb2 = fc.ideal(qq_xy, x**2 * y - 1, x * y**2 - x).groebner_basis()
    assert is_reduced_basis(gb2)
    assert spolynomial_certificate(gb2, divide)
    # graph of a blowup chart in four variables
    P = fc.ring("x,y,u,v")
    gb3 = fc.ideal(P, fc.poly("x - u", P), fc.poly("y - u*v", P)).groebner_basis()
    assert [str(g) for g in gb3] == ["u*v - y", "x - u"]


def test_reduced_groebner_unit_ideal(qq_xy):
    x = fc.poly("x", qq_xy)
    gb = fc.ideal(qq_xy, x, x - 1).groebner_basis()
    assert [str(g) for g in gb] == ["1"]
    assert not fc.ideal(qq_xy, x, x - 1).is_proper()
    assert fc.ideal(qq_xy, x).is_proper()


def test_reduced_groebner_empty_and_zero(qq_xy):
    assert fc.ideal(qq_xy).groebner_basis() == ()
    zero = fc.Polynomial.zero(qq_xy.signature)
    assert fc.ideal(qq_xy, zero).groebner_basis() == ()


def test_groebner_shuffle_uniqueness(qq_xyz):
    # the reduced basis is a canonical form: input order cannot matter
    sig = qq_xyz.signature
    rng = random.Random(31)
    for round_ in range(12):
        gens = [random_poly(rng, sig, max_deg=2, max_terms=3) for _ in range(3)]
        reference = IdealHandle(qq_xyz, gens).groebner_basis()
        for _ in range(4):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert IdealHandle(qq_xyz, shuffled).groebner_basis() == reference
        assert is_reduced_basis(reference) or reference == ()
        assert spolynomial_certificate(reference, divide)


def test_membership_and_normal_form(cone_ring):
    # x*y lies in the defining ideal's class: reduce sends it to z^2
    J = fc.ideal(
        cone_ring,
        fc.poly("x - u", cone_ring),
        fc.poly("z - u*v", cone_ring),
        fc.poly("y - u*v^2", cone_ring),
    )
    # substituting the chart shows membership of y*u*v - z*u*v^2 style combos
    assert J.contains(fc.poly("x - u", cone_ring))
    assert J.contains(fc.poly("z^2 - y*u", cone_ring))
    assert not J.contains(fc.poly("x", cone_ring))
    nf = J.normal_form(fc.poly("x", cone_ring))
    assert str(nf) == "u"


def test_membership_matches_brute_force(qq_xy):
    sig = qq_xy.signature
    rng = random.Random(59)
    for _ in range(10):
        gens = [random_poly(rng, sig, max_deg=2, max_terms=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        J = IdealHandle(qq_xy, gens)
        probe = random_poly(rng, sig, max_deg=2, max_terms=2)
        got = J.contains(probe)
        want = brute_membership(qq_xy, probe, gens, 4)
        # brute force proves membership up to degree 4 cofactors only;
        # it can miss high-degree certificates but never invents one
        if want:
            assert got
        if not got:
            assert not want


def test_ideal_equality_by_basis(qq_xy):
    x = fc.poly("x", qq_xy)
    y = fc.poly("y", qq_xy)
    a = fc.ideal(qq_xy, x, y)
    b = fc.ideal(qq_xy, x + y, y)
    assert a == b
    assert a != fc.ideal(qq_xy, x)


def test_quotient_ring_groebner(cone_ring, dual_numbers):
    # over QQ[x]/(x^2): the ideal (x) has basis (x), and x*x reduces to 0
    J = fc.ideal(dual_numbers, fc.poly("x", dual_numbers))
    assert [str(g) for g in J.groebner_basis()] == ["x"]
    assert J.contains(fc.poly("x^2", dual_numbers))
    # defining relations are members of every ideal's basis closure
    K = fc.ideal(cone_ring, fc.poly("x", cone_ring))
    assert K.contains(fc.poly("x*y - z^2", cone_ring))


def test_eliminate_examples():
    # projecting the twisted pair: eliminate u from (x - u, y - u^2)
    P = fc.ring("x,y,u")
    J = fc.ideal(P, fc.poly("x - u", P), fc.poly("y - u^2", P))
    E = eliminate(J, ("u",))
    assert E.ring.signature.variables == ("x", "y")
    assert [str(g) for g in E.generators] == ["x^2 - y"]
    # eliminating nothing re-presents the same ideal
    same = eliminate(J, ())
    assert same.generators == J.generators
    with pytest.raises(ArgumentError):
        eliminate(J, ("nope",))


def test_eliminate_respects_quotient():
    # eliminate u,v from the chart ideal inside the cone ring: the image
    # is cut out by the cone equation itself, hence no extra generators
    R = fc.ring("x,y,z,u,v", defining=("x*y - z^2",))
    J = fc.ideal(
        R,
        fc.poly("x - u", R),
        fc.poly("z - u*v", R),
        fc.poly("y - u*v^2", R),
    )
    E = eliminate(J, ("u", "v"))
    assert E.ring.signature.variables == ("x", "y", "z")
    # the graph projects onto the cone: only the defining relation remains
    assert [str(g) for g in E.generators] == ["x*y - z^2"]


def test_ring_map_validation(qq_xy):
    S = fc.ring("u,v")
    with pytest.raises(fc.DimensionError):
        RingMap(qq_xy, S, [fc.poly("u", S)])
    # a map out of a quotient must kill the defining ideal
    R = fc.ring("x,y", defining=("x*y",))
    with pytest.raises(ArgumentError):
        RingMap(R, S, [fc.poly("u", S), fc.poly("v", S)])
    ok = RingMap(R, S, [fc.poly("u", S), fc.poly("0", S)])
    f = fc.poly("x^2 + y", R)
    assert str(ok.apply(f)) == "u^2"


def test_map_kernel_parabola():
    R = fc.ring("x,y")
    S = fc.ring("t")
    F = RingMap(R, S, [fc.poly("t", S), fc.poly("t^2", S)])
    K = map_kernel(F)
    assert [str(g) for g in K.generators] == ["x^2 - y"]


def test_map_kernel_name_clash():
    # source and target share variable names; the kernel is still correct
    R = fc.ring("x,y")
    S = fc.ring("x")
    F = RingMap(R, S, [fc.poly("x", S), fc.poly("x^2", S)])
    K = map_kernel(F)
    assert [str(g) for g in K.generators] == ["x^2 - y"]


def test_map_kernel_veronese_quadrics():
    # squares and products of three linear forms: kernel is six quadrics
    R = fc.ring("E,G,H,A,B,C")
    S = fc.ring("e,g,h")
    F = RingMap(
        R,
        S,
        [fc.poly(t, S) for t in ("e^2", "g^2", "h^2", "e*g", "e*h", "g*h")],
    )
    K = map_kernel(F)
    assert len(K.generators) == 6
    for rel in (
        "A^2 - E*G",
        "B^2 - E*H",
        "C^2 - G*H",
        "A*B - E*C",
        "A*C - G*B",
        "B*C - H*A",
    ):
        assert K.contains(fc.poly(rel, R)), rel
    # and the images really do vanish on the kernel generators
    for g in K.generators:
        assert F.apply(g).is_zero()


def test_map_kernel_injective():
    R = fc.ring("x")
    S = fc.ring("u,v")
    F = RingMap(R, S, [fc.poly("u + v", S)])
    assert map_kernel(F).generators == ()


def test_reduced_basis_is_sorted_descending(qq_xyz):
    sig = qq_xyz.signature
    rng = random.Random(41)
    key = sig.descending_key()
    for _ in range(10):
        gens = [random_poly(rng, sig, max_deg=2, max_terms=3) for _ in range(3)]
        basis = reduced_basis(gens)
        leads = [key(g.leading_monomial()) for g in basis]
        assert leads == sorted(leads)


def test_reduced_basis_rejects_mixed_signatures(qq_xy):
    lex = fc.ring("x,y", order="lex")
    with pytest.raises(fc.DimensionError):
        reduced_basis([fc.poly("x + y", qq_xy), fc.poly("x", lex)])


def test_ideal_and_ring_run_buchberger_once_each(cone_ring, monkeypatch):
    import flatcert.modules as modules

    runs = []
    engine = modules._module_buchberger

    def counted(*args):
        runs.append(args)
        return engine(*args)

    monkeypatch.setattr(modules, "_module_buchberger", counted)
    J = fc.ideal(cone_ring, "x - u", "z - u*v")
    z = fc.poly("z", cone_ring)
    basis = J.groebner_basis()
    assert J.normal_form(fc.poly("u*v", cone_ring)) == z
    # J's table starts from the ring's reduced basis, so the ring's run
    # comes first.
    assert J.contains(basis[0]) and len(runs) == 2
    assert cone_ring.reduce(fc.poly("x*y", cone_ring)) == z**2
    assert cone_ring.defining_basis() == (fc.poly("x*y - z^2", cone_ring),)
    assert len(runs) == 2


def test_flat_at_point_runs_buchberger_once_on_the_point(monkeypatch):
    import flatcert.flatness as flatness
    import flatcert.modules as modules

    runs, runs_before_tor = [], []
    engine = modules._module_buchberger
    real_tor = flatness.tor

    def counted(*args):
        runs.append(args)
        return engine(*args)

    def tor_after_point(*args):
        runs_before_tor.append(len(runs))
        return real_tor(*args)

    monkeypatch.setattr(modules, "_module_buchberger", counted)
    monkeypatch.setattr(flatness, "tor", tor_after_point)
    R = fc.ring("x,y,u,v")
    point = fc.PointSpec(R, fc.ideal(R, "u", "v"))
    assert fc.flat_at_point(fc.ideal(R, "x - u", "y - u*v"), point).flat
    assert runs_before_tor == [1]
