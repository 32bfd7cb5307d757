"""Polynomial arithmetic, monomial orders, and presented rings."""

import random
from fractions import Fraction

import pytest

import flatcert as fc
from flatcert import (
    ArgumentError,
    DimensionError,
    Polynomial,
    PresentedRing,
    RingSignature,
    compare_monomials,
    fresh_name,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quotient,
    transplant,
)
from helpers import monomials_up_to, random_poly


def test_monomial_helpers():
    assert mono_mul((1, 2), (0, 3)) == (1, 5)
    assert mono_divides((1, 0), (1, 2))
    assert not mono_divides((2, 0), (1, 2))
    assert mono_quotient((3, 2), (1, 2)) == (2, 0)
    assert mono_lcm((1, 2), (2, 0)) == (2, 2)
    assert mono_degree((3, 0, 1)) == 4
    with pytest.raises(ArgumentError):
        mono_quotient((1, 0), (0, 1))


def test_grevlex_examples():
    # x > y > z in three variables
    sig = RingSignature(("x", "y", "z"))
    assert compare_monomials((1, 0, 0), (0, 1, 0), sig) == 1
    assert compare_monomials((0, 1, 0), (0, 0, 1), sig) == 1
    # graded first: z^2 beats x in degree
    assert compare_monomials((0, 0, 2), (1, 0, 0), sig) == 1
    # same degree: x*y > z^2 because z^2 has the larger last exponent
    assert compare_monomials((1, 1, 0), (0, 0, 2), sig) == 1
    assert compare_monomials((1, 1, 0), (1, 1, 0), sig) == 0
    # two variables: x > y
    sig2 = RingSignature(("x", "y"))
    assert compare_monomials((1, 0), (0, 1), sig2) == 1


def test_lex_examples():
    sig = RingSignature(("x", "y"), order=fc.LEX)
    # x beats any power of y under lex
    assert compare_monomials((1, 0), (0, 5), sig) == 1
    assert compare_monomials((0, 2), (0, 1), sig) == 1


def test_block_order_eliminates_leading_block():
    # any monomial containing a block-one variable beats every monomial
    # in the trailing block, regardless of degree
    sig = RingSignature(("t", "x", "y"), order=fc.BLOCK, block=1)
    assert compare_monomials((1, 0, 0), (0, 4, 4), sig) == 1
    # within the trailing block the order is grevlex
    assert compare_monomials((0, 1, 0), (0, 0, 1), sig) == 1


def test_order_totality_and_compatibility():
    # a total order compatible with multiplication and with 1 minimal
    rng = random.Random(11)
    for sig in (
        RingSignature(("x", "y", "z")),
        RingSignature(("x", "y", "z"), order=fc.LEX),
        RingSignature(("x", "y", "z"), order=fc.BLOCK, block=2),
    ):
        monos = monomials_up_to(3, 3)
        for _ in range(200):
            a, b, c = (rng.choice(monos) for _ in range(3))
            cab = compare_monomials(a, b, sig)
            assert cab == -compare_monomials(b, a, sig)
            if cab == 0:
                assert a == b
            if cab == 1:
                assert compare_monomials(mono_mul(a, c), mono_mul(b, c), sig) == 1
            if a != (0, 0, 0):
                assert compare_monomials(a, (0, 0, 0), sig) == 1


def test_signature_validation():
    with pytest.raises(ArgumentError):
        RingSignature(("x", "x"))
    with pytest.raises(ArgumentError):
        RingSignature(("x",), order="weird")
    with pytest.raises(ArgumentError):
        RingSignature(("x", "y"), order=fc.BLOCK, block=5)
    with pytest.raises(DimensionError):
        compare_monomials((1, 0), (1, 0, 0), RingSignature(("x", "y")))


def test_fresh_name():
    assert fresh_name("u", {"x", "y"}) == "u"
    assert fresh_name("x", {"x", "x_1"}) == "x_2"


def test_polynomial_construction_and_str(qq_xyz):
    sig = qq_xyz.signature
    x = fc.poly("x", qq_xyz)
    y = fc.poly("y", qq_xyz)
    z = fc.poly("z", qq_xyz)
    assert str(x * y - z**2) == "x*y - z^2"
    assert str(Polynomial.zero(sig)) == "0"
    assert str(x - x) == "0"
    assert str(2 * x) == "2*x"
    assert str(x**2 - x + 1) == "x^2 - x + 1"
    assert str(Polynomial.constant(sig, Fraction(-3, 2))) == "-3/2"
    assert str(-(x * y)) == "-x*y"
    # leading data under grevlex
    f = x * y + z**2 + y
    assert f.leading_monomial() == (1, 1, 0)
    assert f.leading_coefficient() == 1
    assert (3 * f).monic() == f


def test_polynomial_arithmetic_random(qq_xyz):
    # ring axioms spot-checked on random triples
    sig = qq_xyz.signature
    rng = random.Random(5)
    for _ in range(60):
        f = random_poly(rng, sig)
        g = random_poly(rng, sig)
        h = random_poly(rng, sig)
        assert (f + g) - g == f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f * Polynomial.constant(sig, 1) == f
        assert f + Polynomial.zero(sig) == f


def test_polynomial_power_and_errors(qq_xy):
    x = fc.poly("x", qq_xy)
    y = fc.poly("y", qq_xy)
    assert x**0 == fc.poly("1", qq_xy)
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    with pytest.raises(ArgumentError):
        x ** (-1)
    other = fc.ring("x,z")
    with pytest.raises(DimensionError):
        x + fc.poly("x", other)


def test_immutability(qq_xy):
    x = fc.poly("x", qq_xy)
    with pytest.raises(AttributeError):
        x.terms = {}
    with pytest.raises(TypeError):
        hash(x)


def test_transplant(qq_xy):
    big = fc.ring("a,x,y,b")
    x = fc.poly("x^2 + y", qq_xy)
    moved = transplant(x, big.signature)
    assert str(moved) == "x^2 + y"
    renamed = transplant(x, big.signature, rename={"x": "a", "y": "b"})
    assert str(renamed) == "a^2 + b"
    small = fc.ring("x")
    with pytest.raises(ArgumentError):
        transplant(x, small.signature)


def test_presented_ring_reduce_and_str(cone_ring):
    # x*y reduces to z^2 modulo the cone equation
    f = fc.poly("x*y", cone_ring)
    assert str(cone_ring.reduce(f)) == "z^2"
    assert str(cone_ring) == "QQ[x,y,z,u,v]/(x*y - z^2)"
    plain = fc.ring("x,y")
    assert not plain.is_quotient
    assert plain.reduce(fc.poly("x*y", plain)) == fc.poly("x*y", plain)
    assert cone_ring.is_quotient


def test_presented_ring_drops_zero_generators():
    ring = PresentedRing(RingSignature(("x",)), [Polynomial.zero(RingSignature(("x",)))])
    assert not ring.is_quotient


def test_presented_ring_defining_basis_idempotent(cone_ring):
    first = cone_ring.defining_basis()
    assert first is cone_ring.defining_basis()
    assert [str(g) for g in first] == ["x*y - z^2"]


def test_quotient_drops_named_variables(cone_ring):
    # -2*x and 3*v name variables; z - v becomes z, x*y - z^2 becomes -z^2
    gens = [fc.poly(g, cone_ring) for g in ("-2*x", "z - v + x*u", "3*v")]
    fiber, project = cone_ring.quotient(gens)
    assert fiber.signature == RingSignature(("y", "z", "u"))
    assert [str(q) for q in fiber.defining] == ["z", "-z^2"]
    f = fc.poly("x*y + y*u^2 - 5*v + 7", cone_ring)
    assert project(f) == fc.poly("y*u^2 + 7", fiber)
    assert fiber.reduce(project(fc.poly("z*u + y", cone_ring))) == fc.poly("y", fiber)
    with pytest.raises(DimensionError):
        project(fc.poly("x", fc.ring("x,y")))
    with pytest.raises(DimensionError):
        cone_ring.quotient([fc.poly("x", fc.ring("x,y"))])


def test_quotient_restricts_the_order():
    sig = RingSignature(("a", "b", "c", "d", "e"), fc.BLOCK, block=3)
    ring = PresentedRing(sig)
    fiber, _ = ring.quotient([ring.var("b"), ring.var("e")])
    assert fiber.signature == RingSignature(("a", "c", "d"), fc.BLOCK, block=2)
    lex = fc.ring("x,y,z", order=fc.LEX)
    fiber, project = lex.quotient([fc.poly("y", lex), fc.poly("x^2 - z", lex)])
    assert fiber.signature == RingSignature(("x", "z"), fc.LEX)
    assert [str(q) for q in fiber.defining] == ["x^2 - z"]
    # every variable named: the ring of constants
    point, project = lex.quotient([lex.var(v) for v in "xyz"])
    assert point.signature.nvars == 0
    assert project(fc.poly("x*y + 2", lex)) == Polynomial.constant(point.signature, 2)


def test_presented_ring_equality_compares_ideals():
    R = fc.ring("x,y,z", defining=("x*y - z^2", "x - y"))
    S = fc.ring("x,y,z", defining=("x - y", "x*y - z^2"))
    assert R.defining != S.defining
    assert R == S
    assert R != fc.ring("x,y,z", defining=("x - y",))
    assert R != fc.ring("x,y,z", defining=("x*y - z^2", "x - y"), order="lex")


def test_star_import_exports_public_names_only():
    namespace: dict = {}
    exec("from flatcert import *", namespace)
    assert namespace["ring"] is fc.ring
    assert namespace["poly"] is fc.poly and callable(namespace["poly"])
    assert namespace["ideal"] is fc.ideal
    for name in ("annotations", "Iterable", "Sequence", "Union", "groebner", "modules"):
        assert name not in namespace


def test_ring_constructor_rejects_bad_input():
    with pytest.raises(ArgumentError):
        fc.ring("x,x")
