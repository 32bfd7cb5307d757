"""Exponents far beyond any fixed field width, through the module engine.

`parse` accepts `x^100000` and exponents beyond 2^64, and every
polynomial keeps exact Python-int exponents.  These tests run such
inputs through reduced bases under grevlex, lex and block orders and
through `tor`, and check them against independent evidence: sympy's
`groebner` where it finishes, and otherwise the S-pair certificate, the
reduction of every generator to zero by `divide`, and pinned text.
"""

import pytest

import flatcert as fc
from flatcert import (
    BLOCK,
    GREVLEX,
    LEX,
    PresentedModule,
    RingSignature,
    divide,
    parse_polynomial,
    reduced_basis,
    tor,
)
from helpers import (
    basis_set,
    is_reduced_basis,
    spolynomial_certificate,
    sympy_reduced_basis,
    to_sympy,
)

BIG = 2**70
ORDERS = ((GREVLEX, 0), (LEX, 0), (BLOCK, 1), (BLOCK, 2))

# Each reduced basis is pinned; the S-pairs that produce it are short
# (for BIG: z*(x^BIG - y*z) - x^(BIG-1)*(x*z) = -y*z^2, and
# z^2*(y^2 - z) - y*(y*z^2) = -z^3), so the text is checked by hand too.
CASES = {
    "x^100000 - y, x*y^70000": {
        GREVLEX: "x^100000 - y; x*y^70000; y^70001",
        LEX: "x^100000 - y; x*y^70000; y^70001",
        (BLOCK, 1): "x^100000 - y; x*y^70000; y^70001",
        (BLOCK, 2): "x^100000 - y; x*y^70000; y^70001",
    },
    f"x^{BIG} - y*z, y^2 - z, x*z": {
        GREVLEX: f"x^{BIG} - y*z; y*z^2; z^3; y^2 - z; x*z",
        LEX: f"x^{BIG} - y*z; x*z; y^2 - z; y*z^2; z^3",
        (BLOCK, 1): f"x^{BIG} - y*z; x*z; y*z^2; z^3; y^2 - z",
        (BLOCK, 2): f"x^{BIG} - y*z; y^2 - z; x*z; y*z^2; z^3",
    },
}


def _basis(gens_text, order, block):
    sig = RingSignature(("x", "y", "z"), order, block)
    gens = [parse_polynomial(g, sig) for g in gens_text.split(", ")]
    return gens, reduced_basis(gens)


@pytest.mark.parametrize("order,block", ORDERS)
@pytest.mark.parametrize("gens_text", sorted(CASES))
def test_huge_exponent_reduced_basis(gens_text, order, block):
    gens, basis = _basis(gens_text, order, block)
    expected = CASES[gens_text][(order, block) if order == BLOCK else order]
    assert "; ".join(map(str, basis)) == expected
    assert is_reduced_basis(basis)
    assert spolynomial_certificate(basis, divide)
    assert all(divide(g, basis)[1].is_zero() for g in gens)


@pytest.mark.parametrize("order", (GREVLEX, LEX))
def test_exponent_100000_matches_sympy(order):
    sympy = pytest.importorskip("sympy")
    gens, basis = _basis("x^100000 - y, x*y^70000", order, 0)
    symbols = sympy.symbols("x y z")
    expected = sympy_reduced_basis(
        [to_sympy(g, symbols) for g in gens], symbols, order
    )
    assert basis_set(basis) == expected


@pytest.mark.parametrize("order", (GREVLEX, LEX))
def test_tor_over_a_ring_with_a_large_exponent_relation(order):
    R = fc.ring("x,y,z", ["x*y^70000 - z^2"], order=order)
    M = PresentedModule.cyclic(R, [fc.poly("x", R), fc.poly("z", R)])
    N = PresentedModule.cyclic(R, [fc.poly("y", R), fc.poly("z", R)])
    one = tor(1, M, N)
    two = tor(2, M, N)
    assert [str(w) for w in one.witness_generators] == ["(0, 1)"]
    assert [str(w) for w in two.witness_generators] == ["(1, 0)"]
    # Tor is balanced: the same groups vanish with the arguments swapped.
    assert tor(1, N, M).is_zero == one.is_zero
    assert tor(2, N, M).is_zero == two.is_zero
    R2 = fc.ring("x,y,z", [f"x^{BIG} - y*z"], order=order)
    M2 = PresentedModule.cyclic(R2, [fc.poly("y", R2), fc.poly("z", R2)])
    N2 = PresentedModule.cyclic(R2, [fc.poly("x", R2)])
    assert [str(w) for w in tor(1, M2, N2).witness_generators] == ["(z, 0)", "(0, y)"]
    assert tor(2, M2, N2).is_zero


def _narrowest(degree: int) -> int:
    """A field width that just holds `degree`, so that nearly every
    engine run overflows and restarts at double width."""
    return max(2, degree.bit_length() + 1)


def test_forced_widening_leaves_exact_outputs_byte_identical(monkeypatch):
    import flatcert.modules as modules
    from test_exact_outputs import (
        GOLDEN,
        RESOLUTION_PINS,
        exact_outputs,
        resolution_pins,
    )

    restarts = []
    engine = modules._module_buchberger

    def spied(gens, pk, rank):
        try:
            return engine(gens, pk, rank)
        except modules._Overflow:
            restarts.append(pk.width)
            raise

    monkeypatch.setattr(modules, "_initial_width", _narrowest)
    monkeypatch.setattr(modules, "_module_buchberger", spied)
    assert exact_outputs() == GOLDEN.read_text(encoding="utf-8")
    assert resolution_pins() == RESOLUTION_PINS.read_text(encoding="utf-8")
    assert len(restarts) > 50


@pytest.mark.parametrize("order,block", ORDERS)
def test_forced_widening_on_huge_exponents(order, block, monkeypatch):
    import flatcert.modules as modules

    expected = {text: _basis(text, order, block)[1] for text in CASES}
    monkeypatch.setattr(modules, "_initial_width", _narrowest)
    for text, basis in expected.items():
        assert _basis(text, order, block)[1] == basis


def test_a_table_repacks_for_a_query_wider_than_itself():
    from flatcert import MembershipBasis

    R = fc.ring("x,y,z", ["x*y - z^2"])
    table = MembershipBasis(R, 2, [(fc.poly("x", R), fc.poly("y - z", R))])
    wide = (fc.poly(f"y^{BIG} + x*z^100000", R), fc.poly(f"x^{BIG}*z", R))
    # The column's lead x takes x*z^100000 out of the first coordinate,
    # which leaves -(y - z)*z^100000 in the second; no lead of the table
    # divides what is left.
    nf = (fc.poly(f"y^{BIG}", R), fc.poly(f"x^{BIG}*z - y*z^100000 + z^100001", R))
    assert table.normal_form(wide) == nf
    assert table.normal_form(nf) == nf
    assert table.contains((fc.poly("x", R), fc.poly("y - z", R)))
