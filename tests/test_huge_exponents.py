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
    assert_reduced_modulo_ring,
    basis_set,
    is_reduced_basis,
    pot_lead,
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


def _narrowest_packed_run(ring, run, width=2):
    """`modules._packed_run` from width 2 and one bit wider per overflow:
    each run packs its inputs at the narrowest width that holds them, so
    nearly every engine run overflows and restarts."""
    import flatcert.modules as modules

    sig = ring.signature
    while True:
        try:
            return run(modules._packing(sig.order, sig.block, sig.nvars, width))
        except modules._Overflow:
            width += 1


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

    def spied(gens, pk, *rest):
        try:
            return engine(gens, pk, *rest)
        except modules._Overflow:
            restarts.append(pk.width)
            raise

    monkeypatch.setattr(modules, "_packed_run", _narrowest_packed_run)
    monkeypatch.setattr(modules, "_module_buchberger", spied)
    assert exact_outputs() == GOLDEN.read_text(encoding="utf-8")
    assert resolution_pins() == RESOLUTION_PINS.read_text(encoding="utf-8")
    # Every run that outgrows its width restarts: 26 Buchberger runs on
    # these outputs (a resolution's Schreyer steps run none, and neg2's
    # `tor(1, J, K)` assertion, nonzero by weighted degrees, takes no next
    # step).  A pair with
    # coprime leads, at rank 1 or between a ring relation and an element,
    # is dropped on its support masks before an lcm is formed, so no such
    # lcm can overflow and force a restart.
    assert len(restarts) == 26


@pytest.mark.parametrize("order,block", ORDERS)
def test_forced_widening_on_huge_exponents(order, block, monkeypatch):
    import flatcert.modules as modules

    expected = {text: _basis(text, order, block)[1] for text in CASES}
    monkeypatch.setattr(modules, "_packed_run", _narrowest_packed_run)
    for text, basis in expected.items():
        assert _basis(text, order, block)[1] == basis


def test_a_table_rebuilds_for_a_query_wider_than_itself():
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


def _syzygies_spied(columns, nrows, ring, monkeypatch, generators=False):
    """syzygy_entries(columns, nrows, ring), or with `generators` the
    kernel generators of the same columns, with the width of each engine
    run and each `_Overflow` recorded: ("engine", width) from a
    Buchberger run, ("ring", width) from a normal form taken after one,
    which is the reduction modulo the ring in `kernel_generators` and
    the reduction of each basis element's tail in `syzygy_entries`.
    `syzygy_entries` makes two engine runs per width, generator mode and
    then the rank-m table of its syzygies."""
    import flatcert.modules as modules
    from flatcert import PolyMatrix, kernel_generators
    from flatcert.modules import syzygy_entries

    widths, overflows, finished = [], [], []
    engine, normal_form = modules._module_buchberger, modules._vp_normal_form

    def spied_engine(gens, pk, *rest):
        widths.append(pk.width)
        finished.clear()
        try:
            result = engine(gens, pk, *rest)
        except modules._Overflow:
            overflows.append(("engine", pk.width))
            raise
        finished.append(pk.width)
        return result

    def spied_normal_form(*args):
        pk = args[-1]
        try:
            return normal_form(*args)
        except modules._Overflow:
            if finished:
                overflows.append(("ring", pk.width))
            raise

    ring.defining_basis()  # built outside the spied call
    with monkeypatch.context() as patch:
        patch.setattr(modules, "_module_buchberger", spied_engine)
        patch.setattr(modules, "_vp_normal_form", spied_normal_form)
        if generators:
            out = kernel_generators(PolyMatrix(ring, nrows, columns))
        else:
            out = syzygy_entries(columns, nrows, ring)
    return list(out), widths, overflows


def _reduced_entry_by_entry(columns, nrows, ring):
    """The same syzygies by the per-entry route: the engine over the
    polynomial ring with the defining generators as extra relations in
    every coordinate, the elements led by lt(g)*e_j for g in the ring's
    reduced basis dropped, then `ring.reduce` on each entry, and the
    vectors that vanish dropped."""
    from flatcert import PresentedRing
    from flatcert.modules import syzygy_entries

    sig = ring.signature
    basis = ring.defining_basis()
    ring_leads = [pot_lead((g,), sig.order, sig.block)[1] for g in basis]
    free = PresentedRing(sig)
    zero = free.zero()
    extra = [
        tuple(q if k == i else zero for k in range(nrows))
        for q in ring.defining
        for i in range(nrows)
    ]
    out = []
    for v in syzygy_entries(columns, nrows, free, extra):
        if pot_lead(tuple(v), sig.order, sig.block)[1] in ring_leads:
            continue
        v = tuple(ring.reduce(e) for e in v)
        if any(not e.is_zero() for e in v):
            out.append(v)
    return out


# Under lex, normal forms modulo these rings outgrow the 16-bit fields
# that degree 200 asks for.  The reduced basis of (x - y^200, y - z^200)
# holds x - z^40000; over (y - z^200) alone the Koszul syzygy
# (x - y^200, -y) of (y, x - y^200) reduces to (x - z^40000, -z^200).
def test_the_reduced_ring_basis_sets_the_width_of_a_syzygy_run(monkeypatch):
    R = fc.ring("x,y,z", ["x - y^200", "y - z^200"], order=LEX)
    assert [str(p) for p in R.defining_basis()] == ["x - z^40000", "y - z^200"]
    columns = [(fc.poly("y", R),), (fc.poly("x", R),)]
    out, widths, overflows = _syzygies_spied(columns, 1, R, monkeypatch)
    # (z^40000, -z^200) is z^200 times this one.
    assert [tuple(map(str, v)) for v in out] == [("z^39800", "-1")]
    assert_reduced_modulo_ring(out, R)
    assert out == _reduced_entry_by_entry(columns, 1, R)
    assert (widths, overflows) == ([32, 32], [])


# `syzygy_entries`' table of syzygies holds g*e_j for each ring basis
# element g and each position j, so each basis element's tail, reduced
# against that table, is already reduced modulo the ring, and a field
# that the ring outgrows overflows in an engine run.
def test_a_syzygy_reduction_that_overflows_reruns_wider(monkeypatch):
    R = fc.ring("x,y,z", ["y - z^200"], order=LEX)
    columns = [(fc.poly("y", R),), (fc.poly("x - y^200", R),)]
    out, widths, overflows = _syzygies_spied(columns, 1, R, monkeypatch)
    assert [tuple(map(str, v)) for v in out] == [("x - z^40000", "-z^200")]
    assert_reduced_modulo_ring(out, R)
    assert out == _reduced_entry_by_entry(columns, 1, R)
    assert (widths, overflows) == ([16, 32, 32], [("engine", 16)])


# Generator mode reduces no tracker part inside the run: the S-pair of
# (x) and (x*y^200) leaves y^200*e_1 - e_2, which fits 16 bits, and only
# the reduction modulo the ring turns y^200 into z^40000.
def test_a_kernel_generator_reduction_that_overflows_reruns_wider(monkeypatch):
    R = fc.ring("x,y,z", ["y - z^200"], order=LEX)
    columns = [(fc.poly("x", R),), (fc.poly("x*y^200", R),)]
    out, widths, overflows = _syzygies_spied(columns, 1, R, monkeypatch, True)
    assert [tuple(map(str, v)) for v in out] == [("z^40000", "-1")]
    assert out == _reduced_entry_by_entry(columns, 1, R)
    assert (widths, overflows) == ([16, 32], [("ring", 16)])


def test_syzygies_that_reduce_to_one_vector_are_returned_once(monkeypatch):
    R = fc.ring("x,y,z", ["y - z^200"], order=LEX)
    columns = [(fc.poly("x - y^200", R),), (fc.poly("y", R),)]
    out, _, _ = _syzygies_spied(columns, 1, R, monkeypatch)
    assert [tuple(map(str, v)) for v in out] == [("z^200", "-x + z^40000")]
    assert_reduced_modulo_ring(out, R)
    # Over the polynomial ring (y, -x + z^40000) reduces to it too, but
    # its lead y*e_1 is lt(g)*e_1 for g = y - z^200: it is g*e_1 plus
    # this syzygy, and the per-entry route drops it as the engine does.
    assert _reduced_entry_by_entry(columns, 1, R) == out
