"""The module engine's packed monomials against the tuple operations.

Inside `modules` a (position, monomial) pair is one int (`_Packing`).
A derandomized hypothesis property draws a layout (grevlex, lex, or a
block order at every split, for 0 to 5 variables), a field width (the
`struct` widths 16, 32 and 64, and widths only the shift loop reads), and
two monomials with exponents at 0, at the field limit or anywhere
between; the second may be a permutation of the first, or fill each
degree field of the product exactly to the limit or one past it.  Where a monomial does not fit, packing must refuse it, and the
property widens as the engine does.  It then checks packed product,
quotient, divisibility, lcm (and the degree it returns) and degree
against `poly.mono_*`, overflow detection against the exact degrees,
and the order of the packed keys against
`(position, sig.descending_key())` and `helpers.textbook_compare`.
A third property checks the support masks that decide coprime leads
against the lcm test they replaced, for a ring relation at position 0
against an element at any position, at the `struct` widths.
The heap of `_vp_normal_form` holds `t ^ pk.neg`, which must sort as
`pk.key(t)` does; a second property draws vectors and small monic bases
and checks that every remainder comes out by descending term, so its
first key is its lead.  A table test packs and reads back, term by
term and a whole vector, every layout at every width, so the reader
meets 0 and 1 variables and every field at its limit.  Every term is
read back through `_entries_from_vp`, the engine's one exit.
"""

from fractions import Fraction
from struct import Struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcert import (
    BLOCK,
    GREVLEX,
    LEX,
    Polynomial,
    RingSignature,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quotient,
)
from flatcert.modules import _Overflow, _entries_from_vp, _packing, _vp_normal_form
from helpers import textbook_compare

LAYOUTS = [
    (order, block, nvars)
    for nvars in range(6)
    for order, block in [(GREVLEX, 0), (LEX, 0)]
    + [(BLOCK, k) for k in range(nvars + 1)]
]
WIDTHS = (2, 3, 5, 8, 16, 32, 64, 128)
STRUCT_WIDTHS = (16, 32, 64)


def _fits(pk, m) -> bool:
    """Whether every degree field of m, hence every exponent, fits."""
    return all(sum(m[group[1]]) <= pk.value for group in pk.groups)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _unpack(pk, sig, t):
    """The (position, monomial) of a packed term, read through the
    engine's one exit."""
    pos = t >> pk.shift
    (m,) = _entries_from_vp({t: 1}, pk, sig, pos + 1)[pos].terms
    return pos, m


def _complement(pk, a, extra: int):
    """A monomial b with every degree field of a*b at the field limit
    plus `extra`, the excess placed on each group's first variable."""
    b = [0] * len(a)
    for group in pk.groups:
        part = range(len(a))[group[1]]
        if part:
            b[part[0]] = max(0, pk.value - sum(a[group[1]]) + extra)
    return tuple(b)


@st.composite
def packed_pairs(draw):
    order, block, nvars = draw(st.sampled_from(LAYOUTS))
    pk = _packing(order, block, nvars, draw(st.sampled_from(WIDTHS)))
    exponent = st.one_of(st.sampled_from((0, 1, pk.value)), st.integers(0, pk.value))
    a = tuple(draw(exponent) for _ in range(nvars))
    mode = draw(st.sampled_from(("free", "permuted", "fill", "spill")))
    if mode == "free":
        b = tuple(draw(exponent) for _ in range(nvars))
    elif mode == "permuted":  # the same degree: the tie-breaks decide
        b = tuple(draw(st.permutations(a)))
    else:
        b = _complement(pk, a, 0 if mode == "fill" else 1)
    pa = draw(st.integers(0, 3))
    pb = draw(st.one_of(st.just(pa), st.integers(0, 3)))
    return order, block, pk, a, b, (pa, pb)


@settings(derandomize=True, deadline=None, max_examples=900)
@given(packed_pairs())
def test_packed_operations_match_tuple_operations(case):
    order, block, pk, a, b, (pa, pb) = case
    # Widen as the engine does until both monomials fit.
    while not (_fits(pk, a) and _fits(pk, b)):
        with pytest.raises(_Overflow):
            pk.pack(0, a if not _fits(pk, a) else b)
        pk = _packing(order, block, len(a), 2 * pk.width)
    sig = RingSignature(tuple(f"v{i}" for i in range(len(a))), order, block)
    ta, tb = pk.pack(pa, a), pk.pack(pb, b)
    assert not (ta | tb) & pk.guards
    assert _unpack(pk, sig, ta) == (pa, a) and _unpack(pk, sig, tb) == (pb, b)
    assert pk.degree(ta) == mono_degree(a)

    # Order: the smaller key is the greater term.
    dk = sig.descending_key()
    ka, kb = (pa, dk(a)), (pb, dk(b))
    assert _sign(pk.key(ta) - pk.key(tb)) == (ka > kb) - (ka < kb)
    assert _sign((ta ^ pk.neg) - (tb ^ pk.neg)) == _sign(pk.key(ta) - pk.key(tb))
    if pa == pb:
        assert _sign(pk.key(tb) - pk.key(ta)) == textbook_compare(a, b, order, block)

    # Arithmetic at one position.
    a0, b0 = pk.pack(pb, a), tb
    assert pk.divides(a0, b0) == mono_divides(a, b)
    if mono_divides(a, b):
        assert _unpack(pk, sig, b0 - a0) == (0, mono_quotient(b, a))
    product = pk.pack(0, a) + tb
    if _fits(pk, mono_mul(a, b)):
        assert not product & pk.guards
        assert _unpack(pk, sig, product) == (pb, mono_mul(a, b))
    else:
        assert product & pk.guards
    lcm = mono_lcm(a, b)
    if _fits(pk, lcm):
        degree, packed = pk.lcm(a0, b0)
        assert _unpack(pk, sig, packed) == (pb, lcm)
        assert degree == pk.degree(packed) == mono_degree(lcm)
        assert (pk.pack(0, a) + pk.pack(0, b) == pk.lcm(pk.pack(0, a), pk.pack(0, b))[1]) == (
            lcm == mono_mul(a, b)
        )
    else:
        with pytest.raises(_Overflow):
            pk.lcm(a0, b0)


@pytest.mark.parametrize("width", WIDTHS)
def test_codec_round_trips_every_layout(width):
    for order, block, nvars in LAYOUTS:
        pk = _packing(order, block, nvars, width)
        assert isinstance(getattr(pk.fields, "__self__", None), Struct) == (
            width in STRUCT_WIDTHS
        )
        sig = RingSignature(tuple(f"v{i}" for i in range(nvars)), order, block)
        limit = _complement(pk, (0,) * nvars, 0)  # every degree field full
        distinct = tuple(range(1, nvars + 1))  # catches a permuted read
        columns = [{} for _ in range(3)]
        for pos in (0, 1, 2, 300):
            for m in [(0,) * nvars, (1,) * nvars, limit, distinct]:
                if _fits(pk, m):
                    t = pk.pack(pos, m)
                    assert not t & pk.guards
                    assert _unpack(pk, sig, t) == (pos, m)
                    assert pk.degree(t) == mono_degree(m)
                    if pos < 3:
                        columns[pos][m] = Fraction(pos + 1, len(m) + 1)
        vp = {pk.pack(i, m): c for i, col in enumerate(columns) for m, c in col.items()}
        back = _entries_from_vp(vp, pk, sig, 3)
        assert back == tuple(Polynomial(sig, col) for col in columns)


@st.composite
def support_pairs(draw):
    """A packing at a `struct` width, a lead a at position 0 (a ring
    relation's) and a lead b at position p, 0 to 3, with exponents that
    are mostly 0 and otherwise 1, at the field limit or anywhere."""
    order, block, nvars = draw(st.sampled_from(LAYOUTS))
    pk = _packing(order, block, nvars, draw(st.sampled_from(STRUCT_WIDTHS)))
    exponent = st.one_of(
        st.just(0), st.sampled_from((1, pk.value)), st.integers(0, pk.value)
    )

    def monomial():
        # Keep each degree field within its limit: cut the group's first
        # exponents down until the sum fits.
        m = [draw(exponent) for _ in range(nvars)]
        for group in pk.groups:
            for i in range(nvars)[group[1]]:
                m[i] -= min(m[i], max(0, sum(m[group[1]]) - pk.value))
        return tuple(m)

    return order, block, pk, monomial(), monomial(), draw(st.integers(0, 3))


@settings(derandomize=True, deadline=None, max_examples=900)
@given(support_pairs())
def test_support_masks_decide_coprimality_as_the_lcm_did(case):
    """The engine drops a pair with coprime leads, at rank 1 or between
    a ring relation at position 0 and an element at position p, on
    `support(a) & support(b) == 0`, before any lcm.  That agrees with
    the test it replaced, lcm - a == b & mask on the relation's copy
    a*e_p, wherever that lcm fits, and with the exponent tuples always;
    the lcm of a at position 0 and b at p, in that order, is the copy's
    lcm at p."""
    order, block, pk, a, b, p = case
    coprime = all(not (x and y) for x, y in zip(a, b))
    relation, element = pk.pack(0, a), pk.pack(p, b)
    assert (not pk.support(relation) & pk.support(element)) == coprime
    assert pk.support(relation) == pk.support(pk.pack(p, a))
    copy = pk.pack(p, a)
    if _fits(pk, mono_lcm(a, b)):
        _, lcm = pk.lcm(copy, element)
        assert (lcm - copy == element & pk.mask) == coprime
        assert pk.lcm(relation, element) == pk.lcm(copy, element)
    else:
        with pytest.raises(_Overflow):
            pk.lcm(relation, element)


@st.composite
def reductions(draw):
    """A packing, a vector and a monic basis, given by its tails, leads
    and buckets, over small exponents at two positions."""
    order, block, nvars = draw(st.sampled_from([lay for lay in LAYOUTS if lay[2]]))
    pk = _packing(order, block, nvars, draw(st.sampled_from((8, 16))))
    term = st.builds(
        pk.pack,
        st.integers(0, 1),
        st.tuples(*[st.integers(0, 2)] * nvars),
    )
    coefficient = st.integers(-3, 3).filter(bool)
    vector = st.dictionaries(term, coefficient, min_size=1, max_size=6)
    tails, leads, buckets = [], [], {}
    for vp in draw(st.lists(vector, max_size=3)):
        lead = min(vp, key=pk.key)
        tail = ((t, -Fraction(c, vp[lead])) for t, c in vp.items() if t != lead)
        tails.append(tuple(tail))
        buckets.setdefault(lead >> pk.shift, []).append(len(leads))
        leads.append(lead)
    return pk, draw(vector), tails, leads, buckets


@settings(derandomize=True, deadline=None, max_examples=300)
@given(reductions())
def test_remainders_come_out_by_descending_term(case):
    pk, vp, tails, leads, buckets = case
    rem = _vp_normal_form(dict(vp), tails, leads, buckets, pk)
    assert list(rem) == sorted(rem, key=pk.key)
    if rem:
        assert next(iter(rem)) == min(rem, key=pk.key)


@pytest.mark.parametrize("order", (GREVLEX, LEX))
def test_engine_over_the_ring_of_constants(order):
    """tor against R/(x, y) runs over the fiber ring with no variables
    left, where a packed term is its position and one degree field."""
    import flatcert as fc
    from flatcert import MembershipBasis, PresentedModule, PresentedRing, tor

    R = fc.ring("x,y", order=order)
    M = PresentedModule.cyclic(R, [fc.poly("x", R)])
    point = PresentedModule.cyclic(R, [fc.poly("x", R), fc.poly("y", R)])
    # The Koszul complex R --x--> R tensored with QQ has zero maps.
    assert [str(w) for w in tor(0, M, point).witness_generators] == ["(1)"]
    assert [str(w) for w in tor(1, M, point).witness_generators] == ["(1)"]
    assert tor(2, M, point).is_zero
    constants = PresentedRing(RingSignature((), order))
    two, one = constants.one() * 2, constants.one()
    table = MembershipBasis(constants, 2, [(two, one)])
    assert [tuple(map(str, b)) for b in table.reduced()] == [("1", "1/2")]
    assert table.normal_form((one, constants.zero())) == (constants.zero(), one.scale(Fraction(-1, 2)))
