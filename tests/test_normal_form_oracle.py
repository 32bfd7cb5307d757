"""The heap-selected normal form and the order keys, against oracles.

`PresentedRing.reduce` and `IdealHandle.normal_form` reduce through the
module engine's heap-selected normal form against a cached table of the
reduced basis.  `divide` shares only the order key with it: it rescans
its work set for the greatest term and tracks quotients.  Remainders
modulo a Groebner basis are unique, so the two must agree exactly.  The
order key itself, the leading monomial and `compare_monomials` are
checked against `helpers.textbook_compare`, which reads each order off
its definition and shares no code with the package.
"""

import random
from functools import cmp_to_key

import pytest

from flatcert import (
    BLOCK,
    GREVLEX,
    IdealHandle,
    LEX,
    PresentedRing,
    RingSignature,
    compare_monomials,
    divide,
)
from helpers import monomials_up_to, random_poly, textbook_compare

ORDERS = (GREVLEX, LEX, BLOCK)
NAMES = ("x", "y", "z", "w")


def _signature(rng, order):
    names = NAMES[: rng.randint(2, 4)]
    block = rng.randint(1, len(names) - 1) if order == BLOCK else 0
    return RingSignature(names, order, block)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(8))
def test_ring_reduce_matches_divide(order, seed):
    rng = random.Random(f"reduce:{order}:{seed}")
    sig = _signature(rng, order)
    defining = [random_poly(rng, sig, max_deg=2) for _ in range(rng.randint(1, 2))]
    ring = PresentedRing(sig, defining)
    basis = ring.defining_basis()
    for _ in range(6):
        f = random_poly(rng, sig, max_deg=4, max_terms=6)
        assert ring.reduce(f) == divide(f, basis)[1]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(8))
def test_ideal_normal_form_matches_divide(order, seed):
    rng = random.Random(f"normal_form:{order}:{seed}")
    sig = _signature(rng, order)
    ring = PresentedRing(sig, [random_poly(rng, sig, max_deg=2)] if seed % 2 else [])
    gens = [random_poly(rng, sig, max_deg=2) for _ in range(rng.randint(1, 2))]
    ideal = IdealHandle(ring, gens)
    basis = ideal.groebner_basis()
    for _ in range(6):
        f = random_poly(rng, sig, max_deg=4, max_terms=6)
        expected = divide(f, basis)[1] if basis else f
        assert ideal.normal_form(f) == expected


@pytest.mark.parametrize("order", ORDERS)
def test_leading_monomial_is_the_maximum(order):
    rng = random.Random(f"lead:{order}")
    for _ in range(60):
        sig = _signature(rng, order)
        f = random_poly(rng, sig, max_deg=4, max_terms=6)
        if f.is_zero():
            continue
        lead = f.leading_monomial()
        assert lead == min(f.terms, key=sig.descending_key())
        oracle = cmp_to_key(lambda a, b: textbook_compare(a, b, order, sig.block))
        assert lead == max(f.terms, key=oracle)
        assert f.leading_term() == (lead, f.terms[lead])


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("nvars", (1, 3, 4))
def test_descending_key_reverses_compare_monomials(order, nvars):
    block = nvars // 2 if order == BLOCK else 0
    sig = RingSignature(NAMES[:nvars], order, block)
    dk = sig.descending_key()
    monos = monomials_up_to(nvars, 3)
    for a in monos:
        for b in monos:
            ka, kb = dk(a), dk(b)
            assert (ka < kb) - (ka > kb) == compare_monomials(a, b, sig)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("nvars", (1, 3, 4))
def test_order_keys_match_the_textbook_orders(order, nvars):
    monos = monomials_up_to(nvars, 3)
    for block in range(nvars + 1) if order == BLOCK else (0,):
        sig = RingSignature(NAMES[:nvars], order, block)
        dk = sig.descending_key()
        for a in monos:
            for b in monos:
                expected = textbook_compare(a, b, order, block)
                ka, kb = dk(a), dk(b)
                assert (ka < kb) - (ka > kb) == expected, (block, a, b)
                assert compare_monomials(a, b, sig) == expected, (block, a, b)
