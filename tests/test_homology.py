"""Free resolutions, Koszul complexes, homology, and Tor."""

import random
from itertools import combinations_with_replacement
from math import comb

import pytest

import flatcert as fc
from flatcert import (
    ArgumentError,
    ChainComplex,
    PolyMatrix,
    PresentedModule,
    as_presented_module,
    free_resolution,
    homology_witnesses,
    koszul,
    tor,
)
from flatcert.script import execute_text
from helpers import random_poly


def _cyclic(ring, *gens):
    return PresentedModule.cyclic(ring, [fc.poly(g, ring) for g in gens])


def test_presented_module_validation(qq_xy):
    x = fc.poly("x", qq_xy)
    relations = PolyMatrix(qq_xy, 1, [(x,)])
    m = PresentedModule(qq_xy, 1, relations)
    assert m.rank == 1
    with pytest.raises(fc.DimensionError):
        PresentedModule(qq_xy, 2, relations)
    free = PresentedModule.free(qq_xy, 3)
    assert free.rank == 3 and free.relations.ncols == 0


def test_as_presented_module_from_ideal(qq_xy):
    x = fc.poly("x", qq_xy)
    y = fc.poly("y", qq_xy)
    J = fc.ideal(qq_xy, x, y)
    m = as_presented_module(J)
    assert m.rank == 2
    # the relation is the Koszul syzygy (y, -x)
    assert [[str(e) for e in c] for c in m.relations.columns] == [["y", "-x"]]
    # an ideal with no generators presents the zero module
    empty = as_presented_module(fc.ideal(qq_xy))
    assert empty.rank == 0


def test_koszul_two_elements(qq_xy):
    # ranks 1,2,1 and the sign convention d2 = (-f2, f1)
    x = fc.poly("x", qq_xy)
    y = fc.poly("y", qq_xy)
    k = koszul([x, y], qq_xy)
    assert k.ranks == (1, 2, 1)
    assert k.complete
    assert [[str(e) for e in c] for c in k.differential(1).columns] == [["x"], ["y"]]
    assert [[str(e) for e in c] for c in k.differential(2).columns] == [["-y", "x"]]
    assert k.composition_is_zero()


def test_koszul_three_elements(qq_xyz):
    x = fc.poly("x", qq_xyz)
    y = fc.poly("y", qq_xyz)
    z = fc.poly("z", qq_xyz)
    k = koszul([x, y, z], qq_xyz)
    assert k.ranks == (1, 3, 3, 1)
    assert k.composition_is_zero()
    # a regular sequence has no higher homology
    for i in (1, 2, 3):
        assert homology_witnesses(k, i)[0]


def test_koszul_homology_detects_dependence(qq_xy):
    # (x, x) is not regular: H_1 contains the visible relation (1, -1)
    x = fc.poly("x", qq_xy)
    k = koszul([x, x], qq_xy)
    zero, witnesses = homology_witnesses(k, 1)
    assert not zero
    assert [str(w) for w in witnesses] == ["(1, -1)"]


def test_koszul_random_regular_sequences():
    # generic upper-triangular linear forms are regular: H_{i>=1} = 0
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 3)
        ring = fc.ring(",".join(f"x{i}" for i in range(n)))
        seq = []
        for i in range(n):
            # x_i plus a random combination of later variables
            text = f"x{i}"
            for j in range(i + 1, n):
                c = rng.randint(-2, 2)
                if c:
                    text += f" + {c}*x{j}" if c > 0 else f" - {-c}*x{j}"
            seq.append(fc.poly(text, ring))
        k = koszul(seq, ring)
        assert k.composition_is_zero()
        for i in range(1, n + 1):
            assert homology_witnesses(k, i)[0]


def test_koszul_rejects_empty(qq_xy):
    with pytest.raises(ArgumentError):
        koszul([], qq_xy)


def test_free_resolution_koszul_shape(qq_xy):
    # R/(x,y) resolves with ranks 1,2,1 over QQ[x,y]
    m = _cyclic(qq_xy, "x", "y")
    res = free_resolution(m, 4)
    assert res.ranks[:3] == (1, 2, 1)
    assert res.complete
    assert res.composition_is_zero()


def test_free_resolution_free_module(qq_xy):
    res = free_resolution(PresentedModule.free(qq_xy, 2), 3)
    assert res.ranks == (2,)
    assert res.complete


def test_free_resolution_never_completes_over_dual_numbers(dual_numbers):
    # R/(x) over QQ[x]/(x^2) is periodic: every step is multiplication by x
    m = _cyclic(dual_numbers, "x")
    res = free_resolution(m, 3)
    assert res.ranks == (1, 1, 1, 1)
    assert not res.complete
    assert res.composition_is_zero()
    for k in (1, 2, 3):
        cols = res.differential(k).columns
        assert [[str(e) for e in c] for c in cols] == [["x"]]


def test_chain_complex_validation(qq_xy):
    x = fc.poly("x", qq_xy)
    d1 = PolyMatrix(qq_xy, 1, [(x,)])
    with pytest.raises(fc.DimensionError):
        ChainComplex(qq_xy, (1, 2), (d1,), complete=True)


def test_homology_witnesses_relative_to_relations(qq_xy):
    # R --x--> R is exact at 1; modulo (x) in both places it is not
    x = fc.poly("x", qq_xy)
    c = ChainComplex(qq_xy, (1, 1), (PolyMatrix(qq_xy, 1, [(x,)]),), True)
    assert homology_witnesses(c, 1) == (True, [])
    zero, witnesses = homology_witnesses(c, 1, [[(x,)], [(x,)]])
    assert not zero and [str(w) for w in witnesses] == ["(1)"]
    with pytest.raises(fc.DimensionError):
        homology_witnesses(c, 1, [[(x,)]])


def test_tor_index_zero_is_tensor(qq_xy):
    # Tor_0(R/(x), R/(y)) = R/(x,y): nonzero with witness 1
    a = _cyclic(qq_xy, "x")
    b = _cyclic(qq_xy, "y")
    report = tor(0, a, b)
    assert not report.is_zero
    assert [str(w) for w in report.witness_generators] == ["(1)"]
    # Tor_0 vanishes when the ideals are comaximal
    c = _cyclic(qq_xy, "x - 1")
    assert tor(0, a, c).is_zero


def test_tor_basic_vanishing(qq_xy):
    a = _cyclic(qq_xy, "x")
    free = PresentedModule.free(qq_xy, 2)
    assert tor(1, free, a).is_zero
    assert tor(1, a, free).is_zero
    assert tor(2, a, a).is_zero  # pd(R/x) = 1 over QQ[x,y]
    with pytest.raises(ArgumentError):
        tor(-1, a, a)
    other = fc.ring("t")
    with pytest.raises(ArgumentError):
        tor(1, a, _cyclic(other, "t"))


def test_tor_self_intersection(qq_xy):
    # Tor_1(R/(x), R/(x)) = (x):(x)/(x) = R/(x), witnessed by 1
    a = _cyclic(qq_xy, "x")
    report = tor(1, a, a)
    assert not report.is_zero
    assert [str(w) for w in report.witness_generators] == ["(1)"]
    assert str(report) == "Tor_1 != 0, witnesses: (1)"
    assert str(tor(1, a, _cyclic(qq_xy, "y"))) == "Tor_1 = 0"


def test_tor_transverse_vanishing(qq_xy):
    a = _cyclic(qq_xy, "x")
    b = _cyclic(qq_xy, "y")
    assert tor(1, a, b).is_zero
    assert tor(1, b, a).is_zero


def test_tor_koszul_depth_two(qq_xy):
    # Tor_2(R/(x,y), R/(x,y)) is the top exterior power: nonzero
    m = _cyclic(qq_xy, "x", "y")
    assert not tor(2, m, m).is_zero
    assert tor(3, m, m).is_zero


def test_tor_balance_random(qq_xy):
    # Tor_1(A, B) and Tor_1(B, A) vanish together
    rng = random.Random(29)
    sig = qq_xy.signature
    for _ in range(12):
        a = PresentedModule.cyclic(
            qq_xy, [random_poly(rng, sig, max_deg=2, max_terms=2)]
        )
        b = PresentedModule.cyclic(
            qq_xy, [random_poly(rng, sig, max_deg=2, max_terms=2)]
        )
        assert tor(1, a, b).is_zero == tor(1, b, a).is_zero


def test_tor_over_quotient_ring(dual_numbers):
    # the residue field of the dual numbers has periodic Tor: never zero
    m = _cyclic(dual_numbers, "x")
    for i in (1, 2):
        report = tor(i, m, m)
        assert not report.is_zero
        assert [str(w) for w in report.witness_generators] == ["(1)"]


def test_tor_accepts_ideals_and_submodules(cone_ring):
    J = fc.ideal(
        cone_ring,
        fc.poly("x - u", cone_ring),
        fc.poly("z - u*v", cone_ring),
        fc.poly("y - u*v^2", cone_ring),
    )
    K = _cyclic(cone_ring, "x", "y", "z")
    report = tor(1, J, K)
    assert not report.is_zero
    # ideal in the other slot exercises resolution of the second argument
    assert not tor(1, K, J).is_zero


def test_tor_across_reordered_ring_presentations():
    R = fc.ring("x,y,z", defining=("x*y - z^2", "x - y"))
    S = fc.ring("x,y,z", defining=("x - y", "x*y - z^2"))
    report = tor(1, _cyclic(R, "x"), _cyclic(S, "z"))
    assert report == tor(1, _cyclic(R, "x"), _cyclic(R, "z"))


def _koszul_dual_series(r, terms):
    """The first coefficients of 1/H(-t), H(t) = sum_d C(r*d + 2, 2) t^d
    the Hilbert series of the cone over the r-th Veronese of P^2.  The
    ring is Koszul, so they are dim Tor_i(k, k)."""
    h = [comb(r * d + 2, 2) * (-1) ** d for d in range(terms)]
    inverse = [1]
    for n in range(1, terms):
        inverse.append(-sum(h[d] * inverse[n - d] for d in range(1, n + 1)))
    return inverse


def _veronese_residue_field(r):
    """k = V/(its variables), V_r = QQ[monomials of degree r in e, g, h]:
    the fiber ring is QQ, so the witnesses of Tor_i(k, k) are a basis."""
    monomials = ["*".join(m) for m in combinations_with_replacement("egh", r)]
    names = [f"m{j}" for j in range(len(monomials))]
    text = (
        f"ring R = QQ[{', '.join(names)}];\nring S = QQ[e,g,h];\n"
        f"map F : R -> S = {{{', '.join(monomials)}}};\nring V = image F;\n"
        f"module k = V^1 / ({', '.join(f'({n})' for n in names)});\n"
    )
    report, env = execute_text(text)
    assert report.status == 0
    return env["k"]


def _check_koszul_dual_counts(r, counts):
    k = _veronese_residue_field(r)
    found = [len(tor(i, k, k).witness_generators) for i in range(len(counts))]
    assert found == _koszul_dual_series(r, len(counts)) == counts


def test_tor_of_the_veronese_residue_field_counts_the_koszul_dual_series():
    # Six Tor indices: from d_3 on each resolution step is a Schreyer
    # step, at ranks up to 576.
    _check_koszul_dual_counts(2, [1, 6, 21, 64, 192, 576])


def test_tor_of_the_cubic_veronese_residue_field_counts_the_koszul_dual_series():
    # V_3, ten variables and 27 quadrics: ranks up to 495.
    _check_koszul_dual_counts(3, [1, 10, 72, 495])
