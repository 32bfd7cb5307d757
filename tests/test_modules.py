"""Module Groebner bases, syzygies, and membership in submodules."""

import random

import pytest

import flatcert as fc
from flatcert import (
    ArgumentError,
    MembershipBasis,
    ModuleElement,
    PolyMatrix,
    SubmodulePresentation,
    kernel_generators,
    module_reduced_gb,
    syzygy_matrix,
)
from helpers import brute_syzygies, random_poly


def _matrix(ring, rows):
    cols = [tuple(fc.poly(e, ring) for e in col) for col in rows]
    return PolyMatrix(ring, len(cols[0]), cols)


def test_matrix_shapes_and_apply(qq_xy):
    m = _matrix(qq_xy, [("x", "0"), ("0", "y")])
    assert m.nrows == 2 and m.ncols == 2
    x = fc.poly("x", qq_xy)
    y = fc.poly("y", qq_xy)
    out = m.apply((y, x))
    assert out == (x * y, x * y)
    with pytest.raises(fc.DimensionError):
        m.apply((x,))
    with pytest.raises(fc.DimensionError):
        PolyMatrix(qq_xy, 2, [(x,)])


def test_module_element_str(qq_xy):
    e = ModuleElement(qq_xy, (fc.poly("x + 1", qq_xy), fc.poly("0", qq_xy)))
    assert str(e) == "(x + 1, 0)"
    assert e.rank == 2 and not e.is_zero()


def test_module_gb_distinct_positions(qq_xy):
    # {(x,0), (0,y)}: no S-pairs across positions, basis unchanged
    sub = SubmodulePresentation(qq_xy, 2, _matrix(qq_xy, [("x", "0"), ("0", "y")]).columns)
    gb = module_reduced_gb(sub)
    assert [[str(e) for e in el.entries] for el in gb] == [["x", "0"], ["0", "y"]]


def test_module_gb_single_column(qq_xy):
    sub = SubmodulePresentation(qq_xy, 2, _matrix(qq_xy, [("x", "y")]).columns)
    gb = module_reduced_gb(sub)
    assert [[str(e) for e in el.entries] for el in gb] == [["x", "y"]]


def test_module_gb_over_quotient_drops_defining_vectors(dual_numbers):
    # (0, x^2) joins the basis of <(x, 0)> + x^2 * R^2 but is zero in R^2
    sub = SubmodulePresentation(dual_numbers, 2, _matrix(dual_numbers, [("x", "0")]).columns)
    assert [str(el) for el in module_reduced_gb(sub)] == ["(x, 0)"]
    sub = SubmodulePresentation(
        dual_numbers, 2, _matrix(dual_numbers, [("x^2", "x^2")]).columns
    )
    assert module_reduced_gb(sub) == []


def test_membership_basis(qq_xy):
    m = _matrix(qq_xy, [("x", "0"), ("0", "y")])
    basis = MembershipBasis(qq_xy, 2, m.columns)
    assert basis.contains((fc.poly("x^2", qq_xy), fc.poly("x*y", qq_xy)))
    assert not basis.contains((fc.poly("y", qq_xy), fc.poly("0", qq_xy)))
    nf = basis.normal_form((fc.poly("x + y", qq_xy), fc.poly("0", qq_xy)))
    assert str(nf[0]) == "y"


def test_membership_basis_rejects_malformed_columns(qq_xy, qq_xyz):
    """Columns are checked where they enter the package.  A table takes a
    `PolyMatrix`'s columns without checking them again, so every public
    entry point keeps its own check."""
    x, y = fc.poly("x", qq_xy), fc.poly("y", qq_xy)
    lex_x = fc.poly("x", fc.ring("x,y", order="lex"))
    with pytest.raises(fc.DimensionError):
        MembershipBasis(qq_xy, 1, [(x, y)])  # longer than the rank
    with pytest.raises(fc.DimensionError):
        MembershipBasis(qq_xy, 2, [(x,)])  # shorter than the rank
    with pytest.raises(fc.DimensionError):
        MembershipBasis(qq_xy, 1, [(lex_x,)])
    basis = MembershipBasis(qq_xy, 1, [(x,)])
    with pytest.raises(fc.DimensionError):
        basis.normal_form((x, y))
    with pytest.raises(fc.DimensionError):
        basis.normal_form((lex_x,))
    table = MembershipBasis(qq_xy, 2, [(x, x)])
    entry_points = [
        lambda col: PolyMatrix(qq_xy, 2, [col]),
        lambda col: MembershipBasis(qq_xy, 2, [col]),
        lambda col: SubmodulePresentation(qq_xy, 2, [col]),
        table.normal_form,
        table.contains,
    ]
    for call in entry_points:
        for col in [(x,), (x, x, x), (x, lex_x)]:
            with pytest.raises(fc.DimensionError):
                call(col)
        call((x, y))
    # A module element's rank is its length: only its signature can be
    # wrong.  A matrix must match the table's ring and rank.
    with pytest.raises(fc.DimensionError):
        ModuleElement(qq_xy, (x, fc.poly("x", qq_xyz)))
    m = PolyMatrix(qq_xy, 2, [(x, y)])
    with pytest.raises(fc.DimensionError):
        MembershipBasis(qq_xy, 3, m)
    with pytest.raises(fc.DimensionError):
        MembershipBasis(qq_xyz, 2, m)
    assert MembershipBasis(qq_xy, 2, m).reduced() == MembershipBasis(
        qq_xy, 2, m.columns
    ).reduced()
    with pytest.raises(fc.DimensionError):
        SubmodulePresentation(qq_xy, 3, [ModuleElement(qq_xy, (x, y))])


def test_a_submodule_checks_each_generator_once(qq_xy, monkeypatch):
    import flatcert.modules as modules

    x, y = fc.poly("x", qq_xy), fc.poly("y", qq_xy)
    checked = []
    column = modules._column

    def counted(ring, entries, rank=None):
        checked.append(rank)
        return column(ring, entries, rank)

    monkeypatch.setattr(modules, "_column", counted)
    sub = SubmodulePresentation(qq_xy, 2, [(x, y), ModuleElement(qq_xy, (y, x))])
    assert len(checked) == 3  # the ModuleElement's own, then one per generator
    assert [g.entries for g in sub.generators] == [(x, y), (y, x)]


def test_syzygy_examples(qq_xy, dual_numbers):
    # M = [x y]: single syzygy (y, -x) up to sign and scaling
    m = _matrix(qq_xy, [("x",), ("y",)])
    syz = syzygy_matrix(m)
    assert len(syz.columns) == 1
    col = syz.columns[0]
    assert [str(e) for e in col] == ["y", "-x"]
    assert m.compose(syz).is_zero_in_ring()
    # non-zerodivisor in a domain: no syzygies
    single = _matrix(qq_xy, [("x",)])
    assert syzygy_matrix(single).columns == ()
    # over the dual numbers, [x] has annihilator (x)
    dx = _matrix(dual_numbers, [("x",)])
    syzd = syzygy_matrix(dx)
    assert [[str(e) for e in c] for c in syzd.columns] == [["x"]]


def test_syzygy_empty_matrix_rejected(qq_xy):
    with pytest.raises(ArgumentError):
        syzygy_matrix(PolyMatrix(qq_xy, 1, []))


def test_syzygy_soundness_random(qq_xy, qq_xyz):
    # M * S = 0 in the ring, for random matrices
    rng = random.Random(13)
    for _ in range(25):
        ring = rng.choice([qq_xy, qq_xyz])
        sig = ring.signature
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        cols = [
            tuple(random_poly(rng, sig, max_deg=2, max_terms=2) for _ in range(nrows))
            for _ in range(ncols)
        ]
        m = PolyMatrix(ring, nrows, cols)
        syz = syzygy_matrix(m)
        if syz.columns:
            assert m.compose(syz).is_zero_in_ring()


def test_syzygy_completeness_against_nullspace(qq_xy):
    # every brute-force syzygy of bounded degree lies in the computed module
    rng = random.Random(17)
    sig = qq_xy.signature
    for _ in range(8):
        nrows = rng.randint(1, 2)
        ncols = rng.randint(2, 3)
        cols = [
            tuple(random_poly(rng, sig, max_deg=1, max_terms=2) for _ in range(nrows))
            for _ in range(ncols)
        ]
        m = PolyMatrix(qq_xy, nrows, cols)
        syz = syzygy_matrix(m)
        expected = brute_syzygies(m, 2)
        if not expected:
            continue
        if not syz.columns:
            assert not expected
            continue
        basis = MembershipBasis(qq_xy, m.ncols, syz.columns)
        for vec in expected:
            assert basis.contains(vec)


def test_syzygy_completeness_quotient_ring(dual_numbers, cone_ring):
    # quotient-ring syzygies: checked against brute-force linear algebra
    dx = _matrix(dual_numbers, [("x",), ("x + 1",)])
    syz = syzygy_matrix(dx)
    assert dx.compose(syz).is_zero_in_ring()
    basis = MembershipBasis(dual_numbers, 2, syz.columns)
    for vec in brute_syzygies(dx, 3):
        assert basis.contains(vec)
    # one genuinely quadric example on the cone
    cm = _matrix(cone_ring, [("x",), ("z",)])
    csyz = syzygy_matrix(cm)
    assert cm.compose(csyz).is_zero_in_ring()
    cbasis = MembershipBasis(cone_ring, 2, csyz.columns)
    for vec in brute_syzygies(cm, 2):
        assert cbasis.contains(vec)


def test_kernel_generators_matches_syzygy_matrix(qq_xy):
    m = _matrix(qq_xy, [("x",), ("y",)])
    gens = kernel_generators(m)
    assert [[str(e) for e in g] for g in gens] == [["y", "-x"]]


def test_kernel_generators_with_extra_relations(qq_xy):
    # kernel of [x]: R -> R/(y) picks up the relation column y
    m = _matrix(qq_xy, [("x",)])
    y = fc.poly("y", qq_xy)
    gens = kernel_generators(m, extra_relations=((y,),))
    basis = MembershipBasis(qq_xy, 1, gens)
    assert basis.contains((y,))


def test_module_gb_is_deterministic(qq_xyz):
    rng = random.Random(19)
    sig = qq_xyz.signature
    for _ in range(6):
        nrows = 2
        cols = [
            tuple(random_poly(rng, sig, max_deg=2, max_terms=2) for _ in range(nrows))
            for _ in range(3)
        ]
        sub = SubmodulePresentation(qq_xyz, nrows, tuple(cols))
        reference = module_reduced_gb(sub)
        shuffled = list(cols)
        rng.shuffle(shuffled)
        sub2 = SubmodulePresentation(qq_xyz, nrows, tuple(shuffled))
        assert module_reduced_gb(sub2) == reference


def _vector_lead(entries):
    """(position, monomial) of the leading term, position over term."""
    pos = next(i for i, e in enumerate(entries) if not e.is_zero())
    return pos, entries[pos].leading_monomial()


@pytest.mark.parametrize(
    "variables, defining",
    [
        ("x,y,z", ()),
        ("x,y,z", ("x*y - z^2",)),
        ("x,y", ("x^2",)),
        ("x,y,z,u,v", ("x*y - z^2",)),
    ],
    ids=["plain", "cone", "dual", "cone-chart"],
)
def test_module_reduced_basis_properties(variables, defining):
    ring = fc.ring(variables, defining=defining)
    rng = random.Random(17)
    for _ in range(3):
        gens = [
            tuple(random_poly(rng, ring.signature, max_deg=2) for _ in range(2))
            for _ in range(3)
        ]
        table = MembershipBasis(ring, 2, gens)
        reduced = table.reduced()
        leads = [_vector_lead(g) for g in reduced]
        for g, (pos, lm) in zip(reduced, leads):
            assert g[pos].terms[lm] == 1
            assert table.contains(g)
        for i, g in enumerate(reduced):
            for j, (pos, lm) in enumerate(leads):
                if i != j:
                    assert not any(fc.mono_divides(lm, m) for m in g[pos].terms)
        span = MembershipBasis(ring, 2, reduced)
        assert all(span.contains(g) for g in gens)
        rng.shuffle(gens)
        assert MembershipBasis(ring, 2, gens).reduced() == reduced
