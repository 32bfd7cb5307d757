"""Matrices the engine makes stay packed.

`syzygy_entries`, `kernel_generators`, `MembershipBasis.reduced_matrix`
and `.outside` return a `PolyMatrix` that holds the engine's packed
columns and unpacks them on the first read of `columns`; `projected`
takes such a matrix to a fiber ring by cutting the dropped variables'
fields out of its packed terms (`_Packing.compact`), and `beside` joins
two matrices as they are held.  Checked here:

- the compaction against packing the projected polynomials
  (`_vp_from_entries(project(e))` at the fiber's packing), on seeded
  random columns over a quotient ring under grevlex, lex and block
  orders, for every set of dropped variables and at several widths;
- francia `tor(2, J, L)` compacts d2 and d3 once each, as they are
  projected, also when its witnesses are read;
- a Tor whose resolution needs 32-bit fields over R while its fiber
  runs at 16 bits: the projection compacts at 32 bits, the fiber's runs
  unpack and pack those columns, and the witnesses are those of the
  relation-column route;
- an engine-made matrix as a record: equal to, printed and hashed like
  the matrix of its columns, with shape reads that unpack nothing and
  one unpack per column on the first read;
- over the benchmark's two deep Tor queries, `_column` runs only on
  the fiber rings' defining generators, given to an ideal's table: no
  witness is checked, neither as the engine makes it nor lifted to R,
  and no column of a resolution, a kernel or a tensored differential
  is unpacked: only the witnesses and the fiber rings' rank-1 bases are;
- building francia `tor(2, J, L)`'s witnesses runs no `_column`, while
  the public `ModuleElement` constructor still checks;
- on those queries, a `tor` whose witnesses are not read builds no
  table (weighted degrees answer) and unpacks no column; the first read
  of `witness_generators` builds the image's table and the span table
  and gives the pinned witness text, and a second read does no engine
  work;
- a report whose witnesses are still to be built equals, hashes and
  prints like the report of its witnesses, and each of those reads
  builds them.
"""

import random
import sys
from collections import Counter
from itertools import chain, combinations

import pytest

import flatcert as fc
import flatcert.modules as modules
from flatcert import (
    BLOCK,
    GREVLEX,
    LEX,
    ChainComplex,
    FlatnessVerdict,
    MembershipBasis,
    PolyMatrix,
    PresentedModule,
    PresentedRing,
    RingSignature,
    TorReport,
    kernel_generators,
    tor,
)
import flatcert.homology as homology
from flatcert.cli import bundled_case_text
from flatcert.modules import _packed_matrix, _packing, _vp_from_entries, syzygy_entries
from flatcert.script import execute_text
from helpers import random_poly
from test_exact_outputs import GOLDEN
from test_fiber_route import _assert_routes_agree

ORDERS = ((GREVLEX, 0), (LEX, 0), (BLOCK, 1), (BLOCK, 2))
NAMES = ("x", "y", "z", "w")


def _cone(order, block):
    sig = RingSignature(NAMES, order, block)
    return PresentedRing(sig, [fc.poly("x*y - z^2", PresentedRing(sig))])


def _random_columns(rng, ring, rank, count):
    sig, zero = ring.signature, ring.zero()
    return [
        tuple(
            random_poly(rng, sig, max_deg=4, max_terms=5) if rng.random() < 0.7 else zero
            for _ in range(rank)
        )
        for _ in range(count)
    ]


def _pk(ring, width):
    sig = ring.signature
    return _packing(sig.order, sig.block, sig.nvars, width)


@pytest.mark.parametrize("order,block", ORDERS)
def test_compaction_packs_as_the_fiber_ring_does(order, block):
    """Every subset of the variables is dropped in turn: none, one from
    either block, a whole block, all of them."""
    R = _cone(order, block)
    rng = random.Random(f"compact:{order}:{block}")
    subsets = chain.from_iterable(combinations(range(4), k) for k in range(5))
    seen = 0
    for dropped in subsets:
        base, project = R.quotient(R.var(NAMES[i]) for i in dropped)
        keep = {i for i in range(4) if i not in dropped}
        assert base.signature.variables == tuple(NAMES[i] for i in sorted(keep))
        columns = _random_columns(rng, R, rng.randint(1, 3), 4)
        rank = len(columns[0])
        for width in (8, 16, 32, 64):
            pk, fiber = _pk(R, width), _pk(base, width)
            vps = [_vp_from_entries(c, pk) for c in columns]
            expected = [
                _vp_from_entries(tuple(map(project, c)), fiber) for c in columns
            ]
            assert pk.compact(vps, keep) == expected
            # The same through a matrix: packed at R's width, read at the
            # fiber's, and unpacked as the projected columns.
            matrix = _packed_matrix(R, rank, [(pk, vps)])
            fibered = matrix.projected(base, project)
            assert fibered._at(fiber) == expected
            assert fibered.columns == tuple(tuple(map(project, c)) for c in columns)
            seen += 1
    assert seen == 16 * 4


def test_a_projection_needs_a_fiber_ring():
    R = _cone(BLOCK, 2)
    base, project = R.quotient([R.var("y")])
    matrix = PolyMatrix(R, 1, [(R.var("x"),)])
    assert matrix.projected(base, project).columns == ((base.var("x"),),)
    # A projection of a projection is one projection.
    columns = _random_columns(random.Random("twice"), R, 2, 3)
    made = syzygy_entries(columns, 2, R)
    once, project_once = R.quotient([R.var("y"), R.var("w")])
    fiber, project_fiber = base.quotient([base.var("w")])
    assert fiber.signature == once.signature
    twice = made.projected(base, project).projected(fiber, project_fiber)
    assert twice.columns == made.projected(once, project_once).columns
    # Not the quotient's order, or not a subset of R's variables.
    for sig in (RingSignature(("x", "z", "w"), GREVLEX), RingSignature(("x", "u"))):
        with pytest.raises(fc.ArgumentError):
            matrix.projected(PresentedRing(sig), project)


def _wide_tor(monkeypatch):
    """Tor_1(R/J, R/(x)) with J = (x^40000*y, y*z, z^2): J's syzygies
    carry x^40000, so R's runs pack at 32 bits, and the fiber QQ[y,z]
    runs at 16; returns the report and the compactions made."""
    R = fc.ring("x,y,z")
    M = PresentedModule.cyclic(R, [fc.poly(g, R) for g in ("x^40000*y", "y*z", "z^2")])
    N = PresentedModule.cyclic(R, [R.var("x")])
    compactions = []
    real = modules._Packing.compact

    def counted(pk, vps, keep):
        compactions.append(pk.width)
        return real(pk, vps, keep)

    monkeypatch.setattr(modules._Packing, "compact", counted)
    d2 = fc.free_resolution(M, 2).differential(2)
    assert d2._packed[0][0].width == 32
    return tor(1, M, N), M, N, compactions


def test_a_projection_at_another_width_packs_the_projected_columns(monkeypatch):
    # d2 is compacted once, at its own width, as it is projected; the
    # fiber's 16-bit runs unpack and pack those 32-bit columns.
    report, M, N, compactions = _wide_tor(monkeypatch)
    assert compactions == [32]
    assert not report.is_zero
    _assert_routes_agree(report, 1, M, N)


def test_a_projection_at_its_own_width_compacts(monkeypatch):
    R = fc.ring("x,y,z")
    M = PresentedModule.cyclic(R, [fc.poly(g, R) for g in ("x^4*y", "y*z", "z^2")])
    N = PresentedModule.cyclic(R, [R.var("x")])
    compactions = []
    real = modules._Packing.compact
    monkeypatch.setattr(
        modules._Packing,
        "compact",
        lambda pk, vps, keep: compactions.append(pk.width) or real(pk, vps, keep),
    )
    report = tor(1, M, N)
    assert compactions and set(compactions) == {16}
    _assert_routes_agree(report, 1, M, N)


def test_a_tor_compacts_each_projected_differential_once(monkeypatch):
    """francia tor(2, J, L) projects d2's columns below its frame floor
    for the verdict, and d2 and d3 for the witnesses, to the fiber ring,
    and each is compacted as it is projected: the kernels, the image's
    table and the span table read the fiber's packed columns as they are
    held."""
    (i, J, L), _ = _deep_queries(GREVLEX)
    compactions = []
    real = modules._Packing.compact
    monkeypatch.setattr(
        modules._Packing,
        "compact",
        lambda pk, vps, keep: compactions.append(pk.width) or real(pk, vps, keep),
    )
    report = tor(i, J, L)
    assert compactions == [16]
    assert report.witness_generators
    assert compactions == [16, 16, 16]


def _spy_unpacks(monkeypatch):
    unpacked = []
    real = modules._entries_from_vp

    def spied(vp, pk, sig, rank):
        entries = real(vp, pk, sig, rank)
        unpacked.append(entries)
        return entries

    monkeypatch.setattr(modules, "_entries_from_vp", spied)
    return unpacked


def test_an_engine_made_matrix_is_the_record_of_its_columns(monkeypatch):
    R = fc.ring("x,y,z,w", defining=("x*y - z^2",))
    p = lambda text: fc.poly(text, R)  # noqa: E731
    columns = [(p("x"), p("z")), (p("z"), p("y")), (p("w"), p("x + w")), (p("y*w"), p("0"))]
    made = syzygy_entries(columns, 2, R)
    unpacked = _spy_unpacks(monkeypatch)
    # The shape, the printed form and a complex's shape check read no
    # column.
    assert made.nrows == 4 and made.ncols == len(made) > 1
    assert repr(made) == str(made) == f"PolyMatrix(4x{made.ncols})"
    ChainComplex(R, (2, 4, made.ncols), (PolyMatrix(R, 2, columns), made), False)
    assert unpacked == [] and "columns" not in vars(made)
    # The first read unpacks each column once; later reads unpack none.
    cols = made.columns
    assert len(unpacked) == made.ncols
    assert made.columns is cols and list(made) == list(cols) and made[1] == cols[1]
    assert len(unpacked) == made.ncols
    plain = PolyMatrix(R, 4, cols)
    assert made == plain and plain == made
    assert PolyMatrix(R, 4, made) == made
    assert repr(made) == repr(plain) and str(made) == str(plain)
    for matrix in (made, plain):
        with pytest.raises(TypeError):
            hash(matrix)
        with pytest.raises(AttributeError):
            matrix.nrows = 1
    assert made != PolyMatrix(R, 4, cols[:-1])


def test_joined_and_selected_matrices_are_records_of_their_columns():
    R = fc.ring("x,y,z", defining=("x*y - z^2",))
    p = lambda text: fc.poly(text, R)  # noqa: E731
    matrix = PolyMatrix(R, 2, [(p("x"), p("z")), (p("z"), p("y")), (p("y"), p("x"))])
    ker = kernel_generators(matrix)
    image = MembershipBasis(R, 3, ker[:1])
    joined = PolyMatrix(R, 3, ker[:1]).beside(ker)
    assert joined == PolyMatrix(R, 3, [ker[0], *ker])
    outside = image.outside(ker)
    assert outside == PolyMatrix(R, 3, [v for v in ker if not image.contains(v)])
    assert image.spans(PolyMatrix(R, 3, ker[:1])) and not image.spans(ker)
    reduced = image.reduced_matrix()
    assert reduced == PolyMatrix(R, 3, image.reduced())
    with pytest.raises(fc.DimensionError):
        matrix.beside(ker)
    with pytest.raises(fc.DimensionError):
        image.outside(matrix)


def _deep_queries(order):
    """The benchmark's francia tor(2, J, L) and neg2 tor(3, J, K)."""
    envs = {
        name: execute_text(bundled_case_text(name), order, declarations_only=True)[1]
        for name in ("francia.fc", "neg2_graph.fc")
    }
    francia, neg2 = envs["francia.fc"], envs["neg2_graph.fc"]
    return [(2, francia["J"], francia["L"]), (3, neg2["J"], neg2["K"])]


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_deep_tors_check_and_unpack_only_what_leaves(order, monkeypatch):
    queries = _deep_queries(order)
    checked = Counter()
    real = modules._column

    def spied(ring, entries, rank=None):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension
            frame = frame.f_back
        owner = frame.f_locals.get("self")
        checked[f"{type(owner).__name__}.{frame.f_code.co_name}"] += 1
        return real(ring, entries, rank)

    monkeypatch.setattr(modules, "_column", spied)
    unpacked = _spy_unpacks(monkeypatch)
    reports = [tor(i, M, N) for i, M, N in queries]
    witnesses = sum(len(r.witness_generators) for r in reports)
    assert witnesses
    # The witnesses are engine-made and their lift to R is R's by
    # construction, so neither is checked: the only checks are the fiber
    # rings' defining generators, given to their ideals' tables as raw
    # columns.  No matrix is checked.
    assert set(checked) == {"MembershipBasis.__init__"}
    # Only the witnesses leave the engine, and the fiber rings' rank-1
    # bases: no resolution, kernel or tensored column is unpacked.
    assert sum(len(entries) > 1 for entries in unpacked) == witnesses


def test_building_witnesses_checks_no_entry(monkeypatch):
    (i, J, L), _ = _deep_queries(GREVLEX)
    report = tor(i, J, L)
    calls = []
    real = modules._column

    def spied(ring, entries, rank=None):
        calls.append(rank)
        return real(ring, entries, rank)

    monkeypatch.setattr(modules, "_column", spied)
    witnesses = report.witness_generators
    assert witnesses and calls == []
    # The public constructor still checks every entry.
    R = J.ring
    assert fc.ModuleElement(R, witnesses[0].entries) == witnesses[0]
    assert calls == [None]
    other = fc.ring("x,y")
    with pytest.raises(fc.DimensionError):
        fc.ModuleElement(R, (other.one(),))


def _golden_tor_text(order):
    """The pinned `flatcert tor` text of the deep queries under `order`."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    titles = ("francia.fc 2 J L", "neg2_graph.fc 3 J K")
    return [
        lines[lines.index(f"== tor --order {order} {title}") + 2] for title in titles
    ]


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_a_verdict_only_tor_builds_no_span_table(order, monkeypatch):
    queries = _deep_queries(order)
    tables, runs = [], []
    real_table, real_run = homology.MembershipBasis, modules._packed_run

    def table(ring, rank, columns):
        tables.append(columns.ncols)
        return real_table(ring, rank, columns)

    def run(*args):
        runs.append(args)
        return real_run(*args)

    monkeypatch.setattr(homology, "MembershipBasis", table)
    monkeypatch.setattr(modules, "_packed_run", run)
    unpacked = _spy_unpacks(monkeypatch)
    reports = [tor(i, M, N) for i, M, N in queries]
    # Both are nonzero by weighted degrees: no table was built, and no
    # column of a matrix was unpacked (only the fiber rings' rank-1 bases
    # were).
    assert [r.is_zero for r in reports] == [False, False]
    assert tables == []
    assert all(len(entries) == 1 for entries in unpacked)
    assert all("witness_generators" not in vars(r) for r in reports)
    # The first read builds each report's image table and then its span
    # table, of image + kernel, and gives the pinned witnesses.
    del unpacked[:]
    witnesses = [r.witness_generators for r in reports]
    assert len(tables) == 4 and tables[1] > tables[0] and tables[3] > tables[2]
    assert sum(len(entries) > 1 for entries in unpacked) == sum(map(len, witnesses))
    assert [str(r) for r in reports] == _golden_tor_text(order)
    # A second read does no engine work.
    del unpacked[:], runs[:]
    assert [r.witness_generators for r in reports] == witnesses
    assert all(r.witness_generators is w for r, w in zip(reports, witnesses))
    assert (len(tables), runs, unpacked) == (4, [], [])


def _pending_and_eager():
    """A Tor report whose witnesses are not built yet, and the report of
    the same witnesses built eagerly: Tor_1(R/(x, y), R/(x, y)) over
    QQ[x,y], whose witnesses are (1, 0) and (0, 1)."""
    R = fc.ring("x,y")
    k = PresentedModule.cyclic(R, [R.var("x"), R.var("y")])
    pending = tor(1, k, k)
    assert "witness_generators" not in vars(pending)
    witnesses = tor(1, k, k).witness_generators
    assert [str(w) for w in witnesses] == ["(1, 0)", "(0, 1)"]
    return pending, TorReport(1, False, witnesses)


def _hashed(report):
    """The report's hash, or the error hashing raises: a witness holds its
    ring, which is unhashable, so a nonzero report is too."""
    try:
        return hash(report)
    except TypeError as error:
        return str(error)


@pytest.mark.parametrize(
    "read",
    [
        lambda pending, eager: pending == eager and eager == pending,
        lambda pending, eager: _hashed(pending) == _hashed(eager),
        lambda pending, eager: repr(pending) == repr(eager),
        lambda pending, eager: str(pending) == str(eager),
        lambda pending, eager: FlatnessVerdict(False, pending) == FlatnessVerdict(False, eager),
        lambda pending, eager: str(FlatnessVerdict(False, pending))
        == str(FlatnessVerdict(False, eager)),
    ],
    ids=["eq", "hash", "repr", "str", "verdict-eq", "verdict-str"],
)
def test_a_pending_report_is_the_record_of_its_witnesses(read):
    pending, eager = _pending_and_eager()
    assert read(pending, eager)
    # After the first read the report holds what the eager one does: its
    # fill is dropped.
    assert vars(pending) == vars(eager)
    with pytest.raises(AttributeError):
        pending.witness_generators = ()
    with pytest.raises(AttributeError):
        pending.missing
