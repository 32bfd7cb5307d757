"""The behaviour of the package's record classes: construction, equality
and hashing, repr, immutability and validation, and the contract of a
`deferred` record, whose unset fields one fill sets on first read."""

from fractions import Fraction

import pytest

import flatcert as fc
from flatcert import (
    AffineMorphism,
    ArgumentError,
    ChainComplex,
    DimensionError,
    FlatnessVerdict,
    ModuleElement,
    PointSpec,
    PolyMatrix,
    PresentedModule,
    RingMap,
    RingSignature,
    TorReport,
)
from flatcert.cli import ReproCheck, ReproReport
from flatcert.parse import BinOp, Neg, Num, Pow, Token, Var, tokenize
from flatcert.record import deferred, record
from flatcert.script import (
    AssertFlat,
    AssertionRecord,
    AssertTor,
    FlatCall,
    FreeModuleArg,
    IdealDecl,
    ImageRingDecl,
    MapDecl,
    ModuleDecl,
    PrintStmt,
    RingDecl,
    Script,
    ScriptReport,
    TensorRingDecl,
    TorCall,
    parse_script,
)

SCRIPT = """
ring R = QQ[x, y, z] / (x*y - z^2);
ring S = QQ[t];
ring T = R ** S;
map f : S -> R = {x + 2*y};
ring I = image f;
ideal J = (x^2 - 3/2*y, -z) in R;
module M = R^2 / ((x, y), (z, -x));
assert tor(1, J, free(R, 1)) == 0;
assert flat(J at (x, y - 1));
print tor(2, M, J);
print J;
"""


def _rewrapped(text):
    """The same script with a line break after every token-separating
    space: only the positions of its tokens change."""
    return text.replace(" ", "\n  ")


def test_parses_differing_in_line_breaks_are_equal_with_equal_hashes():
    first, second = parse_script(SCRIPT), parse_script(_rewrapped(SCRIPT))
    assert [s.line for s in first.statements] != [s.line for s in second.statements]
    assert first == second
    assert hash(first) == hash(second)
    for a, b in zip(first.statements, second.statements):
        assert a == b and hash(a) == hash(b)


def test_positions_are_ignored_by_equality_and_hashing():
    here, there = Var("x", 1, 2), Var("x", 7, 9)
    assert here == there and hash(here) == hash(there)
    assert Var("x") == here and Var("x").line == 0 and Var("x").col == 0
    assert Var("x") != Var("y")
    assert Num(Fraction(1)) != Var("x")
    two = Num(Fraction(2))
    assert BinOp("+", here, two, 3, 4) == BinOp("+", there, two)
    # Token carries its position as data: it is compared.
    assert Token("name", "x", 1, 1) != Token("name", "x", 1, 2)


def test_reprs_are_pinned():
    assert repr(tokenize("x^2")[0]) == "Token(kind='name', text='x', line=1, col=1)"
    assert (
        repr(RingSignature(("x", "y"), "block", 1))
        == "RingSignature(variables=('x', 'y'), order='block', block=1)"
    )
    R = fc.ring("x,y")
    m = PresentedModule.cyclic(R, [fc.poly("x", R)])
    assert (
        repr(fc.tor(1, m, m))
        == "TorReport(index=1, is_zero=False, witness_generators=(ModuleElement(1),))"
    )
    assert (
        repr(Neg(Var("x", 2, 3), 2, 2))
        == "Neg(operand=Var(name='x', line=2, col=3), line=2, col=2)"
    )


def test_positional_keyword_and_default_construction():
    assert RingSignature(("x",)) == RingSignature(variables=("x",), order="grevlex", block=0)
    assert RingSignature(("x", "y"), block=1, order="block").block == 1
    assert Token(kind="int", text="3", line=1, col=5) == Token("int", "3", 1, 5)
    assert Pow(Var("x"), 2, col=4).col == 4
    with pytest.raises(TypeError):
        Token("int", "3", 1)
    with pytest.raises(TypeError):
        Token("int", "3", 1, 5, 6)
    with pytest.raises(TypeError):
        Var("x", colour=1)
    with pytest.raises(TypeError):
        Var("x", name="y")


def _frozen_records():
    R = fc.ring("x,y")
    x = fc.poly("x", R)
    module = PresentedModule.cyclic(R, [x])
    report = fc.tor(1, module, module)
    call = TorCall(1, "J", FreeModuleArg("R", 1))
    flat = FlatCall("J", (Var("x"),))
    return [
        ReproCheck("id", "zero", "zero", 0.0),
        ReproReport(()),
        AffineMorphism(RingMap(R, R, [x, fc.poly("y", R)])),
        PointSpec(R, fc.ideal(R, "x", "y")),
        FlatnessVerdict(False, report),
        ModuleElement(R, [x]),
        PolyMatrix(R, 1, [(x,)]),
        module,
        fc.free_resolution(module, 2),
        report,
        Token("name", "x", 1, 1),
        Num(Fraction(3)),
        Var("x"),
        Neg(Var("x")),
        BinOp("*", Var("x"), Var("y")),
        Pow(Var("x"), 2),
        RingSignature(("x",)),
        FreeModuleArg("R", 2),
        call,
        flat,
        RingDecl("R", ("x",), ()),
        ImageRingDecl("I", "f"),
        TensorRingDecl("T", "R", "S"),
        IdealDecl("J", (Var("x"),), "R"),
        ModuleDecl("M", "R", 1, ((Var("x"),),)),
        MapDecl("f", "S", "R", (Var("x"),)),
        AssertTor(call, True),
        AssertFlat(flat),
        PrintStmt("J"),
        Script(()),
    ]


@pytest.mark.parametrize(
    "record", _frozen_records(), ids=lambda record: type(record).__name__
)
def test_frozen_records_refuse_assignment(record):
    name = next(iter(vars(record)))
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


def _validations():
    R, S = fc.ring("x,y"), fc.ring("u")
    x = fc.poly("x", R)
    one_row = PolyMatrix(R, 1, [(x,)])
    return [
        ("signature-duplicate", lambda: RingSignature(("x", "x")), ArgumentError),
        ("signature-order", lambda: RingSignature(("x",), "revlex"), ArgumentError),
        ("signature-block", lambda: RingSignature(("x",), "block", 2), ArgumentError),
        ("module-rank", lambda: PresentedModule(R, -1, PolyMatrix(R, 0, ())), ArgumentError),
        ("module-shape", lambda: PresentedModule(R, 2, one_row), DimensionError),
        ("module-ring", lambda: PresentedModule(S, 1, one_row), DimensionError),
        ("complex-count", lambda: ChainComplex(R, (1,), (one_row,), True), DimensionError),
        ("complex-shape", lambda: ChainComplex(R, (1, 2), (one_row,), True), DimensionError),
        ("point-ring", lambda: PointSpec(R, fc.ideal(S, "u")), DimensionError),
        ("point-improper", lambda: PointSpec(R, fc.ideal(R, "x", "x + 1")), ArgumentError),
    ]


VALIDATIONS = _validations()


@pytest.mark.parametrize(
    "build, error",
    [case[1:] for case in VALIDATIONS],
    ids=[case[0] for case in VALIDATIONS],
)
def test_construction_validates(build, error):
    with pytest.raises(error):
        build()


def test_reports_are_mutable_and_unhashable():
    record = AssertionRecord("a", "tor", "zero", "zero", True, 0.5)
    report = ScriptReport([record], [], None, 0)
    report.status = 1
    report.prints.append("text")
    record.passed = False
    again = AssertionRecord("a", "tor", "zero", "zero", False, 0.5)
    assert report == ScriptReport([again], ["text"], None, 1)
    assert not report.ok
    for value in (record, report):
        with pytest.raises(TypeError):
            hash(value)
    assert (
        repr(ScriptReport([], [], "boom", 3))
        == "ScriptReport(assertions=[], prints=[], error='boom', status=3)"
    )


def test_vectors_and_matrices_store_tuples():
    R = fc.ring("x,y")
    x, y = fc.poly("x", R), fc.poly("y", R)
    assert ModuleElement(R, [x, y]).entries == (x, y)
    assert ModuleElement(R, (e for e in [x])).entries == (x,)
    matrix = PolyMatrix(R, 2, ([x, y] for _ in range(2)))
    assert matrix.columns == ((x, y), (x, y))
    assert PolyMatrix(R, 1).columns == ()
    assert (matrix.nrows, matrix.ncols) == (2, 2)


def test_vectors_and_matrices_validate():
    R, S = fc.ring("x,y"), fc.ring("u")
    x, u = fc.poly("x", R), fc.poly("u", S)
    with pytest.raises(DimensionError):
        ModuleElement(R, [x, u])
    with pytest.raises(DimensionError):
        PolyMatrix(R, 2, [(x,)])
    with pytest.raises(DimensionError):
        PolyMatrix(R, 1, [(u,)])
    with pytest.raises(ArgumentError):
        PolyMatrix(R, -1)


def test_vectors_and_matrices_compare_by_value():
    R, S = fc.ring("x,y"), fc.ring("u")
    x, y = fc.poly("x", R), fc.poly("y", R)
    assert ModuleElement(R, [x]) == ModuleElement(R, (x,))
    assert ModuleElement(R, [x]) != ModuleElement(R, [y])
    assert ModuleElement(R, ()) != ModuleElement(S, ())
    assert ModuleElement(R, [x]) != (x,)
    assert PolyMatrix(R, 1, [[x]]) == PolyMatrix(R, 1, ((x,),))
    assert PolyMatrix(R, 1, [[x]]) != PolyMatrix(R, 1, [[y]])
    assert PolyMatrix(R, 0) != PolyMatrix(R, 1)
    assert PolyMatrix(R, 1) != PolyMatrix(S, 1)
    for value in (ModuleElement(R, [x]), PolyMatrix(R, 1, [[x]])):
        with pytest.raises(TypeError):
            hash(value)


def test_vectors_and_matrices_are_immutable():
    R = fc.ring("x,y")
    x = fc.poly("x", R)
    vector, matrix = ModuleElement(R, [x]), PolyMatrix(R, 1, [[x]])
    with pytest.raises(AttributeError):
        vector.entries = ()
    with pytest.raises(AttributeError):
        matrix.nrows = 2
    assert vector.entries == (x,) and matrix.nrows == 1


def test_vector_and_matrix_reprs_are_pinned():
    R = fc.ring("x,y")
    x = fc.poly("x", R)
    assert repr(ModuleElement(R, [x])) == "ModuleElement(x)"
    assert repr(PolyMatrix(R, 1, [[x]])) == "PolyMatrix(1x1)"


@record
class Pair:
    left: int
    middle: int
    right: int = 0


def _deferred_pair(fills):
    """Pair(1, 2, 3) with `middle` and `right` unset; each fill is
    appended to `fills`."""

    def fill(pair):
        fills.append(pair)
        return {"middle": 2, "right": 3}

    return deferred(Pair, fill, left=1)


def test_a_deferred_record_fills_once():
    fills = []
    pair = _deferred_pair(fills)
    assert pair.left == 1 and "middle" not in vars(pair) and fills == []
    assert pair.right == 3 and fills == [pair]
    assert (pair.middle, pair.right) == (2, 3) and len(fills) == 1
    # The fill is dropped: the record holds what an eager one does.
    assert vars(pair) == vars(Pair(1, 2, 3))


@pytest.mark.parametrize(
    "read",
    [
        lambda record: record == Pair(1, 2, 3) and Pair(1, 2, 3) == record,
        lambda record: record != Pair(1, 2, 4),
        hash,
        repr,
        str,
    ],
    ids=["eq", "ne", "hash", "repr", "str"],
)
def test_a_deferred_record_reads_like_an_eager_one(read):
    fills = []
    pair = _deferred_pair(fills)
    with pytest.raises(AttributeError):
        pair.middle = 5  # refused before the fill, which it does not run
    assert fills == []
    assert read(pair) == read(Pair(1, 2, 3))
    assert len(fills) == 1
    with pytest.raises(AttributeError):
        pair.right = 4
    assert pair.right == 3


def test_an_unknown_name_raises_the_standard_attribute_error():
    class Plain:
        pass

    with pytest.raises(AttributeError) as plain:
        Plain().missing
    fills = []
    for pair in (Pair(1, 2), _deferred_pair(fills)):
        with pytest.raises(AttributeError) as caught:
            pair.missing
        assert str(caught.value) == str(plain.value).replace("Plain", "Pair")
        assert (caught.value.name, caught.value.obj) == ("missing", pair)
        assert not hasattr(pair, "_private")
    assert fills == []


def test_a_default_is_filled_in_by_the_constructor_alone():
    assert Pair(1, 2) == Pair(1, 2, 0) and Pair(1, 2).right == 0
    assert Pair(1, 2, right=5).right == 5
    assert "right" not in vars(Pair) and not hasattr(Pair, "right")
    assert Var("x").line == 0 and not hasattr(Var, "line")
    assert PolyMatrix(fc.ring("x"), 1).columns == () and not hasattr(PolyMatrix, "columns")
