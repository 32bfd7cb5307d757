"""Property: every script the grammar can state survives a parse/pretty
round trip, and the canonical text is a fixed point."""

from hypothesis import given, settings
from hypothesis import strategies as st

from flatcert.parse import MAX_RANK, BinOp, Neg, Num, Pow, Var
from flatcert.script import (
    RESERVED,
    AssertFlat,
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
    TensorRingDecl,
    TorCall,
    parse_script,
    pretty_script,
)

LETTERS = "abcfimnprtxyzAFIQR_"
names = st.builds(
    str.__add__, st.sampled_from(LETTERS), st.text(LETTERS + "0123456789", max_size=3)
).filter(lambda s: s not in RESERVED)

exprs = st.recursive(
    st.builds(Num, st.fractions(min_value=0, max_value=1000, max_denominator=50))
    | st.builds(Var, names),
    lambda child: st.builds(Neg, child)
    | st.builds(BinOp, st.sampled_from("+-*"), child, child)
    | st.builds(Pow, child, st.integers(0, 4)),
    max_leaves=8,
)
expr_lists = st.lists(exprs, max_size=3).map(tuple)
ranks = st.integers(0, MAX_RANK)
tor_args = names | st.builds(FreeModuleArg, names, ranks)
tor_calls = st.builds(TorCall, st.integers(0, 5), tor_args, tor_args)
flat_calls = st.builds(FlatCall, names, expr_lists)

statements = st.one_of(
    st.builds(
        RingDecl, names, st.lists(names, max_size=4, unique=True).map(tuple),
        expr_lists,
    ),
    st.builds(ImageRingDecl, names, names),
    st.builds(TensorRingDecl, names, names, names),
    st.builds(IdealDecl, names, expr_lists, names),
    st.builds(
        ModuleDecl, names, names, ranks, st.lists(expr_lists, max_size=3).map(tuple)
    ),
    st.builds(MapDecl, names, names, names, expr_lists),
    st.builds(AssertTor, tor_calls, st.booleans()),
    st.builds(AssertFlat, flat_calls),
    st.builds(PrintStmt, names | tor_calls | flat_calls),
)
scripts = st.builds(Script, st.lists(statements, max_size=6).map(tuple))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(scripts)
def test_parse_pretty_round_trip(script):
    text = pretty_script(script)
    assert parse_script(text) == script
    assert pretty_script(parse_script(text)) == text
