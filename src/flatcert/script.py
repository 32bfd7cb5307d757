"""The .fc script language: parser, pretty-printer, and interpreter.

Statements (each terminated by ';', '#' starts a comment):

    ring R = QQ[x,y,z] / (x*y - z^2);    # quotient part optional
    ring V = image F;                    # subalgebra presented by a map
    ring T = Q ** V;                     # tensor product of two rings
    ideal J = (x - u, z - u*v) in R;
    module K = R^1 / ((x), (y), (z));    # rows are relation vectors
    map F : R -> S = {e^2, g^2, h^2};    # images of R's variables in S
    assert tor(1, J, K) == 0;            # or != 0; free(R, n) is allowed
    assert flat(J at (x, y));
    print J;                             # also print tor(...) / flat(...)

`assert` and `print` share one query form, tor(...) or flat(...), which
is parsed and evaluated in one place.  Every declared name (ring, ideal,
module, map, ring variable) refuses reserved words.  Execution reports
carry one record per assertion; the exit status is 0 when every
assertion passes, 1 on an assertion failure, 2 on a parse error, and 3
on a computation error, whose message names its statement's line once.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from functools import partial

from .flatness import FlatnessVerdict, PointSpec, flat_at_point, tensor_with_renaming
from .groebner import IdealHandle, RingMap
from .homology import PresentedModule, TorReport, tor
from .modules import PolyMatrix, SubmodulePresentation
from .parse import (
    MAX_INDEX,
    MAX_RANK,
    Expr,
    ParseError,
    Token,
    TokenStream,
    expr_text,
    parse_expression,
    to_polynomial,
    tokenize,
    unexpected,
)
from .poly import (
    AlgebraError,
    ArgumentError,
    DimensionError,
    GREVLEX,
    PresentedRing,
    RingSignature,
)
from .record import record

RESERVED = {
    "ring", "ideal", "module", "map", "assert", "print",
    "in", "at", "image", "free", "tor", "flat", "QQ",
}


@record
class FreeModuleArg:
    ring_name: str
    rank: int


TorArg = str | FreeModuleArg


@record
class TorCall:
    index: int
    left: TorArg
    right: TorArg


@record
class FlatCall:
    name: str
    point: tuple[Expr, ...]


Query = TorCall | FlatCall


@record(uncompared=("line",))
class RingDecl:
    name: str
    variables: tuple[str, ...]
    quotient: tuple[Expr, ...]
    line: int = 0


@record(uncompared=("line",))
class ImageRingDecl:
    name: str
    map_name: str
    line: int = 0


@record(uncompared=("line",))
class TensorRingDecl:
    name: str
    left: str
    right: str
    line: int = 0


@record(uncompared=("line",))
class IdealDecl:
    name: str
    gens: tuple[Expr, ...]
    ring_name: str
    line: int = 0


@record(uncompared=("line",))
class ModuleDecl:
    name: str
    ring_name: str
    rank: int
    rows: tuple[tuple[Expr, ...], ...]
    line: int = 0


@record(uncompared=("line",))
class MapDecl:
    name: str
    source_name: str
    target_name: str
    images: tuple[Expr, ...]
    line: int = 0


@record(uncompared=("line",))
class AssertTor:
    call: TorCall
    nonzero: bool
    line: int = 0


@record(uncompared=("line",))
class AssertFlat:
    call: FlatCall
    line: int = 0


@record(uncompared=("line",))
class PrintStmt:
    subject: str | Query
    line: int = 0


Statement = (
    RingDecl | ImageRingDecl | TensorRingDecl | IdealDecl
    | ModuleDecl | MapDecl | AssertTor | AssertFlat | PrintStmt
)


@record
class Script:
    statements: tuple[Statement, ...]


def _new_name(ts: TokenStream, what: str) -> Token:
    """A name being declared: a ring, ideal, module, map, or variable."""
    tok = ts.expect("name", what)
    if tok.text in RESERVED:
        raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
    return tok


def _expect_keyword(ts: TokenStream, word: str) -> Token:
    tok = ts.peek()
    if tok.kind != "name" or tok.text != word:
        raise unexpected(tok, repr(word))
    return ts.next()


def _bracketed(
    ts: TokenStream, opener: str, closer: str, item: Callable[[TokenStream], object]
) -> tuple:
    """opener item, item, ... closer; the list may be empty."""
    ts.expect(opener)
    items = []
    if ts.peek().kind != closer:
        items.append(item(ts))
        while ts.peek().kind == ",":
            ts.next()
            items.append(item(ts))
    ts.expect(closer)
    return tuple(items)


def _bounded(ts: TokenStream, noun: str, bound: int) -> int:
    """An integer of at most `bound`.  Tor_0 of two free modules of rank n
    builds n^4 entries; over a quotient ring a resolution may never end,
    and each Tor index costs one more syzygy step."""
    tok = ts.expect("int", f"a {noun}")
    if int(tok.text) > bound:
        raise ParseError(f"{noun} larger than {bound}", tok.line, tok.col)
    return int(tok.text)


def _tor_arg(ts: TokenStream) -> TorArg:
    tok = ts.expect("name", "an ideal, module, or free(RING, n)")
    if tok.text == "free" and ts.peek().kind == "(":
        ts.next()
        ring_name = ts.expect("name", "a ring name").text
        ts.expect(",")
        rank = _bounded(ts, "rank", MAX_RANK)
        ts.expect(")")
        return FreeModuleArg(ring_name, rank)
    return tok.text


def _tor_call(ts: TokenStream) -> TorCall:
    index = _bounded(ts, "Tor index", MAX_INDEX)
    ts.expect(",")
    left = _tor_arg(ts)
    ts.expect(",")
    right = _tor_arg(ts)
    return TorCall(index, left, right)


def _flat_call(ts: TokenStream) -> FlatCall:
    name = ts.expect("name", "an ideal or module name").text
    _expect_keyword(ts, "at")
    point = _bracketed(ts, "(", ")", parse_expression)
    return FlatCall(name, point)


_QUERIES = {"tor": _tor_call, "flat": _flat_call}


def _query(ts: TokenStream) -> Query:
    """tor(...) or flat(...), the query that assert and print share."""
    head = ts.peek()
    if head.text not in _QUERIES:
        raise unexpected(head, "tor(...) or flat(...)")
    ts.next()
    ts.expect("(")
    call = _QUERIES[head.text](ts)
    ts.expect(")")
    return call


def _ring_decl(ts: TokenStream, line: int) -> Statement:
    name = _new_name(ts, "a ring name").text
    ts.expect("=")
    tok = ts.peek()
    if tok.kind == "name" and tok.text == "QQ":
        ts.next()
        seen: set[str] = set()

        def variable(ts: TokenStream) -> str:
            tok = _new_name(ts, "a variable name")
            if tok.text in seen:
                raise ParseError(f"duplicate variable {tok.text!r}", tok.line, tok.col)
            seen.add(tok.text)
            return tok.text

        variables = _bracketed(ts, "[", "]", variable)
        quotient: tuple[Expr, ...] = ()
        if ts.peek().kind == "/":
            ts.next()
            quotient = _bracketed(ts, "(", ")", parse_expression)
        return RingDecl(name, variables, quotient, line)
    if tok.kind == "name" and tok.text == "image":
        ts.next()
        map_name = ts.expect("name", "a map name").text
        return ImageRingDecl(name, map_name, line)
    left = ts.expect("name", "QQ[...], image MAP, or RING ** RING").text
    ts.expect("*")
    ts.expect("*")
    right = ts.expect("name", "a ring name").text
    return TensorRingDecl(name, left, right, line)


def _statement(ts: TokenStream) -> Statement:
    """One statement, without its closing ';'."""
    tok = ts.next()
    if tok.kind != "name":
        raise unexpected(tok, "a statement")
    line = tok.line
    word = tok.text
    if word == "ring":
        return _ring_decl(ts, line)
    if word == "ideal":
        name = _new_name(ts, "an ideal name").text
        ts.expect("=")
        gens = _bracketed(ts, "(", ")", parse_expression)
        _expect_keyword(ts, "in")
        ring_name = ts.expect("name", "a ring name").text
        return IdealDecl(name, gens, ring_name, line)
    if word == "module":
        name = _new_name(ts, "a module name").text
        ts.expect("=")
        ring_name = ts.expect("name", "a ring name").text
        ts.expect("^")
        rank = _bounded(ts, "rank", MAX_RANK)
        ts.expect("/")
        row = partial(_bracketed, opener="(", closer=")", item=parse_expression)
        rows = _bracketed(ts, "(", ")", row)
        return ModuleDecl(name, ring_name, rank, rows, line)
    if word == "map":
        name = _new_name(ts, "a map name").text
        ts.expect(":")
        source = ts.expect("name", "a ring name").text
        ts.expect("->")
        target = ts.expect("name", "a ring name").text
        ts.expect("=")
        images = _bracketed(ts, "{", "}", parse_expression)
        return MapDecl(name, source, target, images, line)
    if word == "assert":
        call = _query(ts)
        if isinstance(call, FlatCall):
            return AssertFlat(call, line)
        op = ts.peek()
        if op.kind not in ("==", "!="):
            raise unexpected(op, "'==' or '!='")
        ts.next()
        zero = ts.expect("int", "0")
        if zero.text != "0":
            raise ParseError("expected 0", zero.line, zero.col)
        return AssertTor(call, op.kind == "!=", line)
    if word == "print":
        if ts.peek().text in _QUERIES:
            return PrintStmt(_query(ts), line)
        return PrintStmt(ts.expect("name", "a declared name").text, line)
    raise ParseError(f"unknown statement {word!r}", tok.line, tok.col)


def parse_script(text: str) -> Script:
    ts = TokenStream(tokenize(text))
    statements = []
    while ts.peek().kind != "eof":
        statements.append(_statement(ts))
        ts.expect(";")
    return Script(tuple(statements))


def _tor_arg_text(arg: TorArg) -> str:
    if isinstance(arg, FreeModuleArg):
        return f"free({arg.ring_name}, {arg.rank})"
    return arg


def _subject_text(subject: str | Query) -> str:
    if isinstance(subject, TorCall):
        return (
            f"tor({subject.index}, {_tor_arg_text(subject.left)}, "
            f"{_tor_arg_text(subject.right)})"
        )
    if isinstance(subject, FlatCall):
        point = ", ".join(expr_text(e) for e in subject.point)
        return f"flat({subject.name} at ({point}))"
    return subject


def _assertion_text(stmt: AssertTor | AssertFlat) -> str:
    if isinstance(stmt, AssertFlat):
        return _subject_text(stmt.call)
    return f"{_subject_text(stmt.call)} {'!=' if stmt.nonzero else '=='} 0"


def pretty_script(script: Script) -> str:
    """Canonical text; reparses to an equal Script (positions aside)."""
    lines = []
    for stmt in script.statements:
        if isinstance(stmt, RingDecl):
            base = f"ring {stmt.name} = QQ[{','.join(stmt.variables)}]"
            if stmt.quotient:
                rels = ", ".join(expr_text(e) for e in stmt.quotient)
                base += f" / ({rels})"
            lines.append(base + ";")
        elif isinstance(stmt, ImageRingDecl):
            lines.append(f"ring {stmt.name} = image {stmt.map_name};")
        elif isinstance(stmt, TensorRingDecl):
            lines.append(f"ring {stmt.name} = {stmt.left} ** {stmt.right};")
        elif isinstance(stmt, IdealDecl):
            gens = ", ".join(expr_text(e) for e in stmt.gens)
            lines.append(f"ideal {stmt.name} = ({gens}) in {stmt.ring_name};")
        elif isinstance(stmt, ModuleDecl):
            rows = ", ".join(
                "(" + ", ".join(expr_text(e) for e in row) + ")"
                for row in stmt.rows
            )
            lines.append(
                f"module {stmt.name} = {stmt.ring_name}^{stmt.rank} / ({rows});"
            )
        elif isinstance(stmt, MapDecl):
            images = ", ".join(expr_text(e) for e in stmt.images)
            lines.append(
                f"map {stmt.name} : {stmt.source_name} -> {stmt.target_name}"
                f" = {{{images}}};"
            )
        elif isinstance(stmt, (AssertTor, AssertFlat)):
            lines.append(f"assert {_assertion_text(stmt)};")
        elif isinstance(stmt, PrintStmt):
            lines.append(f"print {_subject_text(stmt.subject)};")
        else:  # pragma: no cover - exhaustive
            raise AlgebraError("unknown statement")
    return "\n".join(lines) + ("\n" if lines else "")


@record(frozen=False)
class AssertionRecord:
    label: str
    description: str
    expected: str  # "zero" or "nonzero"
    actual: str
    passed: bool
    seconds: float


@record(frozen=False)
class ScriptReport:
    assertions: list[AssertionRecord]
    prints: list[str]
    error: str | None
    status: int  # 0 pass, 1 assertion failure, 2 parse error, 3 computation error

    @property
    def ok(self) -> bool:
        return self.status == 0


def _lookup(env: dict, name: str, kind: type | tuple = object, what: str = ""):
    """The object declared as `name`, which must be an instance of `kind`
    (`what` names the kind)."""
    if name not in env:
        raise ArgumentError(f"undeclared name {name!r}")
    if not isinstance(env[name], kind):
        raise ArgumentError(f"{name!r} is not {what}")
    return env[name]


def _ring_of(env: dict, name: str) -> PresentedRing:
    return _lookup(env, name, PresentedRing, "a ring")


def _module_arg(env: dict, arg: TorArg):
    if isinstance(arg, FreeModuleArg):
        return PresentedModule.free(_ring_of(env, arg.ring_name), arg.rank)
    modules = (IdealHandle, PresentedModule, SubmodulePresentation)
    return _lookup(env, arg, modules, "an ideal or module")


def resolve_tor_argument(text: str, env: dict, source: str = ""):
    """The ideal or module that a standalone Tor argument (a name, or
    free(RING, n)) denotes in the environment of an executed script.
    A parse error names `source` (say, "argument 2") as its place."""
    try:
        ts = TokenStream(tokenize(text))
        arg = _tor_arg(ts)
        ts.expect("eof", "end of input")
    except ParseError as e:
        raise ParseError(e.message, e.line, e.col, source) from None
    return _module_arg(env, arg)


class Interpreter:
    def __init__(self, default_order: str = GREVLEX):
        self.default_order = default_order
        self.env: dict[str, object] = {}

    def execute(self, script: Script) -> ScriptReport:
        report = ScriptReport([], [], None, 0)
        for stmt in script.statements:
            try:
                self._exec(stmt, report)
            except ParseError as e:
                report.error = str(e)
                report.status = 2
                return report
            except AlgebraError as e:
                report.error = f"line {stmt.line}: {e}"
                report.status = 3
                return report
        if any(not a.passed for a in report.assertions):
            report.status = 1
        return report

    def _exec(self, stmt: Statement, report: ScriptReport) -> None:
        env = self.env
        if isinstance(stmt, RingDecl):
            sig = RingSignature(stmt.variables, self.default_order)
            rels = [to_polynomial(e, sig) for e in stmt.quotient]
            env[stmt.name] = PresentedRing(sig, rels)
        elif isinstance(stmt, ImageRingDecl):
            env[stmt.name] = _lookup(env, stmt.map_name, RingMap, "a map").image()
        elif isinstance(stmt, TensorRingDecl):
            left = _ring_of(env, stmt.left)
            right = _ring_of(env, stmt.right)
            env[stmt.name] = tensor_with_renaming(left, right)[0]
        elif isinstance(stmt, IdealDecl):
            ring = _ring_of(env, stmt.ring_name)
            gens = [to_polynomial(e, ring.signature) for e in stmt.gens]
            env[stmt.name] = IdealHandle(ring, gens)
        elif isinstance(stmt, ModuleDecl):
            ring = _ring_of(env, stmt.ring_name)
            cols = []
            for row in stmt.rows:
                entries = tuple(to_polynomial(e, ring.signature) for e in row)
                if len(entries) != stmt.rank:
                    raise DimensionError(
                        f"relation has {len(entries)} entries, expected {stmt.rank}"
                    )
                cols.append(entries)
            env[stmt.name] = PresentedModule(
                ring, stmt.rank, PolyMatrix(ring, stmt.rank, cols)
            )
        elif isinstance(stmt, MapDecl):
            source = _ring_of(env, stmt.source_name)
            target = _ring_of(env, stmt.target_name)
            images = [to_polynomial(e, target.signature) for e in stmt.images]
            env[stmt.name] = RingMap(source, target, images)
        elif isinstance(stmt, (AssertTor, AssertFlat)):
            vanishes, _, seconds = self._evaluate(stmt.call)
            nonzero = isinstance(stmt, AssertTor) and stmt.nonzero
            expected = "nonzero" if nonzero else "zero"
            actual = "zero" if vanishes else "nonzero"
            report.assertions.append(
                AssertionRecord(
                    f"assert@{stmt.line}",
                    _assertion_text(stmt),
                    expected,
                    actual,
                    actual == expected,
                    seconds,
                )
            )
        elif isinstance(stmt, PrintStmt):
            subject = stmt.subject
            if isinstance(subject, str):
                text = f"{subject} = {_lookup(env, subject)}"
            else:
                text = f"{_subject_text(subject)}: {self._evaluate(subject)[1]}"
            report.prints.append(text)
        else:  # pragma: no cover - exhaustive
            raise AlgebraError("unknown statement")

    def _evaluate(
        self, call: Query
    ) -> tuple[bool, TorReport | FlatnessVerdict, float]:
        """Whether the query's Tor vanishes, its report, and the seconds it
        took; the clock starts once the arguments are set up."""
        if isinstance(call, TorCall):
            left = _module_arg(self.env, call.left)
            right = _module_arg(self.env, call.right)
            query = partial(tor, call.index, left, right)
        else:
            obj = _module_arg(self.env, call.name)
            ring = obj.ring
            gens = [to_polynomial(e, ring.signature) for e in call.point]
            point = PointSpec(ring, IdealHandle(ring, gens))
            query = partial(flat_at_point, obj, point)
        start = time.perf_counter()
        result = query()
        seconds = time.perf_counter() - start
        vanishes = result.is_zero if isinstance(call, TorCall) else result.flat
        return vanishes, result, seconds


def execute_text(
    text: str, order: str = GREVLEX, declarations_only: bool = False
) -> tuple[ScriptReport, dict[str, object]]:
    """Parse and run script text, returning the report and environment.
    With `declarations_only`, assertions and prints are skipped."""
    try:
        script = parse_script(text)
    except ParseError as e:
        return ScriptReport([], [], str(e), 2), {}
    if declarations_only:
        directives = (AssertTor, AssertFlat, PrintStmt)
        script = Script(
            tuple(s for s in script.statements if not isinstance(s, directives))
        )
    interp = Interpreter(order)
    report = interp.execute(script)
    return report, interp.env


def run_script(path: str, order: str = GREVLEX) -> ScriptReport:
    """Run the script at `path`; the report's status is the exit status."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    report, _ = execute_text(text, order)
    return report
