"""Module boundaries inside the package."""

import ast
from pathlib import Path

import flatcert


def test_no_module_imports_another_modules_private_names():
    package = Path(flatcert.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("flatcert")
            )
            if internal:
                offenders += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def _modules():
    package = Path(flatcert.__file__).parent
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }


def _read_names(tree):
    """Every name the tree reads, as a variable or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_private_module_level_name_is_used():
    modules = _modules()
    used = set().union(*map(_read_names, modules.values()))
    unused = []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                assign = isinstance(node, ast.Assign)
                targets = node.targets if assign else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [
                f"{name}: {d}"
                for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in used
            ]
    assert unused == []


def test_every_import_is_used_in_its_module():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{name}: {bound}"
                    for alias in node.names
                    if (bound := (alias.asname or alias.name).split(".")[0])
                    not in used
                ]
    assert unused == []


def test_packed_terms_have_one_entry_and_one_exit():
    """Outside `_Packing`, only `_vp_from_entries` packs a monomial and
    only `_entries_from_vp` unpacks a term, so no other code depends on
    the packed layout."""
    readers = {
        "pack": "_vp_from_entries",
        "fields": "_entries_from_vp",
    }
    offenders = []
    for name, tree in _modules().items():
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            if owner == "_Packing":
                continue
            offenders += [
                f"{name}: {owner} reads .{node.attr}"
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute)
                and readers.get(node.attr, owner) != owner
            ]
    assert offenders == []


def _engine_calls() -> list[ast.Call]:
    """Every `_module_buchberger` call in `modules.py`."""
    return [
        node
        for node in ast.walk(_modules()["modules.py"])
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_module_buchberger"
    ]


def test_every_engine_run_passes_a_relation_count():
    """The engine has two kinds of run, tables and generator mode, and
    the product criterion for ring relations holds in both, since only
    the span of the run counts: every `_module_buchberger` call passes a
    relation count, and the engine takes no default for it.  A syzygy
    basis is a table of generator mode's syzygies, not an augmented table
    that would need every pair."""
    import inspect

    import flatcert.modules as modules

    calls = _engine_calls()
    assert len(calls) == 3
    assert all(
        len(call.args) == 5 or any(k.arg == "relations" for k in call.keywords)
        for call in calls
    )
    parameter = inspect.signature(modules._module_buchberger).parameters["relations"]
    assert parameter.default is inspect.Parameter.empty


def test_every_engine_run_seeds_from_the_reduced_ring_basis():
    """One seeding rule: the ring's reduced basis enters first, as the
    run's relations, so the engine takes one count, the relation count,
    and no separate count of settled inputs; `modules.py` never reads a
    ring's raw `.defining` generators, only `defining_basis()`."""
    import inspect

    import flatcert.modules as modules

    assert list(inspect.signature(modules._module_buchberger).parameters) == [
        "gens",
        "pk",
        "rank",
        "head",
        "relations",
    ]
    assert "defining" not in _read_names(_modules()["modules.py"])


def test_ring_relations_enter_once_per_run(monkeypatch):
    """Each engine run over a quotient ring enters the ring's reduced
    defining basis once, packed at position 0, as its relations, whatever
    its rank: a table, generator mode and the rank-m table of a syzygy
    basis each pass `len(defining_basis())`, and no helper copies the
    relations into each position (`_in_each_position` is gone)."""
    import flatcert as fc
    import flatcert.modules as modules

    runs = []
    engine = modules._module_buchberger

    def spied(gens, pk, rank, head, relations):
        gens = list(gens)
        at_zero = all(t >> pk.shift == 0 for vp in gens[:relations] for t in vp)
        runs.append((relations, at_zero))
        return engine(gens, pk, rank, head, relations)

    R = fc.ring("x,y,z", ["x*y - z^2", "x^2 - y*z"])
    basis = R.defining_basis()  # the ring's own run, outside the spy
    x, y, z = (fc.poly(v, R) for v in "xyz")
    columns = [(x, z, y), (z, y, x), (y * z, x, R.zero())]
    monkeypatch.setattr(modules, "_module_buchberger", spied)
    modules.MembershipBasis(R, 3, columns)
    modules.syzygy_entries(columns, 3, R)
    modules.kernel_generators(modules.PolyMatrix(R, 3, columns))
    assert runs == [(len(basis), True)] * 4
    assert not hasattr(modules, "_in_each_position")


def test_no_table_reads_another_tables_packing():
    """A table's packed state (`_table`) and its rebuild (`_build`) are
    read only through `self`, so no table is built from another's
    packing and a table widens only through its own `_query`."""
    offenders = []
    for name, tree in _modules().items():
        offenders += [
            f"{name}:{node.lineno} reads .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("_table", "_build")
            and getattr(node.value, "id", None) != "self"
        ]
    assert offenders == []


def test_only_packed_run_picks_a_width():
    """One width rule: only `_packed_run` reads `_packing`, and it takes
    no polynomial list to scan for degrees, so every engine run starts
    at the width its caller names and widens only on an overflow."""
    import inspect

    import flatcert.modules as modules

    readers = []
    for name, tree in _modules().items():
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            readers += [
                f"{name}: {owner}"
                for node in ast.walk(top)
                if getattr(node, "id", getattr(node, "attr", None)) == "_packing"
            ]
    assert readers == ["modules.py: _packed_run"]
    assert list(inspect.signature(modules._packed_run).parameters) == [
        "ring",
        "run",
        "width",
    ]


def test_no_class_writes_its_own_getattr():
    """One deferred-field idiom: `record` installs the one `__getattr__`,
    which `deferred` records fill through; no class writes its own."""
    offenders = [
        f"{name}: {node.name}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(member, "name", None) == "__getattr__" for member in node.body)
    ]
    assert offenders == []


def test_only_a_projection_compacts():
    """A packed segment is compacted once, as `PolyMatrix.projected`
    makes it, never again as a run reads it."""
    callers = []
    for name, tree in _modules().items():
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for member in members:
                owner = getattr(member, "name", "<body>")
                if isinstance(top, ast.ClassDef):
                    owner = f"{top.name}.{owner}"
                callers += [
                    f"{name}: {owner}"
                    for node in ast.walk(member)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "compact"
                ]
    assert callers == ["modules.py: PolyMatrix.projected"]


def test_homology_reads_no_packed_internals():
    """`homology` asks about a matrix through `modules`' public functions
    (`column_degrees`, `frame_floor`, ...): it reads no recorded order
    (`_order`), no packed columns (`_at`) and no segments (`_segments`)."""
    names = _read_names(_modules()["homology.py"])
    assert names & {"_order", "_at", "_segments"} == set()


def test_one_function_enumerates_frame_quotients():
    """One frame rule: `_frame` enumerates a Schreyer step's lcm
    quotients, which `_schreyer` lifts and `_frame_floor` reads degrees
    off, for `frame_floor` and for a step capped below its own floor;
    besides the engine, no other function of `modules` forms an lcm of
    packed terms."""
    tree = _modules()["modules.py"]

    def functions(reads):
        return sorted(
            top.name
            for top in tree.body
            if isinstance(top, ast.FunctionDef) and reads(top)
        )

    def attributes(node):
        return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}

    assert functions(lambda f: "lcm" in attributes(f)) == ["_frame", "_module_buchberger"]
    assert functions(lambda f: "_frame" in _read_names(f)) == ["_frame_floor", "_schreyer"]
    assert functions(lambda f: "_frame_floor" in _read_names(f)) == [
        "_schreyer",
        "frame_floor",
    ]


def test_only_next_step_keeps_a_differential():
    """The resolution memo holds whole steps only: `_remember` is called
    by `as_presented_module`, keyed by the ideal or submodule it
    presents, and by `_next_step`, keyed by a differential, and by no
    other function, so no step that `tor` builds only below its frame
    floor is ever kept."""
    callers = []
    for top in _modules()["homology.py"].body:
        callers += [
            (top.name, ast.unparse(node.args[0]))
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_remember"
        ]
    assert callers == [("as_presented_module", "obj"), ("_next_step", "d")]


def _callers(tree, name):
    """The module-level functions of `tree` that call `name` by name,
    nested functions included."""
    return [
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
            for node in ast.walk(top)
        )
    ]


def test_one_graded_check_and_no_second_tor():
    """`tor` never asks `tor` again: every nonzero report's witnesses
    come from one builder.  And one graded check reads a frame floor:
    exactly one `homology` function calls `frame_floor`, as a capped
    step hands its own floor back."""
    tree = _modules()["homology.py"]
    assert "tor" not in _callers(tree, "tor")
    assert _callers(tree, "frame_floor") == ["_graded_nonzero"]


def _by_rule(expr) -> bool:
    """Whether `expr` is `term >> bshift & bmask`, a packing's bucket rule."""
    return (
        isinstance(expr, ast.BinOp)
        and isinstance(expr.op, ast.BitAnd)
        and isinstance(expr.left, ast.BinOp)
        and isinstance(expr.left.op, ast.RShift)
        and getattr(expr.left.right, "id", None) == "bshift"
        and getattr(expr.right, "id", None) == "bmask"
    )


def _shifts(expr) -> bool:
    return any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.RShift) for n in ast.walk(expr)
    )


def test_every_reducer_bucket_is_keyed_by_its_packings_rule():
    """One bucket rule, owned by the packing: `_Packing` and `_Induced`
    each set `bucket`, a (shift, mask) pair (a table's position, a
    Schreyer step's tie rank), every function that reads `bshift` and
    `bmask` unpacks them from a `.bucket`, and every key that looks up or
    files a reducer (`buckets[key]`, `.get(key)`, `.setdefault(key)` on a
    `*buckets` dict) is `t >> bshift & bmask`, or a name bound to one, or
    shifts nothing (a position or a rank from a range): no bucket is
    keyed by `>> shift`."""
    tree = _modules()["modules.py"]
    owners = sorted(
        top.name
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        and any(
            isinstance(n, ast.Attribute) and n.attr == "bucket" and isinstance(n.ctx, ast.Store)
            for n in ast.walk(top)
        )
    )
    assert owners == ["_Induced", "_Packing"]
    offenders, searched = [], set()
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef):
            continue
        bound: dict[str, list] = {}
        for node in ast.walk(top):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    while pairs:
                        t, v = pairs.pop()
                        if isinstance(t, ast.Tuple) and isinstance(v, ast.Tuple):
                            pairs += zip(t.elts, v.elts)
                        elif isinstance(t, ast.Tuple) and "bshift" in ast.unparse(t):
                            if not (isinstance(v, ast.Attribute) and v.attr == "bucket"):
                                offenders.append(f"{top.name}: {ast.unparse(node)}")
                        elif isinstance(t, ast.Name):
                            bound.setdefault(t.id, []).append(v)
        keys = []
        for node in ast.walk(top):
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", "").endswith(
                "buckets"
            ):
                keys.append(node.slice)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "setdefault")
                and getattr(node.func.value, "id", "").endswith("buckets")
            ):
                keys.append(node.args[0])
        for key in keys:
            searched.add(top.name)
            values = bound.get(key.id, []) if isinstance(key, ast.Name) else [key]
            offenders += [
                f"{top.name}: bucket key {ast.unparse(key)} = {ast.unparse(v)}"
                for v in values
                if _shifts(v) and not _by_rule(v)
            ]
    assert offenders == []
    assert {"_vp_normal_form", "_module_buchberger", "_reduced", "_schreyer"} <= searched


def test_a_schreyer_step_keeps_no_tracker_block():
    """`_schreyer` files F_k's terms under tie ranks after F_(k-1)'s, so
    its lifts need no block of positions below F_0: it binds no `npos`,
    `block` or `positions`."""
    top = next(t for t in _modules()["modules.py"].body if getattr(t, "name", "") == "_schreyer")
    stored = {
        n.id for n in ast.walk(top) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }
    assert stored & {"npos", "block", "positions"} == set()
