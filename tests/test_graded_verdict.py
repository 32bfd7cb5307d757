"""Graded Tor verdicts against a cyclic module.

For N = R/I and i >= 1, `tor` takes the kernel of d_i tensor N first.
When positive weights make R's relations, M and I homogeneous, d_i
records the order its columns are a basis for, and a kernel generator
lies below d_i's frame floor, no syzygy of d_i reaches that degree, so
Tor_i is nonzero without d_(i+1) or the image's table.  Checked here:

- the graded route against today's route (the weights solver forced to
  None) on every bundled tor and flat query at Tor indices 1 to 3, on
  the residue field of the cone over the Veronese surface (r = 2 to
  i = 5, r = 3 to i = 3) and on hypothesis-drawn weighted-homogeneous
  ideals of QQ[x,y,z] against R modulo some of the variables, under
  grevlex and lex: equal verdicts and equal witness text, with every
  differential and kernel whose degree the route reads off one term
  homogeneous (`helpers.assert_homogeneous`);
- the cases that take today's path with an unchanged verdict: an
  ungraded ring or ideal, an N of rank 2, a rank-2 M, i = 0, and a
  user's relation matrix at i = 1;
- the weights solver: the bundled gradings, a cone that the all-ones
  try misses, None on ungraded and infeasible systems, and None at its
  cap on a 12-variable system;
- a verdict-only `tor` on the benchmark's two deep queries runs no
  `kernel_generators` over R, builds no table, and builds d_i only below
  its frame floor;
- that capped step (`capped_step`) against the whole step's columns
  below its floor, on every bundled step d_2..d_4 and on the Veronese
  surface's up to d_4, and the floor it hands back against the next
  step's least degree and the whole step's own `frame_floor`;
- `frame_floor`'s contract against the least degree of a table-route
  syzygy;
- the route from d_i below its floor (i >= 2) against the check on d_i
  whole, on every bundled query at i = 2..4, on Veronese k and on the
  hypothesis-drawn family: the same queries decided, the same verdicts
  and witness text;
- a resolution that ends before i; the memo after a verdict-only query
  and after its witnesses, whose read enters `tor` once, scans no frame
  and gives today's witness text; one fiber ring per generator tuple.
"""

import time
from contextlib import contextmanager
from itertools import product
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatcert as fc
import flatcert.homology as homology
from flatcert import GREVLEX, LEX, PolyMatrix, PresentedModule, tor
from flatcert.cli import REPRO_CHECKS, bundled_case_text
from flatcert.modules import capped_step, column_degrees, frame_floor, syzygy_entries
from flatcert.parse import to_polynomial
from flatcert.script import AssertFlat, AssertTor, execute_text, parse_script
from helpers import assert_homogeneous, run_with_deadline
from test_homology import _veronese_residue_field


@contextmanager
def _route(monkeypatch, graded):
    """Inside, `tor` takes the graded route, or today's when not
    `graded` (the weights solver forced to None); yields the list of
    `_graded_nonzero`'s answers.  Every matrix whose degrees the route
    reads off one term is checked to be homogeneous."""
    verdicts = []
    real_degrees, real_check = homology.column_degrees, homology._graded_nonzero

    def degrees(matrix, weights, row_degrees):
        found = real_degrees(matrix, weights, row_degrees)
        every_term = assert_homogeneous(matrix, weights, row_degrees)
        # A zero column reads 0; every other the degree of all its terms.
        assert found == [0 if d is None else d for d in every_term]
        return found

    def check(*args):
        verdicts.append(real_check(*args))
        return verdicts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(homology, "column_degrees", degrees)
        patch.setattr(homology, "_graded_nonzero", check)
        if not graded:
            patch.setattr(homology, "_grading_weights", lambda polys, nvars: None)
        yield verdicts


def _compare(monkeypatch, make, i):
    """Asserts both routes agree; returns whether the graded one took
    its shortcut."""
    texts, taken = [], False
    for graded in (True, False):
        M, N = make()
        with _route(monkeypatch, graded) as verdicts:
            texts.append(str(tor(i, M, N)))
        if graded:
            taken = any(verdicts)
        else:
            assert not any(verdicts)
    assert texts[0] == texts[1]
    return taken


def _bundled_queries(order, indices=(1, 2, 3)):
    """(filename, index, make) for every bundled tor and flat query at
    the given Tor indices; make() builds M and N in a fresh environment."""
    for filename, _ in REPRO_CHECKS:
        text = bundled_case_text(filename)
        for stmt in parse_script(text).statements:
            if isinstance(stmt, AssertTor):
                names = (stmt.call.left, stmt.call.right)

                def make(names=names, text=text):
                    env = execute_text(text, order, declarations_only=True)[1]
                    return env[names[0]], env[names[1]]

            elif isinstance(stmt, AssertFlat):

                def make(call=stmt.call, text=text):
                    env = execute_text(text, order, declarations_only=True)[1]
                    M = env[call.name]
                    gens = [to_polynomial(e, M.ring.signature) for e in call.point]
                    return M, PresentedModule.cyclic(M.ring, gens)

            else:
                continue
            for i in indices:
                yield filename, i, make


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_bundled_queries_agree_with_todays_route(order, monkeypatch):
    taken = [
        (filename, i)
        for filename, i, make in _bundled_queries(order)
        if _compare(monkeypatch, make, i)
    ]
    # francia Tor_i(J, L) for i = 1..3 and neg2 Tor_i(J, K) for i = 1..3
    # are nonzero from degrees alone; the zero verdicts never are.
    assert sorted(taken) == sorted(
        [("francia.fc", i) for i in (1, 2, 3)] + [("neg2_graph.fc", i) for i in (1, 2, 3)]
    )


@pytest.mark.parametrize("r,top", [(2, 5), (3, 3)])
def test_veronese_residue_field_agrees_with_todays_route(r, top, monkeypatch):
    def make():
        k = _veronese_residue_field(r)
        return k, k

    # k's d_1 is the user's relation matrix, which records no order: the
    # graded route starts at i = 2.
    taken = [i for i in range(1, top + 1) if _compare(monkeypatch, make, i)]
    assert taken == list(range(2, top + 1))


def _weighted_monomials(weights, degree, cap=4):
    return [
        m
        for m in product(range(cap + 1), repeat=3)
        if sum(w * e for w, e in zip(weights, m)) == degree
    ]


@st.composite
def _graded_queries(draw):
    """(order, weights, generator terms, dropped variables, i): an ideal
    of QQ[x,y,z] homogeneous for the weights, and R modulo some of its
    variables."""
    order = draw(st.sampled_from([GREVLEX, LEX]))
    weights = draw(st.tuples(*[st.integers(1, 3)] * 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(2, 5))
        monomials = _weighted_monomials(weights, degree)
        if not monomials:
            continue
        chosen = draw(
            st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True)
        )
        coefficients = [draw(st.integers(-3, 3).filter(bool)) for _ in chosen]
        gens.append(list(zip(chosen, coefficients)))
    dropped = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True))
    return order, weights, gens, sorted(dropped), draw(st.integers(1, 3))


def _polynomial(R, terms):
    out = R.zero()
    for m, c in terms:
        monomial = "*".join(f"{v}^{e}" for v, e in zip("xyz", m) if e) or "1"
        out = out + c * fc.poly(monomial, R)
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_graded_queries())
def test_weighted_homogeneous_ideals_agree_with_todays_route(query):
    order, weights, gens, dropped, i = query
    monkeypatch = pytest.MonkeyPatch()
    try:

        def make():
            R = fc.ring("x,y,z", order=order)
            J = fc.ideal(R, *[_polynomial(R, t) for t in gens] or ["x"])
            return J, PresentedModule.cyclic(R, [R.var(v) for v in dropped])

        _compare(monkeypatch, make, i)
    finally:
        monkeypatch.undo()


def _spy(monkeypatch, name):
    """Records (arguments, result) of each call of `homology.<name>`."""
    calls = []
    real = getattr(homology, name)

    def spied(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(homology, name, spied)
    return calls


def _francia(order=GREVLEX, **replace):
    text = bundled_case_text("francia.fc")
    for old, new in replace.items():
        text = text.replace(old, new)
    return execute_text(text, order, declarations_only=True)[1]


def _agrees_without_the_shortcut(monkeypatch, i, make):
    floors = _spy(monkeypatch, "frame_floor")
    assert not _compare(monkeypatch, make, i)
    return floors


def test_an_ungraded_ideal_takes_todays_path(monkeypatch):
    def make():
        env = _francia(**{"E - a^2*c": "E - a^2*c + a"})
        return env["J"], env["L"]

    # No positive weights make E - a^2*c + a homogeneous.
    assert _agrees_without_the_shortcut(monkeypatch, 1, make) == []


def test_an_ungraded_ring_takes_todays_path(monkeypatch):
    def make():
        R = fc.ring("x,y,z", ["x^2 - x"])
        return fc.ideal(R, "x*y", "y*z"), PresentedModule.cyclic(R, [R.var("z")])

    assert _agrees_without_the_shortcut(monkeypatch, 1, make) == []


def test_an_n_of_rank_two_takes_todays_path(monkeypatch):
    def make():
        env = _francia()
        R = env["J"].ring
        a, b = R.var("a"), R.var("b")
        N = PresentedModule(R, 2, PolyMatrix(R, 2, [(a, R.zero()), (R.zero(), b)]))
        return env["J"], N

    checks = _spy(monkeypatch, "_graded_nonzero")
    assert not _compare(monkeypatch, make, 1)
    assert checks == []


def test_a_rank_two_m_takes_todays_path(monkeypatch):
    def make():
        R = fc.ring("x,y,z")
        x, y, z = (R.var(v) for v in "xyz")
        M = PresentedModule(R, 2, PolyMatrix(R, 2, [(x, y), (y, z), (z, R.zero())]))
        return M, PresentedModule.cyclic(R, [x, y, z])

    assert _agrees_without_the_shortcut(monkeypatch, 2, make) == []


def test_index_zero_takes_todays_path(monkeypatch):
    def make():
        env = _francia()
        return env["J"], env["L"]

    checks = _spy(monkeypatch, "_graded_nonzero")
    assert not _compare(monkeypatch, make, 0)
    assert checks == []


def test_a_user_relation_matrix_at_index_one_takes_todays_path(monkeypatch):
    # R/J for the cone's chart ideal: d_1 is J's generators as the user
    # gave them, which record no order, so there is no frame to read.
    def make():
        R = fc.ring("x,y,z,u,v", defining=("x*y - z^2",))
        gens = [fc.poly(g, R) for g in ("x - u", "z - u*v", "y - u*v^2")]
        M = PresentedModule.cyclic(R, gens)
        return M, PresentedModule.cyclic(R, [R.var(v) for v in "xyz"])

    floors = _agrees_without_the_shortcut(monkeypatch, 1, make)
    assert [floor for _, floor in floors] == [None]


def _weights(*texts, variables="x,y,z"):
    R = fc.ring(variables)
    return homology._grading_weights([fc.poly(t, R) for t in texts], R.signature.nvars)


def test_the_solver_finds_the_bundled_gradings():
    env = _francia()
    J, L = env["J"], env["L"]
    polys = [*J.ring.defining_basis(), *J.generators]
    polys += [c[0] for c in L.relations.columns]
    # (a, b, c, E, G, H, A, B, C)
    assert homology._grading_weights(polys, 9) == (1, 1, 1, 3, 1, 1, 2, 2, 1)
    neg2 = ("x*y - z^2", "x - u", "z - u*v", "y - u*v^2")
    assert _weights(*neg2, variables="x,y,z,u,v") == (1, 3, 2, 1, 1)


def test_the_solver_reaches_past_the_all_ones_try():
    # w_x = w_y - 2 w_z and w_u = 3 w_z - w_y: all free weights 1 gives
    # w_x = -1, and 2 w_z < w_y < 3 w_z leaves no integer w_y at w_z = 1,
    # so the cone search scales w_z to 2 before it picks w_y = 5.
    assert _weights("x*z^2 - y", "u*y - z^3", variables="x,u,y,z") == (1, 1, 5, 2)
    assert _weights("x*z^2 - y") == (1, 3, 1)


def test_the_solver_refuses_ungraded_and_infeasible_systems():
    assert _weights("x^2 - x") is None
    assert _weights("x - y^2", "y - x^2") is None  # only w = 0
    # w_x = w_y - w_z and w_u = w_z - w_y cannot both be positive: the
    # cone search meets 0 > 0.
    assert _weights("x*z - y", "u*y - z", variables="x,u,y,z") is None


# w_p for p < 5 is minus row p dotted with the seven free weights: a
# cone that all free weights 1 misses, whose Fourier-Motzkin elimination
# holds 15, 27, 52 and 214 inequalities after its first four steps and
# thousands after the fifth.
WIDE_CONE = (
    (1, 0, 0, 1, 2, -2, 1),
    (1, -1, 1, 2, 0, -2, 1),
    (-1, 2, -2, -2, 1, 2, 0),
    (-2, -2, -1, -2, -2, 2, 1),
    (-2, 1, -1, 1, -2, 0, 2),
)


def test_the_solver_stops_at_its_cap():
    names = [f"t{k}" for k in range(12)]
    R = fc.ring(",".join(names))

    def monomial(exponents):
        return "*".join(f"{n}^{e}" for n, e in zip(names, exponents) if e > 0) or "1"

    polys = []
    for p, row in enumerate(WIDE_CONE):
        v = [int(k == p) for k in range(5)] + [-c for c in row]
        polys.append(fc.poly(f"{monomial(v)} - {monomial([-e for e in v])}", R))
    start = time.perf_counter()
    assert homology._grading_weights(polys, 12) is None
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_a_verdict_only_deep_tor_builds_no_next_step_and_no_table(order, monkeypatch):
    kernels = _spy(monkeypatch, "kernel_generators")
    tables = _spy(monkeypatch, "MembershipBasis")
    francia = _francia(order)
    _, neg2 = execute_text(bundled_case_text("neg2_graph.fc"), order, declarations_only=True)
    queries = [(2, francia["J"], francia["L"]), (3, neg2["J"], neg2["K"])]
    steps = _spy_steps(monkeypatch)
    reports = [tor(i, M, N) for i, M, N in queries]
    assert [r.is_zero for r in reports] == [False, False]
    # Each query took one kernel, over its fiber ring, and no table.
    assert [args[0].ring != M.ring for (args, _), (_, M, _) in zip(kernels, queries)] == [
        True,
        True,
    ]
    assert len(kernels) == 2 and tables == []
    # d_1..d_(i-1) whole, and d_i only below its frame floor: francia's
    # d_2 has 9 of its 53 columns there, neg2's d_3 4 of 6 (3 of 6 under
    # lex).
    capped = {GREVLEX: [(17, 9), (6, 4)], LEX: [(17, 9), (6, 3)]}[order]
    assert [shape for shape, graded in steps if graded] == capped
    assert [graded for _, graded in steps] == [False, True, False, False, True]


def _spy_steps(monkeypatch):
    """Records (rows, columns) of each step `homology` asks for, whole
    (`syzygy_entries`) or capped below its frame floor (`capped_step`),
    with whether it was capped."""
    steps = []
    real, real_capped = homology.syzygy_entries, homology.capped_step

    def spied(columns, nrows, ring, extra_relations=()):
        out = real(columns, nrows, ring, extra_relations)
        steps.append(((len(columns), out.ncols), False))
        return out

    def capped(matrix, weights, degrees):
        out = real_capped(matrix, weights, degrees)
        steps.append(((matrix.ncols, out[0].ncols), True))
        return out

    monkeypatch.setattr(homology, "syzygy_entries", spied)
    monkeypatch.setattr(homology, "capped_step", capped)
    return steps


def _graded_resolution(M, length):
    """M's resolution to `length` with weights for which R's relations
    and M are homogeneous, and each F_k's basis degrees, F_0 first."""
    ring = M.ring
    res = fc.free_resolution(M, length)
    relations = ring.defining_basis() if ring.is_quotient else ()
    if isinstance(M, fc.IdealHandle):
        gens = M.generators
        weights = homology._grading_weights([*relations, *gens], ring.signature.nvars)
        degrees = [[sum(w * e for w, e in zip(weights, next(iter(g.terms)))) for g in gens]]
    else:  # a cyclic module, R of degree 0
        gens = [col[0] for col in M.relations.columns]
        weights = homology._grading_weights([*relations, *gens], ring.signature.nvars)
        degrees = [[0]]
    for d in res.differentials:
        degrees.append(column_degrees(d, weights, degrees[-1]))
    return res, weights, degrees


def _bundled_ideals(order):
    """(name, ideal) for every ideal the bundled cases declare."""
    for filename, _ in REPRO_CHECKS:
        env = execute_text(bundled_case_text(filename), order, declarations_only=True)[1]
        for name, value in env.items():
            if isinstance(value, fc.IdealHandle):
                yield f"{filename} {name}", value


def _capped_steps_agree(M, top):
    """d_2..d_top capped below their floors against the whole steps'
    columns below it; the floor is the least degree of the next step's
    columns, as each is a lift of one frame element.  The floor each
    capped step hands back is that floor, and, when finite, the whole
    step's own `frame_floor` scanned up to it.  Returns the (whole,
    capped) column counts."""
    res, weights, degrees = _graded_resolution(M, top + 1)
    counts = []
    for k in range(2, min(top, res.length) + 1):
        d, whole = res.differential(k - 1), res.differential(k)
        capped = capped_step(d, weights, degrees[k - 1])
        if d._order is None:  # the user's matrix: d_k is no Schreyer step
            assert capped is None
            continue
        step, handed = capped
        after = res.differentials[k:k + 1]
        floor = min(degrees[k + 1], default=inf) if after else inf
        below = [c for c, deg in zip(whole.columns, degrees[k]) if deg < floor]
        assert step.columns == tuple(below)
        assert step._order == whole._order
        assert handed == floor
        if handed < inf:
            assert frame_floor(whole, weights, degrees[k], handed) == handed
        counts.append((whole.ncols, step.ncols))
    return counts


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_a_capped_step_is_the_whole_steps_columns_below_its_floor(order):
    counts = {}
    for name, J in _bundled_ideals(order):
        if homology._grading_weights(
            [*J.ring.defining_basis(), *J.generators], J.ring.signature.nvars
        ):
            counts[name] = _capped_steps_agree(J, 4)
    assert counts["francia.fc J"] == [(53, 9), (160, 10), (480, 10)]
    k = _veronese_residue_field(2)
    # A linear resolution: every column lies below the floor.
    assert _capped_steps_agree(k, 4) == [(64, 64), (192, 192)]


def test_a_capped_step_of_a_matrix_that_records_no_order_is_none():
    k = _veronese_residue_field(2)
    d1 = fc.free_resolution(k, 1).differential(1)
    assert capped_step(d1, (1,) * 6, [1] * 6) is None
    # So the route leaves Tor_2(k, k) to the check on d_2 whole.
    with _deciders() as decided:
        assert not tor(2, k, k).is_zero
    assert decided == [("route", None), ("whole", True)]


def _least_syzygy_degree(d, weights, degrees):
    """The least weighted degree of a syzygy of d's columns that is
    nonzero in the ring: that of the table route's reduced basis for
    position-over-term, built without a frame."""
    table = syzygy_entries(list(d), d.nrows, d.ring)
    return min(column_degrees(table, weights, degrees), default=inf)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_frame_floor_exceeds_stop_exactly_when_the_least_syzygy_degree_does(order):
    francia = _francia(order)["J"]
    _, neg2 = execute_text(bundled_case_text("neg2_graph.fc"), order, declarations_only=True)
    cases = [(francia, 4), (neg2["J"], 3), (_veronese_residue_field(2), 4)]
    firsts = []
    for M, top in cases:
        res, weights, degrees = _graded_resolution(M, top)
        for k, d in enumerate(res.differentials, start=1):
            if d._order is None:  # the Veronese k's d_1, the user's matrix
                assert frame_floor(d, weights, degrees[k], 0) is None
                continue
            true = _least_syzygy_degree(d, weights, degrees[k])
            for stop in range(min(degrees[k]) - 1, true + 2):
                found = frame_floor(d, weights, degrees[k], stop)
                assert (found > stop) == (true > stop)
            firsts.append((frame_floor(d, weights, degrees[k], 10**9), true))
    # With a huge stop the scan ends at the first frame degree it meets,
    # which need not be the least: francia's d_4 gives 8, its floor is 7.
    assert firsts[3] == (8, 7)
    assert all(first >= true for first, true in firsts)


@contextmanager
def _deciders():
    """Inside, records each `_graded_nonzero` answer as ("route", answer)
    when it read d_i below its floor, or ("whole", answer), and a capped
    step that finds no order to read as ("route", None)."""
    decided = []
    real, real_capped = homology._graded_nonzero, homology.capped_step

    def spied(d, ker, floor, graded):
        answer = real(d, ker, floor, graded)
        decided.append(("whole" if floor is None else "route", answer))
        return answer

    def capped(matrix, weights, degrees):
        out = real_capped(matrix, weights, degrees)
        if out is None:
            decided.append(("route", None))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_graded_nonzero", spied)
        patch.setattr(homology, "capped_step", capped)
        yield decided


@contextmanager
def _without_the_route():
    """Inside, `tor` reads d_i whole: the capped step finds no order to
    read."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "capped_step", lambda matrix, weights, degrees: None)
        yield


def _routes_decide_alike(make, i):
    """The route from d_i below its floor and the check on d_i whole
    answer the same query alike: the same verdict and witness text, and
    the route shows Tor nonzero exactly when the check does.  Returns
    whether the route showed it."""
    M, N = make()
    with _deciders() as decided:
        text = str(tor(i, M, N))
    M, N = make()
    with _without_the_route(), _deciders() as checked:
        assert str(tor(i, M, N)) == text
    # Where the route finds no order to read, the check on d_i runs.
    assert any(answer for _, answer in decided) == any(a for _, a in checked)
    return any(answer for kind, answer in decided if kind == "route")


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_the_route_below_the_floor_decides_as_the_whole_step(order):
    shown = [
        (filename, i)
        for filename, i, make in _bundled_queries(order, (2, 3, 4))
        if _routes_decide_alike(make, i)
    ]
    assert sorted(shown) == sorted(
        [("francia.fc", i) for i in (2, 3, 4)] + [("neg2_graph.fc", i) for i in (2, 3, 4)]
    )


def test_the_route_below_the_floor_decides_veronese_k_as_the_whole_step():
    def make():
        k = _veronese_residue_field(2)
        return k, k

    # From i = 3 on, d_(i-1) records an order; at i = 2 only the check
    # on d_2 whole reads a floor.
    assert [_routes_decide_alike(make, i) for i in range(2, 6)] == [False, True, True, True]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_graded_queries())
def test_the_route_below_the_floor_decides_the_drawn_family_as_the_whole_step(query):
    order, weights, gens, dropped, i = query

    def make():
        R = fc.ring("x,y,z", order=order)
        J = fc.ideal(R, *[_polynomial(R, t) for t in gens] or ["x"])
        return J, PresentedModule.cyclic(R, [R.var(v) for v in dropped])

    _routes_decide_alike(make, i + 1)


def _short_resolution():
    # (x, y) is presented by one syzygy, so its resolution ends at d_1.
    R = fc.ring("x,y")
    J = fc.ideal(R, "x", "y")
    return [tor(i, J, PresentedModule.cyclic(R, [R.var("x")])).is_zero for i in (2, 3)]


def test_a_resolution_that_ends_before_i_answers_zero():
    assert run_with_deadline(30, _short_resolution) == [True, True]


def test_a_verdict_only_tor_keeps_no_step_and_its_witnesses_keep_d2(monkeypatch):
    # The witness text of today's route, which decides by the image table.
    with _route(monkeypatch, graded=False):
        env = _francia()
        expected = str(tor(2, env["J"], env["L"]))
    env = _francia()
    J, L = env["J"], env["L"]
    d1 = homology.as_presented_module(J).relations
    entered = []
    real = homology.tor

    def counted(i, M, N):
        entered.append(i)
        return real(i, M, N)

    monkeypatch.setattr(homology, "tor", counted)
    floors = _spy(monkeypatch, "frame_floor")
    report = homology.tor(2, J, L)
    assert not report.is_zero and homology._recall(d1) is None
    assert report.witness_generators
    # The route decided with the floor its capped step handed back, and
    # the witness read built d_2 whole and its homology without asking
    # tor again or scanning a frame.
    assert entered == [2] and floors == []
    assert str(report) == expected
    basis, d2 = homology._recall(d1)
    assert basis and d2 == syzygy_entries(d1, d1.nrows, d1.ring)


def test_one_fiber_ring_per_generator_tuple(monkeypatch):
    import flatcert.groebner as groebner

    env = _francia()
    J, K = env["J"], env["K"]
    fiber_gens = [col[0] for col in K.relations.columns]
    tables = []
    real = groebner.MembershipBasis

    def counted(ring, rank, columns):
        tables.append(ring.signature.variables)
        return real(ring, rank, columns)

    monkeypatch.setattr(groebner, "MembershipBasis", counted)
    for _ in range(3):
        assert tor(1, J, K).is_zero
    # The fiber QQ[E,G,H,A,B,C]/(six quadrics) is made once, and so is
    # its defining table.
    fiber, project = J.ring.quotient(fiber_gens)
    assert tables.count(fiber.signature.variables) == 1
    assert J.ring.quotient(list(fiber_gens)) == (fiber, project)
    assert J.ring.quotient(list(fiber_gens))[0] is fiber
    # francia Tor_2(J, K), asked first, is not shown nonzero below d_2's
    # floor: the route's kernel and the whole d_2's take one fiber ring.
    env = _francia()
    J, K = env["J"], env["K"]
    kernels = _spy(monkeypatch, "kernel_generators")
    assert tor(2, J, K).is_zero
    fiber = J.ring.quotient(fiber_gens)[0]
    rings = [args[0].ring for args, _ in kernels if args[0].ring.signature != J.ring.signature]
    assert len(rings) == 2 and all(ring is fiber for ring in rings)
