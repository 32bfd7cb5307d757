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
  `kernel_generators` over R and builds no table.
"""

import time
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatcert as fc
import flatcert.homology as homology
from flatcert import GREVLEX, LEX, PolyMatrix, PresentedModule, tor
from flatcert.cli import REPRO_CHECKS, bundled_case_text
from flatcert.parse import to_polynomial
from flatcert.script import AssertFlat, AssertTor, execute_text, parse_script
from helpers import assert_homogeneous
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


def _bundled_queries(order):
    """(filename, index, make) for every bundled tor and flat query at
    Tor indices 1 to 3; make() builds M and N in a fresh environment."""
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
            for i in (1, 2, 3):
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
    reports = [tor(i, M, N) for i, M, N in queries]
    assert [r.is_zero for r in reports] == [False, False]
    # Each query took one kernel, over its fiber ring, and no table.
    assert [args[0].ring != M.ring for (args, _), (_, M, _) in zip(kernels, queries)] == [
        True,
        True,
    ]
    assert len(kernels) == 2 and tables == []
