"""`tor` tensors only the two differentials that meet at F_i.

Tor_i(M, N) is the homology at F_i of F_(i+1) -> F_i -> F_(i-1) tensored
with N (of F_1 -> F_0 when i = 0), so `tor` tensors d_i and d_(i+1)
alone, and takes d_(i+1) as `kernel_generators(d_i)`.
`helpers.full_complex_tor` tensors every differential of the resolution
to length i + 1, syzygy bases throughout.  Verdicts and witness text
must agree: on neg2-graph's Tor_0..3(J, K), francia's Tor_0..2(J, L), a
resolution that is complete at d_i, so that d_(i+1) has no columns, and
against non-cyclic modules N.  Every `tor` call runs before any oracle
call, so `tor` meets a resolution memo that ends at d_i and takes
d_(i+1) from its generator route.
"""

import pytest

import flatcert as fc
from flatcert import GREVLEX, LEX, PresentedModule, free_resolution, tor
from flatcert.cli import bundled_case_text
from flatcert.script import execute_text
from helpers import full_complex_tor


def _env(filename, order):
    return execute_text(bundled_case_text(filename), order, declarations_only=True)[1]


def _assert_agree(queries):
    reports = [tor(i, M, N) for i, M, N in queries]
    for (i, M, N), report in zip(queries, reports):
        expected = full_complex_tor(i, M, N)
        assert report == expected
        assert str(report) == str(expected)
    return reports


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_neg2_graph_tor_of_j_and_k(order):
    env = _env("neg2_graph.fc", order)
    reports = _assert_agree([(i, env["J"], env["K"]) for i in range(4)])
    assert not reports[3].is_zero


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_francia_tor_of_j_and_l(order):
    env = _env("francia.fc", order)
    reports = _assert_agree([(i, env["J"], env["L"]) for i in range(3)])
    assert not reports[2].is_zero


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_non_cyclic_n(order):
    env = _env("neg2_graph.fc", order)
    R = env["J"].ring
    x, z = fc.poly("x", R), fc.poly("z", R)
    two = PresentedModule(R, 2, fc.PolyMatrix(R, 2, [(x, R.zero()), (z, x)]))
    queries = [(i, env["K"], env["J"]) for i in range(3)]
    queries += [(i, env["J"], two) for i in range(3)]
    reports = _assert_agree(queries)
    assert any(not r.is_zero for r in reports)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_a_complete_resolution_leaves_d_i_plus_1_empty(order):
    # J = (x, y) is resolved by its Koszul syzygy: d_1 has one column and
    # d_2 none, so Tor_1 takes its image from nothing.
    R = fc.ring("x,y", order=order)
    J = fc.ideal(R, "x", "y")
    point = PresentedModule.cyclic(R, [fc.poly("x", R), fc.poly("y", R)])
    plane = PresentedModule.cyclic(R, [fc.poly("x - y", R)])
    reports = _assert_agree([(1, J, point), (1, J, plane), (2, J, point)])
    res = free_resolution(J, 2)
    assert res.complete and res.length == 1
    assert [r.is_zero for r in reports] == [False, True, True]
