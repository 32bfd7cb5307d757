"""Each module is presented and each resolution step taken at most once:
`as_presented_module` keeps a module object's presentation and each
differential its next step while they live, and every complex
`free_resolution` hands back equals the one a first call on a separately
built, equal module returns."""

import gc
import weakref

import pytest

import flatcert as fc
import flatcert.homology as homology
from flatcert import GREVLEX, LEX, as_presented_module, free_resolution, tor
from flatcert.cli import bundled_case_text
from flatcert.script import execute_text


def _declarations(name, order=GREVLEX):
    """A bundled case's objects, with nothing resolved yet: its
    assertions are left out."""
    lines = bundled_case_text(name).splitlines()
    text = "\n".join(line for line in lines if not line.startswith("assert"))
    report, env = execute_text(text, order)
    assert report.error is None and not report.assertions
    return env


def _cone_ideal():
    R = fc.ring("x,y,z,u,v", defining=("x*y - z^2",))
    return fc.ideal(R, "x - u", "z - u*v", "y - u*v^2")


def _count_steps(monkeypatch):
    """Record each `syzygy_entries` and `kernel_generators` call that
    `homology` makes, in order, in the returned list."""
    calls = []
    real_syzygies, real_kernel = homology.syzygy_entries, homology.kernel_generators

    def counted_syzygies(columns, nrows, ring):
        calls.append("syzygies")
        return real_syzygies(columns, nrows, ring)

    def counted_kernel(matrix, extra_relations=()):
        calls.append("tensored kernel" if extra_relations else "kernel")
        return real_kernel(matrix, extra_relations)

    monkeypatch.setattr(homology, "syzygy_entries", counted_syzygies)
    monkeypatch.setattr(homology, "kernel_generators", counted_kernel)
    return calls


def test_two_tors_on_one_ideal_resolve_it_once(monkeypatch):
    calls = _count_steps(monkeypatch)
    J = _cone_ideal()
    R = J.ring
    first = tor(1, J, fc.ideal(R, "x", "y", "z"))
    after_first = len(calls)
    second = tor(1, J, fc.ideal(R, "u", "v"))
    # The first tor presents J and N (ideals, so N has relation columns),
    # takes generators of J's first syzygies as d_2, and the kernel of the
    # tensored d_1.  J's presentation and d_2 come from the memo the
    # second time, so it only presents its new N and takes its own
    # tensored kernel.
    assert calls[:after_first] == ["syzygies"] * 2 + ["kernel", "tensored kernel"]
    assert calls[after_first:] == ["syzygies", "tensored kernel"]
    assert as_presented_module(J) is as_presented_module(J)
    assert str(first) == str(tor(1, _cone_ideal(), fc.ideal(R, "x", "y", "z")))
    assert str(second) == str(tor(1, _cone_ideal(), fc.ideal(R, "u", "v")))


def test_longer_request_extends_the_stored_resolution():
    J = _cone_ideal()
    short = free_resolution(J, 2)
    longer = free_resolution(J, 3)
    # over the cone the resolution does not end: the extension keeps the
    # stored differentials and appends one
    assert longer.differentials[:2] == short.differentials
    # complexes compare ring, ranks, each differential and `complete`
    assert longer == free_resolution(_cone_ideal(), 3)
    assert free_resolution(J, 1) == free_resolution(_cone_ideal(), 1)


@pytest.mark.parametrize("stored", [1, 2, 3])
@pytest.mark.parametrize("requested", [1, 2, 3])
def test_every_stored_and_requested_length_matches_a_fresh_call(stored, requested):
    J = _declarations("smooth_chart.fc")["J"]
    free_resolution(J, stored)
    fresh = free_resolution(_declarations("smooth_chart.fc")["J"], requested)
    # J completes after one differential: the zero syzygy step comes
    # only within a request of length 2 or more
    assert fresh.length == 1 and fresh.complete == (requested >= 2)
    assert free_resolution(J, requested) == fresh


def test_the_memo_keeps_no_module_alive():
    gc.collect()
    before = set(homology._MEMO)
    J = _cone_ideal()
    sub = fc.SubmodulePresentation(J.ring, 1, [(g,) for g in J.generators])
    tor(1, J, fc.ideal(J.ring, "x", "y", "z"))
    free_resolution(sub, 2)
    # J and sub with their presentations, d_1 of sub's presented module
    # with its syzygy basis d_2, and d_1 of J's presented module with the
    # generators of its kernel that the tor took
    sub_d1 = as_presented_module(sub).relations
    J_d1 = as_presented_module(J).relations
    assert set(homology._MEMO) - before == {id(J), id(sub), id(sub_d1), id(J_d1)}
    del sub_d1, J_d1
    alive = weakref.ref(J), weakref.ref(as_presented_module(J))
    del J, sub
    gc.collect()
    assert [ref() for ref in alive] == [None, None]
    assert set(homology._MEMO) == before


def test_a_basis_replaces_the_generators_a_tor_kept(monkeypatch):
    J = _cone_ideal()
    R = J.ring
    K, K2 = fc.ideal(R, "x", "y", "z"), fc.ideal(R, "u", "v")
    fresh = free_resolution(_cone_ideal(), 2)
    # present J, K and K2 first so that only J's next steps are counted
    for module in (J, K, K2):
        as_presented_module(module)
    calls = _count_steps(monkeypatch)
    tor(1, J, K)
    # the tor took generators of ker d_1; the resolution asks for the
    # basis, which replaces them
    assert calls == ["kernel", "tensored kernel"]
    assert free_resolution(J, 2) == fresh
    assert calls[2:] == ["syzygies"]
    # d_2 is now the kept basis: the next tor takes no kernel of d_1
    tor(1, J, K2)
    assert calls[3:] == ["tensored kernel"]


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_higher_index_after_a_lower_one_reads_as_fresh(order):
    env = _declarations("francia.fc", order)
    J, K, L = env["J"], env["K"], env["L"]
    assert tor(1, J, K).is_zero
    extended = tor(2, J, L)
    fresh_env = _declarations("francia.fc", order)
    fresh = tor(2, fresh_env["J"], fresh_env["L"])
    assert not fresh.is_zero
    assert str(extended) == str(fresh)
