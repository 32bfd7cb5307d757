"""The module engine's field widths: set by what each run packs.

`_packed_run` starts every engine run at width 16, or at the width its
caller asks for, and reruns it at double width whenever a field
overflows, also when an input does not fit.  These tests check that the
bundled workloads never widen, that inputs of moderate degree (between
2^12 and 2^15, which fit 16-bit fields) give the values of a run started
at width 32, that a table makes exactly one run at 16 bits even
after the packing cache has dropped that packing, whatever other table
of the same ring came first, and that a matrix held packed enters a run
at its width as it is held after that packing was dropped.
"""

import pytest

import flatcert as fc
import flatcert.modules as modules
from flatcert import GREVLEX, LEX, MembershipBasis, kernel_generators, reduced_basis
from flatcert.modules import syzygy_entries
from test_exact_outputs import exact_outputs, resolution_pins


def _requested_widths(monkeypatch, work) -> list[int]:
    """work(), with the width of every packing it asks for recorded."""
    widths = []
    real = modules._packing

    def spied(order, block, nvars, width):
        widths.append(width)
        return real(order, block, nvars, width)

    with monkeypatch.context() as patch:
        patch.setattr(modules, "_packing", spied)
        work()
    return widths


def test_no_engine_run_on_a_bundled_case_widens(monkeypatch):
    # exact_outputs and resolution_pins each run under grevlex and lex.
    def both():
        exact_outputs()
        resolution_pins()

    widths = _requested_widths(monkeypatch, both)
    assert widths and set(widths) == {16}


def _started_at_32(monkeypatch):
    """Every engine run started at width 32 unless asked for more."""
    real = modules._packed_run

    def wide(ring, run, width=32):
        return real(ring, run, max(width, 32))

    monkeypatch.setattr(modules, "_packed_run", wide)


MODERATE = ("x^5000*y - z", "y^2 - x")


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_a_moderate_degree_ideal_fits_16_bit_fields(order, monkeypatch):
    R = fc.ring("x,y,z", [], order=order)
    gens = [fc.poly(g, R) for g in MODERATE]
    out = []
    widths = _requested_widths(monkeypatch, lambda: out.append(reduced_basis(gens)))
    assert set(widths) == {16}
    # Under lex the basis holds y^10001 - z; every degree still fits 16 bits.
    assert 2**12 <= max(sum(m) for p in out[0] for m in p.terms) < 2**15
    _started_at_32(monkeypatch)
    assert out == [reduced_basis(gens)]


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_syzygies_over_a_moderate_degree_relation_fit_16_bit_fields(
    order, monkeypatch
):
    R = fc.ring("x,y,z", [MODERATE[0]], order=order)
    R.defining_basis()  # its table is not the run under test
    x, y, z = (fc.poly(v, R) for v in "xyz")
    columns = [(x, y), (z, R.zero()), (y, z)]
    matrix = fc.PolyMatrix(R, 2, columns)
    out = []

    def both():
        out.append(syzygy_entries(columns, 2, R))
        out.append(kernel_generators(matrix))

    widths = _requested_widths(monkeypatch, both)
    assert set(widths) == {16}
    assert all(out)
    _started_at_32(monkeypatch)
    assert out == [syzygy_entries(columns, 2, R), kernel_generators(matrix)]


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_a_span_table_makes_one_run_after_the_packing_cache_evicts(
    order, monkeypatch
):
    R = fc.ring("x,y,z", ["x*y - z^2"], order=order)
    x, y, z = (fc.poly(v, R) for v in "xyz")
    image_cols = [(x, y - z), (z, x + y)]
    ker = [(y**2 + x * z, x * z - y**2)]
    image = MembershipBasis(R, 2, image_cols)
    image_table = image._table
    modules._packing.cache_clear()  # as if 64 other packings came since
    runs = []
    engine = modules._module_buchberger

    def spied(gens, pk, *rest):
        runs.append(pk.width)
        return engine(gens, pk, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(modules, "_module_buchberger", spied)
        span = MembershipBasis(R, 2, [*image_cols, *ker])
    assert runs == [16]  # the span table's own run alone
    assert image._table is image_table
    assert span.reduced() == MembershipBasis(R, 2, ker + image_cols).reduced()


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_a_held_matrix_enters_a_run_at_its_width_after_the_packing_cache_evicts(
    order, monkeypatch
):
    """A segment is read as held when its width is the run's: the run's
    packing of the same ring need not be the object that packed it."""
    R = fc.ring("x,y,z,w", ["x*y - z^2"], order=order)
    p = lambda text: fc.poly(text, R)  # noqa: E731
    columns = [(p("x"), p("z")), (p("z"), p("y")), (p("w"), p("x + w")), (p("y*w"), p("0"))]
    made = syzygy_entries(columns, 2, R)
    modules._packing.cache_clear()  # as if 64 other packings came since
    unpacked = []
    real = modules._entries_from_vp

    def spied(vp, pk, sig, rank):
        unpacked.append(rank)
        return real(vp, pk, sig, rank)

    with monkeypatch.context() as patch:
        patch.setattr(modules, "_entries_from_vp", spied)
        table = MembershipBasis(R, made.nrows, made)
        kernel = kernel_generators(made)
    assert unpacked == []
    assert table.reduced() == MembershipBasis(R, made.nrows, list(made)).reduced()
    assert kernel == kernel_generators(fc.PolyMatrix(R, made.nrows, made))
