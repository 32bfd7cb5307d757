"""The package's public surface: the exported names, and the entry points
that README names."""

import re
from pathlib import Path

import pytest

import flatcert as fc

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "AffineMorphism", "AlgebraError", "ArgumentError", "BLOCK", "ChainComplex",
    "DimensionError", "FlatnessVerdict", "GREVLEX", "IdealHandle", "LEX",
    "MembershipBasis", "ModuleElement", "Monomial", "ParseError", "PointSpec",
    "PolyMatrix", "Polynomial", "PresentedModule", "PresentedRing", "RingMap",
    "RingSignature", "ScriptReport", "SubmodulePresentation", "TorReport",
    "as_presented_module", "compare_monomials", "divide", "eliminate",
    "fibered_product_ideal", "flat_at_point", "free_resolution",
    "fresh_name", "graph_ideal", "homology_witnesses", "ideal",
    "invariant_presentation", "kernel_generators", "koszul", "map_kernel",
    "module_reduced_gb", "mono_degree", "mono_divides", "mono_lcm",
    "mono_mul", "mono_quotient", "parse_polynomial", "parse_script", "poly",
    "pretty_script", "reduced_basis", "ring", "run_script", "syzygy_matrix",
    "tensor_with_renaming", "tor", "transplant", "trim_generators",
]


def test_all_is_pinned():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 57
    assert fc.__all__ == PUBLIC


def _key_entry_points():
    """The backticked names of README's "Key entry points" sentence."""
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"Key entry points:(.*?)\.\s", text, re.S).group(1)
    return re.findall(r"`([A-Za-z_][\w.]*)`", sentence)


def test_readme_entry_points_resolve():
    names = _key_entry_points()
    assert len(names) >= 10
    for name in names:
        obj = fc
        for part in name.split("."):
            assert hasattr(obj, part), name
            obj = getattr(obj, part)


def test_membership_tables_take_no_base():
    """README's API note: a table is built from its own columns alone, and
    the table of old plus new columns is one table of all of them."""
    R = fc.ring("x,y", ["x*y"])
    x, y = fc.poly("x", R), fc.poly("y", R)
    old = fc.MembershipBasis(R, 1, [(x,)])
    with pytest.raises(TypeError):
        fc.MembershipBasis(R, 1, [(y,)], base=old)
    both = fc.MembershipBasis(R, 1, [(x,), (y,)])
    assert both.contains((x + y,)) and not old.contains((y,))
