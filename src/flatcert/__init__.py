"""flatcert: an exact commutative-algebra kernel over QQ that certifies
flatness of ideals and modules via Groebner bases, syzygies, free
resolutions, and Tor, plus a small script language and CLI.

`import flatcert` loads only the Groebner core: the submodules `poly`,
`record`, `parse`, `groebner` and `modules`.  The public names of
`homology`, `flatness` and `script` load with their submodule on first
use (PEP 562): `flatcert.tor` and `from flatcert import tor` work as
ever, and a caller that never asks for them never compiles those
submodules."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from types import ModuleType

_NOT_EXPORTED = set(globals())

from .poly import (
    AlgebraError,
    ArgumentError,
    BLOCK,
    DimensionError,
    GREVLEX,
    LEX,
    Monomial,
    Polynomial,
    PresentedRing,
    RingSignature,
    compare_monomials,
    fresh_name,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quotient,
    transplant,
)
from .parse import ParseError, parse_polynomial
from .groebner import (
    IdealHandle,
    RingMap,
    divide,
    eliminate,
    map_kernel,
    reduced_basis,
)
from .modules import (
    MembershipBasis,
    ModuleElement,
    PolyMatrix,
    SubmodulePresentation,
    kernel_generators,
    module_reduced_gb,
    syzygy_matrix,
)

# The public names loaded on first use, by the submodule that defines them.
_LAZY = {
    **dict.fromkeys(
        (
            "ChainComplex",
            "PresentedModule",
            "TorReport",
            "as_presented_module",
            "free_resolution",
            "homology_witnesses",
            "koszul",
            "tor",
        ),
        "homology",
    ),
    **dict.fromkeys(
        (
            "AffineMorphism",
            "FlatnessVerdict",
            "PointSpec",
            "fibered_product_ideal",
            "flat_at_point",
            "graph_ideal",
            "invariant_presentation",
            "tensor_with_renaming",
            "trim_generators",
        ),
        "flatness",
    ),
    **dict.fromkeys(
        ("ScriptReport", "parse_script", "pretty_script", "run_script"), "script"
    ),
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{submodule}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


def ring(
    variables: str | Sequence[str],
    defining: Iterable[str | Polynomial] = (),
    order: str = GREVLEX,
) -> PresentedRing:
    """Convenience constructor: ring("x,y,z", ["x*y - z^2"])."""
    if isinstance(variables, str):
        names = tuple(v.strip() for v in variables.split(",") if v.strip())
    else:
        names = tuple(variables)
    sig = RingSignature(names, order)
    rels = [
        parse_polynomial(p, sig) if isinstance(p, str) else p for p in defining
    ]
    return PresentedRing(sig, rels)


def poly(text: str | Polynomial, R: PresentedRing) -> Polynomial:
    """Convenience constructor: poly("x*y - z^2", R)."""
    if isinstance(text, Polynomial):
        return text
    return parse_polynomial(text, R.signature)


def ideal(R: PresentedRing, *gens: str | Polynomial) -> IdealHandle:
    """Convenience constructor: ideal(R, "x - u", "z - u*v")."""
    return IdealHandle(R, [poly(g, R) for g in gens])


__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_")
        and name not in _NOT_EXPORTED
        and not isinstance(value, ModuleType)
    ]
    + list(_LAZY)
)
