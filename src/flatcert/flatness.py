"""Geometry-flavored constructions over affine coordinate rings:
invariant-subalgebra presentations, graph and fibered-product ideals of
morphisms, and the Tor_1 flatness probe at a point.

An affine morphism X -> Y is carried by its coordinate pullback, a
RingMap from the coordinate ring of Y to the coordinate ring of X; its
graph is the pullback's `RingMap.graph`.  Every tensor product of rings
is `tensor_with_renaming` (from `poly`): the product ring with the two
renamings of its factors' variables.
"""

from __future__ import annotations

from collections.abc import Sequence

from .groebner import IdealHandle, RingMap
from .homology import ModuleLike, PresentedModule, TorReport, tor
from .poly import (
    ArgumentError,
    DimensionError,
    Polynomial,
    PresentedRing,
    RingSignature,
    tensor_with_renaming,
    transplant,
)
from .record import record


@record
class AffineMorphism:
    """A morphism of affine schemes, stored as its coordinate pullback
    (a map from the target's coordinate ring to the source's)."""

    pullback: RingMap

    @property
    def source_ring(self) -> PresentedRing:
        """Coordinate ring of the geometric source."""
        return self.pullback.target

    @property
    def target_ring(self) -> PresentedRing:
        """Coordinate ring of the geometric target (the base)."""
        return self.pullback.source

    def __str__(self) -> str:
        return f"morphism with pullback {self.pullback}"


def graph_ideal(f: AffineMorphism) -> IdealHandle:
    """The ideal of the graph of f inside target x source: one generator
    y_j - pullback(y_j) per target variable (`RingMap.graph`)."""
    return f.pullback.graph()


def trim_generators(ring: PresentedRing, gens: Sequence[Polynomial]) -> list[Polynomial]:
    """Drop any generator that reduces to zero modulo the others (working
    in the presented ring), scanning from the last generator backwards so
    earlier generators are preferred."""
    kept = [g for g in gens if not ring.reduce(g).is_zero()]
    i = len(kept) - 1
    while i >= 0:
        others = kept[:i] + kept[i + 1 :]
        if others and IdealHandle(ring, others).contains(kept[i]):
            kept.pop(i)
        i -= 1
    return kept


def fibered_product_ideal(f: AffineMorphism, g: AffineMorphism) -> IdealHandle:
    """The ideal cutting the fibered product of f and g inside the product
    of their sources: pullback_f(b) - pullback_g(b) for each base variable
    b, with the generator list trimmed of redundant members."""
    if f.target_ring != g.target_ring:
        raise ArgumentError("morphisms have different targets")
    product, rename_1, rename_2 = tensor_with_renaming(
        f.source_ring, g.source_ring
    )
    sig = product.signature
    gens = []
    for j in range(f.target_ring.signature.nvars):
        lhs = transplant(f.pullback.images[j], sig, rename_1)
        rhs = transplant(g.pullback.images[j], sig, rename_2)
        gens.append(lhs - rhs)
    return IdealHandle(product, trim_generators(product, gens))


def invariant_presentation(
    gens: Sequence[Polynomial],
    names: Sequence[str],
    ambient: PresentedRing | None = None,
) -> tuple[PresentedRing, RingMap]:
    """Present the subalgebra QQ[gens] of the ambient ring as
    QQ[names]/(kernel of names -> gens), returning the presented ring and
    the inclusion map."""
    gens = tuple(gens)
    names = tuple(names)
    if len(gens) != len(names):
        raise DimensionError("one name per generator is required")
    if not gens:
        raise ArgumentError("at least one generator is required")
    if ambient is None:
        ambient = PresentedRing(gens[0].sig)
    presented = RingMap(PresentedRing(RingSignature(names)), ambient, gens).image()
    return presented, RingMap(presented, ambient, gens)


@record
class PointSpec:
    """A point of Spec(ring), given by a proper ideal of the ring whose
    reduced basis, that of I + D in the ring's polynomial ring (D the
    defining ideal), has degree at most 1.  The quotient by I + D is then
    a polynomial ring, so I is prime.  Any other ideal is refused: Tor_1
    against R/I vanishing says nothing of flatness at the points of V(I)
    when I is not prime, as for (x*y) in QQ[x,y]."""

    ring: PresentedRing
    point_ideal: IdealHandle

    def __post_init__(self) -> None:
        if self.point_ideal.ring != self.ring:
            raise DimensionError("point ideal over a different ring")
        if not self.point_ideal.is_proper():
            raise ArgumentError("point ideal is improper (contains 1)")
        basis = self.point_ideal.groebner_basis()
        if any(sum(m) > 1 for g in basis for m in g.terms):
            raise ArgumentError(
                "point ideal is not a point (reduced basis of degree above 1)"
            )


def _used(polys: Sequence[Polynomial]) -> set[str]:
    """The variables that occur in `polys`."""
    return {v for q in polys for m in q.terms for v, e in zip(q.sig.variables, m) if e}


@record
class FlatnessVerdict:
    flat: bool
    tor_witness: TorReport

    def __str__(self) -> str:
        return "flat" if self.flat else f"not flat ({self.tor_witness})"


def flat_at_point(
    M: ModuleLike, p: PointSpec, along: RingMap | None = None
) -> FlatnessVerdict:
    """The local flatness probe: M is flat at p exactly when
    Tor_1(M, R/extended point ideal) vanishes.

    The point's ideal is extended into M's ring along the supplied map;
    without a map, the point's variables must name variables of M's ring
    and are extended by the inclusion map, which must be well defined:
    the base ring's defining relations must hold in M's ring, or the
    probe raises ArgumentError rather than answer over the wrong base.
    Without a map it also refuses when a relation of M's ring R ties the
    point's variables (the base's, or those the point uses) to others:
    R need not be flat over the base, and Tor over R could differ.
    """
    ring = M.ring
    pgens = p.point_ideal.generators
    if along is None:
        base_vars = p.ring.signature.variables
        if p.ring != ring:
            if not set(base_vars) <= set(ring.signature.variables):
                raise ArgumentError(
                    "point ideal does not live in the module's ring; supply a map"
                )
            along = RingMap(p.ring, ring, [ring.var(name) for name in base_vars])
        inside = set(base_vars) if p.ring != ring else _used(pgens)
        for q in ring.defining:
            if (used := _used((q,))) & inside and not used <= inside:
                raise ArgumentError(
                    f"relation {q} ties the point's variables to others;"
                    " the ring need not be flat over the point's base"
                )
    if along is None:
        # The point lives in M's ring, and PointSpec checked it is proper.
        ext = list(pgens)
    elif along.source != p.ring or along.target != ring:
        raise ArgumentError("extension map does not connect point to module")
    else:
        ext = [along.apply(q) for q in pgens]
        if not IdealHandle(ring, ext).is_proper():
            raise ArgumentError("extended point ideal is improper")
    fiber = PresentedModule.cyclic(ring, ext)
    report = tor(1, M, fiber)
    return FlatnessVerdict(report.is_zero, report)
