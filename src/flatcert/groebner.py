"""Ideals: multivariate division, reduced Groebner bases, ideal
membership, variable elimination, and ring-map graphs and kernels.

Groebner bases of ideals come from the module engine in `modules`, run
at rank 1 (a polynomial is the vector {(0, m): c}).  An `IdealHandle`
holds one rank-1 `modules.MembershipBasis` for its reduced basis (each
element a minimal lead plus its tail's normal form) and its normal
forms; `buchberger` returns the same reduced basis as a list.  `divide`
stays here as the public quotient-tracking division.  All computations
over a quotient ring happen in the ambient polynomial ring with the
defining generators adjoined; outputs are deterministic (S-pairs
selected by sugar, ties by lcm degree and then generator index, bases
sorted by decreasing leading monomial).  A ring map's graph is built in
one place, `RingMap.graph`: `map_kernel` eliminates the target's
variables from it, and `flatness.graph_ideal` is the graph of a
morphism's pullback.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .poly import (
    ArgumentError,
    BLOCK,
    DimensionError,
    GREVLEX,
    LEX,
    Polynomial,
    PresentedRing,
    RingSignature,
    mono_divides,
    mono_mul,
    mono_quotient,
    tensor_with_renaming,
    transplant,
)
from .modules import MembershipBasis


def divide(
    f: Polynomial, divisors: Sequence[Polynomial]
) -> tuple[list[Polynomial], Polynomial]:
    """Division with remainder: f = sum(q[i]*divisors[i]) + r.

    Divisors are tried in list order (first match wins); no term of r is
    divisible by any divisor's leading term.
    """
    divisors = list(divisors)
    sig = f.sig
    for d in divisors:
        if d.sig != sig:
            raise DimensionError("divisor over a different signature")
        if d.is_zero():
            raise ArgumentError("zero divisor")
    key = sig.descending_key()
    lms = [d.leading_monomial() for d in divisors]
    lcs = [d.terms[m] for d, m in zip(divisors, lms)]
    work = dict(f.terms)
    rem: dict = {}
    quots: list[dict] = [{} for _ in divisors]
    while work:
        m = min(work, key=key)
        c = work[m]
        for i, lm in enumerate(lms):
            if mono_divides(lm, m):
                t = mono_quotient(m, lm)
                q = c / lcs[i]
                quots[i][t] = quots[i].get(t, 0) + q
                for m2, c2 in divisors[i].terms.items():
                    mm = mono_mul(t, m2)
                    nc = work.get(mm, 0) - q * c2
                    if nc:
                        work[mm] = nc
                    else:
                        work.pop(mm, None)
                break
        else:
            rem[m] = c
            del work[m]
    return (
        [Polynomial._raw(sig, {m: c for m, c in q.items() if c}) for q in quots],
        Polynomial._raw(sig, rem),
    )


def buchberger(generators: Iterable[Polynomial]) -> list[Polynomial]:
    """The reduced Groebner basis as a list: monic, sorted by decreasing
    leading monomial (see `reduced_basis`)."""
    return list(reduced_basis(generators))


def reduced_basis(generators: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis, sorted by decreasing leading
    monomial: monic elements, no term divisible by another leading term.
    Generators over different signatures raise `DimensionError`."""
    polys = [g for g in generators if g.terms]
    if not polys:
        return ()
    return IdealHandle(PresentedRing(polys[0].sig), polys).groebner_basis()


class IdealHandle:
    """An ideal of a presented ring with one Groebner table: a rank-1
    `modules.MembershipBasis` of <generators> + <ring defining generators>
    in the ambient polynomial ring, built at most once, on first use.
    """

    __slots__ = ("ring", "generators", "_table", "_basis", "__weakref__")

    def __init__(self, ring: PresentedRing, generators: Iterable[Polynomial]):
        gens = tuple(generators)
        for g in gens:
            if g.sig != ring.signature:
                raise DimensionError("generator over a different signature")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("IdealHandle is immutable")

    def _groebner_table(self) -> MembershipBasis:
        if self._table is None:
            table = MembershipBasis(self.ring, 1, [(g,) for g in self.generators])
            object.__setattr__(self, "_table", table)
        return self._table

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis, sorted by decreasing leading
        monomial (cached)."""
        if self._basis is None:
            basis = tuple(e[0] for e in self._groebner_table().reduced())
            object.__setattr__(self, "_basis", basis)
        return self._basis

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The remainder of f on division by the reduced basis."""
        if f.sig != self.ring.signature:
            raise DimensionError("polynomial over a different signature")
        if not f.terms:
            return f
        return self._groebner_table().normal_form((f,))[0]

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def is_proper(self) -> bool:
        return not self.contains(self.ring.one())

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdealHandle):
            return NotImplemented
        return self.ring == other.ring and self.groebner_basis() == other.groebner_basis()

    __hash__ = None

    def __str__(self) -> str:
        return f"ideal({', '.join(str(g) for g in self.generators) or '0'})"

    def __repr__(self) -> str:
        return f"IdealHandle({self})"


def eliminate(ideal: IdealHandle, drop: Iterable[str]) -> IdealHandle:
    """Generators of (ideal + defining ideal) intersected with the subring
    omitting the dropped variables, computed with a block order."""
    drop_set = set(drop)
    sig = ideal.ring.signature
    unknown = drop_set - set(sig.variables)
    if unknown:
        raise ArgumentError(f"cannot drop unknown variables {sorted(unknown)}")
    if not drop_set:
        return IdealHandle(ideal.ring, ideal.generators)
    dropped = [v for v in sig.variables if v in drop_set]
    kept = [v for v in sig.variables if v not in drop_set]
    esig = RingSignature(tuple(dropped + kept), BLOCK, block=len(dropped))
    gens = [transplant(g, esig) for g in ideal.generators + ideal.ring.defining]
    basis = reduced_basis(gens)
    k = len(dropped)
    out_order = LEX if sig.order == LEX else GREVLEX
    osig = RingSignature(tuple(kept), out_order)
    result = [
        transplant(b, osig)
        for b in basis
        if all(m[:k] == (0,) * k for m in b.terms)
    ]
    return IdealHandle(PresentedRing(osig), result)


class RingMap:
    """A QQ-algebra map source -> target, given by images of the source
    variables; well-definedness on the source's defining ideal is checked
    eagerly at construction."""

    __slots__ = ("source", "target", "images")

    def __init__(
        self,
        source: PresentedRing,
        target: PresentedRing,
        images: Sequence[Polynomial],
    ):
        images = tuple(images)
        if len(images) != source.signature.nvars:
            raise DimensionError(
                f"expected {source.signature.nvars} images, got {len(images)}"
            )
        for im in images:
            if im.sig != target.signature:
                raise DimensionError("image over a different signature")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)
        for p in source.defining:
            if not target.reduce(self._substitute(p)).is_zero():
                raise ArgumentError(
                    f"map does not kill the defining relation {p}"
                )

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RingMap is immutable")

    def _substitute(self, f: Polynomial) -> Polynomial:
        out = Polynomial.zero(self.target.signature)
        for m, c in f.terms.items():
            term = Polynomial.constant(self.target.signature, c)
            for i, e in enumerate(m):
                if e:
                    term = term * self.images[i] ** e
            out = out + term
        return out

    def apply(self, f: Polynomial) -> Polynomial:
        """The image of f, reduced modulo the target's defining ideal."""
        if f.sig != self.source.signature:
            raise DimensionError("polynomial over a different signature")
        return self.target.reduce(self._substitute(f))

    def image(self) -> PresentedRing:
        """The image ring: the source's variables modulo the kernel."""
        return PresentedRing(self.source.signature, map_kernel(self).generators)

    def graph(self) -> IdealHandle:
        """The ideal of the graph in source tensor target (the product
        and renaming of `tensor_with_renaming`, source first): one
        generator s - F(s) per source variable s."""
        product, rename_s, rename_t = tensor_with_renaming(self.source, self.target)
        sig = product.signature
        gens = [
            Polynomial.variable(sig, rename_s[s]) - transplant(img, sig, rename_t)
            for s, img in zip(self.source.signature.variables, self.images)
        ]
        return IdealHandle(product, gens)

    def __str__(self) -> str:
        imgs = ", ".join(str(p) for p in self.images)
        return f"map {self.source} -> {self.target}: {{{imgs}}}"

    def __repr__(self) -> str:
        return f"RingMap({self})"


def map_kernel(F: RingMap) -> IdealHandle:
    """The kernel ideal of F, as an ideal of F.source: the graph
    (`RingMap.graph`) with the target's variables, the product's last
    ones, eliminated.  The source's relations, which the graph's ring
    carries, lie in the kernel already."""
    graph = F.graph()
    sig = F.source.signature
    drop = graph.ring.signature.variables[sig.nvars:]
    # With nothing to drop, `eliminate` hands the generators back as given.
    kernel = eliminate(graph, drop).generators if drop else graph.groebner_basis()
    # The kept variables are the source's, in order: rename by position.
    return IdealHandle(F.source, [Polynomial._raw(sig, g.terms) for g in kernel])
