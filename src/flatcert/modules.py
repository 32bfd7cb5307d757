"""Vectors of polynomials, module Groebner bases, and syzygies.

This is the package's one Buchberger engine: `groebner` runs ideals
through it at rank 1.  Module terms are (position, monomial) pairs
compared position-over-term: a lower position index dominates, ties are
broken by the ring's monomial order.  Syzygies are computed by
Schreyer-style tracked elimination: each input column is augmented with a
unit tracker in a trailing block of positions, relation columns (defining
generators of a quotient ring, and any caller-supplied relations) enter
untracked, and basis elements whose terms all lie in the tracker block
project onto syzygy generators.

Every normal form runs through `_vp_normal_form`: it keys each term
once, with the ring's descending key, when the term enters the work set,
and takes the top term off a heap.  `MembershipBasis` is the one
Groebner table per generator set: it gives normal forms and the reduced
basis, each element a minimal lead plus the normal form of its tail.
Ideals, and rings through their defining ideal, hold one at rank 1.
Only it and `syzygy_entries` run `_module_buchberger`; only the
quotient-tracking `groebner.divide` keeps a normal-form loop of its own.

A `VecPoly` coefficient is an `int` when it is integral and a `Fraction`
otherwise: integral coefficients enter as ints (`_small`), int products
and sums stay ints, and making an element monic divides through
`Fraction` only when its lead coefficient is not 1 or -1.  Every value
is the same as with `Fraction`s throughout.  `_entries_from_vp` is the
one exit: every coefficient leaves as a `Fraction`, and the empty
positions of a vector share one zero polynomial.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .poly import (
    ArgumentError,
    DimensionError,
    Monomial,
    Polynomial,
    PresentedRing,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quotient,
)

VecTerm = tuple[int, Monomial]
Coefficient = int | Fraction
VecPoly = dict[VecTerm, Coefficient]
Entries = tuple[Polynomial, ...]


def _column(
    ring: PresentedRing, entries: Iterable[Polynomial], rank: int | None = None
) -> Entries:
    """`entries` as a tuple, checked to have length `rank` (when given)
    and every entry over the ring's signature."""
    entries = tuple(entries)
    if rank is not None and len(entries) != rank:
        raise DimensionError(f"vector of length {len(entries)}, expected {rank}")
    sig = ring.signature
    for e in entries:
        # Entries mostly share the ring's signature object; `!=` is slow.
        if e.sig is not sig and e.sig != sig:
            raise DimensionError("entry over a different signature")
    return entries


class ModuleElement:
    """An element of ring^n, stored as a tuple of polynomial entries."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: PresentedRing, entries: Iterable[Polynomial]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", _column(ring, entries))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ModuleElement is immutable")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self.ring == other.ring and self.entries == other.entries

    __hash__ = None

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"

    def __repr__(self) -> str:
        return f"ModuleElement{self}"


class PolyMatrix:
    """A matrix over a presented ring, stored by columns."""

    __slots__ = ("ring", "nrows", "columns")

    def __init__(
        self,
        ring: PresentedRing,
        nrows: int,
        columns: Iterable[Sequence[Polynomial]] = (),
    ):
        if nrows < 0:
            raise ArgumentError("negative row count")
        cols = tuple(_column(ring, col, nrows) for col in columns)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "columns", cols)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PolyMatrix is immutable")

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def apply(self, vector: Sequence[Polynomial]) -> Entries:
        """Matrix times column vector (length ncols), unreduced."""
        if len(vector) != self.ncols:
            raise DimensionError("vector length does not match column count")
        zero = self.ring.zero()
        out = [zero] * self.nrows
        for col, v in zip(self.columns, vector):
            if v.is_zero():
                continue
            for i, e in enumerate(col):
                if not e.is_zero():
                    out[i] = out[i] + e * v
        return tuple(out)

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """self * other."""
        if other.nrows != self.ncols:
            raise DimensionError("inner dimensions do not match")
        return PolyMatrix(
            self.ring, self.nrows, [self.apply(c) for c in other.columns]
        )

    def is_zero_in_ring(self) -> bool:
        """True when every entry reduces to zero in the presented ring."""
        return all(
            self.ring.reduce(e).is_zero() for col in self.columns for e in col
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nrows == other.nrows
            and self.columns == other.columns
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"PolyMatrix({self.nrows}x{self.ncols})"


def _descending_vkey(sig) -> Callable[[VecTerm], tuple]:
    """Sort key that descends with the position-over-term order: the
    smallest key belongs to the greatest term."""
    dk = sig.descending_key()

    def vk(t: VecTerm) -> tuple:
        return (t[0], dk(t[1]))

    return vk


def _small(c: Coefficient) -> Coefficient:
    """An integral coefficient as an int, any other unchanged."""
    return c.numerator if c.denominator == 1 else c


def _vp_from_entries(entries: Sequence[Polynomial]) -> VecPoly:
    vp: VecPoly = {}
    for i, e in enumerate(entries):
        for m, c in e.terms.items():
            vp[(i, m)] = _small(c)
    return vp


def _entries_from_vp(vp: VecPoly, sig, rank: int) -> Entries:
    """The engine's one exit: every coefficient leaves as a `Fraction`,
    and the empty positions share one zero polynomial (polynomials are
    immutable)."""
    split: list[dict | None] = [None] * rank
    for (i, m), c in vp.items():
        d = split[i]
        if d is None:
            d = split[i] = {}
        d[m] = c if type(c) is Fraction else Fraction(c)
    zero = Polynomial._raw(sig, {})
    return tuple(zero if d is None else Polynomial._raw(sig, d) for d in split)


def _vp_normal_form(
    vp: VecPoly,
    basis: list[VecPoly],
    leads: list[VecTerm],
    buckets: dict[int, list[int]],
    dk: Callable[[Monomial], tuple],
) -> VecPoly:
    """Full normal form against a monic basis; first match by insertion
    order within the lead position's bucket.

    The top term comes off a heap of (position, descending key, term)
    entries, whose term is the work set's own key.  An entry is pushed
    when its term enters the work set, so each key is built once.  A term
    that cancels stays in the work set with coefficient 0 and is skipped
    when popped, so no term is ever pushed twice.  A reduction step only
    adds terms below the one it removes, so nothing is pushed above the
    current top."""
    work = dict(vp)
    heap = [(t[0], dk(t[1]), t) for t in work]
    heapq.heapify(heap)
    rem: VecPoly = {}
    while heap:
        pos, _, t = heapq.heappop(heap)
        m = t[1]
        c = work.pop(t)
        if not c:
            continue
        hit = -1
        for k in buckets.get(pos, ()):
            if mono_divides(leads[k][1], m):
                hit = k
                break
        if hit < 0:
            rem[t] = c
            continue
        q = mono_quotient(m, leads[hit][1])
        for (p2, m2), c2 in basis[hit].items():
            mm = mono_mul(q, m2)
            tt = (p2, mm)
            old = work.get(tt)
            if old is not None:
                work[tt] = old - c * c2
            elif tt != t:  # the monic lead of the reducer cancels t exactly
                work[tt] = -c * c2
                heapq.heappush(heap, (p2, dk(mm), tt))
    return rem


def _module_buchberger(
    gens: Iterable[VecPoly], sig, rank: int
) -> tuple[list[VecPoly], list[VecTerm], dict[int, list[int]]]:
    """Monic module Groebner basis (position-over-term order).

    S-pairs only arise between elements with the same leading position;
    the chain criterion applies there, and the coprimality criterion only
    when the ambient rank is 1 (it is invalid for genuine vectors).
    """
    dk = sig.descending_key()
    vk = _descending_vkey(sig)
    basis: list[VecPoly] = []
    leads: list[VecTerm] = []
    buckets: dict[int, list[int]] = {}
    heap: list[tuple[int, int, int]] = []
    pending: set[tuple[int, int]] = set()

    def push(i: int, j: int) -> None:
        lcm = mono_lcm(leads[i][1], leads[j][1])
        heapq.heappush(heap, (mono_degree(lcm), i, j))
        pending.add((i, j))

    def add(vp: VecPoly) -> None:
        lt = min(vp, key=vk)
        c = vp[lt]
        if c == -1:
            vp = {t: -v for t, v in vp.items()}
        elif c != 1:
            vp = {t: _small(Fraction(v, c)) for t, v in vp.items()}
        idx = len(basis)
        basis.append(vp)
        leads.append(lt)
        bucket = buckets.setdefault(lt[0], [])
        for k in bucket:
            push(k, idx)
        bucket.append(idx)

    for vp in gens:
        if vp:
            add(dict(vp))
    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        pos = leads[i][0]
        mi, mj = leads[i][1], leads[j][1]
        lcm = mono_lcm(mi, mj)
        if rank == 1 and lcm == mono_mul(mi, mj):
            continue
        skip = False
        for k in buckets[pos]:
            if k in (i, j) or not mono_divides(leads[k][1], lcm):
                continue
            if (min(i, k), max(i, k)) not in pending and (
                min(j, k),
                max(j, k),
            ) not in pending:
                skip = True
                break
        if skip:
            continue
        qi = mono_quotient(lcm, mi)
        qj = mono_quotient(lcm, mj)
        s: VecPoly = {}
        for (p, m), c in basis[i].items():
            s[(p, mono_mul(qi, m))] = c
        for (p, m), c in basis[j].items():
            t = (p, mono_mul(qj, m))
            nc = s.get(t, 0) - c
            if nc:
                s[t] = nc
            else:
                s.pop(t, None)
        r = _vp_normal_form(s, basis, leads, buckets, dk)
        if r:
            add(r)
    return basis, leads, buckets


def _minimal_leads(
    pairs: Iterable[tuple[VecPoly, VecTerm]], vk: Callable[[VecTerm], tuple]
) -> list[tuple[VecPoly, VecTerm]]:
    """The (element, lead) pairs whose lead no other kept lead divides,
    by decreasing lead: the scan runs by ascending lead, ties in input
    order (reverse sorts are stable), and the kept leads are distinct."""
    kept: list[tuple[VecPoly, VecTerm]] = []
    for vp, lt in sorted(pairs, key=lambda p: vk(p[1]), reverse=True):
        pos, m = lt
        if not any(p == pos and mono_divides(lm, m) for _, (p, lm) in kept):
            kept.append((vp, lt))
    kept.reverse()
    return kept


def _defining_vps(ring: PresentedRing, rank: int) -> list[VecPoly]:
    out = []
    for q in ring.defining:
        for i in range(rank):
            out.append({(i, m): _small(c) for m, c in q.terms.items()})
    return out


class SubmodulePresentation:
    """A finitely generated submodule of ring^ambient_rank, given by its
    generator vectors."""

    __slots__ = ("ring", "ambient_rank", "generators", "__weakref__")

    def __init__(
        self,
        ring: PresentedRing,
        ambient_rank: int,
        generators: Iterable[ModuleElement | Sequence[Polynomial]],
    ):
        if ambient_rank < 0:
            raise ArgumentError("negative ambient rank")
        gens = []
        for g in generators:
            entries = g.entries if isinstance(g, ModuleElement) else g
            gens.append(ModuleElement(ring, _column(ring, entries, ambient_rank)))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "generators", tuple(gens))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("SubmodulePresentation is immutable")

    def __str__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"submodule of R^{self.ambient_rank} generated by {gens or '0'}"


def module_reduced_gb(sub: SubmodulePresentation) -> list[ModuleElement]:
    """Reduced module Groebner basis; over a quotient ring the defining
    generators times each standard basis vector are adjoined before
    computing, and elements of that defining submodule (every entry zero
    in the ring) are filtered from the reported basis."""
    ring = sub.ring
    table = MembershipBasis(
        ring, sub.ambient_rank, [g.entries for g in sub.generators]
    )
    return [
        ModuleElement(ring, entries)
        for entries in table.reduced()
        if any(not ring.reduce(e).is_zero() for e in entries)
    ]


class MembershipBasis:
    """The Groebner basis of given columns, defining generators adjoined
    in every coordinate: normal forms, membership and the reduced basis.

    A full normal form does not depend on which Groebner basis it is taken
    against, so one table serves every question about one generator set."""

    __slots__ = ("ring", "rank", "_basis", "_leads", "_buckets", "_dk", "_reduced")

    def __init__(
        self,
        ring: PresentedRing,
        rank: int,
        columns: Iterable[Sequence[Polynomial]],
    ):
        sig = ring.signature
        gens = [_vp_from_entries(_column(ring, c, rank)) for c in columns]
        gens += _defining_vps(ring, rank)
        basis, leads, buckets = _module_buchberger(gens, sig, rank)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_leads", leads)
        object.__setattr__(self, "_buckets", buckets)
        object.__setattr__(self, "_dk", sig.descending_key())
        object.__setattr__(self, "_reduced", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MembershipBasis is immutable")

    def normal_form(self, entries: Sequence[Polynomial]) -> Entries:
        entries = _column(self.ring, entries, self.rank)
        vp = _vp_from_entries(entries)
        nf = _vp_normal_form(vp, self._basis, self._leads, self._buckets, self._dk)
        return _entries_from_vp(nf, self.ring.signature, self.rank)

    def contains(self, entries: Sequence[Polynomial]) -> bool:
        return all(e.is_zero() for e in self.normal_form(entries))

    def reduced(self) -> tuple[Entries, ...]:
        """The unique reduced Groebner basis, as entry tuples sorted by
        decreasing lead term (computed once).  Its element with minimal
        lead L is L plus the normal form of the tail of a table element
        with lead L: table elements are monic, and the normal form, unique
        against any Groebner basis, only has terms below L."""
        if self._reduced is None:
            sig = self.ring.signature
            vk = _descending_vkey(sig)
            table = (self._basis, self._leads, self._buckets, self._dk)
            reduced = []
            for vp, lt in _minimal_leads(zip(self._basis, self._leads), vk):
                tail = dict(vp)
                element = {lt: tail.pop(lt)}
                element.update(_vp_normal_form(tail, *table))
                reduced.append(_entries_from_vp(element, sig, self.rank))
            object.__setattr__(self, "_reduced", tuple(reduced))
        return self._reduced


def syzygy_entries(
    columns: Sequence[Entries],
    nrows: int,
    ring: PresentedRing,
    extra_relations: Sequence[Entries] = (),
) -> list[Entries]:
    """Generators of the syzygy module of the given columns over `ring`,
    relative to the span of `extra_relations` (and the defining
    generators in every coordinate)."""
    m = len(columns)
    if m == 0:
        return []
    sig = ring.signature
    one = (0,) * sig.nvars
    gens: list[VecPoly] = []
    for j, col in enumerate(columns):
        vp = _vp_from_entries(col)
        vp[(nrows + j, one)] = 1
        gens.append(vp)
    for col in extra_relations:
        gens.append(_vp_from_entries(col))
    gens += _defining_vps(ring, nrows)
    basis, leads, _ = _module_buchberger(gens, sig, nrows + m)
    # The tracker block is ordered below every head position, so a lead in
    # the tracker block means the whole element lies there.
    kept = _minimal_leads(
        ((vp, lt) for vp, lt in zip(basis, leads) if lt[0] >= nrows),
        _descending_vkey(sig),
    )
    out: list[Entries] = []
    for vp, _ in kept:
        shifted = {(p - nrows, mono): c for (p, mono), c in vp.items()}
        entries = _entries_from_vp(shifted, sig, m)
        entries = tuple(ring.reduce(e) if e.terms else e for e in entries)
        if any(not e.is_zero() for e in entries):
            out.append(entries)
    return out


def syzygy_matrix(matrix: PolyMatrix) -> PolyMatrix:
    """Columns generating the full syzygy module of matrix's columns; over
    a quotient ring, syzygies are taken modulo the defining generators in
    every coordinate."""
    if matrix.ncols == 0:
        raise ArgumentError("syzygies of an empty column list")
    cols = syzygy_entries(matrix.columns, matrix.nrows, matrix.ring)
    return PolyMatrix(matrix.ring, matrix.ncols, cols)


def kernel_generators(
    matrix: PolyMatrix, extra_relations: Sequence[Entries] = ()
) -> list[Entries]:
    """Generators of the kernel of the map defined by `matrix`, relative
    to the submodule of the target spanned by `extra_relations` (plus the
    defining generators in every coordinate)."""
    return syzygy_entries(
        matrix.columns, matrix.nrows, matrix.ring, extra_relations
    )
