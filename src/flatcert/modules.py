"""Vectors of polynomials, module Groebner bases, and syzygies.

This is the package's one Buchberger engine: `groebner` runs ideals
through it at rank 1.  Module terms are (position, monomial) pairs
compared position-over-term: a lower position index dominates, ties are
broken by the ring's monomial order.  Syzygies are computed by
Schreyer-style tracked elimination: each input column is augmented with a
unit tracker in a trailing block of positions, relation columns (the
ring's reduced defining basis, first as in every run and carried in
every head coordinate, then any caller-supplied relations) enter
untracked, and basis elements whose terms all lie in the tracker block
project onto syzygy generators.  Every syzygy run is in generator mode:
an element that falls into the tracker block is collected and never
enters the basis, so no S-pair between two syzygies is reduced, nor
(as in tables) one between a ring relation and an element whose lead is
coprime to its lead.  `kernel_generators`, for callers that need only
the submodule, returns the collected syzygies, each reduced modulo the
ring by one packed normal form against the ring's reduced defining
basis.
`syzygy_entries`, which builds the resolution's differentials, enters
them, moved to positions 0..m-1, in a rank-m table, seeded as every
table is, in the same packed run; that table's reduced basis, less the
elements led by lt(g)*e_j for a ring basis element g (the ring's own
g*e_j), is the syzygy module's modulo the ring, unique for the order
whatever the order of the generators.  Either way the entries leave the
engine as normal forms, and syzygies that vanish in the ring never
leave.  So the engine has two kinds of run: tables and generator mode.

A syzygy basis records the order its columns are a reduced basis for
(`Order`: position-over-term for a table's).  Given such a matrix d,
`syzygy_entries` takes a Schreyer step instead (`_schreyer`): the
reduced basis of d's syzygies for the order d's leads induce, read off
a frame of lcm quotients (Schreyer 1980; La Scala and Stillman 1998),
each generator lifted and the lifts interreduced by normal forms, with
no Buchberger run.  It records that induced order in turn, so a
resolution takes the table route once, at its first basis, and Schreyer
steps after it.  Its terms are packed in an order of their own
(`_Induced`), which the one normal-form loop reads as it reads any
packing.  Each packing owns the one rule, a shift and a mask
(`bucket`), by which every reducer bucket is built and searched: a
term's position under `_Packing`, its basis vector (tie rank) under
`_Induced`, where F_k's basis vectors rank after F_(k-1)'s, so a
lift's F_k terms meet no reducer.  The same frame (`_frame`) bounds
the weighted degree of d's syzygies from below (`frame_floor`), for
weights that make d homogeneous, and since a step's leads are its
frame, a step's own floor is read off them before any lift: a step
capped below it lifts nothing above, and hands that floor back with it
(`capped_step`).
`column_degrees` reads a homogeneous column's degree off one term.

Inside the engine a term, a (position, monomial) pair, is one packed
int (`_Packing`, after Monagan and Pearce's packed exponent vectors): a
product is an addition, a quotient a subtraction, a divisibility test a
subtraction and a mask, and the int itself, with its degree fields
complemented (`t ^ neg`), is the order key.  Packing is one sum of
exponents times multipliers (each sets a variable's exponent field and
adds to its degree field), unpacking one `struct` read of the term's
bytes and one `itemgetter`: C-level work per term.  `_vp_from_entries`
and `_defining_vps` (each ring relation packed once per run, at position
0, for every position's bucket to hold) pack tuple monomials on the way
in, `_entries_from_vp` unpacks them on the way out (and `_Packing`
packs and unpacks an `Order`'s leads itself); no packed int leaves
this module, and everywhere else a monomial is a tuple.  Each engine run starts at
16-bit fields, or at the width its caller asks for, and when an input,
a product or an lcm outgrows a field (`_Overflow`), runs again at
double width (`_packed_run`).  Every widening is such a run: a query
that overflows a `MembershipBasis` rebuilds it at double width, and no
table reads another's packing.  So exponents of any size work, and no
value depends on the width.

A matrix the engine makes keeps its columns packed (`PolyMatrix`):
`syzygy_entries`, `kernel_generators`, `MembershipBasis.reduced_matrix`
and `.outside` hand their packed result, with its packing, to a matrix
that unpacks it through `_entries_from_vp` only when its `columns` are
first read (a `deferred` record).  Every engine run that takes a matrix
(`_syzygies`, a table's build, `MembershipBasis.spans` and `.outside`)
reads packed columns as they are held when they are at the run's width,
and unpacks and packs them otherwise.  A matrix projected to a fiber
ring (`PolyMatrix.projected`) is compacted at once: the dropped
variables' fields are cut out of its packed columns at their width
(`_Packing.compact`), and since every layout keeps the order of its
fields, that is the fiber ring's packing at that width.  So a
resolution and a Tor against a cyclic module pass from run to run
packed, and only what a caller reads is unpacked.

Every normal form runs through `_vp_normal_form`: its input, a fresh
dict from every caller, is its work set; it keys each term once, takes
the top term off a heap of bare keys, so a remainder comes out lead
first, searches the one bucket its packing's rule gives the term, and
reduces by tails, each element's (term, -coefficient) pairs
without its lead.  `MembershipBasis` is the one Groebner table per
generator set: it gives normal forms, membership (an empty packed normal
form, never unpacked) and the reduced basis (`_reduced`, which gives
syzygy bases too).  Every table enters the ring's reduced defining
basis first, once, as its relations, and then its own columns alone.
Ideals hold one at rank 1; a ring's is its defining ideal's, in the
polynomial ring.
Only it and `_syzygies`, behind both syzygy functions, run
`_module_buchberger`; only the quotient-tracking `groebner.divide` keeps
a normal-form loop of its own.

A `VecPoly` coefficient is an `int` when it is integral and a `Fraction`
otherwise: integral coefficients enter as ints (`_small`), int products
and sums stay ints, and making an element monic divides through
`Fraction` only when its lead coefficient is not 1 or -1.  Every value
is the same as with `Fraction`s throughout.  `_entries_from_vp` is the
one exit: every coefficient leaves as a `Fraction` (a small integer as a
shared one), the empty positions of a vector share one zero polynomial,
and a syzygy over a quotient ring is already reduced modulo the ring
when it gets there.  Both conversions skip zero entries, so they cost
what the terms do, not what the rank does.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import lru_cache, partial
from math import inf
from operator import mul
from struct import Struct

from .poly import (
    ArgumentError,
    DimensionError,
    GREVLEX,
    LEX,
    Monomial,
    Polynomial,
    PresentedRing,
    RingSignature,
    picker,
)
from .record import deferred, record

VecTerm = int  # a packed (position, monomial) pair, see `_Packing`
Coefficient = int | Fraction
VecPoly = dict[VecTerm, Coefficient]
Tail = tuple[tuple[VecTerm, Coefficient], ...]  # a monic element's, negated
Entries = tuple[Polynomial, ...]
Segment = tuple  # (packing, data): see `PolyMatrix`
# A free module's induced order, per basis vector e_p (a row of the
# matrix that holds it): (F_0 positions, total leads in F_0, tie ranks).
# Width-free: `_schreyer` packs it per run (`_Induced`).
Order = tuple[tuple[int, ...], tuple[Monomial, ...], tuple[int, ...]]


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


@record
class ModuleElement:
    """An element of ring^n, stored as a tuple of polynomial entries."""

    ring: PresentedRing
    entries: Entries

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _column(self.ring, self.entries))

    @staticmethod
    def _raw(ring: PresentedRing, entries: Entries) -> "ModuleElement":
        """An element from an entry tuple already over the ring's
        signature, such as a column the engine made: not checked again."""
        element = object.__new__(ModuleElement)
        object.__setattr__(element, "ring", ring)
        object.__setattr__(element, "entries", entries)
        return element

    @property
    def rank(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"

    def __repr__(self) -> str:
        return f"ModuleElement{self}"


@record
class PolyMatrix(Sequence):
    """A matrix over a presented ring, stored by columns: a sized sequence
    of its columns.

    A matrix the engine makes (`syzygy_entries`, `kernel_generators`,
    `MembershipBasis.reduced_matrix` and `.outside`), its projection to a fiber
    ring (`projected`) and a join (`beside`) keep their columns packed,
    in `_packed` segments, and unpack them only on the first public read
    of `columns` (an item or an iteration reads it too): it is a
    `deferred` record, `columns` its unset field.  `nrows`, `ncols` and
    `len` read no column.  Such a matrix equals, hashes, prints and
    answers like `PolyMatrix(ring, nrows, columns)`, and its columns are
    not checked again: only the public constructor runs `_column`.  A
    segment is (packing, data): vps packed at a packing of the matrix's
    ring, or (None, entry tuples).  An engine run that takes a matrix
    reads packed columns as they are held when they are at the run's
    width (`_segment_at`)."""

    ring: PresentedRing
    nrows: int
    columns: tuple[Entries, ...] = ()

    # A matrix built packed: its segments (not a field: no annotation).
    _packed = None
    # A syzygy basis the engine made: the order its columns are a reduced
    # basis for (an `Order`, not a field), which `_schreyer` reads.
    _order = None

    def __post_init__(self) -> None:
        if self.nrows < 0:
            raise ArgumentError("negative row count")
        cols = tuple(_column(self.ring, col, self.nrows) for col in self.columns)
        object.__setattr__(self, "columns", cols)

    def __len__(self) -> int:
        if self._packed is None:
            return len(self.columns)
        return sum(len(seg[1]) for seg in self._packed)

    def __getitem__(self, k):
        return self.columns[k]

    def __iter__(self):
        return iter(self.columns)

    @property
    def ncols(self) -> int:
        return len(self)

    def _segments(self) -> tuple[Segment, ...]:
        return self._packed or ((None, self.columns),)

    def _at(self, pk: _Packing) -> list[VecPoly]:
        """The columns packed at `pk`, the packing of this matrix's ring in
        the engine run that asks; callers must not change them."""
        sig, out = self.ring.signature, []
        for seg in self._segments():
            out += _segment_at(seg, self.nrows, pk, sig)
        return out

    def beside(self, other: "PolyMatrix") -> "PolyMatrix":
        """[self | other]: other's columns after this matrix's, kept as
        they are held, packed or not."""
        _check_shape(other, self.ring, self.nrows)
        return _packed_matrix(self.ring, self.nrows, self._segments() + other._segments())

    def projected(
        self, ring: PresentedRing, project: Callable[[Polynomial], Polynomial]
    ) -> "PolyMatrix":
        """This matrix over a fiber ring, `ring, project =
        self.ring.quotient(gens)`, with every entry projected at once.
        Packed columns stay packed: the dropped variables' fields are cut
        out of them at their own width (`_Packing.compact`), which gives
        the fiber ring's packing at that width, with no polynomial built;
        columns held as entry tuples are mapped by `project`."""
        sig, fiber = self.ring.signature, ring.signature
        kept = [sig.index(v) for v in fiber.variables]
        block = sum(i < sig.block for i in kept)
        if kept != sorted(kept) or fiber != RingSignature(fiber.variables, sig.order, block):
            raise ArgumentError("not a fiber ring of this matrix's ring")
        segments = []
        for pk, data in self._segments():
            if pk is None:
                segments.append((None, [tuple(map(project, col)) for col in data]))
            else:  # compacting never overflows: one run, at pk's width
                cut = pk.compact(data, set(kept))
                segments.append(_packed_run(ring, lambda fpk: (fpk, cut), pk.width))
        return _packed_matrix(ring, self.nrows, segments)

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

    def __repr__(self) -> str:
        return f"PolyMatrix({self.nrows}x{self.ncols})"


def _check_shape(matrix: PolyMatrix, ring: PresentedRing, nrows: int) -> None:
    if matrix.nrows != nrows or matrix.ring != ring:
        raise DimensionError("matrix over a different ring or row count")


def _packed_matrix(
    ring: PresentedRing, nrows: int, segments: Iterable[Segment], order=None
) -> PolyMatrix:
    """A matrix that holds its columns as segments, unchecked, and
    unpacks them on the first read of `columns`; `order`, when given, is
    the `Order` its columns are a reduced basis for."""
    return deferred(
        PolyMatrix, _unpacked, ring=ring, nrows=nrows, _packed=tuple(segments), _order=order
    )


def _unpacked(matrix: PolyMatrix) -> dict[str, tuple[Entries, ...]]:
    """The `columns` of a matrix built packed."""
    sig, n = matrix.ring.signature, matrix.nrows
    return {"columns": tuple(c for s in matrix._packed for c in _segment_columns(s, sig, n))}


def _segment_columns(segment: Segment, sig: RingSignature, nrows: int) -> list[Entries]:
    """A segment (pk, data) of the columns of a matrix over signature
    sig: vps packed at pk or, when pk is None, checked entry tuples.  Its
    columns, unpacked."""
    pk, data = segment
    return data if pk is None else [_entries_from_vp(vp, pk, sig, nrows) for vp in data]


def _segment_at(
    segment: Segment, nrows: int, pk: _Packing, sig: RingSignature
) -> list[VecPoly]:
    """A segment's columns packed at `pk`, the packing of the matrix's
    ring (signature `sig`) in the run that asks: packed columns at pk's
    width as they are held (one ring packs one way at each width), and
    any other columns unpacked and packed."""
    own, data = segment
    if own is not None and own.width == pk.width:
        return data
    return [_vp_from_entries(col, pk) for col in _segment_columns(segment, sig, nrows)]


class _Overflow(Exception):
    """A packed exponent or degree outgrew its field: rerun wider."""


def _overflow() -> bool:
    raise _Overflow  # where only an expression fits


class _Packing:
    """(position, monomial) pairs packed into single ints at one field
    width: the engine's terms.

    Each field is `width` bits wide, and its top bit is a guard that is
    clear in every stored term.  Besides one field per exponent there is
    one degree field per grevlex block of the order.  Most significant
    first, the fields are
      grevlex:  deg, e_n, ..., e_1;
      lex:      e_1, ..., e_n, deg;
      block:    deg_1, block 1 reversed, deg_2, block 2 reversed;
    and the position lies above them all.  Then for terms t, u and a
    monomial q (position 0):
      - t + q is the product, which overflowed if it sets a guard bit;
      - t - u is the quotient when u divides t;
      - u divides t, at t's position, exactly when
        ((t | guards) - u) & guards == guards;
      - `key(t)` = t ^ neg, t with its degree fields (under lex, every
        field) complemented, ascends as (position, `descending_key()`):
        the greatest term has the smallest key.  lex's degree field lies
        below every exponent, where it never decides;
      - `support(t)` = ((t & var_fields) + var_fields) & var_guards has
        the guard bit of each variable whose exponent in t is nonzero
        (var_fields holds `value` in each exponent field), so t and u
        are coprime, at any positions, exactly when
        support(t) & support(u) == 0.
    """

    __slots__ = ("width", "shift", "value", "guards", "neg", "var_shifts", "groups")
    __slots__ += ("mults", "mask", "nbytes", "fields", "pick")
    __slots__ += ("var_fields", "var_guards", "bucket")

    def __init__(self, order: str, block: int, nvars: int, width: int):
        # Least significant first: a variable's index, or the slice of
        # variables a degree field sums.
        if order == GREVLEX:
            fields = [*range(nvars), slice(0, nvars)]
        elif order == LEX:
            fields = [slice(0, nvars), *reversed(range(nvars))]
        else:
            fields = [*range(block, nvars), slice(block, nvars)]
            fields += [*range(block), slice(0, block)]
        value = (1 << (width - 1)) - 1
        shifts = {f: j * width for j, f in enumerate(fields) if isinstance(f, int)}
        self.width = width
        self.shift = len(fields) * width
        self.value = value
        self.guards = sum(1 << (j * width + width - 1) for j in range(len(fields)))
        self.var_shifts = [shifts[i] for i in range(nvars)]
        self.mults = [1 << s for s in self.var_shifts]
        self.groups = []
        self.neg = 0
        for j, f in enumerate(fields):
            if isinstance(f, slice):
                # The slice's exponent fields are adjacent, so `lcm` sums
                # them with one multiplication.
                count = f.stop - f.start
                low = min(self.var_shifts[f], default=0)
                span = (1 << (count * width)) - 1
                ones = sum(1 << (k * width) for k in range(count))
                top = max(count - 1, 0) * width
                self.groups.append((j * width, f, low, span, ones, top))
                for i in range(f.start, f.stop):
                    self.mults[i] += 1 << (j * width)
            if isinstance(f, slice) or order == LEX:
                self.neg |= value << (j * width)
        # `_entries_from_vp` reads all fields, most significant first.
        count, fmt = len(fields), {16: "H", 32: "I", 64: "Q"}.get(width)
        self.mask, self.nbytes = (1 << self.shift) - 1, -(-self.shift // 8)
        if fmt:
            self.fields = Struct(f">{count}{fmt}").unpack
        else:  # no struct format reads this width: shift each field out
            self.fields = lambda b: tuple(
                int.from_bytes(b, "big") >> j * width & value for j in range(count)[::-1]
            )
        self.pick = picker([count - 1 - s // width for s in self.var_shifts])
        self.var_fields = sum(value << s for s in self.var_shifts)
        self.var_guards = sum(1 << (s + width - 1) for s in self.var_shifts)
        self.bucket = (self.shift, -1)  # the position

    def pack(self, pos: int, m: Monomial) -> int:
        for group in self.groups:
            if sum(m[group[1]]) > self.value:
                raise _Overflow
        return (pos << self.shift) + sum(map(mul, m, self.mults))

    def key(self, t: int) -> int:
        return t ^ self.neg

    def packed(self, monomials: Iterable[Monomial]) -> list[int]:
        """Monomials packed at position 0: an `Order`'s leads, per run."""
        return [self.pack(0, m) for m in monomials]

    def monomial(self, t: int) -> Monomial:
        """The monomial of a packed term: an `Order`'s lead."""
        return self.pick(self.fields((t & self.mask).to_bytes(self.nbytes, "big")))

    def divides(self, u: int, t: int) -> bool:
        """Whether u divides t; both at one position."""
        return ((t | self.guards) - u) & self.guards == self.guards

    def support(self, t: int) -> int:
        """The guard bits of the variables that divide t."""
        return ((t & self.var_fields) + self.var_fields) & self.var_guards

    def degree(self, t: int) -> int:
        d = 0
        for group in self.groups:
            d += t >> group[0] & self.value
        return d

    def lcm(self, a: int, b: int) -> tuple[int, int]:
        """(degree, lcm) of two terms at one position: each field's larger
        value, picked by the guard bits of (a | guards) - b, and then each
        degree field set to the sum of its exponents.  That sum is below
        2**width (it is at most deg a + deg b), so summing by one
        multiplication carries nothing across fields."""
        width, value = self.width, self.value
        g = ((a | self.guards) - b) & self.guards
        t = b ^ ((a ^ b) & (g - (g >> (width - 1))))
        degree = 0
        for s, _, low, span, ones, top in self.groups:
            d = ((t >> low & span) * ones >> top) & ((1 << width) - 1)
            if d > value:
                raise _Overflow
            t += (d - (t >> s & value)) << s
            degree += d
        return degree, t

    def compact(self, vps: Iterable[VecPoly], keep: set[int]) -> list[VecPoly]:
        """vps projected to the ring of the variables in `keep`, at the
        packing of that ring (`PresentedRing.quotient`) at this width: a
        term in which another variable has a nonzero exponent is dropped,
        and those variables' fields are cut out of the others, each field
        above them shifted down.  Every layout keeps the order of the kept
        variables' fields and of the degree fields, and a kept term's
        degree fields sum kept exponents only, so the result is how the
        fiber ring packs the projected terms."""
        width = self.width
        dropped = sorted(s for i, s in enumerate(self.var_shifts) if i not in keep)
        drop = sum(((1 << width) - 1) << s for s in dropped)
        # (mask, shift): a run of kept fields and how far it moves down;
        # the last run holds the position too.
        runs, start = [], 0
        for down, s in enumerate(dropped):
            if s > start:
                runs.append(((1 << s) - (1 << start), down * width))
            start = s + width
        runs.append((-1 << start, len(dropped) * width))
        return [
            {sum((t & m) >> d for m, d in runs): c for t, c in vp.items() if not t & drop}
            for vp in vps
        ]


@lru_cache(maxsize=64)
def _packing(order: str, block: int, nvars: int, width: int) -> _Packing:
    return _Packing(order, block, nvars, width)


def _packed_run(ring: PresentedRing, run: Callable[[_Packing], object], width=16):
    """run(packing) over the ring's signature, first at `width` and again
    at double width each time a field overflows, in packing an input as
    in any product or lcm after it.  Each run packs its inputs before its
    Buchberger run, so an input that does not fit costs no engine work.
    Values never depend on the width, and a run that fits one width fits
    every wider one, so a rerun returns what a first run would."""
    sig = ring.signature
    while True:
        try:
            return run(_packing(sig.order, sig.block, sig.nvars, width))
        except _Overflow:
            width *= 2


class _Induced:
    """The terms of one resolution step packed in its induced (Schreyer)
    order, at a `_Packing`'s width: what `_schreyer` reduces in.

    A basis vector e of a free module F_k has a total lead L*E_P in F_0:
    the lead of the column of d_k it stands for, pushed down the
    resolution (F_0 is position-over-term, so there e_P is 1*E_P), and a
    tie rank r, its lead chain's rank (see `Order`).  The term m*e is,
    most significant first,
        P | m*L | r | R - r | m,
    with R = value, both monomials laid out as the ring's packing lays
    out a monomial, every field with its guard bit.  So
      - `key` (t ^ neg, both monomials' degree fields, under lex every
        exponent field, complemented) ascends as (P, m*L in the ring's
        order, r): the induced order, ties to the smaller rank.  The last
        block never decides: equal P, m*L and r mean one e and one m;
      - a term u divides a term t, in the engine's guard test, exactly
        when their rank fields are equal (r_u <= r_t and R - r_u <=
        R - r_t) and u's monomials divide t's; a ring relation, packed
        with zero rank fields and each monomial in both blocks
        (`monomial`), reduces every rank, as a relation at position 0
        reduces every position of a table;
      - t + monomial(q) is q*t, which overflowed if it sets a guard bit;
      - `bucket` reads the rank field r: a term meets only the reducers
        of its basis vector, with the relations in every bucket.
    """

    __slots__ = ("width", "mask", "value", "top", "shift", "guards", "neg", "bucket")

    def __init__(self, pk: _Packing):
        width, bits = pk.width, pk.shift
        self.width, self.mask, self.value = width, pk.mask, pk.value
        self.top = bits + 2 * width  # where the total monomial m*L starts
        self.shift = self.top + bits  # where the position starts
        ranks = (1 << (bits + width - 1)) | (1 << (bits + 2 * width - 1))
        self.guards = (pk.guards << self.top) | ranks | pk.guards
        self.neg = (pk.neg << self.top) | pk.neg
        self.bucket = (self.top - width, self.value)  # the tie rank

    def key(self, t: int) -> int:
        return t ^ self.neg

    def monomial(self, q: int) -> int:
        """A packed monomial (position 0) in both blocks: a multiplier."""
        return (q << self.top) + q

    def basis(self, pos: int, lead: int, rank: int) -> int:
        """1*e for a basis vector e of total lead `lead` (a packed
        monomial) at F_0 position `pos`, of tie rank `rank`."""
        if rank > self.value:
            raise _Overflow
        ranks = (rank << self.width) + self.value - rank
        ranks <<= self.top - 2 * self.width
        return (pos << self.shift) + (lead << self.top) + ranks

    def rank(self, t: int) -> int:
        return t >> (self.top - self.width) & self.value

    def lead(self, t: int) -> int:
        """The total monomial m*L of a term, packed as the ring packs it."""
        return t >> self.top & self.mask


def _small(c: Coefficient) -> Coefficient:
    """An integral coefficient as an int, any other unchanged."""
    return c.numerator if c.denominator == 1 else c


def _monic(vp: VecPoly, lt: VecTerm) -> VecPoly:
    """vp divided by its coefficient at lt (vp itself when that is 1)."""
    c = vp[lt]
    if c == -1:
        return {t: -v for t, v in vp.items()}
    if c != 1:
        return {t: _small(Fraction(v, c)) for t, v in vp.items()}
    return vp


def _vp_from_entries(entries: Sequence[Polynomial], pk: _Packing) -> VecPoly:
    pack = pk.pack
    vp: VecPoly = {}
    for i, e in enumerate(entries):
        if e.terms:  # most entries of a tensored column are zero
            for m, c in e.terms.items():
                vp[pack(i, m)] = _small(c)
    return vp


_FRACTIONS = {c: Fraction(c) for c in range(-16, 17)}


def _entries_from_vp(vp: VecPoly, pk: _Packing, sig, rank: int) -> Entries:
    """The engine's one exit: every term leaves as a (position, tuple
    monomial) pair and every coefficient as a `Fraction`, shared for small
    integers, and the empty positions share one zero polynomial (values
    are immutable).  Only occupied positions are visited."""
    split: dict[int, dict] = {}
    shift, mask, nbytes, fields, pick = pk.shift, pk.mask, pk.nbytes, pk.fields, pk.pick
    for t, c in vp.items():
        m = pick(fields((t & mask).to_bytes(nbytes, "big")))
        d = split.get(t >> shift)
        if d is None:
            d = split[t >> shift] = {}
        d[m] = c if type(c) is Fraction else _FRACTIONS.get(c) or Fraction(c)
    out = [Polynomial._raw(sig, {})] * rank
    for i, d in split.items():
        out[i] = Polynomial._raw(sig, d)
    return tuple(out)


def _vp_normal_form(
    vp: VecPoly,
    tails: list[Tail],
    leads: list[VecTerm],
    buckets: dict[int, list[int]],
    pk: _Packing,
) -> VecPoly:
    """Full normal form against a monic basis given by its tails and
    leads; first match by insertion order within the term's bucket,
    t >> shift & mask for the packing's rule (shift, mask) = `pk.bucket`.
    `vp` is the work set: pass a dict no one else holds.

    The top term comes off a heap of bare keys `t ^ pk.neg` (`pk.key`),
    each pushed when its term enters the work set.  A term that cancels
    stays in the work set with coefficient 0 and is skipped when popped,
    so no term is ever pushed twice.  A reduction step only adds terms
    below the one it removes, so the remainder comes out by descending
    term: its first key is its lead.  A product that sets a guard bit
    raises `_Overflow`."""
    guards, neg, (bshift, bmask) = pk.guards, pk.neg, pk.bucket
    heap = [t ^ neg for t in vp]
    heapq.heapify(heap)
    rem: VecPoly = {}
    while heap:
        t = heapq.heappop(heap) ^ neg
        c = vp.pop(t)
        if not c:
            continue
        tg = t | guards
        for k in buckets.get(t >> bshift & bmask, ()):
            if (tg - leads[k]) & guards == guards:
                break
        else:
            rem[t] = c
            continue
        q = t - leads[k]
        for t2, c2 in tails[k]:  # c2 is minus the reducer's coefficient
            tt = t2 + q
            if tt & guards:
                raise _Overflow
            old = vp.get(tt)
            if old is None:
                vp[tt] = c * c2
                heapq.heappush(heap, tt ^ neg)
            else:
                vp[tt] = old + c * c2
    return rem


def _tail(vp: VecPoly, lt: VecTerm) -> Tail:
    """A monic element's (term, -coefficient) pairs, its lead lt left out."""
    return tuple((t, -c) for t, c in vp.items() if t != lt)


def _module_buchberger(
    gens: Iterable[VecPoly],
    pk: _Packing,
    rank: int,
    head: int | None,
    relations: int,
):
    """Monic module Groebner basis (position-over-term order).

    S-pairs are selected by sugar (Giovini, Mora, Niesi, Robbiano and
    Traverso, "One sugar cube, please", 1991), ties by lcm degree and
    then index.  An input's sugar is its largest term degree; a pair's
    is max(ecart_i, ecart_j) + deg lcm, where an element's ecart is its
    sugar minus its lead's degree, and the pair's remainder inherits it.
    Under lex and on inhomogeneous input, selection by lcm degree alone
    can run for minutes where sugar takes a second.
    S-pairs only arise between elements with the same leading position;
    the chain criterion applies there.  At rank 1 no pair with coprime
    leads is pushed (Buchberger's product criterion, invalid for genuine
    vectors); such a pair has a standard representation, so the chain
    criterion counts a pair never pushed as treated.  Coprime leads are
    told apart by their support masks (`_Packing.support`, after
    Bachmann and Schoenemann's monomial masks), before any lcm is formed.
    The first `relations` inputs are the ring's relations: its reduced
    defining basis, entered once, at position 0.  Each relation g stands
    for g*e_p at every position p that carries the relations (every
    position of a table, every head position in generator mode): it
    opens each such position's bucket, in order, and reduces there, as
    the divisibility test ignores the position bits and t - lt(g) keeps
    t's.  No pair is formed among them: they are a Groebner basis, and
    since they come first in every bucket and the first divisor wins,
    each of their S-polynomials would reduce to zero through them alone.
    Nor is a pair pushed between g*e_p and an element c whose lead m*e_p
    is coprime to lt(g): the product criterion, valid with the chain
    criterion (Cox, Little and O'Shea, Ideals, Varieties, and
    Algorithms, 2.9).  With
    g = lt(g) + g' and c = (m + c_p')*e_p + (entries at other positions),
      lt(g)*c - m*g*e_p = sum c_q*(g*e_q) - g'*c + c_p'*(g*e_p) + g*r,
    the sum over the other positions q that carry g, r the part of c at
    those that do not.  A table carries g everywhere, so r = 0 and this
    is a standard representation; in generator mode r is c's tracker
    part, and g*r a syzygy that is zero in the ring.  Every run passes
    its relation count: a syzygy basis is a table of the collected
    syzygies at rank m, which carries g in every position (`_syzygies`).
    The heap orders a pair with g*e_p by the index r*npos + p that copy
    would have as the r-th relation's copy in each of npos positions,
    shifted below every input's index, so pairs come off as they would
    with one copy per position.
    S-polynomials and reductions read each element's tail (`_tail`).
    A term or lcm that outgrows its field raises `_Overflow`.

    Given `head`, the packed position where a tracker block begins, the
    run is in generator mode: an element whose lead lies in the tracker
    block (an input with zero head, or an S-pair remainder whose head
    reduced to zero) is collected instead of entering the basis, so no
    pair between two of them is ever formed, and the run returns the
    collected elements.  They generate the elements of the module that
    lie in the tracker block (Schreyer; Eisenbud Thm 15.10): every pair
    of head elements is reduced or dropped by a criterion, and each one
    that reduces to zero in the head leaves its lift's tracker part here.
    Otherwise the run returns the table (tails, leads, buckets).
    """
    guards, lcm_of, degree, (bshift, bmask) = pk.guards, pk.lcm, pk.degree, pk.bucket
    npos = rank if head is None else head >> bshift & bmask  # positions with relations
    tails: list[Tail] = []
    leads: list[VecTerm] = []
    ecarts: list[int] = []  # sugar - deg lead, per element
    supports: list[int] = []  # `_Packing.support` of each lead
    buckets: dict[int, list[int]] = {}
    heap: list[tuple[int, int, int, int, int]] = []
    pending: set[int] = set()  # pair (i, j), i < j, as j << 32 | i
    collected: list[VecPoly] = []

    def add(vp: VecPoly, lt: VecTerm, sugar: int) -> None:
        vp = _monic(vp, lt)
        idx = len(leads)
        if idx >= relations and head is not None and lt >= head:
            collected.append(vp)
            return
        ecart, support = sugar - degree(lt), pk.support(lt)
        tails.append(_tail(vp, lt))
        leads.append(lt)
        ecarts.append(ecart)
        supports.append(support)
        if idx < relations:
            for p in range(npos):
                buckets.setdefault(p, []).append(idx)
            return
        p = lt >> bshift & bmask
        bucket = buckets.setdefault(p, [])
        for k in bucket:
            if (k < relations or rank == 1) and not supports[k] & support:
                continue  # coprime leads, to a ring relation's lead or at rank 1
            d, lcm = lcm_of(leads[k], lt)  # at lt's position
            key = k if k >= relations else (k - relations) * npos + p
            heapq.heappush(heap, (max(ecarts[k], ecart) + d, d, key, idx, lcm))
            pending.add(idx << 32 | k)
        bucket.append(idx)

    for vp in gens:
        if vp:
            add(dict(vp), min(vp, key=pk.key), max(map(degree, vp)))
    while heap:
        sugar, _, i, j, lcm = heapq.heappop(heap)
        if i < 0:  # relation r's key, (r - relations) * npos + p
            i = i // npos + relations
        pending.remove(j << 32 | i)
        mi, mj = leads[i], leads[j]
        lg = lcm | guards
        skip = False
        for k in buckets[lcm >> bshift & bmask]:
            if k == i or k == j or (lg - leads[k]) & guards != guards:
                continue
            if (k << 32 | i if k > i else i << 32 | k) not in pending and (
                k << 32 | j if k > j else j << 32 | k
            ) not in pending:
                skip = True
                break
        if skip:
            continue
        q = lcm - mj  # (lcm/mi)*element i - (lcm/mj)*element j, zeros kept
        s = {tq: c for t, c in tails[j] if not (tq := t + q) & guards or _overflow()}
        q = lcm - mi  # with lcm's position when i is a relation
        for t, c in tails[i]:
            t += q
            if t & guards:
                raise _Overflow
            s[t] = s.get(t, 0) - c
        # Reduce a compact copy: s itself, grown by insertion, reduces slower.
        r = _vp_normal_form(dict(s), tails, leads, buckets, pk)
        if r:
            add(r, next(iter(r)), sugar)  # remainders come out in descending order
    return collected if head is not None else (tails, leads, buckets)


def _reduced(
    tails: list[Tail], leads: list[VecTerm], buckets: dict, pk: _Packing
) -> list[VecPoly]:
    """A table's reduced basis, by decreasing lead: each minimal lead L
    plus the normal form of the tail of a (monic) table element with
    lead L, which is unique and only has terms below L.  So it depends
    only on the span and order.  A ring relation g, which every
    position's bucket holds, gives g*e_p at each position p where its
    lead is minimal.  Each tail is reduced against the reduced elements
    built before it: every lead that divides a term below L is a
    multiple of a minimal lead below L, so that is the same normal
    form."""
    key, divides, (bshift, bmask) = pk.key, pk.divides, pk.bucket
    # (lead, element) at each position, by ascending lead, so that a
    # divisor comes before its multiples.
    entries = [(leads[k] | p << bshift, k) for p, ks in buckets.items() for k in ks]
    entries.sort(key=lambda e: key(e[0]), reverse=True)
    rtails: list[Tail] = []
    rleads: list[VecTerm] = []
    rbuckets: dict[int, list[int]] = {}
    reduced: list[VecPoly] = []
    for lt, k in entries:
        same = rbuckets.setdefault(lt >> bshift & bmask, [])
        if any(divides(rleads[m], lt) for m in same):
            continue
        at = lt - leads[k]  # a relation's position, or 0
        rest = {t + at: -c for t, c in tails[k]}
        nf = _vp_normal_form(rest, rtails, rleads, rbuckets, pk)
        same.append(len(rleads))
        rtails.append(tuple((t, -c) for t, c in nf.items()))
        rleads.append(lt)
        reduced.append({lt: 1, **nf})
    reduced.reverse()
    return reduced


def _defining_vps(relations: Iterable[Polynomial], pk: _Packing) -> list[VecPoly]:
    """A ring's relations packed at position 0, as `_module_buchberger`
    takes them."""
    return [_vp_from_entries((q,), pk) for q in relations]


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
        gens = tuple(
            ModuleElement(ring, g.entries if isinstance(g, ModuleElement) else g)
            for g in generators
        )
        if any(g.rank != ambient_rank for g in gens):
            raise DimensionError(f"a generator's length is not {ambient_rank}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "generators", gens)

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
    """The Groebner basis of given columns and the ring's relations in
    every coordinate: normal forms, membership and the reduced basis.
    Every table enters the ring's reduced defining basis first, once, as
    the run's relations, which every coordinate's bucket holds (see
    `_module_buchberger`); that basis comes from the defining ideal's
    table, in the polynomial ring, so nothing recurses.

    A full normal form does not depend on which Groebner basis it is taken
    against, so one table serves every question about one generator set.
    A `PolyMatrix`'s columns, checked when it was built, are not checked
    again, and its packed columns enter the run as they are held when
    they are at the run's width; so do those of a matrix that `outside`
    asks about.
    `reduced_matrix` and `outside` answer with matrices that stay packed."""

    __slots__ = ("ring", "rank", "_build", "_table", "_reduced")

    def __init__(
        self,
        ring: PresentedRing,
        rank: int,
        columns: PolyMatrix | Iterable[Sequence[Polynomial]],
    ):
        if not isinstance(columns, PolyMatrix):
            columns = [_column(ring, c, rank) for c in columns]
        else:
            _check_shape(columns, ring, rank)
        ring_basis = ring.defining_basis() if ring.is_quotient else ()

        def run(pk: _Packing) -> tuple:
            gens = _defining_vps(ring_basis, pk)
            relations = len(gens)
            gens += _packed_columns(columns, pk)
            return (pk, *_module_buchberger(gens, pk, rank, None, relations))

        build = partial(_packed_run, ring, run)
        table = build()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_build", build)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_reduced", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MembershipBasis is immutable")

    def _query(self, question: Callable[..., object]):
        """question(packing, tails, leads, buckets) against the table,
        which is rebuilt at double width while the question overflows a
        field.  The table is swapped in as one tuple, so a concurrent
        reader sees the old packing or the new one whole."""
        while True:
            table = self._table
            try:
                return question(*table)
            except _Overflow:
                wider = self._build(width=2 * table[0].width)
                object.__setattr__(self, "_table", wider)

    def normal_form(self, entries: Sequence[Polynomial]) -> Entries:
        entries = _column(self.ring, entries, self.rank)

        def question(pk, *reducers) -> Entries:
            nf = _vp_normal_form(_vp_from_entries(entries, pk), *reducers, pk)
            return _entries_from_vp(nf, pk, self.ring.signature, self.rank)

        return self._query(question)

    def contains(self, entries: Sequence[Polynomial]) -> bool:
        """Whether the normal form is zero, read off the packed normal form
        without unpacking it."""
        entries = _column(self.ring, entries, self.rank)

        def question(pk, *reducers) -> bool:
            return not _vp_normal_form(_vp_from_entries(entries, pk), *reducers, pk)

        return self._query(question)

    def spans(self, matrix: PolyMatrix) -> bool:
        """Whether every column of `matrix` lies in the span, read off
        packed normal forms up to the first that is not zero."""
        _check_shape(matrix, self.ring, self.rank)

        def question(pk, *reducers) -> bool:
            vps = matrix._at(pk)
            return not any(_vp_normal_form(dict(vp), *reducers, pk) for vp in vps)

        return self._query(question)

    def outside(self, matrix: PolyMatrix) -> PolyMatrix:
        """The columns of `matrix` whose normal form is not zero, in order,
        as a matrix that stays packed: none is unpacked to answer."""
        _check_shape(matrix, self.ring, self.rank)

        def question(pk, *reducers) -> PolyMatrix:
            vps = [
                vp for vp in matrix._at(pk) if _vp_normal_form(dict(vp), *reducers, pk)
            ]
            return _packed_matrix(self.ring, self.rank, [(pk, vps)])

        return self._query(question)

    def reduced(self) -> tuple[Entries, ...]:
        """The unique reduced Groebner basis (`_reduced`), as entry tuples
        sorted by decreasing lead term (computed once)."""
        return self.reduced_matrix().columns

    def reduced_matrix(self) -> PolyMatrix:
        """The reduced basis as the columns of a matrix, which stays packed
        until they are read (computed once)."""
        if self._reduced is None:

            def question(pk, *reducers) -> PolyMatrix:
                segment = (pk, _reduced(*reducers, pk))
                return _packed_matrix(self.ring, self.rank, [segment])

            object.__setattr__(self, "_reduced", self._query(question))
        return self._reduced


def _packed_columns(columns: Sequence[Entries], pk: _Packing) -> list[VecPoly]:
    """Columns packed at pk: a matrix's as `PolyMatrix._at` gives them (do
    not change them), others packed afresh."""
    if isinstance(columns, PolyMatrix):
        return columns._at(pk)
    return [_vp_from_entries(c, pk) for c in columns]


def _syzygies(
    columns: Sequence[Entries],
    nrows: int,
    ring: PresentedRing,
    extra_relations: Sequence[Entries],
    generators: bool,
) -> PolyMatrix:
    """The syzygies of `columns` over `ring`, relative to the span of
    `extra_relations` and the defining generators in every coordinate.
    An augmented run in generator mode (see `_module_buchberger`)
    collects generators, which `generators` asks for.  Otherwise they
    enter a rank-m table in the same packed run, and the answer is its
    reduced basis (`_reduced`) without the elements led by lt(g)*e_j for
    a ring basis element g: the syzygy module's modulo the ring, unique
    for the order.  Both runs enter the ring's reduced defining basis
    first, as their relations.  That basis records position-over-term as
    its order.  A basis asked for of a matrix that records an order,
    with no extra relations, is a Schreyer step (`_schreyer`) instead.

    Either way every entry is reduced modulo the ring (it equals
    `ring.reduce` of itself), and no vector is zero in the ring or
    repeats another (two generators can reduce to one).  The reduction
    runs inside the engine: one packed normal form per generator against
    the ring's reduced defining basis, and none for a basis, whose tails
    the table reduces against every g*e_j.  That basis can be of higher
    degree than the inputs, and it is packed with them, before the
    Buchberger runs, so a basis that outgrows the width reruns before
    any engine work.  The syzygies leave as a matrix that stays packed
    (see `PolyMatrix`), and a `PolyMatrix` of columns enters as it is
    held."""
    m = len(columns)
    if m == 0:
        return PolyMatrix(ring, 0)
    if not (generators or extra_relations) and getattr(columns, "_order", None):
        return _schreyer(columns, ring)[0]
    ring_basis = ring.defining_basis() if ring.is_quotient else ()

    def run(pk: _Packing) -> tuple[_Packing, list[VecPoly]]:
        # The ring's basis, packed at position 0, reduces every position:
        # the divisibility test ignores the position bits, and t - lead
        # keeps them.  A full normal form is unique, so each entry comes
        # out as `ring.reduce` would give it.
        ring_vps = _defining_vps(ring_basis, pk)
        ring_leads = [min(vp, key=pk.key) for vp in ring_vps]
        ring_tails = list(map(_tail, ring_vps, ring_leads))
        # The tracker block is ordered below every head position, so a
        # lead in the tracker block means the whole element lies there.
        head = nrows << pk.shift
        gens = list(ring_vps)
        for j, vp in enumerate(_packed_columns(columns, pk)):
            gens.append({**vp, (nrows + j) << pk.shift: 1})
        gens += _packed_columns(extra_relations, pk)
        found = _module_buchberger(gens, pk, nrows + m, head, len(ring_vps))
        tracked = [{t - head: c for t, c in vp.items()} for vp in found]
        if not generators:
            table = _module_buchberger(ring_vps + tracked, pk, m, None, len(ring_vps))
            # The table carries g*e_j for each ring basis element g (every
            # bucket holds g), so every tail is reduced modulo the ring, and
            # the element led by lt(g)*e_j is that relation's: it is dropped.
            tracked = [
                vp for vp in _reduced(*table, pk)
                if next(iter(vp)) & pk.mask not in ring_leads
            ]
        elif ring_vps:
            buckets = dict.fromkeys(range(m), list(range(len(ring_vps))))
            reducers = (ring_tails, ring_leads, buckets, pk)
            tracked = [_vp_normal_form(vp, *reducers) for vp in tracked]
        out: list[VecPoly] = []
        seen: set[frozenset] = set()
        for vp in tracked:
            key = frozenset(vp.items())
            if vp and key not in seen:
                seen.add(key)
                out.append(vp)
        return pk, out

    if generators:
        return _packed_matrix(ring, m, [_packed_run(ring, run)])
    # A basis for position-over-term, which is F_0's order for a step.
    pot = (tuple(range(m)), ((0,) * ring.signature.nvars,) * m, tuple(range(m)))
    return _packed_matrix(ring, m, [_packed_run(ring, run)], pot)


def _schreyer(matrix: PolyMatrix, ring: PresentedRing, graded=None) -> tuple:
    """The syzygies of d = `matrix`, whose columns c_1..c_m are, with the
    ring's relations in every coordinate, a Groebner basis for the order
    d records (`Order`; a basis the engine made): their module's reduced
    basis for the order that d's leads induce on F = ring^m, where m*e_i
    is compared as m*lt(c_i) and ties go to the smaller tie rank
    (Schreyer; La Scala and Stillman 1998).  No Buchberger run: by
    Schreyer's theorem the lifts of a frame are a Groebner basis.

    With the ring's reduced relations g, the c's and every g*e_p are a
    Groebner basis of d's span plus the relations, so the syzygy module
    (plus g*e_i for every g and i) has, at each e_i, the leads generated
    by lcm(lt c_i, lt c_j)/lt c_i over j > i with lt c_j at lt c_i's
    position and by lcm(lt c_i, lt g)/lt c_i over the g's.  The frame
    holds the minimal ones.  A g coprime to lt c_i gives lt(g)*e_i, the
    lead of g*e_i, which is zero in the ring: it prunes but is not
    lifted.  Each other generator is lifted by reducing its S-pair
    against the columns, each augmented with its unit e_j, and the
    relations; the part in F_(k-1) reduces to zero and the rest is a
    syzygy with that lead.  One `_Induced` packing holds both: F's basis
    vectors rank after F_(k-1)'s, so F's terms lie in no reducer's bucket
    (`bucket`, the tie rank) and are never reduced in a lift.
    So the lifts and the g*e_i span the syzygies plus the relations, and
    their leads are the module's.  The lifts are interreduced by
    increasing lead, modulo the ring too (the relations reduce every
    e_i), one normal form each, as in `_reduced`, and leave by decreasing
    lead, reduced modulo the ring, as a packed matrix that records F's
    order: e_i's total lead is lt(c_i)'s, its tie rank the rank of (tie
    rank of lt(c_i)'s basis vector, i).

    Returns the step, with its frame floor F when `graded` caps it below
    F (see `capped_step`), else with None."""
    ring_basis = ring.defining_basis() if ring.is_quotient else ()
    n, m = matrix.nrows, matrix.ncols

    def run(pk: _Packing) -> tuple:
        ind = _Induced(pk)
        shift, mask, key, (bshift, bmask) = pk.shift, pk.mask, ind.key, ind.bucket
        cols = _induced_columns(matrix, pk, ind)
        lts = [min(col, key=key) for col in cols]
        # F's basis: e_i's total lead is lt(c_i)'s, its rank n plus that
        # of its lead chain, (rank of lt(c_i)'s row, i).
        chain = sorted(range(m), key=lambda i: (ind.rank(lts[i]), i))
        rank = sorted(range(m), key=chain.__getitem__)  # chain's inverse
        basis = [ind.basis(lt >> ind.shift, ind.lead(lt), n + r) for lt, r in zip(lts, rank)]
        # The reducers: the relations, in every row's bucket, then the
        # columns, each with its unit e_i.
        relations = [
            {ind.monomial(t): c for t, c in vp.items()} for vp in _defining_vps(ring_basis, pk)
        ]
        rleads = [min(vp, key=key) for vp in relations]
        tails = list(map(_tail, relations, rleads))
        nrel = len(relations)
        buckets = {r: list(range(nrel)) for r in range(n)}
        for i, (col, lt) in enumerate(zip(cols, lts)):
            col[basis[i]] = 1
            tails.append(_tail(_monic(col, lt), lt))
            rleads.append(lt)
            buckets[lt >> bshift & bmask].append(nrel + i)

        def lift(i: int, q: int, partner: int) -> tuple[VecTerm, VecPoly]:
            """The syzygy of q*(column i) and the reducer `partner` at
            their lcm, lead first, made monic."""
            qi = ind.monomial(q)
            lcm = lts[i] + qi
            s = {t + lcm - rleads[partner]: c for t, c in tails[partner]}
            for t, c in tails[nrel + i]:
                s[t + qi] = s.get(t + qi, 0) - c
            if lcm & ind.guards or any(t & ind.guards for t in s):
                raise _Overflow
            syzygy = _vp_normal_form(s, tails, rleads, buckets, ind)
            lead = next(iter(syzygy))
            return lead, _monic(syzygy, lead)

        # A coprime relation's frame element, lt(g)*e_i, is g*e_i's lead:
        # zero in the ring, so it is not lifted.
        rel_leads = [lt & mask for lt in rleads[:nrel]]
        frame = [e for e in _frame(pk, ind, lts, rel_leads) if e[2] >= 0]
        floor = None
        if graded is not None:
            weights, degrees = graded
            leads = [basis[i] + ind.monomial(q) for i, q, _ in frame]
            if any(lt & ind.guards for lt in leads):
                raise _Overflow
            h = [degrees[i] + sum(map(mul, pk.monomial(q), weights)) for i, q, _ in frame]
            floor = _frame_floor(pk, ind, leads, rel_leads, h, weights, -1)
            frame = [e for e, d in zip(frame, h) if d < floor]
        lifts = [lift(*e) for e in frame]
        # Interreduction by increasing lead, modulo the ring.
        lifts.sort(key=lambda e: key(e[0]), reverse=True)
        del tails[nrel:], rleads[nrel:]
        buckets = {n + r: list(range(nrel)) for r in range(m)}
        out = []
        for lt, vp in lifts:
            del vp[lt]
            nf = _vp_normal_form(vp, tails, rleads, buckets, ind)
            buckets[lt >> bshift & bmask].append(len(rleads))
            tails.append(tuple((t, -c) for t, c in nf.items()))
            rleads.append(lt)
            out.append({lt: 1, **nf})
        out.reverse()
        # Back to the ring's packing, at the rows of F (e_i's rank n + r
        # is chain[r]'s).
        packed = [
            {(chain[ind.rank(t) - n] << shift) + (t & mask): c for t, c in vp.items()}
            for vp in out
        ]
        order = (
            tuple(lt >> ind.shift for lt in lts),
            tuple(pk.monomial(ind.lead(lt)) for lt in lts),
            tuple(rank),
        )
        return pk, packed, order, floor

    pk, packed, order, floor = _packed_run(ring, run)
    return _packed_matrix(ring, m, [(pk, packed)], order), floor


def _induced_columns(
    matrix: PolyMatrix, pk: _Packing, ind: _Induced, columns: Iterable[int] | None = None
) -> list[VecPoly]:
    """The columns of d = `matrix`, which records an order, packed in the
    order it induces on F_(k-1) (`_Induced`, at pk's width); only those
    that `columns` names, in its order, when it is given."""
    positions, leads, ranks = matrix._order
    shift, mask, top, guards = pk.shift, pk.mask, ind.top, ind.guards
    rows = list(map(ind.basis, positions, pk.packed(leads), ranks))
    vps = matrix._at(pk)
    cols = []
    for vp in vps if columns is None else map(vps.__getitem__, columns):
        col: VecPoly = {}
        for t, c in vp.items():
            q = t & mask
            u = rows[t >> shift] + (q << top) + q  # + ind.monomial(q)
            if u & guards:
                raise _Overflow
            col[u] = c
        cols.append(col)
    return cols


def _frame(
    pk: _Packing,
    ind: _Induced,
    lts: list[VecTerm],
    rel_leads: list[int],
    columns: Iterable[int] | None = None,
):
    """The frame of a Schreyer step: for each column c_i of d, the
    minimal lcm quotients q of its lead m*e against the leads of the
    later columns at e and the ring relations' leads, smallest first, as
    (i, q, partner), q packed at position 0.  The partner is nrel + j for
    column j, g for relation g, and -1 - g when lt(g) is coprime to m:
    then q = lt(g), and q*e_i is the lead of g*e_i, zero in the ring; it
    comes first among equals, so it prunes its multiples.  `lts` are the
    columns' leads in the induced order (`_induced_columns`), `rel_leads`
    the relations' at position 0.  The columns come by the rank of their
    leads' basis vectors, or in the order `columns` gives (each column's
    quotients depend on no other column's).  One rule for `_schreyer`
    and `frame_floor`."""
    mask, nrel = pk.mask, len(rel_leads)
    same_row: dict[int, list[int]] = {}  # by lead's rank, in order
    for i, lt in enumerate(lts):
        same_row.setdefault(ind.rank(lt), []).append(i)
    # Each column's row, and where the later columns in it start.
    place = {i: (row, a + 1) for row in same_row.values() for a, i in enumerate(row)}
    for i in place if columns is None else columns:
        row, after = place[i]
        mi, quotients = lts[i] & mask, []
        for j in row[after:]:
            d, lcm = pk.lcm(mi, lts[j] & mask)
            quotients.append((d, 1, lcm - mi, nrel + j))
        for g, lg in enumerate(rel_leads):
            d, lcm = pk.lcm(mi, lg)
            q = lcm - mi
            quotients.append((d, int(q != lg), q, g if q != lg else -1 - g))
        quotients.sort(key=lambda e: e[:2])
        kept: list[int] = []
        for _, _, q, partner in quotients:
            if not any(pk.divides(k, q) for k in kept):
                kept.append(q)
                yield i, q, partner


def column_degrees(
    matrix: PolyMatrix, weights: Sequence[int], row_degrees: Sequence[int]
) -> list[int]:
    """The weighted degree of each column, read off one of its terms
    m*e_p: row_degrees[p] plus the weights' dot product with m.  For
    columns homogeneous for these weights and row degrees that is the
    degree of every term; a zero column reads 0."""
    out = []
    for pk, data in matrix._segments():
        for col in data:
            if pk is None:
                term = next(((p, m) for p, e in enumerate(col) for m in e.terms), None)
            else:
                t = next(iter(col), None)
                term = None if t is None else (t >> pk.shift, pk.monomial(t))
            if term is None:
                out.append(0)
            else:
                out.append(row_degrees[term[0]] + sum(map(mul, term[1], weights)))
    return out


def frame_floor(
    matrix: PolyMatrix, weights: Sequence[int], degrees: Sequence[int], stop: int
) -> float | None:
    """A lower bound on the weighted degree of every syzygy of d =
    `matrix` that is nonzero in the ring, or None when d records no
    order: the least degree of a frame element q*e_i (`_frame`) whose
    lead is not a coprime relation's, w.q + degrees[i], with `degrees`
    the columns' weighted degrees (`column_degrees`); inf when there is
    none.  For d, the ring's relations and `degrees` homogeneous for
    positive weights, the lead of such a syzygy, in normal form, is a
    multiple of one of those frame leads (Schreyer; La Scala and
    Stillman 1998), and no lower degree.

    Only whether the floor exceeds `stop` is exact.  A frame element of
    columns i and j is at least as heavy as each, its lead being the lcm
    of theirs, so the frame of the columns of degree at most `stop`,
    taken among themselves, has the whole frame's elements at or below
    `stop`, and no others there.  Only it is scanned, lightest column
    first, and the scan ends at the first element at or below `stop`,
    whose degree it returns; otherwise the answer is the least degree it
    met (inf for none), which exceeds `stop`."""
    if matrix._order is None:
        return None
    ring = matrix.ring
    ring_basis = ring.defining_basis() if ring.is_quotient else ()
    light = [i for i, d in enumerate(degrees) if d <= stop]
    light_degrees = [degrees[i] for i in light]

    def run(pk: _Packing) -> float:
        ind = _Induced(pk)
        cols = _induced_columns(matrix, pk, ind, light)
        lts = [min(col, key=ind.key) for col in cols]
        rel_leads = pk.packed(g.leading_monomial() for g in ring_basis)
        return _frame_floor(pk, ind, lts, rel_leads, light_degrees, weights, stop)

    return _packed_run(ring, run)


def _frame_floor(
    pk: _Packing,
    ind: _Induced,
    lts: list[VecTerm],
    rel_leads: list[int],
    degrees: Sequence[int],
    weights: Sequence[int],
    stop: float,
) -> float:
    """The frame floor of columns with leads `lts` and weighted degrees
    `degrees`: the least degree of a frame element that is not a coprime
    relation's (inf for none) when it exceeds `stop`, else the first one
    met at or below `stop`.  Columns go lightest first, while lighter
    than the least met less the least weight: an element q*e_i has
    q != 1, as no lead of a reduced basis divides another at e_i or is a
    multiple of a relation's lead."""
    floor, step = inf, min(weights)
    lightest = sorted(range(len(lts)), key=degrees.__getitem__)
    for k, q, partner in _frame(pk, ind, lts, rel_leads, lightest):
        if degrees[k] + step >= floor:
            break
        if partner >= 0:
            floor = min(floor, degrees[k] + sum(map(mul, pk.monomial(q), weights)))
            if floor <= stop:
                break
    return floor


def capped_step(
    matrix: PolyMatrix, weights: Sequence[int], degrees: Sequence[int]
) -> tuple[PolyMatrix, float] | None:
    """The Schreyer step after d = `matrix` built only below its frame
    floor F, with F; None when d records no order.  The positive weights
    make d's columns, of degrees `degrees`, and the ring's relations
    homogeneous.  A lift's lead is its frame element q*e_i, of degree
    degrees[i] + w.q, so F is read off the frame before any lift, and
    only what lies below F is lifted: the whole step's columns below F,
    in its order (`_schreyer`).  F is also their own floor: the whole
    frame's least element pairs two columns below F (a partner's lead
    properly divides their lcm) or one with a relation, and each of
    their frame elements is a multiple of one of the whole frame's."""
    if matrix._order is None:
        return None
    return _schreyer(matrix, matrix.ring, (weights, degrees))


def syzygy_entries(
    columns: Sequence[Entries],
    nrows: int,
    ring: PresentedRing,
    extra_relations: Sequence[Entries] = (),
) -> PolyMatrix:
    """Generators of the syzygy module of the given columns over `ring`,
    relative to the span of `extra_relations` (and the defining
    generators in every coordinate): its reduced Groebner basis modulo
    the ring, unique for the order whatever the order of any generators,
    by decreasing lead.  With the ring's relations g*e_j it is a
    Groebner basis, and no term of an element is divisible by another
    element's lead or by an lt(g)*e_j.  The order is
    position-over-term, and the basis comes from generator mode's
    syzygies and a rank-m table of them (`_syzygies`); but when
    `columns` is a syzygy basis this function made, which records the
    order it is a basis for, and there are no extra relations, the order
    is the one its leads induce, and the basis a Schreyer step's
    (`_schreyer`), which records that order in turn.
    `free_resolution` builds its differentials from it, so it fixes the
    resolution's ranks and the basis of each free module.  The basis is
    the columns of a matrix with one row per input column, which stays
    packed until they are read; `columns` may be a `PolyMatrix`, whose
    packed columns enter as they are."""
    return _syzygies(columns, nrows, ring, extra_relations, False)


def syzygy_matrix(matrix: PolyMatrix) -> PolyMatrix:
    """Columns generating the full syzygy module of matrix's columns; over
    a quotient ring, syzygies are taken modulo the defining generators in
    every coordinate."""
    if matrix.ncols == 0:
        raise ArgumentError("syzygies of an empty column list")
    return syzygy_entries(matrix, matrix.nrows, matrix.ring)


def kernel_generators(
    matrix: PolyMatrix, extra_relations: Sequence[Entries] = ()
) -> PolyMatrix:
    """Generators of the kernel of the map defined by `matrix`, relative
    to the submodule of the target spanned by `extra_relations` (plus the
    defining generators in every coordinate).

    They span the same submodule as `syzygy_entries` but are not a basis
    and need not be minimal: they are the engine's generator-mode output
    (see `_module_buchberger`), which skips every S-pair between two
    syzygies.  Reduced modulo the ring, nonzero there and without
    repeats, and returned as a matrix, as by `syzygy_entries`."""
    return _syzygies(
        matrix, matrix.nrows, matrix.ring, extra_relations, generators=True
    )
