"""Presented modules, chain complexes, Koszul complexes, free resolutions,
homology, and Tor.

Tor_i(M, N) resolves M over its presented ring R to length i
(resolutions over a quotient ring may be infinite, so only that much is
built), takes generators of the kernel of d_i as d_(i+1), tensors d_i and
d_(i+1) with N (only they meet F_i), and takes homology at F_i.  For a
cyclic N = R/I the tensored complex is one of free R/I-modules, so its
homology is taken over the fiber ring R/I, which drops the variables
that I's generators name; any other N is imposed by relation columns
over R.  Verdicts are zero or nonzero with canonical witness generators
(see `homology_witnesses`), never dimension counts.

The steps d_1..d_i come from `syzygy_entries`, the syzygy module's
reduced Groebner basis: they fix the basis of F_i, the witnesses'
coordinates, whatever the order of the ring's defining generators.
The first basis of a resolution (a presentation, or the step after a
user's relation matrix) is the table route's, for position-over-term;
it records that order, so every step after it is a Schreyer step, the
reduced basis for the order that the step before induces, with no
second Buchberger run.  Those orders are fixed by the canonical first
basis, so the resolution stays canonical.
d_(i+1) and the kernel at i enter the homology only as the submodules
they span, through membership tables and a reduced basis, both unique
for a submodule.  So both come from `kernel_generators`, the engine's
cheaper generator mode, and the witness text is what a syzygy basis
gives.

The matrices pass from one engine run to the next packed: the
differentials and kernels are the engine's own `PolyMatrix`es, `tor`
tensors them with a cyclic N by `PolyMatrix.projected`, which maps
packed columns into the fiber ring, and `homology_witnesses` asks its
tables about packed columns (`MembershipBasis.spans` and `.outside`),
so only the witnesses are unpacked.  Tensoring with an N of rank s > 1
still builds polynomial columns.

The verdict comes first: it needs only the kernel generators and the
image's table.  `tor` builds the witnesses (the table of image +
kernel, its reduced basis, the elements outside the image, and their
lift back to R) on the first read of `TorReport.witness_generators`,
so a caller that only asks whether Tor vanishes never builds them: the
report is a `deferred` record, as a packed `PolyMatrix` is.  Equality,
hashing, `repr` and `str` of a report read its witnesses.
`homology_witnesses` builds them at once.

Each ideal or submodule is presented at most once, and each
differential d keeps its next step: a matrix whose columns span ker d.
That is the `syzygy_entries` basis once a resolution has asked for it,
and otherwise the `kernel_generators` a `tor` took for d_(i+1); a basis
replaces stored generators and never the other way round, so generators
never become a differential.  A resolution walks these steps from the
relations, so a later request reads or extends what an earlier one
built.  All of it lives in one memo keyed by object identity that holds
no strong reference, so `tor` and `flat_at_point` share every
resolution of a module while it is alive.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Sequence
from itertools import combinations
from math import comb

from .groebner import IdealHandle
from .modules import (
    Entries,
    MembershipBasis,
    ModuleElement,
    PolyMatrix,
    SubmodulePresentation,
    kernel_generators,
    syzygy_entries,
)
from .poly import (
    ArgumentError,
    DimensionError,
    Polynomial,
    PresentedRing,
    transplant,
)
from .record import deferred, record


@record
class PresentedModule:
    """coker(relations): the quotient of ring^rank by the column span of
    the relations matrix."""

    ring: PresentedRing
    rank: int
    relations: PolyMatrix

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ArgumentError("negative rank")
        if self.relations.nrows != self.rank:
            raise DimensionError("relations do not match the rank")
        if self.relations.ring != self.ring:
            raise DimensionError("relations over a different ring")

    @classmethod
    def free(cls, ring: PresentedRing, rank: int) -> "PresentedModule":
        return cls(ring, rank, PolyMatrix(ring, rank, ()))

    @classmethod
    def cyclic(
        cls, ring: PresentedRing, relation_gens: Sequence[Polynomial]
    ) -> "PresentedModule":
        """ring^1 modulo the given scalar relations."""
        cols = [(g,) for g in relation_gens]
        return cls(ring, 1, PolyMatrix(ring, 1, cols))

    def __str__(self) -> str:
        if self.relations.ncols == 0:
            return f"free module of rank {self.rank}"
        rels = ", ".join(
            "(" + ", ".join(str(e) for e in col) + ")"
            for col in self.relations.columns
        )
        return f"module of rank {self.rank} with relations {rels}"


ModuleLike = PresentedModule | IdealHandle | SubmodulePresentation

# id(obj) -> (weak reference to obj, what was computed for it): the
# presentation of an ideal or submodule, or a differential's next step
# with whether it is a syzygy basis.  The reference's callback drops the
# entry as obj is collected, before its id can be reused; it holds the
# dict itself, since an object may outlive this module's globals at exit.
_MEMO: dict[int, tuple[weakref.ref, object]] = {}


def _recall(obj: object) -> object | None:
    entry = _MEMO.get(id(obj))
    return None if entry is None else entry[1]


def _remember(obj: object, value: object) -> None:
    key, memo = id(obj), _MEMO

    def evict(_: weakref.ref) -> None:
        memo.pop(key, None)

    memo[key] = (weakref.ref(obj, evict), value)


def as_presented_module(obj: ModuleLike) -> PresentedModule:
    """Present an ideal or submodule by generators and their syzygies;
    the same object always gets the same presentation back."""
    if isinstance(obj, PresentedModule):
        return obj
    mod = _recall(obj)
    if mod is not None:
        return mod
    if isinstance(obj, IdealHandle):
        gens, nrows = [(g,) for g in obj.generators], 1
    elif isinstance(obj, SubmodulePresentation):
        gens, nrows = [g.entries for g in obj.generators], obj.ambient_rank
    else:
        raise ArgumentError(f"cannot present {type(obj).__name__} as a module")
    mod = PresentedModule(obj.ring, len(gens), syzygy_entries(gens, nrows, obj.ring))
    _remember(obj, mod)
    return mod


@record
class ChainComplex:
    """F_0 <- F_1 <- ... <- F_l with differentials d_1..d_l; `complete`
    records whether the final syzygy step was reached (zero)."""

    ring: PresentedRing
    ranks: tuple[int, ...]
    differentials: tuple[PolyMatrix, ...]
    complete: bool

    def __post_init__(self) -> None:
        if len(self.ranks) != len(self.differentials) + 1:
            raise DimensionError("ranks do not match differentials")
        for k, d in enumerate(self.differentials, start=1):
            if d.nrows != self.ranks[k - 1] or d.ncols != self.ranks[k]:
                raise DimensionError(f"differential {k} has the wrong shape")

    @property
    def length(self) -> int:
        return len(self.differentials)

    def differential(self, k: int) -> PolyMatrix:
        """d_k: F_k -> F_(k-1), 1-based."""
        if not 1 <= k <= self.length:
            raise ArgumentError(f"no differential {k}")
        return self.differentials[k - 1]

    def composition_is_zero(self) -> bool:
        """Check d_k composed with d_(k+1) vanishes in the presented ring."""
        for k in range(1, self.length):
            if not self.differentials[k - 1].compose(
                self.differentials[k]
            ).is_zero_in_ring():
                return False
        return True


def _next_step(d: PolyMatrix, basis: bool) -> PolyMatrix:
    """A matrix whose columns span the kernel of d: the `syzygy_entries`
    basis when `basis` is asked for or already kept under d, otherwise
    `kernel_generators`.  The basis is a Schreyer step exactly when d
    records the order its columns are a basis for, as every basis
    `syzygy_entries` makes does."""
    kept = _recall(d)
    if kept is not None and (kept[0] or not basis):
        return kept[1]
    step = syzygy_entries(d, d.nrows, d.ring) if basis else kernel_generators(d)
    _remember(d, (basis, step))
    return step


def free_resolution(module: ModuleLike, length: int) -> ChainComplex:
    """A free resolution of the module, built by iterated syzygies:
    d_1 is the relations matrix and d_(k+1) holds the syzygies of d_k's
    columns (`syzygy_entries`, kept under d_k): the table route's basis
    for position-over-term after a matrix that records no order, and a
    Schreyer step, the reduced basis for the order d_k's leads induce,
    after one that does.  Such a resolution need not be minimal.

    Truncates early (and flags completion) when a syzygy step is zero; a
    free module has no differentials.  Over a quotient ring the
    resolution may never complete.  `complete` holds exactly when the
    zero step comes within `length` differentials, so every call equals
    a first call.
    """
    if length < 1:
        raise ArgumentError("resolution length must be at least 1")
    mod = as_presented_module(module)
    diffs, d = [], mod.relations
    while d.ncols:
        diffs.append(d)
        if len(diffs) == length:
            break
        d = _next_step(d, basis=True)
    ranks = (mod.rank, *(step.ncols for step in diffs))
    return ChainComplex(mod.ring, ranks, tuple(diffs), not d.ncols)


def koszul(sequence: Sequence[Polynomial], ring: PresentedRing) -> ChainComplex:
    """The Koszul complex on the given elements: ranks C(n, k), with the
    usual alternating signs (for n = 2 the complex reads
    R -[(-f2, f1)]-> R^2 -[(f1, f2)]-> R)."""
    seq = tuple(sequence)
    if not seq:
        raise ArgumentError("empty sequence")
    for f in seq:
        if f.sig != ring.signature:
            raise DimensionError("sequence entry over a different signature")
    n = len(seq)
    zero = ring.zero()
    diffs = []
    for k in range(1, n + 1):
        rows = list(combinations(range(n), k - 1))
        row_index = {S: i for i, S in enumerate(rows)}
        cols = []
        for S in combinations(range(n), k):
            col = [zero] * len(rows)
            for t, j in enumerate(S):
                T = tuple(x for x in S if x != j)
                entry = seq[j] if t % 2 == 0 else -seq[j]
                col[row_index[T]] = col[row_index[T]] + entry
            cols.append(tuple(col))
        diffs.append(PolyMatrix(ring, len(rows), cols))
    ranks = tuple(comb(n, k) for k in range(n + 1))
    return ChainComplex(ring, ranks, tuple(diffs), True)


def homology_witnesses(
    complex_: ChainComplex, i: int, relations: Sequence[Sequence[Entries]] = ()
) -> tuple[bool, list[ModuleElement]]:
    """Whether homology at position i vanishes, with canonical witness
    generators otherwise.

    The verdict is zero when every kernel generator lies in the image.
    When one does not, the witnesses are the elements of the reduced
    Groebner basis of kernel + image that are not in the image, by
    decreasing lead: they depend only on the two submodules and the
    monomial order, not on how the kernel or the image was generated
    (both may be `kernel_generators` output).

    `relations`, when given, holds one list of relation columns per
    position k, and F_k is read as F_k modulo their span: the kernel at i
    is taken relative to relations[i-1], and relations[i] join the image.

    The kernel, the image and the span's reduced basis stay packed: the
    tables are asked about whole matrices (`MembershipBasis.spans` and
    `.outside`), and only the witnesses are unpacked.
    """
    is_zero, later = _homology(complex_, i, relations)
    return is_zero, later()


def _homology(
    complex_: ChainComplex, i: int, relations: Sequence[Sequence[Entries]]
) -> tuple[bool, Callable[[], list[ModuleElement]]]:
    """`homology_witnesses` in two steps: the verdict, from the kernel
    generators and the image's table, and a function that builds the
    witnesses when called: the table of image + kernel, its reduced
    basis, and the elements of it outside the image."""
    if not 0 <= i <= complex_.length:
        raise ArgumentError(f"no homology position {i}")
    if relations and len(relations) != len(complex_.ranks):
        raise DimensionError("one list of relations per position is required")
    ring = complex_.ring
    rank_i = complex_.ranks[i]
    if rank_i == 0:
        return True, list
    if i == 0:
        ker = PolyMatrix(ring, rank_i, _standard_basis(ring, rank_i))
    else:
        ker = kernel_generators(
            complex_.differential(i), relations[i - 1] if relations else ()
        )
    spanning = PolyMatrix(ring, rank_i)
    if i < complex_.length:
        spanning = complex_.differential(i + 1)
    if relations and relations[i]:
        spanning = spanning.beside(PolyMatrix(ring, rank_i, relations[i]))
    image = MembershipBasis(ring, rank_i, spanning)
    if image.spans(ker):
        return True, list

    def witnesses() -> list[ModuleElement]:
        span = MembershipBasis(ring, rank_i, spanning.beside(ker))
        outside = image.outside(span.reduced_matrix())
        return [ModuleElement._raw(ring, v) for v in outside]

    return False, witnesses


@record
class TorReport:
    """Zero-or-nonzero verdict for Tor_i(M, N), with witness generators
    spanning the homology when nonzero.

    A nonzero report that `tor` makes holds its verdict and builds its
    witnesses on the first read of `witness_generators`: it is a
    `deferred` record, that field its unset one.  Equality, hashing,
    `repr` and `str` read the field, so such a report equals, hashes and
    prints like `TorReport(index, False, witnesses)`."""

    index: int
    is_zero: bool
    witness_generators: tuple[ModuleElement, ...]

    def __str__(self) -> str:
        if self.is_zero:
            return f"Tor_{self.index} = 0"
        wits = "; ".join(str(w) for w in self.witness_generators)
        return f"Tor_{self.index} != 0, witnesses: {wits}"


def _standard_basis(ring: PresentedRing, rank: int) -> list[Entries]:
    zero = ring.zero()
    one = ring.one()
    out = []
    for i in range(rank):
        col = [zero] * rank
        col[i] = one
        out.append(tuple(col))
    return out


def tor(i: int, M: ModuleLike, N: ModuleLike) -> TorReport:
    """Tor_i(M, N) over the common presented ring R.

    Resolves M to length i over R, takes d_i's next step as d_(i+1)
    (`kernel_generators` unless a syzygy basis is kept under d_i),
    tensors d_i and d_(i+1) with N and takes homology at F_i (of
    F_1 -> F_0 when i = 0).  F_k tensor N is N^(rank F_k): each column
    of a differential is spread over N's s coordinate blocks, and N's
    relations are imposed in every block.
    A cyclic N = R/I gives F_k/IF_k, a free module over the fiber ring
    R/I (`PresentedRing.quotient`): s = 1, the entries are projected
    there (`PolyMatrix.projected`, on packed columns), no relation
    columns are needed, and homology is taken over R/I; the witnesses
    are lifted back to R.

    The verdict is decided here; a nonzero report builds its witnesses
    on the first read of `witness_generators` (see `TorReport`).
    """
    if i < 0:
        raise ArgumentError("negative Tor index")
    mod = as_presented_module(M)
    other = as_presented_module(N)
    if mod.ring != other.ring:
        raise ArgumentError("modules over different rings")
    ring = mod.ring
    res = free_resolution(mod, max(i, 1))
    if i > res.length:
        return TorReport(i, True, ())
    # res ends at F_i (at F_1 when i = 0); only d_i and d_(i+1) meet F_i.
    lo = max(i - 1, 0)
    ranks, diffs = res.ranks[lo:], res.differentials[lo:]
    if i == res.length and i:
        last = _next_step(diffs[-1], basis=False)
        if last.ncols:
            ranks, diffs = ranks + (last.ncols,), diffs + (last,)
    s = other.rank
    if s == 1:
        base, project = ring.quotient(col[0] for col in other.relations.columns)
        n_rels = ()
    else:
        base, n_rels = ring, other.relations.columns
    zero = base.zero()

    def tensored(d: PolyMatrix) -> PolyMatrix:
        if s == 1:
            return d.projected(base, project)
        cols = []
        for col in d.columns:
            for t in range(s):
                big = [zero] * (d.nrows * s)
                big[t::s] = col
                cols.append(tuple(big))
        return PolyMatrix(base, d.nrows * s, cols)

    relations = [
        [(zero,) * (pos * s) + rc + (zero,) * ((r - pos - 1) * s)
         for pos in range(r) for rc in n_rels]
        for r in ranks
    ]
    complex_ = ChainComplex(
        base, tuple(r * s for r in ranks), tuple(map(tensored, diffs)), False
    )
    is_zero, witnesses = _homology(complex_, min(i, 1), relations)
    if is_zero:
        return TorReport(i, True, ())

    def lifted() -> tuple[ModuleElement, ...]:
        # Most witness entries are zero; they share R's zero.  Every entry
        # is R's by construction, so none is checked again.
        sig, zero = ring.signature, ring.zero()
        return tuple(
            ModuleElement._raw(
                ring,
                tuple([transplant(e, sig) if e.terms else zero for e in w.entries]),
            )
            for w in witnesses()
        )

    return deferred(
        TorReport, lambda _: {"witness_generators": lifted()}, index=i, is_zero=False
    )
