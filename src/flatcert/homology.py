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

Against a cyclic N = R/I at i >= 1 the kernel of d_i tensor N comes
first.  When it is zero, so is Tor_i.  When positive weights make R's
reduced relations, I and M homogeneous (M an ideal or a rank-1 module,
`_grading_weights`) and d_i records the order its columns are a basis
for, a kernel generator whose weighted degree lies below d_i's frame
floor (read off the Schreyer frame; La Scala and Stillman 1998) is
outside the image: Tor_i is nonzero with no d_(i+1) and no image table
(`_graded_nonzero`, on d_i built only below that floor when it can be,
`modules.capped_step`).  Every other query, including an ungraded one,
an N of rank above 1, a rank-2 M, i = 0 and a user's relation matrix at
i = 1, takes the path below.

The verdict comes first: it needs only the kernel generators and the
image's table.  `tor` builds the witnesses (the table of image +
kernel, its reduced basis, the elements outside the image, and their
lift back to R) on the first read of `TorReport.witness_generators`,
whichever way the verdict was reached, by one builder (`_tensored`),
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
from functools import cache
from itertools import combinations
from math import comb, gcd, inf, lcm
from operator import mul, sub

from .groebner import IdealHandle
from .modules import (
    Entries,
    MembershipBasis,
    ModuleElement,
    PolyMatrix,
    SubmodulePresentation,
    capped_step,
    column_degrees,
    frame_floor,
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
    complex_: ChainComplex,
    i: int,
    relations: Sequence[Sequence[Entries]],
    ker: PolyMatrix | None = None,
) -> tuple[bool, Callable[[], list[ModuleElement]]]:
    """`homology_witnesses` in two steps: the verdict, from the kernel
    generators and the image's table, and a function that builds the
    witnesses when called: the table of image + kernel, its reduced
    basis, and the elements of it outside the image.  `ker`, when given,
    holds the kernel generators at i, which are then not taken again."""
    if not 0 <= i <= complex_.length:
        raise ArgumentError(f"no homology position {i}")
    if relations and len(relations) != len(complex_.ranks):
        raise DimensionError("one list of relations per position is required")
    ring = complex_.ring
    rank_i = complex_.ranks[i]
    if rank_i == 0:
        return True, list
    if ker is None and i == 0:
        ker = PolyMatrix(ring, rank_i, _standard_basis(ring, rank_i))
    elif ker is None:
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
    """Tor_i(M, N) over the common presented ring R: M resolved to
    length i, d_i and d_(i+1) tensored with N (`_tensored`), homology at
    F_i (of F_1 -> F_0 when i = 0).  Against a cyclic N = R/I at i >= 1,
    an empty kernel of d_i tensor R/I answers zero, and one graded check
    (`_graded_nonzero`) may answer nonzero before the image is built: at
    i >= 2, when no step after d_(i-1) is kept yet, on d_i built below
    its frame floor (`capped_step`), which settles the check; otherwise
    on d_i whole, when no step after it is kept yet.  A nonzero report
    builds its witnesses on their first read (see `TorReport`), from
    `free_resolution(M, i)` through `_tensored`."""
    if i < 0:
        raise ArgumentError("negative Tor index")
    mod = as_presented_module(M)
    other = as_presented_module(N)
    if mod.ring != other.ring:
        raise ArgumentError("modules over different rings")
    ring = mod.ring
    fiber_gens = [col[0] for col in other.relations.columns]  # I's, for N = R/I
    # Found once, when the check first runs: d_1..d_(i-1) are the same
    # steps in either `res` below.
    grading = cache(lambda: _grading(M, fiber_gens, res.differentials[: i - 1]))
    capped = None  # d_i below its floor, with the floor, once read
    if other.rank == 1 and i >= 2:
        res = free_resolution(mod, i - 1)
        d = res.differentials[-1] if res.length == i - 1 else None
        if d is not None and _recall(d) is None and grading():
            capped = capped_step(d, *grading())
        if capped is not None:
            step, floor = capped
            ker = kernel_generators(step.projected(*ring.quotient(fiber_gens)))
            if _graded_nonzero(step, ker, floor, grading()):
                return _nonzero(i, lambda: _tensored(free_resolution(mod, i), i, other)[1]())
    res = free_resolution(mod, max(i, 1))
    if i > res.length:
        return TorReport(i, True, ())
    ker, homology = _tensored(res, i, other)
    if ker is not None:
        if not ker.ncols:
            return TorReport(i, True, ())
        d = res.differentials[-1]
        if capped is None and _recall(d) is None and grading():
            if _graded_nonzero(d, ker, None, grading()):
                return _nonzero(i, homology)
    return TorReport(i, True, ()) if homology()[0] else _nonzero(i, homology)


def _nonzero(i: int, homology: Callable) -> TorReport:
    """Tor_i nonzero, its witnesses built by `homology` (`_tensored`'s)."""
    return deferred(
        TorReport, lambda _: {"witness_generators": homology()[1]()}, index=i, is_zero=False
    )


def _tensored(res: ChainComplex, i: int, other: PresentedModule) -> tuple:
    """d_i and d_(i+1) of `res`, M's resolution to F_i (to F_1 when
    i = 0), tensored with N = `other`: F_k tensor N is N^(rank F_k), each
    column spread over N's s coordinate blocks and N's relations imposed
    in every block; for a cyclic N = R/I, F_k/IF_k, free over the fiber
    ring R/I, the packed entries projected there (`PolyMatrix.projected`).
    Returns the kernel of d_i tensor R/I, taken at once (None unless N is
    cyclic and i >= 1), and a function that computes, once, whether the
    homology at F_i vanishes (`_homology`, given that kernel) and a
    function that builds its witnesses lifted to R; d_(i+1) (`_next_step`)
    is taken when it first runs."""
    ring, s = res.ring, other.rank
    lo = max(i - 1, 0)
    ranks, diffs = res.ranks[lo:], res.differentials[lo:]
    if s == 1:
        base, project = ring.quotient([col[0] for col in other.relations.columns])
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

    fibered = list(map(tensored, diffs))
    ker = kernel_generators(fibered[0]) if s == 1 and i else None

    @cache
    def homology() -> tuple[bool, Callable[[], tuple[ModuleElement, ...]]]:
        rks, mats = ranks, fibered
        if i == res.length and i:
            last = _next_step(diffs[-1], basis=False)
            if last.ncols:
                rks, mats = rks + (last.ncols,), mats + [tensored(last)]
        relations = [
            [(zero,) * (pos * s) + rc + (zero,) * ((r - pos - 1) * s)
             for pos in range(r) for rc in n_rels]
            for r in rks
        ]
        complex_ = ChainComplex(base, tuple(r * s for r in rks), tuple(mats), False)
        is_zero, witnesses = _homology(complex_, min(i, 1), relations, ker)

        def lifted() -> tuple[ModuleElement, ...]:
            # Zero entries share R's zero.  Every entry is R's by
            # construction, so none is checked again.
            sig, zero = ring.signature, ring.zero()
            rows = [[transplant(e, sig) if e.terms else zero for e in w.entries]
                    for w in witnesses()]
            return tuple(ModuleElement._raw(ring, tuple(row)) for row in rows)

        return is_zero, lifted

    return ker, homology


def _grading(
    M: ModuleLike, fiber_gens: Sequence[Polynomial], differentials: Sequence[PolyMatrix]
) -> tuple | None:
    """Positive weights for which R's reduced relations, I (generated by
    `fiber_gens`) and M are homogeneous (`_grading_weights`), with the
    degrees of the free module that M's `differentials` reach: F_0 is R^n
    for an ideal's n generators, e_j of the degree of the j-th (a term's),
    or R of degree 0 for a rank-1 module, and each later basis vector has
    its column's degree.  None for any other M, or without such weights."""
    ideal = isinstance(M, IdealHandle)
    if ideal:
        gens = M.generators
    elif isinstance(M, PresentedModule) and M.rank == 1:
        gens = [col[0] for col in M.relations.columns]
    else:
        return None
    ring = M.ring
    relations = ring.defining_basis() if ring.is_quotient else ()
    weights = _grading_weights([*relations, *gens, *fiber_gens], ring.signature.nvars)
    if weights is None:
        return None
    degrees = [0]
    if ideal:
        degrees = [sum(map(mul, next(iter(g.terms), ()), weights)) for g in gens]
    for d in differentials:
        degrees = column_degrees(d, weights, degrees)
    return weights, degrees


def _graded_nonzero(d: PolyMatrix, ker: PolyMatrix, floor, graded: tuple) -> bool:
    """Whether weighted degrees alone show Tor_i(M, R/I) nonzero: the
    least degree of `ker`, generators of the kernel of d tensor R/I over
    the fiber ring, lies below d's frame floor.  d is d_i, F_(i-1)'s
    degrees in `graded` (`_grading`), built only below `floor`
    (`capped_step`), or whole, `floor` None: then the floor is read off
    d's frame up to that degree (`frame_floor`, None for no order).
    Every nonzero syzygy of d_i, so every nonzero element of the image of
    d_(i+1) tensor R/I, has degree at least that floor, which the capped
    step shares, with d_i's columns and kernel below it."""
    weights, degrees = graded
    degrees = column_degrees(d, weights, degrees)
    sig, fiber = d.ring.signature, ker.ring.signature
    fiber_weights = [weights[sig.index(v)] for v in fiber.variables]
    least = min(column_degrees(ker, fiber_weights, degrees), default=inf)
    if floor is None:
        floor = frame_floor(d, weights, degrees, least)
    return floor is not None and floor > least


# The most inequalities `_grading_weights` eliminates over: each
# Fourier-Motzkin step can square their number.
_CONE_CAP = 64


def _grading_weights(polys: Sequence[Polynomial], nvars: int) -> tuple[int, ...] | None:
    """Positive integer weights, one per variable, for which every
    polynomial is homogeneous, or None when there are none or the
    search outgrows its cap.

    Each term m of a polynomial with first term m0 asks w.(m - m0) = 0.
    Integer Gauss-Jordan elimination writes each pivot variable's weight
    through the free ones, w_p = -(sum_f r_f w_f)/r_p with r_p > 0, so
    w > 0 asks the free weights x for the strict homogeneous inequalities
    x > 0 and -sum_f r_f x_f > 0.  All free weights 1 is tried first;
    otherwise `_cone_point` looks for a solution.  Only ints: no
    Fraction."""
    pivots: dict[int, list[int]] = {}  # pivot column -> row, reduced by the others
    for f in polys:
        if len(f.terms) < 2:
            continue
        first, *rest = f.terms
        for m in rest:
            row = list(map(sub, m, first))
            for p, prow in pivots.items():
                if row[p]:
                    row = _eliminate(row, prow, p)
            p = next((k for k, a in enumerate(row) if a), None)
            if p is None:
                continue
            row = _primitive(row, -1 if row[p] < 0 else 1)
            for q, qrow in pivots.items():
                if qrow[p]:
                    pivots[q] = _eliminate(qrow, row, p)
            pivots[p] = row
    free = [k for k in range(nvars) if k not in pivots]
    if not free:
        return None
    x = [1] * len(free)
    if any(sum(row[f] for f in free) >= 0 for row in pivots.values()):
        cone = [[-row[f] for f in free] for row in pivots.values()]
        x = _cone_point(cone + [[int(f == g) for g in free] for f in free])
        if x is None:
            return None
    scale = lcm(*(row[p] for p, row in pivots.items()))
    w = [0] * nvars
    for f, v in zip(free, x):
        w[f] = v * scale
    for p, row in pivots.items():
        w[p] = -sum(row[f] * w[f] for f in free) // row[p]
    g = gcd(*w)
    return tuple(v // g for v in w)


def _primitive(row: list[int], sign: int = 1) -> list[int]:
    """row divided by its content times `sign`; a zero row as it is."""
    g = gcd(*row) * sign
    return row if g in (0, 1) else [u // g for u in row]


def _eliminate(row: list[int], prow: list[int], p: int) -> list[int]:
    """row with its entry at p cleared by prow (prow[p] > 0), primitive."""
    a, b = prow[p], row[p]
    return _primitive([a * u - b * v for u, v in zip(row, prow)])


def _cone_point(cone: list[list[int]]) -> list[int] | None:
    """An integer point x with c.x > 0 for every c in `cone`, or None
    when there is none or the elimination outgrows `_CONE_CAP`.

    Fourier-Motzkin elimination: each variable v in turn is removed by
    adding each inequality with a positive coefficient at v to each with
    a negative one, scaled to cancel it; an inequality that becomes 0 > 0
    shows there is no point.  Back-substitution, last variable first,
    picks x_v strictly between the bounds that v's inequalities set:
    the integer above the greatest lower bound, after scaling the
    variables already picked (the system is homogeneous) until the gap
    to the least upper bound exceeds 1."""
    if not all(map(any, cone)):
        return None
    k = len(cone[0])
    stages = []
    rows = cone
    for v in range(k):
        pos = [c for c in rows if c[v] > 0]
        neg = [c for c in rows if c[v] < 0]
        kept = {tuple(c) for c in rows if not c[v]}
        for c in pos:
            for d in neg:
                row = _primitive([-d[v] * a + c[v] * b for a, b in zip(c, d)])
                if not any(row):
                    return None
                kept.add(tuple(row))
        if len(kept) > _CONE_CAP:
            return None
        stages.append((pos, neg))
        rows = list(kept)
    x = [0] * k
    for v in reversed(range(k)):
        pos, neg = stages[v]
        lo = hi = None  # (numerator, positive denominator)
        for c in pos:
            b = (-sum(map(mul, c, x)), c[v])
            if lo is None or b[0] * lo[1] > lo[0] * b[1]:
                lo = b
        for c in neg:
            b = (sum(map(mul, c, x)), -c[v])
            if hi is None or b[0] * hi[1] < hi[0] * b[1]:
                hi = b
        if hi is not None:
            gap = hi[0] * lo[1] - lo[0] * hi[1]  # over hi[1] * lo[1]
            if gap <= hi[1] * lo[1]:
                scale = hi[1] * lo[1] // gap + 1
                x = [scale * u for u in x]
                lo = (scale * lo[0], lo[1])
        x[v] = lo[0] // lo[1] + 1
    return x
