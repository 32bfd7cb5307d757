"""Independent oracles used to pin expected values.

The oracles are deliberately naive: dense linear algebra over exact
Fractions and exhaustive monomial enumeration.  They share no code with
the package's Buchberger or syzygy machinery, so agreement between the
two is meaningful evidence.  `RelationColumnTor` is the exception: it is
the reference route for Tor against a cyclic module, built from the
package's public module functions, that the fiber-ring route of `tor`
must agree with.  It takes its kernel from `syzygy_entries`, the
Groebner basis of the syzygy module, not from `tor`'s generator route.
`full_complex_tor` is the same kind of reference for `tor`'s truncated
tensoring: it tensors every differential d_1..d_(i+1) of the canonical
resolution, not only the two that meet F_i.  `schreyer_certificate`
checks a resolution step against the induced order read off its
definition (`induced_orders`), by naive division on tuple monomials.
`run_with_deadline` runs a computation that could hang in a child
process, so a regression fails the suite instead of stalling it.
`assert_homogeneous` reads every term of a matrix for the weighted
degree that `tor`'s graded route reads off one term of each column.
"""

from __future__ import annotations

import multiprocessing
import traceback
from fractions import Fraction
from functools import cmp_to_key

from flatcert import (
    ChainComplex,
    MembershipBasis,
    ModuleElement,
    Polynomial,
    PolyMatrix,
    PresentedRing,
    RingSignature,
    TorReport,
    as_presented_module,
    free_resolution,
    homology_witnesses,
    mono_divides,
    mono_lcm,
    mono_quotient,
    transplant,
)
from flatcert.modules import syzygy_entries


def nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of {v : A v = 0}, by Gauss-Jordan elimination over QQ."""
    if not rows:
        return []
    ncols = len(rows[0])
    m = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    basis = []
    for free_col in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free_col] = Fraction(1)
        for i, pivot_col in enumerate(pivots):
            v[pivot_col] = -m[i][free_col]
        basis.append(v)
    return basis


def monomials_up_to(nvars: int, deg: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree <= deg, in a fixed order."""
    monos: list[tuple[int, ...]] = [()]
    for _ in range(nvars):
        monos = [m + (e,) for m in monos for e in range(deg - sum(m) + 1)]
    return monos


def textbook_compare(a, b, order: str, block: int = 0) -> int:
    """-1, 0 or 1 as monomial a is less than, equal to or greater than b,
    read off the definitions in Cox, Little and O'Shea, ch. 2 sec. 2.

    lex: the first nonzero entry of a - b decides.  grevlex: the higher
    degree wins; in a degree, a negative last nonzero entry of a - b
    makes a the greater.  block: grevlex on the first `block` variables,
    ties broken by grevlex on the rest.
    """
    diff = [x - y for x, y in zip(a, b)]
    if order == "lex":
        return next((1 if d > 0 else -1 for d in diff if d), 0)
    if order == "grevlex":
        if sum(a) != sum(b):
            return 1 if sum(a) > sum(b) else -1
        return next((1 if d < 0 else -1 for d in reversed(diff) if d), 0)
    if order == "block":
        return textbook_compare(a[:block], b[:block], "grevlex") or textbook_compare(
            a[block:], b[block:], "grevlex"
        )
    raise ValueError(f"unknown order {order!r}")


def brute_syzygies(
    matrix: PolyMatrix, deg: int
) -> list[tuple[Polynomial, ...]]:
    """All syzygies of the matrix with polynomial entries of degree <= deg.

    Sets up one linear unknown per (column, monomial) pair and solves
    M v = 0 in the presented ring coordinate by coordinate.
    """
    ring = matrix.ring
    sig = ring.signature
    monos = monomials_up_to(sig.nvars, deg)
    unknowns = [(j, m) for j in range(matrix.ncols) for m in monos]
    images: dict[tuple[int, tuple[int, ...]], list[Polynomial]] = {}
    coords: set[tuple[int, tuple[int, ...]]] = set()
    for j, m in unknowns:
        vec = [ring.reduce(entry.mul_term(m, 1)) for entry in matrix.columns[j]]
        images[(j, m)] = vec
        for i, p in enumerate(vec):
            coords.update((i, mono) for mono in p.terms)
    coord_list = sorted(coords)
    rows = [
        [images[u][i].terms.get(mono, Fraction(0)) for u in unknowns]
        for i, mono in coord_list
    ]
    out = []
    for v in nullspace(rows):
        entries = []
        for j in range(matrix.ncols):
            terms = {}
            for k, m in enumerate(monos):
                c = v[j * len(monos) + k]
                if c:
                    terms[m] = c
            entries.append(Polynomial(sig, terms))
        out.append(tuple(entries))
    return out


def brute_membership(ring: PresentedRing, f: Polynomial,
                     gens: list[Polynomial], deg: int) -> bool:
    """Is f a combination sum(q_i g_i) with deg(q_i) <= deg, in the ring?"""
    matrix = PolyMatrix(ring, 1, [(g,) for g in gens])
    sig = ring.signature
    monos = monomials_up_to(sig.nvars, deg)
    unknowns = [(j, m) for j in range(matrix.ncols) for m in monos]
    target = ring.reduce(f)
    images = {}
    coords = set(target.terms)
    for j, m in unknowns:
        p = ring.reduce(gens[j].mul_term(m, 1))
        images[(j, m)] = p
        coords.update(p.terms)
    coord_list = sorted(coords)
    rows = [[images[u].terms.get(mono, Fraction(0)) for u in unknowns]
            for mono in coord_list]
    rhs = [target.terms.get(mono, Fraction(0)) for mono in coord_list]
    # solve by elimination on the augmented system
    aug = [row + [b] for row, b in zip(rows, rhs)]
    n = len(unknowns)
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = aug[r][c]
        aug[r] = [v / inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                fac = aug[i][c]
                aug[i] = [a - fac * b for a, b in zip(aug[i], aug[r])]
        r += 1
        if r == len(aug):
            break
    # inconsistent iff some row is (0 ... 0 | nonzero)
    return not any(
        all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in aug
    )


def random_poly(rng, sig: RingSignature, max_deg: int = 2,
                max_terms: int = 3) -> Polynomial:
    """Random sparse polynomial with small integer coefficients."""
    monos = monomials_up_to(sig.nvars, max_deg)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monos)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[m] = terms.get(m, Fraction(0)) + c
    return Polynomial(sig, {m: c for m, c in terms.items() if c})


def to_sympy(p: Polynomial, symbols):
    """p as a sympy expression in the given symbols (sympy is imported
    only when an oracle asks for it)."""
    import sympy

    return sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(g**e for g, e in zip(symbols, m)))
        for m, c in p.terms.items()
    )


def sympy_reduced_basis(exprs, symbols, order: str) -> set[frozenset]:
    """sympy's reduced basis as a set of monic term maps in `order`.

    sympy returns primitive integer polynomials, so each element is
    divided by its leading coefficient in `order`."""
    import sympy

    out = set()
    for p in sympy.groebner(exprs, *symbols, order=order).polys:
        terms = p.terms(order=order)
        lc = Fraction(int(terms[0][1].p), int(terms[0][1].q))
        out.add(
            frozenset((m, Fraction(int(c.p), int(c.q)) / lc) for m, c in terms)
        )
    return out


def basis_set(basis, drop: int = 0) -> set[frozenset]:
    """Polynomials as a set of term maps, the first `drop` exponents of
    each monomial left out, for comparison with `sympy_reduced_basis`."""
    return {frozenset((m[drop:], c) for m, c in b.terms.items()) for b in basis}


def spolynomial_certificate(basis, divide) -> bool:
    """Buchberger's criterion: every S-polynomial reduces to zero.

    `divide` is the package's division, which the arithmetic tests verify
    independently via the reconstruction identity f = sum(q_i d_i) + r.
    """
    basis = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            f, g = basis[i], basis[j]
            lf, lg = f.leading_monomial(), g.leading_monomial()
            lcm = mono_lcm(lf, lg)
            sp = f.mul_term(
                mono_quotient(lcm, lf), 1 / f.leading_coefficient()
            ) - g.mul_term(mono_quotient(lcm, lg), 1 / g.leading_coefficient())
            _, rem = divide(sp, tuple(basis))
            if not rem.is_zero():
                return False
    return True


def is_reduced_basis(basis) -> bool:
    """Monic, and no term of one element divisible by another's lead."""
    for i, f in enumerate(basis):
        if f.leading_coefficient() != 1:
            return False
        for j, g in enumerate(basis):
            if i == j:
                continue
            lg = g.leading_monomial()
            if any(mono_divides(lg, m) for m in f.terms):
                return False
    return True


def pot_lead(column, order: str, block: int = 0) -> tuple[int, tuple[int, ...]]:
    """The position-over-term lead (position, monomial) of a nonzero
    column: its first nonzero entry, the lowest position dominating, and
    that entry's greatest monomial by `textbook_compare`."""
    p = next(i for i, e in enumerate(column) if not e.is_zero())
    key = cmp_to_key(lambda a, b: textbook_compare(a, b, order, block))
    return p, max(column[p].terms, key=key)


def assert_reduced_modulo_ring(columns, ring) -> None:
    """Checks that `columns`, with the ring's reduced relations g in every
    coordinate, form a reduced basis for position-over-term: no column's
    lead divides another's, no lead of g divides a column's lead, every
    entry equals `ring.reduce` of itself, and the leads strictly
    decrease (a lower position, then a greater monomial, is greater)."""
    sig = ring.signature
    relations = ring.defining_basis() if ring.is_quotient else ()
    leads = [pot_lead(tuple(c), sig.order, sig.block) for c in columns]
    ring_leads = [pot_lead((g,), sig.order, sig.block)[1] for g in relations]
    for a, (p, m) in enumerate(leads):
        for b, (q, n) in enumerate(leads):
            assert a == b or p != q or not mono_divides(n, m), (b, a)
        assert not any(mono_divides(g, m) for g in ring_leads), a
        assert all(ring.reduce(e) == e for e in columns[a]), a
    for (p, m), (q, n) in zip(leads, leads[1:]):
        assert p < q or p == q and textbook_compare(m, n, sig.order, sig.block) > 0


def assert_homogeneous(matrix, weights, row_degrees) -> list[int | None]:
    """Checks that every column of `matrix` is homogeneous for the
    weights and row degrees: each term m*e_p of a column has weighted
    degree row_degrees[p] + weights.m, and all terms of a column agree.
    Returns each column's degree (None for a zero column)."""
    degrees = []
    for j, col in enumerate(matrix.columns):
        found = {
            row_degrees[p] + sum(w * e for w, e in zip(weights, m))
            for p, entry in enumerate(col)
            for m in entry.terms
        }
        assert len(found) <= 1, (j, sorted(found))
        degrees.append(found.pop() if found else None)
    return degrees


class RelationColumnTor:
    """Tor_i(M, N) by the relation-column route, over M's ring R: each
    F_k tensor N is N^(rank F_k), with N's relations imposed as extra
    columns in every coordinate, and the kernel and image are taken in
    R itself.  `flatcert.tor` takes Tor against a cyclic N over the fiber
    ring R/I instead; this is the reference it must agree with.

    `witnesses` are the canonical ones: the elements of the reduced
    Groebner basis of kernel + image that are not in the image, each an
    entry tuple over R.  `in_kernel` and `in_image` test a vector of the
    tensored F_i against the kernel and the image of this route."""

    def __init__(self, i: int, M, N):
        mod, other = as_presented_module(M), as_presented_module(N)
        ring = mod.ring
        res = free_resolution(mod, i + 1)
        s = other.rank
        zero = ring.zero()

        def relations(r: int) -> list[tuple[Polynomial, ...]]:
            return [
                tuple(
                    rc[k - pos * s] if pos * s <= k < (pos + 1) * s else zero
                    for k in range(r * s)
                )
                for pos in range(r)
                for rc in other.relations.columns
            ]

        def tensored(d: PolyMatrix) -> PolyMatrix:
            cols = [
                tuple(col[k // s] if k % s == t else zero for k in range(d.nrows * s))
                for col in d.columns
                for t in range(s)
            ]
            return PolyMatrix(ring, d.nrows * s, cols)

        self.witnesses: list[tuple[Polynomial, ...]] = []
        self.in_kernel = lambda v: True
        self.in_image = lambda v: True
        if i > res.length or res.ranks[i] * s == 0:
            self.is_zero = True
            return
        rank = res.ranks[i] * s
        if i == 0:
            one = ring.one()
            ker = [
                tuple(one if k == j else zero for k in range(rank))
                for j in range(rank)
            ]
        else:
            d = tensored(res.differential(i))
            target_rels = relations(res.ranks[i - 1])
            ker = syzygy_entries(d.columns, d.nrows, ring, target_rels)
            target = MembershipBasis(ring, d.nrows, target_rels)
            self.in_kernel = lambda v: target.contains(d.apply(v))
        image_cols = relations(res.ranks[i])
        if i < res.length:
            image_cols += tensored(res.differential(i + 1)).columns
        image = MembershipBasis(ring, rank, image_cols)
        self.in_image = image.contains
        self.is_zero = all(image.contains(v) for v in ker)
        if not self.is_zero:
            span = MembershipBasis(ring, rank, list(ker) + image_cols)
            self.witnesses = [v for v in span.reduced() if not image.contains(v)]


def full_complex_tor(i: int, M, N) -> TorReport:
    """Tor_i(M, N) as the homology at F_i of the whole tensored complex
    F_0 <- ... <- F_(i+1): every differential of the resolution to length
    i + 1 (`syzygy_entries`, so d_(i+1) is a syzygy basis, not `tor`'s
    generators) is tensored with N, over the fiber ring R/I for a cyclic
    N = R/I and with N's relations in every block otherwise."""
    mod, other = as_presented_module(M), as_presented_module(N)
    ring = mod.ring
    res = free_resolution(mod, i + 1)
    if i > res.length:
        return TorReport(i, True, ())
    s = other.rank
    if s == 1:
        base, project = ring.quotient(col[0] for col in other.relations.columns)
        n_rels = ()
    else:
        base, project, n_rels = ring, (lambda f: f), other.relations.columns
    zero = base.zero()

    def tensored(d: PolyMatrix) -> PolyMatrix:
        cols = [
            tuple(
                project(col[k // s]) if k % s == t else zero
                for k in range(d.nrows * s)
            )
            for col in d.columns
            for t in range(s)
        ]
        return PolyMatrix(base, d.nrows * s, cols)

    relations = [
        [(zero,) * (pos * s) + rc + (zero,) * ((r - pos - 1) * s)
         for pos in range(r) for rc in n_rels]
        for r in res.ranks
    ]
    complex_ = ChainComplex(
        base,
        tuple(r * s for r in res.ranks),
        tuple(map(tensored, res.differentials)),
        res.complete,
    )
    is_zero, witnesses = homology_witnesses(complex_, i, relations)
    lifted = tuple(
        ModuleElement(ring, [transplant(e, ring.signature) for e in w.entries])
        for w in witnesses
    )
    return TorReport(i, is_zero, lifted)


def _send_outcome(send, fn, args) -> None:
    try:
        outcome = (True, fn(*args))
    except BaseException:
        outcome = (False, traceback.format_exc())
    send.send(outcome)


def run_with_deadline(seconds: float, fn, *args):
    """fn(*args) in a forked child process, which is killed after
    `seconds`: its result (which must pickle), or AssertionError when it
    ran out of time or raised.  A regression that hangs then fails its
    test instead of stalling the suite."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_send_outcome, args=(send, fn, args))
    child.start()
    send.close()
    try:
        if not receive.poll(seconds):
            raise AssertionError(f"{fn.__name__} ran past {seconds} s")
        finished, value = receive.recv()
    finally:
        child.kill()
        child.join()
        receive.close()
    if not finished:
        raise AssertionError(f"{fn.__name__} raised:\n{value}")
    return value


def _textbook_key(m: tuple[int, ...], order: str) -> tuple:
    """A sort key that ascends with `textbook_compare` under grevlex or
    lex: the higher degree, then the smaller last differing exponent,
    wins under grevlex; the first differing exponent decides under lex."""
    if order == "lex":
        return m
    return (sum(m), tuple(-e for e in reversed(m)))


def induced_orders(differentials, order: str) -> list[list[tuple]]:
    """The order that a chain d_1, d_2, ... induces on its free modules,
    read off the definition (Schreyer; Eisenbud 15.5): F_0 is
    position-over-term, and m*e_i in F_k is compared as m*lt(c_i) in
    F_(k-1), c_i d_k's i-th column and lt its lead there, ties to the
    smaller i.  Unrolled, m*e_i is compared by its image in F_0 (position,
    then monomial), then by its chain of indices (lead positions from F_1
    up to i itself), lexicographically, the smaller first.  Returns, per
    F_k, per basis vector: (F_0 position, total lead monomial, chain)."""
    nvars = differentials[0].ring.signature.nvars
    levels = [[(p, (0,) * nvars, ()) for p in range(differentials[0].nrows)]]
    for d in differentials:
        below = levels[-1]
        here = []
        for i, col in enumerate(d.columns):
            terms = [(p, m) for p, e in enumerate(col) for m in e.terms]
            p, m = max(terms, key=lambda t: induced_key(below, t, order))
            p0, total, chain = below[p]
            here.append((p0, tuple(a + b for a, b in zip(m, total)), chain + (i,)))
        levels.append(here)
    return levels


def induced_key(level: list[tuple], term: tuple, order: str) -> tuple:
    """A sort key of the term (i, m) of a free module whose induced order
    `level` gives (see `induced_orders`): the greater term, the greater key."""
    i, m = term
    p0, total, chain = level[i]
    image = tuple(a + b for a, b in zip(m, total))
    return (-p0, _textbook_key(image, order), tuple(-c for c in chain))


def _induced_remainder(vec: dict, divisors: dict, level, order: str) -> dict:
    """The remainder of vec, {(i, m): c}, on division by `divisors`,
    {i: [(lead monomial, vector)]} of monic vectors, in the induced
    order: the top term is reduced by the first divisor at its position
    whose lead divides it, or else moved to the remainder."""
    vec, rem = dict(vec), {}
    while vec:
        i, m = top = max(vec, key=lambda t: induced_key(level, t, order))
        c = vec.pop(top)
        for lead, divisor in divisors.get(i, ()):
            if all(a >= b for a, b in zip(m, lead)):
                q = tuple(a - b for a, b in zip(m, lead))
                for (j, n), v in divisor.items():
                    t = (j, tuple(a + b for a, b in zip(n, q)))
                    if t != top:
                        vec[t] = vec.get(t, 0) - c * v
                        if not vec[t]:
                            del vec[t]
                break
        else:
            rem[top] = c
    return rem


def schreyer_certificate(d, following, level, order: str) -> bool:
    """Whether `following`'s columns, with the ring's reduced relations g
    in every coordinate, are a Groebner basis for the induced order
    `level` on their rows (F_k, the columns of d): every S-pair of two
    columns with leads at one position, and of a column with g*e_p at
    its lead's position p, reduces to zero.  Also checks d * following
    = 0 in the ring, that `following` spans what the table route of
    `syzygy_entries` gives for d's columns, both ways, and that the
    basis is reduced: monic, by decreasing lead, and no term of a column
    divisible by another column's lead or by a relation's lead."""
    ring = d.ring
    if not d.compose(following).is_zero_in_ring():
        return False
    table_route = syzygy_entries(list(d), d.nrows, ring)
    rank = following.nrows
    if not MembershipBasis(ring, rank, table_route).spans(following):
        return False
    if not MembershipBasis(ring, rank, following).spans(table_route):
        return False
    relations = ring.defining_basis() if ring.is_quotient else ()
    elements = []  # (position, lead monomial, monic vector)
    for col in following.columns:
        vec = {(i, m): c for i, e in enumerate(col) for m, c in e.terms.items()}
        i, m = max(vec, key=lambda t: induced_key(level, t, order))
        lc = vec[(i, m)]
        elements.append((i, m, {t: c / lc for t, c in vec.items()}))
    columns = len(elements)
    keys = [induced_key(level, (i, m), order) for i, m, _ in elements]
    if keys != sorted(keys, reverse=True):
        return False
    leads_at: dict[int, list] = {}
    for a, (i, m, _) in enumerate(elements):
        leads_at.setdefault(i, []).append((a, m))
    ring_leads = [max(g.terms, key=lambda m: _textbook_key(m, order)) for g in relations]
    for a, (i, m, vec) in enumerate(elements):
        if following.columns[a][i].terms[m] != 1:
            return False
        for j, n in vec:
            divisors = [m2 for b, m2 in leads_at.get(j, ()) if b != a] + ring_leads
            if any(all(x >= y for x, y in zip(n, m2)) for m2 in divisors):
                return False
    for g in relations:
        lead = max(g.terms, key=lambda m: _textbook_key(m, order))
        for i in range(rank):
            vec = {(i, m): c / g.terms[lead] for m, c in g.terms.items()}
            elements.append((i, lead, vec))
    divisors: dict[int, list] = {}
    for i, lead, vec in elements:
        divisors.setdefault(i, []).append((lead, vec))
    for a in range(columns):
        for b in range(a + 1, len(elements)):
            (i, ma, va), (j, mb, vb) = elements[a], elements[b]
            if i != j:
                continue
            lcm = tuple(map(max, ma, mb))
            spair = {}
            for vec, lead, sign in ((va, ma, 1), (vb, mb, -1)):
                q = tuple(x - y for x, y in zip(lcm, lead))
                for (k, n), c in vec.items():
                    t = (k, tuple(x + y for x, y in zip(n, q)))
                    spair[t] = spair.get(t, 0) + sign * c
            spair = {t: c for t, c in spair.items() if c}
            if _induced_remainder(spair, divisors, level, order):
                return False
    return True
