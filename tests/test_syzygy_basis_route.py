"""`syzygy_entries` against the full augmented table it replaced.

`syzygy_entries` takes the syzygies that the engine's generator mode
collects, enters them in a rank-m table that carries the ring's reduced
basis in every coordinate (entered once, as the run's relations), and
reads off that table's reduced basis without the elements led by
lt(g)*e_j for a ring basis element g, which are the ring's own.  The
reference here is the earlier route: one table over the augmented
columns (each column with a unit tracker below it, an explicit copy of
the ring's basis in every head coordinate, then the extra relations),
which keeps every S-pair, its reduced basis elements with a lead in the
tracker block but not led by an lt(g)*e_j, and `ring.reduce` on each of
their entries, with vectors that vanish in the ring and repeats
dropped.  The reduced basis of the syzygy module is unique for the
order, so both routes must return the same vectors in the same order,
and each must be a reduced basis modulo the ring
(`helpers.assert_reduced_modulo_ring`): on the columns of the pinned
resolutions' differentials, and on seeded random columns over quotient
rings under grevlex, lex and block orders, with and without extra
relations.  The pinned resolutions' own steps from d_2 on are bases for
the order that d_1's leads induce (see `tests/test_schreyer_steps.py`),
so they must span what the augmented table spans.
"""

import random

import pytest

import flatcert.modules as modules
from flatcert import (
    BLOCK,
    GREVLEX,
    LEX,
    MembershipBasis,
    PolyMatrix,
    PresentedRing,
    RingSignature,
    free_resolution,
    parse_polynomial,
)
from flatcert.cli import bundled_case_text
from flatcert.modules import syzygy_entries
from flatcert.script import execute_text
from helpers import assert_reduced_modulo_ring, pot_lead, random_poly


def augmented_table_syzygies(columns, nrows, ring, extra_relations=()):
    """The syzygy basis by one augmented table that keeps every pair
    (relation count 0, so even the ring's basis, copied into each head
    position, forms pairs), without the elements led by lt(g)*e_j,
    reduced modulo the ring entry by entry."""
    m = len(columns)
    ring_basis = ring.defining_basis() if ring.is_quotient else ()

    def run(pk):
        head = nrows << pk.shift
        # Explicit copies g*e_p of each ring basis element, one per head
        # position, entered as ordinary inputs.
        gens = [
            {t + (p << pk.shift): c for t, c in vp.items()}
            for vp in modules._defining_vps(ring_basis, pk)
            for p in range(nrows)
        ]
        for j, col in enumerate(columns):
            vp = modules._vp_from_entries(col, pk)
            vp[(nrows + j) << pk.shift] = 1
            gens.append(vp)
        gens += [modules._vp_from_entries(col, pk) for col in extra_relations]
        table = modules._module_buchberger(gens, pk, nrows + m, None, 0)
        return [
            modules._entries_from_vp(
                {t - head: c for t, c in vp.items()}, pk, ring.signature, m
            )
            for vp in modules._reduced(*table, pk)
            if next(iter(vp)) >= head
        ]

    sig = ring.signature
    ring_leads = [pot_lead((g,), sig.order, sig.block)[1] for g in ring_basis]
    out = []
    for v in modules._packed_run(ring, run):
        if pot_lead(v, sig.order, sig.block)[1] in ring_leads:
            continue  # g*e_j, its tail reduced by the syzygies below it
        v = tuple(ring.reduce(e) for e in v)
        if any(not e.is_zero() for e in v) and v not in out:
            out.append(v)
    return out


# (case, module, number of differentials) of each pinned resolution, as
# in `tests/test_exact_outputs.py`.
RESOLUTIONS = (("francia.fc", "J", 3), ("neg2_graph.fc", "J", 4))


@pytest.mark.parametrize("order", (GREVLEX, LEX))
@pytest.mark.parametrize("filename,name,length", RESOLUTIONS)
def test_the_pinned_differentials_match_the_augmented_table(
    order, filename, name, length
):
    _, env = execute_text(bundled_case_text(filename), order, declarations_only=True)
    differentials = free_resolution(env[name], length).differentials
    assert_reduced_modulo_ring(differentials[0], differentials[0].ring)
    for d, following in zip(differentials, differentials[1:]):
        expected = augmented_table_syzygies(d.columns, d.nrows, d.ring)
        rank = following.nrows
        assert MembershipBasis(d.ring, rank, expected).spans(following)
        assert MembershipBasis(d.ring, rank, following).spans(
            PolyMatrix(d.ring, rank, expected)
        )
        got = list(syzygy_entries(d.columns, d.nrows, d.ring))
        assert_reduced_modulo_ring(got, d.ring)
        assert got == expected


ORDERS = ((GREVLEX, 0), (LEX, 0), (BLOCK, 1), (BLOCK, 2))

RINGS = (
    ("xyz", ["x*y - z^2"]),
    ("xyz", ["x^2 - y*z", "y^2 - x*z"]),
    ("xyzw", ["x*z - y^2", "x*w - y*z", "y*w - z^2"]),
)


def _random_columns(rng, ring, nrows, count):
    return [
        tuple(
            random_poly(rng, ring.signature) if rng.random() < 0.7 else ring.zero()
            for _ in range(nrows)
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("order,block", ORDERS)
def test_random_columns_match_the_augmented_table(order, block):
    nonempty = 0
    for seed in range(36):
        rng = random.Random(f"{order}:{block}:{seed}")
        variables, defining = RINGS[seed % len(RINGS)]
        sig = RingSignature(tuple(variables), order, block)
        ring = PresentedRing(sig, [parse_polynomial(p, sig) for p in defining])
        nrows = rng.randint(1, 2)
        columns = _random_columns(rng, ring, nrows, rng.randint(1, 3))
        extra = _random_columns(rng, ring, nrows, 1) if seed % 2 else []
        got = list(syzygy_entries(columns, nrows, ring, extra))
        assert_reduced_modulo_ring(got, ring)
        assert got == augmented_table_syzygies(columns, nrows, ring, extra)
        nonempty += bool(got)
    assert nonempty >= 24
