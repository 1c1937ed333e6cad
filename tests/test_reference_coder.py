"""`Session` against the bottom-up reference coder, ref by ref.

Both must induce the same partition of the refs the session codes: codes
equal up to renaming, with 0 and 1 fixed.  The session normalizes the
roots first and then every other ref top down.  In ascending order each
child would be coded before its parent, and the pass would take only its
memo path: a code delivered from a frame would never be tested.  Top down,
a chain of nested joins is spliced again under every ref of it, which is
quadratic, so family members above 2^10 nodes compare only the refs that
normalizing the root codes.
"""

import random

import pytest

from ocbsl import Arena, Session, to_internal
from ocbsl.bench import FAMILIES, family_scale, gen_family
from gen import disturbed, random_formula
from reference_coder import reference_codes

NAMES = [f"v{i}" for i in range(8)]
SEED = 13


def _first_disagreement(arena, roots, scheduling, every_ref=True):
    """The first ref where the partitions differ, or None."""
    s = Session(arena, size_scheduling=scheduling)
    for r in roots:
        s.normalize(r)
    if every_ref:
        for r in reversed(range(len(arena._payload))):
            s.normalize(r)
    forward, backward = {0: 0, 1: 1}, {0: 0, 1: 1}
    for r, (got, want) in enumerate(zip(s._node_codes, reference_codes(arena._payload))):
        if got is None:  # spliced, stripped or collapsed, never coded
            continue
        if forward.setdefault(got, want) != want or backward.setdefault(want, got) != got:
            return r
    return None


def _formula_pairs(rng):
    """An arena of random formulas, each beside an equivalent variant."""
    arena, roots = Arena(), []
    for _ in range(40):
        f = random_formula(rng, rng.randint(1, 120), NAMES)
        roots += (to_internal(f, arena), to_internal(disturbed(rng, f), arena))
    return arena, roots, True


def _shared_dag(rng):
    """An arena built with the builders, each node over random earlier ones."""
    arena = Arena()
    refs = [arena.zero(), arena.one()] + [arena.var(name) for name in NAMES[:5]]
    for _ in range(rng.randint(20, 400)):
        pick = refs if rng.random() < 0.3 else refs[-12:]  # mostly recent: deep DAGs
        if rng.random() < 0.35:
            refs.append(arena.neg(rng.choice(pick)))
        else:
            refs.append(arena.join(tuple(rng.choice(pick) for _ in range(rng.randint(1, 4)))))
    return arena, refs[-3:], True


def _random_arenas(make, count):
    rng = random.Random(SEED)
    return [make(rng) for _ in range(count)]


def _families():
    for family in FAMILIES:
        for e in range(4, 13):
            arena = Arena()
            yield arena, [to_internal(gen_family(family, family_scale(family, 2**e)), arena)], e <= 10


@pytest.mark.parametrize("scheduling", [True, False])
@pytest.mark.parametrize(
    "inputs",
    [lambda: _random_arenas(_formula_pairs, 40), lambda: _random_arenas(_shared_dag, 200), _families],
    ids=["formula-pairs", "shared-dags", "families"],
)
def test_session_partitions_refs_as_the_reference_coder_does(inputs, scheduling):
    for i, (arena, roots, every_ref) in enumerate(inputs()):
        r = _first_disagreement(arena, roots, scheduling, every_ref)
        assert r is None, (i, r, arena._payload[r])
