"""Rule-inverse mutations: large formula pairs whose verdict is known.

Each random formula f of a few hundred to a few thousand nodes is built
bottom up, and beside it two variants:

* g, in which random subterms s are replaced by a term that one rule, run
  backwards, makes equal to s (`MUTATIONS`).  f and g must be
  `equivalent` with size scheduling on and off.  The two modes share
  `_finish_join` but not the child schedule or the collapse seam, so this
  is a differential check of the fused pass far beyond the sizes the
  exhaustive oracles reach.
* h, in which one child of a join is dropped or one variable is renamed,
  which no rule allows.  Faults are drawn until the packed truth tables
  of f and h differ, and then g and h must be `not-equivalent`.
"""

import random

import pytest

from ocbsl import Arena, Session, formula_nodes, to_internal
from ocbsl.semantics import formula_table
from gen import disturbed, random_formula

NAMES = [f"v{i}" for i in range(10)]
SEED = 11
FORMULAS = 50
COPY_CAP = 40  # largest subterm `_or_copy` copies; it wraps a larger one in `!!`
TRIES = 40  # faults drawn per formula in search of one that changes its function


def _small(rng):
    return random_formula(rng, rng.randint(1, 6), NAMES)


def _double_negation(rng, s):
    return ("not", ("not", s))  # A6


def _or_zero(rng, s):
    return ("or", (s, ("0",)))  # A5


def _or_not_one(rng, s):
    return ("or", (s, ("not", ("1",))))  # A11, then A5


def _or_copy(rng, s):
    # A3 across handles: the copy is equal only after normalization
    if formula_nodes(s) > COPY_CAP:
        return ("not", ("not", s))
    return ("or", (s, disturbed(rng, s)))


def _or_contradiction(rng, s):
    t = _small(rng)
    return ("or", (s, ("and", (t, ("not", disturbed(rng, t))))))  # A7 under a negation


def _and_tautology(rng, s):
    t = _small(rng)
    return ("and", (s, ("or", (t, ("not", disturbed(rng, t))))))  # A7, then A11 and A5


def _and_a9(rng, s):
    ys = [_small(rng) for _ in range(rng.randint(2, 4))]
    return ("and", (s, ("or", (*ys, ("not", ("or", tuple(reversed(ys))))))))  # A9


MUTATIONS = (
    _double_negation,
    _or_zero,
    _or_not_one,
    _or_copy,
    _or_contradiction,
    _and_tautology,
    _and_a9,
)


def mutated_pair(rng, leaves, p_mutate):
    """(f, g) over NAMES, built bottom up without recursion.

    A pool of (f, g) subterms starts as `leaves` variables and constants
    and is combined at random until one pair is left.  At each step g
    replaces its new subterm by a mutation with probability p_mutate.
    """
    pool = []
    for _ in range(leaves):
        leaf = ("var", rng.choice(NAMES)) if rng.random() < 0.9 else (str(rng.randint(0, 1)),)
        pool.append((leaf, leaf))
    while len(pool) > 1:
        head = rng.choice(("not", "and", "or"))
        k = 1 if head == "not" else min(len(pool), rng.randint(2, 4))
        parts = []
        for _ in range(k):
            i = rng.randrange(len(pool))
            pool[i], pool[-1] = pool[-1], pool[i]
            parts.append(pool.pop())
        fs, gs = zip(*parts)
        if head == "not":
            f, g = ("not", fs[0]), ("not", gs[0])
        else:
            f, g = (head, fs), (head, gs)
        if rng.random() < p_mutate:
            g = rng.choice(MUTATIONS)(rng, g)
        pool.append((f, g))
    return pool[0]


def planted_fault(rng, f):
    """f with one join child dropped or one variable renamed, or None.

    The fault sits at the end of a random walk down from the root that
    stops at each join with probability 1/2: a large random formula is
    insensitive to most deep faults, so this plants near the top.  None
    when the walk ends at a constant.
    """
    path = []
    t = f
    while True:
        head = t[0]
        if head == "var":
            fault = ("var", rng.choice([n for n in NAMES if n != t[1]]))
            break
        if head == "not":
            path.append((t, 0))
            t = t[1]
            continue
        if head != "or" and head != "and":
            return None
        i = rng.randrange(len(t[1]))
        if rng.random() < 0.5:
            fault = (head, t[1][:i] + t[1][i + 1 :])
            break
        path.append((t, i))
        t = t[1][i]
    for parent, i in reversed(path):
        kids = parent[1]
        fault = ("not", fault) if parent[0] == "not" else (parent[0], kids[:i] + (fault,) + kids[i + 1 :])
    return fault


@pytest.mark.parametrize("scheduling", [True, False])
def test_rule_inverse_mutations(scheduling):
    rng = random.Random(SEED)
    differing = 0
    for _ in range(FORMULAS):
        f, g = mutated_pair(rng, rng.randint(100, 1500), rng.uniform(0.05, 0.3))
        table = formula_table(f, NAMES)
        assert formula_table(g, NAMES) == table  # the mutations are Boolean-sound
        arena = Arena()
        session = Session(arena, size_scheduling=scheduling)
        rg = to_internal(g, arena)
        assert session.equivalent(to_internal(f, arena), rg), (formula_nodes(f), formula_nodes(g))
        for _ in range(TRIES):
            h = planted_fault(rng, f)
            if h is not None and formula_table(h, NAMES) != table:
                differing += 1
                assert not session.equivalent(rg, to_internal(h, arena)), formula_nodes(h)
                break
    assert differing >= FORMULAS * 3 // 4
