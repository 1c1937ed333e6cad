"""The laws of the theory, checked on surface formulas.

An orthocomplemented bisemilattice satisfies the laws of an ortholattice
except absorption: `|` and `&` are commutative, associative and
idempotent, `0` and `1` bound both, and `!` is an involution that swaps
them by de Morgan's laws and complements every element.  The laws below
state that usual definition, with `&` a primitive of its own; the paper's
text is not in the repository, so they do not follow its numbering.  They
are not the rule list that the checker and the rewrite oracle were both
written from (A2-A11 in `rewrite`), so a law the list misses fails here
although the engine and the oracle agree.  Absorption and distributivity
do not hold; `test_normalize`'s `test_absorption_and_distributivity_do_not_hold`
checks that side.

Each law is a pair of templates over the metavariables x, y and z.  It is
checked instantiated with random formulas inside a random one-hole
context, and by random equational walks that apply laws in either
direction at random positions.
"""

import random

from ocbsl import And, Arena, Const, Not, Or, Session, to_internal
from gen import random_formula

x, y, z = "x", "y", "z"  # metavariables: a bare string is no formula
ZERO, ONE = Const(0), Const(1)
LAWS = {
    "| commutative": (Or((x, y)), Or((y, x))),
    "& commutative": (And((x, y)), And((y, x))),
    "| associative": (Or((x, Or((y, z)))), Or((Or((x, y)), z))),
    "& associative": (And((x, And((y, z)))), And((And((x, y)), z))),
    "| idempotent": (Or((x, x)), x),
    "& idempotent": (And((x, x)), x),
    "0 unit of |": (Or((x, ZERO)), x),
    "1 annihilates |": (Or((x, ONE)), ONE),
    "1 unit of &": (And((x, ONE)), x),
    "0 annihilates &": (And((x, ZERO)), ZERO),
    "involution": (Not(Not(x)), x),
    "de Morgan for |": (Not(Or((x, y))), And((Not(x), Not(y)))),
    "de Morgan for &": (Not(And((x, y))), Or((Not(x), Not(y)))),
    "excluded middle": (Or((x, Not(x))), ONE),
    "noncontradiction": (And((x, Not(x))), ZERO),
}
DIRECTED_LAWS = [pair for lhs, rhs in LAWS.values() for pair in ((lhs, rhs), (rhs, lhs))]
NAMES = "abcd"


def _formula(rng):
    return random_formula(rng, rng.randint(1, 12), NAMES)


def _fill(template, env, rng):
    """The template with its metavariables bound by env; unbound ones get new formulas."""
    if isinstance(template, str):
        if template not in env:
            env[template] = _formula(rng)
        return env[template]
    if template[0] == "not":
        return Not(_fill(template[1], env, rng))
    if template[0] in ("and", "or"):
        return (template[0], tuple(_fill(t, env, rng) for t in template[1]))
    return template


def _match(template, f, env) -> bool:
    """Whether f is an instance of the template; binds env's metavariables."""
    if isinstance(template, str):
        return env.setdefault(template, f) == f
    if template[0] != f[0]:
        return False
    if template[0] == "not":
        return _match(template[1], f[1], env)
    if template[0] in ("and", "or"):
        return len(template[1]) == len(f[1]) and all(_match(t, c, env) for t, c in zip(template[1], f[1]))
    return True


def _context(rng):
    """A random one-hole context of 0-3 levels, as a function of its filler."""
    frames = []
    for _ in range(rng.randint(0, 3)):
        siblings = [_formula(rng) for _ in range(rng.randint(0, 2))]  # none: a negation
        frames.append((rng.choice(("and", "or")), siblings, rng.randint(0, len(siblings))))

    def fill(f):
        for head, siblings, i in frames:
            f = (head, (*siblings[:i], f, *siblings[i:])) if siblings else Not(f)
        return f

    return fill


def _equivalent(lhs, rhs) -> bool:
    arena = Arena()
    return Session(arena).equivalent(to_internal(lhs, arena), to_internal(rhs, arena))


def test_laws_hold_in_random_contexts():
    rng = random.Random(7)
    for _ in range(400):
        env = {v: _formula(rng) for v in (x, y, z)}
        for name, (lhs, rhs) in LAWS.items():
            context = _context(rng)
            before, after = context(_fill(lhs, env, rng)), context(_fill(rhs, env, rng))
            # both directions, each side normalized first in a fresh session
            assert _equivalent(before, after) and _equivalent(after, before), (name, before, after)


def _step(rng, f):
    """f with one law applied, in either direction, at a random position."""
    if f[0] == "not" and rng.random() < 0.5:
        return Not(_step(rng, f[1]))
    if f[0] in ("and", "or") and rng.random() < 0.5:
        children = list(f[1])
        i = rng.randrange(len(children))
        children[i] = _step(rng, children[i])
        return (f[0], tuple(children))
    for source, target in rng.sample(DIRECTED_LAWS, len(DIRECTED_LAWS)):  # `x` alone matches any f
        env = {}
        if _match(source, f, env):
            return _fill(target, env, rng)


def test_random_equational_walks_stay_equivalent():
    rng = random.Random(8)
    for _ in range(1000):
        start = end = _formula(rng)
        for _ in range(rng.randint(1, 16)):
            end = _step(rng, end)
        assert _equivalent(start, end), (start, end)
