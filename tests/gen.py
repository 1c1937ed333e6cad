"""Seeded random formula generation shared by tests."""

from ocbsl.syntax import And, Const, Not, Or, Var


def random_formula(rng, budget, names):
    """A surface formula with roughly `budget` nodes."""
    if budget <= 1:
        if rng.random() < 0.12:
            return Const(rng.randint(0, 1))
        return Var(rng.choice(names))
    kind = rng.choice(("not", "and", "or"))
    if kind == "not":
        return Not(random_formula(rng, budget - 1, names))
    k = rng.randint(2, min(4, max(2, budget - 1)))
    parts, rem = [], budget - 1
    for i in range(k):
        b = rem - (k - 1 - i) if i == k - 1 else rng.randint(1, max(1, rem - (k - 1 - i)))
        parts.append(random_formula(rng, b, names))
        rem -= b
    cons = And if kind == "and" else Or
    return cons(tuple(parts))


def disturbed(rng, f):
    """An equivalent variant: children permuted, double negations inserted."""
    head = f[0]
    if head == "not":
        g = Not(disturbed(rng, f[1]))
    elif head == "and" or head == "or":
        kids = [disturbed(rng, c) for c in f[1]]
        rng.shuffle(kids)
        g = (head, tuple(kids))
    else:
        g = f
    if rng.random() < 0.15:
        g = Not(Not(g))
    return g


def random_term(rng, nodes, names):
    """An internal `rewrite` term of exactly `nodes` nodes.

    Joins take 1-4 children, so single-child joins occur too.
    """
    if nodes == 1:
        if rng.random() < 0.15:
            return (rng.choice("01"),)
        return ("var", rng.choice(names))
    if rng.random() < 0.3:
        return ("not", random_term(rng, nodes - 1, names))
    k = rng.randint(1, min(4, nodes - 1))
    cuts = sorted(rng.sample(range(1, nodes - 1), k - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, nodes - 1])]
    return ("or", tuple(random_term(rng, s, names) for s in sizes))
