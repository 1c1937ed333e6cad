"""A seeded search for input shapes on which the fused pass is superlinear.

A template is a random surface formula of 3-9 nodes with one hole H; its
other leaves are fresh per level (x, y plus the level number), a fixed
name (y, z) or a constant.  Unrolling it fills H with the previous level,
starting from a variable, so each level adds the template's size less
one.  The work counters are exact, so the growth of a template's
`nodes_visited + merge_work + a9_probe_work + a2_flattens` between 2^9
and 2^12 surface nodes is a deterministic log-log slope: near 1 for a
linear shape, near 2 for a quadratic one.
"""

from __future__ import annotations

import random

from ocbsl import Arena, Session, print_formula, to_internal
from ocbsl.bench import fit_exponent
from ocbsl.syntax import And, Const, Not, Or, Var

SEED = 1
TEMPLATES = 300
EXPONENTS = range(9, 13)


def _template(rng: random.Random, nodes: int) -> list:
    """A nested-list template of `nodes` surface nodes with one hole."""
    leaves: list[list] = []

    def build(budget: int) -> list:
        if budget == 1:
            leaf: list = []
            leaves.append(leaf)
            return leaf
        kind = rng.choice(("not", "and", "or"))
        if kind == "not" or budget == 2:
            return ["not", build(budget - 1)]
        k = rng.randint(2, min(3, budget - 1))
        cuts = sorted(rng.sample(range(1, budget - 1), k - 1))
        return [kind, [build(b - a) for a, b in zip([0, *cuts], [*cuts, budget - 1])]]

    template = build(nodes)
    hole = rng.randrange(len(leaves))
    for i, leaf in enumerate(leaves):
        r = rng.random()
        if i == hole:
            leaf += ["hole"]
        elif r < 0.5:
            leaf += ["fresh", rng.choice("xy")]
        elif r < 0.85:
            leaf += ["var", rng.choice("yz")]
        else:
            leaf += ["const", rng.randint(0, 1)]
    return template


def _fill(t: list, level: int, inner):
    head = t[0]
    if head == "hole":
        return inner
    if head == "fresh":
        return Var(f"{t[1]}{level}")
    if head == "var":
        return Var(t[1])
    if head == "const":
        return Const(t[1])
    if head == "not":
        return Not(_fill(t[1], level, inner))
    kids = tuple(_fill(c, level, inner) for c in t[1])
    return And(kids) if head == "and" else Or(kids)


def _slope(template: list, nodes: int, scheduling: bool) -> float:
    """Log-log slope of the work counters over the unrolled sizes."""
    per_level = nodes - 1  # the hole is replaced
    stops = [(2**e - 1) // per_level for e in EXPONENTS]
    f = Var("h")
    sizes, work = [], []
    for level in range(1, stops[-1] + 1):
        f = _fill(template, level, f)
        if level in stops:
            arena = Arena()
            s = Session(arena, size_scheduling=scheduling)
            s.normalize(to_internal(f, arena))
            st = s.stats
            sizes.append(1 + level * per_level)
            work.append(st.nodes_visited + st.merge_work + st.a9_probe_work + st.a2_flattens)
    return fit_exponent(sizes, work)


def _templates():
    rng = random.Random(SEED)
    for _ in range(TEMPLATES):
        nodes = rng.randint(3, 9)
        template = _template(rng, nodes)
        yield print_formula(_fill(template, 1, Var("H"))), template, nodes


def test_no_template_unrolls_superlinearly():
    slopes = {text: _slope(t, nodes, True) for text, t, nodes in _templates()}
    steep = {text: round(slope, 3) for text, slope in slopes.items() if slope > 1.2}
    assert not steep, steep


def test_search_finds_the_stored_order_quadratic():
    # the control: without the smallest-first schedule a revealed nesting
    # is coded level by level, and the same search finds it
    for text, t, nodes in _templates():
        if _slope(t, nodes, False) > 1.7:
            return
    raise AssertionError("no template above slope 1.7 with size_scheduling=False")
