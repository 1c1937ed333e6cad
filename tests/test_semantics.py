import random

import pytest

from ocbsl import Arena, Const, parse, to_internal
from ocbsl.semantics import _term_tables, boolean_equivalent, formula_table
from gen import random_formula

POOL = [
    "a | b & !c",
    "!(a & (b | c))",
    "a & !a",
    "(a | b) & (b | c) & !0",
    "!!(a & b) | c",
    "1 & (a | !b)",
]


def build(text):
    arena = Arena()
    return arena, to_internal(parse(text), arena)


def substitute(f, assignment):
    """f with every variable replaced by its constant under assignment."""
    head = f[0]
    if head == "var":
        return Const(assignment[f[1]])
    if head == "not":
        return ("not", substitute(f[1], assignment))
    if head == "and" or head == "or":
        return (head, tuple(substitute(c, assignment) for c in f[1]))
    return f


def test_eval_examples():
    # bit a of a table is row a; name i is bit i of the row index
    assert formula_table(parse("a | !a"), ["a"]) == 0b11
    assert formula_table(parse("!1"), []) == 0
    assert formula_table(parse("0 | b"), ["b"]) == 0b10
    assert formula_table(parse("a & !b"), ["a", "b"]) == 0b0010
    assert formula_table(parse("a & !b"), ["b", "a"]) == 0b0100


def test_eval_unbound_variable():
    with pytest.raises(ValueError, match="unbound variable 'b'"):
        formula_table(parse("a | b"), ["a"])


def test_term_variables():
    arena, t = build("b | (a & !c)")
    u = to_internal(parse("d & a"), arena)
    assert _term_tables(arena, [t])[0] == ["a", "b", "c"]
    assert _term_tables(arena, [t, u])[0] == ["a", "b", "c", "d"]


def test_variable_cap():
    arena = Arena()
    names = [f"v{i:02d}" for i in range(21)]
    wide = arena.join(tuple(arena.var(name) for name in names))
    with pytest.raises(ValueError, match="exceeds the cap"):
        boolean_equivalent(arena, wide, wide)
    with pytest.raises(ValueError, match="exceeds the cap"):
        formula_table(("var", "v00"), names)


def test_boolean_equivalent_examples():
    arena = Arena()
    lhs = to_internal(parse("x | (x & y)"), arena)
    rhs = to_internal(parse("x"), arena)
    # Boolean algebra proves absorption even though the normalizer must not
    assert boolean_equivalent(arena, lhs, rhs)
    assert not boolean_equivalent(
        arena, to_internal(parse("a"), arena), to_internal(parse("b"), arena)
    )
    assert boolean_equivalent(
        arena, to_internal(parse("!(a & b)"), arena), to_internal(parse("!a | !b"), arena)
    )


def test_packed_tables_match_pointwise_eval():
    # Row a of each packed table must be the value of the closed formula
    # with every variable replaced by its constant in that row, for the
    # surface evaluator and the arena one alike.
    rng = random.Random(41)
    names = ["a", "b", "c"]
    formulas = [parse(text) for text in POOL]
    formulas += [random_formula(rng, rng.randint(1, 14), names) for _ in range(60)]
    for f in formulas:
        table = formula_table(f, names)
        arena = Arena()
        for row in range(1 << len(names)):
            assignment = {name: (row >> i) & 1 for i, name in enumerate(names)}
            closed = substitute(f, assignment)
            value = formula_table(closed, [])
            assert value in (0, 1)
            assert (table >> row) & 1 == value, (f, row)
            assert _term_tables(arena, [to_internal(closed, arena)]) == ([], [value])


def test_translation_preserves_boolean_semantics():
    # The packed table of a surface formula equals that of its interned
    # term, so the de Morgan step of `to_internal` is checked on its own;
    # `boolean_equivalent` then agrees with equality of surface tables.
    rng = random.Random(43)
    names = ["p", "q", "r", "s"]
    for _ in range(300):
        f = random_formula(rng, rng.randint(1, 18), names)
        g = random_formula(rng, rng.randint(1, 18), names)
        arena = Arena()
        rf = to_internal(f, arena)
        rg = to_internal(g, arena)
        used, (table,) = _term_tables(arena, [rf])
        assert table == formula_table(f, used)
        surface_equal = formula_table(f, names) == formula_table(g, names)
        assert boolean_equivalent(arena, rf, rg) == surface_equal


def test_eval_formula_deep_chain():
    # 2,000-deep right-nested chains, as parse gives them, must not hit the recursion limit
    names = ["x0", "x1", "x2"]
    for op, expected in (("|", 0b11111110), ("&", 0b10000000)):
        text = "x0"
        for i in range(1, 2000):
            text = f"x{i % 3} {op} ({text})"
        f = parse(text)
        assert formula_table(f, names) == expected
        assert formula_table(("not", f), names) == 0b11111111 ^ expected


@pytest.mark.parametrize(
    "bad",
    [
        ("foo", (("1",),)),
        ("not",),
        ("or", ()),
        ("and", [("1",)]),
        ("var",),
        (),
        "a",
        ("or", (("bar",),)),
        # an unhashable name, which must not escape as the lookup's TypeError
        ("var", ["x"]),
        ("var", {"x": 1}),
    ],
)
def test_eval_formula_rejects_malformed_nodes(bad):
    with pytest.raises(ValueError):
        formula_table(bad, ["x"])
