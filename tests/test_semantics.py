import itertools
import random

import pytest

from ocbsl import Arena, parse, to_internal
from ocbsl.semantics import boolean_equivalent, eval_formula, eval_term, term_variables


def build(text):
    arena = Arena()
    return arena, to_internal(parse(text), arena)


def test_eval_examples():
    arena, t = build("a | !a")
    assert eval_term(arena, t, {"a": 0}) == 1
    assert eval_term(arena, t, {"a": 1}) == 1
    arena, t = build("!1")
    assert eval_term(arena, t, {}) == 0
    arena, t = build("0 | b")
    assert eval_term(arena, t, {"b": 0}) == 0
    assert eval_term(arena, t, {"b": 1}) == 1


def test_eval_unbound_variable():
    arena, t = build("a | b")
    with pytest.raises(ValueError):
        eval_term(arena, t, {"a": 1})


def test_term_variables():
    arena, t = build("b | (a & !c)")
    assert term_variables(arena, t) == ["a", "b", "c"]


def test_variable_cap():
    arena = Arena()
    wide = arena.join(tuple(arena.var(f"v{i:02d}") for i in range(21)))
    with pytest.raises(ValueError):
        boolean_equivalent(arena, wide, wide)


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
    rng = random.Random(41)
    names = ["a", "b", "c"]
    pool = [
        "a | b & !c",
        "!(a & (b | c))",
        "a & !a",
        "(a | b) & (b | c) & !0",
        "!!(a & b) | c",
        "1 & (a | !b)",
    ]
    for text in pool:
        arena, t = build(text)
        used = term_variables(arena, t)
        for bits in itertools.product((0, 1), repeat=len(used)):
            assignment = dict(zip(used, bits))
            single = eval_term(arena, t, assignment)
            agree = boolean_equivalent(
                arena, t, arena.one() if single else arena.zero()
            )
            # t is equivalent to a constant only if constant on all rows
            if agree:
                for bits2 in itertools.product((0, 1), repeat=len(used)):
                    assert eval_term(arena, t, dict(zip(used, bits2))) == single
    # spot-check that the packed comparison agrees with row-by-row equality
    for _ in range(50):
        t1 = rng.choice(pool)
        t2 = rng.choice(pool)
        arena = Arena()
        r1 = to_internal(parse(t1), arena)
        r2 = to_internal(parse(t2), arena)
        used = sorted(set(term_variables(arena, r1)) | set(term_variables(arena, r2)))
        rows_equal = all(
            eval_term(arena, r1, dict(zip(used, bits)))
            == eval_term(arena, r2, dict(zip(used, bits)))
            for bits in itertools.product((0, 1), repeat=len(used))
        )
        assert boolean_equivalent(arena, r1, r2) == rows_equal


def test_translation_preserves_boolean_semantics():
    rng = random.Random(43)
    names = ["p", "q", "r", "s"]
    from gen import random_formula

    for _ in range(300):
        f = random_formula(rng, rng.randint(1, 18), names)
        arena = Arena()
        ref = to_internal(f, arena)
        for bits in itertools.product((0, 1), repeat=len(names)):
            assignment = dict(zip(names, bits))
            assert eval_formula(f, assignment) == eval_term(arena, ref, assignment)


def test_eval_formula_deep_chain():
    # a 2,000-deep right-nested chain, as parse gives it, must not hit the recursion limit
    depth = 2000
    text = "x0"
    for i in range(1, depth):
        text = f"x{i} | ({text})"
    f = parse(text)
    assignment = {f"x{i}": 0 for i in range(depth)}
    assert eval_formula(f, assignment) == 0
    assignment["x0"] = 1
    assert eval_formula(f, assignment) == 1
    assert eval_formula(("not", f), assignment) == 0


@pytest.mark.parametrize(
    "bad",
    [("foo", (("1",),)), ("not",), ("or", ()), ("and", [("1",)]), ("var",), (), "a", ("or", (("bar",),))],
)
def test_eval_formula_rejects_malformed_nodes(bad):
    with pytest.raises(ValueError):
        eval_formula(bad, {})
