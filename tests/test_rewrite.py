import math
import random

import pytest

from ocbsl import rewrite
from ocbsl.rewrite import (
    ONE,
    ZERO,
    RewriteBudgetError,
    applicable_steps,
    canonicalize,
    join,
    neg,
    node_count,
    normal_form,
    oracle_equivalent,
    trace_normal_form,
    var,
)
from enum_terms import enumerate_terms
from gen import random_term

A = var("a")
B = var("b")


def rules_at(t, position=None):
    return sorted(
        s.rule for s in applicable_steps(t) if position is None or s.position == position
    )


def test_steps_complement():
    t = join(A, neg(A))
    steps = applicable_steps(t)
    assert [s.rule for s in steps] == ["A7"]
    assert steps[0].after == ONE
    assert steps[0].position == ()


def test_steps_variable_is_normal():
    assert applicable_steps(A) == []


def test_steps_double_negation_overlapping_complement():
    t = join(neg(A), neg(neg(A)))
    rules = {(s.rule, s.position, s.after) for s in applicable_steps(t)}
    assert ("A7", (), ONE) in rules
    assert ("A6", (1,), join(neg(A), A)) in rules


def test_steps_cover_each_rule():
    assert rules_at(join(A, join(A, B)), ()) == ["A2"]
    assert rules_at(join(A), ()) == ["A2b"]
    assert rules_at(join(A, A), ()) == ["A3"]
    assert "A4" in rules_at(join(ONE, A), ())
    assert "A5" in rules_at(join(ZERO, A), ())
    assert rules_at(neg(neg(A)), ()) == ["A6"]
    assert "A9" in rules_at(join(A, B, neg(join(B))), ())
    assert rules_at(neg(ZERO), ()) == ["A10"]
    assert rules_at(neg(ONE), ()) == ["A11"]


def test_a3_matches_modulo_commutativity():
    t = join(join(A, B), join(B, A))
    assert "A3" in rules_at(t, ())


def test_a5_never_empties_a_join():
    assert rules_at(join(ZERO), ()) == ["A2b"]
    with pytest.raises(ValueError, match="at least one child"):
        join()


def test_a9_is_multiset_inclusion():
    assert "A9" in rules_at(join(A, B, neg(join(A, B))), ())
    assert "A9" in rules_at(join(B, A, neg(join(A, B))), ())
    # y-children must all be present with multiplicity
    assert "A9" not in rules_at(join(A, neg(join(A, A))), ())
    assert "A9" in rules_at(join(A, A, neg(join(A, A))), ())


def test_normal_forms():
    assert normal_form(join(ZERO, neg(ZERO))) == ONE
    assert normal_form(A) == A
    assert normal_form(neg(neg(A))) == A
    assert normal_form(join(B, A)) == join(A, B)  # canonical child order
    assert normal_form(join(A, join(B, A))) == join(A, B)


def test_normal_form_of_revealed_flat_join():
    # zero-valued subterms hide the final flat join until they reduce
    z1 = neg(join(var("v1"), neg(var("v1"))))
    z2 = neg(join(var("v2"), neg(var("v2"))))
    x = [var(f"x{i}") for i in range(1, 5)]
    t = join(x[0], neg(join(z1, neg(join(x[1], neg(join(z2, neg(join(x[2], x[3])))))))))
    assert normal_form(t) == join(*x)


def test_budget():
    t = join(ZERO, A)
    with pytest.raises(RewriteBudgetError):
        normal_form(t, budget=0)
    with pytest.raises(RewriteBudgetError, match="within 0 steps"):
        normal_form(t, strategy="rightmost-outermost", budget=0)
    nf, steps = trace_normal_form(t)
    assert nf == A
    assert len(steps) <= node_count(t)


def test_strategy_independence_random():
    rng = random.Random(23)
    for t in rng.sample(enumerate_terms(7), 800):
        assert normal_form(t) == normal_form(t, strategy="rightmost-outermost")


RULE_ORDER = ["A2", "A2b", "A3", "A4", "A5", "A6", "A7", "A9", "A10", "A11"]


def leftmost_innermost_key(step):
    # post-order position (a path's extensions before the path), then rule
    return (step.position + (math.inf,), RULE_ORDER.index(step.rule))


def test_leftmost_innermost_matches_brute_force_definition():
    # Each step of the resuming walk is the least of all the term's redexes
    # under the leftmost-innermost order, and the walk stops only at a term
    # with no redex at all.
    rng = random.Random(37)
    terms = rng.sample(enumerate_terms(7), 5000)
    terms += [random_term(rng, rng.randint(8, 24), "abc") for _ in range(500)]
    for t in terms:
        nf, steps = trace_normal_form(t)
        current = t
        for step in steps:
            assert step.before == current
            assert step == min(applicable_steps(current), key=leftmost_innermost_key)
            current = step.after
        assert applicable_steps(current) == []
        assert nf == canonicalize(current)


def test_leftmost_innermost_reaches_deep_terms():
    # The walk recurses once per level and `_replace` not at all, so a
    # negation chain about as deep as `canonicalize` reaches still reduces.
    t = A
    for _ in range(901):
        t = neg(t)
    nf, steps = trace_normal_form(t)
    assert nf == neg(A)
    assert len(steps) == 450


def test_unknown_strategy_is_rejected_before_any_work():
    for t in (A, join(ZERO, A)):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            trace_normal_form(t, strategy="bogus")
        with pytest.raises(ValueError, match="unknown strategy"):
            normal_form(t, budget=0, strategy="nonsense")


def test_joinable_critical_pairs():
    # overlap of double negation inside a complement redex
    w = var("w")
    assert oracle_equivalent(ONE, join(neg(A), A, w))
    # overlap of join splicing with a complement redex needs the
    # negated-subjoin rule
    assert oracle_equivalent(join(A, B, var("c"), neg(join(B, var("c")))), ONE)
    # overlap of the zero rule with the complement redex on 0 | !0
    assert oracle_equivalent(neg(ZERO), ONE)
    assert not oracle_equivalent(A, B)


def test_oracle_equivalent():
    f = join(neg(join(neg(A), neg(B))), neg(neg(join(neg(A), neg(B)))))
    assert oracle_equivalent(f, ONE)
    # absorption does not hold
    assert not oracle_equivalent(join(A, neg(join(neg(A), neg(B)))), A)
    assert oracle_equivalent(join(A, B), join(B, A))


def test_canonical_order_is_total_and_frozen():
    assert canonicalize(join(B, A)) == join(A, B)
    assert canonicalize(join(neg(A), ONE, A, ZERO)) == join(ZERO, ONE, A, neg(A))
    assert canonicalize(join(join(B, A), neg(B))) == join(neg(B), join(A, B))

    # every join of a canonical term lists its children in `term_key` order
    def joins(t):
        if t[0] == "not":
            yield from joins(t[1])
        elif t[0] == "or":
            yield t[1]
            for c in t[1]:
                yield from joins(c)

    for t in enumerate_terms(5):
        for children in joins(canonicalize(t)):
            keys = [rewrite.term_key(c) for c in children]
            assert keys == sorted(keys)


def test_canonicalize_keys_each_subterm_once(monkeypatch):
    # Sorting by `term_key` at every join level would rebuild the key of
    # the whole subtree each time: thousands of calls on this chain.
    calls = 0
    term_key = rewrite.term_key

    def counting(t):
        nonlocal calls
        calls += 1
        return term_key(t)

    monkeypatch.setattr(rewrite, "term_key", counting)
    t, expected = join(B, A), join(A, B)
    for i in range(200):
        t, expected = (neg(t), neg(expected)) if i % 2 else (join(B, t), join(B, expected))
    assert canonicalize(t) == expected
    assert calls <= 2 * node_count(t)


def test_termination_bound_random():
    rng = random.Random(29)
    for t in rng.sample(enumerate_terms(7), 800):
        _, steps = trace_normal_form(t)
        assert len(steps) <= node_count(t)


def test_rewrite_step_contract():
    import copy
    import pickle

    from ocbsl.rewrite import RewriteStep

    t, after = join(var("a"), ZERO), join(var("a"))
    step = RewriteStep("A5", (), t, after)
    assert (step.rule, step.position, step.before, step.after) == ("A5", (), t, after)
    assert step == RewriteStep("A5", (), t, after) != RewriteStep("A5", (0,), t, after)
    assert hash(step) == hash(RewriteStep("A5", (), t, after))
    assert repr(step).startswith("RewriteStep(rule='A5', position=(), before=")
    with pytest.raises(AttributeError):
        step.rule = "A3"
    assert copy.deepcopy(step) == pickle.loads(pickle.dumps(step)) == step
    assert applicable_steps(t) == [step]
