"""Tests of the benchmark itself: seeded inputs repeat, labels are right.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import pytest  # noqa: E402

import workloads as w  # noqa: E402
from measure import Tracer, Yardstick, percentile, reference_task, slope, worst_exponent  # noqa: E402
from ocbsl import Arena, Session, parse, print_term, rewrite, semantics, to_internal  # noqa: E402


def boolean_equal(t1, t2) -> bool:
    arena = Arena()
    return semantics.boolean_equivalent(arena, arena.intern_tree(t1), arena.intern_tree(t2))


def assert_equivalent(t1, t2):
    assert rewrite.oracle_equivalent(t1, t2)
    assert boolean_equal(t1, t2)


def assert_boolean_different(t1, t2):
    assert not boolean_equal(t1, t2)
    assert not rewrite.oracle_equivalent(t1, t2)


@pytest.mark.parametrize("name", ["chains", "wide-joins", "cli"])
def test_inputs_repeat_per_seed_and_change_with_it(name):
    make = w.WORKLOADS[name]
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_batch_inputs_repeat_per_seed():
    first = w.batch(5)
    assert first == w.batch(5)
    assert len(first.pairs) == w.BATCH_PAIRS
    assert {p.kind for p in first.pairs} == {"eq", "booldiff", "distrib"}


def test_sizes_do_not_depend_on_the_seed():
    for name in ("chains", "wide-joins"):
        sizes = [[(p.lhs_nodes, p.rhs_nodes) for p in w.WORKLOADS[name](seed).pairs] for seed in (1, 2)]
        assert [lhs for lhs, _ in sizes[0]] == [lhs for lhs, _ in sizes[1]]


def test_surface_text_parses_to_the_internal_term():
    rng = random.Random(0)
    for _ in range(200):
        f = w.random_formula(rng, rng.randint(1, 30), ["a", "b", "c"])
        arena = Arena()
        assert arena.export_tree(to_internal(parse(w.text(f)), arena)) == w.internal(f)


@pytest.mark.parametrize("seed", range(4))
def test_small_pair_labels_agree_with_both_oracles(seed):
    rng = random.Random(seed)
    for p in w.small_pairs(rng, 45, w._names(rng), w.BATCH_TOTALS):
        lhs, rhs = parse_surface(p.lhs), parse_surface(p.rhs)
        assert w.MIN_NODES <= p.lhs_nodes <= w.MAX_NODES
        if p.kind == "eq":
            assert p.equivalent
            assert_equivalent(lhs, rhs)
        elif p.kind == "booldiff":
            assert not p.equivalent
            assert_boolean_different(lhs, rhs)
        else:  # distributivity/absorption only: Boolean-equal, not provable
            assert not p.equivalent
            assert boolean_equal(lhs, rhs)
            assert not rewrite.oracle_equivalent(lhs, rhs)


def parse_surface(text):
    """Internal term of a surface text, through the program's parser (the
    test above checks that parser against `workloads.internal`)."""
    arena = Arena()
    return arena.export_tree(to_internal(parse(text), arena))


@pytest.mark.parametrize("family", ["fig6", "fig7"])
def test_small_chains_against_both_oracles(family):
    rng = random.Random(1)
    chain, nodes, xs, flat, short = w.chain_shape(rng, family, 40)
    term = w.parse_internal(chain)
    assert rewrite.node_count(term) == nodes
    flat_term = w.parse_internal(" | ".join(flat))
    assert_equivalent(term, flat_term)
    assert_boolean_different(term, w.parse_internal(" | ".join(short)))
    assert rewrite.normal_form(term) == rewrite.canonicalize(("or", tuple(("var", x) for x in xs)))


@pytest.mark.parametrize("shape,size", [(w.a9_shape, 21), (w.a3_shape, 37), (w.a7_shape, 31)])
def test_small_wide_shapes_against_both_oracles(shape, size):
    lhs, eqs, neq = shape(random.Random(2), size)
    for eq in eqs:
        assert_equivalent(w.internal(lhs), w.internal(eq))
    assert_boolean_different(w.internal(lhs), w.internal(neq))


def test_a9_join_is_its_own_normal_form():
    lhs, _, _ = w.a9_shape(random.Random(3), 21)
    term = w.internal(lhs)
    assert rewrite.normal_form(term) == rewrite.canonicalize(term)


def test_normal_form_check_accepts_the_program_output_only():
    for nf in w.batch(2).normal_forms[:20]:
        arena = Arena()
        session = Session(arena)
        code = session.normalize(to_internal(parse(nf.text), arena))
        printed = print_term(arena, session.extract_normal_form(code))
        assert w.normal_form_matches(printed, nf)
        assert not w.normal_form_matches(printed + " | zz", nf)


def test_measure_helpers():
    assert slope([1, 2, 4, 8], [3, 12, 48, 192]) == pytest.approx(2.0)
    points = [("q", n, n * n) for n in (10, 20, 40)] + [("l", n, n) for n in (10, 20, 40)]
    assert worst_exponent(points) == pytest.approx(2.0)
    assert worst_exponent([("q", 10, 1), ("q", 20, 2)]) is None
    assert percentile(list(range(1, 101)), 99) == 99
    tracer = Tracer()
    tracer("outer", "s", 1, lambda: tracer("inner", "s", None, str, 12345))
    (outer, outer_self), (inner, inner_self) = tracer.self_times()
    assert inner[1] == outer[0] and inner[5] == 5
    assert outer_self == (outer[7] - outer[6]) - (inner[7] - inner[6])


def test_yardstick_scales_an_op_by_the_reference_around_it():
    assert reference_task() == reference_task() == 2110  # fixed work
    yard = Yardstick()
    assert len(yard.refs) == 1
    yard.count(Yardstick.SLICE_NS // 2)
    assert len(yard.refs) == 1
    yard.count(Yardstick.SLICE_NS // 2)
    assert len(yard.refs) == 2
    yard.refs = [2.0, 2.0, 2.0, 4.0, 4.0, 4.0]  # the machine halves its speed after sample 2
    assert yard.scaled(100, 0) == pytest.approx(100 * Yardstick.REF_NS / 2.0)
    assert yard.scaled(100, 4) == pytest.approx(100 * Yardstick.REF_NS / 4.0)
    assert yard.scaled(100, 2) == pytest.approx(100 * Yardstick.REF_NS / 3.0)  # median of 2, 2, 4, 4


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
