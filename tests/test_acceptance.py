"""Acceptance suite: one test per release criterion, run with plain pytest.

Each test prints a PASS line with its measurements (visible with -s or in
captured output).  Budgets are wall-clock upper bounds; the functional
assertions allow zero failures.
"""

import random
import subprocess
import sys
import time
from functools import lru_cache

from ocbsl import Arena, Session, parse, to_internal
from ocbsl import rewrite as rw
from ocbsl.bench import run_bench
from ocbsl.semantics import formula_table
from enum_terms import enumerate_terms
from gen import disturbed, random_formula

MAX_NODES = 7


@lru_cache(maxsize=1)
def _universe():
    return enumerate_terms(MAX_NODES)


@lru_cache(maxsize=1)
def _oracle_results():
    """term -> (canonical normal form, steps taken) over the whole universe."""
    return {t: rw.trace_normal_form(t) for t in _universe()}


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS  [{detail}]")


def test_criterion_1_oracle_agreement_exhaustive():
    # Coded equivalence must match rewrite-oracle equivalence on every pair
    # of terms with <= 7 expanded nodes over {a, b, 0, 1}.  Partition
    # equality (code classes == normal-form classes) covers all pairs.
    start = time.time()
    terms = _universe()
    oracle = _oracle_results()
    arena = Arena()
    session = Session(arena)
    code_to_nf = {}
    nf_to_code = {}
    disagreements = 0
    for t in terms:
        code = session.normalize(arena.intern_tree(t))
        nf = oracle[t][0]
        if code_to_nf.setdefault(code, nf) != nf:
            disagreements += 1
        if nf_to_code.setdefault(nf, code) != code:
            disagreements += 1
    elapsed = time.time() - start
    assert disagreements == 0
    assert elapsed <= 60.0
    _report(1, "oracle agreement", f"{len(terms)} terms, {len(nf_to_code)} classes, {elapsed:.1f}s")


def test_criterion_1_oracle_agreement_random():
    # Criterion 1 beyond the exhaustive universe: random formulas of 8-24
    # surface nodes over {a, b, c} (up to about 60 internal nodes after de
    # Morgan), all interned into one shared session per scheduling mode.
    start = time.time()
    rng = random.Random(11)
    formulas = [random_formula(rng, rng.randint(8, 24), ["a", "b", "c"]) for _ in range(4000)]
    arena = Arena()
    terms = [arena.export_tree(to_internal(f, arena)) for f in formulas]
    oracle_start = time.time()
    nfs = [rw.normal_form(t) for t in terms]
    oracle_elapsed = time.time() - oracle_start
    for size_scheduling in (True, False):
        arena = Arena()
        session = Session(arena, size_scheduling=size_scheduling)
        code_to_nf = {}
        nf_to_code = {}
        disagreements = 0
        for f, nf in zip(formulas, nfs):
            code = session.normalize(to_internal(f, arena))
            if code_to_nf.setdefault(code, nf) != nf:
                disagreements += 1
            if nf_to_code.setdefault(nf, code) != code:
                disagreements += 1
        assert disagreements == 0, size_scheduling
    assert len(nf_to_code) >= 1000
    elapsed = time.time() - start
    assert elapsed <= 60.0
    biggest = max(rw.node_count(t) for t in terms)
    _report(
        1,
        "oracle agreement, random",
        f"{len(formulas)} formulas of up to {biggest} nodes, {len(nf_to_code)} classes, "
        f"oracle {oracle_elapsed:.1f}s, {elapsed:.1f}s",
    )


def test_criterion_2_boolean_soundness_randomized():
    # Whenever the normalizer calls two formulas equivalent, their truth
    # tables must agree.  Half the pairs are independent draws, half are
    # equivalence-preserving disturbances so the implication actually fires.
    # The tables are those of the surface formulas, not of the interned
    # terms, so an error in `to_internal` cannot hide by hitting both sides.
    start = time.time()
    rng = random.Random(2024)
    names = [f"v{i}" for i in range(8)]
    pairs = 100_000
    judged_equivalent = 0
    violations = 0
    for i in range(pairs):
        f = random_formula(rng, rng.randint(2, 40), names)
        g = disturbed(rng, f) if i % 2 else random_formula(rng, rng.randint(2, 40), names)
        arena = Arena()
        session = Session(arena)
        rf = to_internal(f, arena)
        rg = to_internal(g, arena)
        if session.equivalent(rf, rg):
            judged_equivalent += 1
            if formula_table(f, names) != formula_table(g, names):
                violations += 1
    elapsed = time.time() - start
    assert violations == 0
    assert judged_equivalent > 0
    assert elapsed <= 120.0
    _report(2, "boolean soundness", f"{pairs} pairs, {judged_equivalent} equivalent, {elapsed:.1f}s")


def test_criterion_3_regression_examples():
    start = time.time()
    arena = Arena()
    session = Session(arena)

    def equivalent(lhs, rhs):
        return session.equivalent(to_internal(parse(lhs), arena), to_internal(parse(rhs), arena))

    positives = [
        ("(a & b) | !(a & b)", "1"),
        ("!0", "1"),
        ("!1", "0"),
        ("a | b | !(a | b)", "1"),  # negated sub-join, no extra children
        ("c | a | b | !(a | b)", "1"),  # negated sub-join among others
        ("!(a & b)", "!a | !b"),
        ("!(a | b)", "!a & !b"),
    ]
    negatives = [
        ("x | (x & y)", "x"),
        ("x & (x | y)", "x"),
        ("x & (y | z)", "(x & y) | (x & z)"),
        ("x | (y & z)", "(x | y) & (x | z)"),
    ]
    for lhs, rhs in positives:
        assert equivalent(lhs, rhs), (lhs, rhs)
    for lhs, rhs in negatives:
        assert not equivalent(lhs, rhs), (lhs, rhs)
    elapsed = time.time() - start
    assert elapsed <= 1.0
    _report(3, "regression examples", f"{len(positives)} + {len(negatives)} pairs, {elapsed * 1000:.0f}ms")


def test_criterion_4_local_confluence_exhaustive():
    # Every pair of distinct one-step reducts of every small term must be
    # joinable; with a terminating system that is local confluence, hence
    # confluence.  All reducts of a term are joinable iff they share one
    # normal form.
    start = time.time()
    nf_cache = {}

    def nf(t):
        r = nf_cache.get(t)
        if r is None:
            r = nf_cache[t] = rw.normal_form(t)
        return r

    failures = 0
    pairs = 0
    for t in _universe():
        reducts = {s.after for s in rw.applicable_steps(t)}
        if len(reducts) < 2:
            continue
        pairs += len(reducts) * (len(reducts) - 1) // 2
        if len({nf(r) for r in reducts}) != 1:
            failures += 1
    elapsed = time.time() - start
    assert failures == 0
    assert elapsed <= 120.0
    _report(4, "local confluence", f"{pairs} reduct pairs, {elapsed:.1f}s")


def test_criterion_5_termination_bound():
    # The oracle must reach a normal form in at most node_count(t) steps on
    # every test input (each rule strictly shrinks the term).
    start = time.time()
    worst = 0.0
    for t, (_, steps) in _oracle_results().items():
        n = rw.node_count(t)
        assert len(steps) <= n, t
        worst = max(worst, len(steps) / n)
    elapsed = time.time() - start
    _report(5, "termination bound", f"{len(_universe())} inputs, worst steps/nodes {worst:.2f}, {elapsed:.1f}s")


def test_criterion_6_quasilinear_scaling():
    # Scheduled runs over sizes 2^10..2^17 must fit a log-log exponent
    # <= 1.2 for all three families; stored-order child processing on fig7
    # must degrade to >= 1.7 (measured on 2^12..2^16, inside the same
    # envelope, to keep the quadratic run affordable).
    start = time.time()
    sched6 = run_bench("fig6", range(10, 18), reps=5)
    sched7 = run_bench("fig7", range(10, 18), reps=5)
    sched_a9 = run_bench("a9", range(10, 18), reps=5)
    naive7 = run_bench("fig7", range(12, 17), reps=5, size_scheduling=False)
    elapsed = time.time() - start
    assert sched6.fitted_exponent <= 1.2, sched6
    assert sched7.fitted_exponent <= 1.2, sched7
    assert sched_a9.fitted_exponent <= 1.2, sched_a9
    assert naive7.fitted_exponent >= 1.7, naive7
    assert elapsed <= 300.0
    _report(
        6,
        "quasilinear scaling",
        f"fig6 {sched6.fitted_exponent:.2f}, fig7 {sched7.fitted_exponent:.2f}, "
        f"a9 {sched_a9.fitted_exponent:.2f}, "
        f"fig7 unscheduled {naive7.fitted_exponent:.2f}, {elapsed:.0f}s",
    )


def test_criterion_7_dag_sharing_payoff():
    # A shared doubling chain of depth 60 expands to a tree of more than
    # 2^60 nodes; with sharing it must normalize in under a second with a
    # code count linear in the depth.
    depth = 60
    arena = Arena()
    session = Session(arena)
    t = arena.var("a")
    for _ in range(depth):
        t = arena.join((t, t))
    assert arena.tree_size(t) > 2**60
    start = time.time()
    code = session.normalize(t)
    elapsed = time.time() - start
    assert elapsed < 1.0
    assert code == session.normalize(arena.var("a"))
    assert session.stats.codes_allocated <= 4 * depth
    assert len(arena) == depth + 1
    _report(7, "dag sharing", f"tree {arena.tree_size(t):.2e} nodes, {elapsed * 1000:.1f}ms, "
                              f"{session.stats.codes_allocated} codes")


def test_criterion_8_determinism():
    # Two runs of the normalize command on one input must emit identical
    # bytes.
    cmd = [sys.executable, "-m", "ocbsl", "normalize", "(q | p) & !(r & (s | !s)) & 1"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    _report(8, "determinism", f"output {first.stdout.strip().decode()!r}")
