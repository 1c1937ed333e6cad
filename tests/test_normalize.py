import collections
import math
import random
import sys

import pytest

from ocbsl import Arena, ONE_CODE, Session, Stats, ZERO_CODE, neg_of, parse, print_term, to_internal
from ocbsl import rewrite as rw
from ocbsl.bench import FAMILIES, family_scale, gen_family
from ocbsl.syntax import And, Not, Or, Var, formula_nodes, print_formula
from enum_terms import enumerate_terms
from gen import random_formula


def fresh():
    arena = Arena()
    return arena, Session(arena)


def code_of(session, text):
    return session.normalize(to_internal(parse(text), session.arena))


def test_reserved_codes():
    arena, s = fresh()
    assert s.normalize(arena.zero()) == ZERO_CODE == 0
    assert s.normalize(arena.one()) == ONE_CODE == 1
    assert s.normalize(arena.neg(arena.zero())) == 1  # !0 = 1
    assert s.normalize(arena.neg(arena.one())) == 0  # !1 = 0
    assert s.normalize(arena.join((arena.zero(), arena.one()))) == 1
    assert s.stats.codes_allocated == 0  # the constants allocate no class
    assert s.normalize(arena.var("a")) == 24  # the variable of leaf ref 5: 4 * (5 + 1)


def test_neg_pairing():
    arena, s = fresh()
    a = arena.var("a")
    ca = s.normalize(a)
    assert ca % 2 == 0
    assert s.normalize(arena.neg(a)) == neg_of(ca) == ca + 1
    assert neg_of(neg_of(ca)) == ca


def test_complement_annihilates():
    arena, s = fresh()
    a = arena.var("a")
    assert s.normalize(arena.join((a, arena.neg(a)))) == 1


def test_annihilation_of_conjunction_with_its_negation():
    _, s = fresh()
    assert code_of(s, "(a & b) | !(a & b)") == 1
    assert code_of(s, "(a & b) | !(a & b)") == code_of(s, "1")


def test_double_negation():
    _, s = fresh()
    assert code_of(s, "!!a") == code_of(s, "a")
    assert code_of(s, "!!!!b") == code_of(s, "b")
    assert code_of(s, "!!!a") == code_of(s, "!a")


def test_nested_join_flattens():
    _, s = fresh()
    assert code_of(s, "a | (b | c)") == code_of(s, "a | b | c")
    assert code_of(s, "(a | b) | c") == code_of(s, "a | b | c")


def test_absorption_and_distributivity_do_not_hold():
    _, s = fresh()
    assert code_of(s, "x | (x & y)") != code_of(s, "x")
    assert code_of(s, "x & (x | y)") != code_of(s, "x")
    assert code_of(s, "x & (y | z)") != code_of(s, "(x & y) | (x & z)")
    assert code_of(s, "x | (y & z)") != code_of(s, "(x | y) & (x | z)")


def test_de_morgan():
    _, s = fresh()
    assert code_of(s, "!(a & b)") == code_of(s, "!a | !b")
    assert code_of(s, "!(a | b)") == code_of(s, "!a & !b")


def test_commutativity():
    _, s = fresh()
    assert code_of(s, "a | b") == code_of(s, "b | a")
    assert code_of(s, "a & b & c") == code_of(s, "c & a & b")


def test_process_join():
    arena, s = fresh()
    a, b = arena.var("a"), arena.var("b")
    assert s.normalize(arena.join((arena.zero(), a))) == s.normalize(a)
    assert s.normalize(arena.join((arena.one(), a, b))) == 1
    assert s.normalize(arena.join((a, a, b))) == s.normalize(arena.join((a, b)))
    ab = arena.join((a, b))
    assert s.normalize(arena.join((a, b, arena.neg(ab)))) == 1


def test_negated_subjoin_after_revealing_double_negation():
    # a | !(a & b) hides the complement of a behind two negations
    _, s = fresh()
    assert code_of(s, "a | !(a & b)") == 1
    # oracle reaches 1 on the same internal term
    t = rw.join(rw.var("a"), rw.neg(rw.neg(rw.join(rw.neg(rw.var("a")), rw.neg(rw.var("b"))))))
    assert rw.normal_form(t) == rw.ONE


def test_join_class_members():
    arena, s = fresh()
    a, b = arena.var("a"), arena.var("b")
    ca, cb = s.normalize(a), s.normalize(b)
    cab = s.normalize(arena.join((b, a)))
    assert s.join_class_members(cab) == tuple(sorted((ca, cb)))
    assert s.join_class_members(ca) is None
    assert s.join_class_members(0) is None
    assert s.join_class_members(1) is None
    with pytest.raises(ValueError):
        s.join_class_members(cab + 1000)
    # a bool is an int, but never a code: True would otherwise read code 1
    for code in (True, False):
        for use in (s.join_class_members, s.extract_normal_form):
            with pytest.raises(ValueError, match="never assigned"):
                use(code)


def test_normalize_rejects_a_bool_ref():
    arena, s = fresh()
    ab = arena.join((arena.var("a"), arena.var("b")))
    s.normalize(ab)
    # refs 0 and 1 (a and b) are memoized now, and False, True and 1.0 hash like them
    for ref in (True, False, 1.0):
        with pytest.raises(ValueError, match="does not belong to this arena"):
            s.normalize(ref)


def test_equivalent():
    arena, s = fresh()
    t1 = to_internal(parse("a | b"), arena)
    t2 = to_internal(parse("b | a"), arena)
    assert s.equivalent(t1, t2)
    assert not s.equivalent(to_internal(parse("a"), arena), to_internal(parse("b"), arena))


def test_extract_normal_form():
    arena, s = fresh()
    assert s.extract_normal_form(1) == arena.one()
    assert s.extract_normal_form(0) == arena.zero()
    c1 = code_of(s, "b | a")
    c2 = code_of(s, "a | b")
    assert c1 == c2
    assert s.extract_normal_form(c1) == s.extract_normal_form(c2)
    ca = code_of(s, "!!a")
    assert s.extract_normal_form(ca) == arena.var("a")
    with pytest.raises(ValueError):
        s.extract_normal_form(99999)
    # of the root's two negated members, the first is the input's own
    # !(!(b | a) | d), found in the memo, and the second, !(!(b | a) | c),
    # is interned before the root; e, whose leaf has the largest ref, is last
    arena, s = fresh()
    nf_ref = s.extract_normal_form(code_of(s, "!(!(b | a) | d) | !(c | !(a | b)) | e"))
    assert arena._payload[nf_ref] == (6, 15, arena.var("e"))
    assert [print_term(arena, r) for r in (6, 15)] == ["!(!(b | a) | d)", "!(!(b | a) | c)"]
    # d's leaf has ref 0, so its code 4 is the root's smallest member,
    # below the negated join classes' 7 and 11; !(!(b | a) | d) is the
    # input's own node again
    arena, s = fresh()
    nf_ref = s.extract_normal_form(code_of(s, "d | !(!(b | a) | d) | !(c | !(a | b)) | e"))
    assert arena._payload[nf_ref] == (arena.var("d"), 6, 15, arena.var("e"))
    assert [print_term(arena, r) for r in (6, 15)] == ["!(!(b | a) | d)", "!(!(b | a) | c)"]


def test_extract_takes_a_name_of_a_str_subclass():
    # `Arena.var` takes any str, so a class key that is no tuple is a name
    class Name(str):
        pass

    arena, s = fresh()
    code = s.normalize(arena.join((arena.var(Name("a")), arena.var("b"))))
    assert print_term(arena, s.extract_normal_form(code)) == "a | b"


def test_extract_is_idempotent_and_irreducible():
    arena, s = fresh()
    rng = random.Random(3)
    terms = rng.sample(enumerate_terms(7), 400)
    for t in terms:
        c = s.normalize(arena.intern_tree(t))
        nf_ref = s.extract_normal_form(c)
        assert s.normalize(nf_ref) == c
        assert rw.applicable_steps(arena.export_tree(nf_ref)) == []


def test_session_determinism():
    arena = Arena()
    refs = [to_internal(parse(t), arena) for t in ("a | b | !c", "c & (a | b)", "!(x & y) | 0")]
    runs = []
    for _ in range(2):
        s = Session(arena)
        runs.append([s.normalize(r) for r in refs])
    assert runs[0] == runs[1]


def test_memoization():
    arena, s = fresh()
    ref = to_internal(parse("(a & b) | c"), arena)
    c1 = s.normalize(ref)
    before = s.stats.memo_hits
    assert s.normalize(ref) == c1
    assert s.stats.memo_hits == before + 1


def test_stats_counters_bounded_by_tree_size():
    rng = random.Random(9)
    terms = rng.sample(enumerate_terms(7), 300)
    for t in terms:
        arena, s = fresh()
        ref = arena.intern_tree(t)
        size = arena.tree_size(ref)
        s.normalize(ref)
        for name, value in s.stats.rule_counters().items():
            assert value <= size, (t, name, value, size)


def test_scheduling_flag_does_not_change_verdicts():
    rng = random.Random(17)
    terms = rng.sample(enumerate_terms(7), 500)
    arena1 = Arena()
    arena2 = Arena()
    s1 = Session(arena1, size_scheduling=True)
    s2 = Session(arena2, size_scheduling=False)
    part1 = {}
    part2 = {}
    for i, t in enumerate(terms):
        c1 = s1.normalize(arena1.intern_tree(t))
        c2 = s2.normalize(arena2.intern_tree(t))
        part1.setdefault(c1, set()).add(i)
        part2.setdefault(c2, set()).add(i)
    assert sorted(map(sorted, part1.values())) == sorted(map(sorted, part2.values()))


def test_scheduling_skips_intermediate_classes():
    # a zero child reveals a nested join; smallest-first codes none of the
    # revealed levels except the innermost one, whose zero-sibling happens
    # to be the bigger subtree (the bounded mis-ordering case)
    from ocbsl.bench import gen_family

    for n in (2, 5):
        arena1, arena2 = Arena(), Arena()
        s1 = Session(arena1, size_scheduling=True)
        s2 = Session(arena2, size_scheduling=False)
        f = gen_family("fig7", n)
        s1.normalize(to_internal(f, arena1))
        s2.normalize(to_internal(f, arena2))
        # the innermost pair class and the result (variables number no class)
        assert s1.stats.codes_allocated == 2
        # stored order codes one growing class per revealed level instead
        assert s2.stats.codes_allocated == s1.stats.codes_allocated + (n - 1)


@pytest.mark.parametrize("family", FAMILIES)
def test_bench_families_compute_no_tree_size(family):
    # the schedule reads sizes only to sort two or more negated joins left
    # in one frame, which no bench family has, so its size cache stays empty
    f = gen_family(family, family_scale(family, 2**12))
    arena, s = fresh()
    s.normalize(to_internal(f, arena))
    assert s._sizes == {}


def test_negated_conjunctions_of_leaves_compute_no_tree_size():
    # a9's other spelling, a_i | (!a_i & !b_i): de Morgan interns each
    # conjunction as !(!!a_i | !!b_i), which the scan codes where it is
    # queued, stripping both towers, so no frame has a batch to sort
    n = 2**12 // 6
    f = Or(tuple(k for i in range(1, n + 1) for k in (Var(f"a{i}"), And((Not(Var(f"a{i}")), Not(Var(f"b{i}")))))))
    assert formula_nodes(f) == 6 * n + 1
    arena, s = fresh()
    s.normalize(to_internal(f, arena))
    assert s._sizes == {}
    assert s.stats.a6_strips == 2 * n, s.stats


class _WriteOnce(dict):
    def __setitem__(self, ref, size):
        assert ref not in self, ref
        super().__setitem__(ref, size)


def test_tree_sizes_are_computed_on_demand_once():
    # the golden framed-seam-spliced-sorted case sorts the two negated joins
    # of its seam and nothing else: the cache holds the nodes under them
    arena, s = fresh()
    s._sizes = _WriteOnce()  # each size is computed at most once
    s.normalize(to_internal(parse("b | c | !(!(a | !a) | !!!(!(b | c | !(d | e)) | !(b | (c | c))))"), arena))
    sorted_children = [to_internal(parse(t), arena) for t in ("!(b | c | !(d | e))", "!(b | (c | c))")]
    assert set(s._sizes) == set(arena.reverse_topological_order(sorted_children))
    # a second formula sorts too, and its extraction interns new nodes
    # through `_intern`; cached sizes stay exact as the arena grows
    code = s.normalize(to_internal(parse("!(d | !!(c | b)) | !(a | !(b | !!d)) | e"), arena))
    assert set(s._sizes) > set(arena.reverse_topological_order(sorted_children))
    interned = len(arena)
    s.extract_normal_form(code)
    assert len(arena) > interned
    arena._add_tree_sizes(range(len(arena)), s._sizes)
    for r in range(len(arena)):
        assert s._sizes[r] == arena.tree_size(r) == rw.node_count(arena.export_tree(r)), r


def test_zero_only_joins():
    arena, s = fresh()
    z = arena.zero()
    assert s.normalize(arena.join((z, z))) == 0
    assert s.normalize(arena.join((z,))) == 0


def test_counters_for_constant_negation():
    arena, s = fresh()
    s.normalize(arena.neg(arena.zero()))
    assert s.stats.a10_hits == 1
    s.normalize(arena.neg(arena.one()))
    assert s.stats.a11_hits == 1


def _a9_verdict_agrees(s, ref):
    """Normalize ref; its code is 1 exactly when the rewrite oracle says so."""
    code = s.normalize(ref)
    assert (code == ONE_CODE) == rw.oracle_equivalent(s.arena.export_tree(ref), rw.ONE)
    return code


def _wide_join_with_negated_pair(drop_middle: bool):
    # a, then m_i and !(m_i | w_i) (odd children that never annihilate),
    # then z, then !(a | z) (or !(a | c | z), c absent from the join);
    # codes are fixed by normalizing in this order, so a and z sit at the
    # two ends of the join's codes with the other odd children between
    # them, and c's code lies between a's and z's
    arena, s = fresh()
    a = arena.var("a")
    c = arena.var("c")
    kids = [a]
    s.normalize(a)
    for i in range(6):
        m = arena.var(f"m{i}")
        neg = arena.neg(arena.join((m, arena.var(f"w{i}"))))
        s.normalize(m)
        s.normalize(neg)
        kids += [m, neg]
        if i == 2:
            s.normalize(c)
    z = arena.var("z")
    s.normalize(z)
    inner = (a, c, z) if drop_middle else (a, z)
    kids += [z, arena.neg(arena.join(inner))]
    return s, arena.join(tuple(kids))


def test_a9_fires_on_members_at_both_ends_of_a_wide_join():
    s, t = _wide_join_with_negated_pair(drop_middle=False)
    before = s.stats.a9_hits
    assert _a9_verdict_agrees(s, t) == ONE_CODE
    assert s.stats.a9_hits - before == 1


def test_a9_needs_every_member():
    s, t = _wide_join_with_negated_pair(drop_middle=True)
    assert _a9_verdict_agrees(s, t) != ONE_CODE
    assert s.stats.a9_hits == 0
    for text in ("a | b | !(a | b | c)", "b | c | !(a | b | c)", "a | !(a | b)"):
        _, s = fresh()
        assert _a9_verdict_agrees(s, to_internal(parse(text), s.arena)) != ONE_CODE
        assert s.stats.a9_hits == 0


def test_a9_size_guard_skips_larger_classes():
    # the negated class has four members, the join only two codes
    arena, s = fresh()
    a = arena.var("a")
    big = arena.join((a, arena.var("b"), arena.var("c"), arena.var("d")))
    s.normalize(big)
    t = arena.join((a, arena.neg(big)))
    assert _a9_verdict_agrees(s, t) != ONE_CODE
    assert s.stats.a9_hits == 0
    assert s.stats.a9_probe_work == 0  # skipped unprobed
    # with every member present the class is probed, and annihilates
    t = arena.join((a, arena.var("b"), arena.var("c"), arena.var("d"), arena.neg(big)))
    assert _a9_verdict_agrees(s, t) == ONE_CODE
    assert s.stats.a9_probe_work == 4
    # as many members as the join has codes: the probed code is one of
    # them and no member of its own class, so the probe could never fire
    _, s = fresh()
    assert _a9_verdict_agrees(s, to_internal(parse("a | !(a | b)"), s.arena)) != ONE_CODE
    assert s.stats.a9_probe_work == 0


def _a3_shape(target: int):
    """A join of m conjunctions c_i & d_i, each in four spellings spread
    over it (c & d, d & c, !!(c & d), !(!c | !d); 17 nodes in all), and
    the join of the m conjunctions once, its normal form."""
    m = max(2, target // 17)
    conj = [And((Var(f"c{i}"), Var(f"d{i}"))) for i in range(m)]
    kids = []
    for i, cd in enumerate(conj):
        c, d = Var(f"c{i}"), Var(f"d{i}")
        kids += [cd, And((d, c)), Not(Not(cd)), Not(Or((Not(c), Not(d))))]
    random.Random(m).shuffle(kids)
    return Or(tuple(kids)), Or(tuple(conj))


def _a7_shape(target: int):
    """A join of m conjunctions c_i & d_i and m negated joins
    !(e_i | h.. | !e_i) of six h's from a pool of 2m, each 1 by A7, so 0
    after the negation (14 nodes a pair); and the join of the
    conjunctions alone, its normal form."""
    m = max(2, target // 14)
    rng = random.Random(m)
    pool = [Var(f"h{j}") for j in range(max(7, 2 * m))]
    conj = [And((Var(f"c{i}"), Var(f"d{i}"))) for i in range(m)]
    kids = list(conj)
    for i in range(m):
        e = Var(f"e{i}")
        kids.append(Not(Or((e, *rng.sample(pool, 6), Not(e)))))
    rng.shuffle(kids)
    return Or(tuple(kids)), Or(tuple(conj))


# rule-specific shapes of the wide-joins benchmark, re-derived from its
# description there; not bench families, so the code digests stay as they are
_SHAPES = {"a3": _a3_shape, "a7": _a7_shape}


@pytest.mark.parametrize("family", FAMILIES + tuple(_SHAPES))
def test_work_is_linear_in_surface_nodes(family):
    # count-based complexity gate: on every bench family and shape, merging
    # child codes and visiting nodes each cost at most a small constant per
    # node; and-chain and neg-tower hide each nested join under a double
    # negation
    for e in range(10, 17):
        if family in _SHAPES:
            f, nf = _SHAPES[family](2**e)
        else:
            f = gen_family(family, family_scale(family, 2**e))
        nodes = formula_nodes(f)
        arena, s = fresh()
        code = s.normalize(to_internal(f, arena))
        assert 0 < s.stats.merge_work <= 2 * nodes, (nodes, s.stats)
        assert 0 < s.stats.nodes_visited <= 2 * nodes, (nodes, s.stats)
        if family == "a9":
            # the join of a_i and !(a_i | b_i): A9 probes every negated
            # child and never fires
            assert s.stats.a9_hits == 0
            assert 0 < s.stats.a9_probe_work <= 2 * nodes, (nodes, s.stats)
        if family in _SHAPES:  # the shape normalizes as its docstring says
            assert s.normalize(to_internal(nf, arena)) == code


def _python_calls(fn, *args):
    """fn(*args), and the Python-level function calls it made by function name."""
    calls: collections.Counter = collections.Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


@pytest.mark.parametrize("family", FAMILIES)
def test_verdict_path_makes_no_call_per_node(family):
    # a clock-free guard on the constant factor: interning and the fused
    # pass spend no Python call per node or per leaf
    f = gen_family(family, family_scale(family, 2**10))
    arena = Arena()
    root, calls = _python_calls(to_internal, f, arena)
    assert sum(calls.values()) <= 4, calls  # to_internal, intern_tree, _tree_nodes
    joins = sum(type(p) is tuple for p in arena._payload)
    s = Session(arena)
    _, calls = _python_calls(s.normalize, root)
    # `_run` queues children and numbers variables inline; a join costs at
    # most one `_finish_join`, which also numbers its new class
    assert set(calls) <= {"normalize", "_check", "_run", "_finish_join"}, calls
    assert calls["_finish_join"] <= joins, calls
    assert sum(calls.values()) <= joins + 3, calls


@pytest.mark.parametrize("family", FAMILIES)
def test_parse_makes_no_call_per_token(family):
    # the other half of the front end: cutting the text and building the
    # tuples happen inside `parse` itself
    text = print_formula(gen_family(family, family_scale(family, 2**10)))
    f, calls = _python_calls(parse, text)
    assert calls == {"parse": 1}, calls
    assert formula_nodes(f) > 2**9


@pytest.mark.xfail(strict=True, reason="a shared nested join is spliced and merged again by every parent")
def test_work_is_quasilinear_in_dag_size_on_a_shared_tail():
    # n parents !(y_k | T) share one fig6 tail T of n variables, all under
    # one join: about 5n DAG nodes, but every parent splices T again and
    # stores its n members, so a2_flattens and merge_work are each about n^2
    n = 2**10
    arena, s = fresh()
    tail = arena.var(f"x{n}")
    for i in range(n - 1, 0, -1):
        tail = arena.join((arena.var(f"x{i}"), tail))
    parents = [arena.neg(arena.join((arena.var(f"y{k}"), tail))) for k in range(n)]
    s.normalize(arena.join(tuple(parents)))
    size = len(arena)
    assert s.stats.a2_flattens + s.stats.merge_work <= size * math.log2(size) ** 2, (size, s.stats)


@pytest.mark.xfail(strict=True, reason="a join spliced into its parent is never coded, so every sub-chain splices it again")
def test_work_is_quasilinear_when_every_ref_of_a_chain_is_normalized():
    # the fig6 chain's root, then every other ref top down, on a tree: each
    # normalize(r) on a sub-chain splices and merges the whole rest of it
    # again, so a2_flattens and merge_work are each about n^2 / 2
    arena, s = fresh()
    s.normalize(to_internal(gen_family("fig6", family_scale("fig6", 2**10)), arena))
    for r in reversed(range(len(arena))):
        s.normalize(r)
    size = len(arena)
    assert s.stats.a2_flattens + s.stats.merge_work <= size * math.log2(size) ** 2, (size, s.stats)


def test_work_gate_catches_stored_order():
    # the gate's negative control: without the smallest-first schedule,
    # fig7 re-merges each growing class (about 21 codes per node)
    f = gen_family("fig7", family_scale("fig7", 2**12))
    arena = Arena()
    s = Session(arena, size_scheduling=False)
    s.normalize(to_internal(f, arena))
    assert s.stats.merge_work > 2 * formula_nodes(f), s.stats


def test_coded_join_is_merged_not_spliced_again():
    # a join that already has a code is merged by its member codes: each
    # parent join((y_k, t)) flattens t's class once and meets t in the memo
    # once, instead of splicing and visiting t's 200 variables again
    arena, s = fresh()
    t = arena.var("x0")
    for i in range(1, 200):
        t = arena.join((arena.var(f"x{i}"), t))
    s.normalize(t)
    parents = [arena.join((arena.var(f"y{k}"), t)) for k in range(50)]
    before = dict(vars(s.stats))
    for p in parents:
        s.normalize(p)
    assert s.stats.a2_flattens - before["a2_flattens"] == 50, s.stats
    assert s.stats.memo_hits - before["memo_hits"] == 50, s.stats


def _frame_free(arena, root):
    """Stats of normalizing root in a fresh session, whose normal form the
    rewrite oracle must find equivalent to root."""
    s = Session(arena)
    nf_ref = s.extract_normal_form(s.normalize(root))
    assert rw.oracle_equivalent(arena.export_tree(root), arena.export_tree(nf_ref))
    return s.stats


def test_negated_join_of_leaves_is_coded_where_it_is_queued():
    # x | !(a | a): the duplicate child is met in the memo, merged twice and
    # dropped by `_finish_join` (A3), as no frame's seen-set meets it
    arena = Arena()
    x, a = arena.var("x"), arena.var("a")
    assert _frame_free(arena, arena.join((x, arena.neg(arena.join((a, a)))))) == Stats(
        a2b_collapses=1, a3_dedups=1, nodes_visited=5, memo_hits=1, codes_allocated=1, merge_work=4
    )
    # !(a | 1) is 0 by A4 inside, then A11; x | !(a | 0) drops the 0 inside (A5)
    assert _frame_free(arena, arena.join((x, arena.neg(arena.join((a, arena.one())))))) == Stats(
        a2b_collapses=1, a4_hits=1, a5_drops=1, a11_hits=1, nodes_visited=6, codes_allocated=0, merge_work=1
    )
    assert _frame_free(arena, arena.join((x, arena.neg(arena.join((a, arena.zero())))))) == Stats(
        a2b_collapses=1, a5_drops=1, nodes_visited=6, codes_allocated=1, merge_work=3
    )
    # x | !(a | !a): the join is 1 by A7, its negation 0 and dropped
    assert _frame_free(arena, arena.join((x, arena.neg(arena.join((a, arena.neg(a))))))) == Stats(
        a2b_collapses=1, a5_drops=1, a7_hits=1, a11_hits=1, nodes_visited=6, memo_hits=1, codes_allocated=0,
        merge_work=3,
    )


def test_frame_free_join_at_the_root_and_at_the_seam():
    # a root is resolved, not queued: a join of leaves there opens a frame
    arena = Arena()
    a, b = arena.var("a"), arena.var("b")
    assert _frame_free(arena, arena.neg(arena.join((a, b)))) == Stats(nodes_visited=4, codes_allocated=1, merge_work=2)
    # !(!(v | !v) | !(a | b)): both children are coded where they are
    # queued, the first as 0, so the one code left is the frame's code and
    # the root is the flat join a | b
    s = Session(arena)
    v = arena.var("v")
    root = arena.neg(arena.join((arena.neg(arena.join((v, arena.neg(v)))), arena.neg(arena.join((a, b))))))
    assert print_term(arena, s.extract_normal_form(s.normalize(root))) == "a | b"
    assert _frame_free(arena, root) == Stats(
        a2b_collapses=1, a5_drops=1, a7_hits=1, a11_hits=1, nodes_visited=10, memo_hits=1, codes_allocated=1,
        merge_work=5,
    )


def test_double_negated_join_child_still_gets_a_frame():
    # x | !(!!(a | b) | c): the scan stops at the tower, whose join is
    # spliced (A2) in the frame of !(...) after `!!` is stripped (A6)
    arena = Arena()
    a, b, c = arena.var("a"), arena.var("b"), arena.var("c")
    tower = arena.neg(arena.neg(arena.join((a, b))))
    stats = _frame_free(arena, arena.join((arena.var("x"), arena.neg(arena.join((tower, c))))))
    assert stats == Stats(a2_flattens=1, a6_strips=1, nodes_visited=7, codes_allocated=2, merge_work=5)


@pytest.mark.parametrize("stop", [False, True])
def test_shared_frame_free_join_is_coded_once(stop):
    # K parents !(y_k | L) share L = !(l_1 | ... | l_m), or L with a negated
    # join !(u | w) at its end, where the scan of L stops: L is scanned and
    # coded once, and each parent costs a constant (3 nodes visited, 3
    # codes merged)
    K, m = 200, 300
    arena = Arena()
    leaves = [arena.var(f"l{i}") for i in range(m)]
    if stop:
        leaves.append(arena.neg(arena.join((arena.var("u"), arena.var("w")))))
    shared = arena.neg(arena.join(tuple(leaves)))
    root = arena.join(tuple(arena.neg(arena.join((arena.var(f"y{k}"), shared))) for k in range(K)))
    s = Session(arena)
    _, calls = _python_calls(s.normalize, root)
    assert calls["_finish_join"] == K + 2 + stop  # the parents, L, the root and !(u | w)
    assert s.stats.nodes_visited + s.stats.merge_work <= 6 * (K + m), s.stats


def _session_with_every_kind_of_code():
    """A session whose codes are the constants, variables, negated
    variables, join classes of two and three members and their negations."""
    _, s = fresh()
    for text in ("a", "b", "c", "a | b", "a | !b", "!a | c", "a | b | c", "!(a | b) | c"):
        code_of(s, text)
    return s


def test_two_code_join_is_decided_as_the_general_merge_decides_it():
    # every ordered pair (a, b), through `_finish_join` on [a, b] and through
    # the general merge on [a, b, a]: the same code and class numbering.  A
    # pair with a join-class code takes the general merge on [a, b] too;
    # any other pair takes the two-code branch, with the same rule counters,
    # where the general path merged and dropped one code more
    quick, general = _session_with_every_kind_of_code(), _session_with_every_kind_of_code()
    # the constants, each variable's pair by its leaf's ref, each join class's pair
    leaves = [r for r, p in enumerate(quick.arena._payload) if type(p) is str]
    codes = [0, 1] + [4 * r + 4 + k for r in leaves for k in (0, 1)]
    codes += [4 * j + 2 + k for j in range(len(quick._classes)) for k in (0, 1)]
    branches = collections.Counter()
    for a in codes:
        for b in codes:
            before_quick, before_general = vars(quick.stats).copy(), vars(general.stats).copy()
            code = quick._finish_join([a, b])
            assert code == general._finish_join([a, b, a]), (a, b)
            assert quick._classes == general._classes and quick._codes == general._codes, (a, b)
            if quick.join_class_members(a) or quick.join_class_members(b):
                branches["merge"] += 1
                continue
            quick_delta = {k: v - before_quick[k] for k, v in vars(quick.stats).items()}
            general_delta = {k: v - before_general[k] for k, v in vars(general.stats).items()}
            extra = 0 if ONE_CODE in (a, b) else 1  # A4 returns before any merge
            for name in ("merge_work", "a3_dedups"):
                assert general_delta.pop(name) - quick_delta.pop(name) == extra, (a, b, name)
            assert quick_delta == general_delta, (a, b)
            branches["A4" if extra == 0 else "A3" if a == b else "A7" if a ^ b == 1 else "class"] += 1
    assert branches["merge"] == 155 and set(branches) == {"A3", "A4", "A7", "class", "merge"}, branches


@pytest.mark.parametrize(
    "texts, counters",
    [
        # the duplicate is dropped by the frame (A3), and the one code left
        # is the join's (collapse)
        (["a | !!a"], dict(a2b_collapses=1, a3_dedups=1, a6_strips=1, nodes_visited=2, codes_allocated=0,
                           merge_work=1)),
        # two refs of one class: the root's two codes are equal (A3 + collapse)
        (["!(a | b) | !(b | a)"], dict(a2b_collapses=1, a3_dedups=1, nodes_visited=7, memo_hits=2,
                                       codes_allocated=1, merge_work=6)),
        (["v | !v"], dict(a7_hits=1, nodes_visited=3, memo_hits=1, codes_allocated=0, merge_work=2)),
        (["a | 1"], dict(a4_hits=1, nodes_visited=3, codes_allocated=0)),
        # the class of a | b, numbered by the first formula, is met again by
        # the second as b | a
        (["x | !(a | b)", "y | !(b | a)"], dict(nodes_visited=10, memo_hits=2, codes_allocated=3, merge_work=8)),
    ],
    ids=["a3-by-the-frame", "a3-by-the-merge", "a7", "a4", "class-met-twice"],
)
def test_golden_two_code_joins(texts, counters):
    arena, s = fresh()
    for text in texts:
        ref = to_internal(parse(text), arena)
        nf_ref = s.extract_normal_form(s.normalize(ref))
        assert rw.oracle_equivalent(arena.export_tree(ref), arena.export_tree(nf_ref)), text
    assert s.stats == Stats(**counters)


_FIG6_N = family_scale("fig6", 2**10)
_FIG7_N = family_scale("fig7", 2**10)
_A9_N = family_scale("a9", 2**10)
_FIG6_NF = " | ".join(f"x{i}" for i in range(1, _FIG6_N + 3))
_FIG7_NF = " | ".join(f"x{i}" for i in range(1, _FIG7_N + 3))
# children ascend by code: a_i's leaf has ref 4(i-1), so code 16i-12, and
# !(a_i | b_i) is the complement of join class i-1, code 4i-1
_A9_NF = " | ".join(
    t for _, t in sorted(p for i in range(1, _A9_N + 1) for p in ((16 * i - 12, f"a{i}"), (4 * i - 1, f"!(a{i} | b{i})")))
)


# Every Stats field and the printed normal form, pinned so that a rewrite
# of the fused pass cannot move a counter or the order codes are assigned
# in; and the ref extraction returns with len(arena) after it, so that a
# rewrite of extraction cannot move the order it interns nodes in.  Fields
# not listed are 0.
@pytest.mark.parametrize(
    "formula, scheduling, printed, counters, extracted",
    [
        pytest.param(
            gen_family("fig6", _FIG6_N), True, _FIG6_NF,
            dict(a2_flattens=510, nodes_visited=513, codes_allocated=1, merge_work=512),
            (1023, 1024),
            id="fig6",
        ),
        pytest.param(
            gen_family("fig7", _FIG7_N), True, _FIG7_NF,
            dict(a2_flattens=102, a2b_collapses=102, a5_drops=102, a6_strips=101, a7_hits=102, a11_hits=102,
                 nodes_visited=719, memo_hits=203, codes_allocated=2, merge_work=311),
            (921, 922),
            id="fig7",
        ),
        pytest.param(
            gen_family("a9", _A9_N), True, _A9_NF,
            dict(nodes_visited=817, memo_hits=204, codes_allocated=205, merge_work=816, a9_probe_work=408),
            (817, 818),
            id="a9",
        ),
        # equal-size children are coded in stored order; the printed order
        # follows the variables' codes, that is their leaves' refs
        pytest.param(
            parse("b | a"), True, "b | a",
            dict(nodes_visited=3, codes_allocated=1, merge_work=2),
            (2, 3),
            id="equal-sizes",
        ),
        # both children of the root's join are negated joins of leaves, so
        # no seam: each is coded where it is queued, !(a | !a) as 0 and
        # !(b | c | d | e) as a class, and the join of the one code left is
        # that code (A2b), negated by the root
        pytest.param(
            parse("!(!(a | !a) | !(b | c | d | e))"), True, "b | c | d | e",
            dict(a2b_collapses=1, a5_drops=1, a7_hits=1, a11_hits=1,
                 nodes_visited=12, memo_hits=1, codes_allocated=1, merge_work=7),
            (8, 12),
            id="seam-is-root",
        ),
        # the same with no negation over the root: no seam either
        pytest.param(
            parse("!(a | !a) | !(b | c | d | e)"), True, "!(b | c | d | e)",
            dict(a2b_collapses=1, a5_drops=1, a7_hits=1, a11_hits=1,
                 nodes_visited=11, memo_hits=1, codes_allocated=1, merge_work=7),
            (9, 11),
            id="seam-keeps-negation",
        ),
        # !!!(b | c | d | e) loses `!!` where it is queued and is coded there;
        # its class reaches the root join through the negated middle join,
        # whose one code it is, and is merged by its members
        pytest.param(
            parse("x | !(!(a | !a) | !!!(b | c | d | e))"), True, "x | b | c | d | e",
            dict(a2_flattens=1, a2b_collapses=1, a5_drops=1, a6_strips=1, a7_hits=1, a11_hits=1,
                 nodes_visited=14, memo_hits=1, codes_allocated=2, merge_work=12),
            (16, 17),
            id="seam-spliced",
        ),
        # the seam's children need no frame, so they are coded in stored
        # order, !(b | c | d) first, and A9 probes {b, c, d} before {b, c}
        pytest.param(
            parse("b | c | !(!(a | !a) | !!!(!(b | c | d) | !(b | c)))"), True, "1",
            dict(a2_flattens=1, a2b_collapses=1, a5_drops=1, a6_strips=2, a7_hits=1, a9_hits=1, a11_hits=1,
                 nodes_visited=14, memo_hits=5, codes_allocated=2, merge_work=11, a9_probe_work=5),
            (18, 19),
            id="seam-spliced-sorted",
        ),
        # the seam's last child would be !(!!b | !!c), but the scan strips
        # its towers and codes it where it is queued, so no seam fires: the
        # middle join is coded as that one class (A2b) and the root merges
        # its members, merge_work 8 where splicing the seam took 5
        pytest.param(
            parse("x | !(!(a | !a) | !(!!b | !!c))"), True, "x | b | c",
            dict(a2_flattens=1, a2b_collapses=1, a5_drops=1, a6_strips=2, a7_hits=1, a11_hits=1,
                 nodes_visited=12, memo_hits=1, codes_allocated=2, merge_work=8),
            (16, 17),
            id="seam-pre-empted-by-towers",
        ),
        # The four seam cases again, each seam holding a child that needs a
        # frame (a negated join, or a nested join).  Leaves the scan codes
        # before it stops are met in the memo when the frame is opened.
        # The seam b | c | !(d | e) cancels one negation and becomes the root
        pytest.param(
            parse("!(!(a | !a) | !(b | c | !(d | e)))"), True, "!(d | e) | b | c",
            dict(a2b_collapses=1, a5_drops=1, a6_strips=1, a7_hits=1, a11_hits=1,
                 nodes_visited=13, memo_hits=3, codes_allocated=2, merge_work=7, a9_probe_work=2),
            (14, 15),
            id="framed-seam-is-root",
        ),
        # no negation opened the root, so the seam keeps its own and is
        # resolved in place
        pytest.param(
            parse("!(a | !a) | !(b | c | !(d | e))"), True, "!(!(d | e) | b | c)",
            dict(a2b_collapses=1, a5_drops=1, a7_hits=1, a11_hits=1,
                 nodes_visited=13, memo_hits=3, codes_allocated=2, merge_work=7, a9_probe_work=2),
            (14, 15),
            id="framed-seam-keeps-negation",
        ),
        # the seam crosses a negation, loses `!!` and is spliced into the root join
        pytest.param(
            parse("x | !(!(a | !a) | !!!(b | c | !(d | e)))"), True, "!(d | e) | x | b | c",
            dict(a2_flattens=1, a2b_collapses=1, a5_drops=1, a6_strips=2, a7_hits=1, a11_hits=1,
                 nodes_visited=14, memo_hits=3, codes_allocated=2, merge_work=8, a9_probe_work=2),
            (18, 19),
            id="framed-seam-spliced",
        ),
        # the spliced seam's children are sorted, so !(b | (c | c)) is coded
        # before the larger !(b | c | !(d | e)) and A9 probes {b, c} first
        # and hits at once; in stored order it would probe {b, c, !(d | e)}
        # too (work 7, of which 2 is !(d | e)'s probe inside its parent)
        pytest.param(
            parse("b | c | !(!(a | !a) | !!!(!(b | c | !(d | e)) | !(b | (c | c))))"), True, "1",
            dict(a2_flattens=2, a2b_collapses=1, a3_dedups=1, a5_drops=1, a6_strips=2, a7_hits=1, a9_hits=1,
                 a11_hits=1, nodes_visited=17, memo_hits=8, codes_allocated=3, merge_work=13, a9_probe_work=4),
            (22, 23),
            id="framed-seam-spliced-sorted",
        ),
        # the towers are stripped where the children are queued: 0 | a is
        # spliced into the root frame, and the second tower strips to the
        # same join, a duplicate there
        pytest.param(
            parse("!!(0 | a) | !!!!(0 | a)"), True, "a",
            dict(a2_flattens=1, a2b_collapses=1, a3_dedups=1, a5_drops=1, a6_strips=2, nodes_visited=3,
                 codes_allocated=0, merge_work=1),
            (1, 8),
            id="seam-queued-then-deduplicated",
        ),
        pytest.param(
            gen_family("fig7", _FIG7_N), False, _FIG7_NF,
            dict(a2_flattens=102, a2b_collapses=102, a5_drops=102, a7_hits=102, a11_hits=102,
                 nodes_visited=921, memo_hits=203, codes_allocated=103, merge_work=5765),
            (921, 922),
            id="fig7-stored-order",
        ),
        # the class of b | a is reached through two parents, each time under
        # a negation; extraction interns three new nodes, the first member
        # being the input's own node
        pytest.param(
            parse("!(!(b | a) | d) | !(c | !(a | b)) | e"), True, "!(!(b | a) | d) | !(!(b | a) | c) | e",
            dict(nodes_visited=14, memo_hits=3, codes_allocated=4, merge_work=11, a9_probe_work=4),
            (16, 17),
            id="shared-class",
        ),
        # literal constant leaves are coded by the lookup that codes names
        pytest.param(
            parse("!(0 | !(a | 1) | b) | (c & 1)"), True, "!b | c",
            dict(a2b_collapses=2, a4_hits=1, a5_drops=3, a11_hits=2, nodes_visited=14, memo_hits=2,
                 codes_allocated=1, merge_work=4),
            (15, 16),
            id="constants",
        ),
    ],
)
def test_golden_stats_and_normal_form(formula, scheduling, printed, counters, extracted):
    arena = Arena()
    s = Session(arena, size_scheduling=scheduling)
    code = s.normalize(to_internal(formula, arena))
    assert vars(s.stats) == vars(Stats(**counters))
    nf_ref = s.extract_normal_form(code)
    assert (nf_ref, len(arena)) == extracted
    assert print_term(arena, nf_ref) == printed


# A `!!` tower under a negated join is stripped where the scan of that
# join meets it, so the join is coded where it is queued: each `!!` is one
# A6 strip and an odd tower over a constant one A10/A11.  A tower ending on
# a join not coded yet stops the scan, and the frame strips it again; the
# strips are counted once.  One session per case; fields not listed are 0.
@pytest.mark.parametrize(
    "texts, printed, counters",
    [
        (["x | !(!!a | !!b)"], ["!(a | b) | x"],
         dict(a6_strips=2, nodes_visited=6, codes_allocated=2, merge_work=4)),
        (["x | !(!!a | b)"], ["!(a | b) | x"],
         dict(a6_strips=1, nodes_visited=6, codes_allocated=2, merge_work=4)),
        # an odd tower strips to a negated leaf, which is coded too
        (["x | !(!!!a | b)"], ["!(!a | b) | x"],
         dict(a6_strips=1, nodes_visited=7, codes_allocated=2, merge_work=4)),
        (["x | !(!!!!a | b)"], ["!(a | b) | x"],
         dict(a6_strips=2, nodes_visited=6, codes_allocated=2, merge_work=4)),
        # an even tower over 0 is 0, dropped (A5); over 1 it is 1 (A4)
        (["x | !(!!0 | a)"], ["x | !a"],
         dict(a2b_collapses=1, a5_drops=1, a6_strips=1, nodes_visited=6, codes_allocated=1, merge_work=3)),
        (["x | !(!!!!1 | a)"], ["x"],
         dict(a2b_collapses=1, a4_hits=1, a5_drops=1, a6_strips=2, a11_hits=1, nodes_visited=6,
              codes_allocated=0, merge_work=1)),
        # an odd tower over a constant negates it once (A10, A11)
        (["x | !(!!!0 | a)"], ["x"],
         dict(a2b_collapses=1, a4_hits=1, a5_drops=1, a6_strips=1, a10_hits=1, a11_hits=1, nodes_visited=7,
              codes_allocated=0, merge_work=1)),
        (["x | !(!!!1 | a)"], ["x | !a"],
         dict(a2b_collapses=1, a5_drops=1, a6_strips=1, a11_hits=1, nodes_visited=7, codes_allocated=1,
              merge_work=3)),
        # over a join the first formula coded: met in the memo, its class
        # merged by its members
        (["b | c", "x | !(a | !!(b | c))"], ["b | c", "!(b | c | a) | x"],
         dict(a2_flattens=1, a6_strips=1, nodes_visited=8, memo_hits=1, codes_allocated=3, merge_work=7)),
        # the scan stops at the join b | c; a, coded before the stop, is
        # met in the memo when the frame strips !!a again
        (["x | !(!!a | (b | c))"], ["!(a | b | c) | x"],
         dict(a2_flattens=1, a6_strips=1, nodes_visited=7, memo_hits=1, codes_allocated=2, merge_work=5)),
        # a tower ending on a join not coded yet stops the scan too
        (["x | !(!!a | !!(b | c))"], ["!(a | b | c) | x"],
         dict(a2_flattens=1, a6_strips=2, nodes_visited=7, memo_hits=1, codes_allocated=2, merge_work=5)),
    ],
    ids=["both-towers", "one-tower", "odd", "height-4", "even-over-0", "even-over-1", "odd-over-0",
         "odd-over-1", "over-a-coded-join", "scan-stops-after-a-tower", "scan-stops-at-a-tower"],
)
def test_golden_towers_in_a_scanned_join(texts, printed, counters):
    arena, s = fresh()
    for text, expected in zip(texts, printed):
        ref = to_internal(parse(text), arena)
        nf_ref = s.extract_normal_form(s.normalize(ref))
        assert print_term(arena, nf_ref) == expected
        assert rw.oracle_equivalent(arena.export_tree(ref), arena.export_tree(nf_ref)), text
    assert s.stats == Stats(**counters)
    assert s._sizes == {}  # no frame had two negated joins to sort


class _ReadLog(list):
    """A class table that counts its reads, appends and length queries by
    the name of the calling function."""

    def __init__(self, items):
        super().__init__(items)
        self.readers = collections.Counter()

    def __getitem__(self, index):
        self.readers[sys._getframe(1).f_code.co_name] += 1
        return super().__getitem__(index)

    def append(self, item):
        self.readers[sys._getframe(1).f_code.co_name] += 1
        super().append(item)

    def __len__(self):
        self.readers[sys._getframe(1).f_code.co_name] += 1
        return super().__len__()


def _golden_formulas():
    """The formulas of every golden case above, in lists that share a session."""
    for test in (test_golden_two_code_joins, test_golden_stats_and_normal_form, test_golden_towers_in_a_scanned_join):
        (mark,) = (m for m in test.pytestmark if m.name == "parametrize")
        for case in mark.args[1]:
            first = case.values[0] if hasattr(case, "values") else case[0]
            yield [parse(text) for text in first] if type(first) is list else [first]


def test_only_finish_join_reads_the_class_table():
    # the fused pass codes a variable by its leaf's ref, so it never reads,
    # appends to or takes the length of the class table: `_finish_join`
    # alone splits and numbers join classes.  Not part of the call-count
    # test, as every access here is a Python call
    inputs = [[gen_family(family, family_scale(family, 2**10))] for family in FAMILIES]
    readers = collections.Counter()
    for formulas in inputs + list(_golden_formulas()):
        for scheduling in (True, False):
            arena = Arena()
            s = Session(arena, size_scheduling=scheduling)
            s._classes = log = _ReadLog(s._classes)
            for f in formulas:
                s.normalize(to_internal(f, arena))
            readers += log.readers
    assert readers["_run"] == 0, readers
    assert list(readers) == ["_finish_join"], readers


def test_codes_carry_their_kind():
    # one shared session over every bench family, the golden formulas and
    # random formulas: a variable's code comes from its leaf's ref, and the
    # class table holds join classes only, each numbered by `_finish_join`
    inputs = [gen_family(family, family_scale(family, 2**10)) for family in FAMILIES]
    inputs += [f for formulas in _golden_formulas() for f in formulas]
    rng = random.Random(35)
    inputs += [random_formula(rng, rng.randint(1, 60), ["a", "b", "c", "d", "e"]) for _ in range(200)]
    arena, s = fresh()
    for f in inputs:
        s.normalize(to_internal(f, arena))
    assert s.stats.codes_allocated == len(s._classes) > 0
    leaves = [r for r, code in enumerate(s._node_codes) if type(arena._payload[r]) is str and code is not None]
    variables = [r for r in leaves if arena._payload[r] not in ("0", "1")]
    assert variables and len(variables) < len(leaves)  # constant leaves were coded too
    for r in variables:
        assert s._node_codes[r] == 4 * (r + 1), r
        assert s.join_class_members(4 * (r + 1)) is None
        assert s.extract_normal_form(4 * (r + 1)) == r
    for members in s._classes:
        assert type(members) is tuple and len(members) >= 2 and list(members) == sorted(set(members)), members
    # never assigned: a bool, a variable code of a leaf this session never
    # coded (a constant's leaf, or a leaf interned after the pass), a join
    # code past the table
    never = [r for r in leaves if r not in variables] + [arena.var("never_coded")]
    for code in (True, False, *(4 * (r + 1) + k for r in never for k in (0, 1)), 4 * len(s._classes) + 2):
        for use in (s.join_class_members, s.extract_normal_form):
            with pytest.raises(ValueError, match="never assigned"):
                use(code)


STATS_FIELDS = [
    "a2_flattens",
    "a2b_collapses",
    "a3_dedups",
    "a4_hits",
    "a5_drops",
    "a6_strips",
    "a7_hits",
    "a9_hits",
    "a10_hits",
    "a11_hits",
    "nodes_visited",
    "memo_hits",
    "codes_allocated",
    "merge_work",
    "a9_probe_work",
]


def test_stats_contract():
    assert list(vars(Stats())) == STATS_FIELDS
    assert all(v == 0 for v in vars(Stats()).values())
    assert Stats(a4_hits=2) == Stats(a4_hits=2) != Stats()
    assert Stats() != vars(Stats())  # only a Stats compares equal
    assert Stats(a4_hits=2).a4_hits == 2
    with pytest.raises(TypeError):
        Stats(bogus=1)
    rules = Stats(a9_hits=3).rule_counters()
    assert list(rules.items()) == [(name, 3 if name == "a9_hits" else 0) for name in STATS_FIELDS[:10]]
    assert repr(Stats(a2_flattens=1)).startswith("Stats(a2_flattens=1, a2b_collapses=0, ")
    assert repr(Stats()).endswith(", a9_probe_work=0)")
