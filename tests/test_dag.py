import itertools
import random
import string

import pytest

from ocbsl import formula_nodes, print_formula, rewrite, to_internal
from ocbsl.bench import FAMILIES, family_scale, gen_family
from ocbsl.dag import _NAME_RE, SIZE_CAP, Arena, _check_name, _tree_nodes, print_term
from enum_terms import enumerate_terms
from gen import random_formula


def test_interning_is_shared():
    arena = Arena()
    assert arena.var("a") == arena.var("a")
    assert arena.zero() == arena.zero()
    a, b = arena.var("a"), arena.var("b")
    assert arena.join((a, b)) == arena.join((a, b))
    # stored order matters at this layer; the normalizer handles commutativity
    assert arena.join((a, b)) != arena.join((b, a))
    assert arena.neg(arena.neg(a)) != a


def test_intern_grows_by_at_most_one():
    arena = Arena()
    a = arena.var("a")
    n = len(arena)
    arena.var("a")
    assert len(arena) == n
    arena.neg(a)
    assert len(arena) == n + 1


def test_kind_and_accessors_of_each_builder():
    # the kind is read from the payload: "0" and "1" are constants, not names
    arena = Arena()
    a = arena.var("a")
    refs = [arena.zero(), arena.one(), a, arena.neg(a), arena.join((a, a))]
    assert [arena._payload[ref] for ref in refs] == ["0", "1", "a", a, (a, a)]
    va = ("var", "a")
    assert [arena.export_tree(ref) for ref in refs] == [("0",), ("1",), va, ("not", va), ("or", (va, va))]


def test_ref_validation():
    arena = Arena()
    other = Arena()
    a = other.var("a")
    other.var("b")
    with pytest.raises(ValueError):
        arena.neg(0)
    with pytest.raises(ValueError):
        arena.join((a,))
    with pytest.raises(ValueError, match="at least one child"):
        arena.join(())
    arena.var("a")
    arena.var("b")
    uses = (
        arena.neg,
        lambda r: arena.join((r,)),
        lambda r: print_term(arena, r),
        arena.tree_size,
    )
    # -1 would index from the end; a bool is an int, but never a ref: True
    # would otherwise stand for ref 1
    for ref in (-1, len(arena), True, False, 1.0):
        for use in uses:
            with pytest.raises(ValueError, match="does not belong to this arena"):
                use(ref)
    assert len(arena) == 2


def test_reverse_topological_order_basics():
    arena = Arena()
    a = arena.var("a")
    assert arena.reverse_topological_order([a]) == [a]
    na = arena.neg(a)
    assert arena.reverse_topological_order([na]) == [a, na]


def test_reverse_topological_order_diamond():
    arena = Arena()
    a = arena.var("a")
    na = arena.neg(a)
    top = arena.join((na, a))
    order = arena.reverse_topological_order([top])
    assert sorted(order) == sorted({a, na, top})
    pos = {n: i for i, n in enumerate(order)}
    assert pos[a] < pos[na] < pos[top]


def test_reverse_topological_order_property():
    arena = Arena()
    refs = [arena.intern_tree(t) for t in enumerate_terms(5)]
    order = arena.reverse_topological_order(refs)
    assert len(order) == len(set(order)) == len(arena)
    pos = {n: i for i, n in enumerate(order)}
    for n in order:
        p = arena._payload[n]
        for c in (p,) if type(p) is int else p if type(p) is tuple else ():
            assert pos[c] < pos[n]


def test_tree_size():
    arena = Arena()
    a, b = arena.var("a"), arena.var("b")
    assert arena.tree_size(a) == 1
    assert arena.tree_size(arena.neg(arena.join((a, b)))) == 4


def test_tree_size_saturates():
    arena = Arena()
    t = arena.var("a")
    for _ in range(64):
        t = arena.join((t, t))
    assert arena.tree_size(t) == SIZE_CAP  # saturated, not wrapped


def test_sharing_gap():
    # doubling chain: node count linear in depth, expanded tree exponential
    arena = Arena()
    t = arena.var("a")
    for _ in range(40):
        t = arena.join((t, t))
    assert len(arena) == 41
    assert arena.tree_size(t) >= 2**40


def test_hash_consing_soundness_exhaustive():
    # structural equality of terms <-> equality of refs, all terms <= 5 nodes;
    # the atoms include 0 and 1, whose memo keys must not meet a name's
    arena = Arena()
    terms = enumerate_terms(5)
    refs = [arena.intern_tree(t) for t in terms]
    assert len(set(refs)) == len(terms)
    again = [arena.intern_tree(t) for t in terms]
    assert refs == again


def test_tree_round_trip():
    # one arena for all terms, so most sizes are fixed from shared children
    arena = Arena()
    for t in enumerate_terms(5):
        ref = arena.intern_tree(t)
        assert arena.export_tree(ref) == t
        assert arena.tree_size(ref) == rewrite.node_count(t)


def test_intern_tree_interns_and_by_de_morgan_in_order():
    # children, then each negated child left to right, then the join and
    # its negation: the numbering every code and counter depends on
    arena = Arena()
    top = arena.intern_tree(("and", (("var", "a"), ("var", "b"))))
    assert top == 5 and len(arena) == 6
    assert arena.export_tree(top) == (
        "not",
        ("or", (("not", ("var", "a")), ("not", ("var", "b")))),
    )
    assert arena._payload[2:5] == [0, 1, (2, 3)]


def _build(arena, t) -> int:
    """Ref of tree t built through the checked builders, in post-order.

    An "and" is built by de Morgan in the order `intern_tree` documents:
    the children, each child's negation left to right, their join, then
    the join's negation.  Iterative, so that deep chains fit the stack.
    """
    vals: list[int] = []
    for node in reversed(_tree_nodes(t)):
        head = node[0]
        if head == "var":
            vals.append(arena.var(node[1]))
        elif head == "0":
            vals.append(arena.zero())
        elif head == "1":
            vals.append(arena.one())
        elif head == "not":
            vals.append(arena.neg(vals.pop()))
        else:
            k = len(node[1])
            children = vals[-k:]
            del vals[-k:]
            if head == "or":
                vals.append(arena.join(children))
            else:
                vals.append(arena.neg(arena.join([arena.neg(c) for c in children])))
    return vals[0]


def _assert_same_arenas(trees):
    # `intern_tree` interns inline; the builders go through `_intern`
    inline, built = Arena(), Arena()
    assert [inline.intern_tree(t) for t in trees] == [_build(built, t) for t in trees]
    assert inline._payload == built._payload
    assert inline._memo == built._memo
    assert [inline.tree_size(r) for r in range(len(inline))] == [built.tree_size(r) for r in range(len(built))]
    return inline


def test_intern_tree_matches_the_builders():
    # one shared arena per path, so later trees hit the memo of earlier ones
    rng = random.Random(18)
    trees = [random_formula(rng, rng.randint(1, 40), ["a", "b", "c", "d"]) for _ in range(400)]
    families = [gen_family(family, family_scale(family, 2**8)) for family in FAMILIES]
    trees += families
    # binary joins nested to the left and to the right, about 2^10 nodes each
    left = right = ("var", "c0")
    for i in range(1, 2**9):
        left, right = ("or", (left, ("var", f"l{i}"))), ("or", (("var", f"r{i}"), right))
    trees += [left, right]
    # both children one ref, already interned: the joins below are new the
    # first time and memo hits the second
    t = families[0]
    trees += [("or", (t, t)), ("and", (t, t))] * 2 + [("or", (left, left))]
    arena = _assert_same_arenas(trees)
    assert {type(p) for p in arena._payload} == {str, int, tuple}
    assert {"0", "1"} <= set(arena._payload)
    assert any(t[0] == "and" for t in trees)


def test_intern_tree_sizes_are_exact():
    # an "and" of k children adds k negations, a join and its negation: the
    # expanded size is at most three times the tree's, so `intern_tree`
    # needs no saturation
    def expanded(tree):
        nodes = _tree_nodes(tree)
        return len(nodes) + sum(len(t[1]) + 1 for t in nodes if t[0] == "and")

    rng = random.Random(20)
    trees = [random_formula(rng, rng.randint(1, 60), ["a", "b", "c", "d"]) for _ in range(300)]
    trees += [gen_family(family, family_scale(family, 2**10)) for family in FAMILIES]
    arena = Arena()  # shared, so later trees hit the memo of earlier ones
    for t in trees:
        assert arena.tree_size(arena.intern_tree(t)) == expanded(t) <= 3 * len(_tree_nodes(t)), t
    assert any(t[0] == "and" for t in trees)


@pytest.mark.parametrize(
    "tree",
    [
        ("xor", (("var", "a"),)),  # unknown head
        "a",  # a bare string
        "0",  # a bare string that reads as a head
        5,
        ("or", ()),
        ("and", ()),
        ("or", [("var", "a")]),  # children must be a tuple
        ("var", "1a"),
        ("var", 5),
        ("var",),
        ("not",),
        ("0", "extra"),
        ("or", (("var", "a"), "b")),  # malformed below the root
        ("foo",),
        ("not", ("var", "1bad")),
        # well-formed nodes before the bad one in post-order
        ("or", (("var", "a"), ("not", ("var", "b")), ("foo",))),
        ("var", "é"),  # a Python identifier, not ASCII
        ("var", ""),
    ],
)
def test_intern_tree_rejects_malformed_trees(tree):
    # every walker of the tree shape rejects it, and none interns a part
    arena = Arena()
    arena.var("a")
    before = (list(arena._payload), dict(arena._memo))
    with pytest.raises(ValueError):
        arena.intern_tree(tree)
    with pytest.raises(ValueError):
        to_internal(tree, arena)
    assert len(arena) == 1
    assert (arena._payload, arena._memo) == before
    with pytest.raises(ValueError):
        formula_nodes(tree)
    with pytest.raises(ValueError):
        print_formula(tree)


class _LyingStr(str):
    # a name check must read the characters, not these overrides
    def isascii(self):
        return True

    def isidentifier(self):
        return True


def _accepts(check, name) -> bool:
    try:
        check(name)
    except ValueError:
        return False
    return True


# every ASCII character, and non-ASCII ones that `str.isidentifier` takes for
# letters or digits (é, ª, µ, ·, a combining acute, ٣, Ⅰ, 𝐀) or that are no
# name characters at all (a no-break space, a line separator)
_NAME_TEST_CHARS = [chr(c) for c in range(128)] + list("é\u00aa\u00b5\u00b7\u0301\u0663\u2160\U0001d400\u00a0\u2028")
_NAME_HEAD = string.ascii_letters + "_"
_NAME_TAIL = _NAME_HEAD + string.digits
_NAME_CASES = [
    ("é", False),
    ("\u00aa", False),  # a letter to `str.isidentifier`, not ASCII
    ("\u0663", False),  # an Arabic-Indic digit
    ("9a", False),
    ("", False),
    ("a\n", False),
    ("é", True),
    ("a_1", True),
]


def _long_name_texts(rng, count):
    """Texts of 3-12 characters: names, names with one character swapped, and noise."""
    for _ in range(count):
        n = rng.randint(3, 12)
        kind = rng.randrange(3)
        if kind == 2:
            yield "".join(rng.choices(_NAME_TEST_CHARS, k=n))
            continue
        chars = [rng.choice(_NAME_HEAD), *rng.choices(_NAME_TAIL, k=n - 1)]
        if kind == 1:
            chars[rng.randrange(n)] = rng.choice(_NAME_TEST_CHARS)
        yield "".join(chars)


def test_check_name_accepts_exactly_the_name_pattern():
    # every text of up to two test characters, then longer seeded ones
    short = ("".join(t) for k in range(3) for t in itertools.product(_NAME_TEST_CHARS, repeat=k))
    texts = itertools.chain(short, _long_name_texts(random.Random(24), 2000))
    cases = itertools.chain(_NAME_CASES, ((text, subclass) for text in texts for subclass in (False, True)))
    for text, subclass in cases:
        name = _LyingStr(text) if subclass else text
        expected = _NAME_RE.fullmatch(name) is not None
        assert _accepts(_check_name, name) == expected, (text, subclass)
        # `_tree_nodes` checks the names of a tree with its own inlined test
        assert _accepts(_tree_nodes, ("var", name)) == expected, (text, subclass)


def test_tree_walkers_take_deep_and_wide_trees():
    n = 10**5
    deep = ("var", "a")
    for _ in range(n):
        deep = ("not", deep)
    wide = ("or", tuple(("var", f"x{i}") for i in range(n)))
    for tree, text in ((deep, "!" * n + "a"), (wide, " | ".join(f"x{i}" for i in range(n)))):
        arena = Arena()
        top = arena.intern_tree(tree)
        assert top == n and len(arena) == n + 1
        assert formula_nodes(tree) == n + 1
        assert print_formula(tree) == text


def test_print_term():
    arena = Arena()
    a, b = arena.var("a"), arena.var("b")
    assert print_term(arena, arena.join((a, arena.neg(b)))) == "a | !b"
    assert print_term(arena, arena.neg(arena.join((a, b)))) == "!(a | b)"
    assert print_term(arena, arena.join((a, arena.join((a, b))))) == "a | (a | b)"
    assert print_term(arena, arena.neg(arena.neg(a))) == "!!a"
    assert print_term(arena, arena.zero()) == "0"


def test_print_term_agrees_with_print_formula():
    # the two printers of the internal language: one walks the arena, the
    # other the exported tree
    arena = Arena()
    for t in enumerate_terms(5):
        ref = arena.intern_tree(t)
        assert print_term(arena, ref) == print_formula(arena.export_tree(ref)), t
