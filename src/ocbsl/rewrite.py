"""Naive rewrite engine over the internal language: the ground-truth oracle.

Works on plain tuple terms (the interchange shape of `dag`)::

    ("var", name) | ("0",) | ("1",) | ("not", t) | ("or", (t1, ..., tk))

Rules, all understood modulo commutativity of the n-ary join:

    A2   or(xs, or(ys))        -> or(xs, ys)
    A2b  or(x)                 -> x
    A3   or(x, x, ys)          -> or(x, ys)
    A4   or(1, xs)             -> 1
    A5   or(0, xs)             -> or(xs)        (xs nonempty)
    A6   not(not(x))           -> x
    A7   or(x, not(x), ys)     -> 1
    A9   or(xs, ys, not(or(ys))) -> 1
    A10  not(0)                -> 1
    A11  not(1)                -> 0

Every rule strictly shrinks the term, so reduction terminates within
node_count(t) steps; the default budget enforces exactly that bound.
Matching at one node is by brute force over its children (pairs and
sub-multisets), so this engine is for test-scale terms only (tens of
nodes).  The default leftmost-innermost strategy reduces in one post-order
walk that resumes at the last rewrite; `applicable_steps` and the
rightmost-outermost strategy list every redex of the whole term
after each step.  `node_count`, `canonicalize` and the walk recurse once
per level, so the term's depth is bounded by Python's recursion limit (at
the default limit, a chain of about 1,000 negations raises
RecursionError).  It deliberately shares no machinery with the coded
normalizer it cross-checks.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from operator import itemgetter

__all__ = [
    "ZERO",
    "ONE",
    "var",
    "neg",
    "join",
    "node_count",
    "term_key",
    "canonicalize",
    "RewriteStep",
    "RewriteBudgetError",
    "applicable_steps",
    "normal_form",
    "trace_normal_form",
    "oracle_equivalent",
]

ZERO = ("0",)
ONE = ("1",)


def var(name: str):
    return ("var", name)


def neg(t):
    return ("not", t)


def join(*children):
    if not children:
        raise ValueError("join needs at least one child")
    return ("or", tuple(children))


def node_count(t) -> int:
    """Nodes of the term as written (no sharing at this layer)."""
    head = t[0]
    if head in ("var", "0", "1"):
        return 1
    if head == "not":
        return 1 + node_count(t[1])
    return 1 + sum(node_count(c) for c in t[1])


def term_key(t):
    """Total structural order: constants < variables < negations < joins."""
    head = t[0]
    if head == "0":
        return (0, 0)
    if head == "1":
        return (0, 1)
    if head == "var":
        return (1, t[1])
    if head == "not":
        return (2, term_key(t[1]))
    return (3, tuple(term_key(c) for c in t[1]))


def canonicalize(t):
    """Sort join children recursively; commutativity-equal terms coincide."""
    return _canonical(t)[0]


def _canonical(t):
    """(canonicalize(t), its term_key), keying each subterm once, bottom-up.

    A composite's key is built from its children's keys as `term_key`
    builds it.  Sorting by `term_key` at every level would instead rebuild
    the key of the whole subtree each time, quadratic in depth.
    """
    head = t[0]
    if head == "not":
        child, key = _canonical(t[1])
        return ("not", child), (2, key)
    if head == "or":
        pairs = sorted(map(_canonical, t[1]), key=itemgetter(1))
        return ("or", tuple([c for c, _ in pairs])), (3, tuple([k for _, k in pairs]))
    return t, term_key(t)


class RewriteBudgetError(RuntimeError):
    """Reduction exceeded its step budget: a termination bug."""


# One rule application: the rule (A2, A2b, A3, A4, A5, A6, A7, A9, A10,
# A11), its position as a child-index path from the root, and the whole
# term before and after the step.
RewriteStep = namedtuple("RewriteStep", "rule position before after")


def _replace(t, path, sub):
    # iterative, so that the leftmost-innermost walk, which calls this at
    # its own depth, reaches terms as deep as `canonicalize` does
    spine = []
    for i in path:
        spine.append(t)
        t = t[1] if t[0] == "not" else t[1][i]
    for node, i in zip(reversed(spine), reversed(path)):
        if node[0] == "not":
            sub = ("not", sub)
        else:
            children = node[1]
            sub = ("or", children[:i] + (sub,) + children[i + 1 :])
    return sub


def _local_reducts(t):
    """(rule, reduct) pairs for redexes at the root of t."""
    out = []
    head = t[0]
    if head == "not":
        child = t[1]
        if child[0] == "not":
            out.append(("A6", child[1]))
        elif child == ZERO:
            out.append(("A10", ONE))
        elif child == ONE:
            out.append(("A11", ZERO))
        return out
    if head != "or":
        return out
    children = t[1]
    n = len(children)
    if n == 1:
        out.append(("A2b", children[0]))
    canon = [canonicalize(c) for c in children]
    for i, c in enumerate(children):
        if c[0] == "or":
            out.append(("A2", ("or", children[:i] + c[1] + children[i + 1 :])))
        if c == ONE:
            out.append(("A4", ONE))
        if c == ZERO and n >= 2:
            out.append(("A5", ("or", children[:i] + children[i + 1 :])))
    for i in range(n):
        for j in range(i + 1, n):
            if canon[i] == canon[j]:
                out.append(("A3", ("or", children[:j] + children[j + 1 :])))
            if canon[j] == ("not", canon[i]) or canon[i] == ("not", canon[j]):
                out.append(("A7", ONE))
    for j, c in enumerate(children):
        if c[0] == "not" and c[1][0] == "or":
            inner = Counter(canonicalize(g) for g in c[1][1])
            siblings = Counter(canon[i] for i in range(n) if i != j)
            if not inner - siblings:  # sub-multiset test
                out.append(("A9", ONE))
    return out


def applicable_steps(t) -> list[RewriteStep]:
    """Every (rule, position) match in t, each with the full reduct."""
    steps = []
    stack = [(t, ())]
    while stack:
        node, path = stack.pop()
        for rule, reduct in _local_reducts(node):
            steps.append(RewriteStep(rule, path, t, _replace(t, path, reduct)))
        if node[0] == "not":
            stack.append((node[1], path + (0,)))
        elif node[0] == "or":
            for i, c in enumerate(node[1]):
                stack.append((c, path + (i,)))
    return steps


_RULE_ORDER = {r: i for i, r in enumerate(["A2", "A2b", "A3", "A4", "A5", "A6", "A7", "A9", "A10", "A11"])}

_INF = float("inf")


def _ro_key(step: RewriteStep):
    # rightmost-outermost under `max`: prefixes beat their extensions
    return (step.position + (_INF,), -_RULE_ORDER[step.rule])


def trace_normal_form(t, budget: int | None = None, strategy: str = "leftmost-innermost"):
    """(canonical normal form, list of steps taken).

    The default budget is node_count(t): every rule shrinks the term, so a
    correct system can never need more steps than nodes.

    Leftmost-innermost takes, at each step, the first node in post-order
    (children left to right) with a redex, the lowest rule of `_RULE_ORDER`
    there, and on a tie the reduct `_local_reducts` emits first.  It is
    computed by one post-order walk that resumes at the last rewrite rather
    than by listing every redex: after a step at position p, every node
    before p in post-order is unchanged and irreducible, and every proper
    subterm of the reduct was already reduced (each rule's reduct is built
    from subterms of the redex, or is a constant), so the next step is at p
    itself or later in post-order.  Rightmost-outermost takes the `max` of
    `applicable_steps` under its order after every step.
    """
    if strategy not in ("leftmost-innermost", "rightmost-outermost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if budget is None:
        budget = node_count(t)
    steps: list[RewriteStep] = []
    if strategy == "rightmost-outermost":
        while candidates := applicable_steps(t):
            if len(steps) >= budget:
                raise RewriteBudgetError(f"no normal form within {budget} steps")
            step = max(candidates, key=_ro_key)
            steps.append(step)
            t = step.after
        return canonicalize(t), steps

    whole = t

    def visit(node, path):
        nonlocal whole
        head = node[0]
        if head == "not":
            node = ("not", visit(node[1], path + (0,)))
        elif head == "or":
            node = ("or", tuple(visit(c, path + (i,)) for i, c in enumerate(node[1])))
        while True:
            reducts = _local_reducts(node)
            if not reducts:
                return node
            if len(steps) >= budget:
                raise RewriteBudgetError(f"no normal form within {budget} steps")
            rule, node = min(reducts, key=lambda r: _RULE_ORDER[r[0]])
            after = _replace(whole, path, node)
            steps.append(RewriteStep(rule, path, whole, after))
            whole = after

    visit(t, ())
    return canonicalize(whole), steps


def normal_form(t, budget: int | None = None, strategy: str = "leftmost-innermost"):
    """Reduce until no rule applies; result is canonicalized."""
    return trace_normal_form(t, budget, strategy)[0]


def oracle_equivalent(t1, t2) -> bool:
    return normal_form(t1) == normal_form(t2)
