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
Matching is by brute force over sub-multisets of children, so this engine
is for test-scale terms only (tens of nodes).  It deliberately shares no
machinery with the coded normalizer it cross-checks.
"""

from __future__ import annotations

from collections import Counter, namedtuple

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
    "joinable",
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
    head = t[0]
    if head == "not":
        return ("not", canonicalize(t[1]))
    if head == "or":
        return ("or", tuple(sorted((canonicalize(c) for c in t[1]), key=term_key)))
    return t


class RewriteBudgetError(RuntimeError):
    """Reduction exceeded its step budget: a termination bug."""


# One rule application: the rule (A2, A2b, A3, A4, A5, A6, A7, A9, A10,
# A11), its position as a child-index path from the root, and the whole
# term before and after the step.
RewriteStep = namedtuple("RewriteStep", "rule position before after")


def _replace(t, path, sub):
    if not path:
        return sub
    i = path[0]
    if t[0] == "not":
        return ("not", _replace(t[1], path[1:], sub))
    children = t[1]
    return ("or", children[:i] + (_replace(children[i], path[1:], sub),) + children[i + 1 :])


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


def _li_key(step: RewriteStep):
    # leftmost-innermost: extensions of a path come before the path itself
    return (step.position + (_INF,), _RULE_ORDER[step.rule])


def _ro_key(step: RewriteStep):
    # rightmost-outermost under `max`: prefixes beat their extensions
    return (step.position + (_INF,), -_RULE_ORDER[step.rule])


def trace_normal_form(t, budget: int | None = None, strategy: str = "leftmost-innermost"):
    """(canonical normal form, list of steps taken).

    The default budget is node_count(t): every rule shrinks the term, so a
    correct system can never need more steps than nodes.
    """
    if budget is None:
        budget = node_count(t)
    steps: list[RewriteStep] = []
    while True:
        candidates = applicable_steps(t)
        if not candidates:
            return canonicalize(t), steps
        if strategy == "leftmost-innermost":
            step = min(candidates, key=_li_key)
        elif strategy == "rightmost-outermost":
            step = max(candidates, key=_ro_key)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        if len(steps) >= budget:
            raise RewriteBudgetError(f"no normal form within {budget} steps")
        steps.append(step)
        t = step.after


def normal_form(t, budget: int | None = None, strategy: str = "leftmost-innermost"):
    """Reduce until no rule applies; result is canonicalized."""
    return trace_normal_form(t, budget, strategy)[0]


def joinable(t1, t2, budget: int | None = None) -> bool:
    """Whether t1 and t2 reduce to the same canonical normal form."""
    return normal_form(t1, budget) == normal_form(t2, budget)


def oracle_equivalent(t1, t2) -> bool:
    return normal_form(t1) == normal_form(t2)
