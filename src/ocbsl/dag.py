"""Hash-consed DAG of internal terms.

Internal terms are built from variables, the constants 0 and 1, negation,
and one n-ary join.  An Arena interns every node by content: a node's
payload is its memo key, so structurally identical subterms resolve to the
same integer handle (TermRef), and terms with heavy sharing stay small even
when the fully expanded tree is astronomically large.  Children of a join
are kept in stored order here; commutativity is the normalizer's business.

A node is its payload, whose type gives its kind: an int is a negation
(of the child with that ref), a tuple is a join (of those refs), and
anything else is a leaf whose payload is its text, "0", "1" or a variable
name.  `_check_name` never lets a name read "0" or "1", so payloads of
different kinds never collide as memo keys.  Readers test ``type(p) is
int``, then ``type(p) is tuple``, and take the rest as a leaf; a name may
be a `str` subclass, so none tests for `str`.

Refs are handed out in append order, and a node can only be interned
after its children exist, so every child has a smaller ref than its
parent: ascending refs are a topological order.  Two measures lean on
this.  A node's expanded tree size is fixed when it is interned, from the
sizes its children already have.  And the nodes reachable from some
roots, sorted, list every node after its children, at O(r log r) for r
reachable refs.

The plain-tuple interchange form used by `intern_tree`/`export_tree` (and
by the rewrite oracle) is::

    ("var", name) | ("0",) | ("1",) | ("not", t) | ("or", (t1, ..., tk))

with k >= 1.  `intern_tree` also takes the surface conjunction
``("and", (t1, ..., tk))`` of `syntax` and interns it by de Morgan as
``!(!t1 | ... | !tk)``, so it is the one builder from any formula tree to
refs; `export_tree` never emits "and".  `_tree_nodes` checks the shape of
the whole tree before `intern_tree` interns any of it, so a malformed tree
interns nothing.
"""

from __future__ import annotations

import re
import reprlib

__all__ = ["Arena", "SIZE_CAP", "print_term"]

# Underlying-tree sizes saturate here instead of growing without bound.
# Only a DAG built with the builders (`var`, `neg`, `join`) can reach the
# cap: a tree interned by `intern_tree` expands to at most three times its
# own node count.  Order among saturated values is lost, which only blurs
# the child schedule for absurdly large subtrees, never correctness.
SIZE_CAP = 2**64 - 1

# A variable name; `syntax` scans names with this pattern.  `_check_name`
# and `_tree_nodes` test the same set without it: on ASCII text
# `str.isidentifier` accepts exactly this pattern, and the unbound `str`
# methods ignore overrides in a `str` subclass.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_name(name: str) -> None:
    if not (isinstance(name, str) and str.isascii(name) and str.isidentifier(name)):
        raise ValueError(f"invalid variable name {name!r}")


def _tree_nodes(term) -> list:
    """Every node of a plain-tuple tree, in pre-order with children right to left.

    Reversed, the list is the left-to-right post-order.  Iterative, and
    the one check of the tree shape: a node with an unknown head, a wrong
    arity, an empty or non-tuple child sequence or a bad variable name
    raises ValueError.
    """
    nodes = []
    stack = [term]
    pop, push, extend, emit = stack.pop, stack.append, stack.extend, nodes.append
    isascii, isidentifier = str.isascii, str.isidentifier
    while stack:
        t = pop()
        emit(t)
        if type(t) is tuple and len(t) == 2:
            head, arg = t
            if head == "var":
                if not (isinstance(arg, str) and isascii(arg) and isidentifier(arg)):
                    _check_name(arg)  # raises
                continue
            if head == "not":
                push(arg)
                continue
            if (head == "or" or head == "and") and type(arg) is tuple and arg:
                extend(arg)
                continue
        elif type(t) is tuple and len(t) == 1 and (t[0] == "0" or t[0] == "1"):
            continue
        raise ValueError(f"bad term node {reprlib.repr(t)}")
    return nodes


class Arena:
    """Single-writer store of interned term nodes.

    TermRefs are indices into the arena and are only meaningful within it.
    Frozen arenas may be read concurrently; interning is not thread-safe.
    """

    def __init__(self):
        self._payload: list = []  # ref -> payload, which encodes the kind (module docstring)
        self._memo: dict = {}  # payload -> ref
        self._sizes: list[int] = []  # expanded tree size, saturating at SIZE_CAP

    def __len__(self) -> int:
        return len(self._payload)

    def _intern(self, payload) -> int:
        """Ref of the node with this payload, appended if new; payload unchecked.

        `intern_tree` writes these steps out inline for each node kind.
        """
        ref = self._memo.get(payload)
        if ref is not None:
            return ref
        ref = len(self._payload)
        sizes = self._sizes
        if type(payload) is int:  # a negation of that ref
            size = sizes[payload] + 1
        elif type(payload) is tuple:  # a join of those refs
            size = sum(map(sizes.__getitem__, payload)) + 1
        else:  # a leaf
            size = 1
        self._payload.append(payload)
        sizes.append(size if size < SIZE_CAP else SIZE_CAP)
        self._memo[payload] = ref
        return ref

    def zero(self) -> int:
        return self._intern("0")

    def one(self) -> int:
        return self._intern("1")

    def var(self, name: str) -> int:
        _check_name(name)
        return self._intern(name)

    def neg(self, child: int) -> int:
        self._check(child)
        return self._intern(child)

    def join(self, children: tuple[int, ...]) -> int:
        children = tuple(children)
        if not children:
            raise ValueError("join needs at least one child")
        for c in children:
            self._check(c)
        return self._intern(children)

    def _check(self, ref: int) -> None:
        # exactly int: a bool is an int too, and True would pass for ref 1
        if not (type(ref) is int and 0 <= ref < len(self._payload)):
            raise ValueError(f"ref {ref!r} does not belong to this arena")

    # -- traversal and measures --------------------------------------------

    def reverse_topological_order(self, roots: list[int]) -> list[int]:
        """Every node reachable from roots, each after all of its children."""
        for r in roots:
            self._check(r)
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            p = self._payload[n]
            if type(p) is int:  # a negation
                stack.append(p)
            elif type(p) is tuple:  # a join
                stack.extend(p)
        return sorted(seen)

    def tree_size(self, ref: int) -> int:
        """Node count of the fully expanded tree under ref, saturating at SIZE_CAP.

        Fixed when ref is interned, so this is a lookup.
        """
        self._check(ref)
        return self._sizes[ref]

    # -- plain-tuple interchange --------------------------------------------

    def intern_tree(self, term) -> int:
        """Intern a plain-tuple term (see module docstring for the shape).

        `_tree_nodes` checks the whole tree first, so a malformed tree
        raises ValueError with nothing interned.  Then, in post-order, a
        node's children are interned left to right before it, and an "and"
        interns the negated children left to right, then their join, then
        its negation.

        Each node is interned inline, with the memo lookup and the appends
        of `_intern` written out per kind: a call per node was most of the
        cost of this loop.  A two-child "or" or "and", the commonest joins,
        pops its right child and overwrites its left one on the value stack
        instead of slicing both off.  Sizes are not saturated as in `_intern`: each
        "and" of k children adds k + 1 nodes, so a tree of N nodes expands
        to at most 3N, and `_tree_nodes` has just walked all N of them, far
        short of SIZE_CAP.  A memo hit is a node of the same content, so of
        the same size.  `_intern` stays the path of the builders and of
        `Session.extract_normal_form`; tests/test_dag.py pins the two paths
        to the same refs, payloads, sizes and memo.
        """
        nodes = _tree_nodes(term)  # the tree is checked and refs on `vals` came from it
        payload, sizes, memo = self._payload, self._sizes, self._memo
        lookup, add_payload, add_size = memo.get, payload.append, sizes.append
        vals: list[int] = []
        push = vals.append
        for t in reversed(nodes):
            head = t[0]
            if head == "var":
                p = t[1]
                ref = lookup(p)
                if ref is None:
                    ref = memo[p] = len(payload)
                    add_payload(p)
                    add_size(1)
                push(ref)
            elif head == "not":
                p = vals[-1]
                ref = lookup(p)
                if ref is None:
                    ref = memo[p] = len(payload)
                    add_payload(p)
                    add_size(sizes[p] + 1)
                vals[-1] = ref
            elif head == "or" and len(t[1]) == 2:  # the common join: no slice
                b = vals.pop()
                a = vals[-1]
                p = (a, b)
                ref = lookup(p)
                if ref is None:
                    ref = memo[p] = len(payload)
                    add_payload(p)
                    add_size(sizes[a] + sizes[b] + 1)
                vals[-1] = ref
            elif head == "and" and len(t[1]) == 2:  # !(!a | !b), interned in that order
                b = vals.pop()
                a = vals[-1]
                na = lookup(a)
                if na is None:
                    na = memo[a] = len(payload)
                    add_payload(a)
                    add_size(sizes[a] + 1)
                nb = lookup(b)
                if nb is None:
                    nb = memo[b] = len(payload)
                    add_payload(b)
                    add_size(sizes[b] + 1)
                p = (na, nb)
                ref = lookup(p)
                if ref is None:
                    ref = memo[p] = len(payload)
                    add_payload(p)
                    add_size(sizes[na] + sizes[nb] + 1)
                p = ref
                ref = lookup(p)
                if ref is None:
                    ref = memo[p] = len(payload)
                    add_payload(p)
                    add_size(sizes[p] + 1)
                vals[-1] = ref
            elif head == "or" or head == "and":
                k = len(t[1])
                children = vals[-k:]
                del vals[-k:]
                if head == "and":  # de Morgan: negate each child, left to right
                    for i, p in enumerate(children):
                        ref = lookup(p)
                        if ref is None:
                            ref = memo[p] = len(payload)
                            add_payload(p)
                            add_size(sizes[p] + 1)
                        children[i] = ref
                p = tuple(children)
                ref = lookup(p)
                if ref is None:
                    ref = memo[p] = len(payload)
                    add_payload(p)
                    add_size(sum(map(sizes.__getitem__, p)) + 1)
                if head == "and":  # and the negation of the join
                    p = ref
                    ref = lookup(p)
                    if ref is None:
                        ref = memo[p] = len(payload)
                        add_payload(p)
                        add_size(sizes[p] + 1)
                push(ref)
            else:  # "0" or "1": the head is the leaf's text
                ref = lookup(head)
                if ref is None:
                    ref = memo[head] = len(payload)
                    add_payload(head)
                    add_size(1)
                push(ref)
        return vals[0]

    def export_tree(self, ref: int):
        """Plain-tuple form of ref; expands sharing, so keep inputs small."""
        self._check(ref)
        out: dict[int, tuple] = {}
        for n in self.reverse_topological_order([ref]):
            p = self._payload[n]
            if type(p) is int:  # a negation
                out[n] = ("not", out[p])
            elif type(p) is tuple:  # a join
                out[n] = ("or", tuple(out[c] for c in p))
            elif p == "0" or p == "1":  # a constant
                out[n] = (p,)
            else:  # a variable
                out[n] = ("var", p)
        return out[ref]


def print_term(arena: Arena, ref: int) -> str:
    """Internal-language text: n-ary `|`, prefix `!`, constants 0/1.

    Join children of joins and negated composites are parenthesised.
    Deterministic: children appear in stored order.
    """
    arena._check(ref)
    payload = arena._payload  # children of a checked ref are refs
    out: list[str] = []
    stack: list = [(ref, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        n, need_parens = item
        p = payload[n]
        if type(p) is int:  # a negation
            out.append("!")
            stack.append((p, True))
        elif type(p) is tuple:  # a join
            if need_parens:
                out.append("(")
                stack.append(")")
            for i, c in enumerate(reversed(p)):
                if i:
                    stack.append(" | ")
                stack.append((c, True))
        else:  # a leaf's payload is its text: the name, "0" or "1"
            out.append(p)
    return "".join(out)
