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
parent: ascending refs are a topological order.  So the nodes reachable
from some roots, sorted, list every node after its children, at
O(r log r) for r reachable refs.

A node's expanded tree size is not stored: interning pays nothing for
it, and no reader writes to a frozen arena.  `_add_tree_sizes` enters
sizes in a dict that its caller keeps, in one walk that stops at the
sizes already there: `tree_size` starts from an empty dict on every
call, and a `Session` keeps the sizes its schedule reads.

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
        # Nothing else is kept per node: `_add_tree_sizes` computes expanded
        # tree sizes on demand (module docstring).

    def __len__(self) -> int:
        return len(self._payload)

    def _intern(self, payload) -> int:
        """Ref of the node with this payload, appended if new; payload unchecked.

        `intern_tree` and `Session.extract_normal_form` write these steps
        out inline.
        """
        ref = self._memo.get(payload)
        if ref is not None:
            return ref
        ref = len(self._payload)
        self._payload.append(payload)
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

    def _add_tree_sizes(self, roots, sizes: dict) -> None:
        """Enter in sizes the expanded tree size of every node reachable from roots.

        Roots are unchecked.  The walk stops at the refs sizes already
        holds, so a caller that keeps sizes computes each ref's size at
        most once; refs never change their node, so an entry stays right
        however much is interned later.  Iterative: an entered ref pushes
        the marker ~ref, then its children, and the marker enters its
        size once theirs are in.  No ref is entered twice: a copy pushed
        before it was entered is popped after its marker, and none is
        pushed while it is open, as no node is its own descendant.  Sizes
        saturate at SIZE_CAP.
        """
        payload = self._payload
        stack = list(roots)
        pop, push, extend = stack.pop, stack.append, stack.extend
        while stack:
            n = pop()
            if n < 0:  # a marker: the children's sizes are in
                n = ~n
                p = payload[n]
                size = sizes[p] + 1 if type(p) is int else sum(map(sizes.__getitem__, p)) + 1
                sizes[n] = size if size < SIZE_CAP else SIZE_CAP
            elif n not in sizes:
                p = payload[n]
                if type(p) is int:  # a negation
                    push(~n)
                    push(p)
                elif type(p) is tuple:  # a join
                    push(~n)
                    extend(p)
                else:  # a leaf
                    sizes[n] = 1

    def tree_size(self, ref: int) -> int:
        """Node count of the fully expanded tree under ref, saturating at SIZE_CAP.

        Not stored: computed afresh on every call, at O(r) for the r nodes
        under ref.
        """
        self._check(ref)
        sizes: dict[int, int] = {}
        self._add_tree_sizes((ref,), sizes)
        return sizes[ref]

    # -- plain-tuple interchange --------------------------------------------

    def intern_tree(self, term) -> int:
        """Intern a plain-tuple term (see module docstring for the shape).

        `_tree_nodes` checks the whole tree first, so a malformed tree
        raises ValueError with nothing interned.  Then, in post-order, a
        node's children are interned left to right before it, and an "and"
        interns the negated children left to right, then their join, then
        its negation.

        Each node is interned inline, with the memo lookup and the append
        of `_intern` written out per kind: a call per node was most of the
        cost of this loop.  A two-child "or" or "and", the commonest joins,
        pops its right child and overwrites its left one on the value stack
        instead of slicing both off.  Like `_intern`, it computes no tree
        size (module docstring).  `_intern` stays the path of the builders
        and of `Session.extract_normal_form`; tests/test_dag.py pins the two
        paths to the same refs, payloads, memo and tree sizes.
        """
        nodes = _tree_nodes(term)  # the tree is checked and refs on `vals` came from it
        payload, memo = self._payload, self._memo
        lookup, add_payload = memo.get, payload.append
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
                push(ref)
            elif head == "not":
                p = vals[-1]
                ref = lookup(p)
                if ref is None:
                    ref = memo[p] = len(payload)
                    add_payload(p)
                vals[-1] = ref
            elif head == "or" and len(t[1]) == 2:  # the common join: no slice
                b = vals.pop()
                a = vals[-1]
                p = (a, b)
                ref = lookup(p)
                if ref is None:
                    ref = memo[p] = len(payload)
                    add_payload(p)
                vals[-1] = ref
            elif head == "and" and len(t[1]) == 2:  # !(!a | !b), interned in that order
                b = vals.pop()
                a = vals[-1]
                na = lookup(a)
                if na is None:
                    na = memo[a] = len(payload)
                    add_payload(a)
                nb = lookup(b)
                if nb is None:
                    nb = memo[b] = len(payload)
                    add_payload(b)
                p = (na, nb)
                ref = lookup(p)
                if ref is None:
                    ref = memo[p] = len(payload)
                    add_payload(p)
                p = ref
                ref = lookup(p)
                if ref is None:
                    ref = memo[p] = len(payload)
                    add_payload(p)
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
                        children[i] = ref
                p = tuple(children)
                ref = lookup(p)
                if ref is None:
                    ref = memo[p] = len(payload)
                    add_payload(p)
                if head == "and":  # and the negation of the join
                    p = ref
                    ref = lookup(p)
                    if ref is None:
                        ref = memo[p] = len(payload)
                        add_payload(p)
                push(ref)
            else:  # "0" or "1": the head is the leaf's text
                ref = lookup(head)
                if ref is None:
                    ref = memo[head] = len(payload)
                    add_payload(head)
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
    stack: list = [ref]  # refs, and the strings to emit between them
    while stack:
        n = stack.pop()
        if type(n) is not int:  # a string
            out.append(n)
            continue
        p = payload[n]
        if type(p) is int:  # a negation
            out.append("!")
            stack.append(p)
        elif type(p) is tuple:  # a join, parenthesised unless it is the root
            if n != ref:  # the DAG is acyclic: the root occurs only at the top
                out.append("(")
                stack.append(")")
            parts = [" | "] * (2 * len(p) - 1)
            parts[::2] = p[::-1]
            stack += parts
        else:  # a leaf's payload is its text: the name, "0" or "1"
            out.append(p)
    return "".join(out)
