"""Hash-consed DAG of internal terms.

Internal terms are built from variables, the constants 0 and 1, negation,
and one n-ary join.  An Arena interns every node by content: a node's
payload (its name, child ref, child tuple, or "0"/"1" for a constant) is
its memo key, so structurally identical subterms resolve to the same
integer handle (TermRef), and terms with heavy sharing stay small even
when the fully expanded tree is astronomically large.  Children of a join
are kept in stored order here; commutativity is the normalizer's business.

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

__all__ = [
    "Arena",
    "VAR",
    "ZERO",
    "ONE",
    "NEG",
    "JOIN",
    "SIZE_CAP",
    "print_term",
]

VAR, ZERO, ONE, NEG, JOIN = range(5)

# Underlying-tree sizes saturate here instead of growing without bound.
# Order among saturated values is lost, which only blurs the child
# schedule for absurdly large subtrees, never correctness.
SIZE_CAP = 2**64 - 1

# A variable name; `syntax` scans names with this pattern too.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_name(name: str) -> None:
    if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
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
    while stack:
        t = stack.pop()
        nodes.append(t)
        head = t[0] if type(t) is tuple and t else None
        if head == "var" and len(t) == 2:
            _check_name(t[1])
        elif head == "not" and len(t) == 2:
            stack.append(t[1])
        elif (head == "or" or head == "and") and len(t) == 2 and type(t[1]) is tuple and t[1]:
            stack.extend(t[1])
        elif not ((head == "0" or head == "1") and len(t) == 1):
            raise ValueError(f"bad term node {reprlib.repr(t)}")
    return nodes


class Arena:
    """Single-writer store of interned term nodes.

    TermRefs are indices into the arena and are only meaningful within it.
    Frozen arenas may be read concurrently; interning is not thread-safe.
    """

    def __init__(self):
        self._kinds: list[int] = []
        # Payloads are the memo keys.  Keys of different kinds cannot
        # collide: refs are ints, children are tuples, and names are
        # strings that `_check_name` never lets read "0" or "1".
        self._payload: list = []
        self._memo: dict = {}  # payload -> ref
        self._sizes: list[int] = []  # expanded tree size, saturating at SIZE_CAP

    def __len__(self) -> int:
        return len(self._kinds)

    def _intern(self, kind: int, payload) -> int:
        """Ref of the node with this payload, appended if new; payload unchecked."""
        ref = self._memo.get(payload)
        if ref is not None:
            return ref
        ref = len(self._kinds)
        sizes = self._sizes
        if kind == NEG:
            size = sizes[payload] + 1
        elif kind == JOIN:
            size = sum(map(sizes.__getitem__, payload)) + 1
        else:
            size = 1
        self._kinds.append(kind)
        self._payload.append(payload)
        sizes.append(size if size < SIZE_CAP else SIZE_CAP)
        self._memo[payload] = ref
        return ref

    def zero(self) -> int:
        return self._intern(ZERO, "0")

    def one(self) -> int:
        return self._intern(ONE, "1")

    def var(self, name: str) -> int:
        _check_name(name)
        return self._intern(VAR, name)

    def neg(self, child: int) -> int:
        self._check(child)
        return self._intern(NEG, child)

    def join(self, children: tuple[int, ...]) -> int:
        children = tuple(children)
        if not children:
            raise ValueError("join needs at least one child")
        for c in children:
            self._check(c)
        return self._intern(JOIN, children)

    def _check(self, ref: int) -> None:
        # exactly int: a bool is an int too, and True would pass for ref 1
        if not (type(ref) is int and 0 <= ref < len(self._kinds)):
            raise ValueError(f"ref {ref!r} does not belong to this arena")

    # -- node accessors ----------------------------------------------------

    def kind(self, ref: int) -> int:
        self._check(ref)
        return self._kinds[ref]

    def var_name(self, ref: int) -> str:
        self._check(ref)
        if self._kinds[ref] != VAR:
            raise ValueError("not a variable node")
        return self._payload[ref]

    def neg_child(self, ref: int) -> int:
        self._check(ref)
        if self._kinds[ref] != NEG:
            raise ValueError("not a negation node")
        return self._payload[ref]

    def join_children(self, ref: int) -> tuple[int, ...]:
        self._check(ref)
        if self._kinds[ref] != JOIN:
            raise ValueError("not a join node")
        return self._payload[ref]

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
            kind = self._kinds[n]
            if kind == NEG:
                stack.append(self._payload[n])
            elif kind == JOIN:
                stack.extend(self._payload[n])
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
        """
        intern = self._intern  # the tree is checked and refs on `vals` came from it
        vals: list[int] = []
        push = vals.append
        for t in reversed(_tree_nodes(term)):
            head = t[0]
            if head == "var":
                push(intern(VAR, t[1]))
            elif head == "not":
                vals[-1] = intern(NEG, vals[-1])
            elif head == "or":
                k = len(t[1])
                children = tuple(vals[-k:])
                del vals[-k:]
                push(intern(JOIN, children))
            elif head == "and":
                k = len(t[1])
                negated = tuple([intern(NEG, c) for c in vals[-k:]])
                del vals[-k:]
                push(intern(NEG, intern(JOIN, negated)))
            else:
                push(intern(ZERO if head == "0" else ONE, head))
        return vals[0]

    def export_tree(self, ref: int):
        """Plain-tuple form of ref; expands sharing, so keep inputs small."""
        self._check(ref)
        out: dict[int, tuple] = {}
        for n in self.reverse_topological_order([ref]):
            kind = self._kinds[n]
            if kind == VAR:
                out[n] = ("var", self._payload[n])
            elif kind == ZERO:
                out[n] = ("0",)
            elif kind == ONE:
                out[n] = ("1",)
            elif kind == NEG:
                out[n] = ("not", out[self._payload[n]])
            else:
                out[n] = ("or", tuple(out[c] for c in self._payload[n]))
        return out[ref]


def print_term(arena: Arena, ref: int) -> str:
    """Internal-language text: n-ary `|`, prefix `!`, constants 0/1.

    Join children of joins and negated composites are parenthesised.
    Deterministic: children appear in stored order.
    """
    arena._check(ref)
    kinds, payload = arena._kinds, arena._payload  # children of a checked ref are refs
    out: list[str] = []
    stack: list = [(ref, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        n, need_parens = item
        kind = kinds[n]
        if kind == NEG:
            out.append("!")
            stack.append((payload[n], True))
        elif kind == JOIN:
            children = payload[n]
            if need_parens:
                out.append("(")
                stack.append(")")
            first = True
            for c in reversed(children):
                if not first:
                    stack.append(" | ")
                stack.append((c, True))
                first = False
        else:  # a leaf's payload is its text: the name, "0" or "1"
            out.append(payload[n])
    return "".join(out)
