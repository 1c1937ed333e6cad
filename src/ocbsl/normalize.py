"""Canonical normal-form codes for internal terms.

A Session assigns every term an integer code naming its equivalence class
under the join/negation rewrite rules (see `rewrite` for the rule set and
an independent engine for it).  Two terms normalized in the same session
are equivalent exactly when their codes are equal.

Codes come in plain/negated pairs: a class gets an even code 2k and its
complement 2k+1, so negating a coded term is one XOR.  Codes 0 and 1 are
reserved for the constants, which makes `!0 = 1` and `!1 = 0` structural.

The traversal is a single fused pass, iterative throughout (no Python
recursion, so chain-shaped inputs of any depth are fine):

* join children are deduplicated by handle and syntactically nested joins
  are spliced in before any child is normalized, so static nesting costs
  one visit per node;
* children are normalized smallest subtree first, deferring the largest;
  when everything else of a join reduces to 0 the join is replaced by its
  last child *structurally* (never coded), double negations at the seam
  are stripped and revealed joins spliced into the enclosing frame.  This
  keeps dynamically revealed nesting out of the coded cascade: the work
  wasted on a mis-ordered child is bounded by half the subtree, giving a
  quasilinear total;
* a child that already has a code and names a join class is merged by
  splicing its (already sorted) member codes.

Complement detection happens on the merged, sorted, deduplicated list of
a join's m codes: a pair (2k, 2k+1) must sit adjacent, and a negated join
class whose member set is contained in the child set annihilates the join
to 1 (A9).  The A9 check stays linear in the join: the set of its codes is
built at most once, in O(m), the first time an odd child names a join
class; one probe then costs |members| of that class, which is at most the
tree size of the child that brought the code in; and a class with more
members than the join has codes cannot be a subset, so it is skipped
unprobed.  `Stats.merge_work` and `Stats.a9_probe_work` count that work.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields

from .dag import Arena, JOIN, NEG, ONE, VAR, ZERO

__all__ = ["Session", "Stats", "neg_of", "ZERO_CODE", "ONE_CODE"]

ZERO_CODE = 0
ONE_CODE = 1


def neg_of(code: int) -> int:
    """Code of the complement class; an involution, and neg_of(0) == 1."""
    return code ^ 1


@dataclass
class Stats:
    """Rule-application and bookkeeping counters for one session."""

    a2_flattens: int = 0  # nested join spliced into its parent
    a2b_collapses: int = 0  # single-child join replaced by that child
    a3_dedups: int = 0  # duplicate child dropped
    a4_hits: int = 0  # join annihilated by a child equal to 1
    a5_drops: int = 0  # child equal to 0 dropped
    a6_strips: int = 0  # double negation removed
    a7_hits: int = 0  # join annihilated by a complement pair
    a9_hits: int = 0  # join annihilated by a negated sub-join
    a10_hits: int = 0  # !0 -> 1
    a11_hits: int = 0  # !1 -> 0
    nodes_visited: int = 0
    memo_hits: int = 0
    codes_allocated: int = 0  # plain/negated pairs
    merge_work: int = 0  # child codes merged, before deduplication
    a9_probe_work: int = 0  # member codes probed by the A9 check

    def rule_counters(self) -> dict[str, int]:
        skip = {"nodes_visited", "memo_hits", "codes_allocated", "merge_work", "a9_probe_work"}
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}


class _NegFrame:
    __slots__ = ("node",)

    def __init__(self, node: int):
        self.node = node


class _JoinFrame:
    __slots__ = ("node", "acc", "heap", "seen", "seq")

    def __init__(self, node: int):
        self.node = node
        self.acc: list[int] = []  # nonzero codes of finished children
        self.heap: list[tuple[int, int, int]] = []  # (priority, seq, ref)
        self.seen: set[int] = set()
        self.seq = 0


class Session:
    """Mutable state of one normalization run over one arena.

    Codes are meaningless outside their session.  A session is
    single-writer; independent sessions may run in parallel.

    size_scheduling=False disables the smallest-first child order and the
    structural collapse of all-but-one-zero joins (children are then taken
    in stored order and every join is coded).  Verdicts are unchanged;
    only the cost profile degrades.  Exists so the degradation is
    measurable.
    """

    def __init__(self, arena: Arena, size_scheduling: bool = True):
        self.arena = arena
        self.size_scheduling = size_scheduling
        self.stats = Stats()
        self._codes: dict = {}  # signature -> even code; ('v', name) | ('j', codes)
        self._node_codes: dict[int, int] = {}  # TermRef -> code
        self._join_members: dict[int, tuple[int, ...]] = {}  # join code -> sorted member codes
        self._var_names: dict[int, str] = {}  # var code -> name
        self._next_code = 2

    # -- code allocation -----------------------------------------------------

    def _alloc(self) -> int:
        code = self._next_code
        self._next_code += 2
        self.stats.codes_allocated += 1
        return code

    def _var_code(self, ref: int) -> int:
        name = self.arena.var_name(ref)
        sig = ("v", name)
        code = self._codes.get(sig)
        if code is None:
            code = self._alloc()
            self._codes[sig] = code
            self._var_names[code] = name
        return code

    # -- public API ------------------------------------------------------------

    def normalize(self, ref: int) -> int:
        """Code of ref's equivalence class; memoized per node."""
        code = self._node_codes.get(ref)
        if code is not None:
            self.stats.memo_hits += 1
            return code
        self.arena._check(ref)
        code = self._run(ref)
        self._node_codes[ref] = code
        return code

    def process_join(self, children: list[int]) -> int:
        """Code of the join of `children` (interned, then normalized)."""
        return self.normalize(self.arena.join(tuple(children)))

    def equivalent(self, a: int, b: int) -> bool:
        """Whether a and b are equal under the rewrite rules."""
        return self.normalize(a) == self.normalize(b)

    def join_class_members(self, code: int) -> tuple[int, ...] | None:
        """Sorted member codes if `code` names a join class, else None."""
        if not (isinstance(code, int) and 0 <= code < self._next_code):
            raise ValueError(f"code {code!r} was never assigned in this session")
        return self._join_members.get(code)

    def extract_normal_form(self, code: int) -> int:
        """A term whose normalization yields `code`; join children ascend by code."""
        if not (isinstance(code, int) and 0 <= code < self._next_code):
            raise ValueError(f"code {code!r} was never assigned in this session")
        arena = self.arena
        built: dict[int, int] = {}
        stack = [code]
        while stack:
            c = stack[-1]
            if c in built:
                stack.pop()
                continue
            if c == ZERO_CODE:
                built[c] = arena.zero()
            elif c == ONE_CODE:
                built[c] = arena.one()
            elif c & 1:
                base = c ^ 1
                if base in built:
                    built[c] = arena.neg(built[base])
                else:
                    stack.append(base)
                    continue
            else:
                members = self._join_members.get(c)
                if members is None:
                    built[c] = arena.var(self._var_names[c])
                else:
                    missing = [m for m in members if m not in built]
                    if missing:
                        stack.extend(missing)
                        continue
                    built[c] = arena.join(tuple(built[m] for m in members))
            stack.pop()
        return built[code]

    # -- the fused pass ----------------------------------------------------------

    def _receive(self, fr: _JoinFrame, ref: int, strip: bool) -> None:
        """Add a child term to a join frame.

        Strips double negations when the term arrives through a collapse
        seam, splices not-yet-coded joins, and drops handle-level
        duplicates.  Iterative: splicing a chain must not recurse.
        """
        arena = self.arena
        stats = self.stats
        node_codes = self._node_codes
        if strip:
            while arena.kind(ref) == NEG:
                child = arena.neg_child(ref)
                if arena.kind(child) != NEG:
                    break
                stats.a6_strips += 1
                ref = arena.neg_child(child)
        scheduling = self.size_scheduling
        work = [ref]
        while work:
            r = work.pop()
            if r in fr.seen:
                stats.a3_dedups += 1
                continue
            fr.seen.add(r)
            if arena.kind(r) == JOIN and r not in node_codes:
                stats.a2_flattens += 1
                work.extend(reversed(arena.join_children(r)))
                continue
            priority = arena.tree_size(r) if scheduling else 0
            heapq.heappush(fr.heap, (priority, fr.seq, r))
            fr.seq += 1

    def _run(self, root: int) -> int:
        arena = self.arena
        stats = self.stats
        node_codes = self._node_codes
        stack: list = []
        current: int | None = root  # term waiting to be resolved
        code: int | None = None  # finished code waiting to be delivered

        while True:
            # Resolve phase: turn `current` into a code or a frame.
            while current is not None:
                known = node_codes.get(current)
                if known is not None:
                    stats.memo_hits += 1
                    code = known
                    current = None
                    break
                kind = arena.kind(current)
                stats.nodes_visited += 1
                if kind == ZERO:
                    node_codes[current] = code = ZERO_CODE
                    current = None
                elif kind == ONE:
                    node_codes[current] = code = ONE_CODE
                    current = None
                elif kind == VAR:
                    node_codes[current] = code = self._var_code(current)
                    current = None
                elif kind == NEG:
                    child = arena.neg_child(current)
                    if arena.kind(child) == NEG:
                        stats.a6_strips += 1
                        current = arena.neg_child(child)
                        continue
                    stack.append(_NegFrame(current))
                    current = child
                else:
                    fr = _JoinFrame(current)
                    stack.append(fr)
                    for ch in arena.join_children(current):
                        self._receive(fr, ch, strip=False)
                    code = None
                    current = None

            # Deliver any finished code into the enclosing frame.
            if code is not None:
                if not stack:
                    node_codes[root] = code
                    return code
                top = stack[-1]
                if isinstance(top, _NegFrame):
                    c = code
                    if c == ZERO_CODE:
                        stats.a10_hits += 1
                    elif c == ONE_CODE:
                        stats.a11_hits += 1
                    result = c ^ 1
                    node_codes[top.node] = result
                    stack.pop()
                    code = result
                    continue
                if code == ZERO_CODE:
                    stats.a5_drops += 1
                else:
                    top.acc.append(code)
                code = None

            # Advance the innermost join frame.
            fr = stack[-1]
            assert isinstance(fr, _JoinFrame)
            if fr.heap:
                if self.size_scheduling and not fr.acc and len(fr.heap) == 1:
                    # Everything processed so far vanished: the join *is*
                    # its one remaining (largest) child.  Hand the child up
                    # structurally instead of coding this join.
                    stats.a2b_collapses += 1
                    seam = fr.heap[0][2]
                    stack.pop()
                    current = self._propagate_term(stack, seam)
                    continue
                current = heapq.heappop(fr.heap)[2]
                continue
            code = self._finish_join(fr)
            node_codes[fr.node] = code
            stack.pop()

    def _propagate_term(self, stack: list, term: int) -> int | None:
        """Deliver a structural reduction to the innermost frame.

        A negation over a collapsed join may itself dissolve (double
        negation), so the term can climb several frames before it either
        joins a frame's child list (return None) or must be normalized in
        place (returned for the resolve phase).
        """
        arena = self.arena
        stats = self.stats
        while True:
            if not stack:
                return term
            top = stack[-1]
            if isinstance(top, _NegFrame):
                if arena.kind(term) == NEG:
                    stats.a6_strips += 1
                    term = arena.neg_child(term)
                    stack.pop()
                    continue
                # genuinely negated term: resolve it, the frame stays
                return term
            self._receive(top, term, strip=True)
            return None

    # -- merging child codes -------------------------------------------------

    def _merge_child_codes(self, acc: list[int]) -> tuple[tuple[int, ...], bool]:
        """Flatten, sort, deduplicate and annihilation-check child codes.

        Returns (codes, annihilated).  When not annihilated, codes are
        strictly increasing and contain neither constant code.  Zeros were
        already dropped when the children were delivered.
        """
        stats = self.stats
        if ONE_CODE in acc:
            stats.a4_hits += 1
            return (), True
        join_members = self._join_members
        flat: list[int] = []
        for c in acc:
            members = join_members.get(c)
            if members is not None:
                # the child's class is a join: merge its members instead
                stats.a2_flattens += 1
                flat.extend(members)
            else:
                flat.append(c)
        stats.merge_work += len(flat)
        flat.sort()
        uniq: list[int] = []
        last = -1
        for c in flat:
            if c != last:
                uniq.append(c)
                last = c
            else:
                stats.a3_dedups += 1
        # complement pair: (2k, 2k+1) must be adjacent once sorted and unique
        for i in range(len(uniq) - 1):
            if uniq[i] ^ 1 == uniq[i + 1]:
                stats.a7_hits += 1
                return (), True
        # Negated join class whose members all occur among the children.
        # `present` is built at most once per join, in O(m); one probe
        # costs |members|, at most the tree size of the child that brought
        # the code in; a class with more members than m cannot be a subset.
        m = len(uniq)
        present = None
        probed = 0
        for c in uniq:
            if c & 1:
                members = join_members.get(c ^ 1)
                if members is None or len(members) > m:
                    continue
                if present is None:
                    present = set(uniq)
                probed += len(members)
                if present.issuperset(members):
                    stats.a9_hits += 1
                    stats.a9_probe_work += probed
                    return (), True
        stats.a9_probe_work += probed
        return tuple(uniq), False

    def _finish_join(self, fr: _JoinFrame) -> int:
        codes, annihilated = self._merge_child_codes(fr.acc)
        if annihilated:
            return ONE_CODE
        if not codes:
            return ZERO_CODE
        if len(codes) == 1:
            self.stats.a2b_collapses += 1
            return codes[0]
        sig = ("j", codes)
        code = self._codes.get(sig)
        if code is None:
            code = self._alloc()
            self._codes[sig] = code
            self._join_members[code] = codes
        return code
