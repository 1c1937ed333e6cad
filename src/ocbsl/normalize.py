"""Canonical normal-form codes for internal terms.

A Session assigns every term an integer code naming its equivalence class
under the join/negation rewrite rules (see `rewrite` for the rule set and
an independent engine for it).  Two terms normalized in the same session
are equivalent exactly when their codes are equal.

Codes come in plain/negated pairs, so negating a coded term is one XOR
(`c ^ 1`), and a code's two low bits give its kind.  Codes 0 and 1 are the
constants, which makes `!0 = 1` and `!1 = 0` structural.  The variable
whose leaf has ref r has code 4(r+1), its complement 4(r+1)+1: the arena
hash-conses leaves, so a variable's leaf is the one node with its name.
Join class j has code 4j+2, its complement 4j+3: `c & 3 == 2` names a
join class, and `Session._classes[c >> 2]` holds its sorted member codes.
So every leaf is coded by one lookup of its payload in `Session._codes`,
which holds the constants' texts "0" and "1" and the join keys only: a
miss is a variable, coded by its ref.  A node's code is memoized in a
list indexed by its ref (refs are dense).

The traversal is a single fused pass: one loop over one stack of the
join frames (plain tuples) being filled, each holding the negation that
opened it, if one did.  It is iterative throughout (no Python recursion,
so chain-shaped inputs of any depth are fine):

* join children are deduplicated by handle, and nested joins are spliced
  in before any child is normalized, also from under a tower of double
  negations (de Morgan interns ``a & B`` as ``!(!a | !B)``, so a nested
  conjunction is a join under ``!!``): static nesting costs one visit
  per node;
* a child that needs no frame is coded where it is queued, in stored
  order: a leaf, a coded term, the negation of either, or the negation
  of a join whose children are all of those three kinds, each perhaps
  under a tower of double negations.  Such a join has no child that
  could collapse, so it needs no schedule: its children are coded
  inline, a tower losing its ``!!`` pairs, and the join with one
  `_finish_join`.  Every nonzero child code is kept as it is: only
  `_finish_join` tells a code naming a join class from the others, and
  merges such a class by its (sorted) member codes;
* the negated joins left (an uncoded join or negated join among their
  children, perhaps under ``!!``) are normalized smallest expanded tree
  first, deferring the largest; when everything else of a join reduces
  to 0 the join is replaced by its last child *structurally* (never
  coded), a double negation at the seam is stripped and the seam is
  queued in the enclosing frame.  This keeps dynamically revealed
  nesting out of the coded cascade: the work wasted on a mis-ordered
  child is bounded by half the subtree, giving a quasilinear total in n,
  the size of the *expanded tree*.  It is not quasilinear in DAG size: a
  nested join shared by k parents is spliced and merged again under each
  of them.

Complement detection happens on the set of a join's m merged codes: a
pair (c, c ^ 1) is one XOR apart, and a negated join class
whose member set is contained in the child set annihilates the join to 1
(A9).  The A9 check stays linear in the join: the set is built once, in
O(m); one probe costs |members| of that class, which is at most the tree
size of the child that brought the code in; and a class with at least as
many members as the join has codes cannot be a subset, so it is skipped
unprobed.  A join class has at least two members, so a join of two
codes, the commonest kind, is never probed: it needs no set either, and
is decided by comparing the two (equal, complements, or a class keyed by
the pair).  `Stats.merge_work` and `Stats.a9_probe_work` count that work.
`extract_normal_form` builds a code's term back, visiting each code once.
"""

from __future__ import annotations

from .dag import Arena

__all__ = ["Session", "Stats", "neg_of", "ZERO_CODE", "ONE_CODE"]

ZERO_CODE = 0
ONE_CODE = 1


def neg_of(code: int) -> int:
    """Code of the complement class; an involution, and neg_of(0) == 1."""
    return code ^ 1


class Stats:
    """Rule-application and bookkeeping counters for one session.

    A plain class, so that a counter write takes the interpreter's fast
    attribute path: on CPython 3.11.7 (2 vCPUs, shared host) a
    ``stats.x += 1`` cost about 40 ns here against 100-150 ns on a
    `types.SimpleNamespace` subclass, whose instance dict the attribute
    specializer does not handle.  Not a
    dataclass, so that importing the package never loads `dataclasses`,
    and no ``__slots__``, since callers read the counters with `vars()`.
    `vars()` and the repr list the counters in the order of `FIELDS`;
    construction takes any of them by keyword, the rest are 0.  Two
    `Stats` are equal when their counters are.
    """

    FIELDS = (
        "a2_flattens",  # nested join spliced into its parent
        "a2b_collapses",  # single-child join replaced by that child
        "a3_dedups",  # duplicate child dropped: a ref queued again, or a code merged again
        "a4_hits",  # join annihilated by a child equal to 1
        "a5_drops",  # child equal to 0 dropped
        # double negation removed: from a resolved term, a queued child, a
        # seam, or a child that the scan of a queued negated join meets
        "a6_strips",
        "a7_hits",  # join annihilated by a complement pair
        "a9_hits",  # join annihilated by a negated sub-join
        "a10_hits",  # !0 -> 1
        "a11_hits",  # !1 -> 0
        # node opened or coded: when resolved, where it is queued, or where
        # the scan of a queued negated join meets it; the nodes of a `!!`
        # pair stripped where it is queued or scanned are not coded
        "nodes_visited",
        # node found coded: when resolved, where it (or its negation) is
        # queued, or where a scan meets it (or its negation); a child coded
        # by a scan that stopped is met again when its join's frame opens
        "memo_hits",
        "codes_allocated",  # join classes numbered (each a plain/negated code pair)
        "merge_work",  # child codes merged, before deduplication
        "a9_probe_work",  # member codes probed by the A9 check
    )
    _BOOKKEEPING = ("nodes_visited", "memo_hits", "codes_allocated", "merge_work", "a9_probe_work")

    def __init__(self, **counts: int):
        for name in self.FIELDS:  # the instance dict in FIELDS order
            setattr(self, name, counts.pop(name, 0))
        if counts:
            raise TypeError(f"Stats() got an unexpected keyword argument {next(iter(counts))!r}")

    def __eq__(self, other):
        if not isinstance(other, Stats):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return "Stats(" + ", ".join(f"{name}={value!r}" for name, value in vars(self).items()) + ")"

    def rule_counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS if name not in self._BOOKKEEPING}


class Session:
    """Mutable state of one normalization run over one arena.

    Codes are meaningless outside their session.  A session is
    single-writer; independent sessions may run in parallel.

    Each join's negated-join children, with nested joins spliced in place,
    are normalized smallest expanded tree first, ties in stored order; its
    other children, and each negated join whose own children are leaves,
    coded terms or negations of either, under any tower of double
    negations, are coded as they are queued, in stored order.  A size is
    computed when a sort first reads it and kept in `_sizes` for the rest
    of the session.  The arena stores none (see `dag`): interning pays
    nothing for them, and `normalize` writes nothing to the arena, so
    sessions may share a frozen one.
    size_scheduling=False disables that order and the structural collapse
    of all-but-one-zero joins (children are then taken in stored order and
    every join is coded).  Verdicts are unchanged; only the cost profile
    degrades.  Exists so the degradation is measurable.

    The session numbers join classes only (see the module docstring for
    the code layout).  `_classes` lists them in the order `_finish_join`
    numbers them, each counted in `codes_allocated`: class j (codes 4j+2
    and 4j+3) is keyed by its sorted member codes.  `_codes` maps a key
    back to its code, and the constants' leaf texts "0" and "1" to theirs.
    A variable needs no entry: its code comes from its leaf's ref, the
    only node with that name.
    """

    def __init__(self, arena: Arena, size_scheduling: bool = True):
        self.arena = arena
        self.size_scheduling = size_scheduling
        self.stats = Stats()
        self._node_codes: list = []  # TermRef -> code, or None if not coded yet
        self._classes: list = []  # join class j -> its sorted member codes
        self._codes: dict = {"0": ZERO_CODE, "1": ONE_CODE}  # constant or join key -> its code
        self._sizes: dict = {}  # TermRef -> expanded tree size, for the schedule's sorts

    # -- public API ------------------------------------------------------------

    def normalize(self, ref: int) -> int:
        """Code of ref's equivalence class; memoized per node.

        A root that already has a code is counted as one memo hit by the pass.
        """
        self.arena._check(ref)
        node_codes = self._node_codes
        node_codes += [None] * (len(self.arena._payload) - len(node_codes))  # refs are dense: a slot per node
        return self._run(ref)

    def equivalent(self, a: int, b: int) -> bool:
        """Whether a and b are equal under the rewrite rules."""
        return self.normalize(a) == self.normalize(b)

    def join_class_members(self, code: int) -> tuple[int, ...] | None:
        """Sorted member codes if `code` names a join class, else None.

        Rejects a code this session never assigned: a join code past the
        class table, or a variable code whose leaf it never coded.
        """
        # exactly int: a bool is an int too, and True would pass for code 1
        if type(code) is int and code >= 0:
            k = code >> 2
            if code & 2:
                if k < len(self._classes):
                    return None if code & 1 else self._classes[k]
            elif code < 2 or k <= len(self._node_codes) and self._node_codes[k - 1] == code & ~1:
                return None
        raise ValueError(f"code {code!r} was never assigned in this session")

    def extract_normal_form(self, code: int) -> int:
        """A term whose normalization yields `code`; join children ascend by code.

        Visits each code once: a popped code pushes the marker `~c`, then its
        parts (`c ^ 1`, or a join's members), and the marker interns the node.
        """
        self.join_class_members(code)  # rejects a code never assigned
        # Every code in the class table came from this arena, so the checks
        # of `neg` and `join` are redundant: each node is interned inline, as
        # `Arena._intern` would, and a variable's code names its leaf.
        payload, memo = self.arena._payload, self.arena._memo
        classes = self._classes
        built: dict[int, int] = {}
        stack = [code]
        while stack:
            c = stack.pop()
            if c < 0:  # a marker: the parts of ~c are built
                c = ~c
                if c & 1:
                    p = built[c ^ 1]
                else:
                    p = tuple(map(built.__getitem__, classes[c >> 2]))
            elif c in built:
                continue
            elif c < 2:  # the constants: code 1 is the leaf "1", not !0
                p = "1" if c == ONE_CODE else "0"
            elif c & 1:
                stack += (~c, c ^ 1)
                continue
            elif c & 2:  # a join class
                stack.append(~c)
                stack += classes[c >> 2]
                continue
            else:  # a variable: its leaf
                built[c] = (c >> 2) - 1
                continue
            ref = memo.get(p)
            if ref is None:
                ref = memo[p] = len(payload)
                payload.append(p)
            built[c] = ref
        return built[code]

    # -- the fused pass ----------------------------------------------------------

    # The stack holds join frames only.  A frame is a tuple (node, neg, acc,
    # todo, seen): the join's ref, the negation of it being resolved (or
    # None), the nonzero codes of finished children, the negated joins
    # still queued and the refs received.  `acc` takes every nonzero code,
    # join classes too: only `_finish_join` splits a join class into its
    # members, and the pass never touches `_classes`, as a leaf's code is a
    # constant's or comes from its own ref.  As `todo` holds only negated
    # joins, only the root's frame, or that of a seam resolved at the root,
    # has neg None.  A finished frame's code is negated on delivery, like
    # any code under a negation.  `todo` is sorted by tree size, largest
    # first, so `pop()` takes the smallest child.  Only a batch of two or
    # more negated joins is sorted: `Arena._add_tree_sizes` enters the sizes
    # the sort reads, and those of the nodes under them, in the session's
    # `_sizes`, stopping at the sizes already there.  So each ref's size is
    # computed at most once per session, and none when no frame has two
    # negated joins to order.
    #
    # Each turn of the one loop resolves `current`, if set, then delivers a
    # code to the top frame and advances it.  One block queues children: it
    # takes `incoming`, the refs handed to the top frame, drops the refs
    # already in `seen`, strips double negations and splices joins
    # (iteratively, so a chain does not recurse) while no code is known,
    # codes every child that needs no frame and sorts the negated joins left
    # once, stably.  A negated join needs no frame if none of its children
    # does: the block scans them in stored order and codes the join with one
    # `_finish_join`.  One loop per child strips its `!!` pairs, as the
    # block does, and codes the base: a coded term, a leaf, or the negation
    # of either.  A base that is a join or a negated join not coded yet
    # stops the scan and queues the negated join; the children it coded stay
    # coded and are met in the memo when the frame opens, and the strips it
    # counted are taken back, as the frame strips those towers again.  A
    # frame receives its join's children when it opens, and later perhaps
    # the seam of a collapsed child.  A seam is a proper subterm of a child
    # popped as the smallest, so it is smaller than everything still queued
    # and appending it keeps the order, except among sizes saturated at
    # SIZE_CAP, whose order is lost anyway (see `dag.SIZE_CAP`).
    #
    # The pass reads the arena's payloads without checking refs: `normalize`
    # checks the root, and every other ref the pass meets descends from it.

    def _run(self, root: int) -> int:
        payload = self.arena._payload
        node_codes = self._node_codes
        codes = self._codes
        finish_join = self._finish_join
        scheduling = self.size_scheduling
        stack: list = []  # join frames
        current = root  # term waiting to be resolved, or None
        code = None  # code waiting to be delivered to the top frame, or None
        neg = None  # the negation of `current`, or of the term `code` belongs to
        incoming = None  # refs to queue in the top frame
        # added to self.stats at the end
        visited = memo = flattens = drops = strips = collapses = a10 = a11 = dedups = 0
        try:
            while True:
                if current is not None:  # resolve it into a code, or push a frame for it
                    code = node_codes[current]
                    if code is not None:
                        memo += 1
                    else:
                        visited += 1
                        p = payload[current]
                        if type(p) is int:  # a negation of p
                            if type(payload[p]) is int:
                                strips += 1
                                current = payload[p]
                            else:
                                neg = current
                                current = p
                            continue
                        if type(p) is tuple:  # a join
                            stack.append((current, neg, [], [], set()))
                            neg = None
                            incoming = p
                        else:  # a leaf: a constant, or the variable coded by its ref
                            code = node_codes[current] = codes.get(p, 4 * current + 4)
                    current = None

                # Deliver the code, then advance the top frame.
                if code is not None:
                    if neg is not None:
                        if code == ZERO_CODE:
                            a10 += 1
                        elif code == ONE_CODE:
                            a11 += 1
                        code ^= 1
                        node_codes[neg] = code
                        neg = None
                    if not stack:
                        node_codes[root] = code
                        return code
                node, frame_neg, acc, todo, seen = stack[-1]
                if incoming:
                    batch: list[int] = []
                    work = list(reversed(incoming))
                    incoming = None
                    while work:
                        r = work.pop()
                        if r in seen:
                            dedups += 1
                            continue
                        seen.add(r)
                        c = node_codes[r]
                        if c is not None:
                            memo += 1
                        else:  # resolved here unless it is a negated join
                            p = payload[r]
                            if type(p) is tuple:  # a join not coded yet
                                flattens += 1
                                work.extend(reversed(p))
                                continue
                            if type(p) is int:  # a negation
                                c = node_codes[p]
                                if c is None:
                                    q = payload[p]
                                    if type(q) is int:  # a double negation: strip it
                                        strips += 1
                                        work.append(q)
                                        continue
                                    if type(q) is tuple:  # of a join not coded yet
                                        # coded here unless a child needs a frame
                                        kids: list[int] = []
                                        stripped = strips  # restored if the scan stops
                                        for x in q:
                                            while True:  # code x, or its base once its `!!` pairs are stripped
                                                k = node_codes[x]
                                                if k is not None:
                                                    memo += 1
                                                    break
                                                y = payload[x]
                                                if type(y) is int:  # a negation
                                                    k = node_codes[y]
                                                    if k is None:
                                                        z = payload[y]
                                                        if type(z) is int:  # x is !!z: strip the pair, left uncoded
                                                            strips += 1
                                                            x = z
                                                            continue
                                                        if type(z) is tuple:
                                                            break  # r needs a frame
                                                        visited += 1  # the leaf y
                                                        k = node_codes[y] = codes.get(z, 4 * y + 4)
                                                    else:
                                                        memo += 1
                                                    if k == ZERO_CODE:
                                                        a10 += 1
                                                    elif k == ONE_CODE:
                                                        a11 += 1
                                                    k ^= 1
                                                elif type(y) is tuple:
                                                    break  # r needs a frame
                                                else:  # a leaf
                                                    k = codes.get(y, 4 * x + 4)
                                                visited += 1
                                                node_codes[x] = k
                                                break
                                            if k is None:
                                                break
                                            if k != ZERO_CODE:  # a 0 is dropped, counted if the join is coded
                                                kids.append(k)
                                        else:
                                            drops += len(q) - len(kids)
                                            c = finish_join(kids)
                                        if c is None:
                                            strips = stripped  # counted again when r's frame strips them
                                            batch.append(r)
                                            continue
                                    else:  # a leaf
                                        c = codes.get(q, 4 * p + 4)
                                    visited += 1  # p
                                    node_codes[p] = c
                                else:
                                    memo += 1
                                if c == ZERO_CODE:
                                    a10 += 1
                                elif c == ONE_CODE:
                                    a11 += 1
                                c ^= 1
                            else:  # a leaf
                                c = codes.get(p, 4 * r + 4)
                            visited += 1
                            node_codes[r] = c
                        if c == ZERO_CODE:
                            drops += 1
                        else:
                            acc.append(c)
                    if scheduling and len(batch) > 1:
                        sizes = self._sizes
                        self.arena._add_tree_sizes(batch, sizes)
                        batch.sort(key=sizes.__getitem__)
                    batch.reverse()
                    todo += batch
                elif code is not None:
                    if code == ZERO_CODE:
                        drops += 1
                    else:
                        acc.append(code)
                    code = None
                if not todo:
                    code = finish_join(acc)
                    node_codes[node] = code
                    neg = frame_neg  # delivered with its code, negated if set
                    stack.pop()
                elif scheduling and not acc and len(todo) == 1:
                    # Everything processed so far vanished: the join *is*
                    # its one remaining (largest) child, a negated join.
                    # Hand the child up structurally instead of coding this
                    # join: the frame's own negation cancels the child's.
                    collapses += 1
                    seam = todo[0]
                    stack.pop()
                    if frame_neg is not None:
                        strips += 1
                        seam = payload[seam]
                    if stack:
                        incoming = (seam,)  # queued in the enclosing frame
                    else:
                        current = seam  # resolved in place
                else:
                    current = todo.pop()
        finally:
            stats = self.stats
            stats.nodes_visited += visited
            stats.memo_hits += memo
            stats.a2_flattens += flattens
            stats.a5_drops += drops
            stats.a6_strips += strips
            stats.a2b_collapses += collapses
            stats.a10_hits += a10
            stats.a11_hits += a11
            stats.a3_dedups += dedups

    def _finish_join(self, acc: list[int]) -> int:
        """Code of a join whose children have the nonzero codes `acc`.

        The one place that splits a join class: a code whose low bits name
        one (`c & 3 == 2`) is replaced by its members (A2).  Deduplicates,
        and checks for annihilation (A4, A7, A9) before looking up or
        numbering the class of the remaining codes.

        Two codes, neither naming a join class, the commonest join, are
        decided by compares: equal codes collapse to one (A3), a pair c,
        c ^ 1 gives 1 (A7), and any other pair is keyed as the general merge
        keys it.  No A9 probe is needed: a join class has at least two
        members, none of them the probed code, so it fits only a join of
        three codes or more (the general loop skips it unprobed too).
        """
        stats = self.stats
        if ONE_CODE in acc:
            stats.a4_hits += 1
            return ONE_CODE
        classes = self._classes
        if len(acc) == 2:
            a, b = acc
            if a & 3 != 2 and b & 3 != 2:
                stats.merge_work += 2
                if a == b:
                    stats.a3_dedups += 1
                    stats.a2b_collapses += 1
                    return a
                if a ^ b == 1:
                    stats.a7_hits += 1
                    return ONE_CODE
                key = (a, b) if a < b else (b, a)
                code = self._codes.get(key)
                if code is None:
                    code = self._codes[key] = 4 * len(classes) + 2
                    classes.append(key)
                    stats.codes_allocated += 1
                return code
        flat = []  # acc with each join class replaced by its members
        for c in acc:
            if c & 3 == 2:
                stats.a2_flattens += 1
                flat += classes[c >> 2]
            else:
                flat.append(c)
        stats.merge_work += len(flat)
        present = set(flat)
        stats.a3_dedups += len(flat) - len(present)
        # complement pair: c and c ^ 1 both present
        if not present.isdisjoint(map((1).__xor__, present)):
            stats.a7_hits += 1
            return ONE_CODE
        codes = tuple(sorted(present))
        # A9: a negated join class whose members all occur here.  A probe
        # costs |members|, at most the child's tree size.  The probed code is
        # one of the m codes and not a member, so m or more members never fit.
        m = len(codes)
        for c in codes:
            if c & 3 == 3:
                members = classes[c >> 2]
                if len(members) >= m:
                    continue
                stats.a9_probe_work += len(members)
                if present.issuperset(members):
                    stats.a9_hits += 1
                    return ONE_CODE
        if not codes:
            return ZERO_CODE
        if m == 1:
            stats.a2b_collapses += 1
            return codes[0]
        code = self._codes.get(codes)
        if code is None:
            code = self._codes[codes] = 4 * len(classes) + 2
            classes.append(codes)
            stats.codes_allocated += 1
        return code
