"""Truth-table semantics over {0, 1} for soundness testing.

The coded normalizer proves strictly fewer equivalences than Boolean
algebra (it has no distributivity or absorption), so whenever it reports
two terms equal their truth tables must agree.  This module is the
independent check of that direction: brute-force enumeration of all
assignments, with `boolean_equivalent` packing the whole table into one
big integer per node so the enumeration stays cheap.
"""

from __future__ import annotations

import reprlib

from .dag import Arena, JOIN, NEG, ONE, VAR, ZERO
from . import syntax

__all__ = [
    "MAX_VARIABLES",
    "term_variables",
    "eval_term",
    "eval_formula",
    "boolean_equivalent",
]

# 2**20 truth-table rows is desk scale; needing more means the test design
# is wrong, not this module.
MAX_VARIABLES = 20


def term_variables(arena: Arena, ref: int) -> list[str]:
    """Sorted names of the variables occurring under ref."""
    names = {
        arena.var_name(n)
        for n in arena.reverse_topological_order([ref])
        if arena.kind(n) == VAR
    }
    return sorted(names)


def eval_term(arena: Arena, ref: int, assignment: dict[str, int]) -> int:
    """Value of an internal term: join is max, negation is 1 - x."""
    values: dict[int, int] = {}
    for n in arena.reverse_topological_order([ref]):
        kind = arena.kind(n)
        if kind == ZERO:
            values[n] = 0
        elif kind == ONE:
            values[n] = 1
        elif kind == VAR:
            name = arena.var_name(n)
            if name not in assignment:
                raise ValueError(f"unbound variable {name!r}")
            values[n] = 1 if assignment[name] else 0
        elif kind == NEG:
            values[n] = 1 - values[arena.neg_child(n)]
        else:
            values[n] = max(values[c] for c in arena.join_children(n))
    return values[ref]


def eval_formula(f: syntax.Formula, assignment: dict[str, int]) -> int:
    """Standard Boolean value of a surface formula (and=min, or=max).

    Post-order and iterative like `Arena.intern_tree`, so it takes any
    depth `parse` does; a malformed node raises ValueError.
    """
    stack = [(f, False)]
    vals: list[int] = []
    while stack:
        t, expanded = stack.pop()
        head = t[0] if type(t) is tuple and t else None
        if expanded:
            if head == "not":
                vals.append(1 - vals.pop())
            else:
                k = len(t[1])
                children = vals[len(vals) - k :]
                del vals[len(vals) - k :]
                vals.append(min(children) if head == "and" else max(children))
        elif head == "var" and len(t) == 2:
            if t[1] not in assignment:
                raise ValueError(f"unbound variable {t[1]!r}")
            vals.append(1 if assignment[t[1]] else 0)
        elif (head == "0" or head == "1") and len(t) == 1:
            vals.append(int(head))
        elif head == "not" and len(t) == 2:
            stack.append((t, True))
            stack.append((t[1], False))
        elif (head == "or" or head == "and") and len(t) == 2 and type(t[1]) is tuple and t[1]:
            stack.append((t, True))
            for c in reversed(t[1]):
                stack.append((c, False))
        else:
            raise ValueError(f"bad formula node {reprlib.repr(t)}")
    return vals[0]


def _truth_table(arena: Arena, ref: int, names: list[str]) -> int:
    """All 2**k rows of ref's table packed into one int (bit a = row a)."""
    k = len(names)
    width = 1 << k
    full = (1 << width) - 1
    var_mask = {}
    for i, name in enumerate(names):
        # rows where bit i of the assignment index is 1
        var_mask[name] = full - full // ((1 << (1 << i)) + 1)
    tables: dict[int, int] = {}
    for n in arena.reverse_topological_order([ref]):
        kind = arena.kind(n)
        if kind == ZERO:
            tables[n] = 0
        elif kind == ONE:
            tables[n] = full
        elif kind == VAR:
            tables[n] = var_mask[arena.var_name(n)]
        elif kind == NEG:
            tables[n] = full ^ tables[arena.neg_child(n)]
        else:
            acc = 0
            for c in arena.join_children(n):
                acc |= tables[c]
            tables[n] = acc
    return tables[ref]


def boolean_equivalent(arena: Arena, t1: int, t2: int) -> bool:
    """Whether both terms agree on every assignment to their variables."""
    names = sorted(set(term_variables(arena, t1)) | set(term_variables(arena, t2)))
    if len(names) > MAX_VARIABLES:
        raise ValueError(f"{len(names)} variables exceeds the cap of {MAX_VARIABLES}")
    return _truth_table(arena, t1, names) == _truth_table(arena, t2, names)
