"""Packed truth-table semantics over {0, 1} for soundness testing.

The coded normalizer proves strictly fewer equivalences than Boolean
algebra (it has no distributivity or absorption), so whenever it reports
two formulas equal their truth tables must agree.  This module is the
independent check of that direction.  It holds one evaluator per
language, and each computes all 2**k rows at once, packed into one big
integer per node (bit a is row a): `formula_table` over surface formulas,
which calls no `dag` or `syntax` code and so checks the translation as
well, and the walk over arena terms behind `boolean_equivalent`.
"""

from __future__ import annotations

import reprlib

from .dag import Arena

__all__ = ["MAX_VARIABLES", "formula_table", "boolean_equivalent"]

# 2**20 truth-table rows is desk scale; needing more means the test design
# is wrong, not this module.
MAX_VARIABLES = 20


def _masks(names) -> tuple[int, dict[str, int]]:
    """The table of 1 and the table of each name, name i being bit i of the row."""
    if len(names) > MAX_VARIABLES:
        raise ValueError(f"{len(names)} variables exceeds the cap of {MAX_VARIABLES}")
    full = (1 << (1 << len(names))) - 1
    # rows where bit i of the row index is 1
    return full, {name: full - full // ((1 << (1 << i)) + 1) for i, name in enumerate(names)}


def formula_table(f, names) -> int:
    """Packed table of a surface formula over names: and is &, or is |, not is full ^.

    Post-order and iterative, so it takes any depth `parse` does.  A
    malformed node (a variable's name must be a `str`), a variable not in
    names or more than MAX_VARIABLES names raises ValueError.
    """
    full, masks = _masks(names)
    stack = [(f, False)]
    vals: list[int] = []
    while stack:
        t, expanded = stack.pop()
        head = t[0] if type(t) is tuple and t else None
        if expanded:
            if head == "not":
                vals[-1] ^= full
                continue
            acc = vals.pop()
            for _ in range(len(t[1]) - 1):
                acc = acc & vals.pop() if head == "and" else acc | vals.pop()
            vals.append(acc)
        elif head == "var" and len(t) == 2 and isinstance(t[1], str):
            if t[1] not in masks:
                raise ValueError(f"unbound variable {t[1]!r}")
            vals.append(masks[t[1]])
        elif (head == "0" or head == "1") and len(t) == 1:
            vals.append(full if head == "1" else 0)
        elif head == "not" and len(t) == 2:
            stack.append((t, True))
            stack.append((t[1], False))
        elif (head == "or" or head == "and") and len(t) == 2 and type(t[1]) is tuple and t[1]:
            stack.append((t, True))
            for c in t[1]:
                stack.append((c, False))
        else:
            raise ValueError(f"bad formula node {reprlib.repr(t)}")
    return vals[0]


def _term_tables(arena: Arena, roots: list[int]) -> tuple[list[str], list[int]]:
    """Sorted names of the variables under roots, and each root's table over them."""
    order = arena.reverse_topological_order(roots)
    payload = arena._payload  # refs in order are checked
    leaves = {p for p in map(payload.__getitem__, order) if type(p) is not int and type(p) is not tuple}
    names = sorted(leaves - {"0", "1"})  # the constants' texts are no variables
    full, masks = _masks(names)
    masks["0"], masks["1"] = 0, full
    tables: dict[int, int] = {}
    for n in order:
        p = payload[n]
        if type(p) is int:  # a negation
            acc = full ^ tables[p]
        elif type(p) is tuple:  # a join
            acc = 0
            for c in p:
                acc |= tables[c]
        else:  # a leaf: "0", "1" or a name
            acc = masks[p]
        tables[n] = acc
    return names, [tables[r] for r in roots]


def boolean_equivalent(arena: Arena, t1: int, t2: int) -> bool:
    """Whether both terms agree on every assignment to their variables."""
    _, (table1, table2) = _term_tables(arena, [t1, t2])
    return table1 == table2
