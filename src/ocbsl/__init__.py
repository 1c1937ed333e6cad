"""Equivalence of and/or/not formulas up to distributivity.

The decision procedure assigns every term an integer code naming its
class under commutativity, associativity, idempotence, unit/absorbing
constants, involution of negation, complementation and de Morgan's laws;
two formulas are reported equivalent exactly when their codes match.
Equivalence here implies Boolean equivalence, never the converse: the
rules include neither distributivity nor absorption, which is what makes
a quasilinear single-pass decision possible.

Typical use::

    from ocbsl import Arena, Session, parse, to_internal

    arena = Arena()
    session = Session(arena)
    lhs = to_internal(parse("(a & b) | !(a & b)"), arena)
    rhs = to_internal(parse("1"), arena)
    session.equivalent(lhs, rhs)   # True

`rewrite` (a naive rule engine) and `semantics` (truth tables) are
independent oracles used to cross-check the fast path.
"""

from .dag import Arena, print_term
from .normalize import ONE_CODE, ZERO_CODE, Session, Stats, neg_of
from .syntax import (
    And,
    Const,
    Formula,
    Not,
    Or,
    ParseError,
    SourceSpan,
    Var,
    formula_nodes,
    parse,
    print_formula,
    to_internal,
)

__all__ = [
    "And",
    "Arena",
    "Const",
    "Formula",
    "Not",
    "ONE_CODE",
    "Or",
    "ParseError",
    "Session",
    "SourceSpan",
    "Stats",
    "Var",
    "ZERO_CODE",
    "formula_nodes",
    "neg_of",
    "parse",
    "print_formula",
    "print_term",
    "to_internal",
]
