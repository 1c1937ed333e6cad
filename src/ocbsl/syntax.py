"""Surface formulas: parsing, printing, and translation to the internal language.

The surface language has `&`, `|`, `!`/`~`, variables and the constants
`0`/`1`.  The internal language (see `dag`) keeps only the n-ary join and
negation; conjunctions are translated away with de Morgan's law
``x & y == !(!x | !y)``.

Grammar (whitespace insignificant)::

    formula := disj ;
    disj    := conj { "|" conj } ;
    conj    := neg  { "&" neg } ;
    neg     := { "!" | "~" } atom ;
    atom    := ident | "0" | "1" | "(" formula ")" ;

Chains of one operator are flattened into a single n-ary node at parse
time; parenthesised subformulas are kept as written, so ``a | (b | c)``
parses to a nested disjunction.  Nested joins are only merged later, by
the normalizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Formula",
    "Var",
    "Const",
    "Not",
    "And",
    "Or",
    "SourceSpan",
    "ParseError",
    "parse",
    "print_formula",
    "formula_nodes",
    "to_internal",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class SourceSpan:
    """Byte offsets [start, end) into the input text."""

    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at bytes {span.start}..{span.end}")
        self.message = message
        self.span = span


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")


@dataclass(frozen=True)
class Const:
    value: int  # 0 or 1

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("And needs at least one child")


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("Or needs at least one child")


Formula = Union[Var, Const, Not, And, Or]


# --------------------------------------------------------------------------
# Tokenizer

_PUNCT = {
    "!": "not",
    "~": "not",
    "&": "and",
    "|": "or",
    "(": "lparen",
    ")": "rparen",
}


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Return (kind, text, byte_start, byte_end) tokens plus a final eof token."""
    toks = []
    pos = 0
    bpos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        # a lone surrogate (an undecodable argv byte, say) has no UTF-8
        # form; surrogatepass measures it instead of raising
        blen = len(ch.encode("utf-8", "surrogatepass"))
        if ch in " \t\r\n":
            pos += 1
            bpos += blen
            continue
        kind = _PUNCT.get(ch)
        if kind is not None:
            toks.append((kind, ch, bpos, bpos + 1))
            pos += 1
            bpos += 1
            continue
        if ch.isdigit():
            # greedily take the whole word so "01" and "0a" fail cleanly
            j = pos
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[pos:j]
            bend = bpos + len(word)
            if word not in ("0", "1"):
                raise ParseError(f"bad token {word!r}", SourceSpan(bpos, bend))
            toks.append(("const", word, bpos, bend))
            pos = j
            bpos = bend
            continue
        m = _NAME_RE.match(text, pos)
        if m is not None:
            word = m.group()
            bend = bpos + len(word)
            toks.append(("ident", word, bpos, bend))
            pos = m.end()
            bpos = bend
            continue
        raise ParseError(f"unexpected character {ch!r}", SourceSpan(bpos, bpos + blen))
    toks.append(("eof", "", bpos, bpos))
    return toks


# --------------------------------------------------------------------------
# Parser
#
# Iterative so that deeply parenthesised input cannot overflow the Python
# stack.  A frame is a pair [or_parts, and_parts] collecting the current
# disjunction; parentheses push/pop frames.


def _close_conj(frame: list) -> None:
    or_parts, and_parts = frame
    or_parts.append(and_parts[0] if len(and_parts) == 1 else And(tuple(and_parts)))
    frame[1] = []


def _finish(frame: list) -> Formula:
    _close_conj(frame)
    or_parts = frame[0]
    return or_parts[0] if len(or_parts) == 1 else Or(tuple(or_parts))


def parse(text: str) -> Formula:
    """Parse a surface formula; raises ParseError with a span on bad input."""
    frame: list = [[], []]
    stack: list = []  # (frame, pending negations, lparen span)
    negs = 0
    want_operand = True
    for kind, word, s, e in _tokenize(text):
        span = SourceSpan(s, e)
        if want_operand:
            if kind == "not":
                negs += 1
            elif kind == "ident" or kind == "const":
                node: Formula = Var(word) if kind == "ident" else Const(int(word))
                for _ in range(negs):
                    node = Not(node)
                negs = 0
                frame[1].append(node)
                want_operand = False
            elif kind == "lparen":
                stack.append((frame, negs, span))
                frame = [[], []]
                negs = 0
            else:
                raise ParseError("expected an operand", span)
        else:
            if kind == "and":
                want_operand = True
            elif kind == "or":
                _close_conj(frame)
                want_operand = True
            elif kind == "rparen":
                if not stack:
                    raise ParseError("unmatched ')'", span)
                node = _finish(frame)
                frame, pending, _ = stack.pop()
                for _ in range(pending):
                    node = Not(node)
                frame[1].append(node)
            elif kind == "eof":
                if stack:
                    raise ParseError("unclosed '('", stack[-1][2])
                return _finish(frame)
            else:
                raise ParseError("expected an operator", span)
    raise AssertionError("unreachable")  # pragma: no cover


# --------------------------------------------------------------------------
# Printer

_SEP = {And: " & ", Or: " | "}


def _prec(node: Formula) -> int:
    if isinstance(node, Or):
        return 1
    if isinstance(node, And):
        return 2
    if isinstance(node, Not):
        return 3
    return 4


def print_formula(f: Formula) -> str:
    """Deterministic text form; parse(print_formula(f)) == f up to flattening.

    Conjunction/disjunction children are always parenthesised inside an
    operator context ("(a & b) | c", "a | (b | c)"); negations and atoms
    ride bare.  Stored nesting therefore survives a round trip.
    """
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, threshold = item
        if _prec(node) <= threshold:
            out.append("(")
            stack.append(")")
            stack.append((node, 0))
            continue
        if isinstance(node, Var):
            out.append(node.name)
        elif isinstance(node, Const):
            out.append(str(node.value))
        elif isinstance(node, Not):
            out.append("!")
            stack.append((node.child, 2))
        else:
            # push right-to-left so children pop in stored order
            sep = _SEP[type(node)]
            first = True
            for child in reversed(node.children):
                if not first:
                    stack.append(sep)
                stack.append((child, 2))
                first = False
    return "".join(out)


def formula_nodes(f: Formula) -> int:
    """Number of nodes in a surface formula."""
    count = 0
    stack = [f]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
    return count


# --------------------------------------------------------------------------
# Translation into the internal join/negation language


def to_internal(f: Formula, arena) -> int:
    """Intern f into `arena` with conjunctions removed by de Morgan.

    And[c1..ck] becomes !join(!c1..!ck); Or becomes join; everything else
    maps directly.  No simplification happens here: double negations and
    nested joins are kept for the normalizer.
    """
    stack: list = [(f, False)]
    vals: list[int] = []
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            if isinstance(node, Var):
                vals.append(arena.var(node.name))
            elif isinstance(node, Const):
                vals.append(arena.one() if node.value else arena.zero())
            elif isinstance(node, Not):
                stack.append((node, True))
                stack.append((node.child, False))
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))
        else:
            if isinstance(node, Not):
                vals.append(arena.neg(vals.pop()))
            else:
                k = len(node.children)
                children = tuple(vals[len(vals) - k :])
                del vals[len(vals) - k :]
                if isinstance(node, Or):
                    vals.append(arena.join(children))
                else:
                    vals.append(arena.neg(arena.join(tuple(arena.neg(c) for c in children))))
    return vals[0]
