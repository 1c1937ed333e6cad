"""Surface formulas: parsing, printing, and translation to the internal language.

The surface language has `&`, `|`, `!`/`~`, variables and the constants
`0`/`1`.  The internal language (see `dag`) keeps only the n-ary join and
negation; conjunctions are translated away with de Morgan's law
``x & y == !(!x | !y)``.

A formula is a plain tuple, the tree shape of `dag` plus a conjunction::

    ("var", name) | ("0",) | ("1",) | ("not", f) | ("or", (f1, ..., fk))
                  | ("and", (f1, ..., fk))          k >= 1

`Var`, `Const`, `Not`, `And` and `Or` build one and reject a bad name, a
constant other than 0/1 and an empty child tuple.

Grammar (whitespace insignificant)::

    formula := disj ;
    disj    := conj { "|" conj } ;
    conj    := neg  { "&" neg } ;
    neg     := { "!" | "~" } atom ;
    atom    := ident | "0" | "1" | "(" formula ")" ;

Lexical rules, all ASCII: whitespace is space, tab, CR and LF (nothing
else, not even a form feed); an ident is ``[A-Za-z_][A-Za-z0-9_]*``; a
word starting with a digit, ``[0-9][A-Za-z0-9_]*``, is one token and
must be ``0`` or ``1`` (so ``01`` and ``0a`` are bad tokens); every other
character is an operator from ``!~&|()`` or unexpected.  When the input
is rejected, the first lexical error in it is reported if there is one,
else the first syntax error.  `ParseError` spans are UTF-8 byte offsets,
computed only then.

Chains of one operator are flattened into a single n-ary node at parse
time; parenthesised subformulas are kept as written, so ``a | (b | c)``
parses to a nested disjunction.  Nested joins are only merged later, by
the normalizer.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .dag import _NAME_RE, _check_name, _tree_nodes

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


# Byte offsets [start, end) into the input text.
SourceSpan = namedtuple("SourceSpan", "start end")


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at bytes {span.start}..{span.end}")
        self.message = message
        self.span = span

    def __reduce__(self):  # `args` holds only the formatted text, not both arguments
        return ParseError, (self.message, self.span)


Formula = tuple  # of the shape in the module docstring


def Var(name: str) -> Formula:
    _check_name(name)
    return ("var", name)


def Const(value: int) -> Formula:
    if value not in (0, 1):
        raise ValueError(f"constant must be 0 or 1, got {value!r}")
    return ("1",) if value else ("0",)


def Not(child: Formula) -> Formula:
    return ("not", child)


def And(children: tuple[Formula, ...]) -> Formula:
    children = tuple(children)
    if not children:
        raise ValueError("And needs at least one child")
    return ("and", children)


def Or(children: tuple[Formula, ...]) -> Formula:
    children = tuple(children)
    if not children:
        raise ValueError("Or needs at least one child")
    return ("or", children)


# --------------------------------------------------------------------------
# Scanner
#
# One match per token, straight from the text: whitespace first, then one
# of the groups below.  Before the end of the text one of the first three
# groups always matches, so a scan never skips a character.

_NAME, _DIGITS, _CHAR, _END = 1, 2, 3, 4
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    rf"({_NAME_RE.pattern})"  # a variable name
    r"|([0-9][A-Za-z0-9_]*)"  # a whole digit word, so "01" and "0a" fail as one token
    r"|(.)"  # an operator, or an unexpected character
    r"|(\Z))",  # the end of the text
    re.DOTALL,
)


def _error(message: str, text: str, start: int, end: int) -> ParseError:
    """A ParseError for the characters text[start:end], spanned in UTF-8 bytes."""
    # a lone surrogate (an undecodable argv byte, say) has no UTF-8 form;
    # surrogatepass measures it instead of raising
    bstart, width = (len(part.encode("utf-8", "surrogatepass")) for part in (text[:start], text[start:end]))
    return ParseError(message, SourceSpan(bstart, bstart + width))


def _syntax_error(message: str, text: str, m: re.Match) -> ParseError:
    """The error for token m, which the grammar does not allow where it stands.

    A token outside the language at m or after it is reported instead, so
    the first lexical error in the text wins over any syntax error.
    """
    for t in _TOKEN_RE.finditer(text, m.start()):
        kind = t.lastindex
        word = t[kind]
        if kind == _DIGITS and word not in ("0", "1"):
            return _error(f"bad token {word!r}", text, t.start(kind), t.end(kind))
        if kind == _CHAR and word not in "!~&|()":
            return _error(f"unexpected character {word!r}", text, t.start(kind), t.end(kind))
    kind = m.lastindex
    return _error(message, text, m.start(kind), m.end(kind))


# --------------------------------------------------------------------------
# Parser
#
# Iterative so that deeply parenthesised input cannot overflow the Python
# stack.  A frame is a pair [or_parts, and_parts] collecting the current
# disjunction; parentheses push/pop frames.


def _close_conj(frame: list) -> None:
    or_parts, and_parts = frame
    or_parts.append(and_parts[0] if len(and_parts) == 1 else ("and", tuple(and_parts)))
    frame[1] = []


def _finish(frame: list) -> Formula:
    _close_conj(frame)
    or_parts = frame[0]
    return or_parts[0] if len(or_parts) == 1 else ("or", tuple(or_parts))


def parse(text: str) -> Formula:
    """Parse a surface formula; raises ParseError with a span on bad input."""
    frame: list = [[], []]
    stack: list = []  # (frame, pending negations, offset of the "(")
    negs = 0
    want_operand = True
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        word = m[kind]
        if want_operand:
            if kind == _NAME or word == "0" or word == "1":
                # the scanner has matched the name grammar already
                node: Formula = ("var", word) if kind == _NAME else (word,)
                for _ in range(negs):
                    node = ("not", node)
                negs = 0
                frame[1].append(node)
                want_operand = False
            elif word == "!" or word == "~":
                negs += 1
            elif word == "(":
                stack.append((frame, negs, m.start(kind)))
                frame = [[], []]
                negs = 0
            else:
                raise _syntax_error("expected an operand", text, m)
        else:
            if word == "&":
                want_operand = True
            elif word == "|":
                _close_conj(frame)
                want_operand = True
            elif word == ")":
                if not stack:
                    raise _syntax_error("unmatched ')'", text, m)
                node = _finish(frame)
                frame, pending, _ = stack.pop()
                for _ in range(pending):
                    node = ("not", node)
                frame[1].append(node)
            elif kind == _END:
                if stack:
                    # the whole text is scanned, so no lexical error remains
                    lparen = stack[-1][2]
                    raise _error("unclosed '('", text, lparen, lparen + 1)
                return _finish(frame)
            else:
                raise _syntax_error("expected an operator", text, m)
    raise AssertionError("unreachable")  # pragma: no cover


# --------------------------------------------------------------------------
# Printer

_SEP = {"and": " & ", "or": " | "}
_PREC = {"or": 1, "and": 2, "not": 3, "var": 4, "0": 4, "1": 4}


def print_formula(f: Formula) -> str:
    """Deterministic text form; parse(print_formula(f)) == f up to flattening.

    Conjunction/disjunction children are always parenthesised inside an
    operator context ("(a & b) | c", "a | (b | c)"); negations and atoms
    ride bare.  Stored nesting therefore survives a round trip.  A
    malformed formula raises ValueError.
    """
    _tree_nodes(f)
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, threshold = item
        head = node[0]
        if _PREC[head] <= threshold:
            out.append("(")
            stack.append(")")
            stack.append((node, 0))
            continue
        if head == "var":
            out.append(node[1])
        elif head == "0" or head == "1":
            out.append(head)
        elif head == "not":
            out.append("!")
            stack.append((node[1], 2))
        else:
            # push right-to-left so children pop in stored order
            sep = _SEP[head]
            first = True
            for child in reversed(node[1]):
                if not first:
                    stack.append(sep)
                stack.append((child, 2))
                first = False
    return "".join(out)


def formula_nodes(f: Formula) -> int:
    """Number of nodes in a surface formula; a malformed one raises ValueError."""
    return len(_tree_nodes(f))


# --------------------------------------------------------------------------
# Translation into the internal join/negation language


def to_internal(f: Formula, arena) -> int:
    """Intern f into `arena` with conjunctions removed by de Morgan.

    ("and", cs) becomes !join(!c1..!ck); "or" becomes join; everything
    else maps directly (`dag.Arena.intern_tree`).  No simplification
    happens here: double negations and nested joins are kept for the
    normalizer.
    """
    return arena.intern_tree(f)
