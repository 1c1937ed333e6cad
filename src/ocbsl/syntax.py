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

`parse` cuts the whole text into token strings in one pass and
dispatches on each.  A text of word characters, the four whitespace
characters and operators alone is cut by `str.split` once every operator
is padded with spaces; any other text by one `findall` of a group-free
pattern (a name, a digit word or any other single non-whitespace
character).  Both cuts give the same tokens.  The parser is iterative and
allocates no frame per parenthesised group: one operand list, and one
tuple per open ``(`` (the enclosing group's two operand offsets, pending
negations and conjunction flag), hold all its state.  The loop keeps no
token index.  Only a rejected text costs more: the failing token's index
is recovered from the number of tokens left (an unclosed ``(`` is found
by scanning the tokens again), and the text is scanned again, up to that
token, to find its offset.

Chains of one operator are flattened into a single n-ary node at parse
time; parenthesised subformulas are kept as written, so ``a | (b | c)``
parses to a nested disjunction.  Nested joins are only merged later, by
the normalizer.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import islice
from operator import length_hint

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
# `_WORD_RE.findall` cuts the whole text into tokens in one call.  The
# pattern has no groups and no branch matches whitespace, so whitespace
# falls between tokens; at any other character one branch matches, so no
# character is skipped.  Each maximal run of word characters is therefore
# one token, and each operator is one.
#
# A text that `_PLAIN_RE` matches in full holds no other characters, so
# padding its operators with spaces and splitting at whitespace gives the
# same tokens at about a third of the cost.  The guard is needed:
# `str.split` also splits at whitespace that the grammar rejects (form
# feed, "\x1c", "\x85", ...).  The unbound `str` methods ignore overrides
# in a `str` subclass.

_WORD_RE = re.compile(
    rf"{_NAME_RE.pattern}"  # a variable name
    r"|[0-9][A-Za-z0-9_]*"  # a whole digit word, so "01" and "0a" fail as one token
    r"|[^ \t\r\n]"  # an operator, or an unexpected character
)
_PLAIN_RE = re.compile(r"[A-Za-z0-9_ \t\r\n!~&|()]*")
_PADDED_OPERATORS = tuple((op, f" {op} ") for op in "!~&|()")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _error(message: str, text: str, tokens: list, i: int) -> ParseError:
    """A ParseError for tokens[i], or for the end of the text if i == len(tokens).

    The token's character offset is found by scanning the text again up to
    it, and the span is given in UTF-8 bytes.
    """
    if i == len(tokens):
        start = end = len(text)
    else:
        start, end = next(islice(_WORD_RE.finditer(text), i, None)).span()
    # a lone surrogate (an undecodable argv byte, say) has no UTF-8 form;
    # surrogatepass measures it instead of raising
    bstart, width = (len(part.encode("utf-8", "surrogatepass")) for part in (text[:start], text[start:end]))
    return ParseError(message, SourceSpan(bstart, bstart + width))


def _syntax_error(message: str, text: str, tokens: list, i: int) -> ParseError:
    """The error for tokens[i], which the grammar does not allow where it stands.

    A token outside the language at i or after it is reported instead, so
    the first lexical error in the text wins over any syntax error.  The
    tokens before i were all accepted, so none of them is one.
    """
    for j in range(i, len(tokens)):
        word = tokens[j]
        if word[0] in _NAME_START:
            continue
        if word[0] in "0123456789":
            if word != "0" and word != "1":
                return _error(f"bad token {word!r}", text, tokens, j)
        elif word not in "!~&|()":
            return _error(f"unexpected character {word!r}", text, tokens, j)
    return _error(message, text, tokens, i)


# --------------------------------------------------------------------------
# Parser
#
# Iterative so that deeply parenthesised input cannot overflow the Python
# stack.  `out` holds the finished operands of every open group, innermost
# last: the current disjunction's parts from `or_start` on, and, while
# `conj` is set, the current conjunction's from `and_start` on.  A run's
# first `&` sets both, so a `|` or `)` that closes no conjunction does no
# conjunction bookkeeping.  A `(` pushes one tuple (or_start, and_start,
# negations, conj) of the enclosing group on `opens`, and its `)` unpacks
# it with one pop.  A conjunction or disjunction closes by replacing its
# slice of `out` with one node; a group of two disjuncts, the common case,
# is closed by two pops instead.
#
# The loop keeps no token index.  An error recovers the failing token's
# index from the number of tokens the iterator has left, and an unclosed
# `(` is found by scanning the tokens again for the innermost one.


def parse(text: str) -> Formula:
    """Parse a surface formula; raises ParseError with a span on bad input."""
    if _PLAIN_RE.fullmatch(text):
        spaced = text  # errors are spanned in `text` itself
        for op, padded in _PADDED_OPERATORS:
            spaced = str.replace(spaced, op, padded)
        tokens = str.split(spaced)
    else:
        tokens = _WORD_RE.findall(text)
    out: list = []
    opens: list[tuple] = []  # (or_start, and_start, negations, conj) per open "("
    or_start = and_start = negs = 0
    conj = False
    want_operand = True
    it = iter(tokens)
    for word in it:
        if want_operand:
            if word[0] in _NAME_START:
                # the scanner has matched the name grammar already
                node: Formula = ("var", word)
            elif word == "(":
                opens.append((or_start, and_start, negs, conj))
                or_start = len(out)
                negs = 0
                conj = False
                continue
            elif word == "!" or word == "~":
                negs += 1
                continue
            elif word == "0" or word == "1":
                node = (word,)
            else:
                i = len(tokens) - length_hint(it) - 1
                raise _syntax_error("expected an operand", text, tokens, i)
            while negs:
                node = ("not", node)
                negs -= 1
            out.append(node)
            want_operand = False
        elif word == "|":
            if conj:
                out[and_start:] = [("and", tuple(out[and_start:]))]
                conj = False
            want_operand = True
        elif word == "&":
            if not conj:
                and_start = len(out) - 1
                conj = True
            want_operand = True
        elif word == ")":
            if not opens:
                i = len(tokens) - length_hint(it) - 1
                raise _syntax_error("unmatched ')'", text, tokens, i)
            if conj:
                out[and_start:] = [("and", tuple(out[and_start:]))]
            k = len(out) - or_start
            if k == 2:  # the common group: two pops, no slice
                b = out.pop()
                node = ("or", (out.pop(), b))
            elif k > 2:
                node = ("or", tuple(out[or_start:]))
                del out[or_start:]
            else:
                node = out.pop()
            or_start, and_start, negs, conj = opens.pop()
            while negs:
                node = ("not", node)
                negs -= 1
            out.append(node)
        else:
            i = len(tokens) - length_hint(it) - 1
            raise _syntax_error("expected an operator", text, tokens, i)
    if want_operand:
        raise _syntax_error("expected an operand", text, tokens, len(tokens))
    if opens:
        # the whole text is scanned, so no lexical error remains, and every
        # ")" matched a "(": the innermost "(" left open is the last on `starts`
        starts = []
        for i, word in enumerate(tokens):
            if word == "(":
                starts.append(i)
            elif word == ")":
                starts.pop()
        raise _error("unclosed '('", text, tokens, starts[-1])
    if conj:
        out[and_start:] = [("and", tuple(out[and_start:]))]
    return ("or", tuple(out)) if len(out) > 1 else out[0]


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

    `f` is walked as a tree, so a formula whose tuples are shared is
    expanded: applying ``f = ("or", (f, ("not", f)))`` 18 times to a
    variable gives 37 arena nodes, but a tree of 786,430 nodes that this
    walks in full.  Callers that build a DAG should build it in the arena
    directly, with `Arena.var`, `Arena.neg` and `Arena.join`.
    """
    return arena.intern_tree(f)
