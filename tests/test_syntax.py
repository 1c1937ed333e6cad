import random
import re
import tracemalloc
from unittest import mock

import pytest

from ocbsl import Arena, Session, syntax
from ocbsl.syntax import (
    And,
    Const,
    Not,
    Or,
    ParseError,
    Var,
    formula_nodes,
    parse,
    print_formula,
    to_internal,
)
from ocbsl.bench import family_scale, gen_family
from gen import random_formula


def test_parse_simple():
    # a formula is a plain tuple; the constructors build the same tuples
    assert parse("a | !a & 1") == ("or", (("var", "a"), ("and", (("not", ("var", "a")), ("1",)))))
    assert parse("a | !a") == Or((Var("a"), Not(Var("a"))))
    assert parse("a & b") == And((Var("a"), Var("b")))
    assert parse("~a") == Not(Var("a"))
    assert parse("!!a") == Not(Not(Var("a")))
    assert parse("0") == Const(0)
    assert parse("1") == Const(1)
    assert parse("!0") == Not(Const(0))


def test_parse_conjunction_against_its_negation():
    f = parse("(a & b) | !(a & b)")
    ab = And((Var("a"), Var("b")))
    assert f == Or((ab, Not(ab)))


def test_parse_precedence_and_flattening():
    assert parse("a | b & c") == Or((Var("a"), And((Var("b"), Var("c")))))
    assert parse("a & b | c") == Or((And((Var("a"), Var("b"))), Var("c")))
    assert parse("a | b | c") == Or((Var("a"), Var("b"), Var("c")))
    assert parse("a & b & c & d") == And((Var("a"), Var("b"), Var("c"), Var("d")))
    # parentheses keep their nesting; only token chains flatten
    assert parse("a | (b | c)") == Or((Var("a"), Or((Var("b"), Var("c")))))
    assert parse("(a | b) | c") == Or((Or((Var("a"), Var("b"))), Var("c")))


@pytest.mark.parametrize(
    "text, tree",
    [
        # a conjunction open around a group continues after it
        (
            "a & (b | c) & d | e",
            Or((And((Var("a"), Or((Var("b"), Var("c"))), Var("d"))), Var("e"))),
        ),
        # a conjunction closed inside a group, and one opened after it
        ("(a & b) | c & d", Or((And((Var("a"), Var("b"))), And((Var("c"), Var("d")))))),
        ("!(a & b & c) | d", Or((Not(And((Var("a"), Var("b"), Var("c")))), Var("d")))),
        # a group that closes a conjunction of its own ends an outer one
        (
            "a | b & c & (d | e & f)",
            Or((Var("a"), And((Var("b"), Var("c"), Or((Var("d"), And((Var("e"), Var("f"))))))))),
        ),
    ],
)
def test_parse_conjunctions_closed_across_groups(text, tree):
    assert parse(text) == tree


def test_parse_singleton_parens_collapse():
    assert parse("(a)") == Var("a")
    assert parse("((a))") == Var("a")
    assert parse("!(a)") == Not(Var("a"))


@pytest.mark.parametrize(
    "text",
    ["", "a |", "| a", "a &", "(a", "a)", "()", "a b", "01", "0a", "a | 2", "a | \udcff"],
)
def test_parse_errors(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    span = err.value.span
    # a lone surrogate has no UTF-8 form; spans measure it as surrogatepass does
    assert 0 <= span.start <= span.end <= len(text.encode("utf-8", "surrogatepass"))


@pytest.mark.parametrize(
    "text, message, start, end",
    [
        ("a | | b", "expected an operand", 4, 5),
        ("", "expected an operand", 0, 0),
        ("a b", "expected an operator", 2, 3),
        ("(a", "unclosed '('", 0, 1),
        # the innermost "(" still open is reported, not one already closed
        ("(a | (b", "unclosed '('", 5, 6),
        ("(a | (b) | c", "unclosed '('", 0, 1),
        ("a)", "unmatched ')'", 1, 2),
        ("01", "bad token '01'", 0, 2),
        ("a | é", "unexpected character 'é'", 4, 6),  # two UTF-8 bytes
        ("é", "unexpected character 'é'", 0, 2),
        ("a\x0cb", "unexpected character '\\x0c'", 1, 2),  # a form feed is not whitespace
        # only ASCII digits start a digit word, and it holds only ASCII
        ("a | ٣", "unexpected character '٣'", 4, 6),
        ("0é", "unexpected character 'é'", 1, 3),
        # the first lexical error wins over an earlier syntax error
        ("a b é", "unexpected character 'é'", 4, 6),
        ("a | | 02", "bad token '02'", 6, 8),
        # an error at the end of the text is spanned there, after any whitespace
        ("a |  ", "expected an operand", 5, 5),
        # the failing token is found by position, not by what precedes it
        ("abc_12 | | b", "expected an operand", 9, 10),
    ],
)
def test_parse_error_messages_and_byte_spans(text, message, start, end):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.span.start, err.value.span.end) == (message, start, end)
    assert str(err.value) == f"{message} at bytes {start}..{end}"


# pieces of random parser inputs; "\udcff" is a lone surrogate
_PIECES = ["a", "b", "x_1", "abc_12", "0", "1", "01", "0a", *"!~&|()", " ", "\t", "\x0c", "é", "٣", "\udcff"]


def test_parse_round_trips_or_spans_the_offending_bytes():
    rng = random.Random(19)
    for _ in range(1000):
        text = "".join(rng.choices(_PIECES, k=rng.randint(0, 12)))
        try:
            f = parse(text)
        except ParseError as err:
            data = text.encode("utf-8", "surrogatepass")
            start, end = err.span
            assert 0 <= start <= end <= len(data), (text, err)
            spanned = data[start:end].decode("utf-8", "surrogatepass")
            for prefix in ("bad token ", "unexpected character "):
                if err.message.startswith(prefix):
                    assert err.message == prefix + repr(spanned), (text, err)
        else:
            assert parse(print_formula(f)) == f, text


def _outcome(text):
    """parse(text), or the message and span of the ParseError it raises."""
    try:
        return parse(text)
    except ParseError as err:
        return err.message, err.span


def _outcome_by_findall(text):
    # the guard never matches in full, so every text is cut by `findall`
    with mock.patch.object(syntax, "_PLAIN_RE", re.compile(r"(?!)")):
        return _outcome(text)


# whitespace to `str.split` but not to the grammar: "a\x1cb".split() == ["a", "b"]
_SPLIT_ONLY_WHITESPACE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028"]
# every ASCII code point, and non-ASCII characters a cut could mistake for
# whitespace, a digit or a name; "\udcff" is a lone surrogate
_ANY_CHAR = [chr(c) for c in range(128)] + ["\x85", "\xa0", "\u2028", "é", "٣", "\udcff"]
_PLAIN_PIECES = ["a", "b", "x_1", "abc_12", "0", "1", "01", "0a", *"!~&|()", " ", "\t", "\r", "\n"]


def test_split_cut_parses_as_findall_does():
    rng = random.Random(21)
    # half for the `str.split` cut, half mostly for the `findall` one
    for pieces in (_PLAIN_PIECES, _PLAIN_PIECES * 4 + _ANY_CHAR) * 750:
        text = "".join(rng.choices(pieces, k=rng.randint(0, 16)))
        assert _outcome(text) == _outcome_by_findall(text), text


@pytest.mark.parametrize("ch", _SPLIT_ONLY_WHITESPACE)
def test_whitespace_of_str_split_stays_unexpected(ch):
    # the split cut would read "a<ch>b" as two names
    assert str.split(f"a{ch}b") == ["a", "b"]
    for text in (f"a{ch}b", f"a |{ch}b", f"({ch}a)"):
        message, span = _outcome(text)
        assert message == f"unexpected character {ch!r}"
        assert (message, span) == _outcome_by_findall(text)


class _Scrambled(str):
    def replace(self, *args):
        return "x"

    def split(self, *args):
        return ["(", "("]


@pytest.mark.parametrize("text", ["a | (b & !c)", "~(x_1) & 0 | 1", "a |", "a b", "a\x0cb"])
def test_str_subclass_parses_like_its_plain_value(text):
    assert _outcome(_Scrambled(text)) == _outcome(text)
    f = parse(_Scrambled("abc"))
    assert f == ("var", "abc") and type(f[1]) is str


@pytest.mark.parametrize("value", [None, 5, b"a | b", bytearray(b"a"), ["a"]])
def test_parse_rejects_a_non_str_with_type_error(value):
    with pytest.raises(TypeError):
        parse(value)


def test_parse_peak_memory_is_near_what_the_result_keeps():
    # tracemalloc counts bytes, so this is deterministic for one interpreter
    text = print_formula(gen_family("fig6", family_scale("fig6", 2**15)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f = parse(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert formula_nodes(f) == 2**15 - 1
    assert (peak - base) / (kept - base) <= 1.5


@pytest.mark.parametrize("family, bound", [("fig6", 35), ("fig7", 21), ("a9", 67)])
def test_session_bytes_per_surface_node(family, bound):
    # what a session keeps after normalizing a 2^15-node formula: node codes
    # in a list indexed by ref, the class table and the dict of constants
    # and join keys (no entry per variable)
    f = gen_family(family, family_scale(family, 2**15))
    arena = Arena()
    ref = to_internal(f, arena)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        session = Session(arena)
        session.normalize(ref)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (kept - base) / formula_nodes(f) <= bound, session.stats


@pytest.mark.parametrize(
    "family, bound", [("fig6", 108), ("fig7", 92), ("a9", 86), ("and-chain", 206), ("neg-tower", 163)]
)
def test_arena_bytes_per_surface_node(family, bound):
    # what `to_internal` keeps of a 2^15-node formula: the payloads and the
    # memo; a node's kind is its payload's type, and its tree size is not kept
    f = gen_family(family, family_scale(family, 2**15))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        arena = Arena()
        to_internal(f, arena)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (kept - base) / formula_nodes(f) <= bound, len(arena)


def test_deep_parentheses_do_not_overflow():
    depth = 50_000
    f = parse("(" * depth + "a" + ")" * depth)
    assert f == Var("a")


def test_print_examples():
    assert print_formula(Or((Var("a"), Not(Var("a"))))) == "a | !a"
    assert print_formula(And((Var("a"), Var("b")))) == "a & b"
    assert print_formula(Or((And((Var("a"), Var("b"))), Var("c")))) == "(a & b) | c"
    assert print_formula(Not(And((Var("a"), Var("b"))))) == "!(a & b)"
    assert print_formula(Not(Not(Var("a")))) == "!!a"
    assert print_formula(Or((Var("a"), Or((Var("b"), Var("c")))))) == "a | (b | c)"


def test_round_trip_random():
    rng = random.Random(11)
    names = ["a", "b", "c", "x_1"]
    for _ in range(500):
        f = random_formula(rng, rng.randint(1, 25), names)
        assert parse(print_formula(f)) == f


def test_to_internal_structure():
    arena = Arena()
    a, b = Var("a"), Var("b")
    ref = to_internal(And((a, b)), arena)
    # !(!a | !b)
    assert ref == arena.neg(arena.join((arena.neg(arena.var("a")), arena.neg(arena.var("b")))))
    ref = to_internal(Or((a, b)), arena)
    assert ref == arena.join((arena.var("a"), arena.var("b")))
    # no simplification at translation time: !(a & b) keeps its double negation
    ref = to_internal(Not(And((a, b))), arena)
    assert ref == arena.neg(arena.neg(arena.join((arena.neg(arena.var("a")), arena.neg(arena.var("b"))))))


def test_to_internal_constants_and_vars():
    arena = Arena()
    assert to_internal(Const(0), arena) == arena.zero()
    assert to_internal(Const(1), arena) == arena.one()
    assert to_internal(Var("q"), arena) == arena.var("q")


def _expected_internal_size(f):
    # translation adds one negation per conjunct plus the wrapping negation
    total = formula_nodes(f)
    stack = [f]
    while stack:
        node = stack.pop()
        if node[0] == "not":
            stack.append(node[1])
        elif node[0] in ("and", "or"):
            if node[0] == "and":
                total += 1 + len(node[1])
            stack.extend(node[1])
    return total


def test_to_internal_size_is_linear():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, rng.randint(1, 30), ["a", "b", "c"])
        arena = Arena()
        ref = to_internal(f, arena)
        assert arena.tree_size(ref) == _expected_internal_size(f)
        assert arena.tree_size(ref) <= 3 * formula_nodes(f)


def test_formula_validation():
    with pytest.raises(ValueError):
        Var("0")
    with pytest.raises(ValueError):
        Var("not ok")
    for name in (5, None):
        with pytest.raises(ValueError, match="invalid variable name"):
            Var(name)
    with pytest.raises(ValueError):
        Const(2)
    with pytest.raises(ValueError):
        And(())
    with pytest.raises(ValueError):
        Or(())
    with pytest.raises(ValueError):
        Or(iter(()))
    with pytest.raises(ValueError):
        And(c for c in ())


def test_source_span_contract():
    import copy
    import pickle

    from ocbsl import SourceSpan

    span = SourceSpan(4, 6)
    assert span == SourceSpan(start=4, end=6) != SourceSpan(4, 7)
    assert (span.start, span.end) == (4, 6)
    assert hash(span) == hash(SourceSpan(4, 6))
    assert len({span, SourceSpan(4, 6), SourceSpan(5, 6)}) == 2
    assert repr(span) == "SourceSpan(start=4, end=6)"
    with pytest.raises(AttributeError):
        span.start = 5
    assert span.start == 4
    assert copy.deepcopy(span) == pickle.loads(pickle.dumps(span)) == span


def test_parse_error_survives_copy_and_pickle():
    import copy
    import pickle

    with pytest.raises(ParseError) as info:
        parse("a &")
    err = info.value
    for clone in (copy.copy(err), copy.deepcopy(err), pickle.loads(pickle.dumps(err))):
        assert type(clone) is ParseError
        assert (clone.message, clone.span, str(clone)) == (err.message, err.span, str(err))
