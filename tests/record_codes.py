"""Record what the public pipeline assigns to a fixed set of inputs.

    PYTHONPATH=src:tests python3 tests/record_codes.py OUT VERDICTS

Writes two files in one pass over the inputs below.

OUT, the code digest's file, holds one JSON line per input formula: the
ref `to_internal` returned, its kind (see `KINDS`), `len(arena)` after
interning, the code, the join members of that code, every `Stats` field,
the printed normal form, the ref `extract_normal_form` returned, its kind
and `len(arena)` after it, and the input's `formula_nodes` and
`print_formula`.  Rows of the random pairs also hold
`semantics.boolean_equivalent` of the row's ref and an earlier one (see
below).  A parse section, described below, follows.

VERDICTS, the verdict digest's file, holds one JSON line per input
formula, the parse section aside: the verdict against the row's partner,
if it has one, and `rewrite.canonicalize` of the exported normal form.  A
row's partner is the formula normalized just before it in the same
session: the previous term for an enumerated term in the shared session,
a pair's f for its g (in either session), and the previous pair's g for
an f in the shared session.  The first row of a session, fresh or shared,
has none and records null.  The verdict compares the two stored codes,
which are stable within a session; it normalizes nothing again, so the
counters in OUT are those of the row's own call.  Codes, counters, refs
and the order in which a normal form prints its join children are left
out of VERDICTS, so a change to the fused pass that numbers classes
differently but decides and normalizes alike keeps that file
byte-identical while OUT changes.

Only the public API is used, so the same file runs against another
checkout of the package, and a refactor of `dag`, `syntax`, `normalize`
or `semantics` that keeps refs, codes, counters, normal forms, surface
walks and truth-table verdicts leaves both outputs byte-identical::

    PYTHONPATH=<old checkout>/src:tests python3 tests/record_codes.py old.jsonl old-verdicts.jsonl
    PYTHONPATH=src:tests python3 tests/record_codes.py new.jsonl new-verdicts.jsonl
    cmp old.jsonl new.jsonl && cmp old-verdicts.jsonl new-verdicts.jsonl

Inputs, each run with size_scheduling True and then False:

* every `enumerate_terms(7)` term, each in a fresh session, then all in
  one shared session;
* 20,000 pairs of a `gen.random_formula` (2-40 nodes over a-d) and its
  `gen.disturbed` variant, each pair in a fresh session, then all in one
  shared session.  In OUT, a g row in a fresh session records whether g
  is Boolean-equal to its f; an f row in the shared session, whether f is
  Boolean-equal to the g before it, so both answers occur;
* every bench family (`bench.FAMILIES`) at 2^4..2^12 surface nodes,
  each in a fresh session.

The parse section of OUT: for every input formula above (once, not per
scheduling mode), ``parse(print_formula(f))`` is interned into a fresh
arena and its ref, ``len(arena)`` and `formula_nodes` are recorded.  Then
100,000 seeded random texts over names, ``0``/``1``/``01``/``0a``, the
operators ``!~&|()``, spaces, tabs, a form feed, ``é``, ``٣`` and a lone
surrogate are parsed; each row holds the parsed `print_formula` or the
`ParseError` message and span.

It takes about a minute on 2 CPUs and writes 756,675 lines to OUT and
525,322 to VERDICTS.  Not collected by pytest (the file name does not
start with ``test_``).

CI runs it and checks both outputs against the digests in
``tests/record_codes.sha256`` (the outputs are the same under any
``PYTHONHASHSEED``)::

    PYTHONPATH=src:tests python tests/record_codes.py out.jsonl verdicts.jsonl
    sha256sum -c tests/record_codes.sha256

Update the ``out.jsonl`` line only in a change that alters codes, refs or
counters on purpose, and the ``verdicts.jsonl`` line only in one that
alters verdicts or normal forms on purpose; say why in the change.
"""

from __future__ import annotations

import json
import random
import sys

from ocbsl import Arena, ParseError, Session, formula_nodes, parse, print_formula, print_term, to_internal
from ocbsl import rewrite, semantics
from ocbsl.bench import FAMILIES, family_scale, gen_family
from enum_terms import enumerate_terms
from gen import disturbed, random_formula

PAIRS = 20_000
SEED = 7
TEXTS = 100_000
# a node's kind, numbered by the head of its `Arena.export_tree` form
KINDS = {"var": 0, "0": 1, "1": 2, "not": 3, "or": 4}
# pieces of the random parser inputs; "\udcff" is a lone surrogate
PIECES = ["a", "b", "x_1", "abc_12", "0", "1", "01", "0a", *"!~&|()", " ", "\t", "\x0c", "é", "٣", "\udcff"]


def record(out, verdicts, label: str, session: Session, formula, against=None, partner=None):
    """Write formula's rows; return (ref, code).

    With `against` (a ref), the OUT row also holds the Boolean equality to
    it; with `partner` (a code), the VERDICTS row holds the verdict against it.
    """
    arena = session.arena
    ref = to_internal(formula, arena)
    nodes = len(arena)
    code = session.normalize(ref)
    members = session.join_class_members(code)
    nf_ref = session.extract_normal_form(code)
    row = {
        "in": label,
        "ref": ref,
        "kind": KINDS[arena.export_tree(ref)[0]],
        "nodes": nodes,
        "code": code,
        "members": members,
        "stats": vars(session.stats),
        "nf": print_term(arena, nf_ref),
        "nf_ref": nf_ref,
        "nf_kind": KINDS[arena.export_tree(nf_ref)[0]],
        "nodes_after_nf": len(arena),
        "size": formula_nodes(formula),
        "text": print_formula(formula),
    }
    if against is not None:
        row["boolean"] = semantics.boolean_equivalent(arena, against, ref)
    out.write(json.dumps(row, separators=(",", ":")) + "\n")
    verdict = {
        "in": label,
        "equivalent": None if partner is None else partner == code,
        "nf": rewrite.canonicalize(arena.export_tree(nf_ref)),
    }
    verdicts.write(json.dumps(verdict, separators=(",", ":")) + "\n")
    return ref, code


def record_parse(out, label: str, formula) -> None:
    arena = Arena()
    parsed = parse(print_formula(formula))
    row = {"in": label, "ref": to_internal(parsed, arena), "nodes": len(arena), "size": formula_nodes(parsed)}
    out.write(json.dumps(row, separators=(",", ":")) + "\n")


def record_text(out, label: str, text: str) -> None:
    try:
        row = {"in": label, "text": text, "parsed": print_formula(parse(text))}
    except ParseError as err:
        row = {"in": label, "text": text, "error": err.message, "span": list(err.span)}
    out.write(json.dumps(row, separators=(",", ":")) + "\n")


def random_texts():
    rng = random.Random(SEED)
    for _ in range(TEXTS):
        yield "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 12)))


def fresh(scheduling: bool) -> Session:
    return Session(Arena(), size_scheduling=scheduling)


def random_pairs():
    rng = random.Random(SEED)
    names = ["a", "b", "c", "d"]
    for _ in range(PAIRS):
        f = random_formula(rng, rng.randint(2, 40), names)
        yield f, disturbed(rng, f)


def main(path: str, verdicts_path: str) -> None:
    terms = enumerate_terms(7)
    pairs = list(random_pairs())
    with open(path, "w", encoding="utf-8") as out, open(verdicts_path, "w", encoding="utf-8") as verdicts:
        for scheduling in (True, False):
            tag = f"s{int(scheduling)}"
            for i, t in enumerate(terms):
                record(out, verdicts, f"{tag}/enum/fresh/{i}", fresh(scheduling), t)
            shared = fresh(scheduling)
            code = None
            for i, t in enumerate(terms):
                _, code = record(out, verdicts, f"{tag}/enum/shared/{i}", shared, t, partner=code)
            for i, (f, g) in enumerate(pairs):
                session = fresh(scheduling)
                ref_f, code_f = record(out, verdicts, f"{tag}/pair/fresh/{i}/f", session, f)
                record(out, verdicts, f"{tag}/pair/fresh/{i}/g", session, g, against=ref_f, partner=code_f)
            shared = fresh(scheduling)
            ref_g = code_g = None
            for i, (f, g) in enumerate(pairs):
                _, code_f = record(out, verdicts, f"{tag}/pair/shared/{i}/f", shared, f, against=ref_g, partner=code_g)
                ref_g, code_g = record(out, verdicts, f"{tag}/pair/shared/{i}/g", shared, g, partner=code_f)
            for family in FAMILIES:
                for e in range(4, 13):
                    f = gen_family(family, family_scale(family, 2**e))
                    record(out, verdicts, f"{tag}/{family}/{e}", fresh(scheduling), f)
        for i, t in enumerate(terms):
            record_parse(out, f"parse/enum/{i}", t)
        for i, (f, g) in enumerate(pairs):
            record_parse(out, f"parse/pair/{i}/f", f)
            record_parse(out, f"parse/pair/{i}/g", g)
        for family in FAMILIES:
            for e in range(4, 13):
                record_parse(out, f"parse/{family}/{e}", gen_family(family, family_scale(family, 2**e)))
        for i, text in enumerate(random_texts()):
            record_text(out, f"text/{i}", text)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} OUT VERDICTS")
    main(sys.argv[1], sys.argv[2])
