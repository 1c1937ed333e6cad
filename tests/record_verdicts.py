"""Record the verdicts and canonical normal forms of a fixed set of inputs.

    PYTHONPATH=src:tests python3 tests/record_verdicts.py OUT

Runs the inputs of ``tests/record_codes.py`` (its parse section aside) and
writes one JSON line per input formula: the verdict against the row's
partner, if it has one, and `rewrite.canonicalize` of the exported normal
form.  A row's partner is the formula normalized just before it in the
same session: a pair's f for its g in a fresh session, the previous pair's
g for an f in the shared session, and the previous term for an
enumerated term in the shared session.  A row without one records null.

Codes, counters, refs and the order in which a normal form prints its
join children are left out, so a change to the fused pass that numbers
classes differently but decides and normalizes alike leaves the output
byte-identical::

    PYTHONPATH=<old checkout>/src:tests python3 tests/record_verdicts.py old.jsonl
    PYTHONPATH=src:tests python3 tests/record_verdicts.py new.jsonl
    cmp old.jsonl new.jsonl && sha256sum new.jsonl

CI runs it and checks the output against the digest in
``tests/record_verdicts.sha256``::

    PYTHONPATH=src:tests python tests/record_verdicts.py verdicts.jsonl
    sha256sum -c tests/record_verdicts.sha256

Update that file only in a change that alters verdicts or normal forms on
purpose, and say why in the change.  Not collected by pytest (the file
name does not start with ``test_``).
"""

from __future__ import annotations

import json
import sys

from ocbsl import Session, rewrite, to_internal
from record_codes import fresh, random_pairs
from ocbsl.bench import FAMILIES, family_scale, gen_family
from enum_terms import enumerate_terms


def record(out, label: str, session: Session, formula, partner: int | None = None) -> int:
    """Write formula's row; with `partner`, also whether the two are equivalent."""
    arena = session.arena
    ref = to_internal(formula, arena)
    code = session.normalize(ref)
    row = {
        "in": label,
        "equivalent": None if partner is None else session.normalize(partner) == code,
        "nf": rewrite.canonicalize(arena.export_tree(session.extract_normal_form(code))),
    }
    out.write(json.dumps(row, separators=(",", ":")) + "\n")
    return ref


def main(path: str) -> None:
    terms = enumerate_terms(7)
    pairs = list(random_pairs())
    with open(path, "w", encoding="utf-8") as out:
        for scheduling in (True, False):
            tag = f"s{int(scheduling)}"
            for i, t in enumerate(terms):
                record(out, f"{tag}/enum/fresh/{i}", fresh(scheduling), t)
            shared = fresh(scheduling)
            ref = None
            for i, t in enumerate(terms):
                ref = record(out, f"{tag}/enum/shared/{i}", shared, t, partner=ref)
            for i, (f, g) in enumerate(pairs):
                session = fresh(scheduling)
                ref_f = record(out, f"{tag}/pair/fresh/{i}/f", session, f)
                record(out, f"{tag}/pair/fresh/{i}/g", session, g, partner=ref_f)
            shared = fresh(scheduling)
            ref_g = None
            for i, (f, g) in enumerate(pairs):
                ref_f = record(out, f"{tag}/pair/shared/{i}/f", shared, f, partner=ref_g)
                ref_g = record(out, f"{tag}/pair/shared/{i}/g", shared, g, partner=ref_f)
            for family in FAMILIES:
                for e in range(4, 13):
                    f = gen_family(family, family_scale(family, 2**e))
                    record(out, f"{tag}/{family}/{e}", fresh(scheduling), f)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    main(sys.argv[1])
