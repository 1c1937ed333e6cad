"""Record what the rewrite oracle does on a fixed set of terms.

    PYTHONPATH=src:tests python3 tests/record_oracle.py OUT

Writes one JSON line per input term: the term, and for each strategy
(leftmost-innermost, then rightmost-outermost) its normal form, each
step's rule, position and `after` term, and the `RewriteBudgetError`
message at budgets 0, 1 and 2 (null where the budget suffices).  Only the
public `ocbsl.rewrite` API is used, so the same file runs against another
checkout of the package, and a change to the oracle that keeps its normal
forms, traces and budget errors leaves the output byte-identical::

    PYTHONPATH=<old checkout>/src:tests python3 tests/record_oracle.py old.jsonl
    PYTHONPATH=src:tests python3 tests/record_oracle.py new.jsonl
    cmp old.jsonl new.jsonl && sha256sum new.jsonl

CI runs it on every Python version it tests and checks the output
against the digest in ``tests/record_oracle.sha256``::

    PYTHONPATH=src:tests python tests/record_oracle.py oracle.jsonl
    sha256sum -c tests/record_oracle.sha256

Update that file only in a change that alters the oracle's normal forms,
traces or budget errors on purpose, and say why in the change.

Inputs: every `enumerate_terms(7)` term, then 2,000 `gen.random_term`
terms of 8-24 nodes over a, b and c (seed 5).  Terms are JSON arrays in
the tuple shape of `ocbsl.rewrite`.  Not collected by pytest (the file
name does not start with ``test_``).
"""

from __future__ import annotations

import json
import random
import sys

from ocbsl.rewrite import RewriteBudgetError, trace_normal_form
from enum_terms import enumerate_terms
from gen import random_term

RANDOM_TERMS = 2_000
SEED = 5
STRATEGIES = ("leftmost-innermost", "rightmost-outermost")


def row(term) -> dict:
    out = {"term": term}
    for strategy in STRATEGIES:
        nf, steps = trace_normal_form(term, strategy=strategy)
        errors = []
        for budget in range(3):
            try:
                trace_normal_form(term, budget, strategy)
            except RewriteBudgetError as e:
                errors.append(str(e))
            else:
                errors.append(None)
        out[strategy] = {
            "nf": nf,
            "steps": [[s.rule, s.position, s.after] for s in steps],
            "budget_errors": errors,
        }
    return out


def main(path: str) -> None:
    rng = random.Random(SEED)
    terms = enumerate_terms(7)
    terms += [random_term(rng, rng.randint(8, 24), "abc") for _ in range(RANDOM_TERMS)]
    with open(path, "w") as out:
        for term in terms:
            out.write(json.dumps(row(term)) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    main(sys.argv[1])
