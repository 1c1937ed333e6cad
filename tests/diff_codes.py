"""Compare two OUT files of `record_codes.py`, row by row.

    python3 tests/diff_codes.py OLD NEW

Prints how many rows differ in each field, and for each `stats` counter
how many rows rose and how many fell from OLD to NEW.  Both files must
come from the same inputs, so that row i of one is row i of the other.
"""

import collections
import itertools
import json
import sys


def main(old_path: str, new_path: str) -> None:
    differ, rose, fell = collections.Counter(), collections.Counter(), collections.Counter()
    i = 0
    with open(old_path) as old, open(new_path) as new:
        for i, (a, b) in enumerate(itertools.zip_longest(old, new), 1):
            if a is None or b is None:
                sys.exit(f"row {i}: only {old_path if b is None else new_path} has it")
            a, b = json.loads(a), json.loads(b)
            differ.update(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            for name, was in a.get("stats", {}).items():
                rose[name] += b["stats"][name] > was
                fell[name] += b["stats"][name] < was
    print(f"{i} rows")
    for field, count in sorted(differ.items()):
        print(f"{field}: {count} rows differ")
    for name in rose:
        print(f"stats.{name}: {rose[name]} rose, {fell[name]} fell")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 tests/diff_codes.py OLD NEW")
    main(*sys.argv[1:])
