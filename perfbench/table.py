#!/usr/bin/env python3
"""Run every workload once and print its metrics, one row per workload.

    python3 perfbench/table.py --seed 1 --seconds 20 [--trace 1]

Each workload runs in its own `run.py` process, one after the other.
A cell is ``value [samples]``; the unit follows the metric name.  With
``--trace 1`` the table is transposed: one column per workload.  Exits
1 if any workload reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chains", "wide-joins", "batch", "cli")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    reports, ok = [], True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode not in (0, 1):
            print(done.stderr, file=sys.stderr)
            return 2
        ok &= done.returncode == 0
        path = ROOT / ".perfbench" / f"report-{workload}-seed{args.seed}-trace{args.trace}.json"
        reports.append(json.loads(path.read_text(encoding="utf-8")))
    names = list(reports[0]["metrics"])
    header = ["workload"] + [f"{n} ({reports[0]['metrics'][n]['unit']})" for n in names]
    header += ["wrong_verdicts (count)", "failed_frac (frac)"]
    rows = [header]
    for r in reports:
        cells = [r["workload"]]
        cells += [f"{r['metrics'][n]['value']:.6g} [{r['metrics'][n]['samples']}]" for n in names]
        cells += [f"{r['wrong_verdicts']} [{r['attempted']}]", f"{r['failed_frac']:.6g} [{r['attempted']}]"]
        rows.append(cells)
    if args.trace:  # 23 layer metrics read better as rows
        rows = [list(col) for col in zip(*rows)]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
