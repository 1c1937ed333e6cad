"""Measure the quasilinear claim and the pitfalls it avoids.

Run:  python3 demos/scaling.py        (about 5 seconds on 2 CPUs)
"""

import time

from ocbsl import Arena, Session
from ocbsl.bench import run_bench

print("Right-nested chains (fig6) and zero-revealed chains (fig7) both fit")
print("a log-log slope near 1 with smallest-first child scheduling:")
for family in ("fig6", "fig7"):
    report = run_bench(family, range(8, 15), reps=3)
    pts = ", ".join(f"{s}:{t / 1e6:.1f}ms" for s, t in zip(report.sizes, report.times_ns))
    print(f"  {family}: slope {report.fitted_exponent:.2f}   [{pts}]")

print()
print("Processing children in stored order instead codes one growing class")
print("per revealed level on fig7 and the slope heads toward 2:")
report = run_bench("fig7", range(10, 16), reps=3, size_scheduling=False)
print(f"  fig7 unscheduled: slope {report.fitted_exponent:.2f}")

print()
print("Structure sharing: a doubling chain 60 levels deep stands for a tree")
print("of more than 2**60 nodes, yet normalizes through the 61-node DAG:")
arena = Arena()
session = Session(arena)
t = arena.var("a")
for _ in range(60):
    t = arena.join((t, t))
start = time.perf_counter()
code = session.normalize(t)
elapsed = time.perf_counter() - start
print(f"  expanded tree {arena.tree_size(t):.3e} nodes, arena {len(arena)} nodes")
print(f"  normalized to code {code} in {elapsed * 1000:.2f} ms "
      f"({session.stats.codes_allocated} code pair allocated)")
