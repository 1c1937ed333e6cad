"""Benchmark families and the scaling harness.

Five formula families stress the normalizer's cost profile:

* fig6 -- a right-nested disjunction chain ``x1 | (x2 | (... | x_{n+2}))``.
  Every join except the innermost has a nested join child, so an engine
  that codes each level and re-merges child lists does quadratic work.

* fig7 -- an alternating chain of negated joins where every other level
  carries a throwaway subterm ``z = !(v | !v)`` (a fresh v each time) that
  normalizes to 0.  Only once z is known to vanish does the nesting below
  become mergeable, so no static preprocessing helps; the smallest-first
  child schedule is what keeps it quasilinear.

* a9 -- one wide join of ``a_i`` and ``!(a_i | b_i)`` for i = 1..n.  Every
  negated child names a join class that A9 must test against the whole
  child list, yet A9 never fires because no ``b_i`` is present, so the
  join is irreducible.  A check that scans the child list once per
  negated child is quadratic.

* and-chain -- a right-nested conjunction chain ``x1 & (x2 & (... &
  x_{n+2}))``.  De Morgan interns ``a & B`` as ``!(!a | !B)``, so each
  nested conjunction is a join under a double negation: an engine that
  splices only bare joins codes each level and re-merges its members.

* neg-tower -- explicit double negations over conjunctions, ``H_0 = x0``
  and ``H_k = !!(x_k & H_{k-1})``: a tower of four negations over each
  nested join.

fig6 and fig7 normalize to the flat join of their x-variables, and-chain
and neg-tower to the conjunction of theirs; a9 normalizes to itself.

`run_bench` times the full pipeline (translate, intern, normalize) per
size and fits a slope to the log-log (size, median time) points; slope
near 1 means quasilinear, near 2 quadratic.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple

from .dag import Arena
from .normalize import Session, Stats
from .syntax import And, Formula, Not, Or, Var, formula_nodes, to_internal

__all__ = [
    "FAMILIES", "MAX_EXP", "gen_family", "family_scale", "BenchReport", "run_bench", "fit_exponent", "report_tsv"
]

FAMILIES = ("fig6", "fig7", "a9", "and-chain", "neg-tower")
MAX_EXP = 20  # largest size exponent `run_bench` takes: 2^20 nodes is desk scale


def gen_family(family: str, n: int) -> Formula:
    """Instance n of a benchmark family (n >= 1)."""
    if n < 1:
        raise ValueError("family scale must be >= 1")
    if family == "fig6":
        # x1 | (x2 | (... | (x_{n+1} | x_{n+2})))
        f: Formula = Or((Var(f"x{n + 1}"), Var(f"x{n + 2}")))
        for i in range(n, 0, -1):
            f = Or((Var(f"x{i}"), f))
        return f
    if family == "fig7":
        # x-level and z-level joins alternate through negations; each z is
        # a fresh !(v | !v), so nothing collapses until z is normalized.
        f = Or((Var(f"x{n + 1}"), Var(f"x{n + 2}")))
        for i in range(n, 0, -1):
            v = Var(f"v{i}")
            z = Not(Or((v, Not(v))))
            f = Or((Var(f"x{i}"), Not(Or((z, Not(f))))))
        return f
    if family == "a9":
        # a1 | !(a1 | b1) | ... | an | !(an | bn)
        kids: list[Formula] = []
        for i in range(1, n + 1):
            a = Var(f"a{i}")
            kids += [a, Not(Or((a, Var(f"b{i}"))))]
        return Or(tuple(kids))
    if family == "and-chain":
        # x1 & (x2 & (... & (x_{n+1} & x_{n+2})))
        f = And((Var(f"x{n + 1}"), Var(f"x{n + 2}")))
        for i in range(n, 0, -1):
            f = And((Var(f"x{i}"), f))
        return f
    if family == "neg-tower":
        # H_n = !!(x_n & !!(x_{n-1} & ... !!(x1 & x0)))
        f = Var("x0")
        for i in range(1, n + 1):
            f = Not(Not(And((Var(f"x{i}"), f))))
        return f
    raise ValueError(f"unknown family {family!r}")


def family_scale(family: str, target_nodes: int) -> int:
    """Scale n whose instance has roughly target_nodes surface nodes.

    Every family's node count is affine in n (fig6 and and-chain 2n + 3,
    fig7 10n + 3, a9 5n + 1, neg-tower 4n + 1), so instances 1 and 2 give
    the slope and the intercept.
    """
    one = formula_nodes(gen_family(family, 1))
    two = formula_nodes(gen_family(family, 2))
    return max(1, (target_nodes - (2 * one - two)) // (two - one))


# `sizes` are surface node counts, strictly increasing; `times_ns` the
# median wall-clock per size; `stats` the session counters of the last
# repetition per size.
BenchReport = namedtuple("BenchReport", "family sizes times_ns stats fitted_exponent")


def fit_exponent(sizes: list[int], times_ns: list[int]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    import statistics  # only `bench` needs it; kept off the start-up path of every command

    if len(sizes) < 2:
        raise ValueError("need at least two points to fit a slope")
    return statistics.linear_regression(list(map(math.log, sizes)), list(map(math.log, times_ns))).slope


def run_bench(
    family: str,
    exponents: range | list[int],
    reps: int = 5,
    size_scheduling: bool = True,
) -> BenchReport:
    """Time `to_internal` plus `normalize` of family instances sized near 2**e.

    Each size is timed `reps` times on fresh arenas; the median damps
    allocator noise.  Formula construction is not timed.
    """
    import statistics  # only `bench` needs it; kept off the start-up path of every command

    if reps < 1:
        raise ValueError("reps must be >= 1")
    exponents = list(exponents)
    if len(exponents) < 5:
        raise ValueError("need at least five sizes for a meaningful fit")
    if max(exponents) > MAX_EXP:
        raise ValueError(f"exponent {max(exponents)} exceeds the cap of {MAX_EXP}")
    sizes: list[int] = []
    medians: list[int] = []
    stats: list[Stats] = []
    for e in exponents:
        f = gen_family(family, family_scale(family, 2**e))
        size = formula_nodes(f)
        if size in sizes:  # family_scale floors small targets at scale 1
            raise ValueError(f"exponent {e} repeats size {size}; start from a larger exponent")
        sizes.append(size)
        laps = []
        session = None
        for _ in range(reps):
            arena = Arena()
            session = Session(arena, size_scheduling=size_scheduling)
            start = time.perf_counter_ns()
            session.normalize(to_internal(f, arena))
            laps.append(time.perf_counter_ns() - start)
        medians.append(int(statistics.median(laps)))
        stats.append(session.stats)
    return BenchReport(
        family=family,
        sizes=sizes,
        times_ns=medians,
        stats=stats,
        fitted_exponent=fit_exponent(sizes, medians),
    )


def report_tsv(report: BenchReport) -> str:
    """Line-oriented machine form: size, nanoseconds, codes allocated."""
    lines = [f"# family={report.family}"]
    for size, nanos, st in zip(report.sizes, report.times_ns, report.stats):
        lines.append(f"{size}\t{nanos}\t{st.codes_allocated}")
    lines.append(f"# fitted_exponent={report.fitted_exponent:.4f}")
    return "\n".join(lines) + "\n"
