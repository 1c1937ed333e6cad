"""Spans, percentiles, log-log slopes and the machine-speed yardstick
for the benchmark.

A span is recorded around each layer call made from the benchmark's own
code: ``(id, parent, name, pair, shape, work, start_ns, end_ns)``.
`work` is the input size the call handled (characters for parsing and
printing, surface nodes otherwise).  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import gc
import math
import statistics
from collections import defaultdict
from time import perf_counter_ns


# The reference task's input: a join of 500 small formulas over about 1100
# distinct variables, fixed so the task's work never changes.
_REF_TEXT = " | ".join(f"!(v{i} & (w{i % 97} | !u{i * 31 % 5000}) & !t{i % 13})" for i in range(500))


def reference_task() -> int:
    """A miniature of the program's work, in plain Python: scan formula
    text character by character, intern every node in a fresh dict (a
    join by its sorted child tuple), then give each node a code through a
    memo of sorted child codes.  Returns the number of codes."""
    table: dict = {}
    stack: list[list[int]] = [[]]
    name = ""
    for ch in _REF_TEXT:
        if ch.isalnum():
            name += ch
            continue
        if name:
            stack[-1].append(table.setdefault(("v", name), len(table)))
            name = ""
        if ch == "(":
            stack.append([])
        elif ch == ")":
            kids = tuple(sorted(stack.pop()))
            stack[-1].append(table.setdefault(("j", kids), len(table)))
        elif ch == "!":
            stack[-1].append(-1)
    codes: dict = {}
    memo: dict = {}
    for key, ref in table.items():
        if key[0] == "v":
            codes[ref] = memo.setdefault(key, len(memo))
        else:
            codes[ref] = memo.setdefault(tuple(sorted({codes.get(k, -1) for k in key[1]})), len(memo))
    return len(memo)


def _scattered_reads(table: dict, keys: list) -> int:
    """The other reference task: dict lookups in an order that jumps
    across a table of about 6 MB, a few times the CPU's second-level
    cache."""
    seen = {}
    for k in keys:
        v = table[k]
        seen[(v[0] & 1023, k & 7)] = v
    return len(seen)


class Yardstick:
    """The machine's current speed, from two fixed tasks timed between ops.

    On a shared host the CPU runs up to twice as slow for seconds or
    minutes at a time, and a fixed task slows with it (see README,
    *Noise*).  So the benchmark times a reference about every `SLICE_NS`
    of ops and reports an op's time *at reference speed*: its measured
    time x `REF_NS` / the median of the four reference samples around it.
    In a fast phase of the 2-CPU machine it was tuned on the two agree.

    How much a slow phase slows code depends on the code: `reference_task`,
    which runs in the CPU cache, slowed more than the program did, and
    `_scattered_reads`, which waits on memory, slowed less.  The
    reference is the geometric mean of the two.
    """

    REF_NS = 4_000_000  # the reference in a fast phase of that machine
    SLICE_NS = 400_000_000
    TABLE_SIZE = 1 << 15

    def __init__(self):
        n = self.TABLE_SIZE
        self._table = {(i * 2654435761) % (1 << 32): (i, -i) for i in range(n)}
        # every 8th key of a stride coprime to n, each far from the previous one
        self._keys = [(i * 40503 % n * 2654435761) % (1 << 32) for i in range(0, n, 8)]
        for _ in range(3):  # let the interpreter specialise its bytecode
            reference_task()
            _scattered_reads(self._table, self._keys)
        self.refs: list[float] = []
        self._since = 0
        self.sample()

    def sample(self) -> None:
        """Time each task twice, alternating, and keep the geometric mean
        of their means."""
        enabled = gc.isenabled()
        gc.disable()
        compute = memory = 0
        for _ in range(2):
            start = perf_counter_ns()
            reference_task()
            middle = perf_counter_ns()
            _scattered_reads(self._table, self._keys)
            compute += middle - start
            memory += perf_counter_ns() - middle
        self.refs.append(math.sqrt(compute * memory) / 2)
        if enabled:
            gc.enable()
        self._since = 0

    def mark(self) -> int:
        """Index of the latest sample: an op timed now sits after it."""
        return len(self.refs) - 1

    def count(self, ns: int) -> None:
        """Account `ns` of ops; sample once a slice is full."""
        self._since += ns
        if self._since >= self.SLICE_NS:
            self.sample()

    def close(self) -> None:
        """Sample after the last op, so every op has a sample on each side."""
        if self._since:
            self.sample()

    def scaled(self, ns: int, mark: int) -> float:
        """`ns` measured after sample `mark`, at reference speed."""
        return ns * self.REF_NS / statistics.median(self.refs[max(0, mark - 1):mark + 3])


def untraced(name, shape, work, fn, *args):
    """Stand-in for `Tracer.__call__` when tracing is off."""
    return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.pair = -1
        self._parent = -1

    def __call__(self, name, shape, work, fn, *args):
        """fn(*args) inside a span; work None means len(result)."""
        sid = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, sid
        start = perf_counter_ns()
        try:
            out = fn(*args)
        finally:
            end = perf_counter_ns()
            self._parent = parent
        self.spans[sid] = (sid, parent, name, self.pair, shape, len(out) if work is None else work, start, end)
        return out

    def add(self, name, parent, shape, work, start, end) -> int:
        """Record a span measured elsewhere (e.g. inside a child process)."""
        sid = len(self.spans)
        self.spans.append((sid, parent, name, self.pair, shape, work, start, end))
        return sid

    def self_times(self) -> list:
        """(span, self ns): duration minus the time covered by child spans."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[1] >= 0:
                child_ns[s[1]] += s[7] - s[6]
        return [(s, s[7] - s[6] - child_ns[s[0]]) for s in self.spans]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,pair,shape,work,start_ns,end_ns\n")
            for s in self.spans:
                fh.write(",".join(map(str, s)) + "\n")


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile (0 < p <= 100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def beyond(values, p: float) -> int:
    """How many samples lie above the p-th percentile."""
    cut = percentile(values, p)
    return sum(v > cut for v in values)


def slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den


def worst_exponent(points) -> float | None:
    """Largest per-shape log-log slope of time against size.

    `points` are (shape, work, ns).  Each shape's points are grouped into
    quarter-octave size classes; a shape with at least three classes is
    fitted on the medians of its classes.  None when no shape qualifies.
    """
    by_shape = defaultdict(lambda: defaultdict(list))
    for shape, work, ns in points:
        by_shape[shape][round(4 * math.log2(max(1, work)))].append((work, max(1, ns)))
    best = None
    for classes in by_shape.values():
        if len(classes) < 3:
            continue
        xs = [statistics.median(w for w, _ in pts) for pts in classes.values()]
        ys = [statistics.median(t for _, t in pts) for pts in classes.values()]
        e = slope(xs, ys)
        best = e if best is None else max(best, e)
    return best
