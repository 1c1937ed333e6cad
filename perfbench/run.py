#!/usr/bin/env python3
"""Text-to-verdict benchmark of ocbsl.

    python3 perfbench/run.py --workload chains --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (see `workloads`), runs
them in whole rotations for about --seconds, checks every verdict and
normal form against its known answer, and prints one JSON object as the
last line of stdout.  Times are reported at reference speed (see
`measure.Yardstick`), so that the host's slow phases do not show as
changes of the program.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (untraced and traced
rotations alternate, so the tracing overhead is measured too).  A
human-readable report goes to stderr and, with the spans of a traced
run, to ``.perfbench/`` under the repository root.

The program under test is imported from ``src/`` next to this
directory, never from an installed copy; without it the command exits 2.
Exit status is 1 when any verdict, exit code, normal form or
deterministic count is wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from measure import Tracer, Yardstick, beyond, percentile, untraced, worst_exponent

ocbsl = workloads = None  # imported by import_program() once src/ is on the path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("chains", "wide-joins", "batch", "cli")
# Highest round percentile with at least ten samples beyond it at the
# fewest rotations a 20 s run makes on a 2-CPU machine (see README).
TAIL_PERCENTILE = {"chains": 60, "wide-joins": 75, "batch": 99, "cli": 75}
SETUP_REPS = 3
# String hashing is salted per process unless PYTHONHASHSEED is set, and
# the salt moves the program's dict layouts and with them its speed: the
# same chains run took 10% longer under one salt than under another.  The
# benchmark fixes it, so that runs differ only in their inputs.
HASH_SEED = "0"
CHILD_TIMEOUT_S = 120

# Runs `ocbsl.cli.main` like `python -m ocbsl` does and reports when the
# import and the command started and ended, on the shared monotonic clock.
INSTRUMENTED_CHILD = """\
import contextlib, io, json, sys, time
t0 = time.perf_counter_ns()
import ocbsl.cli
t1 = time.perf_counter_ns()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = ocbsl.cli.main(sys.argv[1:])
t2 = time.perf_counter_ns()
print(json.dumps([rc, out.getvalue(), t0, t1, t2]))
"""


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(yard: Yardstick):
    """Import ocbsl from this checkout's src/, and the input generator
    with the oracles; returns the import seconds at reference speed."""
    global ocbsl, workloads
    if not (SRC / "ocbsl" / "__init__.py").is_file():
        die(f"no program to measure: {SRC / 'ocbsl'} is missing")
    sys.path.insert(1, str(SRC))
    mark = yard.mark()
    start = perf_counter_ns()
    import ocbsl
    import workloads

    seconds = yard.scaled(perf_counter_ns() - start, mark) / 1e9
    yard.sample()
    if Path(ocbsl.__file__).resolve().parent != SRC / "ocbsl":
        die(f"imported ocbsl from {ocbsl.__file__}, not from {SRC}")
    return seconds


def fingerprint() -> str:
    """Hash of the program and benchmark sources: the key under which
    deterministic counts must repeat."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("ocbsl/*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# One operation of each kind.  `span` is a Tracer or `untraced`.


def verdict(p, arena, session, span):
    lhs = span("syntax.parse", p.lhs_shape, len(p.lhs), ocbsl.parse, p.lhs)
    rhs = span("syntax.parse", p.rhs_shape, len(p.rhs), ocbsl.parse, p.rhs)
    lref = span("syntax.to_internal", p.lhs_shape, p.lhs_nodes, ocbsl.to_internal, lhs, arena)
    rref = span("syntax.to_internal", p.rhs_shape, p.rhs_nodes, ocbsl.to_internal, rhs, arena)
    lcode = span("normalize", p.lhs_shape, p.lhs_nodes, session.normalize, lref)
    rcode = span("normalize", p.rhs_shape, p.rhs_nodes, session.normalize, rref)
    return lcode == rcode


def normal_form(nf, span):
    f = span("syntax.parse", nf.shape, len(nf.text), ocbsl.parse, nf.text)
    arena = ocbsl.Arena()
    session = ocbsl.Session(arena)
    ref = span("syntax.to_internal", nf.shape, nf.nodes, ocbsl.to_internal, f, arena)
    code = span("normalize", nf.shape, nf.nodes, session.normalize, ref)
    term = span("normalize.extract", nf.shape, nf.nodes, session.extract_normal_form, code)
    return span("dag.print_term", nf.shape, None, ocbsl.print_term, arena, term)


def run_child(argv: list[str]):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter_ns()
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    return done, start, perf_counter_ns()


def cli_op(args: list[str], instrumented: bool, tracer, shape: str, work: int):
    """(exit code, stdout, wall ns) of one `ocbsl` process."""
    if not instrumented:
        done, start, end = run_child([sys.executable, "-m", "ocbsl", *args])
        return done.returncode, done.stdout, end - start
    done, start, end = run_child([sys.executable, "-c", INSTRUMENTED_CHILD, *args])
    if done.returncode != 0:
        raise RuntimeError(f"instrumented child failed: {done.stderr.strip()}")
    rc, out, t0, t1, t2 = json.loads(done.stdout)
    root = tracer.add("cli.process", -1, shape, work, start, end)
    tracer.add("cli.import", root, shape, work, t0, t1)
    tracer.add("cli.main", root, shape, work, t1, t2)
    return rc, out, end - start


# --------------------------------------------------------------------------
# Rotations


def interleaved(inputs) -> list[tuple[bool, int]]:
    """(is a pair, index) of each op of a rotation, with the normal forms
    spread evenly among the pairs, so both kinds sample the whole run."""
    order = [(True, i) for i in range(len(inputs.pairs))]
    n = len(inputs.normal_forms)
    for j in reversed(range(n)):
        order.insert((j + 1) * len(inputs.pairs) // (n + 1), (False, j))
    return order


class Samples:
    """Op nanoseconds with the yardstick mark of each, in compact arrays: a
    `batch` run holds about 60k, and as a list of tuples they would add
    megabytes to the peak memory the run reports."""

    def __init__(self):
        self.ns = array("q")
        self.marks = array("q")

    def add(self, ns: int, mark: int) -> None:
        self.ns.append(ns)
        self.marks.append(mark)

    def __len__(self) -> int:
        return len(self.ns)

    def scaled(self, yard: Yardstick) -> list[float]:
        return [yard.scaled(ns, mark) for ns, mark in zip(self.ns, self.marks)]


class Run:
    """Samples, failures and counts of one benchmark run."""

    def __init__(self, workload: str, inputs, yard: Yardstick):
        self.workload = workload
        self.inputs = inputs
        self.yard = yard
        self.verdict_ns = Samples()
        self.verdict_nodes = array("q")
        self.nf_ns = Samples()
        self.attempted = 0
        self.wrong = 0
        self.counts: list[dict] = []  # one per in-process rotation

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.wrong += 1
            if self.wrong <= 5:
                print(f"wrong: {self.workload}: {what}", file=sys.stderr)

    def guarded(self, what: str, fn, *args):
        try:
            return fn(*args)
        except Exception:  # a crash counts as a wrong answer, the run goes on
            self.attempted += 1
            self.wrong += 1
            print(f"exception: {self.workload}: {what}\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def in_process(self, span, shared: bool, samples: bool = True) -> int:
        """One rotation through the library; returns its op nanoseconds.
        With samples False only answers and counts are recorded."""
        total = 0
        counts: dict = {"arena_nodes": 0, "surface_nodes": 0}
        arena = session = None
        sessions = []
        for is_pair, i in interleaved(self.inputs):
            if isinstance(span, Tracer):
                span.pair = i if is_pair else len(self.inputs.pairs) + i
            if not shared or arena is None:
                gc.collect()  # every session starts from the same collector state
            if not is_pair:
                total += self.normal_form(i, span, samples)
                continue
            p = self.inputs.pairs[i]
            if not shared or arena is None:
                arena = ocbsl.Arena()
                session = ocbsl.Session(arena)
                sessions.append((arena, session))
            mark = self.yard.mark()
            start = perf_counter_ns()
            same = self.guarded(f"pair {i}", span, "verdict", p.lhs_shape, p.lhs_nodes + p.rhs_nodes, verdict, p, arena, session, span)
            ns = perf_counter_ns() - start
            self.yard.count(ns)
            if same is None:
                continue
            total += ns
            if samples:
                self.verdict_ns.add(ns, mark)
                self.verdict_nodes.append(p.lhs_nodes + p.rhs_nodes)
            counts["surface_nodes"] += p.lhs_nodes + p.rhs_nodes
            self.record(same == p.equivalent, f"pair {i} ({p.kind}): got equivalent={same}")
        for arena, session in sessions:
            counts["arena_nodes"] += len(arena)
            for name, value in vars(session.stats).items():
                counts[name] = counts.get(name, 0) + value
        self.counts.append(counts)
        return total

    def normal_form(self, j: int, span, samples: bool) -> int:
        nf = self.inputs.normal_forms[j]
        mark = self.yard.mark()
        start = perf_counter_ns()
        printed = self.guarded(f"normal form {j}", span, "normal_form", nf.shape, nf.nodes, normal_form, nf, span)
        ns = perf_counter_ns() - start
        self.yard.count(ns)
        if printed is None:
            return 0
        if samples:
            self.nf_ns.add(ns, mark)
        self.record(workloads.normal_form_matches(printed, nf), f"normal form {j} ({nf.shape}): {printed[:80]!r}")
        return ns

    def processes(self, tracer, instrumented: bool) -> int:
        """One rotation of `ocbsl check` / `ocbsl normalize` processes."""
        total = 0
        for is_pair, i in interleaved(self.inputs):
            if tracer is not None:
                tracer.pair = i if is_pair else len(self.inputs.pairs) + i
            if is_pair:
                p = self.inputs.pairs[i]
                mark = self.yard.mark()
                got = self.guarded(f"cli pair {i}", cli_op, ["check", p.lhs, p.rhs], instrumented, tracer, "pool", p.lhs_nodes + p.rhs_nodes)
                if got is None:
                    continue
                rc, out, ns = got
                self.yard.count(ns)
                self.verdict_ns.add(ns, mark)
                self.verdict_nodes.append(p.lhs_nodes + p.rhs_nodes)
                want = (0, "equivalent\n") if p.equivalent else (1, "not-equivalent\n")
                self.record((rc, out) == want, f"cli pair {i} ({p.kind}): exit {rc}, output {out!r}")
            else:
                nf = self.inputs.normal_forms[i]
                mark = self.yard.mark()
                got = self.guarded(f"cli normal form {i}", cli_op, ["normalize", nf.text], instrumented, tracer, "pool", nf.nodes)
                if got is None:
                    continue
                rc, out, ns = got
                self.yard.count(ns)
                self.nf_ns.add(ns, mark)
                self.record(rc == 0 and workloads.normal_form_matches(out.strip(), nf), f"cli normal form {i}: exit {rc}, {out!r}")
            total += ns
        return total

    def rotation(self, tracer) -> int:
        """One rotation, traced when a tracer is given."""
        if self.workload == "cli":
            total = self.processes(tracer, tracer is not None)
            if tracer is not None:  # layer spans of the same pairs, in-process
                self.in_process(tracer, shared=False, samples=False)
            return total
        return self.in_process(tracer or untraced, shared=self.workload == "batch")


def rotate(run: Run, seconds: float, trace: bool) -> tuple[list[int], list[int], Tracer | None]:
    """Whole rotations for about `seconds`: another one starts while at
    least half of it is expected to fit, and an untraced run makes at
    least two, so its counts can be compared.  A traced run follows each
    rotation with a traced one.  Returns the op nanoseconds of each."""
    tracer = Tracer() if trace else None
    plain, traced = [], []
    start = last = perf_counter_ns()
    while True:
        plain.append(run.rotation(None))
        if trace:
            traced.append(run.rotation(tracer))
        now = perf_counter_ns()
        if len(plain) >= (1 if trace else 2) and now + (now - last) / 2 - start > seconds * 1e9:
            break
        last = now
    run.yard.close()
    return plain, traced, tracer


# --------------------------------------------------------------------------
# Set-up


def warm_up(workload: str, inputs) -> None:
    """Untimed first use: byte-compiles the program for the CLI and warms
    the allocator on the smallest input."""
    p = min(inputs.pairs, key=lambda q: q.lhs_nodes + q.rhs_nodes)
    if workload == "cli":
        run_child([sys.executable, "-m", "ocbsl", "check", p.lhs, p.rhs])
        return
    arena = ocbsl.Arena()
    verdict(p, arena, ocbsl.Session(arena), untraced)


def setup(workload: str, seed: int, import_s: float, yard: Yardstick):
    """Inputs, and the median set-up seconds at reference speed."""
    times, first = [], None
    for _ in range(SETUP_REPS):
        mark = yard.mark()
        start = perf_counter_ns()
        inputs = workloads.WORKLOADS[workload](seed)
        warm_up(workload, inputs)
        times.append(import_s + yard.scaled(perf_counter_ns() - start, mark) / 1e9)
        yard.sample()
        if first is not None and inputs != first:
            die(f"inputs of {workload} seed {seed} differ between two generations")
        first = inputs
    return first, statistics.median(times)


# --------------------------------------------------------------------------
# Metrics


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, workload: str, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """Metrics, plus sample counts for the report."""
    pct = TAIL_PERCENTILE[workload]
    v = run.verdict_ns.scaled(run.yard)
    nf = run.nf_ns.scaled(run.yard)
    rates = [n / (ns / 1e9) for n, ns in zip(run.verdict_nodes, v)]
    metrics = {
        "verdict_ms_p50": metric(statistics.median(v) / 1e6, "ms"),
        "verdict_ms_tail": metric(percentile(v, pct) / 1e6, "ms"),
        "nodes_per_s": metric(statistics.median(rates), "node/s"),
        "pairs_per_s": metric(len(v) / (sum(v) / 1e9), "pair/s"),
        "normal_form_ms_p50": metric(statistics.median(nf) / 1e6, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    samples = {name: len(v) for name in ("verdict_ms_p50", "verdict_ms_tail", "nodes_per_s", "pairs_per_s")}
    samples.update(normal_form_ms_p50=len(nf), peak_rss_mb=1, setup_s=SETUP_REPS)
    samples["verdict_ms_tail"] = f"{len(v)} (p{pct}, {beyond(v, pct)} beyond)"
    return metrics, samples


RULE_COUNTS = ("nodes_visited", "codes_allocated", "a2_flattens", "a2b_collapses", "a3_dedups", "a7_hits", "a9_hits")


def per_layer(run: Run, tracer: Tracer, plain: list[int], traced: list[int]) -> tuple[dict, dict]:
    """Metrics of the traced rotations, plus how many spans (or counted
    rotations) each rests on."""
    by_name = defaultdict(list)
    parent_name = {}
    for s, ns in tracer.self_times():
        by_name[s[2]].append((s, ns))
        parent_name[s[0]] = s[2]
    verdict_ns = sum(s[7] - s[6] for s, _ in by_name["verdict"])
    out, samples = {}, {}

    def put(name, value, unit, n):
        out[name] = metric(value, unit)
        samples[name] = n

    for layer, unit in (("syntax.parse", "char"), ("syntax.to_internal", "node"), ("normalize", "node"),
                        ("normalize.extract", "node"), ("dag.print_term", "char")):
        rows = by_name[layer]
        put(f"{layer}.ns_per_{unit}", sum(ns for _, ns in rows) / sum(s[5] for s, _ in rows), f"ns/{unit}", len(rows))
        if layer in ("syntax.parse", "syntax.to_internal", "normalize"):
            in_verdict = [ns for s, ns in rows if parent_name.get(s[1]) == "verdict"]
            put(f"{layer}.share", sum(in_verdict) / verdict_ns, "frac", len(in_verdict))
        if layer in ("syntax.parse", "normalize"):
            e = worst_exponent([(s[4], s[5], ns) for s, ns in rows])
            if e is None:
                raise RuntimeError(f"too few sizes to fit an exponent for {layer}")
            put(f"{layer}.exponent", e, "slope", len(rows))
    counts, rotations = run.counts[0], len(run.counts)
    put("dag.arena_nodes_per_node", counts["arena_nodes"] / counts["surface_nodes"], "node/node", rotations)
    for name in RULE_COUNTS:
        put(f"normalize.{name}", counts[name], "count", rotations)
    hits = counts["memo_hits"]
    put("normalize.memo_hit_ratio", hits / (hits + counts["nodes_visited"]), "frac", rotations)
    # a process span's self time is interpreter start-up and exit
    for part, name in (("interpreter", "cli.process"), ("import", "cli.import"), ("main", "cli.main")):
        rows = by_name[name]
        put(f"cli.{part}_ms", statistics.median(ns for _, ns in rows) / 1e6, "ms", len(rows))
    put("trace.overhead_frac", sum(traced) / sum(plain) - 1, "frac", len(traced))
    return out, samples


def cli_probe(seed: int, tracer: Tracer) -> None:
    """Instrumented `ocbsl check` processes on the cli workload's pairs, so
    the cli.* layer metrics exist on every workload."""
    for i, p in enumerate(workloads.cli(seed).pairs):
        tracer.pair = -1 - i
        cli_op(["check", p.lhs, p.rhs], True, tracer, "pool", p.lhs_nodes + p.rhs_nodes)


# --------------------------------------------------------------------------


def check_counts(run: Run, path: Path, key: str) -> bool:
    """Counts must repeat between rotations and between runs of one source."""
    same = all(c == run.counts[0] for c in run.counts)
    if not same:
        print("wrong: deterministic counts differ between rotations", file=sys.stderr)
    if path.is_file():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier.get("key") == key and earlier.get("counts") != run.counts[0]:
            print(f"wrong: deterministic counts differ from the earlier run in {path}", file=sys.stderr)
            same = False
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:  # the same process, salted as intended
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])

    yard = Yardstick()
    import_s = import_program(yard)
    inputs, setup_s = setup(args.workload, args.seed, import_s, yard)
    run = Run(args.workload, inputs, yard)
    plain, traced, tracer = rotate(run, args.seconds, bool(args.trace))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # before the samples are summarised
    if args.workload == "cli":  # counts of the same pairs through the library
        run.counts.clear()
        run.in_process(untraced, shared=False, samples=False)
        run.in_process(untraced, shared=False, samples=False)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    key = f"{fingerprint()}:{args.workload}:{args.seed}"
    counts_ok = check_counts(run, OUT / f"counts-{stem}.json", key)
    (OUT / f"counts-{stem}.json").write_text(json.dumps({"key": key, "counts": run.counts[0]}, indent=1), encoding="utf-8")

    if args.trace:
        if args.workload != "cli":
            cli_probe(args.seed, tracer)
        metrics, samples = per_layer(run, tracer, plain, traced)
        tracer.write(OUT / f"spans-{stem}.csv")
    else:
        metrics, samples = end_to_end(run, args.workload, setup_s, peak_rss_mb)

    correct = run.wrong == 0 and counts_ok
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": os.environ["PYTHONHASHSEED"],
        "wrong_verdicts": run.wrong,
        "failed_frac": run.wrong / max(1, run.attempted),
        "attempted": run.attempted,
        "metrics": {k: dict(v, samples=samples[k]) for k, v in metrics.items()},
        "counts": run.counts[0],
        "reference_ms": {"samples": len(yard.refs), "median": statistics.median(yard.refs) / 1e6,
                         "min": min(yard.refs) / 1e6, "max": max(yard.refs) / 1e6},
        # as measured, before scaling to reference speed
        "unscaled_ms_p50": {"verdict": statistics.median(run.verdict_ns.ns) / 1e6 if run.verdict_ns else None,
                            "normal_form": statistics.median(run.nf_ns.ns) / 1e6 if run.nf_ns else None},
    }
    (OUT / f"report-{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    for name, m in metrics.items():
        print(f"{args.workload:<11} {name:<32} {m['value']:>14.6g} {m['unit']:<9} n={samples[name]}", file=sys.stderr)
    print(f"{args.workload:<11} {'wrong_verdicts':<32} {run.wrong:>14} count     n={run.attempted}", file=sys.stderr)
    print(f"{args.workload:<11} {'failed_frac':<32} {report['failed_frac']:>14.6g} frac      n={run.attempted}", file=sys.stderr)
    ref = report["reference_ms"]
    print(f"{args.workload:<11} {'reference ms (median/min/max)':<32} {ref['median']:.3f}/{ref['min']:.3f}/{ref['max']:.3f}"
          f" n={ref['samples']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.wrong, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
