"""Seeded inputs with known answers for the four benchmark workloads.

Everything here is the benchmark's own: formulas are built as small
surface trees (or, for the deep chains, directly as text) from
``random.Random(seed)``, and labelled without the code under test.

* equivalent pairs are made by applying laws of the rule table and de
  Morgan's law, so they are equivalent by construction;
* Boolean-different pairs are confirmed with `semantics.boolean_equivalent`;
* distributivity/absorption pairs are kept only when
  `rewrite.oracle_equivalent` says they are not equivalent (the pool can
  make a side collapse by the other laws).

Normal forms are checked against an expected internal term, compared
modulo the order of join children with `rewrite.canonicalize`.

Sizes are fixed per workload and do not depend on the seed, so every
seed costs about the same; the seed picks names, orders, which child is
dropped and the random pool.

Surface trees are tuples: ``("v", name)``, ``("c", 0 | 1)``,
``("!", x)``, ``("&", kids)``, ``("|", kids)``.  Internal terms use the
plain-tuple shape of `ocbsl.rewrite`.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from ocbsl import rewrite, semantics
from ocbsl.dag import Arena

# Size ladders (surface nodes of the primary formula).  Fixed so that a
# seed changes what is checked, not how much work it is.
# chains: (family, surface nodes).  Seven instances, so the median pair
# is the middle instance rather than the seam between two.
CHAINS = tuple(("fig6", 2**e) for e in (14, 14.5, 15)) + tuple(("fig7", 2**e) for e in (13.5, 14, 14.5, 15))
A9_SIZES = (2500, 4000, 6300)
WIDE_SIZES = (10000, 14000, 20000)
BATCH_PAIRS = 1200  # pairs per batch pass, a third of each kind
BATCH_NORMAL_FORMS = 120
CLI_PAIRS = 8
CLI_NORMAL_FORMS = 4


@dataclass(frozen=True)
class Pair:
    kind: str  # how it was built: eq, neq, booldiff, distrib, ...
    lhs: str
    rhs: str
    lhs_nodes: int
    rhs_nodes: int
    lhs_shape: str
    rhs_shape: str
    equivalent: bool  # the known answer


@dataclass(frozen=True)
class NormalForm:
    text: str
    nodes: int
    shape: str
    expected: tuple  # canonical internal term (`rewrite.canonicalize`)


@dataclass(frozen=True)
class Inputs:
    """One rotation: the ops a run repeats until its time is up."""

    pairs: tuple[Pair, ...]
    normal_forms: tuple[NormalForm, ...]


# --------------------------------------------------------------------------
# Surface trees


def text(f) -> str:
    """Surface text; every composite operand of an operator is parenthesised."""
    head = f[0]
    if head == "v":
        return f[1]
    if head == "c":
        return str(f[1])
    if head == "!":
        inner = text(f[1])
        return "!" + (f"({inner})" if f[1][0] in "&|" else inner)
    sep = " & " if head == "&" else " | "
    return sep.join(f"({text(k)})" if k[0] in "&|" else text(k) for k in f[1])


def nodes(f) -> int:
    head = f[0]
    if head in "vc":
        return 1
    if head == "!":
        return 1 + nodes(f[1])
    return 1 + sum(nodes(k) for k in f[1])


def internal(f):
    """The `rewrite` tuple of f, conjunctions removed by de Morgan."""
    head = f[0]
    if head == "v":
        return ("var", f[1])
    if head == "c":
        return ("1",) if f[1] else ("0",)
    if head == "!":
        return ("not", internal(f[1]))
    kids = tuple(internal(k) for k in f[1])
    if head == "|":
        return ("or", kids)
    return ("not", ("or", tuple(("not", k) for k in kids)))


def V(name):
    return ("v", name)


def NOT(x):
    return ("!", x)


def AND(*kids):
    return ("&", tuple(kids))


def OR(*kids):
    return ("|", tuple(kids))


# --------------------------------------------------------------------------
# Printed internal terms, for checking normal forms

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([01])|(.))")


def parse_internal(src: str):
    """`rewrite` tuple of a `print_term` output (n-ary `|`, prefix `!`)."""
    toks = [m.groups() for m in _TOKEN.finditer(src) if m.group(0).strip()]
    pos = 0

    def atom():
        nonlocal pos
        name, const, punct = toks[pos]
        pos += 1
        if name:
            return ("var", name)
        if const:
            return (const,)
        if punct == "!":
            return ("not", atom())
        if punct == "(":
            t = join()
            if toks[pos][2] != ")":
                raise ValueError("expected ')'")
            pos += 1
            return t
        raise ValueError(f"unexpected {punct!r}")

    def join():
        nonlocal pos
        kids = [atom()]
        while pos < len(toks) and toks[pos][2] == "|":
            pos += 1
            kids.append(atom())
        return kids[0] if len(kids) == 1 else ("or", tuple(kids))

    t = join()
    if pos != len(toks):
        raise ValueError("trailing input")
    return t


def normal_form_matches(printed: str, nf: NormalForm) -> bool:
    try:
        return rewrite.canonicalize(parse_internal(printed)) == nf.expected
    except (ValueError, IndexError):
        return False


# --------------------------------------------------------------------------
# chains: fig6/fig7-shaped formulas against their flat join


def _chain_text(family: str, xs: list[str], vs: list[str]) -> str:
    n = len(xs) - 2
    tail = f"{xs[n]} | {xs[n + 1]}"
    if family == "fig6":  # x1 | (x2 | (... | (x_{n+1} | x_{n+2})))
        return "".join(f"{xs[i]} | (" for i in range(n)) + tail + ")" * n
    # fig7: x_i | !(z_i | !(rest)) with the vanishing z_i = !(v_i | !v_i)
    return "".join(f"{xs[i]} | !(!({vs[i]} | !{vs[i]}) | !(" for i in range(n)) + tail + "))" * n


def chain_shape(rng, family: str, size: int):
    """(chain text, its nodes, x-variables, shuffled flat join of them,
    that join minus one variable) for a chain of about `size` nodes."""
    per_level = 2 if family == "fig6" else 10
    n = max(1, (size - 3) // per_level)
    xs = [f"x{i}" for i in rng.sample(range(1, 4 * n), n + 2)]
    vs = [f"v{i}" for i in rng.sample(range(1, 4 * n), n)]
    flat = xs[:]
    rng.shuffle(flat)
    drop = rng.randrange(len(flat))
    return _chain_text(family, xs, vs), per_level * n + 3, xs, flat, flat[:drop] + flat[drop + 1 :]


def chains(seed: int) -> Inputs:
    """fig6/fig7 chains, each against its shuffled flat join (equivalent)
    and against that join minus one variable (not equivalent)."""
    rng = random.Random(seed)
    pairs, nfs = [], []
    for family, size in CHAINS:
        chain, chain_nodes, xs, flat, short = chain_shape(rng, family, round(size))
        for kind, rhs in (("eq", flat), ("neq", short)):
            pairs.append(Pair(kind, chain, " | ".join(rhs), chain_nodes, 2 * len(rhs) - 1, family, "flat", kind == "eq"))
        if (family, size) == ("fig7", 2**13.5):
            # one input five times: the median then rests on one block of
            # equal samples, not on the seam between two sizes
            expected = rewrite.canonicalize(("or", tuple(("var", x) for x in xs)))
            nfs += [NormalForm(chain, chain_nodes, family, expected)] * 5
    return Inputs(tuple(pairs), tuple(nfs))


# --------------------------------------------------------------------------
# wide-joins: one wide join per rule-adversarial shape


def _regroup(rng, kids: list) -> tuple:
    """Wrap random runs of join children in nested joins (law A2)."""
    out, i = [], 0
    while i < len(kids):
        k = rng.randint(1, 6)
        run = kids[i : i + k]
        out.append(OR(*run) if len(run) > 1 else run[0])
        i += k
    return tuple(out)


def _conj(c, d):
    return AND(V(c), V(d))


def a9_shape(rng, size: int):
    """Join of a_i and !(a_i | b_i): A9 never fires, but every negated
    child is tested against the whole child list.  Equivalent variants:
    regrouped in runs of four and of three, with de Morgan on every other
    negated join, its members swapped on the others, and a double negation
    on every third a_i.  Different: one a_k dropped (a_k = b_k = 1, all
    other a = 0, b = 1 separates them)."""
    n = max(2, (size - 1) // 5)
    ids = rng.sample(range(1, 4 * n), n)
    a = [f"a{i}" for i in ids]
    b = [f"b{i}" for i in ids]
    kids = [k for x, y in zip(a, b) for k in (V(x), NOT(OR(V(x), V(y))))]
    lhs = OR(*kids)
    variant = []
    for i, (x, y) in enumerate(zip(a, b)):
        variant.append(NOT(NOT(V(x))) if i % 3 == 0 else V(x))
        variant.append(AND(NOT(V(x)), NOT(V(y))) if i % 2 == 0 else NOT(OR(V(y), V(x))))
    eqs = [OR(*(OR(*variant[j : j + run]) for j in range(0, len(variant), run))) for run in (4, 3)]
    drop = rng.randrange(n)
    neq = OR(*(k for k in kids if k != V(a[drop])))
    return lhs, eqs, neq


def a3_shape(rng, size: int):
    """Join of m conjunctions, each repeated four times in different
    spellings ((c & d), (d & c), !!(c & d), !(!c | !d)) spread over the
    join, so most duplicates are found only on codes.  Equivalent
    variant: each conjunction once.  Different: one conjunction left out."""
    m = max(2, (size - 1) // 18)
    ids = rng.sample(range(1, 4 * m), m)
    cd = [(f"c{i}", f"d{i}") for i in ids]
    kids = []
    for c, d in cd:
        kids += [_conj(c, d), _conj(d, c), NOT(NOT(_conj(c, d))), NOT(OR(NOT(V(c)), NOT(V(d))))]
    rng.shuffle(kids)
    lhs = OR(*kids)
    distinct = [_conj(c, d) for c, d in cd]
    rng.shuffle(distinct)
    drop = rng.randrange(m)
    neq = OR(*(k for i, k in enumerate(distinct) if i != drop))
    return lhs, [OR(*distinct)], neq


def a7_shape(rng, size: int):
    """Join of m conjunctions and m negated joins !(e | h1 | ... | h6 | !e),
    each holding a complement pair at its two ends; every such child is 1
    by A7, so 0 after the negation, and drops out.  Equivalent variant:
    the conjunctions alone.  Different: one conjunction left out."""
    m = max(2, (size - 1) // 15)
    ids = rng.sample(range(1, 4 * m), m)
    cd = [(f"c{i}", f"d{i}") for i in ids]
    pool = [f"h{i}" for i in range(1, max(7, 2 * m))]
    kids = [_conj(c, d) for c, d in cd]
    for i in ids:
        e = f"e{i}"
        kids.append(NOT(OR(V(e), *(V(h) for h in rng.sample(pool, 6)), NOT(V(e)))))
    rng.shuffle(kids)
    lhs = OR(*kids)
    conj = [_conj(c, d) for c, d in cd]
    rng.shuffle(conj)
    eq = OR(*_regroup(rng, conj))
    drop = rng.randrange(m)
    neq = OR(*(k for i, k in enumerate(conj) if i != drop))
    return lhs, [eq], neq


def wide_joins(seed: int) -> Inputs:
    """Per ladder step: three A9 pairs (two equivalent spellings and one
    different), one A3 and one A7 pair (equivalent on even steps).  A9 is
    3 of 5 pairs so the workload median sits on it.  Normal forms: the
    smallest A9 join, five times."""
    rng = random.Random(seed)
    pairs, nfs = [], []
    for step, (a9_size, size) in enumerate(zip(A9_SIZES, WIDE_SIZES)):
        lhs, eqs, neq = a9_shape(rng, a9_size)
        for kind, rhs in (("eq", eqs[0]), ("eq", eqs[1]), ("neq", neq)):
            pairs.append(Pair(kind, text(lhs), text(rhs), nodes(lhs), nodes(rhs), "a9", "a9", kind == "eq"))
        if step == 0:
            # one input five times, as in chains: the median rests on one
            # block of equal samples
            expected = rewrite.canonicalize(internal(lhs))  # the A9 join is irreducible
            nfs += [NormalForm(text(lhs), nodes(lhs), "a9", expected)] * 5
        for name, make in (("a3", a3_shape), ("a7", a7_shape)):
            lhs2, eqs2, neq2 = make(rng, size)
            kind, rhs = ("eq", eqs2[0]) if step % 2 == 0 else ("neq", neq2)
            pairs.append(Pair(kind, text(lhs2), text(rhs), nodes(lhs2), nodes(rhs), name, name + "-rhs", kind == "eq"))
    return Inputs(tuple(pairs), tuple(nfs))


# --------------------------------------------------------------------------
# batch and cli: small pairs over a reused pool of subformulas


def random_formula(rng, budget: int, names: list[str]):
    if budget <= 1:
        return ("c", rng.randint(0, 1)) if rng.random() < 0.08 else V(rng.choice(names))
    op = rng.choice("!&||&")
    if op == "!" or budget == 2:
        return NOT(random_formula(rng, budget - 1, names))
    k = rng.randint(2, min(3, budget - 1))
    cuts = sorted(rng.sample(range(1, budget - 1), k - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget - 1])]
    return (op, tuple(random_formula(rng, s, names) for s in sizes))


def _positions(f, path=()):
    yield path, f
    if f[0] == "!":
        yield from _positions(f[1], path + (0,))
    elif f[0] in "&|":
        for i, k in enumerate(f[1]):
            yield from _positions(k, path + (i,))


def _replace(f, path, sub):
    if not path:
        return sub
    if f[0] == "!":
        return NOT(_replace(f[1], path[1:], sub))
    kids = list(f[1])
    kids[path[0]] = _replace(kids[path[0]], path[1:], sub)
    return (f[0], tuple(kids))


def apply_law(rng, f, names: list[str]):
    """f rewritten at one random position by one law of the rule table or
    de Morgan; always equivalent to f under those laws."""
    path, t = rng.choice(list(_positions(f)))
    head = t[0]
    laws = ["A5", "A6", "A7", "A9"]
    if head in "&|":
        laws += ["A1", "A3", "deMorgan"] + (["A2"] if len(t[1]) >= 3 else [])
    if head == "!" and t[1][0] in "&|":
        laws.append("push")
    law = rng.choice(laws)
    v, w = rng.sample(names, 2)
    if law == "A1":
        kids = list(t[1])
        rng.shuffle(kids)
        new = (head, tuple(kids))
    elif law == "A2":  # regroup the first two operands
        new = (head, ((head, t[1][:2]),) + t[1][2:])
    elif law == "A3":
        new = (head, t[1] + (rng.choice(t[1]),))
    elif law == "A5":
        new = OR(t, ("c", 0)) if rng.random() < 0.5 else AND(t, ("c", 1))
    elif law == "A6":
        new = NOT(NOT(t))
    elif law == "A7":  # t | (v & !v) or t & (v | !v)
        new = OR(t, AND(V(v), NOT(V(v)))) if rng.random() < 0.5 else AND(t, OR(V(v), NOT(V(v))))
    elif law == "A9":  # t & (v | w | !(v | w))
        new = AND(t, OR(V(v), V(w), NOT(OR(V(v), V(w)))))
    elif law == "deMorgan":  # x & y = !(!x | !y), x | y = !(!x & !y)
        dual = "|" if head == "&" else "&"
        new = NOT((dual, tuple(NOT(k) for k in t[1])))
    else:  # push: !(x | y) = !x & !y, !(x & y) = !x | !y
        inner = t[1]
        dual = "|" if inner[0] == "&" else "&"
        new = (dual, tuple(NOT(k) for k in inner[1]))
    return _replace(f, path, new)


def mutate(rng, f, names: list[str]):
    """f with one leaf renamed, one operator flipped or one subterm negated."""
    path, t = rng.choice(list(_positions(f)))
    if t[0] == "v":
        new = V(rng.choice([n for n in names if n != t[1]]))
    elif t[0] in "&|":
        new = ("|" if t[0] == "&" else "&", t[1])
    else:
        new = NOT(t)
    return _replace(f, path, new)


def _boolean_equal(f, g) -> bool:
    arena = Arena()
    return semantics.boolean_equivalent(arena, arena.intern_tree(internal(f)), arena.intern_tree(internal(g)))


_DISTRIB = (
    lambda x, y, z: (AND(x, OR(y, z)), OR(AND(x, y), AND(x, z))),
    lambda x, y, z: (OR(x, AND(y, z)), AND(OR(x, y), OR(x, z))),
    lambda x, y, z: (OR(x, AND(x, y)), x),
    lambda x, y, z: (AND(x, OR(x, y)), x),
)

MIN_NODES, MAX_NODES = 5, 40
# Windows [lo, hi) of lhs + rhs nodes.  Pair i takes window i mod len, so
# every seed gets the same size mix (3 kinds x 4 windows cycle evenly).
BATCH_TOTALS = ((12, 20), (20, 28), (28, 36), (36, 46))
CLI_TOTALS = tuple((t, t + 3) for t in range(16, 64, 6))


def small_pairs(rng, count: int, names: list[str], totals) -> list[Pair]:
    """`count` pairs of 5..40 nodes a side, kinds eq, booldiff and distrib
    in turn, pair i sized within window i of `totals` (cycled), built from
    one pool of subformulas so interns and codes repeat.  Every distrib
    pair is Boolean-equal but not equivalent."""
    pool = [random_formula(rng, rng.randint(1, 8), names) for _ in range(48)]

    def in_window(lhs, rhs, lo, hi) -> bool:
        ln, rn = nodes(lhs), nodes(rhs)
        return MIN_NODES <= ln <= MAX_NODES and MIN_NODES <= rn <= MAX_NODES and lo <= ln + rn < hi

    def distrib_candidate(lo, hi):
        while True:
            lhs, rhs = rng.choice(_DISTRIB)(*rng.sample(pool, 3))
            if in_window(lhs, rhs, lo, hi):
                return lhs, rhs

    # The oracle rejects between a quarter and half of the distrib
    # candidates, depending on the pool.  Labelling a fixed number per
    # window up front (2.5 per pair needed) keeps the set-up work of a seed
    # from depending on that share; when too few pass, the loop below
    # draws more.
    needed = [0] * len(totals)
    for i in range(2, count, 3):
        needed[i % len(totals)] += 1
    distrib = [
        [c for c in (distrib_candidate(lo, hi) for _ in range(n * 5 // 2))
         if not rewrite.oracle_equivalent(internal(c[0]), internal(c[1]))]
        for n, (lo, hi) in zip(needed, totals)
    ]

    def base():
        parts = rng.sample(pool, rng.randint(2, 3))
        op = rng.choice("&|")
        f = (op, tuple(parts))
        return NOT(f) if rng.random() < 0.2 else f

    pairs: list[Pair] = []
    tries = 0
    while len(pairs) < count:
        tries += 1
        if tries > 1000 * count:
            raise RuntimeError("size windows out of reach of the pool")
        kind = ("eq", "booldiff", "distrib")[len(pairs) % 3]
        window = len(pairs) % len(totals)
        lo, hi = totals[window]
        if kind == "distrib" and distrib[window]:
            lhs, rhs = distrib[window].pop()
            pairs.append(Pair(kind, text(lhs), text(rhs), nodes(lhs), nodes(rhs), "pool", "pool", False))
            continue
        if kind == "distrib":
            lhs, rhs = distrib_candidate(lo, hi)
        else:
            lhs = base()
            rhs = lhs
            for _ in range(rng.randint(1, 3)):
                rhs = apply_law(rng, rhs, names)
            if kind == "booldiff":
                rhs = mutate(rng, rhs, names)
        if not in_window(lhs, rhs, lo, hi):
            continue
        ln, rn = nodes(lhs), nodes(rhs)
        if kind == "eq":
            label = True
        elif kind == "booldiff":
            if _boolean_equal(lhs, rhs):
                continue  # the mutation happened to keep the function
            label = False
        else:
            if rewrite.oracle_equivalent(internal(lhs), internal(rhs)):
                continue  # the pool made it provable by the other laws
            label = False
        pairs.append(Pair(kind, text(lhs), text(rhs), ln, rn, "pool", "pool", label))
    return pairs


def pool_normal_forms(rng, count: int, names: list[str]) -> list[NormalForm]:
    """Normal forms of fresh formulas of 5..20 nodes (the same sizes for
    every seed), expected from `rewrite.normal_form`."""
    forms = [random_formula(rng, MIN_NODES + 15 * i // max(1, count - 1), names) for i in range(count)]
    return [NormalForm(text(f), nodes(f), "pool", rewrite.normal_form(internal(f))) for f in forms]


def _names(rng, k: int = 6) -> list[str]:
    return sorted(rng.sample([chr(c) for c in range(ord("a"), ord("z") + 1)], k))


def batch(seed: int) -> Inputs:
    """BATCH_PAIRS small pairs checked through one shared session, plus
    the normal forms of some pool formulas (the `normalize` path at small
    size)."""
    rng = random.Random(seed)
    names = _names(rng)
    pairs = small_pairs(rng, BATCH_PAIRS, names, BATCH_TOTALS)
    return Inputs(tuple(pairs), tuple(pool_normal_forms(rng, BATCH_NORMAL_FORMS, names)))


def cli(seed: int) -> Inputs:
    """A few small labelled pairs and formulas for `python -m ocbsl`."""
    rng = random.Random(seed)
    names = _names(rng)
    pairs = small_pairs(rng, CLI_PAIRS, names, CLI_TOTALS)
    return Inputs(tuple(pairs), tuple(pool_normal_forms(rng, CLI_NORMAL_FORMS, names)))


WORKLOADS = {"chains": chains, "wide-joins": wide_joins, "batch": batch, "cli": cli}

