import pytest

from ocbsl import Arena, Session, parse, print_formula, rewrite, semantics, to_internal
from ocbsl.bench import (
    FAMILIES,
    family_scale,
    fit_exponent,
    gen_family,
    report_tsv,
    run_bench,
)
from ocbsl.syntax import Or, Var, formula_nodes


def test_fig6_smallest_instance():
    assert print_formula(gen_family("fig6", 1)) == "x1 | (x2 | x3)"


def test_fig6_normalizes_to_flat_join():
    for n in (1, 2, 5, 9):
        arena = Arena()
        s = Session(arena)
        code = s.normalize(to_internal(gen_family("fig6", n), arena))
        members = s.join_class_members(code)
        assert members is not None and len(members) == n + 2


def test_fig7_normalizes_to_flat_join():
    for n in (1, 2, 4, 7):
        arena = Arena()
        s = Session(arena)
        code = s.normalize(to_internal(gen_family("fig7", n), arena))
        flat = " | ".join(f"x{i}" for i in range(1, n + 3))
        assert code == s.normalize(to_internal(parse(flat), arena))


def test_a9_smallest_instance():
    assert print_formula(gen_family("a9", 1)) == "a1 | !(a1 | b1)"


def test_a9_is_irreducible_and_every_a_counts():
    # A9 never fires: the join is its own normal form, and dropping any
    # a_k changes the class (a_k = b_k = 1, the other a = 0 and b = 1
    # separates them), in the session, the rewrite oracle and semantics
    for n in range(1, 5):
        f = gen_family("a9", n)
        arena = Arena()
        s = Session(arena)
        ref = to_internal(f, arena)
        code = s.normalize(ref)
        tree = arena.export_tree(ref)
        assert s.stats.a9_hits == 0 and code != 1
        assert rewrite.normal_form(tree) == rewrite.canonicalize(tree)
        for k in range(1, n + 1):
            kids = tuple(c for c in f[1] if c != Var(f"a{k}"))
            dropped = to_internal(Or(kids), arena)
            assert s.normalize(dropped) != code
            assert not rewrite.oracle_equivalent(tree, arena.export_tree(dropped))
            assert not semantics.boolean_equivalent(arena, ref, dropped)


def test_and_chain_and_neg_tower_smallest_instances():
    assert print_formula(gen_family("and-chain", 1)) == "x1 & (x2 & x3)"
    assert print_formula(gen_family("neg-tower", 1)) == "!!(x1 & x0)"


@pytest.mark.parametrize("family, first", [("and-chain", 1), ("neg-tower", 0)])
def test_conjunction_families_normalize_to_flat_conjunction(family, first):
    # each instance is the flat conjunction of its variables, and dropping
    # any one of them changes the class, in the session, the rewrite
    # oracle and semantics
    for n in range(1, 5):
        arena = Arena()
        s = Session(arena)
        ref = to_internal(gen_family(family, n), arena)
        names = [f"x{i}" for i in range(first, first + n + (2 if family == "and-chain" else 1))]
        flat = to_internal(parse(" & ".join(names)), arena)
        assert s.normalize(ref) == s.normalize(flat)
        tree = arena.export_tree(ref)
        assert rewrite.normal_form(tree) == rewrite.normal_form(arena.export_tree(flat))
        assert semantics.boolean_equivalent(arena, ref, flat)
        for k in range(len(names)):
            short = to_internal(parse(" & ".join(names[:k] + names[k + 1 :])), arena)
            assert s.normalize(short) != s.normalize(ref)
            assert not rewrite.oracle_equivalent(tree, arena.export_tree(short))
            assert not semantics.boolean_equivalent(arena, ref, short)


def test_family_scale_hits_target():
    for family in FAMILIES:
        for target in (64, 1024, 65536):
            n = family_scale(family, target)
            got = formula_nodes(gen_family(family, n))
            assert abs(got - target) <= 10


def test_gen_family_validation():
    with pytest.raises(ValueError):
        gen_family("fig6", 0)
    with pytest.raises(ValueError):
        gen_family("nope", 3)
    with pytest.raises(ValueError, match="unknown family"):
        family_scale("nope", 8)


def test_run_bench_needs_five_points():
    with pytest.raises(ValueError):
        run_bench("fig6", range(4, 7), reps=1)
    # five exponents but not five sizes: small targets all floor to scale 1
    for family, exponents in (("fig6", range(0, 6)), ("fig7", range(0, 5))):
        with pytest.raises(ValueError, match="repeats size"):
            run_bench(family, exponents, reps=1)


def test_run_bench_report():
    report = run_bench("fig6", range(4, 9), reps=2)
    assert report.sizes == sorted(report.sizes)
    assert len(set(report.sizes)) == len(report.sizes)
    assert all(t > 0 for t in report.times_ns)
    assert report.fitted_exponent == pytest.approx(
        fit_exponent(report.sizes, report.times_ns)
    )
    text = report_tsv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "# family=fig6"
    assert lines[-1].startswith("# fitted_exponent=")
    for line, size, nanos, st in zip(lines[1:-1], report.sizes, report.times_ns, report.stats):
        cols = line.split("\t")
        assert cols == [str(size), str(nanos), str(st.codes_allocated)]


def test_fit_exponent_on_synthetic_data():
    sizes = [2**k for k in range(10, 15)]
    assert fit_exponent(sizes, [s * 17 for s in sizes]) == pytest.approx(1.0, abs=1e-6)
    assert fit_exponent(sizes, [s * s for s in sizes]) == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError, match="two points"):
        fit_exponent([1], [1])
