import math
from collections import Counter

import pytest

from helpers import (corpus_specs, enumerate_opt, ex1, ex2, ex3,
                     sneaky_bad_table, superadditive_table)
from subknap import core, exact
from subknap.cli import main
from subknap.core import (CoverageOracle, Instance, Item, ModularOracle,
                          OracleValidationError, TableOracle, ValueOracle,
                          curvature, instance_from_dict, instance_to_dict,
                          save_instance)
from subknap.exact import (MAX_LEMMA_TRIALS, GuardError, breakpoints, brute_force_opt,
                           check_curvature_lemma, check_indispensable_properties,
                           check_lemma2, check_theorem6, robustness_sweep)
from subknap.generate import GeneratorSpec, generate_instance
from subknap.greedy import agreedy, mgreedy
from subknap.policy import execute_policy, make_fit_oracle


# ---------------------------------------------------------------------------
# brute force and breakpoints

def test_brute_force_opt_ex1():
    opt = brute_force_opt(ex1(), 2)
    assert opt.items == {"b"} and opt.value == pytest.approx(1.9)
    opt = brute_force_opt(ex1(), 3)
    assert opt.items == {"a", "b"} and opt.value == pytest.approx(2.9)


def test_brute_force_opt_nothing_fits():
    inst = Instance((Item("a", 5),), ModularOracle({"a": 3.0}))
    opt = brute_force_opt(inst, 2)
    assert opt.items == frozenset() and opt.value == 0.0 and opt.total_size == 0


def test_brute_force_opt_tie_breaks_lexicographically():
    inst = Instance((Item("1", 1), Item("2", 1)),
                    CoverageOracle({"x": 1.0}, {"1": ["x"], "2": ["x"]}))
    assert brute_force_opt(inst, 2).items == {"1"}


def test_brute_force_opt_matches_independent_enumeration():
    for seed in range(12):
        kind = ("modular", "coverage", "concave_modular")[seed % 3]
        inst = generate_instance(GeneratorSpec(kind, n=4 + seed % 5, seed=seed))
        for gamma in breakpoints(inst):
            got = brute_force_opt(inst, gamma)
            _, ref_value = enumerate_opt(inst, gamma)
            assert got.value == pytest.approx(ref_value, abs=1e-9)
            assert got.total_size <= gamma


def _count_values(monkeypatch, oracle_class) -> Counter:
    """Count calls of ValueOracle.evaluate and of oracle_class._value."""
    calls = Counter()
    evaluate, value = ValueOracle.evaluate, oracle_class._value

    def counting_evaluate(self, ids):
        calls["evaluate"] += 1
        return evaluate(self, ids)

    def counting_value(self, s):
        calls["_value"] += 1
        return value(self, s)

    monkeypatch.setattr(ValueOracle, "evaluate", counting_evaluate)
    monkeypatch.setattr(oracle_class, "_value", counting_value)
    return calls


def test_fresh_opt_builds_its_table_without_evaluate(monkeypatch):
    # parametric oracles fold their table: neither evaluate nor _value runs.
    # Validation, the curvature lemma and the optimum all read that one
    # table; the curvature itself evaluates its sets once per instance
    for kind, n in (("coverage", 12), ("modular", 12), ("concave_modular", 12),
                    ("coverage", 8)):
        inst = generate_instance(GeneratorSpec(kind, n=n, seed=0))
        curvature(inst)
        with monkeypatch.context() as patch:
            calls = _count_values(patch, type(inst.oracle))
            brute_force_opt(inst, sum(it.size for it in inst.items) // 2)
            assert core.validate_oracle(inst).mode == "exhaustive"
            check_curvature_lemma(inst, trials=300)
        assert calls == Counter(), kind


def test_sampled_lemma_reads_only_the_table(monkeypatch):
    inst = generate_instance(GeneratorSpec("coverage", n=13, seed=0))
    curvature(inst)
    calls = _count_values(monkeypatch, CoverageOracle)
    assert check_curvature_lemma(inst, trials=300).notes == ("mode=sampled",)
    assert calls == Counter()


def test_table_oracle_table_reads_each_subset_once(monkeypatch):
    # a table has no fold: its array takes each subset's value from the dict
    inst = Instance((Item("a", 1), Item("b", 2), Item("c", 3)), TableOracle({
        "": 0.0, "a": 1.0, "b": 1.0, "c": 1.0,
        "a,b": 2.0, "a,c": 2.0, "b,c": 2.0, "a,b,c": 2.5}))
    calls = _count_values(monkeypatch, TableOracle)
    values, _ = core.subset_table(inst)
    assert values.tolist() == [0.0, 1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 2.5]
    assert calls == Counter({"_value": 8})


def test_opt_with_sizes_past_int64():
    # subset totals beyond int64 keep Python ints; capacities beyond the
    # total admit every subset
    big = 2 ** 62
    inst = Instance((Item("a", big), Item("b", big + 1), Item("c", 1)),
                    ModularOracle({"a": 1.0, "b": 2.0, "c": 0.5}))
    assert brute_force_opt(inst, big + 1).items == {"b"}
    full = brute_force_opt(inst, 10 ** 30)
    assert (full.items, full.value, full.total_size) == ({"a", "b", "c"}, 3.5, 2 * big + 2)
    assert type(full.total_size) is int


def test_verify_computes_curvature_once_and_scans_once_per_breakpoint(
        monkeypatch, tmp_path):
    spec = next(s for s in corpus_specs() if s.kind == "planted" and s.seed == 6)
    path = tmp_path / "planted-6.json"
    save_instance(generate_instance(spec), path)
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(core, "_curvature")
    count(exact, "_scan_opt")
    assert main(["verify", "-i", str(path)]) == 0
    assert calls == {"_curvature": 1,
                     "_scan_opt": len(breakpoints(generate_instance(spec)))}


def test_exhaustive_guard_rejects_large_instances():
    ids = [f"i{k:02d}" for k in range(23)]
    inst = Instance(tuple(Item(i, 1) for i in ids),
                    ModularOracle({i: 1.0 for i in ids}))
    with pytest.raises(GuardError):
        brute_force_opt(inst, 3)
    with pytest.raises(GuardError):
        breakpoints(inst)
    with pytest.raises(GuardError):
        robustness_sweep(inst)
    with pytest.raises(GuardError):
        core.validate_oracle(inst)
    with pytest.raises(GuardError):
        check_curvature_lemma(inst)
    with pytest.raises(GuardError):
        core.subset_table(inst)


def test_breakpoints_values():
    assert breakpoints(ex1()) == (1, 2, 3)
    two_ones = Instance((Item("a", 1), Item("b", 1)),
                        ModularOracle({"a": 1.0, "b": 1.0}))
    assert breakpoints(two_ones) == (1, 2)
    single = Instance((Item("a", 5),), ModularOracle({"a": 1.0}))
    assert breakpoints(single) == (5,)


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_ex1_everything_optimal():
    rep = robustness_sweep(ex1())
    assert [r.gamma for r in rep.rows] == [1, 2, 3]
    assert all(r.ratio_policy == pytest.approx(1.0) for r in rep.rows)
    assert rep.empirical_robustness == pytest.approx(1.0)
    assert rep.curvature == 0.0 and rep.alpha_bound == pytest.approx(0.5)


def test_sweep_ex3_policy_gap():
    rep = robustness_sweep(ex3())
    row = next(r for r in rep.rows if r.gamma == 2)
    assert row.policy_value == pytest.approx(1.0)
    assert row.opt_value == pytest.approx(1.9)
    assert row.ratio_policy == pytest.approx(1.0 / 1.9)
    assert rep.empirical_robustness == pytest.approx(1.0 / 1.9)
    assert rep.curvature == 1.0
    assert rep.empirical_robustness >= rep.alpha_bound - 1e-9


def test_sweep_single_item_instance():
    inst = Instance((Item("a", 4),), ModularOracle({"a": 2.5}))
    rep = robustness_sweep(inst)
    assert [(r.gamma, r.ratio_mg, r.ratio_ag, r.ratio_policy)
            for r in rep.rows] == [(4, 1.0, 1.0, 1.0)]


def test_sweep_rows_dominated_by_optimum():
    for seed in (0, 7, 13):
        inst = generate_instance(GeneratorSpec("coverage", n=7, seed=seed))
        rep = robustness_sweep(inst)
        for r in rep.rows:
            top = max(r.mg_value, r.ag_value, r.policy_value)
            assert r.opt_value >= top - 1e-9 * max(1.0, top)


def test_sweep_deterministic_and_parallel_identical():
    inst = generate_instance(GeneratorSpec("planted", n=7, size_max=6, seed=3))
    a = robustness_sweep(inst).to_csv()
    b = robustness_sweep(inst).to_csv()
    cold = robustness_sweep(instance_from_dict(instance_to_dict(inst))).to_csv()
    assert a == b == cold


def test_sweep_csv_shape():
    csv = robustness_sweep(ex1()).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == ("gamma,opt_value,mg_value,ag_value,policy_value,"
                        "ratio_mg,ratio_ag,ratio_policy")
    assert lines[1].startswith("1,")
    assert lines[-3].startswith("# curvature=")
    assert lines[-2].startswith("# alpha_bound=")
    assert lines[-1].startswith("# empirical_robustness=")


def test_algorithms_constant_between_breakpoints():
    inst = generate_instance(GeneratorSpec("planted", n=6, size_max=6, seed=9))
    caps = breakpoints(inst)
    for lo, hi in zip(caps, caps[1:]):
        if hi - 1 == lo:
            continue
        assert mgreedy(inst, lo) == mgreedy(inst, hi - 1)
        assert agreedy(inst, lo) == agreedy(inst, hi - 1)
        assert brute_force_opt(inst, lo) == brute_force_opt(inst, hi - 1)
        assert execute_policy(inst, make_fit_oracle(lo)) \
            == execute_policy(inst, make_fit_oracle(hi - 1))


# ---------------------------------------------------------------------------
# prefix-value bound

def test_theorem6_modular_limit_form():
    rep = check_theorem6(ex1(), 3)
    assert rep.passed and rep.trials == 2
    # j=1 clears its bound by 1.0 - 2.9/3; j=2 is tight, so the worst slack
    # across the prefix is exactly zero
    assert rep.worst_slack == pytest.approx(0.0, abs=1e-12)
    rep = check_theorem6(ex1(), 2)
    assert rep.passed
    assert rep.worst_slack == pytest.approx(1.0 - 1.9 / 2.0)


def test_theorem6_full_curvature_fixture():
    rep = check_theorem6(ex2(), 4)
    assert rep.passed and rep.worst_slack >= -1e-9


def test_theorem6_capacity_covers_everything():
    for build in (ex1, ex2, ex3):
        inst = build()
        total = sum(it.size for it in inst.items)
        rep = check_theorem6(inst, total)
        assert rep.passed


def test_theorem6_rejects_bad_table():
    inst = Instance((Item("a", 1), Item("b", 1)),
                    TableOracle(superadditive_table()))
    with pytest.raises(OracleValidationError):
        check_theorem6(inst, 2)


# ---------------------------------------------------------------------------
# per-step marginal bounds

def test_lemma2_ex1_indices():
    rep = check_lemma2(ex1(), 2)
    assert rep.passed
    assert rep.chi == (0, 1)
    assert rep.s_star == (0, 0)
    assert rep.trials == 4  # two inequalities at j in {1, 2}


def test_lemma2_ex3_full_curvature():
    rep = check_lemma2(ex3(), 2)
    assert rep.passed and rep.worst_slack >= -1e-9


def test_lemma2_skips_trivial_capacity():
    rep = check_lemma2(ex1(), 3)  # greedy packs everything, which is optimal
    assert rep.trials == 0
    assert any("skipped" in n for n in rep.notes)


def test_lemma2_notes_record_the_optimum():
    rep = check_lemma2(ex1(), 2)
    assert any(n.startswith("opt=") for n in rep.notes)


def test_lemma2_passes_across_random_instances():
    for seed in range(10):
        kind = ("modular", "coverage", "concave_modular", "planted")[seed % 4]
        inst = generate_instance(GeneratorSpec(kind, n=4 + seed % 6, seed=seed))
        for gamma in breakpoints(inst):
            rep = check_lemma2(inst, gamma)
            assert rep.passed, (kind, seed, gamma, rep.failures)


# ---------------------------------------------------------------------------
# curvature inequalities

def test_curvature_lemma_modular_equalities():
    inst = Instance((Item("a", 1), Item("b", 2), Item("c", 1), Item("d", 3)),
                    ModularOracle({"a": 1.0, "b": 2.0, "c": 0.5, "d": 4.0}))
    rep = check_curvature_lemma(inst, trials=10)
    assert rep.passed
    assert rep.worst_slack == 0.0  # binary-exact weights make ties exact


def test_curvature_lemma_coverage_exhaustive():
    rep = check_curvature_lemma(ex2(), trials=5)
    assert rep.passed
    assert "mode=exhaustive" in rep.notes


def test_curvature_lemma_negative_control():
    inst = Instance((Item("a", 1), Item("b", 1), Item("c", 1)),
                    sneaky_bad_table())
    assert curvature(inst) == pytest.approx(0.5)
    rep = check_curvature_lemma(inst, trials=5)
    assert not rep.passed
    assert rep.worst_slack < -1e-9
    assert any("marginal_sum_upper" in f.witness for f in rep.failures)


def test_curvature_lemma_sampled_mode_counts():
    inst = generate_instance(GeneratorSpec("coverage", n=9, seed=4))
    rep = check_curvature_lemma(inst, trials=120, seed=1)
    assert rep.passed
    assert "mode=sampled" in rep.notes
    assert all(count == 120 for count in rep.counts.values())


def test_curvature_lemma_requires_trials():
    with pytest.raises(ValueError):
        check_curvature_lemma(ex1(), trials=0)
    with pytest.raises(ValueError):
        check_curvature_lemma(ex1(), trials=MAX_LEMMA_TRIALS + 1)


def test_curvature_lemma_refuses_negative_seed():
    # random.Random(-7) draws what random.Random(7) does
    with pytest.raises(ValueError, match="seed must be nonnegative, got -7"):
        check_curvature_lemma(ex1(), seed=-7)


def test_check_report_serialization():
    rep = check_lemma2(ex1(), 2)
    d = rep.to_dict()
    assert d["name"] == "lemma2" and d["failures"] == []
    assert d["chi"] == [0, 1] and d["s_star"] == [0, 0]
    assert math.isfinite(d["worst_slack"])
    empty = check_lemma2(ex1(), 3).to_dict()
    assert empty["worst_slack"] is None


# ---------------------------------------------------------------------------
# indispensable-item properties

def test_indispensable_properties_ex1():
    rep = check_indispensable_properties(ex1())
    assert rep.passed and rep.trials > 0


def test_indispensable_properties_vacuous_cases():
    rep = check_indispensable_properties(ex3())
    assert rep.passed and rep.trials == 0
    assert any("vacuously" in n for n in rep.notes)
    single = Instance((Item("a", 2),), ModularOracle({"a": 1.0}))
    rep = check_indispensable_properties(single)
    assert rep.passed and rep.trials == 0


def test_indispensable_properties_across_planted_instances():
    for seed in range(12):
        inst = generate_instance(GeneratorSpec("planted", n=4 + seed % 7,
                                               size_max=8, seed=seed))
        rep = check_indispensable_properties(inst)
        assert rep.passed, (seed, rep.failures)
        assert rep.trials > 0
