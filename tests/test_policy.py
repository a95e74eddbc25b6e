import random

import pytest

from helpers import (density_tie_start_list, ex1, ex1_extended, ex3,
                     superadditive_table)
from subknap.core import (CoverageOracle, Instance, Item, ModularOracle,
                          OracleValidationError, PackedState, TableOracle,
                          ValueOracle, _FoldState, curvature, distinct_sizes,
                          normalize_instance, size_breakpoints)
from subknap.exact import breakpoints, check_theorem6
from subknap.generate import GeneratorSpec, generate_instance
from subknap import greedy, policy
from subknap.greedy import DensityQueue, agreedy, mgreedy
from subknap.policy import (PHASE_GREEDY_PREFIX, PHASE_MAIN_GREEDY,
                            PHASE_START_ITEM, execute_policy, indispensability_interval,
                            is_indispensable, make_fit_oracle, start_item_list)


# ---------------------------------------------------------------------------
# indispensability

def test_is_indispensable_ex1():
    res = is_indispensable(ex1(), "b")
    assert res.indispensable and res.greedy_prefix == {"a"}
    res = is_indispensable(ex1(), "a")
    assert not res.indispensable and res.greedy_prefix == frozenset()


def test_is_indispensable_ex3_marginal_too_small():
    assert not is_indispensable(ex3(), "b").indispensable


def test_indispensability_interval_ex1():
    iv = indispensability_interval(ex1(), "b")
    assert (iv.gamma1, iv.gamma2) == (2, 3)
    assert indispensability_interval(ex1(), "a") is None


def test_indispensability_interval_with_order_change():
    # the size-3 item takes over the greedy order at capacity 3, so the
    # interval is capped both by the order change and by the prefix fitting
    iv = indispensability_interval(ex1_extended(), "b")
    assert (iv.gamma1, iv.gamma2) == (2, 3)


def test_indispensability_interval_capped_strictly_inside_fit_window():
    # b is indispensable from capacity 4, and with its two-item prefix it
    # would stay the answer until 7; the dense size-5 item d rewrites the
    # head of the greedy order at capacity 5 and ends the interval early
    inst = Instance(
        (Item("a1", 1), Item("a2", 2), Item("b", 4), Item("d", 5)),
        ModularOracle({"a1": 1.0, "a2": 1.8, "b": 3.0, "d": 50.0}))
    res = is_indispensable(inst, "b")
    assert res.indispensable and res.greedy_prefix == {"a1", "a2"}
    iv = indispensability_interval(inst, "b")
    assert (iv.gamma1, iv.gamma2) == (4, 5)
    assert agreedy(inst, 4).items == {"b"}
    assert agreedy(inst, 5).items == {"d"}


def test_start_item_list_ex1():
    entries = start_item_list(ex1()).entries
    assert [(e.item_id, e.reason) for e in entries] == [("b", "indispensable")]


def test_start_item_list_ex3_empty():
    assert start_item_list(ex3()).entries == ()


def test_start_item_list_needs_seed_before_first_greedy():
    # densities strictly decrease with size and no weight beats the prefix
    # value, so nothing is indispensable and the list stays empty
    inst = Instance((Item("a", 1), Item("b", 2), Item("c", 3)),
                    ModularOracle({"a": 3.0, "b": 2.0, "c": 1.5}))
    assert start_item_list(inst).entries == ()


def test_start_item_list_extended_gains_first_greedy_entry():
    entries = start_item_list(ex1_extended()).entries
    assert [(e.item_id, e.reason) for e in entries] == [
        ("b", "indispensable"), ("c", "first_greedy")]


def test_start_list_sizes_strictly_increase_on_corpus_samples():
    for seed in range(20):
        inst = generate_instance(GeneratorSpec("planted", n=4 + seed % 7,
                                               size_max=8, seed=seed))
        sizes = [inst.size(e.item_id) for e in start_item_list(inst)]
        assert sizes and sizes == sorted(set(sizes))


def test_start_item_list_keeps_equal_sizes():
    # b leads its own order on a density tie and c is indispensable at the
    # same size: both are kept, in id order
    entries = start_item_list(density_tie_start_list()).entries
    assert [(e.item_id, e.reason) for e in entries] == [
        ("q", "indispensable"), ("b", "first_greedy"), ("c", "indispensable")]


# ---------------------------------------------------------------------------
# fit oracle

def test_fit_oracle_boundary_and_count():
    oracle = make_fit_oracle(2)
    assert oracle.fits(2) is True
    assert oracle.fits(3) is False
    assert oracle.fits(0) is True
    assert oracle.query_count == 3
    with pytest.raises(ValueError):
        make_fit_oracle(0)


# ---------------------------------------------------------------------------
# policy execution

def test_policy_ex1_all_capacities():
    inst = ex1()
    t = execute_policy(inst, make_fit_oracle(2))
    assert t.packed.items == {"b"} and t.packed.value == pytest.approx(1.9)
    assert [(a.item_id, a.fitted, a.phase) for a in t.attempts] == [
        ("b", True, PHASE_START_ITEM), ("a", False, PHASE_GREEDY_PREFIX)]

    t = execute_policy(inst, make_fit_oracle(3))
    assert t.packed.items == {"a", "b"}
    assert t.packed.value == pytest.approx(2.9)

    t = execute_policy(inst, make_fit_oracle(1))
    assert t.packed.items == {"a"} and t.packed.value == pytest.approx(1.0)
    assert [(a.item_id, a.fitted, a.phase) for a in t.attempts] == [
        ("b", False, PHASE_START_ITEM), ("a", True, PHASE_MAIN_GREEDY)]


def test_policy_ex3_tracks_agreedy_not_mgreedy():
    t = execute_policy(ex3(), make_fit_oracle(2))
    assert t.packed.items == {"a"} and t.packed.value == pytest.approx(1.0)
    assert all(a.phase == PHASE_MAIN_GREEDY for a in t.attempts)


def test_policy_phases_appear_in_order():
    order = {PHASE_START_ITEM: 0, PHASE_GREEDY_PREFIX: 1, PHASE_MAIN_GREEDY: 2}
    for seed in range(15):
        inst = generate_instance(GeneratorSpec("planted", n=5 + seed % 6,
                                               size_max=8, seed=seed))
        for gamma in size_breakpoints(inst.items):
            t = execute_policy(inst, make_fit_oracle(gamma))
            codes = [order[a.phase] for a in t.attempts]
            assert codes == sorted(codes)
            assert {a.item_id for a in t.attempts if a.fitted} == t.packed.items


def test_policy_never_attempts_an_item_twice():
    for seed in range(15):
        kind = ("planted", "coverage", "concave_modular")[seed % 3]
        inst = generate_instance(GeneratorSpec(kind, n=5 + seed % 6, seed=seed))
        for gamma in size_breakpoints(inst.items):
            t = execute_policy(inst, make_fit_oracle(gamma))
            ids = [a.item_id for a in t.attempts]
            assert len(ids) == len(set(ids))
            for phase in (PHASE_START_ITEM, PHASE_MAIN_GREEDY):
                sizes = [inst.size(a.item_id) for a in t.attempts
                         if a.phase == phase and not a.fitted]
                assert sizes == sorted(sizes, reverse=True)
                assert len(sizes) == len(set(sizes))


def test_policy_feasible_and_reads_capacity_only_through_fits():
    for seed in range(10):
        inst = generate_instance(GeneratorSpec("planted", n=6, size_max=6,
                                               seed=seed))
        for gamma in size_breakpoints(inst.items):
            t = execute_policy(inst, make_fit_oracle(gamma))
            assert t.packed.total_size <= gamma
            assert t.query_count == len(t.attempts)


def test_policy_matches_agreedy_lower_bound_at_every_breakpoint():
    for seed in range(20):
        kind = ("modular", "coverage", "concave_modular", "planted")[seed % 4]
        inst = generate_instance(GeneratorSpec(kind, n=4 + seed % 7, seed=seed))
        for gamma in size_breakpoints(inst.items):
            pol = execute_policy(inst, make_fit_oracle(gamma)).packed.value
            ag = agreedy(inst, gamma).value
            assert pol >= ag - 1e-9 * max(1.0, ag), (kind, seed, gamma)


def test_capacity_obliviousness_same_answers_same_trace():
    inst = ex1()
    # total size is 3, so capacities 3 and 4 answer every query identically
    t3 = execute_policy(inst, make_fit_oracle(3))
    t4 = execute_policy(inst, make_fit_oracle(4))
    assert t3 == t4

    for seed in range(8):
        big = generate_instance(GeneratorSpec("planted", n=6, size_max=6,
                                              seed=seed))
        caps = size_breakpoints(big.items)
        for lo, hi in zip(caps, caps[1:]):
            if hi - 1 > lo:
                a = execute_policy(big, make_fit_oracle(lo))
                b = execute_policy(big, make_fit_oracle(hi - 1))
                assert a == b


def test_trace_serialization_shape():
    t = execute_policy(ex1(), make_fit_oracle(2))
    d = t.to_dict()
    assert d["packed"] == ["b"]
    assert d["value"] == pytest.approx(1.9)
    assert d["total_size"] == 2
    assert d["query_count"] == len(d["attempts"])
    assert d["attempts"][0] == {"item": "b", "fitted": True,
                                "phase": "start_item"}


def test_flagged_items_have_small_nonempty_prefixes():
    for seed in range(20):
        inst = generate_instance(GeneratorSpec("planted", n=4 + seed % 7,
                                               size_max=8, seed=seed))
        flagged = 0
        for it in inst.items:
            res = is_indispensable(inst, it)
            if res.indispensable:
                flagged += 1
                assert res.greedy_prefix
                assert it.size > inst.total_size(res.greedy_prefix)
        assert flagged >= 1


# ---------------------------------------------------------------------------
# oracle-call gate

#: ValueOracle.evaluate calls for the start list plus policy, agreedy and
#: mgreedy at 20 capacities on n=100 coverage: 101 measured, the 100
#: singletons and the whole set that gain_drift scales by; candidates are
#: valued from the queue's packed state, which calls no evaluate
EVALUATE_CALL_CEILING = 101


def test_oracle_calls_stay_under_ceiling(monkeypatch):
    calls = 0
    evaluate = ValueOracle.evaluate

    def counting(self, ids):
        nonlocal calls
        calls += 1
        return evaluate(self, ids)

    monkeypatch.setattr(ValueOracle, "evaluate", counting)
    inst = generate_instance(GeneratorSpec("coverage", n=100, size_max=100, seed=0))
    total = sum(it.size for it in inst.items)
    start_item_list(inst)
    for k in range(1, 21):
        gamma = round(k * total / 20)
        execute_policy(inst, make_fit_oracle(gamma))
        agreedy(inst, gamma)
        mgreedy(inst, gamma)
    assert calls <= EVALUATE_CALL_CEILING


#: DensityQueue.scan calls (full fallback scans of DensityQueue.select) in
#: one greedy order over every item of generated coverage n=500 seed 0: 0
#: measured.  There the gain drift exceeds the tolerance, so rule (c)
#: settles nothing among the saturated candidates, whose gain is 0.0; it
#: made 493 scans while they stayed in the heap, and makes none now that
#: they leave it for good (DensityQueue._zeros).
FALLBACK_SCAN_CEILING = 0

#: The same in one order over every item of generated modular, planted and
#: concave-modular n=300 seed 0: 0 measured each.  Their weights are
#: multiples of 0.1 and sizes lie in 1..10, so exact density ties are
#: common; they made 81, 93 and 40 scans while only a head that beat every
#: other bound settled a selection, and make none now that a tie cluster
#: within half a tolerance settles it (rule (c)).
MODULAR_FALLBACK_SCAN_CEILING = 0


def _count_scans(monkeypatch) -> list[int]:
    """Counts DensityQueue.scan calls from now on into the returned cell."""
    scans = [0]
    scan = DensityQueue.scan

    def counting(self):
        scans[0] += 1
        return scan(self)

    monkeypatch.setattr(DensityQueue, "scan", counting)
    return scans


def _count_scans_of_one_full_order(monkeypatch, kind: str, n: int) -> int:
    scans = _count_scans(monkeypatch)
    inst = generate_instance(GeneratorSpec(kind, n=n, seed=0))
    run = greedy.greedy_sequence(inst, max(it.size for it in inst.items))
    assert len(run.order) == n
    return scans[0]


def test_fallback_scans_of_one_n500_order_stay_under_ceiling(monkeypatch):
    assert _count_scans_of_one_full_order(monkeypatch, "coverage", 500) \
        <= FALLBACK_SCAN_CEILING


def test_fallback_scans_of_one_modular_n300_order_stay_under_ceiling(monkeypatch):
    assert _count_scans_of_one_full_order(monkeypatch, "modular", 300) \
        <= MODULAR_FALLBACK_SCAN_CEILING


@pytest.mark.parametrize("kind", ["planted", "concave_modular"])
def test_fallback_scans_of_one_planted_or_concave_n300_order_stay_under_ceiling(
        monkeypatch, kind):
    assert _count_scans_of_one_full_order(monkeypatch, kind, 300) \
        <= MODULAR_FALLBACK_SCAN_CEILING


#: The same for the start list, then the policy and agreedy at each capacity
#: of the 200-capacity grid, of generated n=300 seed 0 of every kind: 0
#: measured each, so the tie cluster (rule (c)) settles every select there
GRID_FALLBACK_SCAN_CEILING = 0


@pytest.mark.parametrize("kind", ["modular", "coverage", "planted", "concave_modular"])
def test_fallback_scans_of_the_n300_capacity_grid_stay_under_ceiling(monkeypatch, kind):
    scans = _count_scans(monkeypatch)
    inst = generate_instance(GeneratorSpec(kind, n=300, seed=0))
    total = sum(it.size for it in inst.items)
    start_item_list(inst)
    for gamma in sorted({max(1, round(k * total / 200)) for k in range(1, 201)}):
        execute_policy(inst, make_fit_oracle(gamma))
        agreedy(inst, gamma)
    assert scans[0] <= GRID_FALLBACK_SCAN_CEILING


#: CoverageOracle._value calls for the start list plus policy, agreedy and
#: mgreedy on the 200-capacity grid of the benchmark's n=100 coverage
#: instance (seed 0): 101 measured, the 100 singletons that normalisation
#: values and the whole set that gain_drift scales by; 2 683 when greedy and
#: the policy valued candidates through the memo
VALUE_CALL_CEILING = 101


def test_policy_selects_once_per_history_and_values_stay_under_ceiling(monkeypatch):
    selects = values = 0
    select, value = DensityQueue.select, CoverageOracle._value

    def counting_select(self):
        nonlocal selects
        selects += 1
        return select(self)

    def counting_value(self, s):
        nonlocal values
        values += 1
        return value(self, s)

    monkeypatch.setattr(DensityQueue, "select", counting_select)
    monkeypatch.setattr(CoverageOracle, "_value", counting_value)
    inst = normalize_instance(generate_instance(
        GeneratorSpec("coverage", n=100, size_max=100, seed=0)))
    total = sum(it.size for it in inst.items)
    caps = sorted({max(1, round(k * total / 200)) for k in range(1, 201)})
    random.Random(0).shuffle(caps)
    start_item_list(inst)
    for gamma in caps:  # every greedy order the grid reads
        greedy.greedy_sequence(inst, gamma)
    selects = 0
    histories = set()  # of step-3 choices: the fit answers before each
    for gamma in caps:
        trace = execute_policy(inst, make_fit_oracle(gamma))
        agreedy(inst, gamma)
        mgreedy(inst, gamma)
        history = 1
        for a in trace.attempts:
            if a.phase == PHASE_MAIN_GREEDY:
                histories.add(history)
            history = history << 1 | a.fitted
    assert selects <= len(histories)
    assert values <= VALUE_CALL_CEILING


#: DensityQueue selections of the start list of generated modular n=300 with
#: sizes up to 10^6 (seed 0), whose 300 items have 300 distinct sizes: 3 553
#: measured, one per size for the first items and one per item of the 177
#: orders built where the first item does not rule an item out; 5 240 when
#: the start list built the order of every size, 45 150 when every order held
#: every eligible item
START_LIST_SELECT_CEILING = 3_553


def _count_start_list(monkeypatch, inst) -> tuple[dict, list]:
    """Selections, refreshes and queues of start_item_list(inst), and the
    threshold of each greedy order it builds."""
    counts = dict.fromkeys(("selects", "refreshes", "queues"), 0)
    built: list[int] = []

    def counting(name, key):
        method = getattr(DensityQueue, name)

        def counted(self, *args):
            counts[key] += 1
            return method(self, *args)
        monkeypatch.setattr(DensityQueue, name, counted)

    counting("select", "selects")
    counting("_refresh", "refreshes")
    counting("__init__", "queues")
    build_order = greedy._greedy_order

    def recording(instance, threshold, stop):
        built.append(threshold)
        return build_order(instance, threshold, stop)

    monkeypatch.setattr(greedy, "_greedy_order", recording)
    start_item_list(inst)
    return counts, built


def test_start_list_selects_only_what_its_truncated_orders_hold(monkeypatch):
    inst = normalize_instance(generate_instance(
        GeneratorSpec("modular", n=300, size_max=10 ** 6, seed=0)))
    counts, built = _count_start_list(monkeypatch, inst)
    selects = counts["selects"]
    assert len(built) == len(set(built))
    # one first pick per size, then the orders built; reading them back
    # selects nothing more
    lengths = sum(len(greedy.greedy_sequence(inst, t).order) for t in built)
    assert counts["selects"] == selects == len(distinct_sizes(inst)) + lengths \
        <= START_LIST_SELECT_CEILING


@pytest.mark.parametrize("n, size_max", [(100, 100), (400, 10 ** 6)])
def test_coverage_start_lists_build_no_order(monkeypatch, n, size_max):
    # generated coverage, seed 0: the first item rules out every item, so
    # the start list is one queue that never packs and never refreshes, one
    # select per size; with one order per size it made 485 selects (n=100)
    # and 4 196 selects with 189 417 refreshes (n=400)
    inst = normalize_instance(generate_instance(
        GeneratorSpec("coverage", n=n, size_max=size_max, seed=0)))
    counts, built = _count_start_list(monkeypatch, inst)
    assert built == []
    assert counts == {"selects": len(distinct_sizes(inst)), "refreshes": 0, "queues": 1}


#: DensityQueue._refresh calls of the policy runs on the benchmark's
#: 200-capacity grid of generated coverage n=100 (seed 0): 204 measured;
#: 4 267 while candidates whose gain is 0.0 for good stayed in the heap and
#: were refreshed again after every pack
POLICY_REFRESH_CEILING = 204

#: PolicyAttempt records those runs build: 200 measured, one miss and one
#: fit per item and phase reached; 1 756 while every decision built its own
POLICY_ATTEMPT_CEILING = 200


def test_policy_builds_its_queue_once_per_run_and_never_where_every_decision_is_kept(
        monkeypatch):
    # on coverage, whose start list is empty, and on planted n=100 (seed 0),
    # whose start item (size 7) misses at the two smallest capacities of the
    # grid; taken in ascending order, the next run fits it and resumes at
    # that fit, inside the script of steps 1 and 2, and decides the greedy
    # prefix there.  The ceilings above are coverage's.  A rerun reads only
    # the tree: no start list and no greedy order
    counts = dict.fromkeys(("queues", "states", "selects", "values", "refreshes",
                            "attempts", "start_lists", "greedy_runs"), 0)

    def counting(cls, name, key):  # cls may be a module, and then self its first argument
        method = getattr(cls, name)

        def counted(self, *args):
            counts[key] += 1
            return method(self, *args)
        monkeypatch.setattr(cls, name, counted)

    counting(DensityQueue, "__init__", "queues")
    counting(DensityQueue, "select", "selects")
    counting(DensityQueue, "_refresh", "refreshes")
    for cls in (PackedState, _FoldState):  # a fold state is built by its own __init__
        counting(cls, "__init__", "states")
        counting(cls, "value_with", "values")
    counting(policy, "start_item_list", "start_lists")
    counting(policy, "greedy_sequence", "greedy_runs")
    attempt, decide = policy.PolicyAttempt, policy._decision
    phases = []  # of the decisions made

    def counted_attempt(*args):
        counts["attempts"] += 1
        return attempt(*args)

    def counted_decision(*args):
        phases.append(args[-1])
        return decide(*args)
    monkeypatch.setattr(policy, "PolicyAttempt", counted_attempt)
    monkeypatch.setattr(policy, "_decision", counted_decision)
    for kind, size_max in (("coverage", 100), ("planted", 10)):
        inst = normalize_instance(generate_instance(
            GeneratorSpec(kind, n=100, size_max=size_max, seed=0)))
        total = sum(it.size for it in inst.items)
        caps = sorted({max(1, round(k * total / 200)) for k in range(1, 201)})
        if kind == "coverage":
            random.Random(0).shuffle(caps)
        start_item_list(inst)  # every greedy order the policy reads
        counts.update(dict.fromkeys(counts, 0))
        histories = set()  # of step-3 choices: the fit answers before each
        resumed = 0  # runs after the first that decide a greedy-prefix item
        for run, gamma in enumerate(caps):
            queues = counts["queues"]
            phases.clear()
            history = 1
            for a in execute_policy(inst, make_fit_oracle(gamma)).attempts:
                if a.phase == PHASE_MAIN_GREEDY:
                    histories.add(history)
                history = history << 1 | a.fitted
            assert counts["queues"] - queues <= 1, (kind, gamma)
            resumed += run > 0 and PHASE_GREEDY_PREFIX in phases
        assert counts["selects"] <= len(histories)
        if kind == "coverage":
            assert counts["refreshes"] <= POLICY_REFRESH_CEILING
            assert counts["attempts"] <= POLICY_ATTEMPT_CEILING
        else:
            assert resumed > 0
        counts.update(dict.fromkeys(counts, 0))
        phases.clear()
        for gamma in caps:
            execute_policy(inst, make_fit_oracle(gamma))
        assert counts == dict.fromkeys(counts, 0) and phases == [], kind


def test_solutions_and_theorem6_read_the_values_of_their_runs(corpus, monkeypatch):
    # once the curvature, the start list (with the greedy orders and the
    # singletons it reads) and the rounding bound are in place, every value
    # a solution or the prefix check reports comes from the run that packed
    # the set: none is evaluated again
    instances = [inst for spec, inst in corpus
                 if spec.kind in ("modular", "coverage", "concave_modular")]
    for inst in instances:
        curvature(inst)
        start_item_list(inst)
        inst.oracle.gain_drift(0)
    calls = 0
    evaluate = ValueOracle.evaluate

    def counting(self, ids):
        nonlocal calls
        calls += 1
        return evaluate(self, ids)

    monkeypatch.setattr(ValueOracle, "evaluate", counting)
    for inst in instances:
        for gamma in breakpoints(inst):
            mgreedy(inst, gamma)
            agreedy(inst, gamma)
            execute_policy(inst, make_fit_oracle(gamma))
            check_theorem6(inst, gamma)
    assert calls == 0


def test_policy_refuses_invalid_table_with_given_start_list():
    inst = Instance((Item("a", 1), Item("b", 1)),
                    TableOracle(superadditive_table()))
    with pytest.raises(OracleValidationError):
        execute_policy(inst, make_fit_oracle(2))
