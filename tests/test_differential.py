"""Differential tests: greedy runs (cut where the library's order stops),
start lists and policy traces equal those of the reference loops in
helpers.py, on the whole corpus at every breakpoint and on n=100 coverage
and planted instances past the exhaustive guard.
Generated near ties (repeated densities, zero gains, tables within TOL of
submodular) check that lazy selection keeps the scan's tie-breaks.  Exhaustive
optima equal the reference scan at every capacity, and validation and the
curvature lemma, which read subset values by bitmask, equal the frozenset
scans they replaced."""

import bisect
import itertools
import math
import random
import sys
import threading
from functools import reduce
from operator import or_

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import (EagerFoldState, density_tie_start_list, ex1, ex1_extended,
                     left_sum, memo_values,
                     reference_curvature_lemma, reference_pool,
                     reference_greedy, reference_interval, reference_lemma_draws,
                     reference_opt,
                     reference_policy, reference_scan_oracle,
                     reference_start_list, reference_subset_table,
                     reference_subset_values, reference_value, sneaky_bad_table,
                     superadditive_table, zero_item_supermodular)
from subknap import exact, policy
from subknap.core import (TOL, ConcaveModularOracle, CoverageOracle, Instance,
                          Item, ModularOracle, OracleValidationError, TableOracle,
                          ValueOracle, check_oracle, instance_from_dict,
                          instance_to_dict, item_masks, normalize_instance,
                          singletons, subset_table, validate_oracle)
from subknap.exact import breakpoints, brute_force_opt, check_curvature_lemma
from subknap.generate import KINDS
from subknap.generate import GeneratorSpec, generate_instance
from subknap.greedy import DensityQueue, agreedy, first_items, greedy_sequence, mgreedy
from subknap.policy import (PHASE_GREEDY_PREFIX, PHASE_START_ITEM, FitOracle,
                            execute_policy, indispensability_interval,
                            is_indispensable, make_fit_oracle, start_item_list)
from test_cli import _thirteen_item_table


def _assert_matches_reference(instance, capacities) -> None:
    value_of = memo_values(instance.oracle)
    start = reference_start_list(instance, value_of)
    assert [(e.item_id, e.reason) for e in start_item_list(instance)] == start
    for gamma in capacities:
        run = greedy_sequence(instance, gamma)
        order, marginals, prefix_sizes, k, overflow = reference_greedy(
            instance, gamma, value_of)
        # the run stops at the first prefix size that reaches the next item
        # size above gamma, and holds the whole order where there is none
        larger = min((it.size for it in instance.items if it.size > gamma),
                     default=math.inf)
        cut = next((j + 1 for j, total in enumerate(prefix_sizes) if total >= larger),
                   len(order))
        assert (run.order, run.marginals, run.prefix_sizes, run.k,
                run.overflow_item) == (order[:cut], marginals[:cut],
                                       prefix_sizes[:cut], k, overflow)
        trace = execute_policy(instance, make_fit_oracle(gamma))
        assert trace.to_dict() == reference_policy(instance, gamma, start, value_of)


def test_corpus_matches_reference_at_every_breakpoint(corpus):
    for _, instance in corpus:
        _assert_matches_reference(instance, breakpoints(instance))


def test_density_tie_start_list_matches_reference_at_every_breakpoint():
    # two start entries of one size (test_start_item_list_keeps_equal_sizes)
    instance = density_tie_start_list()
    _assert_matches_reference(instance, breakpoints(instance))


def test_coverage_n100_matches_reference():
    instance = generate_instance(
        GeneratorSpec("coverage", n=100, size_max=100, seed=0))
    total = sum(it.size for it in instance.items)
    _assert_matches_reference(
        instance, sorted({round(k * total / 20) for k in range(1, 21)}))


def test_planted_n100_matches_reference():
    # past the exhaustive guard with a nonempty start list: steps 1 and 2 run
    instance = generate_instance(
        GeneratorSpec("planted", n=100, size_max=100, seed=0))
    assert start_item_list(instance)
    total = sum(it.size for it in instance.items)
    _assert_matches_reference(
        instance, sorted({round(k * total / 20) for k in range(1, 21)}))


# ---------------------------------------------------------------------------
# near ties: the lazy selection must keep the scan's tie-breaks where
# densities repeat, gains saturate at zero, or values sit within TOL

_SIZES = st.integers(1, 4)


@st.composite
def _modular_duplicate_ratios(draw):
    n = draw(st.integers(2, 8))
    sizes = draw(st.lists(_SIZES, min_size=n, max_size=n))
    ratios = draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 1.0]),
                           min_size=n, max_size=n))
    ids = [f"m{k}" for k in range(n)]
    return Instance(tuple(Item(i, s) for i, s in zip(ids, sizes)),
                    ModularOracle({i: r * s for i, r, s in zip(ids, ratios, sizes)}))


@st.composite
def _saturating_coverage(draw):
    n = draw(st.integers(2, 9))
    elements = {"x": 1.0, "y": 0.5, "z": 0.5}
    covers = draw(st.lists(st.sets(st.sampled_from(sorted(elements)), min_size=1),
                           min_size=n, max_size=n))
    sizes = draw(st.lists(_SIZES, min_size=n, max_size=n))
    ids = [f"c{k}" for k in range(n)]
    return Instance(tuple(Item(i, s) for i, s in zip(ids, sizes)),
                    CoverageOracle(elements, dict(zip(ids, map(sorted, covers)))))


@st.composite
def _perturbed_table(draw):
    """A modular or saturating coverage function on up to 5 items, each
    nonempty subset value moved by up to 0.45 TOL, kept only if the table
    still passes check_oracle."""
    base = draw(_modular_duplicate_ratios() | _saturating_coverage())
    ids = sorted(it.id for it in base.items)[:5]
    steps = draw(st.lists(st.integers(-45, 45), min_size=2 ** len(ids),
                          max_size=2 ** len(ids)))
    values = {}
    for mask in range(2 ** len(ids)):
        subset = [i for k, i in enumerate(ids) if mask >> k & 1]
        shift = steps[mask] * TOL / 100 if subset else 0.0
        values[",".join(subset)] = base.value(subset) + shift
    instance = Instance(tuple(it for it in base.items if it.id in ids),
                        TableOracle(values))
    try:
        check_oracle(instance)
    except OracleValidationError:
        assume(False)
    return instance


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_modular_duplicate_ratios() | _saturating_coverage() | _perturbed_table())
def test_near_ties_match_reference_at_every_breakpoint(instance):
    _assert_matches_reference(instance, breakpoints(instance))


@st.composite
def _zero_gain_coverage(draw):
    """Coverage on 2-12 items over 1-5 elements, some of weight zero, so that
    packs leave some items adding nothing and others adding a little, and
    items with empty covers, which normalize_instance would drop."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 5))
    elements = {f"e{k}": draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) for k in range(m)}
    ids = [f"c{k:02d}" for k in range(n)]
    covers = {i: draw(st.lists(st.sampled_from(sorted(elements)), max_size=m)) for i in ids}
    sizes = draw(st.lists(_SIZES, min_size=n, max_size=n))
    return Instance(tuple(Item(i, s) for i, s in zip(ids, sizes)),
                    CoverageOracle(elements, covers))


@settings(max_examples=100, deadline=None)
@given(_zero_gain_coverage(), st.data())
def test_select_matches_scan_through_packs_drops_and_discards(instance, data):
    # the queue sets aside the candidates that add nothing, at construction
    # (on a packed set too) and when a refresh meets one; select must still
    # pick the scan's candidate and float, whether or not the smallest live
    # id is one of them.  Between selections the pool loses the packed item,
    # or is narrowed by one bit, by the mask of the items below a size, or
    # to any sub-mask
    ids = list(instance.ids)
    bit, below = item_masks(instance)
    packed = data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=3))
    pool = sum(bit[i] for i in ids if i not in packed)
    queue = DensityQueue(instance, pool, packed, instance.oracle._value(frozenset(packed)))
    while pool:
        want = queue.scan()
        got = queue.select()
        assert (got[0], got[1].hex()) == (want[0], want[1].hex())
        move = data.draw(st.sampled_from(["pack", "pack", "bit", "below", "sub-mask"]))
        live = instance.subset(pool)
        if move == "pack":
            queue.pack(*got)
            pool &= ~bit[got[0]]
        else:
            if move == "bit":
                pool &= ~bit[data.draw(st.sampled_from(live))]
            elif move == "below":
                pool &= below[data.draw(st.sampled_from(sorted({instance.size(i) for i in live})))]
            else:
                pool = sum(bit[i] for i in data.draw(st.lists(st.sampled_from(live), unique=True)))
            queue.pool = pool
        assert queue.pool == pool


# tie clusters: select settles a cluster of candidates within half a
# tolerance of the largest bound from the heap (rule (c)); at every select
# of a full order it must pick the scan's candidate and float

@st.composite
def _exact_ties(draw):
    """Modular on 2-14 items with weights k/10 and sizes 1..10, as gen draws
    them: many densities tie exactly, or within rounding."""
    n = draw(st.integers(2, 14))
    ids = [f"t{k:02d}" for k in range(n)]
    sizes = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    return Instance(tuple(Item(i, s) for i, s in zip(ids, sizes)),
                    ModularOracle({i: k / 10 for i, k in zip(ids, weights)}))


@st.composite
def _band_edge_densities(draw):
    """Modular on 2-10 items whose densities lie below a common top by 0,
    0.4, 0.6, 1.1 (and 0.5, 0.9, 1.0, 1.5) times TOL times the top's scale,
    inside, just outside and beyond the band of half a tolerance, and
    beyond the tolerance itself."""
    n = draw(st.integers(2, 10))
    top = draw(st.sampled_from([1e-3, 0.5, 1.0, 3.0, 1000.0]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    offsets = draw(st.lists(st.sampled_from(_BAND_OFFSETS + [0.5, 0.9, 1.0, 1.5]),
                            min_size=n, max_size=n))
    return _offset_modular(top, offsets, sizes)


#: below the top, in TOL times its scale: inside the band of half a
#: tolerance, just outside it, and beyond the tolerance
_BAND_OFFSETS = [0.0, 0.4, 0.6, 1.1]


def _offset_modular(top: float, offsets, sizes) -> Instance:
    ids = [f"t{k:02d}" for k in range(len(offsets))]
    scale = TOL * max(1.0, top)
    return Instance(tuple(Item(i, s) for i, s in zip(ids, sizes)),
                    ModularOracle({i: (top - o * scale) * s
                                   for i, s, o in zip(ids, sizes, offsets)}))


@st.composite
def _zero_band_coverage(draw):
    """Coverage on 2-10 items whose gains are 0.0 or within a tolerance of
    it: zero clusters inside the band, with candidates that add nothing
    (covering no new element, or nothing at all) among them."""
    n = draw(st.integers(2, 10))
    m = draw(st.integers(1, 5))
    elements = {f"e{k}": draw(st.sampled_from([0.0, 1e-10, 3e-10, 6e-10, 2e-9, 1.0]))
                for k in range(m)}
    ids = [f"c{k:02d}" for k in range(n)]
    covers = {i: draw(st.lists(st.sampled_from(sorted(elements)), max_size=2)) for i in ids}
    sizes = draw(st.lists(_SIZES, min_size=n, max_size=n))
    return Instance(tuple(Item(i, s) for i, s in zip(ids, sizes)),
                    CoverageOracle(elements, covers))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_exact_ties() | _band_edge_densities() | _zero_band_coverage() | _perturbed_table()
       | _modular_duplicate_ratios(), st.data())
def test_select_matches_scan_on_tie_clusters(instance, data):
    # from a drawn packed set, so the bounds start stale, every select of the
    # order over the rest meets stale members in the band after the packs
    ids = list(instance.ids)
    bit = item_masks(instance)[0]
    packed = data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=2))
    queue = DensityQueue(instance, sum(bit[i] for i in ids if i not in packed), packed,
                         instance.oracle._value(frozenset(packed)))
    _assert_selects_match_scans(queue)


def _assert_selects_match_scans(queue: DensityQueue) -> None:
    while queue:
        want = queue.scan()
        got = queue.select()
        assert (got[0], got[1].hex()) == (want[0], want[1].hex())
        queue.pack(*got)


@pytest.mark.parametrize("top", [0.5, 1.0, 1000.0])
def test_select_matches_scan_at_every_band_offset_in_every_id_order(top):
    # every assignment of the band offsets to four ascending ids: a member
    # of the band whose id is smaller than the top's, with a rival beyond
    # the tolerance of that member but not of the top, must go to the scan
    for offsets in itertools.product(_BAND_OFFSETS, repeat=4):
        instance = _offset_modular(top, offsets, [1] * 4)
        _assert_selects_match_scans(DensityQueue(instance, 0b1111))


def test_coverage_n100_every_eligible_threshold():
    instance = generate_instance(
        GeneratorSpec("coverage", n=100, size_max=100, seed=0))
    sizes = {it.size for it in instance.items}
    _assert_matches_reference(instance, sorted(sizes | {s - 1 for s in sizes} - {0}))


def _bumped_table(weights: dict, pair: str) -> Instance:
    """Modular values, plus 0.9 TOL times the largest weight on every set
    holding both items of pair: packing one of them lets the other's gain
    grow by that much, which the table's scaled tolerance allows."""
    ids = sorted(weights)
    scale = max(weights.values())
    values = {}
    for mask in range(2 ** len(ids)):
        subset = [i for k, i in enumerate(ids) if mask >> k & 1]
        bump = 0.9 * TOL * scale if set(pair) <= set(subset) else 0.0
        values[",".join(subset)] = sum(weights[i] for i in subset) + bump
    return Instance(tuple(Item(i, 1) for i in ids), TableOracle(values))


@pytest.mark.parametrize("weights, pair, order", [
    # a's stale bound trails b by more than TOL, its density on {c} does
    # not, so the scan keeps a where a trusted bound would pick b
    ({"a": 0.5, "b": 0.5 + 1.5 * TOL, "c": 1.0}, "ac", "cab"),
    # on {d}, a, b and c are fresh and within TOL, and the scan starts from
    # a; e's stale bound hides that its density beats a by 1.3 TOL
    ({"a": 0.5, "b": 0.5 + 0.8 * TOL, "c": 0.5 + 0.5 * TOL,
      "d": 1.0, "e": 0.5 + 0.4 * TOL}, "de", "deabc"),
] + [
    # the same two shapes with weights and bump k times larger; densities
    # near 0.5 k tie within 0.5 k TOL, so their offsets are sized to that.
    # A gain may grow by about k TOL per packed item, which only a drift
    # margin scaled with the table's values covers
    pytest.param({i: w * k for i, w in weights.items()}, pair, order,
                 id=f"{pair}-x{k}")
    for k in (10, 100, 1000)
    for weights, pair, order in [
        ({"a": 0.5, "b": 0.5 + TOL, "c": 1.0}, "ac", "cab"),
        ({"a": 0.5, "b": 0.5 + 0.2 * TOL, "c": 0.5 + 0.1 * TOL,
          "d": 1.0, "e": 0.5 + 0.05 * TOL}, "de", "deabc"),
    ]
])
def test_stale_bounds_below_tolerant_table_gains(weights, pair, order):
    instance = _bumped_table(weights, pair)
    gamma = len(weights)
    assert "".join(greedy_sequence(instance, gamma).order) == order \
        == "".join(reference_greedy(instance, gamma)[0])
    _assert_matches_reference(instance, breakpoints(instance))


# ---------------------------------------------------------------------------
# the head-change walk visits item sizes only; the reference walks every
# subset-sum breakpoint

def _assert_intervals_match_reference(instance) -> None:
    for it in instance.items:
        interval = indispensability_interval(instance, it.id)
        got = None if interval is None else (interval.gamma1, interval.gamma2)
        assert got == reference_interval(instance, it.id), it.id


def test_indispensability_intervals_match_breakpoint_walk(corpus):
    for _, instance in corpus:
        _assert_intervals_match_reference(instance)
    _assert_intervals_match_reference(generate_instance(
        GeneratorSpec("planted", n=100, size_max=100, seed=0)))


def test_interval_ends_at_head_change_past_a_subset_sum():
    # b is indispensable at 10 with prefix a; the sum b+e = 11 leaves the
    # head alone, and the denser c reorders it at 12, before a+b = 13 fits
    instance = Instance(
        (Item("a", 3), Item("b", 10), Item("c", 12), Item("e", 1)),
        ModularOracle({"a": 3.0, "b": 7.5, "c": 13.2, "e": 0.1}))
    assert reference_interval(instance, "b") == (10, 12)
    _assert_intervals_match_reference(instance)


# ---------------------------------------------------------------------------
# the start list rules an item out from its threshold's first greedy pick
# (first_items) where that settles it, and builds the order only where it
# does not; near that filter's margin it must still equal the reference

def _assert_first_items_match_orders(instance) -> None:
    firsts = first_items(instance)
    assert sorted(firsts) == sorted({it.size for it in instance.items})
    for size, first in firsts.items():
        run = greedy_sequence(instance, size)
        assert first == run.order[0], size
        assert singletons(instance)[first].hex() == run.values[0].hex(), size


def test_corpus_first_items_match_orders(corpus):
    for _, instance in corpus:
        _assert_first_items_match_orders(instance)


@pytest.mark.parametrize("kind", KINDS)
def test_generated_n100_first_items_match_orders(kind):
    _assert_first_items_match_orders(normalize_instance(generate_instance(
        GeneratorSpec(kind, n=100, size_max=100, seed=0))))


@pytest.mark.parametrize("cover_density", [0.05, 0.1, 0.2])
def test_sparse_coverage_start_lists_match_reference(cover_density):
    # sparse covers leave many items' gains on the first pick near its
    # value, so the filter passes for about a fifth of the items
    for seed in range(3):
        instance = normalize_instance(generate_instance(GeneratorSpec(
            "coverage", n=30, size_max=10, seed=seed, cover_density=cover_density)))
        assert [(e.item_id, e.reason) for e in start_item_list(instance)] \
            == reference_start_list(instance, memo_values(instance.oracle))


@pytest.mark.parametrize("kind", ["modular", "planted"])
def test_three_size_start_lists_match_reference(kind):
    for seed in range(10):
        instance = normalize_instance(generate_instance(
            GeneratorSpec(kind, n=12, size_max=3, seed=seed)))
        _assert_matches_reference(instance, breakpoints(instance))


@st.composite
def _gains_near_prefix_values(draw):
    """Up to six items of sizes 1, 2 and 4, each worth 1, 2 or 4 times a
    scale, moved by a few or a few hundred TOL times the scale; as a modular
    oracle, or as a table with every nonempty subset value moved by up to
    0.45 TOL times the scale, kept only if it passes check_oracle.  Where
    values follow sizes, densities tie within TOL and an item's gain on the
    prefix that fills its size lies within a few TOL of the prefix value;
    where an item is worth the first pick, its gain on that pick lies near
    the filter's margin, which for a table is a few hundred TOL wide."""
    n = draw(st.integers(2, 6))
    scale = draw(st.sampled_from([1.0, 1e3]))
    ids = [f"g{k}" for k in range(n)]
    sizes = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=n, max_size=n))
    weights = {i: scale * (draw(st.sampled_from([1, 2, 4])) + draw(
        st.integers(-5, 5) | st.integers(-300, 300)) * TOL) for i in ids}
    items = tuple(Item(i, s) for i, s in zip(ids, sizes))
    if draw(st.booleans()):
        return Instance(items, ModularOracle(weights))
    steps = draw(st.lists(st.integers(-45, 45), min_size=2 ** n, max_size=2 ** n))
    values = {}
    for mask in range(2 ** n):
        subset = [i for k, i in enumerate(ids) if mask >> k & 1]
        shift = steps[mask] * TOL / 100 * scale if subset else 0.0
        values[",".join(subset)] = left_sum(weights[i] for i in subset) + shift
    instance = Instance(items, TableOracle(values))
    try:
        check_oracle(instance)
    except OracleValidationError:
        assume(False)
    return instance


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_gains_near_prefix_values())
def test_gains_near_prefix_values_match_reference(instance):
    _assert_first_items_match_orders(instance)
    _assert_matches_reference(instance, breakpoints(instance))


def test_gain_grown_past_the_first_pick_keeps_its_item_on_the_start_list():
    # at threshold 10^10, c ties y in density under the absolute tolerance
    # floor and precedes it, so y overflows the prefix {a, c}; its gain there
    # beats f({a, c}) beyond tolerance, while its gain on {a} alone does not
    # beat f({a}).  Only the table's gain drift, which validation allows,
    # keeps the filter from ruling y out
    instance = Instance(
        (Item("a", 1), Item("c", 1), Item("y", 10 ** 10)),
        TableOracle({"": 0.0, "a": 1.0, "c": 2e-10, "y": 1.0, "a,c": 1 + 2e-10,
                     "a,y": 2 + 0.5e-9, "c,y": 1 + 2e-10, "a,c,y": 2 + 1.5e-9}))
    assert [(e.item_id, e.reason) for e in start_item_list(instance)] \
        == reference_start_list(instance, memo_values(instance.oracle)) \
        == [("y", "indispensable")]


def test_first_items_and_start_lists_refuse_invalid_tables():
    for oracle in (TableOracle(superadditive_table()), sneaky_bad_table()):
        items = tuple(Item(i, k + 1) for k, i in enumerate(sorted(oracle.domain)))
        for call in (first_items, start_item_list,
                     lambda instance: is_indispensable(instance, "b")):
            with pytest.raises(OracleValidationError):
                call(Instance(items, oracle))


# ---------------------------------------------------------------------------
# a start entry carries the greedy prefix its item replays once it fits: the
# fitting prefix of the order at its size, which is_indispensable returns as
# a set, and only an indispensable item carries one

def _assert_start_entries_carry_their_prefixes(instance) -> None:
    entries = start_item_list(instance)
    for entry in entries:
        res = is_indispensable(instance, entry.item_id)
        run = greedy_sequence(instance, instance.size(entry.item_id))
        assert entry.greedy_prefix == (run.order[:run.k] if res.indispensable else ()), entry
        assert frozenset(entry.greedy_prefix) == res.greedy_prefix, entry
    assert {e.item_id for e in entries if e.reason == "indispensable"} \
        == {it.id for it in instance.items if is_indispensable(instance, it).indispensable}


def test_corpus_start_entries_carry_their_prefixes(corpus):
    longest = 0  # 3 items at seed 0: orders that a set of the prefix would not show
    for _, instance in corpus:
        _assert_start_entries_carry_their_prefixes(instance)
        longest = max([longest, *(len(e.greedy_prefix) for e in start_item_list(instance))])
    assert longest >= 2


@pytest.mark.parametrize("n", [100, 300])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_start_entries_carry_their_prefixes(n, seed):
    instance = generate_instance(GeneratorSpec("planted", n=n, seed=seed))
    assert start_item_list(instance)
    _assert_start_entries_carry_their_prefixes(instance)


def test_fixture_start_entries_carry_their_prefixes():
    for instance in (ex1(), ex1_extended(), density_tie_start_list()):
        _assert_start_entries_carry_their_prefixes(instance)


# ---------------------------------------------------------------------------
# the exhaustive optimum, cached per capacity and replayed over a band of a
# size-sorted table of folded values, against one scan per capacity over a
# table of one evaluate per subset; every capacity, breakpoint or not

def _assert_opt_matches_reference(instance) -> None:
    table = reference_subset_table(instance)
    totals = sorted({total for _, total, _ in table})
    want = {}
    for gamma in range(1, totals[-1] + 2):
        # every capacity from one subset total to the next admits the same
        # rows, so the reference scans each of those row sets once
        fits = totals[bisect.bisect_right(totals, gamma) - 1]
        if fits not in want:
            want[fits] = reference_opt(table, fits)
        opt = brute_force_opt(instance, gamma)
        assert (opt.items, opt.value, opt.total_size) == want[fits], gamma


def _saturated_near_tie_coverage() -> Instance:
    """Generated coverage n=12 over eight elements whose weights differ by
    0.3 TOL steps: 716 subsets cover every element and tie exactly, and at
    14 of the 74 capacities the best values tie within TOL without being
    equal."""
    data = instance_to_dict(generate_instance(GeneratorSpec(
        "coverage", n=12, seed=0, elements=8, cover_density=0.3)))
    data["objective"]["elements"] = {
        e: 1.0 + k * 0.3 * TOL
        for k, e in enumerate(sorted(data["objective"]["elements"]))}
    return instance_from_dict(data)


def _all_items_normalize_away() -> Instance:
    instance = normalize_instance(Instance(
        (Item("a", 1), Item("b", 2)),
        CoverageOracle({"x": 0.0}, {"a": ["x"], "b": ["x"]})))
    assert instance.n == 0
    return instance


def test_corpus_opt_matches_reference_at_every_capacity(corpus):
    for _, instance in corpus:
        _assert_opt_matches_reference(instance)


_GENERATED = [(kind, n) for kind in KINDS for n in (12, 14, 16)
              if kind != "planted" or n > 12]


@pytest.mark.parametrize("kind, n", _GENERATED,
                         ids=[f"{kind}-n{n}" for kind, n in _GENERATED])
def test_generated_opt_matches_reference_at_every_capacity(kind, n):
    _assert_opt_matches_reference(
        generate_instance(GeneratorSpec(kind, n=n, seed=0)))


def test_near_tie_and_empty_opt_match_reference_at_every_capacity():
    _assert_opt_matches_reference(_saturated_near_tie_coverage())
    _assert_opt_matches_reference(_all_items_normalize_away())


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_modular_duplicate_ratios() | _saturating_coverage() | _perturbed_table())
def test_near_tie_opt_matches_reference_at_every_capacity(instance):
    _assert_opt_matches_reference(instance)


def test_opt_past_int64_matches_reference():
    # sizes past int64 keep Python ints; every subset total, its neighbours
    # and a capacity beyond the total
    big = 2 ** 62
    instance = Instance((Item("a", big), Item("b", big + 1), Item("c", 1)),
                        ModularOracle({"a": 1.0, "b": 2.0, "c": 0.5}))
    table = reference_subset_table(instance)
    totals = {total for _, total, _ in table}
    for gamma in sorted({1, 10 ** 30} | {t + d for t in totals for d in (-1, 0, 1)} - {-1, 0}):
        opt = brute_force_opt(instance, gamma)
        assert (opt.items, opt.value, opt.total_size) == reference_opt(table, gamma)


def _tie_chain_table(n: int) -> Instance:
    """n unit items, the last one z: f(X) = 1 - 0.9 TOL (|X| - 1) if X holds
    z, else 0.5 (and 0 for the empty set).  It passes validation within the
    tolerance.  With everything fitting, the scan takes {z}, then ties walk
    down through {a, z}, {a, b, z}, ... to the whole set, 0.9 TOL (n - 1)
    below the best value: below the first band of the optimum for n >= 6."""
    ids = [chr(ord("a") + k) for k in range(n - 1)] + ["z"]
    values = {}
    for mask in range(1 << n):
        members = [i for k, i in enumerate(ids) if mask >> k & 1]
        if "z" in members:
            values[",".join(members)] = 1.0 - 0.9 * TOL * (len(members) - 1)
        else:
            values[",".join(members)] = 0.5 if members else 0.0
    return Instance(tuple(Item(i, 1) for i in ids), TableOracle(values))


def test_tie_chain_below_the_band_widens_and_matches_reference(monkeypatch):
    instance = _tie_chain_table(7)
    replays = []
    replay = exact._replay
    monkeypatch.setattr(exact, "_replay",
                        lambda masks, values: replays.append(len(masks))
                        or replay(masks, values))
    opt = brute_force_opt(instance, 7)
    assert opt.items == frozenset(instance.ids)
    assert opt.value == 1.0 - 0.9 * TOL * 6
    # the first band, the 57 rows with z and at most four others, stops the
    # chain at {a, b, c, d, z}, 3.6 TOL below the best and so below the
    # band's floor plus twice the tolerance; the wider band holds all 64
    # rows with z and gives the scan's answer
    assert replays == [57, 64]
    _assert_opt_matches_reference(instance)


# ---------------------------------------------------------------------------
# the subset table's values come from folds (parametric oracles) and must
# equal, bit for bit, one call of the oracle's _value per subset

def _assert_table_matches_reference(instance) -> None:
    assert subset_table(instance)[0].tobytes() == reference_subset_values(instance).tobytes()


def test_corpus_tables_match_reference(corpus):
    for _, instance in corpus:
        _assert_table_matches_reference(instance)


@pytest.mark.parametrize("kind", KINDS)
def test_generated_tables_match_reference(kind):
    for seed in (0, 5):
        _assert_table_matches_reference(
            generate_instance(GeneratorSpec(kind, n=14, seed=seed, exponent=0.37)))
    _assert_table_matches_reference(_saturated_near_tie_coverage())


_FOLD_WEIGHTS = (st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-9, 0.1, 0.3, 1.0,
                                  1e15, 1e300])
                 | st.floats(0.0, 1e6))
_EXPONENTS = (st.sampled_from([5e-324, 1e-300, 1e-9, 0.5, 1.0 - 2 ** -53, 1.0])
              | st.floats(1e-9, 1.0))


@st.composite
def _folded_oracle(draw):
    """A modular, concave-modular or coverage objective on 1-9 items with
    drawn weights, zeros and extremes included."""
    n = draw(st.integers(1, 9))
    ids = [f"w{k}" for k in range(n)]
    items = tuple(Item(i, 1 + k % 3) for k, i in enumerate(ids))
    kind = draw(st.sampled_from(["modular", "concave_modular", "coverage"]))
    if kind == "coverage":
        m = draw(st.integers(1, 6))
        elements = {f"e{k}": draw(_FOLD_WEIGHTS) for k in range(m)}
        covers = {i: draw(st.lists(st.sampled_from(sorted(elements)), max_size=m))
                  for i in ids}
        return Instance(items, CoverageOracle(elements, covers))
    weights = {i: draw(_FOLD_WEIGHTS) for i in ids}
    if kind == "modular":
        return Instance(items, ModularOracle(weights))
    return Instance(items, ConcaveModularOracle(weights, draw(_EXPONENTS)))


@settings(max_examples=200, deadline=None)
@given(_folded_oracle())
def test_drawn_tables_match_reference(instance):
    _assert_table_matches_reference(instance)


# ---------------------------------------------------------------------------
# greedy and the policy value a candidate from a fold state carried through
# the packs; its value must be _value's float, and the set-based reference's,
# for every item (packed ones too) after every pack of a random order

def _assert_state_matches_value(instance, rng: random.Random) -> None:
    oracle = instance.oracle
    state = oracle.packed_state()
    packed: frozenset[str] = frozenset()
    order = list(instance.ids)
    rng.shuffle(order)
    for item in order + [None]:
        for i in instance.ids:
            s = packed | {i}
            want = oracle._value(s).hex()
            assert state.value_with(i).hex() == want == reference_value(oracle, s).hex(), \
                (sorted(packed), i)
        if item is not None:
            state.pack(item)
            packed |= {item}


def test_corpus_states_match_value(corpus):
    rng = random.Random(0)
    for _, instance in corpus:
        _assert_state_matches_value(instance, rng)


@pytest.mark.parametrize("kind", ["coverage", "modular", "concave_modular"])
def test_generated_n100_states_match_value(kind):
    instance = generate_instance(GeneratorSpec(kind, n=100, seed=0, exponent=0.37))
    _assert_state_matches_value(instance, random.Random(1))


@settings(max_examples=200, deadline=None)
@given(_folded_oracle(), st.randoms(use_true_random=False))
def test_drawn_states_match_value(instance, rng):
    _assert_state_matches_value(instance, rng)


# ---------------------------------------------------------------------------
# the policy keeps its decisions per instance and fit-answer history, and
# builds its queue only at the first history with none kept; every
# capacity, in shuffled order and with erratic answers mixed in, must give
# the trace of a run that finds no decision kept

class _ErraticFit(FitOracle):
    """Answers as the capacity does, but every third answer flipped: fit
    histories that no capacity gives, kept in the same choice cache."""

    def fits(self, candidate_total_size: int) -> bool:
        return super().fits(candidate_total_size) != (self.query_count % 3 == 0)


def _assert_shared_choices_match_cold(instance, seed: int = 0) -> None:
    # the cold copy shares the oracle; it keeps its own start list and greedy
    # orders, which no choice changes, and drops its kept choices before
    # every run
    cold = Instance(instance.items, instance.oracle)
    runs = [(fit, gamma) for gamma in range(1, instance.total_size(instance.ids) + 2)
            for fit in (FitOracle, _ErraticFit)]
    random.Random(seed).shuffle(runs)
    for fit, gamma in runs:
        cold._cache.pop("policy_tree", None)
        assert execute_policy(instance, fit(gamma)).to_dict() \
            == execute_policy(cold, fit(gamma)).to_dict(), (fit, gamma)


@pytest.mark.shared_state
def test_corpus_shared_choices_match_cold(corpus):
    for _, instance in corpus:
        _assert_shared_choices_match_cold(instance)


@pytest.mark.shared_state
@pytest.mark.parametrize("seed", [0, 1])
def test_coverage_n100_shared_choices_match_cold(seed):
    _assert_shared_choices_match_cold(
        generate_instance(GeneratorSpec("coverage", n=100, seed=seed)), seed)


@pytest.mark.shared_state
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_n100_shared_choices_match_cold(seed):
    # each has one indispensable start item, so runs walk kept decisions of
    # steps 1 and 2 and may first miss inside them
    instance = generate_instance(GeneratorSpec("planted", n=100, seed=seed))
    assert start_item_list(instance)
    _assert_shared_choices_match_cold(instance, seed)


@pytest.mark.shared_state
def test_table_shared_choices_match_cold():
    for weights, pair in [({"a": 0.5, "b": 0.5 + 1.5 * TOL, "c": 1.0}, "ac"),
                          ({"a": 0.5, "b": 0.5 + 0.8 * TOL, "c": 0.5 + 0.5 * TOL,
                            "d": 1.0, "e": 0.5 + 0.4 * TOL}, "de")]:
        _assert_shared_choices_match_cold(_bumped_table(weights, pair))
    _assert_shared_choices_match_cold(_tie_chain_table(7))


@pytest.mark.shared_state
@pytest.mark.parametrize("kind", ["coverage", "planted"])
def test_threads_sharing_the_policy_tree_match_cold(kind):
    # four threads grow one instance's tree at once, each over its own
    # shuffled capacities and fit oracles, switching every microsecond; a
    # decision is published in one assignment, so every trace must still be
    # a cold run's
    instance = normalize_instance(generate_instance(GeneratorSpec(kind, n=100, seed=3)))
    total = instance.total_size(instance.ids)
    runs = [(fit, gamma) for gamma in sorted({max(1, total * k // 60) for k in range(1, 61)})
            for fit in (FitOracle, _ErraticFit)]
    cold = Instance(instance.items, instance.oracle)
    want = {}
    for fit, gamma in runs:
        cold._cache.pop("policy_tree", None)
        want[fit, gamma] = execute_policy(cold, fit(gamma)).to_dict()
    got: dict[int, list] = {}

    def worker(k: int) -> None:
        mine = runs[:]
        random.Random(k).shuffle(mine)
        got[k] = [(run, execute_policy(instance, run[0](run[1])).to_dict()) for run in mine]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == [0, 1, 2, 3]
    for traces in got.values():
        for run, trace in traces:
            assert trace == want[run], run


@pytest.mark.shared_state
def test_concurrent_first_callers_build_the_start_list_once(monkeypatch):
    # four threads run the policy on a fresh instance at once, switching
    # every microsecond; a cache miss builds under the instance's lock, so
    # the start list is built once, with one indispensability test per item
    calls = []
    test = policy.is_indispensable

    def counted(instance, item):
        calls.append(item)
        return test(instance, item)
    monkeypatch.setattr(policy, "is_indispensable", counted)
    base = generate_instance(GeneratorSpec("planted", n=100, seed=3))
    total = base.total_size(base.ids)
    caps = sorted({max(1, total * k // 60) for k in range(1, 61)})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            instance = Instance(base.items, base.oracle)
            calls.clear()
            threads = [threading.Thread(target=lambda: [
                execute_policy(instance, make_fit_oracle(g)) for g in caps]) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert len(calls) == instance.n, trial
    finally:
        sys.setswitchinterval(interval)


class _FlippedFit(FitOracle):
    """Answers as the capacity does, but flips the answers to the queries
    numbered in flips (from 1)."""

    def __init__(self, gamma: int, flips: tuple[int, ...]):
        super().__init__(gamma)
        self._flips = flips

    def fits(self, candidate_total_size: int) -> bool:
        return super().fits(candidate_total_size) != (self.query_count in self._flips)


@pytest.mark.shared_state
def test_flipped_runs_may_try_items_a_miss_took_from_the_pool():
    # c and b share a size on the start list, so after c misses, b is tried
    # although c's miss took it from the pool; a flipped answer then packs
    # it, or packs or drops a prefix item that left the pool the same way
    instance = density_tie_start_list()
    cold = Instance(instance.items, instance.oracle)
    big = 10 ** 6
    flips = [f for r in range(3) for f in itertools.combinations(range(1, 6), r)]
    for gamma in (1, 2, 3, big - 1, big, big + 1, big + 3, 2 * big, 2 * big + 3):
        for flipped in flips:
            cold._cache.pop("policy_tree", None)
            trace = execute_policy(instance, _FlippedFit(gamma, flipped))
            assert trace.to_dict() == execute_policy(cold, _FlippedFit(gamma, flipped)).to_dict()
            _assert_packed_float(instance.oracle, trace.packed.items, trace.packed.value)
            assert trace.packed.total_size == instance.total_size(trace.packed.items)


def _decided_pools(instance):
    """(node's pool, reference_pool of the attempts that lead to it) for
    every node of the instance's policy tree that holds a decision, and the
    phases of the misses that lead to one."""
    pairs, missed = [], set()
    stack = [(instance._cache["policy_tree"], [])]
    while stack:
        node, path = stack.pop()
        if node.decision is None:
            continue
        pairs.append((instance.subset(node.pool), reference_pool(instance, path)))
        if path and not path[-1].fitted:
            missed.add(path[-1].phase)
        if node.decision:
            records, children = node.decision.attempts, node.decision.children
            stack += [(child, path + [record]) for record, child in zip(records, children)]
    return pairs, missed


@pytest.mark.shared_state
@pytest.mark.parametrize("kind, size_max, seed", [("coverage", 100, 0), ("planted", 10, 0),
                                                  ("planted", 10, 1), ("planted", 10, 2)])
def test_node_pools_match_the_pools_attempts_leave(kind, size_max, seed):
    # every decided node's pool, derived from its parent's by one fit or
    # miss, must be the pool read from the attempts that lead to it: on the
    # benchmark's 200-capacity grid and, where the planted start item (size
    # 4 to 7) and its prefix miss, every capacity below 30; with every third
    # answer flipped too
    instance = normalize_instance(generate_instance(
        GeneratorSpec(kind, n=100, size_max=size_max, seed=seed)))
    total = instance.total_size(instance.ids)
    grid = {max(1, round(k * total / 200)) for k in range(1, 201)}
    for gamma in sorted(grid | set(range(1, 30))):
        for fit in (FitOracle, _ErraticFit):
            execute_policy(instance, fit(gamma))
    pairs, missed = _decided_pools(instance)
    assert len(pairs) > 200
    for got, want in pairs:
        assert got == want
    if kind == "planted":  # their start lists are not empty
        assert {PHASE_START_ITEM, PHASE_GREEDY_PREFIX} <= missed


# ---------------------------------------------------------------------------
# a fold state keeps only its covered mask and folds every value from rank
# 0; every float must be the one a state with an eager prefix table gives,
# and a queue values a candidate that adds nothing at its packed value,
# which must be value_with's float

@settings(max_examples=200, deadline=None)
@given(_folded_oracle() | _saturating_coverage() | _zero_gain_coverage(), st.data())
def test_lazy_fold_state_matches_eager(instance, data):
    oracle, ids = instance.oracle, list(instance.ids)
    packed = data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=3))
    lazy, eager = oracle.packed_state(packed), EagerFoldState(oracle, packed)
    for move, item in data.draw(st.lists(st.tuples(
            st.sampled_from(["pack", "value_with", "value_with", "adds_nothing"]),
            st.sampled_from(ids)), max_size=25)):
        if move == "pack":
            lazy.pack(item)
            eager.pack(item)
            packed.append(item)
        elif move == "value_with":
            assert lazy.value_with(item).hex() == eager.value_with(item).hex(), item
        else:
            assert lazy.adds_nothing(item) == eager.adds_nothing(item), item
    packed = sorted(set(packed))
    bit = item_masks(instance)[0]
    pool = sum(bit[i] for i in ids if i not in packed)
    queue = DensityQueue(instance, pool, packed, oracle._value(frozenset(packed)))
    state = EagerFoldState(oracle, packed)
    while queue:
        item, value = queue.select()
        assert value.hex() == state.value_with(item).hex(), (item, state.adds_nothing(item))
        queue.pack(item, value)
        state.pack(item)


# ---------------------------------------------------------------------------
# greedy runs and the policy keep the value of each set they pack, and
# solutions and checkers read those values in place of valuing the set again:
# each must be the float a fresh _value of the set gives, and the reference's

def _assert_packed_float(oracle, items, value: float) -> None:
    s = frozenset(items)
    assert value.hex() == oracle._value(s).hex() == reference_value(oracle, s).hex(), \
        sorted(s)


def _assert_run_values_match_value(instance, capacities) -> None:
    oracle = instance.oracle
    for size in sorted({it.size for it in instance.items}):  # every threshold
        run = greedy_sequence(instance, size)
        for j, value in enumerate(run.values, start=1):
            _assert_packed_float(oracle, run.order[:j], value)
    for gamma in capacities:
        for solution in (mgreedy(instance, gamma), agreedy(instance, gamma),
                         execute_policy(instance, make_fit_oracle(gamma)).packed):
            _assert_packed_float(oracle, solution.items, solution.value)
            assert solution.total_size == sum(map(instance.size, solution.items))


def _every_capacity(instance) -> range:
    return range(1, instance.total_size(instance.ids) + 2)


def test_corpus_run_values_match_value(corpus):
    for _, instance in corpus:
        _assert_run_values_match_value(instance, _every_capacity(instance))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["coverage", "modular", "concave_modular"])
def test_generated_n100_run_values_match_value(kind, seed):
    instance = generate_instance(
        GeneratorSpec(kind, n=100, size_max=100, seed=seed, exponent=0.37))
    total = instance.total_size(instance.ids)
    _assert_run_values_match_value(
        instance, sorted({max(1, round(k * total / 200)) for k in range(1, 201)}))


def test_table_run_values_match_value():
    for weights, pair in [({"a": 0.5, "b": 0.5 + 1.5 * TOL, "c": 1.0}, "ac"),
                          ({"a": 0.5, "b": 0.5 + 0.8 * TOL, "c": 0.5 + 0.5 * TOL,
                            "d": 1.0, "e": 0.5 + 0.4 * TOL}, "de")]:
        for k in (1, 10, 1000):
            instance = _bumped_table({i: w * k for i, w in weights.items()}, pair)
            _assert_run_values_match_value(instance, _every_capacity(instance))
    instance = _tie_chain_table(7)
    _assert_run_values_match_value(instance, _every_capacity(instance))


# ---------------------------------------------------------------------------
# validation and the curvature lemma name subsets by bitmask and read their
# values from the subset table; the frozenset scans they replaced must give
# equal reports, witnesses, slacks and counts

def _outcome(check, *args):
    """What a check returns, or the type and text of the error it raises."""
    try:
        result = check(*args)
    except ValueError as exc:  # includes OracleValidationError
        return type(exc), str(exc)
    return result.to_dict()


def _assert_checks_match_reference(instance, trials: int = 500) -> None:
    assert validate_oracle(instance) == reference_scan_oracle(
        instance.oracle, list(instance.ids))
    assert _outcome(check_curvature_lemma, instance, trials) \
        == _outcome(reference_curvature_lemma, instance, trials)


def test_corpus_checks_match_reference(corpus):
    for _, instance in corpus:
        _assert_checks_match_reference(instance)


_CHECKED = [(kind, n, seed) for kind in ("modular", "coverage", "concave_modular")
            for n in (11, 12, 13, 14) for seed in (0, 3)]


@pytest.mark.parametrize("kind, n, seed", _CHECKED,
                         ids=[f"{kind}-n{n}-s{seed}" for kind, n, seed in _CHECKED])
def test_generated_checks_match_reference(kind, n, seed):
    _assert_checks_match_reference(
        generate_instance(GeneratorSpec(kind, n=n, seed=seed)))


def test_table_checks_match_reference():
    for instance in (
            Instance((Item("a", 1), Item("b", 2)), TableOracle(superadditive_table())),
            Instance((Item("a", 1), Item("b", 2), Item("c", 3)), sneaky_bad_table()),
            zero_item_supermodular(), _thirteen_item_table()):
        _assert_checks_match_reference(instance)


class _EvenSizeBonus(ValueOracle):
    """|S|, plus 1.5 when |S| is even and S is neither empty nor everything:
    neither monotone nor submodular on base sets of even size, while the
    curvature is 0, so the first violation either check finds depends on
    what it draws."""

    def _value(self, s: frozenset[str]) -> float:
        k = len(s)
        return k + (1.5 if k % 2 == 0 and 0 < k < len(self.domain) else 0.0)


def test_unchecked_supermodular_oracle_matches_reference():
    ids = [f"u{k:02d}" for k in range(14)]
    instance = Instance(tuple(Item(i, 1 + k % 4) for k, i in enumerate(ids)),
                        _EvenSizeBonus(ids))
    report = validate_oracle(instance)
    assert (report.mode, report.monotone, report.submodular) == ("exhaustive", False, False)
    assert check_curvature_lemma(instance, 2000).failures
    _assert_checks_match_reference(instance)


class _HighBaseDefect(ValueOracle):
    """|S| on h00..h(n-1), but for a defect at the base set H of the `held`
    highest items, which holds neither h00 nor any other low item: raised
    by 1.5 on H itself (monotonicity fails at H, first with h00), or
    lowered by 0.5 on every proper superset of H (monotone, but
    submodularity fails at H, first with the pair h00, h01, and at no lower
    base set)."""

    def __init__(self, n: int, held: int, defect: str):
        ids = [f"h{k:02d}" for k in range(n)]
        super().__init__(ids)
        self._high, self._defect = frozenset(ids[n - held:]), defect

    def _value(self, s: frozenset[str]) -> float:
        if self._defect == "monotone":
            return len(s) + (1.5 if s == self._high else 0.0)
        return len(s) - (0.5 if s > self._high else 0.0)


_HIGH_BASES = [(n, held, defect) for n, held in ((11, 2), (12, 5), (13, 3), (14, 1))
               for defect in ("monotone", "submodular")]


@pytest.mark.parametrize("n, held, defect", _HIGH_BASES,
                         ids=[f"{defect}-n{n}-held{held}" for n, held, defect in _HIGH_BASES])
def test_first_violation_at_a_high_base_set_matches_reference(n, held, defect):
    # past the first 1024 base sets, with every item's zero bit put back
    # into the flat index of its first hit
    oracle = _HighBaseDefect(n, held, defect)
    instance = Instance(tuple(Item(i, 1 + k % 3) for k, i in enumerate(sorted(oracle.domain))),
                        oracle)
    first = validate_oracle(instance).first_violation
    assert first.kind == defect and first.subset == tuple(sorted(oracle._high))
    assert first.items == (("h00",) if defect == "monotone" else ("h00", "h01"))
    _assert_checks_match_reference(instance)


# ---------------------------------------------------------------------------
# random tables around the exhaustive limit of the curvature lemma: exact
# ties, near ties, signed zeros, and supermodular or non-monotone defects.
# Reports must equal the reference down to the sign of a zero worst slack

_TABLE_WEIGHTS = st.sampled_from([0.25, 0.5, 1.0, 3.0, 0.1, 0.3, 2e-9])


@st.composite
def _random_table(draw):
    """A modular or three-element coverage table on 1-10 items (8 and 9
    drawn more often), each nonempty subset shifted by up to `shift` TOL;
    then some subsets are set to 0.0 or -0.0 or moved by 1e-9 or 1."""
    n = draw(st.sampled_from([8, 9]) | st.integers(1, 10))
    weights = draw(st.lists(_TABLE_WEIGHTS, min_size=n, max_size=n))
    elements = draw(st.lists(_TABLE_WEIGHTS, min_size=3, max_size=3))
    covers = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
    coverage = draw(st.booleans())
    shift = draw(st.sampled_from([0.0, 0.0, 0.5, 2.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    values = []
    for mask in range(1 << n):
        members = [k for k in range(n) if mask >> k & 1]
        if coverage:
            covered = reduce(or_, (covers[k] for k in members), 0)
            value = left_sum(elements[e] for e in range(3) if covered >> e & 1)
        else:
            value = left_sum(weights[k] for k in members)
        values.append(value + rng.randint(-2, 2) * shift * TOL if members else 0.0)
    for _ in range(draw(st.integers(0, 3))):
        mask = rng.randrange(1, 1 << n)
        values[mask] = draw(st.sampled_from(
            [0.0, -0.0, values[mask] + 1e-9, values[mask] - 1.0, values[mask] + 1.0]))
    ids = [f"t{k}" for k in range(n)]
    table = {",".join(ids[k] for k in range(n) if mask >> k & 1): value
             for mask, value in enumerate(values)}
    return Instance(tuple(Item(i, 1 + k % 3) for k, i in enumerate(ids)),
                    TableOracle(table))


def _lemma_outcome(check, instance, trials: int, seed: int = 0):
    """A curvature-lemma report as to_dict() and repr(worst_slack), which
    tells 0.0 from -0.0, or the type and text of the error raised."""
    try:
        report = check(instance, trials, seed)
    except ValueError as exc:
        return type(exc), str(exc)
    return report.to_dict(), repr(report.worst_slack)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_random_table())
def test_random_tables_match_reference(instance):
    assert validate_oracle(instance) == reference_scan_oracle(
        instance.oracle, list(instance.ids))
    assert _lemma_outcome(check_curvature_lemma, instance, 100) \
        == _lemma_outcome(reference_curvature_lemma, instance, 100)


def _signed_zero_table(rule: int) -> Instance:
    """Nine items worth 1.0 alone and 0.0 or -0.0 together, so c = 1 and
    a few sampled trials can leave a zero of either sign as the worst slack."""
    ids = [f"z{k}" for k in range(9)]
    values = {}
    for mask in range(1 << 9):
        members = [ids[k] for k in range(9) if mask >> k & 1]
        zero = -0.0 if (mask * 2654435761 + rule) % 3 == 0 else 0.0
        values[",".join(members)] = 1.0 if len(members) == 1 else zero
    return Instance(tuple(Item(i, 1) for i in ids), TableOracle(values))


def test_signed_zero_worst_slack_matches_reference():
    seen = set()
    for rule in range(4):
        instance = _signed_zero_table(rule)
        for trials in (1, 2):
            for seed in range(3):
                want = _lemma_outcome(reference_curvature_lemma, instance, trials, seed)
                assert _lemma_outcome(check_curvature_lemma, instance, trials, seed) == want
                seen.add(want[1])
    assert {"0.0", "-0.0"} <= seen


@pytest.mark.parametrize("n", [9, 13, 17])
def test_sampled_lemma_draws_and_reports_match_reference(n):
    # the draws fill preallocated arrays with the rng calls of the growing
    # list they replaced, so every report stays the same
    instance = generate_instance(GeneratorSpec("coverage", n=n, seed=n))
    for seed in (0, 1, 7):
        for trials in (1, 13, 200):
            ml_j, draws = exact._lemma_draws(random.Random(seed), n, trials)
            want_j, want_draws = reference_lemma_draws(n, trials, seed)
            assert ml_j.tolist() == want_j.tolist()
            assert draws.tobytes() == want_draws.tobytes()
            assert _lemma_outcome(check_curvature_lemma, instance, trials, seed) \
                == _lemma_outcome(reference_curvature_lemma, instance, trials, seed)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_sampled_lemma_in_blocks_matches_reference(monkeypatch, block):
    # samples are checked in blocks drawn in turn from one Random: the
    # failures, their order, the worst slack (its sign at zero too) and the
    # counts must be those of the reference's single pass
    monkeypatch.setattr(exact, "LEMMA_BLOCK_TRIALS", block)
    cases = [(generate_instance(GeneratorSpec("coverage", n=13, seed=13)), 200)]
    cases += [(_signed_zero_table(rule), 7) for rule in range(4)]
    failing = 0
    for instance, trials in cases:
        for seed in (0, 1, 2):
            want = _lemma_outcome(reference_curvature_lemma, instance, trials, seed)
            assert _lemma_outcome(check_curvature_lemma, instance, trials, seed) == want
            failing += bool(want[0]["failures"])
    assert failing


@pytest.fixture
def cold_lemma_cases():
    """An empty cache of the curvature lemma's cases, which outlives every
    instance and test."""
    exact._lemma_cases.cache_clear()
    yield
    exact._lemma_cases.cache_clear()


def test_default_cli_trials_are_one_lemma_block(monkeypatch, cold_lemma_cases):
    draws = []
    lemma_draws = exact._lemma_draws

    def recording(rng, n, trials):
        draws.append(trials)
        return lemma_draws(rng, n, trials)

    monkeypatch.setattr(exact, "_lemma_draws", recording)
    check_curvature_lemma(generate_instance(GeneratorSpec("modular", n=9, seed=0)), 2000)
    assert draws == [2000]
    # the block depends on no instance: a second instance draws nothing
    check_curvature_lemma(generate_instance(GeneratorSpec("coverage", n=9, seed=1)), 2000)
    assert draws == [2000]


def _cold_warm_reference(instance, trials: int, seed: int, want) -> None:
    """The lemma's report as the cache left it, from a cleared cache and
    again from the cache that built, each equal to the reference's."""
    warm = _lemma_outcome(check_curvature_lemma, instance, trials, seed)
    exact._lemma_cases.cache_clear()
    cold = _lemma_outcome(check_curvature_lemma, instance, trials, seed)
    again = _lemma_outcome(check_curvature_lemma, instance, trials, seed)
    assert warm == cold == again == want, (instance.n, trials, seed)


def test_cached_exhaustive_lemma_cases_match_fresh(cold_lemma_cases):
    # the exhaustive cases are kept under (n,) alone: every seed and trial
    # count of every instance on n items reads them
    for n in range(1, 9):
        for kind, trials, seed in (("coverage", 100, 0), ("modular", 7, 3)):
            instance = generate_instance(GeneratorSpec(kind, n=n, seed=n))
            want = _lemma_outcome(reference_curvature_lemma, instance, trials, seed)
            _cold_warm_reference(instance, trials, seed, want)


@pytest.mark.parametrize("n", [9, 13, 22])
def test_cached_sampled_lemma_cases_match_fresh(monkeypatch, cold_lemma_cases, n):
    # the first block is kept under (n, seed, its trial count) with the
    # state of its Random; later blocks are drawn from that state, so one
    # seed is one stream whatever the block size and whatever keys the cache
    # holds (trials=1 in blocks of 2 000 keeps the key that trials=13 in
    # blocks of 1 starts from).  Small blocks run fewer trials: every block
    # is a pass over the arrays
    instance = generate_instance(GeneratorSpec("coverage", n=n, seed=n))
    want = {}
    for block, trial_counts in ((exact.LEMMA_BLOCK_TRIALS, (1, 13, 2000, 2001, 4500)),
                                (1, (1, 13, 200)), (3, (1, 13, 200)), (64, (1, 13, 200))):
        monkeypatch.setattr(exact, "LEMMA_BLOCK_TRIALS", block)
        for seed in (0, 1, 7):
            for trials in trial_counts:
                if (trials, seed) not in want:
                    want[trials, seed] = _lemma_outcome(reference_curvature_lemma,
                                                        instance, trials, seed)
                _cold_warm_reference(instance, trials, seed, want[trials, seed])


def test_cached_lemma_cases_are_read_only(cold_lemma_cases):
    for cases, _ in (exact._lemma_cases(8), exact._lemma_cases(9, 0, 13)):
        arrays = {name: v for name, v in vars(cases).items() if isinstance(v, np.ndarray)}
        assert {a.dtype for name, a in arrays.items() if name not in ("in_b", "family")} \
            == {np.dtype(np.int32)}
        assert (arrays["in_b"].dtype, arrays["family"].dtype) \
            == (np.dtype(bool), np.dtype(np.int8))
        for name, array in arrays.items():
            with pytest.raises(ValueError):
                array.flat[0] = 0


@pytest.mark.shared_state
def test_lemma_cases_shared_by_threads_match_reference(cold_lemma_cases):
    # four threads check instances that share the cached cases, from a
    # cleared cache, switching every microsecond: a key missed by two of them
    # at once is built twice from the same inputs, and every report must
    # still be the reference's
    runs = [(generate_instance(GeneratorSpec(kind, n=n, seed=s)), trials, seed)
            for kind in ("modular", "coverage") for n, s in ((7, 1), (8, 2), (9, 3), (13, 4))
            for trials, seed in ((13, 0), (2001, 1))]
    want = [_lemma_outcome(reference_curvature_lemma, *run) for run in runs]
    exact._lemma_cases.cache_clear()
    got: dict[int, list] = {}

    def worker(k: int) -> None:
        mine = list(range(len(runs)))
        random.Random(k).shuffle(mine)
        got[k] = [(r, _lemma_outcome(check_curvature_lemma, *runs[r])) for r in mine]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == [0, 1, 2, 3]
    for outcomes in got.values():
        for r, outcome in outcomes:
            assert outcome == want[r], r
