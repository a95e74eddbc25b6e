"""Shared fixtures: hand-checkable instances and the seeded corpus."""

import bisect
import math
import random
from functools import reduce
from itertools import accumulate, combinations, compress
from operator import add, mul, or_

import numpy as np

from subknap.core import (ConcaveModularOracle, CoverageOracle, Instance, Item,
                          ModularOracle, TableOracle, ValidationReport,
                          ValueOracle, Violation, _bit_flags, curvature,
                          size_breakpoints, sorted_ids, value_gt, values_close)
from subknap.exact import MAX_CURVATURE_EXHAUSTIVE, CheckReport, _Recorder
from subknap.generate import GeneratorSpec
from subknap.policy import PHASE_GREEDY_PREFIX, PolicyAttempt, is_indispensable


def left_sum(terms) -> float:
    """Float sum in iteration order, as sum() was before 3.12 compensated it."""
    return reduce(add, terms, 0.0)


CORPUS_KINDS = ("modular", "coverage", "concave_modular", "planted")
SEEDS_PER_KIND = 50


def ex1() -> Instance:
    """Modular pair where the big item is indispensable."""
    return Instance((Item("a", 1), Item("b", 2)),
                    ModularOracle({"a": 1.0, "b": 1.9}))


def ex2() -> Instance:
    """Coverage pair with curvature one (the big item swallows the small)."""
    return Instance((Item("1", 1), Item("2", 3)),
                    CoverageOracle({"x": 1.0, "y": 1.0},
                                   {"1": ["x"], "2": ["x", "y"]}))


def ex3() -> Instance:
    """Coverage pair where mgreedy beats agreedy at capacity 2."""
    return Instance((Item("a", 1), Item("b", 2)),
                    CoverageOracle({"x": 1.0, "y": 0.9},
                                   {"a": ["x"], "b": ["x", "y"]}))


def ex1_extended() -> Instance:
    """ex1 plus a dominant size-3 item that reshuffles larger greedy orders."""
    return Instance((Item("a", 1), Item("b", 2), Item("c", 3)),
                    ModularOracle({"a": 1.0, "b": 1.9, "c": 10.0}))


def superadditive_table() -> dict:
    """Non-submodular two-item table: the pair is worth more than its parts."""
    return {"": 0.0, "a": 1.0, "b": 1.0, "a,b": 3.0}


def zero_item_supermodular() -> Instance:
    """Supermodular table whose item a is worth 0 alone but 1 next to b, so
    dropping a as a zero-valued item would lose the optimum {a, b}."""
    return Instance((Item("a", 1), Item("b", 2)),
                    TableOracle({"": 0.0, "a": 0.0, "b": 1.0, "a,b": 2.0}))


def density_tie_start_list() -> Instance:
    """Modular instance whose start list holds two entries of one size: b
    and c tie in density within 1e-9, so b leads its own order and joins as
    first_greedy, while c's marginal beats b's value by 8e-4, more than the
    tolerance at 5e5, so c joins as indispensable."""
    return Instance((Item("p", 1), Item("q", 2), Item("b", 10 ** 6), Item("c", 10 ** 6)),
                    ModularOracle({"p": 0.4, "q": 0.6, "b": 500000.0, "c": 500000.0008}))


def sneaky_bad_table() -> TableOracle:
    """Non-submodular table whose curvature formula still lands in [0, 1].

    The pairwise condition fails on {a, b} while every marginal-vs-singleton
    ratio stays between 0 and 1, so curvature-based checkers can run and must
    report the violation themselves.
    """
    return TableOracle({
        "": 0.0, "a": 1.0, "b": 1.0, "c": 1.0,
        "a,b": 2.5, "a,c": 2.0, "b,c": 2.0, "a,b,c": 3.0,
    })


def corpus_specs() -> list[GeneratorSpec]:
    specs = []
    for kind in CORPUS_KINDS:
        for seed in range(SEEDS_PER_KIND):
            kwargs = dict(kind=kind, n=4 + seed % 7, size_max=8, seed=seed)
            if kind == "concave_modular":
                kwargs["exponent"] = (seed % 10 + 1) / 10.0
            specs.append(GeneratorSpec(**kwargs))
    return specs


def enumerate_opt(instance: Instance, gamma: int) -> tuple[frozenset, float]:
    """Reference optimum by plain combination scanning, independent of the
    library's enumeration (used to cross-check brute_force_opt)."""
    ids = sorted(it.id for it in instance.items)
    best_ids: tuple = ()
    best_val = 0.0
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            if sum(instance.size(i) for i in combo) > gamma:
                continue
            v = instance.value(combo)
            if v > best_val + 1e-12:
                best_ids, best_val = combo, v
    return frozenset(best_ids), best_val


# ---------------------------------------------------------------------------
# reference implementations: the greedy selection loop and the policy as they
# were written before both shared one density-selection helper; the
# differential tests require identical results from the library

def reference_greedy(instance: Instance, gamma: int, value_of=None) -> tuple:
    """(order, marginals, prefix_sizes, k, overflow_item) of the greedy run.
    value_of (oracle.evaluate by default) values every set; callers that run
    many references on one instance pass one memo_values for all of them."""
    value_of = value_of or instance.oracle.evaluate
    remaining = sorted((it.id for it in instance.items if it.size <= gamma))
    packed: set[str] = set()
    packed_value = 0.0
    order: list[str] = []
    marginals: list[float] = []
    prefix_sizes: list[int] = []
    total = 0

    while remaining:
        best_id = None
        best_density = 0.0
        best_value = 0.0
        for iid in remaining:
            v = value_of(packed | {iid})
            density = (v - packed_value) / instance.size(iid)
            if best_id is None or value_gt(density, best_density):
                best_id, best_density, best_value = iid, density, v
        remaining.remove(best_id)
        packed.add(best_id)
        order.append(best_id)
        marginals.append(best_value - packed_value)
        total += instance.size(best_id)
        prefix_sizes.append(total)
        packed_value = best_value

    k = bisect.bisect_right(prefix_sizes, gamma)
    return (tuple(order), tuple(marginals), tuple(prefix_sizes), k,
            order[k] if k < len(order) else None)


def reference_start_list(instance: Instance, value_of) -> list[tuple[str, str]]:
    """(item id, reason) start entries, indispensability decided inline."""
    entries = []
    for it in sorted(instance.items, key=lambda it: (it.size, it.id)):
        order, marginals, _, k, overflow = reference_greedy(instance, it.size, value_of)
        if (overflow == it.id and k >= 1
                and value_gt(marginals[k], value_of(order[:k]))):
            entries.append((it.id, "indispensable"))
        elif entries and order[0] == it.id:
            entries.append((it.id, "first_greedy"))
    return entries


def reference_policy(instance: Instance, gamma: int,
                     start_list: list[tuple[str, str]], value_of) -> dict:
    """The oblivious policy at capacity gamma, in PolicyTrace.to_dict form."""
    queries = 0

    def fits(total: int) -> bool:
        nonlocal queries
        queries += 1
        return total <= gamma

    pool = {it.id for it in instance.items}
    packed: list[str] = []
    packed_size = 0
    attempts: list[dict] = []
    prefix_order: tuple[str, ...] = ()

    for item_id, reason in reversed(start_list):
        size = instance.size(item_id)
        ok = fits(packed_size + size)
        attempts.append({"item": item_id, "fitted": ok, "phase": "start_item"})
        if ok:
            packed.append(item_id)
            packed_size += size
            pool.discard(item_id)
            if reason == "indispensable":
                order, _, _, k, _ = reference_greedy(instance, size, value_of)
                prefix_order = order[:k]
            break
        pool = {i for i in pool if instance.size(i) < size}

    for iid in prefix_order:
        size = instance.size(iid)
        ok = fits(packed_size + size)
        attempts.append({"item": iid, "fitted": ok, "phase": "greedy_prefix"})
        if ok:
            packed.append(iid)
            packed_size += size
        pool.discard(iid)

    while pool:
        packed_set = frozenset(packed)
        packed_value = value_of(packed_set)
        best_id = None
        best_density = 0.0
        for iid in sorted(pool):
            gain = value_of(packed_set | {iid}) - packed_value
            density = gain / instance.size(iid)
            if best_id is None or value_gt(density, best_density):
                best_id, best_density = iid, density
        size = instance.size(best_id)
        ok = fits(packed_size + size)
        attempts.append({"item": best_id, "fitted": ok, "phase": "main_greedy"})
        if ok:
            packed.append(best_id)
            packed_size += size
            pool.discard(best_id)
        else:
            pool = {i for i in pool if instance.size(i) < size}

    return {
        "attempts": attempts,
        "packed": list(sorted_ids(packed)),
        "value": instance.value(packed),
        "total_size": instance.total_size(packed),
        "query_count": queries,
    }


def reference_pool(instance: Instance, attempts: list[PolicyAttempt]) -> tuple[str, ...]:
    """Ascending ids of the pool a policy run leaves after its attempts, as
    execute_policy derived it from them before each node held its pool: no
    packed item, no step-2 item that missed, and nothing as large as an item
    that missed in step 1 or 3."""
    packed = {a.item_id for a in attempts if a.fitted}
    dropped = {a.item_id for a in attempts
               if not a.fitted and a.phase == PHASE_GREEDY_PREFIX}
    failed = min((instance.size(a.item_id) for a in attempts
                  if not a.fitted and a.phase != PHASE_GREEDY_PREFIX), default=math.inf)
    return tuple(i for i in instance.ids
                 if i not in packed and i not in dropped and instance.size(i) < failed)


class EagerFoldState:
    """A folded oracle's packed state with an eagerly kept prefix table:
    prefix[r] is the left fold of the covered weights below rank r, and
    every pack that covers a new rank refolds the table from that rank at
    once.  A candidate's value is the prefix up to its lowest new rank, with
    the fold continued from there over the covered and the new ranks."""

    def __init__(self, oracle, items=()):
        self._oracle = oracle
        self._weights, self._covers = oracle._weight_of_rank, oracle._ranks_of
        self._covered = 0
        self._prefix = [0.0] * (len(self._weights) + 1)
        self._cover(reduce(or_, map(self._covers.__getitem__, items), 0))

    def value_with(self, item_id: str) -> float:
        covered = self._covered
        new = self._covers[item_id] & ~covered
        if not new:
            return self._oracle._finish(self._prefix[-1])
        low = (new & -new).bit_length() - 1
        flags = _bit_flags((covered | new) >> low)
        return self._oracle._finish(
            reduce(add, compress(self._weights[low:], flags), self._prefix[low]))

    def adds_nothing(self, item_id: str) -> bool:
        return not self._covers[item_id] & ~self._covered

    def pack(self, item_id: str) -> None:
        self._cover(self._covers[item_id] & ~self._covered)

    def _cover(self, new: int) -> None:
        if new:
            low = (new & -new).bit_length() - 1
            self._covered |= new
            flags = _bit_flags((self._covered | 1 << len(self._weights)) >> low)
            self._prefix[low:] = accumulate(map(mul, self._weights[low:], flags), add,
                                            initial=self._prefix[low])


def reference_subset_table(instance: Instance) -> tuple:
    """(sorted ids, total size, value) for every subset, each value one
    oracle.evaluate, as the exhaustive optimum built its table before the
    table became the one store of subset values."""
    ids = list(instance.ids)
    sizes = [instance.size(i) for i in ids]
    value_of = instance.oracle.evaluate
    rows = []
    for mask in range(1 << len(ids)):
        members = tuple(ids[i] for i in range(len(ids)) if mask >> i & 1)
        total = sum(sizes[i] for i in range(len(ids)) if mask >> i & 1)
        rows.append((members, total, value_of(members)))
    return tuple(rows)


def reference_value(oracle: ValueOracle, ids) -> float:
    """The value of a set as the oracles computed it before coverage,
    modular and concave-modular values became folds over masks of element
    ranks: a left sum over the sorted ids, or over the sorted elements that
    a Python set of covered elements collects; any other oracle's _value."""
    if isinstance(oracle, CoverageOracle):
        covered = set()
        for i in ids:
            covered.update(oracle._covers[i])
        return left_sum(oracle._element_weights[e] for e in sorted(covered))
    if isinstance(oracle, (ModularOracle, ConcaveModularOracle)):
        total = left_sum(oracle._weights[i] for i in sorted(ids))
        if isinstance(oracle, ConcaveModularOracle):
            return total ** oracle._exponent
        return total
    return oracle._value(frozenset(ids))


def reference_subset_values(instance: Instance) -> np.ndarray:
    """The value array of core.subset_table as it was built before it was
    folded: one reference_value per subset, which was the oracle's uncached
    _value before that became a fold too."""
    oracle, subset, count = instance.oracle, instance.subset, 1 << instance.n
    return np.fromiter((reference_value(oracle, subset(m)) for m in range(count)),
                       dtype=np.float64, count=count)


def reference_opt(table: tuple, gamma: int) -> tuple:
    """(items, value, total_size) of the optimum at gamma: one scan of a
    reference_subset_table, value ties to the smallest id sequence."""
    best_ids: tuple[str, ...] = ()
    best_size = 0
    best_value = 0.0
    for members, total, value in table:
        if total > gamma:
            continue
        if value_gt(value, best_value) or (
                values_close(value, best_value) and members < best_ids):
            best_ids, best_size, best_value = members, total, value
    return frozenset(best_ids), best_value, best_size


def reference_interval(instance: Instance, item_id: str) -> tuple[int, int] | None:
    """(gamma1, gamma2) of indispensability_interval, found by walking every
    subset-sum breakpoint for the first change of the head of the full
    reference_greedy order."""
    if not is_indispensable(instance, item_id).indispensable:
        return None
    value_of = memo_values(instance.oracle)
    gamma1 = instance.size(item_id)
    order, _, prefix_sizes, k, _ = reference_greedy(instance, gamma1, value_of)
    head = order[:k + 1]
    fits_with_prefix = prefix_sizes[k]
    for cap in size_breakpoints(instance.items):
        if cap <= gamma1:
            continue
        if cap >= fits_with_prefix:
            break
        if reference_greedy(instance, cap, value_of)[0][:k + 1] != head:
            return gamma1, cap
    return gamma1, fits_with_prefix


# ---------------------------------------------------------------------------
# validation and the curvature lemma as they were written before both read
# subset values by bitmask: frozensets of ids, every value through a memo per
# subset (memo_values).  Float sums fold left, as the library's do on every
# Python.

def memo_values(oracle: ValueOracle):
    """oracle.evaluate with a memo per subset, new for each reference call
    or group of calls on one instance: the references read one subset many
    times, and evaluate computes every value afresh."""
    memo: dict[frozenset, float] = {}

    def value_of(ids) -> float:
        s = frozenset(ids)
        if s not in memo:
            memo[s] = oracle.evaluate(s)
        return memo[s]
    return value_of


def _reference_subsets(ids: list[str]):
    n = len(ids)
    for mask in range(1 << n):
        yield frozenset(ids[i] for i in range(n) if mask >> i & 1)


def reference_scan_oracle(oracle: ValueOracle, ids: list[str]) -> ValidationReport:
    """The validation scan over every subset, item and item pair."""
    value_of = memo_values(oracle)
    found: list[Violation] = []
    empty = value_of(())
    if not values_close(empty, 0.0):
        found.append(Violation("normalized", (), (), abs(empty)))

    mono_cases = ((a, u) for a in _reference_subsets(ids) for u in ids if u not in a)
    sub_cases = ((a, u1, u2) for a in _reference_subsets(ids)
                 for u1, u2 in combinations([i for i in ids if i not in a], 2))

    for a, u in mono_cases:
        before, after = value_of(a), value_of(a | {u})
        if value_gt(before, after):
            found.append(Violation("monotone", sorted_ids(a), (u,), before - after))
            break

    for a, u1, u2 in sub_cases:
        lhs = value_of(a | {u1}) + value_of(a | {u2})
        rhs = value_of(a | {u1, u2}) + value_of(a)
        if value_gt(rhs, lhs):
            found.append(Violation("submodular", sorted_ids(a), (u1, u2), rhs - lhs))
            break

    failed = {v.kind for v in found}
    return ValidationReport("normalized" not in failed, "monotone" not in failed,
                            "submodular" not in failed, found[0] if found else None,
                            "exhaustive")


def reference_lemma_draws(n: int, trials: int, seed: int) -> tuple:
    """(j per trial, draws per trial) of the sampled curvature lemma, gathered
    in a growing list as check_curvature_lemma did before it filled
    preallocated arrays."""
    rng = random.Random(seed)
    choice, draw, positions, per_trial = rng.choice, rng.random, range(n), range(2 * n - 1)
    ml_j, draws = [], []
    for _ in range(trials):
        ml_j.append(choice(positions))
        draws += [draw() for _ in per_trial]
    return np.array(ml_j), np.array(draws).reshape(trials, 2 * n - 1)


def reference_curvature_lemma(instance: Instance, trials: int = 10000,
                              seed: int = 0) -> CheckReport:
    """check_curvature_lemma: exhaustive up to MAX_CURVATURE_EXHAUSTIVE items,
    seeded samples above."""
    c = curvature(instance)
    ids = list(instance.ids)
    n = len(ids)
    value_of = memo_values(instance.oracle)
    rec = _Recorder()
    counts = {"marginal_lower": 0, "disjoint_union": 0, "marginal_sum_upper": 0}

    def check_marginal_lower(a: frozenset, j: str) -> None:
        counts["marginal_lower"] += 1
        rec.observe(lambda: f"marginal_lower A={sorted(a)} j={j}",
                    value_of(a | {j}) - value_of(a), (1.0 - c) * value_of({j}))

    def check_disjoint_union(a: frozenset, b: frozenset) -> None:
        counts["disjoint_union"] += 1
        rec.observe(lambda: f"disjoint_union A={sorted(a)} B={sorted(b)}",
                    value_of(a | b) - value_of(a),
                    (1.0 - c) * left_sum(value_of({i}) for i in sorted(b)))

    def check_marginal_sum_upper(a: frozenset, b: frozenset) -> None:
        counts["marginal_sum_upper"] += 1
        fa = value_of(a)
        bound = fa + left_sum(value_of(a | {u}) - fa for u in sorted(b - a))
        rec.observe(lambda: f"marginal_sum_upper A={sorted(a)} B={sorted(b)}",
                    bound, value_of(b))

    if n <= MAX_CURVATURE_EXHAUSTIVE:
        for mask in range(1 << n):
            a = frozenset(ids[i] for i in range(n) if mask >> i & 1)
            for j in ids:
                if j not in a:
                    check_marginal_lower(a, j)
        for code in range(3 ** n):
            a, b = set(), set()
            rest = code
            for i in range(n):
                rest, digit = divmod(rest, 3)
                if digit == 1:
                    a.add(ids[i])
                elif digit == 2:
                    b.add(ids[i])
            check_disjoint_union(frozenset(a), frozenset(b))
            check_marginal_sum_upper(frozenset(a), frozenset(a | b))
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        for _ in range(trials):
            j = rng.choice(ids)
            a = frozenset(i for i in ids if i != j and rng.random() < 0.5)
            check_marginal_lower(a, j)

            a, b = set(), set()
            for i in ids:
                r = rng.random()
                if r < 1.0 / 3.0:
                    a.add(i)
                elif r < 2.0 / 3.0:
                    b.add(i)
            check_disjoint_union(frozenset(a), frozenset(b))
            check_marginal_sum_upper(frozenset(a), frozenset(a | b))
        mode = "sampled"

    return CheckReport("curvature_lemma", rec.trials, tuple(rec.failures),
                       rec.worst, notes=(f"mode={mode}",), counts=counts)
