"""Greedy orderings and the two known-capacity knapsack algorithms.

Both algorithms order items by marginal value per unit size and return either
the largest fitting greedy prefix or the first item that overflowed the
capacity; they differ only in the rule that picks between the two.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Iterable

from .core import (TOL, Instance, check_capacity, check_oracle, distinct_sizes, item_masks,
                   singletons, value_ge, value_gt)


@dataclass(frozen=True)
class GreedyRun:
    """Greedy ordering of the items that fit an empty knapsack, as far as
    any capacity with the same eligible items reads it.

    The ordering is computed without a packing restriction: the prefix keeps
    growing past the capacity, so one run serves the packing algorithms, the
    prefix bounds, and the indispensability machinery.  It stops at the first
    item whose prefix size reaches the next item size above the capacity,
    where the eligible items change; with no larger item it holds every
    eligible item.  So order[:k] is the fitting prefix and, unless every
    eligible item fits, order[k] is overflow_item.  values[j - 1] and
    prefix_sizes[j - 1] are the value and the total size of the first j
    items as the run packed them, for j up to len(order).
    """

    capacity: int
    order: tuple[str, ...]
    values: tuple[float, ...]
    prefix_sizes: tuple[int, ...]
    k: int
    overflow_item: str | None

    @property
    def marginals(self) -> tuple[float, ...]:
        """Gain of each item of the order on the items before it."""
        return tuple(b - a for a, b in zip((0.0, *self.values), self.values))

    def prefix(self, j: int) -> frozenset[str]:
        """Items at positions 1..j as a set."""
        return frozenset(self.order[:j])

    @property
    def fitting_prefix(self) -> frozenset[str]:
        return self.prefix(self.k)


@dataclass(frozen=True)
class Solution:
    items: frozenset[str]
    value: float
    total_size: int


def _prefix_solution(run: GreedyRun) -> Solution:
    k = run.k
    return Solution(run.fitting_prefix, run.values[k - 1] if k else 0.0,
                    run.prefix_sizes[k - 1] if k else 0)


def _single_solution(instance: Instance, item_id: str) -> Solution:
    return Solution(frozenset((item_id,)), singletons(instance)[item_id],
                    instance.size(item_id))


class DensityQueue:
    """Candidates packed one by one into a set, empty unless packed names
    its items and packed_value its value; select() picks as scan() does,
    but evaluates lazily (Minoux 1978).  The candidates are pool, a
    bitmask over instance.ids (see Instance.subset), and only shrink: pack
    clears the item's bit, and callers narrow pool with their own masks
    (core.item_masks).

    Candidates are valued by the oracle's packed_state, built once from the
    packed items and carried through pack: for coverage, modular and
    concave-modular oracles a fold over the covered elements that gives
    _value's floats without building a set; for a table, its dict entry for
    the packed set plus one item.  packed_value is the value of the packed
    set, that float too.  Of the packed set the queue itself keeps only the
    count, which stamps evaluations and scales the gain drift.

    Every candidate keeps the density it had when last evaluated, on a
    subset of the current packed set; at first its singleton density, on
    the empty set.  By submodularity that density bounds its current one
    from above, up to the oracle's gain_drift, so a selection re-evaluates
    only candidates at the head of a max-heap of bounds.  That holds however
    many packs passed since, so a queue built on a packed set selects as
    one that packed the same set without selecting; execute_policy builds
    its queue that way, at its first fit-answer history with no kept
    decision, and before any selection.  Records and heap entries of items
    that left the pool stay behind; the head skips them.

    A candidate that adds nothing to the packed set, nor to any set packed
    later (PackedState.adds_nothing), has density 0.0 for good: it leaves
    the records and the heap for the mask of zeros once the queue is built
    or a refresh meets it, and stays a candidate, as if its record were
    fresh at 0.0 for good.

    The scan's tie rule is not transitive, so a lazy winner is accepted only
    where it provably equals the scan's.  The cluster is the freshly
    evaluated heads whose bounds lie within half a tolerance of the largest;
    stale heads in that band are refreshed first.  No two members beat one
    another.  (c) If every other bound plus the drift, and 0.0 if a
    candidate adds nothing, lies beyond the tolerance below the cluster's
    smallest density, every member beats every other candidate, so the scan
    picks the cluster's smallest id; a cluster of one is the plain case.
    Where every candidate adds nothing, the scan keeps the smallest id.
    Whatever else (c) does not settle, the scan itself decides; on generated
    input that is rare (see README).  Both compute densities with _evaluate,
    so equal choices give equal floats.

    Where every candidate adds nothing, select values the smallest at
    packed_value, with no call to the state, and that is the float
    value_with (and so the scan) gives.  Such a candidate exists only for a
    fold state, whose adds_nothing says that the item covers no rank outside
    the packed set's mask; then value_with returns _finish of the fold of
    the covered weights, which is _value's float of the packed set
    (core._FoldState).  packed_value is that value by this queue's contract:
    given as the value of the packed set, and after each pack the value that
    pack was given, which greedy and the policy take from value_with or
    select.  Where nothing is packed it is 0.0 and the candidate covers
    nothing at all, so value_with gives _finish(0.0): 0.0 for coverage and
    modular oracles, and 0.0 ** e = 0.0 for a concave exponent e in (0, 1].
    """

    def __init__(self, instance: Instance, pool: int,
                 packed: Iterable[str] = (), packed_value: float = 0.0):
        check_oracle(instance)  # the bounds rely on a valid objective
        packed = tuple(packed)
        self._instance = instance
        self._bit = item_masks(instance)[0]
        self._state = instance.oracle.packed_state(packed)
        self._packs = len(packed)
        self.packed_value = packed_value
        self.pool = pool
        # candidates that add nothing to the packed set nor to any set
        # packed later, as a mask: their density is 0.0 for good, so they
        # hold no record
        self._zeros = 0
        # per other candidate, when last evaluated: [density bound, packed
        # value with the candidate, packs made]; at first its singleton
        # density and value, which are those on the empty set, a subset of
        # any packed set (so v / size, not less packed_value), and stamp 0
        # is fresh only while nothing is packed
        values = singletons(instance)
        self._records = {}
        for iid in instance.subset(pool):
            if self._state.adds_nothing(iid):
                self._zeros |= self._bit[iid]
            else:
                self._records[iid] = [values[iid] / instance.size(iid), values[iid], 0]
        self._heap = [(-r[0], iid) for iid, r in self._records.items()]
        heapq.heapify(self._heap)

    def __bool__(self) -> bool:
        return self.pool != 0

    def value_with(self, item_id: str) -> float:
        """Value of the packed set plus item_id."""
        return self._state.value_with(item_id)

    def scan(self) -> tuple[str | None, float]:
        """Candidate with the largest marginal value per unit size on the
        packed set, and the value of the packed set with it; (None, 0.0)
        when there is no candidate.

        Every candidate is evaluated, in ascending id order, and a later one
        wins only by a density strictly greater beyond tolerance.
        """
        best_id = None
        best_density = 0.0
        best_value = 0.0
        for iid in self._instance.subset(self.pool):
            density, v = self._evaluate(iid)
            if best_id is None or value_gt(density, best_density):
                best_id, best_density, best_value = iid, density, v
        return best_id, best_value

    def select(self) -> tuple[str, float]:
        """The candidate scan() picks, and the value of the packed set with it."""
        records, heap = self._records, self._heap
        drift = self._instance.oracle.gain_drift(self._packs)
        while True:
            head = self._head()
            if head is None:  # every density is 0.0: the scan keeps the first
                return self._first(), self.packed_value
            # the cluster: the fresh heads within half a tolerance of the
            # largest bound, popped in heap order; rival is the next head
            best = records[head][0]
            edge = best - 0.5 * TOL * max(1.0, abs(best))
            cluster, rival = [], head
            while rival is not None and records[rival][0] >= edge and self._fresh(rival):
                cluster.append(heapq.heappop(heap))
                rival = self._head()
            for entry in cluster:
                heapq.heappush(heap, entry)
            if rival is not None and records[rival][0] >= edge:  # stale in the band
                self._refresh(rival)
                continue
            # no density outside the cluster exceeds rival's bound plus
            # drift, and those of zeros are 0.0
            ceiling = max(-math.inf if rival is None else records[rival][0] + drift,
                          0.0 if self._zeros & self.pool else -math.inf)
            if ceiling == -math.inf or value_gt(-cluster[-1][0], ceiling):
                pick = min(iid for _, iid in cluster)
                return pick, records[pick][1]
            return self.scan()

    def pack(self, item_id: str, value: float) -> None:
        """Add an item to the packed set, whose value becomes value; it
        leaves the pool, if it was there (a policy run whose fit answers no
        capacity gives may try an item that already left its pool)."""
        self.pool &= ~self._bit[item_id]
        self._state.pack(item_id)
        self._packs += 1
        self.packed_value = value

    def _first(self) -> str:
        """The smallest id in the pool, at its lowest set bit."""
        return self._instance.ids[(self.pool & -self.pool).bit_length() - 1]

    def _evaluate(self, item_id: str) -> tuple[float, float]:
        """Density of item_id on the packed set, and the set's value with it."""
        v = self._state.value_with(item_id)
        return (v - self.packed_value) / self._instance.size(item_id), v

    def _fresh(self, item_id: str) -> bool:
        return self._records[item_id][2] == self._packs

    def _head(self) -> str | None:
        """Candidate with the largest bound, ties by ascending id; entries of
        items that left the pool, and of re-evaluated candidates, are skipped."""
        heap, records, bit = self._heap, self._records, self._bit
        while heap:
            key, iid = heap[0]
            record = records.get(iid)
            if record is not None and record[0] == -key and self.pool & bit[iid]:
                return iid
            heapq.heappop(heap)
        return None

    def _refresh(self, item_id: str) -> None:
        if self._state.adds_nothing(item_id):
            del self._records[item_id]
            self._zeros |= self._bit[item_id]
            return
        record = self._records[item_id]
        density, v = self._evaluate(item_id)
        if density != record[0]:
            heapq.heappush(self._heap, (-density, item_id))
        record[:] = density, v, self._packs


def greedy_sequence(instance: Instance, gamma: int) -> GreedyRun:
    """Greedy order of the items with size <= gamma, ties by ascending id, up
    to the first item whose prefix size exceeds every capacity that shares
    gamma's eligible items (see GreedyRun).

    k is the longest prefix whose total size still fits gamma; the item at
    position k+1, when present, is the first one to overflow.  The order
    depends on gamma only through the eligible items, so it is computed once
    per instance and eligible-size threshold t (the largest item size <=
    gamma) and shared by every capacity with that threshold, all below the
    next larger item size t'.  It stops at the first prefix size >= t', or
    holds every eligible item where no size is larger; building an order
    (DensityQueue) refuses an invalid table.
    """
    gamma = check_capacity(gamma)
    sizes = distinct_sizes(instance)
    i = bisect.bisect_right(sizes, gamma)
    threshold = sizes[i - 1] if i else 0
    stop = sizes[i] if i < len(sizes) else math.inf
    order, values, prefix_sizes = instance.cached(
        ("greedy", threshold), lambda: _greedy_order(instance, threshold, stop))
    k = bisect.bisect_right(prefix_sizes, gamma)
    return GreedyRun(
        capacity=gamma,
        order=order,
        values=values,
        prefix_sizes=prefix_sizes,
        k=k,
        overflow_item=order[k] if k < len(order) else None,
    )


def first_items(instance: Instance) -> dict[int, str]:
    """For each distinct item size t, the id of the first item of the greedy
    order at threshold t: greedy_sequence(instance, t).order[0], whose
    .values[0] is the item's singleton.  Once per instance ("first_items").

    One DensityQueue over every item, which never packs, so every record
    stays fresh and no candidate is re-evaluated.  Walking the sizes from
    the largest down, it selects at each size t, what scan picks over the
    items of size <= t, as the first select of the order at t does, and then
    narrows its pool to the items below t.  Building it refuses an invalid
    table.
    """
    def build() -> dict[int, str]:
        below = item_masks(instance)[1]
        queue = DensityQueue(instance, (1 << instance.n) - 1)
        firsts = {}
        for t in reversed(distinct_sizes(instance)):
            firsts[t] = queue.select()[0]
            queue.pool &= below[t]
        return firsts
    return instance.cached("first_items", build)


def _greedy_order(instance: Instance, threshold: int, stop: float
                  ) -> tuple[tuple[str, ...], tuple[float, ...], tuple[int, ...]]:
    """(order, prefix values, prefix sizes) of the items of size <= threshold,
    up to the first prefix size >= stop.  Those are the items below stop, the
    next larger item size (core.item_masks), or every item where no size is
    larger (stop is inf)."""
    queue = DensityQueue(instance, item_masks(instance)[1].get(stop, (1 << instance.n) - 1))
    order: list[str] = []
    values: list[float] = []
    prefix_sizes: list[int] = []
    total = 0
    while queue and total < stop:
        best_id, best_value = queue.select()
        order.append(best_id)
        values.append(best_value)
        total += instance.size(best_id)
        prefix_sizes.append(total)
        queue.pack(best_id, best_value)
    return tuple(order), tuple(values), tuple(prefix_sizes)


def mgreedy(instance: Instance, gamma: int) -> Solution:
    """Better of the fitting greedy prefix and the first overflowing item."""
    run = greedy_sequence(instance, gamma)
    prefix = _prefix_solution(run)
    if run.overflow_item is None or value_ge(
            prefix.value, singletons(instance)[run.overflow_item]):
        return prefix
    return _single_solution(instance, run.overflow_item)


def agreedy(instance: Instance, gamma: int) -> Solution:
    """Greedy prefix, unless the overflowing item's marginal on it strictly
    beats the prefix value; then that single item."""
    run = greedy_sequence(instance, gamma)
    override = _override_item(run)
    if override is not None:
        return _single_solution(instance, override)
    return _prefix_solution(run)


def agreedy_override(instance: Instance, gamma: int) -> str | None:
    """Id of the single item agreedy returns instead of the prefix, if any."""
    return _override_item(greedy_sequence(instance, gamma))


def _override_item(run: GreedyRun) -> str | None:
    if run.overflow_item is None:
        return None
    prefix_value = run.values[run.k - 1]  # the first item always fits
    if value_gt(run.values[run.k] - prefix_value, prefix_value):
        return run.overflow_item
    return None
