"""Greedy orderings and the two known-capacity knapsack algorithms.

Both algorithms order items by marginal value per unit size and return either
the largest fitting greedy prefix or the first item that overflowed the
capacity; they differ only in the rule that picks between the two.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable

from .core import Instance, check_capacity, value_ge, value_gt


@dataclass(frozen=True)
class GreedyRun:
    """Full greedy ordering of the items that fit an empty knapsack.

    The ordering is computed without a packing restriction: the prefix keeps
    growing past the capacity, so one run serves the packing algorithms, the
    prefix bounds, and the indispensability machinery.
    """

    capacity: int
    order: tuple[str, ...]
    marginals: tuple[float, ...]
    prefix_sizes: tuple[int, ...]
    k: int
    overflow_item: str | None

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


def make_solution(instance: Instance, ids) -> Solution:
    items = frozenset(ids)
    return Solution(items, instance.value(items), instance.total_size(items))


def best_density_item(instance: Instance, packed: set[str] | frozenset[str],
                      packed_value: float,
                      candidates: Iterable[str]) -> tuple[str | None, float]:
    """Candidate with the largest marginal value per unit size on packed.

    Candidates are scanned in ascending id order and a later one wins only by
    a density strictly greater beyond tolerance.  Returns the winner and the
    value of packed plus the winner; (None, 0.0) when there is no candidate.
    """
    value_of = instance.oracle.evaluate
    best_id = None
    best_density = 0.0
    best_value = 0.0
    for iid in sorted(candidates):
        v = value_of(packed | {iid})
        density = (v - packed_value) / instance.size(iid)
        if best_id is None or value_gt(density, best_density):
            best_id, best_density, best_value = iid, density, v
    return best_id, best_value


def greedy_sequence(instance: Instance, gamma: int) -> GreedyRun:
    """Greedy order of all items with size <= gamma, ties by ascending id.

    k is the longest prefix whose total size still fits gamma; the item at
    position k+1, when present, is the first one to overflow.  Runs are pure
    functions of (instance, gamma) and are computed once per instance.
    """
    gamma = check_capacity(gamma)
    instance.oracle.ensure_usable()
    return instance.cached(("greedy", gamma), lambda: _greedy_run(instance, gamma))


def _greedy_run(instance: Instance, gamma: int) -> GreedyRun:
    remaining = sorted(it.id for it in instance.items if it.size <= gamma)
    packed: set[str] = set()
    packed_value = 0.0
    order: list[str] = []
    marginals: list[float] = []
    prefix_sizes: list[int] = []
    total = 0

    while remaining:
        best_id, best_value = best_density_item(instance, packed, packed_value,
                                                remaining)
        remaining.remove(best_id)
        packed.add(best_id)
        order.append(best_id)
        marginals.append(best_value - packed_value)
        total += instance.size(best_id)
        prefix_sizes.append(total)
        packed_value = best_value

    k = bisect.bisect_right(prefix_sizes, gamma)
    return GreedyRun(
        capacity=gamma,
        order=tuple(order),
        marginals=tuple(marginals),
        prefix_sizes=tuple(prefix_sizes),
        k=k,
        overflow_item=order[k] if k < len(order) else None,
    )


def mgreedy(instance: Instance, gamma: int) -> Solution:
    """Better of the fitting greedy prefix and the first overflowing item."""
    run = greedy_sequence(instance, gamma)
    prefix = run.fitting_prefix
    if run.overflow_item is None:
        return make_solution(instance, prefix)
    if value_ge(instance.value(prefix), instance.value({run.overflow_item})):
        return make_solution(instance, prefix)
    return make_solution(instance, {run.overflow_item})


def agreedy(instance: Instance, gamma: int) -> Solution:
    """Greedy prefix, unless the overflowing item's marginal on it strictly
    beats the prefix value; then that single item."""
    run = greedy_sequence(instance, gamma)
    override = _override_item(instance, run)
    if override is not None:
        return make_solution(instance, {override})
    return make_solution(instance, run.fitting_prefix)


def agreedy_override(instance: Instance, gamma: int) -> str | None:
    """Id of the single item agreedy returns instead of the prefix, if any."""
    return _override_item(instance, greedy_sequence(instance, gamma))


def _override_item(instance: Instance, run: GreedyRun) -> str | None:
    if run.overflow_item is None:
        return None
    marginal = run.marginals[run.k]
    if value_gt(marginal, instance.value(run.fitting_prefix)):
        return run.overflow_item
    return None
