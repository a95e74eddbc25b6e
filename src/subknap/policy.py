"""Capacity-oblivious packing: indispensable items, start lists, and the policy.

An item is indispensable when, at a capacity equal to its own size, it is the
first item to overflow the greedy order and its marginal on the packed prefix
strictly exceeds the prefix value.  The policy seeds the knapsack with the
largest fitting start item, replays that item's greedy prefix, and then packs
adaptively by marginal density, learning the hidden capacity only through
fit queries.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

from .core import (Instance, Item, check_capacity, distinct_sizes,
                   item_masks, singletons, sorted_ids, value_gt)
from .greedy import (DensityQueue, GreedyRun, Solution, _override_item,
                     first_items, greedy_sequence)

REASON_INDISPENSABLE = "indispensable"
REASON_FIRST_GREEDY = "first_greedy"

PHASE_START_ITEM = "start_item"
PHASE_GREEDY_PREFIX = "greedy_prefix"
PHASE_MAIN_GREEDY = "main_greedy"


@dataclass(frozen=True)
class IndispensabilityResult:
    indispensable: bool
    greedy_prefix: frozenset[str]


@dataclass(frozen=True)
class IndispensabilityInterval:
    """Half-open capacity interval [gamma1, gamma2) on which the item is
    the single-item answer of agreedy."""

    gamma1: int
    gamma2: int


@dataclass(frozen=True)
class StartEntry:
    """A start item and the greedy prefix it replays once it fits, in greedy
    order: greedy_sequence(instance, size).order[:k] for an indispensable
    item, which has k >= 1, and () for an item that leads its own order."""

    item_id: str
    greedy_prefix: tuple[str, ...]

    @property
    def reason(self) -> str:
        return REASON_INDISPENSABLE if self.greedy_prefix else REASON_FIRST_GREEDY


class FitOracle:
    """Answers whether a total load fits a hidden capacity.

    The policy may read the capacity only through fits(); query_count records
    how many answers were consumed.
    """

    def __init__(self, gamma: int):
        self._gamma = check_capacity(gamma)
        self.query_count = 0

    def fits(self, candidate_total_size: int) -> bool:
        self.query_count += 1
        return candidate_total_size <= self._gamma


def make_fit_oracle(gamma: int) -> FitOracle:
    return FitOracle(gamma)


@dataclass(frozen=True, slots=True)  # one pair is kept per item and phase
class PolicyAttempt:
    item_id: str
    fitted: bool
    phase: str


@dataclass(frozen=True)
class PolicyTrace:
    attempts: tuple[PolicyAttempt, ...]
    packed: Solution
    query_count: int

    def to_dict(self) -> dict:
        return {
            "attempts": [
                {"item": a.item_id, "fitted": a.fitted, "phase": a.phase}
                for a in self.attempts
            ],
            "packed": list(sorted_ids(self.packed.items)),
            "value": self.packed.value,
            "total_size": self.packed.total_size,
            "query_count": self.query_count,
        }


def _resolve(instance: Instance, item) -> Item:
    if isinstance(item, Item):
        if instance.item(item.id) != item:
            raise KeyError(f"item {item.id!r} is not part of the instance")
        return item
    return instance.item(item)


def is_indispensable(instance: Instance, item) -> IndispensabilityResult:
    """Decide indispensability at capacity s(item).

    True iff the item is the first to overflow that capacity in the greedy
    order, at position two or later, and its marginal on the packed prefix P
    strictly exceeds f(P).  The returned prefix is P as a set; the item's
    start entry (start_item_list) keeps it in greedy order, and the policy
    and check_indispensable_properties read it there.

    Most items are ruled out without building the order, from its first
    item a (first_items) and a's value alone v (core.singletons).  An item
    that is a itself does not overflow, since a always fits.  Otherwise a
    is in P.  Let g be the item's gain on {a}, valued from a packed state
    of {a} built for the call (one OR for a fold oracle), and D =
    gain_drift(n):
    - the gain on P, as the order computes it, exceeds g by at most
      gain_drift(|P| - 1) <= D (submodularity, up to rounding);
    - f(P) >= v - D: for fold oracles because a float sum of nonnegative
      terms never shrinks as terms join it, and a concave finish rounds by
      far less than D; for a table because validation accepts a
      monotonicity slip of at most TOL * max(1, |f|) per added item, half
      of the violation that gain_drift allows per item.
    value_gt is monotone in both arguments (for TOL < 1), so the full check
    can pass only where value_gt(g + D, v - D) does.  Rounding the two sums
    cannot flip that: the gain on P and f(P) are floats and rounding is
    monotone, so gain <= g + D gives gain <= fl(g + D), and v - D <= f(P)
    gives fl(v - D) <= f(P).  Where the filter passes, the order is built
    and the full check decides.
    """
    it = _resolve(instance, item)
    first = first_items(instance)[it.size]
    if first == it.id:
        return IndispensabilityResult(False, frozenset())
    v = singletons(instance)[first]
    drift = instance.oracle.gain_drift(instance.n)
    g = instance.oracle.packed_state((first,)).value_with(it.id) - v
    if not value_gt(g + drift, v - drift):
        return IndispensabilityResult(False, frozenset())
    run = greedy_sequence(instance, it.size)
    if run.k >= 1 and run.overflow_item == it.id and _override_item(run):
        return IndispensabilityResult(True, run.fitting_prefix)
    return IndispensabilityResult(False, frozenset())


def indispensability_interval(instance: Instance, item) -> IndispensabilityInterval | None:
    """Capacity interval on which an indispensable item is agreedy's answer.

    The interval starts at the item's own size.  It ends where the item
    itself starts to fit after its prefix, or earlier at the first capacity
    where the head of the greedy order changes, whichever comes first.
    Absent for items that are not indispensable.
    """
    it = _resolve(instance, item)
    if not is_indispensable(instance, it).indispensable:
        return None
    run = greedy_sequence(instance, it.size)
    fits_with_prefix = run.prefix_sizes[run.k]  # s(prefix) + s(item)
    change = _head_change(instance, run)
    return IndispensabilityInterval(it.size, min(change or fits_with_prefix, fits_with_prefix))


def _head_change(instance: Instance, run: GreedyRun) -> int | None:
    """First capacity above run.capacity at which the first k+1 items of the
    greedy order change, or None.

    An order depends on the capacity only through the largest eligible item
    size, so the head can change only at a capacity equal to an item size.
    Comparing the truncated orders there is exact: an order at a larger size
    stops only at a prefix size >= the next item size above it, and every
    head prefix shorter than k+1 fits run.capacity, below that.  So an order
    shorter than k+1 cannot share the head, and a longer one holds all of
    its first k+1 items.
    """
    head = run.order[:run.k + 1]
    sizes = distinct_sizes(instance)
    for size in sizes[bisect.bisect_right(sizes, run.capacity):]:
        if greedy_sequence(instance, size).order[:run.k + 1] != head:
            return size
    return None


def start_item_list(instance: Instance) -> tuple[StartEntry, ...]:
    """Seed items for the policy, ordered by size, then id (StartEntry).

    Every item is judged once, at the capacity equal to its own size:
    indispensable items always join the list, with the prefix of the run
    is_indispensable has just read; an item that leads its own greedy order
    joins, with no prefix, only once the list is nonempty, so the smallest
    indispensable item is always the first entry.  Entries of equal size
    can occur: an item that leads its own order on a density tie within
    tolerance, and one of the same size whose marginal beats its value, are
    both on the list.  The list is built once per instance ("start_list").
    """
    def build() -> tuple[StartEntry, ...]:
        entries: list[StartEntry] = []
        for it in sorted(instance.items, key=lambda it: (it.size, it.id)):
            if is_indispensable(instance, it).indispensable:
                run = greedy_sequence(instance, it.size)
                entries.append(StartEntry(it.id, run.order[:run.k]))
            elif entries and first_items(instance)[it.size] == it.id:
                entries.append(StartEntry(it.id, ()))
        return tuple(entries)
    return instance.cached("start_list", build)


def execute_policy(instance: Instance, oracle: FitOracle) -> PolicyTrace:
    """Run the oblivious policy against a fit-query interface.

    The start list is always the instance's own (start_item_list), and one
    candidate pool serves all three steps; it only shrinks, and packed
    items never return to it.  Step 1 tries start items
    from largest to smallest; a failed attempt discards every pool item at
    least that large.  Step 2 replays the packed start item's greedy prefix,
    dropping prefix items from the pool whether or not they fit.  Step 3
    packs the rest of the pool adaptively by marginal density with the same
    discard rule.

    The fit answers so far decide what is packed and what is left in the
    pool, so on one instance the policy is one decision tree over them,
    kept per instance ("policy_tree") as far as runs have reached it.  A
    node is one history of answers and holds its pool as a bitmask over
    instance.ids, which _decision alone derives, from the item bits and the
    masks of smaller items that greedy shares (core.item_masks, "masks").
    It also holds its script, what steps 1 and 2 have left to try after
    that history: the root's, built with the tree, is the start list from
    the largest entry, and _decision hands on the rest, or, where a start
    item fits, the greedy prefix its entry carries, as item ids.
    Its decision, once made, holds the item tried next with its size, the
    packed value if it fits, the attempts recorded after a miss and after a
    fit (one pair per item and phase on the instance, shared by every
    decision), and the node each answer leads to, with its pool and script;
    where the pool is empty the decision is that the run ends.  That is at
    most one decision more than the fit queries ever answered on the
    instance.

    A run is one loop over nodes, from the root: at each node it takes the
    kept decision or makes one, then asks one fit query, records one
    attempt and moves to the child the answer names.  A decision made at a
    node with a script tries the script's first item, so a run that walks
    kept decisions reads only the tree.  At the first node with no decision
    the run builds a DensityQueue over the node's pool, on the packed set
    (the items of its fitted attempts); from then on the queue packs what
    fits and takes each child's pool.  No selection runs on a node before
    its first undecided one, so every bound of that queue is still the
    singleton bound, as in a queue that replayed every pack and narrowing:
    the choices and floats are the same.  Concurrent callers may share the
    tree: a decision is published in one assignment, with its children's
    scripts set, and every writer of a node stores an equal one.
    """
    node = instance.cached("policy_tree", lambda: _Node(
        (1 << instance.n) - 1, tuple(reversed(start_item_list(instance)))))
    attempts: list[PolicyAttempt] = []
    queue = None
    packed_size = 0
    packed_value = 0.0
    while True:
        decision = node.decision
        if decision is None:
            if queue is None:
                queue = DensityQueue(instance, node.pool,
                                     (a.item_id for a in attempts if a.fitted), packed_value)
            if node.script:
                step = node.script[0]  # a start entry in step 1, an item id in step 2
                item_id, phase = ((step, PHASE_GREEDY_PREFIX) if isinstance(step, str)
                                  else (step.item_id, PHASE_START_ITEM))
                decision = _decision(instance, node, item_id, queue.value_with(item_id), phase)
            elif queue:
                decision = _decision(instance, node, *queue.select(), PHASE_MAIN_GREEDY)
            else:
                decision = _END
            node.decision = decision
        if not decision:
            break
        item_id, size, value, records, children = decision
        ok = bool(oracle.fits(packed_size + size))  # fits may return any truth value
        attempts.append(records[ok])
        node = children[ok]
        if ok:
            packed_size += size
            packed_value = value
        if queue is not None:
            if ok:
                queue.pack(item_id, value)
            queue.pool = node.pool
    return PolicyTrace(
        attempts=tuple(attempts),
        packed=Solution(frozenset(a.item_id for a in attempts if a.fitted),
                        packed_value, packed_size),
        query_count=oracle.query_count,
    )


class _Node:
    """One fit-answer history of the policy on an instance: the pool it
    leaves, as a bitmask over instance.ids (bit i set means ids[i] is in
    it), the script of steps 1 and 2 still left after it, in the order runs
    try it (start entries in step 1, the ids of the fitted start item's
    greedy prefix in step 2), and its decision, None until a run has made
    it (see execute_policy)."""

    __slots__ = ("decision", "pool", "script")

    def __init__(self, pool: int, script: tuple[StartEntry | str, ...]) -> None:
        self.decision: _Decision | tuple | None = None
        self.pool = pool
        self.script = script


class _Decision(NamedTuple):
    item_id: str
    size: int
    value: float  # of the packed set with the item, if it fits
    attempts: tuple[PolicyAttempt, PolicyAttempt]  # recorded on a miss, a fit
    children: tuple[_Node, _Node]  # the history after a miss, after a fit


#: the decision where the pool is empty and the run ends
_END = ()


def _decision(instance: Instance, node: _Node, item_id: str, value: float,
              phase: str) -> _Decision:
    """node's decision to try item_id in phase: a fit packs the item and a
    step-2 miss drops it from the pool, a step-1 or step-3 miss keeps only
    the smaller items.  The children keep the rest of node's script, but a
    fitted start item's child gets the greedy prefix of its entry, the
    script's first step.  Its attempt records are one pair per instance,
    phase and item (("policy_attempts", phase))."""
    bit, below = item_masks(instance)
    size = instance.size(item_id)
    fit = node.pool & ~bit[item_id]
    miss = fit if phase == PHASE_GREEDY_PREFIX else node.pool & below[size]
    rest = node.script[1:]
    fitted = node.script[0].greedy_prefix if phase == PHASE_START_ITEM else rest
    pairs = instance.cached(("policy_attempts", phase), dict)
    records = pairs.get(item_id)
    if records is None:  # threads that build one together keep the first stored
        records = pairs.setdefault(item_id, (PolicyAttempt(item_id, False, phase),
                                             PolicyAttempt(item_id, True, phase)))
    return _Decision(item_id, size, value, records, (_Node(miss, rest), _Node(fit, fitted)))
