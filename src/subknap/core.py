"""Submodular instances: items, value oracles, validation, and curvature.

Item sizes are exact positive integers so that capacity comparisons and
breakpoint enumeration are exact; objective values are floats compared with a
scaled absolute tolerance, remaining ties broken by ascending item id.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, compress
from operator import add, or_
from typing import Iterable, Mapping

import numpy as np

TOL = 1e-9

#: exhaustive routines (the subset table and all that reads it, the
#: breakpoints, the checkers) refuse more items.  At 22 items the table holds
#: 2^22 rows (64 MB of values and sizes).  Seed 0, CPython 3.11, numpy 2.4:
#: building it, the optimum at every breakpoint and validation peak at 197 MB
#: ru_maxrss (modular) and 203 MB (coverage) in scripts/bench_layers.py
#: (BENCH_23.json), the sampled curvature lemma at MAX_LEMMA_TRIALS at
#: 101 MB.  Each further item doubles that.
MAX_EXHAUSTIVE_ITEMS = 22

#: the digits of bin() as the bytes 0 and 1, which compress() reads as flags
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


class ConfigurationError(ValueError):
    """Bad oracle parameters or malformed instance data."""


class OracleValidationError(ValueError):
    """An oracle failed a normalization, monotonicity, or submodularity check."""


class GuardError(RuntimeError):
    """Instance too large for exhaustive enumeration."""


# ---------------------------------------------------------------------------
# tolerance-aware value comparisons

def values_close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def value_gt(a: float, b: float) -> bool:
    """a strictly greater than b, beyond tolerance."""
    return a > b and not values_close(a, b)


def value_ge(a: float, b: float) -> bool:
    return a >= b or values_close(a, b)


# the same three rules elementwise over float64 arrays; like Python floats,
# they stay silent where a difference overflows or is undefined

def values_close_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return np.abs(a - b) <= TOL * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


def value_gt_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a > b) & ~values_close_array(a, b)


def value_ge_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a >= b) | values_close_array(a, b)


def sorted_ids(ids: Iterable[str]) -> tuple[str, ...]:
    """Canonical ascending-id tuple for an item set."""
    return tuple(sorted(ids))


def _bit_flags(mask: int) -> bytes:
    """Byte i is bit i of mask (0 or 1), up to the highest set bit."""
    # bin() lists the bits from the highest: reversed without "0b", digit i is bit i
    return bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)


def _mask_members(ids: tuple[str, ...], mask: int) -> tuple[str, ...]:
    """The members of ids named by a bitmask: bit i set means ids[i] is one."""
    return tuple(compress(ids, _bit_flags(mask)))


def _fold(weights: tuple[float, ...], mask: int) -> float:
    """Left fold, from 0.0, of the weights at the set bits of mask, in
    ascending bit order: the sum of the weights the mask names as sum() took
    it before 3.12 compensated it."""
    return reduce(add, compress(weights, _bit_flags(mask)), 0.0)


def _cube_view(cube: np.ndarray, bits: Mapping[int, int]) -> np.ndarray:
    """The view of a (2,)*n subset cube, bit i on axis -1-i, of the subsets
    that hold item i iff bits[i] is 1, for each i in bits (never a scalar)."""
    index = [slice(None)] * cube.ndim
    for i, bit in bits.items():
        index[-1 - i] = bit
    return cube[(..., *index)]


def _cube_fold(n: int, terms: Iterable, dtype) -> np.ndarray:
    """Every subset's left fold, from zero, of the weights of the terms it
    meets, in term order, indexed by bitmask.  A term is a weight and the
    positions of the items that meet it: the weight is added to the view of
    the subsets that hold one of those positions and no earlier one."""
    cube = np.zeros((2,) * n, dtype=dtype)
    for weight, positions in terms:
        for k, p in enumerate(positions):
            view = _cube_view(cube, {**dict.fromkeys(positions[:k], 0), p: 1})
            np.add(view, weight, out=view)
    return cube.reshape(-1)


def check_capacity(gamma) -> int:
    """The capacity itself, if it is a positive integer (bools are refused)."""
    if isinstance(gamma, bool) or not isinstance(gamma, int) or gamma < 1:
        raise ValueError(f"capacity must be a positive integer, got {gamma!r}")
    return gamma


def _finite_float(value) -> float | None:
    """value as a finite float, or None for non-numbers, NaN, infinities and
    integers beyond float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _check_finite(value, what: str) -> float:
    """An oracle parameter as a float; non-numeric and non-finite values are
    configuration errors, since NaN would otherwise pass every comparison."""
    number = _finite_float(value)
    if number is None:
        raise ConfigurationError(f"{what} must be a finite number, got {value!r}")
    return number


# ---------------------------------------------------------------------------
# items and oracles

@dataclass(frozen=True)
class Item:
    id: str
    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ConfigurationError("item id must be a nonempty string")
        if isinstance(self.size, bool) or not isinstance(self.size, int) or self.size < 1:
            raise ConfigurationError(
                f"item {self.id!r}: size must be a positive integer, got {self.size!r}"
            )
        if _finite_float(self.size) is None:
            # densities divide float values by sizes
            raise ConfigurationError(
                f"item {self.id!r}: size {self.size!r} exceeds the float range")


class ValueOracle:
    """Monotone, normalized, submodular set function queried by item subset.

    evaluate computes each value afresh, with no memo per subset: what is
    derived from an instance is kept once, on the instance (Instance.cached),
    and greedy and the policy value their candidates from a packed_state.
    """

    kind = "abstract"
    needs_validation = False  # parametric families are valid by construction

    def __init__(self, domain: Iterable[str]):
        self._domain = frozenset(domain)
        # a value is a float sum of at most this many nonnegative terms
        self._addends = max(1, len(self._domain))
        self._rounding: float | None = None

    @property
    def domain(self) -> frozenset[str]:
        return self._domain

    def evaluate(self, ids: Iterable[str]) -> float:
        s = frozenset(ids)
        unknown = s - self._domain
        if unknown:
            raise KeyError(f"unknown item ids: {sorted(unknown)}")
        return self._value(s)

    def _value(self, s: frozenset[str]) -> float:
        raise NotImplementedError

    def packed_state(self, items: Iterable[str] = ()) -> "PackedState":
        """The set of items (empty by default) to pack more into, which
        values the set plus one item."""
        return PackedState(self, items)

    def _subset_values(self, ids: tuple[str, ...]) -> np.ndarray:
        """_value of every subset of ids (the ascending domain) as float64,
        indexed by bitmask (see Instance.subset).  This one calls _value once
        per subset; parametric oracles fold instead."""
        count = 1 << len(ids)
        return np.fromiter((self._value(frozenset(_mask_members(ids, m)))
                            for m in range(count)), dtype=np.float64, count=count)

    def gain_drift(self, steps: int) -> float:
        """How far an item's computed marginal gain on a set may exceed its
        gain computed on a subset with `steps` fewer items.

        Submodularity makes this zero in exact arithmetic, whatever `steps`.
        What remains is float rounding of values summed from at most
        `_addends` terms, each value bounded by that of the whole domain
        (with a factor of two to spare).  Lazy greedy selection widens its
        stale density bounds by this much.
        """
        if self._rounding is None:
            scale = max(1.0, abs(self.evaluate(self._domain)))
            self._rounding = 8 * (self._addends + 2) * 2.0 ** -53 * scale
        return self._rounding

    def restrict(self, ids: Iterable[str]) -> "ValueOracle":
        """Oracle over a subset of the domain (used by normalize_instance)."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


class PackedState:
    """A set packed one item at a time, and the value it would have with
    one more item.  This one keeps the set and takes _value of it plus the
    item (a table's dict)."""

    def __init__(self, oracle: ValueOracle, items: Iterable[str] = ()):
        self._oracle = oracle
        self._packed = frozenset(items)

    def value_with(self, item_id: str) -> float:
        """Value of the packed set plus item_id."""
        return self._oracle._value(self._packed | {item_id})

    def adds_nothing(self, item_id: str) -> bool:
        """Whether item_id's gain is exactly 0.0 on the packed set and on
        every superset of it; a table's entries promise nothing of the kind."""
        return False

    def pack(self, item_id: str) -> None:
        self._packed |= {item_id}


class _FoldState(PackedState):
    """The packed set of a folded oracle as the mask of the element ranks it
    covers, all it keeps of the set.

    A candidate is valued as _value values the packed set plus it: _finish
    of the left fold of the weights its mask and the covered mask name, so
    the same float.  A candidate that covers nothing new gets the packed
    set's own value.  pack only ORs the item's ranks into the mask.
    """

    def __init__(self, oracle: "_FoldedOracle", items: Iterable[str] = ()):
        self._oracle = oracle
        self._covers = oracle._ranks_of
        self._covered = reduce(or_, map(self._covers.__getitem__, items), 0)

    def value_with(self, item_id: str) -> float:
        oracle = self._oracle
        return oracle._finish(_fold(oracle._weight_of_rank,
                                    self._covered | self._covers[item_id]))

    def adds_nothing(self, item_id: str) -> bool:
        # covered ranks only grow, and value_with returns the packed value
        # itself while an item covers no new rank
        return not self._covers[item_id] & ~self._covered

    def pack(self, item_id: str) -> None:
        self._covered |= self._covers[item_id]


class _FoldedOracle(ValueOracle):
    """A value that is the left fold of element weights over the elements a
    set covers, in ascending element order, then _finish.  Coverage has its
    elements; in modular and concave-modular oracles each item is one.

    The elements are ranked in sorted order, once per oracle: each rank's
    weight, and per item the mask of the ranks it covers.  _value, the packed
    states of greedy and the policy and, before _finish, _subset_values fold
    over these.
    """

    def __init__(self, weights: Mapping[str, float], covers: Mapping[str, Iterable[str]]):
        super().__init__(covers)  # the items
        rank = {e: r for r, e in enumerate(sorted(weights))}
        self._weight_of_rank = tuple(weights[e] for e in sorted(weights))
        self._ranks_of = {i: reduce(or_, (1 << rank[e] for e in es), 0)
                          for i, es in covers.items()}

    def _finish(self, total: float) -> float:
        return total

    def _value(self, s: frozenset[str]) -> float:
        covered = reduce(or_, map(self._ranks_of.__getitem__, s), 0)
        return self._finish(_fold(self._weight_of_rank, covered))

    def packed_state(self, items: Iterable[str] = ()) -> PackedState:
        return _FoldState(self, items)

    def _subset_values(self, ids: tuple[str, ...]) -> np.ndarray:
        covers = [self._ranks_of[i] for i in ids]
        return _cube_fold(len(ids), ((w, [k for k, c in enumerate(covers) if c >> r & 1])
                                     for r, w in enumerate(self._weight_of_rank)),
                          np.float64)


def _check_weights(weights: Mapping[str, float], what: str = "weight for") -> None:
    """Finite nonnegative weights whose total is finite too, so that no
    subset value overflows to infinity."""
    total = 0.0
    for key, w in weights.items():
        w = _check_finite(w, f"{what} {key!r}")
        if w < 0:
            raise ConfigurationError(f"{what} {key!r} must be nonnegative")
        total += w
    if not math.isfinite(total):
        raise ConfigurationError(f"total of {len(weights)} weights overflows")


class ModularOracle(_FoldedOracle):
    kind = "modular"

    def __init__(self, weights: Mapping[str, float]):
        _check_weights(weights)
        super().__init__(weights, {i: (i,) for i in weights})
        self._weights = dict(weights)

    def restrict(self, ids: Iterable[str]) -> "ModularOracle":
        keep = frozenset(ids)
        return ModularOracle({i: w for i, w in self._weights.items() if i in keep})

    def to_dict(self) -> dict:
        return {"kind": "modular", "weights": dict(sorted(self._weights.items()))}


class CoverageOracle(_FoldedOracle):
    """Weighted coverage: value of a set is the weight of the covered elements."""

    kind = "coverage"

    def __init__(self, element_weights: Mapping[str, float], covers: Mapping[str, Iterable[str]]):
        _check_weights(element_weights, "weight for element")
        cov = {i: tuple(sorted(set(es))) for i, es in covers.items()}
        for i, es in cov.items():
            for e in es:
                if e not in element_weights:
                    raise ConfigurationError(f"item {i!r} covers unknown element {e!r}")
        super().__init__(element_weights, cov)
        self._addends = max(1, len(element_weights))
        self._element_weights = dict(element_weights)
        self._covers = cov

    def restrict(self, ids: Iterable[str]) -> "CoverageOracle":
        keep = frozenset(ids)
        return CoverageOracle(self._element_weights,
                              {i: es for i, es in self._covers.items() if i in keep})

    def to_dict(self) -> dict:
        return {
            "kind": "coverage",
            "elements": dict(sorted(self._element_weights.items())),
            "covers": {i: list(es) for i, es in sorted(self._covers.items())},
        }


class ConcaveModularOracle(_FoldedOracle):
    """Concave power of a modular sum; exponent 1 gives the modular oracle."""

    kind = "concave_modular"

    def __init__(self, weights: Mapping[str, float], exponent: float):
        if not 0.0 < _check_finite(exponent, "exponent") <= 1.0:
            raise ConfigurationError(f"exponent must be in (0, 1], got {exponent!r}")
        _check_weights(weights)
        super().__init__(weights, {i: (i,) for i in weights})
        self._weights = dict(weights)
        self._exponent = float(exponent)

    def _finish(self, total: float) -> float:
        return total ** self._exponent

    def _subset_values(self, ids: tuple[str, ...]) -> np.ndarray:
        # Python's float power, which numpy's vectorised one need not match
        sums = super()._subset_values(ids)
        return np.fromiter((v ** self._exponent for v in sums.tolist()),
                           dtype=np.float64, count=len(sums))

    def restrict(self, ids: Iterable[str]) -> "ConcaveModularOracle":
        keep = frozenset(ids)
        return ConcaveModularOracle(
            {i: w for i, w in self._weights.items() if i in keep}, self._exponent)

    def to_dict(self) -> dict:
        return {
            "kind": "concave_modular",
            "weights": dict(sorted(self._weights.items())),
            "exponent": self._exponent,
        }


class TableOracle(ValueOracle):
    """Explicit subset-to-value map for hand-built (possibly adversarial) fixtures.

    The table must cover all 2^n subsets with value 0 on the empty set.
    A table is not required to be submodular at construction time, but
    normalization and the algorithms refuse a table that fails validation.
    """

    kind = "table"
    needs_validation = True

    MAX_ITEMS = 16  # completeness check enumerates 2^n subsets

    def __init__(self, values: Mapping):
        table: dict[frozenset[str], float] = {}
        for key, v in values.items():
            ids = self._parse_key(key)
            if ids in table:
                raise ConfigurationError(f"duplicate table key for subset {sorted(ids)}")
            table[ids] = _check_finite(v, f"table value for subset {sorted(ids)}")
        domain = frozenset().union(*table.keys()) if table else frozenset()
        commas = sorted(iid for iid in domain if "," in iid)
        if commas:  # keys join ids with commas (to_dict, restrict)
            raise ConfigurationError(f"table item id {commas[0]!r} must not contain ','")
        if len(domain) > self.MAX_ITEMS:
            raise ConfigurationError(
                f"table oracle limited to {self.MAX_ITEMS} items, got {len(domain)}")
        if len(table) != 2 ** len(domain):
            raise ConfigurationError(
                f"table must define all {2 ** len(domain)} subsets, got {len(table)}")
        empty = table.get(frozenset())
        if empty is None or not values_close(empty, 0.0):
            raise ConfigurationError("table value for the empty set must be 0")
        table[frozenset()] = 0.0
        super().__init__(domain)
        self._addends = 1
        self._table = table
        # validation accepts a pairwise submodularity violation up to TOL
        # times the larger of 1 and two compared sums of two values
        self._accepted_violation = 2 * TOL * max(1.0, *map(abs, table.values()))

    @staticmethod
    def _parse_key(key) -> frozenset[str]:
        if isinstance(key, str):
            return frozenset(p for p in key.split(",") if p) if key else frozenset()
        return frozenset(key)

    def _value(self, s: frozenset[str]) -> float:
        return self._table[s]

    def restrict(self, ids: Iterable[str]) -> "TableOracle":
        keep = frozenset(ids)
        kept = {",".join(sorted(s)): v for s, v in self._table.items() if s <= keep}
        return TableOracle(kept)

    def gain_drift(self, steps: int) -> float:
        # a gain may grow by each violation validation accepts, once with
        # each item added to its base set
        return (steps + 1) * (super().gain_drift(steps) + self._accepted_violation)

    def to_dict(self) -> dict:
        values = {",".join(sorted(s)): v for s, v in self._table.items()}
        return {"kind": "table", "values": dict(sorted(values.items()))}


def make_modular_oracle(weights: Mapping[str, float]) -> ModularOracle:
    return ModularOracle(weights)


def make_coverage_oracle(element_weights: Mapping[str, float],
                         covers: Mapping[str, Iterable[str]]) -> CoverageOracle:
    return CoverageOracle(element_weights, covers)


def make_concave_modular_oracle(weights: Mapping[str, float],
                                exponent: float) -> ConcaveModularOracle:
    return ConcaveModularOracle(weights, exponent)


def make_table_oracle(values: Mapping) -> TableOracle:
    return TableOracle(values)


def evaluate(oracle: ValueOracle, ids: Iterable[str]) -> float:
    """Value of an item set; deterministic and pure."""
    return oracle.evaluate(ids)


# ---------------------------------------------------------------------------
# instances

@dataclass(frozen=True)
class Instance:
    items: tuple[Item, ...]
    oracle: ValueOracle

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        ids = [it.id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate item ids in instance")
        if self.oracle.domain != frozenset(ids):
            raise ConfigurationError(
                "oracle domain must match instance items exactly; "
                f"instance={sorted(ids)} oracle={sorted(self.oracle.domain)}")
        object.__setattr__(self, "_by_id", {it.id: it for it in self.items})
        object.__setattr__(self, "ids", sorted_ids(ids))
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_lock", threading.RLock())

    def cached(self, key, build):
        """Result of build() memoized on this instance under key.

        Instances and their oracles are immutable, so what is derived from
        them is computed once per instance, here and nowhere else.  Each key
        has one builder, which says what it holds: "validation"
        (validate_oracle), "sizes" (distinct_sizes), "masks" (item_masks),
        and "singletons", "subset_table" and "curvature" (the functions of
        those names); ("greedy", threshold) (greedy.greedy_sequence),
        "first_items" (greedy.first_items); "start_list"
        (policy.start_item_list), "policy_tree" (policy.execute_policy),
        ("policy_attempts", phase) (policy._decision); "breakpoints"
        (exact.breakpoints), "opt_index" (exact._opt_index) and ("opt",
        gamma) (exact.brute_force_opt).

        A hit is one dict lookup.  A miss builds under the instance's
        reentrant lock, so concurrent first callers build a key once, and a
        builder may ask for other keys.

        One derived thing lives outside any instance: the curvature lemma's
        cases (exact._lemma_cases), the subset bitmasks of its checks, which
        depend only on the item count, and for sampled checks on the seed and
        trial count, never on an instance.  A cache on the instance would
        build them again for every instance, so they are kept per process in
        one functools.lru_cache of exact.LEMMA_CACHE_SIZE keys, as read-only
        arrays.
        """
        try:
            return self._cache[key]
        except KeyError:
            pass
        with self._lock:
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]

    @property
    def n(self) -> int:
        return len(self.items)

    def subset(self, mask: int) -> tuple[str, ...]:
        """Ascending ids of the subset named by a bitmask over the ascending
        ids: bit i set means ids[i] is a member."""
        return _mask_members(self.ids, mask)

    def item(self, item_id: str) -> Item:
        return self._by_id[item_id]

    def size(self, item_id: str) -> int:
        return self._by_id[item_id].size

    def total_size(self, ids: Iterable[str]) -> int:
        return sum(self._by_id[i].size for i in ids)

    def value(self, ids: Iterable[str]) -> float:
        return self.oracle.evaluate(ids)


def item_masks(instance: Instance) -> tuple[dict[str, int], dict[int, int]]:
    """Each item's bit in a bitmask over instance.ids (see Instance.subset),
    and per item size the mask of the smaller items; once per instance
    ("masks")."""
    def build() -> tuple[dict[str, int], dict[int, int]]:
        bit = {iid: 1 << i for i, iid in enumerate(instance.ids)}
        below: dict[int, int] = {}
        smaller = 0
        for it in sorted(instance.items, key=lambda it: it.size):
            below.setdefault(it.size, smaller)
            smaller |= bit[it.id]
        return bit, below
    return instance.cached("masks", build)


def size_breakpoints(items: Iterable[Item]) -> tuple[int, ...]:
    """Sorted distinct nonempty subset sums of the item sizes.

    Sums are integers, so the reachable set is computed by a set-based DP
    bounded by the total size rather than by 2^n.
    """
    sums = {0}
    for it in items:
        sums |= {s + it.size for s in sums}
    sums.discard(0)
    return tuple(sorted(sums))


def singletons(instance: Instance) -> dict[str, float]:
    """The value of each item alone, by ascending id; once per instance."""
    return instance.cached("singletons", lambda: {
        i: instance.oracle.evaluate((i,)) for i in instance.ids})


def distinct_sizes(instance: Instance) -> tuple[int, ...]:
    """The distinct item sizes in ascending order; once per instance."""
    return instance.cached("sizes", lambda: tuple(sorted({it.size for it in instance.items})))


def guard_exhaustive(instance: Instance) -> None:
    """Refuse an instance too large for the exhaustive routines."""
    if instance.n > MAX_EXHAUSTIVE_ITEMS:
        raise GuardError(
            f"exhaustive routines accept at most {MAX_EXHAUSTIVE_ITEMS} items, "
            f"got {instance.n}")


def subset_table(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The value (float64) and the total size (int64) of every subset as
    numpy arrays indexed by bitmask (see Instance.subset), built once per
    instance: the sizes and the values of folded oracles by one _cube_fold
    each, those of any other oracle (a table reads its dict) by one _value
    call per subset.  Each value is the float _value gives, bit for bit.
    Validation, the curvature lemma and the optimum read these arrays.  Sizes
    whose total exceeds int64 stay Python ints.  It allocates 2^n rows, so
    it refuses more than MAX_EXHAUSTIVE_ITEMS items."""
    guard_exhaustive(instance)

    def build():
        ids = instance.ids
        wide = instance.total_size(ids) > np.iinfo(np.int64).max
        return (instance.oracle._subset_values(ids),
                _cube_fold(len(ids), ((instance.size(i), (k,)) for k, i in enumerate(ids)),
                           object if wide else np.int64))
    return instance.cached("subset_table", build)


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Violation:
    kind: str  # "normalized" | "monotone" | "submodular"
    subset: tuple[str, ...]
    items: tuple[str, ...]
    slack: float

    def __str__(self) -> str:
        return (f"{self.kind} violated at A={list(self.subset)} "
                f"items={list(self.items)} slack={self.slack:.6g}")


@dataclass(frozen=True)
class ValidationReport:
    normalized: bool
    monotone: bool
    submodular: bool
    first_violation: Violation | None
    mode: str  # always "exhaustive"

    @property
    def ok(self) -> bool:
        return self.normalized and self.monotone and self.submodular


def _scan_oracle(instance: Instance) -> ValidationReport:
    # subsets and items are bitmasks over instance.ids, an item one bit
    subset = instance.subset
    values = subset_table(instance)[0]
    value = lambda mask: values[mask].item()
    found: list[Violation] = []  # at most one per condition, in check order
    empty = value(0)
    if not values_close(empty, 0.0):
        found.append(Violation("normalized", (), (), abs(empty)))

    mono_cases, sub_cases = _table_violations(instance.n, values)
    for a, u in mono_cases:
        found.append(Violation("monotone", subset(a), subset(u), value(a) - value(a | u)))
    # pairwise diminishing-returns condition on every set and item pair
    for a, u1, u2 in sub_cases:
        lhs = value(a | u1) + value(a | u2)
        rhs = value(a | u1 | u2) + value(a)
        found.append(Violation("submodular", subset(a), subset(u1 | u2), rhs - lhs))

    failed = {v.kind for v in found}
    return ValidationReport("normalized" not in failed, "monotone" not in failed,
                            "submodular" not in failed, found[0] if found else None,
                            "exhaustive")


def _table_violations(n: int, values: np.ndarray) -> tuple[list, list]:
    """The first (A, u) with f(A) > f(A + u) and the first (A, u1, u2) with
    f(A + u1) + f(A + u2) < f(A + u1 + u2) + f(A), beyond tolerance, each
    as a list of at most one case: the lowest A, then the first item or the
    first pair in combinations order.  Each item or pair is checked over the
    cube views (_cube_view) of the A that hold none of its items, which keep
    the other bits in order: its first hit, with the items' zero bits put
    back into its flat index, is its lowest A."""
    cube = values.reshape((2,) * n)

    def first(sides, cases):
        found = []
        for case in cases:
            lhs, rhs = sides(lambda *bits: _cube_view(cube, dict(zip(case, bits))))
            # value_gt_array, with its tolerance only where some lhs > rhs
            if (lhs > rhs).any() and (hits := value_gt_array(lhs, rhs)).any():
                a = int(hits.argmax())
                for i in case:  # ascending
                    a = (a >> i << (i + 1)) | (a & ((1 << i) - 1))
                found.append((a, *(1 << i for i in case)))
        return [min(found)] if found else []

    with np.errstate(all="ignore"):
        mono = first(lambda f: (f(0), f(1)), [(i,) for i in range(n)])
        sub = first(lambda f: (f(1, 1) + f(0, 0), f(1, 0) + f(0, 1)),
                    combinations(range(n), 2))
    return mono, sub


def validate_oracle(instance: Instance) -> ValidationReport:
    """Check normalization, monotonicity, and submodularity.

    Exhaustive over the subset table, once per instance: every item and
    every item pair, on every base set that holds none of them.  Like the
    table, it refuses more than MAX_EXHAUSTIVE_ITEMS items with GuardError.
    """
    return instance.cached("validation", lambda: _scan_oracle(instance))


def check_oracle(instance: Instance) -> None:
    """Refuse an instance whose oracle class needs validation and fails it."""
    if instance.oracle.needs_validation:
        report = validate_oracle(instance)
        if not report.ok:
            raise OracleValidationError(f"table oracle refused: {report.first_violation}")


def normalize_instance(instance: Instance) -> Instance:
    """Drop items whose singleton value is zero; they never change a valid
    objective, so an invalid one is refused first."""
    check_oracle(instance)
    values = singletons(instance)
    keep = [it for it in instance.items if not values_close(values[it.id], 0.0)]
    if len(keep) == len(instance.items):
        return instance
    normalized = Instance(tuple(keep), instance.oracle.restrict(it.id for it in keep))
    if instance.oracle.needs_validation:  # restricting keeps a valid table valid
        normalized.cached("validation", lambda: validate_oracle(instance))
    return normalized


def curvature(instance: Instance) -> float:
    """How far the objective is from modular: 0 is modular, 1 fully curved.

    Computed as one minus the smallest ratio between an item's marginal on
    the rest of the ground set and its singleton value.  The result is
    clamped to [0, 1] only to absorb float noise up to 1e-9; anything larger
    means the oracle is broken and raises.  Computed once per instance.
    """
    return instance.cached("curvature", lambda: _curvature(instance))


def _curvature(instance: Instance) -> float:
    if instance.n < 1:
        raise ValueError("curvature requires at least one item")
    ids = instance.ids
    full = instance.value(ids)
    worst = math.inf
    for j, singleton in singletons(instance).items():
        if not value_gt(singleton, 0.0):
            raise ValueError(
                f"curvature requires strictly positive singletons; f({{{j}}}) = {singleton}")
        drop = full - instance.value(frozenset(ids) - {j})
        worst = min(worst, drop / singleton)
    c = 1.0 - worst
    if c < -TOL or c > 1.0 + TOL:
        raise OracleValidationError(
            f"curvature {c} outside [0, 1] beyond tolerance; oracle is not "
            "monotone submodular")
    # snap float noise to the boundaries so modular instances report 0 exactly
    if abs(c) <= TOL:
        return 0.0
    if abs(c - 1.0) <= TOL:
        return 1.0
    return min(1.0, max(0.0, c))


# ---------------------------------------------------------------------------
# instance files (JSON)

def instance_to_dict(instance: Instance) -> dict:
    return {
        "items": [{"id": it.id, "size": it.size} for it in
                  sorted(instance.items, key=lambda it: it.id)],
        "objective": instance.oracle.to_dict(),
    }


def instance_from_dict(data: Mapping) -> Instance:
    if not isinstance(data, Mapping):
        raise ConfigurationError("malformed instance data: the document must be a JSON object")
    if not isinstance(data.get("objective", {}), Mapping):
        raise ConfigurationError("malformed instance data: objective must be a JSON object")
    try:
        raw_items = data["items"]
        objective = data["objective"]
        kind = objective["kind"]
    except KeyError as exc:
        raise ConfigurationError(f"malformed instance data: missing {exc}") from exc
    if not isinstance(raw_items, list):
        raise ConfigurationError("instance items must be a list")
    items = []
    for entry in raw_items:
        if not isinstance(entry, Mapping) or "id" not in entry:
            raise ConfigurationError(
                f"each item must be an object with an id and a size, got {entry!r}")
        items.append(Item(entry["id"], entry.get("size")))

    def field(name: str) -> Mapping:
        value = objective[name]
        if not isinstance(value, Mapping):
            raise ConfigurationError(f"objective field {name!r} must be an object")
        return value

    try:
        if kind == "modular":
            oracle: ValueOracle = ModularOracle(field("weights"))
        elif kind == "coverage":
            covers = field("covers")
            for i, es in covers.items():
                if not isinstance(es, list) or not all(isinstance(e, str) for e in es):
                    raise ConfigurationError(
                        f"item {i!r}: covers must be a list of element ids")
            oracle = CoverageOracle(field("elements"), covers)
        elif kind == "concave_modular":
            oracle = ConcaveModularOracle(field("weights"), objective["exponent"])
        elif kind == "table":
            oracle = TableOracle(field("values"))
        else:
            raise ConfigurationError(f"unknown objective kind {kind!r}")
    except KeyError as exc:
        raise ConfigurationError(f"objective missing field {exc}") from exc
    return Instance(tuple(items), oracle)


def save_instance(instance: Instance, path, header: Mapping | None = None) -> None:
    data = instance_to_dict(instance)
    if header:
        data = {"generator": dict(header), **data}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise ConfigurationError(f"invalid instance file {path}: {exc}") from exc
    return instance_from_dict(data)


def instance_digest(instance: Instance) -> str:
    """Short stable fingerprint of the instance contents."""
    blob = json.dumps(instance_to_dict(instance), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
