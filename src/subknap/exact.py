"""Exhaustive ground truth and checkers for the algorithm guarantees.

Everything here enumerates core's subset table, numpy arrays of one value
(float64) and one size (int64) per subset indexed by bitmask.  The optimum
at a capacity is the answer of one scan of every feasible subset, found from
the table sorted once by size: a bisect gives the best feasible value, and
the scan's tie rule is replayed over the rows within a narrow band below it
(_scan_opt gives the argument).  The worst case over capacities is evaluated
exactly by visiting every subset-sum breakpoint, since integer sizes make
each half-open capacity interval behave like its left endpoint.  The curvature lemma builds the
bitmasks of a block of trials as numpy arrays, reads their values from the
same table and checks the block as one array operation.  Validation reads the
table too (core.validate_oracle), and everything here refuses more than
MAX_EXHAUSTIVE_ITEMS items with GuardError.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import bounds
# the guard lives in core, next to the subset table; exact.GuardError and
# exact.MAX_EXHAUSTIVE_ITEMS stay importable from here
from .core import (MAX_EXHAUSTIVE_ITEMS, GuardError, Instance, TOL,  # noqa: F401
                   check_capacity, check_oracle, curvature, guard_exhaustive,
                   instance_digest, size_breakpoints, sorted_ids, subset_table,
                   value_ge, value_ge_array, value_gt, values_close)
from .greedy import Solution, agreedy, agreedy_override, greedy_sequence, mgreedy
from .policy import (REASON_INDISPENSABLE, _head_change, execute_policy,
                     indispensability_interval, is_indispensable, make_fit_oracle,
                     start_item_list)

MAX_CURVATURE_EXHAUSTIVE = 8
MAX_LEMMA_TRIALS = 10 ** 5
#: the sampled curvature lemma holds the draws and masks of this many
#: trials at once; the CLI's default of 2 000 trials is one block
LEMMA_BLOCK_TRIALS = 2000


# ---------------------------------------------------------------------------
# brute-force optimum

def brute_force_opt(instance: Instance, gamma: int) -> Solution:
    """Best feasible subset by full enumeration; value ties go to the
    lexicographically smallest id sequence; one search per capacity."""
    guard_exhaustive(instance)
    gamma = check_capacity(gamma)
    check_oracle(instance)
    return instance.cached(("opt", gamma), lambda: _scan_opt(instance, gamma))


#: widths of the replayed band below the best feasible value, in units of
#: TOL times the instance's scale; the last admits every feasible row
_BAND_WIDTHS = (4.0, 64.0, math.inf)


def _opt_index(instance: Instance) -> tuple:
    """What the optimum at every capacity reads, built once per instance from
    the rows of the subset table in a stable ascending order of size: the
    sizes and values where the running maximum of the values rises (the best
    value within a capacity is that of the last rise at or below it), and
    the scale, max(1, max |value|)."""
    def build():
        values, sizes = subset_table(instance)
        scale = max(1.0, np.abs(values).max().item())
        order = np.argsort(sizes, kind="stable")
        record = np.maximum.accumulate(values[order])
        rises = np.concatenate(([0], np.flatnonzero(record[1:] > record[:-1]) + 1))
        return sizes[order[rises]].tolist(), record[rises].tolist(), scale
    return instance.cached("opt_index", build)


def _scan_opt(instance: Instance, gamma: int) -> Solution:
    """The subset that one scan of every feasible row in ascending mask order
    keeps, starting from the empty set at 0.0: a row replaces the best if it
    beats it beyond the tolerance, or ties it within the tolerance with a
    smaller id sequence.  That rule is not transitive, so the scan is
    replayed (_replay) over a band, the feasible rows with value at least
    L = M - w, where M is the best feasible value and w the band width.

    The band gives the scan's answer whenever every value the replay holds
    from its first row on is at least L + 2 TOL scale (twice the tolerance,
    so that the rounding of the comparisons cannot matter):
    - Before the first band row, the full scan has seen only rows below L.
      It holds either the empty set at 0.0, as the replay does, or a row
      below L, which the first band row beats beyond the tolerance once the
      replay takes it.  Either way both take the same decision there.
    - After that, both hold the same best, at least L + 2 TOL scale, which
      no row below L can tie or beat, so the full scan skips every row the
      replay does not see, and both take the same rows.
    Where a held value falls lower, the band widens; the last width admits
    every feasible row, which is the full scan itself."""
    values, sizes = subset_table(instance)
    rise_sizes, rise_values, scale = _opt_index(instance)
    # clamped to the total size, the capacity fits the sizes' int64
    cap = min(gamma, int(sizes[-1]))
    top = rise_values[bisect.bisect_right(rise_sizes, cap) - 1]
    for width in _BAND_WIDTHS:
        floor = top - width * TOL * scale
        masks = np.flatnonzero((sizes <= cap) & (values >= floor))
        best, best_value, lowest = _replay(masks, values[masks])
        if lowest >= floor + 2 * TOL * scale:
            break
    return Solution(frozenset(instance.subset(best)), best_value, int(sizes[best]))


def _replay(masks: np.ndarray, values: np.ndarray) -> tuple[int, float, float]:
    """The scan rule over rows (ascending masks, not empty) from the empty
    set at 0.0: the best mask, its value, and the lowest value held from the
    first row on.  The first row is taken iff it beats 0.0 beyond the
    tolerance.  If then all values lie pairwise within the tolerance (their
    spread is at most half the smallest tolerance between two of them), every
    later row ties, and the rows taken end at the lexicographically first."""
    first = value_gt(values[0].item(), 0.0)
    lo, hi = values.min().item(), values.max().item()
    if first and hi - lo <= 0.5 * TOL * max(1.0, min(abs(lo), abs(hi))):
        best = _lex_first(masks)
        return best, values[np.searchsorted(masks, best)].item(), lo
    best, best_value = 0, 0.0
    lowest = math.inf if first else 0.0
    for mask, value in zip(masks.tolist(), values.tolist()):
        if values_close(value, best_value):
            # a tie goes to the smaller id sequence.  The masks agree below
            # their lowest differing bit; best < mask, so mask's ids come
            # first iff mask holds that bit and best has a member above it
            low = (mask ^ best) & -(mask ^ best)
            if not (mask & low and best >= low << 1):
                continue
        elif value < best_value:
            continue
        best, best_value, lowest = mask, value, min(lowest, value)
    return best, best_value, lowest


def _lex_first(masks: np.ndarray) -> int:
    """The mask (of ascending masks) whose ids come first lexicographically.
    Each round keeps the masks whose next member after the common head is
    the smallest id any of them holds there, until one mask is left or the
    head itself, which comes before all its extensions, is the first."""
    head = 0
    while len(masks) > 1 and masks[0] != head:
        rest = np.bitwise_or.reduce(masks) & ~head
        head |= rest & -rest
        masks = masks[masks & head == head]
    return int(masks[0])


# ---------------------------------------------------------------------------
# breakpoints and sweeps

def breakpoints(instance: Instance) -> tuple[int, ...]:
    """Ascending capacities at which any algorithm's behavior can change."""
    guard_exhaustive(instance)
    return instance.cached("breakpoints", lambda: size_breakpoints(instance.items))


@dataclass(frozen=True)
class SweepRow:
    gamma: int
    opt_value: float
    mg_value: float
    ag_value: float
    policy_value: float
    ratio_mg: float
    ratio_ag: float
    ratio_policy: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    empirical_robustness: float
    curvature: float
    alpha_bound: float
    digest: str

    def to_csv(self) -> str:
        lines = ["gamma,opt_value,mg_value,ag_value,policy_value,"
                 "ratio_mg,ratio_ag,ratio_policy"]
        for r in self.rows:
            lines.append(
                f"{r.gamma},{r.opt_value!r},{r.mg_value!r},{r.ag_value!r},"
                f"{r.policy_value!r},{r.ratio_mg!r},{r.ratio_ag!r},"
                f"{r.ratio_policy!r}")
        lines.append(f"# curvature={self.curvature!r}")
        lines.append(f"# alpha_bound={self.alpha_bound!r}")
        lines.append(f"# empirical_robustness={self.empirical_robustness!r}")
        return "\n".join(lines) + "\n"


def _ratio(value: float, opt: float) -> float:
    # a zero optimum carries no information and must not poison the minimum
    if values_close(opt, 0.0):
        return 1.0
    return value / opt


def _sweep_row(instance: Instance, gamma: int) -> SweepRow:
    opt = brute_force_opt(instance, gamma)
    mg = mgreedy(instance, gamma)
    ag = agreedy(instance, gamma)
    trace = execute_policy(instance, make_fit_oracle(gamma))
    return SweepRow(
        gamma=gamma,
        opt_value=opt.value,
        mg_value=mg.value,
        ag_value=ag.value,
        policy_value=trace.packed.value,
        ratio_mg=_ratio(mg.value, opt.value),
        ratio_ag=_ratio(ag.value, opt.value),
        ratio_policy=_ratio(trace.packed.value, opt.value),
    )


def robustness_sweep(instance: Instance) -> SweepReport:
    """One row per breakpoint capacity plus the worst policy-to-optimum ratio."""
    rows = tuple(_sweep_row(instance, g) for g in breakpoints(instance))
    c = curvature(instance)
    return SweepReport(
        rows=rows,
        empirical_robustness=min((r.ratio_policy for r in rows), default=1.0),
        curvature=c,
        alpha_bound=bounds.alpha(c),
        digest=instance_digest(instance),
    )


# ---------------------------------------------------------------------------
# check reports

@dataclass(frozen=True)
class Failure:
    witness: str
    slack: float


@dataclass(frozen=True)
class CheckReport:
    name: str
    trials: int
    failures: tuple[Failure, ...]
    worst_slack: float = math.inf
    notes: tuple[str, ...] = ()
    counts: Mapping[str, int] | None = None
    chi: tuple[int, ...] | None = None
    s_star: tuple[int, ...] | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": [{"witness": f.witness, "slack": f.slack}
                         for f in self.failures],
            "worst_slack": None if math.isinf(self.worst_slack) else self.worst_slack,
            "notes": list(self.notes),
            "counts": dict(self.counts) if self.counts else None,
            "chi": list(self.chi) if self.chi is not None else None,
            "s_star": list(self.s_star) if self.s_star is not None else None,
        }


class _Recorder:
    """Accumulates observations of inequalities lhs >= rhs; the slack is
    lhs - rhs, and a trial fails unless value_ge(lhs, rhs).  A witness is a
    zero-argument callable, formatted at once and only for a failing trial.
    """

    def __init__(self) -> None:
        self.trials = 0
        self.failures: list[Failure] = []
        self.worst = math.inf

    def observe(self, witness: Callable[[], str], lhs: float, rhs: float) -> None:
        slack = lhs - rhs
        self.trials += 1
        self.worst = min(self.worst, slack)
        if not value_ge(lhs, rhs):
            self.failures.append(Failure(witness(), slack))

    def check(self, witness: Callable[[], str], ok: bool) -> None:
        self.observe(witness, 0.0, 0.0 if ok else 1.0)


# ---------------------------------------------------------------------------
# prefix-value lower bound (exponential-in-curvature form)

def check_theorem6(instance: Instance, gamma: int) -> CheckReport:
    """Every fitting greedy prefix reaches the curvature-dependent fraction
    of the optimum: f(G_j) >= (1/c)(1 - exp(-c s(G_j)/gamma)) f(OPT)."""
    guard_exhaustive(instance)
    gamma = check_capacity(gamma)
    c = curvature(instance)
    opt = brute_force_opt(instance, gamma).value
    run = greedy_sequence(instance, gamma)
    rec = _Recorder()
    for j in range(1, run.k + 1):
        factor = bounds.prefix_bound(c, run.prefix_sizes[j - 1] / gamma)
        fj, bound = run.values[j - 1], factor * opt
        rec.observe(lambda: f"gamma={gamma} j={j}: f(G_j)={fj!r} bound={bound!r}",
                    fj, bound)
    return CheckReport("theorem6", rec.trials, tuple(rec.failures), rec.worst)


# ---------------------------------------------------------------------------
# per-step marginal lower bounds

def check_lemma2(instance: Instance, gamma: int) -> CheckReport:
    """Two lower bounds on each greedy marginal in terms of the optimum.

    Capacities where the fitting prefix equals the (tie-broken) optimum are
    skipped, mirroring the excluded trivial case; denominator degeneracies
    are skipped and noted as well.
    """
    guard_exhaustive(instance)
    gamma = check_capacity(gamma)
    c = curvature(instance)
    run = greedy_sequence(instance, gamma)
    opt = brute_force_opt(instance, gamma)
    notes = [f"opt={{{','.join(sorted_ids(opt.items))}}}"]
    if run.fitting_prefix == opt.items:
        return CheckReport("lemma2", 0, (), notes=(
            f"skipped gamma={gamma}: greedy prefix equals the optimum", *notes))

    upto = run.k + (1 if run.overflow_item is not None else 0)
    chi = tuple(1 if run.order[m] in opt.items else 0 for m in range(upto))
    s_star = [0]
    for m in range(run.k):
        s_star.append(s_star[-1] + chi[m] * instance.size(run.order[m]))

    rec = _Recorder()
    sum_delta = 0.0
    sum_chi_delta = 0.0
    for j in range(1, upto + 1):
        delta = run.values[j - 1] - (run.values[j - 2] if j >= 2 else 0.0)
        sj = instance.size(run.order[j - 1])
        prefix_size = run.prefix_sizes[j - 2] if j >= 2 else 0

        denom1 = gamma - s_star[j - 1]
        if denom1 <= 0:
            notes.append(f"skipped (i) at j={j}: optimum already inside the prefix")
        else:
            rhs = (c * sj / gamma) * (opt.value - sum_delta) \
                + ((1.0 - c) * sj / denom1) * (opt.value - sum_chi_delta)
            rec.observe(lambda: f"gamma={gamma} (i) j={j}: delta={delta!r} "
                        f"bound={rhs!r}", delta, rhs)

        denom2 = gamma - (1.0 - c) * prefix_size
        if denom2 <= TOL:
            notes.append(f"skipped (ii) at j={j}: capacity exactly consumed")
        else:
            rhs = (sj / denom2) * (opt.value - sum_delta)
            rec.observe(lambda: f"gamma={gamma} (ii) j={j}: delta={delta!r} "
                        f"bound={rhs!r}", delta, rhs)

        sum_delta += delta
        sum_chi_delta += chi[j - 1] * delta

    return CheckReport("lemma2", rec.trials, tuple(rec.failures), rec.worst,
                       notes=tuple(notes), chi=chi, s_star=tuple(s_star))


# ---------------------------------------------------------------------------
# curvature inequalities

_LEMMA_FAMILIES = ("marginal_lower", "disjoint_union", "marginal_sum_upper")


def check_curvature_lemma(instance: Instance, trials: int = 10000,
                          seed: int = 0) -> CheckReport:
    """Curvature bounds on marginals plus the marginal-sum upper bound.

    Exhaustive over all qualifying set pairs for n <= MAX_CURVATURE_EXHAUSTIVE,
    `trials` seeded random samples per family otherwise.  Three families:
      marginal_lower:      (1-c) f({j}) <= f(A + j) - f(A)
      disjoint_union:      f(A + B) >= f(A) + (1-c) sum of f({i}), i in B
      marginal_sum_upper:  f(B) <= f(A) + sum of marginals of B - A on A
    The sets of a block of trials are numpy arrays of bitmasks over
    instance.ids, valued from core.subset_table and checked as array
    operations: every exhaustive case in one block, samples in blocks of
    LEMMA_BLOCK_TRIALS drawn in turn from one seeded Random.  It refuses a
    negative seed (ValueError), and more than MAX_EXHAUSTIVE_ITEMS items
    (GuardError) or MAX_LEMMA_TRIALS trials (ValueError).  At 22 items and
    10^5 trials a process peaks at 101 MB ru_maxrss, against 99 MB once the
    subset table is built (CPython 3.11, numpy 2.4, modular seed 0).
    """
    guard_exhaustive(instance)
    if not 1 <= trials <= MAX_LEMMA_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_LEMMA_TRIALS}], got {trials}")
    if seed < 0:  # random.Random would take its absolute value
        raise ValueError(f"seed must be nonnegative, got {seed}")
    c = curvature(instance)
    n = instance.n
    if n <= MAX_CURVATURE_EXHAUSTIVE:
        blocks = [_exhaustive_lemma_sets(n)]
        mode = "exhaustive"
    else:
        rng, block = random.Random(seed), LEMMA_BLOCK_TRIALS
        blocks = (_sampled_lemma_sets(n, *_lemma_draws(rng, n, min(block, trials - done)))
                  for done in range(0, trials, block))
        mode = "sampled"
    failures: list[Failure] = []
    worst = []  # per block
    sizes = np.zeros(len(_LEMMA_FAMILIES), dtype=np.int64)
    for sets in blocks:
        block_failures, block_worst, block_sizes = _check_lemma_sets(instance, c, *sets)
        failures += block_failures
        worst.append(block_worst)
        sizes += block_sizes
    # the first of the blocks' minima that equals their minimum is the
    # first slack overall that equals it
    return CheckReport("curvature_lemma", int(sizes.sum()), tuple(failures),
                       _running_min(np.array(worst)), notes=(f"mode={mode}",),
                       counts=dict(zip(_LEMMA_FAMILIES, sizes.tolist())))


def _exhaustive_lemma_sets(n: int) -> tuple:
    """The lemma's sets for every case on n items (see _check_lemma_sets)."""
    # marginal_lower: every (A, j) with j outside A, ordered by A, then j
    ml_a = np.repeat(np.arange(1 << n, dtype=np.int64), n)
    ml_j = np.tile(np.arange(n), 1 << n)
    outside = (ml_a >> ml_j) & 1 == 0
    ml_a, ml_j = ml_a[outside], ml_j[outside]
    # the others: every assignment of the items to A, B or neither;
    # digit i of the ternary code is 1 where item i is in A, 2 in B
    digits = np.arange(3 ** n, dtype=np.int64)[:, None] // 3 ** np.arange(n) % 3
    in_a, in_b = digits == 1, digits == 2
    # counted order: every marginal_lower check, then disjoint_union and
    # marginal_sum_upper in turn, code by code
    family = np.concatenate((np.zeros(len(ml_a), dtype=np.int64),
                             np.tile([1, 2], 3 ** n)))
    trial = np.concatenate((np.arange(len(ml_a)), np.repeat(np.arange(3 ** n), 2)))
    return ml_a, ml_j, in_a, in_b, family, trial


def _sampled_lemma_sets(n: int, ml_j: np.ndarray, draws: np.ndarray) -> tuple:
    """The lemma's sets for sampled trials, one per row of draws (see
    _lemma_draws and _check_lemma_sets)."""
    trials = len(ml_j)
    bit = 1 << np.arange(n, dtype=np.int64)
    in_ml = np.zeros((trials, n), dtype=bool)
    others = np.arange(n - 1) + (np.arange(n - 1) >= ml_j[:, None])
    in_ml[np.arange(trials)[:, None], others] = draws[:, :n - 1] < 0.5
    ml_a = (in_ml * bit).sum(axis=1)
    in_a = draws[:, n - 1:] < 1.0 / 3.0
    in_b = ~in_a & (draws[:, n - 1:] < 2.0 / 3.0)
    # counted order: trial by trial, the three families in turn
    family, trial = np.tile([0, 1, 2], trials), np.repeat(np.arange(trials), 3)
    return ml_a, ml_j, in_a, in_b, family, trial


def _check_lemma_sets(instance: Instance, c: float, ml_a: np.ndarray, ml_j: np.ndarray,
                      in_a: np.ndarray, in_b: np.ndarray, family: np.ndarray,
                      trial: np.ndarray) -> tuple[list[Failure], float, list[int]]:
    """The failures in counted order, the running minimum of the slacks and
    the case count per family of one block of the lemma's cases: the
    marginal_lower cases (A, j) as ml_a and ml_j, the other two families'
    as the items in A and in B, one row per case, and the counted order as
    the family and the case of each check."""
    subset = instance.subset
    bit = 1 << np.arange(instance.n, dtype=np.int64)
    a, b = (in_a * bit).sum(axis=1), (in_b * bit).sum(axis=1)
    # A + i for each i in B, and A itself where i is not in B
    a_plus = np.where(in_b, a[:, None] | bit, a[:, None])
    f = subset_table(instance)[0]
    f_bit, f_ml_a, f_ml_aj, f_a, f_ab, f_a_plus = (
        f[bit], f[ml_a], f[ml_a | bit[ml_j]], f[a], f[a | b], f[a_plus])

    with np.errstate(all="ignore"):
        sides = ((f_ml_aj - f_ml_a, (1.0 - c) * f_bit[ml_j]),
                 (f_ab - f_a, (1.0 - c) * _left_fold(np.where(in_b, f_bit, 0.0))),
                 (f_a + _left_fold(np.where(in_b, f_a_plus - f_a[:, None], 0.0)), f_ab))
        sizes = [len(lhs) for lhs, _ in sides]
        at = np.cumsum([0, *sizes[:-1]])[family] + trial
        lhs, rhs = (np.concatenate(column)[at] for column in zip(*sides))
        slack = lhs - rhs

    def witness(family: int, t: int) -> str:
        if family == 0:
            return f"marginal_lower A={list(subset(int(ml_a[t])))} j={instance.ids[ml_j[t]]}"
        b_set = b[t] if family == 1 else a[t] | b[t]
        return (f"{_LEMMA_FAMILIES[family]} A={list(subset(int(a[t])))} "
                f"B={list(subset(int(b_set)))}")

    failures = [Failure(witness(family[k], trial[k]), slack[k].item())
                for k in np.flatnonzero(~value_ge_array(lhs, rhs)).tolist()]
    return failures, _running_min(slack), sizes


def _lemma_draws(rng: random.Random, n: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """The next `trials` rows of the sampled curvature lemma's draws from
    rng, in the order that fixes a seed's samples: j, then one coin per
    other position, then one three-way draw per position (2n - 1 random()
    calls).  The draws stream into one preallocated array, never a list of
    floats."""
    choice, draw, positions, per_trial = rng.choice, rng.random, range(n), range(2 * n - 1)
    ml_j = []

    def stream():
        for _ in range(trials):
            ml_j.append(choice(positions))
            for _ in per_trial:
                yield draw()
    draws = np.fromiter(stream(), dtype=np.float64, count=trials * (2 * n - 1))
    return np.array(ml_j), draws.reshape(trials, 2 * n - 1)


def _left_fold(terms: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array, each a left fold from 0.0 as core._fold
    takes it, so that adding an absent member's 0.0 leaves every bit alone."""
    total = np.zeros(len(terms))
    for column in terms.T:
        total += column
    return total


def _running_min(values: np.ndarray) -> float:
    """min(inf, *values) as Python folds it: a NaN never replaces the
    minimum, and of equal values (0.0 and -0.0) the first stays."""
    candidates = np.where(np.isnan(values), math.inf, values)
    return candidates[np.flatnonzero(candidates == candidates.min())[0]].item()


# ---------------------------------------------------------------------------
# indispensable-item properties

def check_indispensable_properties(instance: Instance) -> CheckReport:
    """Structural checks on every indispensable item, read from the start
    list, which holds them all in (size, id) order.

    For each flagged item: the replay prefix is nonempty and strictly smaller
    than the item; agreedy returns the item exactly on the computed capacity
    interval (checked at every breakpoint and at the interval edges); and at
    the first capacity where the head of the greedy order changes, the
    first larger item either leads the new order or is itself the agreedy
    answer there.
    """
    caps = breakpoints(instance)
    rec = _Recorder()
    notes = []
    flagged = 0
    for entry in start_item_list(instance):
        if entry.reason != REASON_INDISPENSABLE:
            continue
        it = instance.item(entry.item_id)
        res = is_indispensable(instance, it)
        flagged += 1
        prefix_size = instance.total_size(res.greedy_prefix)
        rec.check(
            lambda: f"{it.id}: nonempty prefix with s(item) > s(prefix) "
                    f"({it.size} > {prefix_size})",
            len(res.greedy_prefix) >= 1 and it.size > prefix_size)

        interval = indispensability_interval(instance, it)
        rec.check(lambda: f"{it.id}: interval starts at the item size",
                  interval is not None and interval.gamma1 == it.size)
        if interval is None:
            continue
        probes = set(caps) | {interval.gamma1, interval.gamma2 - 1, interval.gamma2}
        if interval.gamma1 > 1:
            probes.add(interval.gamma1 - 1)
        for cap in sorted(probes):
            expected = interval.gamma1 <= cap < interval.gamma2
            actual = agreedy_override(instance, cap) == it.id
            rec.check(
                lambda: f"{it.id}: agreedy override at gamma={cap} expected={expected}",
                actual == expected)

        cap = _head_change(instance, greedy_sequence(instance, interval.gamma1))
        if cap is not None:
            # a larger item past order[k] is neither order[0] nor the
            # override, so searching the head alone gives the same verdict;
            # where the first larger item lies past the head, the failure
            # names None instead of it
            run = greedy_sequence(instance, cap)
            order = run.order[:run.k + 1]
            larger = next((i for i in order if instance.size(i) > it.size), None)
            rec.check(
                lambda: f"{it.id}: first larger item at order-change gamma={cap} "
                        f"leads or overrides ({larger})",
                larger is not None and (
                    larger == order[0]
                    or agreedy_override(instance, cap) == larger))
    if flagged == 0:
        notes.append("no indispensable items; all properties hold vacuously")
    return CheckReport("indispensable_properties", rec.trials,
                       tuple(rec.failures), rec.worst, notes=tuple(notes))
