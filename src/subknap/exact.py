"""Exhaustive ground truth and checkers for the algorithm guarantees.

Everything here enumerates: optima scan core's subset table, one value and
size per subset indexed by bitmask, and the worst case over capacities is
evaluated exactly by visiting every subset-sum breakpoint, since integer
sizes make each half-open capacity interval behave like its left endpoint.
The curvature lemma names subsets by bitmask too (see core.subset_values).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping

from . import bounds
from .core import (Instance, TOL, check_capacity, check_oracle, curvature,
                   instance_digest, left_sum, size_breakpoints, sorted_ids,
                   subset_table, subset_values, value_ge, values_close)
from .greedy import Solution, agreedy, agreedy_override, greedy_sequence, mgreedy
from .policy import (_head_change, execute_policy, indispensability_interval,
                     is_indispensable, make_fit_oracle)

MAX_EXHAUSTIVE_ITEMS = 22
MAX_CURVATURE_EXHAUSTIVE = 8


class GuardError(RuntimeError):
    """Instance too large for exhaustive enumeration."""


def _guard(instance: Instance) -> None:
    if instance.n > MAX_EXHAUSTIVE_ITEMS:
        raise GuardError(
            f"exhaustive routines accept at most {MAX_EXHAUSTIVE_ITEMS} items, "
            f"got {instance.n}")


# ---------------------------------------------------------------------------
# brute-force optimum

def brute_force_opt(instance: Instance, gamma: int) -> Solution:
    """Best feasible subset by full enumeration; value ties go to the
    lexicographically smallest id sequence; one scan per capacity."""
    _guard(instance)
    gamma = check_capacity(gamma)
    check_oracle(instance)
    return instance.cached(("opt", gamma), lambda: _scan_opt(instance, gamma))


def _scan_opt(instance: Instance, gamma: int) -> Solution:
    best = best_size = 0
    best_value = 0.0
    values, sizes = subset_table(instance)
    for mask, total in enumerate(sizes):
        if total > gamma:
            continue
        value = values[mask]
        if values_close(value, best_value):
            # a tie goes to the smaller id sequence.  The masks agree below
            # their lowest differing bit; best < mask, so mask's ids come
            # first iff mask holds that bit and best has a member above it
            low = (mask ^ best) & -(mask ^ best)
            if not (mask & low and best >= low << 1):
                continue
        elif value < best_value:
            continue
        best, best_size, best_value = mask, total, value
    return Solution(frozenset(instance.subset(best)), best_value, best_size)


# ---------------------------------------------------------------------------
# breakpoints and sweeps

def breakpoints(instance: Instance) -> tuple[int, ...]:
    """Ascending capacities at which any algorithm's behavior can change."""
    _guard(instance)
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
    _guard(instance)
    gamma = check_capacity(gamma)
    c = curvature(instance)
    opt = brute_force_opt(instance, gamma).value
    run = greedy_sequence(instance, gamma)
    rec = _Recorder()
    for j in range(1, run.k + 1):
        z = run.prefix_sizes[j - 1] / gamma
        if c <= TOL:
            factor = z  # analytic limit of (1/c)(1 - exp(-c z)) as c -> 0
        else:
            factor = (1.0 - math.exp(-c * z)) / c
        fj, bound = instance.value(run.prefix(j)), factor * opt
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
    _guard(instance)
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
        delta = run.marginals[j - 1]
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

def check_curvature_lemma(instance: Instance, trials: int = 10000,
                          seed: int = 0) -> CheckReport:
    """Curvature bounds on marginals plus the marginal-sum upper bound.

    Exhaustive over all qualifying set pairs for n <= MAX_CURVATURE_EXHAUSTIVE,
    seeded random samples otherwise.  Three families are checked:
      marginal_lower:      (1-c) f({j}) <= f(A + j) - f(A)
      disjoint_union:      f(A + B) >= f(A) + (1-c) sum of f({i}), i in B
      marginal_sum_upper:  f(B) <= f(A) + sum of marginals of B - A on A
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    c = curvature(instance)
    n, value, subset = instance.n, subset_values(instance), instance.subset
    rec = _Recorder()
    counts = {"marginal_lower": 0, "disjoint_union": 0, "marginal_sum_upper": 0}

    # sets are bitmasks over instance.ids, j a position in it
    def check_marginal_lower(a: int, j: int) -> None:
        counts["marginal_lower"] += 1
        rec.observe(lambda: f"marginal_lower A={list(subset(a))} j={instance.ids[j]}",
                    value(a | 1 << j) - value(a), (1.0 - c) * value(1 << j))

    def check_disjoint_union(a: int, b: int) -> None:
        counts["disjoint_union"] += 1
        rec.observe(lambda: f"disjoint_union A={list(subset(a))} B={list(subset(b))}",
                    value(a | b) - value(a),
                    (1.0 - c) * left_sum(value(1 << i) for i in range(n) if b >> i & 1))

    def check_marginal_sum_upper(a: int, b: int) -> None:
        counts["marginal_sum_upper"] += 1
        fa = value(a)
        bound = fa + left_sum(value(a | 1 << i) - fa for i in range(n) if (b & ~a) >> i & 1)
        rec.observe(lambda: f"marginal_sum_upper A={list(subset(a))} B={list(subset(b))}",
                    bound, value(b))

    if n <= MAX_CURVATURE_EXHAUSTIVE:
        for a in range(1 << n):
            for j in range(n):
                if not a >> j & 1:
                    check_marginal_lower(a, j)
        for code in range(3 ** n):
            a = b = 0
            rest = code
            for i in range(n):
                rest, digit = divmod(rest, 3)
                if digit == 1:
                    a |= 1 << i
                elif digit == 2:
                    b |= 1 << i
            check_disjoint_union(a, b)
            # reuse the assignment as a nested pair: A and A|B
            check_marginal_sum_upper(a, a | b)
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        for _ in range(trials):
            j = rng.choice(range(n))
            a = sum(1 << i for i in range(n) if i != j and rng.random() < 0.5)
            check_marginal_lower(a, j)

            a = b = 0
            for i in range(n):
                r = rng.random()
                if r < 1.0 / 3.0:
                    a |= 1 << i
                elif r < 2.0 / 3.0:
                    b |= 1 << i
            check_disjoint_union(a, b)
            check_marginal_sum_upper(a, a | b)
        mode = "sampled"

    return CheckReport("curvature_lemma", rec.trials, tuple(rec.failures),
                       rec.worst, notes=(f"mode={mode}",), counts=counts)


# ---------------------------------------------------------------------------
# indispensable-item properties

def check_indispensable_properties(instance: Instance) -> CheckReport:
    """Structural checks on every indispensable item.

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
    for it in sorted(instance.items, key=lambda it: (it.size, it.id)):
        res = is_indispensable(instance, it)
        if not res.indispensable:
            continue
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
            order = greedy_sequence(instance, cap).order
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
