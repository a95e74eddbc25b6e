"""Command-line interface: gen, eval, sweep, bound, verify.

Exit codes: 0 success, 1 verification failure, 2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from functools import cache

from . import bounds, exact
from .core import (ConfigurationError, OracleValidationError, check_capacity,
                   curvature, load_instance, normalize_instance, save_instance,
                   sorted_ids, validate_oracle, value_ge, value_gt)
from .generate import KINDS, GenerationError, GeneratorSpec, generate_instance
from .greedy import Solution, agreedy, mgreedy
from .policy import execute_policy, make_fit_oracle

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2

#: `bound` builds its whole grid in memory
MAX_GRID_POINTS = 10 ** 6


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="subknap",
        description="Submodular knapsack maximization with known and unknown capacity")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True, help="item count")
    p.add_argument("--size-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--elements", type=int, default=None,
                   help="coverage: element universe size")
    p.add_argument("--density", type=float, default=0.5,
                   help="coverage: per-element cover probability")
    p.add_argument("--exponent", type=float, default=0.5,
                   help="concave_modular: exponent in (0, 1]")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("eval", help="run one algorithm at one capacity")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--alg", choices=("opt", "mgreedy", "agreedy", "policy"),
                   required=True)

    p = sub.add_parser("sweep", help="robustness sweep over all breakpoints")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("bound", help="tabulate the robustness factor curve")
    p.add_argument("grid", help="curvature grid as start:end:step, "
                   f"at most {MAX_GRID_POINTS} points")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("verify", help="run every checker against an instance")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--trials", type=int, default=2000,
                   help="random trials per curvature inequality, "
                   f"at most {exact.MAX_LEMMA_TRIALS}")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the curvature lemma's random trials "
                   f"(more than {exact.MAX_CURVATURE_EXHAUSTIVE} items)")
    return parser


def _print_solution(solution: Solution) -> None:
    print("items:", " ".join(sorted_ids(solution.items)) or "(empty)")
    print(f"value: {solution.value!r}")
    print(f"total_size: {solution.total_size}")


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(kind=args.kind, n=args.n, size_max=args.size_max,
                         seed=args.seed, elements=args.elements,
                         cover_density=args.density, exponent=args.exponent)
    instance = generate_instance(spec)
    save_instance(instance, args.out, header=spec.header())
    print(f"wrote {args.out} ({instance.n} items, kind={spec.kind}, seed={spec.seed})")
    return EXIT_OK


def _cmd_eval(args) -> int:
    instance = normalize_instance(load_instance(args.instance))
    check_capacity(args.gamma)
    if args.alg == "opt":
        _print_solution(exact.brute_force_opt(instance, args.gamma))
    elif args.alg == "mgreedy":
        _print_solution(mgreedy(instance, args.gamma))
    elif args.alg == "agreedy":
        _print_solution(agreedy(instance, args.gamma))
    else:
        trace = execute_policy(instance, make_fit_oracle(args.gamma))
        _print_solution(trace.packed)
        for a in trace.attempts:
            print(f"attempt: {a.item_id} phase={a.phase} "
                  f"fitted={'yes' if a.fitted else 'no'}")
        print(f"fit_queries: {trace.query_count}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    instance = normalize_instance(load_instance(args.instance))
    report = exact.robustness_sweep(instance)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    print(f"wrote {args.out} ({len(report.rows)} breakpoints, "
          f"empirical_robustness={report.empirical_robustness!r})")
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"grid must be start:end:step, got {spec!r}")
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigurationError(f"malformed grid {spec!r}: {exc}") from exc
    if not (0.0 <= start <= 1.0 and 0.0 <= end <= 1.0):
        raise ConfigurationError("grid endpoints must lie in [0, 1]")
    if end < start:
        raise ConfigurationError("grid end must not precede start")
    if not math.isfinite(step):
        raise ConfigurationError(f"grid step must be finite, got {step}")
    if start == end:
        return [start]
    if step <= 0:
        raise ConfigurationError("grid step must be positive")
    # compared as a float, since 1 / 1e-320 overflows to inf
    if (end - start) / step >= MAX_GRID_POINTS:
        raise ConfigurationError(
            f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    count = int(round((end - start) / step))
    grid = [round(start + i * step, 12) for i in range(count + 1)]
    return [g for g in grid if g <= end + 1e-12]


def _cmd_bound(args) -> int:
    table = bounds.bound_table(_parse_grid(args.grid))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(table.to_csv())
    print(f"wrote {args.out} ({len(table.results)} grid points)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    # refuse before any outcome is printed, and bad options before any work
    if not 1 <= args.trials <= exact.MAX_LEMMA_TRIALS:
        raise ConfigurationError(
            f"--trials must lie in [1, {exact.MAX_LEMMA_TRIALS}], got {args.trials}")
    if args.seed < 0:  # random.Random would take its absolute value
        raise ConfigurationError(f"--seed must be nonnegative, got {args.seed}")
    instance = load_instance(args.instance)
    with contextlib.suppress(OracleValidationError):  # an invalid table fails below
        instance = normalize_instance(instance)
    report = validate_oracle(instance)
    if report.ok:
        caps = exact.breakpoints(instance)
        curvature(instance)
    failed = False

    def outcome(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failed
        if ok:
            print(f"PASS {name}{(' ' + detail) if detail else ''}")
        else:
            failed = True
            print(f"FAIL {name}: {detail}")

    outcome("validate_oracle",
            report.ok,
            f"(mode={report.mode})" if report.ok else str(report.first_violation))
    if not report.ok:
        print("oracle invalid; algorithm checks skipped")
        return EXIT_VERIFY_FAILED

    def fmt_slack(value: float) -> str:
        return "n/a" if math.isinf(value) else f"{value:.3g}"

    def run_check(check: exact.CheckReport) -> None:
        detail = f"(trials={check.trials}, worst_slack={fmt_slack(check.worst_slack)})"
        if check.passed:
            outcome(check.name, True, detail)
        else:
            witnesses = "; ".join(f.witness for f in check.failures[:3])
            outcome(check.name, False, f"{detail} {witnesses}")

    run_check(exact.check_curvature_lemma(instance, trials=args.trials,
                                          seed=args.seed))
    run_check(exact.check_indispensable_properties(instance))

    t6_worst = l2_worst = float("inf")
    t6_fail = l2_fail = 0
    skipped = 0
    for gamma in caps:
        t6 = exact.check_theorem6(instance, gamma)
        t6_worst = min(t6_worst, t6.worst_slack)
        t6_fail += len(t6.failures)
        l2 = exact.check_lemma2(instance, gamma)
        if l2.trials == 0:
            skipped += 1
        l2_worst = min(l2_worst, l2.worst_slack)
        l2_fail += len(l2.failures)
    outcome("theorem6 (all breakpoints)", t6_fail == 0,
            f"(worst_slack={fmt_slack(t6_worst)})")
    outcome("lemma2 (all breakpoints)", l2_fail == 0,
            f"(worst_slack={fmt_slack(l2_worst)}, "
            f"skipped={skipped} trivial capacities)")

    report = exact.robustness_sweep(instance)
    order_ok = all(value_ge(r.opt_value, max(r.mg_value, r.ag_value, r.policy_value))
                   for r in report.rows)
    outcome("optimum dominates all algorithms", order_ok)
    prop_ok = all(value_ge(r.mg_value, r.ag_value) for r in report.rows)
    outcome("mgreedy >= agreedy at every breakpoint", prop_ok)
    main_ok = all(value_ge(r.policy_value, r.ag_value) for r in report.rows)
    outcome("policy >= agreedy at every breakpoint", main_ok)
    t10_ok = all(value_ge(r.ag_value, report.alpha_bound * r.opt_value)
                 for r in report.rows)
    outcome("agreedy >= alpha(c) * optimum at every breakpoint", t10_ok,
            f"(c={report.curvature!r}, alpha={report.alpha_bound!r})")
    outcome("empirical robustness >= alpha(c)",
            value_ge(report.empirical_robustness, report.alpha_bound),
            f"(empirical={report.empirical_robustness!r})")
    strict = [r.gamma for r in report.rows if value_gt(r.mg_value, r.ag_value)]
    if strict:
        print(f"note: strict mgreedy > agreedy at gamma in {strict}")

    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": _cmd_gen, "eval": _cmd_eval, "sweep": _cmd_sweep,
                "bound": _cmd_bound, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except (ConfigurationError, OracleValidationError, GenerationError,
            exact.GuardError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
