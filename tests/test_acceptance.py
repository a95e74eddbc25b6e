"""Acceptance suite: every criterion checked at its stated tolerance.

Run with -s to see one PASS/FAIL line per criterion.  The corpus fixtures are
session scoped, so the 200 seeded instances and their sweeps are built once.
"""

import math
import time

import pytest

from helpers import ex1, ex3, sneaky_bad_table, superadditive_table
from subknap.cli import main
from subknap.core import (Instance, Item, OracleValidationError, TableOracle,
                          instance_from_dict, instance_to_dict, validate_oracle)
from subknap.exact import (breakpoints, check_curvature_lemma, check_lemma2,
                           check_theorem6, robustness_sweep)
from subknap.greedy import agreedy_override, greedy_sequence
from subknap.policy import (execute_policy, indispensability_interval,
                            is_indispensable, make_fit_oracle)

TOL = 1e-9


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_bound_curve(tmp_path):
    expected = [(0.0, 0.5), (0.1, 0.4772), (0.2, 0.4577), (0.3, 0.4407),
                (0.4, 0.4256), (0.5, 0.4119), (0.6, 0.3994), (0.7, 0.3878),
                (0.8, 0.3771), (0.9, 0.3672), (1.0, 0.3578)]
    out = tmp_path / "curve.csv"
    t0 = time.perf_counter()
    code = main(["bound", "0:1:0.1", "-o", str(out)])
    elapsed = time.perf_counter() - t0
    lines = out.read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    worst = 0.0
    for (c_ref, a_ref), row in zip(expected, rows):
        assert float(row[0]) == pytest.approx(c_ref)
        worst = max(worst, abs(float(row[2]) - a_ref))
    kawase = float(next(line for line in lines if "kawase" in line).split("=")[1])
    ok = (code == 0 and len(rows) == 11 and worst <= 5e-4
          and abs(kawase - 0.0602) <= 5e-5 and elapsed < 1.0)
    _report("criterion 1 (robustness curve)", ok,
            f"11 points, worst |alpha error|={worst:.2e}, "
            f"kawase={kawase:.6f}, {elapsed:.3f}s")


def test_criterion_2_policy_dominates_agreedy(corpus_sweeps):
    records, elapsed = corpus_sweeps
    violations = rows = 0
    for spec, inst, rep in records:
        for r in rep.rows:
            rows += 1
            if r.policy_value < r.ag_value - TOL * max(1.0, r.ag_value):
                violations += 1
    ok = violations == 0 and len(records) == 200 and elapsed < 120.0
    _report("criterion 2 (policy >= agreedy)", ok,
            f"{len(records)} instances, {rows} breakpoint rows, "
            f"{violations} violations, corpus sweeps took {elapsed:.1f}s")


def test_criterion_3_agreedy_vs_alpha_of_curvature(corpus_sweeps):
    records, _ = corpus_sweeps
    violations = rows = 0
    for spec, inst, rep in records:
        for r in rep.rows:
            rows += 1
            if r.ag_value < (rep.alpha_bound - TOL) * r.opt_value:
                violations += 1
    _report("criterion 3 (agreedy >= alpha(c) * opt)", violations == 0,
            f"{rows} rows, {violations} violations")


def test_criterion_4_end_to_end_robustness(corpus_sweeps):
    records, _ = corpus_sweeps
    violations = modular_violations = 0
    for spec, inst, rep in records:
        if rep.empirical_robustness < rep.alpha_bound - TOL:
            violations += 1
        if spec.kind == "modular" and rep.empirical_robustness < 0.5 - TOL:
            modular_violations += 1
    ok = violations == 0 and modular_violations == 0
    _report("criterion 4 (empirical robustness >= alpha(c))", ok,
            f"{len(records)} instances, {violations} bound violations, "
            f"{modular_violations} modular below 1/2")


def test_criterion_5_mgreedy_dominates_and_ex3_gap(corpus_sweeps):
    records, _ = corpus_sweeps
    violations = 0
    for spec, inst, rep in records:
        for r in rep.rows:
            if r.mg_value < r.ag_value - TOL * max(1.0, r.ag_value):
                violations += 1
    rep3 = robustness_sweep(ex3())
    row = next(r for r in rep3.rows if r.gamma == 2)
    gap_ok = (abs(row.mg_value - 1.9) <= TOL and abs(row.ag_value - 1.0) <= TOL
              and abs(row.policy_value - 1.0) <= TOL)
    _report("criterion 5 (mgreedy >= agreedy, strict gap fixture)",
            violations == 0 and gap_ok,
            f"{violations} violations; gap fixture gamma=2 gives "
            f"mg={row.mg_value} ag={row.ag_value} policy={row.policy_value}")


def test_criterion_6_prefix_and_marginal_bounds(corpus):
    worst = math.inf
    failures = checked = skipped = 0
    for spec, inst in corpus:
        for gamma in breakpoints(inst):
            t6 = check_theorem6(inst, gamma)
            failures += len(t6.failures)
            worst = min(worst, t6.worst_slack)
            l2 = check_lemma2(inst, gamma)
            failures += len(l2.failures)
            worst = min(worst, l2.worst_slack)
            checked += t6.trials + l2.trials
            if l2.trials == 0:
                skipped += 1
    ok = failures == 0 and worst >= -TOL
    _report("criterion 6 (prefix and marginal bounds)", ok,
            f"{checked} inequality checks, {failures} failures, "
            f"worst_slack={worst:.3g}, {skipped} trivial capacities skipped")


def test_criterion_7_curvature_inequalities_and_negative_control(corpus):
    totals = {"marginal_lower": 0, "disjoint_union": 0, "marginal_sum_upper": 0}
    failures = 0
    for spec, inst in corpus:
        rep = check_curvature_lemma(inst, trials=60, seed=spec.seed)
        failures += len(rep.failures)
        for key in totals:
            totals[key] += rep.counts[key]
    enough = all(count >= 10_000 for count in totals.values())

    # negative control: a non-submodular table must be caught and refused
    bad = Instance((Item("a", 1), Item("b", 1)),
                   TableOracle(superadditive_table()))
    report = validate_oracle(bad)
    witness_ok = (not report.submodular
                  and report.first_violation.kind == "submodular"
                  and abs(report.first_violation.slack - 1.0) <= TOL)
    try:
        greedy_sequence(bad, 2)
        refused = False
    except OracleValidationError:
        refused = True
    sneaky = Instance((Item("a", 1), Item("b", 1), Item("c", 1)),
                      sneaky_bad_table())
    control = check_curvature_lemma(sneaky, trials=5)

    ok = (failures == 0 and enough and witness_ok and refused
          and not control.passed)
    _report("criterion 7 (curvature inequalities)", ok,
            f"counts={totals}, {failures} violations; negative control "
            f"witnessed and refused={witness_ok and refused}")


def test_criterion_8_indispensable_items(corpus):
    iv = indispensability_interval(ex1(), "b")
    fixture_ok = (iv.gamma1, iv.gamma2) == (2, 3)

    flagged = mismatches = 0
    for spec, inst in corpus:
        if spec.kind != "planted":
            continue
        for it in inst.items:
            res = is_indispensable(inst, it)
            if not res.indispensable:
                continue
            flagged += 1
            if not (res.greedy_prefix
                    and it.size > inst.total_size(res.greedy_prefix)):
                mismatches += 1
            interval = indispensability_interval(inst, it)
            if interval is None or interval.gamma1 != it.size:
                mismatches += 1
                continue
            if agreedy_override(inst, interval.gamma1) != it.id:
                mismatches += 1
            if agreedy_override(inst, interval.gamma2 - 1) != it.id:
                mismatches += 1
            if agreedy_override(inst, interval.gamma2) == it.id:
                mismatches += 1
    ok = fixture_ok and flagged >= 50 and mismatches == 0
    _report("criterion 8 (indispensable items)", ok,
            f"fixture interval [2,3)={fixture_ok}, {flagged} flagged items, "
            f"{mismatches} mismatches")


def test_criterion_9_determinism_and_obliviousness(corpus):
    samples = [inst for spec, inst in corpus[::37]][:6]
    byte_identical = all(
        robustness_sweep(inst).to_csv() == robustness_sweep(inst).to_csv()
        == robustness_sweep(instance_from_dict(instance_to_dict(inst))).to_csv()
        for inst in samples)

    trace_pairs = checked = 0
    mismatched = 0
    t3 = execute_policy(ex1(), make_fit_oracle(3))
    t4 = execute_policy(ex1(), make_fit_oracle(4))
    if t3 != t4:
        mismatched += 1
    for inst in samples:
        caps = breakpoints(inst)
        for lo, hi in zip(caps, caps[1:]):
            if hi - 1 > lo:
                trace_pairs += 1
                a = execute_policy(inst, make_fit_oracle(lo))
                b = execute_policy(inst, make_fit_oracle(hi - 1))
                checked += 1
                if a != b:
                    mismatched += 1
    ok = byte_identical and mismatched == 0 and checked > 0
    _report("criterion 9 (determinism and obliviousness)", ok,
            f"sweeps byte-identical={byte_identical}, "
            f"{checked + 1} same-answer capacity pairs, {mismatched} mismatches")
