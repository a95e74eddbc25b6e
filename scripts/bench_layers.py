"""Layer timings of subknap's two regimes, each row in a fresh process.

    python3 scripts/bench_layers.py --quick
    python3 scripts/bench_layers.py --out BENCH.json

Each --checkout LABEL=DIR names a source tree (a directory holding
src/subknap); the default is this repository as "this".  Every row is one
child process, which generates the seed-0 instance of its kind and item
count and times it in CPU seconds (time.process_time).  A run measures both
suites:

- ``exhaustive`` (modular and coverage, n = 16/18/20/22):
  ``core.subset_table``, ``exact.brute_force_opt`` at every breakpoint and
  ``core.validate_oracle``, in that order in one child, and a digest of the
  optima; and its ``lemma`` phase (n = 8/10/16/22), ``exact.check_curvature_lemma``
  at verify's default of LEMMA_TRIALS trials on the seed-0 and then the seed-1
  instance, each with its subset table and curvature built untimed, in
  milliseconds: ``cold_ms`` for the first instance on n items in the process,
  ``warm_ms`` for the second, and a digest of both reports;
- ``oblivious`` (modular, coverage and planted, n = 100/300/500 and, after
  the lemma rows, 1000/2000), one child per phase: ``order``, the greedy order over every item (``greedy_sequence``
  at the largest item size); ``start_list``, ``start_item_list``;
  ``policy``, ``start_item_list`` and then ``execute_policy`` at the 200
  capacities of the benchmark's grid (k/200 of the total size, rounded); and
  a digest of what the phase computed.

Every child reports its ru_maxrss, and runs under an address-space limit of
MAX_MB and a wall-time limit of TIMEOUT_S.  It first checks that subknap comes
from its checkout's src/, not from an installed copy.  A child that fails, or
exceeds either limit, gives a ``failed`` row with its exit code and last
stderr line, or the timeout; the run goes on.  Digests equal between
checkouts mean equal answers.

--perfbench-rounds K runs each checkout's ``perfbench/run.py --seconds 30
--trace 0`` K times per workload at --perfbench-seed, alternating which
checkout goes first, and records every run and the median of every metric.
--quick times n=12 (exhaustive), n=100 (oblivious) and n=8/12 (lemma) only,
writes no file unless --out is given, and exits 1 if any child failed.

BENCH_11.json holds exhaustive rows and BENCH_12.json oblivious rows; they
compare with this report's rows by kind, n and phase.  BENCH_15.json,
BENCH_16.json, BENCH_17.json, BENCH_20.json, BENCH_21.json, BENCH_22.json,
BENCH_23.json, BENCH_24.json, BENCH_26.json, BENCH_27.json and
BENCH_28.json hold both suites, the last four with the planted rows,
BENCH_27.json and BENCH_28.json also with the lemma rows, and BENCH_28.json
with the oblivious rows at n = 1000/2000.  With the
tree before the measured commit in ../old (git archive COMMIT^ | tar -x -C
../old) and the commit itself checked out in ., these commands measure them
again, the first two each next to the rows of the other suite:

    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 6 --out BENCH_11.json        # COMMIT = 8e1678f
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 10 --perfbench-seed 5 --out BENCH_12.json  # 1645017
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 6 --out BENCH_15.json        # COMMIT^ = b859beb
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 6 --out BENCH_16.json        # COMMIT^ = 7e5543b
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 6 --out BENCH_17.json        # COMMIT^ = 278c6a1
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 6 --out BENCH_20.json        # COMMIT^ = ed1d844
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --out BENCH_21.json                             # COMMIT^ = 4706a87
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --out BENCH_22.json                             # COMMIT^ = 351a974
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 10 --out BENCH_23.json       # COMMIT^ = 3653ec8
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 10 --out BENCH_24.json       # COMMIT^ = a29c401
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --out BENCH_26.json                             # COMMIT^ = 879ade6
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 10 --out BENCH_27.json       # COMMIT^ = b4f60e0
    python3 scripts/bench_layers.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 10 --out BENCH_28.json       # COMMIT^ = bad5984

BENCH_11.json's parent rows at n=22 (212 and 264 s of CPU) were measured
without limits; under TIMEOUT_S they come back failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("modular", "coverage")
GRID = 200
MAX_MB = 1536
TIMEOUT_S = 120.0
WORKLOADS = ("corpus_verify", "oblivious_n100")
PERFBENCH_SECONDS = 30
#: verify's default --trials, one block of the sampled curvature lemma
LEMMA_TRIALS = 2000


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _timed(fn):
    start = time.process_time()
    result = fn()
    return result, round(time.process_time() - start, 3)


def _exhaustive(instance) -> dict:
    from subknap import core, exact

    caps = core.size_breakpoints(instance.items)
    _, table_s = _timed(lambda: core.subset_table(instance))
    optima, opt_s = _timed(lambda: [exact.brute_force_opt(instance, g) for g in caps])
    _, validation_s = _timed(lambda: core.validate_oracle(instance))
    return {"breakpoints": len(caps), "table_s": table_s,
            "opt_all_breakpoints_s": opt_s, "validation_s": validation_s,
            "opt_digest": _digest([(sorted(o.items), o.value, o.total_size)
                                   for o in optima])}


def _oblivious(instance, phase: str) -> dict:
    import subknap as sk

    instance = sk.normalize_instance(instance)
    total = sum(it.size for it in instance.items)

    def run():
        if phase == "order":
            return sk.greedy_sequence(instance, max(it.size for it in instance.items)).order
        start_list = [(e.item_id, e.reason) for e in sk.start_item_list(instance)]
        if phase == "start_list":
            return start_list
        caps = sorted({max(1, round(k * total / GRID)) for k in range(1, GRID + 1)})
        return [sk.execute_policy(instance, sk.make_fit_oracle(g)).to_dict() for g in caps]
    result, cpu_s = _timed(run)
    return {"cpu_s": cpu_s, "digest": _digest(result)}


def _lemma(kind: str, n: int) -> dict:
    from subknap import core, exact
    from subknap.generate import GeneratorSpec, generate_instance

    instances = [generate_instance(GeneratorSpec(kind, n=n, seed=s)) for s in (0, 1)]
    for instance in instances:
        core.subset_table(instance)
        core.curvature(instance)
    times, reports = [], []
    for instance in instances:
        start = time.process_time()
        report = exact.check_curvature_lemma(instance, LEMMA_TRIALS)
        times.append(round((time.process_time() - start) * 1000, 2))
        reports.append((report.to_dict(), repr(report.worst_slack)))
    return {"cold_ms": times[0], "warm_ms": times[1], "digest": _digest(reports)}


# (suite, kinds, item counts, item counts under --quick, phases; None for one
# child per kind and n); planted follows the kinds of the committed reports,
# and its start list, unlike theirs, is not empty; the lemma rows follow, and
# then the oblivious rows past n=500, which --quick leaves out
SUITES = (("exhaustive", KINDS, (16, 18, 20, 22), (12,), (None,)),
          ("oblivious", (*KINDS, "planted"), (100, 300, 500), (100,),
           ("order", "start_list", "policy")),
          ("exhaustive", KINDS, (8, 10, 16, 22), (8, 12), ("lemma",)),
          ("oblivious", ("modular", "planted", "coverage"), (1000, 2000), (),
           ("order", "start_list", "policy")))


def rows(quick: bool) -> list[dict]:
    """The key of every row of a run, in the order they are measured."""
    return [{"suite": suite, "kind": kind, "n": n, **({"phase": p} if p else {})}
            for suite, kinds, sizes, quick_sizes, phases in SUITES
            for kind in kinds for n in (quick_sizes if quick else sizes)
            for p in phases]


def measure(key: dict) -> dict:
    """The row of `key`, measured in this process."""
    from subknap.generate import GeneratorSpec, generate_instance

    if key.get("phase") == "lemma":
        result = _lemma(key["kind"], key["n"])
    else:
        instance = generate_instance(GeneratorSpec(key["kind"], n=key["n"], seed=0))
        if key["suite"] == "exhaustive":
            result = _exhaustive(instance)
        else:
            result = _oblivious(instance, key["phase"])
    return {**key, **result,
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def run_child(checkout: Path, key: dict) -> dict:
    """The row of `key`, measured in a child process on `checkout`'s sources."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(checkout), json.dumps(key)],
            env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**key, "failed": f"over {TIMEOUT_S:g} s of wall time"}
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {**key, "failed": f"exit {proc.returncode}: {last[-200:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child(checkout: str, key: str) -> None:
    cap = MAX_MB * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    import subknap

    src, module = Path(checkout, "src").resolve(), Path(subknap.__file__).resolve()
    if not module.is_relative_to(src):
        sys.exit(f"subknap imported from {module}, outside {src}")
    print(json.dumps(measure(json.loads(key))))


def _perfbench(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"perfbench {workload} in {checkout} is not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def perfbench_rounds(checkouts: dict[str, Path], rounds: int, seed: int = 0) -> dict:
    """Every checkout's perfbench metrics, `rounds` runs per workload with
    alternating checkout order, and the median of every metric."""
    runs = {label: {w: [] for w in WORKLOADS} for label in checkouts}
    for k in range(rounds):
        order = list(checkouts.items())
        for label, checkout in order[::-1] if k % 2 else order:
            for workload in WORKLOADS:
                runs[label][workload].append(_perfbench(checkout, workload, seed))
                print(f"{label:>8} {workload} round {k}: "
                      f"{json.dumps(runs[label][workload][-1])}", flush=True)
    return {"rounds": rounds, "seed": seed, "seconds": PERFBENCH_SECONDS,
            "medians": {label: {w: {name: statistics.median(r[name] for r in rs)
                                    for name in rs[0]}
                                for w, rs in per.items()}
                        for label, per in runs.items()},
            "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", nargs=2, metavar=("CHECKOUT", "KEY"), help=argparse.SUPPRESS)
    parser.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR")
    parser.add_argument("--perfbench-rounds", type=int, default=0)
    parser.add_argument("--perfbench-seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="n=12 and n=100 only, a smoke test")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.child:
        _child(*args.child)
        return 0

    checkouts = dict(c.split("=", 1) for c in args.checkout) or {"this": str(ROOT)}
    checkouts = {label: Path(path).resolve() for label, path in checkouts.items()}
    report: dict = {"python": sys.version.split()[0], "cpus": os.cpu_count(),
                    "max_mb": MAX_MB, "timeout_s": TIMEOUT_S,
                    "layers": {label: [] for label in checkouts}}
    failed = False
    for key in rows(args.quick):
        for label, checkout in checkouts.items():
            row = run_child(checkout, key)
            failed |= "failed" in row
            report["layers"][label].append(row)
            print(f"{label:>8} {json.dumps(row)}", flush=True)

    if args.perfbench_rounds:
        report["perfbench"] = perfbench_rounds(checkouts, args.perfbench_rounds,
                                               args.perfbench_seed)

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    # a failed child is a result when comparing checkouts, not in a smoke run
    return 1 if failed and args.quick else 0


if __name__ == "__main__":
    sys.exit(main())
