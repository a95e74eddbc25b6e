"""Layer timings of the exhaustive code: the subset table, the optimum at
every breakpoint and validation, each instance in a fresh process.

    python3 scripts/bench_exhaustive.py --out BENCH_11.json
    python3 scripts/bench_exhaustive.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 5 --out BENCH_11.json
    python3 scripts/bench_exhaustive.py --quick

Each --checkout LABEL=DIR names a source tree (a directory holding
src/subknap); the default is this repository as "this".  For every kind and
item count, a child process generates the seed-0 instance, then times in CPU
seconds (time.process_time) ``core.subset_table``, ``exact.brute_force_opt``
at every breakpoint and ``core.validate_oracle``, in that order, and reports
its ru_maxrss and a digest of the optima, so that two checkouts can be
compared for equal answers.  --perfbench-rounds K runs each checkout's
``perfbench/run.py --seed 0 --seconds 30 --trace 0`` K times per workload,
alternating which checkout goes first, and records every run and the median
of every metric.
--quick times n=12 only and writes no file unless --out is given.
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
SIZES = (16, 18, 20, 22)
WORKLOADS = ("corpus_verify", "oblivious_n100")
PERFBENCH_SECONDS = 30


def _child(kind: str, n: int) -> dict:
    """Time the three phases on generated (kind, n, seed 0) in this process."""
    from subknap import core, exact
    from subknap.generate import GeneratorSpec, generate_instance

    instance = generate_instance(GeneratorSpec(kind, n=n, seed=0))
    caps = core.size_breakpoints(instance.items)
    phases = {}
    start = time.process_time()
    core.subset_table(instance)
    phases["table_s"] = time.process_time() - start
    start = time.process_time()
    optima = [exact.brute_force_opt(instance, gamma) for gamma in caps]
    phases["opt_all_breakpoints_s"] = time.process_time() - start
    start = time.process_time()
    core.validate_oracle(instance)
    phases["validation_s"] = time.process_time() - start
    digest = hashlib.sha256(repr([(sorted(o.items), o.value, o.total_size)
                                  for o in optima]).encode()).hexdigest()[:16]
    return {"kind": kind, "n": n, "breakpoints": len(caps),
            **{k: round(v, 3) for k, v in phases.items()},
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "opt_digest": digest}


def _run_child(checkout: Path, kind: str, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, __file__, "--child", kind, str(n)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


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
    parser.add_argument("--child", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    parser.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR")
    parser.add_argument("--perfbench-rounds", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="n=12 only, a smoke test")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child[0], int(args.child[1]))))
        return 0

    checkouts = dict(c.split("=", 1) for c in args.checkout) or {"this": str(ROOT)}
    checkouts = {label: Path(path).resolve() for label, path in checkouts.items()}
    sizes = [12] if args.quick else SIZES
    report: dict = {"python": sys.version.split()[0], "cpus": os.cpu_count(),
                    "layers": {label: [] for label in checkouts}}
    for kind in KINDS:
        for n in sizes:
            for label, checkout in checkouts.items():
                row = _run_child(checkout, kind, n)
                report["layers"][label].append(row)
                print(f"{label:>8} {kind:<9} n={n:<3} {json.dumps(row)}", flush=True)

    if args.perfbench_rounds:
        report["perfbench"] = perfbench_rounds(checkouts, args.perfbench_rounds)

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
