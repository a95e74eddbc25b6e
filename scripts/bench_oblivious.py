"""Layer timings of the oblivious code: one greedy order, the start list, and
the start list plus the policy at 200 capacities, each in a fresh process.

    python3 scripts/bench_oblivious.py --out BENCH_12.json
    python3 scripts/bench_oblivious.py --checkout parent=../old --checkout pr=. \\
        --perfbench-rounds 10 --perfbench-seed 5 --out BENCH_12.json
    python3 scripts/bench_oblivious.py --quick

Each --checkout LABEL=DIR names a source tree (a directory holding
src/subknap); the default is this repository as "this".  For every kind, item
count and phase, a child process generates the seed-0 instance and times in
CPU seconds (time.process_time) one phase:

- ``order``: the greedy order over every item (``greedy_sequence`` at the
  largest item size);
- ``start_list``: ``start_item_list``;
- ``policy``: ``start_item_list``, then ``execute_policy`` at the 200
  capacities of the benchmark's grid (k/200 of the total size, rounded).

Each child reports its ru_maxrss and a digest of what the phase computed (the
order, the start list, or every trace), so that two checkouts can be compared
for equal answers.  A child runs under an
address-space limit of MAX_MB and a wall-time limit of TIMEOUT_S; one that
exceeds either is recorded as failed, with the reason.

--perfbench-rounds K runs each checkout's ``perfbench/run.py --trace 0`` K
times per workload at --perfbench-seed, alternating which checkout goes
first, and records every run and the median of every metric (as
bench_exhaustive.py does, whose code it shares).  --quick times n=100 only
and writes no file unless --out is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from bench_exhaustive import perfbench_rounds

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("modular", "coverage")
SIZES = (100, 300, 500)
PHASES = ("order", "start_list", "policy")
GRID = 200
MAX_MB = 1536
TIMEOUT_S = 120.0


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _child(kind: str, n: int, phase: str) -> dict:
    """Time one phase on generated (kind, n, seed 0) in this process."""
    import subknap as sk

    instance = sk.normalize_instance(sk.generate_instance(sk.GeneratorSpec(kind, n=n, seed=0)))
    total = sum(it.size for it in instance.items)
    start = time.process_time()
    if phase == "order":
        result = sk.greedy_sequence(instance, max(it.size for it in instance.items)).order
    else:
        start_list = sk.start_item_list(instance)
        result = [(e.item_id, e.reason) for e in start_list]
        if phase == "policy":
            caps = sorted({max(1, round(k * total / GRID)) for k in range(1, GRID + 1)})
            result = [sk.execute_policy(instance, sk.make_fit_oracle(g)).to_dict()
                      for g in caps]
    cpu = time.process_time() - start
    return {"kind": kind, "n": n, "phase": phase, "cpu_s": round(cpu, 3),
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "digest": _digest(result)}


def _run_child(checkout: Path, kind: str, n: int, phase: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    row = {"kind": kind, "n": n, "phase": phase}
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", kind, str(n), phase],
            env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**row, "failed": f"over {TIMEOUT_S:g} s of wall time"}
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {**row, "failed": f"exit {proc.returncode} under {MAX_MB} MB "
                                 f"of address space: {last[-200:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", nargs=3, metavar=("KIND", "N", "PHASE"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR")
    parser.add_argument("--perfbench-rounds", type=int, default=0)
    parser.add_argument("--perfbench-seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="n=100 only, a smoke test")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.child:
        cap = MAX_MB * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        kind, n, phase = args.child
        print(json.dumps(_child(kind, int(n), phase)))
        return 0

    checkouts = dict(c.split("=", 1) for c in args.checkout) or {"this": str(ROOT)}
    checkouts = {label: Path(path).resolve() for label, path in checkouts.items()}
    sizes = [100] if args.quick else SIZES
    report: dict = {"python": sys.version.split()[0], "cpus": os.cpu_count(),
                    "max_mb": MAX_MB, "timeout_s": TIMEOUT_S,
                    "layers": {label: [] for label in checkouts}}
    failed = False
    for kind in KINDS:
        for n in sizes:
            for phase in PHASES:
                for label, checkout in checkouts.items():
                    row = _run_child(checkout, kind, n, phase)
                    failed |= "failed" in row
                    report["layers"][label].append(row)
                    print(f"{label:>8} {kind:<9} n={n:<4} {json.dumps(row)}", flush=True)

    if args.perfbench_rounds:
        report["perfbench"] = perfbench_rounds(checkouts, args.perfbench_rounds,
                                               args.perfbench_seed)

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    # a failed child is a result when comparing checkouts, not in a smoke run
    return 1 if failed and args.quick else 0


if __name__ == "__main__":
    sys.exit(main())
