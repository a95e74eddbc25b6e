"""subknap benchmark: one seeded workload per call, checked and timed.

    python3 perfbench/run.py --workload corpus_verify --seed 0 --seconds 50 --trace 0

Run from the repository root.  Every workload runs in fresh worker processes
(``worker.py``) against the sources under ``src``; this process never imports
the library.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, plus the run's provenance.  Workload
names, metric names and units come from ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
set-up time of several fresh processes; the last of them then runs ops in a
closed loop (one caller, one op at a time) for ``--seconds``.

``--trace 1`` runs the workload's first ``TRACE_OPS`` ops three times, each in
a fresh process: untraced, traced, and traced again.  The per-layer metrics
come from the first traced run; ``trace.overhead_ratio`` is its op-phase wall
time over the untraced run's.  Every count must repeat exactly in the second
traced run, or the run is not correct.

Result records go to ``.perfbench_out/``, spans of traced runs alongside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

#: per-workload op count of traced runs (fixed, so counts can repeat exactly)
TRACE_OPS = {"corpus_verify": 50, "oblivious_n100": 100}
SETUP_RUNS = 5
#: every worker must end by then, so the whole call ends within 180 s
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A worker failed to produce a result."""


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process in its own scratch directory."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workdir", workdir, *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran out of time") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Value at quantile q and the number of samples beyond it."""
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _provenance(workload: str, seed: int, result: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repository
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "subknap").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "git_commit": commit,
            "source_sha256": src.hexdigest()[:16], "nproc": os.cpu_count(),
            "python": result["python"], "numpy": result["numpy"]}


def _end_to_end(a, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    setups = [_worker(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    res = _worker(base + ["--seconds", str(a.seconds)], deadline)
    setups.append(res["setup_s"])
    lat = sorted(res["latencies_ms"])
    p90, beyond = _nearest_rank(lat, 0.9)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["ops"] / res["elapsed_s"],
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": p90,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    record = {**_provenance(a.workload, a.seed, res),
              "ops": res["ops"], "op_p90_samples_beyond": beyond,
              "run_seconds": a.seconds, "setup_runs_s": setups,
              "host_probe_ms": res["host_probe_ms"],
              "reference_checked": res["reference_checked"],
              "op_fail_ratio": res["failed"] / res["ops"],
              "failures": res["failures"]}
    summary = {"attempted": res["ops"], "failed": res["failed"]}
    return metrics, {**record, **summary}


def _traced(a, deadline: float) -> tuple[dict, dict]:
    n = TRACE_OPS[a.workload]
    base = ["--workload", a.workload, "--seed", str(a.seed), "--ops", str(n)]
    spans = OUT_DIR / f"{a.workload}-seed{a.seed}-spans.jsonl.gz"
    plain = _worker(base, deadline)
    first = _worker(base + ["--trace", "--spans", str(spans)], deadline)
    second = _worker(base + ["--trace"], deadline)
    metrics = dict(first["layers"])
    metrics["trace.overhead_ratio"] = first["elapsed_s"] / plain["elapsed_s"]
    counts = sorted(k for k, v in first["layers"].items() if isinstance(v, int))
    unstable = [k for k in counts if first["layers"][k] != second["layers"][k]]
    runs = (plain, first, second)
    record = {**_provenance(a.workload, a.seed, first),
              "ops": n, "spans": spans.name,
              "counts_repeat": not unstable, "unstable_counts": unstable,
              "second_traced_layers": second["layers"],
              "failures": [f for r in runs for f in r["failures"]]}
    summary = {"attempted": sum(r["ops"] for r in runs),
               "failed": sum(r["failed"] for r in runs)}
    return metrics, {**record, **summary}


def main(argv=None) -> int:
    spec = _spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "subknap" / "__init__.py").is_file():
        print(f"error: no subknap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if a.trace:
            metrics, record = _traced(a, deadline)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics, record = _end_to_end(a, deadline)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    correct = record["failed"] == 0 and record.get("counts_repeat", True)
    print(f"perfbench {a.workload} seed={a.seed} trace={a.trace}: "
          f"{record['attempted']} ops attempted, {record['failed']} failed")
    for name in units:
        print(f"  {name:<40} {metrics[name]:>14.6g} {units[name]}")
    if not a.trace:
        print(f"  {'op_fail_ratio':<40} {record['op_fail_ratio']:>14.6g} ratio")
        print(f"  op_p90_ms has {record['op_p90_samples_beyond']} samples beyond it")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if a.trace and not record["counts_repeat"]:
        print(f"  NOT DETERMINISTIC: {record['unstable_counts']}")
    print("provenance: " + json.dumps({k: v for k, v in record.items()
                                       if k not in ("failures", "second_traced_layers")}))
    record["metrics"] = metrics
    out = OUT_DIR / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
