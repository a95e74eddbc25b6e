"""One workload run in a fresh process: set-up, then a closed loop of ops.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON object
as its last line.  Set-up time runs from the top of this file, before the
library is imported, to the moment every input file is written.

Modes: ``--setup-only`` stops after set-up; ``--ops N`` runs exactly the
first N ops, instead of running for ``--seconds`` and then to the end of the
current instance; ``--trace`` installs the
tracer after the import, so set-up spans include instance generation.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_REPORTED_FAILURES = 5


def _reference(workload: str, seed: int) -> dict[str, str]:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["digests"][workload] if seed == ref["seed"] else {}


def _host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop.  On a shared host the same
    code runs up to 1.7 times slower in some phases than in others; the probe,
    taken before and after the ops, shows which phase a run fell in."""
    times = []
    for _ in range(100):
        t = perf_counter()
        s = 0
        for i in range(20000):
            s += i * i % 7
        times.append((perf_counter() - t) * 1000.0)
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None, help="traced runs: write spans here")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import numpy
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload]
    ops = wl.make_ops(args.seed, args.workdir)
    setup_s = perf_counter() - T0
    out = {"setup_s": setup_s, "python": platform.python_version(),
           "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    reference = _reference(wl.name, args.seed)
    state: dict = {}
    latencies_ms: list[float] = []
    failures: list[str] = []
    failed = checked = 0
    probe_before = _host_probe_ms()
    start = perf_counter()
    deadline = start + args.seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        if args.ops:
            if i == args.ops:
                break
        # a timed run ends with an instance, since the first op on each
        # instance (building its start list or subset table) costs the most
        elif op.fresh and perf_counter() >= deadline:
            break
        if tracer:
            tracer.op = i
        t = perf_counter()
        try:
            result = wl.run(op, state)
            error = None
        except Exception:  # a failed op is counted, not fatal
            error = traceback.format_exc(limit=3)
        latencies_ms.append((perf_counter() - t) * 1000.0)
        if tracer:
            tracer.op = -1
        if error is None:
            ok, reason, digest = wl.check(op, result)
            expected = reference.get(op.label)
            if expected is not None:
                checked += 1
                if digest != expected:
                    ok, reason = False, f"digest {digest} != reference {expected}"
        else:
            ok, reason = False, error
        if not ok:
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"{op.label}: {reason}")
        i += 1
    elapsed = perf_counter() - start
    probe_ms = [probe_before, _host_probe_ms()]

    out.update({
        "ops": i, "failed": failed, "failures": failures,
        "reference_checked": checked, "elapsed_s": elapsed,
        "latencies_ms": latencies_ms, "host_probe_ms": probe_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer:
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
