"""Regenerate reference.json: the digest of every op of the default seed.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; every op must
pass its invariant checks, or nothing is written.
"""

import json
import os
import shutil
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    digests = {}
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        for name, wl in workloads.WORKLOADS.items():
            state: dict = {}
            digests[name] = {}
            for op in wl.make_ops(workloads.DEFAULT_SEED, workdir):
                ok, reason, digest = wl.check(op, wl.run(op, state))
                if not ok:
                    print(f"{name} {op.label}: {reason}", file=sys.stderr)
                    return 1
                digests[name][op.label] = digest
            print(f"{name}: {len(digests[name])} ops")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": digests}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
