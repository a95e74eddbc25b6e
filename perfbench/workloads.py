"""The benchmark's workloads: seeded inputs, one op, and its checks.

Each workload turns a seed into a list of ops during set-up, writing every
instance it needs as a JSON file first.  An op that is the first on its
instance (``fresh``) loads that file and normalises it as the CLI does, so
the library's greedy-run cache, subset table and oracle memo start cold on
every instance, as they do for a CLI user.  Ops run one at a time in a closed
loop by ``worker.py``, which stops only before a fresh op, so a timed run
covers whole instances.

``check`` returns (ok, reason, digest).  The digest fingerprints the op's
result and is compared with ``reference.json``, which holds the digests of
every op of the default seed; invariants are checked on every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass

import subknap as sk
from subknap import cli

DEFAULT_SEED = 0

#: the library's value tolerance, restated so the checks do not depend on it
TOL = 1e-9


@dataclass(frozen=True)
class Op:
    label: str               # stable name of the op, the key into reference.json
    paths: tuple[str, ...]   # instance files
    gamma: int | None
    fresh: bool              # first op on its instances: load the files


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _ge(a: float, b: float) -> bool:
    return a >= b - TOL * max(1.0, abs(a), abs(b))


def _ids(solution) -> tuple[str, ...]:
    return tuple(sorted(solution.items))


def _write(workdir: str, label: str, spec: sk.GeneratorSpec) -> tuple[str, sk.Instance]:
    instance = sk.generate_instance(spec)
    path = os.path.join(workdir, label.replace("/", "_") + ".json")
    sk.save_instance(instance, path, header=spec.header())
    return path, instance


def _load(path: str) -> sk.Instance:
    return sk.normalize_instance(sk.load_instance(path))


class CorpusVerify:
    """The 200-instance acceptance corpus (tests/helpers.py::corpus_specs),
    its seed range shifted by the benchmark seed.  One op is ``subknap
    verify``, in process with stdout captured, on each instance of a pair.

    The corpus mixes n=4..10, and a verify's cost grows about 2.5 times per
    item, so single-instance latencies fall into seven bands and their median
    lands between two of them.  A pair of instances drawn in shuffled order
    smooths those bands, so its median moves with the program, not with
    which instance happens to sit at the middle rank."""

    name = "corpus_verify"
    kinds = ("modular", "coverage", "concave_modular", "planted")
    per_kind = 50
    per_op = 2

    def make_ops(self, seed: int, workdir: str) -> list[Op]:
        files = []
        for kind in self.kinds:
            for s in range(seed * self.per_kind, (seed + 1) * self.per_kind):
                kwargs = dict(kind=kind, n=4 + s % 7, size_max=8, seed=s)
                if kind == "concave_modular":
                    kwargs["exponent"] = (s % 10 + 1) / 10.0
                label = f"{kind}/seed={s}/n={kwargs['n']}"
                path, _ = _write(workdir, label, sk.GeneratorSpec(**kwargs))
                files.append((label, path))
        # shuffled so that the ops a timed run reaches are a fair sample
        random.Random(seed).shuffle(files)
        k = self.per_op
        return [Op("+".join(label for label, _ in pair),
                   tuple(path for _, path in pair), None, True)
                for pair in (files[i:i + k] for i in range(0, len(files), k))]

    def run(self, op: Op, state: dict):
        results = []
        for path in op.paths:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", "-i", path])
            results.append((code, out.getvalue()))
        return results

    def check(self, op: Op, results):
        problems = [f"verify exited {code}: {stdout[-300:]}"
                    for code, stdout in results if code != 0]
        return not problems, "; ".join(problems), _digest(*results)


class ObliviousN100:
    """n=100 coverage instances, past the exhaustive guard; one op is one
    capacity of an even grid: the policy with its default start list, then
    agreedy and mgreedy.  The first op on each instance builds its start list."""

    name = "oblivious_n100"
    grid = 200
    specs_per_run = 6

    def specs(self, seed: int):
        for k in range(self.specs_per_run):
            s = seed * self.specs_per_run + k
            yield (f"coverage/seed={s}/n=100",
                   sk.GeneratorSpec(kind="coverage", n=100, size_max=100, seed=s))

    def make_ops(self, seed: int, workdir: str) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for label, spec in self.specs(seed):
            path, instance = _write(workdir, label, spec)
            total = sum(it.size for it in sk.normalize_instance(instance).items)
            caps = sorted({max(1, round(k * total / self.grid))
                           for k in range(1, self.grid + 1)})
            # shuffled, because op cost grows with the capacity
            rng.shuffle(caps)
            ops.extend(Op(f"{label}/gamma={g}", (path,), g, k == 0)
                       for k, g in enumerate(caps))
        return ops

    def run(self, op: Op, state: dict):
        if op.fresh:
            state["instance"] = _load(op.paths[0])
        instance = state["instance"]
        g = op.gamma
        trace = sk.execute_policy(instance, sk.make_fit_oracle(g))
        return trace, sk.agreedy(instance, g), sk.mgreedy(instance, g)

    def check(self, op: Op, result):
        trace, ag, mg = result
        pol = trace.packed
        problems = []
        if not _ge(pol.value, ag.value):
            problems.append("policy below agreedy")
        if not _ge(mg.value, ag.value):
            problems.append("mgreedy below agreedy")
        if any(s.total_size > op.gamma for s in (pol, ag, mg)):
            problems.append("a solution exceeds the capacity")
        digest = _digest(op.gamma, _ids(pol), pol.value, trace.query_count,
                         _ids(ag), ag.value, _ids(mg), mg.value)
        return not problems, "; ".join(problems), digest


WORKLOADS = {w.name: w for w in (CorpusVerify(), ObliviousN100())}
