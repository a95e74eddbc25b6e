"""Spans around the library's public functions, installed from outside it.

The tracer replaces every module-level binding of each public function of
``core``, ``greedy``, ``policy``, ``exact``, ``bounds``, ``generate`` (the
names in ``subknap.__all__``) and ``cli.main`` with a wrapper that records a
span: name, op id, parent span, start and end.  Modules that import a
function by name (``exact`` and ``policy`` import ``greedy_sequence``, ``cli``
imports ``agreedy``) hold their own binding, so every binding that is the
original function object is replaced, in every ``subknap`` module.

``ValueOracle.evaluate`` is called millions of times per run, so it gets no
span of its own: its calls, time and newly seen subsets are added to the
innermost open span instead.  Spans stay in memory and are written out when
the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# span record fields; records are lists so the evaluate hook can add in place
NAME, OP, PARENT, START, END, EVAL_CALLS, EVAL_S, EVAL_NEW, TAG = range(9)

LAYER_MODULES = ("core", "greedy", "policy", "exact", "bounds", "cli", "generate")


def _new_record(name: str, op: int, parent: int) -> list:
    return [name, op, parent, 0.0, 0.0, 0, 0.0, 0, None]


class Tracer:
    """Records spans for one process; ``op`` is set by the caller per op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        # evaluate calls made outside every span land here
        self._outside = _new_record("(outside)", -1, -1)
        self._seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._caps: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._opt_done: "weakref.WeakSet" = weakref.WeakSet()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and ``ValueOracle.evaluate``.  Callers
        must reach the library through module attributes (``subknap.agreedy``),
        never through names they bound before this call."""
        import subknap
        from subknap import cli, core

        targets = {}
        for name in subknap.__all__:
            fn = getattr(subknap, name)
            if inspect.isfunction(fn) and name != "evaluate":
                layer = fn.__module__.rsplit(".", 1)[-1]
                if layer in LAYER_MODULES:
                    targets[fn] = f"{layer}.{name}"
        targets[cli.main] = "cli.main"

        holders = [m for n, m in sys.modules.items()
                   if n == "subknap" or n.startswith("subknap.")]
        wrappers = {fn: self._span_wrapper(label, fn) for fn, label in targets.items()}
        for module in holders:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        core.ValueOracle.evaluate = self._evaluate_wrapper(core.ValueOracle.evaluate)

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            rec = _new_record(name, self.op, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if note is not None:
                rec[TAG] = note(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _evaluate_wrapper(self, original):
        spans, stack, seen_by_oracle = self.spans, self._stack, self._seen
        outside = self._outside

        def evaluate(oracle, ids):
            subset = frozenset(ids)
            start = perf_counter()
            value = original(oracle, subset)
            elapsed = perf_counter() - start
            rec = spans[stack[-1]] if stack else outside
            rec[EVAL_CALLS] += 1
            rec[EVAL_S] += elapsed
            seen = seen_by_oracle.get(oracle)
            if seen is None:
                seen = seen_by_oracle[oracle] = set()
            if subset not in seen:
                seen.add(subset)
                rec[EVAL_NEW] += 1
            return value

        evaluate.__wrapped__ = original
        return evaluate

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over the op phase (set-up for ``generate``)."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += rec[END] - rec[START]

        calls = defaultdict(int)
        incl = defaultdict(float)
        excl = defaultdict(float)
        ev_calls = ev_new = distinct_caps = fit_queries = fitted = attempts = 0
        ev_s = opt_first_s = opt_repeat_s = setup_generate_s = 0.0
        for i, rec in enumerate(spans):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            if name == "generate.generate_instance":
                setup_generate_s += dur
            if rec[OP] < 0:
                continue
            calls[name] += 1
            incl[name] += dur
            excl[name] += dur - child_s[i] - rec[EVAL_S]
            ev_calls += rec[EVAL_CALLS]
            ev_s += rec[EVAL_S]
            ev_new += rec[EVAL_NEW]
            tag = rec[TAG]
            if name == "greedy.greedy_sequence" and tag:
                distinct_caps += 1
            elif name == "exact.brute_force_opt":
                if tag == "first":
                    opt_first_s += dur
                else:
                    opt_repeat_s += dur
            elif name == "policy.execute_policy":
                fit_queries += tag[0]
                fitted += tag[1]
                attempts += tag[2]

        return {
            "core.evaluate.calls": ev_calls,
            "core.evaluate.self_s": ev_s,
            "core.evaluate.hit_ratio": 1.0 - ev_new / ev_calls if ev_calls else 0.0,
            "core.curvature.calls": calls["core.curvature"],
            "core.curvature.s": incl["core.curvature"],
            "core.validate_oracle.s": incl["core.validate_oracle"],
            "core.load.s": incl["core.load_instance"],
            "greedy.greedy_sequence.calls": calls["greedy.greedy_sequence"],
            "greedy.greedy_sequence.distinct_caps": distinct_caps,
            "greedy.greedy_sequence.self_s": excl["greedy.greedy_sequence"],
            "greedy.mgreedy_agreedy.s": incl["greedy.mgreedy"] + incl["greedy.agreedy"],
            "policy.start_item_list.calls": calls["policy.start_item_list"],
            "policy.start_item_list.s": incl["policy.start_item_list"],
            "policy.is_indispensable.calls": calls["policy.is_indispensable"],
            "policy.execute_policy.self_s": excl["policy.execute_policy"],
            "policy.fit_queries": fit_queries,
            "policy.fit_ratio": fitted / attempts if attempts else 0.0,
            "exact.brute_force_opt.calls": calls["exact.brute_force_opt"],
            "exact.opt_repeat.s": opt_repeat_s,
            "exact.opt_first.s": opt_first_s,
            "exact.check_curvature_lemma.s": incl["exact.check_curvature_lemma"],
            "exact.check_theorem6.s": incl["exact.check_theorem6"],
            "exact.check_lemma2.s": incl["exact.check_lemma2"],
            "exact.check_indispensable_properties.s":
                incl["exact.check_indispensable_properties"],
            "exact.robustness_sweep.self_s": excl["exact.robustness_sweep"],
            "bounds.alpha.calls": calls["bounds.alpha"],
            "bounds.alpha.s": incl["bounds.alpha"],
            "cli.main.self_s": excl["cli.main"],
            "generate.generate_instance.s": setup_generate_s,
        }

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip), after a header line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "op", "parent", "start", "end",
                                            "eval_calls", "eval_s", "eval_new", "tag"],
                                 "outside": self._outside}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# -- per-function notes, stored in the span's tag ------------------------------

def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _note_greedy(tracer: Tracer, args, kwargs, result):
    """True when this (instance, capacity) pair is requested for the first time."""
    instance = _first_arg(args, kwargs, "instance")
    caps = tracer._caps.get(instance)
    if caps is None:
        caps = tracer._caps[instance] = set()
    new = result.capacity not in caps
    caps.add(result.capacity)
    return new


def _note_opt(tracer: Tracer, args, kwargs, result):
    instance = _first_arg(args, kwargs, "instance")
    if instance in tracer._opt_done:
        return "repeat"
    tracer._opt_done.add(instance)
    return "first"


def _note_policy(tracer: Tracer, args, kwargs, result):
    return (result.query_count, sum(a.fitted for a in result.attempts),
            len(result.attempts))


_NOTES = {
    "greedy.greedy_sequence": _note_greedy,
    "exact.brute_force_opt": _note_opt,
    "policy.execute_policy": _note_policy,
}
