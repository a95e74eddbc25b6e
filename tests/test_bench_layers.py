"""The layer harness, scripts/bench_layers.py: rows measured in this process
equal direct library calls, its leading row keys are those of the committed
BENCH_11.json and BENCH_12.json, the planted, lemma and n = 1000/2000
oblivious rows follow them, and a child that cannot time its checkout comes
back as a failed row.  The --child entry sets RLIMIT_AS on its own process,
so these tests only reach it through child processes."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from subknap import (GeneratorSpec, brute_force_opt, check_curvature_lemma, execute_policy,
                     generate_instance, greedy_sequence, make_fit_oracle,
                     normalize_instance, start_item_list)
from subknap.core import size_breakpoints

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_layers",
                                               ROOT / "scripts" / "bench_layers.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind", ["modular", "coverage"])
def test_exhaustive_row_matches_library(kind):
    key = {"suite": "exhaustive", "kind": kind, "n": 8}
    row = bench.measure(key)
    assert set(row) == {*key, "breakpoints", "table_s", "opt_all_breakpoints_s",
                        "validation_s", "maxrss_mb", "opt_digest"}
    instance = generate_instance(GeneratorSpec(kind, n=8, seed=0))
    caps = size_breakpoints(instance.items)
    optima = [brute_force_opt(instance, g) for g in caps]
    assert row["breakpoints"] == len(caps)
    assert row["opt_digest"] == _sha([(sorted(o.items), o.value, o.total_size)
                                      for o in optima])


@pytest.mark.parametrize("kind", ["modular", "coverage"])
def test_oblivious_rows_match_library(kind):
    instance = normalize_instance(generate_instance(GeneratorSpec(kind, n=30, seed=0)))
    total = sum(it.size for it in instance.items)
    caps = sorted({max(1, round(k * total / 200)) for k in range(1, 201)})
    expected = {
        "order": greedy_sequence(instance, max(it.size for it in instance.items)).order,
        "start_list": [(e.item_id, e.reason) for e in start_item_list(instance)],
        "policy": [execute_policy(instance, make_fit_oracle(g)).to_dict() for g in caps],
    }
    for phase, result in expected.items():
        key = {"suite": "oblivious", "kind": kind, "n": 30, "phase": phase}
        row = bench.measure(key)
        assert set(row) == {*key, "cpu_s", "maxrss_mb", "digest"}
        assert row["digest"] == _sha(result)


def test_rows_have_the_keys_of_the_committed_reports():
    def keys(rows, suite):
        return [{"suite": suite, **{k: r[k] for k in ("kind", "n", "phase") if k in r}}
                for r in rows]
    committed = (keys(json.loads((ROOT / "BENCH_11.json").read_text())["layers"]["pr"],
                      "exhaustive")
                 + keys(json.loads((ROOT / "BENCH_12.json").read_text())["layers"]["pr"],
                        "oblivious"))
    full = bench.rows(quick=False)
    assert full[:len(committed)] == committed
    assert full[len(committed):] == [
        {"suite": "oblivious", "kind": "planted", "n": n, "phase": p}
        for n in (100, 300, 500) for p in ("order", "start_list", "policy")] + [
        {"suite": "exhaustive", "kind": kind, "n": n, "phase": "lemma"}
        for kind in ("modular", "coverage") for n in (8, 10, 16, 22)] + [
        {"suite": "oblivious", "kind": kind, "n": n, "phase": p}
        for kind in ("modular", "planted", "coverage") for n in (1000, 2000)
        for p in ("order", "start_list", "policy")]
    assert [r["n"] for r in bench.rows(quick=True)] == [12] * 2 + [100] * 9 + [8, 12] * 2


@pytest.mark.parametrize("n", [8, 10])
def test_lemma_row_matches_library(n):
    key = {"suite": "exhaustive", "kind": "coverage", "n": n, "phase": "lemma"}
    row = bench.measure(key)
    assert set(row) == {*key, "cold_ms", "warm_ms", "maxrss_mb", "digest"}
    reports = [check_curvature_lemma(generate_instance(GeneratorSpec("coverage", n=n, seed=s)),
                                     bench.LEMMA_TRIALS) for s in (0, 1)]
    assert row["digest"] == _sha([(r.to_dict(), repr(r.worst_slack)) for r in reports])


def test_child_without_sources_fails_its_row(tmp_path):
    key = {"suite": "oblivious", "kind": "modular", "n": 30, "phase": "order"}
    row = bench.run_child(tmp_path, key)
    assert set(row) == {*key, "failed"}
    # no module at all, or (where subknap is installed) the provenance check
    assert row["failed"].startswith("exit 1: ")
    assert "subknap" in row["failed"]


def test_child_refuses_subknap_from_outside_its_checkout(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "subknap").symlink_to(ROOT / "src" / "subknap")
    key = {"suite": "exhaustive", "kind": "modular", "n": 8}
    row = bench.run_child(tmp_path, key)
    assert set(row) == {*key, "failed"}
    assert row["failed"].startswith("exit 1: ")
    assert row["failed"].endswith(
        f"{(ROOT / 'src' / 'subknap' / '__init__.py').resolve()}, "
        f"outside {(tmp_path / 'src').resolve()}")


def test_child_times_its_checkout():
    key = {"suite": "exhaustive", "kind": "coverage", "n": 8}
    row = bench.run_child(ROOT, key)
    assert row.pop("maxrss_mb") > 0
    expected = bench.measure(key)
    expected.pop("maxrss_mb")
    for name in ("table_s", "opt_all_breakpoints_s", "validation_s"):
        assert row.pop(name) >= 0
        expected.pop(name)
    assert row == expected


def test_child_over_the_time_limit_fails_its_row(monkeypatch):
    monkeypatch.setattr(bench, "TIMEOUT_S", 0.01)
    key = {"suite": "exhaustive", "kind": "coverage", "n": 8}
    assert bench.run_child(ROOT, key) == {**key, "failed": "over 0.01 s of wall time"}
