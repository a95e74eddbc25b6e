import hashlib
import json
from itertools import combinations

import pytest

from helpers import (density_tie_start_list, ex1, ex3, superadditive_table,
                     zero_item_supermodular)
from subknap import cli, core, exact
from subknap.cli import main
from subknap.core import (CoverageOracle, Instance, Item, ModularOracle,
                          TableOracle, curvature, instance_from_dict,
                          instance_to_dict, load_instance, save_instance)
from subknap.exact import MAX_LEMMA_TRIALS
from subknap.generate import GeneratorSpec, generate_instance
from subknap.policy import start_item_list


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.json"
    save_instance(ex1(), path)
    return str(path)


@pytest.fixture
def ex3_file(tmp_path):
    path = tmp_path / "ex3.json"
    save_instance(ex3(), path)
    return str(path)


def _scaled_coverage() -> Instance:
    """Generated coverage n=6 seed=1 with every element weight times 1e6/3:
    values near 10^7, whose float sums miss submodularity by 1.9e-9."""
    data = instance_to_dict(generate_instance(
        GeneratorSpec("coverage", n=6, size_max=8, seed=1)))
    elements = data["objective"]["elements"]
    data["objective"]["elements"] = {e: w * 1e6 / 3 for e, w in elements.items()}
    return instance_from_dict(data)


@pytest.fixture
def bad_table_file(tmp_path):
    inst = Instance((Item("a", 1), Item("b", 1)),
                    TableOracle(superadditive_table()))
    path = tmp_path / "bad.json"
    save_instance(inst, path)
    return str(path)


# ---------------------------------------------------------------------------
# gen

def test_gen_is_byte_deterministic(tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    args = ["gen", "--kind", "coverage", "--n", "6", "--size-max", "9",
            "--seed", "42"]
    assert main(args + ["-o", str(one)]) == 0
    assert main(args + ["-o", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    header = json.loads(one.read_text())["generator"]
    assert header["algorithm"] == "pcg64" and header["seed"] == 42


#: sha256 of `gen --kind coverage --n 8 --seed 3 --elements 30` files per
#: density: at 0.0 all 8 covers are the empty-cover fallback's one element,
#: at 0.05 4 of them, at 0.5 none
_COVERAGE_FILE_SHA256 = {
    "0.0": "14f0fa833ae0e730057dbbf649924e9a6a9a03d45eea3f1a96feee330d8cb5f5",
    "0.05": "5fb9431e00bed5890341d06a647a4972748dbd561adaffa744b903e35d1e2a04",
    "0.5": "b5b9e166a03469a4c49e316a2bfd327898e88ef4e0d7246b910ec460c1fa4d63",
}


@pytest.mark.parametrize("density", sorted(_COVERAGE_FILE_SHA256))
def test_gen_coverage_files_keep_their_bytes(density, tmp_path):
    out = tmp_path / "c.json"
    assert main(["gen", "--kind", "coverage", "--n", "8", "--seed", "3", "--elements", "30",
                 "--density", density, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _COVERAGE_FILE_SHA256[density]


def test_gen_planted_has_start_items(tmp_path):
    out = tmp_path / "p.json"
    assert main(["gen", "--kind", "planted", "--n", "6", "--seed", "7",
                 "-o", str(out)]) == 0
    inst = load_instance(out)
    assert len(start_item_list(inst)) >= 1


def test_gen_concave_exponent_one_is_modular(tmp_path):
    out = tmp_path / "c.json"
    assert main(["gen", "--kind", "concave_modular", "--n", "5", "--seed", "3",
                 "--exponent", "1.0", "-o", str(out)]) == 0
    assert curvature(load_instance(out)) == 0.0


@pytest.mark.parametrize("knobs, named", [
    (["--kind", "planted", "--n", "1"], "n="),
    (["--kind", "coverage", "--n", "4", "--elements", "0"], "elements"),
    (["--kind", "coverage", "--n", "4", "--elements", "-3"], "elements"),
    (["--kind", "coverage", "--n", "4", "--density", "nan"], "density"),
    (["--kind", "coverage", "--n", "4", "--density", "-1"], "density"),
    (["--kind", "coverage", "--n", "4", "--density", "2"], "density"),
    (["--kind", "planted", "--n", "4", "--size-max", "9007199254740993"],
     "size_max"),
    (["--kind", "modular", "--n", "100000001"], "n="),
    (["--kind", "coverage", "--n", "2", "--elements", "300000000"], "elements"),
    (["--kind", "modular", "--n", "4", "--seed", "-1"], "seed"),
], ids=["n_1", "elements_0", "elements_negative", "density_nan",
        "density_negative", "density_above_1", "size_max_above_2_53",
        "n_above_limit", "cover_cells_above_limit", "seed_negative"])
def test_gen_bad_knobs_exit_2(knobs, named, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["gen", *knobs, "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not out.exists()


# ---------------------------------------------------------------------------
# eval

def test_eval_agreedy_ex1(ex1_file, capsys):
    assert main(["eval", "-i", ex1_file, "--gamma", "2", "--alg", "agreedy"]) == 0
    out = capsys.readouterr().out
    assert "items: b" in out and "value: 1.9" in out


def test_eval_opt_ex1(ex1_file, capsys):
    assert main(["eval", "-i", ex1_file, "--gamma", "2", "--alg", "opt"]) == 0
    out = capsys.readouterr().out
    assert "items: b" in out and "value: 1.9" in out


def test_eval_mgreedy_ex3(ex3_file, capsys):
    assert main(["eval", "-i", ex3_file, "--gamma", "2", "--alg", "mgreedy"]) == 0
    assert "value: 1.9" in capsys.readouterr().out


def test_eval_policy_prints_trace(ex1_file, capsys):
    assert main(["eval", "-i", ex1_file, "--gamma", "2", "--alg", "policy"]) == 0
    out = capsys.readouterr().out
    assert "attempt: b phase=start_item fitted=yes" in out
    assert "fit_queries:" in out


def test_eval_error_paths(ex1_file, tmp_path, capsys):
    assert main(["eval", "-i", str(tmp_path / "nope.json"), "--gamma", "2",
                 "--alg", "opt"]) == 2
    assert main(["eval", "-i", ex1_file, "--gamma", "0", "--alg", "opt"]) == 2


def test_eval_accepts_large_valued_table(tmp_path, capsys):
    instance = _scaled_coverage()
    values = {",".join(s): instance.value(s) for r in range(instance.n + 1)
              for s in combinations(instance.ids, r)}
    path = tmp_path / "table.json"
    save_instance(Instance(instance.items, TableOracle(values)), path)
    assert main(["eval", "-i", str(path), "--gamma", "10", "--alg", "agreedy"]) == 0
    assert capsys.readouterr().err == ""


def test_eval_refuses_invalid_table(bad_table_file):
    assert main(["eval", "-i", bad_table_file, "--gamma", "2",
                 "--alg", "agreedy"]) == 2


#: inputs whose one line must say what is wrong with them
_NOT_AN_OBJECT = {
    '"x"': "error: malformed instance data: the document must be a JSON object",
    '[1, 2]': "error: malformed instance data: the document must be a JSON object",
    '{"items": [{"id": "a", "size": 1}], "objective": "modular"}':
        "error: malformed instance data: objective must be a JSON object",
}


@pytest.mark.parametrize("text", [
    '{"items": ["a"], "objective": {"kind": "modular", "weights": {"a": 1.0}}}',
    '{"items": [{"id": "a", "size": 1}],'
    ' "objective": {"kind": "modular", "weights": {"a": "x"}}}',
    '{"items": [{"id": "a", "size": 1}],'
    ' "objective": {"kind": "modular", "weights": {"a": NaN}}}',
    '{"items": [{"id": "a", "size": 1}, {"id": "b", "size": 1}],'
    ' "objective": {"kind": "modular", "weights": {"a": 1.7e308, "b": 1.7e308}}}',
    '{"items": [{"id": null, "size": 1}],'
    ' "objective": {"kind": "modular", "weights": {"None": 1.0}}}',
    '{"items": [{"id": "a", "size": 1}],'
    ' "objective": {"kind": "modular", "weights": {"a": 1%s}}}' % ("0" * 400),
    '{"items": [{"id": "a", "size": 1}], "objective": {"kind":'
    ' "concave_modular", "weights": {"a": 1.0}, "exponent": 1%s}}' % ("0" * 400),
    '{"items": [{"id": "a", "size": 1%s}],'
    ' "objective": {"kind": "modular", "weights": {"a": 1.0}}}' % ("0" * 400),
    "[" * 100_000 + "]" * 100_000,
    *_NOT_AN_OBJECT,
], ids=["non_object_item", "string_weight", "nan_weight", "overflowing_weights",
        "null_id", "oversized_int_weight", "oversized_int_exponent",
        "oversized_int_size", "deeply_nested", "string_document", "list_document",
        "string_objective"])
def test_eval_malformed_instance_exit_2(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["eval", "-i", str(path), "--gamma", "1", "--alg", "policy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if text in _NOT_AN_OBJECT:
        assert lines[0] == _NOT_AN_OBJECT[text]


# ---------------------------------------------------------------------------
# sweep

def test_sweep_ex1(ex1_file, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "-i", ex1_file, "-o", str(out)]) == 0
    text = out.read_text()
    assert "# empirical_robustness=1.0" in text


def test_sweep_ex3_parallel_identical(ex3_file, tmp_path):
    serial = tmp_path / "a.csv"
    assert main(["sweep", "-i", ex3_file, "-o", str(serial)]) == 0
    assert "# empirical_robustness=0.52631578" in serial.read_text()
    # sweeps are serial; the option that once selected a thread pool is gone
    with pytest.raises(SystemExit) as refused:
        main(["sweep", "-i", ex3_file, "-o", str(tmp_path / "b.csv"),
              "--parallel"])
    assert refused.value.code == 2


def test_sweep_guard_exit_2(tmp_path):
    ids = [f"i{k:02d}" for k in range(23)]
    inst = Instance(tuple(Item(i, 1) for i in ids),
                    ModularOracle({i: 1.0 for i in ids}))
    path = tmp_path / "big.json"
    save_instance(inst, path)
    assert main(["sweep", "-i", str(path), "-o", str(tmp_path / "o.csv")]) == 2


# ---------------------------------------------------------------------------
# bound

def test_bound_full_grid(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bound", "0:1:0.1", "-o", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "c,x,alpha"
    rows = [line.split(",") for line in lines[1:12]]
    assert [float(r[0]) for r in rows] == pytest.approx(
        [i / 10 for i in range(11)])
    expected = [0.5, 0.4772, 0.4577, 0.4407, 0.4256, 0.4119, 0.3994, 0.3878,
                0.3771, 0.3672, 0.3578]
    assert [float(r[2]) for r in rows] == pytest.approx(expected, abs=5e-4)


def test_bound_degenerate_grids(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["bound", "1:1:1", "-o", str(out)]) == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(0.3578, abs=5e-4)

    assert main(["bound", "0:0:1", "-o", str(out)]) == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(0.5)


def test_bound_malformed_grids(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["bound", "0:1", "-o", out]) == 2
    assert main(["bound", "0:2:0.5", "-o", out]) == 2
    assert main(["bound", "0:1:0", "-o", out]) == 2
    assert main(["bound", "a:b:c", "-o", out]) == 2


@pytest.mark.parametrize("grid, message", [
    ("0:1:nan", "grid step must be finite"),
    ("0:1:inf", "grid step must be finite"),
    ("0:1:1e-300", "more than 1000000 points"),
])
def test_bound_refuses_unbounded_grids(tmp_path, capsys, grid, message):
    out = tmp_path / "x.csv"
    assert main(["bound", grid, "-o", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify

def test_verify_ex1_passes(ex1_file, capsys):
    assert main(["verify", "-i", ex1_file, "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_ex3_notes_strict_gap(ex3_file, capsys):
    assert main(["verify", "-i", ex3_file, "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "strict mgreedy > agreedy at gamma in [2]" in out


def test_verify_passes_at_large_values(tmp_path, capsys):
    path = tmp_path / "scaled.json"
    save_instance(_scaled_coverage(), path)
    assert main(["verify", "-i", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_bad_table_exit_1_with_witness(bad_table_file, capsys):
    assert main(["verify", "-i", bad_table_file]) == 1
    out = capsys.readouterr().out
    assert "FAIL validate_oracle" in out
    assert "submodular violated" in out


@pytest.mark.parametrize("n, extra", [(23, []), (4, ["--trials", "0"]),
                                      (4, ["--trials", str(MAX_LEMMA_TRIALS + 1)])],
                         ids=["n_23", "trials_0", "trials_above_limit"])
def test_verify_refuses_before_printing(n, extra, tmp_path, capsys):
    path = tmp_path / "x.json"
    save_instance(generate_instance(GeneratorSpec("modular", n=n)), path)
    assert main(["verify", "-i", str(path), *extra]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("trials", [0, MAX_LEMMA_TRIALS + 1])
def test_verify_refuses_trials_before_building_the_table(trials, monkeypatch,
                                                         tmp_path, capsys):
    path = tmp_path / "x.json"
    save_instance(generate_instance(GeneratorSpec("modular", n=20)), path)
    built = []
    table = core.subset_table
    for module in (core, exact):
        monkeypatch.setattr(module, "subset_table",
                            lambda instance: built.append(instance) or table(instance))
    assert main(["verify", "-i", str(path), "--trials", str(trials)]) == 2
    assert capsys.readouterr().err == (
        f"error: --trials must lie in [1, {MAX_LEMMA_TRIALS}], got {trials}\n")
    assert built == []


def test_verify_refuses_negative_seed_before_building_the_table(monkeypatch, tmp_path,
                                                                capsys):
    # random.Random takes the absolute value: --seed -7 would verify the
    # samples of --seed 7 and exit 0
    path = tmp_path / "x.json"
    save_instance(generate_instance(GeneratorSpec("modular", n=20)), path)
    built = []
    table = core.subset_table
    for module in (core, exact):
        monkeypatch.setattr(module, "subset_table",
                            lambda instance: built.append(instance) or table(instance))
    assert main(["verify", "-i", str(path), "--seed", "-7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be nonnegative, got -7\n"
    assert built == []


def test_verify_missing_file_exit_2(tmp_path):
    assert main(["verify", "-i", str(tmp_path / "missing.json")]) == 2


# ---------------------------------------------------------------------------
# one validation verdict per instance, given before normalisation

def _saved(instance: Instance, tmp_path) -> str:
    path = tmp_path / "x.json"
    save_instance(instance, path)
    return str(path)


def _thirteen_item_table() -> Instance:
    """Unit-weight modular table on i00..i12 with f({i00}) raised to 1.5:
    sampled validation misses the violation, an exhaustive scan finds it."""
    ids = [f"i{k:02d}" for k in range(13)]
    values = {",".join(s): float(len(s)) for r in range(14) for s in combinations(ids, r)}
    values["i00"] = 1.5
    return Instance(tuple(Item(i, 1 + k % 3) for k, i in enumerate(ids)),
                    TableOracle(values))


def test_verify_judges_table_before_normalising(tmp_path, capsys):
    assert main(["verify", "-i", _saved(zero_item_supermodular(), tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL validate_oracle: submodular violated at A=[] items=['a', 'b'] slack=1",
        "oracle invalid; algorithm checks skipped"]


@pytest.mark.parametrize("command", [["eval", "--alg", "opt", "--gamma", "3"],
                                     ["sweep", "-o", "out.csv"]], ids=["eval", "sweep"])
def test_eval_and_sweep_refuse_table_before_normalising(command, tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _saved(zero_item_supermodular(), tmp_path)
    assert main([command[0], "-i", path, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: table oracle refused: submodular violated")


def test_verify_and_sweep_read_the_normalised_instance(tmp_path, capsys, monkeypatch):
    # 23 items, 20 of them worth 0.0: past the exhaustive guard as loaded,
    # three items once normalised, and every check reads those three
    monkeypatch.chdir(tmp_path)
    ids = [f"i{k:02d}" for k in range(23)]
    inst = Instance(tuple(Item(i, 1 + k % 4) for k, i in enumerate(ids)),
                    ModularOracle({i: 1.0 + k if k < 3 else 0.0 for k, i in enumerate(ids)}))
    path = _saved(inst, tmp_path)
    assert main(["verify", "-i", path, "--trials", "50"]) == 0
    assert main(["sweep", "-i", path, "-o", "out.csv"]) == 0
    captured = capsys.readouterr()
    assert "FAIL" not in captured.out and captured.err == ""


def test_verify_gives_a_larger_table_one_verdict(tmp_path, capsys):
    assert main(["verify", "-i", _saved(_thirteen_item_table(), tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL validate_oracle: submodular violated at A=['i00'] items=['i01', 'i02'] "
        "slack=0.5",
        "oracle invalid; algorithm checks skipped"]


@pytest.mark.parametrize("zero_item", [False, True], ids=["all_positive", "zero_item"])
def test_verify_scans_a_valid_table_once(zero_item, tmp_path, monkeypatch):
    base = generate_instance(GeneratorSpec("coverage", n=4, seed=3))
    items = base.items + ((Item("z", 1),) if zero_item else ())
    ids = [it.id for it in items]
    values = {",".join(s): base.value(set(s) - {"z"})
              for r in range(len(ids) + 1) for s in combinations(ids, r)}
    path = _saved(Instance(items, TableOracle(values)), tmp_path)
    scans = []
    scan = core._scan_oracle
    monkeypatch.setattr(core, "_scan_oracle",
                        lambda *args, **kw: scans.append(args) or scan(*args, **kw))
    assert main(["verify", "-i", path, "--trials", "50"]) == 0
    assert len(scans) == 1


def test_verify_refuses_instance_that_normalises_to_nothing(tmp_path, capsys):
    inst = Instance((Item("a", 1), Item("b", 2)),
                    CoverageOracle({"e": 0.0}, {"a": ["e"], "b": ["e"]}))
    assert main(["verify", "-i", _saved(inst, tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: curvature requires at least one item"]


def test_eval_opt_on_instance_that_normalises_to_nothing(tmp_path, capsys):
    inst = Instance((Item("a", 1), Item("b", 2)),
                    CoverageOracle({"x": 0.0}, {"a": ["x"], "b": ["x"]}))
    assert main(["eval", "-i", _saved(inst, tmp_path), "--gamma", "3", "--alg", "opt"]) == 0
    assert capsys.readouterr().out == "items: (empty)\nvalue: 0.0\ntotal_size: 0\n"


def test_start_list_with_equal_sizes_runs_every_command(tmp_path, capsys, monkeypatch):
    # two start entries of size 10^6; what verify still fails comes from the
    # absolute tolerance floor, which misjudges values below 1
    monkeypatch.chdir(tmp_path)
    path = _saved(density_tie_start_list(), tmp_path)
    assert main(["sweep", "-i", path, "-o", "out.csv"]) == 0
    assert main(["eval", "-i", path, "--gamma", "5", "--alg", "policy"]) == 0
    capsys.readouterr()
    assert main(["verify", "-i", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [line.split(":")[0] for line in captured.out.splitlines()
            if line.startswith("FAIL")] == [
        "FAIL indispensable_properties", "FAIL theorem6 (all breakpoints)",
        "FAIL lemma2 (all breakpoints)"]


# ---------------------------------------------------------------------------
# one parser per process

def test_main_calls_in_one_process_parse_independently(ex1_file, tmp_path, capsys):
    first = tmp_path / "first.json"
    assert main(["gen", "--kind", "modular", "--n", "4", "--seed", "5",
                 "-o", str(first)]) == 0
    assert capsys.readouterr().out.endswith("kind=modular, seed=5)\n")
    assert main(["eval", "-i", ex1_file, "--gamma", "2", "--alg", "opt"]) == 0
    assert "items: b" in capsys.readouterr().out
    # the second gen takes its defaults, not the first call's options
    second = tmp_path / "second.json"
    assert main(["gen", "--kind", "coverage", "--n", "3", "-o", str(second)]) == 0
    assert capsys.readouterr().out.endswith("kind=coverage, seed=0)\n")
    assert load_instance(second).n == 3
    assert cli._build_parser() is cli._build_parser()


# ---------------------------------------------------------------------------
# valid instances that verify still fails, because the absolute tolerance
# floor misjudges densities far from 1: their stdout, failure witnesses
# included, pinned byte for byte

def _coverage_times_1e9() -> Instance:
    data = instance_to_dict(generate_instance(GeneratorSpec("coverage", n=6, seed=2)))
    elements = data["objective"]["elements"]
    data["objective"]["elements"] = {e: w * 1e-9 for e, w in elements.items()}
    return instance_from_dict(data)


_TOLERANCE_FLOOR_REPROS = {
    "two_sizes_1e10": (
        lambda: Instance((Item("a", 10 ** 10), Item("b", 10 ** 10)),
                         ModularOracle({"a": 1.0, "b": 2.0})),
        "PASS curvature_lemma (trials=22, worst_slack=0)\n"
        "FAIL indispensable_properties: (trials=6, worst_slack=-1) b: nonempty prefix "
        "with s(item) > s(prefix) (10000000000 > 10000000000)\n"
        "FAIL theorem6 (all breakpoints): (worst_slack=-1)\n"
        "FAIL lemma2 (all breakpoints): (worst_slack=-1, skipped=1 trivial capacities)\n",
        "(c=0.0, alpha=0.5)\n"
        "PASS empirical robustness >= alpha(c) (empirical=1.0)\n"),
    "coverage_times_1e-9": (
        _coverage_times_1e9,
        "PASS curvature_lemma (trials=1650, worst_slack=-6.62e-24)\n"
        "PASS indispensable_properties (trials=0, worst_slack=n/a)\n"
        "PASS theorem6 (all breakpoints) (worst_slack=7.45e-09)\n"
        "FAIL lemma2 (all breakpoints): (worst_slack=-1.87e-09, skipped=6 trivial "
        "capacities)\n",
        "(c=1.0, alpha=0.3577992959402769)\n"
        "PASS empirical robustness >= alpha(c) (empirical=0.9021739130434782)\n"),
    "density_tie_start_list": (
        density_tie_start_list,
        "PASS curvature_lemma (trials=194, worst_slack=-2.33e-11)\n"
        "FAIL indispensable_properties: (trials=29, worst_slack=-1) c: nonempty prefix "
        "with s(item) > s(prefix) (1000000 > 1000000)\n"
        "FAIL theorem6 (all breakpoints): (worst_slack=-0.0008)\n"
        "FAIL lemma2 (all breakpoints): (worst_slack=-0.0008, skipped=5 trivial "
        "capacities)\n",
        "(c=0.0, alpha=0.5)\n"
        "PASS empirical robustness >= alpha(c) (empirical=0.9999996000004807)\n"),
}


@pytest.mark.parametrize("name", sorted(_TOLERANCE_FLOOR_REPROS))
def test_verify_stdout_of_tolerance_floor_repros_is_pinned(name, tmp_path, capsys):
    build, checks, bound = _TOLERANCE_FLOOR_REPROS[name]
    assert main(["verify", "-i", _saved(build(), tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "PASS validate_oracle (mode=exhaustive)\n" + checks
        + "PASS optimum dominates all algorithms\n"
        "PASS mgreedy >= agreedy at every breakpoint\n"
        "PASS policy >= agreedy at every breakpoint\n"
        "PASS agreedy >= alpha(c) * optimum at every breakpoint " + bound)
