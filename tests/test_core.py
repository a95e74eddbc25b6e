import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ex1, ex2, ex3, superadditive_table, zero_item_supermodular
from subknap.core import (TOL, ConcaveModularOracle, ConfigurationError,
                          CoverageOracle, GuardError, Instance, Item,
                          ModularOracle, OracleValidationError, TableOracle,
                          ValueOracle, Violation, curvature, evaluate, instance_digest,
                          instance_from_dict, instance_to_dict, item_masks, load_instance,
                          make_concave_modular_oracle, make_coverage_oracle,
                          make_modular_oracle, make_table_oracle,
                          normalize_instance, save_instance, size_breakpoints,
                          subset_table, validate_oracle, value_ge, value_ge_array,
                          value_gt, value_gt_array, values_close,
                          values_close_array)
from subknap.generate import KINDS, GeneratorSpec, generate_instance


# ---------------------------------------------------------------------------
# oracle construction and evaluation

def test_modular_oracle_values():
    oracle = make_modular_oracle({"a": 1.0, "b": 1.9})
    assert oracle.evaluate({"a", "b"}) == pytest.approx(2.9)
    assert oracle.evaluate(()) == 0.0
    assert oracle.evaluate({"a"}) == 1.0


def test_coverage_oracle_values():
    oracle = make_coverage_oracle({"x": 1.0, "y": 1.0},
                                  {"1": ["x"], "2": ["x", "y"]})
    assert oracle.evaluate({"1", "2"}) == 2.0
    assert oracle.evaluate({"2"}) == 2.0
    assert oracle.evaluate({"1"}) == 1.0


def test_values_are_left_folds_on_every_python():
    # Python 3.12 made float sum() compensated, which would give 0.6 here
    weights = {"a": 0.1, "b": 0.2, "c": 0.3}
    for oracle in (make_modular_oracle(weights),
                   make_coverage_oracle(weights, {"a": ["a", "b", "c"]}),
                   make_concave_modular_oracle(weights, 1.0)):
        assert oracle.evaluate(oracle.domain) == 0.6000000000000001


def test_coverage_unknown_element_rejected():
    with pytest.raises(ConfigurationError):
        make_coverage_oracle({"x": 1.0}, {"1": ["x", "zz"]})


def test_concave_modular_oracle_values():
    oracle = make_concave_modular_oracle({"a": 1.0, "b": 1.0}, 0.5)
    assert oracle.evaluate({"a", "b"}) == pytest.approx(math.sqrt(2))
    assert make_concave_modular_oracle({"a": 4.0}, 0.5).evaluate({"a"}) == 2.0
    # exponent one degenerates to the modular oracle
    flat = make_concave_modular_oracle({"a": 1.5, "b": 2.5}, 1.0)
    assert flat.evaluate({"a", "b"}) == make_modular_oracle(
        {"a": 1.5, "b": 2.5}).evaluate({"a", "b"})


def test_concave_modular_exponent_domain():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigurationError):
            make_concave_modular_oracle({"a": 1.0}, bad)


def test_table_oracle_lookup():
    oracle = make_table_oracle({"": 0, "a": 1.0, "b": 1.0, "a,b": 1.0})
    assert oracle.evaluate({"a", "b"}) == 1.0
    ex2_table = make_table_oracle({"": 0, "1": 1.0, "2": 2.0, "1,2": 2.0})
    assert ex2_table.evaluate({"1", "2"}) == 2.0


def test_table_oracle_rejects_nonzero_empty_set():
    with pytest.raises(ConfigurationError):
        make_table_oracle({"": 0.1, "a": 1.0})


def test_table_oracle_rejects_missing_subsets():
    with pytest.raises(ConfigurationError):
        make_table_oracle({"": 0.0, "a": 1.0, "b": 1.0})  # missing "a,b"


def _modular_table(weights: dict[str, float]) -> dict[frozenset[str], float]:
    """A table keyed by id sets, which can name ids that hold a comma."""
    ids = sorted(weights)
    return {frozenset(i for k, i in enumerate(ids) if m >> k & 1):
            sum(weights[i] for k, i in enumerate(ids) if m >> k & 1)
            for m in range(1 << len(ids))}


def test_table_oracle_refuses_an_id_with_a_comma():
    # saved as "a,b,c", the full set would read as three ids
    with pytest.raises(ConfigurationError, match=r"table item id 'a,b' must not contain ','"):
        TableOracle(_modular_table({"a,b": 1.0, "c": 2.0}))


def test_normalizing_a_table_with_a_comma_id_names_the_id():
    # the zero item would make normalisation restrict the table, which
    # joins and parses its keys again
    items = (Item("a,b", 1), Item("c", 1), Item("z", 1))
    with pytest.raises(ConfigurationError, match="'a,b'"):
        normalize_instance(Instance(items, TableOracle(
            _modular_table({"a,b": 1.0, "c": 2.0, "z": 0.0}))))


def test_evaluate_function_and_unknown_id():
    inst = ex1()
    assert evaluate(inst.oracle, {"b"}) == 1.9
    assert evaluate(inst.oracle, ()) == 0.0
    with pytest.raises(KeyError):
        inst.oracle.evaluate({"zz"})


def test_evaluate_is_pure():
    oracle = ex3().oracle
    first = oracle.evaluate({"a", "b"})
    assert oracle.evaluate({"a", "b"}) == first
    assert oracle.evaluate(["b", "a"]) == first


# ---------------------------------------------------------------------------
# instances

def test_instance_rejects_duplicate_ids():
    with pytest.raises(ConfigurationError):
        Instance((Item("a", 1), Item("a", 2)), ModularOracle({"a": 1.0}))


def test_instance_rejects_domain_mismatch():
    with pytest.raises(ConfigurationError):
        Instance((Item("a", 1),), ModularOracle({"a": 1.0, "b": 1.0}))


def test_item_size_must_be_positive_integer():
    for bad in (0, -1, 1.5, True):
        with pytest.raises(ConfigurationError):
            Item("a", bad)


def test_item_masks_match_reference(corpus):
    # each id's bit names that id alone, and the mask below each size names
    # exactly the items of smaller size, on the corpus and n=100 of every kind
    instances = [inst for _, inst in corpus] + [
        generate_instance(GeneratorSpec(kind, n=100, size_max=100, seed=0))
        for kind in KINDS]
    for instance in instances:
        bit, below = item_masks(instance)
        assert sorted(bit) == list(instance.ids)
        for i in instance.ids:
            assert instance.subset(bit[i]) == (i,)
        assert sorted(below) == sorted({it.size for it in instance.items})
        for s, mask in below.items():
            assert instance.subset(mask) == tuple(
                sorted(it.id for it in instance.items if it.size < s))


def test_size_breakpoints():
    assert size_breakpoints((Item("a", 1), Item("b", 2))) == (1, 2, 3)
    assert size_breakpoints((Item("a", 1), Item("b", 1))) == (1, 2)
    assert size_breakpoints((Item("a", 5),)) == (5,)


# ---------------------------------------------------------------------------
# validation

def test_validate_modular_all_flags_true():
    inst = generate_instance(GeneratorSpec("modular", n=5, seed=1))
    report = validate_oracle(inst)
    assert report.ok and report.mode == "exhaustive"
    assert report.first_violation is None


def test_validate_coverage_fixture():
    assert validate_oracle(ex2()).ok


def test_validate_superadditive_table():
    inst = Instance((Item("a", 1), Item("b", 1)),
                    TableOracle(superadditive_table()))
    report = validate_oracle(inst)
    assert report.normalized and report.monotone and not report.submodular
    v = report.first_violation
    assert v.kind == "submodular"
    assert v.subset == () and set(v.items) == {"a", "b"}
    assert v.slack == pytest.approx(1.0)


def test_validate_exhaustive_up_to_the_guard():
    inst = generate_instance(GeneratorSpec("modular", n=13, seed=2))
    report = validate_oracle(inst)
    assert report.ok and report.mode == "exhaustive"
    with pytest.raises(GuardError):
        validate_oracle(generate_instance(GeneratorSpec("modular", n=23, seed=2)))


_TINY = [((), oracle) for oracle in (
    ModularOracle({}), CoverageOracle({"x": 0.0}, {}),
    ConcaveModularOracle({}, 0.5), TableOracle({"": 0.0}))] + [
    ((Item("a", 3),), oracle) for oracle in (
        ModularOracle({"a": 2.0}), CoverageOracle({"x": 2.0, "y": 0.5}, {"a": ["x"]}),
        ConcaveModularOracle({"a": 4.0}, 0.5), TableOracle({"": 0.0, "a": 2.0}))]


@pytest.mark.parametrize("items, oracle", _TINY,
                         ids=[f"{o.kind}-n{len(i)}" for i, o in _TINY])
def test_table_and_validation_at_zero_and_one_item(items, oracle):
    # the subset cube of no items is 0-d, and of one item holds two 0-d views
    values, sizes = subset_table(Instance(items, oracle))
    rows = 1 << len(items)
    assert (values.tolist(), sizes.tolist()) == ([0.0, 2.0][:rows], [0, 3][:rows])
    report = validate_oracle(Instance(items, oracle))
    assert report.ok and report.first_violation is None


def test_validation_finds_a_one_item_violation():
    report = validate_oracle(Instance((Item("a", 1),), TableOracle({"": 0.0, "a": -1.0})))
    assert (report.monotone, report.submodular) == (False, True)
    assert report.first_violation == Violation("monotone", (), ("a",), 1.0)


class _LoneBonus(ValueOracle):
    """|S|, plus 0.5 on S = {i00} alone: monotone, and submodular everywhere
    except at A = {i00}, which few random samples draw."""

    def _value(self, s: frozenset[str]) -> float:
        return len(s) + (0.5 if s == {"i00"} else 0.0)


def test_validate_finds_a_lone_violation_at_thirteen_items():
    ids = [f"i{k:02d}" for k in range(13)]
    inst = Instance(tuple(Item(i, 1) for i in ids), _LoneBonus(ids))
    report = validate_oracle(inst)
    assert (report.normalized, report.monotone, report.submodular) == (True, True, False)
    assert report.first_violation == Violation("submodular", ("i00",), ("i01", "i02"), 0.5)
    assert str(report.first_violation) == \
        "submodular violated at A=['i00'] items=['i01', 'i02'] slack=0.5"


def test_parametric_oracles_validate_on_random_instances():
    for seed in range(8):
        for kind in ("modular", "coverage", "concave_modular"):
            inst = generate_instance(GeneratorSpec(kind, n=4 + seed % 7, seed=seed))
            assert validate_oracle(inst).ok, (kind, seed)


def test_table_oracle_refused_by_algorithms():
    from subknap.greedy import greedy_sequence
    inst = Instance((Item("a", 1), Item("b", 1)),
                    TableOracle(superadditive_table()))
    with pytest.raises(OracleValidationError):
        greedy_sequence(inst, 2)


# ---------------------------------------------------------------------------
# normalization and curvature

def test_normalize_drops_zero_singletons():
    inst = Instance((Item("a", 1), Item("b", 2)),
                    ModularOracle({"a": 1.0, "b": 0.0}))
    out = normalize_instance(inst)
    assert [it.id for it in out.items] == ["a"]
    assert out.oracle.domain == frozenset({"a"})


def test_normalize_identity_when_all_positive():
    inst = ex1()
    assert normalize_instance(inst) is inst


def test_normalize_all_zero_gives_empty_instance():
    inst = Instance((Item("a", 1),), ModularOracle({"a": 0.0}))
    assert normalize_instance(inst).items == ()


def test_normalize_refuses_invalid_table_before_dropping():
    with pytest.raises(OracleValidationError, match="table oracle refused: "
                       r"submodular violated at A=\[\] items=\['a', 'b'\]"):
        normalize_instance(zero_item_supermodular())


def test_generated_instances_need_no_normalization():
    for seed in (0, 17, 31):
        for kind in ("modular", "coverage", "concave_modular", "planted"):
            inst = generate_instance(GeneratorSpec(kind, n=6, seed=seed))
            assert normalize_instance(inst) is inst, (kind, seed)


def test_curvature_modular_exactly_zero():
    assert curvature(ex1()) == 0.0
    inst = generate_instance(GeneratorSpec("modular", n=9, seed=5))
    assert curvature(inst) == 0.0


def test_curvature_coverage_fixture_is_one():
    assert curvature(ex2()) == 1.0


def test_curvature_unit_table_is_one():
    inst = Instance((Item("a", 1), Item("b", 1)),
                    TableOracle({"": 0, "a": 1.0, "b": 1.0, "a,b": 1.0}))
    assert curvature(inst) == 1.0


def test_curvature_concave_pair():
    inst = Instance((Item("a", 1), Item("b", 1)),
                    make_concave_modular_oracle({"a": 1.0, "b": 1.0}, 0.5))
    assert curvature(inst) == pytest.approx(2.0 - math.sqrt(2), abs=1e-12)


def test_curvature_requires_positive_singletons():
    inst = Instance((Item("a", 1), Item("b", 1)),
                    ModularOracle({"a": 1.0, "b": 0.0}))
    with pytest.raises(ValueError):
        curvature(inst)


# ---------------------------------------------------------------------------
# instance files

@pytest.mark.parametrize("build", [ex1, ex2, ex3])
def test_instance_file_roundtrip(build, tmp_path):
    inst = build()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert instance_to_dict(again) == instance_to_dict(inst)
    assert instance_digest(again) == instance_digest(inst)


def test_table_roundtrip_uses_comma_joined_keys(tmp_path):
    inst = Instance((Item("a", 1), Item("b", 1)),
                    TableOracle({"": 0, "a": 1.0, "b": 1.0, "a,b": 1.0}))
    path = tmp_path / "t.json"
    save_instance(inst, path)
    data = json.loads(path.read_text())
    assert set(data["objective"]["values"]) == {"", "a", "b", "a,b"}
    assert instance_to_dict(load_instance(path)) == instance_to_dict(inst)


def test_load_rejects_fractional_sizes():
    with pytest.raises(ConfigurationError):
        instance_from_dict({
            "items": [{"id": "a", "size": 1.5}],
            "objective": {"kind": "modular", "weights": {"a": 1.0}},
        })


def test_load_rejects_unknown_kind_and_garbage(tmp_path):
    with pytest.raises(ConfigurationError):
        instance_from_dict({"items": [], "objective": {"kind": "mystery"}})
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ConfigurationError):
        load_instance(bad)


def test_generator_header_is_ignored_on_load(tmp_path):
    inst = ex1()
    path = tmp_path / "h.json"
    save_instance(inst, path, header={"algorithm": "pcg64", "seed": 1})
    assert instance_to_dict(load_instance(path)) == instance_to_dict(inst)


# ---------------------------------------------------------------------------
# the array forms of the tolerance rule

_VALUES = (st.floats(-1e300, 1e300, allow_nan=False)
           | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                              1.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]))


@st.composite
def _value_pairs(draw):
    """Two values: independent, equal, negated, or a few ULP either side
    of the tolerance edge TOL * max(1, |a|, |b|)."""
    a = draw(_VALUES)
    how = draw(st.sampled_from(["independent", "equal", "negated", "edge"]))
    if how == "independent":
        return a, draw(_VALUES)
    if how == "equal":
        return a, a
    if how == "negated":
        return a, -a
    b = a + draw(st.sampled_from([1.0, -1.0])) * TOL * max(1.0, abs(a))
    for _ in range(draw(st.integers(0, 4))):
        b = math.nextafter(b, draw(st.sampled_from([math.inf, -math.inf])))
    return a, b


@settings(max_examples=200, deadline=None)
@given(st.lists(_value_pairs(), min_size=1, max_size=12))
def test_array_comparisons_agree_with_scalar_rules(pairs):
    a, b = (np.array(side, dtype=np.float64) for side in zip(*pairs))
    for array_rule, rule in ((values_close_array, values_close),
                             (value_gt_array, value_gt), (value_ge_array, value_ge)):
        assert array_rule(a, b).tolist() == [rule(x, y) for x, y in pairs]
        assert array_rule(b, a).tolist() == [rule(y, x) for x, y in pairs]
