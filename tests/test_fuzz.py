"""Fuzzing of the instance-file boundary: malformed data may only raise
ValueError (ConfigurationError is one) from the loader, and the CLI answers
every file with exit code 0 or 2, never a traceback."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subknap.cli import main
from subknap.core import instance_from_dict

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)

_ids = st.sampled_from(["a", "b", "c"])
# JSON integers may lie beyond the float range
_oversized = st.integers(2 ** 1024, 10 ** 400)
_number = st.floats() | st.integers(-2, 5) | _oversized | _json


def _mapping(keys, values):
    return st.dictionaries(keys, values, max_size=3) | _json


_item = st.fixed_dictionaries(
    {"id": _ids | _json, "size": st.integers(-1, 4) | _oversized | _json}) | _json

_objective = st.one_of(
    st.fixed_dictionaries({"kind": st.just("modular"),
                           "weights": _mapping(_ids, _number)}),
    st.fixed_dictionaries({"kind": st.just("concave_modular"),
                           "weights": _mapping(_ids, _number),
                           "exponent": _number}),
    st.fixed_dictionaries({
        "kind": st.just("coverage"),
        "elements": _mapping(st.sampled_from(["x", "y"]), _number),
        "covers": _mapping(_ids, st.lists(st.sampled_from(["x", "y", "z"]),
                                          max_size=3) | _json)}),
    st.fixed_dictionaries({
        "kind": st.just("table"),
        "values": _mapping(st.sampled_from(["", "a", "b", "a,b", "c"]), _number)}),
    _json)

_instance_data = st.fixed_dictionaries(
    {"items": st.lists(_item, max_size=3) | _json, "objective": _objective}) | _json


@settings(max_examples=300, deadline=None)
@given(_instance_data)
def test_loader_raises_only_value_errors(data):
    try:
        instance_from_dict(data)
    except ValueError:
        pass


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instance_data, st.integers(-1, 6),
       st.sampled_from(["opt", "mgreedy", "agreedy", "policy"]))
def test_eval_exits_0_or_2(data, gamma, alg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "-i", path, "--gamma", str(gamma), "--alg", alg])
    assert code in (0, 2)
    if code == 0:
        value = float(out.getvalue().split("value: ")[1].split()[0])
        assert math.isfinite(value)
    else:
        assert err.getvalue().startswith("error: ")
