"""Property: no JSON document makes the CLI leave its documented exit codes.

Each example takes a material and an omega of ``tests/strategies.py`` and a
valid scenario at that omega, replaces one key (or one key of the incident
wave) with an arbitrary JSON value, or deletes it, and runs ``qcwaves sample``
or ``qcwaves verify`` (at that omega) through ``cli.main``. The exit
code must be 0, 2, 3 or 4, no exception may escape, a failed run must leave
no CSV, and a CSV written with exit 0 must hold finite numbers only.

Property: a valid document of any kind, with a grid or a point list, with or
without ``outputs`` and ``normal``, and with integer or float numbers, parses
to the value that its canonical form (``scenario_to_dict``,
``material_to_dict``) parses to again, and that form is a fixed point.
"""

import contextlib
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import qcwaves.cli as cli  # noqa: E402
from qcwaves.scenario import (  # noqa: E402
    load_material,
    material_to_dict,
    parse_scenario,
    scenario_to_dict,
)
from strategies import accepted_materials_and_omegas  # noqa: E402

WAVE = {"mode": "S1", "amplitude": [1.0, 0.0], "phi": 0.6}
COMMON = {"schema_version": 1, "omega": 2.0, "grid": {"x1": [-1.0, 1.0, 3], "x2": [-2.0, -0.5, 3]},
          "outputs": ["displacement", "traction"], "normal": [0.0, 1.0]}
SCENARIOS = [
    {**COMMON, "kind": "fundamental", "source": [0.1, 0.2]},
    {**COMMON, "kind": "green-half", "source": [0.1, -1.1]},
    {**COMMON, "kind": "freefield-full", "wave": WAVE},
    {**COMMON, "kind": "freefield-half", "wave": WAVE},
]
SCENARIO_KEYS = sorted({k for doc in SCENARIOS for k in doc} | {"points"})
MAX_COUNT = 50  # grid size changes run time, not the exit code

DELETE = object()
extremes = st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                            -1.7976931348623157e308, 10**400])
numbers = extremes | st.integers() | st.floats()
pairs = st.lists(numbers, min_size=2, max_size=2)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["x1", "x2", "mode", "a"]), inner, max_size=3),
    max_leaves=8,
)
grids = st.fixed_dictionaries({
    axis: st.tuples(numbers, numbers, st.integers(-1, MAX_COUNT)).map(list)
    for axis in ("x1", "x2")
})


def _cap_counts(grid):
    """Clamp integer grid counts to MAX_COUNT wherever a value has the grid shape."""
    if isinstance(grid, dict):
        for spec in grid.values():
            if isinstance(spec, list) and len(spec) == 3 and type(spec[2]) is int:
                spec[2] = min(spec[2], MAX_COUNT)
    return grid


@st.composite
def cases(draw):
    command = draw(st.sampled_from(["sample", "sample", "sample", "verify"]))
    m, omega = draw(accepted_materials_and_omegas())
    material, scenario = material_to_dict(m), {**draw(st.sampled_from(SCENARIOS)), "omega": omega}
    target = draw(st.sampled_from(["material", "scenario", "wave"]) if command == "sample"
                  else st.just("material"))
    if target == "wave" and "wave" in scenario:
        doc = scenario["wave"] = dict(scenario["wave"])
        key = draw(st.sampled_from(sorted(WAVE)))
    else:
        doc = material if target == "material" else scenario
        key = draw(st.sampled_from(sorted(material) if target == "material" else SCENARIO_KEYS))
    value = draw(st.just(DELETE) | numbers | pairs | st.lists(pairs, min_size=1, max_size=3)
                 | json_values | (grids if key == "grid" else json_values))
    if value is DELETE:
        doc.pop(key, None)
    else:
        doc[key] = _cap_counts(value) if key == "grid" else value
    return command, material, scenario, omega


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy overflow must not reach the user
@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_any_document_exits_with_a_documented_code(tmp_path_factory, case):
    command, material, scenario, omega = case
    tmp = tmp_path_factory.mktemp("doc")
    material_path, scenario_path, out = tmp / "m.json", tmp / "s.json", tmp / "field.csv"
    material_path.write_text(json.dumps(material))
    scenario_path.write_text(json.dumps(scenario))
    if command == "sample":
        argv = ["sample", "--material", str(material_path), "--scenario", str(scenario_path),
                "--out", str(out)]
    else:
        argv = ["verify", "--material", str(material_path), "--omega", repr(omega)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert not out.exists()
    elif out.exists():
        text = out.read_text()
        assert "nan" not in text and "inf" not in text


DEMO_MATERIAL = {"schema_version": 1, "c44": 4.2e10, "R3": 1.2e9, "K2": 2.4e10, "rho": 4186.0}
HUGE = 1.7976931348623157e308


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scenario, code, reason", [
    ({**SCENARIOS[3], "omega": 1e6, "wave": {**WAVE, "amplitude": [1e308, 1e308]}},
     3, "gave a non-finite value"),
    ({**SCENARIOS[2], "omega": 1e305, "points": [[1e-300, -1e-300]], "grid": DELETE},
     3, "gave a non-finite value"),
    ({**SCENARIOS[2], "grid": {"x1": [0.0, 1.0, 2], "x2": [5e-324, HUGE, 19]}},
     2, "is not finite"),
], ids=["freefield-half-huge-amplitude", "freefield-full-huge-omega", "grid-step-overflows"])
def test_overflow_exits_with_one_error_line(tmp_path, scenario, code, reason):
    scenario = {k: v for k, v in scenario.items() if v is not DELETE}
    material_path, scenario_path, out = tmp_path / "m.json", tmp_path / "s.json", tmp_path / "f.csv"
    material_path.write_text(json.dumps(DEMO_MATERIAL))
    scenario_path.write_text(json.dumps(scenario))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        exit_code = cli.main(["sample", "--material", str(material_path),
                              "--scenario", str(scenario_path), "--out", str(out)])
    lines = stderr.getvalue().splitlines()
    assert exit_code == code and not out.exists()
    assert len(lines) == 1 and lines[0].startswith("error: ") and reason in lines[0], lines


finite = st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False)
finite_pairs = st.lists(finite, min_size=2, max_size=2)
valid_waves = st.fixed_dictionaries({
    "mode": st.sampled_from(["S1", "S2"]),
    "amplitude": finite_pairs,
    "phi": st.just(1) | st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True),
})
valid_grids = st.fixed_dictionaries({
    axis: st.tuples(finite, finite, st.integers(1, 10**9)).map(list) for axis in ("x1", "x2")
})


@st.composite
def valid_scenarios(draw):
    kind = draw(st.sampled_from(["fundamental", "green-half", "freefield-full", "freefield-half"]))
    doc = {"schema_version": 1, "kind": kind, "omega": draw(finite)}
    if kind in ("fundamental", "green-half"):
        doc["source"] = draw(finite_pairs)
    else:
        doc["wave"] = draw(valid_waves)
    if draw(st.booleans()):
        doc["grid"] = draw(valid_grids)
    else:
        doc["points"] = draw(st.lists(finite_pairs, min_size=1, max_size=4))
    if draw(st.booleans()):
        doc["outputs"] = draw(st.sampled_from([["displacement"], ["traction"],
                                               ["displacement", "traction"],
                                               ["traction", "displacement"]]))
    if draw(st.booleans()):
        doc["normal"] = draw(finite_pairs)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=valid_scenarios())
def test_scenario_round_trips_through_its_canonical_form(doc):
    s = parse_scenario(doc)
    canonical = scenario_to_dict(s)
    assert parse_scenario(json.loads(json.dumps(canonical))) == s
    assert scenario_to_dict(parse_scenario(canonical)) == canonical


@settings(max_examples=100, deadline=None)
@given(values=st.fixed_dictionaries({key: finite for key in ("c44", "R3", "K2", "rho")}),
       notes=st.dictionaries(st.sampled_from(["note", "source", "c45"]), st.text(max_size=4)))
def test_material_round_trips_through_its_canonical_form(tmp_path_factory, values, notes):
    path = tmp_path_factory.mktemp("material") / "m.json"
    path.write_text(json.dumps({"schema_version": 1, **values, **notes}))
    m = load_material(str(path))
    canonical = material_to_dict(m)
    path.write_text(json.dumps(canonical))
    assert load_material(str(path)) == m
    assert material_to_dict(load_material(str(path))) == canonical
