"""The sample CSV writer against the plain one-repr-per-float writer, byte for byte."""

import numpy as np
import pytest

import qcwaves.scenario as scenario
from qcwaves import QcMaterial
from qcwaves.scenario import csv_header, parse_scenario, run_scenario, sample_rows, scenario_points

M = QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=1.0)
B = 512  # rows per block where patched in: grids of B + 1 points then span two blocks

# Floats where repr switches between positional and exponent notation, and subnormals.
EXPONENT_SWITCHES = [1e16, 9.999999999999999e15, 1e-05, 0.0001]
SUBNORMALS = [5e-324, 2.225073858507201e-308, 1e-310]


def reference_csv(s, m):
    """The plain writer: every float repr'd, row by row, of the whole grid evaluated at once."""
    lines = [",".join(csv_header(s))]
    pts = np.concatenate(list(scenario_points(s)))
    lines += [",".join(map(repr, row)) for row in sample_rows(s, m, pts).tolist()]
    return "\n".join(lines) + "\n"


def written_csv(s, m, tmp_path):
    out = tmp_path / "field.csv"
    assert run_scenario(s, m, str(out)) == len(np.concatenate(list(scenario_points(s))))
    return out.read_bytes().decode("utf-8")


def format_by_value(block):
    """A formatter that matches floats by == instead of by bits: the defect to catch."""
    values, index = np.unique(block, return_inverse=True)
    text = np.array(list(map(repr, values.tolist())), dtype=object)
    return "".join(",".join(row) + "\n" for row in text[index.reshape(block.shape)].tolist())


def scenario_doc(kind, **extra):
    doc = {"schema_version": 1, "kind": kind, "omega": 2.0,
           "outputs": ["displacement", "traction"], "normal": [0.0, 1.0], **extra}
    if kind in ("fundamental", "green-half"):
        doc["source"] = [0.05, 0.05] if kind == "fundamental" else [0.05, -2.05]
    else:
        doc["wave"] = {"mode": "S1", "amplitude": [1.0, -0.5], "phi": 0.6}
    return doc


KINDS = ("fundamental", "green-half", "freefield-full", "freefield-half")
SIGNED_ZERO_POINTS = [[0.0, -1.0], [-0.0, -1.0], [1.0, -0.0], [1.0, 0.0], [0.0, -1.0],
                      [-0.0, -0.0], [0.0, 0.0], [1.0, -0.0]]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rows", [1, B - 1, B, B + 1])
def test_grid_csv_equals_reference_writer(tmp_path, monkeypatch, kind, rows):
    # a grid of `rows` points around a block boundary, x2 inner: coordinates repeat
    monkeypatch.setattr(scenario, "_BLOCK_ROWS", B)
    n1 = next(n for n in (3, 7, 8, 1) if rows % n == 0)
    s = parse_scenario(scenario_doc(kind, grid={"x1": [-1.0, 1.0, n1],
                                                "x2": [-2.0, -0.0, rows // n1]}))
    assert written_csv(s, M, tmp_path) == reference_csv(s, M)


@pytest.mark.parametrize("kind", KINDS)
def test_points_with_repeats_and_signed_zeros_equal_reference_writer(tmp_path, kind):
    s = parse_scenario(scenario_doc(kind, points=SIGNED_ZERO_POINTS))
    assert written_csv(s, M, tmp_path) == reference_csv(s, M)


def test_formatting_by_value_fails_the_signed_zero_case(tmp_path, monkeypatch):
    s = parse_scenario(scenario_doc("freefield-half", points=SIGNED_ZERO_POINTS))
    monkeypatch.setattr(scenario, "_format_block", format_by_value)
    assert written_csv(s, M, tmp_path) != reference_csv(s, M)


@pytest.mark.parametrize("kind", KINDS)
def test_exponent_switches_and_subnormals_equal_reference_writer(tmp_path, kind):
    specials = EXPONENT_SWITCHES + SUBNORMALS
    points = [[x, -1.0] for x in specials] + [[1.0, -x] for x in specials]
    points += [[-x, -x] for x in specials]
    s = parse_scenario(scenario_doc(kind, points=points))
    assert written_csv(s, M, tmp_path) == reference_csv(s, M)


def test_block_formatter_on_crafted_blocks():
    specials = EXPONENT_SWITCHES + SUBNORMALS + [0.0, -0.0, 1.0, -1.0, 0.1, 1e300, -5e-324]
    rng = np.random.default_rng(7)
    for shape in [(1, 1), (3, 2), (B - 1, 6), (B, 18), (B + 1, 10)]:
        block = rng.choice(specials, size=shape)
        block[:, -1] = rng.standard_normal(shape[0])  # distinct values beside the repeats
        expected = "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())
        assert scenario._format_block(block) == expected
    signed = np.array([[0.0, -0.0], [-0.0, 0.0]])
    assert scenario._format_block(signed) == "0.0,-0.0\n-0.0,0.0\n"
    assert format_by_value(signed) != "0.0,-0.0\n-0.0,0.0\n"


@pytest.mark.parametrize("kind", ["fundamental", "green-half"])
def test_point_source_csv_repeats_symmetric_kernel_columns(tmp_path, kind):
    # v* and t* are symmetric: u32 is w31 and t32 is G31, bit for bit
    s = parse_scenario(scenario_doc(kind, grid={"x1": [-1.0, 1.0, 9], "x2": [-2.0, -0.0, 7]}))
    rows = sample_rows(s, M, np.concatenate(list(scenario_points(s)))).view(np.int64)
    column = {name: j for j, name in enumerate(csv_header(s))}
    for a, b in [("u32", "w31"), ("t32", "G31")]:
        for part in ("_re", "_im"):
            assert np.array_equal(rows[:, column[a + part]], rows[:, column[b + part]])
    lines = [line.split(",") for line in written_csv(s, M, tmp_path).splitlines()]
    assert all(row[column["u32_re"]] == row[column["w31_re"]] for row in lines[1:])
