"""scenario_points: the one source of evaluation points, one block at a time."""

import os
import tracemalloc

import numpy as np
import pytest

import qcwaves.scenario as scenario
from qcwaves import QcMaterial
from qcwaves.scenario import _BLOCK_ROWS as B
from qcwaves.scenario import parse_scenario, scenario_points

M = QcMaterial(c44=4.2e10, R3=1.2e9, K2=2.4e10, rho=4186.0)


def doc(kind, **layout):
    d = {"schema_version": 1, "kind": kind, "omega": 6.283e6, **layout}
    if kind in scenario.POINT_SOURCE_KINDS:
        d["source"] = [0.3e-3, -7e-3]
    else:
        d["wave"] = {"mode": "S1", "amplitude": [1.0, 0.5], "phi": 0.7}
    return d


def blocks(s):
    out = list(scenario_points(s))
    assert all(pts.dtype == float and pts.ndim == 2 and pts.shape[1] == 2 for pts in out)
    assert [len(pts) for pts in out[:-1]] == [B] * (len(out) - 1) and 1 <= len(out[-1]) <= B
    return np.concatenate(out)


@pytest.mark.parametrize("n1, n2", [(2500, 1), (1, 3000), (3, B - 1), (3, B), (3, B + 1),
                                    (2, 3 * B + 7)])
def test_grid_blocks_follow_the_whole_grid_layout(n1, n2):
    s = parse_scenario(doc("fundamental", grid={"x1": [-1.3, 2.7, n1], "x2": [-5.0, -0.1, n2]}))
    x1 = scenario._axis_values(-1.3, 2.7, n1)
    x2 = scenario._axis_values(-5.0, -0.1, n2)
    reference = np.column_stack([np.repeat(x1, n2), np.tile(x2, n1)])  # x1 outer, x2 inner
    assert blocks(s).tobytes() == reference.tobytes()


@pytest.mark.parametrize("n", [1, B, B + 1])
def test_point_list_blocks_keep_the_list_order(n):
    points = [[0.25 * np.sin(0.7 * i), -1e-3 * (i + 0.5)] for i in range(n)]
    s = parse_scenario(doc("green-half", points=points))
    assert blocks(s).tobytes() == np.array(points).tobytes()


def traced_peak(call, kind, n1):
    s = parse_scenario(doc(kind, grid={"x1": [-5e-3, 5e-3, n1], "x2": [-5e-3, 0.0, B]}))
    tracemalloc.start()
    try:
        call(s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, call", [
    ("green-half", lambda s: scenario.validate_scenario(s, M)),
    ("freefield-half", lambda s: scenario.validate_scenario(s, M)),
    ("freefield-half", lambda s: scenario.run_scenario(s, M, os.devnull)),
], ids=["validate-green-half", "validate-freefield-half", "run-freefield-half"])
def test_no_whole_grid_array_from_2_15_to_2_16_points(kind, call):
    # a whole-grid (N, 2) build reads 32 bytes per point here; one block reads none
    small, large = (traced_peak(call, kind, n1) for n1 in (2**15 // B, 2**16 // B))
    assert (large - small) / 2**15 <= 4.0
