"""benchmarks/tracing.py still finds the sample stages it times as scenario.validate_s and
scenario.evaluate_s: renaming or inlining validate_scenario or sample_rows fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

from qcwaves.scenario import _BLOCK_ROWS

ROOT = Path(__file__).resolve().parent.parent


def test_traced_sample_spans_validation_and_each_block(tmp_path):
    material = tmp_path / "material.json"
    material.write_text(json.dumps({"schema_version": 1, "c44": 4.2e10, "R3": 1.2e9,
                                    "K2": 2.4e10, "rho": 4186.0}))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "schema_version": 1, "kind": "freefield-half", "omega": 6.283e6,
        "wave": {"mode": "S1", "amplitude": [1.0, 0.5], "phi": 0.7},
        "grid": {"x1": [-5e-3, 5e-3, 2], "x2": [-5e-3, 0.0, _BLOCK_ROWS]},  # two blocks
        "outputs": ["displacement", "traction"], "normal": [0.0, 1.0]}))
    summary = tmp_path / "summary.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "tracing.py"), str(summary), "sample",
         "--material", str(material), "--scenario", str(scenario),
         "--out", str(tmp_path / "field.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    functions = json.loads(summary.read_text())["functions"]
    validate = functions["scenario.validate_scenario"]
    sample = functions["scenario.sample_rows"]
    assert validate["calls"] == 1 and validate["inclusive_s"] > 0.0
    assert sample["calls"] == 2 and sample["inclusive_s"] > 0.0
