"""tools/compare_outputs.py: a tree compared with itself is identical throughout,
and a JSON output that differs is broken down by key path."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_same_tree_reports_every_output_identical():
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"), src, src],
                          capture_output=True, text=True, timeout=300)
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(lines) == 18 and all(line.split()[1].startswith("identical") for line in lines)
    assert sum("max ulp 0, max diff / column max 0" in line for line in lines) == 6


def test_json_changes_names_each_moved_value():
    sys.path.insert(0, str(ROOT / "tools"))
    from compare_outputs import json_changes

    before = {"all_passed": True, "checks": [
        {"name": "pde-residual", "max_kernel_residual": 2.5e-9, "status": "pass"},
        {"name": "dirac-flux", "value": 1.0, "missing": None, "values": [0.5, math.nan]}]}
    after = json.loads(json.dumps(before))
    assert json_changes(before, after) == []  # negative control: equal documents, NaN included
    after["checks"][0]["max_kernel_residual"] *= 1.0 + 1.7e-7
    after["checks"][1]["values"][0] = -0.5
    after["checks"][1]["status"] = "pass"
    after["all_passed"] = 1
    changes = dict(json_changes(before, after))
    assert set(changes) == {"checks[0].max_kernel_residual", "checks[1].values[0]",
                            "checks[1].status", "all_passed"}
    assert changes["checks[0].max_kernel_residual"] == pytest.approx(1.7e-7, rel=1e-6)
    assert changes["checks[1].values[0]"] == 2.0
    assert changes["checks[1].status"] == changes["all_passed"] == math.inf


def write_csv(path: Path, rows) -> Path:
    path.write_text("x1,t3_re\n" + "".join(f"{x!r},{t!r}\n" for x, t in rows))
    return path


def test_ulp_figure_skips_entries_near_a_cancelling_zero(tmp_path):
    sys.path.insert(0, str(ROOT / "tools"))
    from compare_outputs import csv_distance

    before = [(0.0, 1.0), (1.0, 1e-17), (2.0, -0.5)]
    a = write_csv(tmp_path / "a.csv", before)
    near_zero = [(0.0, 1.0), (1.0, 3e-17), (2.0, -0.5)]  # thousands of ulps, 2e-17 of the max
    assert csv_distance(a, write_csv(tmp_path / "b.csv", near_zero)) == \
        "max ulp 0, max diff / column max 2e-17"
    large = [(0.0, math.nextafter(1.0, 2.0)), (1.0, 1e-17), (2.0, -0.5)]  # negative control
    assert csv_distance(a, write_csv(tmp_path / "c.csv", large)).startswith("max ulp 1, ")
