"""Compare the outputs of two qcwaves source trees on fixed inputs.

Run from anywhere, with the ``src/`` directories of the two trees:

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each tree runs ``qcwaves sample`` and ``qcwaves verify`` as child processes,
with its ``src/`` on PYTHONPATH, on inputs written to a temporary directory:

* ``demos/scenario_fundamental.json`` on ``demos/material.json``;
* 40x40 grids of each kind (``fundamental``, ``green-half``,
  ``freefield-full``, ``freefield-half``) with displacement and traction,
  so every kind's CSV spans more than one block of ``qcwaves.scenario``;
* a ``green-half`` point list of 1,500 points with displacement and
  traction, which also spans two blocks;
* ``verify`` on the demo material at 1e4 and 1e6 rad/s;
* ``verify`` on an R3 = 0 copy of the demo material at the same frequencies;
* ``verify`` on an R3 = 0 material of contrast K2/c44 = 1e-8 (c44 = 4.2e10,
  K2 = 420, rho = 4186) at the same frequencies, whose two modes' circles lie
  1e4 apart in radius, so the representation and radiated-power identities
  read each mode's kernel far into the other mode's table pieces;
* ``verify`` on a coupled material of high contrast (c44 = 1, R3 = 9900,
  K2 = 1e8, rho = 1: coupling 0.99, a1/a2 = 5e9) at the same frequencies,
  where both identities hold 1 / (4 a1) and 1 / (4 a2) 5e9 apart and the
  S1 wave's terms cancel down to sqrt(a2 / a1) of their size;
* ``decompose`` on the demo material at 1, 6.283e6 and 1e9 rad/s, whose
  stdout is kept as ``decompose.txt``;
* each tree's own ``demos/verification_tour.py`` (beside its ``src/``), whose
  stdout is kept as ``tour.txt``.

For every output file (CSV, sidecar, report, ``decompose.txt``, ``tour.txt``) it prints
whether the bytes are identical. For every CSV it also prints the largest
distance in units in the last place (ulp), counted only over entries of at
least 1e-3 of their column's largest magnitude (round-off near a cancelling
zero spans many ulps and says nothing), and the largest difference divided
by the largest magnitude of its column in the first tree. Below a JSON
output that differs it prints each differing key path with its relative
change, largest first, e.g. ``checks[0].radiation_residual rel 1.7e-01``
(``inf`` for a value that is not a number on both sides, or is missing on
one).
The exit code is 0 when every output is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DEMOS = Path(__file__).resolve().parent.parent / "demos"
OMEGA = 2.0 * math.pi * 1e6
GRID = {"x1": [-0.004, 0.004, 40], "x2": [-0.006, 0.0, 40]}
POINTS = [[0.004 * math.sin(0.7 * i), -0.006 * (i + 0.5) / 1500] for i in range(1500)]
SCENARIOS = {
    "fundamental-grid": {"schema_version": 1, "kind": "fundamental", "omega": OMEGA,
                         "source": [0.0003, -0.0021], "grid": GRID,
                         "outputs": ["displacement", "traction"], "normal": [0.0, 1.0]},
    "green": {"schema_version": 1, "kind": "green-half", "omega": OMEGA,
              "source": [0.0003, -0.0021], "grid": GRID,
              "outputs": ["displacement", "traction"], "normal": [0.0, 1.0]},
    "freefield": {"schema_version": 1, "kind": "freefield-half", "omega": OMEGA,
                  "wave": {"mode": "S2", "amplitude": [1.0, 0.0], "phi": 0.7},
                  "grid": GRID, "outputs": ["displacement", "traction"],
                  "normal": [0.0, 1.0]},
    "freefield-full": {"schema_version": 1, "kind": "freefield-full", "omega": OMEGA,
                       "wave": {"mode": "S1", "amplitude": [0.6, -0.8], "phi": 1.2},
                       "grid": GRID, "outputs": ["displacement", "traction"],
                       "normal": [0.6, 0.8]},
    "green-points": {"schema_version": 1, "kind": "green-half", "omega": OMEGA,
                     "source": [0.0003, -0.0021], "points": POINTS,
                     "outputs": ["displacement", "traction"], "normal": [0.0, 1.0]},
}
SAMPLES = ("fundamental", *SCENARIOS)  # fundamental: demos/scenario_fundamental.json
VERIFY_OMEGAS = "1e4,1e6"
VERIFY_REPORTS = {"verify.json": "material.json", "verify-r3zero.json": "material_r3zero.json",
                  "verify-contrast.json": "material_contrast.json",
                  "verify-coupled.json": "material_coupled.json"}
CONTRAST_MATERIAL = {"schema_version": 1, "c44": 4.2e10, "R3": 0.0, "K2": 420.0, "rho": 4186.0}
COUPLED_MATERIAL = {"schema_version": 1, "c44": 1.0, "R3": 9900.0, "K2": 1e8, "rho": 1.0}
DECOMPOSE_OMEGAS = "1,6.283e6,1e9"
_MISSING = object()  # a key only one JSON document has
ULP_FLOOR = 1e-3  # csv_distance counts ulps on entries >= this fraction of the column max


def write_inputs(where: Path) -> None:
    shutil.copy(DEMOS / "material.json", where / "material.json")
    decoupled = {**json.loads((DEMOS / "material.json").read_text(encoding="utf-8")), "R3": 0.0}
    (where / "material_r3zero.json").write_text(json.dumps(decoupled), encoding="utf-8")
    (where / "material_contrast.json").write_text(json.dumps(CONTRAST_MATERIAL), encoding="utf-8")
    (where / "material_coupled.json").write_text(json.dumps(COUPLED_MATERIAL), encoding="utf-8")
    shutil.copy(DEMOS / "scenario_fundamental.json", where / "fundamental.json")
    for name, doc in SCENARIOS.items():
        (where / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")


def run_tree(src: Path, inputs: Path, out: Path) -> list[str]:
    """Run every command with ``src`` on PYTHONPATH; return the output file names."""
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(src)}
    material = str(inputs / "material.json")
    commands = [["sample", "--material", material, "--scenario", str(inputs / f"{name}.json"),
                 "--out", str(out / f"{name}.csv")] for name in SAMPLES]
    for report, material_file in VERIFY_REPORTS.items():
        commands.append(["verify", "--material", str(inputs / material_file),
                         "--omega", VERIFY_OMEGAS, "--report", str(out / report)])
    for args in commands:
        subprocess.run([sys.executable, "-m", "qcwaves.cli", *args], env=env, check=False,
                       stdout=subprocess.DEVNULL)
    with open(out / "decompose.txt", "wb") as fh:
        subprocess.run([sys.executable, "-m", "qcwaves.cli", "decompose", "--material", material,
                        "--omega", DECOMPOSE_OMEGAS], env=env, check=False, stdout=fh)
    with open(out / "tour.txt", "wb") as fh:
        subprocess.run([sys.executable, str(src.parent / "demos" / "verification_tour.py")],
                       env=env, check=False, stdout=fh)
    return ([f"{name}.csv" for name in SAMPLES] + [f"{name}.csv.meta.json" for name in SAMPLES]
            + list(VERIFY_REPORTS) + ["decompose.txt", "tour.txt"])


def ordered_bits(values: np.ndarray) -> np.ndarray:
    """float64 bits as uint64 in the order of the values; +0 and -0 map alike."""
    bits = values.view(np.uint64)
    magnitude = bits & np.uint64(0x7FFF_FFFF_FFFF_FFFF)
    middle = np.uint64(1 << 63)
    return np.where(bits >> np.uint64(63) == 1, middle - magnitude, middle + magnitude)


def csv_distance(a_path: Path, b_path: Path) -> str:
    """Largest ulp distance over entries >= ULP_FLOOR of their column's largest magnitude,
    and largest difference over its column's largest magnitude."""
    a, b = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (a_path, b_path))
    header_a, header_b = (p.read_text().split("\n", 1)[0] for p in (a_path, b_path))
    if a.shape != b.shape or header_a != header_b:
        return "different columns or row count"
    scale = np.abs(a).max(axis=0)
    oa, ob = ordered_bits(a), ordered_bits(b)
    counted = np.abs(a) >= ULP_FLOOR * scale
    ulps = int(np.where(counted, np.maximum(oa, ob) - np.minimum(oa, ob), 0).max(initial=0))
    diff = np.abs(a - b).max(axis=0)
    rel = max((d / s for d, s in zip(diff, scale) if s > 0), default=0.0)
    return f"max ulp {ulps}, max diff / column max {rel:.3g}"


def json_changes(a, b, path: str = "") -> list[tuple[str, float]]:
    """(key path, relative change) of every leaf of two JSON documents that differs.

    A number pair changes by |b - a| / max(|a|, |b|); any other difference,
    a missing key or a list of another length, counts as inf.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        keys = [*a, *(k for k in b if k not in a)]
        return [c for k in keys for c in json_changes(a.get(k, _MISSING), b.get(k, _MISSING),
                                                       f"{path}.{k}" if path else str(k))]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [c for i, (x, y) in enumerate(zip(a, b))
                for c in json_changes(x, y, f"{path}[{i}]")]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if numbers and (a == b or math.isnan(a) and math.isnan(b)):
        return []
    if not numbers:
        return [] if type(a) is type(b) and a == b else [(path, math.inf)]
    rel = abs(b - a) / max(abs(a), abs(b))
    return [(path, rel if math.isfinite(rel) else math.inf)]


def compare(a_src: Path, b_src: Path) -> bool:
    """Print one line per output; True when every output is byte-identical."""
    with tempfile.TemporaryDirectory(prefix="qcwaves-compare-") as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        names = run_tree(a_src, inputs, tmp / "a")
        run_tree(b_src, inputs, tmp / "b")
        same = True
        for name in names:
            a, b = tmp / "a" / name, tmp / "b" / name
            missing = [side for side, p in (("first", a), ("second", b)) if not p.exists()]
            if missing:
                line = f"missing in the {' and '.join(missing)} tree"
                same = False
            else:
                identical = a.read_bytes() == b.read_bytes()
                same = same and identical
                line = "identical" if identical else "differs"
                if name.endswith(".csv"):
                    line += f"; {csv_distance(a, b)}"
                elif name.endswith(".json") and not identical:
                    changes = json_changes(*(json.loads(p.read_text()) for p in (a, b)))
                    line += "".join(f"\n    {path} rel {rel:.2g}" for path, rel in
                                    sorted(changes, key=lambda c: -c[1]))
            print(f"{name:31} {line}")
        return same


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 0 if compare(Path(argv[0]).resolve(), Path(argv[1]).resolve()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
