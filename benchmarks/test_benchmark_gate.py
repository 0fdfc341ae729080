"""Controls for the benchmark's correctness gate and tracer.

Each error class the gate guards against must count as a failed
invocation: a value off by 1e-9 relative, a rerun whose bytes differ, and
a ``verify`` run that exits with code 4. Run with the package on the path:

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import json
import random
import subprocess
import sys

import pytest

pytest.importorskip("scipy")

import oracle  # noqa: E402
import run  # noqa: E402
from qcwaves.scenario import load_material, parse_scenario, run_scenario  # noqa: E402

GREEN = {"schema_version": 1, "kind": "green-half", "omega": run.OMEGA,
         "source": [0.0003, -0.0021],
         "grid": {"x1": [-0.004, 0.004, 6], "x2": [-0.006, 0.0, 5]},
         "outputs": ["displacement", "traction"], "normal": [0.0, 1.0]}
FREEFIELD = {"schema_version": 1, "kind": "freefield-half", "omega": run.OMEGA,
             "wave": {"mode": "S2", "amplitude": [1.0, 0.0], "phi": 0.7},
             "grid": {"x1": [-0.004, 0.004, 6], "x2": [-0.006, 0.0, 5]},
             "outputs": ["displacement", "traction"], "normal": [0.0, 1.0]}


def sample(plan: run.Plan, out) -> run.Invocation:
    """Run the plan's sample command in-process into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    args = plan.commands[0]
    material = load_material(args[args.index("--material") + 1])
    run_scenario(parse_scenario(plan.scenario), material, str(out / "field.csv"),
                 str(out / "field.csv.meta.json"))
    return invocation(plan, out)


def invocation(plan: run.Plan, out, codes=(0,)) -> run.Invocation:
    return run.Invocation(list(codes), 1.0, 1.0, oracle.digest(out / n for n in plan.outputs))


def perturb_largest_value(path, factor: float) -> None:
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    r, c = max(((r, c) for r in range(len(rows)) for c in range(2, len(rows[r]))),
               key=lambda rc: abs(float(rows[rc[0]][rc[1]])))
    rows[r][c] = repr(float(rows[r][c]) * factor)
    path.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")


@pytest.mark.parametrize("scenario", [GREEN, FREEFIELD], ids=["green", "freefield"])
def test_gate_accepts_qcwaves_output(tmp_path, scenario):
    plan = run._sample_plan(scenario, tmp_path, {})
    first = sample(plan, tmp_path / "first")
    rerun = sample(plan, tmp_path / "rerun")
    figures = run.gate(plan, tmp_path / "first", [first, rerun])
    assert figures["failed_share"]["value"] == 0.0
    assert figures["max_rel_err"]["value"] <= oracle.ACCURACY


@pytest.mark.parametrize("scenario", [GREEN, FREEFIELD], ids=["green", "freefield"])
def test_value_perturbed_by_1e_9_is_a_failure(tmp_path, scenario):
    plan = run._sample_plan(scenario, tmp_path, {})
    sample(plan, tmp_path / "first")
    perturb_largest_value(tmp_path / "first" / "field.csv", 1.0 + 1e-9)
    first = invocation(plan, tmp_path / "first")
    figures = run.gate(plan, tmp_path / "first", [first])
    assert figures["max_rel_err"]["value"] > oracle.ACCURACY
    assert figures["failed_share"]["value"] == 1.0
    assert "max relative error" in first.failure


def test_rerun_with_different_bytes_is_a_failure(tmp_path):
    plan = run._sample_plan(GREEN, tmp_path, {})
    first = sample(plan, tmp_path / "first")
    sample(plan, tmp_path / "rerun")
    csv = tmp_path / "rerun" / "field.csv"
    csv.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n", 1))
    rerun = invocation(plan, tmp_path / "rerun")
    figures = run.gate(plan, tmp_path / "first", [first, rerun])
    assert first.failure is None
    assert "differ" in rerun.failure
    assert figures["failed_share"]["value"] == 0.5


def write_reports(plan, out, all_passed):
    out.mkdir(parents=True, exist_ok=True)
    for name in plan.outputs:
        (out / name).write_text(json.dumps({"checks": [], "all_passed": all_passed}))


@pytest.mark.parametrize("codes, all_passed", [((4, 0), False), ((0, 4), True), ((0, 0), False)])
def test_failed_verify_is_a_failure(tmp_path, codes, all_passed):
    plan = run.verify_suite(random.Random(0), tmp_path)
    write_reports(plan, tmp_path / "first", all_passed)
    first = invocation(plan, tmp_path / "first", codes)
    figures = run.gate(plan, tmp_path / "first", [first])
    assert first.failure is not None
    assert figures["failed_share"]["value"] == 1.0


def test_traced_run_counts_layer_calls_and_keeps_bytes(tmp_path):
    plan = run._sample_plan(GREEN, tmp_path, {})
    env = run._child_env()
    log = tmp_path / "stderr.log"
    plain = run.invoke(plan, tmp_path / "plain", env, log)
    traced = run.invoke(plan, tmp_path / "traced", env, log, traced=True)
    assert plain.exit_codes == traced.exit_codes == [0], log.read_text()
    assert traced.digest == plain.digest
    metrics = run.layer_metrics(traced.summaries, csv_bytes=1)
    points = 6 * 5
    # per point: two sources, each one displacement and one traction kernel
    assert metrics["halfplane.calls"] == 2 * points
    assert metrics["kernels.calls"] == 4 * points
    assert metrics["specfun.calls"] == 8 * points
    assert metrics["material.decompose_calls"] == 4 * points
    assert metrics["freefield.calls"] == 0
    assert 0.0 < metrics["specfun.series_share"] < 1.0
    assert metrics["kernels.self_s"] > 0.0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) | {"trace.overhead_s"} == {m["name"] for m in declared}


def test_bare_benchmark_directory_is_refused(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for name in ("run.py", "oracle.py", "tracing.py"):
        (tmp_path / "benchmarks" / name).write_bytes((run.HERE / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "green-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
