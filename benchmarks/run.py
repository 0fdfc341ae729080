"""qcwaves benchmark: the ``qcwaves`` CLI driven as a single-client closed loop.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload green-grid --seed 1 --seconds 20 --trace 0

Each invocation is a child process started only after the previous one has
exited; the package is taken from ``src/`` of the checkout through
PYTHONPATH, exactly as the ``qcwaves`` console script would run it. The
seed picks the inputs (source position, wave mode and angle, verify seed);
sizes and extents are fixed, so every seed asks for the same amount of work.

``--trace 0`` times untraced invocations for ``--seconds`` and reports the
end-to-end metrics named in BENCHMARK.json. ``--trace 1`` alternates
untraced invocations with traced ones (benchmarks/tracing.py) and reports
the per-layer metrics. Every invocation passes through the correctness gate
in benchmarks/oracle.py. Inputs and outputs live in a temporary directory
under ``.bench_tmp/`` of the checkout, removed on exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, the workload properties and the gate figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# What the ``qcwaves`` console script runs.
LAUNCH = "import sys; from qcwaves.cli import main; sys.exit(main())"

PROCESS_TIMEOUT_S = 150.0
SETUP_REPEATS = 7
MIN_INVOCATIONS = 3

DEMO_MATERIAL = {"schema_version": 1, "c44": 4.2e10, "R3": 1.2e9, "K2": 2.4e10, "rho": 4186.0}
OMEGA = 2.0 * math.pi * 1e6
VERIFY_OMEGAS = "1e4,1e5,1e6,1e7"


@dataclass
class Plan:
    """The inputs of one workload, fixed for a run.

    ``commands`` are CLI argument lists run in sequence as one invocation;
    ``{out}`` in an argument stands for that invocation's output directory.
    """

    commands: list[list[str]]
    outputs: list[str]
    rows: int
    scenario: dict | None = None
    properties: dict = field(default_factory=dict)


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _sample_plan(scenario: dict, tmp: Path, properties: dict) -> Plan:
    material = _write_json(tmp / "material.json", DEMO_MATERIAL)
    path = _write_json(tmp / "scenario.json", scenario)
    n1, n2 = scenario["grid"]["x1"][2], scenario["grid"]["x2"][2]
    return Plan(
        commands=[["sample", "--material", material, "--scenario", path,
                   "--out", "{out}/field.csv"]],
        outputs=["field.csv", "field.csv.meta.json"],
        rows=n1 * n2,
        scenario=scenario,
        properties={"rows": n1 * n2, "columns": len(oracle.csv_columns(scenario)), **properties},
    )


def green_grid(rng: random.Random, tmp: Path) -> Plan:
    # 14 mm x 14 mm: the disks k_i r <= 4 around the source cover ~2.5 % of
    # the arguments; the image stays > 4 mm away, always on the asymptotic branch.
    x1_axis, x2_axis = (-0.007, 0.007, 100), (-0.014, 0.0, 100)
    h1 = (x1_axis[1] - x1_axis[0]) / (x1_axis[2] - 1)
    h2 = (x2_axis[1] - x2_axis[0]) / (x2_axis[2] - 1)
    # a cell centre keeps the source off every grid point
    source = [x1_axis[0] + (rng.randint(28, 69) + 0.5) * h1,
              x2_axis[0] + (rng.randint(28, 69) + 0.5) * h2]
    scenario = {"schema_version": 1, "kind": "green-half", "omega": OMEGA, "source": source,
                "grid": {"x1": list(x1_axis), "x2": list(x2_axis)},
                "outputs": ["displacement", "traction"], "normal": [0.0, 1.0]}
    from qcwaves.material import QcMaterial, decompose, wave_parameters

    m = QcMaterial(**{k: DEMO_MATERIAL[k] for k in ("c44", "R3", "K2", "rho")})
    wp = wave_parameters(decompose(m), m.rho, OMEGA)
    share = oracle.series_share(scenario, (wp.k1, wp.k2))
    return _sample_plan(scenario, tmp, {"series_share": share, "source": source})


def freefield_grid(rng: random.Random, tmp: Path) -> Plan:
    wave = {"mode": rng.choice(["S1", "S2"]), "amplitude": [1.0, 0.0],
            "phi": rng.uniform(0.2, 1.35)}
    scenario = {"schema_version": 1, "kind": "freefield-half", "omega": OMEGA, "wave": wave,
                "grid": {"x1": [-0.01, 0.01, 200], "x2": [-0.02, 0.0, 200]},
                "outputs": ["displacement", "traction"], "normal": [0.0, 1.0]}
    return _sample_plan(scenario, tmp, {"series_share": 0.0, "wave": wave})


def verify_suite(rng: random.Random, tmp: Path) -> Plan:
    coupled = _write_json(tmp / "material.json", DEMO_MATERIAL)
    decoupled = _write_json(tmp / "material_r3_zero.json", {**DEMO_MATERIAL, "R3": 0.0})
    seed = str(rng.randrange(2**31))
    commands = [["verify", "--material", path, "--omega", VERIFY_OMEGAS, "--seed", seed,
                 "--report", "{out}/" + report]
                for path, report in ((coupled, "report.json"), (decoupled, "report_r3_zero.json"))]
    checks = 2 * len(VERIFY_OMEGAS.split(",")) * 5
    return Plan(commands=commands, outputs=["report.json", "report_r3_zero.json"], rows=checks,
                properties={"rows": checks, "row_kind": "verify checks", "verify_seed": int(seed),
                            "omegas": VERIFY_OMEGAS, "series_share": None})


# Why each workload was chosen is recorded with its name in BENCHMARK.json.
WORKLOADS = {"green-grid": green_grid, "freefield-grid": freefield_grid,
             "verify-suite": verify_suite}


@dataclass
class Invocation:
    exit_codes: list[int]
    wall_s: float
    peak_rss_mb: float
    digest: str
    traced: bool = False
    summaries: list[dict] = field(default_factory=list)
    failure: str | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # one string-hash layout for every child, so it is not a source of spread
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Run one child process to its exit: (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def invoke(plan: Plan, out: Path, env: dict, log: Path, traced: bool = False) -> Invocation:
    """One workload invocation: every command of the plan, in sequence."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    codes, wall, rss, summaries = [], 0.0, 0.0, []
    for i, command in enumerate(plan.commands):
        args = [a.replace("{out}", str(out)) for a in command]
        if traced:
            summary = out / f"trace_{i}.json"
            argv = [sys.executable, str(HERE / "tracing.py"), str(summary), *args]
        else:
            argv = [sys.executable, "-c", LAUNCH, *args]
        code, seconds, peak = spawn(argv, env, log)
        codes.append(code)
        wall += seconds
        rss = max(rss, peak)
        if traced and code == 0:
            summaries.append(json.loads(summary.read_text(encoding="utf-8")))
    paths = [out / name for name in plan.outputs]
    digest = oracle.digest(paths) if all(p.exists() for p in paths) else "missing output"
    return Invocation(codes, wall, rss, digest, traced, summaries)


def gate(plan: Plan, first_out: Path, runs: list[Invocation]) -> dict:
    """Mark each failed invocation; returns the gate figures of the run.

    The first invocation's output is checked against the reference; every
    other invocation must reproduce its bytes.
    """
    first = runs[0]
    max_rel_err = verify_margin = reports = rejected = None
    if all(code == 0 for code in first.exit_codes):
        try:
            if plan.scenario is not None:
                errors = oracle.row_errors(first_out / "field.csv", plan.scenario, DEMO_MATERIAL)
                max_rel_err = float(errors.max())
            else:
                reports = [json.loads((first_out / name).read_text(encoding="utf-8"))
                           for name in plan.outputs]
                verify_margin = oracle.verify_margin(reports)
        except (oracle.GateError, OSError, ValueError, KeyError) as exc:
            rejected = f"output rejected: {exc}"
    for run in runs:
        run.failure = oracle.failure(run.exit_codes, run.digest, first.digest,
                                     max_rel_err=max_rel_err, reports=reports)
        if run.failure is None and rejected is not None:
            run.failure = rejected
    failed = sum(run.failure is not None for run in runs)
    return {
        "max_rel_err": {"value": max_rel_err, "unit": "ratio"},
        "verify_margin": {"value": verify_margin, "unit": "ratio"},
        "failed_share": {"value": failed / len(runs), "unit": "ratio"},
        "failures": sorted({run.failure for run in runs if run.failure}),
    }


def _merge(summaries: list[dict]) -> dict:
    """Sum the traced summaries of the processes of one invocation."""
    merged: dict = {"functions": {}, "layers": {}, "specfun_branches": {}, "import_s": 0.0}
    for s in summaries:
        merged["import_s"] += s["import_s"]
        for group in ("functions", "layers"):
            for name, stats in s[group].items():
                slot = merged[group].setdefault(name, dict.fromkeys(stats, 0))
                for key, value in stats.items():
                    slot[key] += value
        for key, value in s["specfun_branches"].items():
            merged["specfun_branches"][key] = merged["specfun_branches"].get(key, 0) + value
    return merged


def layer_metrics(summaries: list[dict], csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    s = _merge(summaries)
    fn, layers, br = s["functions"], s["layers"], s["specfun_branches"]

    def stat(name, key):
        return fn.get(name, {}).get(key, 0)

    def inclusive(name):
        return stat(name, "inclusive_s")

    def us_per_call(name):
        calls = stat(name, "calls")
        return 1e6 * inclusive(name) / calls if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {f"{layer}.{key}": layers[layer][key]
               for layer in ("specfun", "material", "kernels", "halfplane", "freefield")
               for key in ("calls", "self_s")}
    del metrics["material.calls"]
    metrics.update({
        "specfun.series_share": ratio(br["series_args"], br["args"]),
        "specfun.series_us_per_call": 1e6 * ratio(br["series_s"], br["series_timed_args"]),
        "specfun.asym_us_per_call": 1e6 * ratio(br["asym_s"], br["asym_timed_args"]),
        "material.decompose_calls": stat("material.decompose", "calls"),
        "kernels.displacement_us_per_call": us_per_call("kernels.fundamental_displacement"),
        "kernels.traction_us_per_call": us_per_call("kernels.fundamental_traction"),
        "halfplane.traction_us_per_call": us_per_call("halfplane.green_traction"),
        "scenario.validate_s": inclusive("scenario.validate_scenario"),
        "scenario.evaluate_s": inclusive("scenario.sample_rows"),
        "scenario.write_s": stat("scenario.run_scenario", "self_s"),
        "scenario.csv_mb": csv_bytes / 1e6,
        "verify.pde_residual_s": inclusive("verify.pde_residual"),
        "verify.dirac_flux_s": inclusive("verify.dirac_flux"),
        "verify.reciprocity_s": inclusive("verify.reciprocity_check"),
        "verify.decoupling_s": inclusive("verify.decoupling_check"),
        "verify.boundary_scan_s": inclusive("verify.boundary_traction_scan"),
        "cli.import_s": s["import_s"] / len(summaries),
    })
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(), "git_commit": git_commit()}


def _stats(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "samples": len(values)}


def measure(plan: Plan, tmp: Path, seconds: float, trace: bool) -> tuple[list[Invocation], dict]:
    """Closed loop over invocations for ``seconds``; returns the runs and raw samples."""
    env = _child_env()
    log = tmp / "stderr.log"
    samples: dict[str, list[float]] = {}
    if not trace:
        spawn([sys.executable, "-c", LAUNCH, "--version"], env, log)  # fills __pycache__
        setup = [spawn([sys.executable, "-c", LAUNCH, "--version"], env, log)
                 for _ in range(SETUP_REPEATS)]
        if any(code != 0 for code, _, _ in setup):
            raise RuntimeError("qcwaves --version failed; see " + str(log))
        samples["setup_s"] = [wall for _, wall, _ in setup]
    runs: list[Invocation] = []
    deadline = time.perf_counter() + seconds
    # start an invocation only if one as long as the last still ends in time
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() + runs[-1].wall_s <= deadline:
        out = tmp / ("first" if not runs else "rerun")
        runs.append(invoke(plan, out, env, log, traced=trace and len(runs) % 2 == 1))
    return runs, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qcwaves" / "cli.py").is_file():
        print(f"error: no qcwaves sources under {SRC}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = definition["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in definition["end_to_end"] + definition["per_layer"]}
    sys.path.insert(0, str(SRC))

    build = WORKLOADS[args.workload]
    why = next(w["why"] for w in definition["workloads"] if w["name"] == args.workload)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        plan = build(random.Random(args.seed), tmp)
        runs, samples = measure(plan, tmp, args.seconds, bool(args.trace))
        figures = gate(plan, tmp / "first", runs)
        plan.properties["output_bytes"] = {name: (tmp / "first" / name).stat().st_size
                                           for name in plan.outputs
                                           if (tmp / "first" / name).exists()}
        log_tail = (tmp / "stderr.log").read_text(errors="replace")[-2000:]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass

    plain = [r for r in runs if not r.traced]
    samples["wall_s"] = [r.wall_s for r in plain]
    samples["points_per_s"] = [plan.rows / r.wall_s for r in plain]
    samples["peak_rss_mb"] = [r.peak_rss_mb for r in plain]
    if args.trace:
        traced = [r for r in runs if r.traced and r.summaries]
        csv_bytes = plan.properties["output_bytes"].get("field.csv", 0)
        per_run = [layer_metrics(r.summaries, csv_bytes) for r in traced]
        for name in per_run[0] if per_run else ():
            samples[name] = [m[name] for m in per_run]
        samples["trace.overhead_s"] = [
            statistics.median(r.wall_s for r in runs if r.traced)
            - statistics.median(samples["wall_s"])]
    values = {name: statistics.median(v) for name, v in samples.items() if v}

    missing = [m["name"] for m in declared if m["name"] not in values]
    failed = sum(r.failure is not None for r in runs)
    correct = failed == 0 and not missing
    report = {
        "workload": args.workload, "why": why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "properties": plan.properties,
        "gate": figures, "attempted": len(runs),
        "metrics": {name: {**_stats(v), "unit": units.get(name, "")}
                    for name, v in samples.items() if v},
    }
    if missing:
        report["missing_metrics"] = missing
    if failed:
        report["stderr_tail"] = log_tail
    print(json.dumps(report, indent=1, default=float))
    for name in ("max_rel_err", "verify_margin", "failed_share"):
        print(f"{name} = {figures[name]['value']} {figures[name]['unit']}")
    result = {"correct": correct, "attempted": len(runs), "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared if m["name"] in values}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
