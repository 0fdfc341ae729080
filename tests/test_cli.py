"""CLI subcommands, file formats, exit codes and determinism."""

import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import qcwaves.cli as cli
import qcwaves.scenario as scenario
import qcwaves.verify as verify
from qcwaves import (
    ParseError,
    QcError,
    QcMaterial,
    ValidationError,
    fundamental_displacement,
    fundamental_traction,
    green_displacement,
    halfplane_freefield,
)
from qcwaves.scenario import (
    Scenario,
    load_material,
    load_scenario,
    parse_scenario,
    run_scenario,
    scenario_points,
    scenario_to_dict,
)

MATERIAL = {"schema_version": 1, "c44": 2.0, "R3": 1.0, "K2": 2.0, "rho": 1.0}
# k2 = 2 sqrt(2) omega, so omega = 1e308 overflows k2 but not k1
OVERFLOW_MATERIAL = {"schema_version": 1, "c44": 1.0, "R3": 0.5, "K2": 1.0, "rho": 4.0}


@pytest.fixture
def material_file(tmp_path):
    path = tmp_path / "material.json"
    path.write_text(json.dumps(MATERIAL))
    return str(path)


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def fundamental_scenario(n1=50, n2=50):
    return {
        "schema_version": 1,
        "kind": "fundamental",
        "omega": 2.0,
        "source": [0.0, 0.0],
        "grid": {"x1": [0.1, 5.0, n1], "x2": [0.1, 5.0, n2]},
        "outputs": ["displacement"],
    }


class TestSample:
    def test_grid_row_count(self, tmp_path, material_file):
        scenario = write_scenario(tmp_path, fundamental_scenario())
        out = str(tmp_path / "field.csv")
        assert cli.main(["sample", "--material", material_file,
                         "--scenario", scenario, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 2501  # header + 50*50 rows
        assert lines[0] == ("x1,x2,u31_re,u31_im,u32_re,u32_im,"
                            "w31_re,w31_im,w32_re,w32_im")

    def test_values_match_library_bit_for_bit(self, tmp_path, material_file):
        doc = fundamental_scenario(6, 5)
        doc["outputs"] = ["displacement", "traction"]
        doc["normal"] = [0.0, 1.0]
        scenario_path = write_scenario(tmp_path, doc)
        out = str(tmp_path / "field.csv")
        assert cli.main(["sample", "--material", material_file,
                         "--scenario", scenario_path, "--out", out]) == 0
        m = QcMaterial(**{k: MATERIAL[k] for k in ("c44", "R3", "K2", "rho")})
        s = load_scenario(scenario_path)
        lines = open(out).read().splitlines()[1:]
        points = np.concatenate(list(scenario_points(s)))
        assert len(lines) == len(points)
        for line, p in zip(lines, points):
            vals = [float(tok) for tok in line.split(",")]
            assert vals[0] == p[0] and vals[1] == p[1]
            v = fundamental_displacement(m, p, (0.0, 0.0), 2.0)
            expect = []
            for z in (v[0, 0], v[0, 1], v[1, 0], v[1, 1]):
                expect += [z.real, z.imag]
            t = fundamental_traction(m, p, (0.0, 0.0), 2.0, (0.0, 1.0))
            for z in (t[0, 0], t[0, 1], t[1, 0], t[1, 1]):
                expect += [z.real, z.imag]
            assert vals[2:] == expect  # exact equality, not approx

    def test_grid_containing_source_is_evaluation_error(self, tmp_path, material_file, capsys):
        doc = fundamental_scenario(3, 3)
        doc["grid"] = {"x1": [-1.0, 1.0, 3], "x2": [-1.0, 1.0, 3]}
        scenario = write_scenario(tmp_path, doc)
        out = str(tmp_path / "field.csv")
        code = cli.main(["sample", "--material", material_file,
                         "--scenario", scenario, "--out", out])
        assert code == 3
        assert "[0.0, 0.0]" in capsys.readouterr().err

    def test_failure_in_second_block_removes_earlier_outputs(self, tmp_path, material_file,
                                                             capsys):
        doc = _edit(fundamental_scenario(), grid={"x1": [-1.0, 1.0, 3],
                                                  "x2": [-600.0, 600.0, 1201]})
        points = np.concatenate(list(scenario_points(parse_scenario(doc))))
        source_row = points.tolist().index([0.0, 0.0])
        assert scenario._BLOCK_ROWS <= source_row < 2 * scenario._BLOCK_ROWS
        out, sidecar = tmp_path / "field.csv", tmp_path / "field.csv.meta.json"
        out.write_text("x1,x2\n")  # left by an earlier run
        sidecar.write_text("{}\n")
        assert cli.main(["sample", "--material", material_file, "--scenario",
                         write_scenario(tmp_path, doc), "--out", str(out)]) == 3
        assert "[0.0, 0.0]" in capsys.readouterr().err
        assert not out.exists() and not sidecar.exists()

    def test_halfplane_source_above_boundary_is_validation_error(self, tmp_path, material_file, capsys):
        doc = fundamental_scenario(3, 3)
        doc["kind"] = "green-half"
        doc["source"] = [0.0, 0.5]
        doc["grid"] = {"x1": [-1.0, 1.0, 3], "x2": [-2.0, -0.5, 3]}
        scenario = write_scenario(tmp_path, doc)
        out = str(tmp_path / "field.csv")
        code = cli.main(["sample", "--material", material_file,
                         "--scenario", scenario, "--out", out])
        assert code == 2
        assert not (tmp_path / "field.csv").exists()  # rejected before evaluation

    def test_deterministic_output(self, tmp_path, material_file):
        scenario = write_scenario(tmp_path, fundamental_scenario(10, 10))
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        cli.main(["sample", "--material", material_file, "--scenario", scenario,
                  "--out", out_a, "--no-sidecar"])
        cli.main(["sample", "--material", material_file, "--scenario", scenario,
                  "--out", out_b, "--no-sidecar"])
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_sidecar_round_trips_scenario(self, tmp_path, material_file):
        doc = {
            "schema_version": 1,
            "kind": "freefield-half",
            "omega": 3.0,
            "wave": {"mode": "S2", "amplitude": [0.5, -0.25], "phi": 0.9},
            "points": [[0.0, -1.0], [2.0, 0.0]],
            "outputs": ["displacement", "traction"],
            "normal": [0.0, 1.0],
        }
        scenario_path = write_scenario(tmp_path, doc)
        out = str(tmp_path / "field.csv")
        assert cli.main(["sample", "--material", material_file,
                         "--scenario", scenario_path, "--out", out]) == 0
        sidecar = json.load(open(out + ".meta.json"))
        assert sidecar["generator"]["package"] == "qcwaves"
        assert sidecar["material"] == MATERIAL
        original = load_scenario(scenario_path)
        echoed = parse_scenario(sidecar["scenario"])
        assert echoed == original

    def test_freefield_csv_matches_library(self, tmp_path, material_file):
        doc = {
            "schema_version": 1,
            "kind": "freefield-half",
            "omega": 3.0,
            "wave": {"mode": "S1", "amplitude": [1.0, 0.0], "phi": 0.7},
            "points": [[0.3, -0.8]],
            "outputs": ["displacement"],
        }
        scenario_path = write_scenario(tmp_path, doc)
        out = str(tmp_path / "f.csv")
        cli.main(["sample", "--material", material_file,
                  "--scenario", scenario_path, "--out", out])
        lines = open(out).read().splitlines()
        assert lines[0] == "x1,x2,u3_re,u3_im,w3_re,w3_im"
        vals = [float(t) for t in lines[1].split(",")]
        m = QcMaterial(**{k: MATERIAL[k] for k in ("c44", "R3", "K2", "rho")})
        s = load_scenario(scenario_path)
        f = halfplane_freefield(m, s.wave, 3.0, (0.3, -0.8))
        assert vals[2:] == [f[0].real, f[0].imag, f[1].real, f[1].imag]

    def test_malformed_scenario_is_parse_error(self, tmp_path, material_file):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["sample", "--material", material_file,
                         "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        missing = write_scenario(tmp_path, {"schema_version": 1, "kind": "fundamental"},
                                 "missing.json")
        assert cli.main(["sample", "--material", material_file,
                         "--scenario", missing, "--out", str(tmp_path / "x.csv")]) == 2


class TestDecompose:
    def test_symmetric_material_table(self, material_file, capsys):
        assert cli.main(["decompose", "--material", material_file]) == 0
        out = capsys.readouterr().out
        assert "a1 = 3" in out and "a2 = 1" in out
        assert "45 deg" in out

    def test_decoupled_material_notes_continuity_rule(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema_version": 1, "c44": 2.0, "R3": 0.0,
                                    "K2": 1.0, "rho": 1.0}))
        assert cli.main(["decompose", "--material", str(path)]) == 0
        assert "continuity rule" in capsys.readouterr().out

    def test_zero_frequency_rejected(self, material_file, capsys):
        assert cli.main(["decompose", "--material", material_file, "--omega", "0.0"]) == 2

    def test_wave_parameter_table(self, material_file, capsys):
        assert cli.main(["decompose", "--material", material_file, "--omega", "1.0,2.0"]) == 0
        out = capsys.readouterr().out
        assert f"{1.0 / math.sqrt(3.0):.10g}"[:8] in out

    @pytest.mark.parametrize("omega", ["1e6,abc", "1e6,-1", ""])
    def test_bad_omega_prints_nothing(self, material_file, capsys, omega):
        assert cli.main(["decompose", "--material", material_file, "--omega", omega]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "omega" in captured.err

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_repeated_omega_is_rejected(self, material_file, tmp_path, capsys, command):
        report = tmp_path / "report.json"
        args = ["--report", str(report)] if command == "verify" else []
        assert cli.main([command, "--material", material_file, "--omega", "1e6,2e6,1e6",
                         *args]) == 2
        assert capsys.readouterr() == ("", "error: omega 1000000.0 is repeated\n")
        assert not report.exists()

    def test_overflowing_wavenumber_prints_nothing(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(OVERFLOW_MATERIAL))
        assert cli.main(["decompose", "--material", str(path), "--omega", "1,1e308"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: wavenumbers ")


class TestVerify:
    def test_default_suite_exits_zero(self, material_file, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        code = cli.main(["verify", "--material", material_file,
                         "--omega", "1.0,10.0", "--report", report_path])
        assert code == 0
        report = json.load(open(report_path))
        assert report["all_passed"] is True
        assert report["omega"] == [1.0, 10.0]
        assert {c["name"] for c in report["checks"]} == set(cli.SUITES)
        skipped = [c for c in report["checks"] if c["status"] == "skipped"]
        assert {c["name"] for c in skipped} == {"decoupling"}  # R3 != 0

    def test_decoupling_suite_runs_at_r3_zero(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema_version": 1, "c44": 2.0, "R3": 0.0,
                                    "K2": 1.0, "rho": 1.0}))
        report_path = str(tmp_path / "report.json")
        code = cli.main(["verify", "--material", str(path), "--suite", "decoupling",
                         "--report", report_path])
        assert code == 0
        report = json.load(open(report_path))
        assert report["checks"][0]["status"] == "pass"

    def test_broken_material_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "c44": 1.0, "R3": 2.0,
                                    "K2": 1.0, "rho": 1.0}))
        assert cli.main(["verify", "--material", str(path)]) == 2

    def test_unknown_suite_rejected(self, material_file):
        assert cli.main(["verify", "--material", material_file,
                         "--suite", "nonsense"]) == 2

    def test_failed_check_exits_four(self, material_file, monkeypatch):
        def failing(m, omega, rng):
            return {"name": "reciprocity", "status": "fail"}

        monkeypatch.setitem(verify.SUITES, "reciprocity", failing)
        code = cli.main(["verify", "--material", material_file,
                         "--suite", "reciprocity"])
        assert code == 4

    def test_high_frequency_passes(self, material_file):
        # probe radii scale with 1/k, so the coincidence floor must scale too
        assert cli.main(["verify", "--material", material_file, "--omega", "1e9,1e20"]) == 0

    @pytest.mark.filterwarnings("error")
    def test_extreme_frequency_passes(self, material_file):
        # rho omega^2 v overflows its norm from omega ~ 1e99 unless divided out
        assert cli.main(["verify", "--material", material_file, "--omega", "1e99,1e200"]) == 0

    def test_negative_seed_is_validation_error(self, material_file, capsys):
        assert cli.main(["verify", "--material", material_file, "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_empty_suite_list_is_parse_error(self, material_file, capsys):
        assert cli.main(["verify", "--material", material_file, "--suite", ","]) == 2
        assert "suite" in capsys.readouterr().err

    def test_seed_recorded_and_deterministic(self, material_file, tmp_path):
        paths = [str(tmp_path / f"r{i}.json") for i in range(2)]
        for p in paths:
            cli.main(["verify", "--material", material_file, "--suite",
                      "reciprocity,dirac-flux", "--seed", "123", "--report", p])
        a, b = (json.load(open(p)) for p in paths)
        assert a == b
        assert a["seed"] == 123

    def test_repeated_suite_is_rejected(self, material_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert cli.main(["verify", "--material", material_file, "--suite",
                         "reciprocity,decoupling,reciprocity", "--report", str(report)]) == 2
        assert capsys.readouterr() == ("", "error: suite 'reciprocity' is repeated\n")
        assert not report.exists()

    def test_unknown_suite_is_named_before_a_bad_seed(self, material_file, capsys):
        assert cli.main(["verify", "--material", material_file, "--suite",
                         "reciprocity,nonsense", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: unknown suite 'nonsense'; choose from "
                                     f"{tuple(verify.SUITES)}\n")

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    @pytest.mark.parametrize("omega", ["1,1", "0", "2,-1", "-0.0", "1,1e308", "1e308,1e308"])
    def test_frequency_errors_are_the_library_errors(self, tmp_path, capsys, command, omega):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(OVERFLOW_MATERIAL))
        with pytest.raises(QcError) as library:
            next(verify.run(load_material(path), [float(w) for w in omega.split(",")]))
        code = 2 if isinstance(library.value, ValidationError) else 3
        assert cli.main([command, "--material", str(path), "--omega", omega]) == code
        assert capsys.readouterr() == ("", f"error: {library.value}\n")

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("r3", [None, 0.0])  # the demo material and its R3 = 0 copy
    def test_record_does_not_depend_on_the_suite_list(self, tmp_path, seed, r3):
        doc = json.loads((Path(__file__).parent.parent / "demos" / "material.json").read_text())
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc if r3 is None else {**doc, "R3": r3}))

        def checks(names):
            report = tmp_path / "r.json"
            cli.main(["verify", "--material", str(path), "--omega", "1e4,1e6",
                      "--suite", ",".join(names), "--seed", str(seed), "--report", str(report)])
            return json.loads(report.read_text())["checks"]

        full = checks(verify.SUITES)
        by_key = {(c["name"], c["omega"]): c for c in full}
        reverse = {(c["name"], c["omega"]): c for c in checks(reversed(verify.SUITES))}
        assert reverse == by_key
        for name in verify.SUITES:
            for check in checks([name]):
                assert check == by_key[(name, check["omega"])]
        assert list(verify.run(load_material(path), [1e4, 1e6], tuple(verify.SUITES), seed)) \
            == full


BAD_VERSIONS = pytest.mark.parametrize("version", [99, True, 1.0, "1"],
                                       ids=["99", "true", "1.0", "string"])


class TestScenarioParsing:
    @BAD_VERSIONS
    def test_unsupported_schema_version(self, tmp_path, material_file, capsys, version):
        doc = fundamental_scenario()
        doc["schema_version"] = version
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "x.csv"
        assert cli.main(["sample", "--material", material_file, "--scenario", path,
                         "--out", str(out)]) == 2
        assert "schema_version" in capsys.readouterr().err
        assert not out.exists()

    @BAD_VERSIONS
    def test_unsupported_material_schema_version(self, tmp_path, capsys, version):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**MATERIAL, "schema_version": version}))
        scenario_path = write_scenario(tmp_path, fundamental_scenario(2, 2))
        out = tmp_path / "x.csv"
        assert cli.main(["sample", "--material", str(path), "--scenario", scenario_path,
                         "--out", str(out)]) == 2
        assert "schema_version" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_and_points_are_exclusive(self):
        doc = fundamental_scenario()
        doc["points"] = [[1.0, 1.0]]
        with pytest.raises(ParseError, match="exactly one of 'grid' or 'points' is required"):
            parse_scenario(doc)

    def test_round_trip_identity(self):
        doc = {
            "schema_version": 1,
            "kind": "green-half",
            "omega": 5.5,
            "source": [0.25, -1.5],
            "grid": {"x1": [-1.0, 1.0, 7], "x2": [-3.0, 0.0, 5]},
            "outputs": ["displacement"],
        }
        s = parse_scenario(doc)
        assert parse_scenario(scenario_to_dict(s)) == s

    def test_run_scenario_counts_rows(self, tmp_path):
        m = QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=1.0)
        s = Scenario(kind="green-half", omega=2.0, source=(0.0, -1.0),
                     points=((0.5, -0.5), (1.0, 0.0)))
        out = tmp_path / "g.csv"
        assert run_scenario(s, m, str(out)) == 2
        g = green_displacement(m, (0.5, -0.5), (0.0, -1.0), 2.0)
        first = [float(t) for t in open(out).read().splitlines()[1].split(",")]
        assert first[2] == g[0, 0].real and first[3] == g[0, 0].imag


def test_material_file_errors(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"schema_version": 1, "c44": "big", "R3": 0.1,
                                "K2": 1.0, "rho": 1.0}))
    with pytest.raises(ParseError, match="key 'c44' must be a number; got 'big'"):
        load_material(str(path))
    path.write_text(json.dumps({"schema_version": 1}))
    with pytest.raises(ParseError, match="missing required key 'c44'"):
        load_material(str(path))


def freefield_scenario():
    return {
        "schema_version": 1,
        "kind": "freefield-half",
        "omega": 2.0,
        "wave": {"mode": "S1", "amplitude": [1.0, 0.0], "phi": 0.6},
        "points": [[0.5, -1.0], [1.0, 0.0]],
        "outputs": ["displacement", "traction"],
        "normal": [0.0, 1.0],
    }


def _edit(doc, **changes):
    """doc with the given keys replaced; a None value removes the key."""
    return {k: v for k, v in {**doc, **changes}.items() if v is not None}


# (case, scenario document, field the error message must name)
INVALID_SCENARIOS = [
    ("omega-1e400", _edit(fundamental_scenario(3, 3), omega="1e400"), "omega"),
    ("nan-point", _edit(fundamental_scenario(), grid=None, points=[[math.nan, 1.0]]),
     "points"),
    ("inf-point", _edit(freefield_scenario(), points=[[0.0, -math.inf]]), "points"),
    ("nan-source", _edit(fundamental_scenario(3, 3), source=[0.0, math.nan]), "source"),
    ("overflowing-grid",
     _edit(freefield_scenario(), kind="freefield-full", points=None,
           grid={"x1": [-1e308, 1e308, 3], "x2": [0.0, 1.0, 2]}), "grid"),
    ("non-unit-normal-fundamental",
     _edit(fundamental_scenario(3, 3), outputs=["displacement", "traction"],
           normal=[0.0, 2.0]), "normal"),
    ("non-unit-normal-freefield-half", _edit(freefield_scenario(), normal=[0.6, 0.6]),
     "normal"),
    ("outputs-number", _edit(fundamental_scenario(3, 3), outputs=5), "outputs"),
    ("outputs-string", _edit(fundamental_scenario(3, 3), outputs="displacement"), "outputs"),
    ("unknown-key", _edit(fundamental_scenario(3, 3), output=["traction"]), "'output'"),
    ("wave-on-point-source",
     _edit(fundamental_scenario(3, 3), wave={"mode": "S9", "amplitude": [1.0, 0.0], "phi": 0.6}),
     "'wave'"),
    ("source-on-freefield", _edit(freefield_scenario(), source=[0.0, -1.0]), "'source'"),
    ("unknown-wave-key",
     _edit(freefield_scenario(), wave={"mode": "S1", "amplitude": [1.0, 0.0], "phi": 0.6,
                                       "k": 2.0}), "'k'"),
    ("grid-x3", _edit(fundamental_scenario(3, 3),
                      grid={"x1": [0.1, 5.0, 3], "x2": [0.1, 5.0, 3], "x3": [0.0, 1.0, 2]}),
     "'x3'"),
    ("repeated-output", _edit(freefield_scenario(), outputs=["traction", "traction"]),
     "'traction'"),
    # a nested key is named with its part, once
    ("wave-amplitude-not-a-number",
     _edit(freefield_scenario(), wave={"mode": "S1", "amplitude": ["a", 0.0], "phi": 0.6}),
     ".wave: key 'amplitude' must be a number; got 'a'"),
    ("grid-bound-not-finite",
     _edit(fundamental_scenario(3, 3), grid={"x1": ["1e400", 5.0, 3], "x2": [0.1, 5.0, 3]}),
     ".grid: key 'x1' must be finite; got inf"),
    # defects after the first block of points, each named by its full message:
    # x1 = 0 + 3 * (MAX / 3) overflows to inf on the last of four x1 rows
    ("non-finite-point-in-fourth-block",
     _edit(fundamental_scenario(), grid={"x1": [0.0, sys.float_info.max, 4],
                                         "x2": [-1.0, 0.0, scenario._BLOCK_ROWS]}),
     "grid: point [inf, -1.0] is not finite"),
    ("grid-point-above-boundary-in-second-block",  # x2 = -2000, -1999, ..., 1
     _edit(freefield_scenario(), points=None,
           grid={"x1": [0.5, 0.5, 1], "x2": [-2000.0, 1.0, 2002]}),
     "field point (0.5, 1.0) must have x2 <= 0"),
    ("listed-point-above-boundary-in-second-block",
     _edit(freefield_scenario(), points=[[0.0, -1.0]] * (scenario._BLOCK_ROWS + 3) + [[2.0, 0.5]]),
     "field point (2.0, 0.5) must have x2 <= 0"),
]


def _wave(**changes):
    """freefield_scenario() with the given keys of its wave replaced or (None) removed."""
    doc = freefield_scenario()
    return _edit(doc, wave=_edit(doc["wave"], **changes))


def _grid(**changes):
    """fundamental_scenario(3, 3) with the given keys of its grid replaced or (None) removed."""
    doc = fundamental_scenario(3, 3)
    return _edit(doc, grid=_edit(doc["grid"], **changes))


# (case, document name, a document with one defect, its error type, its full message);
# F stands for the file
DOCUMENT_MESSAGES = [
    ("scenario-not-an-object", "scenario", [1.0], ParseError,
     "scenario file F: expected a JSON object"),
    ("no-schema-version", "scenario", _edit(fundamental_scenario(3, 3), schema_version=None),
     ParseError, "scenario file F: missing required key 'schema_version'"),
    ("schema-version-2", "scenario", _edit(fundamental_scenario(3, 3), schema_version=2),
     ParseError, "scenario file F: unsupported schema_version 2 (expected 1)"),
    ("no-kind", "scenario", _edit(fundamental_scenario(3, 3), kind=None), ParseError,
     "scenario file F: missing required key 'kind'"),
    ("unknown-kind", "scenario", _edit(fundamental_scenario(3, 3), kind="point"), ParseError,
     "scenario file F: kind must be one of ('fundamental', 'green-half', 'freefield-full', "
     "'freefield-half'); got 'point'"),
    ("no-omega", "scenario", _edit(fundamental_scenario(3, 3), omega=None), ParseError,
     "scenario file F: missing required key 'omega'"),
    ("omega-string", "scenario", _edit(fundamental_scenario(3, 3), omega="2"), ParseError,
     "scenario file F: key 'omega' must be a number; got '2'"),
    ("omega-bool", "scenario", _edit(fundamental_scenario(3, 3), omega=True), ParseError,
     "scenario file F: key 'omega' must be a number; got True"),
    ("omega-inf", "scenario", _edit(fundamental_scenario(3, 3), omega=math.inf), ParseError,
     "scenario file F: key 'omega' must be finite; got inf"),
    ("omega-huge-int", "scenario", _edit(fundamental_scenario(3, 3), omega=10**400), ParseError,
     f"scenario file F: key 'omega' must be finite; got {10**400}"),
    ("unexpected-key", "scenario", _edit(fundamental_scenario(3, 3), output=["traction"]),
     ParseError, "scenario file F: unexpected key 'output'"),
    ("wave-on-point-source", "scenario", _edit(fundamental_scenario(3, 3), wave=_wave()["wave"]),
     ParseError, "scenario file F: unexpected key 'wave'"),
    ("source-on-freefield", "scenario", _edit(freefield_scenario(), source=[0.0, -1.0]),
     ParseError, "scenario file F: unexpected key 'source'"),
    ("no-source", "scenario", _edit(fundamental_scenario(3, 3), source=None), ParseError,
     "scenario file F: missing required key 'source'"),
    ("source-not-a-pair", "scenario", _edit(fundamental_scenario(3, 3), source=[0.0]),
     ParseError, "scenario file F: key 'source' must be a pair [x1, x2]"),
    ("source-not-a-number", "scenario", _edit(fundamental_scenario(3, 3), source=[0.0, "a"]),
     ParseError, "scenario file F: key 'source' must be a number; got 'a'"),
    ("no-wave", "scenario", _edit(freefield_scenario(), wave=None), ParseError,
     "scenario file F: missing required key 'wave'"),
    ("wave-not-an-object", "scenario", _edit(freefield_scenario(), wave="S1"), ParseError,
     "scenario file F: key 'wave' must be an object"),
    ("wave-no-mode", "scenario", _wave(mode=None), ParseError,
     "scenario file F.wave: missing required key 'mode'"),
    ("wave-unexpected-key", "scenario", _wave(k=2.0), ParseError,
     "scenario file F.wave: unexpected key 'k'"),
    ("amplitude-not-a-pair", "scenario", _wave(amplitude=[1.0]), ParseError,
     "scenario file F.wave: amplitude must be [re, im]"),
    ("amplitude-not-a-number", "scenario", _wave(amplitude=["a", 0.0]), ParseError,
     "scenario file F.wave: key 'amplitude' must be a number; got 'a'"),
    ("amplitude-nan", "scenario", _wave(amplitude=[0.0, math.nan]), ParseError,
     "scenario file F.wave: key 'amplitude' must be finite; got nan"),
    ("phi-not-a-number", "scenario", _wave(phi="a"), ParseError,
     "scenario file F.wave: key 'phi' must be a number; got 'a'"),
    ("unknown-mode", "scenario", _wave(mode="S9"), ValidationError,
     "scenario file F.wave: mode must be one of ('S1', 'S2'); got 'S9'"),
    ("phi-out-of-range", "scenario", _wave(phi=2.0), ValidationError,
     "scenario file F.wave: incidence angle must lie strictly inside (0, pi/2); got 2.0"),
    ("grid-not-an-object", "scenario", _edit(fundamental_scenario(3, 3), grid=[1.0]), ParseError,
     "scenario file F: key 'grid' must be an object"),
    ("grid-no-x2", "scenario", _grid(x2=None), ParseError,
     "scenario file F.grid: missing required key 'x2'"),
    ("grid-unexpected-key", "scenario", _grid(x3=[0.0, 1.0, 2]), ParseError,
     "scenario file F.grid: unexpected key 'x3'"),
    ("axis-not-a-triple", "scenario", _grid(x1=[0.0, 1.0]), ParseError,
     "scenario file F.grid: x1 must be [min, max, count]"),
    ("axis-bound-not-a-number", "scenario", _grid(x1=["a", 1.0, 3]), ParseError,
     "scenario file F.grid: key 'x1' must be a number; got 'a'"),
    ("axis-bound-inf", "scenario", _grid(x2=[0.0, math.inf, 3]), ParseError,
     "scenario file F.grid: key 'x2' must be finite; got inf"),
    ("axis-count-float", "scenario", _grid(x1=[0.0, 1.0, 3.0]), ParseError,
     "scenario file F.grid: x1 count must be an integer"),
    ("axis-count-bool", "scenario", _grid(x2=[0.0, 1.0, True]), ParseError,
     "scenario file F.grid: x2 count must be an integer"),
    ("points-empty", "scenario", _edit(freefield_scenario(), points=[]), ParseError,
     "scenario file F: key 'points' must be a non-empty list of pairs"),
    ("point-not-a-pair", "scenario", _edit(freefield_scenario(), points=[[1.0]]), ParseError,
     "scenario file F: key 'points' must be a pair [x1, x2]"),
    ("point-nan", "scenario", _edit(freefield_scenario(), points=[[math.nan, -1.0]]), ParseError,
     "scenario file F: key 'points' must be finite; got nan"),
    ("grid-and-points", "scenario", _edit(fundamental_scenario(3, 3), points=[[1.0, 1.0]]),
     ParseError, "scenario file F: exactly one of 'grid' or 'points' is required"),
    ("null-grid-and-points", "scenario", {**freefield_scenario(), "grid": None},
     ParseError, "scenario file F: exactly one of 'grid' or 'points' is required"),
    ("neither-grid-nor-points", "scenario", _edit(fundamental_scenario(3, 3), grid=None),
     ParseError, "scenario file F: exactly one of 'grid' or 'points' is required"),
    ("outputs-not-a-list", "scenario", _edit(fundamental_scenario(3, 3), outputs=5), ParseError,
     "scenario file F: key 'outputs' must be a list of strings; got 5"),
    ("unknown-output", "scenario", _edit(fundamental_scenario(3, 3), outputs=["stress"]),
     ParseError, "scenario file F: unknown output 'stress'"),
    ("repeated-output", "scenario", _edit(freefield_scenario(), outputs=["traction"] * 2),
     ParseError, "scenario file F: output 'traction' is repeated"),
    ("empty-outputs", "scenario", _edit(fundamental_scenario(3, 3), outputs=[]), ParseError,
     "scenario file F: outputs must not be empty"),
    ("normal-not-a-pair", "scenario", _edit(freefield_scenario(), normal=[0.0, 1.0, 0.0]),
     ParseError, "scenario file F: key 'normal' must be a pair [x1, x2]"),
    ("material-not-an-object", "material", "c44", ParseError,
     "material file F: expected a JSON object"),
    ("material-no-schema-version", "material", _edit(MATERIAL, schema_version=None), ParseError,
     "material file F: missing required key 'schema_version'"),
    ("material-schema-version-string", "material", _edit(MATERIAL, schema_version="1"),
     ParseError, "material file F: unsupported schema_version '1' (expected 1)"),
    ("material-no-rho", "material", _edit(MATERIAL, rho=None), ParseError,
     "material file F: missing required key 'rho'"),
    ("material-not-a-number", "material", _edit(MATERIAL, c44="big"), ParseError,
     "material file F: key 'c44' must be a number; got 'big'"),
    ("material-inf", "material", _edit(MATERIAL, K2=-math.inf), ParseError,
     "material file F: key 'K2' must be finite; got -inf"),
]


class TestInputBoundary:
    """Non-finite or malformed input exits 2 at validation and writes nothing."""

    @pytest.mark.parametrize("doc, field", [case[1:] for case in INVALID_SCENARIOS],
                             ids=[case[0] for case in INVALID_SCENARIOS])
    def test_invalid_scenario(self, tmp_path, material_file, capsys, doc, field):
        # "1e400" stands for the JSON number literal, which parses to inf
        text = json.dumps(doc).replace('"1e400"', "1e400")
        path = tmp_path / "scenario.json"
        path.write_text(text)
        out = tmp_path / "field.csv"
        code = cli.main(["sample", "--material", material_file, "--scenario", str(path),
                         "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert field in capsys.readouterr().err.replace(str(path), "")

    @pytest.mark.parametrize("name, doc, error, message", [case[1:] for case in DOCUMENT_MESSAGES],
                             ids=[case[0] for case in DOCUMENT_MESSAGES])
    def test_document_message(self, tmp_path, name, doc, error, message):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(QcError) as info:
            (load_scenario if name == "scenario" else load_material)(str(path))
        assert type(info.value) is error
        assert str(info.value).replace(str(path), "F") == message

    @pytest.mark.parametrize("name, doc, entry, repeat", [
        ("material", MATERIAL, '"rho": 1.0', '"rho": 3.0'),
        ("scenario", fundamental_scenario(3, 3), '"omega": 2.0', '"omega": 4.0'),
        ("scenario", freefield_scenario(), '"phi": 0.6', '"phi": 0.7'),
        ("scenario", fundamental_scenario(3, 3), '"x1": [0.1, 5.0, 3]', '"x1": [0.1, 5.0, 4]'),
    ], ids=["rho", "omega", "wave.phi", "grid.x1"])
    def test_repeated_key(self, tmp_path, capsys, name, doc, entry, repeat):
        # json.load keeps the last of two equal keys; qcwaves rejects the document
        paths = {"material": tmp_path / "material.json", "scenario": tmp_path / "scenario.json"}
        paths["material"].write_text(json.dumps(MATERIAL))
        paths["scenario"].write_text(json.dumps(fundamental_scenario(3, 3)))
        text = json.dumps(doc)
        assert text.count(entry) == 1
        paths[name].write_text(text.replace(entry, f"{entry}, {repeat}"))
        out = tmp_path / "field.csv"
        assert cli.main(["sample", "--material", str(paths["material"]), "--scenario",
                         str(paths["scenario"]), "--out", str(out)]) == 2
        key = entry.split(":")[0].strip('"')
        assert capsys.readouterr().err == (f"error: {name} file {paths[name]}: "
                                           f"key {key!r} is repeated\n")
        assert not out.exists() and not (tmp_path / "field.csv.meta.json").exists()

    def test_infinite_modulus(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**MATERIAL, "c44": math.inf}))
        scenario = write_scenario(tmp_path, fundamental_scenario(3, 3))
        out = tmp_path / "field.csv"
        assert cli.main(["sample", "--material", str(path), "--scenario", scenario,
                         "--out", str(out)]) == 2
        assert not out.exists()
        assert "c44" in capsys.readouterr().err.replace(str(path), "")
        assert cli.main(["verify", "--material", str(path)]) == 2

    @pytest.mark.parametrize("n1, n2", [(10**20, 2), (11, 909091)], ids=["1e20", "max-plus-one"])
    def test_grid_beyond_max_points(self, tmp_path, material_file, capsys, n1, n2):
        # rejected before any point array is allocated; 11 * 909091 = 10**7 + 1
        doc = _edit(freefield_scenario(), points=None,
                    grid={"x1": [-1.0, 1.0, n1], "x2": [-1.0, 0.0, n2]})
        out = tmp_path / "field.csv"
        assert cli.main(["sample", "--material", material_file,
                         "--scenario", write_scenario(tmp_path, doc), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "grid" in err and str(n1 * n2) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "decompose"])
    def test_infinite_omega_argument(self, material_file, capsys, command):
        assert cli.main([command, "--material", material_file, "--omega", "1.0,inf"]) == 2
        assert "omega" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_evaluation_is_evaluation_error(self, tmp_path, material_file):
        # finite input, but amplitude * k overflows in the traction
        doc = _edit(freefield_scenario(), kind="freefield-full", omega=1e308,
                    wave={"mode": "S1", "amplitude": [1e6, 0.0], "phi": 0.6})
        out = tmp_path / "field.csv"
        assert cli.main(["sample", "--material", material_file,
                         "--scenario", write_scenario(tmp_path, doc), "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing-dir", "directory", "sidecar-directory"])
    def test_unwritable_sample_output_is_validation_error(self, tmp_path, material_file,
                                                          capsys, where):
        out = tmp_path / "missing" / "field.csv" if where == "missing-dir" else tmp_path / "out"
        if where == "directory":
            out.mkdir()
        if where == "sidecar-directory":
            (tmp_path / "out.meta.json").mkdir()
        assert cli.main(["sample", "--material", material_file, "--scenario",
                         write_scenario(tmp_path, fundamental_scenario(3, 3)),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err

    def test_unwritable_verify_report_is_validation_error(self, tmp_path, material_file, capsys):
        report = tmp_path / "missing" / "report.json"
        assert cli.main(["verify", "--material", material_file, "--suite", "reciprocity",
                         "--report", str(report)]) == 2
        assert f"error: cannot write {report}: " in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-dir", "directory", "sidecar-directory", "empty",
                                       "name-too-long", "sidecar-name-too-long", "symlink-loop"])
    def test_unwritable_sample_output_fails_before_evaluation(self, tmp_path, material_file,
                                                              monkeypatch, capsys, where):
        monkeypatch.setattr(scenario, "validate_scenario", lambda *args: pytest.fail("validated"))
        monkeypatch.setattr(scenario, "sample_rows", lambda *args: pytest.fail("grid evaluated"))
        paths = {"missing-dir": tmp_path / "missing" / "field.csv", "empty": "",
                 "name-too-long": tmp_path / ("f" * 256 + ".csv"),
                 "sidecar-name-too-long": tmp_path / ("f" * 250 + ".csv")}  # 264-byte sidecar
        out = paths.get(where, tmp_path / "out")
        if where == "directory":
            out.mkdir()
        if where == "sidecar-directory":
            (tmp_path / "out.meta.json").mkdir()
        if where == "symlink-loop":
            out.symlink_to(out.name)
        assert cli.main(["sample", "--material", material_file, "--scenario",
                         write_scenario(tmp_path, fundamental_scenario(3, 3)),
                         "--out", str(out)]) == 2
        unwritable = f"{out}.meta.json" if where.startswith("sidecar-") else out
        assert f"error: cannot write {unwritable}: " in capsys.readouterr().err
        assert not os.path.isfile(out)  # the check removed the CSV it created

    @pytest.mark.parametrize("where", ["missing-dir", "directory", "name-too-long",
                                       "symlink-loop"])
    def test_unwritable_verify_report_fails_before_any_suite(self, tmp_path, material_file,
                                                             capsys, where):
        reports = {"missing-dir": tmp_path / "missing" / "report.json", "directory": tmp_path,
                   "name-too-long": tmp_path / ("r" * 300 + ".json")}
        report = reports.get(where, tmp_path / "loop.json")
        if where == "symlink-loop":
            report.symlink_to(report.name)
        assert cli.main(["verify", "--material", material_file, "--suite", "reciprocity",
                         "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # not one suite ran
        reason = {"missing-dir": "No such file or directory", "directory": "Is a directory",
                  "name-too-long": "File name too long",
                  "symlink-loop": "Too many levels of symbolic links"}[where]
        assert f"error: cannot write {report}: {reason}" in err

    @pytest.mark.parametrize("command", ["sample", "verify"])
    @pytest.mark.parametrize("where", ["existing", "new", "dangling-symlink"])
    def test_output_check_leaves_no_trace(self, tmp_path, command, where):
        bad = tmp_path / "bad.json"  # coupling too strong: exit 2 after the output check
        bad.write_text(json.dumps({**MATERIAL, "R3": 3.0}))
        out, target = tmp_path / "out", tmp_path / "target"
        if where == "existing":
            out.write_bytes(b"an earlier run\n")
        if where == "dangling-symlink":
            out.symlink_to(target)
        args = (["--scenario", write_scenario(tmp_path, fundamental_scenario(3, 3)),
                 "--out", str(out)] if command == "sample" else ["--report", str(out)])
        assert cli.main([command, "--material", str(bad), *args]) == 2
        if where == "existing":
            assert out.read_bytes() == b"an earlier run\n"
        else:
            assert out.is_symlink() == (where == "dangling-symlink") and not out.exists()
        assert not target.exists() and not (tmp_path / "out.meta.json").exists()

    def test_overflowing_phase_names_its_point(self, tmp_path, material_file, capsys):
        # k * t leaves the float range at the third point only
        doc = _edit(freefield_scenario(), kind="freefield-full", omega=1e10,
                    points=[[0.5, -1.0], [1.0, 0.0], [1e300, 2.0], [1.0, 1.0]])
        out = tmp_path / "field.csv"
        assert cli.main(["sample", "--material", material_file,
                         "--scenario", write_scenario(tmp_path, doc), "--out", str(out)]) == 3
        assert not out.exists()
        assert "[1e+300, 2.0]" in capsys.readouterr().err


class TestOutOfMemory:
    """Running out of memory exits 3 with one error line and leaves no output."""

    @staticmethod
    def _fail_second_block(format_block):
        calls = []

        def failing(block):
            calls.append(len(block))
            if len(calls) == 2:  # the CSV is open and holds the first block
                raise MemoryError("Unable to allocate 72.0 KiB for an array")
            return format_block(block)

        return failing

    @pytest.mark.parametrize("where", ["sample_rows", "_format_block"])
    def test_memory_error_exits_three_and_leaves_no_output(self, tmp_path, material_file,
                                                           monkeypatch, capsys, where):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 1.34 GiB for an array")

        patch = (no_memory if where == "sample_rows"
                 else self._fail_second_block(scenario._format_block))
        monkeypatch.setattr(scenario, where, patch)
        out = tmp_path / "field.csv"
        assert scenario._BLOCK_ROWS < 40 * 40
        assert cli.main(["sample", "--material", material_file, "--scenario",
                         write_scenario(tmp_path, fundamental_scenario(40, 40)),
                         "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: Unable to allocate ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out.exists() and not (tmp_path / "field.csv.meta.json").exists()

    def test_bare_memory_error_message(self, tmp_path, material_file, monkeypatch, capsys):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(scenario, "sample_rows", no_memory)
        assert cli.main(["sample", "--material", material_file, "--scenario",
                         write_scenario(tmp_path, fundamental_scenario(3, 3)),
                         "--out", str(tmp_path / "field.csv")]) == 3
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_failed_sidecar_removes_the_csv(self, tmp_path, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(scenario, "_write_json", no_memory)
        m = QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=1.0)
        s = Scenario(kind="fundamental", omega=2.0, source=(0.0, 0.0), points=((1.0, 0.5),))
        out = tmp_path / "f.csv"
        with pytest.raises(MemoryError):
            run_scenario(s, m, str(out), str(tmp_path / "f.csv.meta.json"))
        assert list(tmp_path.iterdir()) == []
