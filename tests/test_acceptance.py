"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion asserts its stated tolerance and runtime budget.
"""

import json
import math
import time

import numpy as np

import qcwaves.cli as cli
from qcwaves import (
    IncidentWave,
    QcMaterial,
    decompose,
    dirac_flux,
    freefield_traction,
    fundamental_displacement,
    fundamental_gradient,
    fundamental_traction,
    green_displacement,
    green_traction,
    macdonald_k0_neg_i,
    mode_vector,
    pde_residual,
    wave_parameters,
)
from qcwaves.scenario import load_material, load_scenario, scenario_points

from oracles import oracle_j0, oracle_j1, oracle_y0, oracle_y1
from strategies import omega_at, random_material
from test_material import rotation, scaled
from test_freefield import dispersion_residual
from test_kernels import fd_error

import qcwaves.specfun as specfun

DEMO_DIR = "demos"


def _report(num, name, ok, elapsed, limit, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d} {name}: {detail} "
          f"({elapsed:.2f} s, limit {limit:g} s)")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_spectral_reconstruction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        m = random_material(rng)
        d = decompose(m)
        q = rotation(d)
        c, a1, a2 = scaled(m, d)
        err = np.linalg.norm(q @ np.diag([a1, a2]) @ q.T - c)
        worst = max(worst, err / np.linalg.norm(c))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report(1, "spectral reconstruction", ok, elapsed, 1.0,
            f"max rel Frobenius err {worst:.2e} over 1000 materials (tol 1e-12)")


def test_criterion_02_special_function_oracle():
    t0 = time.perf_counter()
    def j0(x):
        return specfun.hankel1_0(x).real

    def j1(x):
        return specfun.hankel1_1(x).real

    def y0(x):
        return specfun.hankel1_0(x).imag

    def y1(x):
        return specfun.hankel1_1(x).imag

    pairs = (
        (j0, oracle_j0),
        (j1, oracle_j1),
        (y0, oracle_y0),
        (y1, oracle_y1),
    )
    worst = 0.0
    for fn, oracle in pairs:
        for k in range(1, 201):
            x = 0.06 * k
            ref = oracle(x)
            worst = max(worst, abs(fn(x) - ref) / abs(ref))
    worst_wronskian = 0.0
    for x in (0.1, 1.0, 10.0, 50.0):
        w = j1(x) * y0(x) - j0(x) * y1(x)
        worst_wronskian = max(worst_wronskian, abs(w - 2.0 / (math.pi * x)) * math.pi * x / 2.0)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and worst_wronskian < 1e-9 and elapsed < 1.0
    _report(2, "special-function oracle equivalence", ok, elapsed, 1.0,
            f"grid max rel err {worst:.2e} (tol 1e-10), "
            f"Wronskian {worst_wronskian:.2e} (tol 1e-9)")


def test_criterion_03_kernel_pde_residual():
    # materials of tests/strategies.py at k2 from 1e-3 to 1e3; each mode's row of a
    # load column is probed at radii scaled by that mode's wavenumber
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    xi = (0.0, 0.0)
    worst = 0.0
    for _ in range(10):
        m = random_material(rng)
        omega = omega_at(m, 10.0 ** rng.uniform(-3.0, 3.0))
        wp = wave_parameters(decompose(m), m.rho, omega)
        for kr in np.geomspace(0.5, 20.0, 20):
            for mode, k in (("S1", wp.k1), ("S2", wp.k2)):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                col = int(rng.integers(0, 2))
                at = (kr / k * math.cos(theta), kr / k * math.sin(theta))
                worst = max(worst, pde_residual(
                    lambda p, col=col: fundamental_displacement(m, p, xi, omega)[:, col],
                    m, omega, at, mode,
                ))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 5.0
    _report(3, "kernel PDE residual", ok, elapsed, 5.0,
            f"max rel residual {worst:.2e} over 10 materials x 20 radii x 2 modes (tol 1e-4)")


def test_criterion_04_dirac_normalization():
    t0 = time.perf_counter()
    materials = (
        QcMaterial(c44=4.0, R3=1.2, K2=2.5, rho=2.0),
        QcMaterial(c44=4.2e10, R3=1.2e9, K2=2.4e10, rho=4186.0),
    )
    worst = 0.0
    monotone = True
    for m, omega in zip(materials, (3.0, 2.0 * math.pi * 1e6)):
        wp = wave_parameters(decompose(m), m.rho, omega)
        eps = 1e-3 / wp.k2
        devs = [np.linalg.norm(dirac_flux(m, (0.1, -0.2), omega, eps / 2**i) + np.eye(2))
                for i in range(4)]
        worst = max(worst, devs[0])
        monotone = monotone and all(b < a for a, b in zip(devs, devs[1:]))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and monotone and elapsed < 2.0
    _report(4, "Dirac normalization", ok, elapsed, 2.0,
            f"flux deviation {worst:.2e} at eps=1e-3/k2 (tol 1e-3), "
            f"monotone under halving: {monotone}")


def test_criterion_05_reciprocity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        m = random_material(rng)
        omega = omega_at(m, 10.0 ** rng.uniform(-3.0, 3.0))
        wp = wave_parameters(decompose(m), m.rho, omega)
        lam = 2.0 * math.pi / wp.k2
        x = rng.uniform(-2.0 * lam, 2.0 * lam, size=2)
        offset = lam * rng.uniform(0.05, 1.5)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        xi = x + offset * np.array([math.cos(angle), math.sin(angle)])
        v = fundamental_displacement(m, x, xi, omega)
        v_swap = fundamental_displacement(m, xi, x, omega)
        scale = float(np.max(np.abs(v)))
        worst = max(worst, abs(v[0, 1] - v[1, 0]) / scale,
                    float(np.max(np.abs(v - v_swap))) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report(5, "reciprocity/symmetry", ok, elapsed, 1.0,
            f"max deviation {worst:.2e} over 100 configurations (tol 1e-12)")


def test_criterion_06_halfplane_boundary_condition():
    t0 = time.perf_counter()
    m = QcMaterial(c44=4.0, R3=1.2, K2=2.5, rho=2.0)
    rng = np.random.default_rng(106)
    normal = (0.0, 1.0)
    worst_green = 0.0
    worst_wave = 0.0
    for omega in (1.0, 3.0, 17.0):
        wp = wave_parameters(decompose(m), m.rho, omega)
        lam = 2.0 * math.pi / wp.k2
        for _ in range(10):
            xi = (rng.uniform(-lam, lam), -rng.uniform(0.05, 2.0) * lam)
            spread = 5.0 * max(lam, abs(xi[1]))
            for x1 in np.linspace(xi[0] - spread, xi[0] + spread, 50):
                x = (float(x1), 0.0)  # g* traction relative to one source's
                single = np.max(np.abs(fundamental_traction(m, x, xi, omega, normal)))
                green = np.max(np.abs(green_traction(m, x, xi, omega, normal)))
                worst_green = max(worst_green, float(green / single))
        x1 = np.linspace(-5.0 * lam, 5.0 * lam, 50)
        pts = np.column_stack([x1, np.zeros_like(x1)])
        for mode in ("S1", "S2"):
            wave = IncidentWave(mode=mode, amplitude=1.0, phi=rng.uniform(0.1, 1.4))
            half = freefield_traction(m, wave, omega, pts, normal, half_plane=True)
            incident = freefield_traction(m, wave, omega, pts, normal)
            ratios = np.max(np.abs(half), axis=1) / np.max(np.abs(incident), axis=1)
            worst_wave = max(worst_wave, float(np.max(ratios)))
    elapsed = time.perf_counter() - t0
    ok = worst_green < 1e-10 and worst_wave < 1e-13 and elapsed < 5.0
    _report(6, "half-plane traction-free boundary", ok, elapsed, 5.0,
            f"Green max {worst_green:.2e} (tol 1e-10), "
            f"free field max {worst_wave:.2e} (tol 1e-13)")


def test_criterion_07_decoupling_limit():
    t0 = time.perf_counter()
    m0 = QcMaterial(c44=2.0, R3=0.0, K2=1.0, rho=1.0)
    omega = 3.0
    wp = wave_parameters(decompose(m0), m0.rho, omega)
    lam = 2.0 * math.pi / wp.k2
    rng = np.random.default_rng(107)
    points = [(rng.uniform(-2, 2) * lam, rng.uniform(-2.0, -0.05) * lam)
              for _ in range(20)]
    xi = (0.0, -lam)

    def isotropic(r):  # closed uncoupled forms K0(-i k r) / (2 pi a), coded directly
        return np.array([macdonald_k0_neg_i(omega * math.sqrt(m0.rho / a) * r)
                         / (2.0 * math.pi * a) for a in (m0.c44, m0.K2)])

    worst = 0.0
    for x in points:
        direct = isotropic(math.hypot(x[0] - xi[0], x[1] - xi[1]))
        image = isotropic(math.hypot(x[0] - xi[0], x[1] + xi[1]))
        for kernel, diagonal in ((fundamental_displacement(m0, x, xi, omega), direct),
                                 (green_displacement(m0, x, xi, omega), direct + image)):
            error = np.abs(kernel - np.diag(diagonal)) / np.max(np.abs(diagonal))
            worst = max(worst, float(np.max(error)))
    x, xi = (1.3, 0.4), (0.0, 0.0)
    offdiag = []
    for r3 in (1e-2, 1e-4, 1e-6):
        m = QcMaterial(c44=2.0, R3=r3, K2=1.0, rho=1.0)
        v = fundamental_displacement(m, x, xi, omega)
        offdiag.append(abs(v[0, 1]))
    monotone = offdiag[0] > offdiag[1] > offdiag[2]
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and monotone and elapsed < 2.0
    _report(7, "decoupling limit", ok, elapsed, 2.0,
            f"closed-form max rel err {worst:.2e} (tol 1e-12), "
            f"off-diagonal decay {offdiag[0]:.1e} > {offdiag[1]:.1e} > {offdiag[2]:.1e}")


def test_criterion_08_freefield_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(10):
        m = random_material(rng)
        omega = omega_at(m, 10.0 ** rng.uniform(-3.0, 3.0))
        phi = rng.uniform(0.05, 1.5)
        x = rng.uniform(-3.0, 3.0, size=2)
        for mode in ("S1", "S2"):
            wave = IncidentWave(mode=mode, amplitude=1.0 + 0.3j, phi=phi)
            worst = max(worst, dispersion_residual(m, wave, omega, x))
    m = QcMaterial(c44=4.0, R3=1.2, K2=2.5, rho=2.0)
    s1, s2 = mode_vector(m, "S1"), mode_vector(m, "S2")
    phi_independent = all(
        mode_vector(m, "S1").tobytes() == s1.tobytes()
        and mode_vector(m, "S2").tobytes() == s2.tobytes()
        for _ in np.linspace(0.01, 1.55, 25)
    )
    orthonormal = (s1[0] * s2[0] + s1[1] * s2[1] == 0.0
                   and abs(s1 @ s1 - 1.0) < 1e-15 and abs(s2 @ s2 - 1.0) < 1e-15)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and phi_independent and orthonormal and elapsed < 1.0
    _report(8, "free-field exactness", ok, elapsed, 1.0,
            f"max dispersion residual {worst:.2e} (tol 1e-12), "
            f"phi-independent: {phi_independent}, orthonormal: {orthonormal}")


def test_criterion_09_gradient_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    xi = (0.2, -0.4)
    worst = 0.0
    for _ in range(20):
        m = random_material(rng)
        omega = omega_at(m, 10.0 ** rng.uniform(-3.0, 3.0))
        wp = wave_parameters(decompose(m), m.rho, omega)
        r = rng.uniform(0.3, 3.0) / wp.k2
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x = (xi[0] + r * math.cos(theta), xi[1] + r * math.sin(theta))
        grad = fundamental_gradient(m, x, xi, omega)
        h = r * 1e-6
        for j, e in enumerate(((h, 0.0), (0.0, h))):
            vp = fundamental_displacement(m, (x[0] + e[0], x[1] + e[1]), xi, omega)
            vm = fundamental_displacement(m, (x[0] - e[0], x[1] - e[1]), xi, omega)
            fd = (vp - vm) / (2.0 * h)
            worst = max(worst, float(np.max(fd_error(fd, grad[:, :, j]))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 2.0
    _report(9, "gradient consistency", ok, elapsed, 2.0,
            f"max rel deviation from central differences {worst:.2e} "
            f"over 20 configurations (tol 1e-5)")


def test_criterion_10_cli_end_to_end(tmp_path):
    t0 = time.perf_counter()
    material_path = f"{DEMO_DIR}/material.json"
    scenario_path = f"{DEMO_DIR}/scenario_fundamental.json"
    out = str(tmp_path / "demo.csv")
    assert cli.main(["sample", "--material", material_path,
                     "--scenario", scenario_path, "--out", out]) == 0

    m = load_material(material_path)
    s = load_scenario(scenario_path)
    lines = open(out).read().splitlines()[1:]
    points = np.concatenate(list(scenario_points(s)))
    bit_exact = len(lines) == len(points)
    for line, p in zip(lines, points):
        vals = [float(tok) for tok in line.split(",")]
        v = fundamental_displacement(m, p, s.source, s.omega)
        t = fundamental_traction(m, p, s.source, s.omega, s.normal)
        expect = [p[0], p[1]]
        for z in (v[0, 0], v[0, 1], v[1, 0], v[1, 1], t[0, 0], t[0, 1], t[1, 0], t[1, 1]):
            expect += [z.real, z.imag]
        if vals != expect:
            bit_exact = False
            break

    report_path = str(tmp_path / "report.json")
    verify_code = cli.main(["verify", "--material", material_path,
                            "--report", report_path])
    report = json.load(open(report_path))
    elapsed = time.perf_counter() - t0
    ok = bit_exact and verify_code == 0 and report["all_passed"] and elapsed < 10.0
    _report(10, "CLI end-to-end", ok, elapsed, 10.0,
            f"CSV bit-exact vs library: {bit_exact}, verify exit {verify_code}")
