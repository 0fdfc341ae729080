"""The defect matrix: which defect of the kernels and of the free fields the
``qcwaves verify`` record sees, and through which of its values.

Each row plants one defect in the kernels' view of the material, of the
cylinder functions or of the image source, or in the free fields' view (their
wavenumber, mode vector zeta, stress scale or reflected term), runs
``verify.run`` on the demo material and its R3 = 0 copy at omega = 1e3 and
1e6 rad/s, and pins the verdict of its ``dirac-flux`` records: FAIL if any of
them failed, else pass. The rows are the standing record of what the record can
detect; every planted defect fails it.

A ``dirac-flux`` record holds three values:

- the flux, read at one radius against a tolerance of 1.2e-10, sees the kernel
  scale and K1 at 1e-6 and Y_nu at 1e-9, of either sign; it cannot see k2, psi,
  a2 or K0, whose effects vanish at that radius, nor the J half of any kernel;
- the representation identity, u(xi) as a contour integral of v* t(u) - t* u
  with plane waves u from the free-field code, on circles of k r = 3.9, 6, 12
  and 40 for each mode and on a half-plane arc, sees k2, psi, a2, K0 and the
  free-field stress scale at 1e-9 (reading at least 2.5e-10, 480 times its
  tolerance), v*_21 != v*_12 at 1e-6 on the coupled material, a phase defect
  cos/sin(x (1 + 1e-7)) on the (16, inf) table piece (3.1e-7), and O(1) for a
  sign-flipped image term, a sign-flipped e2 in the kernel gradient and a
  sign-flipped or dropped reflected term. It is blind to the J half of the
  kernel, which is regular: its terms cancel;
- the radiated power (1 / 2i) 2 pi r (v*^H t* - t*^H v*) = C^-1 / 4 on the same
  circles sees the J half: J_nu x (1 +- 1e-9) reads 1.0e-9, J -> -J (the incoming
  kernel) 2.0, J -> 0 (a standing wave) 2.7, and J and Y_nu x (1 + 1e-6) on the
  (16, inf) piece 2.0e-6. It is blind to a phase common to J and Y, which the
  representation identity sees.

The retired ``pde-residual`` suite failed k2 and psi at 1e-3, the free-field k
at 1e-6 and 1e-3 and zeta at 1e-3, and psi at 1e-6 on ``COUPLED``; the record
fails each of them at 1e-9 or 1e-6.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import qcwaves.freefield as freefield
import qcwaves.halfplane as halfplane
import qcwaves.kernels as kernels
import qcwaves.specfun as specfun
from qcwaves import QcMaterial, verify
from qcwaves.scenario import load_material
from oracles import KERNEL_PDE_BOUND, helmholtz_residuals

DEMO = load_material(Path(__file__).resolve().parents[1] / "demos" / "material.json")
MATERIALS = (DEMO, dataclasses.replace(DEMO, R3=0.0))
COUPLED = QcMaterial(c44=1.0, R3=9900.0, K2=1e8, rho=1.0)  # coupling 0.99, a1 / a2 = 5e9
OMEGAS = (1e3, 1e6)


def wrap(module, name, change):
    """A defect: module.name returns change(result, *args) in place of its result."""
    def plant(monkeypatch):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: change(original(*args), *args))
    return plant


def k2_times(factor):
    return wrap(kernels, "wave_parameters",
                lambda wp, *args: dataclasses.replace(wp, k2=wp.k2 * factor))


def psi_plus(delta):
    return wrap(kernels, "decompose", lambda d, m: dataclasses.replace(d, psi=d.psi + delta))


def a2_times(factor):
    return wrap(kernels, "decompose", lambda d, m: dataclasses.replace(d, a2=d.a2 * factor))


def kernel_times(factor):
    return lambda monkeypatch: monkeypatch.setattr(kernels, "TWO_PI", kernels.TWO_PI / factor)


def k0_times(factor):
    return wrap(kernels, "macdonald_k0_neg_i", lambda k, x: k * factor)


def k1_times(factor):
    return wrap(kernels, "macdonald_k1_neg_i", lambda k, x: k * factor)


def y_times(factor):
    return wrap(specfun, "_jy", lambda jy, *args: (jy[0], jy[1] * factor))


def j_times(factor):
    return wrap(specfun, "_jy", lambda jy, *args: (jy[0] * factor, jy[1]))


def above_16(change):
    """change(j, y, x) on the (16, inf) table piece of the cylinder functions alone."""
    return wrap(specfun, "_jy", lambda jy, name, nu, x: change(*jy, x) if x > 16.0 else jy)


def phase_times(factor):
    # cos and sin of x factor in place of x: H = J + iY turns by exp(i (factor - 1) x)
    def turn(j, y, x):
        c, s = np.cos((factor - 1.0) * x), np.sin((factor - 1.0) * x)
        return j * c - y * s, j * s + y * c
    return above_16(turn)


def e2_sign_flipped(monkeypatch):
    original = kernels._gradient
    monkeypatch.setattr(kernels, "_gradient", lambda *args, **kwargs: (
        *original(*args, **kwargs)[:4], -original(*args, **kwargs)[4]))


def image_sign_flipped(monkeypatch):
    # the image source is the one with xi2 > 0
    for name in ("_displacement_entries", "_traction_entries"):
        wrap(halfplane, name, lambda entries, m, x, xi, *rest:
             tuple(-e for e in entries) if xi[1] > 0.0 else entries)(monkeypatch)


def wave_k_times(factor):
    return wrap(freefield, "wave_parameters", lambda wp, *args: dataclasses.replace(
        wp, k1=wp.k1 * factor, k2=wp.k2 * factor))


def zeta_rotated(delta):
    c, s = np.cos(delta), np.sin(delta)
    return wrap(freefield, "mode_vector", lambda z, *args: np.array(
        [c * z[0] - s * z[1], s * z[0] + c * z[1]]))


def stress_times(factor):
    return wrap(freefield, "_stress_parts", lambda parts, *args: (
        parts[0] * factor, parts[1] * factor, parts[2]))


def reflection_times(sign):
    # _plane_wave's phases hold the incident exponential, then (half-plane) the reflected one
    return wrap(freefield, "_plane_wave", lambda parts, *args: (
        *parts[:4], parts[4] * np.array([1.0, sign])[:len(parts[4]), None, None], parts[5]))


def v21_off(monkeypatch):
    monkeypatch.setattr(kernels, "_symmetric", lambda v11, v12, v22: np.array(
        [[v11, v12], [v12 * (1.0 + 1e-6), v22]], dtype=complex))


# defect -> (plant, verdict of the dirac-flux record)
MATRIX = {
    "clean": (lambda monkeypatch: None, "pass"),
    "k2 x (1 + 1e-9)": (k2_times(1.0 + 1e-9), "FAIL"),
    "k2 x (1 + 1e-6)": (k2_times(1.0 + 1e-6), "FAIL"),
    "k2 x (1 + 1e-3)": (k2_times(1.0 + 1e-3), "FAIL"),
    "psi + 1e-9": (psi_plus(1e-9), "FAIL"),
    "psi + 1e-6": (psi_plus(1e-6), "FAIL"),
    "psi + 1e-3": (psi_plus(1e-3), "FAIL"),
    "a2 x (1 + 1e-9)": (a2_times(1.0 + 1e-9), "FAIL"),
    "a2 x (1 + 1e-6)": (a2_times(1.0 + 1e-6), "FAIL"),
    "kernel x (1 + 1e-6)": (kernel_times(1.0 + 1e-6), "FAIL"),
    "kernel x (1 - 1e-6)": (kernel_times(1.0 - 1e-6), "FAIL"),
    "kernel x (1 + 1e-2)": (kernel_times(1.0 + 1e-2), "FAIL"),
    "K0 x (1 + 1e-9)": (k0_times(1.0 + 1e-9), "FAIL"),
    "K0 x (1 + 1e-6)": (k0_times(1.0 + 1e-6), "FAIL"),
    "K1 x (1 + 1e-6)": (k1_times(1.0 + 1e-6), "FAIL"),
    "K1 x (1 - 1e-6)": (k1_times(1.0 - 1e-6), "FAIL"),
    "Y_nu x (1 + 1e-9) in specfun": (y_times(1.0 + 1e-9), "FAIL"),
    "Y_nu x (1 - 1e-9) in specfun": (y_times(1.0 - 1e-9), "FAIL"),
    "J_nu x (1 + 1e-9) in specfun": (j_times(1.0 + 1e-9), "FAIL"),
    "J_nu x (1 - 1e-9) in specfun": (j_times(1.0 - 1e-9), "FAIL"),
    "J_nu -> -J_nu (incoming kernel)": (j_times(-1.0), "FAIL"),
    "J_nu -> 0 (standing wave)": (j_times(0.0), "FAIL"),
    "J_nu and Y_nu x (1 + 1e-6) on x > 16": (above_16(lambda j, y, x: (j * (1.0 + 1e-6),
                                                                       y * (1.0 + 1e-6))),
                                             "FAIL"),
    "phase x (1 + 1e-7) on x > 16": (phase_times(1.0 + 1e-7), "FAIL"),
    "e2 sign-flipped in kernels._gradient": (e2_sign_flipped, "FAIL"),
    "image term sign-flipped": (image_sign_flipped, "FAIL"),
    "v21 = v12 (1 + 1e-6)": (v21_off, "FAIL"),
    "free-field k x (1 + 1e-6)": (wave_k_times(1.0 + 1e-6), "FAIL"),
    "free-field k x (1 + 1e-3)": (wave_k_times(1.0 + 1e-3), "FAIL"),
    "free-field zeta rotated by 1e-6": (zeta_rotated(1e-6), "FAIL"),
    "free-field zeta rotated by 1e-3": (zeta_rotated(1e-3), "FAIL"),
    "free-field stress x (1 + 1e-9)": (stress_times(1.0 + 1e-9), "FAIL"),
    "free-field stress x (1 + 1e-6)": (stress_times(1.0 + 1e-6), "FAIL"),
    "free-field stress x (1 - 1e-6)": (stress_times(1.0 - 1e-6), "FAIL"),
    "free-field stress x (1 + 1e-2)": (stress_times(1.0 + 1e-2), "FAIL"),
    "free-field reflected term sign-flipped": (reflection_times(-1.0), "FAIL"),
    "free-field reflected term dropped": (reflection_times(0.0), "FAIL"),
}
# the rows at 1e-9 that only the representation identity sees
IDENTITY_ROWS = ("k2 x (1 + 1e-9)", "psi + 1e-9", "a2 x (1 + 1e-9)", "K0 x (1 + 1e-9)",
                 "free-field stress x (1 + 1e-9)")
# the rows in the J half of the kernel and on the (16, inf) piece that the radiated power sees
RADIATION_ROWS = ("J_nu x (1 + 1e-9) in specfun", "J_nu x (1 - 1e-9) in specfun",
                  "J_nu -> -J_nu (incoming kernel)", "J_nu -> 0 (standing wave)",
                  "J_nu and Y_nu x (1 + 1e-6) on x > 16")


@pytest.mark.parametrize("defect", MATRIX)
def test_each_suite_gives_its_measured_verdict(monkeypatch, defect):
    plant, expected = MATRIX[defect]
    plant(monkeypatch)
    failed = dict.fromkeys(verify.SUITES, False)
    for m in MATERIALS:
        for record in verify.run(m, OMEGAS):
            failed[record["name"]] |= record["status"] == "fail"
    assert " ".join("FAIL" if failed[name] else "pass" for name in verify.SUITES) == expected


def test_clean_tree_passes_every_suite():
    for m in (*MATERIALS, COUPLED):
        assert [(r["name"], r["status"]) for r in verify.run(m, OMEGAS)] == \
            [(name, "pass") for name in verify.SUITES] * len(OMEGAS)


def test_pde_residual_sees_psi_1e_6_at_high_contrast(monkeypatch):
    # a wrong psi mixes the slow mode into the fast mode's row, whose stencil amplifies it by
    # (k2 / k1)^2, at most 8 / (k1 h)^2 = 1.8e6: psi + 1e-6 reads 1.8, the clean value 2.2e-5
    MATRIX["psi + 1e-6"][0](monkeypatch)
    for omega in OMEGAS:
        kernel, _ = helmholtz_residuals(COUPLED, omega, np.random.default_rng(1))
        assert kernel >= 10.0 * KERNEL_PDE_BOUND


def test_dirac_flux_sees_psi_1e_6_at_high_contrast(monkeypatch):
    # the finite-difference check above sees this row too; the representation identity
    # reads 2.2e-3 there
    MATRIX["psi + 1e-6"][0](monkeypatch)
    for record in verify.run(COUPLED, OMEGAS):
        assert record["representation_residual"] >= 10.0 * verify.REPRESENTATION_TOLERANCE


@pytest.mark.parametrize("defect", [name for name in MATRIX if name.startswith("Y_nu")])
def test_dirac_flux_sees_a_1e_9_defect_tenfold_above_its_tolerance(monkeypatch, defect):
    MATRIX[defect][0](monkeypatch)
    for m in MATERIALS:
        for record in verify.run(m, OMEGAS):
            assert record["deviation"] > 10.0 * verify.DIRAC_FLUX_TOLERANCE


@pytest.mark.parametrize("defect", IDENTITY_ROWS)
def test_representation_sees_a_1e_9_defect_fourfold_above_its_tolerance(monkeypatch, defect):
    MATRIX[defect][0](monkeypatch)
    for m in MATERIALS:
        for record in verify.run(m, OMEGAS):
            assert record["representation_residual"] >= 4.0 * verify.REPRESENTATION_TOLERANCE
            assert record["deviation"] < verify.DIRAC_FLUX_TOLERANCE  # the flux is blind


@pytest.mark.parametrize("defect", RADIATION_ROWS)
def test_radiation_sees_the_j_half_tenfold_above_its_tolerance(monkeypatch, defect):
    MATRIX[defect][0](monkeypatch)
    for m in MATERIALS:
        for record in verify.run(m, OMEGAS):
            assert record["radiation_residual"] >= 10.0 * verify.RADIATION_TOLERANCE
            if defect.startswith("J_nu ") and "x > 16" not in defect:  # the J half alone
                assert record["representation_residual"] < verify.REPRESENTATION_TOLERANCE
                assert record["deviation"] < verify.DIRAC_FLUX_TOLERANCE


def test_representation_sees_a_phase_on_the_16_piece_that_radiation_cannot(monkeypatch):
    MATRIX["phase x (1 + 1e-7) on x > 16"][0](monkeypatch)
    for m in MATERIALS:
        for record in verify.run(m, OMEGAS):
            assert record["representation_residual"] >= 10.0 * verify.REPRESENTATION_TOLERANCE
            assert record["radiation_residual"] < verify.RADIATION_TOLERANCE


def test_every_suite_fails_on_some_defect():
    # a suite the matrix shows never failing certifies nothing and should go
    columns = list(zip(*(verdicts.split() for _, verdicts in MATRIX.values())))
    assert len(columns) == len(verify.SUITES)
    for name, column in zip(verify.SUITES, columns):
        assert "FAIL" in column, name
    assert "FAIL" not in MATRIX["clean"][1]
