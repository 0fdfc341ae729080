"""The verification harness itself: residuals, flux, symmetry, decoupling."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import qcwaves.cli
import qcwaves.verify
from qcwaves import (
    IncidentWave,
    QcMaterial,
    RadiusTooLarge,
    StencilOutOfDomain,
    ValidationError,
    boundary_traction_scan,
    decompose,
    decoupling_check,
    dirac_flux,
    fullplane_incident,
    fundamental_displacement,
    pde_residual,
    reciprocity_check,
    wave_parameters,
)

M = QcMaterial(c44=4.0, R3=1.2, K2=2.5, rho=2.0)
M_DECOUPLED = QcMaterial(c44=2.0, R3=0.0, K2=1.0, rho=1.0)
OMEGA = 3.0


def slow_wavelength(m, omega):
    wp = wave_parameters(decompose(m), m.rho, omega)
    return 2.0 * math.pi / wp.k2


class TestPdeResidual:
    def test_fundamental_column(self):
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        r = 2.0 / wp.k1
        at = (r, 0.0)
        rep = pde_residual(
            lambda p: fundamental_displacement(M, p, (0.0, 0.0), OMEGA)[:, 0],
            M, OMEGA, at, h=r / 200.0,
        )
        assert rep.relative_residual < 1e-4
        assert rep.h == r / 200.0
        assert rep.reference_norm > 0.0

    def test_incident_wave_is_smooth(self):
        # no singularity anywhere, so the stencil can be fine: lambda/3000
        # puts the O(h^2) truncation well under 1e-6
        wave = IncidentWave(mode="S1", amplitude=1.0, phi=0.8)
        rep = pde_residual(
            lambda p: fullplane_incident(M, wave, OMEGA, p).as_array(),
            M, OMEGA, (0.7, -0.4), h=slow_wavelength(M, OMEGA) / 3000.0,
        )
        assert rep.relative_residual < 1e-6

    def test_zero_field_flags_degenerate_reference(self):
        rep = pde_residual(lambda p: (0.0, 0.0), M, OMEGA, (1.0, 1.0))
        assert rep.degenerate_reference
        assert rep.residual_norm == 0.0 and rep.relative_residual == 0.0

    def test_stencil_failure_is_reported(self):
        def field(p):
            if p[1] > 0.0:
                raise ValueError("outside")
            return (1.0, 1.0)

        with pytest.raises(StencilOutOfDomain):
            pde_residual(field, M, OMEGA, (0.0, 0.0))

    def test_default_step_scales_with_wavelength(self):
        h1 = qcwaves.verify.default_step(M, OMEGA)
        h2 = qcwaves.verify.default_step(M, 10.0 * OMEGA)
        assert h1 == pytest.approx(10.0 * h2, rel=1e-12)
        assert qcwaves.verify.default_step(M, OMEGA, r=h1) == h1 / 400.0


class TestDiracFlux:
    def test_converges_to_minus_identity(self):
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        eps = 1e-3 / wp.k2
        rep = dirac_flux(M, (0.3, -0.7), OMEGA, eps, n_nodes=256)
        assert rep.deviation < 1e-3
        assert rep.n_nodes == 256 and rep.radius == eps

    def test_deviation_decreases_under_halving(self):
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        eps = 1e-3 / wp.k2
        devs = [dirac_flux(M, (0.0, 0.0), OMEGA, eps / 2**i, n_nodes=256).deviation
                for i in range(4)]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_decoupled_off_diagonal_flux_vanishes(self):
        wp = wave_parameters(decompose(M_DECOUPLED), M_DECOUPLED.rho, OMEGA)
        rep = dirac_flux(M_DECOUPLED, (0.0, 0.0), OMEGA, 1e-3 / wp.k2)
        assert abs(rep.flux[0, 1]) < 1e-12 and abs(rep.flux[1, 0]) < 1e-12

    def test_radius_too_large(self):
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        with pytest.raises(RadiusTooLarge):
            dirac_flux(M, (0.0, 0.0), OMEGA, 0.2 / wp.k2)

    def test_node_count_floor(self):
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        with pytest.raises(ValueError):
            dirac_flux(M, (0.0, 0.0), OMEGA, 1e-3 / wp.k2, n_nodes=32)

    def test_area_term_closes_the_budget(self):
        # flux + I2 ~ -(area term): including it shrinks the defect by
        # orders of magnitude, confirming the eps^2*ln(eps) error model
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        eps = 5e-2 / wp.k2
        rep = dirac_flux(M, (0.0, 0.0), OMEGA, eps, n_nodes=256,
                         include_area_term=True)
        closed = np.linalg.norm(rep.flux + rep.area_term + np.eye(2))
        assert closed < 0.02 * rep.deviation


class TestReciprocity:
    def test_passes_on_valid_material(self):
        rep = reciprocity_check(M, OMEGA, np.random.default_rng(5), sample_count=100)
        assert rep.passed and rep.max_deviation < 1e-12

    def test_deterministic_given_seed(self):
        a = reciprocity_check(M, OMEGA, np.random.default_rng(9), sample_count=50)
        b = reciprocity_check(M, OMEGA, np.random.default_rng(9), sample_count=50)
        assert a == b

    def test_samples_from_the_given_generator(self):
        rng = np.random.default_rng(9)
        reciprocity_check(M, OMEGA, rng, sample_count=3)
        assert rng.bit_generator.state != np.random.default_rng(9).bit_generator.state

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="sample_count"):
            reciprocity_check(M, OMEGA, np.random.default_rng(0), sample_count=0)

    def test_broken_kernel_fails(self, monkeypatch):
        # negative control: flip the sign of one off-diagonal entry
        original = qcwaves.verify.fundamental_displacement

        def broken(m, x, xi, omega):
            v = original(m, x, xi, omega).copy()
            v[0, 1] = -v[0, 1]
            return v

        monkeypatch.setattr(qcwaves.verify, "fundamental_displacement", broken)
        rep = reciprocity_check(M, OMEGA, np.random.default_rng(5), sample_count=20)
        assert not rep.passed


class TestDecoupling:
    def test_passes_at_r3_zero(self):
        lam = slow_wavelength(M_DECOUPLED, OMEGA)
        rng = np.random.default_rng(61)
        points = [(rng.uniform(-2, 2) * lam, rng.uniform(-2.0, -0.05) * lam)
                  for _ in range(20)]
        points.append((0.7 * lam, 0.0))  # boundary point: r = r~ branch
        rep = decoupling_check(M_DECOUPLED, OMEGA, points, xi=(0.0, -lam))
        assert rep.passed and rep.max_relative_error < 1e-12
        assert rep.n_points == 21

    def test_requires_r3_zero(self):
        with pytest.raises(ValueError):
            decoupling_check(M, OMEGA, [(1.0, -1.0)])

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            decoupling_check(M_DECOUPLED, OMEGA, [])


class TestBoundaryScan:
    def test_green_function_boundary(self):
        assert boundary_traction_scan(M, OMEGA, (0.2, -0.9), n_points=50) < 1e-10

    def test_freefield_boundary(self):
        for mode in ("S1", "S2"):
            wave = IncidentWave(mode=mode, amplitude=1.0, phi=0.6)
            assert boundary_traction_scan(M, OMEGA, wave, n_points=50) < 1e-13

    def test_unreflected_wave_is_order_one(self):
        # negative control: without the reflected wave the boundary
        # traction does not cancel
        wave = IncidentWave(mode="S1", amplitude=1.0, phi=0.6)
        value = boundary_traction_scan(M, OMEGA, wave, n_points=50,
                                       include_reflection=False)
        assert value > 0.5

    @pytest.mark.parametrize("source", [(0.2, -0.9), IncidentWave("S1", 1.0, 0.6)])
    def test_zero_points_rejected(self, source):
        with pytest.raises(ValueError, match="n_points"):
            boundary_traction_scan(M, OMEGA, source, n_points=0)


def test_reports_serialize_to_plain_dicts():
    wp = wave_parameters(decompose(M), M.rho, OMEGA)
    flux = dirac_flux(M, (0.0, 0.0), OMEGA, 1e-3 / wp.k2)
    d = asdict(flux)
    assert d["n_nodes"] == 256 and len(d["flux"]) == 2
    rep = pde_residual(
        lambda p: fundamental_displacement(M, p, (0.0, 0.0), OMEGA)[:, 0],
        M, OMEGA, (1.0, 0.5),
    )
    d = asdict(rep)
    assert set(d) == {"point", "h", "residual_norm", "reference_norm",
                      "relative_residual", "degenerate_reference"}
    json.dumps(asdict(reciprocity_check(M, OMEGA, np.random.default_rng(0), sample_count=5)))
    json.dumps(d)


class TestNanResult:
    """A NaN result must fail its check: the builtin max(0.0, nan) is 0.0."""

    KERNELS = ("fundamental_displacement", "fundamental_traction", "green_displacement",
               "green_traction", "freefield_traction", "macdonald_k0_neg_i")

    @pytest.fixture
    def nan_kernels(self, monkeypatch):
        for name in self.KERNELS:
            kernel = getattr(qcwaves.verify, name)
            monkeypatch.setattr(qcwaves.verify, name,
                                lambda *a, kernel=kernel, **kw: kernel(*a, **kw) * math.nan)

    @pytest.mark.parametrize("suite", sorted(qcwaves.verify.SUITES))
    def test_every_suite_fails(self, nan_kernels, suite):
        report = qcwaves.verify.SUITES[suite](M_DECOUPLED, OMEGA, np.random.default_rng(3))
        assert report["status"] == "fail"

    def test_checks_report_nan(self, nan_kernels):
        rep = reciprocity_check(M, OMEGA, np.random.default_rng(0), sample_count=5)
        assert not rep.passed and math.isnan(rep.max_deviation)
        assert math.isnan(boundary_traction_scan(M, OMEGA, (0.2, -0.9), n_points=5))

    def test_verify_exits_four(self, nan_kernels, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema_version": 1, "c44": M_DECOUPLED.c44, "R3": 0.0,
                                    "K2": M_DECOUPLED.K2, "rho": M_DECOUPLED.rho}))
        # without dirac-flux, whose "<" comparisons already fail on NaN
        suites = "pde-residual,reciprocity,decoupling,boundary-scan"
        assert qcwaves.cli.main(["verify", "--material", str(path), "--omega", "3.0",
                                 "--suite", suites]) == 4


class TestRun:
    def test_unknown_suite_rejected_before_any_suite_runs(self, monkeypatch):
        monkeypatch.setitem(qcwaves.verify.SUITES, "pde-residual",
                            lambda *args: pytest.fail("a suite ran"))
        with pytest.raises(ValidationError, match="unknown suite 'nonsense'"):
            list(qcwaves.verify.run(M, [OMEGA], ["pde-residual", "nonsense"]))

    def test_skipped_suite_does_not_fail(self):
        records = list(qcwaves.verify.run(M, [OMEGA, 2 * OMEGA], ["decoupling"], seed=3))
        assert [(r["name"], r["status"], r["omega"]) for r in records] == \
            [("decoupling", "skipped", OMEGA), ("decoupling", "skipped", 2 * OMEGA)]
        assert qcwaves.verify.all_passed(records)
        assert not qcwaves.verify.all_passed(records + [{"status": "fail"}])


def test_tolerances_are_the_named_constants():
    assert reciprocity_check(M, OMEGA, np.random.default_rng(0), sample_count=5).tolerance == \
        qcwaves.verify.RECIPROCITY_TOLERANCE
    rep = decoupling_check(M_DECOUPLED, OMEGA, [(0.5, -0.5)])
    assert rep.tolerance == qcwaves.verify.DECOUPLING_TOLERANCE
