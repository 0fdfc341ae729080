"""The verification harness itself: residuals, flux, the representation and power identities."""

import json
import math
import re
import runpy
import warnings
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings

import qcwaves.cli
import qcwaves.specfun
import qcwaves.verify
from qcwaves import (
    CouplingTooStrong,
    DomainError,
    IncidentWave,
    NonPositiveFrequency,
    QcError,
    QcMaterial,
    RadiusTooLarge,
    StencilOutOfDomain,
    ValidationError,
    decompose,
    dirac_flux,
    fullplane_incident,
    fundamental_displacement,
    fundamental_stress,
    identity_residuals,
    mode_vector,
    pde_residual,
    wave_parameters,
)
from qcwaves.scenario import load_material
from oracles import KERNEL_PDE_BOUND, WAVE_PDE_BOUND, helmholtz_residuals
from strategies import accepted_materials_and_omegas

ROOT = Path(__file__).resolve().parents[1]
M = QcMaterial(c44=4.0, R3=1.2, K2=2.5, rho=2.0)
M_DECOUPLED = QcMaterial(c44=2.0, R3=0.0, K2=1.0, rho=1.0)
OMEGA = 3.0


class TestPdeResidual:
    def test_fundamental_column(self):
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        residual = pde_residual(
            lambda p: fundamental_displacement(M, p, (0.0, 0.0), OMEGA)[:, 0],
            M, OMEGA, (2.0 / wp.k1, 0.0), "S1",
        )
        assert 0.0 < residual < 1e-4

    @pytest.mark.parametrize("mode", ["S1", "S2"])
    @pytest.mark.parametrize("kr", [0.6, 18.0])
    def test_both_load_columns_read_the_worse_column(self, kr, mode):
        # one kernel evaluation per stencil point gives the worse single-column value, bit
        # for bit, each column relative to its own norm
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        r = kr / (wp.k1 if mode == "S1" else wp.k2)
        at = (r * math.cos(0.7), r * math.sin(0.7))

        def kernel(p):
            return fundamental_displacement(M, p, (0.0, 0.0), OMEGA)

        columns = [pde_residual(lambda p, col=col: kernel(p)[:, col], M, OMEGA, at, mode)
                   for col in (0, 1)]
        assert pde_residual(kernel, M, OMEGA, at, mode) == max(columns)

    def test_incident_wave_is_smooth(self):
        # no singularity anywhere: the O((k h)^2) truncation is well under 1e-6 on both rows,
        # the wave's own and the off-mode row, which holds round-off alone
        wave = IncidentWave(mode="S1", amplitude=1.0, phi=0.8)
        own, off = (pde_residual(lambda p: fullplane_incident(M, wave, OMEGA, p),
                                 M, OMEGA, (0.7, -0.4), row) for row in ("S1", "S2"))
        assert own < 1e-6 and off < 1e-9

    def test_zero_field_flags_degenerate_reference(self):
        # a zero field at the point: 0 if the residual is zero too, else inf
        assert pde_residual(lambda p: (0.0, 0.0), M, OMEGA, (1.0, 1.0), "S1") == 0.0
        vanishing = pde_residual(lambda p: ((p[0] - 1.0) ** 2, 0.0), M, OMEGA, (1.0, 1.0), "S1")
        assert vanishing == math.inf

    def test_stencil_failure_is_reported(self):
        def field(p):
            if p[1] > 0.0:
                raise ValueError("outside")
            return (1.0, 1.0)

        with pytest.raises(StencilOutOfDomain):
            pde_residual(field, M, OMEGA, (0.0, 0.0), "S1")


def test_norm_of_subnormal_complex_input():
    # numpy divides a complex array by a real scale through its reciprocal, which overflows
    assert qcwaves.verify._norm(np.array([1e-315 + 0j, 0j])) == 1e-315
    assert qcwaves.verify._norm(np.array([3e-310 + 1e-311j])) == abs(3e-310 + 1e-311j)


class TestPdeResidualSuite:
    """Each mode's Helmholtz equation on v* and on the plane waves, by finite differences
    (oracles.helmholtz_residuals): the kernels' check independent of every identity."""

    @staticmethod
    def check(m, omega, seed):
        kernel, wave = helmholtz_residuals(m, omega, np.random.default_rng(seed))
        assert kernel < 0.5 * KERNEL_PDE_BOUND and wave < 0.5 * WAVE_PDE_BOUND, (kernel, wave)

    @settings(max_examples=150, deadline=None)
    @given(accepted_materials_and_omegas())
    @example((QcMaterial(c44=1.0, R3=0.0, K2=1.0, rho=1.0), 1.5e308))  # 3000 k overflows
    @example((QcMaterial(c44=2.0, R3=3.2e-310, K2=1.0, rho=1.0), 1.0))  # a subnormal row
    def test_passes_over_the_band(self, case):
        m, omega = case
        assume(wave_parameters(decompose(m), m.rho, omega).k1 >= 1e-300)
        with warnings.catch_warnings():  # every warning is an error, here alone
            warnings.simplefilter("error")
            self.check(m, omega, 0)

    @pytest.mark.parametrize("contrast", [1e5, 1e8, 1e-8])
    def test_passes_at_high_contrast(self, contrast):
        self.check(QcMaterial(c44=1.0, R3=0.0, K2=contrast, rho=1.0), 1.0, 0)

    @pytest.mark.parametrize("gap", [1e-6, 1e-12])
    def test_passes_at_a_coupling_near_one(self, gap):
        # a1 / a2 = 2e6 and 2e12: each row is differenced on its own mode's step, so the
        # fast mode's round-off is not amplified by a1 / a2
        m = QcMaterial(c44=1.0, R3=1.0 - gap, K2=1.0, rho=1.0)
        for seed in range(20):
            self.check(m, 1.0, seed)


class TestRadiation:
    """The radiated-power identity of each dirac-flux record, beside its other two values."""

    @settings(max_examples=150, deadline=None)
    @given(accepted_materials_and_omegas())
    @example((QcMaterial(c44=1e-170, R3=0.0, K2=1e-170, rho=1.0), 1.0))  # det C underflows
    @example((QcMaterial(c44=1.0, R3=1.0 - 1e-12, K2=1.0, rho=1.0), 1.0))  # a1 / a2 = 2e12
    def test_passes_over_the_band(self, case):
        # the clean record, up to k2 = 4.5e301, where the flux radius 1e-6 / k2 is still normal
        m, omega = case
        wp = wave_parameters(decompose(m), m.rho, omega)
        assume(wp.k1 >= 1e-300 and wp.k2 <= 4.5e301)
        with warnings.catch_warnings():  # every warning is an error, here alone
            warnings.simplefilter("error")
            record = qcwaves.verify.SUITES["dirac-flux"](m, omega)
        assert record["status"] == "pass", record
        assert record["radiation_residual"] < qcwaves.verify.RADIATION_TOLERANCE / 10.0, record

    @pytest.mark.parametrize("contrast", [1e5, 1e8, 1e-8])
    def test_passes_at_high_contrast(self, contrast):
        m = QcMaterial(c44=1.0, R3=0.0, K2=contrast, rho=1.0)
        [record] = qcwaves.verify.run(m, [1.0])
        assert record["status"] == "pass", record

    @pytest.mark.parametrize("gap", [1e-6, 1e-12])
    def test_passes_at_a_coupling_near_one(self, gap):
        # a1 / a2 = 2e6 and 2e12: C^-1 / 4 holds 1 / (4 a2) and 1 / (4 a1) alike
        m = QcMaterial(c44=1.0, R3=1.0 - gap, K2=1.0, rho=1.0)
        for record in qcwaves.verify.run(m, np.geomspace(1e-3, 1e3, 7).tolist()):
            assert record["status"] == "pass", record

    def test_one_circle_per_table_piece(self):
        # the circles' k r reach each piece of the cylinder functions' tables, x <= 4, (4, 8],
        # (8, 16] and (16, inf), for each mode's own wavenumber
        edges = (qcwaves.specfun._XCUT, *qcwaves.specfun._EDGES)
        assert [bisect_left(edges, kr) for kr in qcwaves.verify._RADII] == [0, 1, 2, 3]


@pytest.mark.parametrize("call, message", [
    (lambda: IncidentWave(mode="P", amplitude=1.0, phi=0.5), "mode must be one of"),
    (lambda: IncidentWave(mode="S1", amplitude=1.0, phi=0.0), "incidence angle must lie"),
    (lambda: IncidentWave(mode="S1", amplitude=math.inf, phi=0.5), "amplitude must be finite"),
    (lambda: mode_vector(M, "P"), "mode must be one of"),
    (lambda: pde_residual(lambda p: (1.0, 1.0), M, OMEGA, (0.0, 0.0), "P"), "mode must be one of"),
], ids=["wave-mode", "wave-phi", "wave-amplitude", "mode_vector", "pde_residual-mode"])
def test_invalid_arguments_are_validation_errors(call, message):
    # the family errors.py promises: except QcError catches every invalid argument
    with pytest.raises(QcError, match=message) as info:
        call()
    assert isinstance(info.value, ValidationError)


def deviation(flux):
    """Distance of a flux matrix from the Dirac load -I2."""
    return np.linalg.norm(flux + np.eye(2))


class TestDiracFlux:
    def test_converges_to_minus_identity(self):
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        eps = 1e-3 / wp.k2
        flux = dirac_flux(M, (0.3, -0.7), OMEGA, eps)
        assert flux.shape == (2, 2) and deviation(flux) < 1e-3

    def test_deviation_decreases_under_halving(self):
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        eps = 1e-3 / wp.k2
        devs = [deviation(dirac_flux(M, (0.0, 0.0), OMEGA, eps / 2**i))
                for i in range(4)]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_decoupled_off_diagonal_flux_vanishes(self):
        wp = wave_parameters(decompose(M_DECOUPLED), M_DECOUPLED.rho, OMEGA)
        flux = dirac_flux(M_DECOUPLED, (0.0, 0.0), OMEGA, 1e-3 / wp.k2)
        assert abs(flux[0, 1]) < 1e-12 and abs(flux[1, 0]) < 1e-12

    def test_flux_is_the_radial_stress_times_the_circumference(self):
        # the traction on a centred circle is the same at every point: at (xi1 + eps, xi2)
        # with normal (1, 0) it is the x1-direction stress, sigma[:, 0] and H[:, 0]
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        eps, xi = 1e-3 / wp.k2, (0.3, -0.7)
        sigma, h = fundamental_stress(M, (xi[0] + eps, xi[1]), xi, OMEGA)
        expected = 2.0 * math.pi * eps * np.array([sigma[:, 0], h[:, 0]])
        assert np.array_equal(dirac_flux(M, xi, OMEGA, eps), expected)

    def test_radius_too_large(self):
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        with pytest.raises(RadiusTooLarge):
            dirac_flux(M, (0.0, 0.0), OMEGA, 0.2 / wp.k2)

    # k1 = k2 gives the largest clean deviation, 1.03e-11
    @settings(max_examples=150, deadline=None)
    @given(accepted_materials_and_omegas())
    @example((QcMaterial(c44=1.0, R3=0.0, K2=1.0, rho=1.0), 1.0))
    def test_clean_suite_passes_tenfold_below_its_tolerance(self, case):
        m, omega = case
        wp = wave_parameters(decompose(m), m.rho, omega)
        assume(wp.k1 >= 1e-300 and wp.k2 <= 4.5e301)  # the band, up to the flux's bound
        record = qcwaves.verify.SUITES["dirac-flux"](m, omega)
        assert record["status"] == "pass"
        assert record["deviation"] < qcwaves.verify.DIRAC_FLUX_TOLERANCE / 10.0


def test_run_evaluates_each_kernel_once_per_point(monkeypatch):
    # per (material, omega): one v* and one t* per full-plane circle, 4 radii for each mode
    # (8 v*, and 9 t* with the flux's one), the half-plane arc's 64 nodes of g* and its
    # traction, and per mode one call of each free field for all its circles and one for the arc
    counts = {}
    for name in ("fundamental_displacement", "fundamental_traction", "green_displacement",
                 "green_traction", "freefield_stress", "fullplane_incident",
                 "halfplane_freefield"):
        def counted(*args, name=name, kernel=getattr(qcwaves.verify, name), **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(qcwaves.verify, name, counted)
    demo = load_material(ROOT / "demos" / "material.json")
    assert qcwaves.verify.all_passed(qcwaves.verify.run(demo, [1e4]))
    assert counts == {"fundamental_displacement": 8, "fundamental_traction": 9,
                      "green_displacement": 64, "green_traction": 64, "freefield_stress": 4,
                      "fullplane_incident": 2, "halfplane_freefield": 2}


class TestBand:
    """verify.run over the whole domain that validate and wave_table accept."""

    @settings(max_examples=150, deadline=None)
    @given(accepted_materials_and_omegas())
    def test_records_or_a_validation_error(self, case):
        m, omega = case
        try:
            with warnings.catch_warnings():  # every warning is an error, here alone
                warnings.simplefilter("error")
                records = list(qcwaves.verify.run(m, [omega]))
        except ValidationError:  # only the band's low end; the material and omega are accepted
            assert wave_parameters(decompose(m), m.rho, omega).k1 < 1e-300
            return
        assert [r["name"] for r in records] == list(qcwaves.verify.SUITES)
        # every record passes up to k2 = 4.5e301, where the flux radius 1e-6 / k2 is still normal
        if wave_parameters(decompose(m), m.rho, omega).k2 <= 4.5e301:
            assert qcwaves.verify.all_passed(records), records
            assert records[0]["margin"] < 0.5, records

    @pytest.mark.parametrize("r3", [None, 0.0], ids=["demo", "demo-r3-zero"])
    def test_demo_passes_every_suite_across_the_band(self, r3):
        demo = load_material(ROOT / "demos" / "material.json")
        m = demo if r3 is None else QcMaterial(c44=demo.c44, R3=r3, K2=demo.K2, rho=demo.rho)
        d = decompose(m)
        # from k1 = 1e-300 to a free-field stress scale omega sqrt(rho a1) of 1e307
        low, high = 1.001e-300 * math.sqrt(d.a1 / m.rho), 1e307 / math.sqrt(m.rho * d.a1)
        omegas = np.geomspace(low, high, 12).tolist()
        records = list(qcwaves.verify.run(m, omegas))
        assert {r["status"] for r in records} == {"pass"}


class TestRepresentation:
    """The representation identity that BEM discretizes, for v* and for g*."""

    @settings(max_examples=150, deadline=None)
    @given(accepted_materials_and_omegas())
    def test_clean_identity_passes_over_the_band(self, case):
        # v*'s circles and g*'s arc, up to the top of the float range
        m, omega = case
        assume(wave_parameters(decompose(m), m.rho, omega).k1 >= 1e-300)
        with warnings.catch_warnings():  # every warning is an error, here alone
            warnings.simplefilter("error")
            representation, radiation = identity_residuals(m, omega)
        assert representation < qcwaves.verify.REPRESENTATION_TOLERANCE
        assert radiation < qcwaves.verify.RADIATION_TOLERANCE

    def test_gauss_legendre_rule_is_exact_to_degree_127(self):
        x, w = qcwaves.verify._gauss_legendre(qcwaves.verify._HALF_NODES)
        nodes, weights = np.polynomial.legendre.leggauss(qcwaves.verify._HALF_NODES)
        order = np.argsort(x)
        assert np.max(np.abs(x[order] - nodes)) <= 2e-16
        assert np.max(np.abs(w[order] - weights) / weights) < 2e-12  # leggauss's own error
        for k in range(0, 128, 2):
            assert abs(w @ x**k - 2.0 / (k + 1)) < 1e-15

    def test_gauss_legendre_rule_is_built_once(self):
        first = qcwaves.verify._gauss_legendre(64)
        hits = qcwaves.verify._gauss_legendre.cache_info().hits
        second = qcwaves.verify._gauss_legendre(64)
        assert qcwaves.verify._gauss_legendre.cache_info().hits == hits + 1
        assert all(a is b and not a.flags.writeable for a, b in zip(first, second))

    def test_unreflected_wave_is_order_one(self, monkeypatch):
        # negative control: without the reflected wave the traction on x2 = 0, which the
        # half-plane contour leaves out, does not vanish
        monkeypatch.setattr(qcwaves.verify, "halfplane_freefield", fullplane_incident)
        stress = qcwaves.verify.freefield_stress
        monkeypatch.setattr(qcwaves.verify, "freefield_stress",
                            lambda *args, half_plane: stress(*args))
        assert identity_residuals(M, OMEGA)[0] > 0.1

    def test_half_plane_stress_is_finite_at_the_top_of_the_band(self):
        # at k2 = 1.5e308, 2 k2 sin(phi) overflows; freefield_stress forms its gradient with
        # k2 / 2 and doubles last, so the identities read finite values and pass
        m = QcMaterial(c44=1.0, R3=0.0, K2=1.0, rho=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            representation, radiation = identity_residuals(m, 1.5e308)
        assert representation < qcwaves.verify.REPRESENTATION_TOLERANCE
        assert radiation < qcwaves.verify.RADIATION_TOLERANCE


@pytest.mark.parametrize("check, name", [
    (lambda v: pde_residual(lambda p: fundamental_displacement(M, p, (0.0, 0.0), OMEGA)[:, 0],
                            M, OMEGA, v, "S1"), "stencil centre at"),
    (lambda v: dirac_flux(M, v, OMEGA, 1e-3 / wave_parameters(decompose(M), M.rho, OMEGA).k2),
     "source xi"),
], ids=["pde_residual", "dirac_flux"])
def test_checks_read_points_and_sources_as_pairs(check, name):
    # a third coordinate is named, not dropped (nor a bare ValueError of math.dist)
    message = f"{name} must be a pair of numbers; got (0.5, -0.5, 9.0)"
    with pytest.raises(ValidationError, match=re.escape(message)):
        check((0.5, -0.5, 9.0))


def test_reports_serialize_to_plain_dicts():
    # each check returns a plain value; the suite records are the reports
    wp = wave_parameters(decompose(M), M.rho, OMEGA)
    flux = dirac_flux(M, (0.0, 0.0), OMEGA, 1e-3 / wp.k2)
    assert flux.shape == (2, 2) and flux.dtype == complex
    residual = pde_residual(
        lambda p: fundamental_displacement(M, p, (0.0, 0.0), OMEGA)[:, 0],
        M, OMEGA, (1.0, 0.5), "S1",
    )
    assert type(residual) is float
    assert [type(value) for value in identity_residuals(M, OMEGA)] == [float, float]
    records = list(qcwaves.verify.run(M_DECOUPLED, [OMEGA]))
    assert json.loads(json.dumps(records)) == records


# The exact keys of each suite's record. A change to a record is a change to
# the report format, which benchmarks/oracle.py and demos/verification_tour.py read.
RECORD_KEYS = {
    "dirac-flux": {"deviation", "tolerance", "representation_residual",
                   "representation_tolerance", "radiation_residual", "radiation_tolerance",
                   "margin"},
}


def test_suite_record_keys_are_pinned():
    demo = load_material(ROOT / "demos" / "material.json")
    decoupled = QcMaterial(c44=demo.c44, R3=0.0, K2=demo.K2, rho=demo.rho)
    omega = 2.0 * math.pi * 1e6
    records = list(qcwaves.verify.run(demo, [omega])) + \
        list(qcwaves.verify.run(decoupled, [omega]))
    assert [(r["name"], r["status"]) for r in records] == \
        [(name, "pass") for name in RECORD_KEYS] * 2
    for r in records:
        assert set(r) == {"name", "status", "omega"} | RECORD_KEYS[r["name"]], r["name"]
    # every (value, tolerance) pair a reader of the report looks up is in its record
    margin_keys = runpy.run_path(str(ROOT / "benchmarks" / "oracle.py"))["MARGIN_KEYS"]
    limits = {name: [(value, tolerance) for value, tolerance, _ in limit]
              for name, limit in qcwaves.verify.LIMITS.items()}
    assert set(limits) == set(RECORD_KEYS)
    # the benchmark's table may keep a retired suite's entry: no record reaches it
    assert set(margin_keys) >= set(RECORD_KEYS)
    for pairs in (margin_keys, limits):
        for name in RECORD_KEYS:
            assert {k for pair in pairs[name] for k in pair} <= RECORD_KEYS[name], name


class TestPassRule:
    """verify._record is the one pass rule: every value strictly below its tolerance."""

    @staticmethod
    def record(suite, scale=0.5, **changes):
        """The record of suite with each value at scale times its tolerance, then changes."""
        limits = qcwaves.verify.LIMITS[suite]
        measured = {value: scale * tolerance for value, _, tolerance in limits}
        return qcwaves.verify._record(suite, **{**measured, **changes})

    @pytest.mark.parametrize("suite", sorted(qcwaves.verify.LIMITS))
    def test_values_below_their_tolerances_pass(self, suite):
        record = self.record(suite)
        assert record["status"] == "pass" and record["margin"] == 0.5
        for value, key, tolerance in qcwaves.verify.LIMITS[suite]:
            assert record[key] == tolerance and record[value] == 0.5 * tolerance

    @pytest.mark.parametrize("suite", sorted(qcwaves.verify.LIMITS))
    def test_a_value_equal_to_its_tolerance_fails(self, suite):
        assert self.record(suite, scale=1.0)["status"] == "fail"
        for value, _, tolerance in qcwaves.verify.LIMITS[suite]:
            record = self.record(suite, **{value: tolerance})
            assert (record["status"], record["margin"]) == ("fail", 1.0), value

    @pytest.mark.parametrize("suite", sorted(qcwaves.verify.LIMITS))
    def test_a_nan_value_fails(self, suite):
        for value, _, _ in qcwaves.verify.LIMITS[suite]:
            record = self.record(suite, **{value: math.nan})
            assert record["status"] == "fail" and math.isnan(record["margin"]), value

class TestNanResult:
    """A NaN result must fail its check: the builtin max(0.0, nan) is 0.0."""

    KERNELS = ("fundamental_displacement", "fundamental_traction", "green_displacement",
               "green_traction", "freefield_stress")

    @pytest.fixture
    def nan_kernels(self, monkeypatch):
        def nan(value):
            return tuple(v * math.nan for v in value) if isinstance(value, tuple) \
                else value * math.nan

        for name in self.KERNELS:
            kernel = getattr(qcwaves.verify, name)
            monkeypatch.setattr(qcwaves.verify, name,
                                lambda *a, kernel=kernel, **kw: nan(kernel(*a, **kw)))

    @pytest.mark.parametrize("suite", sorted(qcwaves.verify.SUITES))
    def test_every_suite_fails(self, nan_kernels, suite):
        report = qcwaves.verify.SUITES[suite](M_DECOUPLED, OMEGA)
        assert report["status"] == "fail"

    def test_checks_report_nan(self, nan_kernels):
        assert math.isnan(pde_residual(
            lambda p: qcwaves.verify.fundamental_displacement(M, p, (0.0, 0.0), OMEGA)[:, 0],
            M, OMEGA, (1.0, 0.5), "S1"))
        assert all(math.isnan(value) for value in identity_residuals(M, OMEGA))

    def test_verify_exits_four(self, nan_kernels, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema_version": 1, "c44": M_DECOUPLED.c44, "R3": 0.0,
                                    "K2": M_DECOUPLED.K2, "rho": M_DECOUPLED.rho}))
        for suite in qcwaves.verify.SUITES:
            assert qcwaves.cli.main(["verify", "--material", str(path), "--omega", "3.0",
                                     "--suite", suite]) == 4, suite


class TestRun:
    def test_unknown_suite_rejected_before_any_suite_runs(self, monkeypatch):
        for name in qcwaves.verify.SUITES:
            monkeypatch.setitem(qcwaves.verify.SUITES, name,
                                lambda *args: pytest.fail("a suite ran"))
        coupled = QcMaterial(c44=1.0, R3=2.0, K2=1.0, rho=1.0)
        cases = [  # (material, omegas, suites, error, message)
            (M, [OMEGA], ["dirac-flux", "nonsense"], ValidationError, "unknown suite 'nonsense'"),
            (coupled, [OMEGA], ["dirac-flux"], CouplingTooStrong, "coupling too strong"),
            (M, [], ["dirac-flux"], ValidationError, "empty omega list"),
            (M, [0.0], ["dirac-flux"], NonPositiveFrequency, "omega > 0"),
            (M, [math.nan], ["dirac-flux"], NonPositiveFrequency, "omega > 0"),
            (M, [1.0, 1.0], ["dirac-flux"], ValidationError, "omega 1.0 is repeated"),
            (M, [OMEGA, 1.75e308], ["dirac-flux"], DomainError, "leave the float range"),
            (M, [OMEGA, 3e-308], ["dirac-flux"], ValidationError,
             r"omega 3e-308 gives k1 = 1\.\d+e-308, below the normal floats"),
            (M, [OMEGA, 1e-301], ["dirac-flux"], ValidationError,
             r"--omega 1e-301 is below the verify band: k1 = 6\.\d+e-302 must be at least 1e-300"),
            (M, [OMEGA], [], ValidationError, "empty suite list"),
        ]
        for m, omegas, suites, error, message in cases:
            with pytest.raises(error, match=message):
                next(qcwaves.verify.run(m, omegas, suites))

    def test_suites_may_be_any_iterable_of_names(self):
        # a dict or a generator is read once, as the names it yields
        records = list(qcwaves.verify.run(M, [OMEGA], tuple(qcwaves.verify.SUITES)))
        assert list(qcwaves.verify.run(M, [OMEGA], qcwaves.verify.SUITES)) == records
        assert list(qcwaves.verify.run(M, [OMEGA], (n for n in qcwaves.verify.SUITES))) == records
        for suites, message in (((n for n in ()), "empty suite list"),
                                ((n for n in ["dirac-flux"] * 2), "'dirac-flux' is repeated"),
                                ([["dirac-flux"]], "unknown suite")):
            with pytest.raises(ValidationError, match=message):
                next(qcwaves.verify.run(M, [OMEGA], suites))

    def test_records_do_not_depend_on_the_order_of_suites(self, monkeypatch):
        # nor on the seed: no check draws random numbers, so the seed only reaches the report
        names = tuple(qcwaves.verify.SUITES)
        records = repr(list(qcwaves.verify.run(M, [OMEGA, 2 * OMEGA], names, seed=5)))
        assert repr(list(qcwaves.verify.run(M, [OMEGA, 2 * OMEGA], names, seed=0))) == records
        monkeypatch.setattr(qcwaves.verify, "SUITES",
                            dict(reversed(qcwaves.verify.SUITES.items())))
        assert repr(list(qcwaves.verify.run(M, [OMEGA, 2 * OMEGA], names, seed=5))) == records

    def test_all_passed_is_no_failed_record(self):
        records = list(qcwaves.verify.run(M, [OMEGA, 2 * OMEGA], ["dirac-flux"], seed=3))
        assert [(r["name"], r["status"], r["omega"]) for r in records] == \
            [("dirac-flux", "pass", OMEGA), ("dirac-flux", "pass", 2 * OMEGA)]
        assert qcwaves.verify.all_passed(records)
        assert not qcwaves.verify.all_passed(records + [{"status": "fail"}])


def test_tolerances_are_the_named_constants():
    record = qcwaves.verify.SUITES["dirac-flux"](M, OMEGA)
    assert record["tolerance"] == qcwaves.verify.DIRAC_FLUX_TOLERANCE
    assert record["representation_tolerance"] == qcwaves.verify.REPRESENTATION_TOLERANCE
    assert record["radiation_tolerance"] == qcwaves.verify.RADIATION_TOLERANCE
