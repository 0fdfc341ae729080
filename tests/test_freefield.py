"""Plane-wave free fields: modes, dispersion exactness, reflections."""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

import qcwaves.scenario as scenario
from qcwaves import (
    IncidentWave,
    NonUnitNormal,
    PointOutsideHalfPlane,
    QcMaterial,
    ValidationError,
    decompose,
    freefield_stress,
    freefield_traction,
    fullplane_incident,
    halfplane_freefield,
    mode_vector,
    wave_parameters,
)

from strategies import omega_at, random_material

M = QcMaterial(c44=4.0, R3=1.2, K2=2.5, rho=2.0)
OMEGA = 3.0
WAVE1 = IncidentWave(mode="S1", amplitude=1.0 + 0.0j, phi=0.7)
WAVE2 = IncidentWave(mode="S2", amplitude=0.5 - 0.25j, phi=1.1)


def dispersion_residual(m, wave, omega, x, half_plane=False):
    """Analytic substitution into the equations of motion.

    Both exponentials have Laplacian -k^2 * field, so the residual is
    (rho omega^2 I - k^2 C) field, evaluated with exact coefficients, relative
    to the scale k^2 a1 |field| of its terms: for the S2 mode C field cancels
    from a1 |field| down to a2 |field|, and a float mode vector, an eigenvector
    of C within eps, leaves eps a1 |field| of it.
    """
    d = decompose(m)
    wp = wave_parameters(d, m.rho, omega)
    k = wp.k1 if wave.mode == "S1" else wp.k2
    if half_plane:
        f = halfplane_freefield(m, wave, omega, x)
    else:
        f = fullplane_incident(m, wave, omega, x)
    residual = m.rho * omega * omega * f - k * k * (m.matrix() @ f)
    reference = k * k * d.a1 * np.linalg.norm(f)
    return np.linalg.norm(residual) / reference


class TestModeVector:
    def test_symmetric_material(self):
        m = QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=1.0)
        s1 = mode_vector(m, "S1")
        assert s1 == pytest.approx([1.0 / math.sqrt(2.0)] * 2, rel=1e-15)

    def test_decoupled_material(self):
        m = QcMaterial(c44=2.0, R3=0.0, K2=1.0, rho=1.0)
        assert np.all(mode_vector(m, "S1") == [1.0, 0.0])
        assert np.all(mode_vector(m, "S2") == [0.0, 1.0])

    def test_orthonormal(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            m = random_material(rng)
            s1, s2 = mode_vector(m, "S1"), mode_vector(m, "S2")
            # identical products cancel exactly
            assert s1[0] * s2[0] + s1[1] * s2[1] == 0.0
            assert s1 @ s1 == pytest.approx(1.0, abs=1e-15)
            assert s2 @ s2 == pytest.approx(1.0, abs=1e-15)

    def test_independent_of_incidence_angle(self):
        # polarization is a material property; sweeping phi changes nothing
        baseline = mode_vector(M, "S1").tobytes()
        for phi in np.linspace(0.01, 1.55, 40):
            IncidentWave(mode="S1", amplitude=1.0, phi=float(phi))  # valid angles
            assert mode_vector(M, "S1").tobytes() == baseline

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            mode_vector(M, "S3")


class TestIncidentWave:
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, -0.1, 2.0])
    def test_angle_endpoints_rejected(self, phi):
        with pytest.raises(ValueError):
            IncidentWave(mode="S1", amplitude=1.0, phi=phi)

    def test_infinite_amplitude_rejected(self):
        with pytest.raises(ValueError):
            IncidentWave(mode="S1", amplitude=math.inf, phi=0.5)


class TestFullPlane:
    def test_value_at_origin(self):
        f = fullplane_incident(M, WAVE1, OMEGA, (0.0, 0.0))
        zeta = mode_vector(M, "S1")
        assert f[0] == WAVE1.amplitude * zeta[0]
        assert f[1] == WAVE1.amplitude * zeta[1]

    def test_pure_phase_propagation(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            x = rng.uniform(-5.0, 5.0, size=2)
            f = fullplane_incident(M, WAVE2, OMEGA, x)
            power = abs(f[0]) ** 2 + abs(f[1]) ** 2
            assert power == pytest.approx(abs(WAVE2.amplitude) ** 2, rel=1e-13)

    def test_dispersion_exactness(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            m = random_material(rng)
            omega = omega_at(m, 10.0 ** rng.uniform(-3.0, 3.0))
            phi = rng.uniform(0.05, 1.5)
            x = rng.uniform(-3.0, 3.0, size=2)
            for mode in ("S1", "S2"):
                wave = IncidentWave(mode=mode, amplitude=1.0 + 0.3j, phi=phi)
                assert dispersion_residual(m, wave, omega, x) < 1e-12


class TestHalfPlane:
    def test_boundary_doubles_incident(self):
        for x1 in (-2.0, 0.0, 3.7):
            full = fullplane_incident(M, WAVE1, OMEGA, (x1, 0.0))
            half = halfplane_freefield(M, WAVE1, OMEGA, (x1, 0.0))
            assert half[0] == 2.0 * full[0]
            assert half[1] == 2.0 * full[1]

    def test_antinode_depth(self):
        # at x2 = -pi/(k sin phi) the bracket is e^{-i pi} + e^{i pi} = -2
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        k = wp.k1
        x = (0.0, -math.pi / (k * math.sin(WAVE1.phi)))
        f = halfplane_freefield(M, WAVE1, OMEGA, x)
        zeta = mode_vector(M, "S1")
        expected = -2.0 * WAVE1.amplitude * zeta
        assert abs(f[0] - expected[0]) < 1e-12 * abs(expected[0])
        assert abs(f[1] - expected[1]) < 1e-12 * abs(expected[1])

    def test_equals_incident_plus_reflected(self):
        # the reflected wave is itself a full-plane solution with the
        # x2-wavevector sign flipped; build it directly from the exponential
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        zeta = mode_vector(M, "S2")
        k = wp.k2
        c, s = math.cos(WAVE2.phi), math.sin(WAVE2.phi)
        rng = np.random.default_rng(59)
        for _ in range(10):
            x = (rng.uniform(-3, 3), rng.uniform(-3, 0))
            incident = fullplane_incident(M, WAVE2, OMEGA, x)
            reflected = WAVE2.amplitude * zeta * cmath.exp(
                1j * k * (x[0] * c - x[1] * s)
            )
            half = halfplane_freefield(M, WAVE2, OMEGA, x)
            # bounded by the terms it sums: near a node of the standing wave |half| is small
            # against |incident| + |reflected|, whose rounding the difference carries
            assert np.max(np.abs(half - (incident + reflected))) <= 1e-15 * np.max(
                np.abs(incident) + np.abs(reflected)
            )
            # the reflected summand satisfies the dispersion relation too
            residual = M.rho * OMEGA**2 * reflected - k * k * (M.matrix() @ reflected)
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(
                M.rho * OMEGA**2 * reflected
            )

    def test_dispersion_exactness(self):
        assert dispersion_residual(M, WAVE1, OMEGA, (0.4, -1.2), half_plane=True) < 1e-12
        assert dispersion_residual(M, WAVE2, OMEGA, (-0.8, -0.3), half_plane=True) < 1e-12

    def test_point_outside_rejected(self):
        with pytest.raises(PointOutsideHalfPlane):
            halfplane_freefield(M, WAVE1, OMEGA, (0.0, 0.5))

    def test_first_point_outside_is_named(self):
        points = [(0.0, -1.0), (0.5, 0.25), (1.0, 2.0)]
        with pytest.raises(PointOutsideHalfPlane, match=r"\(0\.5, 0\.25\)"):
            halfplane_freefield(M, WAVE1, OMEGA, points)


class TestStressAndTraction:
    def test_boundary_traction_is_machine_zero(self):
        for wave in (WAVE1, WAVE2):
            for x1 in np.linspace(-4.0, 4.0, 9):
                t = freefield_traction(M, wave, OMEGA, (float(x1), 0.0), (0.0, 1.0),
                                       half_plane=True)
                assert t[0] == 0.0 and t[1] == 0.0

    def test_full_plane_traction_along_propagation(self):
        # traction along the propagation direction: |t3| = |A| k1 a1 cos psi,
        # |G3| = |A| k1 a1 sin psi (C zeta = a1 zeta for the S1 mode)
        d = decompose(M)
        wp = wave_parameters(d, M.rho, OMEGA)
        n = (math.cos(WAVE1.phi), math.sin(WAVE1.phi))
        x = (0.3, 0.9)
        t = freefield_traction(M, WAVE1, OMEGA, x, n)
        scale = abs(WAVE1.amplitude) * wp.k1 * d.a1
        assert abs(t[0]) == pytest.approx(scale * d.cos_psi, rel=1e-13)
        assert abs(t[1]) == pytest.approx(scale * d.sin_psi, rel=1e-13)

    @pytest.mark.parametrize("half_plane", [False, True])
    def test_stress_matches_finite_differences(self, half_plane):
        x = (0.37, -0.61)
        sigma, h_stress = freefield_stress(M, WAVE2, OMEGA, x, half_plane)
        h = 1e-7
        for j, e in enumerate([(h, 0.0), (0.0, h)]):
            if half_plane:
                fp = halfplane_freefield(M, WAVE2, OMEGA, (x[0] + e[0], x[1] + e[1]))
                fm = halfplane_freefield(M, WAVE2, OMEGA, (x[0] - e[0], x[1] - e[1]))
            else:
                fp = fullplane_incident(M, WAVE2, OMEGA, (x[0] + e[0], x[1] + e[1]))
                fm = fullplane_incident(M, WAVE2, OMEGA, (x[0] - e[0], x[1] - e[1]))
            du = (fp[0] - fm[0]) / (2.0 * h)
            dw = (fp[1] - fm[1]) / (2.0 * h)
            sigma_fd = M.c44 * du + M.R3 * dw
            h_fd = M.R3 * du + M.K2 * dw
            assert abs(sigma_fd - sigma[j]) < 1e-6 * max(abs(sigma[j]), 1.0)
            assert abs(h_fd - h_stress[j]) < 1e-6 * max(abs(h_stress[j]), 1.0)

    def test_decoupled_s1_has_no_phason_traction(self):
        m = QcMaterial(c44=2.0, R3=0.0, K2=1.0, rho=1.0)
        wave = IncidentWave(mode="S1", amplitude=2.0, phi=0.9)
        t = freefield_traction(m, wave, 2.0, (0.5, -0.5), (1.0, 0.0), half_plane=True)
        assert t[1] == 0.0

    def test_non_unit_normal_rejected(self):
        with pytest.raises(NonUnitNormal):
            freefield_traction(M, WAVE1, OMEGA, (0.0, 0.0), (2.0, 0.0))


class TestArrayPoints:
    """An (N, 2) call is N one-point calls through the same code: equal bit for bit."""

    @pytest.mark.parametrize("wave", [WAVE1, WAVE2], ids=["S1", "S2"])
    def test_rows_equal_single_point_calls(self, wave, monkeypatch, tmp_path):
        monkeypatch.setattr(scenario, "_BLOCK_ROWS", 16)  # run_scenario: 3 blocks
        rng = np.random.default_rng(61)
        points = np.column_stack([rng.uniform(-5.0, 5.0, 40), -rng.uniform(0.0, 5.0, 40)])
        points[::7, 1] = 0.0  # on the boundary, where the reflected terms cancel
        n = (0.6, 0.8)
        calls = {
            "fullplane_incident": lambda x: fullplane_incident(M, wave, OMEGA, x),
            "halfplane_freefield": lambda x: halfplane_freefield(M, wave, OMEGA, x),
            "traction": lambda x: freefield_traction(M, wave, OMEGA, x, n),
            "traction_half": lambda x: freefield_traction(M, wave, OMEGA, x, n,
                                                          half_plane=True),
        }

        def sampled(kind, columns):
            def call(x):
                s = scenario.Scenario(kind=kind, omega=OMEGA, wave=wave,
                                      points=tuple(map(tuple, np.reshape(x, (-1, 2)))),
                                      outputs=("displacement", "traction"), normal=n)
                out = tmp_path / "field.csv"
                scenario.run_scenario(s, M, str(out))
                rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
                return rows[:, columns].view(complex)
            return call

        for kind in ("freefield-full", "freefield-half"):
            for columns in (slice(2, 6), slice(6, 10)):
                calls[f"{kind} columns {columns}"] = sampled(kind, columns)
        for name, call in calls.items():
            rows = call(points)
            assert rows.shape == (len(points), 2), name
            for row, p in zip(rows, points):
                assert row.tobytes() == call(tuple(p)).tobytes(), (name, p)

    def test_sample_rows_peak_memory_per_point(self, tmp_path):
        # beyond one block, a sample run holds only the (N, 2) points: 16 bytes a point
        def peak(kind, n1):
            doc = {"schema_version": 1, "kind": kind, "omega": OMEGA,
                   "grid": {"x1": [-5.0, 5.0, n1], "x2": [-5.0, 0.0, scenario._BLOCK_ROWS]},
                   "outputs": ["displacement", "traction"], "normal": [0.0, 1.0]}
            if kind == "green-half":
                doc["source"] = [0.3, -7.0]
            else:
                doc["wave"] = {"mode": "S1", "amplitude": [1.0, 0.5], "phi": 0.7}
            s = scenario.parse_scenario(doc)
            tracemalloc.start()
            try:
                scenario.run_scenario(s, M, str(tmp_path / "field.csv"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for kind, (small, large) in {"green-half": (1, 2), "freefield-half": (4, 16)}.items():
            extra = (large - small) * scenario._BLOCK_ROWS
            assert (peak(kind, large) - peak(kind, small)) / extra <= 48.0, kind

    CALLS = {
        "incident": lambda x: fullplane_incident(M, WAVE1, OMEGA, x),
        "freefield": lambda x: halfplane_freefield(M, WAVE1, OMEGA, x),
        "stress": lambda x: freefield_stress(M, WAVE1, OMEGA, x)[0],
        "stress-half": lambda x: freefield_stress(M, WAVE1, OMEGA, x, half_plane=True)[0],
        "traction": lambda x: freefield_traction(M, WAVE1, OMEGA, x, (0.0, 1.0)),
        "traction-half": lambda x: freefield_traction(M, WAVE1, OMEGA, x, (0.0, 1.0),
                                                      half_plane=True),
    }

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2, 2), (3,), (1, 3), (0, 2)], ids=str)
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
    def test_point_shape(self, call, shape):
        # N points (N, 2), N = 0 included; anything else is one point, which must be a pair
        x = -np.ones(shape)  # inside the half-plane
        if shape == (0, 2):
            assert call(x).shape == (0, 2)
            return
        message = f"field point x must be a pair of numbers; got {x!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            call(x)

    @pytest.mark.parametrize("x", [[[1e-3, -1e-3], [2e-3]], [[-1.0, "b"]], ("a", "b"), "ab"],
                             ids=repr)
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
    def test_ragged_and_text_points(self, call, x):
        # numpy's own ValueError for these is read as one point that is not a pair
        message = f"field point x must be a pair of numbers; got {x!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            call(x)

    def test_shapes(self):
        x = (0.3, -0.4)
        f = halfplane_freefield(M, WAVE2, OMEGA, x)
        assert f.dtype == complex and f.shape == (2,)
        assert freefield_traction(M, WAVE2, OMEGA, x, (0.0, 1.0)).shape == (2,)
        sigma, h = freefield_stress(M, WAVE2, OMEGA, [x, x, x], half_plane=True)
        assert sigma.shape == h.shape == (3, 2)
        assert halfplane_freefield(M, WAVE2, OMEGA, [x]).shape == (1, 2)
