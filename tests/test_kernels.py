"""Fundamental solution: structure, gradients, stresses and tractions."""

import math

import numpy as np
import pytest

from qcwaves import (
    DomainError,
    IncidentWave,
    NonUnitNormal,
    QcMaterial,
    SourceCoincidesWithField,
    ValidationError,
    decompose,
    freefield_traction,
    fundamental_displacement,
    fundamental_gradient,
    fundamental_stress,
    fundamental_traction,
    green_displacement,
    green_traction,
    macdonald_k0_neg_i,
    macdonald_k1_neg_i,
    pde_residual,
    wave_parameters,
)

from strategies import omega_at, random_material
from test_material import rotation

M = QcMaterial(c44=4.0, R3=1.2, K2=2.5, rho=2.0)
OMEGA = 3.0
XI = (0.1, -0.3)


def test_decoupled_closed_form():
    # at R3 = 0 the kernel is diagonal with the two isotropic entries
    m = QcMaterial(c44=2.0, R3=0.0, K2=1.0, rho=1.0)
    omega, r = 1.0, 1.0
    v = fundamental_displacement(m, (r, 0.0), (0.0, 0.0), omega)
    assert v[0, 1] == 0.0 and v[1, 0] == 0.0
    k_u = omega * math.sqrt(m.rho / m.c44)
    k_w = omega * math.sqrt(m.rho / m.K2)
    u_iso = macdonald_k0_neg_i(k_u * r) / (2.0 * math.pi * m.c44)
    w_iso = macdonald_k0_neg_i(k_w * r) / (2.0 * math.pi * m.K2)
    assert abs(v[0, 0] - u_iso) <= 1e-12 * abs(u_iso)
    assert abs(v[1, 1] - w_iso) <= 1e-12 * abs(w_iso)


def test_symmetry_random_materials():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = random_material(rng)
        omega = omega_at(m, 10.0 ** rng.uniform(-3.0, 3.0))
        wp = wave_parameters(decompose(m), m.rho, omega)
        lam = 2.0 * math.pi / wp.k2
        x = rng.uniform(-lam, lam, size=2)
        xi = x + lam * rng.uniform(0.05, 1.0) * np.array(
            [math.cos(rng.uniform(0, 7)), math.sin(rng.uniform(0, 7))]
        )
        v = fundamental_displacement(m, x, xi, omega)
        scale = np.max(np.abs(v))
        assert abs(v[0, 1] - v[1, 0]) <= 1e-12 * scale
        v_swapped = fundamental_displacement(m, xi, x, omega)
        assert np.max(np.abs(v - v_swapped)) <= 1e-12 * scale


def test_source_coincides_with_field():
    with pytest.raises(SourceCoincidesWithField):
        fundamental_displacement(M, XI, XI, OMEGA)
    with pytest.raises(SourceCoincidesWithField):
        fundamental_gradient(M, (1.0, 1.0 + 1e-16), (1.0, 1.0), OMEGA)
    with pytest.raises(SourceCoincidesWithField):
        fundamental_displacement(M, (0.0, 0.0), (0.0, 0.0), OMEGA)


def test_coincidence_floor_scales_with_the_geometry():
    # v* depends on k r only: shrinking lengths and wavelength by 1e150 keeps it
    v = fundamental_displacement(M, (3e-150, -1e-150), (1e-150, 0.0), OMEGA * 1e150)
    ref = fundamental_displacement(M, (3.0, -1.0), (1.0, 0.0), OMEGA)
    assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("x, xi", [
    ((math.inf, 0.0), (0.0, 0.0)),  # an infinite coordinate: r = inf
    ((math.nan, 0.0), (0.0, 0.0)),  # a NaN coordinate: r = nan
    ((0.0, 0.0), (-1.7e308, -1.7e308)),  # finite points whose separation overflows
])
def test_non_finite_separation_is_a_named_domain_error(x, xi):
    with pytest.raises(DomainError, match=r"separation of x = .* and xi = .* is not finite"):
        fundamental_displacement(M, x, xi, OMEGA)


def test_coincidence_floor_does_not_overflow():
    # r = 1e307 is far above the floor, though 1e-12 * |x| overflows when the norm comes first
    v = fundamental_displacement(M, (1.7e308, 1.7e308), (1.7e308, 1.6e308), 1e-305)
    assert v.shape == (2, 2) and np.all(np.isfinite(v))


WRONG_SHAPES = {"three numbers": lambda v: (*v, 7.0), "one number": lambda v: v[:1],
                "(2, 3) array": lambda v: np.ones((2, 3))}


@pytest.mark.parametrize("shape", WRONG_SHAPES)
@pytest.mark.parametrize("f", [fundamental_displacement, fundamental_gradient, fundamental_stress,
                               fundamental_traction, green_displacement, green_traction],
                         ids=lambda f: f.__name__)
def test_points_and_normals_must_be_pairs(f, shape):
    args = {"x": (0.5, -2.0), "xi": (0.0, -1.0)}
    if f in (fundamental_traction, green_traction):
        args["n"] = (0.0, 1.0)
    for name in args:
        wrong = {**args, name: WRONG_SHAPES[shape](args[name])}
        with pytest.raises(ValidationError, match=rf"\b{name} must be a pair of numbers"):
            f(M, wrong["x"], wrong["xi"], OMEGA, *([wrong["n"]] if "n" in wrong else []))


@pytest.mark.parametrize("x", [(1.0, -2.0, 7.0), (1.0,), np.ones((2, 3)), [[1.0, -2.0], [3.0]],
                               ("a", "b"), 5.0], ids=repr)
def test_a_wrong_field_point_reads_the_same_in_both_families(x):
    # the full-plane kernels and the half-plane Green's functions share one pair rule
    messages = set()
    for f in (fundamental_displacement, green_displacement):
        with pytest.raises(ValidationError) as info:
            f(M, x, (0.0, -1.0), OMEGA)
        messages.add(str(info.value))
    for f in (fundamental_traction, green_traction):
        with pytest.raises(ValidationError) as info:
            f(M, x, (0.0, -1.0), OMEGA, (0.0, 1.0))
        messages.add(str(info.value))
    assert messages == {f"field point x must be a pair of numbers; got {x!r}"}


def fd_error(fd: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """|fd - grad| relative to each entry of grad; an entry that is exactly zero (off the
    diagonal at R3 = 0) is held to |fd| itself."""
    return np.abs(fd - grad) / np.where(grad == 0.0, 1.0, np.abs(grad))


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            m = random_material(rng)
            omega = omega_at(m, 10.0 ** rng.uniform(-3.0, 3.0))
            wp = wave_parameters(decompose(m), m.rho, omega)
            r = rng.uniform(0.3, 3.0) / wp.k2
            theta = rng.uniform(0.0, 2.0 * math.pi)
            x = (XI[0] + r * math.cos(theta), XI[1] + r * math.sin(theta))
            grad = fundamental_gradient(m, x, XI, omega)
            h = r * 1e-6
            for j, e in enumerate([(h, 0.0), (0.0, h)]):
                vp = fundamental_displacement(m, (x[0] + e[0], x[1] + e[1]), XI, omega)
                vm = fundamental_displacement(m, (x[0] - e[0], x[1] - e[1]), XI, omega)
                fd = (vp - vm) / (2.0 * h)
                assert np.max(fd_error(fd, grad[:, :, j])) < 1e-5

    def test_odd_under_reflection(self):
        x = (1.3, 0.4)
        mirrored = (2.0 * XI[0] - x[0], 2.0 * XI[1] - x[1])
        g_plus = fundamental_gradient(M, x, XI, OMEGA)
        g_minus = fundamental_gradient(M, mirrored, XI, OMEGA)
        assert np.max(np.abs(g_plus + g_minus)) <= 1e-12 * np.max(np.abs(g_plus))

    def test_decoupled_mixed_entries_vanish(self):
        m = QcMaterial(c44=2.0, R3=0.0, K2=1.0, rho=1.0)
        grad = fundamental_gradient(m, (0.7, 0.2), (0.0, 0.0), 2.0)
        assert np.all(grad[0, 1, :] == 0.0)
        assert np.all(grad[1, 0, :] == 0.0)


class TestStress:
    def test_contraction_against_explicit_loops(self):
        rng = np.random.default_rng(31)
        c = M.matrix()
        for _ in range(5):
            x = XI + rng.uniform(0.2, 2.0, size=2)
            sigma, h_stress = fundamental_stress(M, x, XI, OMEGA)
            grad = fundamental_gradient(M, x, XI, OMEGA)
            for i in range(2):
                for j in range(2):
                    sig_ref = c[0, 0] * grad[0, i, j] + c[0, 1] * grad[1, i, j]
                    h_ref = c[1, 0] * grad[0, i, j] + c[1, 1] * grad[1, i, j]
                    assert sigma[i, j] == pytest.approx(sig_ref, rel=1e-14)
                    assert h_stress[i, j] == pytest.approx(h_ref, rel=1e-14)

    def test_decoupled_rows_vanish(self):
        m = QcMaterial(c44=2.0, R3=0.0, K2=1.0, rho=1.0)
        sigma, h_stress = fundamental_stress(m, (0.9, -0.4), (0.0, 0.0), 2.0)
        assert np.all(sigma[1, :] == 0.0)  # phason load produces no phonon stress
        assert np.all(h_stress[0, :] == 0.0)

    def test_material_scaling(self):
        # doubling all moduli and the density leaves k1, k2 and the stresses
        # unchanged and halves the displacements
        m2 = QcMaterial(c44=2 * M.c44, R3=2 * M.R3, K2=2 * M.K2, rho=2 * M.rho)
        x = (1.1, 0.6)
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        wp2 = wave_parameters(decompose(m2), m2.rho, OMEGA)
        assert wp2.k1 == pytest.approx(wp.k1, rel=1e-14)
        assert wp2.k2 == pytest.approx(wp.k2, rel=1e-14)
        v1 = fundamental_displacement(M, x, XI, OMEGA)
        v2 = fundamental_displacement(m2, x, XI, OMEGA)
        assert np.max(np.abs(2.0 * v2 - v1)) <= 1e-12 * np.max(np.abs(v1))
        s1, h1 = fundamental_stress(M, x, XI, OMEGA)
        s2, h2 = fundamental_stress(m2, x, XI, OMEGA)
        assert np.max(np.abs(s2 - s1)) <= 1e-12 * np.max(np.abs(s1))
        assert np.max(np.abs(h2 - h1)) <= 1e-12 * np.max(np.abs(h1))


class TestTraction:
    def test_axis_aligned_normal_selects_one_direction(self):
        x = (XI[0] + 0.8, XI[1])
        t = fundamental_traction(M, x, XI, OMEGA, (1.0, 0.0))
        sigma, h_stress = fundamental_stress(M, x, XI, OMEGA)
        assert np.all(t[0] == sigma[:, 0])
        assert np.all(t[1] == h_stress[:, 0])

    def test_non_unit_normal_rejected(self):
        with pytest.raises(NonUnitNormal):
            fundamental_traction(M, (1.0, 1.0), XI, OMEGA, (1.0, 1.0))

    @pytest.mark.parametrize("n", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_normal_rejected(self, n):
        # |n| - 1 = nan compares false against any tolerance
        with pytest.raises(NonUnitNormal):
            fundamental_traction(M, (1e-3, 0.0), (0.0, 0.0), 1e6, n)
        with pytest.raises(NonUnitNormal):
            green_traction(M, (1e-3, 0.0), (0.0, -1e-3), 1e6, n)
        with pytest.raises(NonUnitNormal):
            freefield_traction(M, IncidentWave("S1", 1.0, 0.6), 1e6, (1e-3, -1e-3), n)

    def test_normal_tolerance(self):
        n = (math.cos(0.3), math.sin(0.3))
        fundamental_traction(M, (1.0, 1.0), XI, OMEGA, n)


def algebra_cases(count=200, seed=41):
    """(material, omega, x, xi, theta) with the materials of tests/strategies.py (a third at
    R3 = 0, where psi is 0 or pi/2 as c44 >= K2 or not) and k2 r from 0.1 to 300, so both
    cylinder-function branches are sampled."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = random_material(rng)
        omega = omega_at(m, 10.0 ** rng.uniform(-3.0, 3.0))
        r = 10.0 ** rng.uniform(-1.0, 2.5) / wave_parameters(decompose(m), m.rho, omega).k2
        theta = rng.uniform(0.0, 2.0 * math.pi)
        xi = rng.uniform(-1.0, 1.0, size=2) * r
        yield m, omega, xi + r * np.array([math.cos(theta), math.sin(theta)]), xi, theta


class TestScalarAlgebra:
    """The scalar modal form against the matrix product it replaces."""

    def test_cases_reach_both_branches(self):
        kr = []
        for m, omega, x, xi, _ in algebra_cases():
            wp = wave_parameters(decompose(m), m.rho, omega)
            kr += [wp.k1 * math.dist(x, xi), wp.k2 * math.dist(x, xi)]
        assert sum(v <= 4.0 for v in kr) > 100 and sum(v > 4.0 for v in kr) > 100

    def test_matches_rotation_matrix_product(self):
        for m, omega, x, xi, _ in algebra_cases():
            d = decompose(m)
            wp = wave_parameters(d, m.rho, omega)
            q = rotation(d)
            r = math.dist(x, xi)
            f = [macdonald_k0_neg_i(k * r) / (2.0 * math.pi * a)
                 for k, a in ((wp.k1, d.a1), (wp.k2, d.a2))]
            g = [1j * k * macdonald_k1_neg_i(k * r) / (2.0 * math.pi * a)
                 for k, a in ((wp.k1, d.a1), (wp.k2, d.a2))]
            v_ref = q @ np.diag(f) @ q.T
            core = q @ np.diag(g) @ q.T
            grad_ref = np.stack([core * ((x[0] - xi[0]) / r), core * ((x[1] - xi[1]) / r)],
                                axis=-1)
            v = fundamental_displacement(m, x, xi, omega)
            grad = fundamental_gradient(m, x, xi, omega)
            assert v.shape == (2, 2) and grad.shape == (2, 2, 2)
            assert v.dtype == grad.dtype == np.complex128
            assert v[0, 1] == v[1, 0]
            assert np.max(np.abs(v - v_ref)) <= 2e-15 * np.max(np.abs(v_ref))
            assert np.max(np.abs(grad - grad_ref)) <= 2e-15 * np.max(np.abs(grad_ref))

    def test_traction_is_the_stress_contraction(self):
        for m, omega, x, xi, theta in algebra_cases():
            n = (math.cos(2.0 * theta + 1.0), math.sin(2.0 * theta + 1.0))
            sigma, h_stress = fundamental_stress(m, x, xi, omega)
            t = fundamental_traction(m, x, xi, omega, n)
            assert np.all(t[0] == sigma[:, 0] * n[0] + sigma[:, 1] * n[1])
            assert np.all(t[1] == h_stress[:, 0] * n[0] + h_stress[:, 1] * n[1])


def test_pde_residual_away_from_source():
    wp = wave_parameters(decompose(M), M.rho, OMEGA)
    for mode, k in (("S1", wp.k1), ("S2", wp.k2)):
        for r_frac in (0.1, 0.5, 2.0):  # of the mode's own wavelength
            r = r_frac * 2.0 * math.pi / k
            at = (XI[0] + r / math.sqrt(2.0), XI[1] + r / math.sqrt(2.0))
            for col in (0, 1):
                assert pde_residual(
                    lambda p, col=col: fundamental_displacement(M, p, XI, OMEGA)[:, col],
                    M, OMEGA, at, mode,
                ) < 1e-4


def test_radiation_decay():
    # cylindrical radiation over k*r in [10, 100]: |entry|*sqrt(r) stays
    # bounded (mode beating wobbles it by a few percent, and the Hankel
    # amplitude approaches its asymptote from below, so no literal
    # monotonicity), the unscaled entries decay ~1/sqrt(r) trendwise, and
    # the modal amplitudes match sqrt(2/(pi k_i))/(4 a_i) closely (the fast
    # mode only reaches k1*r ~ 6 at the low end, hence 2.5e-3)
    d = decompose(M)
    wp = wave_parameters(d, M.rho, OMEGA)
    q = rotation(d)
    radii = np.logspace(math.log10(10.0 / wp.k2), math.log10(100.0 / wp.k2), 400)
    scaled = np.empty((4, radii.size))
    raw = np.empty((4, radii.size))
    modal = np.empty((2, radii.size))
    for idx, r in enumerate(radii):
        v = fundamental_displacement(M, (XI[0] + r, XI[1]), XI, OMEGA)
        raw[:, idx] = np.abs(v).ravel()
        scaled[:, idx] = raw[:, idx] * math.sqrt(r)
        modal[:, idx] = np.abs(np.diag(q.T @ v @ q)) * math.sqrt(r)
    quarter = radii.size // 4
    for row in scaled:
        assert np.all(row <= 1.1 * row[:quarter].max())
    for row in raw:
        window_means = [row[i * quarter:(i + 1) * quarter].mean() for i in range(4)]
        assert all(b < a for a, b in zip(window_means, window_means[1:]))
    for mode, k_mode, a_mode in ((0, wp.k1, d.a1), (1, wp.k2, d.a2)):
        limit = math.sqrt(2.0 / (math.pi * k_mode)) / (4.0 * a_mode)
        assert np.all(np.abs(modal[mode] / limit - 1.0) < 2.5e-3)
