"""Half-plane Green's function and its traction-free boundary."""

import math

import numpy as np
import pytest

from qcwaves import (
    PointOutsideHalfPlane,
    QcMaterial,
    SourceOnBoundary,
    SourceOutsideHalfPlane,
    decompose,
    fundamental_displacement,
    fundamental_traction,
    green_displacement,
    green_traction,
    image_point,
    macdonald_k0_neg_i,
    pde_residual,
    wave_parameters,
)

from qcwaves.halfplane import check_field_point
from test_material import random_material

M = QcMaterial(c44=4.0, R3=1.2, K2=2.5, rho=2.0)
OMEGA = 3.0


class TestImagePoint:
    def test_mirror(self):
        assert image_point((1.0, -2.0)) == (1.0, 2.0)
        assert image_point((0.0, -1e-9)) == (0.0, 1e-9)

    def test_source_on_boundary(self):
        with pytest.raises(SourceOnBoundary):
            image_point((0.0, 0.0))

    def test_source_outside(self):
        with pytest.raises(SourceOutsideHalfPlane):
            image_point((0.0, 0.5))


def raised(x):
    """(type, message) of what check_field_point(x) raises, or None."""
    try:
        check_field_point(x)
    except Exception as exc:  # any type: the comparison is the test
        return type(exc), str(exc)
    return None


class TestCheckFieldPoint:
    @pytest.mark.parametrize("x2", [0.0, -0.0, 1e-300, math.nan, -1.5])
    def test_one_point_as_the_array_branch(self, x2):
        expected = raised(np.array([[0.25, x2]]))
        assert (expected is None) == (not x2 > 0.0)
        for pair in ((0.25, x2), [0.25, x2], np.array([0.25, x2]),
                     (np.float64(0.25), np.float64(x2))):
            assert raised(pair) == expected, pair

    def test_two_points_are_not_one_pair(self):
        with pytest.raises(PointOutsideHalfPlane, match=r"\(1.0, 2.0\)"):
            check_field_point([[0.0, -1.0], [1.0, 2.0]])
        with pytest.raises(PointOutsideHalfPlane, match=r"\(1.0, 2.0\)"):
            check_field_point(np.array([[0.0, -1.0], [1.0, 2.0]]))


class TestGreenDisplacement:
    def test_is_sum_of_direct_and_image_kernels(self):
        x, xi = (0.7, -0.2), (0.3, -1.1)
        g = green_displacement(M, x, xi, OMEGA)
        direct = fundamental_displacement(M, x, xi, OMEGA)
        image = fundamental_displacement(M, x, image_point(xi), OMEGA)
        assert np.all(g == direct + image)

    def test_boundary_evaluation_doubles_the_kernel(self):
        # on x2 = 0: r = r~, so g* = 2 v*
        x, xi = (2.2, 0.0), (0.4, -1.7)
        g = green_displacement(M, x, xi, OMEGA)
        v = fundamental_displacement(M, x, xi, OMEGA)
        assert np.max(np.abs(g - 2.0 * v)) <= 1e-15 * np.max(np.abs(v))

    def test_decoupled_closed_form(self):
        # R3 = 0: image sum of the two isotropic kernels, coded directly
        m = QcMaterial(c44=2.0, R3=0.0, K2=1.0, rho=1.0)
        omega = 3.0
        xi = (0.2, -0.8)
        k_u = omega * math.sqrt(m.rho / m.c44)
        k_w = omega * math.sqrt(m.rho / m.K2)
        rng = np.random.default_rng(37)
        points = [(rng.uniform(-2, 2), rng.uniform(-2, 0)) for _ in range(20)]
        points.append((1.5, 0.0))  # boundary point exercises the r = r~ branch
        for x in points:
            r = math.hypot(x[0] - xi[0], x[1] - xi[1])
            r_im = math.hypot(x[0] - xi[0], x[1] + xi[1])
            g = green_displacement(m, x, xi, omega)
            u_ref = (macdonald_k0_neg_i(k_u * r) + macdonald_k0_neg_i(k_u * r_im)) / (
                2.0 * math.pi * m.c44
            )
            w_ref = (macdonald_k0_neg_i(k_w * r) + macdonald_k0_neg_i(k_w * r_im)) / (
                2.0 * math.pi * m.K2
            )
            assert abs(g[0, 0] - u_ref) <= 1e-12 * abs(u_ref)
            assert abs(g[1, 1] - w_ref) <= 1e-12 * abs(w_ref)
            assert g[0, 1] == 0.0 and g[1, 0] == 0.0

    def test_deep_interior_limit(self):
        # far from the boundary the image contribution decays like the
        # Hankel amplitude ratio sqrt(r/r~)
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        lam = 2.0 * math.pi / wp.k2
        xi = (0.0, -20.0 * lam)
        for x in ((0.5 * lam, -22.0 * lam), (-lam, -17.0 * lam)):
            g = green_displacement(M, x, xi, OMEGA)
            v = fundamental_displacement(M, x, xi, OMEGA)
            r = math.hypot(x[0] - xi[0], x[1] - xi[1])
            r_im = math.hypot(x[0] - xi[0], x[1] + xi[1])
            rel = np.linalg.norm(g - v) / np.linalg.norm(v)
            assert rel < math.sqrt(r / r_im) * 1.1

    def test_domain_checks(self):
        with pytest.raises(PointOutsideHalfPlane):
            green_displacement(M, (0.0, 0.1), (0.0, -1.0), OMEGA)
        with pytest.raises(SourceOnBoundary):
            green_displacement(M, (1.0, -1.0), (0.0, 0.0), OMEGA)
        with pytest.raises(SourceOutsideHalfPlane):
            green_displacement(M, (1.0, -1.0), (0.0, 2.0), OMEGA)

    def test_pde_residual_away_from_source_and_image(self):
        wp = wave_parameters(decompose(M), M.rho, OMEGA)
        lam = 2.0 * math.pi / wp.k2
        xi = (0.0, -0.8 * lam)
        at = (0.6 * lam, -0.3 * lam)
        r = min(math.hypot(at[0] - xi[0], at[1] - xi[1]),
                math.hypot(at[0] - xi[0], at[1] + xi[1]))
        for col in (0, 1):
            rep = pde_residual(
                lambda p, col=col: green_displacement(M, p, xi, OMEGA)[:, col],
                M, OMEGA, at, h=min(lam, r) / 400.0,
            )
            assert rep.relative_residual < 1e-4

    def test_reflection_symmetry_in_x1(self):
        # dependence on x1 only through |x1 - xi1|
        axis = 0.37
        x, xi = (1.4, -0.5), (0.2, -1.3)
        x_ref = (2.0 * axis - x[0], x[1])
        xi_ref = (2.0 * axis - xi[0], xi[1])
        g = green_displacement(M, x, xi, OMEGA)
        g_ref = green_displacement(M, x_ref, xi_ref, OMEGA)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g))


class TestGreenTraction:
    def test_traction_free_boundary(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = random_material(rng)
            omega = 10.0 ** rng.uniform(-1.0, 3.0)
            wp = wave_parameters(decompose(m), m.rho, omega)
            lam = 2.0 * math.pi / wp.k2
            xi = (rng.uniform(-lam, lam), -rng.uniform(0.05, 2.0) * lam)
            for x1 in np.linspace(xi[0] - 4.0 * lam, xi[0] + 4.0 * lam, 50):
                x = (float(x1), 0.0)
                total = green_traction(m, x, xi, omega, (0.0, 1.0))
                single = fundamental_traction(m, x, xi, omega, (0.0, 1.0))
                assert np.max(np.abs(total)) <= 1e-10 * np.max(np.abs(single))

    def test_interior_composition(self):
        # independent summation of the two fundamental tractions
        x, xi, n = (1.1, -0.4), (0.3, -1.5), (1.0, 0.0)
        t = green_traction(M, x, xi, OMEGA, n)
        ref = fundamental_traction(M, x, xi, OMEGA, n) + fundamental_traction(
            M, x, image_point(xi), OMEGA, n
        )
        assert np.all(t == ref)

    def test_decoupled_off_diagonals_vanish(self):
        m = QcMaterial(c44=2.0, R3=0.0, K2=1.0, rho=1.0)
        t = green_traction(m, (0.9, -0.1), (0.0, -1.0), 2.0, (0.0, 1.0))
        assert t[0, 1] == 0.0 and t[1, 0] == 0.0
