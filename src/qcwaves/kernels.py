"""Full-plane fundamental solution of the coupled anti-plane system.

The displacement kernel is the 2x2 complex matrix

    v*(x, xi, omega) = Q diag(f1(r), f2(r)) Q^T,
    f_i(r) = K0(-i k_i r) / (2 pi a_i) = (i / (4 a_i)) H0^(1)(k_i r),

where r = |x - xi|, (a_i, Q) come from the spectral decomposition of the
material matrix and k_i = omega sqrt(rho / a_i). Rows index the field
component (phonon u3, phason w3), columns the point-load component
(phonon load, phason load); the matrix is symmetric by construction.

Gradients are taken with respect to the field point x, with r_j = x_j - xi_j:

    d v*/d x_j = Q diag(f1'(r), f2'(r)) Q^T * (r_j / r),
    f_i'(r) = i k_i K1(-i k_i r) / (2 pi a_i),

from which stresses and tractions follow by contraction with the material
matrix and the unit normal:

    sigma_3ij = c44 u*_3i,j + R3 w*_3i,j,   t_3i = sigma_3ij n_j,
    H_3ij     = R3 u*_3i,j + K2 w*_3i,j,    G_3i = H_3ij n_j.

The time convention is e^(-i omega t), implied by the outgoing H^(1) kernel;
it is documented here and not configurable. The kernel is log-singular at
r = 0: evaluation requires r > 1e-12 * (1 + |x|), below which
SourceCoincidesWithField is raised (no regularized self-term is provided).
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonUnitNormal, SourceCoincidesWithField
from .material import QcMaterial, decompose, wave_parameters
from .specfun import macdonald_k0_neg_i, macdonald_k1_neg_i

__all__ = [
    "check_normal",
    "fundamental_displacement",
    "fundamental_gradient",
    "fundamental_stress",
    "fundamental_traction",
    "separation",
]

TWO_PI = 2.0 * math.pi


def separation(x, xi) -> tuple[float, float, float]:
    """Return (r1, r2, r) with r_j = x_j - xi_j and r = |x - xi|."""
    r1 = float(x[0]) - float(xi[0])
    r2 = float(x[1]) - float(xi[1])
    return r1, r2, math.hypot(r1, r2)


def _check_r(r: float, x) -> None:
    r_min = 1e-12 * (1.0 + math.hypot(float(x[0]), float(x[1])))
    if r <= r_min:
        raise SourceCoincidesWithField(
            f"field point within {r_min:g} of the source (r = {r:g})"
        )


def check_normal(n) -> tuple[float, float]:
    """Return n as (n1, n2); raise NonUnitNormal unless |n| = 1 to 1e-12."""
    n1, n2 = float(n[0]), float(n[1])
    if abs(math.hypot(n1, n2) - 1.0) > 1e-12:
        raise NonUnitNormal(f"normal {n} does not have unit length")
    return n1, n2


def fundamental_displacement(m: QcMaterial, x, xi, omega: float) -> np.ndarray:
    """Displacement kernel v*(x, xi, omega) as a 2x2 complex array.

    Entry [f, i] is the field component f (0 = phonon u3, 1 = phason w3) due
    to a unit time-harmonic point load in component i at xi.
    """
    d = decompose(m)
    wp = wave_parameters(d, m.rho, omega)
    _, _, r = separation(x, xi)
    _check_r(r, x)
    f1 = macdonald_k0_neg_i(wp.k1 * r) / (TWO_PI * d.a1)
    f2 = macdonald_k0_neg_i(wp.k2 * r) / (TWO_PI * d.a2)
    q = d.rotation()
    return q @ np.diag([f1, f2]) @ q.T


def fundamental_gradient(m: QcMaterial, x, xi, omega: float) -> np.ndarray:
    """Field-point gradient of v*, shape (2, 2, 2).

    Index order is [field component, load component, derivative direction j];
    differentiation is with respect to x_j.
    """
    d = decompose(m)
    wp = wave_parameters(d, m.rho, omega)
    r1, r2, r = separation(x, xi)
    _check_r(r, x)
    g1 = 1j * wp.k1 * macdonald_k1_neg_i(wp.k1 * r) / (TWO_PI * d.a1)
    g2 = 1j * wp.k2 * macdonald_k1_neg_i(wp.k2 * r) / (TWO_PI * d.a2)
    q = d.rotation()
    core = q @ np.diag([g1, g2]) @ q.T
    grad = np.empty((2, 2, 2), dtype=complex)
    grad[:, :, 0] = core * (r1 / r)
    grad[:, :, 1] = core * (r2 / r)
    return grad


def fundamental_stress(m: QcMaterial, x, xi, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Stresses (sigma, H) of the fundamental solution, each shape (2, 2).

    sigma[i, j] = c44 u*_3i,j + R3 w*_3i,j and H[i, j] = R3 u*_3i,j +
    K2 w*_3i,j, with i the load component and j the derivative direction.
    """
    grad = fundamental_gradient(m, x, xi, omega)
    sigma = m.c44 * grad[0] + m.R3 * grad[1]
    h = m.R3 * grad[0] + m.K2 * grad[1]
    return sigma, h


def fundamental_traction(m: QcMaterial, x, xi, omega: float, n) -> np.ndarray:
    """Traction kernel for unit normal n, shape (2, 2).

    Row 0 holds the phonon tractions t_3i = sigma_3ij n_j, row 1 the phason
    tractions G_3i = H_3ij n_j; columns index the load component i.
    """
    n1, n2 = check_normal(n)
    sigma, h = fundamental_stress(m, x, xi, omega)
    t = np.empty((2, 2), dtype=complex)
    t[0] = sigma[:, 0] * n1 + sigma[:, 1] * n2
    t[1] = h[:, 0] * n1 + h[:, 1] * n2
    return t
