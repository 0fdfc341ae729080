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
    f_i'(r) = i k_i K1(-i k_i r) / (2 pi a_i).

The stresses sigma_3ij = c44 u*_3i,j + R3 w*_3i,j, H_3ij = R3 u*_3i,j + K2 w*_3i,j and the
tractions t_3i = sigma_3ij n_j, G_3i = H_3ij n_j take the modal form: C = Q diag(a1, a2) Q^T,
so [sigma; H] = Q diag(a1 f1', a2 f2') Q^T (r_j / r), with no c44/R3/K2 sums to cancel when
a2 << a1: error <= 8 eps max(1, k2 r) |largest entry| (50-digit reference, any valid C).

Each entry is a scalar product on (c, s) = (cos psi, sin psi): Q diag(f1, f2) Q^T has entries
c^2 f1 + s^2 f2, cs (f1 - f2) (twice, so symmetric bit for bit) and s^2 f1 + c^2 f2, and the
traction contracts the very stress entries fundamental_stress returns (the *_entries functions).

The time convention is e^(-i omega t), implied by the outgoing H^(1) kernel;
it is documented here and not configurable. The kernel is log-singular at
r = 0: evaluation requires r > max(|1e-12 x|, |1e-12 xi|), a floor relative to
the coordinates (so it holds at any length scale, and r = 0 is always
rejected), below which SourceCoincidesWithField is raised (no regularized
self-term is provided). The coordinates are scaled before the norm, so the
floor cannot overflow. A separation that is not finite (an infinite or NaN
coordinate, or r beyond the float range) raises DomainError. _pair is the one rule
that a point, source or normal is a pair of numbers, with a ValidationError naming the
argument; _points reads x of shape (N, 2) as N points, and any other x through _pair.
All functions are pure and safe to call concurrently: the memos of
decompose and wave_parameters only ever return what a fresh call would.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonUnitNormal, SourceCoincidesWithField, ValidationError
from .material import QcMaterial, SpectralDecomposition, decompose, wave_parameters
from .specfun import macdonald_k0_neg_i, macdonald_k1_neg_i

__all__ = [
    "check_normal",
    "fundamental_displacement",
    "fundamental_gradient",
    "fundamental_stress",
    "fundamental_traction",
]

TWO_PI = 2.0 * math.pi


def _pair(v, name: str) -> tuple[float, float]:
    """v as (v1, v2): the one rule that a point, source, normal or stencil centre is a pair
    of numbers. Anything else raises a ValidationError naming it."""
    try:
        v1, v2 = v
        return float(v1), float(v2)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a pair of numbers; got {v!r}") from None


def _points(x, name: str) -> tuple[np.ndarray, bool]:
    """x as (N, 2) float points, and whether it was one point: x of shape (N, 2) is N
    points, and anything else one point, which _pair reads (and names if it is not a pair)."""
    try:
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 2 and pts.shape[1] == 2:
            return pts, False
    except (TypeError, ValueError):  # ragged or not numbers: not N points
        pass
    return np.array([_pair(x, name)]), True


def _separation(x, xi) -> tuple[float, float, float]:
    x1, x2 = _pair(x, "field point x")
    xi1, xi2 = _pair(xi, "source xi")
    r1, r2 = x1 - xi1, x2 - xi2
    r = math.hypot(r1, r2)
    r_min = max(math.hypot(1e-12 * x1, 1e-12 * x2), math.hypot(1e-12 * xi1, 1e-12 * xi2))
    if not r < math.inf:
        raise DomainError(f"separation of x = {(x1, x2)} and xi = {(xi1, xi2)} is not finite")
    if r <= r_min:
        raise SourceCoincidesWithField(f"field point within {r_min:g} of the source (r = {r:g})")
    return r1, r2, r


def check_normal(n) -> tuple[float, float]:
    """Return n as (n1, n2); raise NonUnitNormal unless |n| = 1 to 1e-12."""
    n1, n2 = _pair(n, "normal n")
    if not abs(math.hypot(n1, n2) - 1.0) <= 1e-12:
        raise NonUnitNormal(f"normal {n} does not have unit length")
    return n1, n2


def _modal(d: SpectralDecomposition, f1: complex, f2: complex) -> tuple[complex, complex, complex]:
    """Entries (v11, v12, v22) of the symmetric Q diag(f1, f2) Q^T."""
    c, s = d.cos_psi, d.sin_psi
    return c * c * f1 + s * s * f2, c * s * (f1 - f2), s * s * f1 + c * c * f2


def _symmetric(v11: complex, v12: complex, v22: complex) -> np.ndarray:
    return np.array([v11, v12, v12, v22], dtype=complex).reshape(2, 2)


def _displacement_entries(m: QcMaterial, x, xi, omega: float) -> tuple[complex, complex, complex]:
    """Entries (v11, v12, v22) of fundamental_displacement."""
    d = decompose(m)
    wp = wave_parameters(d, m.rho, omega)
    r = _separation(x, xi)[2]
    return _modal(d, macdonald_k0_neg_i(wp.k1 * r) / (TWO_PI * d.a1),
                  macdonald_k0_neg_i(wp.k2 * r) / (TWO_PI * d.a2))


def fundamental_displacement(m: QcMaterial, x, xi, omega: float) -> np.ndarray:
    """Displacement kernel v*(x, xi, omega) as a 2x2 complex array.

    Entry [f, i] is the field component f (0 = phonon u3, 1 = phason w3) due
    to a unit time-harmonic point load in component i at xi.
    """
    return _symmetric(*_displacement_entries(m, x, xi, omega))


def _gradient(m: QcMaterial, x, xi, omega: float, stress: bool = False):
    """(g11, g12, g22, e1, e2): Q diag(f1', f2') Q^T (stress: a_i f_i') entries, (r1, r2) / r."""
    d = decompose(m)
    wp = wave_parameters(d, m.rho, omega)
    r1, r2, r = _separation(x, xi)
    a1, a2 = (1.0, 1.0) if stress else (d.a1, d.a2)
    g11, g12, g22 = _modal(d, 1j * wp.k1 * macdonald_k1_neg_i(wp.k1 * r) / (TWO_PI * a1),
                           1j * wp.k2 * macdonald_k1_neg_i(wp.k2 * r) / (TWO_PI * a2))
    return g11, g12, g22, r1 / r, r2 / r


def fundamental_gradient(m: QcMaterial, x, xi, omega: float) -> np.ndarray:
    """Field-point gradient of v*, shape (2, 2, 2).

    Index order is [field component, load component, derivative direction j];
    differentiation is with respect to x_j.
    """
    g11, g12, g22, e1, e2 = _gradient(m, x, xi, omega)
    return np.array((((g11 * e1, g11 * e2), (g12 * e1, g12 * e2)),
                     ((g12 * e1, g12 * e2), (g22 * e1, g22 * e2))))


def fundamental_stress(m: QcMaterial, x, xi, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Stresses (sigma, H) of the fundamental solution, each shape (2, 2).

    sigma[i, j] = c44 u*_3i,j + R3 w*_3i,j and H[i, j] = R3 u*_3i,j +
    K2 w*_3i,j, with i the load component and j the derivative direction.
    """
    m11, m12, m22, e1, e2 = _gradient(m, x, xi, omega, stress=True)
    return (np.array([[m11 * e1, m11 * e2], [m12 * e1, m12 * e2]]),
            np.array([[m12 * e1, m12 * e2], [m22 * e1, m22 * e2]]))


def _traction_entries(m: QcMaterial, x, xi, omega: float, n1: float, n2: float):
    """Entries (t11, t12, t22) of fundamental_traction for the unit normal (n1, n2)."""
    m11, m12, m22, e1, e2 = _gradient(m, x, xi, omega, stress=True)
    return (m11 * e1 * n1 + m11 * e2 * n2, m12 * e1 * n1 + m12 * e2 * n2,
            m22 * e1 * n1 + m22 * e2 * n2)


def fundamental_traction(m: QcMaterial, x, xi, omega: float, n) -> np.ndarray:
    """Traction kernel for unit normal n, shape (2, 2), symmetric.

    Row 0 holds the phonon tractions t_3i = sigma_3ij n_j, row 1 the phason
    tractions G_3i = H_3ij n_j; columns index the load component i.
    """
    return _symmetric(*_traction_entries(m, x, xi, omega, *check_normal(n)))
