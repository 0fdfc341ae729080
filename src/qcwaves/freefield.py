"""Incident and reflected plane-wave solutions (free fields).

The coupled system supports two plane shear modes whose polarization in
(u3, w3) space is fixed by the material alone: the fast S1 mode travels
along the a1 eigenvector (cos psi, sin psi) with wavenumber k1, the slow S2
mode along (-sin psi, cos psi) with k2. In contrast to the isotropic case
the polarization does not depend on the incidence angle.

Full plane:

    (u3, w3) = A zeta exp(i k (x1 cos phi + x2 sin phi)),

with phi in (0, pi/2) measured so that the propagation direction is exactly
(cos phi, sin phi) as it appears in the exponent. In the half-plane x2 < 0
the free field adds the boundary-reflected wave,

    (u3, w3) = A zeta (exp(i k (x1 cos phi + x2 sin phi))
                       + exp(i k (x1 cos phi - x2 sin phi))),

whose traction on x2 = 0 vanishes identically: the x2-derivative of the
bracket is proportional to the difference of the two exponentials, which is
exactly zero on the boundary. Stresses are computed from the analytic
derivatives of the exponentials, so the dispersion relation
k_mode^2 = rho omega^2 / a_mode makes the equations of motion hold to
round-off. Grazing and normal incidence (phi = 0, pi/2) are rejected.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Checks are called through their modules, as in scenario.py.
from . import halfplane, kernels
from .errors import DomainError
from .material import QcMaterial, decompose, wave_parameters

__all__ = [
    "IncidentWave",
    "FieldValue",
    "mode_vector",
    "fullplane_incident",
    "halfplane_freefield",
    "freefield_stress",
    "freefield_traction",
]

MODES = ("S1", "S2")


@dataclass(frozen=True)
class IncidentWave:
    """A single incident plane shear wave.

    Attributes:
        mode: "S1" (fast) or "S2" (slow)
        amplitude: complex amplitude A [m]
        phi: incidence angle [rad], strictly inside (0, pi/2)
    """

    mode: str
    amplitude: complex
    phi: float

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}; got {self.mode!r}")
        if not (0.0 < self.phi < 0.5 * math.pi):
            raise ValueError(
                f"incidence angle must lie strictly inside (0, pi/2); got {self.phi}"
            )
        if not cmath.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite; got {self.amplitude}")


@dataclass(frozen=True)
class FieldValue:
    """Complex phonon and phason displacements at one point."""

    u3: complex
    w3: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.u3, self.w3])


def mode_vector(m: QcMaterial, mode: str) -> np.ndarray:
    """Unit polarization vector of a mode: Q column 1 for S1, column 2 for S2."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}; got {mode!r}")
    d = decompose(m)
    if mode == "S1":
        return np.array([d.cos_psi, d.sin_psi])
    return np.array([-d.sin_psi, d.cos_psi])


def _wave_setup(m: QcMaterial, wave: IncidentWave, omega: float):
    d = decompose(m)
    wp = wave_parameters(d, m.rho, omega)
    k = wp.k1 if wave.mode == "S1" else wp.k2
    zeta = mode_vector(m, wave.mode)
    return k, zeta


def _phase(k: float, t: float) -> complex:
    """exp(i k t); DomainError where k t leaves the float range."""
    kt = k * t
    if not (-math.inf < kt < math.inf):
        raise DomainError(f"plane-wave phase k * t = {kt} is not finite (k = {k:g}, t = {t:g})")
    return cmath.exp(1j * kt)


def fullplane_incident(m: QcMaterial, wave: IncidentWave, omega: float, x) -> FieldValue:
    """Incident plane wave in the full plane at point x."""
    k, zeta = _wave_setup(m, wave, omega)
    phase = _phase(k, float(x[0]) * math.cos(wave.phi) + float(x[1]) * math.sin(wave.phi))
    a = wave.amplitude * phase
    return FieldValue(u3=a * zeta[0], w3=a * zeta[1])


def halfplane_freefield(m: QcMaterial, wave: IncidentWave, omega: float, x) -> FieldValue:
    """Incident plus reflected wave in the half-plane x2 <= 0 at point x."""
    halfplane.check_field_point(x)
    k, zeta = _wave_setup(m, wave, omega)
    c, s = math.cos(wave.phi), math.sin(wave.phi)
    x1, x2 = float(x[0]), float(x[1])
    bracket = _phase(k, x1 * c + x2 * s) + _phase(k, x1 * c - x2 * s)
    a = wave.amplitude * bracket
    return FieldValue(u3=a * zeta[0], w3=a * zeta[1])


def _displacement_gradient(
    m: QcMaterial, wave: IncidentWave, omega: float, x, half_plane: bool
) -> np.ndarray:
    """Analytic derivatives d(u3, w3)/dx_j, shape (2 fields, 2 directions)."""
    k, zeta = _wave_setup(m, wave, omega)
    c, s = math.cos(wave.phi), math.sin(wave.phi)
    x1, x2 = float(x[0]), float(x[1])
    if half_plane:
        halfplane.check_field_point(x)
    e_inc = _phase(k, x1 * c + x2 * s)
    if half_plane:
        e_ref = _phase(k, x1 * c - x2 * s)
        d1 = 1j * k * c * (e_inc + e_ref)
        d2 = 1j * k * s * (e_inc - e_ref)  # exactly zero on x2 = 0
    else:
        d1 = 1j * k * c * e_inc
        d2 = 1j * k * s * e_inc
    grad_scalar = wave.amplitude * np.array([d1, d2])
    return np.outer(zeta, grad_scalar)


def freefield_stress(
    m: QcMaterial, wave: IncidentWave, omega: float, x, half_plane: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Free-field stresses (sigma_3j, H_3j) for j = 1, 2, each shape (2,)."""
    grad = _displacement_gradient(m, wave, omega, x, half_plane)
    sigma = m.c44 * grad[0] + m.R3 * grad[1]
    h = m.R3 * grad[0] + m.K2 * grad[1]
    return sigma, h


def freefield_traction(
    m: QcMaterial, wave: IncidentWave, omega: float, x, n, half_plane: bool = False
) -> np.ndarray:
    """Free-field tractions (t3, G3) on the unit normal n."""
    n1, n2 = kernels.check_normal(n)
    sigma, h = freefield_stress(m, wave, omega, x, half_plane)
    return np.array([sigma[0] * n1 + sigma[1] * n2, h[0] * n1 + h[1] * n2])
