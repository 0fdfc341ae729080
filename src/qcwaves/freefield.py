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
exactly zero on the boundary. Stresses are a_mode zeta times the analytic
gradient of the exponentials (C zeta = a_mode zeta: no c44, R3, K2 sums to
cancel), so k_mode^2 = rho omega^2 / a_mode makes the equations of motion
hold to round-off. Grazing and normal incidence (phi = 0, pi/2) are rejected.

Every field function takes x as one point, shape (2,), or N points, shape
(N, 2), and then gives results with a leading axis of length N; any other x is
one point that is not a pair, the ValidationError of kernels._pair. Set-up and
checks run once per call. Complex products are formed from separate real and
imaginary float arrays, so a point gives the same bits alone or among others.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Checks are called through their modules, as in scenario.py.
from . import halfplane, kernels
from .errors import DomainError, ValidationError
from .material import QcMaterial, decompose, wave_parameters

__all__ = [
    "IncidentWave",
    "mode_vector",
    "fullplane_incident",
    "halfplane_freefield",
    "freefield_stress",
    "freefield_traction",
]

MODES = ("S1", "S2")


def _check_mode(mode: str) -> None:
    """The one rule that a mode is "S1" or "S2"; anything else raises ValidationError."""
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}; got {mode!r}")


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
        _check_mode(self.mode)
        if not (0.0 < self.phi < 0.5 * math.pi):
            raise ValidationError(
                f"incidence angle must lie strictly inside (0, pi/2); got {self.phi}"
            )
        if not cmath.isfinite(self.amplitude):
            raise ValidationError(f"amplitude must be finite; got {self.amplitude}")


def mode_vector(m: QcMaterial, mode: str) -> np.ndarray:
    """Unit polarization vector of a mode: Q column 1 for S1, column 2 for S2."""
    _check_mode(mode)
    d = decompose(m)
    if mode == "S1":
        return np.array([d.cos_psi, d.sin_psi])
    return np.array([-d.sin_psi, d.cos_psi])


def _plane_wave(m: QcMaterial, wave: IncidentWave, omega: float, x, half_plane: bool):
    """k, a (C zeta = a zeta), zeta, (cos phi, sin phi), exp(i k t) of the incident
    (and reflected) wave as a (1 or 2, N, re/im) array, and whether x was one
    point. The half-plane and finite-phase checks name the first offending point.
    """
    pts, single = kernels._points(x, "field point x")
    if half_plane:
        halfplane.check_field_point(pts)
    wp = wave_parameters(d := decompose(m), m.rho, omega)
    k, a = (wp.k1, d.a1) if wave.mode == "S1" else (wp.k2, d.a2)
    c, s = math.cos(wave.phi), math.sin(wave.phi)
    x1c, x2s = pts[:, 0] * c, pts[:, 1] * s
    with np.errstate(over="ignore", invalid="ignore"):
        kt = k * np.array([x1c + x2s, x1c - x2s] if half_plane else [x1c + x2s])
    finite = np.isfinite(kt).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"plane-wave phase k * t = {kt[:, i].tolist()} is not finite "
                          f"at point {pts[i].tolist()} (k = {k:g})")
    phases = np.stack([np.cos(kt), np.sin(kt)], axis=-1)
    return k, a, mode_vector(m, wave.mode), (c, s), phases, single


def _times(a: complex, z: np.ndarray) -> np.ndarray:
    """a * z, z as (re, im) on its last axis, from real products; a real a acts
    as a + 0j, as in Python and numpy complex products (signs of zeros kept)."""
    a, re, im = complex(a), z[..., 0], z[..., 1]
    return np.stack([a.real * re - a.imag * im, a.real * im + a.imag * re], axis=-1)


def _complex(z: np.ndarray, single: bool) -> np.ndarray:
    """(re, im) pairs on the last axis as complex; the first point alone if single."""
    z = np.ascontiguousarray(z).view(np.complex128)[..., 0]
    return z[0] if single else z


def _field(m: QcMaterial, wave: IncidentWave, omega: float, x, half_plane: bool) -> np.ndarray:
    _, _, zeta, _, e, single = _plane_wave(m, wave, omega, x, half_plane)
    a = _times(wave.amplitude, e.sum(axis=0))
    return _complex(np.stack([_times(z, a) for z in zeta], axis=1), single)


def fullplane_incident(m: QcMaterial, wave: IncidentWave, omega: float, x) -> np.ndarray:
    """Incident plane wave (u3, w3) in the full plane: (2,), or (N, 2) at N points."""
    return _field(m, wave, omega, x, half_plane=False)


def halfplane_freefield(m: QcMaterial, wave: IncidentWave, omega: float, x) -> np.ndarray:
    """Incident plus reflected wave (u3, w3) in the half-plane x2 <= 0: (2,), or (N, 2)."""
    return _field(m, wave, omega, x, half_plane=True)


def _stress_parts(m: QcMaterial, wave: IncidentWave, omega: float, x, half_plane: bool):
    """(sigma_3j, H_3j) = a zeta * gradient as (N, j, re/im) arrays, and single.

    The gradient is formed with k / 2 and doubled last: the sum of the two exponentials
    reaches 2, so k cos(phi) times it overflows from k of about 9e307 whatever the amplitude.
    Halving and doubling are exact on normal floats, so a value that fit before keeps its bits."""
    k, a, zeta, (c, s), e, single = _plane_wave(m, wave, omega, x, half_plane)
    half_k = 0.5 * k
    diff = e[0] - e[1] if half_plane else e[0]  # exactly zero on x2 = 0
    d = np.stack([_times(1j * half_k * c, e.sum(axis=0)), _times(1j * half_k * s, diff)], axis=1)
    g = _times(wave.amplitude, d)
    return *(2.0 * _times(a * z, g) for z in zeta), single


def freefield_stress(
    m: QcMaterial, wave: IncidentWave, omega: float, x, half_plane: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Free-field stresses (sigma_3j, H_3j) for j = 1, 2: each (2,), or (N, 2) at N points."""
    sigma, h, single = _stress_parts(m, wave, omega, x, half_plane)
    return _complex(sigma, single), _complex(h, single)


def freefield_traction(
    m: QcMaterial, wave: IncidentWave, omega: float, x, n, half_plane: bool = False
) -> np.ndarray:
    """Free-field tractions (t3, G3) on the unit normal n: (2,), or (N, 2) at N points."""
    n1, n2 = kernels.check_normal(n)
    sigma, h, single = _stress_parts(m, wave, omega, x, half_plane)
    t = np.stack([_times(n1, v[:, 0]) + _times(n2, v[:, 1]) for v in (sigma, h)], axis=1)
    return _complex(t, single)
