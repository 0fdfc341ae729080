"""Quasicrystal material data and the 2x2 spectral decomposition.

A 1D hexagonal quasicrystal under anti-plane strain carries one phonon and
one phason displacement coupled through the symmetric material matrix

    C = [[c44, R3],
         [R3,  K2]].

Diagonalizing C with a rotation Q decouples the equations of motion into two
independent Helmholtz problems with effective shear moduli a1 >= a2 (the
eigenvalues of C), which is what every other module in this package builds
on. Wave numbers follow as k_i = omega * sqrt(rho / a_i) and phase speeds as
c_i = sqrt(a_i / rho), so mode 1 is the fast wave and mode 2 the slow one.

decompose and wave_parameters each memoize their last successful call in one
tuple, replaced whole: a call with the very same objects returns its result,
any other validates and computes afresh, so no result depends on the memos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    CouplingTooStrong,
    DomainError,
    InvalidMaterial,
    NonPositiveDensity,
    NonPositiveFrequency,
    NonPositiveModulus,
    ValidationError,
)

__all__ = [
    "QcMaterial",
    "SpectralDecomposition",
    "WaveParameters",
    "validate",
    "decompose",
    "wave_parameters",
    "wave_table",
]

_last_decomposition, _last_waves = (None, None), (None, None, None, None)
_NORMAL_MIN = 2.0**-1022  # the smallest normal float


@dataclass(frozen=True)
class QcMaterial:
    """Material constants of a 1D hexagonal quasicrystal, SI units.

    Attributes:
        c44: phonon shear modulus [Pa]
        R3:  phonon-phason coupling modulus [Pa]
        K2:  phason modulus [Pa]
        rho: mass density [kg/m^3]

    Instances are plain value objects; call :func:`validate` to check the
    well-posedness conditions. R3 = 0 is accepted and yields two uncoupled
    isotropic anti-plane problems.
    """

    c44: float
    R3: float
    K2: float
    rho: float

    def matrix(self) -> np.ndarray:
        """The symmetric 2x2 material matrix C."""
        return np.array([[self.c44, self.R3], [self.R3, self.K2]], dtype=float)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-decomposition of the material matrix C.

    a1 >= a2 > 0 are the eigenvalues (effective shear moduli) and psi in
    [0, pi/2] parametrizes the rotation Q = [[cos psi, -sin psi],
    [sin psi, cos psi]] whose columns are the unit eigenvectors, so that
    Q^T C Q = diag(a1, a2).
    """

    a1: float
    a2: float
    psi: float

    @cached_property  # computed once per object: psi never changes
    def cos_psi(self) -> float:
        return math.cos(self.psi)

    @cached_property
    def sin_psi(self) -> float:
        return math.sin(self.psi)


@dataclass(frozen=True)
class WaveParameters:
    """Wavenumbers and phase speeds of the two shear modes at one frequency.

    k1 <= k2 and c1 >= c2 because a1 >= a2; k_i * c_i = omega.
    """

    omega: float
    k1: float
    k2: float
    c1: float
    c2: float


def _determinant(m: QcMaterial) -> float:
    """c44*K2 - R3^2 within an ulp: Dekker's TwoProduct on Veltkamp's split makes both
    products exact. As rounded if it overflows or a modulus is 2**995 or more."""
    p, q = m.c44 * m.K2, m.R3 * m.R3
    if not (math.isfinite(p - q) and max(m.c44, m.K2, m.R3) < 2.0**995):
        return p - q  # not finite, or a split would overflow
    hi = [h - (h - v) for v in (m.c44, m.K2, m.R3) for h in [134217729.0 * v]]  # 26-bit halves
    (c1, c2), (k1, k2), (r1, r2) = ((h, v - h) for h, v in zip(hi, (m.c44, m.K2, m.R3)))
    p_err = ((c1 * k1 - p) + c1 * k2 + c2 * k1) + c2 * k2
    return (p - q) + (p_err - (((r1 * r1 - q) + 2.0 * r1 * r2) + r2 * r2))


def _scaled_determinant(m: QcMaterial) -> tuple[float, int]:
    """(det, e), c44*K2 - R3^2 = det * 4**e: a |det| below the normal floats (c44 = K2 = 1e-170)
    formed again in units of 2**e, 4**e near c44 K2, so it keeps its digits and sign; else e = 0,
    since a normal or infinite det (c44 = K2 = 1e-5, R3 = 1e305) already has its sign."""
    det, e = _determinant(m), 0
    if abs(det) < _NORMAL_MIN:  # again in units of 2**e, the larger modulus below 2**995
        e_c, e_k = math.frexp(m.c44)[1], math.frexp(m.K2)[1]
        e = max((e_c + e_k) // 2, max(e_c, e_k) - 990)
        det = _determinant(QcMaterial(c44=math.ldexp(m.c44, -e), R3=math.ldexp(m.R3, -e),
                                      K2=math.ldexp(m.K2, -e), rho=m.rho))
    return det, e


def validate(m: QcMaterial) -> None:
    """Check the well-posedness conditions; raise a specific error if violated.

    Requires finite c44 > 0, K2 > 0, R3 >= 0, rho > 0 and c44*K2 - R3^2 > 0 (within an
    ulp, so CouplingTooStrong moves only by round-off); NaN and +-inf fail the range checks.
    """
    if not (0.0 < m.c44 < math.inf and 0.0 < m.K2 < math.inf and 0.0 <= m.R3 < math.inf):
        raise NonPositiveModulus(
            f"need finite c44 > 0, K2 > 0, R3 >= 0; got c44={m.c44}, K2={m.K2}, R3={m.R3}"
        )
    if not (0.0 < m.rho < math.inf):
        raise NonPositiveDensity(f"need finite rho > 0; got rho={m.rho}")
    det, e = _scaled_determinant(m)
    if not (det > 0.0):
        raise CouplingTooStrong(
            f"need c44*K2 - R3^2 > 0; got {math.ldexp(det, 2 * e)} (coupling too strong)"
        )
    if det == math.inf:
        raise InvalidMaterial(f"c44*K2 - R3^2 overflows; got c44={m.c44}, K2={m.K2}")


def decompose(m: QcMaterial) -> SpectralDecomposition:
    """Diagonalize the material matrix C.

    Returns a1 >= a2 > 0 and the rotation angle psi in [0, pi/2].

    a1 takes the + branch of the quadratic formula; a2 is computed as det(C)/a1 to stay
    accurate for nearly singular C, with det(C) from _scaled_determinant, which validate reads
    too. a2 rounds to at most a1, and an a2 below the normal floats raises InvalidMaterial. At
    R3 = 0 the eigenvector formula degenerates (0/0) and psi is assigned its continuity limit:
    0 for c44 >= K2, pi/2 for c44 < K2.
    """
    global _last_decomposition
    if (memo := _last_decomposition)[0] is m:
        return memo[1]
    validate(m)
    trace = m.c44 + m.K2
    det, e = _scaled_determinant(m)
    # sum-of-squares form of the discriminant: no cancellation
    disc = math.hypot(m.c44 - m.K2, 2.0 * m.R3)
    a1 = 0.5 * trace + 0.5 * disc  # = 0.5 * (trace + disc), which can overflow
    a2 = min(math.ldexp(det / math.ldexp(a1, -e), e), a1)
    if not a2 >= _NORMAL_MIN:  # a modulus with fewer than 53 bits
        raise InvalidMaterial(f"need a2 = det(C) / a1 to be a normal float; got a2 = {a2:g}")
    if m.R3 == 0.0:
        psi = 0.0 if m.c44 >= m.K2 else 0.5 * math.pi
    else:
        # cos psi : sin psi = R3 : (a1 - c44).  For c44 >= K2 the direct
        # difference a1 - c44 cancels; the eigenvalue identity
        # (a1 - c44)(a1 - K2) = R3^2 gives it through the well-conditioned
        # gap a1 - K2 instead. atan2 keeps psi accurate near both 0 and
        # pi/2, where the arccos form of the same angle loses all digits.
        if m.c44 >= m.K2:
            gap = 0.5 * ((m.c44 - m.K2) + disc)
            # R3 / gap <= 1 first where R3^2 would leave the normal range
            excess = m.R3 * m.R3 / gap if m.R3 > 1e-150 else m.R3 * (m.R3 / gap)
        else:
            excess = 0.5 * ((m.K2 - m.c44) + disc)
        psi = math.atan2(excess, m.R3)
    _last_decomposition = memo = (m, SpectralDecomposition(a1=a1, a2=a2, psi=psi))
    return memo[1]


def _sqrt_ratio(x: float, y: float) -> float:
    """sqrt(x / y), also where x / y leaves the normal floats but its root does not."""
    q = x / y
    return math.sqrt(q) if _NORMAL_MIN <= q < math.inf else math.sqrt(x) / math.sqrt(y)


def wave_parameters(d: SpectralDecomposition, rho: float, omega: float) -> WaveParameters:
    """Wavenumbers k_i = omega*sqrt(rho/a_i), normal floats, and speeds c_i = sqrt(a_i/rho)."""
    global _last_waves
    if (memo := _last_waves)[0] is d and memo[1] is rho and memo[2] is omega:
        return memo[3]
    if not (omega > 0.0):
        raise NonPositiveFrequency(f"need omega > 0; got {omega}")
    if not (rho > 0.0):
        raise NonPositiveDensity(f"need rho > 0; got {rho}")
    k1 = omega * _sqrt_ratio(rho, d.a1)
    k2 = omega * _sqrt_ratio(rho, d.a2)
    if not k1 >= _NORMAL_MIN:  # k1 <= k2: a wavenumber with fewer than 53 bits, or none
        raise ValidationError(f"omega {omega} gives k1 = {k1:g}, below the normal floats")
    if not k2 < math.inf:
        raise DomainError(f"wavenumbers k1 = {k1:g}, k2 = {k2:g} leave the float range")
    c1 = _sqrt_ratio(d.a1, rho)
    c2 = _sqrt_ratio(d.a2, rho)
    _last_waves = memo = (d, rho, omega, WaveParameters(omega=omega, k1=k1, k2=k2, c1=c1, c2=c2))
    return memo[3]


def wave_table(m: QcMaterial, omegas: Sequence[float]) -> list[WaveParameters]:
    """The WaveParameters of each omega, once m, the list (not empty, no omega repeated)
    and each omega through wave_parameters have passed: an error comes before any result."""
    d = decompose(m)
    if len(omegas) == 0:
        raise ValidationError("empty omega list")
    for i, omega in enumerate(omegas):
        if omega in omegas[:i]:
            raise ValidationError(f"omega {omega} is repeated")
    return [wave_parameters(d, m.rho, omega) for omega in omegas]
