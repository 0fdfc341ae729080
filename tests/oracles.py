"""Slow, independently coded reference values for the cylinder functions.

Two deliberately simple routes, sharing no code with the production
implementation:

* ``0 < x <= 12``: ascending power series summed in 50-digit decimal
  arithmetic, so cancellation costs nothing and the rounded result is
  correct to double precision.
* ``x > 12``: the Stokes (large-argument) asymptotic expansion truncated at
  its smallest term; accurate to ~1e-13 at x = 12.5 and to machine
  precision for x >= 15. The phase x - (2 nu + 1) pi/4 is reduced modulo
  2 pi in 50-digit decimal arithmetic, which keeps it to double precision
  for x up to ~1e33.

Also provides the ascending series of K0 and K1 continued to complex
argument, used to pin the Hankel connection constants, and ``helmholtz_residuals``,
which probes each mode's Helmholtz equation on the kernel and the plane waves by
finite differences (``qcwaves.pde_residual``).
"""

import cmath
import math
from decimal import Decimal, getcontext

from qcwaves import (IncidentWave, decompose, fullplane_incident, fundamental_displacement,
                     pde_residual, wave_parameters)
from qcwaves.verify import _worst

getcontext().prec = 50

GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992")
PI = Decimal("3.1415926535897932384626433832795028841971693993751")

SERIES_LIMIT = 12.0
_TINY = Decimal("1e-45")


def _series_j0(x: Decimal) -> Decimal:
    z = x * x / 4
    term = Decimal(1)
    total = Decimal(1)
    k = 0
    while abs(term) > _TINY:
        k += 1
        term *= -z / (k * k)
        total += term
    return total


def _series_j1(x: Decimal) -> Decimal:
    z = x * x / 4
    term = Decimal(1)
    total = Decimal(1)
    k = 0
    while abs(term) > _TINY:
        k += 1
        term *= -z / (k * (k + 1))
        total += term
    return x / 2 * total


def _series_y0(x: Decimal) -> Decimal:
    z = x * x / 4
    term = Decimal(1)
    harmonic = Decimal(0)
    s = Decimal(0)
    k = 0
    while True:
        k += 1
        term *= -z / (k * k)
        harmonic += Decimal(1) / k
        t = -term * harmonic
        s += t
        if abs(t) < _TINY:
            break
    return 2 / PI * (((x / 2).ln() + GAMMA) * _series_j0(x) + s)


def _series_y1(x: Decimal) -> Decimal:
    z = x * x / 4
    term = Decimal(1)
    hk = Decimal(0)
    hk1 = Decimal(1)
    s = hk + hk1
    k = 0
    while True:
        k += 1
        term *= -z / (k * (k + 1))
        hk += Decimal(1) / k
        hk1 += Decimal(1) / (k + 1)
        t = term * (hk + hk1)
        s += t
        if abs(t) < _TINY:
            break
    return 2 / PI * (((x / 2).ln() + GAMMA) * _series_j1(x) - 1 / x - x / 4 * s)


def _stokes_pq(nu: int, x: float) -> tuple[float, float]:
    mu = 4.0 * nu * nu
    ak = 1.0
    prev = 1.0
    p_terms = [1.0]
    q_terms = []
    k = 0
    while k < 200:
        k += 1
        ak *= (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        if abs(ak) >= prev:  # asymptotic series started diverging
            break
        prev = abs(ak)
        if k % 2 == 1:
            q_terms.append(ak * (-1.0) ** ((k - 1) // 2))
        else:
            p_terms.append(ak * (-1.0) ** (k // 2))
        if abs(ak) < 1e-18:
            break
    return math.fsum(p_terms), math.fsum(q_terms)


def _stokes_jy(nu: int, x: float) -> tuple[float, float]:
    p, q = _stokes_pq(nu, x)
    chi = float((Decimal(x) - (2 * nu + 1) * PI / 4) % (2 * PI))
    amp = math.sqrt(2.0 / (math.pi * x))
    return (amp * (p * math.cos(chi) - q * math.sin(chi)),
            amp * (p * math.sin(chi) + q * math.cos(chi)))


def oracle_j0(x: float) -> float:
    if x <= SERIES_LIMIT:
        return float(_series_j0(Decimal(x)))
    return _stokes_jy(0, x)[0]


def oracle_j1(x: float) -> float:
    if x <= SERIES_LIMIT:
        return float(_series_j1(Decimal(x)))
    return _stokes_jy(1, x)[0]


def oracle_y0(x: float) -> float:
    if x <= SERIES_LIMIT:
        return float(_series_y0(Decimal(x)))
    return _stokes_jy(0, x)[1]


def oracle_y1(x: float) -> float:
    if x <= SERIES_LIMIT:
        return float(_series_y1(Decimal(x)))
    return _stokes_jy(1, x)[1]


EULER_GAMMA_F = 0.5772156649015328606


def oracle_k0(z: complex, tol: float = 1e-16) -> complex:
    """Ascending series of K0 continued to complex argument."""
    zz = z * z / 4.0
    i0 = 1.0 + 0j
    term = 1.0 + 0j
    s = 0j
    harmonic = 0.0
    k = 0
    while True:
        k += 1
        term *= zz / (k * k)
        i0 += term
        harmonic += 1.0 / k
        s += term * harmonic
        if abs(term) * max(harmonic, 1.0) < tol * max(abs(s), 1.0):
            break
    return -(cmath.log(z / 2.0) + EULER_GAMMA_F) * i0 + s


def oracle_k1(z: complex, tol: float = 1e-16) -> complex:
    """Ascending series of K1 continued to complex argument."""
    zz = z * z / 4.0
    g = EULER_GAMMA_F
    term = 1.0 + 0j          # (z^2/4)^k / (k! (k+1)!)
    i1_sum = 1.0 + 0j
    hk = 0.0
    hk1 = 1.0
    psum = term * ((-g) + (1.0 - g))
    k = 0
    while True:
        k += 1
        term *= zz / (k * (k + 1))
        i1_sum += term
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        t = term * ((hk - g) + (hk1 - g))
        psum += t
        if abs(t) < tol * max(abs(psum), 1.0):
            break
    i1 = (z / 2.0) * i1_sum
    return 1.0 / z + cmath.log(z / 2.0) * i1 - (z / 4.0) * psum


# The bounds of helmholtz_residuals: over 6,000 draws of tests/strategies.py inside the verify
# band the worst clean values are 2.3e-5 (kernel, at k r = 0.6) and 3.6e-7 (plane wave, the
# stencil's truncation (k h)^2 / 12).
KERNEL_PDE_BOUND = 1e-4
WAVE_PDE_BOUND = 1e-6


def helmholtz_residuals(m, omega: float, rng) -> tuple[float, float]:
    """The worst pde_residual (kernel, plane wave): both load columns of v* on each mode's row
    at k r = 0.6, 2, 8 and 18 of that mode's wavenumber from the source, at angles drawn from
    rng, and each mode's plane wave, of a drawn angle at a drawn point, on both rows (the
    off-mode row is what sees a rotated zeta). NaN if any residual is NaN."""
    wp = wave_parameters(decompose(m), m.rho, omega)
    kernel = wave = 0.0
    for kr in (0.6, 2.0, 8.0, 18.0):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        for mode, k in (("S1", wp.k1), ("S2", wp.k2)):
            at = (kr / k * math.cos(theta), kr / k * math.sin(theta))
            kernel = _worst(kernel, pde_residual(
                lambda p: fundamental_displacement(m, p, (0.0, 0.0), omega), m, omega, at, mode))
    lam = 2.0 * math.pi / wp.k2  # the slow wavelength
    for mode in ("S1", "S2"):
        incident = IncidentWave(mode=mode, amplitude=1.0 + 0.0j, phi=rng.uniform(0.1, 1.4))
        at = (rng.uniform(-lam, lam), rng.uniform(-lam, lam))
        for row in ("S1", "S2"):
            wave = _worst(wave, pde_residual(
                lambda p: fullplane_incident(m, incident, omega, p), m, omega, at, row))
    return kernel, wave
