"""Real-argument cylinder functions J0, J1, Y0, Y1, H0^(1), H1^(1) and the
imaginary-argument Macdonald values K0(-ix), K1(-ix), implemented in-repo so
the package is self-contained and the oracle tests test something.

All eight functions are one line over one core, ``_jy(name, nu, x)``, which
checks the domain and returns (J_nu(x), Y_nu(x)) for nu in {0, 1}:

* ``0 <= x <= 4``: the ascending series (DLMF 10.2.2, 10.8.1) with
  psi(k+1) = H_k - gamma, gamma kept outside the sum, z = x^2/4 and
  c_k = (-z)^k / (k! (k+nu)!):

      J_nu = (x/2)^nu sum_k c_k
      Y_nu = (2/pi) ((ln(x/2) + gamma) J_nu - nu/x
                     - (1/2) (x/2)^nu sum_k (H_k + H_(k+nu)) c_k)

  Both sums run in one loop and are added with ``math.fsum``; the largest
  term at x = 4 is O(2), so cancellation costs at most a few ulp.
* ``x > 4``: the phase-amplitude form (DLMF 10.17)

      J_nu(x) = sqrt(2/(pi x)) * (P_nu cos(chi_nu) - Q_nu sin(chi_nu))
      Y_nu(x) = sqrt(2/(pi x)) * (P_nu sin(chi_nu) + Q_nu cos(chi_nu))

  with chi_nu = x - (2 nu + 1) pi/4. P_nu and 8x*Q_nu are smooth in
  (4/x)^2 and come from frozen degree-29 Chebyshev tables (see
  ``tools/generate_cylinder_tables.py``), summed by one Clenshaw loop
  over (P, Q) coefficient pairs. cos chi_nu and sin chi_nu are built as
  (cos x +- sin x)/sqrt(2) from libm's exactly reduced cos x and sin x, so
  the phase does not lose x * eps; the amplitude over sqrt(2) is
  (1/sqrt(pi)) / sqrt(x), as pi * x overflows for x > 5.7e307.

Over the whole accepted range, up to the largest float, J_nu and Y_nu are
within 1.5e-15 |H_nu^(1)(x)| of mpmath (20,000 arguments; worst near x = 4).

The Macdonald values use K_nu(-ix) = (pi/2) i^(nu+1) H_nu^(1)(x): K0(-ix) =
(i pi/2) H0^(1)(x) and K1(-ix) = -(pi/2) H1^(1)(x), a constant the tests pin
against an independent series oracle.

Arguments must be finite, x >= 0 for J and x >= 2.2e-308 (a normal float)
for Y, H and K; anything else raises :class:`~qcwaves.errors.DomainError`
naming the function. The functions keep no state: pure and thread-safe.
"""

from __future__ import annotations

import math
import sys

from . import _cyltables
from .errors import DomainError

__all__ = [
    "bessel_j0",
    "bessel_j1",
    "bessel_y0",
    "bessel_y1",
    "hankel1_0",
    "hankel1_1",
    "macdonald_k0_neg_i",
    "macdonald_k1_neg_i",
]

EULER_GAMMA = 0.57721566490153286

_XCUT = _cyltables.XCUT
_SERIES_TOL = 1e-20
# Smallest argument of Y, H and K: 0.5 * x in their log(x / 2) term stays normal.
_X_MIN = sys.float_info.min
# (P_nu, 8x Q_nu) Chebyshev pairs by nu: the constant, the rest highest degree first.
_TABLES = ((_cyltables.P0, _cyltables.QT0), (_cyltables.P1, _cyltables.QT1))
_PQ0 = tuple((p[0], q[0]) for p, q in _TABLES)
_PQ = tuple(tuple(zip(p[:0:-1], q[:0:-1])) for p, q in _TABLES)
_RSQRT_PI = 1.0 / math.sqrt(math.pi)


def _series(nu: int, x: float, with_y: bool) -> tuple[float, float]:
    """(J_nu(x), Y_nu(x)) from the ascending series; Y is nan unless with_y.

    Each sum stops after its first term below _SERIES_TOL. The Y0 terms
    carry 2 H_k, so its cut-off is doubled: it stops at the same k as the
    usual sum of H_k c_k.
    """
    z = 0.25 * x * x
    tol, y_tol = _SERIES_TOL, (2 - nu) * _SERIES_TOL
    c, h_k, h_k_nu = 1.0, 0.0, float(nu)  # c_k, H_k, H_(k+nu) at k = 0
    j_terms, y_terms = [c], [h_k_nu]
    j_open, y_open = True, with_y
    k = 0
    while j_open or y_open:
        k += 1
        c *= -z / (k * (k + nu))
        if j_open:
            j_terms.append(c)
            j_open = abs(c) > tol
        if y_open:
            h_k += 1.0 / k
            h_k_nu += 1.0 / (k + nu)
            t = c * (h_k + h_k_nu)
            y_terms.append(t)
            y_open = abs(t) >= y_tol
    half_x_nu = 0.5 * x if nu else 1.0
    j = half_x_nu * math.fsum(j_terms)
    if not with_y:
        return j, math.nan
    log_term = (math.log(0.5 * x) + EULER_GAMMA) * j
    y = log_term - nu / x - half_x_nu * (0.5 * math.fsum(y_terms))
    return j, (2.0 / math.pi) * y


def _jy(name: str, nu: int, x: float, x_min: float = _X_MIN) -> tuple[float, float]:
    """(J_nu(x), Y_nu(x)) for nu in {0, 1}, or DomainError naming ``name``.

    x_min = 0 admits x = 0 for the J-only functions; Y is then nan for x <= 4.
    """
    if not (x_min <= x < math.inf):
        raise DomainError(f"{name} requires finite x >= {x_min}; got {x}")
    if x <= _XCUT:
        return _series(nu, x, x_min > 0)
    t = 2.0 * (_XCUT / x) ** 2 - 1.0
    tt = 2.0 * t
    p1 = p2 = q1 = q2 = 0.0  # Clenshaw recurrences of P_nu and 8x Q_nu, one pass
    for a, b in _PQ[nu]:
        p1, p2 = tt * p1 - p2 + a, p1
        q1, q2 = tt * q1 - q2 + b, q1
    p0, q0 = _PQ0[nu]
    p, q = t * p1 - p2 + p0, (t * q1 - q2 + q0) / (8.0 * x)
    # sqrt(2) (cos, sin) of chi_0 = x - pi/4, then of chi_1 = chi_0 - pi/2
    cx, sx = math.cos(x), math.sin(x)
    c, s = (cx + sx, sx - cx) if nu == 0 else (sx - cx, -cx - sx)
    m = _RSQRT_PI / math.sqrt(x)
    return m * (p * c - q * s), m * (p * s + q * c)


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero, x >= 0."""
    return _jy("bessel_j0", 0, x, 0)[0]


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind, order one, x >= 0."""
    return _jy("bessel_j1", 1, x, 0)[0]


def bessel_y0(x: float) -> float:
    """Bessel function of the second kind, order zero, x > 0."""
    return _jy("bessel_y0", 0, x)[1]


def bessel_y1(x: float) -> float:
    """Bessel function of the second kind, order one, x > 0."""
    return _jy("bessel_y1", 1, x)[1]


def hankel1_0(x: float) -> complex:
    """Hankel function of the first kind H0^(1)(x) = J0(x) + i Y0(x), x > 0."""
    return complex(*_jy("hankel1_0", 0, x))


def hankel1_1(x: float) -> complex:
    """Hankel function of the first kind H1^(1)(x) = J1(x) + i Y1(x), x > 0."""
    return complex(*_jy("hankel1_1", 1, x))


def macdonald_k0_neg_i(x: float) -> complex:
    """K0(-ix) = (i pi / 2) H0^(1)(x) = (pi/2) (-Y0(x) + i J0(x)) for x > 0."""
    j, y = _jy("macdonald_k0_neg_i", 0, x)
    return complex(-0.5 * math.pi * y, 0.5 * math.pi * j)


def macdonald_k1_neg_i(x: float) -> complex:
    """K1(-ix) = -(pi / 2) H1^(1)(x) for x > 0."""
    j, y = _jy("macdonald_k1_neg_i", 1, x)
    return complex(-0.5 * math.pi * j, -0.5 * math.pi * y)
