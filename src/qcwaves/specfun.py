"""Real-argument Hankel functions H0^(1), H1^(1) and the imaginary-argument
Macdonald values K0(-ix), K1(-ix), implemented in-repo so the package is
self-contained and the oracle tests test something. J_nu(x) is
``hankel1_nu(x).real`` and Y_nu(x) is ``hankel1_nu(x).imag``.

All four functions are one line over one core, ``_jy(name, nu, x)``, which
checks the domain and returns (J_nu(x), Y_nu(x)) for nu in {0, 1}. Each
argument costs one Clenshaw pass (DLMF 3.11(ii)) over a frozen table of two
Chebyshev series, of fixed length per branch (``tools/generate_cylinder_tables.py``
builds the tables with mpmath and documents them):

* ``0 <= x <= 4``: the entire functions A_nu and B_nu of z = x^2/4, the sums
  of the ascending series (DLMF 10.2.2, 10.8.1), on t = z/2 - 1:

      J0 = A_0,  Y0 = (2/pi) ((ln(x/2) + gamma) A_0 + B_0)
      J1 = (x/2) A_1,  Y1 = (2/pi) ((ln(x/2) + gamma) J1 - 1/x + (x/2) B_1)

* ``x > 4``: the phase-amplitude form (DLMF 10.17)

      J_nu(x) = sqrt(2/(pi x)) * (P_nu cos(chi_nu) - Q_nu sin(chi_nu))
      Y_nu(x) = sqrt(2/(pi x)) * (P_nu sin(chi_nu) + Q_nu cos(chi_nu))

  with chi_nu = x - (2 nu + 1) pi/4. P_nu and 8x*Q_nu are tabulated on the
  pieces [4, 8], (8, 16] and (16, inf), each in u = (lo/x)^2 mapped onto
  [-1, 1]. cos chi_nu and sin chi_nu are built as (cos x +- sin x)/sqrt(2)
  from libm's exactly reduced cos x and sin x, so the phase does not lose
  x * eps; the amplitude over sqrt(2) is (1/sqrt(pi)) / sqrt(x), as pi * x
  overflows for x > 5.7e307.

Over the whole accepted range, up to the largest float, J_nu and Y_nu are
within 1e-15 |H_nu^(1)(x)| of mpmath (worst seen 6.1e-16 |H_nu^(1)(x)| on
12,000 arguments; tests/test_specfun_tables.py checks every branch and piece).

The Macdonald values use K_nu(-ix) = (pi/2) i^(nu+1) H_nu^(1)(x): K0(-ix) =
(i pi/2) H0^(1)(x) and K1(-ix) = -(pi/2) H1^(1)(x), a constant the tests pin
against an independent series oracle.

Arguments must be finite and x >= 2.2e-308 (a normal float); anything else
raises :class:`~qcwaves.errors.DomainError` naming the function. The
functions keep no state: pure and thread-safe.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left

from . import _cyltables as _T
from .errors import DomainError

__all__ = [
    "hankel1_0",
    "hankel1_1",
    "macdonald_k0_neg_i",
    "macdonald_k1_neg_i",
]

EULER_GAMMA = 0.57721566490153286

_XCUT = _T.XCUT
# Smallest argument: 0.5 * x in the log(x / 2) term stays normal.
_X_MIN = sys.float_info.min
_TWO_OVER_PI = 2.0 / math.pi
_RSQRT_PI = 1.0 / math.sqrt(math.pi)


def _pairs(a, b):
    """A Clenshaw table of two series: the degree-0 pair, the rest highest degree first."""
    return (a[0], b[0]), tuple(zip(a[:0:-1], b[:0:-1]))


def _piece(nu, lo, hi):
    """(scale, shift, table) of P_nu and 8x Q_nu on (lo, hi]: t = scale / x^2 - shift."""
    u_min = (lo / hi) ** 2  # u = (lo/x)^2 runs over [u_min, 1]
    table = _pairs(getattr(_T, f"P{nu}_{lo:g}"), getattr(_T, f"QT{nu}_{lo:g}"))
    return 2.0 * lo * lo / (1.0 - u_min), (1.0 + u_min) / (1.0 - u_min), table


_SMALL = (_pairs(_T.A0, _T.B0), _pairs(_T.A1, _T.B1))
# By nu, the pieces (4, 8], (8, 16] and (16, inf), indexed by bisect_left(_EDGES, x).
_EDGES = _T.EDGES
_LARGE = tuple(tuple(_piece(nu, lo, hi) for lo, hi in zip((_XCUT,) + _EDGES, _EDGES + (math.inf,)))
               for nu in (0, 1))


def _clenshaw(t: float, table) -> tuple[float, float]:
    """The two Chebyshev series of a ``_pairs`` table at t in [-1, 1], in one pass."""
    (a0, b0), pairs = table
    tt = 2.0 * t
    p1 = p2 = q1 = q2 = 0.0
    for a, b in pairs:
        p1, p2 = tt * p1 - p2 + a, p1
        q1, q2 = tt * q1 - q2 + b, q1
    return t * p1 - p2 + a0, t * q1 - q2 + b0


def _jy(name: str, nu: int, x: float) -> tuple[float, float]:
    """(J_nu(x), Y_nu(x)) for nu in {0, 1}, or DomainError naming ``name``."""
    if not (_X_MIN <= x < math.inf):
        raise DomainError(f"{name} requires finite x >= {_X_MIN}; got {x}")
    if x <= _XCUT:
        a, b = _clenshaw(0.125 * x * x - 1.0, _SMALL[nu])
        half_x = 0.5 * x
        j = half_x * a if nu else a
        log_term = math.log(half_x) + EULER_GAMMA
        y = log_term * j - 1.0 / x + half_x * b if nu else log_term * a + b
        return j, _TWO_OVER_PI * y
    scale, shift, table = _LARGE[nu][bisect_left(_EDGES, x)]
    p, qt = _clenshaw(scale / (x * x) - shift, table)
    q = qt / (8.0 * x)
    # sqrt(2) (cos, sin) of chi_0 = x - pi/4, then of chi_1 = chi_0 - pi/2
    cx, sx = math.cos(x), math.sin(x)
    c, s = (cx + sx, sx - cx) if nu == 0 else (sx - cx, -cx - sx)
    m = _RSQRT_PI / math.sqrt(x)
    return m * (p * c - q * s), m * (p * s + q * c)


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
