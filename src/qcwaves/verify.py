"""Independent checks certifying the analytic properties of the solutions.

Each check here exercises a property the closed-form solutions must satisfy
(equations of motion, Dirac normalization, the representation identity of
both geometries) through a route independent of the kernel algebra:
finite-difference stencils, or contour quadrature against the plane-wave free
fields, which call no cylinder function. No suite checks symmetry: the kernels
write v*_21 as v*_12.

All checks are deterministic: random sampling draws from the ``random.Random``
the caller passes, and aggregation is order-independent, so reports are
reproducible bit for bit. Every reduction is ``_worst``, a max that returns
NaN if any value is NaN (the builtin ``max(0.0, nan)`` is 0.0), so a NaN
result fails its check.

Each check returns what it measured, a worst relative value or the 2x2 flux of
``dirac_flux``, and decides nothing. ``SUITES`` maps each ``qcwaves verify`` suite name to a
runner ``(m, omega, rng) -> dict`` that samples its layout from ``rng`` and returns ``_record``
of what it measured: its ``status`` by the pass rule of ``LIMITS`` alone, the values and their
tolerances. ``run`` is the whole ``qcwaves verify`` run: it seeds each (omega, suite) pair with
its own ``random.Random``, keyed by the seed and the suite's name, and yields the records,
after rejecting any omega below the band k1 >= 1e-300, where a layout would leave the float
range. The checks read their points and sources through kernels._pair, so one that is not a
pair of numbers is a ValidationError naming it, and an overflow inside a check reads inf or
NaN, so it fails.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import kernels  # the pair rule via the module, as halfplane and freefield call it
from .errors import RadiusTooLarge, StencilOutOfDomain, ValidationError
from .freefield import (MODES, IncidentWave, _check_mode, freefield_stress,
                        fullplane_incident, halfplane_freefield)
from .halfplane import green_displacement, green_traction
from .kernels import fundamental_displacement, fundamental_traction
from .material import QcMaterial, decompose, wave_parameters, wave_table

__all__ = [
    "DEFAULT_SEED",
    "SUITES",
    "PDE_KERNEL_TOLERANCE",
    "PDE_WAVE_TOLERANCE",
    "DIRAC_FLUX_TOLERANCE",
    "REPRESENTATION_TOLERANCE",
    "LIMITS",
    "pde_residual",
    "dirac_flux",
    "representation_residual",
    "run",
    "all_passed",
]

DEFAULT_SEED = 20240517

# Every pde-residual stencil steps 2 pi / 3000 of its mode's own phase, h = _KH / k: the
# 5-point Laplacian's O((k h)^2) truncation and eps / (k h)^2 round-off are then the same for
# every mode at every scale, and no 3000 * k, which overflows at the top of the band, is formed.
_KH = 2.0 * math.pi / 3000.0
_FULL_NODES = 32  # trapezoid nodes of representation_residual's full-plane circle
_HALF_NODES = 64  # Gauss-Legendre nodes of its half-plane arc
_PHI = 1.2  # incidence angle of its plane waves
# The verify band's low end: pde-residual's radii reach 18 / k1, which leaves the float range
# below k1 = 1.0e-307 (measured at k1 = k2), 1e7 times below this; the representation
# contours reach one slow wavelength, which leaves it below k2 = 3.5e-308.
_K1_MIN = 1e-300

# Pass thresholds of the suites, each reported next to the value it bounds.
PDE_KERNEL_TOLERANCE = 1e-4  # clean worst 2.3e-5, at k r = 0.6, over 6,000 draws in the band
PDE_WAVE_TOLERANCE = 1e-6  # clean worst 3.6e-7 over the same draws: truncation (k h)^2 / 12
DIRAC_FLUX_TOLERANCE = 1.2e-10  # omitted inertia term at eps * k2 = 1e-6: at most 1.03e-11
# geometric middle of the worst clean value, 8.7e-16, and the smallest 1e-9 defect, 3.1e-10
REPRESENTATION_TOLERANCE = 5.2e-13

# The (value key, tolerance key, tolerance) of each value a suite's record bounds. A record
# passes when every value is below its tolerance (NaN is not); no suite adds a rule of its own.
LIMITS = {
    "pde-residual": (("max_kernel_residual", "kernel_tolerance", PDE_KERNEL_TOLERANCE),
                     ("max_wave_residual", "wave_tolerance", PDE_WAVE_TOLERANCE)),
    "dirac-flux": (("deviation", "tolerance", DIRAC_FLUX_TOLERANCE),
                   ("representation_residual", "representation_tolerance",
                    REPRESENTATION_TOLERANCE)),
}


def _record(suite: str, **measured) -> dict:
    """What suite measured, with the tolerances of LIMITS[suite], the status they give and the
    margin, the largest value / tolerance (NaN if any value is NaN; the record passes below 1)."""
    limits = LIMITS[suite]
    passed = all(measured[value] < tol for value, _, tol in limits)
    return {"status": "pass" if passed else "fail", **measured,
            **{key: tol for _, key, tol in limits},
            "margin": _worst(*(measured[value] / tol for value, _, tol in limits))}


def _worst(*values: float) -> float:
    """The largest value, or NaN if any value is NaN."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of v, scaled by its largest entry so no square overflows."""
    scale = float(np.max(np.abs(v)))  # |v| / scale: a complex v / scale overflows 1 / scale
    return scale * float(np.linalg.norm(np.abs(v) / scale)) if 0.0 < scale < math.inf else scale


def pde_residual(field: Callable[[tuple[float, float]], Sequence], m: QcMaterial,
                 omega: float, at, mode: str) -> float:
    """Relative residual of one mode's Helmholtz equation, Laplacian(phi) / k^2 + phi = 0.

    ``field`` maps a point (x1, x2) to the pair (u3, w3), or to a 2 x c matrix whose columns
    are such pairs (a kernel's load columns, from one evaluation per point); phi = q . column
    on the row q of the rotation that diagonalizes C, (cos t, sin t) for "S1" (the modulus
    a1 >= a2) and (-sin t, cos t) for "S2", with the Jacobi angle t = atan2(R3, (c44 - K2) / 2)
    / 2 of C alone, not decompose's psi: a field with a wrong psi mixes the modes. k is the
    mode's wavenumber and h = (2 pi / 3000) / k the 5-point stencil's step; a kernel probed at
    k r >= 0.5 from its source reads below 1e-4. Returns the worst column's
    |Laplacian(phi) / k^2 + phi| / |column| at the point (for a zero column 0.0 if its residual
    is zero too, else inf). A failure on the stencil raises StencilOutOfDomain, a mode other
    than "S1" or "S2" ValidationError.
    """
    _check_mode(mode)
    wp = wave_parameters(decompose(m), m.rho, omega)
    t = 0.5 * math.atan2(m.R3, 0.5 * (m.c44 - m.K2))
    q = np.array([math.cos(t), math.sin(t)] if mode == "S1" else [-math.sin(t), math.cos(t)])
    h = _KH / (wp.k1 if mode == "S1" else wp.k2)
    x1, x2 = kernels._pair(at, "stencil centre at")
    stencil = [(x1, x2), (x1 + h, x2), (x1 - h, x2), (x1, x2 + h), (x1, x2 - h)]
    try:
        vals = np.array([field(p) for p in stencil], dtype=complex)
    except Exception as exc:
        raise StencilOutOfDomain(f"field evaluation failed on the stencil: {exc}") from exc
    vals = vals.reshape(5, 2, -1)  # [stencil point, component, column]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or NaN: a fail
        phi = vals[:, 0] * q[0] + vals[:, 1] * q[1]  # each column's vals @ q, bit for bit
        lhs = (phi[1] + phi[2] + phi[3] + phi[4] - 4.0 * phi[0]) / _KH**2 + phi[0]
        residual = [abs(z) for z in lhs]  # scalar abs: numpy's array abs rounds otherwise
        ref_norms = [_norm(column) for column in vals[0].T]
    return _worst(*(float(r / n) if n != 0.0 else 0.0 if r == 0.0 else math.inf
                    for r, n in zip(residual, ref_norms)))


def dirac_flux(m: QcMaterial, xi, omega: float, eps: float) -> np.ndarray:
    """Flux of the fundamental traction through the circle |x - xi| = eps, a 2x2 matrix.

    As eps -> 0 the flux tends to -I2 (the Dirac load of the governing system); its
    deviation from -I2 is O(eps^2 ln eps), from the omitted inertia term. Requires
    eps * max(k1, k2) < 0.1. On a circle centred at xi the traction on the outward normal
    is the radial stress of v*, the same at every point, so the flux is 2 pi eps times its
    one value, taken at (xi1 + eps, xi2) with normal (1, 0): there e2 = 0, so the traction
    entries are the stress entries exactly. The flux checks the kernel scale and
    z K1(z) -> 1; no quadrature is involved.
    """
    wp = wave_parameters(decompose(m), m.rho, omega)
    if not (eps > 0.0) or eps * wp.k2 >= 0.1:
        raise RadiusTooLarge(f"need 0 < eps * k2 < 0.1; got eps*k2 = {eps * wp.k2:g}")
    xi1, xi2 = kernels._pair(xi, "source xi")
    return 2.0 * math.pi * eps * fundamental_traction(m, (xi1 + eps, xi2), (xi1, xi2), omega,
                                                      (1.0, 0.0))


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton on P_n (LAPACK adds 1.3 MB RSS),
    computed once per process and n; the arrays are read-only, since every call shares them."""
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))  # within 3e-5 of the roots
    for _ in range(6):  # quadratic convergence: the last steps are below 1e-16
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (p0 - x * p1) / (q := (1.0 - x) * (1.0 + x))  # P_n'(x)
        x = x - p1 / dp
    w = 2.0 / (q * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def representation_residual(m: QcMaterial, omega: float) -> float:
    """Worst residual of the representation identity, which boundary elements discretize.

    u_i(xi) = contour integral of sum_f (v*[f, i] t_f(u) - t*[f, i] u_f) ds for a free field u
    and a contour around xi with its outward normal, t(u) freefield_stress on the normal. Full
    plane: v* and the incident wave on _FULL_NODES trapezoid nodes of |x - xi| = lambda2 / 2,
    xi = (0.3, -0.2) lambda2. Half plane: g* and the reflected wave on _HALF_NODES Gauss-Legendre
    nodes of the lower semicircle of radius lambda2 about 0, xi = (0.1, -0.4) lambda2; both
    tractions vanish on x2 = 0, so a wrong image or reflected term reads O(1). Each mode has
    amplitude 1 / (sqrt(k) sqrt(a)), which keeps every term in the float range, and a residual
    relative to the largest sum of term magnitudes (the S1 wave's reach sqrt(a1 / a2) |u|).
    """
    d = decompose(m)
    wp = wave_parameters(d, m.rho, omega)
    lam = 2.0 * math.pi / wp.k2
    gauss, gauss_weights = _gauss_legendre(_HALF_NODES)
    worst = 0.0
    for half, xi, centre, radius, theta, weight in (
            (False, (0.3 * lam, -0.2 * lam), (0.3 * lam, -0.2 * lam), 0.5 * lam,
             2.0 * math.pi * np.arange(_FULL_NODES) / _FULL_NODES,
             np.full(_FULL_NODES, 2.0 * math.pi / _FULL_NODES)),
            (True, (0.1 * lam, -0.4 * lam), (0.0, 0.0), lam,
             1.5 * math.pi + 0.5 * math.pi * gauss, 0.5 * math.pi * gauss_weights)):
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        nodes = centre + radius * normals
        displacement, traction, field = (
            (green_displacement, green_traction, halfplane_freefield) if half
            else (fundamental_displacement, fundamental_traction, fullplane_incident))
        pairs = list(zip(nodes.tolist(), normals.tolist()))  # the kernels [node, f, i] once
        v = np.array([displacement(m, x, xi, omega) for x, _ in pairs])
        t = np.array([traction(m, x, xi, omega, n) for x, n in pairs])
        for mode, k, a in (("S1", wp.k1, d.a1), ("S2", wp.k2, d.a2)):
            wave = IncidentWave(mode, 1.0 / (math.sqrt(k) * math.sqrt(a)), _PHI)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf/NaN: a fail
                stress = np.stack(freefield_stress(m, wave, omega, nodes, half_plane=half), 1)
                u = field(m, wave, omega, nodes)
                vt = v * np.einsum("nfj,nj->nf", stress, normals)[:, :, None]
                tu = t * u[:, :, None]
                gap = np.abs(radius * weight @ (vt - tu).sum(axis=1) - field(m, wave, omega, xi))
                terms = radius * weight @ (np.abs(vt) + np.abs(tu)).sum(axis=1)
                worst = _worst(worst, float(np.max(gap) / np.max(terms)))
    return worst


def _pde_residual_suite(m: QcMaterial, omega: float, rng) -> dict:
    wp = wave_parameters(decompose(m), m.rho, omega)
    xi = (0.0, 0.0)
    worst = 0.0
    # each mode's own row of both load columns, at radii scaled by that mode's wavenumber
    for kr in (0.6, 2.0, 8.0, 18.0):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        for mode, k in zip(MODES, (wp.k1, wp.k2)):
            at = (kr / k * math.cos(theta), kr / k * math.sin(theta))
            worst = _worst(worst, pde_residual(
                lambda p: fundamental_displacement(m, p, xi, omega), m, omega, at, mode))
    wave_worst = 0.0
    lam = 2.0 * math.pi / wp.k2  # the slow wavelength
    for mode in MODES:
        wave = IncidentWave(mode=mode, amplitude=1.0 + 0.0j, phi=rng.uniform(0.1, 1.4))
        at = (rng.uniform(-lam, lam), rng.uniform(-lam, lam))
        for row in MODES:  # the off-mode row is what sees a rotated zeta
            wave_worst = _worst(wave_worst, pde_residual(
                lambda p: fullplane_incident(m, wave, omega, p), m, omega, at, row))
    return _record("pde-residual", max_kernel_residual=worst, max_wave_residual=wave_worst)


def _dirac_flux_suite(m: QcMaterial, omega: float, rng) -> dict:
    eps = 1e-6 / wave_parameters(decompose(m), m.rho, omega).k2  # normal while k2 <= 4.5e301
    deviation = np.linalg.norm(dirac_flux(m, (0.0, 0.0), omega, eps) + np.eye(2))
    return _record("dirac-flux", deviation=float(deviation),
                   representation_residual=representation_residual(m, omega))


# The suites ``qcwaves verify`` runs, in their default order.
SUITES: dict[str, Callable[[QcMaterial, float, random.Random], dict]] = {
    "pde-residual": _pde_residual_suite,
    "dirac-flux": _dirac_flux_suite,
}


def run(m: QcMaterial, omegas: Sequence[float], suites: Iterable[str] = tuple(SUITES),
        seed: int = DEFAULT_SEED) -> Iterator[dict]:
    """Yield the record ``{"name", **runner(m, omega, rng), "omega"}`` of each suite at each omega.

    Each (omega, suite) pair draws from ``random.Random(f"{seed}/{name}")``, a stream keyed by
    the suite's name, so a record depends only on m, omega, the suite and the seed, not on
    which suites run, in what order, or where the suite stands in SUITES. ``suites`` is read
    once, so any iterable of names will do. Before any suite runs, wave_table checks m and
    omegas, and an omega below the band (k1 < 1e-300), an empty suite list, an unknown or
    repeated name or a negative seed raises ValidationError.
    """
    suites = tuple(suites)
    waves = wave_table(m, omegas)
    for wp in waves:
        if not wp.k1 >= _K1_MIN:
            raise ValidationError(f"--omega {wp.omega:g} is below the verify band: k1 = "
                                  f"{wp.k1:g} must be at least {_K1_MIN:g}")
    if not suites:
        raise ValidationError("empty suite list")
    known = tuple(SUITES)
    for i, name in enumerate(suites):
        if name not in known:  # by equality, so an unhashable name is unknown too
            raise ValidationError(f"unknown suite {name!r}; choose from {known}")
        if name in suites[:i]:
            raise ValidationError(f"suite {name!r} is repeated")
    if seed < 0:
        raise ValidationError(f"--seed must be >= 0; got {seed}")
    for wp in waves:
        for name in suites:
            rng = random.Random(f"{seed}/{name}")
            yield {"name": name, **SUITES[name](m, wp.omega, rng), "omega": wp.omega}


def all_passed(records) -> bool:
    """The pass rule of a verify run: no record failed."""
    return all(r["status"] != "fail" for r in records)
