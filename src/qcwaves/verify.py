"""Independent checks certifying the analytic properties of the solutions.

Each check here exercises a property the closed-form solutions must satisfy
(equations of motion, Dirac normalization, decoupling at R3 = 0,
traction-free boundaries) through a route independent of the kernel
algebra: finite-difference stencils, contour quadrature or closed isotropic
forms coded directly. No suite checks symmetry: the kernels write v*_21 as v*_12.

All checks are deterministic: random sampling draws from the generator
the caller passes, and aggregation is order-independent, so reports are
reproducible bit for bit. Every reduction is ``_worst``, a max that returns
NaN if any value is NaN (the builtin ``max(0.0, nan)`` is 0.0), so a NaN
result fails its check.

Each check returns what it measured: a worst relative value as a float, or for
``dirac_flux`` the 2x2 flux matrix, which the ``dirac-flux`` suite reads at the one radius
eps = 1e-6 / k2. It decides nothing. ``SUITES`` maps each ``qcwaves verify`` suite name to
a runner ``(m, omega, rng) -> dict`` that samples its layout from ``rng`` and returns
``_record`` of what it measured: its ``status`` by the pass rule of ``LIMITS`` alone, the
values and their tolerances. ``run`` is the whole ``qcwaves verify`` run: it seeds each
(omega, suite) pair with its own generator and yields the records, after rejecting any omega
below the band k1 >= 1e-300, where a layout would leave the float range. The checks read
their points and sources through kernels._pair, so one that is not a pair of numbers is a
ValidationError naming it, and an overflow inside a check reads inf or NaN, so it fails.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

from . import kernels  # the pair rule via the module, as halfplane and freefield call it
from .errors import RadiusTooLarge, StencilOutOfDomain, ValidationError
from .freefield import IncidentWave, freefield_traction, fullplane_incident
from .halfplane import green_displacement, green_traction, image_point
from .kernels import fundamental_displacement, fundamental_traction
from .material import QcMaterial, decompose, validate, wave_parameters, wave_table
from .specfun import macdonald_k0_neg_i

__all__ = [
    "DEFAULT_SEED",
    "SUITES",
    "PDE_KERNEL_TOLERANCE",
    "PDE_WAVE_TOLERANCE",
    "DIRAC_FLUX_TOLERANCE",
    "GREEN_TRACTION_TOLERANCE",
    "FREEFIELD_TRACTION_TOLERANCE",
    "DECOUPLING_TOLERANCE",
    "LIMITS",
    "pde_residual",
    "dirac_flux",
    "decoupling_check",
    "boundary_traction_scan",
    "run",
    "all_passed",
]

DEFAULT_SEED = 20240517

# The kernel stencil step is min(lambda, r) / STEP_DIVISOR, r the probe's distance to the
# source and lambda the wavelength of the column's own mode at R3 = 0, where a column carries
# one mode, else the slow wavelength: the O(h^2) truncation stays below 1e-4 relative even at
# k r = 0.5, and a fast mode's round-off, about eps / (k h)^2, is not sized by a slow one.
# A plane-wave probe is smooth, so its step is its own mode's wavelength / 3000.
STEP_DIVISOR = 400.0
_FLUX_NODES = 256  # trapezoid nodes of dirac_flux: spectrally accurate on a circle
_SCAN_POINTS = 50  # boundary points of boundary_traction_scan
# The verify band's low end: the layouts reach 18 / k1 and 22 slow wavelengths, which leave
# the float range below k1 = 6.2e-307 (measured at k1 = k2), 1.6e6 times below this.
_K1_MIN = 1e-300

# Pass thresholds of the suites, each reported next to the value it bounds.
PDE_KERNEL_TOLERANCE = 1e-4  # O(h^2) stencil truncation at the default step
PDE_WAVE_TOLERANCE = 1e-6  # smooth plane waves on a 1/3000-wavelength stencil
DIRAC_FLUX_TOLERANCE = 1.2e-10  # omitted inertia term at eps * k2 = 1e-6: at most 1.03e-11
GREEN_TRACTION_TOLERANCE = 1e-10  # image cancellation relative to one source
FREEFIELD_TRACTION_TOLERANCE = 1e-13  # exactly zero up to round-off
DECOUPLING_TOLERANCE = 1e-12  # same K0 values through two routes

# The (value key, tolerance key, tolerance) of each value a suite's record bounds. A record
# passes when every value is below its tolerance (NaN is not); no suite adds a rule of its own.
LIMITS = {
    "pde-residual": (("max_kernel_residual", "kernel_tolerance", PDE_KERNEL_TOLERANCE),
                     ("max_wave_residual", "wave_tolerance", PDE_WAVE_TOLERANCE)),
    "dirac-flux": (("deviation", "tolerance", DIRAC_FLUX_TOLERANCE),),
    "decoupling": (("max_relative_error", "tolerance", DECOUPLING_TOLERANCE),),
    "boundary-scan": (("max_green_traction", "green_tolerance", GREEN_TRACTION_TOLERANCE),
                      ("max_freefield_traction", "freefield_tolerance",
                       FREEFIELD_TRACTION_TOLERANCE)),
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
    scale = float(np.max(np.abs(v)))
    return scale * float(np.linalg.norm(v / scale)) if 0.0 < scale < math.inf else scale


def _slow_wavelength(m: QcMaterial, omega: float) -> float:
    """Wavelength 2 pi / k2 of the slow S2 mode, the shortest in the material."""
    return 2.0 * math.pi / wave_parameters(decompose(m), m.rho, omega).k2


def pde_residual(field: Callable[[tuple[float, float]], Sequence[complex]], m: QcMaterial,
                 omega: float, at, h: float) -> float:
    """Relative residual of C * Laplacian(field) + rho omega^2 field = 0 at a point.

    The Laplacian is the standard 5-point stencil with step h. ``field`` maps
    a point (x1, x2) to the pair (u3, w3); evaluation failures on the stencil
    raise StencilOutOfDomain. Both norms are of the equation divided by
    rho omega^2 (the reference is the field), each scaled by its largest
    entry: no square overflows. A zero field at the point gives 0.0 if the
    residual is zero too, else inf. Raises ValidationError unless h is finite
    and > 0.
    """
    validate(m)
    if not 0.0 < h < math.inf:
        raise ValidationError(f"need finite h > 0; got {h}")
    x1, x2 = kernels._pair(at, "stencil centre at")
    stencil = [(x1, x2), (x1 + h, x2), (x1 - h, x2), (x1, x2 + h), (x1, x2 - h)]
    try:
        vals = [np.asarray(field(p), dtype=complex) for p in stencil]
    except Exception as exc:
        raise StencilOutOfDomain(f"field evaluation failed on the stencil: {exc}") from exc
    center = vals[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or NaN: a fail
        lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4.0 * center) / (omega * h) / (omega * h)
        residual = (m.matrix() / m.rho) @ lap + center
        res_norm, ref_norm = _norm(residual), _norm(center)
    if ref_norm == 0.0:
        return 0.0 if res_norm == 0.0 else math.inf
    return res_norm / ref_norm


def dirac_flux(m: QcMaterial, xi, omega: float, eps: float) -> np.ndarray:
    """Trapezoid contour integral of the fundamental traction over |x-xi| = eps, a 2x2 matrix.

    The rule has _FLUX_NODES nodes. As eps -> 0 the flux tends to -I2 (the Dirac
    load of the governing system); its deviation from -I2 is O(eps^2 ln eps), from
    the omitted inertia term. Requires eps * max(k1, k2) < 0.1.
    """
    wp = wave_parameters(decompose(m), m.rho, omega)
    if not (eps > 0.0) or eps * wp.k2 >= 0.1:
        raise RadiusTooLarge(f"need 0 < eps * k2 < 0.1; got eps*k2 = {eps * wp.k2:g}")
    xi1, xi2 = kernels._pair(xi, "source xi")
    flux = np.zeros((2, 2), dtype=complex)
    weight = 2.0 * math.pi * eps / _FLUX_NODES
    for mnode in range(_FLUX_NODES):
        theta = 2.0 * math.pi * mnode / _FLUX_NODES
        n = (math.cos(theta), math.sin(theta))
        x = (xi1 + eps * n[0], xi2 + eps * n[1])
        flux += fundamental_traction(m, x, (xi1, xi2), omega, n) * weight
    return flux


def _isotropic_pair(m: QcMaterial, omega: float, r: float) -> tuple[complex, complex]:
    """Closed uncoupled forms: diagonal of v* at R3 = 0, coded directly."""
    return tuple(macdonald_k0_neg_i(omega * math.sqrt(m.rho / a) * r) / (2.0 * math.pi * a)
                 for a in (m.c44, m.K2))


def _diagonal_errors(v: np.ndarray, u: complex, w: complex) -> tuple[float, ...]:
    """Entry errors of the 2x2 v against diag(u, w), relative to max(|u|, |w|)."""
    scale = max(abs(u), abs(w))
    return (float(abs(v[0, 0] - u) / scale), float(abs(v[1, 1] - w) / scale),
            float(abs(v[0, 1]) / scale), float(abs(v[1, 0]) / scale))


def decoupling_check(m: QcMaterial, omega: float, points: Sequence, xi=(0.0, -1.0)) -> float:
    """At R3 = 0, the worst relative error of the kernels against the closed isotropic forms.

    The fundamental solution must be diagonal with entries K0(-i k r)/(2 pi c44)
    and K0(-i k r)/(2 pi K2), and the half-plane Green's function the sum of
    these at r and at the image distance. Every point is checked against both,
    so the source must have xi2 < 0 and every point x2 <= 0; v* depends on
    x - xi alone, so its check holds for the full plane. Raises ValidationError for
    R3 != 0 or no points, and the half-plane errors of green_displacement for a
    source or point outside.
    """
    if m.R3 != 0.0:
        raise ValidationError(f"decoupling check requires R3 = 0; got R3 = {m.R3}")
    if len(points) < 1:
        raise ValidationError("need at least one point")
    validate(m)
    im1, im2 = image_point(xi)  # (xi1, -xi2)
    worst = 0.0
    for i, p in enumerate(points):
        x1, x2 = kernels._pair(p, f"points[{i}]")
        u_iso, w_iso = _isotropic_pair(m, omega, math.hypot(x1 - im1, x2 + im2))
        u_im, w_im = _isotropic_pair(m, omega, math.hypot(x1 - im1, x2 - im2))
        v = fundamental_displacement(m, p, xi, omega)
        g = green_displacement(m, p, xi, omega)
        worst = _worst(worst, *_diagonal_errors(v, u_iso, w_iso),
                       *_diagonal_errors(g, u_iso + u_im, w_iso + w_im))
    return worst


def boundary_traction_scan(m: QcMaterial, omega: float, source_or_wave,
                           include_reflection: bool = True) -> float:
    """Maximum normalized traction magnitude over _SCAN_POINTS boundary points x2 = 0.

    For a source point, scans the half-plane Green's traction normalized by
    the single-source traction at the same point. For an IncidentWave, scans
    the half-plane free field normalized by the incident wave alone;
    ``include_reflection=False`` scans the unreflected incident wave instead
    (negative control: the result is then O(1)).
    """
    lam = _slow_wavelength(m, omega)
    normal = (0.0, 1.0)
    worst = 0.0
    if isinstance(source_or_wave, IncidentWave):
        x1 = np.linspace(-5.0 * lam, 5.0 * lam, _SCAN_POINTS)
        pts = np.column_stack([x1, np.zeros_like(x1)])
        with np.errstate(over="ignore", invalid="ignore"):  # inf or 0/0 reads NaN: a fail
            t = freefield_traction(m, source_or_wave, omega, pts, normal,
                                   half_plane=include_reflection)
            ref = freefield_traction(m, source_or_wave, omega, pts, normal, half_plane=False)
            ratios = np.max(np.abs(t), axis=1) / np.max(np.abs(ref), axis=1)
        return float(_worst(worst, *ratios.tolist()))
    xi = kernels._pair(source_or_wave, "source_or_wave")
    spread = 5.0 * max(lam, abs(xi[1]))
    for x1 in np.linspace(xi[0] - spread, xi[0] + spread, _SCAN_POINTS):
        x = (float(x1), 0.0)
        t = green_traction(m, x, xi, omega, normal)
        ref = fundamental_traction(m, x, xi, omega, normal)
        scale = float(np.max(np.abs(ref)))
        worst = _worst(worst, float(np.max(np.abs(t))) / scale)
    return float(worst)


def _random_wave(mode: str, rng) -> IncidentWave:
    return IncidentWave(mode=mode, amplitude=1.0 + 0.0j, phi=rng.uniform(0.1, 1.4))


def _pde_residual_suite(m: QcMaterial, omega: float, rng) -> dict:
    d = decompose(m)
    wp = wave_parameters(d, m.rho, omega)
    xi = (0.0, 0.0)
    worst = 0.0
    lam = 2.0 * math.pi / wp.k2  # the slow wavelength
    # probe each load column at radii scaled by its dominant mode, steps as at STEP_DIVISOR
    k_for_col = (wp.k1, wp.k2) if d.psi <= math.pi / 4.0 else (wp.k2, wp.k1)
    for kr in (0.6, 2.0, 8.0, 18.0):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        for col in (0, 1):
            r = kr / k_for_col[col]
            own = 2.0 * math.pi / k_for_col[col] if m.R3 == 0.0 else lam
            at = (r * math.cos(theta), r * math.sin(theta))
            worst = _worst(worst, pde_residual(
                lambda p, col=col: fundamental_displacement(m, p, xi, omega)[:, col],
                m, omega, at, min(own, r) / STEP_DIVISOR,
            ))
    wave_worst = 0.0
    for mode, k in (("S1", wp.k1), ("S2", wp.k2)):
        wave = _random_wave(mode, rng)
        at = tuple(rng.uniform(-lam, lam, size=2))
        wave_worst = _worst(wave_worst, pde_residual(
            lambda p: fullplane_incident(m, wave, omega, p),
            m, omega, at, 2.0 * math.pi / k / 3000.0,
        ))
    return _record("pde-residual", max_kernel_residual=worst, max_wave_residual=wave_worst)


def _dirac_flux_suite(m: QcMaterial, omega: float, rng) -> dict:
    eps = 1e-6 / wave_parameters(decompose(m), m.rho, omega).k2  # normal while k2 <= 4.5e301
    deviation = np.linalg.norm(dirac_flux(m, (0.0, 0.0), omega, eps) + np.eye(2))
    return _record("dirac-flux", deviation=float(deviation))


def _decoupling_suite(m: QcMaterial, omega: float, rng) -> dict:
    if m.R3 != 0.0:
        return {"status": "skipped", "note": f"requires R3 = 0; material has R3 = {m.R3:g}"}
    lam = _slow_wavelength(m, omega)
    points = [(rng.uniform(-2 * lam, 2 * lam), rng.uniform(-2 * lam, -0.01 * lam))
              for _ in range(20)]
    worst = decoupling_check(m, omega, points, xi=(0.0, -lam))
    return _record("decoupling", max_relative_error=worst, n_points=len(points))


def _boundary_scan_suite(m: QcMaterial, omega: float, rng) -> dict:
    lam = _slow_wavelength(m, omega)
    green_worst = 0.0
    for _ in range(5):
        xi = (rng.uniform(-lam, lam), rng.uniform(-2.0 * lam, -0.05 * lam))
        green_worst = _worst(green_worst, boundary_traction_scan(m, omega, xi))
    wave_worst = 0.0
    for mode in ("S1", "S2"):
        wave = _random_wave(mode, rng)
        wave_worst = _worst(wave_worst, boundary_traction_scan(m, omega, wave))
    return _record("boundary-scan", max_green_traction=green_worst,
                   max_freefield_traction=wave_worst)


# The suites ``qcwaves verify`` runs, in their default order. (The annotation
# is not evaluated, so importing this module does not import numpy.random.)
SUITES: dict[str, Callable[[QcMaterial, float, np.random.Generator], dict]] = {
    "pde-residual": _pde_residual_suite,
    "dirac-flux": _dirac_flux_suite,
    "decoupling": _decoupling_suite,
    "boundary-scan": _boundary_scan_suite,
}


def run(m: QcMaterial, omegas: Sequence[float], suites: Sequence[str] = tuple(SUITES),
        seed: int = DEFAULT_SEED) -> Iterator[dict]:
    """Yield the record ``{"name", **runner(m, omega, rng), "omega"}`` of each suite at each omega.

    Each (omega, suite) pair draws from ``np.random.default_rng((seed, k))``, k the suite's
    position in SUITES, so a record depends only on m, omega, the suite and the seed, not on
    which suites run or in what order. Before any suite runs, wave_table checks m and omegas,
    and an omega below the band (k1 < 1e-300), an empty suite list, an unknown or repeated
    name or a negative seed raises ValidationError.
    """
    waves = wave_table(m, omegas)
    for wp in waves:
        if not wp.k1 >= _K1_MIN:
            raise ValidationError(f"--omega {wp.omega:g} is below the verify band: k1 = "
                                  f"{wp.k1:g} must be at least {_K1_MIN:g}")
    if not suites:
        raise ValidationError("empty suite list")
    for i, name in enumerate(suites):
        if name not in SUITES:
            raise ValidationError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
        if name in suites[:i]:
            raise ValidationError(f"suite {name!r} is repeated")
    if seed < 0:
        raise ValidationError(f"--seed must be >= 0; got {seed}")
    for wp in waves:
        for name in suites:
            rng = np.random.default_rng((seed, list(SUITES).index(name)))
            yield {"name": name, **SUITES[name](m, wp.omega, rng), "omega": wp.omega}


def all_passed(records) -> bool:
    """The pass rule of a verify run: no record failed (a skipped suite does not fail)."""
    return all(r["status"] != "fail" for r in records)
