"""Independent checks certifying the analytic properties of the solutions.

Each check here exercises a property the closed-form solutions must satisfy
(equations of motion, Dirac normalization, symmetry, decoupling at R3 = 0,
traction-free boundaries) through a route independent of the kernel
algebra: finite-difference stencils, contour quadrature, closed isotropic
forms coded directly, or plain re-evaluation with swapped arguments.

All checks are deterministic: random sampling draws from the generator
the caller passes, and aggregation is order-independent, so reports are
reproducible bit for bit. Every reduction is ``_worst``, a max that returns
NaN if any value is NaN (the builtin ``max(0.0, nan)`` is 0.0), so a NaN
result fails its check.

Each check returns what it measured: a worst relative value as a float, or
for ``dirac_flux`` the 2x2 flux matrix. It decides nothing. ``SUITES`` maps
each ``qcwaves verify`` suite name to a runner ``(m, omega, rng) -> dict``
that samples its layout from ``rng``, applies its pass rule and reports a
``status`` ("pass", "fail", "skipped"), the measured values and their
tolerances. ``run`` is the whole ``qcwaves verify`` run: it seeds
each (omega, suite) pair with its own generator and yields the records.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import RadiusTooLarge, StencilOutOfDomain, ValidationError
from .freefield import IncidentWave, freefield_traction, fullplane_incident
from .halfplane import green_displacement, green_traction, image_point
from .kernels import fundamental_displacement, fundamental_traction
from .material import QcMaterial, decompose, validate, wave_parameters
from .specfun import macdonald_k0_neg_i

__all__ = [
    "DEFAULT_SEED",
    "SUITES",
    "PDE_KERNEL_TOLERANCE",
    "PDE_WAVE_TOLERANCE",
    "DIRAC_FLUX_TOLERANCE",
    "GREEN_TRACTION_TOLERANCE",
    "FREEFIELD_TRACTION_TOLERANCE",
    "RECIPROCITY_TOLERANCE",
    "DECOUPLING_TOLERANCE",
    "default_step",
    "pde_residual",
    "dirac_flux",
    "reciprocity_check",
    "decoupling_check",
    "boundary_traction_scan",
    "run",
    "all_passed",
]

DEFAULT_SEED = 20240517

# Wavelength fraction for finite-difference stencils. 1/400 of the slow
# wavelength keeps the O(h^2) truncation residual below 1e-4 relative even
# at k*r = 0.5, where the log-singular kernel has the largest fourth
# derivatives relative to rho*omega^2*v.
STEP_DIVISOR = 400.0

# Pass thresholds of the suites, each reported next to the value it bounds.
PDE_KERNEL_TOLERANCE = 1e-4  # O(h^2) stencil truncation at the default step
PDE_WAVE_TOLERANCE = 1e-6  # smooth plane waves on a 1/3000-wavelength stencil
DIRAC_FLUX_TOLERANCE = 1e-3  # omitted inertia term at eps * k2 = 1e-3
GREEN_TRACTION_TOLERANCE = 1e-10  # image cancellation relative to one source
FREEFIELD_TRACTION_TOLERANCE = 1e-13  # exactly zero up to round-off
RECIPROCITY_TOLERANCE = 1e-12  # symmetric by construction, up to round-off
DECOUPLING_TOLERANCE = 1e-12  # same K0 values through two routes


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


def default_step(m: QcMaterial, omega: float, r: Optional[float] = None) -> float:
    """Stencil step h = min(slow wavelength, r) / STEP_DIVISOR.

    Scaling to the local wavelength makes residual checks omega-invariant;
    pass r (distance to the nearest singular point) to shrink the stencil
    near a source.
    """
    lam = _slow_wavelength(m, omega)
    if r is not None:
        lam = min(lam, r)
    return lam / STEP_DIVISOR


def pde_residual(
    field: Callable[[tuple[float, float]], Sequence[complex]],
    m: QcMaterial,
    omega: float,
    at,
    h: Optional[float] = None,
) -> float:
    """Relative residual of C * Laplacian(field) + rho omega^2 field = 0 at a point.

    The Laplacian is the standard 5-point stencil with step h (default:
    :func:`default_step`). ``field`` maps a point (x1, x2) to the pair
    (u3, w3); evaluation failures on the stencil raise StencilOutOfDomain.
    Both norms are of the equation divided by rho omega^2 (the reference is
    the field), each scaled by its largest entry: no square overflows. A
    zero field at the point gives 0.0 if the residual is zero too, else inf.
    """
    validate(m)
    if h is None:
        h = default_step(m, omega)
    x1, x2 = float(at[0]), float(at[1])
    stencil = [(x1, x2), (x1 + h, x2), (x1 - h, x2), (x1, x2 + h), (x1, x2 - h)]
    try:
        vals = [np.asarray(field(p), dtype=complex) for p in stencil]
    except Exception as exc:
        raise StencilOutOfDomain(f"field evaluation failed on the stencil: {exc}") from exc
    center = vals[0]
    lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4.0 * center) / (omega * h) / (omega * h)
    residual = (m.matrix() / m.rho) @ lap + center
    res_norm, ref_norm = _norm(residual), _norm(center)
    if ref_norm == 0.0:
        return 0.0 if res_norm == 0.0 else math.inf
    return res_norm / ref_norm


def dirac_flux(
    m: QcMaterial,
    xi,
    omega: float,
    eps: float,
    n_nodes: int = 256,
    include_area_term: bool = False,
) -> np.ndarray:
    """Trapezoid contour integral of the fundamental traction over |x-xi| = eps, a 2x2 matrix.

    As eps -> 0 the flux tends to -I2 (the Dirac load of the governing
    system); its deviation from -I2 is O(eps^2 ln eps), from the omitted
    inertia term. Requires eps * max(k1, k2) < 0.1 and n_nodes >= 64. With
    ``include_area_term`` the disk integral of rho omega^2 v*, by
    Gauss-Legendre-in-r x trapezoid-in-theta quadrature, is added: the sum
    is the full divergence-theorem budget, -I2 up to quadrature error.
    """
    wp = wave_parameters(decompose(m), m.rho, omega)
    if not (eps > 0.0) or eps * wp.k2 >= 0.1:
        raise RadiusTooLarge(
            f"need 0 < eps * k2 < 0.1; got eps*k2 = {eps * wp.k2:g}"
        )
    if n_nodes < 64:
        raise ValueError(f"need n_nodes >= 64; got {n_nodes}")
    xi1, xi2 = float(xi[0]), float(xi[1])
    flux = np.zeros((2, 2), dtype=complex)
    weight = 2.0 * math.pi * eps / n_nodes
    for mnode in range(n_nodes):
        theta = 2.0 * math.pi * mnode / n_nodes
        n = (math.cos(theta), math.sin(theta))
        x = (xi1 + eps * n[0], xi2 + eps * n[1])
        flux += fundamental_traction(m, x, (xi1, xi2), omega, n) * weight
    if include_area_term:
        nodes, weights = np.polynomial.legendre.leggauss(16)
        radii = 0.5 * eps * (nodes + 1.0)
        rweights = 0.5 * eps * weights
        area = np.zeros((2, 2), dtype=complex)
        for r, wr in zip(radii, rweights):
            ring = np.zeros((2, 2), dtype=complex)
            for mnode in range(n_nodes):
                theta = 2.0 * math.pi * mnode / n_nodes
                x = (xi1 + r * math.cos(theta), xi2 + r * math.sin(theta))
                ring += fundamental_displacement(m, x, (xi1, xi2), omega)
            area += ring * (2.0 * math.pi / n_nodes) * r * wr
        flux += area * (m.rho * omega * omega)
    return flux


def reciprocity_check(m: QcMaterial, omega: float, rng: np.random.Generator,
                      sample_count: int = 100) -> float:
    """Worst relative deviation from v*_12 = v*_21 and v*(x, xi) = v*(xi, x) over
    point pairs drawn from rng."""
    if sample_count < 1:
        raise ValueError(f"need sample_count >= 1; got {sample_count}")
    lam = _slow_wavelength(m, omega)
    worst = 0.0
    drawn = 0
    while drawn < sample_count:
        x = rng.uniform(-2.0 * lam, 2.0 * lam, size=2)
        xi = rng.uniform(-2.0 * lam, 2.0 * lam, size=2)
        r = math.dist(x, xi)
        if r < 1e-3 * lam:
            continue
        drawn += 1
        v_xy = fundamental_displacement(m, x, xi, omega)
        v_yx = fundamental_displacement(m, xi, x, omega)
        scale = float(np.max(np.abs(v_xy)))
        worst = _worst(worst, float(abs(v_xy[0, 1] - v_xy[1, 0]) / scale),
                       float(np.max(np.abs(v_xy - v_yx))) / scale)
    return worst


def _isotropic_pair(m: QcMaterial, omega: float, r: float) -> tuple[complex, complex]:
    """Closed uncoupled forms: diagonal of v* at R3 = 0, coded directly."""
    k_u = omega * math.sqrt(m.rho / m.c44)
    k_w = omega * math.sqrt(m.rho / m.K2)
    two_pi = 2.0 * math.pi
    return (
        macdonald_k0_neg_i(k_u * r) / (two_pi * m.c44),
        macdonald_k0_neg_i(k_w * r) / (two_pi * m.K2),
    )


def _diagonal_errors(v: np.ndarray, u: complex, w: complex) -> tuple[float, ...]:
    """Entry errors of the 2x2 v against diag(u, w), relative to max(|u|, |w|)."""
    scale = max(abs(u), abs(w))
    return (float(abs(v[0, 0] - u) / scale), float(abs(v[1, 1] - w) / scale),
            float(abs(v[0, 1]) / scale), float(abs(v[1, 0]) / scale))


def decoupling_check(
    m: QcMaterial,
    omega: float,
    points: Sequence,
    xi=(0.0, -1.0),
) -> float:
    """At R3 = 0, the worst relative error of the kernels against the closed isotropic forms.

    The fundamental solution must be diagonal with entries
    K0(-i k r)/(2 pi c44) and K0(-i k r)/(2 pi K2); when the source lies in
    the half-plane, points with x2 <= 0 are additionally checked against the
    image-sum Green's form. Raises ValueError for R3 != 0 or no points.
    """
    if m.R3 != 0.0:
        raise ValueError(f"decoupling check requires R3 = 0; got R3 = {m.R3}")
    if len(points) < 1:
        raise ValueError("need at least one point")
    validate(m)
    worst = 0.0
    half_plane_source = float(xi[1]) < 0.0
    for p in points:
        r = math.dist(p, xi)
        u_iso, w_iso = _isotropic_pair(m, omega, r)
        v = fundamental_displacement(m, p, xi, omega)
        worst = _worst(worst, *_diagonal_errors(v, u_iso, w_iso))
        if half_plane_source and float(p[1]) <= 0.0:
            u_im, w_im = _isotropic_pair(m, omega, math.dist(p, image_point(xi)))
            g = green_displacement(m, p, xi, omega)
            worst = _worst(worst, *_diagonal_errors(g, u_iso + u_im, w_iso + w_im))
    return worst


def boundary_traction_scan(
    m: QcMaterial,
    omega: float,
    source_or_wave,
    n_points: int = 50,
    include_reflection: bool = True,
) -> float:
    """Maximum normalized traction magnitude over boundary points x2 = 0.

    For a source point, scans the half-plane Green's traction normalized by
    the single-source traction at the same point. For an IncidentWave, scans
    the half-plane free field normalized by the incident wave alone;
    ``include_reflection=False`` scans the unreflected incident wave instead
    (negative control: the result is then O(1)). Raises ValueError for n_points < 1.
    """
    if n_points < 1:
        raise ValueError(f"need n_points >= 1; got {n_points}")
    lam = _slow_wavelength(m, omega)
    normal = (0.0, 1.0)
    worst = 0.0
    if isinstance(source_or_wave, IncidentWave):
        x1 = np.linspace(-5.0 * lam, 5.0 * lam, n_points)
        pts = np.column_stack([x1, np.zeros_like(x1)])
        t = freefield_traction(m, source_or_wave, omega, pts, normal,
                               half_plane=include_reflection)
        ref = freefield_traction(m, source_or_wave, omega, pts, normal, half_plane=False)
        ratios = np.max(np.abs(t), axis=1) / np.max(np.abs(ref), axis=1)
        return float(_worst(worst, *ratios.tolist()))
    xi = (float(source_or_wave[0]), float(source_or_wave[1]))
    spread = 5.0 * max(lam, abs(xi[1]))
    for x1 in np.linspace(xi[0] - spread, xi[0] + spread, n_points):
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
    # probe each load column at radii scaled by its dominant mode
    k_for_col = (wp.k1, wp.k2) if d.psi <= math.pi / 4.0 else (wp.k2, wp.k1)
    for kr in (0.6, 2.0, 8.0, 18.0):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        for col in (0, 1):
            r = kr / k_for_col[col]
            at = (r * math.cos(theta), r * math.sin(theta))
            worst = _worst(worst, pde_residual(
                lambda p, col=col: fundamental_displacement(m, p, xi, omega)[:, col],
                m, omega, at, h=default_step(m, omega, r),
            ))
    lam = _slow_wavelength(m, omega)
    wave_worst = 0.0
    for mode in ("S1", "S2"):
        wave = _random_wave(mode, rng)
        at = tuple(rng.uniform(-lam, lam, size=2))
        wave_worst = _worst(wave_worst, pde_residual(
            lambda p: fullplane_incident(m, wave, omega, p),
            m, omega, at, h=lam / 3000.0,  # smooth field: fine stencil
        ))
    passed = worst < PDE_KERNEL_TOLERANCE and wave_worst < PDE_WAVE_TOLERANCE
    return {
        "status": "pass" if passed else "fail",
        "max_kernel_residual": worst,
        "kernel_tolerance": PDE_KERNEL_TOLERANCE,
        "max_wave_residual": wave_worst,
        "wave_tolerance": PDE_WAVE_TOLERANCE,
    }


def _dirac_flux_suite(m: QcMaterial, omega: float, rng) -> dict:
    eps = 1e-3 / wave_parameters(decompose(m), m.rho, omega).k2
    deviations = [float(np.linalg.norm(dirac_flux(m, (0.0, 0.0), omega, eps / 2**i) + np.eye(2)))
                  for i in range(4)]
    monotone = all(b < a for a, b in zip(deviations, deviations[1:]))
    return {
        "status": "pass" if deviations[0] < DIRAC_FLUX_TOLERANCE and monotone else "fail",
        "deviation": deviations[0],
        "tolerance": DIRAC_FLUX_TOLERANCE,
        "deviations_under_halving": deviations,
        "monotone": monotone,
    }


def _reciprocity_suite(m: QcMaterial, omega: float, rng) -> dict:
    count = 100
    worst = reciprocity_check(m, omega, rng, sample_count=count)
    return {"status": "pass" if worst < RECIPROCITY_TOLERANCE else "fail",
            "max_deviation": worst, "sample_count": count, "tolerance": RECIPROCITY_TOLERANCE}


def _decoupling_suite(m: QcMaterial, omega: float, rng) -> dict:
    if m.R3 != 0.0:
        return {"status": "skipped", "note": f"requires R3 = 0; material has R3 = {m.R3:g}"}
    lam = _slow_wavelength(m, omega)
    points = [(rng.uniform(-2 * lam, 2 * lam), rng.uniform(-2 * lam, -0.01 * lam))
              for _ in range(20)]
    worst = decoupling_check(m, omega, points, xi=(0.0, -lam))
    return {"status": "pass" if worst < DECOUPLING_TOLERANCE else "fail",
            "max_relative_error": worst, "n_points": len(points),
            "tolerance": DECOUPLING_TOLERANCE}


def _boundary_scan_suite(m: QcMaterial, omega: float, rng) -> dict:
    lam = _slow_wavelength(m, omega)
    green_worst = 0.0
    for _ in range(5):
        xi = (rng.uniform(-lam, lam), rng.uniform(-2.0 * lam, -0.05 * lam))
        green_worst = _worst(green_worst, boundary_traction_scan(m, omega, xi, n_points=50))
    wave_worst = 0.0
    for mode in ("S1", "S2"):
        wave = _random_wave(mode, rng)
        wave_worst = _worst(wave_worst, boundary_traction_scan(m, omega, wave, n_points=50))
    passed = green_worst < GREEN_TRACTION_TOLERANCE and wave_worst < FREEFIELD_TRACTION_TOLERANCE
    return {
        "status": "pass" if passed else "fail",
        "max_green_traction": green_worst,
        "green_tolerance": GREEN_TRACTION_TOLERANCE,
        "max_freefield_traction": wave_worst,
        "freefield_tolerance": FREEFIELD_TRACTION_TOLERANCE,
    }


# The suites ``qcwaves verify`` runs, in their default order. (The annotation
# is not evaluated, so importing this module does not import numpy.random.)
SUITES: dict[str, Callable[[QcMaterial, float, np.random.Generator], dict]] = {
    "pde-residual": _pde_residual_suite,
    "dirac-flux": _dirac_flux_suite,
    "reciprocity": _reciprocity_suite,
    "decoupling": _decoupling_suite,
    "boundary-scan": _boundary_scan_suite,
}


def run(m: QcMaterial, omegas: Sequence[float], suites: Sequence[str] = tuple(SUITES),
        seed: int = DEFAULT_SEED) -> Iterator[dict]:
    """Yield the record ``{"name", **runner(m, omega, rng), "omega"}`` of each suite at each omega.

    Each (omega, suite) pair draws from ``np.random.default_rng((seed, k))``, k the suite's
    position in SUITES, so a record depends only on m, omega, the suite and the seed, not on
    which suites run or in what order. An unknown or repeated suite name or a negative seed
    raises ValidationError before any suite runs.
    """
    for i, name in enumerate(suites):
        if name not in SUITES:
            raise ValidationError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
        if name in suites[:i]:
            raise ValidationError(f"suite {name!r} is repeated")
    if seed < 0:
        raise ValidationError(f"--seed must be >= 0; got {seed}")
    for omega in omegas:
        for name in suites:
            rng = np.random.default_rng((seed, list(SUITES).index(name)))
            yield {"name": name, **SUITES[name](m, omega, rng), "omega": omega}


def all_passed(records) -> bool:
    """The pass rule of a verify run: no record failed (a skipped suite does not fail)."""
    return all(r["status"] != "fail" for r in records)
