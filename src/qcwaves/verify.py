"""Independent checks certifying the analytic properties of the solutions.

Each check tests a property the closed-form solutions must satisfy (a mode's Helmholtz
equation, the Dirac load, the representation identity of both geometries, the radiated power)
by a route independent of the kernel algebra: a finite-difference stencil, quadrature against
the plane-wave free fields, which call no cylinder function, or C alone. It returns what it
measured and decides nothing; no check draws random numbers. Every reduction is ``_worst``,
a max that is NaN if any value is (``max(0.0, nan)`` is 0.0), so a NaN result fails, as does
an overflow. ``SUITES`` maps each ``qcwaves verify`` suite name to a runner
``(m, omega) -> dict`` that returns ``_record`` of its values: its ``status`` by the pass
rule of ``LIMITS`` alone, the values and their tolerances. ``run`` is the whole
``qcwaves verify`` run. Points and sources are read through kernels._pair.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import kernels  # the pair rule via the module, as halfplane and freefield call it
from .errors import RadiusTooLarge, StencilOutOfDomain, ValidationError
from .freefield import (IncidentWave, _check_mode, freefield_stress, fullplane_incident,
                        halfplane_freefield)
from .halfplane import green_displacement, green_traction
from .kernels import fundamental_displacement, fundamental_traction
from .material import QcMaterial, _scaled_determinant, decompose, wave_parameters, wave_table

__all__ = ["DEFAULT_SEED", "SUITES", "DIRAC_FLUX_TOLERANCE", "REPRESENTATION_TOLERANCE",
           "RADIATION_TOLERANCE", "LIMITS", "pde_residual", "dirac_flux", "identity_residuals",
           "run", "all_passed"]

# The seed a report records. No check draws from it; it stays while the benchmark's verify
# command passes --seed.
DEFAULT_SEED = 20240517

# pde_residual steps 2 pi / 3000 of its mode's own phase, h = _KH / k: the stencil's
# truncation and round-off are then the same for every mode at every scale.
_KH = 2.0 * math.pi / 3000.0
# k r of each mode's circles, one per table piece of the cylinder functions: <= 4, ..., > 16.
# At 3.9, r stays normal up to k = 1.75e308 and t* ~ k |H1(3.9)| finite up to the float max.
_RADII = (3.9, 6.0, 12.0, 40.0)
_THETA = 0.9  # angle of the node where each circle reads its kernel pair: off both axes
_HALF_NODES = 64  # Gauss-Legendre nodes of identity_residuals' half-plane arc
_PHI = 1.2  # incidence angle of its plane waves
# The verify band's low end: the widest circle, 40 / k1, leaves the float range below
# k1 = 2.2e-307, 4.5e6 times below it, and the half-plane arc (lambda2) below k2 = 3.5e-308.
_K1_MIN = 1e-300

# Pass thresholds, each reported next to the value it bounds.
DIRAC_FLUX_TOLERANCE = 1.2e-10  # clean <= 1.03e-11 (inertia at eps k2 = 1e-6); Y x (1+1e-9): 1.4e-9
# About the geometric middle of the worst clean value over 14,000 tests/strategies.py draws in
# the band and the smallest 1e-9 defect seen: 1.4e-15 and 2.5e-10 (K0), 2.2e-15 and 1.0e-9 (J)
REPRESENTATION_TOLERANCE = 5.2e-13
RADIATION_TOLERANCE = 1.5e-12

# The (value key, tolerance key, tolerance) of each value a suite's record bounds. A record
# passes when every value is below its tolerance (NaN is not); no suite adds a rule of its own.
LIMITS = {
    "dirac-flux": (("deviation", "tolerance", DIRAC_FLUX_TOLERANCE),
                   ("representation_residual", "representation_tolerance",
                    REPRESENTATION_TOLERANCE),
                   ("radiation_residual", "radiation_tolerance", RADIATION_TOLERANCE)),
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

    ``field`` maps a point to the pair (u3, w3), or to a 2 x c matrix of such columns (a
    kernel's load columns); phi = q . column on the row q, (cos t, sin t) for "S1" and
    (-sin t, cos t) for "S2", of the Jacobi rotation t = atan2(R3, (c44 - K2) / 2) / 2 of C
    alone, so a wrong psi mixes the modes. The 5-point stencil steps h = _KH / k, k the mode's
    wavenumber; a kernel probed at k r >= 0.5 reads below 1e-4. Returns the worst column's
    |Laplacian(phi) / k^2 + phi| / |column| (a zero column: 0.0 if its residual is zero, else
    inf). A failure on the stencil raises StencilOutOfDomain, an unknown mode ValidationError.
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

    As eps -> 0 the flux tends to -I2 (the Dirac load of the governing system); its deviation
    from -I2 is O(eps^2 ln eps), from the omitted inertia term. Requires eps * k2 < 0.1. On a
    circle centred at xi the outward traction is the same at every point, so the flux is
    2 pi eps times its value at (xi1 + eps, xi2) with normal (1, 0), where the traction
    entries are the stress entries exactly: the kernel scale and z K1(z) -> 1, no quadrature.
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


def _waves(m: QcMaterial, omega: float) -> list[tuple[IncidentWave, float]]:
    """Each mode's incident wave at _PHI and its wavenumber k. The amplitude 1 / (sqrt(k)
    sqrt(a)) keeps u, t(u) and every term of the identities inside the float range."""
    d = decompose(m)
    wp = wave_parameters(d, m.rho, omega)
    return [(IncidentWave(mode, 1.0 / (math.sqrt(k) * math.sqrt(a)), _PHI), k)
            for mode, k, a in (("S1", wp.k1, d.a1), ("S2", wp.k2, d.a2))]


def _circle_residuals(m: QcMaterial, omega: float) -> tuple[float, float]:
    """(representation, radiation) on the full-plane circles of identity_residuals."""
    det, e = _scaled_determinant(m)
    sizes = np.array([32 + math.ceil(2.0 * kr) for kr in _RADII])
    starts = np.cumsum([0, *sizes[:-1]])
    theta = _THETA + 2.0 * math.pi * np.concatenate([np.arange(n) / n for n in sizes])
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    representation = radiation = 0.0
    for wave, k in _waves(m, omega):
        r = np.array(_RADII) / k
        nodes = np.repeat(r, sizes)[:, None] * normals
        v = np.array([fundamental_displacement(m, nodes[i], (0.0, 0.0), omega) for i in starts])
        t = np.array([fundamental_traction(m, nodes[i], (0.0, 0.0), omega, normals[i])
                      for i in starts])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf/NaN: a fail
            u = fullplane_incident(m, wave, omega, np.vstack([nodes, (0.0, 0.0)]))
            stress = np.stack(freefield_stress(m, wave, omega, nodes, half_plane=False), 1)
            tu, w = np.einsum("nfj,nj->nf", stress, normals), (2.0 * math.pi * r / sizes)[:, None]
            # one v*, t* pair per circle: the sums of t(u), u and of their magnitudes suffice,
            # weighted last (w u alone can underflow)
            s_tu, s_u, a_tu, a_u = (np.add.reduceat(z, starts)
                                    for z in (tu, u[:-1], np.abs(tu), np.abs(u[:-1])))
            gap = np.abs(w * (s_tu[:, None] @ v - s_u[:, None] @ t)[:, 0] - u[-1])  # [circle, i]
            terms = w * (a_tu[:, None] @ np.abs(v) + a_u[:, None] @ np.abs(t))[:, 0]
            representation = _worst(representation, float(np.max(gap.max(1) / terms.max(1))))
            v_max, t_max = (np.abs(z).max(axis=(1, 2))[:, None, None] for z in (v, t))
            v, t = v / v_max, t / t_max
            power = (np.einsum("cfi,cfj->cij", v.conj(), t)
                     - np.einsum("cfi,cfj->cij", t.conj(), v)) / 2j
            # C^-1 / 4 relative to 2 pi r max|v*| max|t*|; 4 det C may overflow
            target = (np.ldexp(np.array([[m.K2, -m.R3], [-m.R3, m.c44]]) / det, -2 * e)
                      / v_max / (r[:, None, None] * t_max * (8.0 * math.pi)))
            radiation = _worst(radiation, float(np.max(np.abs(power - target))))
    return representation, radiation


def _arc_residual(m: QcMaterial, omega: float) -> float:
    """The worst representation residual on the half-plane arc of identity_residuals."""
    waves = _waves(m, omega)
    lam = 2.0 * math.pi / waves[1][1]
    gauss, weights = _gauss_legendre(_HALF_NODES)
    theta, weights = 1.5 * math.pi + 0.5 * math.pi * gauss, 0.5 * math.pi * lam * weights
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    nodes, xi = lam * normals, (0.1 * lam, -0.4 * lam)
    pairs = list(zip(nodes.tolist(), normals.tolist()))  # g* [node, f, i] once, for both modes
    g = np.array([green_displacement(m, x, xi, omega) for x, _ in pairs])
    gt = np.array([green_traction(m, x, xi, omega, n) for x, n in pairs])
    worst = 0.0
    for wave, _ in waves:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf/NaN: a fail
            stress = np.stack(freefield_stress(m, wave, omega, nodes, half_plane=True), 1)
            u = halfplane_freefield(m, wave, omega, np.vstack([nodes, xi]))
            # g* varies from node to node: the terms g*[f, i] t_f(u) and g*_t[f, i] u_f node-wise
            vt = g * np.einsum("nfj,nj->nf", stress, normals)[:, :, None]
            tu = gt * u[:-1, :, None]
            gap = np.abs(weights @ (vt - tu).sum(1) - u[-1])
            terms = weights @ (np.abs(vt) + np.abs(tu)).sum(1)
            worst = _worst(worst, float(np.max(gap) / np.max(terms)))
    return worst


def identity_residuals(m: QcMaterial, omega: float) -> tuple[float, float]:
    """Worst residuals (representation, radiation) of the identities boundary elements rest on.

    Representation: u_i(xi) = contour integral of sum_f (v*[f, i] t_f(u) - t*[f, i] u_f) ds
    for each mode's wave u (_waves) and its traction t(u) on the outward normal. Full plane:
    circles |x| = kr / k about xi = 0, kr in _RADII, on 32 + ceil(2 kr) trapezoid nodes; v*
    and t* are the same at every node, so each circle reads one kernel pair, at angle _THETA.
    Half plane: g* and the reflected wave on _HALF_NODES Gauss-Legendre nodes of the lower
    semicircle of radius lambda2 about 0, xi = (0.1, -0.4) lambda2, where a wrong image or
    reflected term reads O(1). It sees only the Y half of the kernel: the J half is regular.

    Radiation: on each circle (1 / 2i) 2 pi r (v*^H t* - t*^H v*) = Q diag(1 / (4 a1),
    1 / (4 a2)) Q^T = C^-1 / 4, formed as adj(C) / (4 det C) from C alone: per mode the
    Wronskian J0 Y1 - Y0 J1 = -2 / (pi x) (DLMF 10.5.2). Its largest entry off, relative to
    2 pi r max|v*| max|t*|, sees J and Y alike, but not a phase common to both.
    """
    representation, radiation = _circle_residuals(m, omega)
    return _worst(representation, _arc_residual(m, omega)), radiation


def _dirac_flux_suite(m: QcMaterial, omega: float) -> dict:
    eps = 1e-6 / wave_parameters(decompose(m), m.rho, omega).k2  # normal while k2 <= 4.5e301
    deviation = np.linalg.norm(dirac_flux(m, (0.0, 0.0), omega, eps) + np.eye(2))
    representation, radiation = identity_residuals(m, omega)
    return _record("dirac-flux", deviation=float(deviation),
                   representation_residual=representation, radiation_residual=radiation)


# The suites ``qcwaves verify`` runs, in their default order.
SUITES: dict[str, Callable[[QcMaterial, float], dict]] = {"dirac-flux": _dirac_flux_suite}


def run(m: QcMaterial, omegas: Sequence[float], suites: Iterable[str] = tuple(SUITES),
        seed: int = DEFAULT_SEED) -> Iterator[dict]:
    """Yield the record ``{"name", **runner(m, omega), "omega"}`` of each suite at each omega.

    ``suites`` is read once, so any iterable of names will do; ``seed`` changes no record.
    Before any suite runs, wave_table checks m and omegas, and an omega below the band
    (k1 < 1e-300), an empty suite list, an unknown or repeated name or a negative seed raises
    ValidationError."""
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
            yield {"name": name, **SUITES[name](m, wp.omega), "omega": wp.omega}


def all_passed(records) -> bool:
    """The pass rule of a verify run: no record failed."""
    return all(r["status"] != "fail" for r in records)
