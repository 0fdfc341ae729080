"""Correctness gate of the benchmark: an independent reference and the rules
that decide whether one CLI invocation failed.

The reference evaluates the same closed forms as qcwaves through a separate
route: ``numpy.linalg.eigh`` for the material decomposition,
``scipy.special.hankel1`` for the cylinder functions and numpy exponentials
for the free fields, all over whole arrays. scipy is a development tool
only; the qcwaves package never imports it.

The error of one CSV row is measured per quantity block (displacement,
traction) against the magnitude of the terms the block sums: the direct and
image kernels for ``green-half``, the incident and reflected waves for
``freefield-half``. Both sums cancel on purpose (the traction on x2 = 0, the
nodes of a standing wave), where an error relative to the cancelled sum
would measure round-off of the inputs rather than a defect.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# Documented accuracy of qcwaves against its oracles.
ACCURACY = 1e-12

# Arguments at or below this value take the ascending-series branch of the
# qcwaves cylinder functions; larger ones the phase-amplitude branch.
SERIES_CUT = 4.0

# (value key, tolerance key) pairs of each verify suite's check record.
MARGIN_KEYS = {
    "pde-residual": (("max_kernel_residual", "kernel_tolerance"),
                     ("max_wave_residual", "wave_tolerance")),
    "dirac-flux": (("deviation", "tolerance"),),
    "reciprocity": (("max_deviation", "tolerance"),),
    "decoupling": (("max_relative_error", "tolerance"),),
    "boundary-scan": (("max_green_traction", "green_tolerance"),
                      ("max_freefield_traction", "freefield_tolerance")),
}


class GateError(Exception):
    """The output does not have the shape the scenario asks for."""


def digest(paths) -> str:
    """SHA-256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def csv_columns(scenario: dict) -> list[str]:
    """Expected CSV header for a ``green-half`` or ``freefield-half`` scenario."""
    traction = "traction" in scenario["outputs"]
    if scenario["kind"] == "green-half":
        names = ["u31", "u32", "w31", "w32"]
        if traction:
            names += ["t31", "t32", "G31", "G32"]
    elif scenario["kind"] == "freefield-half":
        names = ["u3", "w3"] + (["t3", "G3"] if traction else [])
    else:
        raise GateError(f"no reference for scenario kind {scenario['kind']!r}")
    return ["x1", "x2"] + [f"{n}_{part}" for n in names for part in ("re", "im")]


def grid_points(scenario: dict) -> tuple[np.ndarray, np.ndarray]:
    """Grid coordinates in CSV order: x1 outer, x2 inner."""
    axes = []
    for lo, hi, n in (scenario["grid"]["x1"], scenario["grid"]["x2"]):
        axes.append(np.array([lo]) if n == 1 else lo + np.arange(n) * ((hi - lo) / (n - 1)))
    x1, x2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    return x1.ravel(), x2.ravel()


def _material_matrix(material: dict) -> np.ndarray:
    return np.array([[material["c44"], material["R3"]], [material["R3"], material["K2"]]])


def _green_term(material, omega, x1, x2, src, normal):
    """Kernel of one source: displacement and traction, each (N, 2, 2), [field, load]."""
    from scipy.special import hankel1

    c = _material_matrix(material)
    lam, vec = np.linalg.eigh(c)
    k = omega * np.sqrt(material["rho"] / lam)
    r1 = x1 - src[0]
    r2 = x2 - src[1]
    r = np.hypot(r1, r2)
    kr = r[:, None] * k[None, :]
    f = 1j / (4.0 * lam) * hankel1(0, kr)
    g = -1j * k / (4.0 * lam) * hankel1(1, kr)
    disp = np.einsum("am,nm,bm->nab", vec, f, vec)
    grad = np.einsum("am,nm,bm->nab", vec, g, vec)
    dn = grad * ((r1 * normal[0] + r2 * normal[1]) / r)[:, None, None]
    trac = np.einsum("fa,nai->nfi", c, dn)
    return disp, trac


def _green_blocks(scenario, material, x1, x2):
    omega = scenario["omega"]
    src = scenario["source"]
    normal = scenario.get("normal", (0.0, 1.0))
    direct = _green_term(material, omega, x1, x2, src, normal)
    image = _green_term(material, omega, x1, x2, (src[0], -src[1]), normal)
    blocks = []
    for d, i in zip(direct, image):
        value = (d + i).reshape(len(x1), 4)
        scale = np.abs(d).reshape(len(x1), 4).max(axis=1) + np.abs(i).reshape(len(x1), 4).max(axis=1)
        blocks.append((value, scale))
    return blocks


def _freefield_blocks(scenario, material, x1, x2):
    c = _material_matrix(material)
    lam, vec = np.linalg.eigh(c)
    wave = scenario["wave"]
    mode = int(np.argmax(lam)) if wave["mode"] == "S1" else int(np.argmin(lam))
    zeta = vec[:, mode]
    if zeta[1] < 0.0:  # qcwaves fixes both polarizations with a positive phason part
        zeta = -zeta
    k = scenario["omega"] * math.sqrt(material["rho"] / lam[mode])
    amp = complex(*wave["amplitude"])
    cphi, sphi = math.cos(wave["phi"]), math.sin(wave["phi"])
    e_inc = np.exp(1j * k * (x1 * cphi + x2 * sphi))
    e_ref = np.exp(1j * k * (x1 * cphi - x2 * sphi))
    disp = amp * (e_inc + e_ref)[:, None] * zeta[None, :]
    disp_scale = np.full(len(x1), 2.0 * abs(amp) * np.abs(zeta).max())
    blocks = [(disp, disp_scale)]
    if "traction" in scenario["outputs"]:
        n1, n2 = scenario["normal"]
        dn = amp * 1j * k * (cphi * n1 * (e_inc + e_ref) + sphi * n2 * (e_inc - e_ref))
        czeta = c @ zeta
        trac = dn[:, None] * czeta[None, :]
        trac_scale = np.full(len(x1), 2.0 * abs(amp) * k * (abs(cphi * n1) + abs(sphi * n2))
                             * np.abs(czeta).max())
        blocks.append((trac, trac_scale))
    return blocks


def row_errors(csv_path, scenario: dict, material: dict) -> np.ndarray:
    """Per-row relative error of a sampled CSV against the reference.

    Raises GateError when the header, the row count or the grid coordinates
    do not match the scenario. A non-finite value gives an infinite error.
    """
    columns = csv_columns(scenario)
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    if header != columns:
        raise GateError(f"CSV header {header} differs from {columns}")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    x1, x2 = grid_points(scenario)
    if data.shape != (len(x1), len(columns)):
        raise GateError(f"CSV has shape {data.shape}; expected {(len(x1), len(columns))}")
    extent = max(np.abs(x1).max(), np.abs(x2).max(), 1e-300)
    if not (np.abs(data[:, 0] - x1).max() <= 1e-12 * extent
            and np.abs(data[:, 1] - x2).max() <= 1e-12 * extent):
        raise GateError("CSV coordinates differ from the scenario grid")
    got = data[:, 2::2] + 1j * data[:, 3::2]
    # evaluate the reference at the coordinates the CSV reports
    make = _green_blocks if scenario["kind"] == "green-half" else _freefield_blocks
    errors = np.zeros(len(x1))
    start = 0
    for value, scale in make(scenario, material, data[:, 0], data[:, 1]):
        width = value.shape[1]
        diff = np.abs(got[:, start:start + width] - value).max(axis=1)
        errors = np.maximum(errors, diff / scale)
        start += width
    return np.where(np.isfinite(got).all(axis=1), errors, np.inf)


def series_share(scenario: dict, k: tuple[float, float]) -> float:
    """Share of cylinder-function arguments k_i * r on the series branch.

    Counts k1 r and k2 r for the source and for its image, the arguments a
    ``green-half`` sample evaluates at every point.
    """
    x1, x2 = grid_points(scenario)
    src = scenario["source"]
    args = [ki * np.hypot(x1 - src[0], x2 - sy) for ki in k for sy in (src[1], -src[1])]
    return float(np.mean(np.concatenate(args) <= SERIES_CUT))


def verify_margin(reports) -> float:
    """Largest value / tolerance over the checks of the given verify reports."""
    margin = 0.0
    for report in reports:
        for check in report["checks"]:
            if check["status"] == "skipped":
                continue
            for value_key, tol_key in MARGIN_KEYS[check["name"]]:
                margin = max(margin, check[value_key] / check[tol_key])
    return margin


def failure(exit_codes, output_digest, first_digest, max_rel_err=None, reports=None):
    """Why one invocation counts as failed, or None if it passed.

    An invocation fails if any process exits non-zero, if its output bytes
    differ from the first invocation on the same inputs, if a sampled CSV is
    further than ACCURACY from the reference, or if a verify report does not
    say all_passed.
    """
    if any(code != 0 for code in exit_codes):
        return f"exit codes {list(exit_codes)}"
    if output_digest != first_digest:
        return "output bytes differ from the first invocation"
    if max_rel_err is not None and not max_rel_err <= ACCURACY:
        return f"max relative error {max_rel_err:.3g} exceeds {ACCURACY:g}"
    if reports is not None and not all(r.get("all_passed") is True for r in reports):
        return "verify report does not say all_passed"
    return None
