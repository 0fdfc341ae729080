"""Demo: the built-in verification harness, check by check.

Runs every analytic certification the library ships with against the demo
material and prints the measured defect next to its tolerance.

    python demos/verification_tour.py
"""

import math

from qcwaves import (
    IncidentWave,
    QcMaterial,
    boundary_traction_scan,
    decompose,
    decoupling_check,
    default_step,
    dirac_flux,
    fundamental_displacement,
    pde_residual,
    reciprocity_check,
    wave_parameters,
)
from qcwaves import verify


def main():
    m = QcMaterial(c44=4.2e10, R3=1.2e9, K2=2.4e10, rho=4186.0)
    omega = 2.0 * math.pi * 1e6
    wp = wave_parameters(decompose(m), m.rho, omega)
    lam2 = 2.0 * math.pi / wp.k2

    print("equations-of-motion residual of the kernel (5-point stencil):")
    xi = (0.0, 0.0)
    for kr in (0.6, 2.0, 8.0):
        r = kr / wp.k2
        rep = pde_residual(
            lambda p: fundamental_displacement(m, p, xi, omega)[:, 0],
            m, omega, (r, 0.0), h=default_step(m, omega, r),
        )
        print(f"  k2*r = {kr:4.1f}: relative residual {rep.relative_residual:.2e}"
              f"  (tolerance {verify.PDE_KERNEL_TOLERANCE:g})")

    print("\nDirac normalization (traction flux over shrinking circles):")
    eps = 1e-3 / wp.k2
    for i in range(4):
        rep = dirac_flux(m, xi, omega, eps / 2**i, n_nodes=256)
        print(f"  eps*k2 = {rep.radius * wp.k2:8.2e}: deviation from -I2 = "
              f"{rep.deviation:.3e}")
    print(f"  (tolerance {verify.DIRAC_FLUX_TOLERANCE:g} at the largest radius)")

    print("\nreciprocity over 100 random source/receiver pairs:")
    rep = reciprocity_check(m, omega)
    print(f"  max deviation {rep.max_deviation:.2e} (tolerance {rep.tolerance:g}), "
          f"seed {rep.seed}")

    print("\ntraction-free boundary scans:")
    worst = boundary_traction_scan(m, omega, (0.3 * lam2, -0.8 * lam2))
    print(f"  Green's function: max normalized boundary traction {worst:.2e}"
          f" (tolerance {verify.GREEN_TRACTION_TOLERANCE:g})")
    for mode in ("S1", "S2"):
        wave = IncidentWave(mode=mode, amplitude=1.0, phi=0.6)
        worst = boundary_traction_scan(m, omega, wave)
        print(f"  free field {mode}: {worst:.2e}"
              f" (tolerance {verify.FREEFIELD_TRACTION_TOLERANCE:g})")
    wave = IncidentWave(mode="S1", amplitude=1.0, phi=0.6)
    control = boundary_traction_scan(m, omega, wave, include_reflection=False)
    print(f"  negative control (incident alone, no reflection): {control:.2f}")

    print("\ndecoupling limit (R3 = 0 collapses to two isotropic problems):")
    m0 = QcMaterial(c44=m.c44, R3=0.0, K2=m.K2, rho=m.rho)
    wp0 = wave_parameters(decompose(m0), m0.rho, omega)
    lam0 = 2.0 * math.pi / wp0.k2
    points = [(0.3 * lam0, -0.2 * lam0), (1.5 * lam0, -lam0), (0.8 * lam0, 0.0)]
    rep = decoupling_check(m0, omega, points, xi=(0.0, -lam0))
    print(f"  max relative error vs closed isotropic forms: "
          f"{rep.max_relative_error:.2e} over {rep.n_points} points "
          f"(tolerance {rep.tolerance:g})")


if __name__ == "__main__":
    main()
