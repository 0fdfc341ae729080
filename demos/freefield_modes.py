"""Demo: fast and slow shear waves, and their reflection at a free surface.

Shows the material-fixed polarization of the S1/S2 modes, verifies the
dispersion relation by direct substitution, and evaluates the half-plane
free field whose surface traction vanishes identically.

    python demos/freefield_modes.py
"""

import math

import numpy as np

from qcwaves import (
    IncidentWave,
    QcMaterial,
    decompose,
    freefield_traction,
    fullplane_incident,
    halfplane_freefield,
    mode_vector,
    wave_parameters,
)


def main():
    m = QcMaterial(c44=4.2e10, R3=1.2e9, K2=2.4e10, rho=4186.0)
    omega = 2.0 * math.pi * 1e6
    d = decompose(m)
    wp = wave_parameters(d, m.rho, omega)
    phi = math.radians(35.0)

    print("mode polarizations (phonon, phason components):")
    s1, s2 = mode_vector(m, "S1"), mode_vector(m, "S2")
    print(f"  S1 (fast, c1={wp.c1:.1f} m/s): {s1}")
    print(f"  S2 (slow, c2={wp.c2:.1f} m/s): {s2}")
    print(f"  orthogonality <S1,S2> = {s1 @ s2}")
    print("  (unlike the isotropic case, these do not depend on the angle)")

    print("\ndispersion check by direct substitution into the equations of motion:")
    for mode in ("S1", "S2"):
        wave = IncidentWave(mode=mode, amplitude=1.0, phi=phi)
        x = (0.37e-3, -0.81e-3)
        f = fullplane_incident(m, wave, omega, x)
        k = wp.k1 if mode == "S1" else wp.k2
        residual = m.rho * omega**2 * f - k * k * (m.matrix() @ f)
        rel = np.linalg.norm(residual) / (m.rho * omega**2 * np.linalg.norm(f))
        print(f"  {mode}: relative residual {rel:.2e}")

    print("\nhalf-plane free field (incident + reflected), S1 at 35 deg:")
    wave = IncidentWave(mode="S1", amplitude=1.0, phi=phi)
    lam1 = 2.0 * math.pi / wp.k1
    print(f"{'depth/lambda1':>14} {'|u3|':>10} {'|w3|':>10} {'|t3| on surface normal':>24}")
    for depth in (0.0, 0.25, 0.5, 1.0, 2.0):
        x = (0.0, -depth * lam1)
        f = halfplane_freefield(m, wave, omega, x)
        t = freefield_traction(m, wave, omega, x, (0.0, 1.0), half_plane=True)
        print(f"{depth:14.2f} {abs(f[0]):10.4f} {abs(f[1]):10.4f} {abs(t[0]):24.3e}")
    print("  (|u3| = 2 |A| cos(psi) on the surface: incident + reflected in phase;")
    print("   the traction is identically zero there)")


if __name__ == "__main__":
    main()
