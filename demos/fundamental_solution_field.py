"""Demo: the point-load response of the infinite quasicrystal sheet.

Evaluates the 2x2 displacement kernel along a radial ray, showing the
log-singular near field, the 1/sqrt(r) far-field decay and the exact
symmetry between the phonon-load and phason-load responses.

    python demos/fundamental_solution_field.py
"""

import math

import numpy as np

from qcwaves import (
    QcMaterial,
    decompose,
    dirac_flux,
    fundamental_displacement,
    wave_parameters,
)


def main():
    m = QcMaterial(c44=4.2e10, R3=1.2e9, K2=2.4e10, rho=4186.0)
    omega = 2.0 * math.pi * 1e6
    wp = wave_parameters(decompose(m), m.rho, omega)
    lam2 = 2.0 * math.pi / wp.k2
    xi = (0.0, 0.0)

    print(f"slow wavelength lambda2 = {lam2 * 1e3:.3f} mm")
    print(f"{'r/lambda2':>10} {'|u31|':>12} {'|w31|':>12} {'|u32|':>12} "
          f"{'|v12 - v21|':>12} {'|u31|*sqrt(r)':>14}")
    for frac in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        r = frac * lam2
        v = fundamental_displacement(m, (r, 0.0), xi, omega)
        asym = abs(v[0, 1] - v[1, 0])
        print(f"{frac:10.2f} {abs(v[0, 0]):12.4e} {abs(v[1, 0]):12.4e} "
              f"{abs(v[0, 1]):12.4e} {asym:12.1e} {abs(v[0, 0]) * math.sqrt(r):14.4e}")

    # tractions on a circle around the source integrate to minus identity
    total = dirac_flux(m, xi, omega, eps=1e-3 / wp.k2)
    print("\ncontour integral of the traction kernel over a small circle:")
    with np.printoptions(precision=3, suppress=False):
        print(total)
    print(f"deviation from -I2: {np.linalg.norm(total + np.eye(2)):.3e} "
          "(the unit point load comes back out)")


if __name__ == "__main__":
    main()
