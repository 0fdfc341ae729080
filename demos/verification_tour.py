"""Demo: the built-in verification harness, suite by suite.

Runs every ``qcwaves verify`` suite through ``verify.run`` on the demo
material and on its R3 = 0 copy (where the decoupling suite runs instead of
being skipped), and prints each measured value next to its tolerance.

    python demos/verification_tour.py
"""

import math

from qcwaves import IncidentWave, QcMaterial, boundary_traction_scan
from qcwaves import verify

# (value, tolerance) keys of each suite's record
LIMITS = {
    "pde-residual": (("max_kernel_residual", "kernel_tolerance"),
                     ("max_wave_residual", "wave_tolerance")),
    "dirac-flux": (("deviation", "tolerance"),),
    "reciprocity": (("max_deviation", "tolerance"),),
    "decoupling": (("max_relative_error", "tolerance"),),
    "boundary-scan": (("max_green_traction", "green_tolerance"),
                      ("max_freefield_traction", "freefield_tolerance")),
}


def main():
    m = QcMaterial(c44=4.2e10, R3=1.2e9, K2=2.4e10, rho=4186.0)
    omega = 2.0 * math.pi * 1e6
    for material in (m, QcMaterial(c44=m.c44, R3=0.0, K2=m.K2, rho=m.rho)):
        print(f"R3 = {material.R3:g} Pa at omega = {omega:.6g} rad/s "
              f"(seed {verify.DEFAULT_SEED}):")
        for record in verify.run(material, [omega]):
            print(f"  [{record['status']:>7}] {record['name']}")
            if record["status"] == "skipped":
                print(f"            {record['note']}")
                continue
            for value, tolerance in LIMITS[record["name"]]:
                print(f"            {value} {record[value]:.2e}"
                      f"  (tolerance {record[tolerance]:g})")
        print()

    # negative control: without the reflected wave the boundary traction does not cancel
    wave = IncidentWave(mode="S1", amplitude=1.0, phi=0.6)
    control = boundary_traction_scan(m, omega, wave, include_reflection=False)
    print(f"negative control, S1 incident wave alone on x2 = 0: {control:.2f}"
          f"  (tolerance {verify.FREEFIELD_TRACTION_TOLERANCE:g})")


if __name__ == "__main__":
    main()
