"""Demo: the built-in verification harness, value by value.

Runs every ``qcwaves verify`` suite through ``verify.run`` on the demo
material and on its R3 = 0 copy, and prints each measured value (the Dirac
flux, the representation identity and the radiated power) next to its
tolerance, under the record's margin (its largest value / tolerance; the
record passes below 1).

    python demos/verification_tour.py
"""

import math

from qcwaves import QcMaterial
from qcwaves import verify


def main():
    m = QcMaterial(c44=4.2e10, R3=1.2e9, K2=2.4e10, rho=4186.0)
    omega = 2.0 * math.pi * 1e6
    for material in (m, QcMaterial(c44=m.c44, R3=0.0, K2=m.K2, rho=m.rho)):
        print(f"R3 = {material.R3:g} Pa at omega = {omega:.6g} rad/s:")
        for record in verify.run(material, [omega]):
            print(f"  [{record['status']:>7}] {record['name']}  (margin {record['margin']:.3g})")
            for value, tolerance, _ in verify.LIMITS[record["name"]]:
                print(f"            {value} {record[value]:.2e}"
                      f"  (tolerance {record[tolerance]:g})")
        print()


if __name__ == "__main__":
    main()
