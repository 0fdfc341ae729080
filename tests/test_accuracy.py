"""Stresses and tractions against a 50-digit reference over the accepted materials.

The materials are those of ``tests/strategies.py``: a contrast K2/c44 from
1e-10 to 1e10, R3 = 0 and a coupling R3 / sqrt(c44 K2) up to 1 - 1e-12, at any
modulus scale from 1e-290 to 1e290 and density from 1e-300 to 1e300, each at
the omega where k2 = 2. The reference forms the stresses
from their definition, sigma_3j = c44 u3,j + R3 w3,j and H_3j = R3 u3,j +
K2 w3,j, in 50-digit arithmetic on the very floats the code receives. Every
error, taken relative to the largest reference stress entry, must stay
within BOUND * eps * max(1, k r), BOUND = 8: k r is the largest phase the
code forms, k2 |x - xi| for the kernel and k (|x1| + |x2|) for a free field,
whose own rounding moves the result by about eps * k r. Over 1,000
examples per test the worst error reached 2.6 eps max(1, k r). The comments
on the explicit examples give the error of c44/R3/K2 sums (and of a rounded
determinant), which this bound rejects.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from strategies import accepted_materials, omega_at

from qcwaves import (
    IncidentWave,
    QcMaterial,
    decompose,
    freefield_stress,
    freefield_traction,
    fundamental_stress,
    fundamental_traction,
    wave_parameters,
)

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

BOUND = 8.0
EPS = 2.0**-52

unit = st.floats(-1.0, 1.0)
SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def material(log_contrast: float, gamma: float) -> QcMaterial:
    """The material of an explicit example: c44 = rho = 1, K2 = 10^log_contrast and the
    coupling gamma."""
    k2 = 10.0**log_contrast
    return QcMaterial(c44=1.0, R3=gamma * math.sqrt(k2), K2=k2, rho=1.0)


def modes(m: QcMaterial, omega: float):
    """[(a_i, k_i, unit eigenvector q_i)] of C at 50 digits, a1 >= a2."""
    c44, r3, k2 = mp.mpf(m.c44), mp.mpf(m.R3), mp.mpf(m.K2)
    a1 = (c44 + k2 + mp.sqrt((c44 - k2) ** 2 + 4 * r3**2)) / 2
    a2 = (c44 * k2 - r3**2) / a1
    # eigenvector angle of a symmetric 2x2 matrix, 0 or pi/2 at R3 = 0; the
    # form R3 : (a1 - c44) loses a1 - c44 when R3 is below 50 digits of c44 = K2
    theta = mp.atan2(2 * r3, c44 - k2) / 2
    q1 = (mp.cos(theta), mp.sin(theta))
    q2 = (-q1[1], q1[0])
    return [(a, omega * mp.sqrt(mp.mpf(m.rho) / a), q) for a, q in ((a1, q1), (a2, q2))]


def contract(m: QcMaterial, du, dw):
    """(sigma, H) from the displacement gradients by their definition."""
    c44, r3, k2 = mp.mpf(m.c44), mp.mpf(m.R3), mp.mpf(m.K2)
    return c44 * du + r3 * dw, r3 * du + k2 * dw


def kernel_reference(m, omega, x, xi):
    """Stress entries S[f][i][j] (f = 0: sigma, 1: H) of C grad v*, and k2 r."""
    with mp.workdps(50):
        r1, r2 = mp.mpf(x[0]) - mp.mpf(xi[0]), mp.mpf(x[1]) - mp.mpf(xi[1])
        r = mp.sqrt(r1**2 + r2**2)
        waves = modes(m, mp.mpf(omega))
        parts = [(-1j * k * mpmath.hankel1(1, k * r) / (4 * a), q) for a, k, q in waves]
        grad = [[[sum(fp * q[f] * q[i] for fp, q in parts) * rj / r for rj in (r1, r2)]
                 for i in range(2)] for f in range(2)]
        stress = [[contract(m, grad[0][i][j], grad[1][i][j]) for j in range(2)]
                  for i in range(2)]
        return ([[[complex(stress[i][j][f]) for j in range(2)] for i in range(2)]
                 for f in range(2)], float(waves[1][1] * r))


def freefield_reference(m, wave, omega, x, half_plane):
    """Stresses (sigma_3j, H_3j) of a free field at the point x, and k (|x1| + |x2|)."""
    with mp.workdps(50):
        a, k, q = modes(m, mp.mpf(omega))[wave.mode == "S2"]
        c, s = mp.cos(mp.mpf(wave.phi)), mp.sin(mp.mpf(wave.phi))
        x1, x2 = mp.mpf(x[0]), mp.mpf(x[1])
        incident = mp.expj(k * (x1 * c + x2 * s))
        reflected = mp.expj(k * (x1 * c - x2 * s)) if half_plane else 0
        amp = mp.mpc(wave.amplitude)
        grad = (1j * k * c * (incident + reflected) * amp,
                1j * k * s * (incident - reflected) * amp)
        stress = [contract(m, q[0] * g, q[1] * g) for g in grad]
        return ([complex(stress[j][f]) for j in range(2)] for f in range(2)), float(
            k * (abs(x1) + abs(x2)))


def within_bound(got_stress, want_stress, got_traction, want_traction, kr):
    """Stress errors within BOUND eps max(1, kr) of the largest stress entry; the
    tractions too, since a contraction errs on the scale of its terms."""
    scale = max(abs(w) for w in want_stress)
    tol = BOUND * EPS * max(1.0, kr) * scale
    errors = [abs(complex(g) - w) for g, w in zip(got_stress + got_traction,
                                                  want_stress + want_traction)]
    return max(errors) <= tol, max(errors) / scale / (EPS * max(1.0, kr))  # and the c reached


def unit_normal(n1, n2):
    assume(math.hypot(n1, n2) > 0.1)
    return n1 / math.hypot(n1, n2), n2 / math.hypot(n1, n2)


@SETTINGS
@given(accepted_materials(), st.floats(-2.0, 4.0), st.floats(0.0, 2.0 * math.pi), unit, unit,
       unit, unit)
@example(material(10.0, 0.9), 0.0, 1.0, 0.3, -0.7, 0.6, 0.8)  # c44/R3/K2 sums: 3.7e-6
@example(material(6.0, 0.9), 1.0, 2.5, 0.1, 0.2, 1.0, 0.0)  # c44/R3/K2 sums: 5.0e-10
@example(material(0.0, 1.0 - 1e-12), 3.0, 0.4, -0.5, 0.5, 0.0, 1.0)  # and a rounded det: 4.1e-4
@example(material(-10.0, 0.0), -1.0, 4.0, 0.9, -0.9, -0.6, 0.8)
def test_kernel_stress_and_traction(m, log_k2r, theta, u, v, n1, n2):
    n, omega = unit_normal(n1, n2), omega_at(m, 2.0)
    r = 10.0**log_k2r / wave_parameters(decompose(m), m.rho, omega).k2
    xi = (u * r, v * r)
    x = (xi[0] + r * math.cos(theta), xi[1] + r * math.sin(theta))
    ref, k2r = kernel_reference(m, omega, x, xi)
    sigma, h = fundamental_stress(m, x, xi, omega)
    t = fundamental_traction(m, x, xi, omega, n)
    want_t = [ref[f][i][0] * n[0] + ref[f][i][1] * n[1] for f in range(2) for i in range(2)]
    want = [w for f in ref for row in f for w in row]
    ok, c = within_bound([*sigma.ravel(), *h.ravel()], want, list(t.ravel()), want_t, k2r)
    assert ok, c


@SETTINGS
@given(accepted_materials(), st.sampled_from(["S1", "S2"]), st.booleans(), st.floats(0.05, 1.5),
       st.floats(-2.0, 4.0), unit, unit, unit, unit)
@example(material(10.0, 0.9), "S2", True, 0.7, 1.0, 0.3, -0.7, 0.0, 1.0)  # sums: 3.1e-6
@example(material(6.0, 0.9), "S2", False, 0.3, 2.0, 0.5, -0.5, 0.6, 0.8)  # sums: 5.0e-10
@example(material(0.0, 1.0 - 1e-10), "S2", True, 1.2, 3.0, -0.2, -0.9, 1.0, 0.0)  # det: 2.1e-6
@example(material(0.0, 2.711853170088461e-132), "S1", False, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)  # c44 = K2
@example(material(0.0, 3.0890113120484704e-296), "S1", False, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)  # R3^2 = 0
def test_freefield_stress_and_traction(m, mode, half_plane, phi, log_kx, u, v, n1, n2):
    n, omega = unit_normal(n1, n2), omega_at(m, 2.0)
    wave = IncidentWave(mode=mode, amplitude=0.6 - 0.8j, phi=phi)
    wp = wave_parameters(decompose(m), m.rho, omega)
    size = 10.0**log_kx / (wp.k1 if mode == "S1" else wp.k2)
    x = (u * size, -abs(v) * size)
    (want_sigma, want_h), kx = freefield_reference(m, wave, omega, x, half_plane)
    sigma, h = freefield_stress(m, wave, omega, x, half_plane)
    t = freefield_traction(m, wave, omega, x, n, half_plane)
    want_t = [w[0] * n[0] + w[1] * n[1] for w in (want_sigma, want_h)]
    ok, c = within_bound([*sigma, *h], want_sigma + want_h, list(t), want_t, kx)
    assert ok, c
