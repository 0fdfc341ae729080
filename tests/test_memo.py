"""The one-entry memos of decompose and wave_parameters never return a stale result.

Calls alternate over three materials (coupled, R3 = 0 with psi = 0, R3 = 0
with psi = pi/2) and two frequencies, with invalid input in between. Every
result must equal one computed on a fresh copy of the input, and the kernels
and half-plane Green's functions must keep the bits of the plain formulas
spelled out below: cos and sin of psi per call, the Macdonald values as
multiples of the Hankel functions, and the modal-form stress contracted
as loops.
"""

import dataclasses
import math

import numpy as np
import pytest

from qcwaves import (
    CouplingTooStrong,
    NonPositiveDensity,
    NonPositiveFrequency,
    NonPositiveModulus,
    QcMaterial,
    decompose,
    fundamental_displacement,
    fundamental_traction,
    green_displacement,
    green_traction,
    hankel1_0,
    hankel1_1,
    wave_parameters,
)
from qcwaves.halfplane import image_point

DEMO = QcMaterial(c44=4.2e10, R3=1.2e9, K2=2.4e10, rho=4186.0)
MATERIALS = (DEMO,
             dataclasses.replace(DEMO, R3=0.0),  # c44 >= K2: psi = 0
             QcMaterial(c44=2.4e10, R3=0.0, K2=4.2e10, rho=4186.0))  # psi = pi/2
OMEGAS = (2.0 * math.pi * 1e6, 1e5)
INVALID = ((QcMaterial(c44=-1.0, R3=0.0, K2=1.0, rho=1.0), NonPositiveModulus),
           (QcMaterial(c44=1.0, R3=0.0, K2=1.0, rho=math.nan), NonPositiveDensity),
           (QcMaterial(c44=1.0, R3=2.0, K2=1.0, rho=1.0), CouplingTooStrong))
X, XI, N = (0.0011, -0.0004), (0.0003, -0.0021), (0.6, 0.8)
TWO_PI = 2.0 * math.pi


def fresh(m: QcMaterial):
    """(decomposition, material) of a copy of m that no memo has seen."""
    copy = dataclasses.replace(m)
    return decompose(copy), copy


def reference_displacement(m, x, xi, omega):
    d, m = fresh(m)
    wp = wave_parameters(d, m.rho, omega)
    r = math.dist(x, xi)
    c, s = math.cos(d.psi), math.sin(d.psi)
    f1 = 0.5j * math.pi * hankel1_0(wp.k1 * r) / (TWO_PI * d.a1)
    f2 = 0.5j * math.pi * hankel1_0(wp.k2 * r) / (TWO_PI * d.a2)
    v11, v12, v22 = c * c * f1 + s * s * f2, c * s * (f1 - f2), s * s * f1 + c * c * f2
    return np.array([[v11, v12], [v12, v22]])


def reference_traction(m, x, xi, omega, n):
    d, m = fresh(m)
    wp = wave_parameters(d, m.rho, omega)
    r1, r2, r = x[0] - xi[0], x[1] - xi[1], math.dist(x, xi)
    c, s = math.cos(d.psi), math.sin(d.psi)
    # modal form: C Q diag(f1', f2') Q^T = Q diag(a1 f1', a2 f2') Q^T, a_i f_i' free of a_i
    f1 = 1j * wp.k1 * (-0.5 * math.pi * hankel1_1(wp.k1 * r)) / TWO_PI
    f2 = 1j * wp.k2 * (-0.5 * math.pi * hankel1_1(wp.k2 * r)) / TWO_PI
    m11, m12, m22 = c * c * f1 + s * s * f2, c * s * (f1 - f2), s * s * f1 + c * c * f2
    e1, e2 = r1 / r, r2 / r
    sigma = [(v * e1, v * e2) for v in (m11, m12)]
    h = [(v * e1, v * e2) for v in (m12, m22)]
    return np.array([[s1 * n[0] + s2 * n[1] for s1, s2 in sigma],
                     [h1 * n[0] + h2 * n[1] for h1, h2 in h]])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_alternating_calls_match_fresh_copies():
    # the references come first, so that the calls below also hit the memos
    expected = []
    for m in MATERIALS:
        d_ref, copy = fresh(m)
        expected.append((d_ref, [wave_parameters(d_ref, copy.rho, omega) for omega in OMEGAS]))
    for _ in range(3):
        for m, (d_ref, wp_ref) in zip(MATERIALS, expected):
            for omega, wp_omega in zip(OMEGAS, wp_ref):
                for _ in range(2):
                    d = decompose(m)
                    assert d == d_ref
                    assert (d.cos_psi, d.sin_psi) == (math.cos(d.psi), math.sin(d.psi))
                    assert wave_parameters(d, m.rho, omega) == wp_omega
    assert [d.psi for d, _ in expected[1:]] == [0.0, 0.5 * math.pi]


def test_invalid_material_raises_on_every_call():
    for bad, error in INVALID:
        decompose(DEMO)
        for _ in range(2):  # straight after a valid call, and after a failed one
            with pytest.raises(error):
                decompose(bad)
        assert decompose(DEMO) == fresh(DEMO)[0]
        with pytest.raises(error):
            decompose(bad)
        decompose(DEMO)  # just before a valid call
        with pytest.raises(error):
            decompose(bad)


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan])
def test_non_positive_frequency_raises_after_a_valid_call(omega):
    d = decompose(DEMO)
    wp = wave_parameters(d, DEMO.rho, OMEGAS[0])
    for _ in range(2):
        with pytest.raises(NonPositiveFrequency):
            wave_parameters(d, DEMO.rho, omega)
    with pytest.raises(NonPositiveDensity):
        wave_parameters(d, -DEMO.rho, OMEGAS[0])
    assert wave_parameters(d, DEMO.rho, OMEGAS[0]) is wp


def test_kernels_and_green_functions_keep_their_bits_across_switches():
    image = image_point(XI)
    for _ in range(2):
        for m in MATERIALS:
            v = [[reference_displacement(m, X, p, omega) for p in (XI, image)] for omega in OMEGAS]
            t = [[reference_traction(m, X, p, omega, N) for p in (XI, image)] for omega in OMEGAS]
            with pytest.raises(NonPositiveModulus):
                decompose(INVALID[0][0])
            for omega, (v_xi, v_im), (t_xi, t_im) in zip(OMEGAS, v, t):
                assert same_bits(fundamental_displacement(m, X, XI, omega), v_xi)
                assert same_bits(fundamental_traction(m, X, XI, omega, N), t_xi)
                assert same_bits(green_displacement(m, X, XI, omega), v_xi + v_im)
                assert same_bits(green_traction(m, X, XI, omega, N), t_xi + t_im)
