"""All four cylinder functions against scipy over the whole accepted range."""

import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcwaves import hankel1_0, hankel1_1, macdonald_k0_neg_i, macdonald_k1_neg_i

special = pytest.importorskip("scipy.special")

X_MIN = 2.2250738585072014e-308
X_MAX = 1e15  # scipy's hankel1 returns nan from about 2.3e15 up
EULER_GAMMA = 0.5772156649015328606

# nu -> (H_nu^(1), K_nu(-i x), K_nu(-i x) / H_nu^(1)(x)); J_nu and Y_nu are Re and Im H_nu^(1)
ORDERS = {
    0: (hankel1_0, macdonald_k0_neg_i, 0.5j * math.pi),
    1: (hankel1_1, macdonald_k1_neg_i, -0.5 * math.pi),
}


def reference(nu: int, x: float) -> complex:
    """H_nu^(1)(x) from scipy, or its leading terms below 2.2e-305, where scipy returns nan."""
    h = complex(special.hankel1(nu, x))
    if cmath.isfinite(h):
        return h
    assert x < 1e-300, x
    if nu == 0:
        return complex(1.0, 2.0 / math.pi * (math.log(0.5 * x) + EULER_GAMMA))
    return complex(0.5 * x, -2.0 / (math.pi * x))


log_uniform = st.floats(math.log(X_MIN), math.log(X_MAX)).map(
    lambda t: min(max(math.exp(t), X_MIN), X_MAX))


@settings(max_examples=500, deadline=None)
@given(x=log_uniform)
@example(x=X_MIN)
@example(x=4.0)
@example(x=X_MAX)
def test_every_component_within_1e_13_of_the_modulus(x):
    for nu, (h, k, k_over_h) in ORDERS.items():
        ref = reference(nu, x)
        tol = 1e-13 * abs(ref)
        assert abs(h(x).real - ref.real) <= tol, (nu, x)
        assert abs(h(x).imag - ref.imag) <= tol, (nu, x)
        for got, want in ((h(x), ref), (k(x), k_over_h * ref)):
            assert abs(got.real - want.real) <= 1e-13 * abs(want), (nu, x)
            assert abs(got.imag - want.imag) <= 1e-13 * abs(want), (nu, x)
