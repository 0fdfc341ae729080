"""Cylinder functions against the independent series/asymptotic oracle."""

import cmath
import math
import sys

import numpy as np
import pytest

import qcwaves.specfun as specfun
from qcwaves import (
    DomainError,
    hankel1_0,
    hankel1_1,
    macdonald_k0_neg_i,
    macdonald_k1_neg_i,
)

from oracles import oracle_j0, oracle_j1, oracle_k0, oracle_k1, oracle_y0, oracle_y1

PUBLIC = tuple(getattr(specfun, name) for name in specfun.__all__)


def j0(x):
    return hankel1_0(x).real


def j1(x):
    return hankel1_1(x).real


def y0(x):
    return hankel1_0(x).imag


def y1(x):
    return hankel1_1(x).imag


PRODUCTION = {
    "j0": (j0, oracle_j0),
    "j1": (j1, oracle_j1),
    "y0": (y0, oracle_y0),
    "y1": (y1, oracle_y1),
}


def test_j0_vanishes_at_first_zero():
    # locate the first zero of J0 by bisection on the oracle series
    lo, hi = 2.0, 3.0
    assert oracle_j0(lo) > 0 > oracle_j0(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if oracle_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(j0(root)) < 1e-10
    assert abs(j0(2.404825557695773)) < 1e-10


def test_y0_near_origin():
    with pytest.raises(DomainError):
        y0(0.0)
    val = y0(1e-8)
    assert math.isfinite(val) and val < -10.0
    # leading behavior (2/pi)(ln(x/2) + gamma) dominates at 1e-8
    assert val == pytest.approx(oracle_y0(1e-8), rel=1e-12)
    gamma = 0.5772156649015328606
    assert val == pytest.approx((2.0 / math.pi) * (math.log(0.5e-8) + gamma), rel=1e-12)


@pytest.mark.parametrize("name", sorted(PRODUCTION))
def test_oracle_equivalence_on_grid(name):
    # 200-point grid over (0, 12], relative error < 1e-10
    fn, oracle = PRODUCTION[name]
    for k in range(1, 201):
        x = 0.06 * k
        ref = oracle(x)
        assert abs(fn(x) - ref) <= 1e-10 * abs(ref), f"{name}({x})"


@pytest.mark.parametrize("name", sorted(PRODUCTION))
def test_oracle_equivalence_beyond_series_range(name):
    # Stokes-asymptotic branch of the oracle
    fn, oracle = PRODUCTION[name]
    for x in (15.0, 20.0, 50.0, 100.0, 250.0):
        ref = oracle(x)
        assert abs(fn(x) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("x", [3.3e5, 7.8e6, 9.9e8, 1e15])
def test_phase_exact_at_large_argument(x):
    # a phase x - (2 nu + 1) pi/4 rounded in floats is off by ~x * eps
    amplitude = math.sqrt(2.0 / (math.pi * x))
    for name, (fn, oracle) in PRODUCTION.items():
        assert abs(fn(x) - oracle(x)) <= 1e-14 * amplitude, name


def test_amplitude_at_float_maximum():
    # pi * x overflows here; |H_nu(x)| * sqrt(x) -> sqrt(2/pi)
    target = math.sqrt(2.0 / math.pi)
    for fn in (hankel1_0, hankel1_1):
        assert abs(fn(1e308)) * math.sqrt(1e308) == pytest.approx(target, rel=1e-13)


def test_branch_is_continuous_at_split():
    # production switches from series to phase-amplitude at x = 4, then
    # from one amplitude table to the next at x = 8 and x = 16
    for edge in (4.0, 8.0, 16.0):
        for name, (fn, oracle) in PRODUCTION.items():
            below, above = fn(edge - 1e-12), fn(edge + 1e-12)
            assert abs(below - above) < 1e-11, (name, edge)
            # each side of the edge, to the last ulp, agrees with the oracle
            for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                assert abs(fn(x) - oracle(x)) < 1e-14, (name, x)


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 50.0])
def test_wronskian(x):
    wronskian = j1(x) * y0(x) - j0(x) * y1(x)
    exact = 2.0 / (math.pi * x)
    assert wronskian == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("x", [0.5, 1.3, 3.9, 4.1, 7.7, 25.0])
def test_derivative_recurrences(x):
    h = 1e-5
    dj0 = (j0(x + h) - j0(x - h)) / (2.0 * h)
    dy0 = (y0(x + h) - y0(x - h)) / (2.0 * h)
    assert abs(dj0 + j1(x)) < 1e-6
    assert abs(dy0 + y1(x)) < 1e-6


class TestHankel:
    def test_definition(self):
        # H_nu^(1) = J_nu + i Y_nu of the shared (J_nu, Y_nu) core, bit for bit
        for x in (0.2, 1.0, 3.0, 4.5, 9.0, 60.0):
            assert hankel1_0(x) == complex(*specfun._jy("hankel1_0", 0, x))
            assert hankel1_1(x) == complex(*specfun._jy("hankel1_1", 1, x))

    def test_purely_imaginary_at_j0_zero(self):
        h = hankel1_0(2.404825557695773)
        assert abs(h.real) / abs(h) < 1e-10

    def test_large_argument_amplitude(self):
        # |H0(x)| * sqrt(x) -> sqrt(2/pi)
        target = math.sqrt(2.0 / math.pi)
        for x in (50.0, 100.0):
            assert abs(hankel1_0(x)) * math.sqrt(x) == pytest.approx(target, rel=1e-2)

    def test_domain(self):
        # one domain, x >= 2.2e-308: not a math domain error from log(0.5 * x) or cos(inf)
        for f in PUBLIC:
            for x in (0.0, 5e-324, -1.0, math.nan, math.inf):
                with pytest.raises(DomainError, match=f"^{f.__name__} requires finite x >= "):
                    f(x)


class TestMacdonald:
    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
    def test_hankel_identity(self, x):
        # (1/2pi) K0(-ix) = (i/4) H0^(1)(x)
        lhs = macdonald_k0_neg_i(x) / (2.0 * math.pi)
        rhs = 0.25j * hankel1_0(x)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @pytest.mark.parametrize("x", [0.3, 0.5, 1.0, 2.0, 5.0])
    def test_k0_against_series_oracle(self, x):
        ref = oracle_k0(complex(0.0, -x), tol=1e-12)
        val = macdonald_k0_neg_i(x)
        assert abs(val - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("x", [0.3, 0.5, 1.0, 2.0, 5.0])
    def test_k1_connection_constant_against_series_oracle(self, x):
        # pins K1(-ix) = -(pi/2) H1^(1)(x) independently of the production path
        ref = oracle_k1(complex(0.0, -x), tol=1e-12)
        val = macdonald_k1_neg_i(x)
        assert abs(val - ref) <= 1e-12 * abs(ref)
        direct = -0.5 * math.pi * complex(j1(x), y1(x))
        assert abs(direct - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("x", [0.7, 1.0, 2.5, 6.0])
    def test_derivative_rule(self, x):
        # d/dx K0(-ix) = i K1(-ix), from K0'(z) = -K1(z)
        h = 1e-5
        fd = (macdonald_k0_neg_i(x + h) - macdonald_k0_neg_i(x - h)) / (2.0 * h)
        assert abs(fd - 1j * macdonald_k1_neg_i(x)) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            macdonald_k0_neg_i(0.0)
        with pytest.raises(DomainError):
            macdonald_k1_neg_i(-2.0)


def test_macdonald_wrappers_keep_the_hankel_products_bit_for_bit():
    """K0 and K1 equal the Hankel-based formulas part by part, with ==.

    The wrappers form (pi/2) (-Y0, J0) and -(pi/2) (J1, Y1) directly, the
    same float products the complex multiplications by i pi/2 and -pi/2 make.
    Those multiplications also add 0 * J or 0 * Y to each part, so the sign of
    a zero part is the only difference there can be, and == does not see it.
    """
    rng = np.random.default_rng(2024)
    tiny = math.log10(sys.float_info.min)
    xs = np.concatenate([10.0 ** rng.uniform(tiny, 15.0, 4000),
                         10.0 ** rng.uniform(-2.0, 3.0, 8000),
                         [sys.float_info.min, 4.0, math.nextafter(4.0, 5.0), 1e15]]).tolist()
    assert sum(x <= 4.0 for x in xs) > 3000 and sum(x > 4.0 for x in xs) > 3000
    for x in xs:
        k0, k1 = macdonald_k0_neg_i(x), macdonald_k1_neg_i(x)
        h0, h1 = 0.5j * math.pi * hankel1_0(x), -0.5 * math.pi * hankel1_1(x)
        assert k0.real == h0.real and k0.imag == h0.imag, x
        assert k1.real == h1.real and k1.imag == h1.imag, x


def test_outputs_finite_on_wide_range():
    x = 1e-6
    while x < 300.0:
        for fn in (j0, j1, y0, y1):
            assert math.isfinite(fn(x))
        z = macdonald_k0_neg_i(x)
        assert cmath.isfinite(z)
        x *= 1.7
