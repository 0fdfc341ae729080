"""Cylinder functions against the independent series/asymptotic oracle."""

import cmath
import math

import pytest

from qcwaves import (
    DomainError,
    bessel_j0,
    bessel_j1,
    bessel_y0,
    bessel_y1,
    hankel1_0,
    hankel1_1,
    macdonald_k0_neg_i,
    macdonald_k1_neg_i,
)

from oracles import oracle_j0, oracle_j1, oracle_k0, oracle_k1, oracle_y0, oracle_y1

PRODUCTION = {
    "j0": (bessel_j0, oracle_j0),
    "j1": (bessel_j1, oracle_j1),
    "y0": (bessel_y0, oracle_y0),
    "y1": (bessel_y1, oracle_y1),
}


def test_small_argument_values():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j1(0.0) == 0.0


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
    assert abs(bessel_j0(root)) < 1e-10
    assert abs(bessel_j0(2.404825557695773)) < 1e-10


def test_y0_near_origin():
    with pytest.raises(DomainError):
        bessel_y0(0.0)
    val = bessel_y0(1e-8)
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


def test_branch_is_continuous_at_split():
    # production switches from series to phase-amplitude at x = 4
    for name, (fn, oracle) in PRODUCTION.items():
        below, above = fn(4.0 - 1e-12), fn(4.0 + 1e-12)
        assert abs(below - above) < 1e-11, name


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 50.0])
def test_wronskian(x):
    wronskian = bessel_j1(x) * bessel_y0(x) - bessel_j0(x) * bessel_y1(x)
    exact = 2.0 / (math.pi * x)
    assert wronskian == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("x", [0.5, 1.3, 3.9, 4.1, 7.7, 25.0])
def test_derivative_recurrences(x):
    h = 1e-5
    dj0 = (bessel_j0(x + h) - bessel_j0(x - h)) / (2.0 * h)
    dy0 = (bessel_y0(x + h) - bessel_y0(x - h)) / (2.0 * h)
    assert abs(dj0 + bessel_j1(x)) < 1e-6
    assert abs(dy0 + bessel_y1(x)) < 1e-6


class TestHankel:
    def test_definition(self):
        for x in (0.2, 1.0, 3.0, 4.5, 9.0, 60.0):
            h0 = hankel1_0(x)
            h1 = hankel1_1(x)
            assert h0.real == bessel_j0(x) and h0.imag == bessel_y0(x)
            assert h1.real == bessel_j1(x) and h1.imag == bessel_y1(x)

    def test_purely_imaginary_at_j0_zero(self):
        h = hankel1_0(2.404825557695773)
        assert abs(h.real) / abs(h) < 1e-10

    def test_large_argument_amplitude(self):
        # |H0(x)| * sqrt(x) -> sqrt(2/pi)
        target = math.sqrt(2.0 / math.pi)
        for x in (50.0, 100.0):
            assert abs(hankel1_0(x)) * math.sqrt(x) == pytest.approx(target, rel=1e-2)

    def test_domain(self):
        with pytest.raises(DomainError):
            hankel1_0(0.0)
        with pytest.raises(DomainError):
            hankel1_1(-1.0)
        for f in (bessel_j0, bessel_j1, bessel_y0, bessel_y1, hankel1_0, hankel1_1):
            with pytest.raises(DomainError):  # not a math domain error from cos(inf)
                f(math.inf)
        for f in (bessel_y0, bessel_y1, hankel1_0, hankel1_1):
            with pytest.raises(DomainError):  # not a math domain error from log(0.5 * x)
                f(5e-324)


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
        direct = -0.5 * math.pi * complex(bessel_j1(x), bessel_y1(x))
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


def test_outputs_finite_on_wide_range():
    x = 1e-6
    while x < 300.0:
        for fn in (bessel_j0, bessel_j1, bessel_y0, bessel_y1):
            assert math.isfinite(fn(x))
        z = macdonald_k0_neg_i(x)
        assert cmath.isfinite(z)
        x *= 1.7
