"""Material validation, spectral decomposition and wave parameters."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from qcwaves import (
    CouplingTooStrong,
    DomainError,
    InvalidMaterial,
    NonPositiveDensity,
    NonPositiveFrequency,
    NonPositiveModulus,
    QcMaterial,
    ValidationError,
    decompose,
    validate,
    wave_parameters,
)
from qcwaves.material import _determinant
from strategies import accepted_materials, accepted_materials_and_omegas


def rotation(d) -> np.ndarray:
    """The orthogonal matrix Q = [[cos psi, -sin psi], [sin psi, cos psi]] of d, whose
    columns are the eigenvectors: the matrix form the scalar modal code replaces."""
    c, s = d.cos_psi, d.sin_psi
    return np.array([[c, -s], [s, c]])


def scaled(m: QcMaterial, d):
    """C and a1, a2 of d divided by the largest entry of C, so no product below overflows."""
    scale = max(m.c44, m.R3, m.K2)
    return m.matrix() / scale, d.a1 / scale, d.a2 / scale


class TestValidate:
    def test_valid_material(self):
        validate(QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=1.0))  # 2*2 - 1 = 3 > 0

    def test_coupling_too_strong(self):
        with pytest.raises(CouplingTooStrong):
            validate(QcMaterial(c44=1.0, R3=2.0, K2=1.0, rho=1.0))

    def test_nonpositive_modulus(self):
        with pytest.raises(NonPositiveModulus):
            validate(QcMaterial(c44=-1.0, R3=0.0, K2=1.0, rho=1.0))
        with pytest.raises(NonPositiveModulus):
            validate(QcMaterial(c44=1.0, R3=-0.5, K2=1.0, rho=1.0))
        with pytest.raises(NonPositiveModulus):
            validate(QcMaterial(c44=1.0, R3=0.0, K2=0.0, rho=1.0))

    def test_nonpositive_density(self):
        with pytest.raises(NonPositiveDensity):
            validate(QcMaterial(c44=2.0, R3=0.5, K2=2.0, rho=0.0))

    def test_nan_rejected(self):
        with pytest.raises(NonPositiveModulus):
            validate(QcMaterial(c44=math.nan, R3=0.0, K2=1.0, rho=1.0))
        for key in ("c44", "R3", "K2"):
            for bad in (math.inf, -math.inf):
                with pytest.raises(NonPositiveModulus):
                    validate(QcMaterial(**{"c44": 2.0, "R3": 1.0, "K2": 2.0, "rho": 1.0,
                                           key: bad}))
        with pytest.raises(NonPositiveDensity):
            validate(QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=math.inf))

    def test_overflowing_determinant_rejected(self):
        # c44*K2 = 1e600 overflows; decompose() would return a2 = inf
        with pytest.raises(InvalidMaterial):
            validate(QcMaterial(c44=1e300, R3=0.0, K2=1e300, rho=1.0))

    def test_determinant_within_an_ulp(self):
        # both products are exact, so only the final subtraction rounds, even where
        # c44*K2 and R3^2 agree to 16 digits
        rng = np.random.default_rng(8)
        for _ in range(2000):
            c44, k2 = 10.0 ** rng.uniform(-100.0, 100.0, size=2)
            r3 = math.sqrt(c44 * k2) * (1.0 - 10.0 ** rng.uniform(-16.0, 0.0))
            exact = Fraction(c44) * Fraction(k2) - Fraction(r3) ** 2
            got = _determinant(QcMaterial(c44=c44, R3=r3, K2=k2, rho=1.0))
            assert abs(Fraction(got) - exact) <= Fraction(math.ulp(float(exact))), (c44, k2, r3)

    def test_split_never_overflows(self):
        # an overflowing product raises before any split; a huge modulus with a
        # finite product is accepted with the determinant as rounded
        with pytest.raises(InvalidMaterial, match="overflows"):
            validate(QcMaterial(c44=1e200, R3=1.0, K2=1e200, rho=1.0))
        m = QcMaterial(c44=1e305, R3=1.0, K2=1e-5, rho=1.0)
        validate(m)
        assert _determinant(m) == 1e305 * 1e-5 - 1.0

    def test_degenerate_determinant_rejected(self):
        with pytest.raises(CouplingTooStrong):
            validate(QcMaterial(c44=2.0, R3=2.0, K2=2.0, rho=1.0))

    def test_determinant_below_the_normal_floats_accepted(self):
        # c44 K2 = 1e-340 underflows to 0; the sign comes from the determinant in units of
        # 4**e, the one decompose reads too
        m = QcMaterial(c44=1e-170, R3=0.0, K2=1e-170, rho=1.0)
        validate(m)
        d = decompose(m)
        assert (d.a1, d.a2) == (1e-170, 1e-170)
        with pytest.raises(CouplingTooStrong, match="got -"):  # the sign survives the scaling
            validate(QcMaterial(c44=1e-170, R3=1.5e-170, K2=1e-170, rho=1.0))

    @pytest.mark.parametrize("c44, r3", [(1e-5, 1e305), (1e150, 1e155)])
    def test_overflowing_coupling_rejected(self, c44, r3):
        # R3^2 overflows, so c44 K2 - R3^2 = -inf: its sign is decided, and no rescaling of it
        # leaves the float range
        with pytest.raises(CouplingTooStrong, match="got -inf"):
            validate(QcMaterial(c44=c44, R3=r3, K2=c44, rho=1.0))

    def test_a2_below_the_normal_floats_rejected(self):
        # det C = 2e-602 is accepted, but a2 = det C / a1 = 2e-312 has fewer than 53 bits
        m = QcMaterial(c44=1e-290, R3=(1.0 - 1e-12) * 1e-295, K2=1e-300, rho=1.0)
        validate(m)
        with pytest.raises(InvalidMaterial, match="need a2 = det\\(C\\) / a1 to be a normal float"):
            decompose(m)


class TestDecompose:
    def test_symmetric_case(self):
        d = decompose(QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=1.0))
        assert d.a1 == pytest.approx(3.0, rel=1e-14)
        assert d.a2 == pytest.approx(1.0, rel=1e-14)
        assert d.psi == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_against_closed_formula_and_eigensolver(self):
        # a1 = (6 + sqrt(20))/2 = 3 + sqrt(5), a2 = 3 - sqrt(5)
        m = QcMaterial(c44=4.0, R3=2.0, K2=2.0, rho=1.0)
        d = decompose(m)
        assert d.a1 == pytest.approx(3.0 + math.sqrt(5.0), rel=1e-14)
        assert d.a2 == pytest.approx(3.0 - math.sqrt(5.0), rel=1e-14)
        eigs = np.linalg.eigvalsh(m.matrix())
        assert d.a2 == pytest.approx(eigs[0], rel=1e-13)
        assert d.a1 == pytest.approx(eigs[1], rel=1e-13)

    def test_decoupled_material(self):
        d = decompose(QcMaterial(c44=2.0, R3=0.0, K2=1.0, rho=1.0))
        assert (d.a1, d.a2, d.psi) == (2.0, 1.0, 0.0)

    def test_decoupled_material_reverse_order(self):
        d = decompose(QcMaterial(c44=1.0, R3=0.0, K2=2.0, rho=1.0))
        assert (d.a1, d.a2) == (2.0, 1.0)
        assert d.psi == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_tie_case(self):
        d = decompose(QcMaterial(c44=3.0, R3=0.0, K2=3.0, rho=1.0))
        assert d.a1 == d.a2 == 3.0
        assert d.psi == 0.0

    def test_rotation_is_structurally_orthogonal(self):
        d = decompose(QcMaterial(c44=5.0, R3=1.5, K2=2.0, rho=1.0))
        c, s = d.cos_psi, d.sin_psi
        # off-diagonal of Q Q^T cancels identical products exactly
        assert c * s + (-s) * c == 0.0
        assert c * c + s * s == pytest.approx(1.0, abs=1e-15)
        q = rotation(d)
        assert np.allclose(q @ q.T, np.eye(2), atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(accepted_materials())
    def test_diagonalization(self, m):
        d = decompose(m)
        q = rotation(d)
        c, a1, a2 = scaled(m, d)
        diag = q.T @ c @ q
        assert abs(diag[0, 0] - a1) <= 1e-12
        assert abs(diag[1, 1] - a2) <= 1e-12
        assert abs(diag[0, 1]) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(accepted_materials())
    def test_reconstruction(self, m):
        d = decompose(m)
        q = rotation(d)
        c, a1, a2 = scaled(m, d)
        assert np.linalg.norm(q @ np.diag([a1, a2]) @ q.T - c) / np.linalg.norm(c) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(accepted_materials())
    def test_trace_and_determinant(self, m):
        # the determinant exactly, since c44 K2 - R3^2 cancels as the coupling nears 1
        d = decompose(m)
        det = Fraction(m.c44) * Fraction(m.K2) - Fraction(m.R3) ** 2
        assert d.a1 + d.a2 == pytest.approx(m.c44 + m.K2, rel=1e-12, abs=0.0)
        assert abs(Fraction(d.a1) * Fraction(d.a2) / det - 1) <= 1e-12
        assert d.a1 >= d.a2 > 0.0
        assert 0.0 <= d.psi <= math.pi / 2.0

    @pytest.mark.parametrize("c44,k2", [(1e-156, 1e-156), (1e-154, 1e-156), (0.1, 0.1)])
    def test_moduli_keep_their_digits_and_order(self, c44, k2):
        # c44 K2 below the normal floats, and a2 = det / a1 rounding above a1 = 0.1
        d = decompose(QcMaterial(c44=c44, R3=0.0, K2=k2, rho=1.0))
        assert d.a1 == max(c44, k2) and d.a1 >= d.a2
        assert d.a2 == pytest.approx(min(c44, k2), rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("c44,k2,limit", [(3.0, 1.0, 0.0), (1.0, 3.0, math.pi / 2)])
    def test_continuity_at_weak_coupling(self, c44, k2, limit):
        psis = [decompose(QcMaterial(c44=c44, R3=r3, K2=k2, rho=1.0)).psi
                for r3 in (1e-2, 1e-4, 1e-6)]
        gaps = [abs(p - limit) for p in psis]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5


class TestWaveParameters:
    def test_simple_values(self):
        d = decompose(QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=1.0))
        wp = wave_parameters(d, 1.0, 1.0)
        assert wp.k1 == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
        assert wp.k2 == pytest.approx(1.0, rel=1e-15)
        assert wp.c1 == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert wp.c2 == pytest.approx(1.0, rel=1e-15)

    def test_scaled_values(self):
        # k = omega sqrt(rho/a): a1=4, a2=1, rho=4, omega=2 -> k1=2, k2=4
        d = decompose(QcMaterial(c44=4.0, R3=0.0, K2=1.0, rho=4.0))
        wp = wave_parameters(d, 4.0, 2.0)
        assert wp.k1 == pytest.approx(2.0, rel=1e-15)
        assert wp.k2 == pytest.approx(4.0, rel=1e-15)

    def test_against_extended_precision(self):
        # oracle: the same formula evaluated in 50-digit decimal arithmetic;
        # symmetric material with R3 = 2.2360679 has eigenvalues 3 +- R3
        getcontext().prec = 50
        rho, omega = 4186.0, 2.0 * math.pi * 1e6
        d = decompose(QcMaterial(c44=3.0, R3=2.2360679, K2=3.0, rho=rho))
        assert d.a1 == pytest.approx(5.2360679, rel=1e-14)
        assert d.a2 == pytest.approx(0.7639321, rel=1e-7)
        wp = wave_parameters(d, rho, omega)
        for k_prod, a_used in ((wp.k1, d.a1), (wp.k2, d.a2)):
            k_ref = Decimal(omega) * (Decimal(rho) / Decimal(a_used)).sqrt()
            assert k_prod == pytest.approx(float(k_ref), rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(accepted_materials_and_omegas())
    def test_invariants(self, case):
        m, omega = case
        wp = wave_parameters(decompose(m), m.rho, omega)
        assert wp.k1 <= wp.k2
        assert wp.c1 >= wp.c2
        # a wavenumber or product below the normal floats is a multiple of 2**-1074: each rounds
        # by up to half of that unit
        for k, c in ((wp.k1, wp.c1), (wp.k2, wp.c2)):
            assert abs(k * c - omega) <= 1e-12 * omega + (c + 1.0) * 2.0**-1074

    def test_nonpositive_frequency(self):
        d = decompose(QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=1.0))
        with pytest.raises(NonPositiveFrequency):
            wave_parameters(d, 1.0, 0.0)
        with pytest.raises(NonPositiveFrequency):
            wave_parameters(d, 1.0, -3.0)

    def test_nonpositive_density(self):
        d = decompose(QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=1.0))
        with pytest.raises(NonPositiveDensity):
            wave_parameters(d, -1.0, 2.0)

    @pytest.mark.parametrize("rho,a,omega", [(5e-324, 3.0, 1.0), (1e-190, 1e119, 1.0),
                                             (1e300, 1e-10, 1e-160)])
    def test_roots_in_range_of_ratios_out_of_it(self, rho, a, omega):
        # rho / a or a / rho leaves the normal floats, but k and c do not
        wp = wave_parameters(decompose(QcMaterial(c44=a, R3=0.0, K2=a, rho=rho)), rho, omega)
        assert wp.c1 == wp.c2 == pytest.approx(math.sqrt(a) / math.sqrt(rho), rel=1e-15, abs=0.0)
        assert wp.k1 * wp.c1 == pytest.approx(omega, rel=1e-15, abs=0.0)

    def test_wavenumbers_outside_float_range(self):
        d = decompose(QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=1.0))
        with pytest.raises(ValidationError, match="omega 5e-324 gives k1 = 0, below the normal"):
            wave_parameters(d, 1e-20, 5e-324)  # k1 = omega sqrt(rho / a1) underflows to 0
        with pytest.raises(ValidationError, match="omega 3.16e-322 gives k1 = 9.88131e-324, "):
            wave_parameters(decompose(QcMaterial(1.0, 0.0, 1.0, 1e-3)), 1e-3, 3.16e-322)
        with pytest.raises(DomainError):
            wave_parameters(d, 1e300, 1e300)  # k2 overflows
