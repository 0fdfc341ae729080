"""Material validation, spectral decomposition and wave parameters."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from qcwaves import (
    CouplingTooStrong,
    DomainError,
    InvalidMaterial,
    NonPositiveDensity,
    NonPositiveFrequency,
    NonPositiveModulus,
    QcMaterial,
    decompose,
    validate,
    wave_parameters,
)
from qcwaves.material import _determinant


def random_material(rng, span: float = 11.0, max_coupling: float = 0.999) -> QcMaterial:
    """Valid material with log-uniform moduli and bounded coupling strength.

    ``span`` is the modulus exponent range in decades; checks that evaluate
    near-cancelling residuals in doubles should request a moderate span,
    since their floating-point floor scales with the matrix contrast.
    """
    c44 = 10.0 ** rng.uniform(0.0, span)
    k2 = 10.0 ** rng.uniform(0.0, span)
    s = rng.uniform(0.0, max_coupling)
    return QcMaterial(
        c44=c44,
        R3=s * math.sqrt(c44 * k2),
        K2=k2,
        rho=10.0 ** rng.uniform(0.0, 4.3),
    )


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
        q = d.rotation()
        assert np.allclose(q @ q.T, np.eye(2), atol=1e-15)

    def test_diagonalization(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = random_material(rng)
            d = decompose(m)
            q = d.rotation()
            diag = q.T @ m.matrix() @ q
            scale = np.linalg.norm(m.matrix())
            assert abs(diag[0, 0] - d.a1) <= 1e-12 * scale
            assert abs(diag[1, 1] - d.a2) <= 1e-12 * scale
            assert abs(diag[0, 1]) <= 1e-12 * scale

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = random_material(rng)
            d = decompose(m)
            q = d.rotation()
            rebuilt = q @ np.diag([d.a1, d.a2]) @ q.T
            err = np.linalg.norm(rebuilt - m.matrix()) / np.linalg.norm(m.matrix())
            assert err < 1e-12

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = random_material(rng)
            d = decompose(m)
            trace = m.c44 + m.K2
            det = m.c44 * m.K2 - m.R3 * m.R3
            assert d.a1 + d.a2 == pytest.approx(trace, rel=1e-12)
            assert d.a1 * d.a2 == pytest.approx(det, rel=1e-12)
            assert d.a1 >= d.a2 > 0.0
            assert 0.0 <= d.psi <= math.pi / 2.0

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

    def test_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = random_material(rng)
            omega = 10.0 ** rng.uniform(-2.0, 7.0)
            d = decompose(m)
            wp = wave_parameters(d, m.rho, omega)
            assert wp.k1 <= wp.k2
            assert wp.c1 >= wp.c2
            assert wp.k1 * wp.c1 == pytest.approx(omega, rel=1e-12)
            assert wp.k2 * wp.c2 == pytest.approx(omega, rel=1e-12)

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

    def test_wavenumbers_outside_float_range(self):
        d = decompose(QcMaterial(c44=2.0, R3=1.0, K2=2.0, rho=1.0))
        with pytest.raises(DomainError):
            wave_parameters(d, 5e-324, 1.0)  # rho / a1 underflows: k1 = 0
        with pytest.raises(DomainError):
            wave_parameters(d, 1e300, 1e300)  # k2 overflows
