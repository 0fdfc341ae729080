"""The inputs the library accepts, drawn by hypothesis or by a seeded numpy Generator.

One domain serves every test that draws a material: K2 / c44 spans 1e10 either way, the
coupling R3 / sqrt(c44 K2) is 0, uniform in [0, 1) or 1 - 10^U(-12, 0), c44 is
log-uniform in [1e-290, 1e290] and rho in [1e-300, 1e300]. ``accepted_materials`` draws
it for hypothesis and ``random_material`` for a seeded loop; a test that needs a
frequency either draws one over the whole range (``accepted_materials_and_omegas``) or
sets the slow wavenumber with ``omega_at``, which keeps its lengths in units of 1/k2.
"""

import math

from hypothesis import assume
from hypothesis import strategies as st

from qcwaves import DomainError, QcMaterial, ValidationError, decompose, wave_table

LOG_C44 = (-290.0, 290.0)
LOG_CONTRAST = (-10.0, 10.0)  # log10 K2 / c44
LOG_GAP = (-12.0, 0.0)  # log10 (1 - coupling) of the couplings near 1
LOG_RHO = (-300.0, 300.0)
LOG_K_MIN = math.log10(2.0**-1022)  # the smallest wavenumber wave_parameters accepts


def material(log_c44: float, log_contrast: float, coupling: float, log_rho: float) -> QcMaterial:
    """The material of one draw of the domain."""
    c44 = 10.0**log_c44
    K2 = c44 * 10.0**log_contrast
    return QcMaterial(c44=c44, R3=coupling * math.sqrt(c44) * math.sqrt(K2), K2=K2,
                      rho=10.0**log_rho)


def accepted(m: QcMaterial) -> bool:
    """Whether decompose accepts m: c44 K2 - R3^2 may round to <= 0 near a coupling of 1 or
    overflow, and a2 may fall below the normal floats."""
    try:
        decompose(m)
    except ValidationError:
        return False
    return True


@st.composite
def accepted_materials(draw) -> QcMaterial:
    """A material of the domain that validate accepts."""
    coupling = draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)
                    | st.floats(*LOG_GAP).map(lambda t: 1.0 - 10.0**t))
    m = material(draw(st.floats(*LOG_C44)), draw(st.floats(*LOG_CONTRAST)), coupling,
                 draw(st.floats(*LOG_RHO)))
    assume(accepted(m))
    return m


def random_material(rng) -> QcMaterial:
    """A material of the domain that validate accepts, from a numpy Generator."""
    while True:
        coupling = (0.0, rng.uniform(0.0, 1.0),
                    1.0 - 10.0 ** rng.uniform(*LOG_GAP))[rng.integers(3)]
        m = material(rng.uniform(*LOG_C44), rng.uniform(*LOG_CONTRAST), coupling,
                     rng.uniform(*LOG_RHO))
        if accepted(m):
            return m


def omega_at(m: QcMaterial, k2: float) -> float:
    """The omega at which the slow wavenumber of m is k2 (up to rounding)."""
    return k2 * math.sqrt(decompose(m).a2) / math.sqrt(m.rho)


@st.composite
def accepted_materials_and_omegas(draw) -> tuple[QcMaterial, float]:
    """A material of accepted_materials and an omega that wave_table accepts for it,
    log-uniform over the whole range where k1 is a normal float and k2 < inf."""
    m = draw(accepted_materials())
    d = decompose(m)
    lr = math.log10(m.rho)
    lo = max(-323.0, LOG_K_MIN - 0.5 * (lr - math.log10(d.a1)))  # k1 = 2.2e-308
    hi = min(308.25, 308.25 - 0.5 * (lr - math.log10(d.a2)))  # k2 = 1.8e308
    omega = 10.0 ** (lo + (hi - lo) * draw(st.floats(0.0, 1.0)))
    try:
        wave_table(m, [omega])
    except (ValidationError, DomainError):  # an end of the range, after rounding
        assume(False)
    return m, omega
