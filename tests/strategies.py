"""Hypothesis strategies for the inputs the library accepts."""

import math

from hypothesis import assume
from hypothesis import strategies as st

from qcwaves import DomainError, QcMaterial, ValidationError, decompose, wave_table


@st.composite
def accepted_materials_and_omegas(draw) -> tuple[QcMaterial, float]:
    """A material that validate accepts and an omega that wave_table accepts for it.

    K2 / c44 spans 1e10 either way, the coupling R3 / sqrt(c44 K2) is 0, uniform in
    [0, 1) or 1 - 10^U(-12, 0), c44 is log-uniform in [1e-290, 1e290] and rho in
    [1e-300, 1e300], and omega is log-uniform over the whole range where k1 > 0 and
    k2 < inf.
    """
    c44 = 10.0 ** draw(st.floats(-290.0, 290.0))
    K2 = c44 * 10.0 ** draw(st.floats(-10.0, 10.0))
    coupling = draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)
                    | st.floats(-12.0, 0.0).map(lambda t: 1.0 - 10.0**t))
    m = QcMaterial(c44=c44, R3=coupling * math.sqrt(c44) * math.sqrt(K2), K2=K2,
                   rho=10.0 ** draw(st.floats(-300.0, 300.0)))
    try:
        d = decompose(m)
    except ValidationError:  # c44 K2 - R3^2 rounds to <= 0 or overflows
        assume(False)
    lr = math.log10(m.rho)
    lo = max(-323.0, -323.0 - 0.5 * (lr - math.log10(d.a1)))  # k1 = 1e-323
    hi = min(308.25, 308.25 - 0.5 * (lr - math.log10(d.a2)))  # k2 = 1.8e308
    omega = 10.0 ** (lo + (hi - lo) * draw(st.floats(0.0, 1.0)))
    try:
        wave_table(m, [omega])
    except (ValidationError, DomainError):  # an end of the range, after rounding
        assume(False)
    return m, omega
