"""Anti-plane elastodynamics of 1D hexagonal quasicrystals.

Closed-form frequency-domain fundamental solutions, half-plane Green's
functions and plane-wave free fields for the coupled phonon-phason system,
plus a verification harness that certifies their analytic properties.
"""

__version__ = "0.1.0"

from .errors import (
    CouplingTooStrong,
    DomainError,
    EvaluationError,
    InvalidMaterial,
    NonPositiveDensity,
    NonPositiveFrequency,
    NonPositiveModulus,
    NonUnitNormal,
    ParseError,
    PointOutsideHalfPlane,
    QcError,
    RadiusTooLarge,
    SourceCoincidesWithField,
    SourceOnBoundary,
    SourceOutsideHalfPlane,
    StencilOutOfDomain,
    ValidationError,
)
from .freefield import (
    IncidentWave,
    freefield_stress,
    freefield_traction,
    fullplane_incident,
    halfplane_freefield,
    mode_vector,
)
from .halfplane import green_displacement, green_traction, image_point
from .kernels import (
    fundamental_displacement,
    fundamental_gradient,
    fundamental_stress,
    fundamental_traction,
)
from .material import (
    QcMaterial,
    SpectralDecomposition,
    WaveParameters,
    decompose,
    validate,
    wave_parameters,
    wave_table,
)
from .specfun import (
    hankel1_0,
    hankel1_1,
    macdonald_k0_neg_i,
    macdonald_k1_neg_i,
)
from .verify import (
    DEFAULT_SEED,
    dirac_flux,
    identity_residuals,
    pde_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
