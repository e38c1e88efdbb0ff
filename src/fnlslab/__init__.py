"""Pseudospectral laboratory for derivative fractional NLS equations on the torus.

Submodules:

  spectral      band-limited fields, Fourier multipliers, norms, products
  nonlinearity  polynomial nonlinearities, Wirtinger calculus, the
                well-posedness criterion and its rounding-exact checker
  evolution     integrating-factor RK4 for the regularized flow
  energy        the modified-energy correction ladder and its audits
  estimates     bilinear/commutator inequality stress tests
  growth        gauge shift, resonant decomposition, directional growth
  experiments   presets, sweeps, artifact emission
"""

from .spectral import (
    SpectralField,
    antiderivative,
    bracket_power,
    conjugate,
    derivative,
    pointwise_product,
    sobolev_norm,
    truncate_modes,
)
from .nonlinearity import (
    PolynomialNonlinearity,
    CriterionVerdict,
    check_wellposedness_condition,
    criterion_functional,
)
from .evolution import (
    EvolutionConfig,
    TrajectoryRecord,
    eps_convergence_study,
    integrate,
)
from .energy import CorrectionLadder, energy_audit, ladder_depth, modified_energy
from .growth import (
    directional_growth,
    gauge_shift,
    nonexistence_verdict,
    resonant_decomposition,
)

__version__ = "0.1.0"
