"""Equality-form uncertainty relations, verified numerically.

Algebraic identities on complex scalar-product spaces are checked to
machine precision; their analytic counterparts on discretized L2(R^n) are
checked to quadrature-limited tolerance, including the Gaussian extremizer
families and a variational recovery of the minimizers.
"""

__version__ = "0.1.0"

from .complexspace import (ComplexVector, ExtremizerFlags,
                           InternalConsistencyError, cs_equality_residuals,
                           extremizer_class, random_vector)
from .forms import PairSample, pair_reports
from .gaussians import GaussianSpec, exact_moments, realize
from .grids import (GridSpec, StateField, VectorField,
                    pointwise_gradient_decomposition)
from .identities import (random_smooth_state, saturation_flags,
                         verify_dilation_hamiltonian,
                         verify_dilation_pythagoras, verify_hardy,
                         verify_position_momentum, verify_radial_coulomb)
from .radial import (LaguerreQuadrature, LogRadialQuadrature, RadialQuadrature,
                     RadialState, annulus_state, gaussian_polynomial,
                     radial_gaussian, random_radial_state)
from .report import EqualityReport, bound, compare
from .search import (SearchOptions, SearchResult, fidelity,
                     minimize_product_functional, minimize_sum_functional,
                     probe_nonattainment)

__all__ = [name for name in dir() if not name.startswith("_")]
