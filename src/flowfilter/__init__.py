"""flowfilter: particle-flow nonlinear filters in a unified McKean-Vlasov
framework, with Poisson-equation gain solvers, exact/grid reference filters
and Poincare-inequality certificates."""

from ._kernels import BACKEND, NUMBA_ENABLED
from .ensemble import (Density1D, Moments, compute_moments,
                       density_from_function, kde_density_1d)
from .filters import FilterKind, FilterRun, run_filter, step
from .gain import (GainField, assemble_filter_coefficients, continuous_gain,
                   monomial_basis, solve_1d_integral, solve_constant_gain,
                   solve_exact_gaussian, solve_fundamental_mc, solve_galerkin)
from .models import (InitialDensity, LogConcaveOUSpec, SystemModel,
                     make_linear_gaussian, make_log_concave_ou,
                     validate_conditions)
from .paths import (ObservationPath, TimeGrid, TruthTrajectory,
                    discrete_observation, simulate_observations,
                    simulate_truth, smoothed_value)
from .reference import density_distance, run_grid_kushner, run_kalman_bucy
from .rng import CounterStream, GaussianIncrements, InjectedIncrements, ZeroIncrements
from .theory import (GammaTrace, PoincareBound, brascamp_lieb_check,
                     empirical_poincare_1d, gamma_recursion, kappa_continuous,
                     kappa_delta, lipschitz_transfer)

__version__ = "0.1.0"
