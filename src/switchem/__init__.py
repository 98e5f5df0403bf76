"""Simulation and EM estimation for regime-switching mean-reverting SDEs
driven by Normal Inverse Gaussian Levy noise.

The observed process follows dX_t = lam*(b(alpha_t) - X_t) dt + dZ_t with a
hidden finite-state Markov regime alpha and NIG noise Z.  The package
simulates paths on a refined Euler grid and recovers theta = (b(1..N), lam,
delta) from discrete observations by an EM scheme built on a Cauchy
quasi-likelihood, forward regime filtering and backward smoothing.
"""

from .ctmc import (
    ChainPath,
    GeneratorMatrix,
    simulate_chain,
    transition_matrix_approx,
    validate_generator,
)
from .em import (
    EmConfig,
    EmResult,
    IterationRecord,
    em_fit,
    first_order_step,
    newton_step,
    quadratic_error,
    sort_regimes,
    termination_stat,
    update_generator,
)
from .errors import ConfigError, EvaluationError, NumericalFailure
from .likelihood import (
    CauchyTerms,
    ObservationSeries,
    SmoothedPairProbs,
    Theta,
    H_n,
    grad_H,
    hessian_H,
)
from .nig import NigParams, sample_nig
from .sde import SimulationConfig, euler_path, simulate_path
from .smoother import (
    FilterState,
    backward_smooth,
    forward_filter,
)

__version__ = "0.1.0"

__all__ = [
    "CauchyTerms",
    "ChainPath",
    "ConfigError",
    "EmConfig",
    "EmResult",
    "EvaluationError",
    "FilterState",
    "GeneratorMatrix",
    "H_n",
    "IterationRecord",
    "NigParams",
    "NumericalFailure",
    "ObservationSeries",
    "SimulationConfig",
    "SmoothedPairProbs",
    "Theta",
    "backward_smooth",
    "em_fit",
    "euler_path",
    "first_order_step",
    "forward_filter",
    "grad_H",
    "hessian_H",
    "newton_step",
    "quadratic_error",
    "sample_nig",
    "simulate_chain",
    "simulate_path",
    "sort_regimes",
    "termination_stat",
    "transition_matrix_approx",
    "update_generator",
    "validate_generator",
]
