"""Busy-period height of a finite birth-and-death chain.

The chain on {0..N} has birth rate (N - i) nu and death rate i mu in
state i.  This package computes the exact distribution and moments of
the height H (the maximum state reached during one excursion above 0),
its growth constants and limit behaviour, numerically certifies the
finite-N inequalities behind the limits, cross-checks everything against
an independent first-passage solver, and validates the lot with a
reproducible Monte Carlo sampler.
"""

__version__ = "0.3.0"

from .errors import BDHeightError, CapacityError, ParameterError, SimulationAbort
from .model import (
    ModelParams,
    jump_up_probs,
    make_params,
)
from .exactdist import (
    HeightDistribution,
    RationalHeightDistribution,
    exact_rational_distribution,
    height_distribution,
    log_r_term,
)
from .oracle import (
    height_dist_oracle,
    log_hitting_sums,
)
from .asymptotics import (
    AlphaSolution,
    BoundConstants,
    BoundReport,
    bound_constants,
    check_mean_bounds,
    check_peak_ratio_bounds,
    concentration_mass,
    concentration_window,
    convergence_table,
    height_fraction_limit,
    solve_alpha,
    stirling_ratio,
    variance_limit,
    wlln_tail_mass,
)
from .simulate import (
    FULL_CTMC,
    JUMP_CHAIN,
    LADDER,
    SimulationConfig,
    SimulationSummary,
    dkw_epsilon,
    estimate_mean_excursion_steps,
    run_batch,
)

__all__ = [
    "__version__",
    "BDHeightError", "CapacityError", "ParameterError", "SimulationAbort",
    "ModelParams", "make_params", "jump_up_probs",
    "HeightDistribution", "RationalHeightDistribution", "height_distribution",
    "log_r_term", "exact_rational_distribution",
    "height_dist_oracle", "log_hitting_sums",
    "AlphaSolution", "BoundConstants", "BoundReport", "solve_alpha",
    "height_fraction_limit", "variance_limit", "bound_constants",
    "check_peak_ratio_bounds", "check_mean_bounds", "stirling_ratio",
    "convergence_table", "concentration_window", "concentration_mass",
    "wlln_tail_mass",
    "LADDER", "JUMP_CHAIN", "FULL_CTMC",
    "SimulationConfig", "SimulationSummary", "run_batch", "dkw_epsilon",
    "estimate_mean_excursion_steps",
]
