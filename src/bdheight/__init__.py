"""Busy-period height of a finite birth-and-death chain.

The chain on {0..N} has birth rate (N - i) nu and death rate i mu in
state i.  This package computes the exact distribution and moments of
the height H (the maximum state reached during one excursion above 0),
its growth constants and limit behaviour, numerically certifies the
finite-N inequalities behind the limits, cross-checks everything against
an independent first-passage solver, and validates the lot with a
reproducible Monte Carlo sampler.

The public names are exported lazily (PEP 562): ``import bdheight``
loads no submodule, and the first read of a name such as
``bdheight.solve_alpha`` or ``bdheight.oracle`` imports the submodule
that defines it.  So a command-line run pays only for the submodules its
subcommand uses.
"""

__version__ = "0.4.1"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "errors": ("BDHeightError", "CapacityError", "ParameterError", "SimulationAbort"),
    "model": ("ModelParams", "make_params", "jump_up_probs"),
    "exactdist": ("HeightDistribution", "RationalHeightDistribution", "height_distribution",
                  "log_r_term", "exact_rational_distribution"),
    "oracle": ("height_dist_oracle", "log_hitting_sums"),
    "asymptotics": ("AlphaSolution", "BoundConstants", "BoundReport", "solve_alpha",
                    "height_fraction_limit", "bound_constants",
                    "check_peak_ratio_bounds", "check_mean_bounds", "check_mean_near_capacity",
                    "stirling_ratio", "convergence_table", "concentration_window"),
    "simulate": ("LADDER", "JUMP_CHAIN", "FULL_CTMC", "SimulationConfig", "SimulationSummary",
                 "run_batch", "dkw_epsilon", "estimate_mean_excursion_steps"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import binds the submodule in this namespace.  The builtin import,
    # unlike importlib.import_module, is what -X importtime reports.
    __import__(f"{__name__}.{module}")
    value = globals()[module] if name == module else getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
