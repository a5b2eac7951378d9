"""Trajectory dwell times, libration periods, and past-coverage verdicts.

The package computes, for piecewise-constant potentials probed below their
height, the quantities a trajectory picture of stationary quantum states
attaches to microstates (a, b, c) of one energy: conjugate momenta, reduced
actions, flight times, sub-barrier dwell times with their least upper bound,
square-well libration periods with both extremal bounds, and
past/present-admissibility comparisons against the conventional
probability-density reading.

``import trdwell`` loads no submodule.  The first access to any name of
``__all__`` imports the whole library API (PEP 562); the command line imports
only the modules each subcommand runs.
"""

import sys

__version__ = "0.1.0"

#: The public names, by the submodule that defines them, in import order.
_EXPORTS = {
    "config": "Config ConfigError SweepSpec load_config",
    "coverage": (
        "BOTH_ALLOW COPENHAGEN_ONLY NEITHER_ALLOW TR_ONLY ConnectionSolution"
        " CoverageVerdict Event GridSpec RelationReport connect sb_verdict set_relation_report"
        " slice_period_max slice_period_roots sw_verdict"
    ),
    "errors": (
        "DegenerateMicrostate DomainError Infeasible OptimizationFailure ScanNotSettled StepUnderflow"
        " TrdwellError"
    ),
    "kinematics": (
        "FORBIDDEN FREE SQUARE_WELL STEP_BARRIER Kinematics Potential Units kinematics_from_energies"
        " make_kinematics square_well step_barrier"
    ),
    "microstate": (
        "MONOCHROMATIC BasisRescale Microstate RawCoefficients admissible is_monochromatic normalize"
        " transform_basis"
    ),
    "potential": "BoundState bound_state_energies matching_residual",
    "times": (
        "SIGN_MINUS SIGN_PLUS DwellResult ExtremalReport dwell_supremum_bound dwell_time"
        " dwell_time_monochromatic libration_alternative_bound libration_infimum_probe"
        " libration_period libration_period_monochromatic libration_supremum_bound max_dwell"
        " max_libration"
    ),
    "trajectory": (
        "FlightTime TrajectorySample divergence_onset momentum_energy_derivative reduced_action"
        " sample_trajectory speed_at time_of_flight"
    ),
    "wavefield": (
        "CopenhagenState RegionBasis barrier_scattering bilinear canonical_basis conjugate_momentum"
        " copenhagen_density find_nodes momentum_derivatives qshje_residual well_eigenstate"
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names.split())


def _submodule(name: str):
    """The module ``trdwell.<name>``, imported on first use.

    ``__import__`` takes the path of an import statement, so ``-X importtime``
    lists the module (``importlib.import_module`` would hide it there).
    """
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        layer = _submodule(module)
        globals().update({export: getattr(layer, export) for export in names.split()})
    return globals()[name]
