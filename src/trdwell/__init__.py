"""Trajectory dwell times, libration periods, and past-coverage verdicts.

The package computes, for piecewise-constant potentials probed below their
height, the quantities a trajectory picture of stationary quantum states
attaches to microstates (a, b, c) of one energy: conjugate momenta, reduced
actions, flight times, sub-barrier dwell times with their least upper bound,
square-well libration periods with both extremal bounds, and
past/present-admissibility comparisons against the conventional
probability-density reading.
"""

__version__ = "0.1.0"

from .config import Config, ConfigError, SweepSpec, load_config
from .coverage import (
    BOTH_ALLOW,
    COPENHAGEN_ONLY,
    NEITHER_ALLOW,
    NODE_DENSITY_FLOOR,
    TR_ONLY,
    ConnectionSolution,
    CoverageVerdict,
    Event,
    GridSpec,
    RelationReport,
    connect,
    sb_verdict,
    set_relation_report,
    slice_period_max,
    slice_period_roots,
    sw_verdict,
)
from .errors import (
    DegenerateMicrostate,
    DomainError,
    Infeasible,
    OptimizationFailure,
    ScanNotSettled,
    StepUnderflow,
    TrdwellError,
)
from .microstate import (
    MONOCHROMATIC,
    BasisRescale,
    Microstate,
    RawCoefficients,
    admissible,
    is_monochromatic,
    normalize,
    transform_basis,
)
from .potential import (
    FORBIDDEN,
    FREE,
    SQUARE_WELL,
    STEP_BARRIER,
    BoundState,
    Kinematics,
    Potential,
    Units,
    bound_state_energies,
    kinematics_from_energies,
    make_kinematics,
    matching_residual,
    square_well,
    step_barrier,
)
from .times import (
    SIGN_MINUS,
    SIGN_PLUS,
    DwellResult,
    ExtremalReport,
    dwell_supremum_bound,
    dwell_time,
    dwell_time_monochromatic,
    libration_alternative_bound,
    libration_infimum_probe,
    libration_period,
    libration_period_monochromatic,
    libration_supremum_bound,
    max_dwell,
    max_libration,
)
from .trajectory import (
    FlightTime,
    TrajectorySample,
    divergence_onset,
    momentum_energy_derivative,
    reduced_action,
    sample_trajectory,
    speed_at,
    time_of_flight,
)
from .wavefield import (
    CopenhagenState,
    RegionBasis,
    barrier_scattering,
    bilinear,
    canonical_basis,
    conjugate_momentum,
    copenhagen_density,
    find_nodes,
    momentum_derivatives,
    qshje_residual,
    well_eigenstate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
