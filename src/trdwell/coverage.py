"""Past/present admissibility under the trajectory and probability-density views.

Given a "present" observation and a candidate "past" event, each view either
admits or excludes the pair.  The trajectory view admits it when some
admissible microstate carries a trajectory through both events — an
existential statement over the microstate family, with no probability weight
attached to its members.  The probability-density view admits any pair whose
present lies inside the support of |psi|^2 and, behind the step, any elapsed
time whatsoever.

Two scenarios are covered: a sub-barrier present behind the step (where the
trajectory view imposes a finite dwell-time ceiling and the density view
imposes none) and a present inside a square well (where the trajectory view
can connect any two interior events but the density view dies at the nodes
of excited states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, Infeasible
from .microstate import Microstate, normalize
from .potential import Kinematics, check_half_width
from .times import dwell_supremum_bound, libration_period, libration_prefactor
from .wavefield import (
    WELL_EIGENSTATE,
    CopenhagenState,
    copenhagen_density,
)

BOTH_ALLOW = "BothAllow"
COPENHAGEN_ONLY = "CopenhagenOnly"
TR_ONLY = "TROnly"
NEITHER_ALLOW = "NeitherAllow"

SCENARIO_SB = "SB"
SCENARIO_SW_BOUND = "SW-bound"
SCENARIO_SW_EXCITED = "SW-excited"

RELATION_UNION_EXCEEDS_TR = "{TR} union {Copenhagen} != {TR}"
RELATION_UNION_IS_TR = "{TR} union {Copenhagen} = {TR}"
RELATION_UNION_EXCEEDS_COPENHAGEN = "{TR} union {Copenhagen} != {Copenhagen}"
RELATION_MIXED = "{TR} union {Copenhagen} != {TR} and != {Copenhagen}"

#: Densities at or below this threshold count as excluded support for a
#: unit-normalized state.  The density at a closed-form node sits many orders
#: below it; any point a distance > 1e-9 from a node sits above it.
NODE_DENSITY_FLOOR = 1e-20

#: Target periods are kept this far (relative) below the slice ceiling so the
#: connecting quadratic stays safely non-degenerate.
_PERIOD_MARGIN = 1e-12


@dataclass(frozen=True)
class Event:
    """A position/epoch pair, optionally tagged with the region it sits in."""

    x: float
    t: float
    region: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.t)):
            raise DomainError(f"event coordinates must be finite, got ({self.x!r}, {self.t!r})")


@dataclass(frozen=True)
class CoverageVerdict:
    """Admissibility of one past/present pair under the two views."""

    tr_allowed: bool
    copenhagen_allowed: bool
    classification: str
    witness: Microstate | None = None


def _classify(tr_allowed: bool, copenhagen_allowed: bool) -> str:
    if tr_allowed and copenhagen_allowed:
        return BOTH_ALLOW
    if copenhagen_allowed:
        return COPENHAGEN_ONLY
    if tr_allowed:
        return TR_ONLY
    return NEITHER_ALLOW


def sb_verdict(past: Event, present: Event, kin: Kinematics) -> CoverageVerdict:
    """Verdict for a sub-barrier pair behind the step.

    Both events must lie on the barrier side (x >= 0) with the present
    strictly after the past.  The trajectory view admits the pair exactly
    when the elapsed time falls below the dwell-time least upper bound (the
    bound itself is never attained); the density view admits every such pair,
    since the scattering density 4k^2/(k^2 + kappa^2) exp(-2 kappa x) is
    strictly positive at every finite depth, so no float evaluation of it is
    needed.
    """
    for name, event in (("past", past), ("present", present)):
        if event.x < 0.0:
            raise DomainError(f"{name} event must lie on the barrier side (x >= 0), got {event.x!r}")
    elapsed = present.t - past.t
    if elapsed <= 0.0:
        raise DomainError(f"present must come after past, got elapsed={elapsed!r}")
    tr_allowed = elapsed < dwell_supremum_bound(kin)
    return CoverageVerdict(
        tr_allowed=tr_allowed,
        copenhagen_allowed=True,
        classification=_classify(tr_allowed, True),
        witness=None,
    )


@dataclass(frozen=True)
class ConnectionSolution:
    """A microstate whose libration carries a well trajectory between two events."""

    ms: Microstate
    whole_periods: int
    phase_offset: float
    realized_period: float
    arrival_time: float


def slice_period_max(kin: Kinematics, q: float) -> float:
    """Largest libration period reachable on the c = 0, b = 1/a slice.

    There the period collapses to prefactor * a/(a^2 + r^2), which peaks at a = r.
    """
    check_half_width(q)
    return libration_prefactor(kin, q) / (2.0 * kin.r)


def slice_period_roots(kin: Kinematics, q: float, period: float) -> tuple[float, float]:
    """Both a-values on the c = 0, b = 1/a slice whose period equals ``period``.

    Solving period = prefactor * a/(a^2 + r^2) gives
    a = (1 +/- sqrt(1 - 4 tau^2 r^2))/(2 tau) with tau = period/prefactor; the
    smaller root is returned first, in the cancellation-free rationalized
    form 2 tau r^2 / (1 + sqrt(...)).  Raises :class:`Infeasible` above the
    slice ceiling.
    """
    if not (math.isfinite(period) and period > 0.0):
        raise DomainError(f"period must be finite and positive, got {period!r}")
    if period > slice_period_max(kin, q):
        raise Infeasible(
            f"period {period!r} exceeds the slice ceiling {slice_period_max(kin, q)!r}"
        )
    tau = period / libration_prefactor(kin, q)
    r2 = kin.r * kin.r
    disc = max(1.0 - 4.0 * tau * tau * r2, 0.0)
    root = math.sqrt(disc)
    a_small = 2.0 * tau * r2 / (1.0 + root)
    a_large = (1.0 + root) / (2.0 * tau)
    return a_small, a_large


def _passage_fraction(x: float, q: float, kappa: float) -> float:
    """Cycle fraction of the canonical rightward passage through x in [-q, q].

    The cycle is anchored at the left wall moving right.  Its four legs carry
    geometric fractions: each interior crossing takes c_hat = q/(2(q + 1/kappa))
    of the cycle and each wall dwell takes w_hat = (1/kappa)/(2(q + 1/kappa)),
    the same split the monochromatic member realizes in time.
    """
    crossing = 0.5 * q / (q + 1.0 / kappa)
    return crossing * (x + q) / (2.0 * q)


def connect(past: Event, present: Event, state: CopenhagenState) -> ConnectionSolution:
    """A microstate whose libration visits both events, with its phase data.

    Phases are assigned by the canonical passage map, the elapsed time is
    split as (whole_periods + phase_advance) * period, and the period is
    realized on the c = 0, b = 1/a slice by the smaller quadratic root
    (which passes through the monochromatic member when the target period
    matches it).  whole_periods is the smallest count >= 1 that keeps the
    target period at or below the slice ceiling; a connection therefore
    exists for every interior pair with positive elapsed time.
    """
    if state.kind != WELL_EIGENSTATE:
        raise DomainError("connections are defined inside the square well")
    q = state.potential.q
    assert q is not None
    kin = state.kinematics
    for name, event in (("past", past), ("present", present)):
        if abs(event.x) > q:
            raise DomainError(f"{name} event must lie inside the well (|x| <= {q!r}), got {event.x!r}")
    elapsed = present.t - past.t
    if elapsed <= 0.0 or not math.isfinite(elapsed):
        raise Infeasible(f"present must come strictly after past, got elapsed={elapsed!r}")

    s_past = _passage_fraction(past.x, q, kin.kappa)
    s_present = _passage_fraction(present.x, q, kin.kappa)
    phase_advance = (s_present - s_past) % 1.0

    ceiling = slice_period_max(kin, q) * (1.0 - _PERIOD_MARGIN)
    n = max(1, math.ceil(elapsed / ceiling - phase_advance))
    while elapsed / (n + phase_advance) > ceiling:
        n += 1
    period_target = elapsed / (n + phase_advance)

    a_small, _ = slice_period_roots(kin, q, period_target)
    ms = normalize(a_small, 1.0 / a_small, 0.0)
    realized = libration_period(kin, q, ms)
    return ConnectionSolution(
        ms=ms,
        whole_periods=n,
        phase_offset=s_past * realized,
        realized_period=realized,
        arrival_time=past.t + (n + phase_advance) * realized,
    )


def sw_verdict(past: Event, present: Event, state: CopenhagenState) -> CoverageVerdict:
    """Verdict for a pair of interior events of the square well.

    The trajectory view always admits the pair — :func:`connect` produces an
    explicit witness microstate — while the density view requires the present
    to carry probability support: its density must exceed
    ``NODE_DENSITY_FLOOR``, which excludes the nodes of excited states.
    """
    solution = connect(past, present, state)
    copenhagen_allowed = copenhagen_density(state, present.x) > NODE_DENSITY_FLOOR
    return CoverageVerdict(
        tr_allowed=True,
        copenhagen_allowed=copenhagen_allowed,
        classification=_classify(True, copenhagen_allowed),
        witness=solution.ms,
    )


@dataclass(frozen=True)
class GridSpec:
    """Cartesian scan grid for relation reports."""

    past_positions: tuple[float, ...]
    present_positions: tuple[float, ...]
    time_offsets: tuple[float, ...]
    past_time: float = 0.0

    def __post_init__(self) -> None:
        for name in ("past_positions", "present_positions", "time_offsets"):
            values = getattr(self, name)
            if len(values) == 0:
                raise DomainError(f"{name} must not be empty")
            if not all(math.isfinite(v) for v in values):
                raise DomainError(f"{name} must be finite, got {values!r}")
        if not all(dt > 0.0 for dt in self.time_offsets):
            raise DomainError("time offsets must be positive")
        if not math.isfinite(self.past_time):
            raise DomainError(f"past_time must be finite, got {self.past_time!r}")


@dataclass(frozen=True)
class RelationReport:
    """Counts and the set relation sustained by a verdict scan."""

    scenario: str
    relation: str
    counts: dict[str, int] = field(compare=False)
    total: int = 0
    notes: tuple[str, ...] = ()


_EXISTENTIAL_NOTE = (
    "trajectory admissibility is existential over the microstate family; "
    "no probability measure is placed on its members"
)
_SB_IDEALIZATION_NOTE = (
    "the semi-infinite step is an idealized thought experiment; the contrast "
    "concerns which pasts are reachable, not laboratory count rates"
)
_SW_NODE_NOTE = (
    "density support is judged against a floor of 1e-20, far below any "
    "non-node value on the scan and far above the density at the closed-form nodes"
)


def set_relation_report(
    scenario: str,
    grid: GridSpec,
    kin: Kinematics | None = None,
    state: CopenhagenState | None = None,
) -> RelationReport:
    """Scan a grid of past/present pairs and report the sustained set relation.

    ``"SB"`` needs ``kin`` (step kinematics); ``"SW-bound"`` and
    ``"SW-excited"`` need ``state`` (a ground or excited well eigenstate,
    respectively).  The relation is derived from the verdict counts, not
    assumed: pairs only the density view admits push the union beyond the
    trajectory set, pairs only the trajectory view admits push it beyond the
    density set, and neither kind appearing leaves the union equal to the
    trajectory set.
    """
    if scenario == SCENARIO_SB:
        if kin is None:
            raise DomainError("the SB scenario requires kinematics")
    elif scenario in (SCENARIO_SW_BOUND, SCENARIO_SW_EXCITED):
        if state is None or state.kind != WELL_EIGENSTATE:
            raise DomainError(f"the {scenario} scenario requires a well eigenstate")
        if scenario == SCENARIO_SW_BOUND and state.index != 0:
            raise DomainError("the SW-bound scenario expects the ground state (index 0)")
        if scenario == SCENARIO_SW_EXCITED and (state.index is None or state.index < 1):
            raise DomainError("the SW-excited scenario expects an excited state (index >= 1)")
    else:
        raise DomainError(f"unknown scenario {scenario!r}")

    counts = {BOTH_ALLOW: 0, COPENHAGEN_ONLY: 0, TR_ONLY: 0, NEITHER_ALLOW: 0}
    for x_past in grid.past_positions:
        for x_present in grid.present_positions:
            for dt in grid.time_offsets:
                past = Event(x_past, grid.past_time)
                present = Event(x_present, grid.past_time + dt)
                if scenario == SCENARIO_SB:
                    assert kin is not None
                    verdict = sb_verdict(past, present, kin)
                else:
                    assert state is not None
                    verdict = sw_verdict(past, present, state)
                counts[verdict.classification] += 1

    if counts[COPENHAGEN_ONLY] > 0 and counts[TR_ONLY] > 0:
        relation = RELATION_MIXED
    elif counts[COPENHAGEN_ONLY] > 0:
        relation = RELATION_UNION_EXCEEDS_TR
    elif counts[TR_ONLY] > 0:
        relation = RELATION_UNION_EXCEEDS_COPENHAGEN
    else:
        relation = RELATION_UNION_IS_TR

    notes = [_EXISTENTIAL_NOTE]
    if scenario == SCENARIO_SB:
        notes.append(_SB_IDEALIZATION_NOTE)
    else:
        notes.append(_SW_NODE_NOTE)
    return RelationReport(
        scenario=scenario,
        relation=relation,
        counts=counts,
        total=sum(counts.values()),
        notes=tuple(notes),
    )
