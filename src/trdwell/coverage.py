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

Inside the well every connection runs through one kernel per state
(:class:`_SliceKernel`).  It computes the state's constants once per call:
the crossing fraction at once, the slice peak and ceiling on first need.
Its ``split`` maps each pair to its whole periods, phase advance and slice
coefficient a.  :func:`connect` builds its witness; :func:`set_relation_report`
runs only the split per pair.  Density support is judged from the
closed-form node phase of the present, never from a float density.
"""

from __future__ import annotations

import math

from .errors import DomainError, Infeasible, _Record
from .kinematics import _NORMAL, Kinematics, check_positive
from .microstate import Microstate, normalize
from .times import _ratio, _slice_peak, dwell_supremum_bound, libration_period
from .wavefield import WELL_EIGENSTATE, CopenhagenState, _node_phases

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

#: Target periods are kept this far (relative) below the slice ceiling so the
#: connecting quadratic stays safely non-degenerate.
_PERIOD_MARGIN = 1e-12

#: The first whole-period count n whose ulp is 1: from there n + phase_advance
#: rounds to a whole number, so the witness no longer depends on where the
#: present lies.  Below it the advance keeps at least one bit.
_PHASE_CARRY = 2**52


def _check_event(x: float, t: float) -> None:
    if not (math.isfinite(x) and math.isfinite(t)):
        raise DomainError(f"event coordinates must be finite, got ({x!r}, {t!r})")


class Event(_Record):
    """A position/epoch pair."""

    __slots__ = ("x", "t")

    def __init__(self, x: float, t: float):
        _check_event(x, t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)


class CoverageVerdict(_Record):
    """Admissibility of one past/present pair under the two views."""

    __slots__ = ("tr_allowed", "copenhagen_allowed", "classification", "witness")

    def __init__(
        self, tr_allowed: bool, copenhagen_allowed: bool, classification: str, witness: Microstate | None = None
    ):
        object.__setattr__(self, "tr_allowed", tr_allowed)
        object.__setattr__(self, "copenhagen_allowed", copenhagen_allowed)
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "witness", witness)


def _classify(tr_allowed: bool, copenhagen_allowed: bool) -> str:
    if tr_allowed and copenhagen_allowed:
        return BOTH_ALLOW
    if copenhagen_allowed:
        return COPENHAGEN_ONLY
    if tr_allowed:
        return TR_ONLY
    return NEITHER_ALLOW


def _check_sb_pair(x_past: float, x_present: float, elapsed: float) -> None:
    for name, x in (("past", x_past), ("present", x_present)):
        if x < 0.0:
            raise DomainError(f"{name} event must lie on the barrier side (x >= 0), got {x!r}")
    if elapsed <= 0.0:
        raise DomainError(f"present must come after past, got elapsed={elapsed!r}")


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
    classification = _sb_classifier(kin)(past.x, present.x, present.t - past.t)
    return CoverageVerdict(
        tr_allowed=classification == BOTH_ALLOW, copenhagen_allowed=True, classification=classification
    )


class ConnectionSolution(_Record):
    """A microstate whose libration carries a well trajectory between two events."""

    __slots__ = ("ms", "whole_periods", "phase_offset", "realized_period", "arrival_time")

    def __init__(
        self, ms: Microstate, whole_periods: int, phase_offset: float, realized_period: float, arrival_time: float
    ):
        object.__setattr__(self, "ms", ms)
        object.__setattr__(self, "whole_periods", whole_periods)
        object.__setattr__(self, "phase_offset", phase_offset)
        object.__setattr__(self, "realized_period", realized_period)
        object.__setattr__(self, "arrival_time", arrival_time)


class _SliceKernel:
    """The constants of one state on the c = 0, b = 1/a slice, and the per-pair split.

    On that slice the libration period collapses to prefactor * a/(a^2 + r^2),
    which peaks at a = r with the value prefactor/(2r).  The peak and the
    ceiling are computed where the per-pair code first needs them, after the
    pair's own checks, so a peak beyond the double range fails a scan on the
    same pair, with the same error, as a loop over :func:`connect`.  Nothing
    here outlives the call that builds it.
    """

    __slots__ = ("kin", "q", "peak", "r", "ceiling", "crossing")

    def __init__(self, kin: Kinematics, q: float):
        check_positive("well half-width q", q)
        self.kin, self.q, self.r, self.peak = kin, q, _ratio(kin), None
        # Cycle fraction of one interior crossing, q/(2(q + 1/kappa)); each wall
        # dwell takes (1/kappa)/(2(q + 1/kappa)), the monochromatic split in time.
        self.crossing = 0.5 * q / (q + 1.0 / kin.kappa)

    def check(self) -> _SliceKernel:
        """The kernel itself, its peak and ceiling computed on first need; a DomainError if the peak is no double."""
        if self.peak is None:
            self.peak = _slice_peak(self.kin, self.q)
            self.ceiling = self.peak * (1.0 - _PERIOD_MARGIN)
        return self

    def fraction(self, x: float) -> float:
        """Cycle fraction of the canonical rightward passage through x in [-q, q].

        The cycle is anchored at the left wall moving right, so x = -q sits at
        0 and x = q one crossing later.
        """
        return self.crossing * (x + self.q) / (2.0 * self.q)

    def roots(self, period: float) -> tuple[float, float]:
        """Both a-values whose slice period equals ``period``, smaller first.

        With prefactor = 2 r peak, period = prefactor * a/(a^2 + r^2) gives
        a = r (1 +/- sqrt(1 - h^2))/h with h = period/peak <= 1; the smaller
        root takes the cancellation-free rationalized form h r/(1 + sqrt(...)),
        so neither the prefactor nor r^2 is formed.  Raises
        :class:`Infeasible` above the slice peak, and :class:`DomainError`
        where the period is not a normal double or h underflows to 0.
        """
        check_positive("period", period)
        if period > self.check().peak:
            raise Infeasible(f"period {period!r} exceeds the slice ceiling {self.peak!r}")
        half = period / self.peak / 2.0  # tau r for tau = period/prefactor
        if period < _NORMAL or half == 0.0:
            raise DomainError(f"period {period!r} underflows against the slice peak {self.peak!r}")
        root = math.sqrt(max((1.0 - 2.0 * half) * (1.0 + 2.0 * half), 0.0))
        return 2.0 * half * self.r / (1.0 + root), (1.0 + root) * self.r / (2.0 * half)

    def split(self, x_past: float, x_present: float, elapsed: float) -> tuple[int, float, float]:
        """(whole periods n, phase advance, slice coefficient a) of one pair.

        The elapsed time is split as (n + phase_advance) * period, with n the
        smallest count >= 1 that keeps the period at or below the ceiling, and
        a is the smaller root for that period.  Raises, in this order: a
        position outside the well, an elapsed time that is not positive and
        finite, a peak or whole-period count that is not a double, a count of
        ``_PHASE_CARRY`` or more, and any a for which a and 1/a are not both
        positive finite doubles.  Where it returns, the witness (a, 1/a, 0)
        normalizes and has a finite period.
        """
        q = self.q
        for name, x in (("past", x_past), ("present", x_present)):
            if abs(x) > q:
                raise DomainError(f"{name} event must lie inside the well (|x| <= {q!r}), got {x!r}")
        if elapsed <= 0.0 or not math.isfinite(elapsed):
            raise Infeasible(f"present must come strictly after past, got elapsed={elapsed!r}")
        ceiling = self.check().ceiling
        phase_advance = (self.fraction(x_present) - self.fraction(x_past)) % 1.0
        periods = elapsed / ceiling if ceiling > 0.0 else math.inf
        if periods == math.inf:
            raise DomainError(
                f"elapsed time {elapsed!r} spans more slice periods (ceiling {ceiling!r}) than a double counts"
            )
        n = max(1, math.ceil(periods - phase_advance))
        while n < _PHASE_CARRY and elapsed / (n + phase_advance) > ceiling:
            n += 1
        if n >= _PHASE_CARRY:
            raise DomainError(
                f"elapsed time {elapsed!r} spans at least 2^52 slice periods (ceiling {ceiling!r}):"
                " n + phase advance no longer carries the phase"
            )
        period = elapsed / (n + phase_advance)
        a, _ = self.roots(period)
        if not (0.0 < a < math.inf and 1.0 / a < math.inf):
            raise DomainError(
                f"the slice microstate (a, 1/a, 0) at period {period!r} is not two positive doubles: a = {a!r}"
            )
        return n, phase_advance, a


def _well_kernel(state: CopenhagenState) -> _SliceKernel:
    if state.kind != WELL_EIGENSTATE:
        raise DomainError("connections are defined inside the square well")
    return _SliceKernel(state.kinematics, state.potential.q)


def slice_period_max(kin: Kinematics, q: float) -> float:
    """Largest libration period reachable on the c = 0, b = 1/a slice.

    There the period collapses to prefactor * a/(a^2 + r^2), which peaks at a = r.
    """
    return _SliceKernel(kin, q).check().peak


def slice_period_roots(kin: Kinematics, q: float, period: float) -> tuple[float, float]:
    """Both a-values on the c = 0, b = 1/a slice whose period equals ``period``.

    The smaller root is returned first; see :meth:`_SliceKernel.roots`.
    Raises :class:`Infeasible` above the slice ceiling, and
    :class:`DomainError` where the period underflows against the peak.
    """
    return _SliceKernel(kin, q).roots(period)


def connect(past: Event, present: Event, state: CopenhagenState) -> ConnectionSolution:
    """A microstate whose libration visits both events, with its phase data.

    Phases are assigned by the canonical passage map, the elapsed time is
    split as (whole_periods + phase_advance) * period, and the period is
    realized on the c = 0, b = 1/a slice by the smaller quadratic root
    (which passes through the monochromatic member when the target period
    matches it).  whole_periods is the smallest count >= 1 that keeps the
    target period at or below the slice ceiling; a connection therefore
    exists for every interior pair with positive elapsed time whose period
    and slice coefficients are doubles.
    """
    kernel = _well_kernel(state)
    n, phase_advance, a = kernel.split(past.x, present.x, present.t - past.t)
    ms = normalize(a, 1.0 / a, 0.0)
    realized = libration_period(kernel.kin, kernel.q, ms)
    return ConnectionSolution(
        ms=ms,
        whole_periods=n,
        phase_offset=kernel.fraction(past.x) * realized,
        realized_period=realized,
        arrival_time=past.t + (n + phase_advance) * realized,
    )


def _density_support(state: CopenhagenState):
    """Whether the density of well eigenstate ``state`` has support at x, as a function of x."""
    from .potential import _ANGLE_RTOL  # the ladder's accuracy; only the well scenarios load it

    # The one place the density view decides support inside the well: |psi|^2
    # vanishes only at the node phases of _node_phases, k x/pi = j + offset with
    # |j + offset| <= top.  The ladder's k is within _ANGLE_RTOL of its root, so a node
    # phase is met to within that share of k x/pi, and 2^-51 more covers the
    # roundings of k x, of pi and of the division (1.5 ulp).  A band of half a
    # turn would take in the antinodes too: no verdict is left.
    (offset, top), k, rtol = _node_phases(state), state.kinematics.k, _ANGLE_RTOL + 2.0**-51

    def supported(x: float) -> bool:
        phase = k * x / math.pi
        node, band = round(phase - offset) + offset, rtol * abs(phase)
        if band >= 0.5:
            raise DomainError(f"the ladder's k cannot tell a node from an antinode at x={x!r}: k x/pi = {phase!r}")
        return abs(phase - node) > band or abs(node) > top

    return supported


def sw_verdict(past: Event, present: Event, state: CopenhagenState) -> CoverageVerdict:
    """Verdict for a pair of interior events of the square well.

    The trajectory view always admits the pair — :func:`connect` produces an
    explicit witness microstate — while the density view requires the present
    to carry probability support, which excludes exactly the n closed-form
    nodes of state n, k x = j pi (odd) or (j + 1/2) pi (even) with
    |k x/pi| <= (n - 1)/2, to within the ladder's relative accuracy in k: a
    rule free of units.  Raises :class:`DomainError` where that accuracy
    cannot tell a node from an antinode.
    """
    solution = connect(past, present, state)
    copenhagen_allowed = _density_support(state)(present.x)
    return CoverageVerdict(
        tr_allowed=True,
        copenhagen_allowed=copenhagen_allowed,
        classification=_classify(True, copenhagen_allowed),
        witness=solution.ms,
    )


class GridSpec(_Record):
    """Cartesian scan grid for relation reports."""

    __slots__ = ("past_positions", "present_positions", "time_offsets", "past_time")

    def __init__(
        self, past_positions: tuple[float, ...], present_positions: tuple[float, ...], time_offsets: tuple[float, ...],
        past_time: float = 0.0,
    ):
        for name, values in zip(self.__slots__, (past_positions, present_positions, time_offsets)):
            if len(values) == 0:
                raise DomainError(f"{name} must not be empty")
            if not all(math.isfinite(v) for v in values):
                raise DomainError(f"{name} must be finite, got {values!r}")
        if not all(dt > 0.0 for dt in time_offsets):
            raise DomainError("time offsets must be positive")
        if not math.isfinite(past_time):
            raise DomainError(f"past_time must be finite, got {past_time!r}")
        object.__setattr__(self, "past_positions", past_positions)
        object.__setattr__(self, "present_positions", present_positions)
        object.__setattr__(self, "time_offsets", time_offsets)
        object.__setattr__(self, "past_time", past_time)


class RelationReport(_Record):
    """Counts and the set relation sustained by a verdict scan; ``counts`` is left out of equality."""

    __slots__ = ("scenario", "relation", "counts", "total", "notes")
    _uncompared = ("counts",)

    def __init__(
        self, scenario: str, relation: str, counts: dict[str, int], total: int = 0, notes: tuple[str, ...] = ()
    ):
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "notes", notes)


_EXISTENTIAL_NOTE = (
    "trajectory admissibility is existential over the microstate family; "
    "no probability measure is placed on its members"
)
_SB_IDEALIZATION_NOTE = (
    "the semi-infinite step is an idealized thought experiment; the contrast "
    "concerns which pasts are reachable, not laboratory count rates"
)
_SW_NODE_NOTE = (
    "density support is excluded exactly at the closed-form nodes, k x = j pi (odd states) "
    "or (j + 1/2) pi (even states) with |x| < q, to within the ladder's relative accuracy in k"
)


def _sb_classifier(kin: Kinematics):
    """Classification of one step pair; the dwell bound is evaluated once, on first need."""
    bound = None

    def classify(x_past: float, x_present: float, elapsed: float) -> str:
        nonlocal bound
        _check_sb_pair(x_past, x_present, elapsed)
        if bound is None:
            bound = dwell_supremum_bound(kin)
        return _classify(elapsed < bound, True)

    return classify


def _sw_classifier(state: CopenhagenState):
    """Classification of one well pair: the kernel's split, then support at the present."""
    kernel, supported = _well_kernel(state), _density_support(state)

    def classify(x_past: float, x_present: float, elapsed: float) -> str:
        kernel.split(x_past, x_present, elapsed)
        return _classify(True, supported(x_present))

    return classify


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

    The counts, and the first error, are those of :func:`sb_verdict` or
    :func:`sw_verdict` run on every pair in grid order, but the work is
    shared.  SB evaluates the dwell bound once per report.  SW builds the
    state's slice kernel once per report, and runs only its split per pair
    (the witness it would build is not kept).
    """
    if scenario == SCENARIO_SB:
        if kin is None:
            raise DomainError("the SB scenario requires kinematics")
        classify = _sb_classifier(kin)
    elif scenario in (SCENARIO_SW_BOUND, SCENARIO_SW_EXCITED):
        if state is None or state.kind != WELL_EIGENSTATE:
            raise DomainError(f"the {scenario} scenario requires a well eigenstate")
        if scenario == SCENARIO_SW_BOUND and state.index != 0:
            raise DomainError("the SW-bound scenario expects the ground state (index 0)")
        if scenario == SCENARIO_SW_EXCITED and (state.index is None or state.index < 1):
            raise DomainError("the SW-excited scenario expects an excited state (index >= 1)")
        classify = _sw_classifier(state)
    else:
        raise DomainError(f"unknown scenario {scenario!r}")

    counts = {BOTH_ALLOW: 0, COPENHAGEN_ONLY: 0, TR_ONLY: 0, NEITHER_ALLOW: 0}
    t_past = grid.past_time
    t_presents = [t_past + dt for dt in grid.time_offsets]
    for x_past in grid.past_positions:
        for x_present in grid.present_positions:
            for t_present in t_presents:
                _check_event(x_present, t_present)
                counts[classify(x_past, x_present, t_present - t_past)] += 1

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
