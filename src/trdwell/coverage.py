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
(:class:`_SliceKernel`).  Its ``split`` maps a pair to its whole periods, phase
advance and slice coefficient a, from which :func:`connect` builds its witness.
:func:`set_relation_report` judges each present's support and settles each time
offset once: the kernel's certificate proves that no split at an offset can
fail, so only an offset it cannot settle runs the split per pair.  Density
support is judged from the closed-form node phase, never from a float density.
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
        self._set(x, t)


class CoverageVerdict(_Record):
    """Admissibility of one past/present pair under the two views."""

    __slots__ = ("tr_allowed", "copenhagen_allowed", "classification", "witness")

    def __init__(
        self, tr_allowed: bool, copenhagen_allowed: bool, classification: str, witness: Microstate | None = None
    ):
        self._set(tr_allowed, copenhagen_allowed, classification, witness)


def _classify(tr_allowed: bool, copenhagen_allowed: bool) -> str:
    return (NEITHER_ALLOW, TR_ONLY, COPENHAGEN_ONLY, BOTH_ALLOW)[tr_allowed + 2 * copenhagen_allowed]


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
    return CoverageVerdict(classification == BOTH_ALLOW, True, classification)


class ConnectionSolution(_Record):
    """A microstate whose libration carries a well trajectory between two events."""

    __slots__ = ("ms", "whole_periods", "phase_offset", "realized_period", "arrival_time")

    def __init__(
        self, ms: Microstate, whole_periods: int, phase_offset: float, realized_period: float, arrival_time: float
    ):
        self._set(ms, whole_periods, phase_offset, realized_period, arrival_time)


class _SliceKernel:
    """The constants of one state on the c = 0, b = 1/a slice, the per-pair split and its certificate.

    On that slice the libration period collapses to prefactor * a/(a^2 + r^2),
    which peaks at a = r with the value prefactor/(2r).  The peak and ceiling
    are computed on first need, after a pair's own checks, so a peak that is no
    double fails a scan on the same pair, with the same error, as :func:`connect`.
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

        With prefactor = 2 r peak, period = prefactor * a/(a^2 + r^2) gives a = r (1 +/- sqrt(1 - h^2))/h with
        h = period/peak <= 1; the smaller root takes the cancellation-free rationalized form h r/(1 + sqrt(...)), so
        neither the prefactor nor r^2 is formed.  Raises :class:`Infeasible` above the slice peak, and
        :class:`DomainError` where the period is not a normal double or h underflows to 0.
        """
        check_positive("period", period)
        if period > self.check().peak:
            raise Infeasible(f"period {period!r} exceeds the slice ceiling {self.peak!r}")
        half = period / self.peak / 2.0  # tau r for tau = period/prefactor
        if period < _NORMAL or half == 0.0:
            raise DomainError(f"period {period!r} underflows against the slice peak {self.peak!r}")
        root = math.sqrt(max((1.0 - 2.0 * half) * (1.0 + 2.0 * half), 0.0))
        return 2.0 * half * self.r / (1.0 + root), (1.0 + root) * self.r / (2.0 * half)

    def inside(self, x_past: float, x_present: float) -> None:
        """Raise the split's :class:`DomainError` for the first of the two positions outside the well."""
        for name, x in (("past", x_past), ("present", x_present)):
            if abs(x) > self.q:
                raise DomainError(f"{name} event must lie inside the well (|x| <= {self.q!r}), got {x!r}")

    def periods(self, elapsed: float) -> float:
        """elapsed/ceiling; raises where the elapsed time is not positive and finite, or the peak or P is no double."""
        if elapsed <= 0.0 or not math.isfinite(elapsed):
            raise Infeasible(f"present must come strictly after past, got elapsed={elapsed!r}")
        ceiling = self.check().ceiling
        periods = elapsed / ceiling if ceiling > 0.0 else math.inf
        if periods == math.inf:
            raise DomainError(
                f"elapsed time {elapsed!r} spans more slice periods (ceiling {ceiling!r}) than a double counts"
            )
        return periods

    def settles(self, elapsed: float) -> bool:
        """Whether :meth:`split` returns at ``elapsed`` for every phase advance in [0, 1], 1.0 included.

        Raises as :meth:`periods` does.  With P = elapsed/ceiling, the split's n + phase advance stays below
        max(2, P/(1 - 2^-53)^2 + 1); the margins P < 2^50 (a quarter of 2^52) and P + 2 for that bound cover
        every rounding of P, the ceil and the loop's test, so n stays far below 2^52 and each period lies in
        [elapsed/(P + 2), ceiling].  The least period, half = period/peak/2 and a = 2 half r/(1 + root), root in
        [0, 1] so a in [half r, r], are evaluated by the split's own operations at that count and at 1 + root = 2:
        correctly rounded operations are monotone, so these bounds need no pad.  Where that period is normal
        and a and 1/a are positive doubles no split raises; 2q < inf keeps the phase advance finite.
        """
        periods = self.periods(elapsed)
        period = elapsed / (periods + 2.0)
        a = 2.0 * (period / self.peak / 2.0) * self.r / 2.0
        return (
            periods < _PHASE_CARRY / 4 and period >= _NORMAL
            and 0.0 < a < math.inf and 1.0 / a < math.inf and 2.0 * self.q < math.inf
        )

    def split(self, x_past: float, x_present: float, elapsed: float) -> tuple[int, float, float]:
        """(whole periods n, phase advance, slice coefficient a) of one pair.

        The elapsed time is split as (n + phase_advance) * period, n the least count >= 1 that keeps the
        period at or below the ceiling, and a is that period's smaller root.  Raises, in this order, as
        :meth:`inside`, as :meth:`periods`, at a count of ``_PHASE_CARRY`` or more, and where a and 1/a are
        not both positive doubles.  Where it returns, the witness (a, 1/a, 0) normalizes and has a finite period.
        """
        self.inside(x_past, x_present)
        periods, ceiling = self.periods(elapsed), self.ceiling
        phase_advance = (self.fraction(x_present) - self.fraction(x_past)) % 1.0
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
    """Both a-values on the c = 0, b = 1/a slice whose period equals ``period``, smaller first.

    Raises as :meth:`_SliceKernel.roots`: :class:`Infeasible` above the slice
    peak, :class:`DomainError` where the period underflows against it.
    """
    return _SliceKernel(kin, q).roots(period)


def connect(past: Event, present: Event, state: CopenhagenState) -> ConnectionSolution:
    """A microstate whose libration visits both events, with its phase data.

    Phases are assigned by the canonical passage map, and the elapsed time is
    split by :meth:`_SliceKernel.split`: whole_periods is the least count >= 1
    that keeps the target period at or below the slice ceiling, realized on the
    c = 0, b = 1/a slice by the smaller quadratic root (the monochromatic member
    where the period matches it).  So every interior pair with positive elapsed
    time whose period and slice coefficients are doubles connects.
    """
    kernel = _well_kernel(state)
    n, phase_advance, a = kernel.split(past.x, present.x, present.t - past.t)
    ms = normalize(a, 1.0 / a, 0.0)
    realized = libration_period(kernel.kin, kernel.q, ms)
    phase_offset, arrival_time = kernel.fraction(past.x) * realized, past.t + (n + phase_advance) * realized
    return ConnectionSolution(ms, n, phase_offset, realized, arrival_time)


def _density_support(state: CopenhagenState):
    """Whether the density of well eigenstate ``state`` has support at x, as a function of x."""
    from .potential import _ANGLE_RTOL  # the ladder's accuracy; only the well scenarios load it

    # The one place the density view decides support inside the well: |psi|^2 vanishes only at the node phases
    # of _node_phases, k x/pi = j + offset with |j + offset| <= top.  The ladder's k is within _ANGLE_RTOL of its
    # root, so a node phase is met to within that share of k x/pi, and 2^-51 more covers the roundings of k x, of
    # pi and of the division (1.5 ulp).  A band of half a turn would take in the antinodes too: no verdict is left.
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

    The trajectory view always admits the pair — :func:`connect` produces an explicit witness microstate — while
    the density view requires support at the present, which excludes exactly the n closed-form nodes of state n,
    k x = j pi (odd) or (j + 1/2) pi (even) with |k x/pi| <= (n - 1)/2, to within the ladder's relative accuracy
    in k: a rule free of units.  Raises :class:`DomainError` where that accuracy cannot tell a node from an antinode.
    """
    witness = connect(past, present, state).ms
    copenhagen_allowed = _density_support(state)(present.x)
    return CoverageVerdict(True, copenhagen_allowed, _classify(True, copenhagen_allowed), witness)


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
        self._set(past_positions, present_positions, time_offsets, past_time)


class RelationReport(_Record):
    """Counts and the set relation sustained by a verdict scan; ``counts`` is left out of equality."""

    __slots__ = ("scenario", "relation", "counts", "total", "notes")
    _uncompared = ("counts",)

    def __init__(
        self, scenario: str, relation: str, counts: dict[str, int], total: int = 0, notes: tuple[str, ...] = ()
    ):
        self._set(scenario, relation, counts, total, notes)


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
    "or (j + 1/2) pi (even states) with |k x/pi| <= (n - 1)/2, to within the ladder's relative accuracy in k"
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


def _sw_counts(state: CopenhagenState, grid: GridSpec, counts: dict[str, int]) -> None:
    """Add the classes of the well pairs of ``grid`` to ``counts``, each step once at its own level.

    A present's support is judged, and an offset's epoch, elapsed time and certificate (:meth:`_SliceKernel.settles`)
    worked out, at the first pair that reaches it; only the pairs of an offset left open run the split.  Positions
    are checked per (past, present) block, or per past once no offset is open.  Each error is raised on the pair,
    and in the order, of :func:`sw_verdict` run on every pair in grid order.
    """
    kernel, supported = _well_kernel(state), _density_support(state)
    t_past, presents, pasts = grid.past_time, grid.present_positions, iter(grid.past_positions)
    epochs = [t_past + dt for dt in grid.time_offsets]
    opened, labels, visit = [], [], len(epochs)  # opened[j]: offset j's elapsed time if its pairs split, else None
    for x_past in pasts:
        for i, x_present in enumerate(presents):
            _check_event(x_present, epochs[0])
            kernel.inside(x_past, x_present)
            for j in range(visit):
                if j == len(opened):  # the first pair at this offset
                    _check_event(x_present, epochs[j])
                    elapsed = epochs[j] - t_past
                    opened.append(None if kernel.settles(elapsed) else elapsed)
                if opened[j] is not None:
                    kernel.split(x_past, x_present, opened[j])
                if i == len(labels):
                    labels.append(_classify(True, supported(x_present)))
            if visit > 1 and not any(opened):  # no offset splits: a block needs its first pair only
                visit = 1
        if not any(opened):
            break
    for x_past in pasts:  # every present is checked and labelled, and no offset splits
        kernel.inside(x_past, presents[0])
    for label in labels:
        counts[label] += len(grid.past_positions) * len(epochs)


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
    state's slice kernel once per report, judges each present's support once,
    and settles each time offset once (:func:`_sw_counts`): on ordinary grids
    no pair runs the split, and a report costs O(P + Q + T), not P Q T splits.
    """
    counts = {BOTH_ALLOW: 0, COPENHAGEN_ONLY: 0, TR_ONLY: 0, NEITHER_ALLOW: 0}
    if scenario == SCENARIO_SB:
        if kin is None:
            raise DomainError("the SB scenario requires kinematics")
        classify, t_past = _sb_classifier(kin), grid.past_time
        t_presents = [t_past + dt for dt in grid.time_offsets]
        for x_past in grid.past_positions:
            for x_present in grid.present_positions:
                for t_present in t_presents:
                    _check_event(x_present, t_present)
                    counts[classify(x_past, x_present, t_present - t_past)] += 1
    elif scenario in (SCENARIO_SW_BOUND, SCENARIO_SW_EXCITED):
        if state is None or state.kind != WELL_EIGENSTATE:
            raise DomainError(f"the {scenario} scenario requires a well eigenstate")
        if scenario == SCENARIO_SW_BOUND and state.index != 0:
            raise DomainError("the SW-bound scenario expects the ground state (index 0)")
        if scenario == SCENARIO_SW_EXCITED and (state.index is None or state.index < 1):
            raise DomainError("the SW-excited scenario expects an excited state (index >= 1)")
        _sw_counts(state, grid, counts)
    else:
        raise DomainError(f"unknown scenario {scenario!r}")
    relation = (RELATION_UNION_IS_TR, RELATION_UNION_EXCEEDS_TR, RELATION_UNION_EXCEEDS_COPENHAGEN, RELATION_MIXED)[
        (counts[COPENHAGEN_ONLY] > 0) + 2 * (counts[TR_ONLY] > 0)
    ]
    notes = (_EXISTENTIAL_NOTE, _SB_IDEALIZATION_NOTE if scenario == SCENARIO_SB else _SW_NODE_NOTE)
    return RelationReport(scenario, relation, counts, sum(counts.values()), notes)
