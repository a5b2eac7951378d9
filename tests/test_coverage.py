"""Past/present verdicts, the connection solver, and the set-relation scans."""

import math

import pytest

from trdwell.coverage import (
    BOTH_ALLOW,
    COPENHAGEN_ONLY,
    NEITHER_ALLOW,
    RELATION_UNION_EXCEEDS_COPENHAGEN,
    RELATION_UNION_EXCEEDS_TR,
    RELATION_UNION_IS_TR,
    SCENARIO_SB,
    SCENARIO_SW_BOUND,
    SCENARIO_SW_EXCITED,
    TR_ONLY,
    _PERIOD_MARGIN,
    ConnectionSolution,
    Event,
    GridSpec,
    connect,
    sb_verdict,
    set_relation_report,
    slice_period_max,
    slice_period_roots,
    sw_verdict,
)
from trdwell.errors import DomainError, Infeasible
from trdwell.microstate import is_monochromatic
from trdwell.potential import Units, kinematics_from_energies, square_well
from trdwell.times import dwell_supremum_bound, libration_period, libration_period_monochromatic
from trdwell.wavefield import barrier_scattering, well_eigenstate


@pytest.fixture
def ground(well, units):
    return well_eigenstate(well, units, 0)


@pytest.fixture
def excited(well, units):
    return well_eigenstate(well, units, 1)


class TestEvent:
    def test_fields(self):
        e = Event(1.0, 2.0)
        assert (e.x, e.t) == (1.0, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(DomainError):
            Event(bad, 0.0)
        with pytest.raises(DomainError):
            Event(0.0, bad)


class TestStepVerdicts:
    def test_short_waits_are_shared(self, kin):
        v = sb_verdict(Event(0.2, 0.0), Event(1.0, 3.0), kin)
        assert v.tr_allowed and v.copenhagen_allowed
        assert v.classification == BOTH_ALLOW

    def test_long_waits_belong_to_the_density_view_alone(self, kin):
        bound = dwell_supremum_bound(kin)
        v = sb_verdict(Event(0.2, 0.0), Event(1.0, bound * 1.5), kin)
        assert not v.tr_allowed and v.copenhagen_allowed
        assert v.classification == COPENHAGEN_ONLY

    def test_threshold_is_the_dwell_ceiling(self, kin):
        bound = dwell_supremum_bound(kin)
        just_under = sb_verdict(Event(0.0, 0.0), Event(0.5, bound * (1.0 - 1e-9)), kin)
        just_over = sb_verdict(Event(0.0, 0.0), Event(0.5, bound * (1.0 + 1e-9)), kin)
        assert just_under.classification == BOTH_ALLOW
        assert just_over.classification == COPENHAGEN_ONLY

    def test_density_support_survives_extreme_depth(self, kin):
        # the exponential tail underflows any float but never vanishes
        v = sb_verdict(Event(0.0, 0.0), Event(50_000.0, 1.0), kin)
        assert v.copenhagen_allowed
        assert v.classification in (BOTH_ALLOW, COPENHAGEN_ONLY)

    @pytest.mark.parametrize("hbar", [1e-200, 1e-160, 1.0, 1e-5])
    def test_density_view_admits_where_the_squares_overflow(self, hbar):
        # k^2 and kappa^2 overflow at hbar = 1e-200 and 1e-160; the density at depth 0.5 hbar
        # (kappa x = 0.67) is positive at every hbar
        kin = kinematics_from_energies(0.137, 1.0, Units(hbar=hbar))
        assert sb_verdict(Event(0.0, 0.0), Event(0.5 * hbar, 1.0), kin).copenhagen_allowed

    def test_events_restricted_to_the_barrier_side(self, kin):
        with pytest.raises(DomainError):
            sb_verdict(Event(-0.1, 0.0), Event(1.0, 1.0), kin)
        with pytest.raises(DomainError):
            sb_verdict(Event(0.1, 0.0), Event(-1.0, 1.0), kin)

    def test_present_must_follow_past(self, kin):
        with pytest.raises(DomainError):
            sb_verdict(Event(0.1, 5.0), Event(1.0, 5.0), kin)
        with pytest.raises(DomainError):
            sb_verdict(Event(0.1, 5.0), Event(1.0, 4.0), kin)


class TestPeriodSlice:
    def test_ceiling_value(self, kin):
        assert slice_period_max(kin, 1.0) == pytest.approx(15.625, rel=1e-12)

    def test_roots_bracket_the_peak(self, kin):
        lo, hi = slice_period_roots(kin, 1.0, 10.0)
        assert lo == pytest.approx(0.4825522739751212, rel=1e-12)
        assert hi == pytest.approx(3.684114392691546, rel=1e-12)
        assert lo < kin.r < hi
        # both roots genuinely realize the requested period
        from trdwell.microstate import normalize

        for a in (lo, hi):
            ms = normalize(a, 1.0 / a, 0.0)
            assert libration_period(kin, 1.0, ms) == pytest.approx(10.0, rel=1e-12)

    def test_monochromatic_period_returns_the_unit_root(self, kin):
        target = libration_period_monochromatic(kin, 1.0)
        lo, hi = slice_period_roots(kin, 1.0, target)
        assert lo == pytest.approx(1.0, rel=1e-12)
        assert hi == pytest.approx(kin.r * kin.r, rel=1e-12)

    def test_tiny_periods_stay_stable(self, kin):
        # the rationalized small root avoids the cancellation of 1 - sqrt(1 - eps)
        lo, hi = slice_period_roots(kin, 1.0, 1e-8)
        assert lo > 0.0
        from trdwell.microstate import normalize

        ms = normalize(lo, 1.0 / lo, 0.0)
        assert libration_period(kin, 1.0, ms) == pytest.approx(1e-8, rel=1e-9)

    def test_infeasible_above_the_ceiling(self, kin):
        with pytest.raises(Infeasible):
            slice_period_roots(kin, 1.0, 15.626)


class TestConnect:
    def test_canonical_connection(self, ground):
        past, present = Event(-1.0, 0.0), Event(0.5, 40.0)
        sol = connect(past, present, ground)
        assert isinstance(sol, ConnectionSolution)
        assert sol.whole_periods >= 1
        assert abs(sol.arrival_time - 40.0) <= 1e-6
        q = ground.potential.q
        kin = ground.kinematics
        assert sol.realized_period == pytest.approx(
            libration_period(kin, q, sol.ms), rel=1e-9
        )
        assert 0.0 <= sol.phase_offset < sol.realized_period

    def test_short_elapsed_still_connects_via_fast_members(self, ground):
        sol = connect(Event(-1.5, 0.0), Event(1.5, 0.001), ground)
        assert abs(sol.arrival_time - 0.001) <= 1e-9
        assert sol.realized_period < 0.001

    def test_period_matching_monochromatic_recovers_it(self, ground):
        q = ground.potential.q
        kin = ground.kinematics
        mono_period = libration_period_monochromatic(kin, q)
        # ask for exactly one whole monochromatic period, same place and phase
        sol = connect(Event(0.3, 0.0), Event(0.3, mono_period), ground)
        assert is_monochromatic(sol.ms, tol=1e-9)

    def test_events_must_sit_inside_the_well(self, ground):
        q = ground.potential.q
        with pytest.raises(DomainError):
            connect(Event(q + 0.1, 0.0), Event(0.0, 10.0), ground)
        with pytest.raises(DomainError):
            connect(Event(0.0, 0.0), Event(-q - 0.1, 10.0), ground)

    def test_zero_elapsed_is_infeasible(self, ground):
        with pytest.raises(Infeasible):
            connect(Event(0.0, 1.0), Event(0.5, 1.0), ground)

    def test_scattering_state_is_rejected(self, kin):
        state = barrier_scattering(kin)
        with pytest.raises(DomainError):
            connect(Event(0.0, 0.0), Event(0.5, 1.0), state)

    def test_random_pairs_all_connect(self, ground, excited):
        import random

        rng = random.Random(20260822)
        for state in (ground, excited):
            q = state.potential.q
            kin = state.kinematics
            for _ in range(25):
                x0 = rng.uniform(-q, q)
                x1 = rng.uniform(-q, q)
                dt = rng.uniform(0.05, 500.0)
                sol = connect(Event(x0, 0.0), Event(x1, dt), state)
                assert abs(sol.arrival_time - dt) <= 1e-6
                assert sol.realized_period == pytest.approx(
                    libration_period(kin, q, sol.ms), rel=1e-9
                )
                assert 0.0 <= sol.phase_offset < sol.realized_period


class TestWellVerdicts:
    def test_generic_present_is_shared(self, ground):
        v = sw_verdict(Event(-1.0, 0.0), Event(0.5, 40.0), ground)
        assert v.classification == BOTH_ALLOW
        assert v.witness is not None

    def test_node_presents_belong_to_the_trajectory_view_alone(self, excited):
        v = sw_verdict(Event(-1.0, 0.0), Event(0.0, 40.0), excited)
        assert v.tr_allowed and not v.copenhagen_allowed
        assert v.classification == TR_ONLY
        assert v.witness is not None

    def test_near_node_presents_are_shared_again(self, excited):
        # nodes are isolated: a hair to either side the density is back
        for x in (-1e-4, 1e-4):
            v = sw_verdict(Event(-1.0, 0.0), Event(x, 40.0), excited)
            assert v.classification == BOTH_ALLOW

    @pytest.mark.parametrize("index", [0, 1])
    def test_deep_well_states_keep_support_up_to_their_walls(self, index):
        # kappa/k ~ 1e15: k x near the walls meets the next node phase, pi/2 (ground
        # state, cos) or pi (state 1, sin), to within k's accuracy, but that zero
        # lies past the wall; the ground state's density is 2e-27 at the wall
        deep = well_eigenstate(square_well(1e30, 1.0), Units(), index)
        for x in (-1.0, 1.0, -(1.0 - 1e-13), 1.0 - 1e-13):
            assert sw_verdict(Event(0.0, 0.0), Event(x, 1.0), deep).classification == BOTH_ALLOW

    def test_presents_whose_node_phase_the_ladder_cannot_resolve_are_refused(self):
        # k x/pi = 3.6e11 at x = 9e11: k's 2^-40 accuracy spans more than half a turn
        # there, so an antinode, where the density peaks, would pass for a node
        deep = well_eigenstate(square_well(1.0, 1e12), Units(), 800_000_000_000)
        assert sw_verdict(Event(0.0, 0.0), Event(3e11, 1e14), deep).classification == BOTH_ALLOW
        with pytest.raises(DomainError, match="cannot tell a node from an antinode"):
            sw_verdict(Event(0.0, 0.0), Event(9e11, 1e14), deep)


class TestGridSpec:
    def test_rejects_empty_axes(self):
        with pytest.raises(DomainError):
            GridSpec((), (0.5,), (1.0,))
        with pytest.raises(DomainError):
            GridSpec((0.0,), (0.5,), ())

    def test_rejects_nonpositive_offsets(self):
        with pytest.raises(DomainError):
            GridSpec((0.0,), (0.5,), (0.0,))
        with pytest.raises(DomainError):
            GridSpec((0.0,), (0.5,), (-1.0,))

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(DomainError):
            GridSpec((math.nan,), (0.5,), (1.0,))


class TestRelationReports:
    def test_step_report(self, kin):
        # offsets straddle the dwell ceiling (10.478...): two under, two over
        grid = GridSpec(
            past_positions=(0.0,),
            present_positions=(0.3, 1.2),
            time_offsets=(2.0, 8.0, 11.0, 14.0),
        )
        report = set_relation_report(SCENARIO_SB, grid, kin=kin)
        assert report.relation == RELATION_UNION_EXCEEDS_TR
        assert report.counts == {
            BOTH_ALLOW: 4,
            COPENHAGEN_ONLY: 4,
            TR_ONLY: 0,
            NEITHER_ALLOW: 0,
        }
        assert report.total == 8
        assert report.scenario == SCENARIO_SB
        assert len(report.notes) >= 1

    def test_ground_state_report(self, ground):
        grid = GridSpec(
            past_positions=(-1.0,),
            present_positions=(-0.5, 0.3, 1.2),
            time_offsets=(10.0, 25.0, 40.0, 55.0),
        )
        report = set_relation_report(SCENARIO_SW_BOUND, grid, state=ground)
        assert report.relation == RELATION_UNION_IS_TR
        assert report.counts[BOTH_ALLOW] == 12
        assert report.counts[COPENHAGEN_ONLY] == 0
        assert report.counts[TR_ONLY] == 0
        assert report.total == 12

    def test_excited_state_report(self, excited):
        grid = GridSpec(
            past_positions=(-1.0,),
            present_positions=(-0.5, 0.0, 1.0),
            time_offsets=(10.0, 25.0, 40.0, 55.0),
        )
        report = set_relation_report(SCENARIO_SW_EXCITED, grid, state=excited)
        assert report.relation == RELATION_UNION_EXCEEDS_COPENHAGEN
        assert report.counts[TR_ONLY] == 4  # exactly the x = 0 column
        assert report.counts[BOTH_ALLOW] == 8
        assert report.counts[COPENHAGEN_ONLY] == 0

    def test_relation_strings_name_the_sets(self, kin):
        grid = GridSpec((0.0,), (0.5,), (1.0,))
        report = set_relation_report(SCENARIO_SB, grid, kin=kin)
        assert report.relation == RELATION_UNION_IS_TR  # single short wait: shared
        assert "{TR}" in report.relation

    def test_scenario_validation(self, kin, ground, excited):
        grid = GridSpec((0.0,), (0.5,), (1.0,))
        with pytest.raises(DomainError):
            set_relation_report("SB", grid)  # missing kinematics
        with pytest.raises(DomainError):
            set_relation_report("SW-bound", grid, state=excited)  # not the ground state
        with pytest.raises(DomainError):
            set_relation_report("SW-excited", grid, state=ground)  # not excited
        with pytest.raises(DomainError):
            set_relation_report("SW-bound", grid)  # missing state
        with pytest.raises(DomainError):
            set_relation_report("garden", grid, kin=kin)


def test_the_period_count_steps_past_a_quotient_that_rounds_low():
    # elapsed = 33 slice ceilings: elapsed/ceiling rounds to 33, but elapsed/33 rounds above the ceiling,
    # so the count takes one more period
    state = well_eigenstate(square_well(1.0, 2.0), Units(), 1)
    ceiling = slice_period_max(state.kinematics, 2.0) * (1.0 - _PERIOD_MARGIN)
    elapsed = 384.49262465967075
    assert math.ceil(elapsed / ceiling) == 33 and elapsed / 33 > ceiling
    sol = connect(Event(0.0, 0.0), Event(0.0, elapsed), state)
    assert sol.whole_periods == 34 and elapsed / 34 <= ceiling
    assert sol.arrival_time == pytest.approx(elapsed, rel=1e-12)


@pytest.mark.parametrize("past_time", [math.nan, math.inf, -math.inf])
def test_grid_past_time_must_be_finite(past_time):
    with pytest.raises(DomainError, match="past_time must be finite"):
        GridSpec((0.0,), (0.5,), (1.0,), past_time)
