"""The relation scan and the well connection kernel against per-pair oracles.

``set_relation_report`` shares work across a grid: one slice kernel per well
state, one dwell bound per step report.  Its oracle is the plain scan, one
``sb_verdict``/``sw_verdict`` per pair in grid order.  Both must give the same
counts and relation, or fail on the same pair with the same exception.
``connect`` is checked bit for bit against the textbook form of the slice
connection.  Neither view's verdicts may depend on the choice of units.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trdwell.coverage import (
    BOTH_ALLOW,
    COPENHAGEN_ONLY,
    NEITHER_ALLOW,
    RELATION_MIXED,
    RELATION_UNION_EXCEEDS_COPENHAGEN,
    RELATION_UNION_EXCEEDS_TR,
    RELATION_UNION_IS_TR,
    SCENARIO_SB,
    SCENARIO_SW_BOUND,
    SCENARIO_SW_EXCITED,
    TR_ONLY,
    Event,
    GridSpec,
    _well_kernel,
    connect,
    sb_verdict,
    set_relation_report,
    slice_period_roots,
    sw_verdict,
)
from trdwell.errors import DomainError, TrdwellError
from trdwell.microstate import normalize
from trdwell.potential import Units, kinematics_from_energies, square_well
from trdwell.times import dwell_supremum_bound, libration_period, libration_prefactor
from trdwell.wavefield import find_nodes, well_eigenstate

#: (U, q, hbar, mass, index): ordinary ground and excited states, slice
#: ceilings of 5e-15 (elapsed/ceiling overflows), 0 (underflowed) and 5e300,
#: r = 9e99, and a libration prefactor beyond the double range.
WELL_STATES = [
    (1.0, 2.0, 1.0, 1.0, 0),
    (1.0, 2.0, 1.0, 1.0, 1),
    (10.0, 3.0, 1.0, 1.0, 4),
    (1e10, 1e-10, 1e-6, 1.0, 5),
    (1e200, 1e-100, 1e-150, 1e-300, 0),
    (1e-300, 1e100, 1.0, 1e-10, 0),
    (1.0, 1.0, 1e-100, 1.0, 0),
    (1.0, 1.0, 1.0, 1e300, 0),
]

#: (E, U, hbar): the test kinematics, r^2 overflowing in the bound, and a
#: dwell bound beyond the double range.
STEP_KINEMATICS = [(0.18, 0.5, 1.0), (1e-300, 1e10, 1.0), (1e-10, 1.0, 1e300)]

#: Elapsed-time extremes: subnormal, near the top of the double range, and
#: far more slice periods than an int of doubles resolves one by one.
SPECIAL_OFFSETS = [5e-324, 1e-310, 1e-300, 1e100, 1.6e308, 1.7e308, 1.7976931348623157e308]

#: 1e20 swallows every offset below 1e4 (elapsed 0); 1.7e308 + dt overflows to inf.
SPECIAL_PAST_TIMES = [0.0, -3.0, 1e20, 1.7e308, -1.7e308]


def _relation(counts: dict) -> str:
    beyond_tr, beyond_copenhagen = counts[COPENHAGEN_ONLY] > 0, counts[TR_ONLY] > 0
    return {
        (True, True): RELATION_MIXED,
        (True, False): RELATION_UNION_EXCEEDS_TR,
        (False, True): RELATION_UNION_EXCEEDS_COPENHAGEN,
        (False, False): RELATION_UNION_IS_TR,
    }[beyond_tr, beyond_copenhagen]


def reference_scan(scenario, grid, kin=None, state=None):
    """(counts, relation, total): one full verdict per pair, in grid order."""
    counts = {BOTH_ALLOW: 0, COPENHAGEN_ONLY: 0, TR_ONLY: 0, NEITHER_ALLOW: 0}
    for x_past in grid.past_positions:
        for x_present in grid.present_positions:
            for dt in grid.time_offsets:
                past = Event(x_past, grid.past_time)
                present = Event(x_present, grid.past_time + dt)
                if scenario == SCENARIO_SB:
                    verdict = sb_verdict(past, present, kin)
                else:
                    verdict = sw_verdict(past, present, state)
                counts[verdict.classification] += 1
    return counts, _relation(counts), sum(counts.values())


def _outcome(scan, *args, **kwargs):
    """The scan's (counts, relation, total), or the class and message of what it raised."""
    try:
        result = scan(*args, **kwargs)
    except Exception as exc:  # every class must agree, typed or not
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return result
    return result.counts, result.relation, result.total


def _state(U, q, hbar, mass, index):
    return well_eigenstate(square_well(U, q), Units(hbar=hbar, mass=mass), index)


_STATES = [_state(*spec) for spec in WELL_STATES]
_STEPS = [kinematics_from_energies(E, U, Units(hbar=hbar)) for E, U, hbar in STEP_KINEMATICS]

_offsets = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.sampled_from(SPECIAL_OFFSETS),
    st.floats(5e-324, 1.7976931348623157e308),
)
_past_times = st.one_of(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.sampled_from(SPECIAL_PAST_TIMES))


def _tuple(elements, max_size):
    return st.lists(elements, min_size=1, max_size=max_size).map(tuple)


@st.composite
def well_scans(draw):
    state = draw(st.sampled_from(_STATES))
    q = state.potential.q
    nodes = find_nodes(state, (-q, q))
    special = [-q, q, 0.0, -0.0, math.nextafter(q, math.inf), -2.0 * q, 1.5 * q, *nodes]
    inside = st.floats(-1.0, 1.0).map(lambda u: u * q)
    positions = st.one_of(inside, inside, inside, st.sampled_from(special))
    grid = GridSpec(
        draw(_tuple(positions, 2)), draw(_tuple(positions, 4)), draw(_tuple(_offsets, 3)), draw(_past_times)
    )
    scenario = SCENARIO_SW_BOUND if state.index == 0 else SCENARIO_SW_EXCITED
    return scenario, grid, state


@st.composite
def step_scans(draw):
    kin = draw(st.sampled_from(_STEPS))
    offsets = _offsets
    try:
        bound = dwell_supremum_bound(kin)
    except DomainError:
        pass
    else:  # offsets at and around the dwell ceiling
        ceiling = st.sampled_from([bound, math.nextafter(bound, 0.0), bound * (1 + 1e-9), bound * (1 - 1e-9)])
        offsets = st.one_of(offsets, ceiling, st.floats(0.5, 2.0).map(lambda u: u * bound))
    positions = st.one_of(st.floats(0.0, 5.0), st.sampled_from([0.0, -0.0, -1e-300, -1.0, 1e300]))
    grid = GridSpec(
        draw(_tuple(positions, 2)), draw(_tuple(positions, 3)), draw(_tuple(offsets, 4)), draw(_past_times)
    )
    return grid, kin


@given(well_scans())
@example((SCENARIO_SW_EXCITED, GridSpec((-1.0,), (-0.5, 0.0, 1.0), (10.0, 25.0, 40.0, 55.0)), _STATES[1]))
@example((SCENARIO_SW_BOUND, GridSpec((0.0,), (0.5,), (5e-324, 1.0)), _STATES[0]))  # 1 / tau = inf
@example((SCENARIO_SW_BOUND, GridSpec((0.0,), (0.5,), (1.0, 1e-310)), _STATES[0]))  # 1 / a = inf
@example((SCENARIO_SW_BOUND, GridSpec((0.0,), (0.5,), (1.0,), 1e20), _STATES[0]))  # elapsed 0
@example((SCENARIO_SW_BOUND, GridSpec((0.0,), (0.5,), (1.0, 1e308), 1.7e308), _STATES[0]))  # inf epoch
@example((SCENARIO_SW_BOUND, GridSpec((0.0,), (0.3,), (1e100, 1.7e308)), _STATES[0]))
@example((SCENARIO_SW_EXCITED, GridSpec((0.0,), (0.0,), (1.0, 1e300)), _STATES[3]))  # periods = inf
@example((SCENARIO_SW_BOUND, GridSpec((3.0, 0.0), (0.5,), (1.0,)), _STATES[7]))  # x before the prefactor
@settings(max_examples=200, deadline=None)
def test_well_report_matches_the_per_pair_scan(case):
    scenario, grid, state = case
    expected = _outcome(reference_scan, scenario, grid, state=state)
    assert _outcome(set_relation_report, scenario, grid, state=state) == expected
    assert not isinstance(expected[0], type) or issubclass(expected[0], TrdwellError)


@given(step_scans())
@example((GridSpec((0.0,), (0.3, 1.2), (2.0, 8.0, 11.0, 14.0)), _STEPS[0]))
@example((GridSpec((-1.0, 0.0), (0.5,), (1.0,)), _STEPS[2]))  # x before the bound overflow
@example((GridSpec((0.0,), (0.5,), (1.0, 1e308), 1.7e308), _STEPS[0]))
@settings(max_examples=150, deadline=None)
def test_step_report_matches_the_per_pair_scan(case):
    grid, kin = case
    expected = _outcome(reference_scan, SCENARIO_SB, grid, kin=kin)
    assert _outcome(set_relation_report, SCENARIO_SB, grid, kin=kin) == expected
    assert not isinstance(expected[0], type) or issubclass(expected[0], TrdwellError)


@pytest.mark.parametrize("spec", WELL_STATES)
def test_split_and_witness_fail_together_across_the_double_range(spec):
    # Where the kernel's split returns, the witness it skips in a scan builds and
    # arrives on time; where it raises, connect raises the same typed error.
    state = _state(*spec)
    kernel = _well_kernel(state)
    q = state.potential.q
    rng = random.Random(spec[-1])
    for exponent in range(-1074, 1024, 3):
        elapsed = math.ldexp(rng.uniform(1.0, 2.0), exponent)
        if math.isinf(elapsed):
            continue
        x_past, x_present = rng.uniform(-q, q), rng.uniform(-q, q)
        try:
            kernel.split(x_past, x_present, elapsed)
        except TrdwellError as exc:
            with pytest.raises(type(exc)) as raised:
                connect(Event(x_past, 0.0), Event(x_present, elapsed), state)
            assert str(raised.value) == str(exc)
            continue
        sol = connect(Event(x_past, 0.0), Event(x_present, elapsed), state)
        assert sol.arrival_time == pytest.approx(elapsed, rel=1e-9)


def _connect_textbook(past, present, state):
    """The slice connection written out once per pair, as the scan used to run it."""
    q = state.potential.q
    kin = state.kinematics
    crossing = 0.5 * q / (q + 1.0 / kin.kappa)
    s_past = crossing * (past.x + q) / (2.0 * q)
    s_present = crossing * (present.x + q) / (2.0 * q)
    phase_advance = (s_present - s_past) % 1.0
    elapsed = present.t - past.t
    X, Y = kin._fractions
    r = Y / X  # from the energies, as the times take it
    ceiling = libration_prefactor(kin, q) / (2.0 * r) * (1.0 - 1e-12)
    n = max(1, math.ceil(elapsed / ceiling - phase_advance))
    while elapsed / (n + phase_advance) > ceiling:
        n += 1
    half = elapsed / (n + phase_advance) / (libration_prefactor(kin, q) / (2.0 * r)) / 2.0
    a = 2.0 * half * r / (1.0 + math.sqrt(max((1.0 - 2.0 * half) * (1.0 + 2.0 * half), 0.0)))
    ms = normalize(a, 1.0 / a, 0.0)
    realized = libration_period(kin, q, ms)
    return ms, n, s_past * realized, realized, past.t + (n + phase_advance) * realized


def _bits(solution):
    ms, n, *times = solution
    return [ms.a.hex(), ms.b.hex(), ms.c.hex(), n, *(t.hex() for t in times)]


def test_connect_matches_the_textbook_witness_bit_for_bit_on_the_c09_pairs():
    # the draws of test_acceptance.py::test_c09_connection_solver_coverage
    pot, q = square_well(1.0, 2.0), 2.0
    for index in (0, 1):
        state = well_eigenstate(pot, Units(), index)
        rng = random.Random(900 + index)
        for _ in range(100):
            x0, x1 = rng.uniform(-q, q), rng.uniform(-q, q)
            t0 = rng.uniform(-5.0, 5.0)
            dt = 10.0 ** rng.uniform(-2.0, 3.0)
            past, present = Event(x0, t0), Event(x1, t0 + dt)
            sol = connect(past, present, state)
            got = (sol.ms, sol.whole_periods, sol.phase_offset, sol.realized_period, sol.arrival_time)
            assert _bits(got) == _bits(_connect_textbook(past, present, state))


def test_slice_roots_reject_a_period_that_underflows_the_prefactor(kin):
    # 5e-324/(2 * 15.6) is 0: the larger root r (1 + root)/(2 tau r) would divide by it
    with pytest.raises(DomainError, match="underflows against the slice peak"):
        slice_period_roots(kin, 1.0, 5e-324)


def _scaled_grid(grid: GridSpec, j: int) -> GridSpec:
    """``grid`` with lengths scaled by 2^j and times by 2^2j."""
    length, time = (lambda v: math.ldexp(v, j)), (lambda v: math.ldexp(v, 2 * j))
    return GridSpec(
        tuple(map(length, grid.past_positions)), tuple(map(length, grid.present_positions)),
        tuple(map(time, grid.time_offsets)), time(grid.past_time),
    )


def _well_verdicts(index: int, j: int):
    """Report and per-pair classifications of the golden well grid, lengths scaled by 2^j."""
    state = well_eigenstate(square_well(math.ldexp(1.0, -2 * j), math.ldexp(2.0, j)), Units(), index)
    grid = _scaled_grid(GridSpec((-1.0,), (-0.5, 0.0, 1.0), (10.0, 25.0, 40.0, 55.0)), j)
    report = set_relation_report(SCENARIO_SW_EXCITED if index else SCENARIO_SW_BOUND, grid, state=state)
    classes = [
        sw_verdict(Event(x_past, grid.past_time), Event(x_present, grid.past_time + dt), state).classification
        for x_past in grid.past_positions
        for x_present in grid.present_positions
        for dt in grid.time_offsets
    ]
    return report, report.counts, classes


@pytest.mark.parametrize("index", [0, 1])
def test_well_verdicts_do_not_depend_on_the_choice_of_units(index):
    # Lengths by 2^j, energies by 2^-2j and times by 2^2j, with hbar and m fixed,
    # is a change of units: k x and every verdict stay put.  |j| <= 70 reaches past
    # j = 63 and 65, where a density floor in units of 1/length would drop the
    # support of the excited state's off-node presents and of the ground state.
    expected = _well_verdicts(index, 0)
    for j in range(-70, 71):
        assert _well_verdicts(index, j) == expected, j


def test_step_report_and_dwell_bound_scale_with_the_units():
    # Energies 2^+-140 stay inside the ordinary box (2^+-200), where no operation
    # of the bound's closed form leaves the normal doubles, so each rounding
    # commutes with the power-of-two scaling and the bound scales exactly.
    grid = GridSpec((0.0,), (0.3, 1.2), (2.0, 8.0, 11.0, 14.0))
    bound = dwell_supremum_bound(_STEPS[0])
    expected = set_relation_report(SCENARIO_SB, grid, kin=_STEPS[0])
    for j in range(-70, 71):
        kin = kinematics_from_energies(math.ldexp(0.18, -2 * j), math.ldexp(0.5, -2 * j))
        assert dwell_supremum_bound(kin) == math.ldexp(bound, 2 * j), j
        report = set_relation_report(SCENARIO_SB, _scaled_grid(grid, j), kin=kin)
        assert (report, report.counts) == (expected, expected.counts), j
