"""Dwell times, libration periods, their bounds, and the extremal reports."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trdwell.errors import DomainError, OptimizationFailure
from trdwell.microstate import MONOCHROMATIC, Microstate, normalize
from trdwell.potential import Units, kinematics_from_energies
from trdwell.times import (
    SIGN_MINUS,
    SIGN_PLUS,
    ExtremalReport,
    dwell_supremum_bound,
    dwell_time,
    dwell_time_monochromatic,
    libration_alternative_bound,
    libration_infimum_probe,
    libration_period,
    libration_period_monochromatic,
    libration_prefactor,
    libration_supremum_bound,
    max_dwell,
    max_libration,
)
from zoom_search import (
    _LOG_A_HI,
    _LOG_A_LO,
    _log_a_window,
    dwell_values,
    libration_values,
    maximize_over_slices,
    on_slice,
)

_admissible = st.tuples(st.floats(0.05, 20.0), st.floats(-1.95, 1.95)).map(
    lambda t: normalize(t[0], (1.0 + t[1] * t[1] / 4.0) / t[0], t[1])
)

_sub_barrier = st.tuples(
    st.floats(1e-3, 1.0),  # E as a fraction of U
    st.floats(1e-2, 1e2),  # U
    st.floats(0.1, 10.0),  # hbar
    st.floats(0.1, 10.0),  # mass
).map(
    lambda t: kinematics_from_energies(
        t[0] * t[1] * (1.0 - 1e-9) + 1e-12 * t[1], t[1], Units(hbar=t[2], mass=t[3])
    )
)


class TestDwell:
    def test_monochromatic_canonical_value(self, kin):
        assert dwell_time_monochromatic(kin) == pytest.approx(25.0 / 6.0, rel=1e-14)

    @given(_sub_barrier)
    @settings(max_examples=200, deadline=None)
    def test_monochromatic_identity(self, kin):
        # 2m/(hbar kappa k) collapses to hbar/sqrt(E(U-E))
        value = dwell_time_monochromatic(kin)
        assert value == pytest.approx(
            kin.units.hbar / math.sqrt(kin.E * (kin.U - kin.E)), rel=1e-12
        )
        both = dwell_time(kin, MONOCHROMATIC, SIGN_PLUS)
        assert both.t_D == pytest.approx(value, rel=1e-12)
        assert dwell_time(kin, MONOCHROMATIC, SIGN_MINUS).t_D == pytest.approx(value, rel=1e-12)

    def test_branch_values_at_the_skewed_microstate(self, kin):
        ms = normalize(2.0, 1.0, 2.0)
        plus = dwell_time(kin, ms, SIGN_PLUS)
        minus = dwell_time(kin, ms, SIGN_MINUS)
        assert plus.t_D == pytest.approx(1.795977011494253, rel=1e-12)
        assert minus.t_D == pytest.approx(10.416666666666668, rel=1e-12)
        assert plus.sign == SIGN_PLUS and minus.sign == SIGN_MINUS
        assert plus.ms == ms and plus.kin == kin

    def test_sign_argument_validated(self, kin):
        with pytest.raises(DomainError):
            dwell_time(kin, MONOCHROMATIC, "up")

    @given(_admissible, st.sampled_from([SIGN_PLUS, SIGN_MINUS]))
    @settings(max_examples=300, deadline=None)
    def test_positive_and_below_the_bound(self, ms, sign):
        kin = kinematics_from_energies(0.18, 0.5)
        value = dwell_time(kin, ms, sign).t_D
        assert value > 0.0
        assert value <= dwell_supremum_bound(kin) * (1.0 + 1e-12)

    @given(_admissible, st.sampled_from([SIGN_PLUS, SIGN_MINUS]))
    @settings(max_examples=300, deadline=None)
    def test_denominator_never_vanishes(self, ms, sign):
        # a +/- c r + b r^2 > 0 whenever ab - c^2/4 = 1: the form is definite
        kin = kinematics_from_energies(0.18, 0.5)
        r = kin.r
        factor = 1.0 if sign == SIGN_PLUS else -1.0
        assert ms.a + factor * ms.c * r + ms.b * r * r > 0.0

    def test_bound_canonical_value(self, kin):
        assert dwell_supremum_bound(kin) == pytest.approx(10.478357475577667, rel=1e-12)

    @given(_sub_barrier)
    @settings(max_examples=100, deadline=None)
    def test_bound_formula(self, kin):
        expected = (
            (1.0 + kin.r**2)
            / (math.sqrt(2.0) - 1.0)
            * kin.units.mass
            / (kin.units.hbar * kin.kappa**2)
        )
        assert dwell_supremum_bound(kin) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "call, error, message",
    [
        # normalized to within the Microstate tolerance, but so close to degenerate along (X, Y)
        # that a X^2 - c X Y + b Y^2 rounds to 0
        (
            lambda: dwell_time(
                kinematics_from_energies(0.7163702333879106, 1.0),
                Microstate(83719878383.44135, 211453224861.19138, 266104026795.27728),
                SIGN_MINUS,
            ),
            DomainError, "dwell denominator 0.0 is not positive",
        ),
        (
            lambda: libration_period(
                kinematics_from_energies(0.5, 1.0),
                1.0,
                Microstate(2713493741.373521, 2713493741.373521, 5426987482.747041),
            ),
            DomainError, "libration denominator 0.0 is not positive",
        ),
        (
            lambda: ExtremalReport(MONOCHROMATIC, 0.0, 1.0, 1e-6, True, 0.0),
            OptimizationFailure, "non-positive supremum",
        ),
        (
            lambda: ExtremalReport(MONOCHROMATIC, 1.0 + 2e-9, 1.0, 1e-6, True, 1.0),
            OptimizationFailure, "exceeds the analytic bound 1.0",
        ),
    ],
    ids=["dwell-denominator", "libration-denominator", "non-positive-supremum", "supremum-above-its-bound"],
)
def test_each_refusal_of_the_times_layer(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestMaxDwell:
    def test_canonical_report(self, kin):
        report = max_dwell(kin, epsilon=1e-6)
        top = report.maximizer
        # the optimizer pins |c| against its admissibility edge ...
        assert top.c == pytest.approx(2.0 - 1e-6, abs=1e-12)
        assert report.attained_at_boundary
        assert report.sign == SIGN_MINUS
        # ... and the inner maximization lands on a* -> sqrt(2) * r
        assert top.a == pytest.approx(math.sqrt(2.0) * 4.0 / 3.0, rel=1e-4)
        assert report.epsilon == 1e-6
        bound = dwell_supremum_bound(kin)
        assert report.analytic_bound == pytest.approx(bound, rel=1e-14)
        assert report.supremum <= bound
        assert abs(report.supremum - bound) / bound <= 1e-6
        # halving the inset and extrapolating squeezes the gap by orders
        assert abs(report.supremum_extrapolated - bound) / bound <= 1e-10

    def test_supremum_value_frozen(self, kin):
        report = max_dwell(kin, epsilon=1e-6)
        assert report.supremum == pytest.approx(10.478353770919052, rel=1e-12)

    @pytest.mark.parametrize("pair", [(0.1, 0.7), (0.31, 0.9), (0.05, 0.06)])
    def test_respects_the_bound_for_other_barriers(self, pair):
        kin = kinematics_from_energies(*pair)
        report = max_dwell(kin, epsilon=1e-5)
        assert report.supremum <= report.analytic_bound
        assert abs(report.supremum - report.analytic_bound) / report.analytic_bound <= 1e-4

    def test_epsilon_validated(self, kin):
        with pytest.raises(DomainError):
            max_dwell(kin, epsilon=0.0)
        with pytest.raises(DomainError):
            max_dwell(kin, epsilon=2.5)


class TestLibration:
    def test_monochromatic_canonical_value(self, kin):
        assert libration_period_monochromatic(kin, 1.0) == pytest.approx(15.0, rel=1e-14)

    @given(_sub_barrier, st.floats(0.05, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_monochromatic_identity_and_decomposition(self, kin, q):
        value = libration_period_monochromatic(kin, q)
        hbar, m = kin.units.hbar, kin.units.mass
        assert value == pytest.approx(
            4.0 * m * (q + 1.0 / kin.kappa) / (hbar * kin.k), rel=1e-12
        )
        # the round trip splits into a free crossing leg and two wall dwells
        crossing = 4.0 * m * q / (hbar * kin.k)
        assert value == pytest.approx(crossing + 2.0 * dwell_time_monochromatic(kin), rel=1e-12)
        assert libration_period(kin, q, MONOCHROMATIC) == pytest.approx(value, rel=1e-12)

    def test_canonical_decomposition_values(self, kin):
        crossing = 4.0 * 1.0 / (1.0 * kin.k)
        assert crossing == pytest.approx(20.0 / 3.0, rel=1e-14)
        assert 2.0 * dwell_time_monochromatic(kin) == pytest.approx(25.0 / 3.0, rel=1e-14)
        assert libration_period_monochromatic(kin, 1.0) == pytest.approx(
            crossing + 2.0 * dwell_time_monochromatic(kin), rel=1e-14
        )

    @given(_admissible, st.floats(0.05, 20.0))
    @settings(max_examples=300, deadline=None)
    def test_positive_and_below_the_bound(self, ms, q):
        kin = kinematics_from_energies(0.18, 0.5)
        value = libration_period(kin, q, ms)
        assert value > 0.0
        assert value <= libration_supremum_bound(kin, q) * (1.0 + 1e-12)

    @given(_admissible)
    @settings(max_examples=300, deadline=None)
    def test_denominator_inequality(self, ms):
        # (a + b r^2)^2 - c^2 r^2 >= 4 r^2 on the normalized surface
        r = 4.0 / 3.0
        lhs = (ms.a + ms.b * r * r) ** 2 - ms.c * ms.c * r * r
        assert lhs >= 4.0 * r * r * (1.0 - 1e-9)

    def test_bound_canonical_value(self, kin):
        assert libration_supremum_bound(kin, 1.0) == pytest.approx(
            22.097086912079615, rel=1e-12
        )

    def test_half_width_validated(self, kin):
        with pytest.raises(DomainError):
            libration_period(kin, -1.0, MONOCHROMATIC)
        with pytest.raises(DomainError):
            libration_period_monochromatic(kin, 0.0)


class TestAlternativeBound:
    def test_fails_at_equal_wavenumbers(self):
        # at r = 1 the circulated variant collapses to zero yet the
        # monochromatic member already takes 8 time units
        kin = kinematics_from_energies(0.5, 1.0)
        assert kin.r == pytest.approx(1.0, rel=1e-14)
        assert libration_alternative_bound(kin, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert libration_period_monochromatic(kin, 1.0) == pytest.approx(8.0, rel=1e-12)

    def test_negative_above_equal_wavenumbers(self, kin):
        assert libration_alternative_bound(kin, 1.0) == pytest.approx(
            -6.187184335382294, rel=1e-12
        )


class TestMaxLibration:
    def test_canonical_report(self, kin):
        report = max_libration(kin, 1.0, epsilon=1e-6)
        bound = libration_supremum_bound(kin, 1.0)
        assert report.analytic_bound == pytest.approx(bound, rel=1e-14)
        assert report.supremum <= bound
        assert abs(report.supremum - bound) / bound <= 1e-6
        assert abs(report.supremum_extrapolated - bound) / bound <= 1e-10
        assert report.attained_at_boundary
        assert report.maximizer.c == pytest.approx(2.0 - 1e-6, abs=1e-12)
        # the flagged variant is exposed and judged against the found supremum
        assert report.alternative_bound == pytest.approx(-6.187184335382294, rel=1e-12)
        assert report.alternative_bound_holds is False

    def test_alternative_flag_raised_even_at_equal_wavenumbers(self):
        kin = kinematics_from_energies(0.5, 1.0)
        report = max_libration(kin, 1.0, epsilon=1e-6)
        assert report.alternative_bound == pytest.approx(0.0, abs=1e-12)
        assert report.alternative_bound_holds is False
        assert report.supremum > 8.0  # the search beats the monochromatic member


def _oracle_maximum(E, U, hbar, mass, q, c):
    """40-digit (a*, t_D, t_L) on the slice at ``c`` at a* = r sqrt(1 + c^2/4)."""
    with mpmath.workdps(40):
        E, U, hbar, m, q = (mpmath.mpf(v) for v in (E, U, hbar, mass, q))
        k, kappa = mpmath.sqrt(2 * m * E) / hbar, mpmath.sqrt(2 * m * (U - E)) / hbar
        r = kappa / k
        c = mpmath.mpf(c)
        a = r * mpmath.sqrt(1 + c * c / 4)
        b = (1 + c * c / 4) / a
        gauge = mpmath.sqrt(a * b - c * c / 4)
        t_D = 2 * gauge * (1 + r * r) / (a - c * r + b * r * r) * m / (hbar * kappa * k)
        t_L = (
            4 * (1 + r * r) * m * (q + 1 / kappa) / (hbar * k)
            * gauge * (a + b * r * r) / (a * a + (2 * a * b - c * c) * r * r + b * b * r**4)
        )
        return a, t_D, t_L


class TestSearchOracles:
    @pytest.mark.parametrize(
        "E,U,hbar,mass,q",
        [
            (0.18, 0.5, 1.0, 1.0, 1.0),  # ordinary, r = 4/3
            (0.5e-9, 0.5, 1.0, 1.0, 1.0),  # E -> 0: r >> 1
            (0.5 - 0.5e-9, 0.5, 1.0, 1.0, 1.0),  # U - E = 1e-9 U: r << 1
            (0.3, 2.0, 0.37, 4.1, 1.0),  # hbar, m != 1
            (0.18, 0.5, 1.0, 1.0, 0.1),
            (0.18, 0.5, 1.0, 1.0, 10.0),
        ],
    )
    def test_suprema_match_the_40_digit_maximum(self, E, U, hbar, mass, q):
        kin = kinematics_from_energies(E, U, Units(hbar=hbar, mass=mass))
        a_star, t_D, t_L = (float(v) for v in _oracle_maximum(E, U, hbar, mass, q, 2.0 - 1e-6))
        dwell, libration = max_dwell(kin, 1e-6), max_libration(kin, q, 1e-6)
        for report, value in ((dwell, t_D), (libration, t_L)):
            assert report.maximizer.c == 2.0 - 1e-6
            assert abs(report.supremum - value) <= 1e-14 * value
            assert report.maximizer.a == pytest.approx(a_star, rel=1e-15)
        assert dwell.sign == SIGN_MINUS

    @given(_sub_barrier, st.floats(0.05, 20.0))
    @settings(max_examples=25, deadline=None)
    def test_suprema_approach_their_bounds_from_below(self, kin, q):
        for report in (max_dwell(kin, 1e-6), max_libration(kin, q, 1e-6)):
            assert report.supremum <= report.analytic_bound * (1.0 + 1e-9)
            assert report.supremum == pytest.approx(report.analytic_bound, rel=1e-5)

    @pytest.mark.parametrize("epsilon", [1e-6, 0.5, 1.5, 1.99])  # from 1.0 on, 2 - 2 epsilon <= 0
    @pytest.mark.parametrize(
        "quantity,E,U",
        [
            ("dwell", 0.18, 0.5),
            ("libration", 0.18, 0.5),
            ("dwell", 1e-300, 1e10),  # r = 1e155: r^2 overflows
            ("libration", 1e-150, 0.5),  # r = 7.1e74: r^4 overflows
        ],
    )
    def test_suprema_and_extrapolations_match_40_digits(self, quantity, E, U, epsilon):
        kin = kinematics_from_energies(E, U)
        insets = (2.0 - epsilon, abs(2.0 - 2.0 * epsilon))
        fine, coarse = (_oracle_maximum(E, U, 1.0, 1.0, 1.0, c) for c in insets)
        column = 1 if quantity == "dwell" else 2
        with mpmath.workdps(40):
            value, extrapolated = float(fine[column]), float(2 * fine[column] - coarse[column])
        report = max_dwell(kin, epsilon) if quantity == "dwell" else max_libration(kin, 1.0, epsilon)
        assert report.supremum == pytest.approx(value, rel=1e-14, abs=0.0)
        assert report.supremum_extrapolated == pytest.approx(extrapolated, rel=1e-14, abs=0.0)
        assert report.maximizer.a == pytest.approx(float(fine[0]), rel=1e-15)
        assert report.maximizer.c == 2.0 - epsilon


def _oracle_kinematics(count, seed):
    """``count`` seeded kinematics with r from 1e-4 to 1e14 (both ends included), U, hbar, m in [0.1, 10]."""
    rng = random.Random(seed)
    log_r = [-4.0, 14.0] + [rng.uniform(-4.0, 14.0) for _ in range(count - 2)]
    cases = []
    for x in log_r:
        U, hbar, mass = (math.exp(rng.uniform(math.log(0.1), math.log(10.0))) for _ in range(3))
        cases.append(kinematics_from_energies(U / (1.0 + 10.0 ** (2.0 * x)), U, Units(hbar=hbar, mass=mass)))
    return cases


class TestZoomOracle:
    # The zoom search never uses a* = r sqrt(1 + c^2/4); on both insets it
    # must find what max_dwell and max_libration compute there in closed form.
    @pytest.mark.parametrize("kin", _oracle_kinematics(10, 20261018), ids=lambda kin: f"r={kin.r:.3g}")
    @pytest.mark.parametrize("epsilon", [1e-6, 0.3])
    def test_finds_the_closed_form_suprema(self, kin, epsilon):
        q = 1.0
        insets = (2.0 - epsilon, 2.0 - 2.0 * epsilon)
        closed = {
            "dwell": [max_dwell(kin, e) for e in (epsilon, 2.0 * epsilon)],
            "libration": [max_libration(kin, q, e) for e in (epsilon, 2.0 * epsilon)],
        }
        factors = np.array([1.0, -1.0, 1.0, -1.0])[:, None, None]  # both signs at both insets
        found = {
            "dwell": maximize_over_slices(
                on_slice(dwell_values, kin, factors), [c for c in insets for _ in range(2)], kin.r
            ),
            "libration": maximize_over_slices(on_slice(libration_values, kin, q), insets, kin.r),
        }
        for quantity, reports in closed.items():
            per_inset = len(found[quantity]) // 2
            for index, (a, c, value) in enumerate(found[quantity]):
                report = reports[index // per_inset]
                assert value <= report.supremum * (1.0 + 1e-14)
                assert abs(value - report.supremum) <= 1e-14 * report.supremum
                assert abs(c) == insets[index // per_inset]
                assert a == pytest.approx(report.maximizer.a, rel=1e-6)


class TestSearchWindowFollowsR:
    # the window moves by round(log10 r) decades, so a* ~ r stays inside it
    @pytest.mark.parametrize("r", [10.0**-0.49, 0.75, 1.0, 4.0 / 3.0, 10.0**0.49])
    def test_unmoved_near_r_of_one(self, r):
        assert _log_a_window(r) == (_LOG_A_LO, _LOG_A_HI)

    @pytest.mark.parametrize("E", [1e-30, 1e-150])  # r = 7.1e14 and 7.1e74
    def test_dwell_supremum_at_r_far_above_one(self, E):
        kin = kinematics_from_energies(E, 0.5)
        lo, hi = _log_a_window(kin.r)
        assert lo < math.log(kin.r) < hi
        a_star, t_D, _ = (float(v) for v in _oracle_maximum(E, 0.5, 1.0, 1.0, 1.0, 2.0 - 1e-6))
        report = max_dwell(kin, 1e-6)
        assert abs(report.supremum - t_D) <= 1e-14 * t_D
        assert report.maximizer.a == pytest.approx(a_star, rel=1e-6)
        # as far below the bound as at r = 4/3: the O(epsilon) deficit only
        assert report.supremum / report.analytic_bound == pytest.approx(1.0 - 3.5e-7, abs=1e-8)

    @pytest.mark.parametrize("E", [1e-30, 1e-150])
    def test_libration_supremum_is_right_or_a_failure(self, E):
        # right, never a failure: at r = 7.1e74 the plain formula overflows at
        # a* and the rescaled period is the value
        kin = kinematics_from_energies(E, 0.5)
        _, _, t_L = (float(v) for v in _oracle_maximum(E, 0.5, 1.0, 1.0, 1.0, 2.0 - 1e-6))
        report = max_libration(kin, 1.0, 1e-6)
        assert abs(report.supremum - t_L) <= 1e-14 * t_L


class TestSliceSearch:
    def test_finds_a_maximum_interior_in_log_a_and_c(self):
        # a tilted ridge peaking at c = 0.4, log a = 0.5 c + 0.2 = 0.4 on the
        # first slice and at c = -0.3, log a = 0.05 on the second: nothing
        # here is a dwell or libration formula, so the search cannot be
        # relying on their known maximizer
        peak = np.array([0.4, -0.3])[:, None, None]

        def objective(a, c):
            return 1.0 / (1.0 + (np.log(a) - 0.5 * c - 0.2) ** 2 + (c - peak) ** 2)

        found = maximize_over_slices(objective, [1.5, 1.0])
        for (a, c, value), c_peak in zip(found, (0.4, -0.3)):
            assert c == pytest.approx(c_peak, abs=1e-6)
            assert math.log(a) == pytest.approx(0.5 * c_peak + 0.2, abs=1e-6)
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_objective_is_an_optimization_failure(self):
        with pytest.raises(OptimizationFailure):
            maximize_over_slices(lambda a, c: np.where(a > 1.0, np.nan, a), [1.0])


class TestInfimumProbe:
    def test_decays_like_one_over_amplitude(self, kin):
        p2 = libration_infimum_probe(kin, 1.0, 1e2)
        p4 = libration_infimum_probe(kin, 1.0, 1e4)
        p6 = libration_infimum_probe(kin, 1.0, 1e6)
        assert p2 == pytest.approx(0.4165926057589762, rel=1e-12)
        assert p4 == pytest.approx(0.004166666592592595, rel=1e-12)
        assert p6 == pytest.approx(4.16666666665926e-05, rel=1e-12)
        assert p2 > p4 > p6 > 0.0
        # the decay tracks 1/A once A dominates r
        assert p4 / p6 == pytest.approx(100.0, rel=1e-6)

    def test_probe_is_a_true_libration_period(self, kin):
        A = 1e3
        expected = libration_period(kin, 1.0, normalize(A, 1.0 / A, 0.0))
        assert libration_infimum_probe(kin, 1.0, A) == pytest.approx(expected, rel=1e-14)

    def test_amplitude_validated(self, kin):
        with pytest.raises(DomainError):
            libration_infimum_probe(kin, 1.0, 0.0)
        with pytest.raises(DomainError):
            libration_infimum_probe(kin, 1.0, math.inf)


def _oracle_times(E, U, hbar, mass, q, ms):
    """40-digit (t_D with sign "+", t_D with sign "-", t_L) of ``ms`` from the closed forms."""
    with mpmath.workdps(40):
        E, U, hbar, mass, q = (mpmath.mpf(v) for v in (E, U, hbar, mass, q))
        a, b, c = (mpmath.mpf(v) for v in (ms.a, ms.b, ms.c))
        k, kappa = mpmath.sqrt(2 * mass * E) / hbar, mpmath.sqrt(2 * mass * (U - E)) / hbar
        r = kappa / k
        gauge = mpmath.sqrt(a * b - c * c / 4)
        dwell = [
            2 * gauge * (1 + r * r) / (a + s * c * r + b * r * r) * mass / (hbar * kappa * k)
            for s in (1, -1)
        ]
        period = (
            4 * (1 + r * r) * mass * (q + 1 / kappa) / (hbar * k)
            * gauge * (a + b * r * r) / (a * a + (2 * a * b - c * c) * r * r + b * b * r**4)
        )
        return float(dwell[0]), float(dwell[1]), float(period)


class TestOverflowingPowersOfR:
    # r = kappa/k so large that r^2 (dwell) or r^4 (libration) overflows a double
    @pytest.mark.parametrize(
        "E,U,hbar,mass,q",
        [
            (1e-150, 0.5, 1.0, 1.0, 1.0),  # the libration prefactor times its numerator overflows
            (1e-300, 1e10, 1.0, 1.0, 1.0),  # r^2 overflows
            (1e-200, 3.0, 0.7, 2.5, 0.1),
            (1e-290, 1e-5, 1.3, 0.4, 10.0),
        ],
    )
    @pytest.mark.parametrize("c", [0.0, 1.9, -1.9, 0.5])
    def test_matches_the_40_digit_closed_forms(self, E, U, hbar, mass, q, c):
        kin = kinematics_from_energies(E, U, Units(hbar=hbar, mass=mass))
        ms = normalize(2.0, (1.0 + 0.25 * c * c) / 2.0, c)
        plus, minus, period = _oracle_times(E, U, hbar, mass, q, ms)
        assert dwell_time(kin, ms, SIGN_PLUS).t_D == pytest.approx(plus, rel=1e-14, abs=0.0)
        assert dwell_time(kin, ms, SIGN_MINUS).t_D == pytest.approx(minus, rel=1e-14, abs=0.0)
        assert libration_period(kin, q, ms) == pytest.approx(period, rel=1e-14, abs=0.0)

    def test_monochromatic_periods_keep_their_textbook_values(self):
        kin = kinematics_from_energies(1e-150, 0.5)
        assert libration_period(kin, 1.0, MONOCHROMATIC) == pytest.approx(
            libration_period_monochromatic(kin, 1.0), rel=1e-15
        )
        kin = kinematics_from_energies(1e-300, 1e10)
        assert dwell_time(kin, MONOCHROMATIC).t_D == pytest.approx(dwell_time_monochromatic(kin), rel=1e-15)

    def test_huge_coefficient_a_is_not_a_zero_period(self):
        # a^2 overflows at ordinary r; the period is ~ (1 + r^2)/a times the monochromatic one
        kin = kinematics_from_energies(0.1, 0.5)
        for a in (1e200, 1e-200):
            ms = normalize(a, 1.0 / a, 0.0)
            period = libration_period(kin, 1.0, ms)
            assert period == pytest.approx(_oracle_times(0.1, 0.5, 1.0, 1.0, 1.0, ms)[2], rel=1e-14, abs=0.0)

    def test_a_value_beyond_the_double_range_is_a_domain_error(self):
        kin = kinematics_from_energies(1e-300, 0.5)
        with pytest.raises(DomainError, match="overflows"):
            libration_period(kin, 1e300, MONOCHROMATIC)
        kin = kinematics_from_energies(1e-300, 2e-300, Units(hbar=1e10))
        with pytest.raises(DomainError, match="overflows"):
            dwell_time(kin, MONOCHROMATIC)


class TestBoundsAtOverflowingR:
    # 1 + r^2 (or kappa^2) overflows a double while the bounds do not; the
    # prefactor ~ r^2 m (q + 1/kappa)/(hbar k) stays finite only for tiny hbar and q
    @pytest.mark.parametrize(
        "E,U,hbar,mass,q,names",
        [
            (1e-300, 1e10, 1.0, 1.0, 1.0, "dwell libration"),  # r = 1e155
            (1e-300, 1e10, 1e-200, 1.0, 1e-210, "dwell libration prefactor"),
            (1e-310, 0.5, 1e-200, 1.0, 1e-205, "dwell libration prefactor"),  # subnormal E
            (1e-306, 1e10, 1e-190, 2.5, 1e-200, "dwell libration prefactor"),
            (0.1, 1.0, 1e-200, 1.0, 1.0, "dwell"),  # r = 3 but kappa^2 overflows
        ],
    )
    def test_match_the_40_digit_closed_forms(self, E, U, hbar, mass, q, names):
        kin = kinematics_from_energies(E, U, Units(hbar=hbar, mass=mass))
        with mpmath.workdps(40):
            E, U, hbar, m, q_ = (mpmath.mpf(v) for v in (E, U, hbar, mass, q))
            k, kappa = mpmath.sqrt(2 * m * E) / hbar, mpmath.sqrt(2 * m * (U - E)) / hbar
            r = kappa / k
            expected = {
                "dwell": (1 + r * r) / (mpmath.sqrt(2) - 1) * m / (hbar * kappa**2),
                "libration": 2 * mpmath.sqrt(2) * (1 + r * r) * m * (q_ + 1 / kappa) / (hbar * kappa),
                "prefactor": 4 * (1 + r * r) * m * (q_ + 1 / kappa) / (hbar * k),
            }
        got = {
            "dwell": lambda: dwell_supremum_bound(kin),
            "libration": lambda: libration_supremum_bound(kin, q),
            "prefactor": lambda: libration_prefactor(kin, q),
        }
        for name in names.split():
            assert got[name]() == pytest.approx(float(expected[name]), rel=1e-14, abs=0.0), name

    def test_a_bound_beyond_the_double_range_is_a_domain_error(self):
        kin = kinematics_from_energies(1e-300, 1e10)  # the prefactor is ~1e460
        with pytest.raises(DomainError, match="overflows"):
            libration_prefactor(kin, 1.0)
        with pytest.raises(DomainError, match="overflows"):
            libration_supremum_bound(kinematics_from_energies(1e-310, 0.5, Units(hbar=1e-10)), 1.0)
        with pytest.raises(DomainError, match="overflows"):
            dwell_supremum_bound(kinematics_from_energies(1e-300, 1e10, Units(hbar=1e10)))


class TestScalarAndArrayObjectivesAgree:
    def test_bit_for_bit_on_random_normalized_microstates(self):
        # the zoom oracle evaluates the objectives on arrays with np.sqrt; dwell_time
        # and libration_period evaluate the same formulas on floats with math.sqrt
        rng = np.random.default_rng(20260)
        for _ in range(20):
            U, hbar, mass, q = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 4))
            kin = kinematics_from_energies(U * rng.uniform(1e-3, 0.999), U, Units(hbar=hbar, mass=mass))
            states = [
                normalize(a, (1.0 + 0.25 * c * c) / a, c)
                for a, c in zip(np.exp(rng.uniform(-8.0, 8.0, 50)), rng.uniform(-1.999, 1.999, 50))
            ]
            a, b, c = (np.array(v) for v in zip(*((s.a, s.b, s.c) for s in states)))
            for sign, factor in ((SIGN_PLUS, 1.0), (SIGN_MINUS, -1.0)):
                array = dwell_values(a, b, c, kin, factor).tolist()
                assert array == [dwell_time(kin, s, sign).t_D for s in states]
            array = libration_values(a, b, c, kin, q).tolist()
            assert array == [libration_period(kin, q, s) for s in states]
