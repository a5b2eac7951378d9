"""Units, potentials, kinematic bundles and the square-well eigenvalue solver."""

import json
import math
import pickle
from dataclasses import FrozenInstanceError

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from trdwell import potential
from trdwell.errors import DomainError
from trdwell.potential import (
    _BISECT_STEPS,
    _LADDER_PASS,
    _SCALAR_SLOTS,
    EIGEN_K_TOL,
    BoundState,
    Kinematics,
    Potential,
    Units,
    _bisect,
    _bisect_slots,
    _kappa_in_well,
    _ladder_size,
    _well_scales,
    bound_state,
    bound_state_energies,
    kinematics_from_energies,
    make_kinematics,
    matching_residual,
    square_well,
    step_barrier,
)
from trdwell.wavefield import well_eigenstate


class TestUnits:
    def test_defaults_are_unity(self):
        u = Units()
        assert u.hbar == 1.0 and u.mass == 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(DomainError):
            Units(hbar=bad)
        with pytest.raises(DomainError):
            Units(mass=bad)


class TestPotential:
    def test_step_has_no_half_width(self):
        pot = step_barrier(0.5)
        assert pot.U == 0.5 and pot.q is None
        with pytest.raises(DomainError):
            Potential("step", 0.5, 1.0)

    def test_well_requires_half_width(self):
        pot = square_well(1.0, 2.0)
        assert pot.q == 2.0
        with pytest.raises(DomainError):
            Potential("well", 1.0, None)

    def test_rejects_unknown_kind_and_bad_height(self):
        with pytest.raises(DomainError):
            Potential("harmonic", 1.0, None)
        with pytest.raises(DomainError):
            step_barrier(-1.0)

    def test_step_regions(self):
        pot = step_barrier(0.5)
        assert pot.region_at(-1.0) == "free"
        assert pot.region_at(0.0) == "forbidden"
        assert pot.region_at(3.0) == "forbidden"
        assert pot.energy_at(-2.0) == 0.0
        assert pot.energy_at(1.0) == 0.5

    def test_well_regions(self):
        pot = square_well(1.0, 2.0)
        assert pot.region_at(0.0) == "free"
        assert pot.region_at(-1.9) == "free"
        assert pot.region_at(2.0) == "forbidden"
        assert pot.region_at(-2.5) == "forbidden"
        assert pot.energy_at(0.0) == 0.0
        assert pot.energy_at(2.5) == 1.0


class TestKinematics:
    def test_canonical_point(self, kin):
        assert kin.k == pytest.approx(0.6, rel=1e-15)
        assert kin.kappa == pytest.approx(0.8, rel=1e-15)
        assert kin.r == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert kin.E == 0.18
        assert kin.U == pytest.approx(0.5, rel=1e-15)

    def test_requires_energy_inside_the_gap(self):
        with pytest.raises(DomainError):
            kinematics_from_energies(0.5, 0.5)
        with pytest.raises(DomainError):
            kinematics_from_energies(0.7, 0.5)
        with pytest.raises(DomainError):
            kinematics_from_energies(0.0, 0.5)
        with pytest.raises(DomainError):
            kinematics_from_energies(-0.1, 0.5)

    def test_make_kinematics_matches_direct_construction(self, units):
        pot = step_barrier(0.5)
        a = make_kinematics(0.18, pot, units)
        b = kinematics_from_energies(0.18, 0.5, units)
        assert a == b

    def test_at_energy_rebuilds_bundle(self, kin):
        other = kin.at_energy(0.32)
        assert other.E == 0.32
        assert other.U == pytest.approx(0.5, rel=1e-15)
        # the roles of k and kappa swap when E mirrors about U/2
        assert other.k == pytest.approx(kin.kappa, rel=1e-15)
        assert other.kappa == pytest.approx(kin.k, rel=1e-15)

    @given(
        E=st.floats(1e-6, 1.0 - 1e-6),
        U_margin=st.floats(1e-6, 10.0),
        hbar=st.floats(0.1, 10.0),
        mass=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_wavenumber_sum_rule(self, E, U_margin, hbar, mass):
        # k^2 + kappa^2 depends on U alone: (hbar k)^2/2m + (hbar kappa)^2/2m = U
        U = E + U_margin
        kin = kinematics_from_energies(E, U, Units(hbar=hbar, mass=mass))
        lhs = (hbar * kin.k) ** 2 / (2 * mass) + (hbar * kin.kappa) ** 2 / (2 * mass)
        assert lhs == pytest.approx(U, rel=1e-12)
        assert kin.r == pytest.approx(kin.kappa / kin.k, rel=1e-15)
        assert kin.U == pytest.approx(U, rel=1e-12)

    def test_rejects_direct_inconsistent_bundle(self, units):
        with pytest.raises(DomainError):
            Kinematics(E=0.18, U=0.5, k=0.6, kappa=-0.8, r=4.0 / 3.0, units=units)

    def test_the_ordinary_flag_is_worked_out_never_given(self, units):
        # a caller-set flag would send extreme inputs down the plain float path
        with pytest.raises(TypeError):
            Kinematics(E=0.18, U=0.5, k=0.6, kappa=0.8, r=4.0 / 3.0, units=units, _plain=True)
        assert kinematics_from_energies(0.18, 0.5, units)._plain
        assert not kinematics_from_energies(1e-300, 1e300, units)._plain

    @pytest.mark.parametrize("E,U", [(0.18, 0.5), (1e-300, 1e300)])
    def test_a_bundle_from_energies_tests_the_ordinary_box_once(self, E, U, units, monkeypatch):
        calls = []
        ordinary = potential._ordinary
        monkeypatch.setattr(potential, "_ordinary", lambda *values: calls.append(values) or ordinary(*values))
        kin = kinematics_from_energies(E, U, units)
        assert calls == [(E, U - E, units.hbar, units.mass)]
        assert kin == Kinematics(kin.E, kin.U, kin.k, kin.kappa, kin.r, units) and kin._plain is ordinary(*calls[0])
        assert kin._fractions == Kinematics(kin.E, kin.U, kin.k, kin.kappa, kin.r, units)._fractions


class TestBoundStates:
    def test_two_state_well(self, well, units):
        states = bound_state_energies(well, units)
        assert len(states) == 2
        assert [s.parity for s in states] == ["even", "odd"]
        assert states[0].k == pytest.approx(0.5757504367532094, rel=1e-12)
        assert states[1].k == pytest.approx(1.1160632959487913, rel=1e-12)
        assert states[0].E == pytest.approx(0.16574428271075567, rel=1e-12)
        assert states[1].E == pytest.approx(0.6227986402820397, rel=1e-12)
        assert all(0.0 < s.E < 1.0 for s in states)

    def test_matching_residuals_tiny(self, well, units):
        for state in bound_state_energies(well, units):
            assert abs(matching_residual(state, well.q)) <= 1e-10

    def test_energies_monotone_and_consistent(self, well, units):
        states = bound_state_energies(well, units)
        ks = [s.k for s in states]
        assert ks == sorted(ks)
        for s in states:
            assert s.E == pytest.approx((s.k) ** 2 / 2.0, rel=1e-14)
            assert s.k**2 + s.kappa**2 == pytest.approx(2.0 * well.U, rel=1e-12)

    def test_against_independent_scan(self, well, units):
        # Re-derive both wavenumbers with a brute-force dense scan plus
        # Brent refinement, sharing nothing with the library's own search.
        q = well.q
        k_max = math.sqrt(2.0 * well.U)

        def kappa_of(k):
            return math.sqrt(max(2.0 * well.U - k * k, 0.0))

        def even(k):
            return k * math.sin(k * q) - kappa_of(k) * math.cos(k * q)

        def odd(k):
            return k * math.cos(k * q) + kappa_of(k) * math.sin(k * q)

        roots = []
        grid = np.linspace(k_max * 1e-9, k_max * (1.0 - 1e-9), 200_001)
        for f in (even, odd):
            vals = [f(k) for k in grid]
            for i in range(len(grid) - 1):
                if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0:
                    roots.append(brentq(f, grid[i], grid[i + 1], xtol=1e-14))
        roots.sort()

        states = bound_state_energies(well, units)
        assert len(roots) == len(states) == 2
        for oracle_k, state in zip(roots, states):
            assert state.k == pytest.approx(oracle_k, abs=10 * EIGEN_K_TOL)

    def test_deeper_well_gains_states(self, units):
        # the state count grows roughly like q*sqrt(2 m U)/pi
        few = bound_state_energies(square_well(1.0, 2.0), units)
        many = bound_state_energies(square_well(25.0, 2.0), units)
        assert len(many) > len(few)
        for s in many:
            assert abs(matching_residual(s, 2.0)) <= 1e-10

    def test_rejects_step(self, units):
        with pytest.raises(DomainError):
            bound_state_energies(step_barrier(0.5), units)


def test_bisection_stops_at_adjacent_floats():
    # Above 512 the float spacing exceeds EIGEN_K_TOL, so only the spacing
    # itself can end the bisection.
    calls = []

    def f(k):
        calls.append(k)
        return -1.0 if k < 1500.3 else 1.0

    root = _bisect(f, 1024.0, 2048.0, EIGEN_K_TOL)
    assert abs(root - 1500.3) <= math.ulp(1500.3)
    assert len(calls) <= 60


def test_bisection_ends_at_a_lower_end_where_the_function_is_zero():
    calls = []
    assert _bisect(lambda k: calls.append(k) or k - 1.0, 1.0, 2.0, EIGEN_K_TOL) == 1.0
    assert calls == [1.0]


def test_bisection_stops_after_its_step_cap():
    # from 1e300 wide, 200 halvings leave a bracket far wider than ulp(hi): only the cap ends it
    lo, hi = -1e300, 1e-300
    for _ in range(_BISECT_STEPS):
        lo = 0.5 * lo + 0.5 * hi  # f(k) = k is negative at every midpoint
    assert _bisect(lambda k: k, -1e300, 1e-300, EIGEN_K_TOL) == 0.5 * lo + 0.5 * hi != 0.0


def _scaled_bracket(state, q, k_max):
    # Pole-free matching residual over its slope scale q k_max: roughly the
    # distance of state.k from the true root, in units of k.
    k, kappa = state.k, state.kappa
    if state.parity == "even":
        g = k * math.sin(k * q) - kappa * math.cos(k * q)
    else:
        g = k * math.cos(k * q) + kappa * math.sin(k * q)
    return abs(g) / (q * k_max)


class TestDeepLadder:
    # k_max q = 56,569: one state per pi/2 gives 36,013 states, nine times
    # more than a fixed 10,000-point scan in k can resolve.
    U, Q = 1e4, 400.0

    @pytest.fixture(scope="class")
    def ladder(self):
        return bound_state_energies(square_well(self.U, self.Q))

    def test_count_matches_one_state_per_half_pi(self, ladder):
        k_max = math.sqrt(2.0 * self.U)
        assert len(ladder) == math.ceil(2.0 * k_max * self.Q / math.pi) == 36_013

    def test_each_state_in_its_slot_with_alternating_parity(self, ladder):
        kq = np.array([s.k for s in ladder]) * self.Q
        slots = np.arange(len(ladder)) * (math.pi / 2.0)
        assert np.all(slots < kq) and np.all(kq < slots + math.pi / 2.0)
        assert all(s.parity == ("even" if i % 2 == 0 else "odd") for i, s in enumerate(ladder))
        assert all(s.kappa > 0.0 for s in ladder)

    def test_matching_residuals_small(self, ladder):
        k_max = math.sqrt(2.0 * self.U)
        assert max(_scaled_bracket(s, self.Q, k_max) for s in ladder) <= EIGEN_K_TOL

    def _roots_40(self, indices):
        """The 40-digit root of slot i, for each i in ``indices``."""
        with mpmath.workdps(40):
            q, k_max = mpmath.mpf(self.Q), mpmath.sqrt(2 * mpmath.mpf(self.U))

            def kappa(k):
                return mpmath.sqrt(max(k_max**2 - k**2, 0))

            def even(k):
                return k * mpmath.sin(k * q) - kappa(k) * mpmath.cos(k * q)

            def odd(k):
                return k * mpmath.cos(k * q) + kappa(k) * mpmath.sin(k * q)

            roots = []
            for i in indices:
                lo = i * mpmath.pi / (2 * q)
                hi = min((i + 1) * mpmath.pi / (2 * q), k_max)
                roots.append(mpmath.findroot(odd if i % 2 else even, (lo, hi), solver="illinois"))
            return roots

    def test_against_40_digit_roots(self, ladder):
        indices = np.linspace(0, len(ladder) - 1, 20).round().astype(int).tolist()
        for i, root in zip(indices, self._roots_40(indices)):
            assert abs(ladder[i].k - root) <= 10 * EIGEN_K_TOL, i

    def test_residual_is_the_40_digit_distance_to_the_root(self, ladder):
        # the low states sit next to a pole of tan or cot, where the tan/cot
        # residual itself reads up to 2.6e-5 (state 0) for a root good to 1e-14
        n = len(ladder)
        indices = [0, 1, 2, 3, *np.linspace(4, n - 3, 30).round().astype(int).tolist(), n - 2, n - 1]
        for i, root in zip(indices, self._roots_40(indices)):
            with mpmath.workdps(40):
                distance = float(mpmath.mpf(ladder[i].k) - root)
            residual = matching_residual(ladder[i], self.Q)
            assert abs(residual - distance) <= math.ulp(ladder[i].k), i
            assert abs(residual) <= EIGEN_K_TOL, i

    def test_residual_is_signed_away_from_the_root(self, ladder):
        indices = [0, 1, 1000, 20_001, len(ladder) - 1]
        for i, root in zip(indices, self._roots_40(indices)):
            for offset in (1e-12, -1e-12):
                k = float(root) + offset
                state = BoundState(0.0, ladder[i].parity, k, math.sqrt(2.0 * self.U - k * k))
                with mpmath.workdps(40):
                    distance = float(mpmath.mpf(k) - root)
                assert matching_residual(state, self.Q) == pytest.approx(distance, rel=1e-3), (i, offset)


def _k_max_40(U, units):
    """40-digit sqrt(2 m U)/hbar."""
    with mpmath.workdps(40):
        return float(mpmath.sqrt(2 * mpmath.mpf(units.mass) * mpmath.mpf(U)) / mpmath.mpf(units.hbar))


def _kappa_40(k_max, k):
    """40-digit sqrt(k_max^2 - k^2) at the double k_max: near the top kappa is ill-conditioned in k_max."""
    with mpmath.workdps(40):
        return float(mpmath.sqrt(mpmath.mpf(k_max) ** 2 - mpmath.mpf(k) ** 2))


class TestWellScalesWhereSquaresOverflow:
    def test_kappa_where_k_max_squared_overflows(self):
        # k_max = 1.4e160: k_max^2 overflows, so the ladder bisects slot by slot on floats
        pot, units = square_well(1e300, 3e-160), Units(hbar=1e-10)
        q, k_max, _ = _well_scales(pot, units)
        assert k_max == pytest.approx(_k_max_40(1e300, units), rel=1e-15)
        ladder = bound_state_energies(pot, units)
        assert len(ladder) == 3
        assert list(ladder) == [bound_state(pot, units, i) for i in range(3)]
        for state in ladder:
            assert state.kappa == pytest.approx(_kappa_40(k_max, state.k), rel=1e-14, abs=0.0)
            # the bisection ends between adjacent floats around the root
            assert abs(matching_residual(state, q)) <= 4.0 * math.ulp(state.k)

    @pytest.mark.parametrize("fraction", [0.0, 1e-300, 0.5, 1.0 - 2.0**-52])
    def test_kappa_matches_40_digits_at_the_top_of_the_double_range(self, fraction):
        for k_max in (1.5e154, 1e200, 1.7e308):  # k_max + k overflows at the last
            k = fraction * k_max
            assert _kappa_in_well(k, k_max) == pytest.approx(_kappa_40(k_max, k), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("U, hbar", [(1.1e308, 1.0), (1e300, 1e-50), (1.4e308, 1e-154)])
    def test_ladder_kappa_matches_40_digits_at_the_top_of_the_double_range(self, U, hbar):
        # k_max = 1.5e154, 1.4e200 and 1.7e308: k_max^2 overflows, and k_max + k at the last
        units = Units(hbar=hbar)
        pot = square_well(U, 1.25 * math.pi / _k_max_40(U, units))
        q, k_max, _ = _well_scales(pot, units)
        assert k_max == pytest.approx(_k_max_40(U, units), rel=1e-15)
        ladder = bound_state_energies(pot, units)
        assert len(ladder) == _ladder_size(q, k_max) == 3
        for i, state in enumerate(ladder):
            assert state == bound_state(pot, units, i)
            assert state.kappa == pytest.approx(_kappa_40(k_max, state.k), rel=1e-14, abs=0.0)

    def test_ceiling_where_2mU_overflows(self):
        pot, units = square_well(1e308, 1e-152), Units()
        q, k_max, _ = _well_scales(pot, units)
        assert k_max == pytest.approx(_k_max_40(1e308, units), rel=1e-15)
        ladder = bound_state_energies(pot, units)
        assert len(ladder) == _ladder_size(q, k_max) == 91
        for i in (0, 1, 45, 89, 90):
            state = ladder[i]
            assert state == bound_state(pot, units, i)
            with mpmath.workdps(40):
                energy = mpmath.mpf(state.k) ** 2 / 2
            assert state.kappa == pytest.approx(_kappa_40(k_max, state.k), rel=1e-14, abs=0.0)
            assert state.E == pytest.approx(float(energy), rel=1e-15, abs=0.0)
            assert 0.0 < state.E < pot.U

    @pytest.mark.parametrize("units", [Units(hbar=1e-300), Units(hbar=0.5, mass=1e308)])
    def test_ceiling_beyond_the_double_range_is_a_domain_error(self, units):
        pot = square_well(1e308, 1e-150)
        with pytest.raises(DomainError, match="overflows"):
            _well_scales(pot, units)
        with pytest.raises(DomainError, match="overflows"):
            bound_state_energies(pot, units)


def _ground_k_40(U, q, units):
    """The 40-digit k of the ground state (the root in the first slot) of square_well(U, q).

    The root lies within about 1/(k_max q) of the slot's top, relatively, so the digits grow with q."""
    with mpmath.workdps(40 + max(0, round(math.log10(q)))):
        q, k_max = mpmath.mpf(q), mpmath.sqrt(2 * mpmath.mpf(units.mass) * mpmath.mpf(U)) / mpmath.mpf(units.hbar)

        def even(k):
            return k * mpmath.sin(k * q) - mpmath.sqrt(k_max**2 - k**2) * mpmath.cos(k * q)

        return mpmath.findroot(even, (0, min(mpmath.pi / (2 * q), k_max)), solver="illinois")


class TestNarrowSlots:
    """Slots narrower than EIGEN_K_TOL are bisected to 2^-40 of their top, not to EIGEN_K_TOL."""

    WELLS = [
        (1.0, 1e12, Units()),
        (0.5, 1e300, Units()),
        (1.5367370897293758e-231, 2402627081126.371, Units(hbar=3.862634705702233e-145, mass=1.879273391129294e-77)),
    ]

    @pytest.mark.parametrize("U, q, units", WELLS)
    def test_ground_state_matches_40_digits(self, U, q, units):
        root = _ground_k_40(U, q, units)
        state = bound_state(square_well(U, q), units)
        assert abs(state.k - float(root)) <= 1e-12 * float(root)
        with mpmath.workdps(40):
            E = (mpmath.mpf(units.hbar) * root) ** 2 / (2 * mpmath.mpf(units.mass))
        assert state.E == pytest.approx(float(E), rel=1e-12, abs=0.0)

    def test_cli_prints_the_40_digit_ground_states(self, capsys):
        from trdwell.cli import run

        assert run(["coverage", "sw", "--U", "1", "--q", "1e12", "--past", "0,0", "--present", "0.5,1"]) == 0
        E = json.loads(capsys.readouterr().out)["inputs"]["E"]
        assert E == pytest.approx(1.2337005501344251e-24, rel=1e-12, abs=0.0)
        U, q, units = self.WELLS[2]
        argv = ["energies", "--U", repr(U), "--q", repr(q), "--hbar", repr(units.hbar), "--mass", repr(units.mass)]
        assert run(argv) == 0
        k = json.loads(capsys.readouterr().out)["outputs"]["states"][0]["k"]  # from the ladder of 951 states
        assert k == bound_state(square_well(U, q), units).k
        assert k == pytest.approx(6.5334577806650341e-13, rel=1e-12, abs=0.0)
        assert k == pytest.approx(float(_ground_k_40(U, q, units)), rel=1e-12, abs=0.0)


class TestLadderSlots:
    # 40 states, with non-unit hbar and mass.
    UNITS = Units(hbar=0.7, mass=1.3)

    @pytest.fixture(scope="class")
    def pot(self):
        k_max = math.sqrt(2.0 * self.UNITS.mass * 50.0) / self.UNITS.hbar
        return square_well(50.0, 39.5 * math.pi / (2.0 * k_max))

    def test_single_state_is_bit_identical_to_ladder_entry(self, pot):
        ladder = bound_state_energies(pot, self.UNITS)
        assert len(ladder) == 40
        assert [bound_state(pot, self.UNITS, i) for i in range(40)] == list(ladder)
        assert [well_eigenstate(pot, self.UNITS, i).kinematics.k for i in range(40)] == [s.k for s in ladder]

    def test_parity_ladders_are_every_other_slot(self, pot):
        both = bound_state_energies(pot, self.UNITS)
        assert bound_state_energies(pot, self.UNITS, parity="even") == both[0::2]
        assert bound_state_energies(pot, self.UNITS, parity="odd") == both[1::2]

    def test_index_out_of_range(self, pot):
        with pytest.raises(DomainError, match="holds 40 states"):
            bound_state(pot, self.UNITS, 40)
        with pytest.raises(DomainError):
            bound_state(pot, self.UNITS, -1)

    @pytest.mark.parametrize("n", [1, 2, 13, 19, 26, 35])
    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_threshold_wells_hold_only_bound_states(self, n, nudge):
        # k_max q within rounding of n pi/2: the top slot is empty or nearly
        # so, and whichever the rounding decides, every state stays bound.
        U = 0.5
        q = n * math.pi / 2.0
        if nudge:
            q = math.nextafter(q, nudge * math.inf)
        ladder = bound_state_energies(square_well(U, q))
        # k_max = 1: the ladder ends with the last slot starting below it.
        assert len(ladder) in (n, n + 1)
        assert (len(ladder) - 1) * math.pi / (2.0 * q) < 1.0 <= len(ladder) * math.pi / (2.0 * q)
        assert all(0.0 < s.kappa and s.k < 1.0 for s in ladder)
        assert all(s.parity == ("even" if i % 2 == 0 else "odd") for i, s in enumerate(ladder))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Kinematics(0.5, 0.5, 1.0, 1.0, 1.0, Units()), "below a finite U"),
        (lambda: Kinematics(0.18, 0.5, 0.6, 0.8, 1.5, Units()), "inconsistent bundle: r=1.5"),
        (lambda: bound_state(square_well(1e300, 1e300)), "more states than a double counts"),
        (lambda: bound_state_energies(square_well(1.0, 2.0), parity="sideways"), "parity must be even, odd or both"),
        (lambda: bound_state_energies(square_well(1e6, 1e6)), "holds 900316317 states, more than the 2097152"),
        (lambda: bound_state_energies(square_well(1e6, 1e6), parity="odd"), "holds 450158158 states"),
        (lambda: bound_state_energies(square_well(1e300, 1e-140)), "holds 9003163162 states"),
    ],
    ids=[
        "energy-at-the-wall", "inconsistent-ratio", "count-beyond-a-double", "unknown-parity",
        "ladder-over-the-cap", "odd-ladder-over-the-cap", "nine-billion-states",
    ],
)
def test_each_refusal_of_the_potential_layer_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_a_ladder_over_the_cap_is_refused_before_any_slot_is_solved(monkeypatch):
    pot = square_well(1e6, 1e6)
    assert bound_state(pot, Units(), 900316316).parity == "even"  # one slot of it is still solved
    for name in ("_bisect_one", "_bisect_slots"):
        monkeypatch.setattr(potential, name, lambda *args: pytest.fail("a slot was solved"))
    with pytest.raises(DomainError, match="900316317"):
        bound_state_energies(pot)


def test_the_cap_counts_the_states_the_call_lists(monkeypatch):
    pot, units = _well_with_slots(40, 12.0, 0.5, 1.0, 1.0)  # 20 states of each parity
    monkeypatch.setattr(potential, "_LADDER_MAX", 40)
    assert len(bound_state_energies(pot, units)) == 40
    monkeypatch.setattr(potential, "_LADDER_MAX", 20)
    assert len(bound_state_energies(pot, units, parity="odd")) == 20
    with pytest.raises(DomainError, match="holds 40 states, more than the 20 one call lists"):
        bound_state_energies(pot, units)


def _fields(state):
    # every field, floats by their bits
    return (state.E.hex(), state.parity, state.k.hex(), state.kappa.hex())


def _well_with_slots(slots: int, k_max: float, fill: float, hbar: float, mass: float):
    """A well of ``slots`` ladder slots, k_max sitting ``fill`` of the way into the last one."""
    units = Units(hbar=hbar, mass=mass)
    return square_well((hbar * k_max) ** 2 / (2.0 * mass), (slots - 1 + fill) * math.pi / (2.0 * k_max)), units


# passes are 2,048 slots: one slot (solved slot by slot), a pass less one, one exact pass, one slot over,
# two passes and one over
_SLOT_COUNTS = (1, 2047, 2048, 2049, 4097)


@given(
    slots=st.sampled_from(_SLOT_COUNTS),
    k_max=st.one_of(st.floats(0.5, 500.0), st.floats(600.0, 1e5)),  # above 512, ulp(k) > EIGEN_K_TOL
    fill=st.one_of(st.floats(0.02, 0.98), st.floats(1e-12, 1e-10)),  # the second: a last slot below tolerance
    parity=st.sampled_from(["both", "even", "odd"]),
    hbar=st.floats(0.5, 2.0),
    mass=st.floats(0.5, 2.0),
)
@example(slots=1, k_max=1.0, fill=0.5, parity="both", hbar=1.0, mass=1.0)
@example(slots=2047, k_max=3.0, fill=0.4, parity="odd", hbar=1.0, mass=1.0)
@example(slots=2048, k_max=5e4, fill=0.7, parity="even", hbar=0.7, mass=1.3)
@example(slots=2049, k_max=1.0, fill=1e-11, parity="both", hbar=1.0, mass=1.0)
@example(slots=4097, k_max=2e3, fill=1e-12, parity="odd", hbar=1.0, mass=1.0)
@settings(max_examples=25, deadline=None)
def test_every_ladder_state_is_bound_state_of_its_slot(slots, k_max, fill, parity, hbar, mass):
    pot, units = _well_with_slots(slots, k_max, fill, hbar, mass)
    size = _ladder_size(*_well_scales(pot, units)[:2])
    assert size in (slots - 1, slots, slots + 1)  # rounding of k_max q can move one slot boundary
    indices = range(1 if parity == "odd" else 0, size, 1 if parity == "both" else 2)
    ladder = bound_state_energies(pot, units, parity)
    assert len(ladder) == len(indices)
    # both ends, both sides of every pass boundary, and a spread in between
    checked = {0, 1, len(indices) - 2, len(indices) - 1, *range(0, len(indices), 97)}
    checked |= {j for j in range(len(indices)) if j % 2048 in (0, 1, 2046, 2047)}
    for j in sorted(j for j in checked if 0 <= j < len(indices)):
        assert _fields(ladder[j]) == _fields(bound_state(pot, units, indices[j])), indices[j]


def test_ladder_keeps_its_bits_when_numpy_trig_is_off_by_ulps(monkeypatch):
    # np.sin/np.cos may round differently from math.sin/math.cos; push every
    # array value 2^-45 away and the ladder must still equal bound_state
    # everywhere, since near-zero brackets are decided with math
    np_sin, np_cos = np.sin, np.cos
    monkeypatch.setattr(np, "sin", lambda x: np_sin(x) * (1.0 + 2.0**-45))
    monkeypatch.setattr(np, "cos", lambda x: np_cos(x) * (1.0 - 2.0**-45))
    for parity in ("both", "odd"):
        pot, units = _well_with_slots(2049, 60.0, 0.5, 1.0, 1.0)
        ladder = bound_state_energies(pot, units, parity)
        first, stride = (0, 1) if parity == "both" else (1, 2)
        assert [_fields(s) for s in ladder] == [
            _fields(bound_state(pot, units, i)) for i in range(first, 2049, stride)
        ]


def _every_state_is_its_bound_state(pot, units, parity="both"):
    first, stride = {"both": (0, 1), "even": (0, 2), "odd": (1, 2)}[parity]
    size = _ladder_size(*_well_scales(pot, units)[:2])
    ladder = bound_state_energies(pot, units, parity)
    assert [_fields(s) for s in ladder] == [_fields(bound_state(pot, units, i)) for i in range(first, size, stride)]
    return ladder


@pytest.mark.parametrize("k_max", [60.0, 5e4])  # above 512 every bisection runs to adjacent floats
def test_every_state_of_a_4097_slot_ladder_is_bound_state_of_its_slot(k_max):
    assert len(_every_state_is_its_bound_state(*_well_with_slots(4097, k_max, 0.5, 1.0, 1.0))) == 4097


@pytest.mark.parametrize("offsets", [(0.7,), (0.0, 0.7, -0.7, 1e-12)])
def test_ladder_keeps_its_bits_when_the_root_estimates_are_wrong(monkeypatch, offsets):
    # atan2 off by up to 0.7 moves the Newton estimates of the slots' roots far from the roots;
    # the check of each band, not the estimate, makes the ladder equal bound_state
    np_arctan2 = np.arctan2
    monkeypatch.setattr(np, "arctan2", lambda y, x: np_arctan2(y, x) + np.resize(offsets, np.shape(y)))
    for parity in ("both", "odd"):
        _every_state_is_its_bound_state(*_well_with_slots(2049, 60.0, 0.5, 1.0, 1.0), parity)
        _every_state_is_its_bound_state(*_well_with_slots(300, 5e4, 1e-11, 0.7, 1.3), parity)


def _bracket_zeros(monkeypatch, zero):
    """Patch both scalar brackets to return exactly 0.0 at every k where ``zero(k, value)``; list those k."""
    ks = []

    def patched(bracket):
        def f(k, kappa, q):
            value = bracket(k, kappa, q)
            return ks.append(k) or 0.0 if zero(k, value) else value

        return f

    monkeypatch.setattr(potential, "_SLOT_KINDS", tuple((patched(f), parity) for f, parity in potential._SLOT_KINDS))
    return ks


def test_a_slot_stopped_by_an_exact_zero_keeps_its_midpoint(monkeypatch):
    # the arrays evaluate every value within _SIGN_GUARD k_max of 0 again with the scalar bracket,
    # so both paths meet the same exact zeros, and each slot's bisection ends at one
    pot = square_well(1e4, 1.0)  # 91 states, one array pass
    q, k_max, _ = _well_scales(pot, Units())
    zeros = _bracket_zeros(monkeypatch, lambda k, value: abs(value) < potential._SIGN_GUARD * k_max / 4.0)
    ladder = bound_state_energies(pot)
    assert len(ladder) == 91 and len(zeros) == 91
    zeros.clear()
    assert [_fields(s) for s in ladder] == [_fields(bound_state(pot, Units(), i)) for i in range(91)]
    assert len(zeros) == 91


def test_a_slot_whose_bracket_is_zero_at_its_lower_end_ends_there(monkeypatch):
    # with the guard above every bracket value, the arrays take each value from the scalar bracket,
    # which is 0 at the lower end of every even slot from 2 on
    pot = square_well(1e4, 1.0)
    q, k_max, _ = _well_scales(pot, Units())
    floors = {potential._slot_floor(i, q) for i in range(2, 91, 2)}
    monkeypatch.setattr(potential, "_SIGN_GUARD", 2.0)
    zeros = _bracket_zeros(monkeypatch, lambda k, value: k in floors)
    ladder = _every_state_is_its_bound_state(pot, Units())
    assert set(zeros) == floors
    assert [s.k for s in ladder[2::2]] == [potential._slot_floor(i, q) for i in range(2, 91, 2)]


def test_ladder_evaluates_few_bracket_points_per_state(monkeypatch):
    # the bisection replays the signs of a verified band around each root: f at the slot's
    # lower end and at the band's two ends, and the few midpoints inside the band
    points = []
    np_sin = np.sin
    monkeypatch.setattr(np, "sin", lambda x: points.append(np.size(x)) or np_sin(x))
    ladder = bound_state_energies(*_well_with_slots(4097, 60.0, 0.5, 1.0, 1.0))
    assert sum(points) <= 10 * len(ladder)


@pytest.mark.parametrize(
    "slots, arrays",
    [
        (_SCALAR_SLOTS - 1, ()),
        (_SCALAR_SLOTS, (range(_SCALAR_SLOTS),)),
        (_SCALAR_SLOTS + 1, (range(_SCALAR_SLOTS + 1),)),
        (_LADDER_PASS + _SCALAR_SLOTS - 1, (range(_LADDER_PASS),)),
    ],
    ids=["below-the-limit", "at-the-limit", "above-the-limit", "a-full-pass-and-a-short-one"],
)
def test_passes_shorter_than_the_scalar_limit_are_solved_slot_by_slot(monkeypatch, slots, arrays):
    # bound_state evaluates no np.sin, so the ladder's np.sin calls must be exactly those of
    # bisecting ``arrays`` as arrays: none for a pass below _SCALAR_SLOTS, all for the others
    pot, units = _well_with_slots(slots, 60.0, 0.5, 1.0, 1.0)
    q, k_max, _ = _well_scales(pot, units)
    sizes = []
    np_sin = np.sin
    monkeypatch.setattr(np, "sin", lambda x: sizes.append(np.size(x)) or np_sin(x))
    for batch in arrays:
        _bisect_slots(batch, q, k_max)
    expected, sizes[:] = sizes[:], []
    assert len(_every_state_is_its_bound_state(pot, units)) == slots
    assert sizes == expected and bool(sizes) == bool(arrays)


@pytest.mark.parametrize(
    "well, plain",
    [
        ((4097, 60.0, 0.5, 1.0, 1.0), True),  # bisected and built as arrays
        ((_SCALAR_SLOTS + 16, 3.0, 0.5, 1e-70, 1.0), False),  # hbar outside the ordinary box: bisected as arrays
        ((_SCALAR_SLOTS - 1, 3.0, 0.5, 1.0, 1.0), True),  # one short pass, slot by slot
    ],
    ids=["plain-arrays", "arrays-beyond-the-ordinary-box", "slot-by-slot"],
)
def test_ladder_states_are_bound_state_records_like_any_other(well, plain):
    pot, units = _well_with_slots(*well)
    assert _well_scales(pot, units)[2] is plain
    ladder = bound_state_energies(pot, units)
    assert len(ladder) == well[0]
    for state in ladder:
        built = BoundState(state.E, state.parity, state.k, state.kappa)
        assert type(state) is BoundState
        assert state == built and hash(state) == hash(built) and repr(state) == repr(built)
        assert pickle.loads(pickle.dumps(state)) == state
    for name in BoundState.__slots__:
        with pytest.raises(FrozenInstanceError):
            setattr(ladder[-1], name, 1.0)


class TestBoundStateRecord:
    STATE = BoundState(0.25, "even", 0.7071067811865476, 1.2247448713915890)

    def test_is_slotted(self):
        assert not hasattr(self.STATE, "__dict__")
        assert BoundState.__slots__ == ("E", "parity", "k", "kappa")

    def test_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            self.STATE.E = 1.0

    def test_pickles_compares_and_hashes_by_its_fields(self):
        copy = pickle.loads(pickle.dumps(self.STATE))
        assert copy == self.STATE and copy is not self.STATE
        assert hash(copy) == hash(self.STATE) == hash((0.25, "even", 0.7071067811865476, 1.2247448713915890))
        assert BoundState(0.25, "odd", self.STATE.k, self.STATE.kappa) != self.STATE
        assert {self.STATE, copy} == {self.STATE}
