"""Units, potentials, kinematic bundles and the square-well eigenvalue solver."""

import json
import math
import pickle
import random
from dataclasses import FrozenInstanceError

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from trdwell import kinematics, potential
from trdwell.errors import DomainError
from trdwell.potential import (
    _LADDER_PASS,
    _SCALAR_SLOTS,
    BoundState,
    Kinematics,
    Potential,
    Units,
    _is_top,
    _ladder_size,
    _reduced,
    _sin_versin,
    _slot_root,
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

from angle_oracle import angle_root, state_errors, well_p


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
        ordinary = kinematics._ordinary
        monkeypatch.setattr(kinematics, "_ordinary", lambda *values: calls.append(values) or ordinary(*values))
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
            assert state.k == pytest.approx(oracle_k, abs=1e-12)

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


#: Wells whose states must lie within 1e-15 of the 50-digit angle root at the library's own P:
#: the two-state golden well; the wells where a bisection in k printed a wrong kappa, a top state
#: 1e-9 and 1e-6 of P below the well's top and a shallow well whose one state has kappa = 2e-210; U = 1e4 at two
#: widths; and the 2^21-state well at the ladder cap, sampled slot by slot.
ANGLE_WELLS = {
    "golden": (1.0, 2.0, Units()),
    "top-1e-9": (1.0, 1.1107207356503122, Units()),
    "top-1e-6": (1.0, math.pi / 2.0 * (1.0 + 1e-6) / math.sqrt(2.0), Units()),
    "shallow": (1e-300, 1e100, Units(hbar=1.0, mass=1e-10)),
    "U-1e4-q-30": (1e4, 30.0, Units()),
    "U-1e4-q-300": (1e4, 300.0, Units()),
    "cap": (1e6, 2329.350207551823, Units()),
}


@pytest.mark.parametrize("name", sorted(ANGLE_WELLS))
def test_states_match_the_50_digit_angle_root(name):
    U, q, units = ANGLE_WELLS[name]
    k_max, P = well_p(U, q, units)
    size = _ladder_size(P)
    rng = random.Random(name)
    slots = sorted({0, 1, size - 2, size - 1, *(rng.randrange(size) for _ in range(60))} & set(range(size)))
    for i in slots:
        k_err, kappa_err, E_err = state_errors(bound_state(square_well(U, q), units, i), i, U, k_max, P)
        assert max(k_err, kappa_err) <= 1e-15 and E_err <= 2e-15, (i, k_err, kappa_err, E_err)


def test_the_top_state_of_the_1e9_reproducer_prints_its_kappa(capsys):
    # q = (pi/2)(1 + 1e-9)/sqrt(2): a bisection in k printed kappa = 3.5e-7, 157 times the truth
    from trdwell.cli import run

    assert run(["energies", "--U", "1", "--q", "1.1107207356503122"]) == 0
    top = json.loads(capsys.readouterr().out)["outputs"]["states"][-1]
    # the truth at the exact inputs; rounding P = sqrt(2) q alone moves it by 1.3e-7
    assert top["kappa"] == pytest.approx(2.2214411778152977e-09, rel=1e-6, abs=0.0)
    assert top["kappa"] == pytest.approx(2.2214414576106391e-09, rel=1e-15, abs=0.0)  # the root at the double P
    assert top["E"] == 1.0 and top["k"] == math.sqrt(2.0)  # U - E = 2.5e-18 rounds away


def test_the_shallow_reproducer_keeps_its_kappa():
    state = bound_state(square_well(1e-300, 1e100), Units(hbar=1.0, mass=1e-10))
    assert state.kappa == pytest.approx(2.0e-210, rel=1e-15, abs=0.0)  # a bisection in k gave 1.35e-161
    kin = well_eigenstate(square_well(1e-300, 1e100), Units(hbar=1.0, mass=1e-10)).kinematics
    assert (kin.k, kin.kappa, kin.E, kin.U) == (state.k, state.kappa, state.E, 1e-300)
    assert kin._gap == 0.0 and not kin._plain  # U - E = 2e-410 is no double


@given(
    P=st.one_of(st.floats(1e-300, 1e-3), st.floats(1e-3, 10.0), st.floats(10.0, 4e6), st.floats(4e6, 1e300)),
    share=st.floats(0.0, 1.0),
)
@example(P=1.5707963283656930, share=1.0)
@example(P=3.0, share=0.0)
@settings(max_examples=200, deadline=None)
def test_the_float_kernel_gives_the_array_kernel_bits(P, share):
    size = _ladder_size(P)
    i = min(int(share * size), size - 1)
    top = _is_top(P, i)
    assume(not top or (i < 2**53 and _reduced(P, i) > 0.0))  # bound_state refuses the rest
    assert top == bool(_is_top(P, np.array([float(i)]))[0])
    scalar = _slot_root(P, float(i), top, math.sqrt)
    array = _slot_root(P, np.array([float(i), float(i)]), top, np.sqrt)
    assert [x.hex() for x in scalar] == [float(x[0]).hex() for x in array] == [float(x[1]).hex() for x in array]
    assert 0.0 < scalar[1] and 0.0 < scalar[0] <= 1.0  # d > 0 for every listed slot: a positive kappa


def test_the_polynomials_are_sin_and_versin_to_two_ulp():
    with mpmath.workdps(40):
        for x in np.linspace(0.0, math.pi / 4.0, 2001)[1:].tolist():
            s, v = _sin_versin(x)
            assert abs(s - mpmath.sin(x)) <= 2 * math.ulp(s), x
            assert abs(v - (1 - mpmath.cos(x))) <= 2 * math.ulp(v), x


def test_the_ladder_scales_exactly_with_the_units():
    # theta depends on P = k_max q alone, which lengths scaled by 2^j and energies by 2^-2j leave exact
    ladder = bound_state_energies(square_well(1.0, 2.0))
    for j in range(-70, 71):
        scaled = bound_state_energies(square_well(math.ldexp(1.0, -2 * j), math.ldexp(2.0, j)))
        assert [(s.E, s.k, s.kappa) for s in scaled] == [
            (math.ldexp(s.E, -2 * j), math.ldexp(s.k, -j), math.ldexp(s.kappa, -j)) for s in ladder
        ], j


@pytest.mark.parametrize("P", [1.0, math.pi / 2.0, 3.0 * math.pi / 2.0 * (1.0 + 1e-15), 1e6 * math.pi, 2.0**40])
def test_every_listed_slot_has_a_positive_reduced_angle(P):
    size = _ladder_size(P)
    assert _reduced(P, size - 1) > 0.0 >= _reduced(P, size)


def _slots_40_digits(P: float) -> int:
    """The number of slots i >= 0 with i pi/2 < P, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        return int(mpmath.ceil(mpmath.mpf(P) / (mpmath.pi / 2)))


@pytest.mark.parametrize("seed", range(4))
def test_the_ladder_count_is_exact_wherever_the_slots_are_doubles(seed):
    # P log-uniform from 2^52 to 2^53 fl(pi/2) < 2^53 pi/2, where P/(pi/2) carries up to a slot of
    # rounding; half the draws lie within 4 ulp of a slot boundary, where only the slot's own d decides
    rng = random.Random(seed)
    for _ in range(400):
        P = math.exp(rng.uniform(math.log(2.0**52), math.log(2.0**53 * (math.pi / 2.0))))
        if rng.random() < 0.5:
            with mpmath.workdps(40):
                boundary = float(int(P / (math.pi / 2.0)) * mpmath.pi / 2)
            P = min(boundary + rng.randint(-4, 4) * math.ulp(boundary), 2.0**53 * (math.pi / 2.0))
        assert _ladder_size(P) == _slots_40_digits(P), P.hex()


def test_a_count_past_slot_2_53_is_given_as_the_estimate_it_is():
    # at P = 9.540197383106624e17 (k_max = 1 at U = 1/2, so P = q) the ceiling of P/(pi/2) is 53 slots
    # above the 40-digit count: the refusals give it to 6 digits, and no slot past 2^53 is solved
    P = 9.540197383106624e17
    well, truth = square_well(0.5, P), _slots_40_digits(P)
    assert (truth, _ladder_size(P) - truth) == (607347828637513419, 53)
    with pytest.raises(DomainError, match=r"the ladder holds about 6\.07348e\+17 states, more than"):
        bound_state_energies(well)
    with pytest.raises(DomainError, match=r"holds about 3\.03674e\+17 states"):
        bound_state_energies(well, parity="even")
    with pytest.raises(DomainError, match=r"state index -1 out of range; the well holds about 6\.07348e\+17 states"):
        bound_state(well, index=-1)
    for index in (2**53, 2**53 + 1, truth - 1):  # 2^53 + 1 solved slot 2^53 and printed it as odd
        with pytest.raises(DomainError, match=f"state {index} lies past slot 2\\^53"):
            bound_state(well, index=index)
    state = bound_state(well, index=2**53 - 1)
    assert state.parity == "odd" and max(state_errors(state, 2**53 - 1, 0.5, 1.0, P)[:2]) <= 2e-15


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
        assert max(_scaled_bracket(s, self.Q, k_max) for s in ladder) <= 1e-13

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
            assert abs(ladder[i].k - root) <= 1e-12, i

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
            assert abs(residual) <= 1e-13, i

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


def _angle_errors(ladder, pot, units):
    """The largest relative error of k, kappa and E over ``ladder`` against the angle oracle."""
    k_max, P = well_p(pot.U, pot.q, units)
    return max(max(state_errors(state, i, pot.U, k_max, P)) for i, state in enumerate(ladder))


class TestWellScalesWhereSquaresOverflow:
    def test_kappa_where_k_max_squared_overflows(self):
        # k_max = 1.4e160: k_max^2 overflows, which the angle solve never forms
        pot, units = square_well(1e300, 3e-160), Units(hbar=1e-10)
        q, k_max, _ = _well_scales(pot, units)
        assert k_max == pytest.approx(_k_max_40(1e300, units), rel=1e-15)
        ladder = bound_state_energies(pot, units)
        assert len(ladder) == 3
        assert list(ladder) == [bound_state(pot, units, i) for i in range(3)]
        assert _angle_errors(ladder, pot, units) <= 2e-15
        for state in ladder:
            assert abs(matching_residual(state, q)) <= 4.0 * math.ulp(state.k)

    @pytest.mark.parametrize("U, hbar", [(1.1e308, 1.0), (1e300, 1e-50), (1.4e308, 1e-154)])
    def test_ladder_kappa_matches_the_angle_root_at_the_top_of_the_double_range(self, U, hbar):
        # k_max = 1.5e154, 1.4e200 and 1.7e308: k_max^2 overflows, and k_max + k at the last
        units = Units(hbar=hbar)
        pot = square_well(U, 1.25 * math.pi / _k_max_40(U, units))
        q, k_max, _ = _well_scales(pot, units)
        assert k_max == pytest.approx(_k_max_40(U, units), rel=1e-15)
        ladder = bound_state_energies(pot, units)
        assert len(ladder) == _ladder_size(k_max * q) == 3
        for i, state in enumerate(ladder):
            assert state == bound_state(pot, units, i)
        assert _angle_errors(ladder, pot, units) <= 2e-15

    def test_ceiling_where_2mU_overflows(self):
        pot, units = square_well(1e308, 1e-152), Units()
        q, k_max, _ = _well_scales(pot, units)
        assert k_max == pytest.approx(_k_max_40(1e308, units), rel=1e-15)
        ladder = bound_state_energies(pot, units)
        assert len(ladder) == _ladder_size(k_max * q) == 91
        for i in (0, 1, 45, 89, 90):
            state = ladder[i]
            assert state == bound_state(pot, units, i)
            assert max(state_errors(state, i, pot.U, k_max, k_max * q)) <= 2e-15
            assert 0.0 < state.E <= pot.U

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
    """Slots far narrower than 1e-13 in k keep the relative digits of their k."""

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
        # k_max = 1 and P = q: the ladder ends with the last slot starting below P.
        assert len(ladder) in (n, n + 1)
        with mpmath.workdps(40):
            assert (len(ladder) - 1) * mpmath.pi / 2 < q <= len(ladder) * mpmath.pi / 2
        assert all(0.0 < s.kappa and s.k <= 1.0 for s in ladder)
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
    monkeypatch.setattr(potential, "_slot_root", lambda *args: pytest.fail("a slot was solved"))
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


# passes are 2,048 slots: one slot and a pass one short of the scalar limit (solved slot by slot), the limit,
# a pass less one, one exact pass, one slot over, a full pass and one just short of the limit, two passes and one over
_SLOT_COUNTS = (1, _SCALAR_SLOTS - 1, _SCALAR_SLOTS, 2047, 2048, 2049, _LADDER_PASS + _SCALAR_SLOTS - 1, 4097)


@given(
    slots=st.sampled_from(_SLOT_COUNTS),
    k_max=st.one_of(st.floats(0.5, 500.0), st.floats(600.0, 1e5)),
    fill=st.one_of(st.floats(0.02, 0.98), st.floats(1e-12, 1e-10)),  # the second: a top state just under the top
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
    size = _ladder_size(well_p(pot.U, pot.q, units)[1])
    assert size in (slots - 1, slots, slots + 1)  # rounding of k_max q can move one slot boundary
    indices = range(1 if parity == "odd" else 0, size, 1 if parity == "both" else 2)
    ladder = bound_state_energies(pot, units, parity)
    assert len(ladder) == len(indices)
    # both ends, both sides of every pass boundary, and a spread in between
    checked = {0, 1, len(indices) - 2, len(indices) - 1, *range(0, len(indices), 97)}
    checked |= {j for j in range(len(indices)) if j % 2048 in (0, 1, 2046, 2047)}
    for j in sorted(j for j in checked if 0 <= j < len(indices)):
        assert _fields(ladder[j]) == _fields(bound_state(pot, units, indices[j])), indices[j]


def test_the_ladder_evaluates_no_trigonometric_function(monkeypatch):
    # sin and versin are polynomials in + and *, so np.sin and math.sin, which may differ in the
    # last bit, cannot part the arrays from bound_state
    def fail(*args):
        raise AssertionError("a trigonometric function was called")

    for name in ("sin", "cos", "tan", "arctan2"):
        monkeypatch.setattr(np, name, fail)
    for name in ("sin", "cos", "tan", "atan2"):
        monkeypatch.setattr(potential.math, name, fail)
    for parity in ("both", "odd"):
        pot, units = _well_with_slots(2049, 60.0, 0.5, 1.0, 1.0)
        ladder = bound_state_energies(pot, units, parity)
        first, stride = (0, 1) if parity == "both" else (1, 2)
        assert [_fields(s) for s in ladder] == [
            _fields(bound_state(pot, units, i)) for i in range(first, 2049, stride)
        ]


def _every_state_is_its_bound_state(pot, units, parity="both"):
    first, stride = {"both": (0, 1), "even": (0, 2), "odd": (1, 2)}[parity]
    size = _ladder_size(well_p(pot.U, pot.q, units)[1])
    ladder = bound_state_energies(pot, units, parity)
    assert [_fields(s) for s in ladder] == [_fields(bound_state(pot, units, i)) for i in range(first, size, stride)]
    return ladder


@pytest.mark.parametrize("k_max", [60.0, 5e4])
def test_every_state_of_a_4097_slot_ladder_is_bound_state_of_its_slot(k_max):
    assert len(_every_state_is_its_bound_state(*_well_with_slots(4097, k_max, 0.5, 1.0, 1.0))) == 4097


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
    # the kernel sees floats from bound_state and from a pass below _SCALAR_SLOTS, and arrays
    # only from the longer passes: the slots of each, split where the roots cross pi/4
    pot, units = _well_with_slots(slots, 60.0, 0.5, 1.0, 1.0)
    seen = []
    slot_root = potential._slot_root
    monkeypatch.setattr(
        potential, "_slot_root", lambda P, i, *rest: seen.append(np.ndim(i) and i.tolist()) or slot_root(P, i, *rest)
    )
    assert len(_every_state_is_its_bound_state(pot, units)) == slots
    got = [i for i in seen if i != 0]
    assert [sum(got[j : j + 2], []) for j in range(0, len(got), 2)] == [[float(i) for i in batch] for batch in arrays]


@pytest.mark.parametrize(
    "well, plain",
    [
        ((4097, 60.0, 0.5, 1.0, 1.0), True),  # solved and built as arrays
        ((_SCALAR_SLOTS + 16, 3.0, 0.5, 1e-70, 1.0), False),  # hbar outside the ordinary box: solved as arrays
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
