"""Region bases, the bilinear momentum field, and the probability-density states."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from trdwell.coverage import _density_support
from trdwell.errors import DegenerateMicrostate, DomainError
from trdwell.microstate import MONOCHROMATIC, BasisRescale, RawCoefficients, normalize, transform_basis
from trdwell.potential import Units, bound_state, kinematics_from_energies, square_well, step_barrier
from trdwell.times import _slice_peak, libration_supremum_bound
from trdwell.trajectory import sample_trajectory
from trdwell.wavefield import (
    CopenhagenState,
    RegionBasis,
    barrier_scattering,
    bilinear,
    bilinear_with_derivatives,
    canonical_basis,
    conjugate_momentum,
    copenhagen_density,
    find_nodes,
    gauge_factor,
    momentum_derivatives,
    qshje_residual,
    well_eigenstate,
)

_admissible = st.tuples(st.floats(0.05, 20.0), st.floats(-1.95, 1.95)).map(
    lambda t: normalize(t[0], (1.0 + t[1] * t[1] / 4.0) / t[0], t[1])
)


class TestRegionBasis:
    def test_forbidden_values_at_origin(self):
        basis = RegionBasis("forbidden", 0.8)
        assert basis.values(0.0) == (1.0, 1.0)
        assert basis.wronskian == pytest.approx(1.6, rel=1e-15)

    def test_free_values(self):
        basis = RegionBasis("free", 0.6)
        p1, p2 = basis.values(0.5)
        assert p1 == pytest.approx(math.sin(0.3), rel=1e-15)
        assert p2 == pytest.approx(math.cos(0.3), rel=1e-15)
        assert basis.wronskian == pytest.approx(-0.6, rel=1e-15)

    @pytest.mark.parametrize("region,w", [("free", 0.6), ("forbidden", 0.8)])
    def test_wronskian_constant_in_x(self, region, w):
        basis = RegionBasis(region, w, alpha=1.7, beta=-0.3)
        for x in (-2.0, -0.1, 0.0, 0.6, 3.0):
            p1, p2 = basis.values(x)
            d1, d2 = basis.derivatives(x)
            assert p1 * d2 - d1 * p2 == pytest.approx(basis.wronskian, rel=1e-12)

    @pytest.mark.parametrize("region,w", [("free", 0.6), ("forbidden", 0.8)])
    def test_solutions_satisfy_their_equation(self, region, w):
        # phi'' = curvature * phi, by central differences
        basis = RegionBasis(region, w)
        h = 1e-5
        for x in (-1.0, 0.3, 2.0):
            for pick in (0, 1):
                fm = basis.values(x - h)[pick]
                f0 = basis.values(x)[pick]
                fp = basis.values(x + h)[pick]
                second = (fp - 2.0 * f0 + fm) / (h * h)
                assert second == pytest.approx(basis.curvature * f0, rel=1e-5, abs=1e-8)
        sign = -1.0 if region == "free" else 1.0
        assert basis.curvature == pytest.approx(sign * w * w, rel=1e-15)

    def test_rejects_bad_wavenumber_and_region(self):
        with pytest.raises(DomainError):
            RegionBasis("free", 0.0)
        with pytest.raises(DomainError):
            RegionBasis("free", -1.0)
        with pytest.raises(DomainError):
            RegionBasis("sideways", 1.0)

    def test_canonical_basis_uses_the_region_wavenumber(self, kin):
        assert canonical_basis("free", kin).wavenumber == kin.k
        assert canonical_basis("forbidden", kin).wavenumber == kin.kappa


class TestConjugateMomentum:
    def test_free_monochromatic_is_flat(self, kin, units):
        basis = canonical_basis("free", kin)
        for x in np.linspace(-3.0, 3.0, 7):
            assert conjugate_momentum(x, MONOCHROMATIC, basis, units) == pytest.approx(
                units.hbar * kin.k, rel=1e-14
            )

    def test_forbidden_monochromatic_sech_profile(self, kin, units):
        basis = canonical_basis("forbidden", kin)
        for x in np.linspace(0.0, 4.0, 9):
            expected = units.hbar * kin.kappa / math.cosh(2.0 * kin.kappa * x)
            assert conjugate_momentum(x, MONOCHROMATIC, basis, units) == pytest.approx(
                expected, rel=1e-13
            )

    @given(_admissible, st.floats(-3.0, 3.0), st.sampled_from(["free", "forbidden"]))
    @settings(max_examples=200, deadline=None)
    def test_always_positive(self, ms, x, region):
        kin = kinematics_from_energies(0.18, 0.5)
        value = conjugate_momentum(x, ms, canonical_basis(region, kin), kin.units)
        assert value > 0.0 and math.isfinite(value)

    def test_degenerate_raw_coefficients_rejected(self, kin, units):
        basis = canonical_basis("free", kin)
        with pytest.raises(DegenerateMicrostate):
            conjugate_momentum(0.3, RawCoefficients(1.0, 1.0, 2.0), basis, units)

    @given(
        _admissible,
        st.floats(-2.0, 2.0),
        st.floats(0.1, 5.0),
        st.floats(0.1, 5.0),
        st.sampled_from([1.0, -1.0]),
        st.sampled_from(["free", "forbidden"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_gauge_invariance_under_basis_rescale(self, ms, x, alpha, beta, flip, region):
        # Changing the basis and transporting the coefficients leaves W_x alone.
        kin = kinematics_from_energies(0.18, 0.5)
        basis = canonical_basis(region, kin)
        reference = conjugate_momentum(x, ms, basis, kin.units)
        raw, _ = transform_basis(ms, BasisRescale(alpha * flip, beta))
        moved = conjugate_momentum(x, raw, basis.rescaled(alpha * flip, beta), kin.units)
        assert moved == pytest.approx(reference, rel=1e-12)

    def test_gauge_factor_of_raw_triple(self):
        raw, factor = transform_basis(normalize(2.0, 1.0, 2.0), BasisRescale(2.0, 0.5))
        assert gauge_factor(raw) * abs(factor) == pytest.approx(1.0, rel=1e-12)


    def test_a_numerator_below_the_normal_doubles_is_a_domain_error(self):
        # hbar |W0| g is about 1.6e-308, a subnormal: the plain product gave W_x = 1.4142135508187686e-308,
        # 8e-9 away from sqrt(2 m E) = 1.4142135623730951e-308
        kin = kinematics_from_energies(1e-316, 1.0, Units(hbar=1e-300, mass=1e-300))
        basis, x = canonical_basis("free", kin), 0.3 / kin.k
        message = r"hbar \|W0\| g is about 10\^-307.8: it underflows the normal doubles"
        for call in (conjugate_momentum, momentum_derivatives):
            with pytest.raises(DomainError, match=message):
                call(x, MONOCHROMATIC, basis, kin.units)
        with pytest.raises(DomainError, match=message):
            sample_trajectory((x, 2.0 * x), 2, MONOCHROMATIC, basis, kin)

    @pytest.mark.parametrize("region", ["free", "forbidden"])
    def test_a_wronskian_that_underflows_to_zero_is_a_domain_error(self, region, units):
        # W0 = -w alpha beta or 2 w alpha beta rounds to 0 while D = 1e150 (phi1^2 + phi2^2) is a double:
        # the plain product gave W_x = 0.0, and W_xx divided by D^2 = 0.0
        ms, basis = RawCoefficients(1e150, 1e150, 0.0), RegionBasis(region, 1.0, 1e-200, 1e-200)
        for call in (conjugate_momentum, momentum_derivatives):
            with pytest.raises(DomainError, match=r"hbar \|W0\| g: factor 0.0 is not a positive double"):
                call(0.1, ms, basis, units)

    @pytest.mark.parametrize("hbar", [1e-210, 1e210])
    def test_a_numerator_outside_the_ordinary_box_keeps_the_plain_bits(self, hbar):
        # hbar |W0| = sqrt(2 m E) is ordinary, so the exact product rounds as the plain one does
        kin = kinematics_from_energies(0.18, 0.5, Units(hbar=hbar))
        ms = normalize(2.0, 1.0, 0.7)
        for region in ("free", "forbidden"):
            basis = canonical_basis(region, kin)
            x = 0.4 / basis.wavenumber
            plain = hbar * abs(basis.wronskian) * gauge_factor(ms) / bilinear(ms, basis, x)
            assert conjugate_momentum(x, ms, basis, kin.units) == plain
            assert momentum_derivatives(x, ms, basis, kin.units)[0] == plain


class TestMomentumDerivatives:
    @pytest.mark.parametrize("region", ["free", "forbidden"])
    @pytest.mark.parametrize("triple", [(1.0, 1.0, 0.0), (2.0, 1.0, 2.0), (0.5, 2.125, -0.5)])
    def test_against_finite_differences(self, kin, units, region, triple):
        ms = normalize(*triple)
        basis = canonical_basis(region, kin)
        h = 1e-5
        for x in (-0.7, 0.2, 1.1):
            W_x, W_xx, W_xxx = momentum_derivatives(x, ms, basis, units)
            assert W_x == pytest.approx(conjugate_momentum(x, ms, basis, units), rel=1e-14)
            fd_1 = (
                conjugate_momentum(x + h, ms, basis, units)
                - conjugate_momentum(x - h, ms, basis, units)
            ) / (2.0 * h)
            assert W_xx == pytest.approx(fd_1, rel=2e-8, abs=1e-10)
            fd_2 = (
                momentum_derivatives(x + h, ms, basis, units)[1]
                - momentum_derivatives(x - h, ms, basis, units)[1]
            ) / (2.0 * h)
            assert W_xxx == pytest.approx(fd_2, rel=2e-8, abs=1e-10)

    def test_denominator_derivatives_consistent(self, kin):
        ms = normalize(2.0, 1.0, 2.0)
        basis = canonical_basis("forbidden", kin)
        h = 1e-6
        for x in (0.0, 0.8):
            D, Dp, Dpp = bilinear_with_derivatives(ms, basis, x)
            assert D == pytest.approx(bilinear(ms, basis, x), rel=1e-14)
            fd = (bilinear(ms, basis, x + h) - bilinear(ms, basis, x - h)) / (2.0 * h)
            assert Dp == pytest.approx(fd, rel=1e-7)
            fd2 = (
                bilinear_with_derivatives(ms, basis, x + h)[1]
                - bilinear_with_derivatives(ms, basis, x - h)[1]
            ) / (2.0 * h)
            assert Dpp == pytest.approx(fd2, rel=1e-7)


class TestStationarityResidual:
    @pytest.mark.parametrize("region", ["free", "forbidden"])
    @pytest.mark.parametrize("triple", [(1.0, 1.0, 0.0), (2.0, 1.0, 2.0), (1.5, 0.7, -0.4)])
    def test_residual_vanishes(self, kin, region, triple):
        ms = normalize(*triple)
        basis = canonical_basis(region, kin)
        for x in (-1.3, 0.0, 0.4, 2.2):
            assert abs(qshje_residual(x, ms, basis, kin)) <= 1e-12 * kin.E

    def test_quantum_term_is_load_bearing(self, kin, units):
        # The classical part alone misses by O(E); only the full form closes.
        ms = normalize(2.0, 1.0, 2.0)
        basis = canonical_basis("forbidden", kin)
        x = 0.9
        W_x = conjugate_momentum(x, ms, basis, units)
        classical = W_x * W_x / 2.0 + (kin.kappa**2) / 2.0
        assert abs(classical) > 0.01 * kin.E
        assert abs(qshje_residual(x, ms, basis, kin)) <= 1e-12 * kin.E

    def test_rejects_mismatched_basis(self, kin):
        wrong = RegionBasis("forbidden", 2.0 * kin.kappa)
        with pytest.raises(DomainError):
            qshje_residual(0.5, MONOCHROMATIC, wrong, kin)


class TestBarrierScattering:
    def test_intensities(self, kin):
        state = barrier_scattering(kin)
        # k = 0.6, kappa = 0.8: transmitted intensity 4k^2/(k^2+kappa^2) = 1.44
        assert state.density(0.0) == pytest.approx(1.44, rel=1e-12)
        assert abs(state._reflection()) == pytest.approx(1.0, rel=1e-12)

    def test_forbidden_side_decay(self, kin):
        state = barrier_scattering(kin)
        t2 = state.density(0.0)
        for x in (0.5, 1.0, 3.0):
            assert state.density(x) == pytest.approx(t2 * math.exp(-2.0 * kin.kappa * x), rel=1e-12)

    def test_density_continuous_at_the_wall(self, kin):
        state = barrier_scattering(kin)
        assert state.density(-1e-9) == pytest.approx(state.density(1e-9), rel=1e-6)

    def test_incident_side_standing_wave(self, kin):
        # total reflection: full-contrast fringes with exact zeros on the left
        state = barrier_scattering(kin)
        delta = math.atan2(kin.kappa, kin.k)
        node = (math.pi / 2.0 - delta - 10.0 * math.pi) / kin.k
        assert node < 0.0
        assert state.density(node) <= 1e-24
        crest = node - math.pi / (2.0 * kin.k)
        assert state.density(crest) == pytest.approx(4.0, rel=1e-9)

    def test_requires_matching_potential(self, kin):
        with pytest.raises(DomainError):
            barrier_scattering(kin, step_barrier(0.7))
        with pytest.raises(DomainError):
            barrier_scattering(kin, square_well(0.5, 1.0))


class TestWellEigenstates:
    def test_normalized_to_unit_probability(self, well, units):
        for index in (0, 1):
            state = well_eigenstate(well, units, index)
            total, err = quad(
                state.density,
                -well.q - 40.0,
                well.q + 40.0,
                points=[-well.q, well.q],
                limit=400,
                epsabs=1e-12,
                epsrel=1e-12,
            )
            assert total == pytest.approx(1.0, abs=1e-9)
            assert err < 1e-9

    @pytest.mark.parametrize("index,parity", [(0, "even"), (1, "odd")])
    def test_parity_labels_and_symmetry(self, well, units, index, parity):
        state = well_eigenstate(well, units, index)
        assert state.parity == parity
        for x in (0.3, 1.1, 2.4):
            assert state.density(-x) == pytest.approx(state.density(x), rel=1e-12)
            psi_m, psi_p = state.wavefunction(-x), state.wavefunction(x)
            if parity == "even":
                assert psi_m.real == pytest.approx(psi_p.real, rel=1e-12)
            else:
                assert psi_m.real == pytest.approx(-psi_p.real, rel=1e-12)

    def test_density_and_slope_continuous_at_the_walls(self, well, units):
        for index in (0, 1):
            state = well_eigenstate(well, units, index)
            for wall in (well.q, -well.q):
                eps = 1e-7
                inner = state.density(wall - math.copysign(eps, wall))
                outer = state.density(wall + math.copysign(eps, wall))
                assert inner == pytest.approx(outer, rel=1e-5)
                h = 1e-6
                slope_in = (
                    state.density(wall - math.copysign(h, wall)) - state.density(wall - math.copysign(3 * h, wall))
                ) / (2 * h)
                slope_out = (
                    state.density(wall + math.copysign(3 * h, wall)) - state.density(wall + math.copysign(h, wall))
                ) / (2 * h)
                assert slope_in == pytest.approx(slope_out, rel=1e-3, abs=1e-8)

    def test_density_everywhere_nonnegative_and_finite(self, well, units):
        state = well_eigenstate(well, units, 1)
        for x in np.linspace(-8.0, 8.0, 81):
            rho = copenhagen_density(state, x)
            assert rho >= 0.0 and math.isfinite(rho)
        with pytest.raises(DomainError):
            copenhagen_density(state, math.inf)

    def test_index_out_of_range(self, well, units):
        with pytest.raises(DomainError):
            well_eigenstate(well, units, 2)
        with pytest.raises(DomainError):
            well_eigenstate(well, units, -1)


class TestNodes:
    def test_ground_state_has_none(self, well, units):
        state = well_eigenstate(well, units, 0)
        assert find_nodes(state, (-well.q, well.q)) == ()

    def test_first_excited_has_one_at_the_center(self, well, units):
        state = well_eigenstate(well, units, 1)
        nodes = find_nodes(state, (-well.q, well.q))
        assert len(nodes) == 1
        assert abs(nodes[0]) <= 1e-10

    def test_node_is_a_genuine_density_zero(self, well, units):
        state = well_eigenstate(well, units, 1)
        (node,) = find_nodes(state, (-well.q, well.q))
        assert copenhagen_density(state, node) <= 1e-20
        assert copenhagen_density(state, node - 1e-3) > 0.0
        assert copenhagen_density(state, node + 1e-3) > 0.0

    def test_scattering_states_are_refused(self, kin):
        with pytest.raises(DomainError):
            find_nodes(barrier_scattering(kin), (-1.0, 1.0))


class TestClosedFormNodes:
    # 40 states: k_max q = 39.5 pi/2 with k_max = 10.
    Q = 39.5 * math.pi / 20.0

    @pytest.fixture(scope="class")
    def states(self):
        well = square_well(50.0, self.Q)
        return [well_eigenstate(well, Units(), i) for i in range(40)]

    @staticmethod
    def closed_form(state, q):
        # Interior nodes: k x = j pi (odd) or (j + 1/2) pi (even), |x| < q.
        k, offset = state.kinematics.k, (0.0 if state.parity == "odd" else 0.5)
        j_max = int(k * q / math.pi) + 1
        xs = [(j + offset) * math.pi / k for j in range(-j_max - 1, j_max + 1)]
        return [x for x in xs if abs(x) < q]

    def test_every_state_has_its_index_in_nodes(self, states):
        for i, state in enumerate(states):
            nodes = find_nodes(state, (-self.Q, self.Q))
            assert len(nodes) == i
            assert nodes == pytest.approx(self.closed_form(state, self.Q), abs=1e-12 * self.Q)
            # The wavefunction changes sign across each node and nowhere else.
            cuts = [-self.Q, *nodes, self.Q]
            signs = [state.wavefunction(0.5 * (a + b)).real > 0.0 for a, b in zip(cuts, cuts[1:])]
            assert all(s != t for s, t in zip(signs, signs[1:]))

    def test_density_at_nodes_is_below_the_floor(self, states):
        for state in states:
            nodes = find_nodes(state, (-self.Q, self.Q))
            for node in nodes:
                assert copenhagen_density(state, node) < 1e-20
                assert not _density_support(state)(node)
            cuts = [-self.Q, *nodes, self.Q]
            assert all(map(_density_support(state), (0.5 * (a + b) for a, b in zip(cuts, cuts[1:]))))

    def test_intervals_reaching_outside_the_well(self, states):
        for state in states:
            inside = find_nodes(state, (-self.Q, self.Q))
            assert find_nodes(state, (-3.0 * self.Q, 2.0 * self.Q)) == inside
            assert find_nodes(state, (self.Q, 5.0 * self.Q)) == ()
            assert find_nodes(state, (-5.0 * self.Q, -self.Q)) == ()
            assert find_nodes(state, (-1e308, 1e308)) == inside
            assert find_nodes(state, (1e307, 1e308)) == ()

    def test_clipping_intervals_keep_the_inner_nodes(self, states):
        lo, hi = -0.37 * self.Q, 0.61 * self.Q
        for state in states:
            inside = find_nodes(state, (-self.Q, self.Q))
            assert find_nodes(state, (lo, hi)) == tuple(x for x in inside if lo < x < hi)

    def test_nodes_on_the_endpoints_are_excluded(self, states):
        for state in states[4:]:
            inside = find_nodes(state, (-self.Q, self.Q))
            assert find_nodes(state, (inside[1], inside[3])) == (inside[2],)
            assert find_nodes(state, (inside[0], self.Q)) == inside[1:]
        odd = states[5]
        assert 0.0 in find_nodes(odd, (-self.Q, self.Q))
        assert 0.0 not in find_nodes(odd, (0.0, self.Q)) + find_nodes(odd, (-self.Q, 0.0))

    def test_the_ground_state_of_a_deep_well_has_no_nodes(self):
        # k q lies within 1e-15 of pi/2, so the wall phases +-1/2 give x = +-6.999999999999999, under q:
        # the node count, not |x| < q, must keep them out
        state = well_eigenstate(square_well(1e30, 7.0), Units(), 0)
        assert find_nodes(state, (-7.0, 7.0)) == ()
        assert find_nodes(state, (-14.0, 14.0)) == ()

    @pytest.mark.parametrize("seed", range(3))
    def test_every_state_of_a_deep_well_has_its_index_in_nodes(self, seed):
        # state n has n nodes whatever the depth; each is a node of the density view too
        rng = random.Random(seed)
        for _ in range(100):
            q = 10.0 ** rng.uniform(-2.0, 3.0)
            well = square_well(10.0 ** rng.uniform(8.0, 200.0), q)  # at least 90 states
            for index in (0, 1, 2, 3, rng.randrange(4, 90)):
                state = well_eigenstate(well, Units(), index)
                nodes = find_nodes(state, (-2.0 * q, 2.0 * q))
                assert len(nodes) == index, (well, index, nodes)
                supported = _density_support(state)
                assert not any(map(supported, nodes)), (well, index)


@pytest.mark.parametrize("q", [1.11133, 2.2246300000000003, 3.33793])
def test_an_eigenstate_just_below_the_top_keeps_its_ladder_wavenumbers(q):
    # kappa/k_max is about 1e-3 here: the bundle keeps the ladder's k and kappa and r = kappa/k
    pot = square_well(1.0, q)
    index = int(2.0 * math.sqrt(2.0) * q / math.pi)
    state = well_eigenstate(pot, Units(), index)
    ladder = bound_state(pot, Units(), index)
    kin = state.kinematics
    assert (kin.k, kin.kappa, kin.r) == (ladder.k, ladder.kappa, ladder.kappa / ladder.k)
    assert kin.kappa < 2e-2 * kin.k and (kin.E, kin.U) == (ladder.E, 1.0)
    # the times take r = Y/X from the energies, so the slice peak and the bound share one r
    assert libration_supremum_bound(kin, q) == pytest.approx(math.sqrt(2.0) * _slice_peak(kin, q), rel=1e-15)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda kin, well: canonical_basis("sideways", kin), "unknown region 'sideways'"),
        (lambda kin, well: CopenhagenState(well, kin, "tunnelling"), "unknown state kind 'tunnelling'"),
        (lambda kin, well: CopenhagenState(well, kin, "barrier-scattering"), "requires a step potential"),
        (lambda kin, well: CopenhagenState(step_barrier(0.5), kin, "well-eigenstate", "even", 0), "square-well"),
        (lambda kin, well: CopenhagenState(well, kin, "well-eigenstate", "even"), "carry a parity and a ladder index"),
        (lambda kin, well: find_nodes(well_eigenstate(well, Units(), 1), (1.0, -1.0)), "lo < hi"),
        (lambda kin, well: find_nodes(well_eigenstate(well, Units(), 1), (-math.inf, 1.0)), "finite"),
        (lambda kin, well: find_nodes(well_eigenstate(well, Units(), 1), (0.0, math.nan)), "finite"),
    ],
    ids=[
        "unknown-region", "unknown-state-kind", "scattering-in-a-well", "eigenstate-of-a-step",
        "eigenstate-without-index", "reversed-interval", "infinite-interval", "nan-interval",
    ],
)
def test_each_refusal_of_the_wavefield_layer_is_a_domain_error(kin, well, call, message):
    with pytest.raises(DomainError, match=message):
        call(kin, well)


@pytest.mark.parametrize("region", ["free", "forbidden"])
def test_wavenumber_gradient_is_the_derivative_of_the_values_in_w(region):
    x, w, h = 0.7, 0.8, 1e-6
    basis = RegionBasis(region, w, 1.3, -0.6)
    up, down = RegionBasis(region, w + h, 1.3, -0.6).values(x), RegionBasis(region, w - h, 1.3, -0.6).values(x)
    for gradient, hi, lo in zip(basis.wavenumber_gradient(x), up, down):
        assert gradient == pytest.approx((hi - lo) / (2.0 * h), rel=1e-9)
