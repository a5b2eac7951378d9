"""Reduced action, energy-derivative flight times, speeds and the divergence onset."""

import math
import random
import statistics
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from trdwell.errors import DegenerateMicrostate, DomainError, ScanNotSettled, TrdwellError, _Record
from trdwell.kinematics import _NORMAL
from trdwell.microstate import (
    MONOCHROMATIC,
    BasisRescale,
    Microstate,
    RawCoefficients,
    gauge_factor,
    normalize,
    transform_basis,
)
import trdwell.onset as onset_module
import trdwell.trajectory as trajectory_module
import trdwell.wavefield as wavefield_module
from trdwell.onset import _speed_bound
from trdwell.potential import Units, kinematics_from_energies
from trdwell.trajectory import (
    TrajectorySample,
    _time_scale,
    divergence_onset,
    momentum_energy_derivative,
    reduced_action,
    sample_trajectory,
    speed_at,
    time_of_flight,
)
from trdwell.wavefield import (
    RegionBasis,
    _exp,
    _form,
    bilinear_with_derivatives,
    canonical_basis,
    checked_denominator,
    conjugate_momentum,
    momentum_derivatives,
    qshje_residual,
)


def _mono_action(x, kin):
    # closed form of the monochromatic forbidden-region action from 0:
    # integral of hbar*kappa*sech(2*kappa*xi) = (hbar/2) * atan(sinh(2*kappa*x))
    return 0.5 * kin.units.hbar * math.atan(math.sinh(2.0 * kin.kappa * x))


def _mono_flight(x, kin):
    # d(action)/dE at fixed coefficients: -(m x / (hbar kappa)) * sech(2 kappa x)
    u = 2.0 * kin.kappa * x
    return -kin.units.mass * x / (kin.units.hbar * kin.kappa * math.cosh(u))


def _mp_parts(ms, basis, kin):
    """40-digit basis, gauge-folded coefficients, N and dw/dE of one region."""
    a, b, c = (mpmath.mpf(v) for v in (ms.a, ms.b, ms.c))
    al, be, w = mpmath.mpf(basis.alpha), mpmath.mpf(basis.beta), mpmath.mpf(basis.wavenumber)
    hbar, m = mpmath.mpf(kin.units.hbar), mpmath.mpf(kin.units.mass)
    if basis.region == "free":
        phi = lambda xi, w=w: (al * mpmath.sin(w * xi), be * mpmath.cos(w * xi))  # noqa: E731
        W0, dw_dE = w * abs(al * be), m / (hbar**2 * mpmath.mpf(kin.k))
    else:
        phi = lambda xi, w=w: (al * mpmath.exp(-w * xi), be * mpmath.exp(w * xi))  # noqa: E731
        W0, dw_dE = 2 * w * abs(al * be), -m / (hbar**2 * mpmath.mpf(kin.kappa))
    N_over_w = hbar * W0 / w * mpmath.sqrt(a * b - c * c / 4)
    return (a, b, c), phi, w, N_over_w, dw_dE, hbar


def _mp_action_and_time(x, x_ref, ms, basis, kin):
    """Quadrature oracle: 40-digit integrals of W_x and of its energy derivative.

    W_x = N(w)/D(w, xi) with N proportional to w, so at fixed position
    dW_x/dE = dw/dE * d/dw [N/D], taken here by 40-digit differentiation.
    """
    with mpmath.workdps(40):
        (a, b, c), phi, w0, N_over_w, dw_dE, _ = _mp_parts(ms, basis, kin)

        def W_x(xi, w):
            p1, p2 = phi(xi, w)
            return N_over_w * w / (a * p1 * p1 + b * p2 * p2 + c * p1 * p2)

        lo = mpmath.mpf(x_ref)
        if math.isinf(x):
            nodes = [lo + s / w0 for s in (0, 1, 4, 16)] + [mpmath.inf]
        else:
            pieces = int(abs(x - x_ref) * float(w0)) + 1
            nodes = [lo + (mpmath.mpf(x) - lo) * j / pieces for j in range(pieces + 1)]
        action = mpmath.quad(lambda xi: W_x(xi, w0), nodes)
        slope = lambda xi: mpmath.diff(lambda w: W_x(xi, w), w0)  # noqa: E731
        time = mpmath.quad(slope, nodes) * dw_dE
        return action, time


def _mp_primitive(x, x_ref, ms, basis, kin):
    """Closed-form oracle: the arctan primitive at 40 digits, its time by d/dw."""
    with mpmath.workdps(40):
        (a, b, c), phi, w0, N_over_w, dw_dE, hbar = _mp_parts(ms, basis, kin)
        al, be = mpmath.mpf(basis.alpha), mpmath.mpf(basis.beta)
        a, b, c = a * al**2, b * be**2, c * al * be
        g = mpmath.sqrt(a * b - c * c / 4)

        def F(xi, w):
            if basis.region == "free":
                theta = w * xi
                j = mpmath.floor(theta / mpmath.pi + mpmath.mpf(1) / 2)
                return mpmath.atan((a * mpmath.tan(theta) + c / 2) / g) + j * mpmath.pi
            if xi == mpmath.inf:
                return mpmath.pi / 2
            return mpmath.atan((b * mpmath.exp(2 * w * xi) + c / 2) / g)

        xi = mpmath.inf if math.isinf(x) else mpmath.mpf(x)
        S = lambda w: F(xi, w) - F(mpmath.mpf(x_ref), w)  # noqa: E731
        return hbar * S(w0), hbar * mpmath.diff(S, w0) * dw_dE


# (E/U, U, hbar, mass): ordinary, E -> 0 with r >> 1, and U - E = 1e-12 U with r << 1
_SCENARIOS = {
    "mid": (0.36, 0.5, 0.7, 1.3),
    "E->0": (1e-10, 2.0, 1.0, 1.0),
    "top": (1.0 - 1e-12, 3.0, 1.4, 0.6),
}


def _oracle_case(scenario, region, mode):
    E_over_U, U, hbar, mass = _SCENARIOS[scenario]
    kin = kinematics_from_energies(E_over_U * U, U, Units(hbar, mass))
    basis = canonical_basis(region, kin)
    ms = normalize(2.0, 1.0, 1.5)
    if mode == "gauge":
        raw, _ = transform_basis(ms, BasisRescale(0.6, -2.5))
        return raw, basis.rescaled(0.6, -2.5), kin
    if mode == "raw":
        return RawCoefficients(3.0, 0.5, -1.9), basis, kin
    return ms, basis, kin


# (w x_ref, w x): short and long spans, several poles of tan, a deep short
# forbidden step, and the full forbidden depth
_SPANS = {
    "free": ((0.0, 0.3), (1.1, 7.5), (-3.0, 4.0), (0.4, 40.0)),
    "forbidden": ((0.0, 0.05), (0.4, 3.0), (7.5, 7.75), (0.0, 12.0), (0.3, math.inf)),
}


def test_action_vanishes_at_the_reference(kin):
    basis = canonical_basis("forbidden", kin)
    assert reduced_action(0.7, 0.7, MONOCHROMATIC, basis, kin) == 0.0


def test_action_free_monochromatic_is_linear(kin):
    basis = canonical_basis("free", kin)
    for x in (-2.0, -0.3, 0.5, 1.7):
        expected = kin.units.hbar * kin.k * x
        assert reduced_action(x, 0.0, MONOCHROMATIC, basis, kin) == pytest.approx(
            expected, rel=1e-12
        )


def test_action_forbidden_monochromatic_closed_form(kin):
    basis = canonical_basis("forbidden", kin)
    for x in (0.25, 1.0, 2.5, 6.0):
        assert reduced_action(x, 0.0, MONOCHROMATIC, basis, kin) == pytest.approx(
            _mono_action(x, kin), rel=1e-10
        )


def test_action_is_additive_along_the_path(kin):
    basis = canonical_basis("forbidden", kin)
    ms = normalize(2.0, 1.0, 2.0)
    w02 = reduced_action(2.0, 0.0, ms, basis, kin)
    w01 = reduced_action(0.8, 0.0, ms, basis, kin)
    w12 = reduced_action(2.0, 0.8, ms, basis, kin)
    assert w01 + w12 == pytest.approx(w02, rel=1e-10)


def test_action_to_infinity_saturates(kin):
    basis = canonical_basis("forbidden", kin)
    total = reduced_action(math.inf, 0.0, MONOCHROMATIC, basis, kin)
    # the full depth integral closes at (hbar/2)(pi/2)
    assert total == pytest.approx(math.pi / 4.0, rel=1e-10)
    deep = reduced_action(30.0, 0.0, MONOCHROMATIC, basis, kin)
    assert total >= deep
    assert total - deep < 1e-12


def test_improper_integrals_restricted_to_the_forbidden_side(kin):
    for func in (reduced_action, time_of_flight):
        with pytest.raises(DomainError):
            func(math.inf, 0.0, MONOCHROMATIC, canonical_basis("free", kin), kin)
        with pytest.raises(DomainError):
            func(-math.inf, 0.0, MONOCHROMATIC, canonical_basis("forbidden", kin), kin)
        with pytest.raises(DomainError):
            func(1.0, math.inf, MONOCHROMATIC, canonical_basis("forbidden", kin), kin)


@pytest.mark.parametrize("region", ["free", "forbidden"])
def test_a_nan_position_is_a_domain_error(kin, region):
    for func in (reduced_action, time_of_flight):
        with pytest.raises(DomainError, match="x must be finite or \\+inf, got nan"):
            func(math.nan, 0.0, MONOCHROMATIC, canonical_basis(region, kin), kin)


def test_basis_must_match_kinematics(kin):
    wrong = RegionBasis("forbidden", kin.kappa * 1.5)
    with pytest.raises(DomainError):
        reduced_action(1.0, 0.0, MONOCHROMATIC, wrong, kin)


class TestFlightTime:
    def test_zero_at_reference(self, kin):
        basis = canonical_basis("forbidden", kin)
        ft = time_of_flight(0.0, 0.0, MONOCHROMATIC, basis, kin)
        assert ft.t == 0.0 and ft.orientation == 0

    def test_monochromatic_closed_form(self, kin):
        basis = canonical_basis("forbidden", kin)
        ft = time_of_flight(1.0, 0.0, MONOCHROMATIC, basis, kin)
        # m x / (hbar kappa cosh(2 kappa x)) at x = 1, kappa = 0.8
        assert ft.t == pytest.approx(0.4849727373431118, rel=1e-12)
        assert ft.orientation == -1
        for x in (0.3, 0.9, 2.0):
            ft = time_of_flight(x, 0.0, MONOCHROMATIC, basis, kin)
            raw = _mono_flight(x, kin)
            assert ft.t == pytest.approx(abs(raw), rel=1e-12)
            assert ft.orientation == int(math.copysign(1.0, raw))

    def test_free_monochromatic_is_ballistic(self, kin):
        basis = canonical_basis("free", kin)
        for x in (0.5, 2.0):
            ft = time_of_flight(x, 0.0, MONOCHROMATIC, basis, kin)
            # dW/dE = x * dk/dE * hbar = x m/(hbar k): time of flight at speed hbar k/m
            expected = x * kin.units.mass / (kin.units.hbar * kin.k)
            assert ft.t == pytest.approx(expected, rel=1e-12)
            assert ft.orientation == 1

    def test_near_the_top_matches_mpmath(self):
        # U - E = 1e-9 U: no energy step fits below the barrier, but the
        # closed form needs none.
        kin = kinematics_from_energies(0.5 * (1.0 - 1e-9), 0.5)
        basis = canonical_basis("forbidden", kin)
        for x in (1.0, 3e4):
            ft = time_of_flight(x, 0.0, MONOCHROMATIC, basis, kin)
            _, expected = _mp_action_and_time(x, 0.0, MONOCHROMATIC, basis, kin)
            assert ft.orientation == -1
            assert ft.t == pytest.approx(float(-expected), rel=1e-13, abs=0.0)


class TestSpeed:
    def test_free_monochromatic_constant(self, kin):
        basis = canonical_basis("free", kin)
        for x in (-1.0, 0.0, 2.0):
            assert speed_at(x, MONOCHROMATIC, basis, kin) == pytest.approx(
                kin.units.hbar * kin.k / kin.units.mass, rel=1e-12
            )

    def test_forbidden_frozen_values(self, kin):
        basis = canonical_basis("forbidden", kin)
        assert speed_at(1.0, MONOCHROMATIC, basis, kin) == pytest.approx(
            4.344013601899062, rel=1e-12
        )
        assert speed_at(5.0, MONOCHROMATIC, basis, kin) == pytest.approx(
            170.3405193872156, rel=1e-12
        )

    def test_forbidden_closed_form(self, kin):
        # v = (hbar kappa / m) cosh(u) / |1 - u tanh u| with u = 2 kappa x
        basis = canonical_basis("forbidden", kin)
        for x in (0.2, 0.5, 1.3, 3.0):
            u = 2.0 * kin.kappa * x
            expected = (
                kin.units.hbar
                * kin.kappa
                / kin.units.mass
                * math.cosh(u)
                / abs(1.0 - u * math.tanh(u))
            )
            assert speed_at(x, MONOCHROMATIC, basis, kin) == pytest.approx(expected, rel=1e-12)

    def test_derivative_matches_finite_differences(self, kin):
        basis = canonical_basis("forbidden", kin)
        ms = normalize(2.0, 1.0, 2.0)
        h = 1e-6 * kin.E
        for x in (0.4, 1.2):
            lo, hi = kin.at_energy(kin.E - h), kin.at_energy(kin.E + h)
            fd = (
                conjugate_momentum(x, ms, canonical_basis("forbidden", hi), hi.units)
                - conjugate_momentum(x, ms, canonical_basis("forbidden", lo), lo.units)
            ) / (2.0 * h)
            assert momentum_energy_derivative(x, ms, basis, kin) == pytest.approx(fd, rel=1e-4)

    def test_blows_up_at_the_reversal_point(self, kin):
        # the energy derivative of W_x changes sign once in the near zone;
        # the trajectory speed diverges there (the turning point at infinity)
        basis = canonical_basis("forbidden", kin)
        root = brentq(
            lambda x: momentum_energy_derivative(x, MONOCHROMATIC, basis, kin), 0.5, 1.0
        )
        assert speed_at(root, MONOCHROMATIC, basis, kin) > 1e9
        near = speed_at(root * (1.0 + 1e-9), MONOCHROMATIC, basis, kin)
        assert near > 1e6


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda ms, basis, kin: momentum_energy_derivative(0.5, ms, basis, kin),
        lambda ms, basis, kin: speed_at(0.5, ms, basis, kin),
        lambda ms, basis, kin: divergence_onset(kin, ms, basis, 10.0),
        lambda ms, basis, kin: sample_trajectory((0.0, 1.0), 5, ms, basis, kin),
        lambda ms, basis, kin: conjugate_momentum(0.5, ms, basis, kin.units),
    ],
    ids=[
        "momentum_energy_derivative", "speed_at", "divergence_onset", "sample_trajectory",
        "conjugate_momentum",
    ],
)
def test_negative_definite_triple_is_degenerate(evaluate, kin):
    # (-1, -1, 0) has ab - c^2/4 = 1 but a negative bilinear form everywhere;
    # accepting it would return the mirror image of the (1, 1, 0) answers.
    with pytest.raises(DegenerateMicrostate):
        evaluate(RawCoefficients(-1.0, -1.0, 0.0), canonical_basis("forbidden", kin), kin)


_ENTRY_POINTS = {  # positions in units of ell
    "sample_trajectory": lambda basis, kin, ell: sample_trajectory((0.0, 2.0 * ell), 5, MONOCHROMATIC, basis, kin),
    "momentum_energy_derivative": lambda basis, kin, ell: momentum_energy_derivative(
        0.5 * ell, MONOCHROMATIC, basis, kin
    ),
    "speed_at": lambda basis, kin, ell: speed_at(0.5 * ell, MONOCHROMATIC, basis, kin),
    "divergence_onset": lambda basis, kin, ell: divergence_onset(kin, MONOCHROMATIC, basis, 10.0),
    "qshje_residual": lambda basis, kin, ell: qshje_residual(0.5 * ell, MONOCHROMATIC, basis, kin),
    "conjugate_momentum": lambda basis, kin, ell: conjugate_momentum(0.5 * ell, MONOCHROMATIC, basis, kin.units),
    "momentum_derivatives": lambda basis, kin, ell: momentum_derivatives(0.5 * ell, MONOCHROMATIC, basis, kin.units),
    "time_of_flight": lambda basis, kin, ell: time_of_flight(0.5 * ell, 0.0, MONOCHROMATIC, basis, kin),
    "reduced_action": lambda basis, kin, ell: reduced_action(0.5 * ell, 0.0, MONOCHROMATIC, basis, kin),
}


@pytest.mark.parametrize(
    "gauge, E, U, ell",
    [(1e-200, 0.18, 0.5, 1.0), (1e-90, 0.18, 0.5, 1.0), (1e90, 0.18, 0.5, 1.0), (1e200, 0.18, 0.5, 1.0),
     (1e150, 0.5, 1e20, 2e-11)],
    ids=["1e-200", "1e-90", "1e+90", "1e+200", "1e+150-kappa-1.4e10"],
)
@pytest.mark.parametrize("region", ["free", "forbidden"])
@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_extreme_gauge_gives_a_value_or_a_typed_error(name, region, gauge, E, U, ell):
    # alpha = beta = 1e-200 underflows the bilinear denominator D to 0, and 1e200 overflows D and |W0|;
    # at 1e-90 and 1e90, D and W_x are doubles but D^2 and D^3 are not.  At kappa = 1.4e10, x = 1e-11,
    # 1e150 keeps D a double while |W0| = 2 kappa 1e300 overflows.  A value is finite and nonzero
    # wherever the canonical gauge's is.
    kin = kinematics_from_energies(E, U)
    evaluate, basis = _ENTRY_POINTS[name], canonical_basis(region, kin)
    try:
        value = evaluate(basis.rescaled(gauge, gauge), kin, ell)
    except TrdwellError as exc:
        if "bilinear denominator inf" in str(exc):
            assert "overflows" in str(exc)
        return
    canonical = evaluate(basis, kin, ell)
    for got, expected in zip(_floats(value), _floats(canonical), strict=True):
        assert not math.isnan(got)
        if math.isfinite(expected) and expected != 0.0:
            assert math.isfinite(got) and got != 0.0, (got, expected)


@pytest.mark.parametrize(
    "name", ["time_of_flight", "momentum_energy_derivative", "speed_at", "sample_trajectory", "divergence_onset"]
)
def test_a_basis_whose_wronskian_overflows_is_refused_as_conjugate_momentum_refuses_it(name):
    # E = 0.5, U = 1e20 (kappa = 1.4e10), gauge 1e150: D is a double at x = 1e-11, |W0| = 2 kappa 1e300 is not.
    # E, U - E, hbar and m are ordinary, so only a rule on the scale's own factors keeps t, dW_x/dE and the
    # speed from reading inf, -inf and 0.0.
    kin = kinematics_from_energies(0.5, 1e20)
    basis = canonical_basis("forbidden", kin).rescaled(1e150, 1e150)
    with pytest.raises(DomainError, match="factor inf is not a positive double"):
        conjugate_momentum(1e-11, MONOCHROMATIC, basis, kin.units)
    with pytest.raises(DomainError, match="factor inf is not a positive double"):
        _ENTRY_POINTS[name](basis, kin, 2e-11)


def _floats(value):
    """Every float in ``value``: a float, or a tuple or record of them, nested."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, _Record)):
        for item in value._asdict().values() if isinstance(value, _Record) else value:
            yield from _floats(item)


@pytest.mark.parametrize("gauge", [1e-90, 1e90])
@pytest.mark.parametrize("region", ["free", "forbidden"])
def test_momentum_derivatives_are_gauge_invariant_where_D_cubed_leaves_the_doubles(region, gauge, kin):
    # W_x, W_xx and W_xxx do not depend on a common gauge of the basis; D^3 over- or underflows at 1e+-90
    ms, basis = normalize(2.0, 1.0, 0.7), canonical_basis(region, kin)
    expected = momentum_derivatives(0.1, ms, basis, kin.units)
    got = momentum_derivatives(0.1, ms, basis.rescaled(gauge, gauge), kin.units)
    assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


def _unit_basis_residual(x, ms, basis, kin):
    """The QSHJE residual as the wavenumber-1 basis's bilinear derivatives at u = w x give it."""
    unit = RegionBasis(basis.region, 1.0, basis.alpha, basis.beta)
    D, D_u, D_uu = bilinear_with_derivatives(ms, unit, basis.wavenumber * x)
    checked_denominator(D, x)
    momentum = abs(unit.wronskian) * gauge_factor(ms) / D
    slope = D_u / D
    bracket = momentum * momentum + unit.curvature + 0.5 * (0.5 * slope * slope - D_uu / D)
    return (kin.E if basis.region == "free" else kin._gap) * bracket


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the package error it raises."""
    try:
        return fn(*args)
    except TrdwellError as exc:
        return type(exc), str(exc)


class TestSampling:
    def test_two_points_gives_the_endpoints(self, kin):
        basis = canonical_basis("forbidden", kin)
        samples = sample_trajectory((0.0, 2.0), 2, MONOCHROMATIC, basis, kin)
        assert [s.x for s in samples] == [0.0, 2.0]
        assert samples[0].t == 0.0

    @pytest.mark.parametrize("region", ["free", "forbidden"])
    def test_fields_mutually_consistent(self, region):
        # bit for bit: each sample holds the pointwise closed forms at its x, and qshje_residual the
        # composition it replaced, over seeded microstates, energies, units and gauges 1e+-5 of mixed sign
        rng = random.Random(f"samples-{region}")
        for _ in range(1000):
            U, hbar, mass = (10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3))
            kin = kinematics_from_energies(U * rng.uniform(0.05, 0.95), U, Units(hbar=hbar, mass=mass))
            a, c = 10.0 ** rng.uniform(-0.6, 0.6), rng.uniform(-1.9, 1.9)
            ms = normalize(a, (1.0 + 0.25 * c * c) / a, c)
            gauges = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, 5.0) for _ in range(2))
            basis = canonical_basis(region, kin).rescaled(*gauges)
            w = basis.wavenumber
            x0 = rng.uniform(-1.0, 1.0) / w
            length = rng.uniform(0.5, 3.0) * math.pi / w if region == "free" else rng.uniform(0.5, 8.0) / (2.0 * w)
            samples = sample_trajectory((x0, x0 + length), rng.randint(2, 33), ms, basis, kin)
            xs = [s.x for s in samples]
            assert xs == sorted(xs) and xs[0] == x0 and samples[0].t == 0.0
            for s in samples:
                assert s.W_x > 0.0
                assert s.W_x == conjugate_momentum(s.x, ms, basis, kin.units)
                assert s.dWx_dE == momentum_energy_derivative(s.x, ms, basis, kin)
                assert s.speed == speed_at(s.x, ms, basis, kin)
                assert s.t == time_of_flight(s.x, x0, ms, basis, kin).t
            # past u = w x = 355 the forbidden D overflows, and both sides refuse the point alike
            for x in (*xs, 1e3 / w, -50.0 / w, 400.0 / w):
                assert _outcome(qshje_residual, x, ms, basis, kin) == _outcome(_unit_basis_residual, x, ms, basis, kin)

    @pytest.mark.parametrize("region", ["free", "forbidden"])
    @pytest.mark.parametrize("wx", [708.9, 709.0, 709.78, 710.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_kernels_where_math_exp_overflows(self, region, wx, sign, kin):
        # The kernels take math.exp below |w x| = 709 and the saturating _exp from there on; math.exp
        # overflows past 709.78.  The samples keep the pointwise closed forms' bits and the residual the
        # composition's, or each raises the same typed error.  The forbidden gauge (2^500, 2^-1000) keeps
        # D a double up to w x = 709.78 on the positive side.
        ms = normalize(2.0, 1.0, 1.0)
        basis = canonical_basis(region, kin).rescaled(*((2.0**500, 2.0**-1000) if region == "forbidden" else (1, 1)))
        w = basis.wavenumber
        x0, x1 = sign * wx / w - 0.1 / w, sign * wx / w
        assert _outcome(qshje_residual, x1, ms, basis, kin) == _outcome(_unit_basis_residual, x1, ms, basis, kin)
        samples = _outcome(sample_trajectory, (x0, x1), 3, ms, basis, kin)
        xs = [x0 + (x1 - x0) * i / 2 for i in range(3)]
        refusals = [_outcome(conjugate_momentum, x, ms, basis, kin.units) for x in xs]
        refusals = [refusal for refusal in refusals if isinstance(refusal, tuple)]
        if refusals:
            assert samples == refusals[0]
            return
        for s, x in zip(samples, xs):
            assert (s.x, s.W_x, s.dWx_dE, s.speed, s.t) == (
                x, conjugate_momentum(x, ms, basis, kin.units), momentum_energy_derivative(x, ms, basis, kin),
                speed_at(x, ms, basis, kin), time_of_flight(x, x0, ms, basis, kin).t,
            )

    def test_exp_takes_every_exponent_from_709_on(self, monkeypatch, kin):
        # math.exp overflows past ln(max double) = 709.78: the kernels hand each exponent from 709 on,
        # and only those, to the saturating _exp, which returns math.exp's value where it has one
        assert 709.0 < math.log(sys.float_info.max) < 709.79
        seen = []

        def recording(v):
            seen.append(v)
            return _exp(v)

        monkeypatch.setattr(trajectory_module, "_exp", recording)
        monkeypatch.setattr(wavefield_module, "_exp", recording)
        basis = canonical_basis("forbidden", kin).rescaled(2.0**500, 2.0**-1000)
        w = basis.wavenumber
        for v in (708.9, 709.0, 709.78, 709.79, 710.0, 1e6):
            for x in (v / w, -v / w):
                expected = [e for e in (-(w * x), w * x) if e >= 709.0]
                seen.clear()
                _outcome(qshje_residual, x, MONOCHROMATIC, basis, kin)
                assert seen == expected
                seen.clear()
                _outcome(sample_trajectory, (x, x + 1e-3 / w), 2, MONOCHROMATIC, basis, kin)
                assert seen[: len(expected)] == expected and min(seen, default=709.0) >= 709.0

    def test_rejects_degenerate_ranges(self, kin):
        basis = canonical_basis("forbidden", kin)
        with pytest.raises(DomainError):
            sample_trajectory((1.0, 1.0), 5, MONOCHROMATIC, basis, kin)
        with pytest.raises(DomainError):
            sample_trajectory((0.0, 1.0), 1, MONOCHROMATIC, basis, kin)

    @pytest.mark.parametrize("n", [2**20 + 1, 3.0, "3", None, 1.5, np.int64(1)], ids=repr)
    def test_refuses_a_count_above_the_cap_or_not_an_integer(self, n, kin):
        # before the basis is checked, so before any point is evaluated; at some 0.9 KB a sample
        # the CLI would hold about 1 GB past the cap
        wrong = RegionBasis("forbidden", kin.kappa * 1.5)
        message = f"the sample count must be an integer from 2 to 1048576, got {n!r}"
        with pytest.raises(DomainError) as info:
            sample_trajectory((0.0, 1.0), n, MONOCHROMATIC, wrong, kin)
        assert str(info.value) == message

    @pytest.mark.parametrize("region", ["free", "forbidden"])
    def test_a_numpy_count_gives_plain_floats(self, region, kin):
        basis = canonical_basis(region, kin)
        expected = sample_trajectory((0.0, 1.0), 3, MONOCHROMATIC, basis, kin)
        for n in (np.int64(3), np.uint8(3)):
            samples = sample_trajectory((0.0, 1.0), n, MONOCHROMATIC, basis, kin)
            assert samples == expected and repr(samples) == repr(expected)
            assert {type(getattr(s, name)) for s in samples for name in TrajectorySample.__slots__} == {float}


class TestDivergenceOnset:
    def test_frozen_ladder_is_monotone(self, kin):
        basis = canonical_basis("forbidden", kin)
        onsets = [divergence_onset(kin, MONOCHROMATIC, basis, M) for M in (1e2, 1e3, 1e4)]
        assert onsets[0] == pytest.approx(4.6125, rel=1e-12)
        assert onsets[1] == pytest.approx(6.26875, rel=1e-12)
        assert onsets[2] == pytest.approx(7.8625, rel=1e-12)
        assert onsets[0] < onsets[1] < onsets[2]

    def test_speed_stays_above_the_floor_beyond_the_onset(self, kin):
        basis = canonical_basis("forbidden", kin)
        floor = 1e3
        X = divergence_onset(kin, MONOCHROMATIC, basis, floor)
        du = 0.01
        for j in range(0, 250, 7):
            x = X + j * du / (2.0 * kin.kappa)
            assert speed_at(x, MONOCHROMATIC, basis, kin) > floor
        # one grid step before the onset the speed was still at or below it
        x_last_below = X - du / (2.0 * kin.kappa)
        assert speed_at(x_last_below, MONOCHROMATIC, basis, kin) <= floor

    def test_guards(self, kin):
        with pytest.raises(DomainError):
            divergence_onset(kin, MONOCHROMATIC, canonical_basis("free", kin), 10.0)
        basis = canonical_basis("forbidden", kin)
        with pytest.raises(DomainError):
            divergence_onset(kin, MONOCHROMATIC, basis, 0.0)
        with pytest.raises(DomainError):
            divergence_onset(kin, MONOCHROMATIC, basis, math.inf)

    @pytest.mark.parametrize("a, onset", [(1e30, 37.035), (1e36, 44.03), (1e40, 48.685)])
    def test_speed_that_falls_below_the_floor_again_deep_in(self, a, onset):
        # a >> b: the speed rises, falls to the floor again past u = 60 and only then diverges
        kin = kinematics_from_energies(0.5, 1.0)
        basis, ms = canonical_basis("forbidden", kin), Microstate(a, 1.0 / a, 0.0)
        speed = _grid_speed(kin, ms, basis)
        last = max(i for i in range(20_000) if speed(i) <= 1.0)  # brute force up to u = 200
        assert last < 10_000
        X = divergence_onset(kin, ms, basis, 1.0)
        assert X == (last * 0.01 + 0.01) / (2.0 * kin.kappa)
        assert X == pytest.approx(onset, rel=1e-12, abs=0.0)

    def test_speed_where_the_square_of_the_denominator_overflows(self, kin):
        # at v = kappa x = 180, D = 3.6e156: D * D overflowed and the speed read inf
        basis = canonical_basis("forbidden", kin)
        x = 180.0 / kin.kappa
        with mpmath.workdps(40):
            (a, b, c), phi, w0, N_over_w, dw_dE, _ = _mp_parts(MONOCHROMATIC, basis, kin)

            def W_x(w):
                p1, p2 = phi(mpmath.mpf(x), w)
                return N_over_w * w / (a * p1 * p1 + b * p2 * p2 + c * p1 * p2)

            speed = 1 / abs(mpmath.diff(W_x, w0) * dw_dE)
        assert speed_at(x, MONOCHROMATIC, basis, kin) == pytest.approx(float(speed), rel=1e-13, abs=0.0)
        assert float(speed) == pytest.approx(2.4716047883438e153, rel=1e-12)

    @pytest.mark.parametrize("floor", [1e200, 1e300])
    def test_floor_below_the_largest_computed_speed_is_answered(self, kin, floor):
        # D stays a double up to v = 354.9, where the speed reaches about 1e305
        basis = canonical_basis("forbidden", kin)
        X = divergence_onset(kin, MONOCHROMATIC, basis, floor)
        step = 0.01 / (2.0 * kin.kappa)
        assert speed_at(X - step, MONOCHROMATIC, basis, kin) <= floor
        assert all(speed_at(X + j * step, MONOCHROMATIC, basis, kin) > floor for j in range(0, 300, 7))

    def test_floor_beyond_the_computed_speeds_is_not_settled(self, kin):
        # the proven end lies past v = 354.9, where e^(2v) and so D overflow: no speed is computed there
        basis = canonical_basis("forbidden", kin)
        with pytest.raises(ScanNotSettled):
            divergence_onset(kin, MONOCHROMATIC, basis, 1e307)

    def test_basis_whose_scale_or_denominator_underflows_is_an_error(self):
        # Rescaling both basis functions by s leaves W_x, so the speed, unchanged, but the
        # flight-time scale (s^2) or the denominator (s^2) underflows; no onset is guessed.
        # The scale is a normal double or a DomainError, so a subnormal |W0| is refused before the scan.
        kin = kinematics_from_energies(0.5, 1.0)
        basis = canonical_basis("forbidden", kin)
        assert divergence_onset(kin, MONOCHROMATIC, basis, 100.0) == pytest.approx(3.555, rel=1e-12, abs=0.0)
        # D = 2e-200 is a normal double, so the scan finds the unscaled onset
        assert divergence_onset(kin, MONOCHROMATIC, basis.rescaled(1e-100, 1e-100), 100.0) == pytest.approx(
            3.555, rel=1e-12, abs=0.0
        )
        with pytest.raises(DomainError, match="flight-time scale is about 10.-319.7: it underflows"):  # |W0| = 2e-320
            divergence_onset(kin, MONOCHROMATIC, basis.rescaled(1e-160, 1e-160), 100.0)
        with pytest.raises(DomainError, match="factor 0.0 is not a positive double"):  # |W0| underflows to 0
            divergence_onset(kin, MONOCHROMATIC, basis.rescaled(1e-170, 1e-170), 100.0)

    def test_tiny_floor_is_exceeded_from_the_start(self, kin):
        basis = canonical_basis("forbidden", kin)
        # the monochromatic speed already starts above floors below its x=0 value
        v0 = speed_at(0.0, MONOCHROMATIC, basis, kin)
        X = divergence_onset(kin, MONOCHROMATIC, basis, v0 * 0.5)
        assert X >= 0.0


def _assert_matches_oracle(x, x_ref, ms, basis, kin, oracle):
    action, time = oracle(x, x_ref, ms, basis, kin)
    assert reduced_action(x, x_ref, ms, basis, kin) == pytest.approx(float(action), rel=1e-13, abs=0.0)
    ft = time_of_flight(x, x_ref, ms, basis, kin)
    assert ft.t * ft.orientation == pytest.approx(float(time), rel=1e-13, abs=0.0)


class TestMpmathOracles:
    """Closed forms against 40-digit oracles, to 1e-13 relative."""

    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    @pytest.mark.parametrize("region", ["free", "forbidden"])
    @pytest.mark.parametrize("mode", ["ms", "gauge", "raw"])
    def test_against_the_arctan_primitive(self, scenario, region, mode):
        ms, basis, kin = _oracle_case(scenario, region, mode)
        w = basis.wavenumber
        for theta_ref, theta in _SPANS[region]:
            x_ref, x = theta_ref / w, theta / w
            _assert_matches_oracle(x, x_ref, ms, basis, kin, _mp_primitive)

    @pytest.mark.parametrize(
        "scenario,region,mode,span",
        [
            ("mid", "free", "ms", (1.1, 5.0)),
            ("mid", "free", "raw", (-2.0, 2.0)),
            ("mid", "forbidden", "gauge", (0.4, 3.0)),
            ("mid", "forbidden", "ms", (0.3, math.inf)),
            ("E->0", "forbidden", "raw", (7.5, 7.75)),
            ("top", "free", "gauge", (0.0, 2.0)),
        ],
    )
    def test_against_quadrature(self, scenario, region, mode, span):
        ms, basis, kin = _oracle_case(scenario, region, mode)
        x_ref, x = (theta / basis.wavenumber for theta in span)
        _assert_matches_oracle(x, x_ref, ms, basis, kin, _mp_action_and_time)


def test_forbidden_action_where_e_to_the_sum_overflows(kin):
    # kappa (x + x_ref) = 710.3 overflows e^(...), yet D stays finite for b = 1/2.
    # The action there is subnormal (~1e-309), which leaves about 13 digits.
    basis = canonical_basis("forbidden", kin)
    ms = normalize(2.0, 0.5, 0.0)
    x_ref, x = 355.1 / kin.kappa, 355.2 / kin.kappa
    action, _ = _mp_action_and_time(x, x_ref, ms, basis, kin)
    assert reduced_action(x, x_ref, ms, basis, kin) == pytest.approx(float(action), rel=1e-11, abs=0.0)
    assert reduced_action(x_ref, x, ms, basis, kin) == pytest.approx(-float(action), rel=1e-11, abs=0.0)


_coefficients = st.tuples(
    st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=-1.95, max_value=1.95)
).map(lambda ac: normalize(ac[0], (1.0 + 0.25 * ac[1] ** 2) / ac[0], ac[1]))


class TestActionProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        region=st.sampled_from(["free", "forbidden"]),
        ms=_coefficients,
        thetas=st.lists(st.floats(min_value=-12.0, max_value=12.0), min_size=3, max_size=3),
    )
    def test_additive_along_the_path(self, region, ms, thetas):
        kin = kinematics_from_energies(0.18, 0.5)
        basis = canonical_basis(region, kin)
        x0, x1, x2 = (theta / basis.wavenumber for theta in thetas)
        w01 = reduced_action(x1, x0, ms, basis, kin)
        w12 = reduced_action(x2, x1, ms, basis, kin)
        w02 = reduced_action(x2, x0, ms, basis, kin)
        assert abs(w01 + w12 - w02) <= 1e-13 * (abs(w01) + abs(w12)) + 1e-300

    def test_quadrature_cross_check(self, kin):
        rng = random.Random(11)
        for _ in range(20):
            region = rng.choice(["free", "forbidden"])
            basis = canonical_basis(region, kin)
            c = rng.uniform(-1.9, 1.9)
            a = math.exp(rng.uniform(-1.5, 1.5))
            ms = normalize(a, (1.0 + 0.25 * c * c) / a, c)
            x_ref = rng.uniform(0.0, 2.0) / basis.wavenumber
            x = x_ref + rng.uniform(-3.0, 6.0) / basis.wavenumber
            value, _ = quad(
                lambda xi: conjugate_momentum(xi, ms, basis, kin.units), x_ref, x,
                epsabs=0.0, epsrel=1e-13, limit=200,
            )
            assert reduced_action(x, x_ref, ms, basis, kin) == pytest.approx(value, rel=1e-10)


def _reference_onset(speed, kappa, speed_floor):
    """The plain scalar grid scan the onset search must reproduce; speed(i) at u = 0.01 i."""
    du = 0.01
    last_below = None
    above_run = 0
    i = 0
    while True:
        u = i * du
        if speed(i) <= speed_floor:
            last_below = u
            above_run = 0
        else:
            above_run += 1
        if u >= 60.0 and above_run >= 2000:
            break
        if u > 5000.0:
            raise ScanNotSettled("speed never settled above the floor within the scan range")
        i += 1
    return 0.0 if last_below is None else (last_below + du) / (2.0 * kappa)


def _grid_speed(kin, ms, basis):
    kappa = basis.wavenumber
    return lambda i: speed_at(i * 0.01 / (2.0 * kappa), ms, basis, kin)


class TestOnsetMatchesTheScalarScan:
    @pytest.mark.parametrize("block", range(4))
    def test_seeded_jobs(self, block):
        # 64 jobs in four blocks of 16: rescaled gauges at 1 job in 4, a >> b (a speed that falls to
        # the floor again deep in) at 1 in 8, floors from 10^-0.5 to 10^3 times speed(0)
        rng = random.Random(2024 + block)
        for job in range(16):
            U, hbar, mass = (math.exp(rng.uniform(-2.3, 2.3)) for _ in range(3))
            kin = kinematics_from_energies(U * rng.uniform(0.05, 0.95), U, Units(hbar, mass))
            c = rng.uniform(-1.9, 1.9)
            a = math.exp(rng.uniform(-1.4, 1.4))
            if job % 8 == 5:
                a, c = 10.0 ** rng.uniform(20.0, 40.0), 0.0
            ms = normalize(a, (1.0 + 0.25 * c * c) / a, c)
            basis = canonical_basis("forbidden", kin)
            if job % 4 == 3:
                alpha, beta = rng.uniform(0.2, 5.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)
                ms, _ = transform_basis(ms, BasisRescale(alpha, beta))
                basis = basis.rescaled(alpha, beta)
            floor = speed_at(0.0, ms, basis, kin) * 10.0 ** rng.uniform(-0.5, 3.0)
            expected = _reference_onset(_grid_speed(kin, ms, basis), basis.wavenumber, floor)
            assert divergence_onset(kin, ms, basis, floor) == expected

    def test_floors_equal_to_grid_speeds(self, kin):
        # A floor met exactly at a grid point counts as "at or below".  Each of
        # 500 consecutive grid speeds, taken as the floor, puts an exact tie in
        # the search: the leaf that evaluates it must count it, and the bound,
        # which prunes only where it beats the floor by its 1e-9 margin, must
        # never prune the interval that holds it.  The hint lands on or next to
        # each tie.
        basis = canonical_basis("forbidden", kin)
        ms = normalize(2.0, 1.0, 1.0)
        speed = _grid_speed(kin, ms, basis)
        speeds = [speed(i) for i in range(8500)]
        for j in range(900, 1400):
            expected = _reference_onset(speeds.__getitem__, kin.kappa, speeds[j])
            assert divergence_onset(kin, ms, basis, speeds[j]) == expected

    @pytest.mark.parametrize("job", range(6))
    def test_any_hint_gives_the_scan_s_onset(self, job, monkeypatch):
        # The hint only seeds the partition, which the search takes strictly top-down.  Jobs 0-1
        # cross above u = 2, jobs 2-3 below it (on the rise to the divergence of the speed, where the
        # hint's Newton root is not the answer), jobs 4-5 have a >> b and cross a second time deep in.
        # Hints on the crossing, a few indices high and low, far off, out of range and nan all give
        # the plain scan's onset (brute force over u < 200), and exact-tie floors at and next to the
        # crossing do too.
        kin = kinematics_from_energies(0.5, 1.0)
        basis = canonical_basis("forbidden", kin)
        a, c, factor = [(1.0, 0.0, 300.0), (2.5, -1.2, 40.0), (0.5, 0.3, 1.2), (1.0, 0.0, 1.3),
                        (1e30, 0.0, None), (1e36, 0.0, None)][job]
        ms = normalize(a, (1.0 + 0.25 * c * c) / a, c)
        speeds = [speed_at(i * 0.01 / (2.0 * kin.kappa), ms, basis, kin) for i in range(20_000)]
        floor = speeds[0] * factor if factor else 1.0

        def scan(floor):
            return (max(i for i, speed in enumerate(speeds) if speed <= floor) * 0.01 + 0.01) / (2.0 * kin.kappa)

        expected = scan(floor)
        crossing = round(expected * 2.0 * kin.kappa / 0.01) - 1
        assert (crossing < 200, crossing > 6000) == (job in (2, 3), job in (4, 5))
        hint = onset_module._onset_hint
        for offset in (0, -1, 1, -3, 3, -40, 40):
            u = (crossing + offset + 0.5) * 0.01
            monkeypatch.setattr(onset_module, "_onset_hint", lambda *args, u=u: u)
            assert divergence_onset(kin, ms, basis, floor) == expected
        for u in (math.nan, -1.0, 0.0, 1e9, math.inf):
            monkeypatch.setattr(onset_module, "_onset_hint", lambda *args, u=u: u)
            assert divergence_onset(kin, ms, basis, floor) == expected
        monkeypatch.setattr(onset_module, "_onset_hint", hint)
        for tie in (crossing - 1, crossing, crossing + 1):
            assert divergence_onset(kin, ms, basis, speeds[tie]) == scan(speeds[tie])

    def test_an_unknown_speed_above_the_answer_is_not_settled_for_any_hint(self, kin, monkeypatch):
        # at floor 1e302 the speed crosses near u = 702.9, but the proven end lies past u = 706.6, where
        # x e^u in dD/dw overflows: the top-down search meets that unknown speed first, whatever the hint
        basis = canonical_basis("forbidden", kin)
        message = "the speed at x = 441.65 is no double, and not proven above the floor"
        for u in (None, math.nan, 700.0, 706.0, 650.0):
            if u is not None:
                monkeypatch.setattr(onset_module, "_onset_hint", lambda *args, u=u: u)
            with pytest.raises(ScanNotSettled) as info:
                divergence_onset(kin, MONOCHROMATIC, basis, 1e302)
            assert str(info.value) == message

    def test_a_bench_onset_makes_a_median_of_at_most_two_bound_calls(self, monkeypatch):
        # 256 jobs drawn as the `trajectory` bench draws its onsets: with the hint at the crossing,
        # [h + 1, top] is pruned in one call, and the leaf h answers
        calls, bound = [], onset_module._speed_bound

        def counted(*args):
            f = bound(*args)
            calls.append(0)

            def count(lo, hi):
                calls[-1] += 1
                return f(lo, hi)

            return count

        monkeypatch.setattr(onset_module, "_speed_bound", counted)
        rng = random.Random(256)
        for _ in range(256):
            U, hbar, mass = (math.exp(rng.uniform(math.log(0.1), math.log(10.0))) for _ in range(3))
            kin = kinematics_from_energies(U * rng.uniform(0.05, 0.95), U, Units(hbar, mass))
            c, a = rng.uniform(-1.9, 1.9), math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
            ms, basis = Microstate(a, (1.0 + 0.25 * c * c) / a, c), canonical_basis("forbidden", kin)
            divergence_onset(kin, ms, basis, speed_at(0.0, ms, basis, kin) * 10.0 ** rng.uniform(0.0, 3.0))
        assert len(calls) == 256 and statistics.median(calls) <= 2


_gauges = st.tuples(st.floats(-5.0, 5.0), st.sampled_from([-1.0, 1.0])).map(lambda p: p[1] * 10.0 ** p[0])


class TestOnsetBound:
    """The onset search prunes by :func:`_speed_bound` alone, so each bound must hold at every grid point."""

    @settings(max_examples=300, deadline=None)
    @given(
        ms=_coefficients,
        gauge=st.one_of(
            st.tuples(_gauges, _gauges), st.sampled_from([(1e-100, 1e-100), (1e70, -1e-70), (-1.0, -1.0)])
        ),
        fraction=st.floats(min_value=0.02, max_value=0.98),
        scales=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        lo=st.one_of(st.integers(0, 2_000), st.integers(0, 72_000)),
        width=st.one_of(st.integers(1, 64), st.integers(64, 5_000)),
        seed=st.integers(0, 2**32),
    )
    def test_no_bound_exceeds_a_speed_of_its_interval(self, ms, gauge, fraction, scales, lo, width, seed):
        # any basis gauge gives a valid input; one applied to the basis alone changes the speeds.
        # U, hbar and m in 10^(+-3) put kappa between about 1e-6 and 1e6.  Wide intervals are the ratio
        # bound's and the rising speed's: both their ends, and a sample of the rest, are checked.
        U, hbar, mass = (10.0**p for p in scales)
        kin = kinematics_from_energies(U * fraction, U, Units(hbar, mass))
        basis = canonical_basis("forbidden", kin).rescaled(*gauge)
        bound = _speed_bound(ms, basis, _time_scale(ms, basis, kin))(lo, lo + width)
        assert 0.0 <= bound < math.inf
        if bound == 0.0:
            return
        inner = range(lo, lo + width + 1)
        for i in sorted({*inner[:3], *inner[-3:], *random.Random(seed).sample(inner, min(len(inner), 40))}):
            x = i * 0.01 / (2.0 * kin.kappa)
            phi1, phi2, _, _, _, _ = basis._functions(x)
            # a pruned interval holds only normal-double denominators and slopes
            assert _NORMAL <= _form(ms, phi1, phi2) < math.inf
            assert _NORMAL <= abs(momentum_energy_derivative(x, ms, basis, kin)) < math.inf
            assert bound <= speed_at(x, ms, basis, kin)

    @pytest.mark.parametrize("ms", [RawCoefficients(4.0, 1.0, -3.99), RawCoefficients(1.0, 1.0, -1.999999)])
    def test_near_degenerate_forms(self, ms, kin):
        # c' near -2 sqrt(a' b') takes D far below P + Q: D >= Q - |c'| keeps the ratio bound below the speed
        basis = canonical_basis("forbidden", kin)
        bound = _speed_bound(ms, basis, _time_scale(ms, basis, kin))
        speeds = [speed_at(i * 0.01 / (2.0 * kin.kappa), ms, basis, kin) for i in range(1500)]
        for lo in range(200, 1000, 10):
            for width in (10, 100, 400):
                assert bound(lo, lo + width) <= min(speeds[lo : lo + width + 1])

    def test_bound_prunes_and_refuses_across_the_divergence(self, kin):
        basis = canonical_basis("forbidden", kin)
        ms = normalize(2.0, 1.0, 1.0)
        bound = _speed_bound(ms, basis, _time_scale(ms, basis, kin))
        speed = _grid_speed(kin, ms, basis)
        # deep in the speed rises with u, and the bound over 20 points is the least of them within 1e-10
        assert speed(1000) * (1.0 - 1e-10) < bound(1000, 1020) <= min(speed(i) for i in range(1000, 1021))
        # and so over 1,500 points from u = 10 on, where the monotone-piece bound is off by about e^-15
        assert speed(1000) * (1.0 - 1e-10) < bound(1000, 2500) <= speed(1000)
        # dW_x/dE changes sign between two adjacent grid points, where the speed diverges: no bound there
        slope = lambda i: momentum_energy_derivative(i * 0.01 / (2.0 * kin.kappa), ms, basis, kin)  # noqa: E731
        i = next(i for i in range(5000) if slope(i) * slope(i + 1) < 0.0)
        assert min(speed(i), speed(i + 1)) > 100.0 * speed(0)
        assert bound(i, i + 1) == bound(i - 50, i + 50) == 0.0

    def test_the_ratio_bound_serves_where_the_speed_is_not_proven_rising(self, kin):
        # [2.2, 15] holds the dip of the speed of (2, 1, 1) (its least speed is at u = 2.5, below the
        # speed at 2.2), so no rise is proven from u1 = 2.2, and the monotone pieces lose about e^-13 over
        # it; the ratio (Q1 - |c'|)^2/(|scale| ((u1 - 1) Q1 + (1 + u1) P1 + |c'|)) is within 0.4 of the least
        basis = canonical_basis("forbidden", kin)
        ms = normalize(2.0, 1.0, 1.0)
        bound = _speed_bound(ms, basis, _time_scale(ms, basis, kin))(220, 1500)
        speed = _grid_speed(kin, ms, basis)
        least = min(speed(i) for i in range(220, 1501))
        assert least < speed(220) and 0.4 * least < bound <= least

    def test_gauges_beyond_2_to_the_200(self, kin):
        # the gate is on the magnitudes each grid point forms, within [2^-900, 2^900], not on each factor
        basis = canonical_basis("forbidden", kin)
        scale = _time_scale(MONOCHROMATIC, basis, kin)
        canonical = _speed_bound(MONOCHROMATIC, basis, scale)(1000, 1020)
        tiny = basis.rescaled(1e-100, 1e-100)
        assert _speed_bound(MONOCHROMATIC, tiny, _time_scale(MONOCHROMATIC, tiny, kin))(1000, 1020) > 0.0
        # a power-of-two gauge scales every partial product exactly: the same speeds, bound and onsets
        exact = basis.rescaled(2.0**-332, 2.0**-332)
        assert _speed_bound(MONOCHROMATIC, exact, _time_scale(MONOCHROMATIC, exact, kin))(1000, 1020) == canonical
        for floor in (1e2, 1e4, 1e100):
            assert divergence_onset(kin, MONOCHROMATIC, exact, floor) == divergence_onset(
                kin, MONOCHROMATIC, basis, floor
            )
