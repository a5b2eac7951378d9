"""Reduced action, flight times, and local speeds along one region.

The reduced action accumulated between two points is the line integral of the
conjugate momentum; the epoch assigned to a point is the energy derivative of
that accumulated action at fixed constants of the motion.  Both are closed
forms on one region, so nothing here integrates or differentiates
numerically.  Because the package works region by region (local coordinates,
one basis), the flight time is reported as a magnitude plus an orientation
flag: absolute directions require the interface bookkeeping of a full
multi-region assembly, while every quantitative statement downstream (dwell,
libration) comes from closed forms that already encode it.
"""

from __future__ import annotations

import math
import operator

from .errors import DomainError, _Record
from .kinematics import _NORMAL, FORBIDDEN, FREE, Kinematics, _ordinary, _product
from .microstate import Microstate, RawCoefficients, gauge_factor
from .wavefield import RegionBasis, _exp, _form, _numerator, bilinear, check_basis, checked_denominator

#: Most samples one trajectory holds: the CLI's peak memory grows by some 0.9 KB a sample, 1 GB at this cap.
_SAMPLES_MAX = 2**20


class TrajectorySample(_Record):
    """State of the trajectory at one position."""

    __slots__ = ("x", "t", "W_x", "dWx_dE", "speed")

    def __init__(self, x: float, t: float, W_x: float, dWx_dE: float, speed: float):
        self._set(x, t, W_x, dWx_dE, speed)


class FlightTime(_Record):
    """Magnitude and orientation of an energy-derivative flight time.

    ``t`` is |dW/dE| for the accumulated reduced action; ``orientation`` is
    the sign (+1, -1, or 0 at the reference point itself) of the raw
    derivative in this region's local coordinates.
    """

    __slots__ = ("t", "orientation")

    def __init__(self, t: float, orientation: int):
        self._set(t, orientation)


def _check_span(x: float, x_ref: float, basis: RegionBasis) -> None:
    if not math.isfinite(x_ref):
        raise DomainError(f"x_ref must be finite, got {x_ref!r}")
    if math.isinf(x) and (basis.region != FORBIDDEN or x < 0):
        raise DomainError("only forbidden-region integrals may extend to +inf")
    if math.isnan(x):
        raise DomainError(f"x must be finite or +inf, got {x!r}")


def _time_scale(ms: Microstate | RawCoefficients, basis: RegionBasis, kin: Kinematics) -> float:
    """(N/w) dw/dE with dw/dE = k/(2E) free, -kappa/(2(U - E)) forbidden: +/- N/(2 E_w), no hbar^2.

    A plain quotient where hbar, |W0|, g and E_w are ordinary, else ``_product``: a normal double or a DomainError.
    """
    free, hbar, wronskian, gauge = basis.region == FREE, kin.units.hbar, abs(basis.wronskian), gauge_factor(ms)
    energy = kin.E if free else kin._gap
    if _ordinary(hbar, wronskian, gauge, energy):
        scale = hbar * wronskian * gauge / (2.0 * energy)
    else:
        factors = (hbar, 1.0), (wronskian, 1.0), (gauge, 1.0), (2.0, -1.0), (energy, -1.0)
        scale = _product("the flight-time scale", *factors)
    return scale if free else -scale


def _slope(ms, scale, w, D, phi1, phi2, g1, g2):
    """dW_x/dE from the bilinear denominator D, the basis values and their w-gradients.

    ``scale`` is :func:`_time_scale`; see :func:`momentum_energy_derivative`.
    """
    a, b, c = ms.a, ms.b, ms.c
    dD_dw = 2.0 * a * phi1 * g1 + 2.0 * b * phi2 * g2 + c * (g1 * phi2 + phi1 * g2)
    return scale * ((D - w * dD_dw) / D / D)  # D * D would overflow where D passes 1.3e154


def reduced_action(
    x: float,
    x_ref: float,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    kin: Kinematics,
) -> float:
    """Accumulated reduced action between ``x_ref`` and ``x``, in closed form.

    With the gauge folded into the coefficients, a' = a alpha^2,
    b' = b beta^2, c' = c alpha beta and g' = |alpha beta| sqrt(ab - c^2/4),
    the primitive of W_x is

        free:       hbar [arctan((a' tan wx + c'/2)/g') + j pi],  j = floor(wx/pi + 1/2)
        forbidden:  hbar arctan((b' e^{2wx} + c'/2)/g').

    The difference of the two endpoint values is evaluated as one angle,
    atan2 of the cross and dot products of the two arctan arguments' vectors,
    so a short step deep in the forbidden region keeps its relative
    accuracy; in the free region j fixes the number of whole turns.  ``x``
    may be +inf in the forbidden region, where the action closes at
    hbar atan2(g', b' e^{2 w x_ref} + c'/2), the exact limit.  Both points
    must lie in the one region the basis describes.
    """
    check_basis(basis, kin)
    _check_span(x, x_ref, basis)
    checked_denominator(bilinear(ms, basis, x_ref), x_ref)
    if math.isfinite(x):
        checked_denominator(bilinear(ms, basis, x), x)
    al, be = basis.alpha, basis.beta
    a, b, c = ms.a * al * al, ms.b * be * be, ms.c * al * be
    g = abs(al * be) * gauge_factor(ms)
    w = basis.wavenumber
    if math.isinf(x):
        # atan2(g', b' e^{2 w x_ref} + c'/2), both arguments scaled by e^{-w x_ref}
        lo, hi = math.exp(-w * x_ref), math.exp(w * x_ref)
        return kin.units.hbar * math.atan2(g * lo, b * hi + 0.5 * c * lo)
    delta, sigma = w * (x - x_ref), w * (x + x_ref)
    if basis.region == FORBIDDEN:
        # atan2(2g' sinh(delta), a' e^-sigma + b' e^sigma + c' cosh(delta)), odd in
        # delta; both arguments are scaled by e^-m so that no exponent is positive.
        sign, delta = math.copysign(1.0, delta), abs(delta)
        m = max(abs(sigma), delta)
        near, far = math.exp(delta - m), math.exp(-delta - m)
        angle = math.atan2(
            -g * near * math.expm1(-2.0 * delta),
            a * math.exp(-sigma - m) + b * math.exp(sigma - m) + 0.5 * c * (near + far),
        )
        return kin.units.hbar * sign * angle
    angle = math.atan2(
        2.0 * g * math.sin(delta),
        (a + b) * math.cos(delta) + (b - a) * math.cos(sigma) + c * math.sin(sigma),
    )
    # The swept angle lies within pi of the half-turn count (j - j_ref) pi.
    half_turns = math.floor(w * x / math.pi + 0.5) - math.floor(w * x_ref / math.pi + 0.5)
    turns = round((half_turns * math.pi - angle) / (2.0 * math.pi))
    return kin.units.hbar * (angle + 2.0 * math.pi * turns)


def time_of_flight(
    x: float,
    x_ref: float,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    kin: Kinematics,
) -> FlightTime:
    """Flight time between ``x_ref`` and ``x`` at fixed constants of motion.

    The reduced action depends on the energy only through w, and W_x = N/D
    with N proportional to w and D a function of w*x, so

        dW/dE = (dw/dE) (N/w) [x/D(x) - x_ref/D(x_ref)],

    exact at every energy below U.  At ``x`` = +inf (forbidden region only)
    x/D(x) vanishes.
    """
    check_basis(basis, kin)
    _check_span(x, x_ref, basis)
    lever = 0.0 if math.isinf(x) else x / checked_denominator(bilinear(ms, basis, x), x)
    lever_ref = x_ref / checked_denominator(bilinear(ms, basis, x_ref), x_ref)
    raw = _time_scale(ms, basis, kin) * (lever - lever_ref)
    orientation = 0 if raw == 0.0 else (1 if raw > 0.0 else -1)
    return FlightTime(t=abs(raw), orientation=orientation)


def momentum_energy_derivative(
    x: float,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    kin: Kinematics,
) -> float:
    """Analytic d(W_x)/dE at fixed position and constants of the motion.

    The only energy dependence of W_x is through the region wavenumber w
    (numerator |W0| is proportional to w; the basis functions carry w*x), so

        dW_x/dE = [ (N/w) D - N dD/dw ] / D^2 * dw/dE = (N/w) (dw/dE) (D - w dD/dw)/D^2

    with dw/dE = k/(2E) in the free region and -kappa/(2(U - E)) in the
    forbidden one.
    """
    check_basis(basis, kin)
    phi1, phi2, _, _, g1, g2 = basis._functions(x)
    scale = _time_scale(ms, basis, kin)
    return _slope(ms, scale, basis.wavenumber, checked_denominator(_form(ms, phi1, phi2), x), phi1, phi2, g1, g2)


def speed_at(
    x: float,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    kin: Kinematics,
) -> float:
    """Local trajectory speed 1/|dW_x/dE|; +inf where the derivative vanishes."""
    slope = momentum_energy_derivative(x, ms, basis, kin)
    return math.inf if slope == 0.0 else 1.0 / abs(slope)


def sample_trajectory(
    x_range: tuple[float, float],
    n: int,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    kin: Kinematics,
) -> tuple[TrajectorySample, ...]:
    """Uniform sampling of (x, t, W_x, dW_x/dE, speed) at n points of ``x_range``, 2 <= n <= ``_SAMPLES_MAX``.

    Times are flight times from the first point of the range (t = 0 there).  One straight-line pass per point
    evaluates phi, the w-gradients, the denominator D, the slope and the speed, by the operations of
    :func:`momentum_energy_derivative`, and fills the point's record through ``TrajectorySample._setters``.  A sample
    value that is not a normal double (t at the first point excepted) is a :class:`DomainError`.
    """
    x0, x1 = x_range
    if not (math.isfinite(x0) and math.isfinite(x1) and x1 > x0):
        raise DomainError(f"x_range must be finite with x1 > x0, got {x_range!r}")
    count = operator.index(n) if hasattr(n, "__index__") else 0  # an int, so numpy counts give plain floats
    if not 2 <= count <= _SAMPLES_MAX:
        raise DomainError(f"the sample count must be an integer from 2 to {_SAMPLES_MAX}, got {n!r}")
    check_basis(basis, kin)
    N, scale = _numerator(ms, basis, kin.units.hbar), _time_scale(ms, basis, kin)
    a, b, c, w, al, be, free = ms.a, ms.b, ms.c, basis.wavenumber, basis.alpha, basis.beta, basis.region == FREE
    set_x, set_t, set_W_x, set_slope, set_speed = TrajectorySample._setters
    samples = list(map(object.__new__, [TrajectorySample] * count))
    sin, cos, exp, inf, tiny, span, last = math.sin, math.cos, math.exp, math.inf, _NORMAL, x1 - x0, count - 1
    # the basis is inlined, as in qshje_residual (see there); math.exp serves below 709, and _exp from there on
    for i, sample in enumerate(samples):
        x = x0 + span * i / last
        v = w * x
        v1, v2 = (sin(v), cos(v)) if free else (exp(-v) if -v < 709.0 else _exp(-v), exp(v) if v < 709.0 else _exp(v))
        phi1, phi2 = al * v1, be * v2
        g1, g2 = (al * x * v2, -be * x * v1) if free else (-al * x * v1, be * x * v2)
        D = a * phi1 * phi1 + b * phi2 * phi2 + c * phi1 * phi2
        if not 0.0 < D < inf:
            checked_denominator(D, x)
        dD_dw = 2.0 * a * phi1 * g1 + 2.0 * b * phi2 * g2 + c * (g1 * phi2 + phi1 * g2)
        slope = scale * ((D - w * dD_dw) / D / D)
        if i == 0:
            lever0 = x / D
        t = abs(scale * (x / D - lever0))
        W_x, speed = N / D, inf if slope == 0.0 else 1.0 / abs(slope)
        if not (tiny <= W_x < inf and tiny <= speed <= 1 / tiny and (not i or tiny <= t < inf)):
            raise DomainError(f"t, W_x, dW_x/dE = {t!r}, {W_x!r}, {slope!r} at x = {x!r}: not all normal doubles")
        set_x(sample, x), set_t(sample, t), set_W_x(sample, W_x), set_slope(sample, slope), set_speed(sample, speed)
    return tuple(samples)


def divergence_onset(
    kin: Kinematics,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    speed_floor: float,
) -> float:
    """Smallest depth X beyond which the forbidden-region speed stays above ``speed_floor``.

    The speed is judged on a fixed grid, du = 0.01 in the dimensionless depth u = 2 kappa x, and X is one grid step
    past the last point at or below the floor, so X is monotone in the floor.  With P = a' e^(-u) and Q = b' e^u
    (a' = a alpha^2, b' = b beta^2, c' = c alpha beta), the speed is D^2/(|scale| |G|), D = P + Q + c',
    G = (1 + u) P + (1 - u) Q + c' and ``scale`` from :func:`_time_scale`; past a proven depth none is at or below
    the floor.

    The search (:mod:`trdwell.onset`, loaded with the first onset) is a branch-and-bound over the grid up to that
    depth.  It takes the top interval first, so the first index at or below the floor that it meets gives X.  Its
    partition is seeded at the continuous crossing h, Newton's root of ln(D^2/|G|) = ln(|scale| floor), and at
    u = 2: cuts before h, h + 1 and index 200.  Processed strictly top-down, every partition meets the same first
    index, so X, and the first :class:`ScanNotSettled`, are the plain grid scan's for any hint, a nan or failed one
    (no cut at h) included.  An interval is pruned where a lower bound of its speeds beats the floor by 1e-9 and D
    and dW_x/dE are proven normal doubles.  From u1 >= 2 on, one bound is the ratio
    (Q1 - |c'|)^2/(|scale| ((u1 - 1) Q1 + (1 + u1) P1 + |c'|)), which holds there as |G| <= (u - 1) Q + (1 + u1) P1
    + |c'|, D >= Q - |c'| and Q/(u - 1 + eta) rises; another is the speed at u1 itself, where its logarithmic slope
    is proven positive from u1 on.  So a hint at the crossing prunes [h + 1, top] in one bound call: a median bench
    onset makes 1 bound call, not 33.  Each index not pruned is evaluated by the scalar operations of :func:`speed_at`,
    so every verdict is that function's; where its D or dW_x/dE is no normal double (e^u overflows near u = 709 in
    the canonical basis) the speed is unknown, and the search raises :class:`ScanNotSettled` there.
    """
    from .onset import divergence_onset as search  # the search loads with the first onset

    return search(kin, ms, basis, speed_floor)
