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

from .errors import DomainError, ScanNotSettled, _Record
from .kinematics import _NORMAL, FORBIDDEN, FREE, Kinematics, _ordinary, _product, check_positive
from .microstate import Microstate, RawCoefficients, gauge_factor
from .wavefield import RegionBasis, _form, _numerator, bilinear, check_basis, checked_denominator

#: Grid points evaluated per numpy pass of the divergence-onset scan.  A pass
#: holds about a dozen temporary arrays, some 200 KB at this size.  At 8,192
#: points (about 0.8 MB) a heap with no free space of that size grew by it
#: and released it again on every scan, at ~130 page faults per scan.
_ONSET_CHUNK = 2048


class TrajectorySample(_Record):
    """State of the trajectory at one position."""

    __slots__ = ("x", "t", "W_x", "dWx_dE", "speed")

    def __init__(self, x: float, t: float, W_x: float, dWx_dE: float, speed: float):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "W_x", W_x)
        object.__setattr__(self, "dWx_dE", dWx_dE)
        object.__setattr__(self, "speed", speed)


class FlightTime(_Record):
    """Magnitude and orientation of an energy-derivative flight time.

    ``t`` is |dW/dE| for the accumulated reduced action; ``orientation`` is
    the sign (+1, -1, or 0 at the reference point itself) of the raw
    derivative in this region's local coordinates.
    """

    __slots__ = ("t", "orientation")

    def __init__(self, t: float, orientation: int):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "orientation", orientation)


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
    """dW_x/dE from the bilinear denominator D, the basis values and their w-gradients, as floats or arrays.

    ``scale`` is :func:`_time_scale`; see :func:`momentum_energy_derivative`.
    """
    a, b, c = ms.a, ms.b, ms.c
    dD_dw = 2.0 * a * phi1 * g1 + 2.0 * b * phi2 * g2 + c * (g1 * phi2 + phi1 * g2)
    return scale * ((D - w * dD_dw) / D / D)  # D * D would overflow where D passes 1.3e154


def _speed(slope: float) -> float:
    return math.inf if slope == 0.0 else 1.0 / abs(slope)


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
    return _speed(momentum_energy_derivative(x, ms, basis, kin))


def sample_trajectory(
    x_range: tuple[float, float],
    n: int,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    kin: Kinematics,
) -> tuple[TrajectorySample, ...]:
    """Uniform n-point sampling of (x, t, W_x, dW_x/dE, speed) on ``x_range``.

    Times are flight times from the first point of the range (t = 0 there).
    Each point evaluates the bilinear denominator D once and shares it
    between t, W_x = N/D and dW_x/dE.  A sample value that is not a normal
    double (t at the first point excepted) is a :class:`DomainError`.
    """
    x0, x1 = x_range
    if not (math.isfinite(x0) and math.isfinite(x1) and x1 > x0):
        raise DomainError(f"x_range must be finite with x1 > x0, got {x_range!r}")
    if n < 2:
        raise DomainError(f"need at least two samples, got {n!r}")
    check_basis(basis, kin)
    N = _numerator(ms, basis, kin.units.hbar)
    w = basis.wavenumber
    scale = _time_scale(ms, basis, kin)
    samples = []
    for i in range(n):
        x = x0 + (x1 - x0) * i / (n - 1)
        phi1, phi2, _, _, g1, g2 = basis._functions(x)
        D = checked_denominator(_form(ms, phi1, phi2), x)
        slope = _slope(ms, scale, w, D, phi1, phi2, g1, g2)
        lever = x / D
        if i == 0:
            lever0 = lever
        t = abs(scale * (lever - lever0))
        W_x, speed = N / D, _speed(slope)
        if not (_NORMAL <= W_x < math.inf and _NORMAL <= speed <= 1 / _NORMAL and (not i or _NORMAL <= t < math.inf)):
            raise DomainError(f"t, W_x, dW_x/dE = {t!r}, {W_x!r}, {slope!r} at x = {x!r}: not all normal doubles")
        samples.append(TrajectorySample(x=x, t=t, W_x=W_x, dWx_dE=slope, speed=speed))
    return tuple(samples)


def divergence_onset(
    kin: Kinematics,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    speed_floor: float,
) -> float:
    """Smallest depth X beyond which the forbidden-region speed stays above ``speed_floor``.

    Scans the local speed on a fixed grid (du = 0.01 in the dimensionless
    depth u = 2 kappa x) and returns one grid step past the last point at or
    below the floor; the fixed grid makes X monotone in the floor.

    The scan starts at a proven end.  With v = kappa x, P = a' e^(-2v) and
    Q = b' e^(2v) (a' = a alpha^2, b' = b beta^2, c' = c alpha beta, so
    |c'| < 2 sqrt(PQ)), the denominator is D = P + Q + c' and the speed is
    D^2/(|scale| |G|), G = D - v dD/dv = (1 + 2v) P + (1 - 2v) Q + c', with
    ``scale`` from :func:`_time_scale`.  For v >= max(1, ln(4a'/b')/4),
    D >= Q/4 and |G| <= 2.75 v Q, so the speed is at least
    b' e^(2v)/(44 v |scale|), above the floor wherever 2v - ln v > L =
    ln(44 |scale| floor/b').  2v - ln v grows with v and exceeds L at
    v = (L + ln L)/2 (L > 1), so no speed at or past v_end = max(1,
    ln(4a'/b')/4, (L + ln L)/2) is at or below the floor.  From there the grid
    is evaluated downwards in numpy passes of ``_ONSET_CHUNK`` points, and
    the first pass that holds a point at or below the floor ends the scan.
    Points whose speed lies within 1e-9 of the floor are re-evaluated with
    :func:`speed_at`, so the verdict at every grid point is the scalar one.
    Where D or the slope dW_x/dE is no normal double (e^(2v) overflows near
    v = 355 in the canonical basis) no speed is computed; if such a point
    lies above the last one at or below the floor, the scan raises
    :class:`ScanNotSettled`.
    """
    if basis.region != FORBIDDEN:
        raise DomainError("speed divergence is a forbidden-region phenomenon")
    check_basis(basis, kin)
    check_positive("speed_floor", speed_floor)
    import numpy as np  # the one array scan here; every other function is scalar

    kappa, al, be = basis.wavenumber, basis.alpha, basis.beta
    scale = _time_scale(ms, basis, kin)
    # v_end in logarithms: a'/b' and 44 |scale| floor/b' may lie beyond the doubles
    log_a = math.log(ms.a) + 2.0 * math.log(abs(al))
    log_b = math.log(ms.b) + 2.0 * math.log(abs(be))
    L = math.log(44.0) + math.log(abs(scale)) + math.log(speed_floor) - log_b
    v_end = max(1.0, 0.25 * (math.log(4.0) + log_a - log_b), 0.5 * (L + math.log(L)) if L > 1.0 else 1.0)
    du = 0.01
    stop = math.ceil(2.0 * v_end / du) + 1  # grid indices from here on hold speeds above the floor
    while stop > 0:
        i = np.arange(max(stop - _ONSET_CHUNK, 0), stop)
        x = i * du / (2.0 * kappa)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            decay, growth = np.exp(-kappa * x), np.exp(kappa * x)
            phi1, phi2 = al * decay, be * growth
            D = _form(ms, phi1, phi2)
            slope = _slope(ms, scale, kappa, D, phi1, phi2, -al * x * decay, be * x * growth)
            size = np.abs(slope)
            speed = 1.0 / size
            unknown = ~((_NORMAL <= D) & (D < math.inf) & (_NORMAL <= size) & (size < math.inf))
        below = speed <= speed_floor
        for j in np.flatnonzero(np.abs(speed - speed_floor) <= 1e-9 * speed_floor):
            below[j] = speed_at(float(x[j]), ms, basis, kin) <= speed_floor
        hits = np.flatnonzero(below | unknown)
        if hits.size:
            if unknown[hits[-1]]:
                deep = float(x[hits[-1]])
                raise ScanNotSettled(f"the speed at x = {deep!r} is no double, and not proven above the floor")
            return (int(i[hits[-1]]) * du + du) / (2.0 * kappa)
        stop -= _ONSET_CHUNK
    return 0.0
