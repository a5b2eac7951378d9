"""Reduced action, flight times, and local speeds along one region.

The reduced action accumulated between two points is the line integral of the
conjugate momentum; the epoch assigned to a point is the energy derivative of
that accumulated action at fixed constants of the motion.  Because the
package works region by region (local coordinates, one basis), the flight
time is reported as a magnitude plus an orientation flag: absolute directions
require the interface bookkeeping of a full multi-region assembly, while
every quantitative statement downstream (dwell, libration) comes from closed
forms that already encode it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, QuadratureFailure, StepUnderflow
from .microstate import Microstate, RawCoefficients
from .potential import FORBIDDEN, FREE, Kinematics
from .wavefield import RegionBasis, bilinear, conjugate_momentum, gauge_factor

#: Default relative accuracy demanded of the action quadrature.
QUAD_REL_TOL = 1e-10

#: Improper forbidden-region integrals are truncated 20/kappa past the start
#: point (dimensionless depth 2*kappa*dx = 40); the discarded tail is below
#: exp(-40) of the truncated value.
FORBIDDEN_TRUNCATION_U = 40.0

#: Finite-difference energy step, as a fraction of E.
ENERGY_STEP_SCALE = 1e-6


@dataclass(frozen=True)
class TrajectorySample:
    """State of the trajectory at one position."""

    x: float
    t: float
    W_x: float
    dWx_dE: float
    speed: float


@dataclass(frozen=True)
class FlightTime:
    """Magnitude and orientation of an energy-derivative flight time.

    ``t`` is |dW/dE| for the accumulated reduced action; ``orientation`` is
    the sign (+1, -1, or 0 at the reference point itself) of the raw
    derivative in this region's local coordinates.
    """

    t: float
    orientation: int


def _check_basis(basis: RegionBasis, kin: Kinematics) -> None:
    expected = kin.k if basis.region == FREE else kin.kappa
    if abs(basis.wavenumber - expected) > 1e-9 * expected:
        raise DomainError(
            f"basis wavenumber {basis.wavenumber!r} does not match kinematics ({expected!r})"
        )


def reduced_action(
    x: float,
    x_ref: float,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    kin: Kinematics,
    rel_tol: float = QUAD_REL_TOL,
) -> float:
    """Accumulated reduced action between ``x_ref`` and ``x``.

    Both points must lie in the one region the basis describes.  ``x`` may be
    +inf in the forbidden region; the integral is then truncated at
    dimensionless depth ``FORBIDDEN_TRUNCATION_U`` past ``x_ref``, which
    leaves a relative tail below exp(-40).  Raises
    :class:`QuadratureFailure` if the quadrature cannot certify ``rel_tol``.
    """
    _check_basis(basis, kin)
    if not math.isfinite(x_ref):
        raise DomainError(f"x_ref must be finite, got {x_ref!r}")
    truncated = False
    if math.isinf(x):
        if basis.region != FORBIDDEN or x < 0:
            raise DomainError("only forbidden-region integrals may extend to +inf")
        x = x_ref + FORBIDDEN_TRUNCATION_U / (2.0 * basis.wavenumber)
        truncated = True
    if not math.isfinite(x):
        raise DomainError(f"x must be finite or +inf, got {x!r}")
    if x == x_ref and not truncated:
        return 0.0

    # scipy.integrate is imported on first use: it dominates the package's
    # import time, and most commands never integrate.
    from scipy.integrate import quad

    units = kin.units

    def integrand(xi: float) -> float:
        return conjugate_momentum(xi, ms, basis, units)

    value, abserr, *_ = quad(
        integrand, x_ref, x, epsabs=0.0, epsrel=max(rel_tol / 100.0, 1e-13), limit=200, full_output=1
    )
    # The quadrature is asked for two digits more than the contract; accept
    # the result as long as its error estimate meets the contract itself.
    if abserr > rel_tol * max(abs(value), 1e-300):
        raise QuadratureFailure(
            f"action quadrature on [{x_ref!r}, {x!r}] reached abserr={abserr!r} for value={value!r}"
        )
    return value


def time_of_flight(
    x: float,
    x_ref: float,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    kin: Kinematics,
    rel_tol: float = QUAD_REL_TOL,
) -> FlightTime:
    """Flight time between ``x_ref`` and ``x`` at fixed constants of motion.

    Central differences of the reduced action in energy with step
    h = 1e-6 * E, sharpened by one Richardson extrapolation step (h and h/2),
    so the leading h^2 error is cancelled.  Raises :class:`StepUnderflow` if
    E +/- h escapes the open interval (0, U).
    """
    E, U = kin.E, kin.U
    h = ENERGY_STEP_SCALE * E
    if not (0.0 < E - h and E + h < U):
        raise StepUnderflow(f"energy step {h!r} leaves (0, {U!r}) at E={E!r}")

    def action_at(E2: float) -> float:
        kin2 = kin.at_energy(E2)
        w2 = kin2.k if basis.region == FREE else kin2.kappa
        return reduced_action(x, x_ref, ms, basis.with_wavenumber(w2), kin2, rel_tol=rel_tol)

    d_h = (action_at(E + h) - action_at(E - h)) / (2.0 * h)
    d_h2 = (action_at(E + 0.5 * h) - action_at(E - 0.5 * h)) / h
    raw = (4.0 * d_h2 - d_h) / 3.0
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

        dW_x/dE = [ (N/w) D - N dD/dw ] / D^2 * dw/dE

    with dw/dE = m/(hbar^2 k) in the free region and -m/(hbar^2 kappa) in the
    forbidden one.
    """
    _check_basis(basis, kin)
    units = kin.units
    w = basis.wavenumber
    N = units.hbar * abs(basis.wronskian) * gauge_factor(ms)
    phi1, phi2 = basis.values(x)
    g1, g2 = basis.wavenumber_gradient(x)
    a, b, c = ms.a, ms.b, ms.c
    D = bilinear(ms, basis, x)
    dD_dw = 2.0 * a * phi1 * g1 + 2.0 * b * phi2 * g2 + c * (g1 * phi2 + phi1 * g2)
    dWx_dw = (N / w * D - N * dD_dw) / (D * D)
    if basis.region == FREE:
        dw_dE = units.mass / (units.hbar**2 * kin.k)
    else:
        dw_dE = -units.mass / (units.hbar**2 * kin.kappa)
    return dWx_dw * dw_dE


def speed_at(
    x: float,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    kin: Kinematics,
) -> float:
    """Local trajectory speed 1/|dW_x/dE|; +inf where the derivative vanishes."""
    slope = momentum_energy_derivative(x, ms, basis, kin)
    if slope == 0.0:
        return math.inf
    return 1.0 / abs(slope)


def sample_trajectory(
    x_range: tuple[float, float],
    n: int,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    kin: Kinematics,
    rel_tol: float = QUAD_REL_TOL,
) -> tuple[TrajectorySample, ...]:
    """Uniform n-point sampling of (x, t, W_x, dW_x/dE, speed) on ``x_range``.

    Times are flight times from the first point of the range (t = 0 there).
    """
    x0, x1 = x_range
    if not (math.isfinite(x0) and math.isfinite(x1) and x1 > x0):
        raise DomainError(f"x_range must be finite with x1 > x0, got {x_range!r}")
    if n < 2:
        raise DomainError(f"need at least two samples, got {n!r}")
    samples = []
    for i in range(n):
        x = x0 + (x1 - x0) * i / (n - 1)
        t = 0.0 if i == 0 else time_of_flight(x, x0, ms, basis, kin, rel_tol=rel_tol).t
        samples.append(
            TrajectorySample(
                x=x,
                t=t,
                W_x=conjugate_momentum(x, ms, basis, kin.units),
                dWx_dE=momentum_energy_derivative(x, ms, basis, kin),
                speed=speed_at(x, ms, basis, kin),
            )
        )
    return tuple(samples)


def divergence_onset(
    kin: Kinematics,
    ms: Microstate | RawCoefficients,
    basis: RegionBasis,
    speed_floor: float,
) -> float:
    """Smallest depth X beyond which the forbidden-region speed stays above ``speed_floor``.

    Scans the local speed on a fixed grid (du = 0.01 in the dimensionless
    depth u = 2*kappa*x) and returns one grid step past the last point at or
    below the floor.  The exponential growth of the speed guarantees the tail
    stays above any finite floor, which the scan confirms over a 20-unit
    trailing window; the fixed grid makes X monotone in the floor.
    """
    if basis.region != FORBIDDEN:
        raise DomainError("speed divergence is a forbidden-region phenomenon")
    _check_basis(basis, kin)
    if not (math.isfinite(speed_floor) and speed_floor > 0.0):
        raise DomainError(f"speed_floor must be finite and positive, got {speed_floor!r}")
    kappa = basis.wavenumber
    du = 0.01
    last_below = None
    above_run = 0
    i = 0
    while True:
        u = i * du
        x = u / (2.0 * kappa)
        if speed_at(x, ms, basis, kin) <= speed_floor:
            last_below = u
            above_run = 0
        else:
            above_run += 1
        if u >= 60.0 and above_run >= 2000:
            break
        if u > 5000.0:
            raise QuadratureFailure("speed never settled above the floor within the scan range")
        i += 1
    if last_below is None:
        return 0.0
    return (last_below + du) / (2.0 * kappa)
