"""Closed-form dwell times and libration periods, with their extremal bounds.

For a step of height U probed at energy E (ratio r = kappa/k, unit bundle
with mass m and hbar) and a normalized microstate (a, b, c):

    dwell      t_D = 2 sqrt(ab - c^2/4) (1 + r^2) / (a +/- c r + b r^2) * m/(hbar kappa k)

    libration  t_L = 4 (1 + r^2) m (q + 1/kappa) / (hbar k)
                     * sqrt(ab - c^2/4) (a + b r^2) / (a^2 + (2ab - c^2) r^2 + b^2 r^4)

The monochromatic member (1, 1, 0) collapses both to their textbook values:
t_D = 2m/(hbar kappa k) = hbar/sqrt(E(U-E)), and t_L = 4m(q + 1/kappa)/(hbar k),
i.e. a free transit of the well plus one monochromatic dwell per wall.  Over
the admissible family a > 0, |c| < 2 the dwell time has the finite least
upper bound (1 + r^2)/(sqrt(2) - 1) * m/(hbar kappa^2), approached (never
attained) as |c| -> 2; the libration period has the analogous least upper
bound 2^(3/2) (1 + r^2) m (q + 1/kappa)/(hbar kappa) and a greatest lower
bound of zero, approached along (A, 1/A, 0) as A grows.

Everything here is a scalar closed form on floats and needs no numpy,
the extremal reports included.  On the normalized slice b = (1 + c^2/4)/a
the dwell denominator a - c r + b r^2 ("-" branch, c >= 0) and the
libration sum s = a + b r^2 are both smallest at

    a* = r sqrt(1 + c^2/4).

There the dwell denominator is r (2 sqrt(1 + c^2/4) - c), so
t_D = (1 + r^2)(2 sqrt(1 + c^2/4) + c)/(4r) times the monochromatic dwell,
rising with c; and since the libration factor s/(s^2 - c^2 r^2) falls as s
rises, t_L = sqrt(1 + c^2/4)/(2r) times the prefactor, rising with |c|.  So
both suprema over |c| <= 2 - epsilon sit at (a*, 2 - epsilon), where
``max_dwell`` and ``max_libration`` evaluate the scalar t_D and t_L.  The
tests keep a numeric zoom search over (a, c) as an independent oracle.

When r = kappa/k is so large that r^2 (dwell) or r^4 (libration) overflows,
the scalar quantities are evaluated again with numerator and denominator
divided by r^2 (r^4, and for libration by a + b r^2 too, so a huge a cannot
overflow either).  The two suprema and the libration prefactor are rescaled
the same way where 1 + r^2 overflows.  A value that itself overflows is a
:class:`DomainError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, OptimizationFailure
from .microstate import Microstate, gauge_factor, normalize
from .potential import Kinematics, check_half_width

SIGN_PLUS = "+"
SIGN_MINUS = "-"


def _sign_factor(sign: str) -> float:
    if sign == SIGN_PLUS:
        return 1.0
    if sign == SIGN_MINUS:
        return -1.0
    raise DomainError(f'sign must be "+" or "-", got {sign!r}')


@dataclass(frozen=True)
class DwellResult:
    """Dwell time of one microstate at one energy, with its inputs echoed."""

    t_D: float
    sign: str
    ms: Microstate
    kin: Kinematics


def _overflowed(value: float) -> bool:
    """True unless ``value`` is finite and positive, as every exact t_D and t_L is.

    Anything else means an intermediate overflowed: a quotient by an
    overflowed term reads 0, and inf/inf reads NaN.
    """
    return not 0.0 < value < math.inf


def _in_range(value: float, what: str, kin: Kinematics) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{what} overflows a double at r = {kin.r!r}")
    return value


def dwell_time(kin: Kinematics, ms: Microstate, sign: str = SIGN_PLUS) -> DwellResult:
    """Sub-barrier dwell time of microstate ``ms`` at the step.

    ``sign`` selects the branch of the +/- in the denominator; the two
    branches are exchanged by c -> -c, so only microstates with c != 0
    distinguish them.
    """
    factor = _sign_factor(sign)
    gauge_factor(ms)  # validates positivity; the value is 1 on the normalized slice
    a, b, c = ms.a, ms.b, ms.c
    denom = a + factor * c * kin.r + b * kin.r * kin.r
    if not denom > 0.0:
        raise DomainError(f"dwell denominator {denom!r} is not positive")
    t_D = math.sqrt(a * b - 0.25 * c * c) * (1.0 + kin.r * kin.r) / denom * dwell_time_monochromatic(kin)
    if _overflowed(t_D):  # r^2 overflowed: divide numerator and denominator by it
        ir = 1.0 / kin.r
        ratio = (1.0 + ir * ir) / (a * ir * ir + factor * c * ir + b)
        t_D = math.sqrt(a * b - 0.25 * c * c) * ratio * dwell_time_monochromatic(kin)
        t_D = _in_range(t_D, "dwell time", kin)
    return DwellResult(t_D=t_D, sign=sign, ms=ms, kin=kin)


def dwell_time_monochromatic(kin: Kinematics) -> float:
    """Dwell time of the monochromatic microstate: 2m/(hbar kappa k).

    Equal to hbar/sqrt(E(U-E)); both signs coincide because c = 0.
    """
    units = kin.units
    return 2.0 * units.mass / (units.hbar * kin.kappa * kin.k)


def dwell_supremum_bound(kin: Kinematics) -> float:
    """Least upper bound of the dwell time over admissible microstates.

    (1 + r^2)/(sqrt(2) - 1) * m/(hbar kappa^2); approached, never attained,
    as |c| -> 2 with a/b -> r^2 * (well-tuned ratio).  Where that overflows,
    or kappa^2 underflows to 0 at huge hbar, it is evaluated over the momenta,
    as (1/(hbar kappa)^2 + 1/(hbar k)^2) m hbar/(sqrt(2) - 1).
    """
    units = kin.units
    r = kin.r
    try:
        bound = (1.0 + r * r) / (math.sqrt(2.0) - 1.0) * units.mass / (units.hbar * kin.kappa**2)
    except (OverflowError, ZeroDivisionError):  # kappa**2 raises rather than reading inf, or reads 0
        bound = math.inf
    if _overflowed(bound):
        ik, ikappa = 1.0 / (units.hbar * kin.k), 1.0 / (units.hbar * kin.kappa)
        scale = units.mass * units.hbar / (math.sqrt(2.0) - 1.0)
        bound = _in_range(ikappa * (ikappa * scale) + ik * (ik * scale), "dwell bound", kin)
    return bound


def libration_prefactor(kin: Kinematics, q: float) -> float:
    """4 (1 + r^2) m (q + 1/kappa)/(hbar k), the microstate-free factor of t_L.

    Where that overflows, it is evaluated as 4 (w + r (r w)) with
    w = m (q + 1/kappa)/(hbar k); a prefactor beyond the double range is a
    :class:`DomainError`.
    """
    return _in_range(_libration_prefactor(kin, q), "libration prefactor", kin)


def _libration_prefactor(kin: Kinematics, q: float) -> float:
    # libration_prefactor, reading inf beyond the double range
    units = kin.units
    r2 = kin.r * kin.r
    prefactor = 4.0 * (1.0 + r2) * units.mass * (q + 1.0 / kin.kappa) / (units.hbar * kin.k)
    if _overflowed(prefactor):
        w = units.mass * (q + 1.0 / kin.kappa) / (units.hbar * kin.k)
        prefactor = 4.0 * (w + kin.r * (kin.r * w))
    return prefactor


def _libration_value(a: float, b: float, c: float, kin: Kinematics, q: float) -> float:
    """t_L by the plain formula, reading inf or NaN where r^4 or a^2 overflows."""
    r2 = kin.r * kin.r
    gauge = math.sqrt(a * b - 0.25 * c * c)
    numerator = gauge * (a + b * r2)
    denominator = a * a + (2.0 * a * b - c * c) * r2 + b * b * r2 * r2
    return _libration_prefactor(kin, q) * numerator / denominator


def libration_period(kin: Kinematics, q: float, ms: Microstate) -> float:
    """Round-trip period of microstate ``ms`` in a well of half-width ``q``.

    The denominator equals (a + b r^2)^2 - c^2 r^2, which is bounded below by
    4 r^2 on the normalized slice, so the exact period is always finite and
    positive; a period beyond the double range is a :class:`DomainError`.
    """
    check_half_width(q)
    gauge_factor(ms)
    a, b, c = ms.a, ms.b, ms.c
    t_L = _libration_value(a, b, c, kin, q)
    if _overflowed(t_L):
        # r^4 or a^2 overflowed.  With t = a/r^2 + b the microstate factor is
        # (1 + 1/r^2) g t/(t^2 - c^2/r^2); dividing through by t leaves no square.
        ir = 1.0 / kin.r
        t = a * ir * ir + b
        ratio = (1.0 + ir * ir) * math.sqrt(a * b - 0.25 * c * c) / (t - c * c * ir * ir / t)
        t_L = _in_range(ratio * libration_period_monochromatic(kin, q), "libration period", kin)
    return t_L


def libration_period_monochromatic(kin: Kinematics, q: float) -> float:
    """Monochromatic round-trip period: 4m(q + 1/kappa)/(hbar k).

    Decomposes exactly as 4 m q/(hbar k), the classical free transit across
    the well and back, plus 2 * 2m/(hbar kappa k), one monochromatic dwell
    per wall.
    """
    check_half_width(q)
    units = kin.units
    return 4.0 * units.mass * (q + 1.0 / kin.kappa) / (units.hbar * kin.k)


def libration_supremum_bound(kin: Kinematics, q: float) -> float:
    """Least upper bound of the libration period over admissible microstates.

    2^(3/2) (1 + r^2) m (q + 1/kappa)/(hbar kappa).  The 1 + r^2 coefficient
    is forced by the maximizing family; see
    :func:`libration_alternative_bound` for the rejected variant.  Where that
    overflows, it is evaluated as 2^(3/2) (w/(hbar kappa) + r w/(hbar k)) with
    w = m (q + 1/kappa).
    """
    check_half_width(q)
    units = kin.units
    r2 = kin.r * kin.r
    bound = 2.0**1.5 * (1.0 + r2) * units.mass * (q + 1.0 / kin.kappa) / (units.hbar * kin.kappa)
    if _overflowed(bound):
        w = units.mass * (q + 1.0 / kin.kappa)
        bound = 2.0**1.5 * (w / (units.hbar * kin.kappa) + kin.r * (w / (units.hbar * kin.k)))
        bound = _in_range(bound, "libration bound", kin)
    return bound


def libration_alternative_bound(kin: Kinematics, q: float) -> float:
    """The 1 - r^2 coefficient variant of the libration bound.

    Recorded for comparison because it circulates as a printed form of the
    bound; it fails already for the monochromatic member once r >= 1 (at
    r = 1 it is zero while the period is positive), and the extremal report
    flags whether it bounds the supremum.
    """
    check_half_width(q)
    units = kin.units
    r2 = kin.r * kin.r
    return 2.0**1.5 * (1.0 - r2) * units.mass * (q + 1.0 / kin.kappa) / (units.hbar * kin.kappa)


@dataclass(frozen=True)
class ExtremalReport:
    """Supremum of a time over the admissible microstates with |c| <= 2 - epsilon.

    ``supremum`` is the value attained at the boundary |c| = 2 - epsilon;
    ``supremum_extrapolated`` removes the leading O(epsilon) deficit by
    Richardson extrapolation in epsilon; ``analytic_bound`` is the closed-form
    least upper bound the supremum must stay below.  For libration reports the
    rejected bound variant and its verdict are attached.
    """

    maximizer: Microstate
    supremum: float
    analytic_bound: float
    epsilon: float
    attained_at_boundary: bool
    supremum_extrapolated: float
    sign: str | None = None
    alternative_bound: float | None = None
    alternative_bound_holds: bool | None = None

    def __post_init__(self) -> None:
        if not self.supremum > 0.0:
            raise OptimizationFailure(f"non-positive supremum {self.supremum!r}")
        if self.supremum > self.analytic_bound * (1.0 + 1e-9):
            raise OptimizationFailure(
                f"supremum {self.supremum!r} exceeds the analytic bound {self.analytic_bound!r}"
            )


def _slice_maximizer(kin: Kinematics, c: float) -> Microstate:
    """The microstate (a*, (1 + c^2/4)/a*, c) with a* = r sqrt(1 + c^2/4).

    There t_D ("-" branch, c >= 0) and t_L are largest over a > 0.
    """
    a = kin.r * math.sqrt(1.0 + 0.25 * c * c)
    return Microstate(a, (1.0 + 0.25 * c * c) / a, c)


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < 2.0):
        raise DomainError(f"epsilon must lie in (0, 2), got {epsilon!r}")


def max_dwell(kin: Kinematics, epsilon: float = 1e-6) -> ExtremalReport:
    """Dwell-time supremum over {normalized, |c| <= 2 - epsilon} x {+, -}.

    The two sign branches are images of each other under c -> -c, so their
    maxima coincide; the report is canonicalized to the representative with
    c >= 0, which selects the "-" branch.  The maximum sits at
    (a*, 2 - epsilon) (module docstring).  The attained value approaches the
    analytic bound linearly in epsilon; ``supremum_extrapolated`` removes
    that deficit with the maximum at the inset |2 - 2 epsilon|.
    """
    _check_epsilon(epsilon)
    top = _slice_maximizer(kin, 2.0 - epsilon)
    sup = dwell_time(kin, top, SIGN_MINUS).t_D
    sup_coarse = dwell_time(kin, _slice_maximizer(kin, abs(2.0 - 2.0 * epsilon)), SIGN_MINUS).t_D
    return ExtremalReport(
        maximizer=top,
        supremum=sup,
        analytic_bound=dwell_supremum_bound(kin),
        epsilon=epsilon,
        attained_at_boundary=abs(top.c) >= 2.0 - epsilon - 1e-9,
        supremum_extrapolated=2.0 * sup - sup_coarse,
        sign=SIGN_MINUS,
    )


def max_libration(kin: Kinematics, q: float, epsilon: float = 1e-6) -> ExtremalReport:
    """Libration-period supremum over {normalized, |c| <= 2 - epsilon}.

    The period depends on c only through c^2; the maximizer is reported with
    c >= 0, at (a*, 2 - epsilon) (module docstring).  Both closed-form bound
    variants are evaluated and the report records whether the rejected
    1 - r^2 form actually bounds the supremum.  ``supremum_extrapolated``
    uses the maximum at the inset |2 - 2 epsilon|.
    """
    _check_epsilon(epsilon)
    check_half_width(q)
    top = _slice_maximizer(kin, 2.0 - epsilon)
    sup = libration_period(kin, q, top)
    sup_coarse = libration_period(kin, q, _slice_maximizer(kin, abs(2.0 - 2.0 * epsilon)))
    alternative = libration_alternative_bound(kin, q)
    return ExtremalReport(
        maximizer=top,
        supremum=sup,
        analytic_bound=libration_supremum_bound(kin, q),
        epsilon=epsilon,
        attained_at_boundary=abs(top.c) >= 2.0 - epsilon - 1e-9,
        supremum_extrapolated=2.0 * sup - sup_coarse,
        sign=None,
        alternative_bound=alternative,
        alternative_bound_holds=sup <= alternative * (1.0 + 1e-9),
    )


def libration_infimum_probe(kin: Kinematics, q: float, A: float) -> float:
    """Libration period of the probe microstate (A, 1/A, 0).

    The probe stays on the normalized slice for every A > 0 and its period
    decays like 1/A, witnessing that the greatest lower bound over the
    admissible family is zero and is never attained.
    """
    if not (math.isfinite(A) and A > 0.0):
        raise DomainError(f"probe amplitude A must be finite and positive, got {A!r}")
    return libration_period(kin, q, normalize(A, 1.0 / A, 0.0))
