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

Each time is a unit scale in E, U - E, hbar and m (1 + r^2 = U/E) times a
dimensionless factor in X = sqrt(E/U) and Y = sqrt((U - E)/U): no power of r
is formed.  Outside ordinary inputs ``kinematics._product`` evaluates it, and
a time that is not a normal double is a :class:`DomainError`.
"""

from __future__ import annotations

import math

from .errors import DomainError, OptimizationFailure, _Record
from .kinematics import _NORMAL, _ORDINARY, Kinematics, _product, check_epsilon, check_positive
from .microstate import Microstate, gauge_factor, normalize

SIGN_PLUS = "+"
SIGN_MINUS = "-"


def _sign_factor(sign: str) -> float:
    if sign == SIGN_PLUS:
        return 1.0
    if sign == SIGN_MINUS:
        return -1.0
    raise DomainError(f'sign must be "+" or "-", got {sign!r}')


class DwellResult(_Record):
    """Dwell time of one microstate at one energy, with its inputs echoed."""

    __slots__ = ("t_D", "sign", "ms", "kin")

    def __init__(self, t_D: float, sign: str, ms: Microstate, kin: Kinematics):
        object.__setattr__(self, "t_D", t_D)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "ms", ms)
        object.__setattr__(self, "kin", kin)


def _scaled(what: str, value: float, factors, *args) -> float:
    """``value`` if it is a positive normal double, else ``_product`` of ``factors(*args)``."""
    return value if _NORMAL <= value < math.inf else _product(what, *factors(*args))


def _ratio(kin: Kinematics) -> float:
    """r = Y/X from the energies, for every time that divides by r: kin.r is within 2 ulp, the goldens hold Y/X."""
    X, Y = kin._fractions
    return Y / X


def _dwell(kin: Kinematics) -> float:
    """hbar/sqrt(E (U - E)) as 2m hbar over the momenta sqrt(2mE) sqrt(2m(U - E)), 0 where not ordinary."""
    m, E = kin.units.mass, kin.E
    return 2.0 * m * kin.units.hbar / (math.sqrt(2.0 * m * E) * math.sqrt(2.0 * m * kin._gap)) if kin._plain else 0.0


def _dwell_factors(kin: Kinematics, *extra: float) -> tuple:
    """hbar/sqrt(E (U - E)), the monochromatic dwell, times the base, power pairs ``extra``, as factors."""
    return ((kin.units.hbar, 1.0), (kin.E, -0.5), (kin._gap, -0.5), *zip(extra[::2], extra[1::2]))


def _period(kin: Kinematics, q: float) -> tuple[float, float]:
    """q + 1/kappa (kappa is a normal double), and 4m(q + 1/kappa)/(hbar k) over sqrt(2mE), 0 if not ordinary."""
    check_positive("well half-width q", q)
    length, m = q + 1.0 / kin.kappa, kin.units.mass
    plain = kin._plain and 1.0 / _ORDINARY <= length <= _ORDINARY
    return length, 4.0 * m * length / math.sqrt(2.0 * m * kin.E) if plain else 0.0


def _period_factors(kin: Kinematics, length: float, *extra: float) -> tuple:
    """4 (q + 1/kappa) sqrt(m/(2E)), the monochromatic period, times the pairs ``extra``, as factors."""
    return ((4.0, 1.0), (length, 1.0), (kin.units.mass, 0.5), (2.0, -0.5), (kin.E, -0.5), *zip(extra[::2], extra[1::2]))


def dwell_time(kin: Kinematics, ms: Microstate, sign: str = SIGN_PLUS) -> DwellResult:
    """Sub-barrier dwell time of microstate ``ms`` at the step.

    ``sign`` selects the branch of the +/- in the denominator; the two
    branches are exchanged by c -> -c, so only microstates with c != 0
    distinguish them.  The microstate factor g (1 + r^2)/(a +/- c r + b r^2)
    is g (X^2 + Y^2)/(a X^2 +/- c X Y + b Y^2), exactly 1 at (1, 1, 0).
    """
    factor = _sign_factor(sign)
    gauge = gauge_factor(ms)
    a, b, c = ms.a, ms.b, ms.c
    X, Y = kin._fractions
    denom = X * (a * X + factor * c * Y) + b * Y * Y
    if not denom > 0.0:
        raise DomainError(f"dwell denominator {denom!r} is not positive")
    ratio = gauge * (X * X + Y * Y) / denom
    t_D = _scaled("the dwell time", ratio * _dwell(kin), _dwell_factors, kin, ratio, 1.0)
    return DwellResult(t_D=t_D, sign=sign, ms=ms, kin=kin)


def dwell_time_monochromatic(kin: Kinematics) -> float:
    """Dwell time of the monochromatic microstate: hbar/sqrt(E(U-E)) = 2m/(hbar kappa k), either sign."""
    return _scaled("the monochromatic dwell time", _dwell(kin), _dwell_factors, kin)


def dwell_supremum_bound(kin: Kinematics) -> float:
    """Least upper bound of the dwell time over admissible microstates.

    (1 + r^2)/(sqrt(2) - 1) * m/(hbar kappa^2) = hbar U/(2 (sqrt(2) - 1) E (U - E));
    approached, never attained, as |c| -> 2 with a/b -> r^2 * (well-tuned ratio).
    """
    E, U, hbar, scale = kin.E, kin.U, kin.units.hbar, 2.0 * (math.sqrt(2.0) - 1.0)
    plain = U / E * hbar / (scale * kin._gap) if kin._plain else 0.0
    return _scaled("the dwell bound", plain, _dwell_factors, kin, U, 1.0, E, -0.5, kin._gap, -0.5, scale, -1.0)


def libration_prefactor(kin: Kinematics, q: float) -> float:
    """The microstate-free factor of t_L: 4 (1 + r^2) m (q + 1/kappa)/(hbar k) = (U/E) 4 (q + 1/kappa) sqrt(m/2E)."""
    length, period = _period(kin, q)
    value = kin.U / kin.E * period
    return _scaled("the libration prefactor", value, _period_factors, kin, length, kin.U, 1.0, kin.E, -1.0)


def _slice_peak(kin: Kinematics, q: float) -> float:
    """prefactor/(2r), the largest c = 0 slice period: a double also where the prefactor is not."""
    length, period = _period(kin, q)
    r = _ratio(kin)
    extra = kin.U, 1.0, kin.E, -1.0, 2.0, -1.0, r, -1.0
    return _scaled("the slice peak", kin.U / kin.E * period / (2.0 * r), _period_factors, kin, length, *extra)


def libration_period(kin: Kinematics, q: float, ms: Microstate) -> float:
    """Round-trip period of microstate ``ms`` in a well of half-width ``q``.

    The microstate factor (1 + r^2) g (a + b r^2)/((a + b r^2)^2 - c^2 r^2)
    is g s/(s^2 - (c X Y)^2) with s = a X^2 + b Y^2, and s^2 - (c X Y)^2 is
    at least 4 (g X Y)^2 > 0 on the normalized slice; a period beyond the
    double range is a :class:`DomainError`.
    """
    length, period = _period(kin, q)
    gauge = gauge_factor(ms)
    a, b, c = ms.a, ms.b, ms.c
    X, Y = kin._fractions
    s = X * (a * X) + Y * (b * Y)
    cxy = c * X * Y
    denom = s - cxy * (cxy / s)
    if not denom > 0.0:
        raise DomainError(f"libration denominator {denom!r} is not positive")
    ratio = gauge / denom
    return _scaled("the libration period", ratio * period, _period_factors, kin, length, ratio, 1.0)


def libration_period_monochromatic(kin: Kinematics, q: float) -> float:
    """Monochromatic round-trip period: 4m(q + 1/kappa)/(hbar k) = 4 (q + 1/kappa) sqrt(m/(2E)).

    Decomposes exactly as 4 m q/(hbar k), the classical free transit across
    the well and back, plus 2 * 2m/(hbar kappa k), one monochromatic dwell
    per wall.
    """
    length, period = _period(kin, q)
    return _scaled("the monochromatic libration period", period, _period_factors, kin, length)


def libration_supremum_bound(kin: Kinematics, q: float) -> float:
    """Least upper bound of the libration period over admissible microstates.

    2^(3/2) (1 + r^2) m (q + 1/kappa)/(hbar kappa), the prefactor over sqrt(2) r.
    The 1 + r^2 coefficient is forced by the maximizing family; see
    :func:`libration_alternative_bound` for the rejected variant.
    """
    length, period = _period(kin, q)
    U, E, r = kin.U, kin.E, _ratio(kin)
    value = U / E * period / math.sqrt(2.0) / r
    return _scaled("the libration bound", value, _period_factors, kin, length, U, 1.0, E, -1.0, 2.0, -0.5, r, -1.0)


def libration_alternative_bound(kin: Kinematics, q: float) -> float:
    """The 1 - r^2 coefficient variant of the libration bound.

    Recorded for comparison because it circulates as a printed form of the
    bound; it fails already for the monochromatic member once r >= 1 (at
    r = 1 it is zero while the period is positive), and the extremal report
    flags whether it bounds the supremum.  It is the bound times
    (1 - r^2)/(1 + r^2) = (2E - U)/U, a factor in (-1, 1).
    """
    return libration_supremum_bound(kin, q) * _alternative_factor(kin)


def _alternative_factor(kin: Kinematics) -> float:
    """(2E - U)/U, with 2E - U exact: U - E is exact once E >= U/2, and 2E below."""
    E, U, gap = kin.E, kin.U, kin._gap
    return (E - gap if E >= gap else 2.0 * E - U) / U


class ExtremalReport(_Record):
    """Supremum of a time over the admissible microstates with |c| <= 2 - epsilon.

    ``supremum`` is the value attained at the boundary |c| = 2 - epsilon;
    ``supremum_extrapolated`` removes the leading O(epsilon) deficit by
    Richardson extrapolation in epsilon; ``analytic_bound`` is the closed-form
    least upper bound the supremum must stay below.  For libration reports the
    rejected bound variant and its verdict are attached.
    """

    __slots__ = (
        "maximizer", "supremum", "analytic_bound", "epsilon", "attained_at_boundary", "supremum_extrapolated",
        "sign", "alternative_bound", "alternative_bound_holds",
    )

    def __init__(
        self, maximizer: Microstate, supremum: float, analytic_bound: float, epsilon: float,
        attained_at_boundary: bool, supremum_extrapolated: float, sign: str | None = None,
        alternative_bound: float | None = None, alternative_bound_holds: bool | None = None,
    ):
        if not supremum > 0.0:
            raise OptimizationFailure(f"non-positive supremum {supremum!r}")
        if supremum > analytic_bound * (1.0 + 1e-9):
            raise OptimizationFailure(f"supremum {supremum!r} exceeds the analytic bound {analytic_bound!r}")
        object.__setattr__(self, "maximizer", maximizer)
        object.__setattr__(self, "supremum", supremum)
        object.__setattr__(self, "analytic_bound", analytic_bound)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "attained_at_boundary", attained_at_boundary)
        object.__setattr__(self, "supremum_extrapolated", supremum_extrapolated)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "alternative_bound", alternative_bound)
        object.__setattr__(self, "alternative_bound_holds", alternative_bound_holds)


def _slice_maximizer(kin: Kinematics, c: float) -> Microstate:
    """The microstate (a*, (1 + c^2/4)/a*, c) with a* = r sqrt(1 + c^2/4).

    There t_D ("-" branch, c >= 0) and t_L are largest over a > 0.
    """
    a = kin.r * math.sqrt(1.0 + 0.25 * c * c)
    return Microstate(a, (1.0 + 0.25 * c * c) / a, c)


def _report(top: Microstate, sup: float, coarse: float, epsilon: float, bound: float, *extra) -> ExtremalReport:
    """The report of a supremum ``sup`` at ``top``, and ``coarse`` at the inset |2 - 2 epsilon|."""
    boundary = abs(top.c) >= 2.0 - epsilon - 1e-9
    return ExtremalReport(top, sup, bound, epsilon, boundary, 2.0 * sup - coarse, *extra)


def _tops(kin: Kinematics, epsilon: float) -> tuple[Microstate, Microstate]:
    """The slice maximizers at c = 2 - epsilon and at the inset |2 - 2 epsilon|."""
    check_epsilon(epsilon)
    return _slice_maximizer(kin, 2.0 - epsilon), _slice_maximizer(kin, abs(2.0 - 2.0 * epsilon))


def max_dwell(kin: Kinematics, epsilon: float = 1e-6) -> ExtremalReport:
    """Dwell-time supremum over {normalized, |c| <= 2 - epsilon} x {+, -}.

    The two sign branches are images of each other under c -> -c, so their
    maxima coincide; the report is canonicalized to the representative with
    c >= 0, which selects the "-" branch.  The maximum sits at (a*, 2 - epsilon)
    (module docstring).  The attained value approaches the analytic bound
    linearly in epsilon; ``supremum_extrapolated`` removes that deficit.
    """
    top, inset = _tops(kin, epsilon)
    sup, coarse = dwell_time(kin, top, SIGN_MINUS).t_D, dwell_time(kin, inset, SIGN_MINUS).t_D
    return _report(top, sup, coarse, epsilon, dwell_supremum_bound(kin), SIGN_MINUS)


def max_libration(kin: Kinematics, q: float, epsilon: float = 1e-6) -> ExtremalReport:
    """Libration-period supremum over {normalized, |c| <= 2 - epsilon}.

    The period depends on c only through c^2; the maximizer is reported with
    c >= 0, at (a*, 2 - epsilon) (module docstring).  Both closed-form bound
    variants are evaluated and the report records whether the rejected
    1 - r^2 form actually bounds the supremum.
    """
    top, inset = _tops(kin, epsilon)
    sup, coarse = libration_period(kin, q, top), libration_period(kin, q, inset)
    bound = libration_supremum_bound(kin, q)
    alternative = bound * _alternative_factor(kin)
    return _report(top, sup, coarse, epsilon, bound, None, alternative, sup <= alternative * (1.0 + 1e-9))


def libration_infimum_probe(kin: Kinematics, q: float, A: float) -> float:
    """Libration period of the probe microstate (A, 1/A, 0).

    The probe stays on the normalized slice for every A > 0 and its period
    decays like 1/A, witnessing that the greatest lower bound over the
    admissible family is zero and is never attained.
    """
    check_positive("probe amplitude A", A)
    return libration_period(kin, q, normalize(A, 1.0 / A, 0.0))
