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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OptimizationFailure
from .microstate import Microstate, normalize
from .potential import Kinematics, check_half_width
from .wavefield import gauge_factor

SIGN_PLUS = "+"
SIGN_MINUS = "-"

#: Log-space search window for the coefficient a in extremal searches.
_LOG_A_LO = math.log(1e-8)
_LOG_A_HI = math.log(1e8)

#: Resolution of the coarse c-grid bracketing the extremum.
_C_GRID_POINTS = 81

#: Two candidate maximizers closer than this (relative, in objective value)
#: are considered tied and broken deterministically.
OBJECTIVE_TIE_TOL = 1e-10


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


def _dwell_value(a: float, b: float, c: float, kin: Kinematics, sign_factor: float) -> float:
    units = kin.units
    r = kin.r
    gauge = math.sqrt(a * b - 0.25 * c * c)
    denom = a + sign_factor * c * r + b * r * r
    prefactor = units.mass / (units.hbar * kin.kappa * kin.k)
    return 2.0 * gauge * (1.0 + r * r) / denom * prefactor


def dwell_time(kin: Kinematics, ms: Microstate, sign: str = SIGN_PLUS) -> DwellResult:
    """Sub-barrier dwell time of microstate ``ms`` at the step.

    ``sign`` selects the branch of the +/- in the denominator; the two
    branches are exchanged by c -> -c, so only microstates with c != 0
    distinguish them.
    """
    factor = _sign_factor(sign)
    gauge_factor(ms)  # validates positivity; the value is 1 on the normalized slice
    denom = ms.a + factor * ms.c * kin.r + ms.b * kin.r * kin.r
    if not denom > 0.0:
        raise DomainError(f"dwell denominator {denom!r} is not positive")
    return DwellResult(
        t_D=_dwell_value(ms.a, ms.b, ms.c, kin, factor), sign=sign, ms=ms, kin=kin
    )


def dwell_time_monochromatic(kin: Kinematics) -> float:
    """Dwell time of the monochromatic microstate: 2m/(hbar kappa k).

    Equal to hbar/sqrt(E(U-E)); both signs coincide because c = 0.
    """
    units = kin.units
    return 2.0 * units.mass / (units.hbar * kin.kappa * kin.k)


def dwell_supremum_bound(kin: Kinematics) -> float:
    """Least upper bound of the dwell time over admissible microstates.

    (1 + r^2)/(sqrt(2) - 1) * m/(hbar kappa^2); approached, never attained,
    as |c| -> 2 with a/b -> r^2 * (well-tuned ratio).
    """
    units = kin.units
    r = kin.r
    return (1.0 + r * r) / (math.sqrt(2.0) - 1.0) * units.mass / (units.hbar * kin.kappa**2)


def libration_prefactor(kin: Kinematics, q: float) -> float:
    """4 (1 + r^2) m (q + 1/kappa)/(hbar k), the microstate-free factor of t_L."""
    units = kin.units
    r2 = kin.r * kin.r
    return 4.0 * (1.0 + r2) * units.mass * (q + 1.0 / kin.kappa) / (units.hbar * kin.k)


def _libration_value(a: float, b: float, c: float, kin: Kinematics, q: float) -> float:
    r2 = kin.r * kin.r
    gauge = math.sqrt(a * b - 0.25 * c * c)
    numerator = gauge * (a + b * r2)
    denominator = a * a + (2.0 * a * b - c * c) * r2 + b * b * r2 * r2
    return libration_prefactor(kin, q) * numerator / denominator


def libration_period(kin: Kinematics, q: float, ms: Microstate) -> float:
    """Round-trip period of microstate ``ms`` in a well of half-width ``q``.

    The denominator equals (a + b r^2)^2 - c^2 r^2, which is bounded below by
    4 r^2 on the normalized slice, so the period is always finite and
    positive.
    """
    check_half_width(q)
    gauge_factor(ms)
    return _libration_value(ms.a, ms.b, ms.c, kin, q)


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
    :func:`libration_alternative_bound` for the rejected variant.
    """
    check_half_width(q)
    units = kin.units
    r2 = kin.r * kin.r
    return 2.0**1.5 * (1.0 + r2) * units.mass * (q + 1.0 / kin.kappa) / (units.hbar * kin.kappa)


def libration_alternative_bound(kin: Kinematics, q: float) -> float:
    """The 1 - r^2 coefficient variant of the libration bound.

    Recorded for comparison because it circulates as a printed form of the
    bound; it fails already for the monochromatic member once r >= 1 (at
    r = 1 it is zero while the period is positive), and the extremal report
    flags whether it survived the search.
    """
    check_half_width(q)
    units = kin.units
    r2 = kin.r * kin.r
    return 2.0**1.5 * (1.0 - r2) * units.mass * (q + 1.0 / kin.kappa) / (units.hbar * kin.kappa)


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of a bounded extremal search over admissible microstates.

    ``supremum`` is the value attained at the boundary |c| = 2 - epsilon;
    ``supremum_extrapolated`` removes the leading O(epsilon) deficit by
    Richardson extrapolation in epsilon; ``analytic_bound`` is the closed-form
    least upper bound the search must stay below.  For libration searches the
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
                f"search value {self.supremum!r} exceeds the analytic bound {self.analytic_bound!r}"
            )


def _inner_max_over_a(objective_of_a, c: float) -> tuple[float, float]:
    """Maximize objective(a) at fixed c over a > 0, working in log a.

    The objectives here vanish as a -> 0 or a -> inf and are unimodal in
    log a, so a bounded scalar search on a generous window is exact.
    """
    # scipy.optimize is imported on first use: it dominates the package's
    # import time, and most commands never run a search.
    from scipy.optimize import minimize_scalar

    result = minimize_scalar(
        lambda log_a: -objective_of_a(math.exp(log_a), c),
        bounds=(_LOG_A_LO, _LOG_A_HI),
        method="bounded",
        options={"xatol": 1e-12},
    )
    if not result.success:
        raise OptimizationFailure(f"inner line search failed at c={c!r}: {result.message}")
    return math.exp(result.x), -float(result.fun)


def _maximize_over_slice(objective, c_abs: float) -> tuple[float, float, float]:
    """Maximize objective(a, c) over a > 0, |c| <= c_abs (b eliminated).

    Coarse c-grid, local refinement around the best cell, plus the exact
    boundary values of c; candidates tied within ``OBJECTIVE_TIE_TOL``
    (relative) are broken toward smaller c, then smaller a.  Returns
    (a, c, value).
    """
    from scipy.optimize import minimize_scalar

    cs = np.linspace(-c_abs, c_abs, _C_GRID_POINTS)
    candidates: list[tuple[float, float, float]] = []
    for c in cs:
        a, value = _inner_max_over_a(objective, float(c))
        candidates.append((a, float(c), value))
    best_idx = max(range(len(candidates)), key=lambda i: candidates[i][2])
    lo = cs[max(best_idx - 1, 0)]
    hi = cs[min(best_idx + 1, len(cs) - 1)]
    if hi > lo:
        refine = minimize_scalar(
            lambda c: -_inner_max_over_a(objective, c)[1],
            bounds=(float(lo), float(hi)),
            method="bounded",
            options={"xatol": 1e-12},
        )
        if refine.success:
            c_star = float(refine.x)
            a_star, v_star = _inner_max_over_a(objective, c_star)
            candidates.append((a_star, c_star, v_star))
    for c_edge in (-c_abs, c_abs):
        a_edge, v_edge = _inner_max_over_a(objective, c_edge)
        candidates.append((a_edge, c_edge, v_edge))

    top = max(v for _, _, v in candidates)
    tied = [t for t in candidates if t[2] >= top - OBJECTIVE_TIE_TOL * abs(top)]
    a_best, c_best, v_best = min(tied, key=lambda t: (t[1], t[0]))
    return a_best, c_best, v_best


def _slice_microstate(a: float, c: float) -> Microstate:
    return Microstate(a, (1.0 + 0.25 * c * c) / a, c)


def max_dwell(kin: Kinematics, epsilon: float = 1e-6) -> ExtremalReport:
    """Dwell-time supremum over {normalized, |c| <= 2 - epsilon} x {+, -}.

    The two sign branches are images of each other under c -> -c, so their
    maxima coincide; the report is canonicalized to the representative with
    c >= 0, which selects the "-" branch.  The attained value approaches the
    analytic bound linearly in epsilon; ``supremum_extrapolated`` removes
    that deficit.
    """
    if not (0.0 < epsilon < 2.0):
        raise DomainError(f"epsilon must lie in (0, 2), got {epsilon!r}")

    def run(c_abs: float) -> tuple[float, float, str, float]:
        best: tuple[float, float, str, float] | None = None
        for sign in (SIGN_PLUS, SIGN_MINUS):
            factor = _sign_factor(sign)

            def objective(a: float, c: float, factor: float = factor) -> float:
                return _dwell_value(a, (1.0 + 0.25 * c * c) / a, c, kin, factor)

            a_s, c_s, v_s = _maximize_over_slice(objective, c_abs)
            # Canonical representative of the (c, sign) symmetry pair.
            if c_s < 0.0:
                c_s = -c_s
                sign = SIGN_MINUS if sign == SIGN_PLUS else SIGN_PLUS
            candidate = (a_s, c_s, sign, v_s)
            if best is None or v_s > best[3] * (1.0 + OBJECTIVE_TIE_TOL):
                best = candidate
        assert best is not None
        return best

    a_star, c_star, sign_star, sup = run(2.0 - epsilon)
    _, _, _, sup_coarse = run(2.0 - 2.0 * epsilon)
    return ExtremalReport(
        maximizer=_slice_microstate(a_star, c_star),
        supremum=sup,
        analytic_bound=dwell_supremum_bound(kin),
        epsilon=epsilon,
        attained_at_boundary=abs(c_star) >= 2.0 - epsilon - 1e-9,
        supremum_extrapolated=2.0 * sup - sup_coarse,
        sign=sign_star,
    )


def max_libration(kin: Kinematics, q: float, epsilon: float = 1e-6) -> ExtremalReport:
    """Libration-period supremum over {normalized, |c| <= 2 - epsilon}.

    The period depends on c only through c^2; the maximizer is reported with
    c >= 0.  Both closed-form bound variants are evaluated and the report
    records whether the rejected 1 - r^2 form actually bounds the search.
    """
    if not (0.0 < epsilon < 2.0):
        raise DomainError(f"epsilon must lie in (0, 2), got {epsilon!r}")
    check_half_width(q)

    def objective(a: float, c: float) -> float:
        return _libration_value(a, (1.0 + 0.25 * c * c) / a, c, kin, q)

    def run(c_abs: float) -> tuple[float, float, float]:
        a_s, c_s, v_s = _maximize_over_slice(objective, c_abs)
        return a_s, abs(c_s), v_s

    a_star, c_star, sup = run(2.0 - epsilon)
    _, _, sup_coarse = run(2.0 - 2.0 * epsilon)
    alternative = libration_alternative_bound(kin, q)
    return ExtremalReport(
        maximizer=_slice_microstate(a_star, c_star),
        supremum=sup,
        analytic_bound=libration_supremum_bound(kin, q),
        epsilon=epsilon,
        attained_at_boundary=abs(c_star) >= 2.0 - epsilon - 1e-9,
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
