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

The extremal searches eliminate b on the normalized slice and maximize over
(a, c) with one vectorized numpy search per report: every slice (sign and
inset) is a row block of one array.  Each slice gets a coarse c-grid; for
every c, a zoom in log a (evaluate an equispaced grid, keep the two cells
around its best point, repeat down to a 1e-12 step) finds the maximum over
a.  A zoom in c around each slice's best cell then refines c, and each of
its inner zooms starts dense around the maximizers of its previous pass.
The search never uses the known maximizer a* = r sqrt(1 + c^2/4), so the
comparison with the closed-form bounds stays a check.
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

#: Objective evaluations per pass of the zoom search, shared by the rows of
#: the pass (4 slices x 81 c's x 9 log-a points on the first pass of a dwell
#: search).  At 23 KB per float64 array a pass's temporaries stay near
#: 0.2 MB; larger passes make the heap grow and shrink on every pass.
_PASS_POINTS = 2916

#: Zoom passes stop once the grid step (in log a and in c) is this fine.
_ZOOM_TOL = 1e-12

#: Half-width (in log a) added around a warm start: far wider than the
#: ~1e-8 over which a double-precision maximum is flat.
_WARM_MARGIN = 1e-6

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


def _dwell_value(a, b, c, kin: Kinematics, sign_factor):
    """t_D on floats or on numpy arrays (np.sqrt rounds like math.sqrt)."""
    units = kin.units
    r = kin.r
    gauge = np.sqrt(a * b - 0.25 * c * c)
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
        t_D=float(_dwell_value(ms.a, ms.b, ms.c, kin, factor)), sign=sign, ms=ms, kin=kin
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


def _libration_value(a, b, c, kin: Kinematics, q: float):
    """t_L on floats or on numpy arrays (np.sqrt rounds like math.sqrt)."""
    r2 = kin.r * kin.r
    gauge = np.sqrt(a * b - 0.25 * c * c)
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
    return float(_libration_value(ms.a, ms.b, ms.c, kin, q))


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


def _zoom(evaluate, x: np.ndarray):
    """Maximize a unimodal function on every row of sorted points ``x`` at once.

    The first pass evaluates ``x``; every later pass evaluates as many
    equispaced points across the two cells around the previous best point,
    so a bracket of n points shrinks by (n - 1)/2 per pass.  The passes stop
    once the two cells kept around every best point span at most
    2 ``_ZOOM_TOL``.  ``evaluate`` takes points shaped like ``x`` and returns
    their values followed by any arrays of that shape to carry along.
    Returns x, the value and the carried arrays at every row's best point,
    each shaped ``x.shape[:-1]``.
    """
    shape, points = x.shape[:-1], x.shape[-1]
    steps = np.linspace(0.0, 1.0, points)
    first = np.arange(0, x.size, points)
    # left end of the two cells kept around each possible best point
    keep = np.clip(np.arange(points) - 1, 0, points - 3)
    x = x.ravel()
    while True:
        values, *carried = evaluate(x.reshape(*shape, points))
        index = values.reshape(-1, points).argmax(axis=1)
        best = first + index
        top = values.ravel()[best]
        # a NaN or +inf in a row is its best point, so this catches them
        if not np.isfinite(top).all():
            raise OptimizationFailure("objective is not finite on the search grid")
        left = first + keep[index]
        lo, hi = x[left], x[left + 2]
        if np.abs(hi - lo).max() <= 2.0 * _ZOOM_TOL:
            return [v.reshape(shape) for v in (x[best], top, *(v.ravel()[best] for v in carried))]
        x = (lo[:, None] + (hi - lo)[:, None] * steps).ravel()


def _inner_max_over_a(objective, c: np.ndarray, near=None):
    """Maximize objective(a, c) over a > 0 for every entry of ``c`` at once.

    The objectives here vanish as a -> 0 or a -> inf and are unimodal in
    log a, so a zoom over the log-a window finds the maximum.  ``near``, a
    (lo, hi) pair of log-a bounds broadcasting against ``c``, makes the first
    grid dense on [lo, hi]; that grid keeps the window's two ends, so a
    maximum outside [lo, hi] is still bracketed.  Returns log a, a and the
    maximum, each shaped like ``c``.
    """
    points = max(_PASS_POINTS // c.size, 5)
    lo, hi = (_LOG_A_LO, _LOG_A_HI) if near is None else near
    grid = np.linspace(lo, hi, points, axis=-1)
    grid[..., 0], grid[..., -1] = _LOG_A_LO, _LOG_A_HI

    def evaluate(log_a):
        a = np.exp(log_a)
        return objective(a, c[..., None]), a

    log_a, value, a = _zoom(evaluate, np.broadcast_to(grid, c.shape + (points,)))
    return log_a, a, value


def _warm_start(log_a: np.ndarray):
    """Log-a bounds (lo, hi) around the maximizers ``log_a`` (one row per slice).

    Their range, widened on each side by that range, so none of them sits in
    an end cell of the grid, and by ``_WARM_MARGIN``, so the grid sees a
    peak rather than the flat top.
    """
    lo, hi = log_a.min(axis=-1, keepdims=True), log_a.max(axis=-1, keepdims=True)
    pad = hi - lo + _WARM_MARGIN
    return np.maximum(lo - pad, _LOG_A_LO), np.minimum(hi + pad, _LOG_A_HI)


def _maximize_over_slices(objective, c_abs) -> list[tuple[float, float, float]]:
    """Maximize objective(a, c) over a > 0, |c| <= c_abs (b eliminated), per slice.

    ``c_abs`` holds one inset per slice, and ``objective`` takes arrays whose
    leading axis runs over the slices.  Every slice gets a coarse c-grid
    that ends on the exact boundary values of c, and a zoom in c around its
    best cell; candidates tied within ``OBJECTIVE_TIE_TOL`` (relative) are
    broken toward smaller c, then smaller a.  Returns one (a, c, value) per
    slice.
    """
    c_abs = np.asarray(c_abs, dtype=float)
    # np.linspace puts -c_abs and c_abs exactly at the grid's ends, so the
    # grid's candidates include the exact boundary values.
    cs = np.linspace(-c_abs, c_abs, _C_GRID_POINTS, axis=-1)
    grid_log_a, grid_a, grid_v = _inner_max_over_a(objective, cs)
    best = grid_v.argmax(axis=-1)
    slices = np.arange(c_abs.size)
    cells = np.clip(best[:, None] + np.arange(-1, 2), 0, _C_GRID_POINTS - 1)
    # Each pass of the c-zoom starts its inner zoom dense around the
    # maximizers of the pass before, which usually bracket those of the new
    # c's; when they do not, the window's ends in the grid still bracket them.
    near = _warm_start(grid_log_a[slices[:, None], cells])

    def evaluate(c):
        nonlocal near
        log_a, a, value = _inner_max_over_a(objective, c, near)
        near = _warm_start(log_a)
        return value, a

    # c and log a share a pass's points evenly (at least 5: a zoom narrows by (points - 1)/2)
    points = max(math.isqrt(_PASS_POINTS // c_abs.size), 5)
    c_grid = np.linspace(cs[slices, cells[:, 0]], cs[slices, cells[:, 2]], points, axis=-1)
    c_ref, v_ref, a_ref = _zoom(evaluate, c_grid)

    found = []
    for s in slices:
        candidates = list(zip(grid_a[s].tolist(), cs[s].tolist(), grid_v[s].tolist()))
        candidates.append((float(a_ref[s]), float(c_ref[s]), float(v_ref[s])))
        top = max(v for _, _, v in candidates)
        tied = [t for t in candidates if t[2] >= top - OBJECTIVE_TIE_TOL * abs(top)]
        found.append(min(tied, key=lambda t: (t[1], t[0])))
    return found


def _slice_microstate(a: float, c: float) -> Microstate:
    return Microstate(a, (1.0 + 0.25 * c * c) / a, c)


def max_dwell(kin: Kinematics, epsilon: float = 1e-6) -> ExtremalReport:
    """Dwell-time supremum over {normalized, |c| <= 2 - epsilon} x {+, -}.

    The two sign branches are images of each other under c -> -c, so their
    maxima coincide; the report is canonicalized to the representative with
    c >= 0, which selects the "-" branch.  The attained value approaches the
    analytic bound linearly in epsilon; ``supremum_extrapolated`` removes
    that deficit.  Both signs at both insets (2 - epsilon and 2 - 2 epsilon)
    are searched together.
    """
    if not (0.0 < epsilon < 2.0):
        raise DomainError(f"epsilon must lie in (0, 2), got {epsilon!r}")
    signs = (SIGN_PLUS, SIGN_MINUS)
    insets = (2.0 - epsilon, 2.0 - 2.0 * epsilon)
    factors = np.array([_sign_factor(sign) for sign in signs] * 2)[:, None, None]

    def objective(a, c):
        return _dwell_value(a, (1.0 + 0.25 * c * c) / a, c, kin, factors)

    found = _maximize_over_slices(objective, [c_abs for c_abs in insets for _ in signs])

    def best_of(pair) -> tuple[float, float, str, float]:
        best: tuple[float, float, str, float] | None = None
        for sign, (a_s, c_s, v_s) in zip(signs, pair):
            # Canonical representative of the (c, sign) symmetry pair.
            if c_s < 0.0:
                c_s = -c_s
                sign = SIGN_MINUS if sign == SIGN_PLUS else SIGN_PLUS
            if best is None or v_s > best[3] * (1.0 + OBJECTIVE_TIE_TOL):
                best = (a_s, c_s, sign, v_s)
        assert best is not None
        return best

    a_star, c_star, sign_star, sup = best_of(found[:2])
    sup_coarse = best_of(found[2:])[3]
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
    Both insets (2 - epsilon and 2 - 2 epsilon) are searched together.
    """
    if not (0.0 < epsilon < 2.0):
        raise DomainError(f"epsilon must lie in (0, 2), got {epsilon!r}")
    check_half_width(q)

    def objective(a, c):
        return _libration_value(a, (1.0 + 0.25 * c * c) / a, c, kin, q)

    (a_star, c_star, sup), (_, _, sup_coarse) = _maximize_over_slices(
        objective, [2.0 - epsilon, 2.0 - 2.0 * epsilon]
    )
    c_star = abs(c_star)
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
