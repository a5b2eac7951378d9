"""A numeric maximization of an objective over (a, c), slice by slice: the test oracle.

:func:`trdwell.times.max_dwell` and :func:`trdwell.times.max_libration`
evaluate their suprema in closed form at the maximizer
a* = r sqrt(1 + c^2/4), c = 2 - epsilon.  This search never uses that
maximizer, so the tests compare the two as independent answers.

It eliminates b on the normalized slice and maximizes over (a, c) with one
vectorized search: every slice (sign and inset) is a row block of one
array.  Each slice gets a coarse c-grid; for every c, a zoom in log a
(evaluate an equispaced grid, keep the two cells around its best point,
repeat down to a 1e-12 step) finds the maximum over a.  A zoom in c around
each slice's best cell then refines c, and each of its inner zooms starts
dense around the maximizers of its previous pass.

The log-a window is [1e-8, 1e8] moved by round(log10 r) decades, so it
follows r = kappa/k, an input, and never the maximizer.
"""

from __future__ import annotations

import math

import numpy as np

from trdwell.errors import OptimizationFailure
from trdwell.potential import Kinematics
from trdwell.times import dwell_time_monochromatic, libration_period_monochromatic

#: Two candidate maximizers closer than this (relative, in objective value)
#: are considered tied and broken deterministically.
OBJECTIVE_TIE_TOL = 1e-10

#: Log-space search window for the coefficient a in extremal searches at
#: r = kappa/k near 1; it moves by whole decades with r (see ``_log_a_window``).
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


def _log_a_window(r: float) -> tuple[float, float]:
    """The log-a window [ln 1e-8, ln 1e8] moved by round(log10 r) decades.

    The objectives peak near a ~ r, so the window follows r, an input of the
    search, rather than the maximizer; for |log10 r| < 0.5 it stays put.
    """
    shift = round(math.log10(r)) * math.log(10.0)
    return _LOG_A_LO + shift, _LOG_A_HI + shift


def _inner_max_over_a(objective, c: np.ndarray, window, near=None):
    """Maximize objective(a, c) over a > 0 for every entry of ``c`` at once.

    The objectives here vanish as a -> 0 or a -> inf and are unimodal in
    log a, so a zoom over the log-a ``window`` (lo, hi) finds the maximum.
    ``near``, a (lo, hi) pair of log-a bounds broadcasting against ``c``,
    makes the first grid dense on [lo, hi]; that grid keeps the window's two
    ends, so a maximum outside [lo, hi] is still bracketed.  Returns log a,
    a and the maximum, each shaped like ``c``.
    """
    points = max(_PASS_POINTS // c.size, 5)
    lo, hi = window if near is None else near
    grid = np.linspace(lo, hi, points, axis=-1)
    grid[..., 0], grid[..., -1] = window

    def evaluate(log_a):
        a = np.exp(log_a)
        return objective(a, c[..., None]), a

    log_a, value, a = _zoom(evaluate, np.broadcast_to(grid, c.shape + (points,)))
    return log_a, a, value


def _warm_start(log_a: np.ndarray, window):
    """Log-a bounds (lo, hi) around the maximizers ``log_a`` (one row per slice).

    Their range, widened on each side by that range, so none of them sits in
    an end cell of the grid, and by ``_WARM_MARGIN``, so the grid sees a
    peak rather than the flat top.
    """
    lo, hi = log_a.min(axis=-1, keepdims=True), log_a.max(axis=-1, keepdims=True)
    pad = hi - lo + _WARM_MARGIN
    return np.maximum(lo - pad, window[0]), np.minimum(hi + pad, window[1])


@np.errstate(all="ignore")  # an overflow reads inf or NaN, which _zoom rejects
def maximize_over_slices(objective, c_abs, r: float = 1.0) -> list[tuple[float, float, float]]:
    """Maximize objective(a, c) over a > 0, |c| <= c_abs (b eliminated), per slice.

    ``c_abs`` holds one inset per slice, and ``objective`` takes arrays whose
    leading axis runs over the slices.  Every slice gets a coarse c-grid
    that ends on the exact boundary values of c, and a zoom in c around its
    best cell; candidates tied within ``OBJECTIVE_TIE_TOL`` (relative) are
    broken toward smaller c, then smaller a.  ``r`` = kappa/k places the
    log-a window (``_log_a_window``).  Returns one (a, c, value) per slice.
    """
    c_abs = np.asarray(c_abs, dtype=float)
    # np.linspace puts -c_abs and c_abs exactly at the grid's ends, so the
    # grid's candidates include the exact boundary values.
    cs = np.linspace(-c_abs, c_abs, _C_GRID_POINTS, axis=-1)
    window = _log_a_window(r)
    grid_log_a, grid_a, grid_v = _inner_max_over_a(objective, cs, window)
    best = grid_v.argmax(axis=-1)
    slices = np.arange(c_abs.size)
    cells = np.clip(best[:, None] + np.arange(-1, 2), 0, _C_GRID_POINTS - 1)
    # Each pass of the c-zoom starts its inner zoom dense around the
    # maximizers of the pass before, which usually bracket those of the new
    # c's; when they do not, the window's ends in the grid still bracket them.
    near = _warm_start(grid_log_a[slices[:, None], cells], window)

    def evaluate(c):
        nonlocal near
        log_a, a, value = _inner_max_over_a(objective, c, window, near)
        near = _warm_start(log_a, window)
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


def dwell_values(a, b, c, kin: Kinematics, sign_factor):
    """t_D on arrays, in the operation order of the plain formula of :func:`trdwell.times.dwell_time`.

    ``sign_factor`` (+1 or -1, or an array of them broadcasting against
    ``a``) selects the branch of the +/- in the denominator.
    """
    X, Y = kin._fractions
    gauge = np.sqrt(a * b - 0.25 * c * c)
    ratio = gauge * (X * X + Y * Y) / (X * (a * X + sign_factor * c * Y) + b * Y * Y)
    return ratio * dwell_time_monochromatic(kin)


def libration_values(a, b, c, kin: Kinematics, q: float):
    """t_L on arrays, in the operation order of the plain formula of :func:`trdwell.times.libration_period`."""
    X, Y = kin._fractions
    s = X * (a * X) + Y * (b * Y)
    cxy = c * X * Y
    ratio = np.sqrt(a * b - 0.25 * c * c) / (s - cxy * (cxy / s))
    return ratio * libration_period_monochromatic(kin, q)


def on_slice(values, *args):
    """The objective (a, c) -> values(a, (1 + c^2/4)/a, c, *args), b eliminated on the normalized slice."""
    return lambda a, c: values(a, (1.0 + 0.25 * c * c) / a, c, *args)
