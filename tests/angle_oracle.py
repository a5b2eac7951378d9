"""The square-well angle equation solved in mpmath: an independent oracle for the ladder.

Both parities of slot i reduce to P cos theta = theta + i pi/2 with P = k_max q
and theta = atan2(kappa, k) in (0, pi/2], so k = k_max cos theta and
kappa = k_max sin theta.  The oracle solves that equation at the library's own
double P (and k_max) by safeguarded Newton steps at 80 digits, sharing no code
with the library's float kernel.
"""

from __future__ import annotations

import mpmath

from trdwell.potential import Units, _well_scales, square_well

mpf = mpmath.mpf


def angle_root(P: float, i: int) -> tuple:
    """(cos theta, sin theta), as mpf good to 55 digits, of the root of P cos theta = theta + i pi/2 at the double P.

    The root lies in [d/(P + 1), d] with d = P - i pi/2 > 0, since P versin theta <= P theta.
    """
    with mpmath.workdps(80):
        P, c = mpf(P), i * mpmath.pi / 2
        d = P - c
        assert d > 0, (P, i)
        lo, hi = d / (P + 1), min(d, mpmath.pi / 2)
        x = lo
        for _ in range(400):
            f = P * mpmath.cos(x) - x - c
            if f > 0:
                lo = x
            else:
                hi = x
            step = f / (P * mpmath.sin(x) + 1)
            nxt = x + step
            if not lo <= nxt <= hi:
                nxt = (lo + hi) / 2
            if abs(nxt - x) <= abs(nxt) * mpf(10) ** -60:
                return +mpmath.cos(nxt), +mpmath.sin(nxt)
            x = nxt
        raise AssertionError(f"no root of slot {i} at P = {P}")


def well_p(U: float, q: float, units: Units = Units()) -> tuple[float, float]:
    """The library's double k_max and P = k_max q of square_well(U, q)."""
    _, k_max, _ = _well_scales(square_well(U, q), units)
    return k_max, k_max * q


def state_errors(state, i: int, U: float, k_max: float, P: float) -> tuple[float, float, float]:
    """Relative errors of ``state``'s k, kappa and E against k_max cos theta, k_max sin theta and U cos^2 theta."""
    c, s = angle_root(P, i)
    with mpmath.workdps(60):
        exact = (mpf(k_max) * c, mpf(k_max) * s, mpf(U) * c * c)
        return tuple(float(abs(mpf(got) - want) / want) for got, want in zip((state.k, state.kappa, state.E), exact))
