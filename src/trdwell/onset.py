"""The divergence-onset search of :func:`trdwell.trajectory.divergence_onset`, whose docstring states its contract.

The search is a branch-and-bound over the onset grid.  No command runs it, so it loads with the first onset and a
command that samples trajectories does not compile it.
"""

from __future__ import annotations

import math

from .errors import DomainError, ScanNotSettled
from .kinematics import _NORMAL, FORBIDDEN, Kinematics, check_positive
from .microstate import Microstate, RawCoefficients
from .trajectory import _slope, _time_scale
from .wavefield import RegionBasis, _exp, _form, check_basis

#: Step of the divergence-onset grid in the dimensionless depth u = 2 kappa x.
_ONSET_DU = 0.01

#: First grid index (u = 2) of the ratio bound, and the band [_TINY, _HUGE] that gates every bound.
_RATIO_FROM, _TINY, _HUGE = 200, 2.0**-900, 2.0**900


def _speed_bound(ms: Microstate | RawCoefficients, basis: RegionBasis, scale: float):
    """f(lo, hi): a lower bound on the onset grid's speeds at indices lo..hi, each proven a normal double, else 0.0.

    f is 0 unless every partial product of every grid point's speed, as :func:`speed_at` forms it, lies in
    [2^-900, 2^900] (c = 0 forms exact zeros): then each rounding is relative, and each |term| of D and G at a
    point is padded by 1e-12 (1 + u) times their sum.  f is also 0 unless D, G/D, G/D^2 and dW_x/dE are proven
    normal doubles, so never across a zero of G, where the speed diverges.  Over [u1, u2] it is the best of:
    D_lo^2/(|scale| G_max), with D_lo = P(u2) + Q(u1) + c' and G_max = max(G(u1), -G(u2)) (P and G fall with u,
    Q rises); from u1 >= 2, the ratio bound, whose ratio rises with u there; and the speed at u1, where
    2 (Q - P) |G| - u (P + Q) D, bounded below by a function linear in u, is proven positive on [u1, inf).
    """
    kappa, al, be, size, du = basis.wavenumber, abs(basis.alpha), abs(basis.beta), abs(scale), _ONSET_DU
    a, b, c, x0, x1 = ms.a, ms.b, abs(ms.c), min(1.0, 0.5 * du / kappa), max(1.0, 350.0 / kappa)  # x on the grid
    A, B, C, C_abs, size1 = a * al * al, b * be * be, ms.c * basis.alpha * basis.beta, c * al * be, min(size, 1.0)
    # e^(-v) times phi1, a phi1, c phi1, g1 (and e^(-2v) P, 2 P x) fall; e^v times phi2, b phi2, g2 (e^2v Q, 2 Q x)
    # rise; x, g1 phi2, phi1 g2 and C stay.  v_top is where the first leaves the band (350: e^2v stays a double).
    fall, rise = min(al, a * al, c * al if c else al) * x0, 2.0 * max(be, b * be) * x1
    ok = min(fall, A * x0, be * x0, b * be, B * x0, al * be * x0, C_abs if c else 1.0) >= _TINY and kappa < 1e34
    ok = ok and max(al * x1, 2.0 * a * al, c * al, 2.0 * A * x1, al * be * x1, C_abs, x1, 2.0 * a, 2.0 * b) <= _HUGE
    v_top = min(math.log(fall * _HUGE), 0.5 * math.log(A * x0 * _HUGE), math.log(_HUGE / rise),
                0.5 * math.log(_HUGE / (2.0 * B * x1)), 350.0) if ok else -1.0
    i_top = math.floor(2.0 * v_top / du)

    def bound(lo: int, hi: int) -> float:
        if hi > i_top:
            return 0.0
        u1, u2 = lo * du, hi * du  # each index's 2 kappa x to two roundings; the pad covers e^(2^-52 u) - 1 < 2e-13
        e1, e2, delta = math.exp(u1), math.exp(u2), 1e-12 * (1.0 + u2)
        P1, P2, Q1, Q2 = A / e1, A / e2, B * e1, B * e2
        pad = delta * (P1 + Q2 + C_abs)  # 1e12 pad bounds each |term| of D and G
        G1, G2 = (1.0 + u1) * P1 + (1.0 - u1) * Q1 + C, (1.0 + u2) * P2 + (1.0 - u2) * Q2 + C
        D_lo, D_hi, G_lo = P2 + Q1 + C - pad, P1 + Q2 + C + pad, max(G2, -G1) - pad
        if not (_NORMAL <= D_lo and _NORMAL <= G_lo / D_hi and _NORMAL <= size1 * (G_lo / D_hi / D_hi)):
            return 0.0
        p, q = P1 / Q1, C / Q1  # Q units: D = 1 + p + q, -G = u - 1 - (1 + u) p - q, and p, |q| fall with u
        k, r, s = (1.0 + u1) * p + max(q, 0.0), 2.0 * (1.0 - p), (1.0 + p) * (1.0 + p + max(q, 0.0)) * (1.0 + 1e-9)
        if abs(q) < 1.0 and s <= r and u1 * s < r * (u1 - 1.0 - k):  # d ln(speed)/du > 0 on [u1, inf)
            # the relative error of each point's speed, with its |G| >= (u - 1 - k) Q and D >= (1 - |q|) Q
            rho = 1e-12 * (1.0 + p + abs(q)) * (2.0 / (1.0 - abs(q)) + (1.0 + u1) / (u1 - 1.0 - k))
            D1 = P1 + Q1 + C
            if rho < 0.25:
                return 1.0 / (size * (-G1 / D1 / D1 / (1.0 - 2.0 * rho)))
        speed = 1.0 / (size * ((max(G1, -G2) + pad) / D_lo / D_lo))
        N = Q1 - 2.0 * delta * (Q1 + P1) - (1.0 + delta) * C_abs
        if u1 >= 2.0 and N > 0.0:  # D >= Q - |c'| and |G| <= (u - 1) Q + (1 + u1) P1 + |c'|
            den = (u1 - 1.0 + delta) * Q1 + (1.0 + u1 + delta) * P1 + (1.0 + delta) * C_abs
            speed = max(speed, 1.0 / (size * (den / N / N)))
        return speed

    return bound


def _onset_hint(ms: Microstate | RawCoefficients, basis: RegionBasis, log_ab: float, log_floor: float) -> float:
    """u near the speed's crossing of the floor, or nan: Newton's method on ln(D^2/|G|) = ln(|scale| floor) in Q
    units, from the root of u - ln(u - 1) = ``log_floor`` = ln(|scale| floor/b'); ``log_ab`` is ln(a'/b')."""
    u = log_floor + math.log(log_floor - 1.0) if log_floor > 2.0 else 2.0
    ratio, cb = _exp(log_ab), ms.c * basis.alpha / basis.beta / ms.b if ms.c else 0.0  # a'/b', c'/b'
    try:
        for _ in range(3):
            e = _exp(-u)
            p, q = ratio * e * e, cb * e  # P/Q and c'/Q
            d, g = 1.0 + p + q, (1.0 + u) * p + 1.0 - u + q
            f = u + 2.0 * math.log(d) - math.log(abs(g)) - log_floor
            u -= f / (1.0 - 2.0 * (2.0 * p + q) / d + ((1.0 + 2.0 * u) * p + 1.0 + q) / g)
    except (ValueError, ArithmeticError):  # a log of 0 or less, or a division by 0: no hint
        return math.nan
    return u


def divergence_onset(
    kin: Kinematics, ms: Microstate | RawCoefficients, basis: RegionBasis, speed_floor: float
) -> float:
    """The search of :func:`trdwell.trajectory.divergence_onset`, from the proven end v_end.

    For v = u/2 >= max(1, ln(4a'/b')/4), D >= Q/4 and |G| <= 2.75 v Q, so the speed is at least b' e^(2v)/(44 v
    |scale|), above the floor wherever 2v - ln v > L = ln(44 |scale| floor/b').  2v - ln v grows with v and exceeds
    L at v = (L + ln L)/2 (L > 1), so no speed at or past v_end = max(1, ln(4a'/b')/4, (L + ln L)/2) is at or below
    the floor.
    """
    if basis.region != FORBIDDEN:
        raise DomainError("speed divergence is a forbidden-region phenomenon")
    check_basis(basis, kin)
    check_positive("speed_floor", speed_floor)
    kappa, scale = basis.wavenumber, _time_scale(ms, basis, kin)
    # v_end in logarithms: a'/b' and 44 |scale| floor/b' may lie beyond the doubles
    log_a, log_b = math.log(ms.a) + 2.0 * math.log(abs(basis.alpha)), math.log(ms.b) + 2.0 * math.log(abs(basis.beta))
    L = math.log(44.0) + math.log(abs(scale)) + math.log(speed_floor) - log_b
    v_end = max(1.0, 0.25 * (math.log(4.0) + log_a - log_b), 0.5 * (L + math.log(L)) if L > 1.0 else 1.0)
    top, u = math.ceil(2.0 * v_end / _ONSET_DU), _onset_hint(ms, basis, log_a - log_b, L - math.log(44.0))
    h = int(u / _ONSET_DU) if 0.0 < u < top * _ONSET_DU else -1
    cuts = sorted({cut for cut in (h, h + 1, _RATIO_FROM) if 0 < cut <= top})
    bound, intervals = _speed_bound(ms, basis, scale), list(zip([0, *cuts], [cut - 1 for cut in cuts] + [top]))
    while intervals:
        lo, hi = intervals.pop()
        if lo == hi:
            x = lo * _ONSET_DU / (2.0 * kappa)
            phi1, phi2, _, _, g1, g2 = basis._functions(x)
            D = _form(ms, phi1, phi2)
            size = abs(_slope(ms, scale, kappa, D, phi1, phi2, g1, g2)) if _NORMAL <= D < math.inf else math.nan
            if not _NORMAL <= size < math.inf:
                raise ScanNotSettled(f"the speed at x = {x!r} is no double, and not proven above the floor")
            if 1.0 / size <= speed_floor:
                return (lo * _ONSET_DU + _ONSET_DU) / (2.0 * kappa)
        elif not bound(lo, hi) > speed_floor * (1.0 + 1e-9):
            intervals += (lo, (lo + hi) // 2), ((lo + hi) // 2 + 1, hi)
    return 0.0
