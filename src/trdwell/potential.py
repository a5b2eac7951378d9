"""Square-well bound states: the eigenvalue ladder.

Only the commands that list or use well states load this module; the
potentials, unit bundles and kinematics it builds on live in
:mod:`trdwell.kinematics`, whose public names it re-exports.

Square-well bound states need no scan: both parities of state i solve one
equation, P cos theta = theta + i pi/2, with P = k_max q, theta = atan2(kappa, k)
and k_max = sqrt(2 m U)/hbar, so k = k_max cos theta and kappa = k_max sin theta.
One Newton kernel solves it in the smaller of theta and pi/2 - theta, with sin
and 1 - cos as polynomials and only + - * / and a correctly rounded sqrt, so it
runs unchanged on Python floats and on numpy arrays and gives both the same
bits.  A single state (:func:`bound_state`) is solved on floats, without
numpy.  The whole ladder (:func:`bound_state_energies`) is solved in passes of
at most 2,048 slots: a pass of fewer than ``_SCALAR_SLOTS`` slots slot by slot,
as :func:`bound_state` solves one, so shallow wells need no numpy, and a longer
one as arrays, imported on first use, whose records are filled in through the
slot descriptors of :class:`BoundState` rather than its frozen ``__init__``.
Every ladder state is bit for bit the state :func:`bound_state` returns, and
its k and kappa lie within ``_ANGLE_RTOL`` of the root at the well's own P.
"""

from __future__ import annotations

import collections
import itertools
import math

from .errors import DomainError, _Record
from .kinematics import PARITY_BOTH, PARITY_EVEN, PARITY_ODD, SQUARE_WELL, Kinematics, Units, _ordinary, _product
# the rest of the kinematics API, re-exported: every public trdwell.potential.X still resolves
from .kinematics import FORBIDDEN, FREE, STEP_BARRIER, Potential, check_epsilon, check_positive  # noqa: F401
from .kinematics import kinematics_from_energies, make_kinematics, square_well, step_barrier  # noqa: F401


class BoundState(_Record):
    """One square-well eigenstate: energy, parity, and its wavenumber pair."""

    __slots__ = ("E", "parity", "k", "kappa")

    def __init__(self, E: float, parity: str, k: float, kappa: float):
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "kappa", kappa)

    def __getstate__(self) -> list:
        return [self.E, self.parity, self.k, self.kappa]  # the state that BoundState pickles have always held


#: The slot descriptors of BoundState's fields, in field order.
_BOUND_STATE_FIELDS = (BoundState.E, BoundState.parity, BoundState.k, BoundState.kappa)

#: Parity of even and odd ladder slots, indexed by i % 2.
_PARITIES = (PARITY_EVEN, PARITY_ODD)


def matching_residual(state: BoundState, q: float) -> float:
    """Signed distance in k from ``state`` to the root of its matching condition.

    The standard tan/cot form g(k) (k tan(kq) - kappa for even parity,
    -k cot(kq) - kappa for odd) divided by its derivative along the ladder,
    where dkappa/dk = -k/kappa: the Newton step k - k_root.  Near a pole of
    tan or cot g is ill-conditioned, g/g' is not.  Being independent of the
    angle equation the solver uses, it doubles as a check.
    """
    k, kappa = state.k, state.kappa
    kq = k * q
    if state.parity == PARITY_EVEN:
        t = math.tan(kq)
        return (k * t - kappa) / (t + kq / math.cos(kq) ** 2 + k / kappa)
    t = 1.0 / math.tan(kq)
    return (-k * t - kappa) / (-t + kq / math.sin(kq) ** 2 + k / kappa)


def _well_scales(pot: Potential, units: Units) -> tuple[float, float, bool]:
    """Half-width q, wavenumber ceiling k_max = sqrt(2 m U)/hbar, and whether U, hbar, m are ordinary."""
    if pot.kind != SQUARE_WELL:
        raise DomainError("bound states are defined for the square well only")
    assert pot.q is not None
    U, hbar, m = pot.U, units.hbar, units.mass
    if _ordinary(U, hbar, m):
        return pot.q, math.sqrt(2.0 * m * U) / hbar, True
    return pot.q, _product("the well wavenumber sqrt(2 m U)/hbar", (2.0, 0.5), (m, 0.5), (U, 0.5), (hbar, -1.0)), False


#: pi/2 = _HALF_PI + _HALF_PI_TAIL, and _HALF_PI = _HALF_PI_HI + _HALF_PI_LO exactly, halves of 25 and
#: 24 bits for Dekker's exact product; _VELTKAMP splits a slot number into halves of at most 26 bits.
_HALF_PI = 0.5 * math.pi
_HALF_PI_HI = float.fromhex("0x1.921fb5p+0")
_HALF_PI_LO = float.fromhex("0x1.110b46p-26")
_HALF_PI_TAIL = 6.123233995736766e-17
_VELTKAMP = 2.0**27 + 1.0

_SQRT_HALF = math.sqrt(0.5)

#: Taylor coefficients of (sin x - x)/x^3 and of (1 - cos x)/x^2, in powers of x^2, to x^19 and x^20:
#: on [0, pi/4] the first term left out is below 2^-70 of the sum.
_SIN = tuple((-1) ** n / math.factorial(2 * n + 1) for n in range(1, 10))
_VERSIN = tuple((-1) ** n / math.factorial(2 * n + 2) for n in range(10))

#: Newton steps of the angle solve.  From its starts, 3 steps leave 4e-12 (U = 1e4, q = 30); 4 reach
#: the rounding of the last step.
_NEWTON_STEPS = 4

#: Relative accuracy of every state's k, and of its kappa wherever d = P - i pi/2 exceeds 2^-53 i,
#: against the root of the angle equation at the well's own P: 4 ulp.  The worst seen against
#: 50-digit roots is 2.3e-16.
_ANGLE_RTOL = 2.0**-50

#: Slot numbers below 2^53 are doubles, so each slot's own d = P - i pi/2 can decide it.
_EXACT_SLOTS = 2**53

#: Most ladder slots solved together in one array pass.  Each pass keeps a
#: few dozen 16 KB arrays; larger passes make the heap grow and shrink.
_LADDER_PASS = 2048

#: Most states one ladder call lists: 2^21, about 52 times the deepest benchmark ladder (40,000).  A
#: held ladder costs about 212 bytes a state.  ``energies --U 1e6 --q 2329.350207551823`` lists
#: exactly 2^21 states in 66 s at a peak RSS of 1.93 GB, most of both in printing them; its
#: bound_state_energies call alone takes 4.4 s and 0.36 GB (2 vCPU Xeon, Python 3.11.7).
_LADDER_MAX = 2**21

#: Passes of fewer slots are solved by the float kernel, without numpy.  Warm, on 2 vCPU Xeon,
#: in ms, floats against arrays: 8 slots 0.09-0.10 against 0.34-0.44, 24 slots 0.20-0.30
#: against 0.44-0.49, 32 slots 0.34-0.42 against 0.29-0.46, 40 slots 0.49-0.53 against
#: 0.46-0.52, and 64 slots 0.74-0.81 against 0.47-0.49 (about 12 us a slot on floats).
_SCALAR_SLOTS = 36


def _half_pi_multiple(i):
    """(p, e, t) with p + e = i fl(pi/2) exactly (Dekker's product) and t = i (pi/2 - fl(pi/2)), for a float
    or an array of slots i below 2^53: i pi/2 to about 2^-106 of itself, plus the rounding of t."""
    p = i * _HALF_PI
    c = _VELTKAMP * i
    hi = c - (c - i)
    lo = i - hi
    e = ((hi * _HALF_PI_HI - p) + hi * _HALF_PI_LO + lo * _HALF_PI_HI) + lo * _HALF_PI_LO
    return p, e, i * _HALF_PI_TAIL


def _reduced(P, i):
    """d = P - i pi/2, for a float or an array of slots i.  P - p is exact wherever d is small beside P."""
    p, e, t = _half_pi_multiple(i)
    return ((P - p) - e) - t


def _is_top(P, i):
    """Whether the root of slot i (a float or an array) has theta <= pi/4: P cos(pi/4) <= pi/4 + i pi/2."""
    return P * _SQRT_HALF <= (i + 0.5) * _HALF_PI


def _sin_versin(x):
    """sin x and 1 - cos x for 0 <= x <= pi/4 (floats or arrays alike), by + and * only."""
    z = x * x
    s, v = _SIN[-1], _VERSIN[-1]
    for c in _SIN[-2::-1]:
        s = s * z + c
    for c in _VERSIN[-2::-1]:
        v = v * z + c
    return x + x * (z * s), z * v


def _slot_root(P, i, top: bool, sqrt):
    """cos theta and sin theta of the root of P cos theta = theta + i pi/2, theta in [0, pi/2].

    Both parities reduce to this one equation: k = k_max cos theta and kappa = k_max sin theta with
    theta = atan2(kappa, k), and k q = P cos theta is theta past the slot's lower end i pi/2 (even
    parity, k tan(kq) = kappa) or past it by pi/2 (odd, -k cot(kq) = kappa).  ``i`` is a float or an
    array of slots whose roots lie all on the side of pi/4 that ``top`` (:func:`_is_top`) names, and
    the smaller angle is solved, so that cos and sin both keep their digits:

    * top, theta <= pi/4: F(theta) = d - P versin theta - theta with d = P - i pi/2, decreasing and
      concave.  Its start, the root 2d/(1 + sqrt(1 + 2Pd)) of d - P theta^2/2 - theta, lies below the
      root (versin theta <= theta^2/2); one Newton step carries it above, and from there Newton
      descends monotonically.
    * bottom, phi = pi/2 - theta < pi/4: G(phi) = P sin phi + phi - (i + 1) pi/2, increasing and
      concave.  Its start (i + 1)(pi/2)/(P + 1) lies below the root (sin phi <= phi), and Newton
      ascends monotonically.

    Only + - * / and ``sqrt`` (math.sqrt or np.sqrt, both correctly rounded) are used, so floats and
    arrays give the same bits.  Every multiple of pi/2 is :func:`_half_pi_multiple`'s, and P sin phi
    lies within a factor 2 of it, so that the bottom form's first difference is exact too.
    """
    if top:
        d = _reduced(P, i)
        x = 2.0 * d / (1.0 + sqrt(1.0 + 2.0 * P * d))
        for _ in range(_NEWTON_STEPS):
            s, v = _sin_versin(x)
            x = x + (d - P * v - x) / (P * s + 1.0)
        s, v = _sin_versin(x)
        return 1.0 - v, s
    j = i + 1.0
    p, e, t = _half_pi_multiple(j)
    x = p / (P + 1.0)
    for _ in range(_NEWTON_STEPS):
        s, v = _sin_versin(x)
        x = x - ((((P * s - p) - e) - t) + x) / (P - P * v + 1.0)
    s, v = _sin_versin(x)
    return s, 1.0 - v


def _ladder_size(P: float) -> int:
    """Number of slots i >= 0 whose d = P - i pi/2, as :func:`_reduced` forms it, is positive.

    The quotient P/(pi/2) can round across slot boundaries, so the count walks from its ceiling
    until the slots' own d decide: exact wherever the slots lie below ``_EXACT_SLOTS``, that is
    for P below 2^53 pi/2 (about 1.41e16).  Past that slot numbers are not all doubles, and the
    ceiling is returned as the estimate it is, which :func:`_count` words as one.
    """
    if P == math.inf:
        raise DomainError(f"the well holds more states than a double counts: k_max q = {P!r}")
    if not P > 0.0:
        raise DomainError("the well's k_max q underflows to 0")
    size = math.ceil(P / _HALF_PI)
    if size >= _EXACT_SLOTS:
        return size
    while not _reduced(P, size - 1) > 0.0:
        size -= 1
    while _reduced(P, size) > 0.0:
        size += 1
    return size


def _count(n: int, size: int) -> str:
    """A count ``n`` of the states of a ladder of ``size`` slots, as an estimate past ``_EXACT_SLOTS``."""
    return str(n) if size < _EXACT_SLOTS else f"about {n:.6g}"


def _state_at(i: int, c: float, s: float, k_max: float, U: float, plain: bool) -> BoundState:
    """The state of ladder slot ``i`` whose root has cos theta = ``c`` and sin theta = ``s``:
    k = k_max cos theta, kappa = k_max sin theta and E = U cos^2 theta, which never exceeds U.

    :func:`_ladder_states` repeats these operations on arrays.  ``plain`` is from :func:`_well_scales`.
    """
    k, kappa = k_max * c, k_max * s
    if not 0.0 < min(k, kappa):
        raise DomainError(f"state {i} underflows: k = {k!r}, kappa = {kappa!r}")
    E = U * c * c if plain else _product("the state energy U cos^2 theta", (U, 1.0), (c, 2.0))
    return BoundState(E, _PARITIES[i % 2], k, kappa)


def _ladder_states(slots: range, P: float, k_max: float, U: float, plain: bool) -> list[BoundState]:
    """The states of ladder slots ``slots``, each bit for bit :func:`bound_state` of its slot.

    A pass of fewer than ``_SCALAR_SLOTS`` slots is solved slot by slot, as
    :func:`bound_state` solves one.  A longer one runs the same kernel on arrays:
    the slots whose roots lie below pi/4 in phi come first, then those below pi/4
    in theta.  For a plain well (``plain`` from :func:`_well_scales`) its states are
    then also worked out as arrays, by the operations of :func:`_state_at` in its
    order; k_max is at least 2^-400 there, so no k or kappa of its at most
    2^22 slots underflows.
    """
    if len(slots) < _SCALAR_SLOTS:
        return [_state_at(i, *_slot_root(P, float(i), _is_top(P, i), math.sqrt), k_max, U, plain) for i in slots]
    import numpy as np

    i = np.arange(slots.start, slots.stop, slots.step, dtype=float)
    split = len(i) - np.count_nonzero(_is_top(P, i))
    (c, s), (ct, st) = _slot_root(P, i[:split], False, np.sqrt), _slot_root(P, i[split:], True, np.sqrt)
    c, s = np.concatenate((c, ct)), np.concatenate((s, st))
    if not plain:
        return [_state_at(j, x, y, k_max, U, plain) for j, x, y in zip(slots, c.tolist(), s.tolist())]
    k, kappa, E = k_max * c, k_max * s, U * c * c
    parities = itertools.cycle([_PARITIES[j % 2] for j in slots[:2]])  # map stops at the shortest
    # BoundState's __init__ sets each field through object.__setattr__;
    # the slot descriptors set the same fields at about half the cost.
    states = list(map(object.__new__, itertools.repeat(BoundState, len(slots))))
    for column, values in zip(_BOUND_STATE_FIELDS, (E.tolist(), parities, k.tolist(), kappa.tolist())):
        collections.deque(map(column.__set__, states, values), maxlen=0)
    return states


def _slot_state(pot: Potential, units: Units, index: int) -> tuple[BoundState, float, float]:
    """Bound state number ``index`` of a square well, with the cos theta and sin theta of its root."""
    q, k_max, plain = _well_scales(pot, units)
    P = k_max * q
    size = _ladder_size(P)
    if not 0 <= index < size:
        raise DomainError(f"state index {index} out of range; the well holds {_count(size, size)} states")
    if index >= _EXACT_SLOTS:  # float(index) would round to a neighbouring slot
        raise DomainError(f"state {index} lies past slot 2^53, where slot numbers are not doubles")
    top = _is_top(P, index)
    if top and not _reduced(P, index) > 0.0:  # P - i pi/2 is lost in rounding
        raise DomainError(f"state {index} lies within rounding of the top of the well: k_max q = {P!r}")
    c, s = _slot_root(P, float(index), top, math.sqrt)
    return _state_at(index, c, s, k_max, pot.U, plain), c, s


def _eigen_kinematics(pot: Potential, units: Units, index: int) -> tuple[BoundState, Kinematics]:
    """Bound state number ``index`` of a square well, and its :class:`Kinematics` from the angle of its
    root: X, Y = cos theta, sin theta.

    Near the top of the well E = U cos^2 theta can round to U, so E is not checked against U, and
    U - E is U sin^2 theta, or 0.0 where that lies below the normal doubles.
    """
    state, c, s = _slot_state(pot, units, index)
    if not 0.0 < state.E:
        raise DomainError(f"the state energy {state.E!r} underflows")
    try:
        gap = _product("U - E", (pot.U, 1.0), (s, 2.0))
    except DomainError:
        gap = 0.0
    kin = object.__new__(Kinematics)
    plain = _ordinary(state.E, gap, units.hbar, units.mass)
    kin._fill(state.E, pot.U, state.k, state.kappa, state.kappa / state.k, units, plain, (c, s), gap)
    return state, kin


def bound_state(pot: Potential, units: Units = Units(), index: int = 0) -> BoundState:
    """Bound state number ``index`` (0-based, ascending energy) of a square well.

    Solves only the one ladder slot the state lives in, on floats and
    without numpy, so the cost does not grow with the depth of the well.
    """
    return _slot_state(pot, units, index)[0]


def bound_state_energies(
    pot: Potential, units: Units = Units(), parity: str = PARITY_BOTH
) -> tuple[BoundState, ...]:
    """All bound states of a square well, sorted by increasing energy.

    With k_max = sqrt(2 m U)/hbar and P = k_max q, state i solves
    P cos theta = theta + i pi/2 for theta = atan2(kappa, k) in (0, pi/2]:
    even parity for even i, odd parity for odd i, and one state for each
    i with i pi/2 < P.  Each root is found by Newton's method in the
    smaller of theta and pi/2 - theta (see :func:`_slot_root`), and
    k = k_max cos theta, kappa = k_max sin theta; ``parity`` keeps every
    other slot.  The slots are solved in passes of ``_LADDER_PASS``.  A
    pass of fewer than ``_SCALAR_SLOTS`` slots is solved slot by slot, on
    floats and without numpy, a longer one as numpy arrays by the same
    kernel.  For plain wells the states are then worked out as arrays and
    filled into records through the slot descriptors.  Every state equals
    ``bound_state`` of its slot bit for bit.
    """
    if parity not in (PARITY_EVEN, PARITY_ODD, PARITY_BOTH):
        raise DomainError(f"parity must be even, odd or both, got {parity!r}")
    q, k_max, plain = _well_scales(pot, units)
    P = k_max * q
    first = 1 if parity == PARITY_ODD else 0
    stride = 1 if parity == PARITY_BOTH else 2
    size = _ladder_size(P)
    count = -(-(size - first) // stride)  # len(range(first, size, stride)), which fails past sys.maxsize
    if count > _LADDER_MAX:
        raise DomainError(f"the ladder holds {_count(count, size)} states, more than the {_LADDER_MAX} one call lists")
    slots = range(first, size, stride)
    passes = (slots[start : start + _LADDER_PASS] for start in range(0, len(slots), _LADDER_PASS))
    return tuple(itertools.chain.from_iterable(_ladder_states(batch, P, k_max, pot.U, plain) for batch in passes))
