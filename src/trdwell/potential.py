"""Piecewise-constant potentials, unit bundles, and sub-barrier kinematics.

Two geometries are supported: a semi-infinite step of height U occupying
x >= 0, and a square well of half-width q whose walls of height U occupy
|x| >= q.  Everything downstream works at a single energy 0 < E < U, where
the classically allowed region carries the travelling wavenumber k and the
classically forbidden region carries the decay constant kappa.

Square-well bound states need no scan: each parity has exactly one root of
its matching condition in every other pi/2 interval of k q, so state i is
found by one bisection inside its own interval.  A single state
(:func:`bound_state`) is bisected on floats with ``math``, without numpy.
The whole ladder (:func:`bound_state_energies`) is solved in passes of at
most 2,048 slots.  A pass of fewer than ``_SCALAR_SLOTS`` slots is solved
slot by slot as :func:`bound_state` solves one, so shallow wells need no
numpy.  A longer pass is bisected as numpy arrays, imported on first use:
every slot takes the same midpoints and stops by the same test as the
scalar bisection, width first.  Each slot first verifies a narrow band
around a Newton estimate of its root; a midpoint outside that band takes the
sign its side is proven to have, and only midpoints inside it are evaluated
(see :func:`_bisect_slots`).
np.sin and np.cos may differ from ``math`` in the last bit, so any bracket
value too close to zero for its sign to be certain is evaluated again with
``math``.  The states are then worked out from the arrays of k by the float
operations of the scalar path, so every ladder state is bit for bit the
state :func:`bound_state` returns, and their records are filled in through
the slot descriptors of :class:`BoundState` rather than its frozen
``__init__``.
"""

from __future__ import annotations

import collections
import itertools
import math
import sys

from .errors import DomainError, _Record

STEP_BARRIER = "step"
SQUARE_WELL = "well"

FREE = "free"
FORBIDDEN = "forbidden"

PARITY_EVEN = "even"
PARITY_ODD = "odd"
PARITY_BOTH = "both"

#: Widest bisection bracket, in k, at which an eigenvalue is considered
#: converged.  A slot whose top k lies below about 0.11 stops at the narrower
#: width ``_EIGEN_K_RTOL`` times that top, so small k keep their digits.
EIGEN_K_TOL = 1e-13

#: Bracket width of a ladder slot relative to its top; 2^-40 times a double is exact.
_EIGEN_K_RTOL = 2.0**-40

#: Most ladder slots bisected together in one array pass.  Each pass keeps a
#: few dozen 16 KB arrays; larger passes make the heap grow and shrink.
_LADDER_PASS = 2048

#: Most states one ladder call lists: 2^21, about 52 times the deepest benchmark ladder (40,000).  A
#: held ladder costs about 212 bytes a state.  ``energies --U 1e6 --q 2329.350207551823`` lists
#: exactly 2^21 states in 53-58 s at a peak RSS of 1.98 GB (2 vCPU Xeon, Python 3.11.7).
_LADDER_MAX = 2**21

#: Passes of fewer slots are bisected by the scalar code, without numpy.
#: Warm, on 2 vCPU Xeon: 2 slots take 0.09-0.13 ms scalar against 1.6-2.4 ms
#: as arrays, 16 slots 0.46-0.56 against 0.76-1.37 ms, 24 slots 0.89-1.07
#: against 0.94-1.34 ms, and 32 slots 1.2-1.8 against 1.2-1.4 ms.
_SCALAR_SLOTS = 24

#: An array bracket value k sin - kappa cos (or k cos + kappa sin) is trusted
#: for its sign only above this multiple of k_max >= (k + kappa)/sqrt(2):
#: thousands of times the few ulp by which np.sin/np.cos may differ from
#: math.sin/math.cos.
_SIGN_GUARD = 2.0**-40


def check_positive(name: str, value: float | None) -> None:
    """Raise :class:`DomainError`, naming ``name``, unless ``value`` is finite and positive."""
    if value is None or not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {value!r}")


def check_epsilon(epsilon: float) -> None:
    """Raise :class:`DomainError` unless the extremal reports' boundary offset lies in (0, 2)."""
    if not 0.0 < epsilon < 2.0:
        raise DomainError(f"epsilon must lie in (0, 2), got {epsilon!r}")


class Units(_Record):
    """Reduced Planck constant and particle mass, carried symbolically.

    Defaults give the dimensionless convention hbar = mass = 1 used by all
    worked examples; every formula in the package keeps both factors explicit
    so any consistent unit system works.
    """

    __slots__ = ("hbar", "mass")

    def __init__(self, hbar: float = 1.0, mass: float = 1.0):
        check_positive("hbar", hbar)
        check_positive("mass", mass)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "mass", mass)


class Potential(_Record):
    """A piecewise-constant potential of height ``U``.

    ``kind`` is ``"step"`` (forbidden half-line x >= 0) or ``"well"``
    (forbidden exterior |x| >= q).  ``q`` is the well half-width and must be
    present exactly when the kind is ``"well"``.
    """

    __slots__ = ("kind", "U", "q")

    def __init__(self, kind: str, U: float, q: float | None = None):
        if kind not in (STEP_BARRIER, SQUARE_WELL):
            raise DomainError(f"unknown potential kind {kind!r}")
        check_positive("U", U)
        if kind == SQUARE_WELL:
            check_positive("well half-width q", q)
        elif q is not None:
            raise DomainError("q is only meaningful for the square well")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "q", q)

    def energy_at(self, x: float) -> float:
        """Potential energy at position ``x``."""
        if self.kind == STEP_BARRIER:
            return self.U if x >= 0.0 else 0.0
        assert self.q is not None
        return self.U if abs(x) >= self.q else 0.0

    def region_at(self, x: float) -> str:
        """``"free"`` or ``"forbidden"`` classification of position ``x``.

        Interfaces belong to the forbidden side, matching ``energy_at``.
        """
        return FORBIDDEN if self.energy_at(x) > 0.0 else FREE


def step_barrier(U: float) -> Potential:
    """Semi-infinite step of height ``U`` occupying x >= 0."""
    return Potential(STEP_BARRIER, U)


def square_well(U: float, q: float) -> Potential:
    """Square well with walls of height ``U`` outside |x| < ``q``."""
    return Potential(SQUARE_WELL, U, q)


#: Inputs within [2^-200, 2^200] are ordinary: no partial product of a closed form in them leaves the
#: normal doubles.  Elsewhere one could overflow, or underflow unseen, so :func:`_product` evaluates it.
_ORDINARY = 2.0**200
_NORMAL = sys.float_info.min  # 2^-1022


def _ordinary(*values: float) -> bool:
    for value in values:
        if not 1.0 / _ORDINARY <= value <= _ORDINARY:
            return False
    return True


def _product(what: str, *factors: tuple[float, float]) -> float:
    """prod(base**power) over ``factors`` (powers in halves): frexp mantissas multiply as floats,
    exponents add as integers, ldexp joins them; a DomainError names ``what`` unless that is a normal double."""
    mantissa, exponent = 1.0, 0
    for base, power in factors:
        if not 0.0 < base < math.inf:
            raise DomainError(f"{what}: factor {base!r} is not a positive double")
        m, e = math.frexp(base)
        if e % 2 and power % 1:  # a half power needs an even exponent
            m, e = 2.0 * m, e - 1
        mantissa, shift = math.frexp(mantissa * m**power)
        exponent += shift + int(e * power)
    if not -1021 <= exponent <= 1024:  # mantissa * 2^exponent outside [2^-1022, 2^1024)
        beyond = "overflows a double" if exponent > 0 else "underflows the normal doubles"
        raise DomainError(f"{what} is about 10^{math.log10(mantissa) + exponent * math.log10(2.0):.1f}: it {beyond}")
    return math.ldexp(mantissa, exponent)


class Kinematics(_Record):
    """Wavenumber bundle for one sub-barrier energy.

    E      the energy, 0 < E < U
    U      the barrier or wall height
    k      travelling wavenumber of the free region, sqrt(2 m E)/hbar
    kappa  decay constant of the forbidden region, sqrt(2 m (U - E))/hbar
    r      the ratio kappa/k = sqrt((U - E)/E), the single dimensionless knob of most formulas

    k, kappa and r must be positive normal doubles.  Worked out once here:
    ``_plain``, whether E, U - E, hbar and m are all ordinary (``_ORDINARY``),
    and ``_fractions``, X = sqrt(E/U) and Y = sqrt((U - E)/U) for the times.
    """

    __slots__ = ("E", "U", "k", "kappa", "r", "units", "_plain", "_fractions")

    def __init__(self, E: float, U: float, k: float, kappa: float, r: float, units: Units):
        self._fill(E, U, k, kappa, r, units, None)

    def _fill(self, E: float, U: float, k: float, kappa: float, r: float, units: Units, plain: bool | None) -> None:
        # __init__; kinematics_from_energies passes ``plain``, having tested the ordinary box already
        if not (0.0 < E < U < math.inf):
            raise DomainError(f"E must be positive and below a finite U; got E={E!r}, U={U!r}")
        if not (_NORMAL <= min(k, kappa, r) and max(k, kappa, r) < math.inf):
            raise DomainError(f"k, kappa, r must be positive normal doubles: {k!r}, {kappa!r}, {r!r}")
        if abs(r - kappa / k) > 1e-12 * r:
            raise DomainError(f"inconsistent bundle: r={r!r} but kappa/k={kappa / k!r}")
        if plain is None:
            plain = _ordinary(E, U - E, units.hbar, units.mass)
        root = math.sqrt(U)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "_plain", plain)
        object.__setattr__(self, "_fractions", (math.sqrt(E) / root, math.sqrt(U - E) / root))

    def at_energy(self, E: float) -> "Kinematics":
        """Kinematics at a different energy under the same barrier and units."""
        return kinematics_from_energies(E, self.U, self.units)


def kinematics_from_energies(E: float, U: float, units: Units = Units()) -> Kinematics:
    """Build :class:`Kinematics` from raw energies; a k, kappa or r beyond the normal doubles is a DomainError."""
    if not 0.0 < E < U < math.inf:
        raise DomainError(f"E must be positive and below a finite U; got E={E!r}, U={U!r}")
    gap, hbar, m = U - E, units.hbar, units.mass
    plain = _ordinary(E, gap, hbar, m)
    if plain:
        k = math.sqrt(2.0 * m * E) / hbar
        kappa = math.sqrt(2.0 * m * gap) / hbar
        r = math.sqrt(gap / E)
    else:
        k = _product("k = sqrt(2 m E)/hbar", (2.0, 0.5), (m, 0.5), (E, 0.5), (hbar, -1.0))
        kappa = _product("kappa = sqrt(2 m (U - E))/hbar", (2.0, 0.5), (m, 0.5), (gap, 0.5), (hbar, -1.0))
        r = _product("r = sqrt((U - E)/E)", (gap, 0.5), (E, -0.5))
    kin = object.__new__(Kinematics)
    kin._fill(E, U, k, kappa, r, units, plain)
    return kin


def make_kinematics(E: float, pot: Potential, units: Units = Units()) -> Kinematics:
    """Kinematics of energy ``E`` inside potential ``pot``.

    Raises :class:`DomainError` unless 0 < E < U.
    """
    return kinematics_from_energies(E, pot.U, units)


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


def _even_bracket(k: float, kappa: float, q: float) -> float:
    # Pole-free form of the even matching condition k tan(kq) = kappa.
    return k * math.sin(k * q) - kappa * math.cos(k * q)


def _odd_bracket(k: float, kappa: float, q: float) -> float:
    # Pole-free form of the odd matching condition -k cot(kq) = kappa.
    return k * math.cos(k * q) + kappa * math.sin(k * q)


#: Bracket function and parity of even and odd ladder slots, indexed by i % 2.
_SLOT_KINDS = ((_even_bracket, PARITY_EVEN), (_odd_bracket, PARITY_ODD))

#: Iteration cap of both bisections; the width test ends them far sooner.
_BISECT_STEPS = 200


def _bisect(f, lo: float, hi: float, xtol: float) -> float:
    """Plain bisection on a bracketed sign change; deterministic and robust."""
    # Adjacent floats cannot be split further: above k = 512 their spacing
    # exceeds EIGEN_K_TOL, and without this every iteration would run.
    xtol = max(xtol, math.ulp(hi))
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * lo + 0.5 * hi  # lo + hi can overflow
        if hi - lo <= xtol:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * lo + 0.5 * hi


def matching_residual(state: BoundState, q: float) -> float:
    """Signed distance in k from ``state`` to the root of its matching condition.

    The standard tan/cot form g(k) (k tan(kq) - kappa for even parity,
    -k cot(kq) - kappa for odd) divided by its derivative along the ladder,
    where dkappa/dk = -k/kappa: the Newton step k - k_root, comparable to
    ``EIGEN_K_TOL``.  Near a pole of tan or cot g is ill-conditioned, g/g' is
    not.  Being independent of the pole-free bracket functions the solver
    scans, it doubles as a check.
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


def _slot_floor(i: int, q: float) -> float:
    """Lower end i pi/(2q) of ladder slot ``i``, in k."""
    return i * math.pi / (2.0 * q)


def _ladder_size(q: float, k_max: float) -> int:
    """Number of slots that start below k_max: ceil(2 k_max q / pi).

    The closed form can round across a slot boundary when k_max q sits within
    rounding of a multiple of pi/2; the slot's own lower end then decides.
    """
    count = 2.0 * (k_max * q) / math.pi
    if count == math.inf:
        raise DomainError(f"the well holds more states than a double counts: k_max q = {k_max * q!r}")
    size = math.ceil(count)
    if _slot_floor(size - 1, q) >= k_max:
        return size - 1
    if _slot_floor(size, q) < k_max:
        return size + 1
    return size


def _kappa_in_well(k: float, k_max: float) -> float:
    """sqrt(k_max^2 - k^2) for 0 <= k < k_max; by ``_product`` where k_max^2 is no normal double."""
    k2 = k_max * k_max
    if _NORMAL <= k2 < math.inf:
        return math.sqrt(max(k2 - k * k, 0.0))
    return _product("kappa in the well", (k_max - k, 0.5), (0.5 * k_max + 0.5 * k, 0.5), (2.0, 0.5))


def _bisect_one(i: int, q: float, k_max: float) -> float:
    """The k at which the bisection of ladder slot ``i`` ends.

    Even slots hold the even roots, kq in (n pi, n pi + pi/2), and odd slots
    the odd roots, kq in (n pi + pi/2, (n+1) pi); the pole-free bracket
    changes sign exactly once across each, the last slot being cut at k_max.
    """
    bracket = _SLOT_KINDS[i % 2][0]
    hi = min(_slot_floor(i + 1, q), k_max)
    xtol = min(EIGEN_K_TOL, _EIGEN_K_RTOL * hi)
    return _bisect(lambda k: bracket(k, _kappa_in_well(k, k_max), q), _slot_floor(i, q), hi, xtol)


def _state_at(i: int, k: float, k_max: float, units: Units, plain: bool) -> BoundState:
    """The state of ladder slot ``i`` whose bisection ended at ``k``.

    A state depends on its k alone, not on how k was found; :func:`_ladder_states`
    repeats these operations on arrays.  ``plain`` is from :func:`_well_scales`.
    """
    # A last slot narrower than the tolerance can return its upper end k_max;
    # the state still lies below the threshold, so keep kappa positive.
    k = min(k, math.nextafter(k_max, 0.0))
    if plain:
        hk = units.hbar * k
        E = hk * hk / (2.0 * units.mass)
    else:
        E = _product("the state energy (hbar k)^2/(2m)", (units.hbar, 2.0), (k, 2.0), (2.0, -1.0), (units.mass, -1.0))
    return BoundState(E, _SLOT_KINDS[i % 2][1], k, _kappa_in_well(k, k_max))


def _bisect_slots(slots: range, q: float, k_max: float):
    """The k at which :func:`_bisect` ends in every ladder slot of ``slots``, as an array.

    One numpy bisection over all the slots, for k_max^2 a normal double: each
    slot takes the same midpoints, exact-zero exits and width test as its
    scalar bisection, width first.  A slot that its own test stops at k keeps
    the bracket [k, k] and an empty band, so every later round maps it to k
    (a normal double, so 0.5 k + 0.5 k = k) without evaluating it.  Only the
    sign and zeroness of the bracket f steer a bisection, and the sign of f
    at the slot's lower end never changes, so only that sign is carried.
    np.sin/np.cos may differ from ``math`` by a few ulp, which moves a
    bracket value by far less than ``guard`` = ``_SIGN_GUARD * k_max``, so
    values below that come from the scalar bracket instead.

    Most midpoints need no bracket at all.  Both parities solve
    h(k) = kq - i pi/2 - atan2(kappa, k) = 0 with h' = q + 1/kappa; three
    Newton steps from the slot's middle, clipped to the slot, estimate the
    root r.  With err = k_max (hi q + 4) 2^-52 and
    delta = 1.5 (2 err + guard)/(q k_max), the band [a, b] = [r - delta,
    r + delta], clipped to the slot, is verified when |f(a)| and |f(b)| both
    exceed 2 err + guard, f(a) has the sign of f(lo) and f(b) the other.  A
    midpoint outside a verified band takes its side's sign unevaluated; one
    inside is evaluated.  A slot whose band fails gets the whole slot as its
    band and is bisected exactly as before.  The replay is exact:

    * Let kappa^(x) = sqrt(max(k_max^2 (-) x (*) x, 0)), the kappa the
      ``math`` bracket computes, which does not increase with x, and
      g(x) = x sin(xq) - kappa^ cos(xq) (even slots) or
      x cos(xq) + kappa^ sin(xq) (odd).  Across the slot's exact
      half-period, +/-g is x |sin| - kappa^ |cos| (or x |cos| - kappa^ |sin|),
      which never decreases, so |g| grows away from the root.
    * The ``math`` bracket differs from g by at most err / sqrt(2): rounding
      xq moves the trig by u xq (u = 2^-53), each trig value is within an ulp,
      and three roundings follow, all times x + kappa^ <= sqrt(2) k_max.
    * At a verified edge the ``math`` value exceeds 2 err (the guard covers
      numpy against ``math``), so |g| > (2 - 1/sqrt(2)) err there, and every
      float beyond the edge within the half-period has a larger |g| and the
      ``math`` sign of the edge, never 0.
    * lo and hi may overhang the exact half-period by a few ulp.  There +/-g
      is kappa^ cos t + x sin t (below) or x cos t + kappa^ sin t (above) for
      a t of a few ulp, at least cos t times its value at the edge, and the
      sqrt(2) slack in err covers that factor.
    """
    import numpy as np

    k2 = k_max * k_max
    i = np.asarray(slots, dtype=float)
    lo = i * math.pi / (2.0 * q)
    hi = np.minimum((i + 1.0) * math.pi / (2.0 * q), k_max)
    xtol = np.maximum(np.minimum(EIGEN_K_TOL, _EIGEN_K_RTOL * hi), np.spacing(hi))
    even = i % 2.0 == 0.0
    guard = _SIGN_GUARD * k_max

    def bracket(x, even):
        kappa = np.sqrt(k2 - x * x)  # x <= k_max, so never the root of a negative
        sin, cos = np.sin(x * q), np.cos(x * q)
        value = np.where(even, x * sin - kappa * cos, x * cos + kappa * sin)
        for j in np.flatnonzero(np.abs(value) <= guard).tolist():
            xj = float(x[j])
            value[j] = _SLOT_KINDS[0 if even[j] else 1][0](xj, _kappa_in_well(xj, k_max), q)
        return value

    r = 0.5 * lo + 0.5 * hi
    for _ in range(3):  # Newton on h; h/h' = h kappa/(q kappa + 1) has no pole at kappa = 0
        kappa = np.sqrt(k2 - r * r)
        h = r * q - i * (0.5 * math.pi) - np.arctan2(kappa, r)
        r = np.minimum(np.maximum(r - h * kappa / (q * kappa + 1.0), lo), hi)
    floor = 2.0 * k_max * (hi * q + 4.0) * 2.0**-52 + guard
    delta = 1.5 * floor / k_max / q  # q * k_max can underflow; this overflows only where hi already did
    a, b = np.maximum(r - delta, lo), np.minimum(r + delta, hi)
    flo, fa, fb = bracket(lo, even), bracket(a, even), bracket(b, even)
    neg = flo < 0.0
    band = (np.abs(fa) > floor) & (np.abs(fb) > floor) & ((fa < 0.0) == neg) & ((fb < 0.0) != neg)
    a, b = np.where(band, a, lo), np.where(band, b, hi)

    hi = np.where(flo == 0.0, lo, hi)  # a slot whose bracket is 0 at lo starts collapsed there
    stopped = 0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * lo + 0.5 * hi
        done = hi - lo <= xtol
        count = np.count_nonzero(done)
        if count == len(slots):
            break
        if count > stopped:  # the slots that stopped collapse onto their k, and their band empties
            stopped = count
            lo, hi, a = np.where(done, mid, lo), np.where(done, mid, hi), np.where(done, math.inf, a)
        up = mid > b  # past the band f has the sign opposite to f(lo); before it, that of f(lo)
        inside = np.flatnonzero((a <= mid) & ~up)
        if inside.size:
            fmid = bracket(mid[inside], even[inside])
            up[inside] = neg[inside] != (fmid < 0.0)
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
        if inside.size and not fmid.all():  # an exact zero stops its slot at mid
            zero = inside[fmid == 0.0]
            lo[zero] = hi[zero] = mid[zero]
    return 0.5 * lo + 0.5 * hi


def _ladder_states(slots: range, q: float, k_max: float, units: Units, plain: bool) -> list[BoundState]:
    """The states of ladder slots ``slots``, each bit for bit :func:`bound_state` of its slot.

    A pass of at least ``_SCALAR_SLOTS`` slots, where k_max^2 is a normal
    double, is bisected as arrays; for a plain well (``plain`` from
    :func:`_well_scales`) its states are then also worked out as arrays, by
    the operations of :func:`_state_at` in its order: elementwise IEEE
    arithmetic and sqrt round as Python floats do.  Other passes are solved
    slot by slot, as :func:`bound_state` solves one.
    """
    k2 = k_max * k_max
    # where k_max^2 is no normal double, the scalar bracket takes kappa from _product
    if len(slots) < _SCALAR_SLOTS or not _NORMAL <= k2 < math.inf:
        return [_state_at(i, _bisect_one(i, q, k_max), k_max, units, plain) for i in slots]
    k = _bisect_slots(slots, q, k_max)
    if not plain:
        return [_state_at(i, x, k_max, units, plain) for i, x in zip(slots, k.tolist())]
    import numpy as np

    k = np.minimum(k, math.nextafter(k_max, 0.0))
    hk = units.hbar * k
    E = hk * hk / (2.0 * units.mass)
    kappa = np.sqrt(np.maximum(k2 - k * k, 0.0))
    parities = itertools.cycle([_SLOT_KINDS[i % 2][1] for i in slots[:2]])  # map stops at the shortest
    # BoundState's __init__ sets each field through object.__setattr__;
    # the slot descriptors set the same fields at about half the cost.
    states = list(map(object.__new__, itertools.repeat(BoundState, len(slots))))
    for column, values in zip(_BOUND_STATE_FIELDS, (E.tolist(), parities, k.tolist(), kappa.tolist())):
        collections.deque(map(column.__set__, states, values), maxlen=0)
    return states


def bound_state(pot: Potential, units: Units = Units(), index: int = 0) -> BoundState:
    """Bound state number ``index`` (0-based, ascending energy) of a square well.

    Solves only the one ladder slot the state lives in, on floats and
    without numpy, so the cost does not grow with the depth of the well.
    """
    q, k_max, plain = _well_scales(pot, units)
    size = _ladder_size(q, k_max)
    if not 0 <= index < size:
        raise DomainError(f"state index {index} out of range; the well holds {size} states")
    return _state_at(index, _bisect_one(index, q, k_max), k_max, units, plain)


def bound_state_energies(
    pot: Potential, units: Units = Units(), parity: str = PARITY_BOTH
) -> tuple[BoundState, ...]:
    """All bound states of a square well, sorted by increasing energy.

    With k_max = sqrt(2 m U)/hbar, the ladder has one slot per pi/2 of k q
    below k_max q, so the well holds ceil(2 k_max q / pi) states and state i
    is the single root in k q in (i pi/2, (i+1) pi/2): even parity for even
    i, odd parity for odd i.  Each slot is solved by bisection of a pole-free
    bracket (k sin(kq) - kappa cos(kq) for even parity, k cos(kq) +
    kappa sin(kq) for odd) to a width of ``EIGEN_K_TOL`` in k, or 2^-40 of
    the slot's top where that is narrower; ``parity`` keeps every other
    slot.  The slots are solved in passes of ``_LADDER_PASS``.  A pass of
    fewer than ``_SCALAR_SLOTS`` slots is solved slot by slot, on floats and
    without numpy.  A longer one is bisected as numpy arrays: the width test
    comes first, a midpoint outside the slot's verified root band replays
    the sign proven for its side, and only midpoints inside the band
    evaluate the bracket.  For plain wells the states are then worked out
    from the arrays of k and filled into records through the slot
    descriptors.  Every state equals ``bound_state`` of its slot bit for
    bit.
    """
    if parity not in (PARITY_EVEN, PARITY_ODD, PARITY_BOTH):
        raise DomainError(f"parity must be even, odd or both, got {parity!r}")
    q, k_max, plain = _well_scales(pot, units)
    first = 1 if parity == PARITY_ODD else 0
    stride = 1 if parity == PARITY_BOTH else 2
    size = _ladder_size(q, k_max)
    count = -(-(size - first) // stride)  # len(range(first, size, stride)), which fails past sys.maxsize
    if count > _LADDER_MAX:
        raise DomainError(f"the ladder holds {count} states, more than the {_LADDER_MAX} one call lists")
    slots = range(first, size, stride)
    passes = (slots[start : start + _LADDER_PASS] for start in range(0, len(slots), _LADDER_PASS))
    return tuple(itertools.chain.from_iterable(_ladder_states(batch, q, k_max, units, plain) for batch in passes))
