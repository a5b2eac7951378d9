"""Piecewise-constant potentials, unit bundles, and sub-barrier kinematics.

Two geometries are supported: a semi-infinite step of height U occupying
x >= 0, and a square well of half-width q whose walls of height U occupy
|x| >= q.  Everything downstream works at a single energy 0 < E < U, where
the classically allowed region carries the travelling wavenumber k and the
classically forbidden region carries the decay constant kappa.

Square-well bound states need no scan: each parity has exactly one root of
its matching condition in every other pi/2 interval of k q, so state i is
found by one bisection inside its own interval.  A single state
(:func:`bound_state`) is bisected on floats with ``math``.  The whole ladder
(:func:`bound_state_energies`) is bisected as numpy arrays, imported on first
use, in passes of at most 2,048 slots: every slot takes the same midpoints
and stops by the same test as the scalar bisection.  np.sin and np.cos may
differ from ``math`` in the last bit, so any bracket value too close to zero
for its sign to be certain is evaluated again with ``math``; every ladder
state is therefore bit for bit the state :func:`bound_state` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

STEP_BARRIER = "step"
SQUARE_WELL = "well"

FREE = "free"
FORBIDDEN = "forbidden"

PARITY_EVEN = "even"
PARITY_ODD = "odd"
PARITY_BOTH = "both"

#: Absolute bisection width at which an eigenvalue bracket is considered
#: converged, in units of k.
EIGEN_K_TOL = 1e-13

#: Most ladder slots bisected together in one array pass.  Each pass keeps a
#: few dozen 16 KB arrays; larger passes make the heap grow and shrink.
_LADDER_PASS = 2048

#: An array bracket value k sin - kappa cos (or k cos + kappa sin) is trusted
#: for its sign only above this multiple of k_max >= (k + kappa)/sqrt(2):
#: thousands of times the few ulp by which np.sin/np.cos may differ from
#: math.sin/math.cos.
_SIGN_GUARD = 2.0**-40


def check_half_width(q: float | None) -> None:
    """Raise :class:`DomainError` unless ``q`` is a finite, positive well half-width."""
    if q is None or not (math.isfinite(q) and q > 0.0):
        raise DomainError(f"well half-width q must be finite and positive, got {q!r}")


@dataclass(frozen=True)
class Units:
    """Reduced Planck constant and particle mass, carried symbolically.

    Defaults give the dimensionless convention hbar = mass = 1 used by all
    worked examples; every formula in the package keeps both factors explicit
    so any consistent unit system works.
    """

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class Potential:
    """A piecewise-constant potential of height ``U``.

    ``kind`` is ``"step"`` (forbidden half-line x >= 0) or ``"well"``
    (forbidden exterior |x| >= q).  ``q`` is the well half-width and must be
    present exactly when the kind is ``"well"``.
    """

    kind: str
    U: float
    q: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (STEP_BARRIER, SQUARE_WELL):
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if not (math.isfinite(self.U) and self.U > 0.0):
            raise DomainError(f"U must be finite and positive, got {self.U!r}")
        if self.kind == SQUARE_WELL:
            check_half_width(self.q)
        elif self.q is not None:
            raise DomainError("q is only meaningful for the square well")

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


@dataclass(frozen=True)
class Kinematics:
    """Wavenumber bundle for one sub-barrier energy.

    k      travelling wavenumber of the free region, sqrt(2 m E)/hbar
    kappa  decay constant of the forbidden region, sqrt(2 m (U - E))/hbar
    r      the ratio kappa/k, the single dimensionless knob of most formulas
    """

    E: float
    k: float
    kappa: float
    r: float
    units: Units

    def __post_init__(self) -> None:
        for name in ("E", "k", "kappa", "r"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise DomainError(f"{name} must be finite and positive, got {value!r}")
        if abs(self.r - self.kappa / self.k) > 1e-12 * self.r:
            raise DomainError(
                f"inconsistent bundle: r={self.r!r} but kappa/k={self.kappa / self.k!r}"
            )

    @property
    def U(self) -> float:
        """Barrier height recovered from E and kappa."""
        return self.E + (self.units.hbar * self.kappa) ** 2 / (2.0 * self.units.mass)

    def at_energy(self, E: float) -> "Kinematics":
        """Kinematics at a different energy under the same barrier and units."""
        return kinematics_from_energies(E, self.U, self.units)


def kinematics_from_energies(E: float, U: float, units: Units = Units()) -> Kinematics:
    """Build :class:`Kinematics` from raw energies (shared by the factories)."""
    if not math.isfinite(E) or E <= 0.0:
        raise DomainError(f"E must be finite and positive, got {E!r}")
    if not math.isfinite(U) or E >= U:
        raise DomainError(f"E must lie below the confining height U; got E={E!r}, U={U!r}")
    two_m = 2.0 * units.mass
    k = math.sqrt(two_m * E) / units.hbar
    kappa = math.sqrt(two_m * (U - E)) / units.hbar
    return Kinematics(E=E, k=k, kappa=kappa, r=kappa / k, units=units)


def make_kinematics(E: float, pot: Potential, units: Units = Units()) -> Kinematics:
    """Kinematics of energy ``E`` inside potential ``pot``.

    Raises :class:`DomainError` unless 0 < E < U.
    """
    return kinematics_from_energies(E, pot.U, units)


@dataclass(frozen=True, slots=True)
class BoundState:
    """One square-well eigenstate: energy, parity, and its wavenumber pair."""

    E: float
    parity: str
    k: float
    kappa: float


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
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


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


def _well_scales(pot: Potential, units: Units) -> tuple[float, float]:
    """Half-width q and wavenumber ceiling k_max = sqrt(2 m U)/hbar of a well."""
    if pot.kind != SQUARE_WELL:
        raise DomainError("bound states are defined for the square well only")
    assert pot.q is not None
    return pot.q, math.sqrt(2.0 * units.mass * pot.U) / units.hbar


def _slot_floor(i: int, q: float) -> float:
    """Lower end i pi/(2q) of ladder slot ``i``, in k."""
    return i * math.pi / (2.0 * q)


def _ladder_size(q: float, k_max: float) -> int:
    """Number of slots that start below k_max: ceil(2 k_max q / pi).

    The closed form can round across a slot boundary when k_max q sits within
    rounding of a multiple of pi/2; the slot's own lower end then decides.
    """
    size = math.ceil(2.0 * k_max * q / math.pi)
    if _slot_floor(size - 1, q) >= k_max:
        return size - 1
    if _slot_floor(size, q) < k_max:
        return size + 1
    return size


def _kappa_in_well(k: float, k_max: float) -> float:
    return math.sqrt(max(k_max * k_max - k * k, 0.0))


def _bisect_one(i: int, q: float, k_max: float) -> float:
    """The k at which the bisection of ladder slot ``i`` ends.

    Even slots hold the even roots, kq in (n pi, n pi + pi/2), and odd slots
    the odd roots, kq in (n pi + pi/2, (n+1) pi); the pole-free bracket
    changes sign exactly once across each, the last slot being cut at k_max.
    """
    bracket = _SLOT_KINDS[i % 2][0]
    hi = min(_slot_floor(i + 1, q), k_max)
    return _bisect(lambda k: bracket(k, _kappa_in_well(k, k_max), q), _slot_floor(i, q), hi, EIGEN_K_TOL)


def _state_at(i: int, k: float, k_max: float, units: Units) -> BoundState:
    """The state of ladder slot ``i`` whose bisection ended at ``k``.

    Both ladder paths build their states here on Python floats, so a state
    depends on its k alone, not on how k was found.
    """
    # A last slot narrower than the tolerance can return its upper end k_max;
    # the state still lies below the threshold, so keep kappa positive.
    k = min(k, math.nextafter(k_max, 0.0))
    E = (units.hbar * k) ** 2 / (2.0 * units.mass)
    return BoundState(E, _SLOT_KINDS[i % 2][1], k, _kappa_in_well(k, k_max))


def _bisect_slots(slots: range, q: float, k_max: float) -> list[float]:
    """The k at which :func:`_bisect` ends in every ladder slot of ``slots``.

    One numpy bisection over all the slots: each takes the same bracket
    values, midpoints, exact-zero exits and width test as its scalar
    bisection, and leaves the arrays when its own test stops it.  Only the
    sign and zeroness of the bracket steer a bisection.  np.sin/np.cos may
    differ from ``math`` by a few ulp, which moves a bracket value by far less
    than ``_SIGN_GUARD * k_max``, so values below that come from the scalar
    bracket instead.
    """
    k2 = k_max * k_max
    if not math.isfinite(k2):  # no array value could be trusted
        return [_bisect_one(i, q, k_max) for i in slots]
    import numpy as np

    i = np.asarray(slots, dtype=float)
    lo = i * math.pi / (2.0 * q)
    hi = np.minimum((i + 1.0) * math.pi / (2.0 * q), k_max)
    xtol = np.maximum(EIGEN_K_TOL, np.spacing(hi))
    even = i % 2.0 == 0.0
    at = np.arange(len(slots))  # where in ``slots`` each slot still bisected sits
    k = np.empty(len(slots))
    guard = _SIGN_GUARD * k_max

    def bracket(x):
        kappa = np.sqrt(k2 - x * x)  # x <= k_max, so never the root of a negative
        sin, cos = np.sin(x * q), np.cos(x * q)
        value = np.where(even, x * sin - kappa * cos, x * cos + kappa * sin)
        for j in np.flatnonzero(np.abs(value) <= guard).tolist():
            xj = float(x[j])
            value[j] = _SLOT_KINDS[slots[at[j]] % 2][0](xj, _kappa_in_well(xj, k_max), q)
        return value

    def settle(done, x):
        # slots ``done`` end at ``x`` and leave the arrays
        nonlocal at, lo, hi, flo, xtol, even
        if done.any():
            k[at[done]] = x[done]
            left = ~done
            at, lo, hi, flo, xtol, even = (v[left] for v in (at, lo, hi, flo, xtol, even))

    flo = bracket(lo)
    settle(flo == 0.0, lo)
    for _ in range(_BISECT_STEPS):
        if not at.size:
            break
        mid = 0.5 * (lo + hi)
        fmid = bracket(mid)
        done = (hi - lo <= xtol) | (fmid == 0.0)
        up = (flo < 0.0) != (fmid < 0.0)
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
        flo = np.where(up, flo, fmid)
        settle(done, mid)
    k[at] = 0.5 * (lo + hi)
    return k.tolist()


def bound_state(pot: Potential, units: Units = Units(), index: int = 0) -> BoundState:
    """Bound state number ``index`` (0-based, ascending energy) of a square well.

    Solves only the one ladder slot the state lives in, on floats and
    without numpy, so the cost does not grow with the depth of the well.
    """
    q, k_max = _well_scales(pot, units)
    size = _ladder_size(q, k_max)
    if not 0 <= index < size:
        raise DomainError(f"state index {index} out of range; the well holds {size} states")
    return _state_at(index, _bisect_one(index, q, k_max), k_max, units)


def bound_state_energies(
    pot: Potential, units: Units = Units(), parity: str = PARITY_BOTH
) -> tuple[BoundState, ...]:
    """All bound states of a square well, sorted by increasing energy.

    With k_max = sqrt(2 m U)/hbar, the ladder has one slot per pi/2 of k q
    below k_max q, so the well holds ceil(2 k_max q / pi) states and state i
    is the single root in k q in (i pi/2, (i+1) pi/2): even parity for even
    i, odd parity for odd i.  Each slot is solved by bisection of a pole-free
    bracket (k sin(kq) - kappa cos(kq) for even parity, k cos(kq) +
    kappa sin(kq) for odd) to ``EIGEN_K_TOL`` in k; ``parity`` keeps every
    other slot.  The slots are bisected together in numpy passes of
    ``_LADDER_PASS``, and every state equals ``bound_state`` of its slot.
    """
    if parity not in (PARITY_EVEN, PARITY_ODD, PARITY_BOTH):
        raise DomainError(f"parity must be even, odd or both, got {parity!r}")
    q, k_max = _well_scales(pot, units)
    first = 1 if parity == PARITY_ODD else 0
    stride = 1 if parity == PARITY_BOTH else 2
    slots = range(first, _ladder_size(q, k_max), stride)
    passes = (slots[start : start + _LADDER_PASS] for start in range(0, len(slots), _LADDER_PASS))
    return tuple(
        _state_at(i, k, k_max, units) for batch in passes for i, k in zip(batch, _bisect_slots(batch, q, k_max))
    )
