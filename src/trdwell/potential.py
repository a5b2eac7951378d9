"""Piecewise-constant potentials, unit bundles, and sub-barrier kinematics.

Two geometries are supported: a semi-infinite step of height U occupying
x >= 0, and a square well of half-width q whose walls of height U occupy
|x| >= q.  Everything downstream works at a single energy 0 < E < U, where
the classically allowed region carries the travelling wavenumber k and the
classically forbidden region carries the decay constant kappa.

Square-well bound states need no scan: each parity has exactly one root of
its matching condition in every other pi/2 interval of k q, so state i is
found by one bisection inside its own interval.
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


@dataclass(frozen=True)
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


def _bisect(f, lo: float, hi: float, xtol: float) -> float:
    """Plain bisection on a bracketed sign change; deterministic and robust."""
    # Adjacent floats cannot be split further: above k = 512 their spacing
    # exceeds EIGEN_K_TOL, and without this every iteration would run.
    xtol = max(xtol, math.ulp(hi))
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
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
    """Residual of the transcendental matching condition for ``state``.

    Uses the standard tan/cot form, which is independent of the pole-free
    bracket functions the solver itself scans, so it doubles as a check.
    """
    if state.parity == PARITY_EVEN:
        return state.k * math.tan(state.k * q) - state.kappa
    return -state.k / math.tan(state.k * q) - state.kappa


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


def _slot_state(i: int, q: float, k_max: float, units: Units) -> BoundState:
    """Bound state ``i``: the single root of its parity in ladder slot ``i``.

    Even slots hold the even roots, kq in (n pi, n pi + pi/2), and odd slots
    the odd roots, kq in (n pi + pi/2, (n+1) pi); the pole-free bracket
    changes sign exactly once across each, the last slot being cut at k_max.
    """

    def kappa_of(k: float) -> float:
        return math.sqrt(max(k_max * k_max - k * k, 0.0))

    bracket, parity = (_even_bracket, PARITY_EVEN) if i % 2 == 0 else (_odd_bracket, PARITY_ODD)
    hi = min(_slot_floor(i + 1, q), k_max)
    k = _bisect(lambda k: bracket(k, kappa_of(k), q), _slot_floor(i, q), hi, EIGEN_K_TOL)
    # A last slot narrower than the tolerance can return its upper end k_max;
    # the state still lies below the threshold, so keep kappa positive.
    k = min(k, math.nextafter(k_max, 0.0))
    E = (units.hbar * k) ** 2 / (2.0 * units.mass)
    return BoundState(E=E, parity=parity, k=k, kappa=kappa_of(k))


def bound_state(pot: Potential, units: Units = Units(), index: int = 0) -> BoundState:
    """Bound state number ``index`` (0-based, ascending energy) of a square well.

    Solves only the one ladder slot the state lives in, so the cost does not
    grow with the depth of the well.
    """
    q, k_max = _well_scales(pot, units)
    size = _ladder_size(q, k_max)
    if not 0 <= index < size:
        raise DomainError(f"state index {index} out of range; the well holds {size} states")
    return _slot_state(index, q, k_max, units)


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
    other slot.
    """
    if parity not in (PARITY_EVEN, PARITY_ODD, PARITY_BOTH):
        raise DomainError(f"parity must be even, odd or both, got {parity!r}")
    q, k_max = _well_scales(pot, units)
    first = 1 if parity == PARITY_ODD else 0
    stride = 1 if parity == PARITY_BOTH else 2
    return tuple(_slot_state(i, q, k_max, units) for i in range(first, _ladder_size(q, k_max), stride))
