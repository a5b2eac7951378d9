"""Piecewise-constant potentials, unit bundles, and sub-barrier kinematics.

Two geometries are supported: a semi-infinite step of height U occupying
x >= 0, and a square well of half-width q whose walls of height U occupy
|x| >= q.  Everything downstream works at a single energy 0 < E < U, where
the classically allowed region carries the travelling wavenumber k and the
classically forbidden region carries the decay constant kappa.

Every command loads this module; the square-well ladder is in
:mod:`trdwell.potential`, which only the commands that use well states load.
"""

from __future__ import annotations

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
        self._set(hbar, mass)


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
        self._set(kind, U, q)

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
    ``_gap``, the forbidden-side energy U - E; ``_plain``, whether E, U - E,
    hbar and m are all ordinary (``_ORDINARY``); and ``_fractions``,
    X = sqrt(E/U) and Y = sqrt((U - E)/U), for the times.  A well state's
    bundle takes these from its angle instead (:func:`trdwell.potential._eigen_kinematics`).
    """

    __slots__ = ("E", "U", "k", "kappa", "r", "units", "_plain", "_fractions", "_gap")

    def __init__(self, E: float, U: float, k: float, kappa: float, r: float, units: Units):
        if not (0.0 < E < U < math.inf):
            raise DomainError(f"E must be positive and below a finite U; got E={E!r}, U={U!r}")
        gap = U - E
        self._fill(E, U, k, kappa, r, units, _ordinary(E, gap, units.hbar, units.mass), _fractions(E, U), gap)

    def _fill(self, E, U, k, kappa, r, units, plain: bool, fractions: tuple[float, float], gap: float) -> None:
        # __init__, kinematics_from_energies and _eigen_kinematics, each with its own E, U and gap checks
        if not (_NORMAL <= min(k, kappa, r) and max(k, kappa, r) < math.inf):
            raise DomainError(f"k, kappa, r must be positive normal doubles: {k!r}, {kappa!r}, {r!r}")
        if abs(r - kappa / k) > 1e-12 * r:
            raise DomainError(f"inconsistent bundle: r={r!r} but kappa/k={kappa / k!r}")
        self._set(E, U, k, kappa, r, units, plain, fractions, gap)

    def at_energy(self, E: float) -> "Kinematics":
        """Kinematics at a different energy under the same barrier and units."""
        return kinematics_from_energies(E, self.U, self.units)


def _fractions(E: float, U: float) -> tuple[float, float]:
    """X = sqrt(E/U) and Y = sqrt((U - E)/U)."""
    root = math.sqrt(U)
    return math.sqrt(E) / root, math.sqrt(U - E) / root


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
    kin._fill(E, U, k, kappa, r, units, plain, _fractions(E, U), gap)
    return kin


def make_kinematics(E: float, pot: Potential, units: Units = Units()) -> Kinematics:
    """Kinematics of energy ``E`` inside potential ``pot``.

    Raises :class:`DomainError` unless 0 < E < U.
    """
    return kinematics_from_energies(E, pot.U, units)

