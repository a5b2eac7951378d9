"""Region bases, the bilinear conjugate momentum, and probability densities.

The central object is the trajectory conjugate momentum

    W_x(x) = hbar |W0| sqrt(ab - c^2/4) / (a phi1^2 + b phi2^2 + c phi1 phi2)

built from two independent stationary solutions (phi1, phi2) of one region
with Wronskian W0.  Its denominator is a positive-definite quadratic form for
every microstate, so W_x is finite, positive and nodeless.  The same module
hosts the conventional probability-density states (scattering off the step,
square-well eigenstates) used for coverage comparisons.
"""

from __future__ import annotations

import math

from .errors import DegenerateMicrostate, DomainError, _Record
from .kinematics import (
    FORBIDDEN,
    FREE,
    PARITY_EVEN,
    PARITY_ODD,
    SQUARE_WELL,
    STEP_BARRIER,
    Kinematics,
    Potential,
    Units,
    _ordinary,
    _product,
    check_positive,
)
from .microstate import Microstate, RawCoefficients, _gauge, check_nonzero, gauge_factor

BARRIER_SCATTERING = "barrier-scattering"
WELL_EIGENSTATE = "well-eigenstate"

#: Relative mismatch tolerated between a basis wavenumber and the kinematics
#: it is used with.
_WAVENUMBER_MATCH_RTOL = 1e-9


def _exp(v: float) -> float:
    """math.exp, saturating to +inf past the float range instead of raising.

    Deep in the forbidden region the basis then overflows to inf, and the
    bilinear denominator's finiteness check reports a typed error.
    """
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


class RegionBasis(_Record):
    """Two independent stationary solutions on one region, in local coordinates.

    free:       phi1 = alpha sin(w xi),   phi2 = beta cos(w xi),    W0 = -w alpha beta
    forbidden:  phi1 = alpha exp(-w xi),  phi2 = beta exp(+w xi),   W0 = 2 w alpha beta

    ``w`` is the region wavenumber (k when free, kappa when forbidden) and xi
    is measured from the region's interface, growing into the region.  alpha
    and beta default to the canonical gauge; observables are invariant under
    rescaling them jointly with the microstate coefficients.
    """

    __slots__ = ("region", "wavenumber", "alpha", "beta")

    def __init__(self, region: str, wavenumber: float, alpha: float = 1.0, beta: float = 1.0):
        if region not in (FREE, FORBIDDEN):
            raise DomainError(f"unknown region {region!r}")
        check_positive("wavenumber", wavenumber)
        check_nonzero("alpha", alpha)
        check_nonzero("beta", beta)
        self._set(region, wavenumber, alpha, beta)

    @property
    def wronskian(self) -> float:
        """phi1 phi2' - phi1' phi2 (constant across the region)."""
        base = -self.wavenumber if self.region == FREE else 2.0 * self.wavenumber
        return base * self.alpha * self.beta

    @property
    def curvature(self) -> float:
        """Coefficient in phi'' = curvature * phi: -w^2 free, +w^2 forbidden."""
        w2 = self.wavenumber * self.wavenumber
        return -w2 if self.region == FREE else w2

    def _functions(self, x: float) -> tuple[float, float, float, float, float, float]:
        """phi1, phi2, their x-derivatives and their w-gradients at ``x``, from one sin/cos or exp pair."""
        w, al, be = self.wavenumber, self.alpha, self.beta
        if self.region == FREE:
            s, c = math.sin(w * x), math.cos(w * x)
            return al * s, be * c, al * w * c, -be * w * s, al * x * c, -be * x * s
        e1, e2 = _exp(-w * x), _exp(w * x)
        return al * e1, be * e2, -al * w * e1, be * w * e2, -al * x * e1, be * x * e2

    def values(self, x: float) -> tuple[float, float]:
        return self._functions(x)[:2]

    def derivatives(self, x: float) -> tuple[float, float]:
        return self._functions(x)[2:4]

    def wavenumber_gradient(self, x: float) -> tuple[float, float]:
        """d(phi1)/dw and d(phi2)/dw at fixed position."""
        return self._functions(x)[4:]

    def rescaled(self, alpha: float, beta: float) -> "RegionBasis":
        return RegionBasis(self.region, self.wavenumber, self.alpha * alpha, self.beta * beta)


def canonical_basis(region: str, kin: Kinematics) -> RegionBasis:
    """Unit-amplitude basis of ``region`` at the wavenumber given by ``kin``; RegionBasis checks ``region``."""
    return RegionBasis(region, kin.k if region == FREE else kin.kappa)


def _form(ms: Microstate | RawCoefficients, phi1, phi2):
    """a phi1^2 + b phi2^2 + c phi1 phi2."""
    return ms.a * phi1 * phi1 + ms.b * phi2 * phi2 + ms.c * phi1 * phi2


def bilinear(ms: Microstate | RawCoefficients, basis: RegionBasis, x: float) -> float:
    """Denominator a phi1^2 + b phi2^2 + c phi1 phi2 at position ``x``."""
    return _form(ms, *basis.values(x))


def checked_denominator(D: float, x: float) -> float:
    """``D``, the bilinear denominator at ``x``, if positive and finite.

    Raises :class:`DegenerateMicrostate` otherwise.
    """
    if not (D > 0.0 and math.isfinite(D)):
        problem = "overflows the doubles" if D == math.inf else "is not positive"
        raise DegenerateMicrostate(f"bilinear denominator {D!r} at x={x!r} {problem}")
    return D


def check_basis(basis: RegionBasis, kin: Kinematics) -> None:
    """Raise :class:`DomainError` unless the basis wavenumber matches the kinematics."""
    expected = kin.k if basis.region == FREE else kin.kappa
    if abs(basis.wavenumber - expected) > _WAVENUMBER_MATCH_RTOL * expected:
        raise DomainError(
            f"basis wavenumber {basis.wavenumber!r} does not match kinematics ({expected!r})"
        )


def bilinear_with_derivatives(
    ms: Microstate | RawCoefficients, basis: RegionBasis, x: float
) -> tuple[float, float, float]:
    """(D, D', D'') of the bilinear denominator, using phi'' = curvature*phi."""
    a, b, c = ms.a, ms.b, ms.c
    phi1, phi2, d1, d2, _, _ = basis._functions(x)
    D = _form(ms, phi1, phi2)
    Dp = 2.0 * a * phi1 * d1 + 2.0 * b * phi2 * d2 + c * (d1 * phi2 + phi1 * d2)
    Dpp = 2.0 * (a * d1 * d1 + b * d2 * d2 + c * d1 * d2) + 2.0 * basis.curvature * D
    return D, Dp, Dpp


def _numerator(ms: Microstate | RawCoefficients, basis: RegionBasis, hbar: float) -> float:
    """N = hbar |W0| sqrt(ab - c^2/4) of W_x = N/D: a plain product where hbar, |W0| and g are ordinary,
    else ``_product``, a DomainError unless a normal double."""
    wronskian, gauge = abs(basis.wronskian), gauge_factor(ms)
    if _ordinary(hbar, wronskian, gauge):
        return hbar * wronskian * gauge
    return _product("hbar |W0| g", (hbar, 1), (wronskian, 1), (gauge, 1))


def conjugate_momentum(
    x: float, ms: Microstate | RawCoefficients, basis: RegionBasis, units: Units = Units()
) -> float:
    """Trajectory conjugate momentum W_x at position ``x``.

    Strictly positive and finite for any microstate with positive quadratic
    invariant; the Wronskian enters through its magnitude so either sign
    convention of the basis ordering gives the same field.  A numerator
    hbar |W0| g that is no normal double is a :class:`DomainError`.
    """
    return _numerator(ms, basis, units.hbar) / checked_denominator(bilinear(ms, basis, x), x)


def momentum_derivatives(
    x: float, ms: Microstate | RawCoefficients, basis: RegionBasis, units: Units = Units()
) -> tuple[float, float, float]:
    """(W_x, W_xx, W_xxx) via closed-form derivatives of the denominator.

    With N the constant numerator and D the bilinear denominator,
    W_x = N/D, W_xx = -W_x D'/D and W_xxx = W_x (2 (D'/D)^2 - D''/D), so no
    numerical differentiation is involved.  N is that of :func:`conjugate_momentum`.
    Only the ratios D'/D and D''/D are formed, never a power of D, which would
    overflow or underflow at extreme gauges where W_x itself is a double.
    """
    N = _numerator(ms, basis, units.hbar)
    D, Dp, Dpp = bilinear_with_derivatives(ms, basis, x)
    W_x = N / checked_denominator(D, x)
    slope = Dp / D
    return W_x, -W_x * slope, W_x * (2.0 * slope * slope - Dpp / D)


def qshje_residual(x: float, ms: Microstate | RawCoefficients, basis: RegionBasis, kin: Kinematics) -> float:
    """Residual of the stationary quantum Hamilton-Jacobi equation at ``x``.

    The stationary equation satisfied by the conjugate momentum reads

        W_x^2/(2m) + V - E + (hbar^2/4m) [W_xxx/W_x - (3/2)(W_xx/W_x)^2] = 0,

    i.e. the classical stationary Hamilton-Jacobi form plus the quantum correction bracket; the return value is
    the left-hand side.  In u = w x it is E_w = (hbar w)^2/2m (E free, U - E forbidden) times (|W0| g/(w D))^2
    + sigma + (-D_uu/D + (D_u/D)^2/2)/2, sigma = -1 free and +1 forbidden, with no power of hbar or m: phi,
    phi', D, D_u and D_uu are evaluated in u directly, from alpha and beta, with no unit basis built or cached.
    """
    check_basis(basis, kin)
    a, b, c, al, be, u = ms.a, ms.b, ms.c, basis.alpha, basis.beta, basis.wavenumber * x
    # the basis is inlined, as in sample_trajectory: a shared per-point kernel ran the `trajectory` bench 2.5% slower;
    # math.exp serves below 709, short of its overflow at 709.78, and _exp, which saturates, from there
    if basis.region == FREE:
        s, co = math.sin(u), math.cos(u)
        phi1, phi2, d1, d2, sigma, base, energy = al * s, be * co, al * co, -be * s, -1.0, -1.0, kin.E
    else:
        phi1 = al * (math.exp(-u) if -u < 709.0 else _exp(-u))
        phi2, sigma, base, energy = be * (math.exp(u) if u < 709.0 else _exp(u)), 1.0, 2.0, kin._gap
        d1, d2 = -phi1, phi2
    D = a * phi1 * phi1 + b * phi2 * phi2 + c * phi1 * phi2
    if not 0.0 < D < math.inf:
        checked_denominator(D, x)
    D_u = 2.0 * a * phi1 * d1 + 2.0 * b * phi2 * d2 + c * (d1 * phi2 + phi1 * d2)
    D_uu = 2.0 * (a * d1 * d1 + b * d2 * d2 + c * d1 * d2) + 2.0 * sigma * D
    momentum, slope = abs(base * al * be) * _gauge(a, b, c) / D, D_u / D
    return energy * (momentum * momentum + sigma + 0.5 * (0.5 * slope * slope - D_uu / D))


class CopenhagenState(_Record):
    """A conventional probability-density state for one spectral problem.

    kind ``"barrier-scattering"``: unit-amplitude wave incident from x < 0 on
    the step, with its reflected and transmitted (evanescent) parts.  kind
    ``"well-eigenstate"``: one normalized bound state of the square well,
    identified by its index in the ascending energy ladder.
    """

    __slots__ = ("potential", "kinematics", "kind", "parity", "index")

    def __init__(
        self, potential: Potential, kinematics: Kinematics, kind: str, parity: str | None = None, index: int | None = None
    ):
        if kind not in (BARRIER_SCATTERING, WELL_EIGENSTATE):
            raise DomainError(f"unknown state kind {kind!r}")
        if kind == BARRIER_SCATTERING and potential.kind != STEP_BARRIER:
            raise DomainError("barrier scattering requires a step potential")
        if kind == WELL_EIGENSTATE:
            if potential.kind != SQUARE_WELL:
                raise DomainError("well eigenstates require a square-well potential")
            if parity is None or index is None:
                raise DomainError("well eigenstates carry a parity and a ladder index")
        self._set(potential, kinematics, kind, parity, index)

    # -- scattering amplitudes (step) ------------------------------------

    def _reflection(self) -> complex:
        k, kappa = self.kinematics.k, self.kinematics.kappa
        return (k - 1j * kappa) / (k + 1j * kappa)

    def _transmission(self) -> complex:
        k, kappa = self.kinematics.k, self.kinematics.kappa
        return 2.0 * k / (k + 1j * kappa)

    # -- wavefunctions ---------------------------------------------------

    def wavefunction(self, x: float) -> complex:
        """psi(x); complex for scattering, real-valued for eigenstates."""
        k, kappa = self.kinematics.k, self.kinematics.kappa
        if self.kind == BARRIER_SCATTERING:
            if x < 0.0:
                return complex(math.cos(k * x), math.sin(k * x)) + self._reflection() * complex(
                    math.cos(k * x), -math.sin(k * x)
                )
            return self._transmission() * math.exp(-kappa * x)
        q = self.potential.q
        assert q is not None
        # psi = f(kx) for |x| < q and f(kq) exp(-kappa (x - q)) for x >= q, normalized, with psi(-x) = sign psi(x)
        f, sign = (math.cos, 1.0) if self.parity == PARITY_EVEN else (math.sin, -1.0)
        inv_norm = 1.0 / math.sqrt(q + sign * math.sin(2.0 * k * q) / (2.0 * k) + f(k * q) ** 2 / kappa)
        if abs(x) < q:
            return complex(inv_norm * f(k * x))
        return complex(inv_norm * (sign if x < 0.0 else 1.0) * f(k * q) * math.exp(-kappa * (abs(x) - q)))

    def density(self, x: float) -> float:
        """|psi(x)|^2."""
        psi = self.wavefunction(x)
        return psi.real * psi.real + psi.imag * psi.imag


def barrier_scattering(kin: Kinematics, pot: Potential | None = None) -> CopenhagenState:
    """Scattering state of energy ``kin.E`` against the step.

    The transmitted intensity is 4k^2/(k^2 + kappa^2) and the reflection
    coefficient has unit modulus, so the density is |T|^2 exp(-2 kappa x) for
    x >= 0 and an interference pattern of full contrast for x < 0.
    """
    if pot is None:
        pot = Potential(STEP_BARRIER, kin.U)
    state = CopenhagenState(potential=pot, kinematics=kin, kind=BARRIER_SCATTERING)  # the kind, checked before U
    if abs(pot.U - kin.U) > 1e-9 * pot.U:
        raise DomainError(f"kinematics were built for U={kin.U!r}, potential has U={pot.U!r}")
    return state


def well_eigenstate(pot: Potential, units: Units = Units(), index: int = 0) -> CopenhagenState:
    """Normalized bound state number ``index`` (0-based, ascending energy)."""
    from .potential import _eigen_kinematics  # the ladder loads with the first well state

    state, kin = _eigen_kinematics(pot, units, index)
    return CopenhagenState(
        potential=pot, kinematics=kin, kind=WELL_EIGENSTATE, parity=state.parity, index=index
    )


def copenhagen_density(state: CopenhagenState, x: float) -> float:
    """Probability density |psi|^2 of ``state`` at position ``x``."""
    if not math.isfinite(x):
        raise DomainError(f"position must be finite, got {x!r}")
    return state.density(x)


def _node_phases(state: CopenhagenState) -> tuple[float, float]:
    """(offset, top): well state n has its n nodes at k x/pi = j + offset, |j + offset| <= top = (n - 1)/2, with
    offset 0 for odd states (interior sin kx) and 1/2 for even ones (cos kx).  The exterior tails never vanish."""
    return (0.0 if state.parity == PARITY_ODD else 0.5), 0.5 * (state.index - 1)


def find_nodes(state: CopenhagenState, interval: tuple[float, float]) -> tuple[float, ...]:
    """All zeros of the eigenstate wavefunction inside the open interval, ascending.

    Defined for well eigenstates only: the support question the step scenario
    asks concerns the forbidden side x >= 0, where the density
    |T|^2 exp(-2 kappa x) never vanishes, so nodes play no role there.  State
    n has exactly n nodes, the closed forms x = (j + offset) pi/k with
    |j + offset| <= (n - 1)/2 of :func:`_node_phases`; the ground state has none.
    """
    if state.kind != WELL_EIGENSTATE:
        raise DomainError("nodes are defined for well eigenstates")
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"interval must be finite with lo < hi, got {interval!r}")
    q = state.potential.q
    assert q is not None
    k = state.kinematics.k
    offset, top = _node_phases(state)
    # every node lies in |x| < q; clipping the interval there keeps k x/pi finite
    lo_in, hi_in = min(max(lo, -q), q), max(min(hi, q), -q)
    j_lo = max(math.floor(lo_in * k / math.pi - offset), math.ceil(-top - offset))
    j_hi = min(math.ceil(hi_in * k / math.pi - offset), math.floor(top - offset))
    nodes = ((j + offset) * math.pi / k for j in range(j_lo, j_hi + 1))
    return tuple(x for x in nodes if lo < x < hi)
