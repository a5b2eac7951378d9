"""Constants of the motion labelling the microstates of one energy.

A microstate is a coefficient triple (a, b, c) weighting the bilinear combination a*phi1^2 + b*phi2^2 + c*phi1*phi2
of two independent region solutions.  The physical family is the normalized slice ab - c^2/4 = 1 with a > 0; the
monochromatic member (1, 1, 0) reproduces the textbook stationary state of the same energy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateMicrostate, DomainError, _Record
from .kinematics import _NORMAL

#: Tolerance on |ab - c^2/4 - 1| accepted by the Microstate constructor.
NORMALIZATION_TOL = 1e-12

#: Open admissibility limit on |c| for the extremal reports.
ADMISSIBLE_C_LIMIT = 2.0


class Microstate(_Record):
    """Normalized coefficient triple: a > 0, b > 0 and ab - c^2/4 = 1.

    Construct directly only with already-normalized values; use :func:`normalize` to rescale a raw triple onto
    the physical slice.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise DomainError("microstate coefficients must be finite")
        if a <= 0.0:
            raise DomainError(f"coefficient a must be positive, got {a!r}")
        if b <= 0.0:
            raise DomainError(f"coefficient b must be positive, got {b!r}")
        norm = a * b - 0.25 * c * c
        # ab and c^2/4 cancel to 1: their magnitude sets the residual's accuracy; an overflow or nan is off the slice
        scale = max(1.0, a * b + 0.25 * c * c)
        if not abs(norm - 1.0) <= NORMALIZATION_TOL * scale < math.inf:
            raise DomainError(f"coefficients are not normalized: ab - c^2/4 = {norm!r}; use normalize()")
        self._set(a, b, c)

    @property
    def discriminant(self) -> float:
        """c^2 - 4ab of the bilinear form; exactly -4 on the normalized slice."""
        return self.c * self.c - 4.0 * self.a * self.b


class RawCoefficients(NamedTuple):
    """Unnormalized coefficient triple, e.g. the image of a basis rescale."""

    a: float
    b: float
    c: float


def gauge_factor(ms: Microstate | RawCoefficients) -> float:
    """sqrt(ab - c^2/4) of a positive-definite triple (a > 0 and ab - c^2/4 > 0), a normal double.

    The plain product serves where the invariant is a normal double; elsewhere the rescaled form sqrt(a) sqrt(b)
    sqrt((1 - t)(1 + t)), t = |c|/(2 sqrt(a) sqrt(b)), whose partial results stay doubles wherever the factor is
    one.  Raises :class:`DegenerateMicrostate` otherwise.  The invariant alone does not suffice: (-a, -b, -c)
    shares it, but its bilinear form is negative.
    """
    return _gauge(ms.a, ms.b, ms.c)


def _gauge(a: float, b: float, c: float) -> float:
    invariant = a * b - 0.25 * c * c
    if a > 0.0 and _NORMAL <= invariant < math.inf:
        return math.sqrt(invariant)
    root = math.sqrt(a) * math.sqrt(b) if a > 0.0 and b > 0.0 else 0.0
    t = 0.5 * abs(c) / root if _NORMAL <= root < math.inf else 1.0
    gauge = root * math.sqrt((1.0 - t) * (1.0 + t)) if t < 1.0 else 0.0
    if not _NORMAL <= gauge < math.inf:
        raise DegenerateMicrostate(
            f"a = {a!r}, ab - c^2/4 = {invariant!r}: the form is not positive-definite or its gauge not normal"
        )
    return gauge


#: The unique microstate indistinguishable from the textbook stationary state.
MONOCHROMATIC = Microstate(1.0, 1.0, 0.0)


def normalize(a_raw: float, b_raw: float, c_raw: float) -> Microstate:
    """Rescale a raw triple onto the slice ab - c^2/4 = 1.

    The scale factor s = (a_raw*b_raw - c_raw^2/4)^(-1/2) is one over :func:`gauge_factor`, and multiplies all
    three coefficients.  The input must have a_raw > 0 (else :class:`DomainError`) and be positive-definite (else
    :class:`DegenerateMicrostate`).
    """
    if not all(math.isfinite(v) for v in (a_raw, b_raw, c_raw)):
        raise DomainError("raw coefficients must be finite")
    if a_raw <= 0.0:
        raise DomainError(f"raw coefficient a must be positive, got {a_raw!r}")
    s = 1.0 / _gauge(a_raw, b_raw, c_raw)
    a, b, c = s * a_raw, s * b_raw, s * c_raw
    # One polish step absorbs the rounding of s; the residual is then set by a*b cancelling c^2/4 alone.
    residual = a * b - 0.25 * c * c
    if residual > 0.0 and residual != 1.0:
        s2 = 1.0 / math.sqrt(residual)
        a, b, c = s2 * a, s2 * b, s2 * c
    return Microstate(a, b, c)


def is_monochromatic(ms: Microstate, tol: float = 1e-12) -> bool:
    """True when ms is (1, 1, 0) to within ``tol`` (i.e. a = b and c = 0)."""
    return abs(ms.a - ms.b) <= tol and abs(ms.c) <= tol


def admissible(ms: Microstate) -> bool:
    """Membership in the open extremal region a > 0, |c| < 2.

    Normalized triples with |c| -> 2 make b -> c^2/(4a) and push the dwell time toward its supremum; the
    unconstrained closure is excluded because the extremum diverges there in the degenerate limit.
    """
    return ms.a > 0.0 and abs(ms.c) < ADMISSIBLE_C_LIMIT


def check_nonzero(name: str, value: float) -> None:
    """Raise :class:`DomainError`, naming ``name``, unless ``value`` is finite and nonzero."""
    if not (math.isfinite(value) and value != 0.0):
        raise DomainError(f"{name} must be finite and nonzero, got {value!r}")


class BasisRescale(_Record):
    """Diagonal change of basis phi1 -> alpha*phi1, phi2 -> beta*phi2."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        check_nonzero("alpha", alpha)
        check_nonzero("beta", beta)
        self._set(alpha, beta)


def transform_basis(ms: Microstate, rescale: BasisRescale) -> tuple[RawCoefficients, float]:
    """Coefficients of ``ms`` in the rescaled basis, plus the Wronskian factor.

    Returns ``((a/alpha^2, b/beta^2, c/(alpha*beta)), alpha*beta)``.  The raw triple is in general unnormalized:
    its quadratic invariant picks up 1/(alpha*beta)^2, which is exactly compensated by the Wronskian factor in any
    observable, so the bilinear momentum field is left invariant.
    """
    alpha, beta = rescale.alpha, rescale.beta
    raw = RawCoefficients(ms.a / alpha**2, ms.b / beta**2, ms.c / (alpha * beta))
    return raw, alpha * beta
