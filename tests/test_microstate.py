"""Microstate coefficient triples: normalization, admissibility, basis changes."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trdwell.errors import DegenerateMicrostate, DomainError
from trdwell.microstate import (
    MONOCHROMATIC,
    BasisRescale,
    Microstate,
    RawCoefficients,
    admissible,
    gauge_factor,
    is_monochromatic,
    normalize,
    transform_basis,
)

# Raw triples with a guaranteed positive discriminant: pick a, c freely and
# back out b = (c^2/4 + margin)/a so that a*b - c^2/4 = margin > 0.
_positive_triples = st.tuples(
    st.floats(1e-3, 1e3),
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 1e3),
).map(lambda t: (t[0], (t[1] * t[1] / 4.0 + t[2]) / t[0], t[1]))


def test_monochromatic_is_the_unit_triple():
    assert (MONOCHROMATIC.a, MONOCHROMATIC.b, MONOCHROMATIC.c) == (1.0, 1.0, 0.0)
    assert is_monochromatic(MONOCHROMATIC)
    assert admissible(MONOCHROMATIC)


def test_constructor_demands_canonical_normalization():
    Microstate(2.0, 1.0, 2.0)  # 2*1 - 1 = 1, fine
    with pytest.raises(DomainError, match="normalize"):
        Microstate(2.0, 2.0, 0.0)


@pytest.mark.parametrize("triple", [(1e200, 1e200, 0.0), (1e200, 1e200, 1e200), (1e-200, 1e200, 1e300)])
def test_constructor_refuses_a_triple_whose_products_overflow(triple):
    # ab - c^2/4 is inf, nan and -inf (the last triple is not even positive-definite); each is off the slice
    with pytest.raises(DomainError, match="not normalized"):
        Microstate(*triple)


@pytest.mark.parametrize("triple", [(0.0, 1.0, 0.0), (-1.0, -1.0, 0.0), (1.0, -1.0, 0.0)])
def test_constructor_rejects_nonpositive_diagonal(triple):
    with pytest.raises(DomainError):
        Microstate(*triple)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructor_rejects_nonfinite(bad):
    with pytest.raises(DomainError):
        Microstate(bad, 1.0, 0.0)
    with pytest.raises(DomainError):
        Microstate(1.0, 1.0, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_normalize_rejects_nonfinite(bad, position):
    raw = [1.0, 1.0, 0.0]
    raw[position] = bad
    with pytest.raises(DomainError, match="raw coefficients must be finite"):
        normalize(*raw)


@given(_positive_triples)
@settings(max_examples=300, deadline=None)
def test_normalize_lands_on_the_unit_surface(triple):
    a, b, c = triple
    ms = normalize(a, b, c)
    assert ms.a > 0.0 and ms.b > 0.0
    # the residual of the cancellation ab - c^2/4 is bounded by the products' scale
    scale = max(1.0, ms.a * ms.b + ms.c * ms.c / 4.0)
    assert ms.a * ms.b - ms.c * ms.c / 4.0 == pytest.approx(1.0, abs=1e-12 * scale)
    assert ms.discriminant == pytest.approx(-4.0, abs=4e-12 * scale)
    # normalization is a pure rescale: ratios survive
    assert ms.b * a == pytest.approx(ms.a * b, rel=1e-9)
    if c != 0.0:
        assert ms.c * a == pytest.approx(ms.a * c, rel=1e-9)


@given(_positive_triples, st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_normalize_is_scale_invariant_and_idempotent(triple, scale):
    a, b, c = triple
    ms = normalize(a, b, c)
    # The invariant ab - c^2/4 is a cancellation; its relative error — and so
    # the best achievable agreement — grows with the condition number.
    cond = (a * b + c * c / 4.0) / (a * b - c * c / 4.0)
    tol = max(1e-12, 50 * 2.3e-16 * cond)
    scaled = normalize(scale * a, scale * b, scale * c)
    assert scaled.a == pytest.approx(ms.a, rel=tol)
    assert scaled.b == pytest.approx(ms.b, rel=tol)
    assert scaled.c == pytest.approx(ms.c, abs=tol * max(1.0, abs(ms.c)))
    again = normalize(ms.a, ms.b, ms.c)
    assert again.a == pytest.approx(ms.a, rel=tol)


def test_normalize_rejects_degenerate_triples():
    with pytest.raises(DomainError):
        normalize(-1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        normalize(0.0, 1.0, 0.0)
    with pytest.raises(DegenerateMicrostate):
        normalize(1.0, 1.0, 2.0)  # discriminant exactly zero
    with pytest.raises(DegenerateMicrostate):
        normalize(1.0, 0.25, 1.5)  # negative discriminant


def test_degenerate_is_a_value_error_subtype():
    with pytest.raises(ValueError):
        normalize(1.0, 1.0, 2.0)


def test_admissibility_boundary():
    # |c| < 2 is the open admissible band; both signs, both sides
    assert admissible(normalize(1.0, 1.0 + (1.999**2) / 4.0, 1.999))
    eps = 1e-6
    c = 2.0 - eps
    assert admissible(normalize(1.0, 1.0 + c * c / 4.0, c))
    c = 2.0 + eps
    assert not admissible(normalize(1.0, 1.0 + c * c / 4.0, c))
    c = -(2.0 + eps)
    assert not admissible(normalize(1.0, 1.0 + c * c / 4.0, c))


def test_is_monochromatic_tolerance():
    near = normalize(1.0 + 1e-14, 1.0, 1e-14)
    assert is_monochromatic(near)
    far = normalize(2.0, 1.0, 0.0)
    assert not is_monochromatic(far)


class TestBasisRescale:
    def test_rejects_zero_and_nonfinite_factors(self):
        with pytest.raises(DomainError):
            BasisRescale(0.0, 1.0)
        with pytest.raises(DomainError):
            BasisRescale(1.0, math.inf)
        BasisRescale(-2.0, 0.5)  # sign flips are legitimate

    @given(
        _positive_triples,
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_transform_tracks_the_wronskian_factor(self, triple, alpha, beta):
        ms = normalize(*triple)
        raw, factor = transform_basis(ms, BasisRescale(alpha, beta))
        assert factor == pytest.approx(alpha * beta, rel=1e-15)
        # the discriminant picks up exactly factor^-2
        disc = raw.a * raw.b - raw.c * raw.c / 4.0
        assert disc * (alpha * beta) ** 2 == pytest.approx(1.0, rel=1e-9)

    def test_round_trip_restores_coefficients(self):
        ms = normalize(2.0, 1.0, 2.0)
        raw, _ = transform_basis(ms, BasisRescale(3.0, 0.5))
        back = normalize(*transform_basis(normalize(*raw), BasisRescale(1 / 3.0, 2.0))[0])
        assert back.a == pytest.approx(ms.a, rel=1e-12)
        assert back.b == pytest.approx(ms.b, rel=1e-12)
        assert back.c == pytest.approx(ms.c, rel=1e-12)


#: Positive-definite triples whose plain ab - c^2/4 is inf, 0, nan (inf - inf) or subnormal.
_BEYOND_THE_PLAIN_PRODUCT = [
    (1e160, 1e160, 0.0),
    (1e-200, 1e-200, 0.0),
    (1e200, 1e200, 1e200),
    (1e300, 1e100, -1.5e200),
    (1e-160, 1e-160, 1e-160),
    (1.7e308, 1.7e308, 1e308),
    (1e-300, 1e-10, -1e-155),
]


@pytest.mark.parametrize("triple", _BEYOND_THE_PLAIN_PRODUCT)
def test_a_positive_definite_triple_beyond_the_plain_product_is_accepted(triple):
    # the rescaled form gives sqrt(ab - c^2/4) within 4 ulp and the normalized triple within 8, against
    # 40-digit values, where the plain product refused the triple or (subnormal) kept a few bits of it
    with mpmath.workdps(40):
        a, b, c = map(mpmath.mpf, triple)
        gauge = mpmath.sqrt(a * b - c * c / 4)
        expected = [float(v / gauge) for v in (a, b, c)]
    assert gauge_factor(RawCoefficients(*triple)) == pytest.approx(float(gauge), rel=2.0**-51, abs=0.0)
    ms = normalize(*triple)
    assert [ms.a, ms.b, ms.c] == pytest.approx(expected, rel=2.0**-50, abs=0.0)


@pytest.mark.parametrize(
    "triple", [(1.0, 1.0, 2.0), (1.0, 0.25, 1.5), (-1.0, -1.0, 0.0), (1e-320, 1e-320, 0.0), (1e300, 1e-300, 2.5)]
)
def test_gauge_factor_still_refuses_what_is_not_positive_definite_or_not_a_normal_double(triple):
    # (1e-320, 1e-320, 0) is positive-definite, but its factor 1e-320 is subnormal
    with pytest.raises(DegenerateMicrostate):
        gauge_factor(RawCoefficients(*triple))


@given(_positive_triples)
@settings(max_examples=200, deadline=None)
def test_the_plain_product_keeps_its_bits(triple):
    # where ab - c^2/4 is a normal double, both functions take the plain product, operation for operation
    a, b, c = triple
    invariant = a * b - 0.25 * c * c
    assert gauge_factor(RawCoefficients(a, b, c)) == math.sqrt(invariant)
    s = 1.0 / math.sqrt(invariant)
    a, b, c = s * a, s * b, s * c
    residual = a * b - 0.25 * c * c
    if residual > 0.0 and residual != 1.0:
        s = 1.0 / math.sqrt(residual)
        a, b, c = s * a, s * b, s * c
    ms = normalize(*triple)
    assert (ms.a, ms.b, ms.c) == (a, b, c)
