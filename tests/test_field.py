import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycell.errors import ResourceLimit
from polycell.field import (
    RealCyclotomicField,
    _poly_mul,
    cos2_minpoly,
    cyclotomic_poly,
    dickson_poly,
)


def _float(f: RealCyclotomicField, a) -> float:
    theta = 2 * math.cos(math.pi / f.N)
    return sum(c * theta**i for i, c in enumerate(a))


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_products_give_x_n_minus_1():
    # x^n - 1 is the product of Phi_d over d | n, which fixes every Phi_n
    for n in range(1, 201):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = _poly_mul(product, cyclotomic_poly(d))
        assert product == [-1] + [0] * (n - 1) + [1], n


def test_minpoly_values():
    assert cos2_minpoly(2) == (0, 1)        # theta = 0
    assert cos2_minpoly(3) == (-1, 1)       # theta = 1
    assert cos2_minpoly(4) == (-2, 0, 1)    # theta = sqrt(2)
    assert cos2_minpoly(6) == (-3, 0, 1)    # theta = sqrt(3)
    assert cos2_minpoly(7) == (1, -2, -1, 1)
    assert len(cos2_minpoly(42)) == 13      # degree 12


def test_minpoly_kills_theta():
    for N in (2, 3, 4, 5, 6, 7, 12, 42):
        theta = 2 * math.cos(math.pi / N)
        val = sum(c * theta**i for i, c in enumerate(cos2_minpoly(N)))
        assert abs(val) < 1e-9


def test_dickson_is_doubled_cosine():
    for k in range(8):
        for x in (0.3, 1.1, 1.9):
            t = math.acos(x / 2)
            val = sum(c * x**i for i, c in enumerate(dickson_poly(k)))
            assert abs(val - 2 * math.cos(k * t)) < 1e-9


def test_dickson_is_doubled_cosine_to_degree_40():
    # at x = j*pi/6 for j = 0, 2, 3, 4, 6, 2cos x is an integer and so is
    # 2cos(kx), so the check is exact however large the coefficients grow
    for k in range(41):
        for j in (0, 2, 3, 4, 6):
            y = round(2 * math.cos(j * math.pi / 6))
            val = sum(c * y**i for i, c in enumerate(dickson_poly(k)))
            assert val == round(2 * math.cos(k * j * math.pi / 6))


def test_two_cos_matches_float():
    f = RealCyclotomicField(42)
    for m in (2, 3, 7):
        scalar = f.two_cos(42 // m)
        assert abs(_float(f, scalar) - 2 * math.cos(math.pi / m)) < 1e-9


def test_sign_decisions():
    f = RealCyclotomicField(42)
    theta = f.theta
    assert f.sign(theta) == 1
    assert f.sign(f.neg(theta)) == -1
    assert f.sign(f.zero) == 0
    # theta - 2 < 0 < theta - 1 for N = 42
    assert f.sign(f.sub(theta, f.from_int(2))) == -1
    assert f.sign(f.sub(theta, f.from_int(1))) == 1
    # tiny but nonzero: theta^2 - (theta^2 reduced twice) stays zero
    assert f.is_zero(f.sub(f.mul(theta, theta), f.mul(theta, theta)))


def test_degenerate_rational_fields():
    f2 = RealCyclotomicField(2)  # theta = 0
    assert f2.sign(f2.theta) == 0
    f1 = RealCyclotomicField(1)  # theta = -2
    assert f1.sign(f1.theta) == -1


scalars = st.lists(st.integers(min_value=-9, max_value=9), min_size=12, max_size=12).map(tuple)


@settings(max_examples=60, deadline=None)
@given(a=scalars, b=scalars, c=scalars)
def test_ring_axioms_n42(a, b, c):
    f = RealCyclotomicField(42)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(a, b) == f.add(b, a)
    left = f.mul(a, f.add(b, c))
    right = f.add(f.mul(a, b), f.mul(a, c))
    assert left == right
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@settings(max_examples=40, deadline=None)
@given(a=scalars)
def test_sign_matches_float_when_clear(a):
    f = RealCyclotomicField(42)
    approx = _float(f, a)
    if abs(approx) > 1e-6:
        assert f.sign(a) == (1 if approx > 0 else -1)


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@functools.cache
def _theta_boxes(N: int) -> list[tuple[Fraction, Fraction]]:
    """Ever narrower boxes (lo, hi] around theta = 2*cos(pi/N), bisected
    in Fractions against the minimal polynomial down to width 2^-320."""
    f = cos2_minpoly(N)
    t = Fraction(2 * math.cos(math.pi / N))
    # far narrower than the gap to the next conjugate
    lo, hi = t - Fraction(1, 10**6), t + Fraction(1, 10**6)
    assert _horner(f, lo) < 0 < _horner(f, hi)
    boxes = [(lo, hi)]
    while hi - lo > Fraction(1, 1 << 320):
        mid = (lo + hi) / 2
        if _horner(f, mid) < 0:
            lo = mid
        else:
            hi = mid
        boxes.append((lo, hi))
    return boxes


def _fraction_sign(N: int, a) -> int:
    """Sign of a(theta) from the first box whose interval image of a
    excludes zero."""
    for lo, hi in _theta_boxes(N):
        low = high = Fraction(0)
        for c in reversed(a):
            ends = (low * lo, low * hi, high * lo, high * hi)
            low, high = min(ends) + c, max(ends) + c
        if low > 0 or high < 0:
            return 1 if low > 0 else -1
    raise AssertionError("the reference boxes are too wide")


def _near_integer(f: RealCyclotomicField, j: int, bits: int):
    """2^bits * theta^j - round(2^bits * theta^j): a scalar of size at most
    1/2 whose sign needs theta to more than `bits` bits."""
    lo, _ = _theta_boxes(f.N)[-1]
    power = f.one
    for _ in range(j):
        power = f.mul(power, f.theta)
    return f.sub(f.mul(f.from_int(1 << bits), power),
                 f.from_int(round(lo**j * (1 << bits))))


@pytest.mark.parametrize("N", [42, 315])
@pytest.mark.parametrize("j, bits", [(1, 80), (2, 80), (5, 80), (1, 200)])
def test_sign_refines_past_the_first_box(N, j, bits):
    f = RealCyclotomicField(N)
    a = _near_integer(f, j, bits)
    expected = _fraction_sign(N, a)
    assert f.sign(a) == expected
    assert f.sign(f.neg(a)) == -expected
    # a fresh field starts again from the first box
    g = RealCyclotomicField(N)
    assert g.sign(g.neg(a)) == -expected


def test_sign_past_the_precision_cap_is_a_resource_limit(monkeypatch):
    f = RealCyclotomicField(42)
    a = _near_integer(f, 1, 80)
    monkeypatch.setattr("polycell.field.PRECISION_CAP", 64)
    with pytest.raises(ResourceLimit) as exc:
        f.sign(a)
    assert str(exc.value) == "small roots: a field sign needs more than 64 bits of theta"


@pytest.mark.parametrize("N", [5, 42, 315])
def test_isolation_falls_back_to_bisection(N, monkeypatch):
    # no float is good to 2^-120, so the seed fails its certificate and
    # theta is bisected from the isolating cut
    monkeypatch.setattr("polycell.field._SEED_BITS", 120)
    f = RealCyclotomicField(N)
    for j in (1, 2):
        a = _near_integer(f, j, 110)
        assert f.sign(a) == _fraction_sign(N, a)
