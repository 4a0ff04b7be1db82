"""Exact arithmetic in Q(theta) for theta = 2*cos(pi/N).

Scalars are fixed-length integer coefficient tuples representing polynomials
in theta, reduced modulo the minimal polynomial of theta.  N is the lcm of
the finite edge orders of the group, so every entry -2*cos(pi/m) of the
doubled Gram matrix lies in the ring of integers of this field; all root
computations stay in integer coordinates.

Sign queries are decided by interval arithmetic: theta is boxed in a
rational isolating interval which is bisected (exactly, against the minimal
polynomial) until the interval image of the query polynomial excludes zero.
A reduced nonzero polynomial cannot vanish at theta, so this terminates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

Scalar = tuple[int, ...]


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul_into(acc: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    """acc += a * b for integer coefficient sequences, constant term first;
    acc must have room for the product's degree."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] += x * y


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    _poly_mul_into(out, a, b)
    return _trim(out)


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide by a monic integer polynomial; exact over Z."""
    assert den and den[-1] == 1
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return _trim(q), _trim(num)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_monic(num, list(cyclotomic_poly(d)))
            assert not rem
    return tuple(num)


@lru_cache(maxsize=None)
def dickson_poly(k: int) -> tuple[int, ...]:
    """D_k with D_k(2*cos x) = 2*cos(k*x); D_0 = 2, D_1 = y."""
    if k == 0:
        return (2,)
    if k == 1:
        return (0, 1)
    prev, cur = [2], [0, 1]
    for _ in range(k - 1):
        nxt = [-c for c in prev]
        nxt += [0] * (len(cur) + 1 - len(nxt))
        for i, c in enumerate(cur):
            nxt[i + 1] += c
        prev, cur = cur, _trim(nxt)
    return tuple(cur)


@lru_cache(maxsize=None)
def cos2_minpoly(N: int) -> tuple[int, ...]:
    """Minimal polynomial of 2*cos(pi/N), obtained by folding the 2N-th
    cyclotomic polynomial through x^j + x^-j = D_j(y)."""
    if N == 1:
        return (2, 1)  # theta = -2
    phi = cyclotomic_poly(2 * N)
    deg = len(phi) - 1
    assert deg % 2 == 0
    d = deg // 2
    acc = [phi[d]]
    for j in range(1, d + 1):
        term = [phi[d + j] * c for c in dickson_poly(j)]
        acc += [0] * (len(term) - len(acc))
        for i, c in enumerate(term):
            acc[i] += c
    assert acc[-1] == 1
    return tuple(acc)


def _eval_fraction(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class RealCyclotomicField:
    """Arithmetic context for Q(2*cos(pi/N))."""

    def __init__(self, N: int):
        self.N = N
        self.minpoly = cos2_minpoly(N)
        self.degree = len(self.minpoly) - 1
        self.zero: Scalar = (0,) * self.degree
        self.one = self.from_int(1)
        self.two = self.from_int(2)
        if self.degree == 1:
            self._theta_exact: Fraction | None = Fraction(-self.minpoly[0])
            self._lo = self._hi = self._theta_exact
        else:
            self._theta_exact = None
            self._lo, self._hi = self._isolate_theta()
        self.theta = self._reduce([0, 1])

    # theta = 2cos(pi/N) is the largest root of the minimal polynomial; seed
    # a lower cut between it and the next conjugate 2cos(k2*pi/N), then keep
    # the invariant that (lo, hi] contains exactly that root.
    def _isolate_theta(self) -> tuple[Fraction, Fraction]:
        N = self.N
        k2 = 2
        while math.gcd(k2, 2 * N) != 1:
            k2 += 1
        mid = math.cos(math.pi / N) + math.cos(k2 * math.pi / N)  # = (theta+theta2)/2
        lo = Fraction(mid).limit_denominator(10**12)
        val = _eval_fraction(self.minpoly, lo)
        # strictly below a simple largest root the polynomial is negative
        assert val < 0, "failed to isolate 2*cos(pi/N)"
        return lo, Fraction(2)

    def _refine(self) -> None:
        if self._theta_exact is not None:
            return
        mid = (self._lo + self._hi) / 2
        if _eval_fraction(self.minpoly, mid) < 0:
            self._lo = mid
        else:
            self._hi = mid

    def _reduce(self, coeffs: list[int]) -> Scalar:
        if len(coeffs) > self.degree:
            _, coeffs = _poly_divmod_monic(coeffs, list(self.minpoly))
        coeffs = list(coeffs) + [0] * (self.degree - len(coeffs))
        return tuple(coeffs)

    def from_int(self, k: int) -> Scalar:
        return (k,) + (0,) * (self.degree - 1)

    def two_cos(self, k: int) -> Scalar:
        """2*cos(k*pi/N) as a field element."""
        return self._reduce(list(dickson_poly(k)))

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a: Scalar) -> Scalar:
        return tuple(-x for x in a)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return self._reduce(_poly_mul(a, b))

    def is_zero(self, a: Scalar) -> bool:
        return not any(a)

    def sign(self, a: Scalar) -> int:
        if not any(a):
            return 0
        if self._theta_exact is not None:
            v = _eval_fraction(a, self._theta_exact)
            return (v > 0) - (v < 0)
        for _ in range(10000):
            lo, hi = self._interval_eval(a)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._refine()
        raise ArithmeticError("sign refinement did not converge")

    def _interval_eval(self, coeffs) -> tuple[Fraction, Fraction]:
        lo = hi = Fraction(0)
        for c in reversed(coeffs):
            cands = (lo * self._lo, lo * self._hi, hi * self._lo, hi * self._hi)
            lo, hi = min(cands) + c, max(cands) + c
        return lo, hi

    def to_float(self, a: Scalar) -> float:
        t = math.cos(math.pi / self.N) * 2
        return float(sum(c * t**i for i, c in enumerate(a)))
