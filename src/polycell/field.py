"""Exact arithmetic in Q(theta) for theta = 2*cos(pi/N).

Scalars are fixed-length integer coefficient tuples representing polynomials
in theta, reduced modulo the minimal polynomial of theta.  N is the lcm of
the finite edge orders of the group, so every entry -2*cos(pi/m) of the
doubled Gram matrix lies in the ring of integers of this field; all root
computations stay in integer coordinates.

Sign queries are decided on dyadic integers.  theta is boxed as
(L/2^K, (L+1)/2^K]: L is seeded from the float 2*cos(pi/N) and certified by
the sign change of the minimal polynomial, or found by integer bisection if
the seed fails.  In a field of degree d, a scalar a = sum c_i theta^i is
evaluated exactly as the integer v = 2^(K*(d-1)) * a(L/2^K).  By the mean
value theorem on |x| <= 2, a(theta) has the sign of v once
|v| > 2^(K*(d-2)) * sum i*|c_i|*2^(i-1).  Otherwise K doubles, the box
bisected on integers.  A reduced nonzero scalar cannot vanish at theta, so
this ends, unless K would pass PRECISION_CAP, which raises ResourceLimit.
In degree 1 theta is an integer and every sign is exact at once.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from functools import lru_cache

from .errors import ResourceLimit

Scalar = tuple[int, ...]

# bits of theta a sign query may ask for before it raises ResourceLimit
PRECISION_CAP = 1 << 13

# a float's 2*cos(pi/N) is good to about 2^-52
_SEED_BITS = 48


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
    """Coefficients of the n-th cyclotomic polynomial, constant term first:
    the product of (x^(n/m) - 1)^mu(m) over the squarefree divisors m of n.
    Every factor with mu(m) = 1 is multiplied in before any other is
    divided out, so each division is exact."""
    primes, rest, p = [], n, 2
    while rest > 1:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    squarefree = [(1, 1)]  # (m, mu(m))
    for p in primes:
        squarefree += [(m * p, -mu) for m, mu in squarefree]
    poly = [1]
    for m, mu in squarefree:
        if mu == 1:
            d = n // m
            poly = [0] * d + poly  # x^d * poly - poly
            for i in range(len(poly) - d):
                poly[i] -= poly[i + d]
    for m, mu in squarefree:
        if mu == -1:
            # poly = q * (x^d - 1): q_i = p_(i+d) + q_(i+d), from the top
            d = n // m
            q = poly[d:]
            for i in range(len(q) - d - 1, -1, -1):
                q[i] += q[i + d]
            assert all(c + (q[i] if i < len(q) else 0) == 0
                       for i, c in enumerate(poly[:d]))
            poly = q
    return tuple(poly)


_DICKSON: list[tuple[int, ...]] = [(2,), (0, 1)]  # D_0, D_1, ... so far


def dickson_poly(k: int) -> tuple[int, ...]:
    """D_k with D_k(2*cos x) = 2*cos(k*x): D_0 = 2, D_1 = y and
    D_(j+1) = y D_j - D_(j-1)."""
    while len(_DICKSON) <= k:
        nxt = [0, *_DICKSON[-1]]
        for i, c in enumerate(_DICKSON[-2]):
            nxt[i] -= c
        _DICKSON.append(tuple(nxt))
    return _DICKSON[k]


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


class RealCyclotomicField:
    """Arithmetic context for Q(2*cos(pi/N))."""

    def __init__(self, N: int):
        self.N = N
        self.minpoly = cos2_minpoly(N)
        self.degree = len(self.minpoly) - 1
        self.zero: Scalar = (0,) * self.degree
        self.one = self.from_int(1)
        self.two = self.from_int(2)
        self.theta = self._reduce([0, 1])
        if self.degree == 1:
            self._set_box(-self.minpoly[0], 0)
        else:
            self._set_box(self._isolate_theta(), _SEED_BITS)

    # theta = 2cos(pi/N) is the largest root of the minimal polynomial f.  A
    # cut between it and the next conjugate 2cos(k2*pi/N) leaves theta the
    # one root in (cut, 2], where f < 0 left of theta and f > 0 right of it.
    def _isolate_theta(self) -> int:
        N, K = self.N, _SEED_BITS
        k2 = 2
        while math.gcd(k2, 2 * N) != 1:
            k2 += 1
        mid = math.cos(math.pi / N) + math.cos(k2 * math.pi / N)  # = (theta+theta2)/2
        cut = math.ceil(math.ldexp(mid, K))
        assert self._below(cut, K), "failed to isolate 2*cos(pi/N)"
        num = math.floor(math.ldexp(2 * math.cos(math.pi / N), K))
        if cut <= num < (2 << K) and self._below(num, K) and not self._below(num + 1, K):
            return num
        return self._bisect(cut, 2 << K, K)

    def _below(self, num: int, bits: int) -> bool:
        """num/2^bits < theta, for num/2^bits in the isolating (cut, 2]: the
        sign of 2^(bits*d) * f(num/2^bits), by integer Horner."""
        acc = 0
        for i, c in enumerate(reversed(self.minpoly)):
            acc = acc * num + (c << bits * i)
        return acc < 0

    def _bisect(self, lo: int, hi: int, bits: int) -> int:
        """The L in [lo, hi) with theta in (L/2^bits, (L+1)/2^bits], given
        theta in (lo/2^bits, hi/2^bits] inside the isolating cut."""
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if self._below(mid, bits):
                lo = mid
            else:
                hi = mid
        return lo

    def _set_box(self, num: int, bits: int) -> None:
        """Box theta in (num/2^bits, (num+1)/2^bits] and tabulate, for each
        power i, the integer weights of v and of its mean-value bound."""
        self._num, self._bits = num, bits
        e = self.degree - 1
        self._powers = tuple(num**i << (bits * (e - i)) for i in range(e + 1))
        self._slopes = (0,) + tuple(i << (i - 1 + bits * (e - 1)) for i in range(1, e + 1))

    def _refine(self) -> None:
        bits = 2 * self._bits
        if bits > PRECISION_CAP:
            raise ResourceLimit(
                f"small roots: a field sign needs more than {PRECISION_CAP} bits of theta")
        lo = self._num << self._bits
        self._set_box(self._bisect(lo, lo + (1 << self._bits), bits), bits)

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
        while True:
            v = sum(map(operator.mul, a, self._powers))
            if abs(v) > sum(abs(c) * w for c, w in zip(a, self._slopes)):
                return 1 if v > 0 else -1
            self._refine()
