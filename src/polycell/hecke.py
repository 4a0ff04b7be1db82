"""Hecke algebra in the T-basis over Z[v, 1/v], v = q^(1/2).

Laurent polynomials are (offset, coeffs) with nonzero end coefficients;
Hecke elements are dicts from normal words to Laurent coefficients.  The
signed basis element

    c(w) = sum over y <= w of (-1)^(l(w)-l(y)) v^(l(w)-2 l(y)) P_{y,w}(1/q) T_y

has unitriangular change of basis, so structure constants fall out by
repeatedly stripping the longest surviving term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BallTooSmall
from .field import _poly_mul_into
from .kl import KLTable, Poly
from .words import Element, PolygonGroup, Word


@dataclass(frozen=True)
class Laurent:
    """Integer Laurent polynomial in v: coeffs[i] multiplies v^(offset+i)."""

    offset: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        assert not self.coeffs or (self.coeffs[0] != 0 and self.coeffs[-1] != 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int | None:
        return self.offset if self.coeffs else None

    def __add__(self, other: "Laurent") -> "Laurent":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        acc = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            acc[self.offset - lo + i] += c
        for i, c in enumerate(other.coeffs):
            acc[other.offset - lo + i] += c
        return _make(lo, acc)

    def __neg__(self) -> "Laurent":
        return Laurent(self.offset, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        if self.is_zero or other.is_zero:
            return L_ZERO
        acc = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        _poly_mul_into(acc, self.coeffs, other.coeffs)
        return _make(self.offset + other.offset, acc)

    def shift(self, n: int) -> "Laurent":
        if self.is_zero:
            return self
        return Laurent(self.offset + n, self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*v^{self.offset + i}")
        return " + ".join(terms)


def _make(offset: int, acc: list[int]) -> Laurent:
    lo = 0
    while lo < len(acc) and acc[lo] == 0:
        lo += 1
    hi = len(acc)
    while hi > lo and acc[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        return L_ZERO
    return Laurent(offset + lo, tuple(acc[lo:hi]))


L_ZERO = Laurent(0, ())
L_ONE = Laurent(0, (1,))
L_Q = Laurent(2, (1,))        # q = v^2
L_Q_MINUS_1 = Laurent(0, (-1, 0, 1))


def laurent_of_int_poly(p: Poly, scale: int = 2, offset: int = 0) -> Laurent:
    """v^offset * p(v^scale); scale -2 substitutes q -> 1/q."""
    if not p:
        return L_ZERO
    deg = len(p) - 1
    lo = offset + min(0, scale * deg)
    acc = [0] * (abs(scale) * deg + 1)
    for i, c in enumerate(p):
        acc[offset + scale * i - lo] += c
    return _make(lo, acc)


HeckeElement = dict[Word, Laurent]


class HeckeAlgebra:
    def __init__(self, group: PolygonGroup):
        self.group = group

    def _mult_gen(self, h: HeckeElement, s: int) -> HeckeElement:
        out: dict[Word, Laurent] = {}

        def bump(word: Word, c: Laurent):
            cur = out.get(word)
            tot = c if cur is None else cur + c
            if tot.is_zero:
                out.pop(word, None)
            else:
                out[word] = tot

        for word, c in h.items():
            if self.group.is_reduced(word + (s,)):
                bump(self.group.nf(word + (s,)), c)
            else:
                shorter = self.group.nf(word + (s,))
                bump(shorter, c * L_Q)
                bump(word, c * L_Q_MINUS_1)
        return out

    def multiply(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        out: dict[Word, Laurent] = {}
        for word, c in b.items():
            term = {k: v * c for k, v in a.items()}
            for s in word:
                term = self._mult_gen(term, s)
            for k, v in term.items():
                cur = out.get(k)
                tot = v if cur is None else cur + v
                if tot.is_zero:
                    out.pop(k, None)
                else:
                    out[k] = tot
        return out

    def c_basis(self, w: Element, table: KLTable) -> HeckeElement:
        """Signed Kazhdan-Lusztig basis element for w (ball must cover [e,w])."""
        wi = table.idx(w)
        out: HeckeElement = {}
        for yi in table.lower(wi):
            y = table.ball.elements[yi]
            p = table.p_idx(yi, wi)
            sign = -1 if (w.length - y.length) % 2 else 1
            coeff = laurent_of_int_poly(
                p, scale=-2, offset=w.length - 2 * y.length
            )
            if sign < 0:
                coeff = -coeff
            if not coeff.is_zero:
                out[y.word] = coeff
        return out

    def h_constants(self, x: Element, y: Element, table: KLTable) -> dict[Word, Laurent]:
        """Structure constants of c(x) c(y) in the c-basis."""
        if x.length + y.length > table.ball.radius:
            raise BallTooSmall(
                f"product support may reach length {x.length + y.length} "
                f"but the ball has radius {table.ball.radius}"
            )
        prod = self.multiply(self.c_basis(x, table), self.c_basis(y, table))
        out: dict[Word, Laurent] = {}
        cbasis_cache: dict[Word, HeckeElement] = {}
        while prod:
            z_word = max(prod, key=lambda t: (len(t), t))
            if z_word not in table.ball.index:
                raise BallTooSmall(f"support word {z_word} outside the ball")
            cz = cbasis_cache.get(z_word)
            if cz is None:
                z = table.ball.elements[table.ball.index[z_word]]
                cz = self.c_basis(z, table)
                cbasis_cache[z_word] = cz
            # c(z) has T_z coefficient v^(-l(z)); divide it off
            h = prod[z_word].shift(len(z_word))
            out[z_word] = h
            for k, v in cz.items():
                cur = prod.get(k, L_ZERO)
                tot = cur - (v * h)
                if tot.is_zero:
                    prod.pop(k, None)
                else:
                    prod[k] = tot
        return out

    def a_lower_bounds(self, sample_radius: int, table: KLTable) -> dict[Word, int]:
        """max over sampled x, y of -min_v_exponent(h_{x,y,z}), for every z
        some sampled product reaches: a certified lower bound for Lusztig's
        a(z).  Samples run over all pairs with l(x), l(y) <= sample_radius;
        h_constants raises BallTooSmall if a product may leave the ball."""
        sample = [e for e in table.ball.elements if e.length <= sample_radius]
        bounds: dict[Word, int] = {}
        for x in sample:
            for y in sample:
                for zw, h in self.h_constants(x, y, table).items():
                    bounds[zw] = max(bounds.get(zw, 0), -h.min_exp())
        return bounds
