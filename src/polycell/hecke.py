"""Kazhdan-Lusztig basis and structure constants of the Hecke algebra.

A Hecke element is a dict from ball index to one packed polynomial in q,
in kl.py's format: p(2^B), one balanced B-bit digit per power of q.  The
basis element, normalised to lie in Z[q],

    C_w = v^l(w) c(w) = sum over y <= w of (-1)^n q^n P_{y,w}(1/q) T_y,
    n = l(w) - l(y),

has T_w coefficient 1, and deg P_{y,w} < n keeps every other coefficient
a polynomial; c(w) is the signed KL basis.  T_x T_s is T_xs when
l(xs) > l(x), and q T_xs + (q - 1) T_x otherwise, read off the ball's
Cayley edges.  C_z is T_z plus terms of lower index, so stripping the
largest surviving index from C_x C_y writes it as sum over z of H_z C_z
with every H_z in Z[q]; the structure constants of the c-basis are then

    h_{x,y,z} = v^(l(z)-l(x)-l(y)) H_z(v^2).

Exactness: every coefficient carries a majorant of its L1 norm (the sum
of |coefficients|), which bounds each of its digits.  A T_s step keeps a
coefficient's norm or sends it to q c and (q - 1) c, at most tripling the
total that reaches one index; stripping H_z C_z adds |H_z| |C_z[k]| at k.
No digit is read, or tested for zero, before its majorant is certified
below 2^(B-1); a coefficient that fails raises ResourceLimit.
"""

from __future__ import annotations

from .errors import BallTooSmall
from .kl import _B, KLTable, _check_digit, _lowest, _pack, unpack

Hecke = dict[int, int]  # ball index -> packed polynomial in q


def _l1(c: int) -> int:
    """Sum of |coefficients| of a packed polynomial with exact digits."""
    return sum(map(abs, unpack(c)))


def c_basis(table: KLTable, w: int) -> Hecke:
    """C_w in the T-basis (the ball must cover [e, w])."""
    lengths = table.ball.lengths
    out = {}
    for y, p in table.column(w).items():
        n = lengths[w] - lengths[y]
        c = _pack(p[::-1]) << _B * (n + 1 - len(p))  # q^n P_{y,w}(1/q)
        out[y] = -c if n % 2 else c
    return out


def multiply(table: KLTable, a: Hecke, b: Hecke) -> Hecke:
    """The T-basis product a b, without zero terms, of two elements with
    exact digits (as c_basis and multiply give them).  a T_u is formed as
    (a T_u') T_s, for u' the ShortLex prefix of u = u's, once for every u
    that b's support reaches that way, with a majorant of each
    coefficient's L1 norm."""
    ball = table.ball
    right, lengths = ball.right_mult, ball.lengths
    rows = {0: (a, {x: _l1(c) for x, c in a.items()})}

    def row(u: int) -> tuple[Hecke, dict[int, int]]:
        if u not in rows:
            s = ball.words[u][-1]
            term, major = row(right[u][s])
            out: Hecke = {}
            bound: dict[int, int] = {}
            for x, c in term.items():
                xs = right[x][s]
                if xs is None:
                    raise BallTooSmall(
                        f"a T-basis product leaves ball({ball.radius})")
                m = major[x]
                if lengths[xs] > lengths[x]:
                    out[xs] = out.get(xs, 0) + c
                else:  # T_x T_s = q T_xs + (q - 1) T_x
                    out[xs] = out.get(xs, 0) + (c << _B)
                    out[x] = out.get(x, 0) + (c << _B) - c
                    bound[x] = bound.get(x, 0) + 2 * m
                bound[xs] = bound.get(xs, 0) + m
            rows[u] = out, bound
        return rows[u]

    prod: Hecke = {}
    bound: dict[int, int] = {}
    for u, bu in b.items():
        term, major = row(u)
        m = _l1(bu)
        for x, c in term.items():
            prod[x] = prod.get(x, 0) + c * bu
            bound[x] = bound.get(x, 0) + major[x] * m
    for x in prod:
        _check_digit(bound[x], "Hecke algebra: the T_%d coefficient of a product", x)
    return {x: c for x, c in prod.items() if c}


def h_constants(table: KLTable, x: int, y: int) -> Hecke:
    """The nonzero H_z of C_x C_y = sum over z of H_z C_z, by ball index."""
    ball = table.ball
    if ball.lengths[x] + ball.lengths[y] > ball.radius:
        raise BallTooSmall(
            f"product support may reach length {ball.lengths[x] + ball.lengths[y]} "
            f"but the ball has radius {ball.radius}")
    prod = multiply(table, c_basis(table, x), c_basis(table, y))
    bound = {k: _l1(c) for k, c in prod.items()}
    out: Hecke = {}
    while prod:
        z = max(prod)
        h = prod.pop(z)
        _check_digit(bound[z], "Hecke algebra: H_%d of C_%d C_%d", z, x, y)
        if not h:
            continue
        out[z] = h
        m = _l1(h)
        for k, c in c_basis(table, z).items():
            if k != z:
                prod[k] = prod.get(k, 0) - h * c
                bound[k] = bound.get(k, 0) + m * _l1(c)
    return out


def a_lower_bounds(table: KLTable, sample_radius: int) -> dict[int, int]:
    """For every z some sampled product reaches, the largest
    -min_v_exponent(h_{x,y,z}) = l(x) + l(y) - l(z) - 2 (lowest q-degree of
    H_z), and at least 0: a certified lower bound for Lusztig's a(z).
    Samples run over all pairs with l(x), l(y) <= sample_radius;
    h_constants raises BallTooSmall if a product may leave the ball."""
    lengths = table.ball.lengths
    sample = [x for x, n in enumerate(lengths) if n <= sample_radius]
    bounds: dict[int, int] = {}
    for x in sample:
        for y in sample:
            for z, h in h_constants(table, x, y).items():
                a = lengths[x] + lengths[y] - lengths[z] - 2 * (_lowest(h) // _B)
                bounds[z] = max(bounds.get(z, 0), a)
    return bounds
