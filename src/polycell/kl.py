"""Bruhat order, R- and Kazhdan-Lusztig polynomials, W-graphs and cells.

Ball indices run in (length, ShortLex) order.  Bruhat order is stored as
ideals, one Python-int bitset over ball indices per element: the lower
ideal of w is built once, in index order, by the lifting property

    down(w) = down(ws) | {x s : x in down(ws)}      for s = min D_R(w),

and the upper ideals are its transpose.  A comparison is one bit test, an
interval [v, w] is the set bits of down(w) & up(v), and lengths come from a
flat list.

Polynomials in q are dense integer coefficient tuples from degree 0 at the
interface.  The memo holds them packed (Kronecker substitution): p is kept
as the Python int p(2^B), B = 64, one balanced base-2^B digit per
coefficient, so adding two polynomials is one int addition, multiplying is
one int multiplication, and q - 1 times r is (r << B) - r.  The unknown
P_{v,w} is read off the defining identity

    q^(l(w)-l(v)) P_{v,w}(1/q) = sum over x in [v,w] of R_{v,x} P_{x,w}

by descending induction on the interval: the degree bound keeps the low
and high halves of the left side from colliding, so the top coefficients
of the right side determine P and the rest of the identity is verified
after the fact, as one int comparison.  The right side is accumulated into
one int.  Its digits decode exactly while every true coefficient stays
below 2^(B-1) in absolute value; with n = l(w) - l(v), every R_{v,x} has
coefficient sum at most 3^n (R_{v,w} = q R_{vs,ws} + (q-1) R_{v,ws}), so
each pair is checked against

    (|[v, w]| + 2) 3^n pmax < 2^(B-1),

pmax being the largest |coefficient| of any P stored so far, before its
digits are read; a pair that fails raises ResourceLimit and nothing is
stored.

Only extremal pairs are summed: v <= w with D_L(w) in D_L(v) and D_R(w) in
D_R(v).  Any other pair climbs to one, by

    P_{v,w} = P_{sv,w}  for s in D_L(w) - D_L(v),
    P_{v,w} = P_{vs,w}  for s in D_R(w) - D_R(v)

(Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 5; the lifting
property keeps sv <= w), so the memo, and the re-check, hold extremal pairs
only; F. du Cloux, Experiment. Math. 11 (2002), stores P the same way.  The
end of x's climb depends only on (x, w), so it is kept for one w at a time
across every v.  W-graphs need only mu, and most of it is known without P:
mu(v, w) is 0 for an even length difference, 1 for a difference of 1, and
0 on a pair that is not extremal with a difference of 3 or more
(Kazhdan-Lusztig 1979, (2.3e): sw < w, sv > v and mu(v, w) != 0 force
v = sw; likewise on the right).  An extremal pair has D(w) in D(v) on both
sides, and the edge rule draws an edge of one side's W-graph only between
different descent sets of that side, so each W-graph asks for mu on a far
pair only when D(v) strictly contains D(w) on its side.  The classical
one-step recursion lives in oracle.py as an independent cross-check.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ResourceLimit
from .words import Element, ElementBall, PolygonGroup

Poly = tuple[int, ...]

_B = 64  # bits per packed coefficient
_HALF = 1 << (_B - 1)
_MASK = (1 << _B) - 1


def poly_coeff(a: Poly, i: int) -> int:
    return a[i] if 0 <= i < len(a) else 0


def _pack(a: Poly) -> int:
    """a(2^B)."""
    out = 0
    for c in reversed(a):
        out = (out << _B) + c
    return out


def _unpack(x: int) -> Poly:
    """The coefficients of the packed x, exact while each lies in
    [-2^(B-1), 2^(B-1))."""
    out = []
    while x:
        c = ((x + _HALF) & _MASK) - _HALF  # the balanced lowest digit
        out.append(c)
        x = (x - c) >> _B
    return tuple(out)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _lowest(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


class KLTable:
    """Memoized Bruhat/R/P/mu data over one ball; exact on every pair whose
    longer element lies inside the ball (Bruhat intervals are length-bounded,
    hence complete)."""

    def __init__(self, group: PolygonGroup, ball: ElementBall):
        self.group = group
        self.ball = ball
        self._length = ball.lengths
        # descent sets as bitmasks over the generators
        self._ldesc = [sum(1 << s for s in e.left) for e in ball.elements]
        self._rdesc = [sum(1 << s for s in e.right) for e in ball.elements]
        n = len(ball.elements)
        # _leq[w]: bitset of {x <= w}; _geq[v]: bitset of {x >= v}
        self._leq: list[int] = [1]  # the identity is index 0
        for w in range(1, n):
            s = _lowest(self._rdesc[w])
            ws = ball.right_mult[w][s]
            mask = self._leq[ws]
            for x in _bits(mask):  # reaches w = (ws)s
                mask |= 1 << ball.right_mult[x][s]
            self._leq.append(mask)
        above: list[list[int]] = [[] for _ in range(n)]
        for w in range(n):
            for x in _bits(self._leq[w]):
                above[x].append(w)
        self._geq = [sum(1 << w for w in members) for members in above]
        # bitsets of {x : s in D_L(x)} and {x : s in D_R(x)} by s, and of
        # the elements of each length
        self._has_ldesc = [0] * group.rank
        self._has_rdesc = [0] * group.rank
        band = [0] * (ball.radius + 1)
        for x, e in enumerate(ball.elements):
            for s in e.left:
                self._has_ldesc[s] |= 1 << x
            for s in e.right:
                self._has_rdesc[s] |= 1 << x
            band[e.length] |= 1 << x
        self._band = band
        # _mu_far[l]: bitset of {x : l(x) <= l - 3, l - l(x) odd}
        self._mu_far = [0] * len(band)
        for length in range(3, len(band)):
            self._mu_far[length] = self._mu_far[length - 2] | band[length - 3]
        # packed R and P by pair; P on extremal pairs only
        self._R: dict[tuple[int, int], int] = {}
        self._P: dict[tuple[int, int], int] = {}
        self._pmax = 1  # the largest |coefficient| of a stored P
        # _top[x]: the extremal end of x's climb toward _top_w
        self._top_w = -1
        self._top: dict[int, int] = {}

    def idx(self, e: Element) -> int:
        return self.ball.index[e.word]

    def _rmult(self, i: int, s: int) -> int:
        j = self.ball.right_mult[i][s]
        assert j is not None
        return j

    # --- Bruhat order (ideals) ---------------------------------------------

    def leq_idx(self, v: int, w: int) -> bool:
        return bool(self._leq[w] >> v & 1)

    def lower(self, w: int) -> list[int]:
        """Indices x <= w, ascending."""
        return _bits(self._leq[w])

    def upper(self, v: int) -> list[int]:
        """Indices x >= v inside the ball, ascending."""
        return _bits(self._geq[v])

    def interval(self, v: int, w: int) -> list[int]:
        """Indices of the Bruhat interval [v, w], ascending."""
        return _bits(self._leq[w] & self._geq[v])

    def _extremal(self, w: int) -> int:
        """Bitset of the x <= w with D_L(w) in D_L(x) and D_R(w) in D_R(x)."""
        mask = self._leq[w]
        for s in _bits(self._ldesc[w]):
            mask &= self._has_ldesc[s]
        for s in _bits(self._rdesc[w]):
            mask &= self._has_rdesc[s]
        return mask

    def _climb(self, v: int, w: int) -> int:
        """The extremal v' in [v, w] with P_{v,w} = P_{v',w}: step to sv for
        the least s in D_L(w) - D_L(v), else to vs for the least s in
        D_R(w) - D_R(v), a longer element of [v, w] with the same P, until
        neither exists."""
        ldw, rdw = self._ldesc[w], self._rdesc[w]
        while True:
            if d := ldw & ~self._ldesc[v]:
                v = self.ball.left_mult[v][_lowest(d)]
            elif d := rdw & ~self._rdesc[v]:
                v = self.ball.right_mult[v][_lowest(d)]
            else:
                return v

    # --- R polynomials -----------------------------------------------------

    def r_idx(self, v: int, w: int) -> Poly:
        if 3 ** (self._length[w] - self._length[v]) >= _HALF:
            raise ResourceLimit(
                f"KL polynomials: R on pair {(v, w)} may carry a coefficient "
                f"past the packed digit's 2^{_B - 1}")
        return _unpack(self._r(v, w))

    def _r(self, v: int, w: int) -> int:
        """Packed R_{v,w}."""
        if v == w:
            return 1
        if not self._leq[w] >> v & 1:
            return 0
        key = (v, w)
        out = self._R.get(key)
        if out is None:
            s = _lowest(self._rdesc[w])
            ws = self._rmult(w, s)
            if self._rdesc[v] >> s & 1:
                out = self._r(self._rmult(v, s), ws)
            else:
                # q R_{vs,ws} + (q - 1) R_{v,ws}
                r = self._r(v, ws)
                out = ((self._r(self._rmult(v, s), ws) + r) << _B) - r
            self._R[key] = out
        return out

    # --- Kazhdan-Lusztig polynomials ----------------------------------------

    def p_idx(self, v: int, w: int) -> Poly:
        return _unpack(self._p(v, w))

    def _p(self, v: int, w: int) -> int:
        """Packed P_{v,w}."""
        if not self._leq[w] >> v & 1:
            return 0
        v = self._climb(v, w)
        if v == w:
            return 1
        key = (v, w)
        out = self._P.get(key)
        if out is None:
            if self._top_w != w:
                self._top_w, self._top = w, {}
            top, R, P = self._top, self._R, self._P
            interval = self._leq[w] & self._geq[v]
            acc = 0
            # t is the extremal end of x's climb.  Memo hits first, since R
            # and P on a comparable pair are never zero.
            for x in _bits(interval ^ 1 << v):
                t = top.get(x)
                if t is None:
                    t = top[x] = self._climb(x, w)
                r = R.get((v, x)) or self._r(v, x)
                if t == w:
                    acc += r
                else:
                    p = P.get((t, w)) or self._p(t, w)
                    acc += r if p == 1 else r * p
            n = self._length[w] - self._length[v]
            if (interval.bit_count() + 2) * 3 ** n * self._pmax >= _HALF:
                raise ResourceLimit(
                    f"KL polynomials: P on pair {key} may carry a coefficient "
                    f"past the packed digit's 2^{_B - 1}")
            rhs = _unpack(acc)
            coeffs = [poly_coeff(rhs, n - i) for i in range((n - 1) // 2 + 1)]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            out = _pack(coeffs)
            # the identity must now hold on the nose
            if _pack(coeffs[::-1]) << _B * (n + 1 - len(coeffs)) != out + acc:
                raise ArithmeticError(
                    f"defining identity failed for pair {key}"
                )
            self._pmax = max([self._pmax, *map(abs, coeffs)])
            self._P[key] = out
        return out

    def mu_idx(self, v: int, w: int) -> int:
        n = self._length[w] - self._length[v]
        if n <= 0 or n % 2 == 0:
            return 0
        return poly_coeff(self.p_idx(v, w), (n - 1) // 2)

    def mu_below(self, w: int, side: str | None = None) -> list[int]:
        """Indices x < w with mu(x, w) != 0, ascending, except that with a
        side, far x whose descent set on that side equals w's are left out:
        they give no edge in that side's W-graph.  Covering pairs have
        mu = 1, so P is computed only on the extremal pairs with an odd
        length difference of 3 or more (see the module docstring)."""
        length = self._length[w]
        if length == 0:
            return []
        far = self._extremal(w) & self._mu_far[length]
        if side is not None:
            desc, has = ((self._ldesc, self._has_ldesc) if side == "left"
                         else (self._rdesc, self._has_rdesc))
            # far x already has D(w) in D(x); keep those with one more s
            strict = 0
            for s in range(self.group.rank):
                if not desc[w] >> s & 1:
                    strict |= has[s]
            far &= strict
        return ([x for x in _bits(far) if self.mu_idx(x, w)]
                + _bits(self._leq[w] & self._band[length - 1]))

    def fill(self) -> None:
        """Compute P on every extremal pair in the ball (useful before
        serializing); every other pair climbs to one of these."""
        for w in range(len(self._leq)):
            # longest v first, so every P_{x,w} that P_{v,w} sums is stored
            for v in reversed(_bits(self._extremal(w))):
                self._p(v, w)

    def records(self) -> Iterator[tuple[int, int, Poly, Poly, int]]:
        """(v, w, R_{v,w}, P_{v,w}, mu(v, w)) for every Bruhat pair of the
        ball, v ascending, then w ascending over upper(v).  A table holds
        few distinct polynomials, so each distinct packed value is decoded
        once and yielded as the same tuple.  Every length difference in
        the ball is at most its radius, so one check of 3^radius stands for
        r_idx's check on every pair."""
        self.fill()
        radius = self.ball.radius
        if 3 ** radius >= _HALF:
            raise ResourceLimit(
                f"KL polynomials: R on ball({radius}) may carry a coefficient "
                f"past the packed digit's 2^{_B - 1}")
        decode = functools.cache(_unpack)
        lengths = self._length
        for v, above in enumerate(self._geq):
            for w in _bits(above):
                p = decode(self._p(v, w))
                n = lengths[w] - lengths[v]
                yield (v, w, decode(self._r(v, w)), p,
                       poly_coeff(p, (n - 1) // 2) if n % 2 else 0)


# --- W-graphs and cells -------------------------------------------------------


@dataclass
class WGraph:
    side: str
    n: int
    edges: dict[int, list[int]]


def w_graph(ball: ElementBall, side: str, table: KLTable) -> WGraph:
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    edges: dict[int, list[int]] = {i: [] for i in range(len(ball.elements))}
    desc = [e.left if side == "left" else e.right for e in ball.elements]
    for b in range(len(ball.elements)):
        for a in table.mu_below(b, side):
            if not desc[a] <= desc[b]:
                edges[a].append(b)
            if not desc[b] <= desc[a]:
                edges[b].append(a)
    return WGraph(side=side, n=len(ball.elements), edges=edges)


def strongly_connected_components(n: int, edges: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components listed with sorted members, sorted by
    smallest member."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(edges.get(v, ()))):
                w = edges[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sorted(comps, key=lambda c: c[0])


def cells(graph: WGraph) -> list[list[int]]:
    return strongly_connected_components(graph.n, graph.edges)


def two_sided_cells(left: list[list[int]], right: list[list[int]]) -> list[list[int]]:
    """Join of the two partitions by union-find."""
    n = sum(len(c) for c in left)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def unite(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for part in (left, right):
        for comp in part:
            for x in comp[1:]:
                unite(comp[0], x)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted((sorted(g) for g in groups.values()), key=lambda c: c[0])
