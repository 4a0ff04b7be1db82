"""Bruhat order, R- and Kazhdan-Lusztig polynomials, W-graphs and cells.

Ball indices run in (length, ShortLex) order.  Bruhat order is stored as
ideals, one Python-int bitset over ball indices per element: the lower
ideal of w is built once, in index order, by the lifting property

    down(w) = down(ws) | {x s : x in down(ws)}      for s = min D_R(w),

and the upper ideals are its transpose.  A comparison is one bit test, an
interval [v, w] is the set bits of down(w) & up(v), and lengths come from a
flat list.

Polynomials in q are dense integer coefficient tuples from degree 0.  The
unknown P_{v,w} is read off the defining identity

    q^(l(w)-l(v)) P_{v,w}(1/q) = sum over x in [v,w] of R_{v,x} P_{x,w}

by descending induction on the interval: the degree bound keeps the low
and high halves of the left side from colliding, so the top coefficients
of the right side determine P and the rest of the identity is verified
after the fact.  The right side is accumulated into one coefficient list.

Only extremal pairs are summed: v <= w with D_L(w) in D_L(v) and D_R(w) in
D_R(v).  Any other pair climbs to one, by

    P_{v,w} = P_{sv,w}  for s in D_L(w) - D_L(v),
    P_{v,w} = P_{vs,w}  for s in D_R(w) - D_R(v)

(Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 5; the lifting
property keeps sv <= w), so the memo, and the re-check, hold extremal pairs
only; F. du Cloux, Experiment. Math. 11 (2002), stores P the same way.
W-graphs need only mu, and most of it is known without P: mu(v, w) is 0 for
an even length difference, 1 for a difference of 1, and 0 on a pair that
is not extremal with a difference of 3 or more (Kazhdan-Lusztig 1979,
(2.3e): sw < w, sv > v and mu(v, w) != 0 force v = sw; likewise on the
right).  The classical one-step recursion lives in oracle.py as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import _poly_mul, _poly_mul_into
from .words import Element, ElementBall, PolygonGroup

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)
Q_MINUS_1: Poly = (-1, 1)


def poly_add(a: Poly, b: Poly) -> Poly:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, tuple(-c for c in b))


def poly_mul(a: Poly, b: Poly) -> Poly:
    return tuple(_poly_mul(a, b))


def poly_shift(a: Poly, n: int) -> Poly:
    return (0,) * n + a if a else ZERO


def poly_coeff(a: Poly, i: int) -> int:
    return a[i] if 0 <= i < len(a) else 0


def poly_reverse(a: Poly, n: int) -> Poly:
    """q^n * a(1/q) for deg(a) <= n."""
    out = [0] * (n + 1)
    for i, c in enumerate(a):
        out[n - i] = c
    while out and out[-1] == 0:
        out.pop()
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
        self._R: dict[tuple[int, int], Poly] = {}
        self._P: dict[tuple[int, int], Poly] = {}

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

    def _step(self, v: int, w: int) -> int:
        """sv for the least s in D_L(w) - D_L(v), else vs for the least s in
        D_R(w) - D_R(v): a longer element of [v, w] with the same P; v itself
        when (v, w) is extremal."""
        d = self._ldesc[w] & ~self._ldesc[v]
        if d:
            return self.ball.left_mult[v][_lowest(d)]
        d = self._rdesc[w] & ~self._rdesc[v]
        if d:
            return self.ball.right_mult[v][_lowest(d)]
        return v

    def _climb(self, v: int, w: int) -> int:
        """The extremal v' in [v, w] with P_{v,w} = P_{v',w}."""
        while (u := self._step(v, w)) != v:
            v = u
        return v

    # --- R polynomials -----------------------------------------------------

    def r_idx(self, v: int, w: int) -> Poly:
        if v == w:
            return ONE
        if not self._leq[w] >> v & 1:
            return ZERO
        key = (v, w)
        out = self._R.get(key)
        if out is None:
            s = _lowest(self._rdesc[w])
            ws = self._rmult(w, s)
            if self._rdesc[v] >> s & 1:
                out = self.r_idx(self._rmult(v, s), ws)
            else:
                vs = self._rmult(v, s)
                out = poly_add(
                    poly_shift(self.r_idx(vs, ws), 1),
                    poly_mul(Q_MINUS_1, self.r_idx(v, ws)),
                )
            self._R[key] = out
        return out

    # --- Kazhdan-Lusztig polynomials ----------------------------------------

    def p_idx(self, v: int, w: int) -> Poly:
        if not self._leq[w] >> v & 1:
            return ZERO
        v = self._climb(v, w)
        if v == w:
            return ONE
        key = (v, w)
        out = self._P.get(key)
        if out is None:
            n = self._length[w] - self._length[v]
            acc = [0] * (n + 1)
            # longest x first, so one climb step from x lands on an x seen
            # already: top[x] is the extremal end of x's climb.  Memo hits
            # first, since R and P on a comparable pair are never zero.
            R, P = self._R, self._P
            top: dict[int, int] = {}
            for x in reversed(_bits((self._leq[w] & self._geq[v]) ^ 1 << v)):
                u = self._step(x, w)
                t = top[x] = x if u == x else top[u]
                r = R.get((v, x)) or self.r_idx(v, x)
                p = ONE if t == w else P.get((t, w)) or self.p_idx(t, w)
                if p == ONE:
                    for i, c in enumerate(r):
                        acc[i] += c
                else:
                    _poly_mul_into(acc, r, p)
            while acc and acc[-1] == 0:
                acc.pop()
            rhs = tuple(acc)
            coeffs = [poly_coeff(rhs, n - i) for i in range((n - 1) // 2 + 1)]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            out = tuple(coeffs)
            # the identity must now hold on the nose
            lhs = poly_reverse(out, n)
            if poly_sub(lhs, poly_add(rhs, out)) != ZERO:
                raise ArithmeticError(
                    f"defining identity failed for pair {key}"
                )
            self._P[key] = out
        return out

    def mu_idx(self, v: int, w: int) -> int:
        n = self._length[w] - self._length[v]
        if n <= 0 or n % 2 == 0:
            return 0
        return poly_coeff(self.p_idx(v, w), (n - 1) // 2)

    def mu_below(self, w: int) -> list[int]:
        """Indices x < w with mu(x, w) != 0, ascending.  Covering pairs have
        mu = 1, so P is computed only on the extremal pairs with an odd
        length difference of 3 or more (see the module docstring)."""
        length = self._length[w]
        if length == 0:
            return []
        far = [x for x in _bits(self._extremal(w) & self._mu_far[length])
               if self.mu_idx(x, w)]
        return far + _bits(self._leq[w] & self._band[length - 1])

    def fill(self) -> None:
        """Compute P on every extremal pair in the ball (useful before
        serializing); every other pair climbs to one of these."""
        for w in range(len(self._leq)):
            # longest v first, so every P_{x,w} that P_{v,w} sums is stored
            for v in reversed(_bits(self._extremal(w))):
                self.p_idx(v, w)


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
        for a in table.mu_below(b):
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
