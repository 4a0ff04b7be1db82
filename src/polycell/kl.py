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
The classical one-step recursion lives in oracle.py as an independent
cross-check.
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


class KLTable:
    """Memoized Bruhat/R/P/mu data over one ball; exact on every pair whose
    longer element lies inside the ball (Bruhat intervals are length-bounded,
    hence complete)."""

    def __init__(self, group: PolygonGroup, ball: ElementBall):
        self.group = group
        self.ball = ball
        self._length = ball.lengths
        self._rdesc = [e.right for e in ball.elements]
        n = len(ball.elements)
        # _leq[w]: bitset of {x <= w}; _geq[v]: bitset of {x >= v}
        self._leq: list[int] = [1]  # the identity is index 0
        for w in range(1, n):
            s = min(self._rdesc[w])
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

    def bruhat_leq(self, v: Element, w: Element) -> bool:
        return self.leq_idx(self.idx(v), self.idx(w))

    def lower(self, w: int) -> list[int]:
        """Indices x <= w, ascending."""
        return _bits(self._leq[w])

    def upper(self, v: int) -> list[int]:
        """Indices x >= v inside the ball, ascending."""
        return _bits(self._geq[v])

    def interval(self, v: int, w: int) -> list[int]:
        """Indices of the Bruhat interval [v, w], ascending."""
        return _bits(self._leq[w] & self._geq[v])

    # --- R polynomials -----------------------------------------------------

    def r_idx(self, v: int, w: int) -> Poly:
        if v == w:
            return ONE
        if not self._leq[w] >> v & 1:
            return ZERO
        key = (v, w)
        out = self._R.get(key)
        if out is None:
            s = min(self._rdesc[w])
            ws = self._rmult(w, s)
            if s in self._rdesc[v]:
                out = self.r_idx(self._rmult(v, s), ws)
            else:
                vs = self._rmult(v, s)
                out = poly_add(
                    poly_shift(self.r_idx(vs, ws), 1),
                    poly_mul(Q_MINUS_1, self.r_idx(v, ws)),
                )
            self._R[key] = out
        return out

    def r_poly(self, v: Element, w: Element) -> Poly:
        return self.r_idx(self.idx(v), self.idx(w))

    # --- Kazhdan-Lusztig polynomials ----------------------------------------

    def p_idx(self, v: int, w: int) -> Poly:
        if v == w:
            return ONE
        if not self._leq[w] >> v & 1:
            return ZERO
        key = (v, w)
        out = self._P.get(key)
        if out is None:
            n = self._length[w] - self._length[v]
            acc = [0] * (n + 1)
            # memo hits first: R and P on a comparable pair are never zero
            R, P = self._R, self._P
            for x in _bits((self._leq[w] & self._geq[v]) ^ 1 << v):
                _poly_mul_into(acc, R.get((v, x)) or self.r_idx(v, x),
                               P.get((x, w)) or self.p_idx(x, w))
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

    def kl_poly(self, v: Element, w: Element) -> Poly:
        return self.p_idx(self.idx(v), self.idx(w))

    def mu_idx(self, v: int, w: int) -> int:
        n = self._length[w] - self._length[v]
        if n <= 0 or n % 2 == 0:
            return 0
        return poly_coeff(self.p_idx(v, w), (n - 1) // 2)

    def mu(self, v: Element, w: Element) -> int:
        return self.mu_idx(self.idx(v), self.idx(w))

    def fill(self) -> None:
        """Compute every pair in the ball (useful before serializing)."""
        for w in range(len(self._leq)):
            # longest v first, so every P_{x,w} that P_{v,w} sums is stored
            for v in reversed(self.lower(w)):
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
        for a in table.lower(b):
            if table.mu_idx(a, b) == 0:
                continue
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
