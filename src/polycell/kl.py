"""Bruhat order, R- and Kazhdan-Lusztig polynomials, W-graphs and cells.

Ball indices run in (length, ShortLex) order.  Bruhat order is stored as
ideals, one Python-int bitset over ball indices per element, built from
coatom lists as du Cloux's Coxeter program builds it (Experiment. Math. 11,
2002).  For s = min D_R(w) the coatoms of w are ws and the ys for each
coatom y of ws with s not in D_R(y) (Bjorner-Brenti, Combinatorics of
Coxeter Groups, Prop. 2.2.7, the lifting property), and Bruhat order is
graded, so the lower ideal of w is w joined with the lower ideals of its
coatoms, in index order, and the upper ideal of v is v joined with the
upper ideals of the elements covering v, in reverse index order: a few
int ORs per element.  A comparison is one bit test, an interval [v, w] is
the set bits of down(w) & up(v), and lengths come from a flat list.

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
stored.  On most pairs P = 1, and the comparison alone, of the sum with
q^n - 1, finds it.

Only extremal pairs are summed: v <= w with D_L(w) in D_L(v) and D_R(w) in
D_R(v).  Any other pair climbs to one, by

    P_{v,w} = P_{sv,w}  for s in D_L(w) - D_L(v),
    P_{v,w} = P_{vs,w}  for s in D_R(w) - D_R(v)

(Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 5; the lifting
property keeps sv <= w), so the memo, and the re-check, hold extremal pairs
only; F. du Cloux, Experiment. Math. 11 (2002), stores P the same way.

One solver, `_column`, climbs and solves P, a column P(., w) at a time,
as du Cloux does, on the part of the column that its caller needs: the
x <= w of an upper set.  In one pass over those x, longest first, it
sets the end of every climb (that of x's first step, sx or xs, or x itself
if extremal) and, at each extremal x, solves P_{x,w} through `_solve`,
which checks the bound, reads P off the identity and re-checks it; every
term of each sum is then known.  The sweep and the W-graph pass two
sets, and `column` the sweep's:

- the sweep (`fill`, `packed_rows`, `records`, the `kl` command) runs
  over w in index order and passes the whole lower ideal, after it builds
  R_{x,w} for every x <= w from the column of ws by

      R_{x,w} = R_{xs,ws}                      if s in D_R(x),
      R_{x,w} = q R_{xs,ws} + (q - 1) R_{x,ws}  otherwise,   s = min D_R(w),

  and keeps P on every pair by row.  It leaves each R row keyed in
  ascending w, as the P row is, putting back in order the rows that the
  lazy route began, so one walk over the two rows side by side reads the
  store in file order;
- the right W-graph (`mu_lists`) passes the union of the upper ideals
  of the far x whose mu it needs, so it solves only the pairs behind those
  mu, and R by row, through `_r`, only where those sums ask for it (full R
  columns would hold 3.4 times as many entries on w2224's ball(10));
- `column(w)`, which `verify.kl_oracle` reads, passes the whole lower
  ideal of w, as the sweep does, with R by row through `_r`.

W-graphs need only mu, and most of it is known without P:
mu(v, w) is 0 for an even length difference, 1 for a difference of 1, and
0 on a pair that is not extremal with a difference of 3 or more
(Kazhdan-Lusztig 1979, (2.3e): sw < w, sv > v and mu(v, w) != 0 force
v = sw; likewise on the right).  An extremal pair has D_R(w) in D_R(v), and
the right W-graph has edges only between different right descent sets, so
it asks for mu on a far pair only when D_R(v) strictly contains D_R(w).
As P_{x,w} = P_{x^-1,w^-1} and D_L(w) = D_R(w^-1), the column of w also
gives the mu of w^-1, every vertex inverted: the right W-graph solves one
column per inverse pair, that of its earlier member, on the far x that
either member needs, and the left W-graph is the right one mirrored.  The
sweep does not use the identity, so it re-checks every extremal pair.
oracle.py holds the classical one-step recursion as an independent
cross-check.

Cells are strongly connected components (Kazhdan-Lusztig 1979, section 1):
left cells of the left W-graph, right cells of the right one, and
two-sided cells of both graphs' edges together, the SCCs under <=_LR, the
preorder generated by <=_L and <=_R.  Every edge over a ball is exact, so
each cell found there lies inside one cell of the group.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

from .errors import ResourceLimit, VerificationDisagreement
from .words import ElementBall, PolygonGroup

Poly = tuple[int, ...]

# most elements of a ball a KL table is built on.  Its Bruhat ideals alone
# take about 3n^2/16 bytes for n elements: the lower ideals' bitsets
# average n/2 bits (n^2/16 bytes in all) and the upper ones' n bits
# (n^2/8), so about 1.9 GB at the cap, 93 MB on w2224's ball(13) (22,253
# elements) and 560 MB on the (2,2,2,2,2) pentagon's ball(10) (54,726)
KL_CAP = 100_000

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


def unpack(x: int) -> Poly:
    """The coefficients of the packed x, exact while each lies in
    [-2^(B-1), 2^(B-1))."""
    out = []
    while x:
        c = ((x + _HALF) & _MASK) - _HALF  # the balanced lowest digit
        out.append(c)
        x = (x - c) >> _B
    return tuple(out)


def _check_digit(majorant: int, what: str, *args) -> None:
    """Raise ResourceLimit unless majorant, a bound on every coefficient
    about to be read, lies below 2^(B-1); `what % args` names them."""
    if majorant >= _HALF:
        raise ResourceLimit(f"{what % args} may carry a coefficient past the "
                            f"packed digit's 2^{_B - 1}")


def _check_radius(radius: int) -> None:
    """Every length difference in ball(radius) is at most the radius, so
    one check of 3^radius stands for the check of 3^n, n the length
    difference, on every pair."""
    _check_digit(3 ** radius, "KL polynomials: R on ball(%d)", radius)


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
        if len(ball) > KL_CAP:
            raise ResourceLimit(f"KL table: ball({ball.radius}) has {len(ball)} "
                                f"elements, past cap {KL_CAP}")
        self.group = group
        self.ball = ball
        self._length = ball.lengths
        # descent sets as bitmasks over the generators
        of_state = [sum(1 << s for s in d) for d in ball.descents].__getitem__
        self._ldesc = list(map(of_state, ball.lstate))
        self._rdesc = list(map(of_state, ball.rstate))
        n = len(ball)
        rmult = ball.right_mult
        # _leq[w]: bitset of {x <= w}; _geq[v]: bitset of {x >= v}; _inv[w]:
        # the index of w^-1 = s (ws)^-1
        self._leq: list[int] = [1]  # the identity is index 0
        self._inv = [0] * n
        coatoms: list[list[int]] = [[]]
        covers: list[list[int]] = [[] for _ in range(n)]
        for w in range(1, n):
            s = _lowest(self._rdesc[w])
            ws = rmult[w][s]
            down = [ws] + [rmult[y][s] for y in coatoms[ws]
                           if not self._rdesc[y] >> s & 1]
            mask = 1 << w
            for y in down:
                mask |= self._leq[y]
                covers[y].append(w)
            coatoms.append(down)
            self._leq.append(mask)
            self._inv[w] = ball.left_mult[self._inv[ws]][s]
        self._geq = [0] * n
        for v in range(n - 1, -1, -1):
            mask = 1 << v
            for w in covers[v]:
                mask |= self._geq[w]
            self._geq[v] = mask
        # bitsets of {x : s in D_L(x)} and {x : s in D_R(x)} by s, and of
        # the elements of each length
        self._has_ldesc = [0] * group.rank
        self._has_rdesc = [0] * group.rank
        band = [0] * (ball.radius + 1)
        for x, length in enumerate(ball.lengths):
            for s in ball.descents[ball.lstate[x]]:
                self._has_ldesc[s] |= 1 << x
            for s in ball.descents[ball.rstate[x]]:
                self._has_rdesc[s] |= 1 << x
            band[length] |= 1 << x
        self._band = band
        # _mu_far[l]: bitset of {x : l(x) <= l - 3, l - l(x) odd}
        self._mu_far = [0] * len(band)
        for length in range(3, len(band)):
            self._mu_far[length] = self._mu_far[length - 2] | band[length - 3]
        # packed R by row, _R[v][w] = R_{v,w}, from the diagonal up; packed
        # P on extremal pairs, _P[v, w]
        self._R: list[dict[int, int]] = [{v: 1} for v in range(n)]
        self._P: dict[tuple[int, int], int] = {}
        self._pmax = 1  # the largest |coefficient| of a stored P
        # by x, for the last column solved: the extremal end of x's climb,
        # and P_{x,w} at an extremal x
        self._top = [0] * n
        self._pcol = [0] * n
        # after the sweep, _p_rows[v]: packed P_{v,w} for w >= v, ascending
        self._p_rows: list[list[int]] | None = None

    # --- Bruhat order (ideals) ---------------------------------------------

    def lower(self, w: int) -> list[int]:
        """Indices x <= w, ascending."""
        return _bits(self._leq[w])

    def _extremal(self, w: int) -> int:
        """Bitset of the x <= w with D_L(w) in D_L(x) and D_R(w) in D_R(x)."""
        mask = self._leq[w]
        for s in _bits(self._ldesc[w]):
            mask &= self._has_ldesc[s]
        for s in _bits(self._rdesc[w]):
            mask &= self._has_rdesc[s]
        return mask

    # --- R polynomials -----------------------------------------------------

    def _r(self, v: int, w: int) -> int:
        """Packed R_{v,w}."""
        if not self._leq[w] >> v & 1:
            return 0
        row = self._R[v]
        out = row.get(w)
        if out is None:
            s = _lowest(self._rdesc[w])
            rmult = self.ball.right_mult
            ws, vs = rmult[w][s], rmult[v][s]
            if self._rdesc[v] >> s & 1:
                out = self._r(vs, ws)
            else:
                # q R_{vs,ws} + (q - 1) R_{v,ws}
                r = self._r(v, ws)
                out = ((self._r(vs, ws) + r) << _B) - r
            row[w] = out
        return out

    # --- Kazhdan-Lusztig polynomials ----------------------------------------

    def column(self, w: int) -> dict[int, Poly]:
        """P_{y,w} for every y <= w, by y ascending."""
        lower = self.lower(w)
        self._column(w, lower)
        top, pcol = self._top, self._pcol
        return {y: unpack(pcol[top[y]]) for y in lower}

    def _column(self, w: int, need: list[int]) -> None:
        """Solve the column P(., w) on need, the elements <= w of an upper
        set (w among them), ascending: in one pass, longest x first, set the
        end _top[x] of x's climb (that of x's first step, sx or xs, a longer
        element of need, or x itself if extremal), and at an extremal x
        solve P_{x,w} into _pcol[x]; every term of its sum is then known."""
        R, P, geq = self._R, self._P, self._geq
        ldesc, rdesc = self._ldesc, self._rdesc
        lmult, rmult = self.ball.left_mult, self.ball.right_mult
        top, pcol = self._top, self._pcol
        down = self._leq[w]
        ldw, rdw = ldesc[w], rdesc[w]
        top[w], pcol[w] = w, 1
        for x in need[-2::-1]:
            if d := ldw & ~ldesc[x]:
                top[x] = top[lmult[x][(d & -d).bit_length() - 1]]
            elif d := rdw & ~rdesc[x]:
                top[x] = top[rmult[x][(d & -d).bit_length() - 1]]
            else:
                top[x] = x
                out = P.get((x, w))
                if out is None:
                    interval = down & geq[x]
                    rx = R[x]
                    acc = 0
                    rest = interval ^ 1 << x
                    while rest:  # y in (x, w], lowest first
                        y = rest & -rest
                        rest ^= y
                        y = y.bit_length() - 1
                        p = pcol[top[y]]
                        # memo hits first: R on a comparable pair is never zero
                        r = rx.get(y) or self._r(x, y)
                        acc += r if p == 1 else r * p
                    out = self._solve(x, w, interval, acc)
                pcol[x] = out

    def _solve(self, v: int, w: int, interval: int, acc: int) -> int:
        """Store and return packed P_{v,w} on an extremal pair, given the
        bitset of [v, w] and acc, the packed sum over x in (v, w] of
        R_{v,x} P_{x,w}: check the coefficient bound, read P off the top
        coefficients of acc, and re-check the whole identity."""
        n = self._length[w] - self._length[v]
        _check_digit((interval.bit_count() + 2) * 3 ** n * self._pmax,
                     "KL polynomials: P on pair %s", (v, w))
        if acc == (1 << _B * n) - 1:  # the identity for P = 1, most pairs
            out = 1
        else:
            # P_i is the digit n - i of acc for i < m = (n + 1) // 2: the
            # top m digits, rounded off the rest, reversed
            m = (n + 1) // 2
            low = _B * (n + 1 - m)
            coeffs = list(unpack((acc + (1 << low - 1)) >> low)[m - 1::-1])
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            out = _pack(coeffs)
            # the identity must now hold on the nose
            if _pack(coeffs[::-1]) << _B * (n + 1 - len(coeffs)) != out + acc:
                raise VerificationDisagreement(
                    f"defining identity failed for pair {(v, w)}")
            self._pmax = max([self._pmax, *map(abs, coeffs)])
        self._P[v, w] = out
        return out

    def mu_lists(self, w: int) -> tuple[list[int], list[int]]:
        """The x < w with mu(x, w) != 0 and the x < w^-1 with
        mu(x, w^-1) != 0, each ascending, but for the far x whose right
        descent set is that of w (of w^-1), which draw no edge of the right
        W-graph.  Covering pairs have mu = 1, so P is solved only on column
        w, for the far x, extremal with an odd length difference of 3 or
        more (see the module docstring), and on the pairs their sums need;
        the list of w^-1 is read off by inversion."""
        length = self._length[w]
        if length == 0:
            return [], []
        ldesc, rdesc, inv = self._ldesc, self._rdesc, self._inv
        lw, rw, pair = ldesc[w], rdesc[w], inv[w] != w
        # a far x is extremal, D_R(w) in D_R(x): keep those with one more s
        # on the right, or, for the mirror, on the left
        far_x = [x for x in _bits(self._extremal(w) & self._mu_far[length])
                 if rdesc[x] != rw or pair and ldesc[x] != lw]
        if far_x:
            above = 0
            for x in far_x:
                above |= self._geq[x]
            self._column(w, _bits(self._leq[w] & above))
        pcol, lengths = self._pcol, self._length
        linked = [x for x in far_x
                  if poly_coeff(unpack(pcol[x]), (length - lengths[x] - 1) // 2)]
        covered = _bits(self._leq[w] & self._band[length - 1])
        mine = [x for x in linked if rdesc[x] != rw] + covered
        if not pair:
            return mine, mine
        return mine, sorted([inv[x] for x in linked if ldesc[x] != lw]
                            + [inv[x] for x in covered])

    def fill(self) -> None:
        """The sweep (see the module docstring): R on every pair and P on
        every extremal pair of the ball into the memo, and P on every pair
        by row for `packed_rows`.  Entries stored before are kept as they
        are, and every R row is left keyed in ascending w, the order of its
        P row; a second call does nothing."""
        if self._p_rows is not None:
            return
        R, rdesc, rmult = self._R, self._rdesc, self.ball.right_mult
        # rows the lazy route began, whose keys the sweep appends to
        warm = [x for x, row in enumerate(R) if len(row) > 1]
        top, pcol = self._top, self._pcol
        p_rows: list[list[int]] = [[] for _ in R]
        for w, down in enumerate(self._leq):
            # R_{x,w} from the column of ws, s = min D_R(w)
            s = _lowest(rdesc[w])  # -1 at the identity, whose R is its diagonal
            ws = rmult[w][s]
            lower = _bits(down)
            for x in lower:
                row = R[x]
                if w in row:
                    continue
                if rdesc[x] >> s & 1:
                    row[w] = R[rmult[x][s]][ws]
                else:
                    # q R_{xs,ws} + (q - 1) R_{x,ws}; x <= ws
                    r = row[ws]
                    row[w] = ((R[rmult[x][s]].get(ws, 0) + r) << _B) - r
            self._column(w, lower)
            for x in lower:
                p_rows[x].append(pcol[top[x]])
        for x in warm:
            R[x] = dict(sorted(R[x].items()))
        self._p_rows = p_rows

    def packed_rows(self) -> Iterator[tuple[dict[int, int], list[int]]]:
        """The sweep's store in file order: for each v ascending, the row
        {w: packed R_{v,w}} over the w >= v, keyed in ascending w, and the
        packed P_{v,w} in the same order; `unpack` decodes both.  The R
        bound of the radius (`_check_radius`) is checked before any work."""
        _check_radius(self.ball.radius)
        self.fill()
        return zip(self._R, self._p_rows)

    def records(self) -> Iterator[tuple[int, int, Poly, Poly, int]]:
        """(v, w, R_{v,w}, P_{v,w}, mu(v, w)) for every Bruhat pair of the
        ball, in the order of `packed_rows`.  A table holds few distinct
        polynomials, so each distinct packed value is decoded once and
        yielded as the same tuple."""
        decode = functools.cache(unpack)
        lengths = self._length
        for v, (row, p_row) in enumerate(self.packed_rows()):
            length = lengths[v]
            for (w, r), p in zip(row.items(), p_row):
                p = decode(p)
                n = lengths[w] - length
                yield (v, w, decode(r), p,
                       poly_coeff(p, (n - 1) // 2) if n % 2 else 0)


# --- W-graphs and cells -------------------------------------------------------


class WGraph:
    __slots__ = ("edges",)

    def __init__(self, edges: dict[int, list[int]]):
        self.edges = edges


def w_graph(table: KLTable) -> WGraph:
    """The right W-graph: edges a -> b between mu-linked elements with
    D_R(a) not inside D_R(b).  b is walked in ascending order; where
    b < b^-1, `mu_lists(b)` also gives the mu list of b^-1, held until the
    walk reaches it."""
    desc, inv = table._rdesc, table._inv
    edges: dict[int, list[int]] = {i: [] for i in range(len(desc))}
    held: dict[int, list[int]] = {}
    for b in range(len(desc)):
        mu = held.pop(b, None)
        if mu is None:
            mu, mirror = table.mu_lists(b)
            if inv[b] != b:
                held[inv[b]] = mirror
        for a in mu:
            if desc[a] & ~desc[b]:
                edges[a].append(b)
            if desc[b] & ~desc[a]:
                edges[b].append(a)
    return WGraph(edges=edges)


def strongly_connected_components(n: int, edges: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan over vertices 0..n-1, each a key of edges; components
    listed with sorted members, sorted by smallest member."""
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
            out = edges[v]
            for i in range(pi, len(out)):
                w = out[i]
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


def empirical_cells(table: KLTable) -> tuple[list[list[int]], list[list[int]],
                                             list[list[int]]]:
    """(left, right, two-sided) cells of the table's ball: the strongly
    connected components of the left W-graph, of the right one, and of both
    graphs' edges together, since <=_LR is the preorder generated by <=_L
    and <=_R.  The left W-graph is the right one, every vertex inverted."""
    right = w_graph(table).edges
    inv = table._inv
    left = {inv[a]: [inv[b] for b in out] for a, out in right.items()}
    n = len(inv)
    both = {v: left[v] + right[v] for v in range(n)}
    return (strongly_connected_components(n, left),
            strongly_connected_components(n, right),
            strongly_connected_components(n, both))
