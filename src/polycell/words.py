"""Word problem for polygon Coxeter groups.

Reading a word left to right while tracking which small roots are inversions
of the prefix gives a deterministic automaton whose live runs are exactly
the reduced words (states double as right-descent detectors).  The metric
ball grown from it is the only word engine: `element` reads a word off the
ball, one right Cayley edge per letter from the identity, and `multiply`
is `element` on the concatenated words.

A group keeps one ball, grown layer by layer from the Cayley graph alone as
in Brink-Howlett's automatic structure (Math. Ann. 296, 1993); a smaller
ball is its index prefix.  Layer L+1 comes from the up-moves (w, s) of layer
L, and the canonical state of w.s gives its right descents: at most two, as
the angle sum leaves no finite parabolic subgroup of rank 3.  A new z with
descents {s, t} gets both down edges at once: z.t is found from z.s by
2(m(s, t) - 1) steps round the coset z<s, t>, and the up-move from z.t is
then already set.  Prefixes and suffixes of ShortLex words are
ShortLex.  So z's word is the least of word(z.r) + (r,), the first up-move
to meet z in a sorted layer; and for z = w.s, word(z)[1:] spells u.s, u the
suffix element of w, so the canonical state of z's reversed word (its left
descents) is one transition from that of u.s.  Left edges follow from the
lifting property: a left descent t of z has t.z = (t.w).s if t is a left
descent of w, else t.z = w.  A ball is flat arrays by index; its `Element`
records and word index are built only when first read.
"""

from __future__ import annotations

from .errors import ResourceLimit
from .presentation import CoxeterPresentation
from .smallroots import SmallRootTable, compute_small_roots

Word = tuple[int, ...]

BALL_CAP = 2_000_000  # most elements of a ball


class Element:
    """Group element as its ShortLex-least reduced word, with descent sets;
    equal and hashed by value."""

    __slots__ = ("word", "left", "right")

    def __init__(self, word: Word, left: frozenset[int], right: frozenset[int]):
        self.word = word
        self.left = left
        self.right = right

    @property
    def length(self) -> int:
        return len(self.word)

    def _key(self):
        return self.word, self.left, self.right

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Element({self.word})"


class ElementBall:
    """All elements of length <= radius, sorted by (length, word), as arrays
    by index: ShortLex words, lengths, canonical states of each word and of
    its reverse (descents[rstate[i]] and descents[lstate[i]] are the right and
    left descents), Cayley edges (None = leaves the ball), counts by length."""

    __slots__ = ("radius", "descents", "words", "lengths", "rstate", "lstate",
                 "right_mult", "left_mult", "counts", "_elements", "_index")

    def __init__(self, radius, descents, words, lengths, rstate, lstate,
                 right_mult, left_mult, counts):
        self.radius, self.descents, self.words, self.lengths = radius, descents, words, lengths
        self.rstate, self.lstate, self.counts = rstate, lstate, counts
        self.right_mult, self.left_mult = right_mult, left_mult
        self._elements = self._index = None

    def __len__(self):
        return len(self.words)

    @property
    def elements(self) -> list[Element]:
        if self._elements is None:
            d = self.descents.__getitem__
            self._elements = list(map(Element, self.words, map(d, self.lstate),
                                      map(d, self.rstate)))
        return self._elements

    @property
    def index(self) -> dict[Word, int]:
        if self._index is None:
            self._index = dict(zip(self.words, range(len(self.words))))
        return self._index

    def _cut(self, radius: int) -> ElementBall:
        # the index prefix; rows below its last layer are complete, so shared
        n = sum(self.counts[:radius + 1])
        right, left = self.right_mult[:n], self.left_mult[:n]
        for mult in (right, left):
            for i in range(n - self.counts[radius], n):
                mult[i] = [None if j is None or j >= n else j for j in mult[i]]
        return ElementBall(radius, self.descents, self.words[:n], self.lengths[:n],
                           self.rstate[:n], self.lstate[:n], right, left, self.counts[:radius + 1])


class PolygonGroup:
    """Word-problem engine for one polygon presentation."""

    def __init__(self, presentation: CoxeterPresentation):
        self.presentation = presentation
        self.rank = presentation.rank
        self.table: SmallRootTable = compute_small_roots(presentation)
        self._build_transitions()
        self._balls: dict[int, ElementBall] = {}

    # canonical automaton: states are the reachable sets of small inversions
    def _build_transitions(self) -> None:
        table = self.table
        sets = [frozenset()]
        ids = {sets[0]: 0}
        trans: list[list[int | None]] = []
        for cur in sets:  # grows as new states are met
            row: list[int | None] = []
            for s in range(self.rank):
                if table.simple[s] in cur:
                    row.append(None)
                    continue
                nxt = {table.simple[s]}
                for r in cur:
                    img = table.action[r][s]
                    if img >= 0:
                        nxt.add(img)
                key = frozenset(nxt)
                row.append(ids.setdefault(key, len(sets)))
                if row[-1] == len(sets):
                    sets.append(key)
            trans.append(row)
        self.transitions = trans
        simple_of = {r: s for s, r in enumerate(table.simple)}
        self.state_rdesc = [frozenset(simple_of[r] for r in st if r in simple_of)
                            for st in sets]

    # --- elements ---------------------------------------------------------

    def element(self, word) -> Element:
        """The element a word spells: one right edge per letter from the
        identity, the ball grown by a layer only where an edge leaves it.
        Of the balls the walk grows, only the last is kept."""
        balls = self._balls
        top = max(balls, default=-1)
        ball = self.ball(max(top, 0))
        i = 0
        for s in word:
            if ball.right_mult[i][s] is None:
                grown = self.ball(ball.radius + 1)
                if ball.radius > top:
                    del balls[ball.radius]
                ball = grown
            i = ball.right_mult[i][s]
        d = ball.descents
        return Element(ball.words[i], d[ball.lstate[i]], d[ball.rstate[i]])

    def multiply(self, a: Element, b: Element) -> Element:
        return self.element(a.word + b.word)

    # --- balls --------------------------------------------------------------

    def ball(self, radius: int) -> ElementBall:
        """Every element of length <= radius, with its Cayley edges: the
        index prefix of the largest ball built so far, or a copy of it grown
        layer by layer.  Past BALL_CAP elements it raises ResourceLimit, and
        the balls built before stay as they were."""
        balls = self._balls
        if radius in balls:
            return balls[radius]
        trans, rdesc, rank = self.transitions, self.state_rdesc, self.rank
        m = self.presentation.matrix
        top = max(balls, default=0)
        ball = (balls[top] if balls else ElementBall(
            0, rdesc, [()], [0], [0], [0], [[None] * rank], [[None] * rank], [1]
        ))._cut(min(top, radius))
        words, lengths, rstate, lstate = ball.words, ball.lengths, ball.rstate, ball.lstate
        right_mult, left_mult, counts = ball.right_mult, ball.left_mult, ball.counts
        lo = len(words) - counts[-1]
        for length in range(top + 1, radius + 1):
            hi = len(words)
            for w in range(lo, hi):
                row, up = trans[rstate[w]], right_mult[w]
                for s in range(rank):
                    q = row[s]
                    if q is None or up[s] is not None:  # a descent, or set
                        continue
                    # the layer below is sorted, so the first candidate
                    # word(z.s) + (s,) met is z's ShortLex word
                    z = len(words)
                    word = words[w] + (s,)
                    suffix = right_mult[left_mult[w][word[0]]][s] if w else 0
                    words.append(word)
                    lengths.append(length)
                    rstate.append(q)
                    lstate.append(trans[lstate[suffix]][word[0]])
                    right_mult.append([None] * rank)
                    left_mult.append([None] * rank)
                    up[s] = z
                    right_mult[z][s] = w
                    for t in rdesc[q]:
                        if t == s:
                            continue
                        # z.t = z.s.(t.s)^(m-1), the other way round the
                        # coset z<s, t>: down to its minimum, then up
                        y, a, b = w, t, s
                        for _ in range(2 * int(m[s][t]) - 2):
                            y, a, b = right_mult[y][a], b, a
                        right_mult[y][t] = z
                        right_mult[z][t] = y
                    for t in rdesc[lstate[z]]:
                        d = (right_mult[left_mult[w][t]][s]
                             if t in rdesc[lstate[w]] else w)
                        left_mult[z][t] = d
                        left_mult[d][t] = z
            lo = hi
            counts.append(len(words) - hi)
            if len(words) > BALL_CAP:
                raise ResourceLimit(f"ball exceeds cap {BALL_CAP}")
        ball.radius = radius
        balls[radius] = ball
        return ball
